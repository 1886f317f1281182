"""Deferred computation graphs over simulated ciphertexts.

Programs are built as hash-consed expression DAGs.  Arithmetic stays
server-side; comparisons and square roots become unresolved parameters
(BoolVar / Sqrt nodes) that only a key-holding client can resolve.  A
BoolVar, or a pure arithmetic node, can also be reindexed: its lanes
gathered through an index map, which is free like ``ckks_sim.gather`` and
lets one comparison or one value per source lane serve every lane that
reads it.  The engine can:

  * simplify an expression to its multilinear normal form over those
    parameters (booleans are idempotent, a squared sqrt collapses to its
    argument), with pure-arithmetic expressions as coefficients;
  * evaluate expressions under two regimes: plaintext (comparisons
    resolved inline) and ciphertext (parameters bound to encrypted values
    supplied by a client).

``protocol`` lowers slots to package tables, and its client sums them.

Comparison semantics are strict: ``compare(a, b)`` is the boolean [a > b].
Each unordered operand pair is recorded once; building the reversed
comparison yields the complement ``1 - BoolVar``, which makes the reverse
form a "greater or equal".  Ties therefore resolve deterministically.

Every node carries its resolution tier, set when it is built: 0 for
pure arithmetic, and for a comparison or square root one more than its
operands'; any other node takes the highest tier it reads.  The
interactive protocol answers a tier's requests in one round.

Evaluation-order discipline: every walk over the graph (normal forms,
plaintext and ciphertext evaluation, run planning, rendering) goes
through ``schedule`` and handles nodes in id order.  Ciphertext
evaluation replays tapes of steps written in that order: one per call,
or, for a planned run, one written with the plan, so each input replays
it without walking the graph.  Ids are handed out in
creation order and a node is created after the nodes it reads, so id order
is topological.  Noise-mode multiplications draw their noise in that order
too.  Normal forms keep monomials in a canonical order, parameter products
fold as balanced trees and sums fold left.  The client-side residual sum
adds the same terms in the same order; a product of comparison answers,
each exactly 0 or 1, is the same whatever its order, and a product with
a square root folds as the server folds it.  So exact-mode results agree
bit for bit across execution modes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ckks_sim import Ciphertext, CkksContext, Value, gather
from .errors import DeferralUnsupported, FheSiftError, MissingAssignment

# Node opcodes.
CIPHER = "cipher"
PLAIN = "plain"
ADD = "add"
NEG = "neg"
MUL = "mul"
BOOL = "bool"
SQRT = "sqrt"
REINDEX = "reindex"

# Most term pairs a normal form may multiply out for one product node.  A
# product of n complemented comparisons 1 - c has 2^n monomials; the
# pipeline's largest product multiplies 144 pairs, whatever the image
# size or option.
MAX_PRODUCT_TERMS = 1 << 14

_POSITIVE = "positive"
_NEGATIVE = "negative"
_UNKNOWN = "unknown"


def balanced_fold(items: list, combine):
    """Tournament-style fold; tree shape depends only on len(items)."""
    if not items:
        raise ValueError("balanced_fold needs at least one item")
    items = list(items)
    while len(items) > 1:
        nxt = [combine(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


class Expr:
    """One DAG node. Construct through a GraphBuilder, never directly.

    ``a`` and ``c`` are what the node reads, a comparison's being its two
    operands.  ``tier`` is 0 for pure arithmetic.
    """

    __slots__ = ("b", "op", "a", "c", "payload", "id", "width", "tier", "name")

    def __init__(self, b, op, a, c, payload, ident, width, tier, name=None):
        self.b = b
        self.op = op
        self.a = a
        self.c = c
        self.payload = payload
        self.id = ident
        self.width = width
        self.tier = tier
        self.name = name

    # Arithmetic sugar; comparisons stay explicit via builder.compare.
    def __add__(self, other):
        return self.b.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return self.b.mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self.b.sub(self, other)

    def __rsub__(self, other):
        return self.b.sub(other, self)

    def __neg__(self):
        return self.b.neg(self)

    def __repr__(self):
        return f"Expr#{self.id}<{self.op}>"


@dataclass(frozen=True)
class Comparison:
    """Canonical strict comparison [lhs > rhs]."""

    id: int
    lhs: Expr
    rhs: Expr
    width: int
    tier: int


@dataclass(frozen=True)
class SqrtRequest:
    id: int
    arg: Expr
    tier: int


@dataclass(frozen=True, eq=False)
class Reindex:
    """A node with its lanes gathered through ``index``: lane i is lane
    ``index[i]`` of comparison ``source``, or, when ``source`` is None, of
    the pure arithmetic node the REINDEX node reads.  ``map_id`` names the
    map's content within its builder."""

    id: int
    source: int | None
    index: np.ndarray
    map_id: int


@dataclass(frozen=True)
class Rational:
    """A division kept symbolic: num/den plus what is known about sign(den)."""

    num: Expr
    den: Expr
    den_sign: str = _UNKNOWN

    def lt(self, other) -> Expr:
        return self.num.b.rational_lt(self, other)

    def gt(self, other) -> Expr:
        return self.num.b.rational_gt(self, other)

    def abs_le(self, bound) -> Expr:
        return self.num.b.rational_abs_le(self, bound)


# Normal-form key kind of each parameter opcode: a parameter is keyed
# (kind, comparison / reindex / sqrt id).
_PARAM_KEYS = {BOOL: "b", REINDEX: "r", SQRT: "s"}


def _param_key(n: Expr) -> tuple[str, int]:
    return _PARAM_KEYS[n.op], n.payload


def schedule(roots, done, kids) -> list[Expr]:
    """The nodes reachable from ``roots`` through ``kids``, in id order.

    Ids in ``done`` are skipped and not descended into, so a node reachable
    only through them is left out too.  Every node is created after the
    nodes it reads, so id order is a topological order: a walker that
    handles the returned nodes in turn finds each kid already handled.
    """
    found = {r.id: r for r in roots if r.id not in done}
    stack = list(found.values())
    while stack:
        for k in kids(stack.pop()):
            if k.id not in found and k.id not in done:
                found[k.id] = k
                stack.append(k)
    return [found[i] for i in sorted(found)]


def operands(n: Expr) -> tuple:
    """Every node n reads: its a and c."""
    return () if n.a is None else (n.a,) if n.c is None else (n.a, n.c)


def _bound(n: Expr):
    """What n reads once comparisons and square roots are bound to values.

    A subtraction x + (-y) reads x and y, not -y; see ``_as_subtraction``.
    Every cipher walk calls this once or twice per node, so it spells out
    ``operands`` rather than calling it.
    """
    if n.op == ADD:
        return _as_subtraction(n) or (n.a, n.c)
    if n.op in (BOOL, SQRT) or n.a is None:
        return ()
    return (n.a,) if n.c is None else (n.a, n.c)


class GraphBuilder:
    """Single-writer construction context for one program's DAG.

    Node identity is structural: identical (op, children, payload) terms
    intern to the same node, so repeated subterms share comparisons and
    coefficients for free.  Plain scalars intern by value; array payloads
    and ciphertexts intern by object identity; reindexing maps by content.
    A ``leaf`` names where its ciphertext comes from instead of holding
    it, and never interns.

    ``freeze`` ends construction.  A frozen graph can then be ``bind``-ed
    once per input: each binding is a builder over the same nodes that
    holds that input's leaf ciphertexts, which the evaluators read.
    """

    def __init__(self):
        self.frozen = False
        self.leaves: dict[int, Ciphertext] = {}  # leaf node id -> bound ciphertext
        self.nodes: list[Expr] = []
        self.comparisons: list[Comparison] = []
        self.sqrts: list[SqrtRequest] = []
        self.reindexed: list[Reindex] = []
        self._intern: dict = {}
        # map bytes -> (map id, canonical map, lowest and highest lane)
        self._index_maps: dict[bytes, tuple[int, np.ndarray, int, int]] = {}
        # id(array) -> (array, entry): an array passed again skips hashing;
        # holding it keeps its id from being reused
        self._index_objs: dict[int, tuple[np.ndarray, tuple]] = {}
        self._cmp_by_pair: dict[tuple[int, int], int] = {}
        self._param_nodes: dict[tuple, Expr] = {}  # normal-form key -> node
        self._nf_memo: dict[int, dict] = {}
        self._cipher_count = 0

    # -- node construction -------------------------------------------------

    def _node(self, op, a=None, c=None, payload=None, key=None, width=1, name=None):
        if key is not None and key in self._intern:
            return self._intern[key]
        if self.frozen:
            raise FheSiftError("the graph is frozen; it takes no new node")
        tier = 0 if a is None else a.tier if c is None else max(a.tier, c.tier)
        if op == BOOL or op == SQRT:
            tier += 1
        node = Expr(self, op, a, c, payload, len(self.nodes), width, tier, name)
        self.nodes.append(node)
        if key is not None:
            self._intern[key] = node
        return node

    @staticmethod
    def _bw(x: Expr, y: Expr) -> int:
        if x.width == y.width:
            return x.width
        if x.width == 1:
            return y.width
        if y.width == 1:
            return x.width
        raise ValueError(f"width mismatch: {x.width} vs {y.width}")

    def cipher(self, ct: Ciphertext, name: str | None = None) -> Expr:
        if name is None:
            name = f"v{self._cipher_count}"
        self._cipher_count += 1
        return self._node(
            CIPHER, payload=ct, key=(CIPHER, id(ct)), width=ct.width, name=name
        )

    def leaf(self, source, width: int, name: str | None = None) -> Expr:
        """A ciphertext leaf of ``width`` lanes that ``source`` describes
        and each binding supplies (see ``bind``).  Every call makes a new
        node, as ``cipher`` does for every new ciphertext, and leaves are
        named from the same count."""
        if name is None:
            name = f"v{self._cipher_count}"
        self._cipher_count += 1
        return self._node(CIPHER, payload=source, width=width, name=name)

    def leaf_value(self, n: Expr) -> Ciphertext:
        """The ciphertext leaf ``n`` stands for: its binding, or its own."""
        ct = self.leaves.get(n.id)
        if ct is not None:
            return ct
        if isinstance(n.payload, Ciphertext):
            return n.payload
        raise MissingAssignment(f"leaf {n.name} is not bound to a ciphertext")

    def freeze(self) -> None:
        """End construction: from now on making a node raises, and the
        tables only construction reads (interning, comparison pairs, index
        maps and normal forms) are dropped."""
        self.frozen = True
        self._intern, self._cmp_by_pair, self._nf_memo = {}, {}, {}
        self._index_maps, self._index_objs = {}, {}

    def bind(self, leaves: dict[int, Ciphertext]) -> GraphBuilder:
        """A frozen builder over this frozen graph's nodes, comparisons,
        square roots and reindexed parameters, whose leaves read
        ``leaves`` (leaf node id -> ciphertext).  Nothing is copied."""
        if not self.frozen:
            raise ValueError("only a frozen graph can be bound")
        out = GraphBuilder()
        out.nodes, out.comparisons, out.sqrts = self.nodes, self.comparisons, self.sqrts
        out.reindexed, out._param_nodes = self.reindexed, self._param_nodes
        out.leaves = leaves
        out.freeze()
        return out

    def plain(self, k, name: str | None = None) -> Expr:
        arr = np.asarray(k, dtype=np.float64)
        if arr.ndim == 0:
            val = float(arr)
            return self._node(PLAIN, payload=val, key=(PLAIN, val), width=1, name=name)
        return self._node(PLAIN, payload=arr, key=(PLAIN, id(arr)), width=arr.size, name=name)

    def as_expr(self, x) -> Expr:
        if isinstance(x, Expr):
            return x
        return self.plain(x)

    @staticmethod
    def _is_const(e: Expr, v: float) -> bool:
        return e.op == PLAIN and not isinstance(e.payload, np.ndarray) and e.payload == v

    def add(self, x, y) -> Expr:
        x, y = self.as_expr(x), self.as_expr(y)
        if x.op == PLAIN and y.op == PLAIN:
            return self.plain(np.asarray(x.payload) + np.asarray(y.payload))
        if self._is_const(x, 0.0):
            return y
        if self._is_const(y, 0.0):
            return x
        a, c = (x, y) if x.id <= y.id else (y, x)
        return self._node(ADD, a=a, c=c, key=(ADD, a.id, c.id), width=self._bw(x, y))

    def neg(self, x) -> Expr:
        x = self.as_expr(x)
        if x.op == PLAIN:
            return self.plain(-np.asarray(x.payload))
        if x.op == NEG:
            return x.a
        return self._node(NEG, a=x, key=(NEG, x.id), width=x.width)

    def sub(self, x, y) -> Expr:
        return self.add(self.as_expr(x), self.neg(y))

    def mul(self, x, y) -> Expr:
        x, y = self.as_expr(x), self.as_expr(y)
        if x.op == PLAIN and y.op == PLAIN:
            return self.plain(np.asarray(x.payload) * np.asarray(y.payload))
        if self._is_const(x, 1.0):
            return y
        if self._is_const(y, 1.0):
            return x
        if self._is_const(x, 0.0) or self._is_const(y, 0.0):
            return self.plain(0.0)
        a, c = (x, y) if x.id <= y.id else (y, x)
        return self._node(MUL, a=a, c=c, key=(MUL, a.id, c.id), width=self._bw(x, y))

    def sum_(self, xs) -> Expr:
        xs = list(xs)
        if not xs:
            return self.plain(0.0)
        out = self.as_expr(xs[0])
        for x in xs[1:]:
            out = self.add(out, x)
        return out

    def product(self, xs) -> Expr:
        xs = [self.as_expr(x) for x in xs]
        if not xs:
            return self.plain(1.0)
        return balanced_fold(xs, self.mul)

    # -- comparisons, selection, sqrt ---------------------------------------

    def compare(self, lhs, rhs) -> Expr:
        """Strict [lhs > rhs].

        The first orientation seen for an operand pair is canonical; the
        reversed call returns 1 - BoolVar, i.e. a non-strict "rhs >= lhs"
        turned around.  compare(x, x) stays a real BoolVar resolving to 0.
        """
        lhs, rhs = self.as_expr(lhs), self.as_expr(rhs)
        pair = (lhs.id, rhs.id)
        if pair in self._cmp_by_pair:
            return self._param_nodes["b", self._cmp_by_pair[pair]]
        rev = (rhs.id, lhs.id)
        if rev in self._cmp_by_pair:
            canonical = self._param_nodes["b", self._cmp_by_pair[rev]]
            return self.sub(self.plain(1.0), canonical)
        cmp_id = len(self.comparisons)
        node = self._node(BOOL, lhs, rhs, payload=cmp_id, key=(BOOL, cmp_id),
                          width=self._bw(lhs, rhs))
        self.comparisons.append(Comparison(cmp_id, lhs, rhs, node.width, node.tier))
        self._cmp_by_pair[pair] = cmp_id
        self._param_nodes[_param_key(node)] = node
        return node

    def reindex(self, param: Expr, index) -> Expr:
        """BoolVar or pure (tier-0) node ``param`` with its lanes gathered
        through ``index``.

        Lane i of the result is lane ``index[i]`` of ``param``, so one
        comparison, or one value, over per-pixel operands serves every
        window position that reads the pixel.  Free, like
        ``ckks_sim.gather``: no op, no level.  A reindexed comparison is a
        parameter of its own; a reindexed pure node is pure arithmetic, a
        normal form's coefficient like any other.  Equal maps of one node
        intern to one node; an array passed again is recognised by
        identity, so, like array payloads, it must not change afterwards.
        Ids count up in creation order, so within a normal form reindexed
        parameters sort as the per-position comparisons they stand for
        would.
        """
        if not isinstance(param, Expr) or (param.op != BOOL and param.tier != 0):
            raise ValueError("only a comparison parameter or a pure node can be reindexed")
        seen = self._index_objs.get(id(index))
        if seen is not None and seen[0] is index:
            map_id, idx, lo, hi = seen[1]
        else:
            idx = np.asarray(index)
            if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
                raise ValueError("index map must be a non-empty 1-D integer array")
            idx = np.ascontiguousarray(idx, dtype=np.intp)
            raw = idx.tobytes()
            if raw not in self._index_maps:
                self._index_maps[raw] = (len(self._index_maps), idx, int(idx.min()), int(idx.max()))
            map_id, idx, lo, hi = entry = self._index_maps[raw]
            if isinstance(index, np.ndarray):
                self._index_objs[id(index)] = (index, entry)
        if param.width < 2 or lo < 0 or hi >= param.width:
            raise ValueError(f"index map reaches outside the {param.width} lanes of {param!r}")
        key = (REINDEX, param.id, map_id)
        if key in self._intern:
            return self._intern[key]
        rid = len(self.reindexed)
        source = param.payload if param.op == BOOL else None
        self.reindexed.append(Reindex(rid, source, idx, map_id))
        node = self._node(REINDEX, a=param, payload=rid, key=key, width=len(idx))
        if source is not None:
            self._param_nodes[_param_key(node)] = node
        return node

    def select(self, cond, then, els) -> Expr:
        """Branchless cond*(then-els) + els; exactly one multiplication."""
        cond, then, els = self.as_expr(cond), self.as_expr(then), self.as_expr(els)
        if cond.op == PLAIN and not isinstance(cond.payload, np.ndarray):
            if cond.payload == 1.0:
                return then
            if cond.payload == 0.0:
                return els
        if then is els:
            return then
        return self.add(self.mul(cond, self.sub(then, els)), els)

    def sqrt_deferred(self, arg) -> Expr:
        """Square root left for the client; one request per distinct argument."""
        arg = self.as_expr(arg)
        key = (SQRT, arg.id)
        if key in self._intern:
            return self._intern[key]
        sqrt_id = len(self.sqrts)
        node = self._node(SQRT, a=arg, payload=sqrt_id, key=key, width=arg.width)
        self.sqrts.append(SqrtRequest(sqrt_id, arg, node.tier))
        self._param_nodes[_param_key(node)] = node
        return node

    # -- rationals -----------------------------------------------------------

    def rational_div(self, num, den, den_sign: str = _UNKNOWN) -> Rational:
        if den_sign not in (_POSITIVE, _NEGATIVE, _UNKNOWN):
            raise ValueError(f"bad den_sign {den_sign!r}")
        num, den = self.as_expr(num), self.as_expr(den)
        if den.op == PLAIN and not isinstance(den.payload, np.ndarray):
            if den.payload == 0.0:
                raise ValueError("rational with constant zero denominator")
            den_sign = _POSITIVE if den.payload > 0 else _NEGATIVE
        return Rational(num, den, den_sign)

    def _as_rational(self, x) -> Rational:
        if isinstance(x, Rational):
            return x
        return Rational(self.as_expr(x), self.plain(1.0), _POSITIVE)

    def rational_lt(self, r, s) -> Expr:
        """[r < s] with denominators cleared.

        Cross-multiplies and orients the strict comparison by the sign of
        the combined denominator.  An unknown sign costs one extra
        comparison [den > 0] plus a select between the two orientations.
        """
        r, s = self._as_rational(r), self._as_rational(s)
        ad = self.mul(r.num, s.den)
        cb = self.mul(s.num, r.den)
        flips = (r.den_sign == _NEGATIVE) + (s.den_sign == _NEGATIVE)
        unknown = [q.den for q in (r, s) if q.den_sign == _UNKNOWN]
        if not unknown:
            return self.compare(cb, ad) if flips % 2 == 0 else self.compare(ad, cb)
        prod = unknown[0] if len(unknown) == 1 else self.mul(unknown[0], unknown[1])
        den_pos = self.compare(prod, self.plain(0.0))
        pos = self.compare(cb, ad) if flips % 2 == 0 else self.compare(ad, cb)
        neg = self.compare(ad, cb) if flips % 2 == 0 else self.compare(cb, ad)
        return self.select(den_pos, pos, neg)

    def rational_gt(self, r, s) -> Expr:
        return self.rational_lt(self._as_rational(s), self._as_rational(r))

    def rational_abs_le(self, r: Rational, bound) -> Expr:
        """[|num/den| <= bound] via squaring; needs no denominator sign."""
        if isinstance(bound, Expr):
            b2 = self.mul(bound, bound)
        else:
            b2 = self.plain(float(bound) * float(bound))
        n2 = self.mul(r.num, r.num)
        d2 = self.mul(r.den, r.den)
        return self.sub(self.plain(1.0), self.compare(n2, self.mul(b2, d2)))

    # -- multilinear normal form ------------------------------------------------

    def _mul_terms(self, p1, c1, p2, c2):
        # boolean parameters, reindexed or not, are idempotent
        params = {k for k in p1 if k[0] != "s"} | {k for k in p2 if k[0] != "s"}
        sqrt_keys = [k for k in p1 if k[0] == "s"] + [k for k in p2 if k[0] == "s"]
        coeff = self.mul(c1, c2)
        seen: dict = {}
        for k in sqrt_keys:
            seen[k] = seen.get(k, 0) + 1
        for k, n in sorted(seen.items()):
            arg = self.sqrts[k[1]].arg
            if n >= 2:
                if arg.tier > 0:
                    raise DeferralUnsupported(
                        "cannot square a sqrt parameter whose argument is unresolved"
                    )
                for _ in range(n // 2):
                    coeff = self.mul(coeff, arg)
            if n % 2:
                params.add(k)
        return frozenset(params), coeff

    def normal_form(self, e: Expr) -> dict:
        """Map frozenset(param keys) -> pure coefficient Expr.

        Parameters are ("b", comparison id), ("r", reindex id) and
        ("s", sqrt id).  Booleans are idempotent so monomials are genuine
        sets; a squared sqrt parameter is substituted by its argument.
        """
        memo = self._nf_memo
        # pure nodes and parameters are a normal form's leaves
        kids = lambda n: () if n.tier == 0 or n.op in _PARAM_KEYS else operands(n)
        for n in schedule([e], memo, kids):
            if n.tier == 0:
                memo[n.id] = {frozenset(): n}
                continue
            if n.op in _PARAM_KEYS:
                memo[n.id] = {frozenset({_param_key(n)}): self.plain(1.0)}
                continue
            if n.op == ADD:
                out, terms = dict(memo[n.a.id]), memo[n.c.id].items()
            elif n.op == NEG:
                out, terms = {}, ((params, self.neg(coeff))
                                  for params, coeff in memo[n.a.id].items())
            else:
                fa, fc = memo[n.a.id], memo[n.c.id]
                if len(fa) * len(fc) > MAX_PRODUCT_TERMS:
                    raise FheSiftError(
                        f"normal form of node {n.id} multiplies {len(fa)} by {len(fc)} "
                        f"terms, {len(fa) * len(fc)} products, more than the "
                        f"{MAX_PRODUCT_TERMS} allowed")
                out, terms = {}, (self._mul_terms(pa, ca, pc, cc)
                                  for pa, ca in fa.items() for pc, cc in fc.items())
            for params, coeff in terms:
                out[params] = self.add(out[params], coeff) if params in out else coeff
            memo[n.id] = {params: coeff for params, coeff in out.items()
                          if not self._is_const(coeff, 0.0)}
        return memo[e.id]

    @staticmethod
    def sorted_terms(nf: dict) -> list:
        return sorted(nf.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    def simplify(self, e: Expr) -> Expr:
        """Rebuild e from its multilinear normal form, canonically ordered.

        Idempotent: simplify(simplify(e)) interns to the same node.  The
        rebuilt node's normal form is e's, term for term, so it is seeded
        into the memo instead of being expanded again.  An empty form
        rebuilds to ``plain(0.0)``, whose own form ``{(): plain(0.0)}`` stays.

        A monomial's factors multiply in creation (node id) order, so
        monomials that share their earliest-created factors share the
        balanced products over them.  Key order would put every comparison
        before every reindexed parameter and break that sharing.
        """
        nf = self.normal_form(e)
        out = None
        for params, coeff in self.sorted_terms(nf):
            factors = sorted((self._param_nodes[k] for k in params), key=lambda n: n.id)
            term = self.mul(self.product(factors), coeff) if factors else coeff
            out = term if out is None else self.add(out, term)
        if out is None:
            return self.plain(0.0)
        self._nf_memo.setdefault(out.id, nf)
        return out


# -- evaluation ------------------------------------------------------------------


class PlainEvaluator:
    """Evaluates a DAG on raw values, resolving comparisons inline.

    Cipher leaves contribute their carried values; boolean parameters
    become exact 0.0/1.0 floats, so masked arithmetic matches a branch.
    """

    def __init__(self, builder: GraphBuilder):
        self.b = builder
        self.memo: dict[int, Value] = {}

    def _compute(self, n: Expr) -> Value:
        m = self.memo
        if n.op == CIPHER:
            return self.b.leaf_value(n).value
        if n.op == PLAIN:
            return n.payload
        if n.op == ADD:
            return m[n.a.id] + m[n.c.id]
        if n.op == NEG:
            return -m[n.a.id]
        if n.op == MUL:
            return m[n.a.id] * m[n.c.id]
        if n.op == BOOL:
            out = np.greater(m[n.a.id], m[n.c.id]).astype(np.float64)
            return float(out) if out.ndim == 0 else out
        if n.op == SQRT:
            return np.sqrt(m[n.a.id])
        if n.op == REINDEX:
            return np.asarray(m[n.a.id])[self.b.reindexed[n.payload].index]
        raise AssertionError(n.op)  # pragma: no cover

    def eval(self, root: Expr) -> Value:
        for n in schedule([root], self.memo, operands):
            self.memo[n.id] = self._compute(n)
        return self.memo[root.id]

    def bool_value(self, cmp: Comparison) -> Value:
        return self.eval(self.b._param_nodes["b", cmp.id])


# Tape opcodes beyond the node opcodes ADD, MUL, NEG and PLAIN: what one
# replayed step computes.
SUB = "sub"
MUL_PLAIN = "mul_plain"
GATHER = "gather"
LEAF = "leaf"
# Node opcodes whose steps build a new value array.
_BUILT = frozenset((ADD, MUL, NEG, REINDEX))


def _step(n: Expr, free: tuple = (), into: int | None = None) -> tuple:
    """The tape step computing node ``n``: (opcode, destination id, operand
    id, operand id or public payload, ids read for the last time, the id
    among those whose value array the result may take, or None).

    A subtraction x + (-y) is one SUB of x and y; a product with a plain
    constant is one MUL_PLAIN carrying the constant; a reindexed BoolVar
    GATHERs its comparison through the map; a LEAF carries its node and a
    PLAIN its constant.
    """
    if n.op == ADD:
        sub = _as_subtraction(n)
        if sub is not None:
            return SUB, n.id, sub[0].id, sub[1].id, free, into
        return ADD, n.id, n.a.id, n.c.id, free, into
    if n.op == MUL:
        if n.a.op == PLAIN:
            return MUL_PLAIN, n.id, n.c.id, n.a.payload, free, into
        if n.c.op == PLAIN:
            return MUL_PLAIN, n.id, n.a.id, n.c.payload, free, into
        return MUL, n.id, n.a.id, n.c.id, free, into
    if n.op == NEG:
        return NEG, n.id, n.a.id, None, free, into
    if n.op == REINDEX:
        return GATHER, n.id, n.a.id, n.b.reindexed[n.payload].index, free, None
    if n.op == CIPHER:
        return LEAF, n.id, n, None, free, None
    if n.op == PLAIN:
        return PLAIN, n.id, n.payload, None, free, None
    raise AssertionError(n.op)  # pragma: no cover


class CipherEvaluator:
    """Evaluates a DAG to ciphertexts through a simulator context.

    BoolVar / Sqrt nodes must be answered with encrypted values through
    ``bind`` (the interactive protocol binds them round by round; the
    constructor binds ``bool_cts`` and ``sqrt_cts``, keyed by comparison
    and sqrt id); reading an unbound parameter raises MissingAssignment.
    A reindexed BoolVar gathers its bound comparison.  A subtraction,
    built as an ADD with a NEG child, costs one ``ctx.sub`` and no
    negation.

    Every evaluation replays a tape of steps (see ``_step``) through one
    executor.  Until a plan is followed, ``eval`` builds the tape of one
    call from the nodes its root needs that ``memo`` lacks, in id order,
    and ``memo`` keeps every computed or bound ciphertext.  ``follow``
    adopts a ``RunPlan``, whose tape was built with the graph, made by
    ``RunPlan.over`` from what ``memo`` holds.  From then on each ``eval``
    must ask for the plan's next root and replays that root's segment, and
    each ciphertext, answers included, is dropped after its last read.
    Either way each node is computed once, in the same order.
    """

    def __init__(self, ctx: CkksContext, builder: GraphBuilder,
                 bool_cts: dict[int, Ciphertext] | None = None,
                 sqrt_cts: dict[int, Ciphertext] | None = None):
        self.ctx = ctx
        self.b = builder
        self.memo: dict[int, Ciphertext] = {}
        self._tape: tuple | None = None  # the followed plan's segments
        self._next = 0  # the segment the next ask replays
        for kind, cts in (("b", bool_cts), ("s", sqrt_cts)):
            for i, ct in (cts or {}).items():
                self.bind(builder._param_nodes[kind, i], ct)

    def bind(self, param: Expr, ct: Ciphertext) -> None:
        """Answer comparison or sqrt node ``param`` with ``ct``."""
        self.memo[param.id] = ct

    def follow(self, plan: RunPlan) -> None:
        """Adopt ``plan``, made over a memo holding the nodes this one
        holds: drop every ciphertext nothing reads and replay the plan's
        tape from its first ask."""
        if self.memo.keys() != plan.evaluated:
            raise ValueError(f"the plan was made over {len(plan.evaluated)} evaluated nodes; "
                             f"this evaluator holds {len(self.memo)}, "
                             f"{len(self.memo.keys() - plan.evaluated)} of them not among those")
        for i in plan.dropped:
            del self.memo[i]
        self._tape, self._next = plan.tape, 0

    def _replay(self, steps) -> None:
        """Run tape ``steps`` in order, each into ``memo``, dropping what
        each reads for the last time and handing the op the value array
        the step names as given up."""
        m, ctx = self.memo, self.ctx
        for op, dst, x, y, free, into in steps:
            out = None if into is None else m[into].value
            if op == MUL:
                m[dst] = ctx.mul(m[x], m[y], out)
            elif op == ADD:
                m[dst] = ctx.add(m[x], m[y], out)
            elif op == SUB:
                m[dst] = ctx.sub(m[x], m[y], out)
            elif op == GATHER:
                m[dst] = gather(m[x], y)
            elif op == MUL_PLAIN:
                m[dst] = ctx.mul_plain(m[x], y, out)
            elif op == NEG:
                m[dst] = ctx.neg(m[x], out)
            elif op == LEAF:
                m[dst] = self.b.leaf_value(x)
            else:  # PLAIN: public constants ride along unencrypted, at full level
                m[dst] = Ciphertext(x, ctx.params.depth_budget, 0.0)
            if free:
                for i in free:
                    del m[i]

    def eval(self, root: Expr) -> Ciphertext:
        memo, tape = self.memo, self._tape
        try:
            if tape is None:
                if root.id not in memo:  # most calls ask again for an evaluated node
                    self._replay([_step(n) for n in schedule([root], memo, _bound)
                                  if n.op != BOOL and n.op != SQRT])
                return memo[root.id]
            pos = self._next
            if pos == len(tape) or tape[pos][0] != root.id:
                raise ValueError(f"node {root.id} is not the plan's next ask: it was not "
                                 "declared, is asked out of order, or is asked for more "
                                 "often than declared")
            self._next = pos + 1
            _, steps, last = tape[pos]
            self._replay(steps)
            return memo.pop(root.id) if last else memo[root.id]
        except KeyError as e:  # bound answers are found in the memo
            n = self.b.nodes[e.args[0]]
            if n.op not in (BOOL, SQRT):
                raise
            kind = "comparison" if n.op == BOOL else "sqrt request"
            raise MissingAssignment(f"{kind} {n.payload} is unresolved") from None


@dataclass(frozen=True)
class RunPlan:
    """A ``CipherEvaluator`` run worked out from the graph alone, so one
    plan serves every input of a graph.

    The caller asks, in this order: the ``first`` roots, which read no
    unanswered request; for each tier, lowest first, each comparison's
    two operands and then each sqrt's argument, binding the tier's
    answers before the next tier's asks; then the roots.  Roots are asked
    in the order given, each as often as given.  ``tape`` holds one
    segment per ask: (root id, steps, whether this ask is the root's last
    read).  The steps compute what the ask needs and ``memo`` lacks, in
    id order, as an unplanned ``eval`` would, and each drops the
    ciphertexts it reads for the last time, writing its result into the
    value array of one of them where that is safe (see ``over``).

    One walk from the roots, through ``schedule``, finds what each node
    reads once bound (``_bound``) and, past each comparison or sqrt not
    yet answered, its operands, which are asked for instead.  Each node is
    then given to the first ask that reaches it, and a pass over the run
    backwards finds each ciphertext's last read.  Every node is computed
    once, so a plan followed from the start frees everything it reads.

    ``requests`` holds the comparison and sqrt nodes left to answer, in id
    order; ``evaluated`` the ids evaluated before the run, of which
    ``dropped`` are read by nothing and dropped when the plan is followed.
    """

    requests: list[Expr]
    evaluated: frozenset[int]
    dropped: tuple[int, ...]
    tape: tuple[tuple[int, tuple, bool], ...]

    @classmethod
    def over(cls, roots, done=(), first=()) -> RunPlan:
        """The plan for ``roots`` once the node ids in ``done`` are
        evaluated, asked for after ``first``, which read no request."""
        first, roots = list(first), list(roots)
        read: dict[int, tuple] = {}  # node id -> what it reads, as the walk found it

        def kids(n):
            """What n reads once bound (``_bound``), but a request its operands."""
            if n.op == ADD:
                ks = _as_subtraction(n) or (n.a, n.c)
            else:
                ks = () if n.a is None else (n.a,) if n.c is None else (n.a, n.c)
            read[n.id] = ks
            return ks

        order = schedule(first + roots, done, kids)
        requests = [n for n in order if n.op in (BOOL, SQRT)]
        asks = first + [k for cmps, sqrts in _by_tier(requests)
                        for k in [side for n in cmps for side in (n.a, n.c)] + [n.a for n in sqrts]]
        asks += roots

        # An ask computes, in id order, the nodes its root reaches past the
        # evaluated ones and the answers (each bound before anything reads
        # it) that no earlier ask reached.  So a node is computed by the
        # first ask reaching it: the first asking for it, or the first
        # computing a node that reads it, found readers first.  ``by``
        # maps a node id to that ask, len(asks) until one reaches it.
        by = {n.id: len(asks) for n in order if n.op != BOOL and n.op != SQRT}
        for a, root in enumerate(asks):
            if by.get(root.id, -1) > a:
                by[root.id] = a
        for n in reversed(order):
            a = by.get(n.id)
            if a is not None:
                for k in read[n.id]:
                    i = k.id
                    if by.get(i, -1) > a:
                        by[i] = a
        computes: list[list[Expr]] = [[] for _ in asks]
        for n in order:
            if n.id in by:
                computes[by[n.id]].append(n)

        # The run is each ask's nodes, then its root.  Walked backwards,
        # the first read of a node met is its last.  A step may write its
        # result into the value array of a node it reads for the last time
        # when a step built that array (leaves, constants, answers and the
        # evaluated nodes share theirs), no ask handed it out, and it has
        # the result's lanes.
        asked = {root.id for root in asks}
        seen: set[int] = set()
        tape = []
        for root, nodes in zip(reversed(asks), reversed(computes)):
            last = root.id not in seen
            seen.add(root.id)
            steps = []
            for n in reversed(nodes):
                free, into = (), None
                for k in read[n.id]:
                    i = k.id
                    if i not in seen:
                        seen.add(i)
                        free += (i,)
                        if (into is None and k.op in _BUILT and i in by and i not in asked
                                and k.width == n.width > 1):
                            into = i
                steps.append(_step(n, free, into))
            steps.reverse()
            tape.append((root.id, tuple(steps), last))
        tape.reverse()
        dropped = tuple(i for i in done if i not in seen)
        return cls(requests, frozenset(done), dropped, tuple(tape))

    def by_tier(self) -> list[tuple[list[Expr], list[Expr]]]:
        """The requests as (comparisons, sqrts) per tier, lowest tier first."""
        return _by_tier(self.requests)


def _by_tier(requests) -> list[tuple[list[Expr], list[Expr]]]:
    tiers: dict[int, tuple[list[Expr], list[Expr]]] = {}
    for n in requests:
        tiers.setdefault(n.tier, ([], []))[n.op == SQRT].append(n)
    return [tiers[t] for t in sorted(tiers)]


def _as_subtraction(n: Expr) -> tuple[Expr, Expr] | None:
    """(x, y) when n is an ADD x + (-y), else None.

    The cipher walk computes such a node as one ``ctx.sub(x, y)`` and never
    evaluates the NEG child: in IEEE arithmetic x + (-y) and x - y agree
    bit for bit, signed zeros included, with the same level and noise bound.
    """
    if n.op != ADD:
        return None
    if n.c.op == NEG:
        return n.a, n.c.a
    if n.a.op == NEG:
        return n.c, n.a.a
    return None


# -- pretty printing ----------------------------------------------------------------


def _prec(op: str) -> int:
    return {ADD: 1, NEG: 2, MUL: 3}.get(op, 9)


def format_expr(e: Expr) -> str:
    """Deterministic infix rendering; add(x, neg(y)) prints as x - y, and
    a reindexed pure node as its operand indexed by the map, ``x[2 0 1]``.

    Each node's text is rendered once, after its operands', and dropped
    after its last use, so a long sum renders without deep recursion.
    """
    order = schedule([e], (), _bound)
    uses = Counter(k.id for n in order for k in _bound(n))
    text: dict[int, str] = {}

    def use(k: Expr, prec: int) -> str:
        uses[k.id] -= 1
        s = text[k.id] if uses[k.id] else text.pop(k.id)
        return f"({s})" if _prec(k.op) < prec else s

    def neg_plain(k: Expr) -> bool:
        return k.op == PLAIN and not isinstance(k.payload, np.ndarray) and k.payload < 0

    for n in order:
        if n.op == CIPHER:
            s = n.name or f"v{n.id}"
        elif n.op == PLAIN:
            s = f"plain<{n.width}>" if isinstance(n.payload, np.ndarray) else f"{n.payload:g}"
        elif n.op == REINDEX and n.tier == 0:
            s = f"{use(n.a, 9)}[{' '.join(map(str, n.b.reindexed[n.payload].index))}]"
        elif n.op in _PARAM_KEYS:
            s = {BOOL: "c", REINDEX: "r", SQRT: "s"}[n.op] + str(n.payload + 1)
        elif n.op == ADD:
            sub = _as_subtraction(n)
            if sub is not None:
                s = f"{use(sub[0], 1)} - {use(sub[1], 2)}"
            elif neg_plain(n.c):
                s = f"{use(n.a, 1)} - {-n.c.payload:g}"
            elif neg_plain(n.a):
                s = f"{use(n.c, 1)} - {-n.a.payload:g}"
            else:
                s = f"{use(n.a, 1)} + {use(n.c, 1)}"
        elif n.op == NEG:
            s = f"-{use(n.a, 2)}"
        elif n.op == MUL:
            s = f"{use(n.a, 3)}*{use(n.c, 3)}"
        else:  # pragma: no cover
            raise AssertionError(n.op)
        text[n.id] = s
    return text[e.id]


def format_normal_form(builder: GraphBuilder, slots: dict[str, Expr]) -> str:
    """Stable text dump of lowered structure, for golden tests.

    A reindexed parameter prints as its comparison indexed by the lane map,
    ``r1 = c1[2 0 1]``; the comparison is listed with the others.
    """
    lines = []
    used: dict[str, set[int]] = {"b": set(), "r": set(), "s": set()}
    rendered = {}
    for name in sorted(slots):
        terms = builder.sorted_terms(builder.normal_form(slots[name]))
        for params, _ in terms:
            for kind, pid in params:
                used[kind].add(pid)
        rendered[name] = terms
    used["b"].update(builder.reindexed[rid].source for rid in used["r"])
    lines.append("params:")
    for cid in sorted(used["b"]):
        cmp = builder.comparisons[cid]
        lines.append(f"  c{cid + 1} = [{format_expr(cmp.lhs)} > {format_expr(cmp.rhs)}]")
    for rid in sorted(used["r"]):
        r = builder.reindexed[rid]
        lines.append(f"  r{rid + 1} = c{r.source + 1}[{' '.join(map(str, r.index))}]")
    for sid in sorted(used["s"]):
        req = builder.sqrts[sid]
        lines.append(f"  s{sid + 1} = sqrt({format_expr(req.arg)})")
    names = {"b": "c", "r": "r", "s": "s"}
    for name in sorted(slots):
        lines.append(f"slot {name}:")
        for params, coeff in rendered[name]:
            key = "*".join(f"{names[kind]}{pid + 1}" for kind, pid in sorted(params))
            lines.append(f"  {key or '1'} : {format_expr(coeff)}")
    return "\n".join(lines) + "\n"
