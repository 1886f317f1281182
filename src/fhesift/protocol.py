"""Comparison delegation between an evaluating server and a key-holding client.

The server evaluates arithmetic under the leveled simulator but cannot
resolve comparisons or square roots.  Two shapes of exchange exist:

  * interactive: unresolved parameters are grouped by dependency tier and
    shipped wave by wave.  The client decrypts the operand pair, answers
    with a freshly encrypted 0/1 (or root) at full depth, and the server
    keeps evaluating.  Rounds equal the comparison dependency depth.
  * deferred: the whole program is lowered to one package of comparison
    operands, sqrt arguments and residual coefficient tables.  One round,
    after which the client finishes the computation locally.

Every batch is padded with decoy records to a power of two (at least 8)
and shuffled before it is written.  A record's wire id is its position
in its batch, so neither says which comparison it belongs to, and an
answer is one value per record, in request order.  Decoy operands draw
their values and levels from the real operand pool: a real ciphertext
shows its level, so a decoy must show one too.

Padding is columnar: each operand's values and levels are built as plain
columns, decoys index those columns, and one permutation gathers every
column into the wire records.  The deferred package is one header and a
fixed list of columnar sections, ``_SECTIONS``: the sizer, the writer and
the parser each walk that list.  It is sized from the lowered program,
allocated once and filled in place; the client parses it once and
evaluates the residual tables straight from views into it.

Lowering lives here, next to the layout it targets: ``lower`` turns the
slots' normal forms into the package's pools and slot tables, so the
serializer only pads, shuffles and writes them.  Those tables follow
from the graph alone; ``LoweredProgram.bind`` adds one input's
ciphertexts, so a graph is lowered once however many inputs it runs on.
The package ships every piece once, in pools the slots refer into: one
wire-id row per requested comparison and sqrt, each lane map, and each
coefficient table, pooled per coefficient node and width, never by
value.  A slot parameter is a (row, map or none) reference and a
monomial a row of pool indices.  One slot evaluator, ``_evaluate_slots``,
sums those tables in whole-array passes, for the client and for
``LoweredProgram.evaluate``: a product of 0/1 answers is an AND of bits,
and the client decrypts each pooled table once.

A reindexed comparison has no records of its own.  In a package its
parameter is its source comparison's row read through the lane map;
interactively the client answers the source, and the server gathers the
bound answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .ckks_sim import Ciphertext, CkksContext, SecretKey, Value
from .deferred_graph import (
    CipherEvaluator,
    Comparison,
    Expr,
    GraphBuilder,
    RunPlan,
    SqrtRequest,
    balanced_fold,
)
from .errors import DeferralUnsupported, MissingAssignment

# Wire records.  A record's wire id is its position in its batch, and a
# response is one RESP_DTYPE value per request record, in request order.
CMP_DTYPE = np.dtype([("lhs", "<f8"), ("lhs_level", "<u4"), ("rhs", "<f8"), ("rhs_level", "<u4")])
SQRT_DTYPE = np.dtype([("value", "<f8"), ("level", "<u4")])
RESP_DTYPE = np.dtype("<f8")  # every answer is encrypted at full depth
# (value field, level field) of each operand a record carries
_CMP_OPERANDS = (("lhs", "lhs_level"), ("rhs", "rhs_level"))
_SQRT_OPERANDS = (("value", "level"),)

_U4 = np.dtype("<u4")  # lengths, wire ids, lanes, levels and pool references
_SLOT = np.dtype([("width", "<u4"), ("stride", "<u4")])  # stride: _U4s per monomial
_PARAM = np.dtype([("row", "<u4"), ("map", "<u4")])
_NONE = 0xFFFFFFFF  # no lane map; an unused monomial column

# Deferred package layout, all little-endian and unaligned: _HEADER, then
# each section below in order, every one read with one frombuffer.  A
# section is (name, dtype, the header field counting its entries, ragged):
# a plain section is that many items; a ragged one is that many _U4
# lengths, then that many runs back to back.  Rows are the wire ids each
# requested comparison or sqrt reads; slots are in name order, and each of
# a slot's monomials is ``stride`` references: its coefficient table, then
# slot-local parameter indices padded with _NONE.
_SECTIONS = (
    ("comparisons", CMP_DTYPE, "n_cmp", False),
    ("sqrts", SQRT_DTYPE, "n_sqrt", False),
    ("cmp_rows", _U4, "n_cmp_rows", True),
    ("sqrt_rows", _U4, "n_sqrt_rows", True),
    ("maps", _U4, "n_maps", True),
    ("coeffs", np.dtype("<f8"), "n_coeffs", True),
    ("levels", _U4, "n_coeffs", False),
    ("slots", _SLOT, "n_slots", False),
    ("names", np.dtype("u1"), "n_slots", True),  # UTF-8
    ("params", _PARAM, "n_slots", True),  # (row, map or _NONE)
    ("monomials", _U4, "n_slots", True),
)
_PKG_MAGIC = b"DCGPKG03"
_HEADER = np.dtype([("magic", "S8")]
                   + [(f, "<u4") for f in dict.fromkeys(f for _, _, f, _ in _SECTIONS)])


def _table(buf, off: int, dtype, count: int) -> tuple[np.ndarray, int]:
    """``count`` items of ``dtype`` at ``off`` as a view, and the offset
    past them.  The writer fills such views; the parser reads them."""
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
    return arr, off + arr.nbytes


def _package_size(counts: dict[str, int], lengths: dict[str, list[int]]) -> int:
    """Bytes in a package with header ``counts`` and ragged run ``lengths``."""
    return _HEADER.itemsize + sum(
        counts[count] * _U4.itemsize + int(sum(lengths[name])) * dtype.itemsize if ragged
        else counts[count] * dtype.itemsize for name, dtype, count, ragged in _SECTIONS)


def _sections(buf, lengths: dict[str, list[int]] | None = None) -> dict:
    """Every section that ``buf``'s header counts, as views into ``buf``: a
    plain one as its table, a ragged one as (lengths, flat runs).  Given
    ``lengths``, each ragged section's lengths are written before the
    walk reads past them, so the writer and the parser share this walk.
    Bytes past the last section are a ValueError, like a short table."""
    header, off = _table(buf, 0, _HEADER, 1)
    out = {}
    for name, dtype, count, ragged in _SECTIONS:
        if not ragged:
            out[name], off = _table(buf, off, dtype, int(header[count][0]))
            continue
        lens, off = _table(buf, off, _U4, int(header[count][0]))
        if lengths is not None:
            lens[:] = lengths[name]
        flat, off = _table(buf, off, dtype, int(lens.sum(dtype=np.int64)))
        out[name] = lens, flat
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} bytes follow the deferred package's last table")
    return out


def _runs(lengths: np.ndarray, flat: np.ndarray) -> list[np.ndarray]:
    """A ragged section's runs, one view each."""
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


MIN_RECORDS = 8  # the smallest padded request batch


@dataclass(frozen=True)
class DecoyPolicy:
    """Padding rule for request batches."""

    enabled: bool = True

    def padded_size(self, n: int) -> int:
        if n == 0 or not self.enabled:
            return n
        target = max(n, MIN_RECORDS)
        return 1 << (target - 1).bit_length()


@dataclass
class RoundTrace:
    round: int
    n_real_comparisons: int
    n_real_sqrts: int
    n_wire_comparisons: int
    n_wire_sqrts: int
    request_bytes: int
    response_bytes: int


@dataclass
class ProtocolRun:
    mode: str
    results: dict
    rounds: list[RoundTrace] = field(default_factory=list)
    leakage: dict | None = None
    package_bytes: int | None = None


def _lanes(v: Value, width: int) -> np.ndarray:
    if isinstance(v, np.ndarray) and v.shape == (width,):
        return v
    return np.broadcast_to(np.asarray(v, dtype=np.float64), (width,))


# -- lowering ---------------------------------------------------------------------


@dataclass(frozen=True)
class LoweredProgram:
    """Requests plus slot tables, in the form the package ships them.

    ``comparisons`` and ``sqrts`` hold the requests in id order, and their
    wire-id rows are numbered in that order, comparisons first.  ``slots``
    holds, in name order, each slot's ``width``, its (row, map) ``params``
    and its ``monomials`` table, as ``parse_package`` returns them.
    ``coeff_nodes`` pools the coefficients as (coefficient node, slot
    width): one table per node and width, never merged by value, so which
    monomials share a table follows from the graph alone.  ``lane_maps``
    pools the reindexed parameters' maps, one per builder map.

    All of that depends on the graph alone.  ``bind`` adds the
    ciphertexts: ``cmp_operands`` and ``sqrt_args`` by request id, and
    ``coeff_tables`` as (ciphertext, slot width) per pooled node.
    """

    comparisons: list[Comparison]
    sqrts: list[SqrtRequest]
    slots: dict[str, dict]
    leakage: dict[str, int]
    coeff_nodes: list[tuple[Expr, int]]
    lane_maps: list[np.ndarray]
    cmp_operands: dict[int, tuple[Ciphertext, Ciphertext]] | None = None
    sqrt_args: dict[int, Ciphertext] | None = None
    coeff_tables: list[tuple[Ciphertext, int]] | None = None

    def bind(self, evaluator: CipherEvaluator) -> LoweredProgram:
        """This program with its ciphertexts, which ``evaluator``
        evaluates: each coefficient table in pool order, then the
        comparison operands, then the sqrt arguments."""
        coeff_tables = [(evaluator.eval(e), w) for e, w in self.coeff_nodes]
        return replace(
            self, coeff_tables=coeff_tables,
            cmp_operands={c.id: (evaluator.eval(c.lhs), evaluator.eval(c.rhs))
                          for c in self.comparisons},
            sqrt_args={q.id: evaluator.eval(q.arg) for q in self.sqrts})

    def evaluate(self, bools: dict[int, Value], sqrts: dict[int, Value] | None = None,
                 decrypt=lambda ct: ct.value) -> dict[str, Value]:
        """Every slot's value from resolved parameters, as the client
        computes it from a package of this bound program.

        ``bools`` maps comparison ids to their answers, each exactly 0.0
        or 1.0 (else ValueError), and ``sqrts`` sqrt ids to their roots.
        ``decrypt`` maps a coefficient ciphertext to its value; by default
        it reads the carried value.
        """
        sqrts = sqrts or {}
        for kind, values, reqs in (("comparison", bools, self.comparisons),
                                   ("sqrt request", sqrts, self.sqrts)):
            for r in reqs:
                if r.id not in values:
                    raise MissingAssignment(f"no value for {kind} {r.id}")
        answers = np.concatenate([np.empty(0)] + [_lanes(bools[c.id], c.width)
                                                  for c in self.comparisons])
        ones = answers == 1.0
        if not np.array_equal(answers, ones) or np.signbit(answers).any():
            raise ValueError("a comparison answer must be exactly 0.0 or 1.0")
        roots = [_lanes(sqrts[q.id], q.arg.width) for q in self.sqrts]
        return _evaluate_slots(self.slots, ones, np.array([c.width for c in self.comparisons]),
                               roots, self.lane_maps, [w for _, w in self.coeff_tables],
                               lambda k: decrypt(self.coeff_tables[k][0]))


def lower(builder: GraphBuilder, slots: dict[str, Expr], ctx: CkksContext | None = None,
          evaluator: CipherEvaluator | None = None) -> LoweredProgram:
    """Lower named output slots to requests plus package slot tables.

    Every comparison and sqrt argument must be pure arithmetic (no nested
    unresolved parameters), otherwise the program needs mid-stream
    re-encryption and only the interactive path can run it.  Given ``ctx``
    or an ``evaluator``, the program comes back bound: its coefficients
    and request operands are evaluated server-side, consuming simulator
    levels, and a shared evaluator lets successive calls reuse each
    other's work.  Given neither, it holds the structure alone, which
    depends on the graph only, and ``LoweredProgram.bind`` adds the
    ciphertexts of each input.

    A slot's parameters are numbered slot-locally in normal-form key
    order: plain comparisons, then reindexed ones, then sqrts.  Each
    monomial row is its coefficient table followed by those local indices
    in the same order, padded with ``_NONE`` to the slot's highest degree.
    """
    terms = {name: builder.sorted_terms(builder.normal_form(e)) for name, e in slots.items()}
    keys = {name: sorted({k for params, _ in nf for k in params}) for name, nf in terms.items()}
    used = set().union(*keys.values())
    cmp_ids = sorted({pid for k, pid in used if k == "b"}
                     | {builder.reindexed[pid].source for k, pid in used if k == "r"})
    sqrt_ids = sorted(pid for k, pid in used if k == "s")
    rows = {k: i for i, k in enumerate([("b", c) for c in cmp_ids] + [("s", s) for s in sqrt_ids])}
    coeff_nodes: list[tuple[Expr, int]] = []
    coeff_pool: dict[tuple[int, int], int] = {}  # (coefficient node id, width) -> table
    map_pool: dict[int, int] = {}  # builder map id -> pooled map
    lane_maps: list[np.ndarray] = []

    def param(key) -> tuple[int, int]:
        if key[0] != "r":
            return rows[key], _NONE
        r = builder.reindexed[key[1]]
        if r.map_id not in map_pool:
            map_pool[r.map_id] = len(lane_maps)
            lane_maps.append(r.index)
        return rows["b", r.source], map_pool[r.map_id]

    tables: dict[str, dict] = {}
    for name, nf in terms.items():
        params = np.array([param(k) for k in keys[name]], dtype=_PARAM)
        local = {k: i for i, k in enumerate(keys[name])}
        width = slots[name].width
        degree = max((len(p) for p, _ in nf), default=0)
        monos = []
        for mono, coeff in nf:
            ref = coeff_pool.setdefault((coeff.id, width), len(coeff_nodes))
            if ref == len(coeff_nodes):
                coeff_nodes.append((coeff, width))
            monos.append([ref, *sorted(local[k] for k in mono), *[_NONE] * (degree - len(mono))])
        tables[name] = {"width": width, "params": params,
                        "monomials": np.array(monos, dtype=_U4).reshape(len(monos), 1 + degree)}

    comparisons = [builder.comparisons[cid] for cid in cmp_ids]
    sqrts = [builder.sqrts[sid] for sid in sqrt_ids]
    for request, exprs in ([(f"comparison {c.id}", (c.lhs, c.rhs)) for c in comparisons]
                           + [(f"sqrt request {q.id}", (q.arg,)) for q in sqrts]):
        if any(e.tier > 0 for e in exprs):
            raise DeferralUnsupported(f"{request} depends on other unresolved parameters; "
                                      "it cannot ship in a single deferred package")

    leakage = {
        "bool_params": len(cmp_ids),
        "sqrt_params": len(sqrt_ids),
        "monomials": sum(len(nf) for nf in terms.values()),
        "coeff_tables": len(coeff_nodes),
        "lane_maps": len(lane_maps),
    }
    program = LoweredProgram(comparisons, sqrts, {name: tables[name] for name in sorted(tables)},
                             leakage, coeff_nodes, lane_maps)
    if ctx is None and evaluator is None:
        return program
    return program.bind(evaluator if evaluator is not None else CipherEvaluator(ctx, builder))


def _evaluate_slots(slots: dict[str, dict], answers: np.ndarray, lengths: np.ndarray,
                    roots: list[np.ndarray], maps: list[np.ndarray],
                    table_widths: list[int], table) -> dict[str, Value]:
    """Each slot's value, given every comparison row's boolean answers
    back to back (``lengths[r]`` lanes for row r), each sqrt row's roots
    and coefficient table k as ``table(k)``.  A product of 0/1 answers is
    an AND of bits, packed once per distinct parameter and slot width; a
    monomial with a sqrt factor folds its floats as a balanced tree, as
    the server does.  Terms add in monomial order, left to right.
    """
    stacks = {w: np.empty((n, w)) for w, n in Counter(table_widths).items()}
    table_row, filled = np.empty(len(table_widths), dtype=np.intp), Counter()
    for k, w in enumerate(table_widths):
        table_row[k] = filled[w]
        filled[w] += 1
        stacks[w][table_row[k]] = table(k)

    starts = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    n_cmp = len(lengths)
    # each distinct (width, row, map) comparison parameter's row of bits;
    # row 0 is all ones, for monomial padding and sqrt factors
    bit_row: dict[tuple[int, int, int], int] = {}
    reads: dict[tuple[int, int, int], list[int]] = {}  # rows read alike, one gather
    n_bits: Counter = Counter()
    local: dict[str, list[int]] = {}  # each slot parameter's bit row, then padding's
    for name, slot in slots.items():
        w = slot["width"]
        local[name] = []
        for r, m in slot["params"].tolist():
            if r < n_cmp and (w, r, m) not in bit_row:
                bit_row[w, r, m] = n_bits[w] = n_bits[w] + 1
                reads.setdefault((w, m, lengths[r] if m == _NONE else 0), []).append(r)
            local[name].append(bit_row.get((w, r, m), 0))
        local[name].append(0)
    bits = {w: np.full((n_bits[w] + 1, (w + 7) // 8), 0xFF, dtype=np.uint8)
            for w in {slot["width"] for slot in slots.values()}}
    for (w, m, n), rows in reads.items():
        got = answers[starts[rows][:, None] + (np.arange(n) if m == _NONE else maps[m])]
        bits[w][[bit_row[w, r, m] for r in rows]] = np.packbits(
            np.broadcast_to(got, (len(rows), w)), axis=1)

    def float_lanes(r: int, m: int) -> np.ndarray:
        v = answers[starts[r]:starts[r + 1]].astype(np.float64) if r < n_cmp else roots[r - n_cmp]
        return v if m == _NONE else v[maps[m]]

    results: dict[str, Value] = {}
    for name, slot in slots.items():
        w, monos, params = slot["width"], slot["monomials"], slot["params"]
        if not len(monos):
            results[name] = 0.0
            continue
        terms = stacks[w][table_row[monos[:, 0]]]
        # _NONE padding reads the 0 after the parameters' bit rows
        factors = np.minimum(monos[:, 1:], len(params))
        if factors.shape[1]:
            refs = np.array(local[name])[factors]
            terms *= np.unpackbits(np.bitwise_and.reduce(bits[w][refs], axis=1), axis=1, count=w)
        sqrt = np.append(params["row"] >= n_cmp, False)[factors].any(axis=1) if roots else ()
        for i in np.flatnonzero(sqrt).tolist():
            vals = [float_lanes(*params[j].tolist()) for j in factors[i] if j < len(params)]
            terms[i] = balanced_fold(vals, np.multiply) * stacks[w][table_row[monos[i, 0]]]
        # left to right: a reduction over rows adds row after row onto
        # -0.0, which leaves the first row's bits as they are; numpy sums
        # a column of single lanes pairwise, so those accumulate instead
        results[name] = (np.add.reduce(terms, axis=0, initial=-0.0) if w > 1
                         else float(np.add.accumulate(terms[:, 0])[-1]))
    return results


class Client:
    """Key holder; resolves comparison and sqrt requests, nothing else.

    Every decrypt the client performs is bracketed into ``attributed_decrypts``
    so a run can prove the server-side remainder is zero.
    """

    def __init__(self, ctx: CkksContext):
        self.ctx = ctx
        self.sk = SecretKey()
        self.attributed_decrypts = 0

    def _decrypt(self, ct: Ciphertext) -> Value:
        self.attributed_decrypts += 1
        return self.sk.decrypt(ct)

    def decrypt_value(self, ct: Ciphertext) -> Value:
        """Final-output decryption, client side."""
        return self._decrypt(ct)

    def unattributed_decrypts(self) -> int:
        return self.sk.decrypt_calls - self.attributed_decrypts

    def _greater(self, recs: np.ndarray) -> np.ndarray:
        """[lhs > rhs] as a boolean per comparison record; both decrypted
        operand columns are freed before this returns."""
        return np.greater(self._decrypt(Ciphertext(recs["lhs"], 0)),
                          self._decrypt(Ciphertext(recs["rhs"], 0)))

    def _roots(self, recs: np.ndarray) -> np.ndarray:
        """The square root of each sqrt record's decrypted argument."""
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._decrypt(Ciphertext(recs["value"], 0)))

    def resolve_comparisons(self, blob) -> memoryview:
        return self._response(self._greater(np.frombuffer(blob, dtype=CMP_DTYPE)))

    def resolve_sqrts(self, blob) -> memoryview:
        return self._response(self._roots(np.frombuffer(blob, dtype=SQRT_DTYPE)))

    def _response(self, values: np.ndarray) -> memoryview:
        """Answers as wire bytes: each value freshly encrypted at full
        depth, in request order.  The bytes are a uint8 view of the
        encrypted lanes, not a copy, so ``len`` counts bytes."""
        return np.asarray(self.ctx.encrypt(values).value, dtype=RESP_DTYPE).view(np.uint8).data

    def resolve_package(self, blob: bytes) -> dict[str, Value]:
        """Decrypt a deferred package and finish the computation locally.

        Every comparison row's answers are gathered in one pass and each
        pooled coefficient table is decrypted once; ``_evaluate_slots``
        then sums the slots, as it does for ``LoweredProgram.evaluate``.
        """
        pkg = parse_package(blob)
        lengths, ids = pkg["cmp_ids"]
        answers = self._greater(pkg["comparisons"])[ids]
        sqrt_wire = self._roots(pkg["sqrts"]) if len(pkg["sqrts"]) else np.empty(0)
        roots = [sqrt_wire[row] for row in pkg["rows"][pkg["cmp_rows"]:]]
        coeffs = pkg["coeffs"]
        return _evaluate_slots(pkg["slots"], answers, lengths, roots, pkg["maps"],
                               [len(lanes) for lanes, _ in coeffs],
                               lambda k: self._decrypt(Ciphertext(*coeffs[k])))


# -- request batching -------------------------------------------------------------


def _pad_and_shuffle(wire: np.ndarray, widths: list[int], operands, operand_fields,
                     rng) -> np.ndarray:
    """Fill ``wire`` with real lanes plus decoys, shuffled.

    ``operands`` holds, for each (value, level) pair in ``operand_fields``,
    one ciphertext per entry; entry i contributes ``widths[i]`` lanes.  A
    decoy operand is a (value, level) draw from the pool of all real
    operands, so decoy marginals match the real traffic.  Returns the wire
    ids, that is the positions, of the real lanes in entry order.
    """
    n = int(sum(widths))
    total = len(wire)
    k = len(operand_fields)
    values, levels = [], []
    for cts in operands:
        col = np.empty(total)
        lev = np.empty(total, dtype=np.uint32)
        if n:
            np.concatenate([_lanes(ct.value, w) for w, ct in zip(widths, cts)], out=col[:n])
            lev[:n] = np.repeat(np.array([ct.level for ct in cts], dtype=np.uint32), widths)
        values.append(col)
        levels.append(lev)
    if total > n:
        # the pool is every real operand column back to back: draw i is
        # lane i % n of operand i // n
        for col, lev in zip(values, levels):
            src, lane = np.divmod(rng.integers(0, k * n, size=total - n), n)
            col[n:] = np.choose(src, [c[lane] for c in values])
            lev[n:] = np.choose(src, [c[lane] for c in levels])
        del src, lane
    perm = rng.permutation(total)
    for v, l in operand_fields:
        # mode="clip" lets take write straight into the strided field;
        # popping frees each column once it is on the wire
        np.take(values.pop(0), perm, out=wire[v], mode="clip")
        np.take(levels.pop(0), perm, out=wire[l], mode="clip")
    ids = np.empty(total, dtype=np.uint32)
    ids[perm] = np.arange(total, dtype=np.uint32)
    return ids[:n]


def _request_batch(dtype: np.dtype, operand_fields, widths: list[int], operands,
                   policy: DecoyPolicy, rng) -> tuple[memoryview, np.ndarray]:
    """One padded, shuffled request batch as wire bytes, plus the wire ids
    of its real lanes."""
    buf = np.empty(policy.padded_size(sum(widths)) * dtype.itemsize, dtype=np.uint8)
    ids = _pad_and_shuffle(buf.view(dtype), widths, operands, operand_fields, rng)
    return buf.data, ids


def _bind_response(width: int, values: np.ndarray, level: int) -> Ciphertext:
    v = float(values[0]) if width == 1 else values.astype(np.float64)
    return Ciphertext(v, level)


def run_interactive(ctx: CkksContext, builder: GraphBuilder, slots: dict[str, Expr],
                    client: Client, policy: DecoyPolicy = DecoyPolicy(),
                    seed: int = 0, evaluator: CipherEvaluator | None = None,
                    evaluate_slots: bool = True, run_plan: RunPlan | None = None) -> ProtocolRun:
    """Resolve parameters wave by wave; rounds = dependency depth.

    Client answers come back encrypted at the full depth budget, which is
    the only level-restoration mechanism in the system.  The evaluator
    follows ``run_plan``, or declares the slots to plan the run now: the
    plan holds the requests, asked here tier by tier, and frees each
    ciphertext, answers included, after its last read.  With
    ``evaluate_slots`` off, the caller must then evaluate each slot once.
    Requests the evaluator was built with answers to are not asked again.
    """
    rng = np.random.default_rng(seed)
    ev = evaluator if evaluator is not None else CipherEvaluator(ctx, builder)
    if run_plan is None:
        run_plan = RunPlan.over(slots.values(), ev.memo)
    ev.follow(run_plan)
    trace: list[RoundTrace] = []
    full = ctx.params.depth_budget
    for round_no, (tier_cmps, tier_sqrts) in enumerate(run_plan.by_tier(), start=1):
        pairs = [(ev.eval(n.a), ev.eval(n.c)) for n in tier_cmps]
        cwidths = [n.width for n in tier_cmps]
        swidths = [n.width for n in tier_sqrts]
        creq_blob, cids = _request_batch(
            CMP_DTYPE, _CMP_OPERANDS, cwidths,
            ([lhs for lhs, _ in pairs], [rhs for _, rhs in pairs]), policy, rng)
        sreq_blob, sids = _request_batch(
            SQRT_DTYPE, _SQRT_OPERANDS, swidths, ([ev.eval(n.a) for n in tier_sqrts],),
            policy, rng)
        cresp_blob = client.resolve_comparisons(creq_blob) if creq_blob else b""
        sresp_blob = client.resolve_sqrts(sreq_blob) if sreq_blob else b""
        cresp = np.frombuffer(cresp_blob, dtype=RESP_DTYPE)
        sresp = np.frombuffer(sresp_blob, dtype=RESP_DTYPE)
        for nodes, resp, ids in ((tier_cmps, cresp, cids), (tier_sqrts, sresp, sids)):
            pos = 0
            for n in nodes:
                ev.bind(n, _bind_response(n.width, resp[ids[pos:pos + n.width]], full))
                pos += n.width
        trace.append(RoundTrace(
            round=round_no,
            n_real_comparisons=len(cids),
            n_real_sqrts=len(sids),
            n_wire_comparisons=policy.padded_size(len(cids)),
            n_wire_sqrts=policy.padded_size(len(sids)),
            request_bytes=len(creq_blob) + len(sreq_blob),
            response_bytes=len(cresp_blob) + len(sresp_blob),
        ))

    results = {name: ev.eval(e) for name, e in slots.items()} if evaluate_slots else {}
    return ProtocolRun(mode="interactive", results=results, rounds=trace)


# -- deferred package --------------------------------------------------------------


def serialize_package(program: LoweredProgram, policy: DecoyPolicy = DecoyPolicy(),
                      seed: int = 0) -> memoryview:
    """Binary single-round package, laid out as ``_SECTIONS``: the records,
    padded and shuffled like interactive batches, the pools every slot
    refers into, each piece shipped once, and the slot tables as ``lower``
    built them.  The size follows from the program and the policy, so the
    package is allocated once and every section is written in place."""
    rng = np.random.default_rng(seed)
    cmp_widths = [c.width for c in program.comparisons]
    sqrt_widths = [a.width for a in program.sqrt_args.values()]
    slots = program.slots.values()
    counts = {"n_cmp": policy.padded_size(sum(cmp_widths)),
              "n_sqrt": policy.padded_size(sum(sqrt_widths)),
              "n_cmp_rows": len(cmp_widths), "n_sqrt_rows": len(sqrt_widths),
              "n_maps": len(program.lane_maps), "n_coeffs": len(program.coeff_tables),
              "n_slots": len(slots)}
    # every section's entries but the records' and the rows', which the
    # shuffle writes
    entries = {
        "maps": program.lane_maps,
        "coeffs": [_lanes(ct.value, w) for ct, w in program.coeff_tables],
        "levels": [ct.level for ct, _ in program.coeff_tables],
        "slots": [(slot["width"], slot["monomials"].shape[1]) for slot in slots],
        "names": [np.frombuffer(name.encode(), dtype=np.uint8) for name in program.slots],
        "params": [slot["params"] for slot in slots],
        "monomials": [slot["monomials"].ravel() for slot in slots],
    }
    lengths = {name: [len(run) for run in entries[name]]
               for name, _, _, ragged in _SECTIONS if ragged and name in entries}
    lengths.update(cmp_rows=cmp_widths, sqrt_rows=sqrt_widths)

    # every byte is written below, so the buffer need not be zeroed first
    buf = np.empty(_package_size(counts, lengths), dtype=np.uint8)
    buf[:_HEADER.itemsize].view(_HEADER)[0] = (_PKG_MAGIC, *(counts[f] for f in _HEADER.names[1:]))
    sec = _sections(buf, lengths)
    cmp_operands = program.cmp_operands.values()
    sec["cmp_rows"][1][:] = _pad_and_shuffle(
        sec["comparisons"], cmp_widths,
        ([lhs for lhs, _ in cmp_operands], [rhs for _, rhs in cmp_operands]), _CMP_OPERANDS, rng)
    sec["sqrt_rows"][1][:] = _pad_and_shuffle(
        sec["sqrts"], sqrt_widths, (list(program.sqrt_args.values()),), _SQRT_OPERANDS, rng)
    for name, runs in entries.items():
        if name not in lengths:
            sec[name][:] = runs
        elif runs:
            np.concatenate(runs, out=sec[name][1], casting="unsafe")
    return buf.data


def _check_refs(what: str, refs: np.ndarray, count, none_ok: bool = False):
    """ValueError unless every reference is below its ``count`` (one for
    all, or one per reference), or is ``_NONE`` where ``none_ok``."""
    bad = refs >= count
    if none_ok:
        bad &= refs != _NONE
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"deferred package {what} {int(refs[i])} is out of range "
                         f"(there are {int(np.broadcast_to(count, refs.shape)[i])})")


def parse_package(blob) -> dict:
    """Package tables as views into ``blob``; nothing is copied.

    ``rows`` holds the wire-id row of each requested comparison, then of
    each sqrt (``cmp_rows`` of the first kind; ``cmp_ids`` holds those as
    lengths and ids back to back); ``coeffs`` holds
    (lanes, level) per coefficient table.  A slot's ``params`` are
    (row, map) references, map ``_NONE`` for none, and each row of its
    ``monomials`` is a coefficient table index followed by slot-local
    parameter indices padded with ``_NONE``.

    Every reference is checked against what it points into: a wire id
    against its kind's records, a parameter's row and map against the
    pools and the map's lanes against the row, a monomial's table and
    parameter indices against the pool and the slot.  So is every width:
    a slot's coefficient tables have its width in lanes, and each of its
    parameters, read through its map if it has one, 1 or that width.  One
    out of range is a ValueError, like a truncated package.
    """
    if blob[:len(_PKG_MAGIC)] != _PKG_MAGIC:
        raise ValueError("not a deferred package")
    sec = _sections(blob)
    (cmp_lens, cmp_ids), (sqrt_lens, sqrt_ids) = sec["cmp_rows"], sec["sqrt_rows"]
    _check_refs("comparison wire id", cmp_ids, len(sec["comparisons"]))
    _check_refs("sqrt wire id", sqrt_ids, len(sec["sqrts"]))
    row_lens = np.concatenate([cmp_lens, sqrt_lens]).astype(np.int64)
    maps = _runs(*sec["maps"])
    map_lens = sec["maps"][0].astype(np.int64)
    map_top = np.array([int(m.max()) if len(m) else -1 for m in maps], dtype=np.int64)
    coeff_lens = sec["coeffs"][0].astype(np.int64)

    width = sec["slots"]["width"].astype(np.int64)
    stride = sec["slots"]["stride"].astype(np.int64)
    param_lens, params = sec["params"]
    mono_lens, monos = sec["monomials"]
    param_slot = np.repeat(np.arange(len(width)), param_lens)  # each parameter's slot
    _check_refs("parameter row", params["row"], len(row_lens))
    _check_refs("lane map", params["map"], len(maps), none_ok=True)
    mapped = params["map"] != _NONE
    if np.any(map_top[params["map"][mapped]] >= row_lens[params["row"][mapped]]):
        raise ValueError("deferred package lane map reads past the end of its row")
    lanes = row_lens[params["row"]]
    lanes[mapped] = map_lens[params["map"][mapped]]
    if np.any((lanes != 1) & (lanes != width[param_slot])):
        raise ValueError("deferred package parameter has neither 1 lane nor its slot's width")

    if np.any(stride == 0) or np.any(mono_lens % np.maximum(stride, 1)):
        raise ValueError("deferred package monomials are not whole rows, each naming a table")
    mono_slot = np.repeat(np.arange(len(width)), mono_lens)  # each reference's slot
    starts = np.cumsum(mono_lens, dtype=np.int64) - mono_lens
    lead = (np.arange(len(monos)) - starts[mono_slot]) % stride[mono_slot] == 0
    _check_refs("coefficient table", monos[lead], len(coeff_lens))
    _check_refs("parameter index", monos[~lead], param_lens[mono_slot[~lead]], none_ok=True)
    if np.any(coeff_lens[monos[lead]] != width[mono_slot[lead]]):
        raise ValueError("deferred package coefficient table's lanes differ from its slot's width")

    names = [name.tobytes().decode() for name in _runs(*sec["names"])]
    slots = {name: {"width": w, "params": p, "monomials": m.reshape(-1, k)}
             for name, w, k, p, m in zip(names, width.tolist(), stride.tolist(),
                                         _runs(param_lens, params), _runs(mono_lens, monos))}
    return {"comparisons": sec["comparisons"], "sqrts": sec["sqrts"],
            "rows": _runs(cmp_lens, cmp_ids) + _runs(sqrt_lens, sqrt_ids),
            "cmp_rows": len(cmp_lens), "cmp_ids": (cmp_lens, cmp_ids), "maps": maps,
            "coeffs": list(zip(_runs(*sec["coeffs"]), sec["levels"].tolist())), "slots": slots}


def dump_package(blob: bytes) -> str:
    """Human-readable package listing, stable for golden comparisons.

    Rows print as ``b<i>`` (comparisons) and ``s<i>`` (sqrts), maps as
    ``m<i>``, coefficient tables as ``k<i>`` and slot parameters as
    ``p<i>``.
    """
    pkg = parse_package(blob)
    n_crows = pkg["cmp_rows"]

    def row_name(r: int) -> str:
        return f"b{r}" if r < n_crows else f"s{r - n_crows}"

    lines = [f"comparisons: {len(pkg['comparisons'])}", f"sqrts: {len(pkg['sqrts'])}"]
    for i, rec in enumerate(pkg["comparisons"]):
        lines.append(
            f"  #{i} lhs={rec['lhs']:.6g}@{int(rec['lhs_level'])}"
            f" rhs={rec['rhs']:.6g}@{int(rec['rhs_level'])}"
        )
    for i, rec in enumerate(pkg["sqrts"]):
        lines.append(f"  #{i} arg={rec['value']:.6g}@{int(rec['level'])}")
    lines.append(f"rows: {len(pkg['rows'])}")
    for r, ids in enumerate(pkg["rows"]):
        lines.append(f"  {row_name(r)} -> wire {ids.tolist()}")
    lines.append(f"maps: {len(pkg['maps'])}")
    for m, lanes in enumerate(pkg["maps"]):
        lines.append(f"  m{m} -> lanes {lanes.tolist()}")
    lines.append(f"coeffs: {len(pkg['coeffs'])}")
    for k, (lanes, level) in enumerate(pkg["coeffs"]):
        vals = " ".join(f"{v:.6g}" for v in lanes)
        lines.append(f"  k{k} : [{vals}] @{level}")
    for name in sorted(pkg["slots"]):
        slot = pkg["slots"][name]
        lines.append(f"slot {name}: width={slot['width']}")
        for i, (r, m) in enumerate(slot["params"].tolist()):
            lines.append(f"  p{i} = {row_name(r)}" + ("" if m == _NONE else f"[m{m}]"))
        for ref, *mono in slot["monomials"].tolist():
            key = "*".join(f"p{i}" for i in mono if i != _NONE) or "1"
            lines.append(f"  {key} : k{ref}")
    return "\n".join(lines) + "\n"


def run_deferred(program: LoweredProgram, client: Client, policy: DecoyPolicy = DecoyPolicy(),
                 seed: int = 0) -> ProtocolRun:
    """Single-round delegation of a lowered program: serialize it, and
    let the client resolve the package."""
    blob = serialize_package(program, policy, seed)
    results = client.resolve_package(blob)
    n_cmp = sum(c.width for c in program.comparisons)
    n_sqrt = sum(a.width for a in program.sqrt_args.values())
    trace = [RoundTrace(
        round=1,
        n_real_comparisons=n_cmp,
        n_real_sqrts=n_sqrt,
        n_wire_comparisons=policy.padded_size(n_cmp),
        n_wire_sqrts=policy.padded_size(n_sqrt),
        request_bytes=len(blob),
        response_bytes=0,
    )]
    return ProtocolRun(
        mode="deferred",
        results=results,
        rounds=trace,
        leakage=program.leakage,
        package_bytes=len(blob),
    )
