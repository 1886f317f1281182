"""Comparison delegation between an evaluating server and a key-holding client.

The server evaluates arithmetic under the leveled simulator but cannot
resolve comparisons or square roots.  Two shapes of exchange exist:

  * interactive: unresolved parameters are grouped by dependency tier and
    shipped wave by wave.  The client decrypts the operand pair, answers
    with a freshly encrypted 0/1 (or root) at full depth, and the server
    keeps evaluating.  Rounds equal the comparison dependency depth.  The
    server's evaluator follows a ``RunPlan``: the run's requests, and a
    tape of its steps, ask by ask, made from the graph alone, so a plan
    made once serves every input and the run walks no graph.
  * deferred: the whole program is lowered to one package of comparison
    operands, sqrt arguments and residual coefficient tables.  One round,
    after which the client finishes the computation locally.

Every batch is padded with decoy records to a power of two (at least 8)
and shuffled before it is written.  A record's wire id is its position
in its batch, so neither says which comparison it belongs to, and an
answer is one value per record, in request order.  Decoy operands draw
their values from the real operand pool.  A batch ships at one level,
the lowest among its real operands, to which a modulus switch of the
wire copy brings it: an interactive request starts with that level, and
the package header holds one for its comparisons and one for its sqrts.
Records carry no level.  This leaks nothing new, since every operand's
level follows from the circuit alone, not from the data.

Padding is staged: the real records are built in entry order, one
column per operand, decoys draw from those columns, and one permutation
moves whole records onto the wire.  The deferred package is one header and a
fixed list of columnar sections, ``_SECTIONS``: the sizer, the writer and
the parser each walk that list.  It is sized from the lowered program,
allocated once and filled in place.

Those sections are the slot tables' one form.  ``lower`` emits them (the
references, slots, names, parameters and monomials), so the serializer
copies them, and ``LoweredProgram.bind`` adds one input's ciphertexts.
The package (``DCGPKG05``) ships every piece once, in pools the slots
refer into: one wire-id row per requested comparison and sqrt, each lane
map, each coefficient table, pooled per coefficient node and width,
never by value, and each reference.  A slot parameter is a (row, map or
none) reference and a monomial a row of pool indices, its coefficient a
table or a reference.  A reference is a window weight, a coefficient
``±reindex(pixel node, map) * c``: it ships as (the pixel node's table,
the map, ±c), so a per-pixel value such as a squared gradient magnitude
ships once per pixel, not once per window position that reads it.  The
server never evaluates such a coefficient, and the client makes the
multiply the server would have made.

The client alone sums the slots, in two parts.  A ``SlotPlan`` is made
from the structural sections: it decodes the names, numbers the bit rows
of the distinct comparison parameters and groups the slots by monomial
table shape, family by family: a family's slots share a coefficient table
sequence.  ``SlotPlan.evaluate`` takes one package's answers and roots,
each flat, and its coefficient tables: a product of 0/1 answers is an AND
of bits, taken for a block of slots at once, and each family's
coefficient rows are gathered once.  The client decrypts each pooled
table once, fills each reference's row from its table, and keeps the plans of the ``PLAN_MEMO_SIZE`` most recently
used layouts, keyed by the exact bytes of every section a plan depends
on; wire ids, records, coefficient values and levels are not in the key,
so packages of one circuit share a plan.  A plan holds no view into a
package, so the memo keeps none alive.

A reindexed comparison has no records of its own.  In a package its
parameter is its source comparison's row read through the lane map;
interactively the client answers the source, and the server gathers the
bound answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .ckks_sim import Ciphertext, CkksContext, SecretKey, Value
from .deferred_graph import (
    MUL,
    NEG,
    PLAIN,
    REINDEX,
    CipherEvaluator,
    Comparison,
    Expr,
    GraphBuilder,
    Reindex,
    RunPlan,
    SqrtRequest,
    balanced_fold,
)
from .errors import DeferralUnsupported

_U4 = np.dtype("<u4")  # lengths, wire ids, lanes, levels and pool references

# Wire records.  A record's wire id is its position in its batch, and a
# response is one RESP_DTYPE value per request record, in request order.
# A batch's one level rides beside its records: a non-empty interactive
# request is one _U4 level, then the records; an empty one is no bytes.
CMP_DTYPE = np.dtype([("lhs", "<f8"), ("rhs", "<f8")])
SQRT_DTYPE = np.dtype([("value", "<f8")])
RESP_DTYPE = np.dtype("<f8")  # every answer is encrypted at full depth

_SLOT = np.dtype([("width", "<u4"), ("stride", "<u4")])  # stride: _U4s per monomial
_PARAM = np.dtype([("row", "<u4"), ("map", "<u4")])
# a window weight: a coefficient table read through a lane map, times a
# public scale
_REF = np.dtype([("table", "<u4"), ("map", "<u4"), ("scale", "<f8")])
_NONE = 0xFFFFFFFF  # no lane map; an unused monomial column

# Deferred package layout, all little-endian and packed: _HEADER, then
# each section below in order, every one read with one frombuffer.  A
# section is (name, dtype, the header field counting its entries, ragged):
# a plain section is that many items; a ragged one is that many _U4
# lengths, then that many runs back to back.  Rows are the wire ids each
# requested comparison or sqrt reads; slots are in name order, and each of
# a slot's monomials is ``stride`` references: its coefficient, then
# slot-local parameter indices padded with _NONE.  Coefficient k is table
# k, or past the tables, reference k - n_coeffs.
_SECTIONS = (
    ("comparisons", CMP_DTYPE, "n_cmp", False),
    ("sqrts", SQRT_DTYPE, "n_sqrt", False),
    ("cmp_rows", _U4, "n_cmp_rows", True),
    ("sqrt_rows", _U4, "n_sqrt_rows", True),
    ("maps", _U4, "n_maps", True),
    ("coeffs", np.dtype("<f8"), "n_coeffs", True),
    ("levels", _U4, "n_coeffs", False),
    ("refs", _REF, "n_refs", False),
    ("slots", _SLOT, "n_slots", False),
    ("names", np.dtype("u1"), "n_slots", True),  # UTF-8
    ("params", _PARAM, "n_slots", True),  # (row, map or _NONE)
    ("monomials", _U4, "n_slots", True),
)
_PKG_MAGIC = b"DCGPKG05"
# the magic, the level of each record section's batch, then every count
_HEADER = np.dtype([("magic", "S8")] + [(f, "<u4") for f in (
    "cmp_level", "sqrt_level", *dict.fromkeys(f for _, _, f, _ in _SECTIONS))])


def _table(buf, off: int, dtype, count: int) -> tuple[np.ndarray, int]:
    """``count`` items of ``dtype`` at ``off`` as a view, and the offset
    past them.  The writer fills such views; the parser reads them."""
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
    return arr, off + arr.nbytes


def _package_size(header: dict[str, int], lengths: dict[str, list[int]]) -> int:
    """Bytes in a package with ``header``'s counts and ragged run ``lengths``."""
    return _HEADER.itemsize + sum(
        header[count] * _U4.itemsize + int(sum(lengths[name])) * dtype.itemsize if ragged
        else header[count] * dtype.itemsize for name, dtype, count, ragged in _SECTIONS)


def _sections(buf, lengths: dict[str, list[int]] | None = None) -> dict:
    """``buf``'s header, as "header", and every section it counts, as
    views into ``buf``: a plain one as its table, a ragged one as
    (lengths, flat runs).  Given ``lengths``, each ragged section's
    lengths are written before the walk reads past them, so the writer
    and the parser share this walk.  Bytes past the last section are a
    ValueError, like a short table."""
    header, off = _table(buf, 0, _HEADER, 1)
    out = {"header": header[0]}
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


def _section_bytes(blob) -> dict[str, int]:
    """A package's bytes per part: its ``header``, then each of
    ``_SECTIONS``, a ragged one's lengths included; they sum to
    ``len(blob)``.  A structural walk, not a parse: nothing is checked
    but the sizes."""
    out = {"header": _HEADER.itemsize}
    for name, part in _sections(blob).items():
        if name != "header":
            out[name] = sum(a.nbytes for a in part) if isinstance(part, tuple) else part.nbytes
    return out


def _ragged(runs: list[np.ndarray], dtype) -> tuple[np.ndarray, np.ndarray]:
    """``runs``, each of ``dtype``, as a ragged section: their _U4
    lengths, and the runs back to back."""
    return (np.array([len(run) for run in runs], dtype=_U4),
            np.concatenate([np.empty(0, dtype), *runs]))


def _runs(lengths: np.ndarray, flat: np.ndarray) -> list[np.ndarray]:
    """A ragged section's runs, one view each."""
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _slot_names(lengths: np.ndarray, flat: np.ndarray) -> list[str]:
    """A ``names`` section's slot names; ValueError unless each is UTF-8
    and none repeats."""
    try:
        names = [run.tobytes().decode() for run in _runs(lengths, flat)]
    except UnicodeDecodeError as err:
        raise ValueError(f"deferred package slot name is not UTF-8: {err}") from None
    twice = [name for name, count in Counter(names).items() if count > 1]
    if twice:
        raise ValueError(f"deferred package slot name {twice[0]!r} repeats")
    return names


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
    package_sections: dict[str, int] | None = None  # bytes per part, as ``_section_bytes``


def _lanes(v: Value, width: int) -> np.ndarray:
    if isinstance(v, np.ndarray) and v.shape == (width,):
        return v
    return np.broadcast_to(np.asarray(v, dtype=np.float64), (width,))


# -- lowering ---------------------------------------------------------------------


@dataclass(frozen=True)
class LoweredProgram:
    """Requests plus slot tables, in the form the package ships them.

    ``comparisons`` and ``sqrts`` hold the requests in id order, and their
    wire-id rows are numbered in that order, comparisons first.
    ``sections`` holds, as ``parse_package`` returns them, the ``refs``
    and the slot tables in name order: the ``slots`` ((width, stride)
    each), their ``names``, (row, map) ``params`` and ``monomials``.
    ``coeff_nodes`` pools the coefficient tables as (node, slot width):
    one table per node and width, never merged by value, so which
    monomials share a table follows from the graph alone.  A window
    weight, ``±reindex(pixel node, map) * c``, is not a table but a
    reference (pixel node's table, map, ±c); ``ref_nodes`` holds those
    coefficient nodes, one per reference, which the server never needs
    to evaluate.  ``lane_maps`` pools the maps of the reindexed
    parameters and references, one per builder map, as the builder holds
    them.  ``bind`` adds the ciphertexts: ``cmp_operands`` and
    ``sqrt_args`` by request id, and ``coeff_tables`` as (ciphertext, slot
    width) per pooled node.
    """

    comparisons: list[Comparison]
    sqrts: list[SqrtRequest]
    sections: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]]
    leakage: dict[str, int]
    coeff_nodes: list[tuple[Expr, int]]
    ref_nodes: list[Expr]
    lane_maps: list[np.ndarray]
    cmp_operands: dict[int, tuple[Ciphertext, Ciphertext]] | None = None
    sqrt_args: dict[int, Ciphertext] | None = None
    coeff_tables: list[tuple[Ciphertext, int]] | None = None

    def operands(self) -> list[Expr]:
        """What ``bind`` asks its evaluator for, in order: each pooled
        coefficient node, then each comparison's lhs and rhs, then each
        sqrt argument."""
        return ([e for e, _ in self.coeff_nodes]
                + [side for c in self.comparisons for side in (c.lhs, c.rhs)]
                + [q.arg for q in self.sqrts])

    def bind(self, evaluator: CipherEvaluator) -> LoweredProgram:
        """This program with its ciphertexts, which ``evaluator``
        evaluates, asked for as ``operands`` lists them."""
        cts = iter([evaluator.eval(e) for e in self.operands()])
        return replace(
            self, coeff_tables=[(next(cts), w) for _, w in self.coeff_nodes],
            cmp_operands={c.id: (next(cts), next(cts)) for c in self.comparisons},
            sqrt_args={q.id: next(cts) for q in self.sqrts})


def lower(builder: GraphBuilder, slots: dict[str, Expr],
          ctx: CkksContext | None = None) -> LoweredProgram:
    """Lower named output slots to requests plus package sections.

    Every comparison and sqrt argument must be pure arithmetic (no nested
    unresolved parameters), otherwise the program needs mid-stream
    re-encryption and only the interactive path can run it.  Given ``ctx``,
    the program comes back bound: a fresh evaluator follows a plan over
    its operands and evaluates its coefficients and request operands
    server-side, consuming simulator levels.  Without it, the program
    holds the structure alone, which depends on the graph only, and
    ``LoweredProgram.bind`` adds the ciphertexts of each input.

    A slot's parameters are numbered slot-locally in normal-form key
    order: plain comparisons, then reindexed ones, then sqrts.  Each
    monomial row is its coefficient followed by those local indices in
    the same order, padded with ``_NONE`` to the slot's highest degree.
    A coefficient of the slot's width that ``_window_weight`` recognises
    is a reference, and its pixel node a table; references are numbered
    after the tables.
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
    ref_nodes: list[Expr] = []
    refs: list[tuple[int, int, float]] = []  # (table, map, scale)
    ref_pool: dict[int, int] = {}  # coefficient node id -> reference
    map_pool: dict[int, int] = {}  # builder map id -> pooled map
    lane_maps: list[np.ndarray] = []

    def lane_map(r) -> int:
        if r.map_id not in map_pool:
            map_pool[r.map_id] = len(lane_maps)
            lane_maps.append(r.index)
        return map_pool[r.map_id]

    def param(key) -> tuple[int, int]:
        if key[0] != "r":
            return rows[key], _NONE
        r = builder.reindexed[key[1]]
        return rows["b", r.source], lane_map(r)

    def table(e: Expr, width: int) -> int:
        k = coeff_pool.setdefault((e.id, width), len(coeff_nodes))
        if k == len(coeff_nodes):
            coeff_nodes.append((e, width))
        return k

    def coefficient(e: Expr, width: int) -> int:
        """Table k as k, reference j as -1 - j."""
        weight = _window_weight(builder, e) if e.width == width else None
        if weight is None:
            return table(e, width)
        if e.id not in ref_pool:
            pixels, r, scale = weight
            ref_pool[e.id] = len(refs)
            refs.append((table(pixels, pixels.width), lane_map(r), scale))
            ref_nodes.append(e)
        return -1 - ref_pool[e.id]

    # (width, stride), parameters, monomial rows and their coefficients;
    # pooled in slot order
    tables: dict[str, tuple] = {}
    for name, nf in terms.items():
        params = np.array([param(k) for k in keys[name]], dtype=_PARAM)
        local = {k: i for i, k in enumerate(keys[name])}
        width = slots[name].width
        degree = max((len(p) for p, _ in nf), default=0)
        monos = np.array([[0, *sorted(local[k] for k in mono), *[_NONE] * (degree - len(mono))]
                          for mono, _ in nf], dtype=_U4).reshape(len(nf), 1 + degree)
        tables[name] = ((width, 1 + degree), params, monos,
                        np.array([coefficient(coeff, width) for _, coeff in nf], dtype=np.int64))
    for _, _, monos, coeffs in tables.values():  # references follow the tables
        monos[:, 0] = np.where(coeffs >= 0, coeffs, len(coeff_nodes) - 1 - coeffs)
    names = sorted(tables)
    sections = {"refs": np.array(refs, dtype=_REF),
                "slots": np.array([tables[n][0] for n in names], dtype=_SLOT),
                "names": _ragged([np.frombuffer(n.encode(), np.uint8) for n in names], np.uint8),
                "params": _ragged([tables[n][1] for n in names], _PARAM),
                "monomials": _ragged([tables[n][2].ravel() for n in names], _U4)}

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
        "coeff_refs": len(refs),
        "lane_maps": len(lane_maps),
    }
    program = LoweredProgram(comparisons, sqrts, sections, leakage, coeff_nodes, ref_nodes,
                             lane_maps)
    if ctx is None:
        return program
    ev = CipherEvaluator(ctx, builder)
    ev.follow(RunPlan.over(program.operands()))
    return program.bind(ev)


def _scalar(e: Expr) -> float | None:
    """A plain scalar node's value, else None."""
    return e.payload if e.op == PLAIN and not isinstance(e.payload, np.ndarray) else None


def _window_weight(builder: GraphBuilder, e: Expr) -> tuple[Expr, Reindex, float] | None:
    """(pixel node, its reindexing, scale) when coefficient ``e`` is
    ``±reindex(pixel node, map) * c`` for a plain scalar c (or 1), else
    None.  The server computes such a node as a gather, a multiply by c
    and sign flips, each a negation or a multiply by -1.0; a sign flip is
    exact, so ``pixels[map] * ±c`` gives the same bits."""
    scale = 1.0
    while e.op == NEG or (e.op == MUL and -1.0 in (_scalar(e.a), _scalar(e.c))):
        scale, e = -scale, e.a if e.op == NEG or _scalar(e.c) == -1.0 else e.c
    if e.op == MUL:
        c, e = (_scalar(e.a), e.c) if _scalar(e.a) is not None else (_scalar(e.c), e.a)
        if c is None:
            return None
        scale *= c
    if e.op != REINDEX or e.tier != 0:
        return None
    return e.a, builder.reindexed[e.payload], scale


PLAN_MEMO_SIZE = 4  # slot plans kept by package layout, least recently used dropped first
# each recent package layout's slot plan, least recently used first, keyed
# by the layout ``parse_package`` returns
_PLAN_MEMO: dict[tuple[bytes, ...], SlotPlan] = {}
_BLOCK_BYTES = 1 << 18  # the terms summed in one pass, about an L2 cache's share


def _blocks(n_monos: int, family: list[int], width: int) -> list[tuple]:
    """(first slot, past the last, first lane, past the last, families) of
    each block of a group's terms: as many whole slots as fit
    ``_BLOCK_BYTES``, or when one slot does not, that slot's lanes in runs
    of whole bytes of bits.  ``family`` holds each slot's family; a
    block's families are that family when it holds one, else each slot's.
    No block is one lane of one slot, which numpy would sum pairwise."""
    per_lane = n_monos * 8
    if per_lane * width <= _BLOCK_BYTES:
        step = _BLOCK_BYTES // (per_lane * width)
        bounds = [(lo, min(lo + step, len(family)), 0, width)
                  for lo in range(0, len(family), step)]
    else:
        cuts = list(range(0, width, max(8, _BLOCK_BYTES // per_lane // 8 * 8)))
        if width - cuts[-1] == 1:
            cuts.pop()
        bounds = [(s, s + 1, a, b) for s in range(len(family))
                  for a, b in zip(cuts, cuts[1:] + [width])]
    return [(lo, hi, l0, l1, family[lo] if family[lo] == family[hi - 1]
             else np.array(family[lo:hi])) for lo, hi, l0, l1 in bounds]


class _Group(NamedTuple):
    """Slots of one width and monomial table shape, family by family: the
    slots of a family name the same coefficient tables in the same order."""

    width: int
    names: list[str]
    family: np.ndarray  # each slot's family
    tables: np.ndarray  # (families x monomials) coefficient tables, as rows of the stack
    bit_rows: np.ndarray  # (monomials x slots x degree) factors' bit rows; row 0 is all ones
    # the monomials with a sqrt factor, per factor count: each one's
    # monomial and slot, and its factors, as rows of its width's float
    # factors
    sqrt: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    blocks: list[tuple]  # as ``_blocks`` cuts them


class SlotPlan:
    """How to sum a package's residual slots, from its structure alone.

    A plan is made from the sections ``layout`` holds, never from a wire
    id, a value or a level, so one plan serves every package of a layout.
    It holds the decoded names, copies of the lane maps, the starts of
    the rows and tables, and per slot width:

      * a coefficient row per table and per reference; the references of
        one table fill their rows together, from the maps they read;
      * each distinct (row, map) comparison parameter's row of packed
        bits, packed by (map, row length) from blocks of the rows'
        answers, one per set of rows that packs read;
      * the slots, in groups of one monomial table shape, family by
        family: a family's slots share a coefficient sequence, so its
        coefficient rows are gathered once.  Each monomial's bit rows
        are held per slot, and a group is summed in blocks of about
        ``_BLOCK_BYTES``;
      * the monomials with a sqrt factor, by factor count, with their
        factors' (row, map).

    It holds no view into a package.  Slots without monomials are 0.0.
    """

    def __init__(self, pkg: dict):
        lengths = pkg["cmp_rows"][0].astype(np.int64)
        n_cmp = len(lengths)
        starts = np.concatenate([[0], np.cumsum(lengths)])
        self.starts = starts.tolist()  # comparison row r's answers run from [r] to [r + 1]
        # sqrt row q's roots, and coefficient table k's lanes, likewise
        self.root_starts = [0, *np.cumsum(pkg["sqrt_rows"][0], dtype=np.int64).tolist()]
        table_widths = pkg["coeffs"][0].tolist()
        self.table_starts = [0, *np.cumsum(table_widths, dtype=np.int64).tolist()]
        self.maps = _runs(pkg["maps"][0], pkg["maps"][1].copy())
        self.names = _slot_names(*pkg["names"])
        self.stacks: Counter = Counter()  # width -> coefficient rows
        self.table_at: list[tuple[int, int]] = []  # table -> (width, stack row)
        for w in table_widths:
            self.table_at.append((w, self.stacks[w]))
            self.stacks[w] += 1
        # the references of one width and table take consecutive stack
        # rows, past the tables: (width, first row, table, each one's map
        # as a row of its width's maps, its scale)
        refs = pkg["refs"]
        by_table: dict[tuple[int, int], list[int]] = {}
        map_rows: dict[int, dict[int, int]] = {}  # width -> map -> its row of self.ref_maps
        for j, (k, m) in enumerate(zip(refs["table"].tolist(), refs["map"].tolist())):
            w = len(self.maps[m])
            by_table.setdefault((w, k), []).append(j)
            map_rows.setdefault(w, {}).setdefault(m, len(map_rows[w]))
        # width -> (maps x width) lanes of the maps references read
        self.ref_maps = {w: np.array([self.maps[m] for m in ms], dtype=np.intp)
                         for w, ms in map_rows.items()}
        ref_row = np.empty(len(refs), dtype=np.intp)
        self.weights = []
        for (w, k), js in by_table.items():
            ref_row[js] = self.stacks[w] + np.arange(len(js))
            self.weights.append((w, self.stacks[w], k,
                                 np.array([map_rows[w][m] for m in refs["map"][js].tolist()]),
                                 refs["scale"][js, None]))
            self.stacks[w] += len(js)
        stack_row = np.concatenate([[row for _, row in self.table_at], ref_row]).astype(np.intp)

        # every slot's parameters back to back, each slot's followed by one
        # more entry, which its _NONE padding reads
        slot_width = pkg["slots"]["width"].astype(np.int64)
        param_lens, params = pkg["params"]
        n_params = param_lens.astype(np.int64)
        first = np.cumsum(n_params + 1) - (n_params + 1)  # each slot's first entry
        at = np.arange(n_params.sum()) + np.repeat(np.arange(len(n_params)), n_params)
        row, lane_map = params.view(_U4).astype(np.int64).reshape(-1, 2).T
        width = np.repeat(slot_width, n_params)
        is_cmp = row < n_cmp

        # each distinct (width, map, row length, row) comparison parameter's
        # bit row, numbered from 1 per width in that order
        r = row[is_cmp]
        keys = np.stack([width[is_cmp], lane_map[is_cmp], lengths[r], r], axis=1)
        order = np.lexsort(keys.T[::-1])
        new = np.ones(len(order), dtype=bool)
        new[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1)
        uniq = keys[order[new]]
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        bit_rows = np.arange(len(uniq)) - np.searchsorted(uniq[:, 0], uniq[:, 0]) + 1
        self.n_bits = dict.fromkeys(slot_width.tolist(), 0)  # width -> bit rows, past 0
        self.n_bits.update(zip(*(v.tolist() for v in np.unique(uniq[:, 0], return_counts=True))))
        entry_bits = np.zeros(len(at) + len(n_params), dtype=np.intp)
        entry_bits[at[is_cmp]] = bit_rows[inverse]
        entry_sqrt = np.zeros(len(entry_bits), dtype=bool)
        entry_sqrt[at[~is_cmp]] = True

        # the parameters of one width, map and row length are packed
        # together, (width, map, block, bit rows), from a (rows x length)
        # block of their rows' answers, through their map if they have
        # one; packs that read the same rows share a block, held as
        # (length, the rows' starts)
        head = np.ones(len(uniq), dtype=bool)  # the first parameter of each pack
        head[1:] = np.any(uniq[1:, :3] != uniq[:-1, :3], axis=1)
        firsts = np.flatnonzero(head).tolist()
        block_of: dict[bytes, int] = {}
        self.blocks: list[tuple[int, np.ndarray]] = []
        self.packs = []
        for lo, hi in zip(firsts, firsts[1:] + [len(uniq)]):
            w, m, n = uniq[lo, :3].tolist()
            rows = starts[uniq[lo:hi, 3]]
            b = block_of.setdefault(rows.tobytes(), len(self.blocks))
            if b == len(self.blocks):
                self.blocks.append((n, rows))
            self.packs.append((w, m, b, bit_rows[lo:hi]))

        # the slots of each width and monomial table shape, by coefficient
        # table sequence
        refs = _runs(param_lens, params)
        mono_rows = [monos.reshape(-1, stride) for monos, stride in
                     zip(_runs(*pkg["monomials"]), pkg["slots"]["stride"].tolist())]
        shapes: dict[tuple, dict[bytes, list[int]]] = {}  # (width, shape) -> sequence -> slots
        for s, (w, monos) in enumerate(zip(slot_width.tolist(), mono_rows)):
            if len(monos):
                shapes.setdefault((w, monos.shape), {}).setdefault(
                    monos[:, 0].tobytes(), []).append(s)
        # each distinct (row, map) factor of a sqrt monomial, per width
        self.factors: dict[int, dict[tuple[int, int], int]] = {}
        self.groups = []
        # the groups with the most terms per slot come first, so that their
        # transient arrays are made while few results are held
        by_size = sorted(shapes.items(), key=lambda item: -item[0][0] * item[0][1][0])
        for (w, (n_monos, _)), seqs in by_size:
            ss = [s for slots_of in seqs.values() for s in slots_of]  # family by family
            family = [f for f, slots_of in enumerate(seqs.values()) for _ in slots_of]
            monos = np.stack([mono_rows[s] for s in ss])  # (slots x monomials x row)
            entry = first[ss, None, None] + np.minimum(monos[:, :, 1:], n_params[ss, None, None])
            by_count: dict[int, list] = {}  # factor count -> (monomial, slot, factors)
            factors = self.factors.setdefault(w, {})
            for j, on in enumerate(entry_sqrt[entry].any(axis=2).tolist()):
                if any(on):
                    mine, local = refs[ss[j]].tolist(), monos[j, :, 1:].tolist()
                    for i in (i for i, sq in enumerate(on) if sq):
                        fs = [factors.setdefault(mine[f], len(factors))
                              for f in local[i] if f < len(mine)]
                        by_count.setdefault(len(fs), []).append((i, j, fs))
            first_slots = np.searchsorted(family, range(len(seqs)))  # each family's first
            self.groups.append(_Group(
                w, [self.names[s] for s in ss], np.array(family),
                stack_row[monos[first_slots, :, 0]],
                np.ascontiguousarray(entry_bits[entry].transpose(1, 0, 2)),
                [tuple(np.array(col) for col in zip(*ms)) for ms in by_count.values()],
                _blocks(n_monos, family, w)))
        self.block_size = max((g.bit_rows.shape[0] * (hi - lo) * (l1 - l0)
                               for g in self.groups for lo, hi, l0, l1, _ in g.blocks), default=0)

    def evaluate(self, answers: np.ndarray, roots: np.ndarray, table) -> dict[str, Value]:
        """Each slot's value, given every comparison row's boolean answers
        back to back, every sqrt row's roots back to back, and coefficient
        table k as ``table(k)``, which is called once per table.

        A reference's coefficient row is its table's lanes through its
        map times its scale, the multiply the server would have made.  A
        product of 0/1 answers is an AND of bits; a monomial with a sqrt
        factor folds its floats as a balanced tree, as the server does.
        Terms add in monomial order, left to right.
        """
        stacks = {w: np.empty((n, w)) for w, n in self.stacks.items()}
        for k, (w, row) in enumerate(self.table_at):
            stacks[w][row] = table(k)
        for w, lo, k, at, scales in self.weights:
            rows = stacks[w][lo:lo + len(at)]
            pixels = stacks[self.table_at[k][0]][self.table_at[k][1]]
            np.take(np.take(pixels, self.ref_maps[w], mode="clip"), at, axis=0, out=rows,
                    mode="clip")
            rows *= scales
        # bits in 64-bit words, so a gather moves one item per word
        bits = {w: np.full((n + 1, (w + 63) // 64), ~np.uint64(0))
                for w, n in self.n_bits.items()}
        blocks = [answers[starts[:, None] + np.arange(n)] for n, starts in self.blocks]
        for w, m, b, dest in self.packs:
            got = blocks[b] if m == _NONE else np.take(blocks[b], self.maps[m], axis=1)
            bits[w].view(np.uint8)[dest, :(w + 7) // 8] = np.packbits(
                np.broadcast_to(got, (len(dest), w)), axis=1)

        # each sqrt monomial factor's float lanes, read through its map
        n_cmp, at = len(self.starts) - 1, self.root_starts
        floats = {w: np.empty((len(fs), w)) for w, fs in self.factors.items()}
        for w, fs in self.factors.items():
            for (r, m), k in fs.items():
                v = (answers[self.starts[r]:self.starts[r + 1]] if r < n_cmp
                     else roots[at[r - n_cmp]:at[r - n_cmp + 1]])
                floats[w][k] = v if m == _NONE else v[self.maps[m]]

        buf = np.empty(self.block_size)
        results: dict[str, Value] = dict.fromkeys(self.names, 0.0)
        for g in self.groups:
            w, family = g.width, None
            n_monos, n_slots, degree = g.bit_rows.shape
            # one balanced fold per factor count, over all its monomials at once
            sqrt = [(at, slot, balanced_fold(list(floats[w][fs].transpose(1, 0, 2)), np.multiply)
                     * stacks[w][g.tables[g.family[slot], at]]) for at, slot, fs in g.sqrt]
            sums = np.empty((n_slots, w))
            for lo, hi, l0, l1, fams in g.blocks:
                # (monomials x slots or 1 x lanes) coefficients: one family's
                # rows are gathered once, and a block of several families'
                # slots gathers each slot's
                if isinstance(fams, int):
                    if fams != family:
                        family, rows = fams, stacks[w][g.tables[fams]][:, None]
                    coeffs = rows[:, :, l0:l1]
                else:
                    coeffs = stacks[w][g.tables[fams], l0:l1].transpose(1, 0, 2)
                terms = buf[:n_monos * (hi - lo) * (l1 - l0)].reshape(n_monos, hi - lo, l1 - l0)
                if not degree:
                    terms[:] = coeffs
                else:
                    if l0 == 0:  # a block's slots, at their first lanes
                        on = np.bitwise_and.reduce(bits[w][g.bit_rows[:, lo:hi]],
                                                   axis=2).view(np.uint8)
                    terms[:] = np.unpackbits(on[:, :, l0 // 8:(l1 + 7) // 8], axis=2,
                                             count=l1 - l0)
                    np.multiply(terms, coeffs, out=terms)
                for at, slot, term in sqrt:
                    inside = (slot >= lo) & (slot < hi)
                    terms[at[inside], slot[inside] - lo] = term[inside, l0:l1]
                # left to right: a reduction over the monomial axis adds
                # row after row onto -0.0, which leaves the first row's
                # bits as they are; numpy sums a column of single lanes
                # pairwise, so those accumulate instead
                if w > 1:
                    np.add.reduce(terms, axis=0, initial=-0.0, out=sums[lo:hi, l0:l1])
                else:
                    sums[lo:hi, 0] = np.add.accumulate(terms[:, :, 0], axis=0)[-1]
            results.update(zip(g.names, sums if w > 1 else sums[:, 0].tolist()))
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

    def _greater(self, recs: np.ndarray, level: int) -> np.ndarray:
        """[lhs > rhs] as a boolean per comparison record of a batch at
        ``level``; both decrypted operand columns are freed before this
        returns."""
        return np.greater(self._decrypt(Ciphertext(recs["lhs"], level)),
                          self._decrypt(Ciphertext(recs["rhs"], level)))

    def _roots(self, recs: np.ndarray, level: int) -> np.ndarray:
        """The square root of each decrypted argument of a sqrt batch at
        ``level``."""
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._decrypt(Ciphertext(recs["value"], level)))

    def resolve_comparisons(self, blob) -> memoryview:
        return self._response(self._greater(*_parse_request(blob, CMP_DTYPE)))

    def resolve_sqrts(self, blob) -> memoryview:
        return self._response(self._roots(*_parse_request(blob, SQRT_DTYPE)))

    def _response(self, values: np.ndarray) -> memoryview:
        """Answers as wire bytes: each value freshly encrypted at full
        depth, in request order.  The bytes are a uint8 view of the
        encrypted lanes, not a copy, so ``len`` counts bytes."""
        return np.asarray(self.ctx.encrypt(values).value, dtype=RESP_DTYPE).view(np.uint8).data

    def resolve_package(self, blob: bytes) -> dict[str, Value]:
        """Decrypt a deferred package and finish the computation locally.

        The package layout's ``SlotPlan`` comes from the memo unless this
        layout is new or was dropped.  Every comparison row's answers are
        gathered in one pass, and so are every sqrt row's roots; the plan
        then sums the slots, decrypting each pooled coefficient table
        once.
        """
        pkg = parse_package(blob)
        plan = _PLAN_MEMO.pop(pkg["layout"], None)
        if plan is None:
            plan = SlotPlan(pkg)
        _PLAN_MEMO[pkg["layout"]] = plan  # the most recently used, last
        while len(_PLAN_MEMO) > PLAN_MEMO_SIZE:
            del _PLAN_MEMO[next(iter(_PLAN_MEMO))]
        answers = self._greater(pkg["comparisons"], pkg["cmp_level"])[pkg["cmp_rows"][1]]
        roots = (self._roots(pkg["sqrts"], pkg["sqrt_level"]) if len(pkg["sqrts"])
                 else np.empty(0))[pkg["sqrt_rows"][1]]
        coeffs, levels, at = pkg["coeffs"][1], pkg["levels"].tolist(), plan.table_starts
        return plan.evaluate(answers, roots, lambda k: self._decrypt(
            Ciphertext(coeffs[at[k]:at[k + 1]], levels[k])))


# -- request batching -------------------------------------------------------------


def _batch_level(operands) -> int:
    """The level a batch of ``operands`` (ciphertext lists) ships at: the
    lowest among them, to which a modulus switch of the wire copy brings
    the whole batch; 0 for an empty batch."""
    return min((ct.level for cts in operands for ct in cts), default=0)


def _parse_request(blob, dtype: np.dtype) -> tuple[np.ndarray, int]:
    """An interactive request's records, as a view into ``blob``, and the
    level of its batch; ValueError unless it is a level, then whole
    records."""
    if len(blob) < _U4.itemsize:
        raise ValueError(f"a {len(blob)}-byte request is shorter than its "
                         f"{_U4.itemsize}-byte level")
    if (len(blob) - _U4.itemsize) % dtype.itemsize:
        raise ValueError(f"a request's {len(blob) - _U4.itemsize} bytes past its level "
                         f"are not whole {dtype.itemsize}-byte records")
    return (np.frombuffer(blob, dtype=dtype, offset=_U4.itemsize),
            int(np.frombuffer(blob, dtype=_U4, count=1)[0]))


def _pad_and_shuffle(wire: np.ndarray, widths: list[int], operands, rng) -> np.ndarray:
    """Fill ``wire`` with real lanes plus decoys, shuffled.

    ``operands`` holds, for each field of ``wire`` in order, one
    ciphertext per entry; entry i contributes ``widths[i]`` lanes.  A
    decoy operand's value is a draw from the pool of all real operand
    values, so decoy marginals match the real traffic.  Records carry no
    level; the caller writes the batch's one level beside them.  Returns
    the wire ids, that is the positions, of the real lanes in entry order.
    """
    n = int(sum(widths))
    total, k = len(wire), len(operands)
    staged = np.empty((total, k))  # the records in entry order, decoys last
    if n:
        for j, cts in enumerate(operands):
            np.concatenate([_lanes(ct.value, w) for w, ct in zip(widths, cts)],
                           out=staged[:n, j])
    if total > n:
        # the pool is every real operand column back to back: draw i is
        # lane i % n of operand i // n
        for j in range(k):
            src, lane = np.divmod(rng.integers(0, k * n, size=total - n), n)
            staged[n:, j] = staged[lane, src]
        del src, lane
    perm = rng.permutation(total)
    # every field is a float64, so the wire is a (total, k) array and one
    # take moves whole records; mode="clip" lets it write there directly
    np.take(staged, perm, axis=0, out=wire.view(np.float64).reshape(total, k), mode="clip")
    ids = np.empty(total, dtype=np.uint32)
    ids[perm] = np.arange(total, dtype=np.uint32)
    return ids[:n]


def _wire_buffer(size: int, records_at: int) -> np.ndarray:
    """``size`` bytes, not zeroed, placed so that byte ``records_at``,
    where the float64 records start, sits on an 8-byte boundary.  The
    wire bytes are the same either way; the records' writes are faster."""
    raw = np.empty(size + 8, dtype=np.uint8)
    skip = -(raw.ctypes.data + records_at) % 8
    return raw[skip:skip + size]


def _request_batch(dtype: np.dtype, widths: list[int], operands,
                   policy: DecoyPolicy, rng) -> tuple[memoryview, np.ndarray]:
    """One padded, shuffled request batch as wire bytes, its level then
    its records, plus the wire ids of its real lanes.  An empty batch is
    no bytes."""
    n = policy.padded_size(sum(widths))
    buf = _wire_buffer(_U4.itemsize + n * dtype.itemsize if n else 0, _U4.itemsize)
    ids = _pad_and_shuffle(buf[_U4.itemsize:].view(dtype), widths, operands, rng)
    if n:
        buf[:_U4.itemsize].view(_U4)[0] = _batch_level(operands)
    return buf.data, ids


def _bind_response(width: int, values: np.ndarray, level: int) -> Ciphertext:
    v = float(values[0]) if width == 1 else values.astype(np.float64, copy=False)
    return Ciphertext(v, level)


def run_interactive(ctx: CkksContext, builder: GraphBuilder, slots: dict[str, Expr],
                    client: Client, policy: DecoyPolicy = DecoyPolicy(),
                    seed: int = 0, evaluator: CipherEvaluator | None = None,
                    evaluate_slots: bool = True, run_plan: RunPlan | None = None) -> ProtocolRun:
    """Resolve parameters wave by wave; rounds = dependency depth.

    Client answers come back encrypted at the full depth budget, which is
    the only level-restoration mechanism in the system.  ``run_plan`` is
    the plan ``evaluator`` already follows, made for the slots and
    already asked for its ``first`` roots; without one, the run is planned
    now, over the slots and what the evaluator holds.  The plan holds the
    requests, asked here tier by tier, and the tape each ask replays, which
    frees each ciphertext, answers included, after its last read.  With
    ``evaluate_slots`` off, the caller must then ask for each slot once,
    in the order of ``slots``, or of the roots ``run_plan`` was made for.
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
            CMP_DTYPE, cwidths, ([lhs for lhs, _ in pairs], [rhs for _, rhs in pairs]),
            policy, rng)
        sreq_blob, sids = _request_batch(
            SQRT_DTYPE, swidths, ([ev.eval(n.a) for n in tier_sqrts],), policy, rng)
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
    refers into, each piece shipped once, and the slot tables, copied
    from the sections ``lower`` built.  The size follows from the program
    and the policy, so the package is allocated once and every section is
    written in place."""
    rng = np.random.default_rng(seed)
    cmp_widths = [c.width for c in program.comparisons]
    sqrt_widths = [a.width for a in program.sqrt_args.values()]
    pairs = program.cmp_operands.values()
    cmp_operands = ([lhs for lhs, _ in pairs], [rhs for _, rhs in pairs])
    sqrt_operands = (list(program.sqrt_args.values()),)
    sections = program.sections
    header = {"cmp_level": _batch_level(cmp_operands),
              "sqrt_level": _batch_level(sqrt_operands),
              "n_cmp": policy.padded_size(sum(cmp_widths)),
              "n_sqrt": policy.padded_size(sum(sqrt_widths)),
              "n_cmp_rows": len(cmp_widths), "n_sqrt_rows": len(sqrt_widths),
              "n_maps": len(program.lane_maps), "n_coeffs": len(program.coeff_tables),
              "n_refs": len(sections["refs"]), "n_slots": len(sections["slots"])}
    lengths = {name: part[0] for name, part in sections.items() if isinstance(part, tuple)}
    lengths.update(cmp_rows=cmp_widths, sqrt_rows=sqrt_widths,
                   maps=[len(m) for m in program.lane_maps],
                   coeffs=[w for _, w in program.coeff_tables])

    # every byte is written below, so the buffer need not be zeroed first
    buf = _wire_buffer(_package_size(header, lengths), _HEADER.itemsize)
    buf[:_HEADER.itemsize].view(_HEADER)[0] = (_PKG_MAGIC, *(header[f] for f in _HEADER.names[1:]))
    sec = _sections(buf, lengths)
    sec["cmp_rows"][1][:] = _pad_and_shuffle(sec["comparisons"], cmp_widths, cmp_operands, rng)
    sec["sqrt_rows"][1][:] = _pad_and_shuffle(sec["sqrts"], sqrt_widths, sqrt_operands, rng)
    np.concatenate([np.empty(0, _U4), *program.lane_maps], out=sec["maps"][1], casting="unsafe")
    np.concatenate([np.empty(0), *(_lanes(ct.value, w) for ct, w in program.coeff_tables)],
                   out=sec["coeffs"][1])
    sec["levels"][:] = [ct.level for ct, _ in program.coeff_tables]
    for name, part in sections.items():
        if isinstance(part, tuple):
            sec[name][1][:] = part[1]
        else:
            sec[name][:] = part
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
    """A package's sections as views into ``blob``, as ``_sections`` reads
    them; only ``layout`` is a copy.

    ``cmp_level`` and ``sqrt_level`` are the levels the header gives the
    comparison and the sqrt records.  ``cmp_rows`` and ``sqrt_rows`` hold
    the wire-id row of each requested comparison and sqrt, ``coeffs`` the
    coefficient tables and ``levels`` their levels, and ``refs`` the
    window weights as (table, map, scale).  Slot i's ``params`` are (row,
    map) references, rows numbered comparisons first and map ``_NONE``
    for none, and its ``monomials`` are rows of ``stride`` references: a
    coefficient (a table, or past them a reference), then slot-local
    parameter indices padded with ``_NONE``.  ``layout`` holds, as bytes,
    every section a ``SlotPlan`` depends on; the client's plan memo is
    keyed by it.

    Every reference is checked against what it points into: a wire id
    against its kind's records, a parameter's row and map against the
    pools and the map's lanes against the row, a window weight's table
    and map against the pools and the map's lanes against the table, a
    monomial's coefficient and parameter indices against the pools and
    the slot.  So is every width: a slot's coefficients have its width in
    lanes, a window weight's being its map's, and each of its parameters,
    read through its map if it has one, 1 or that width.  One out of
    range is a ValueError, like a truncated package.  The names are
    decoded, and checked, where they are read: by ``SlotPlan`` and
    ``dump_package``.
    """
    if blob[:len(_PKG_MAGIC)] != _PKG_MAGIC:
        raise ValueError("not a deferred package")
    sec = _sections(blob)
    header = sec.pop("header")
    (cmp_lens, cmp_ids), (sqrt_lens, sqrt_ids) = sec["cmp_rows"], sec["sqrt_rows"]
    _check_refs("comparison wire id", cmp_ids, len(sec["comparisons"]))
    _check_refs("sqrt wire id", sqrt_ids, len(sec["sqrts"]))
    row_lens = np.concatenate([cmp_lens, sqrt_lens]).astype(np.int64)
    map_lens, map_lanes = sec["maps"]
    map_lens = map_lens.astype(np.int64)
    map_top = np.full(len(map_lens), -1, dtype=np.int64)  # each map's highest lane
    full = map_lens > 0
    if full.any():  # reduceat would read an empty map's first lane past its end
        map_top[full] = np.maximum.reduceat(map_lanes, (np.cumsum(map_lens) - map_lens)[full])
    coeff_lens = sec["coeffs"][0].astype(np.int64)
    ref_table, ref_map = sec["refs"]["table"].astype(np.intp), sec["refs"]["map"].astype(np.intp)
    _check_refs("reference's coefficient table", ref_table, len(coeff_lens))
    _check_refs("reference's lane map", ref_map, len(map_lens))
    if np.any(map_top[ref_map] >= coeff_lens[ref_table]):
        raise ValueError("deferred package reference's lane map reads past the end of its table")
    coeff_lens = np.concatenate([coeff_lens, map_lens[ref_map]])  # each coefficient's lanes

    width = sec["slots"]["width"].astype(np.int64)
    stride = sec["slots"]["stride"].astype(np.int64)
    param_lens, params = sec["params"]
    mono_lens, monos = sec["monomials"]
    row, lane_map = params["row"].astype(np.intp), params["map"].astype(np.intp)
    _check_refs("parameter row", row, len(row_lens))
    _check_refs("lane map", lane_map, len(map_lens), none_ok=True)
    lanes = row_lens[row]  # each parameter's, read through its map if it has one
    mapped = lane_map != _NONE
    lane_map = lane_map[mapped]
    if np.any(map_top[lane_map] >= lanes[mapped]):
        raise ValueError("deferred package lane map reads past the end of its row")
    lanes[mapped] = map_lens[lane_map]
    if np.any((lanes != 1) & (lanes != np.repeat(width, param_lens))):
        raise ValueError("deferred package parameter has neither 1 lane nor its slot's width")

    if np.any(stride == 0) or np.any(mono_lens % np.maximum(stride, 1)):
        raise ValueError("deferred package monomials are not whole rows, each naming a table")
    n_rows = mono_lens // stride  # each slot's monomials
    row_stride = np.repeat(stride, n_rows)
    lead = np.zeros(len(monos), dtype=bool)  # each monomial's first reference
    lead[np.cumsum(row_stride) - row_stride] = True
    coeffs = monos[lead]
    _check_refs("coefficient", coeffs, len(coeff_lens))
    _check_refs("parameter index", monos[~lead], np.repeat(param_lens, mono_lens - n_rows),
                none_ok=True)
    if np.any(coeff_lens[coeffs] != np.repeat(width, n_rows)):
        raise ValueError("deferred package coefficient's lanes differ from its slot's width")

    # every section the slot plan depends on, byte for byte
    layout = (cmp_lens.tobytes(), sqrt_lens.tobytes(), sec["coeffs"][0].tobytes(),
              sec["refs"].tobytes(), sec["slots"].tobytes(),
              *(part.tobytes() for name in ("maps", "names", "params", "monomials")
                for part in sec[name]))
    return {**sec, "cmp_level": int(header["cmp_level"]),
            "sqrt_level": int(header["sqrt_level"]), "layout": layout}


def dump_package(blob: bytes) -> str:
    """Human-readable package listing, stable for golden comparisons.

    Rows print as ``b<i>`` (comparisons) and ``s<i>`` (sqrts), maps as
    ``m<i>``, coefficient tables as ``k<i>``, references as ``x<i>`` and
    slot parameters as ``p<i>``; slots print in name order.
    """
    pkg = parse_package(blob)
    n_crows, n_tables = len(pkg["cmp_rows"][0]), len(pkg["coeffs"][0])
    rows = _runs(*pkg["cmp_rows"]) + _runs(*pkg["sqrt_rows"])
    maps, coeffs = _runs(*pkg["maps"]), _runs(*pkg["coeffs"])
    slots = zip(_slot_names(*pkg["names"]), pkg["slots"].tolist(),
                _runs(*pkg["params"]), _runs(*pkg["monomials"]))

    def row_name(r: int) -> str:
        return f"b{r}" if r < n_crows else f"s{r - n_crows}"

    lines = [f"comparisons: {len(pkg['comparisons'])} @{pkg['cmp_level']}",
             f"sqrts: {len(pkg['sqrts'])} @{pkg['sqrt_level']}"]
    for i, rec in enumerate(pkg["comparisons"]):
        lines.append(f"  #{i} lhs={rec['lhs']:.6g} rhs={rec['rhs']:.6g}")
    for i, rec in enumerate(pkg["sqrts"]):
        lines.append(f"  #{i} arg={rec['value']:.6g}")
    lines.append(f"rows: {len(rows)}")
    for r, ids in enumerate(rows):
        lines.append(f"  {row_name(r)} -> wire {ids.tolist()}")
    lines.append(f"maps: {len(maps)}")
    for m, lanes in enumerate(maps):
        lines.append(f"  m{m} -> lanes {lanes.tolist()}")
    lines.append(f"coeffs: {len(coeffs)}")
    for k, (lanes, level) in enumerate(zip(coeffs, pkg["levels"].tolist())):
        vals = " ".join(f"{v:.6g}" for v in lanes)
        lines.append(f"  k{k} : [{vals}] @{level}")
    lines.append(f"refs: {len(pkg['refs'])}")
    for j, (k, m, scale) in enumerate(pkg["refs"].tolist()):
        lines.append(f"  x{j} = k{k}[m{m}] * {scale:.6g}")
    for name, (width, stride), params, monos in sorted(slots, key=lambda slot: slot[0]):
        lines.append(f"slot {name}: width={width}")
        for i, (r, m) in enumerate(params.tolist()):
            lines.append(f"  p{i} = {row_name(r)}" + ("" if m == _NONE else f"[m{m}]"))
        for ref, *mono in monos.reshape(-1, stride).tolist():
            key = "*".join(f"p{i}" for i in mono if i != _NONE) or "1"
            coeff = f"k{ref}" if ref < n_tables else f"x{ref - n_tables}"
            lines.append(f"  {key} : {coeff}")
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
        package_sections=_section_bytes(blob),
    )
