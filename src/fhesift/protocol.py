"""Comparison delegation between an evaluating server and a key-holding client.

The server evaluates arithmetic under the leveled simulator but cannot
resolve comparisons or square roots.  Two shapes of exchange exist:

  * interactive: unresolved parameters are grouped by dependency tier and
    shipped wave by wave.  The client decrypts the records, answers with
    a freshly encrypted 0/1 (or root) at full depth, and the server keeps
    evaluating.  Rounds equal the comparison dependency depth.  The
    server's evaluator follows a ``RunPlan``: the run's requests, and a
    tape of its steps, ask by ask, made from the graph alone, so a plan
    made once serves every input and the run walks no graph.
  * deferred: the whole program is lowered to one package of records,
    tables and the comparisons the client forms from tables.  One round,
    after which the client finishes the computation locally.

A record is one value, a request's argument: a sqrt's, or a comparison
[lhs > rhs]'s difference lhs - rhs, a graph node the server evaluates in
the stage that builds the comparison (see ``GraphBuilder.compare``); the
client answers [d > 0].  Every server op is a graph node an evaluator
replays; this module makes none of its own.  Every batch is padded with
decoy records to a power of two (at least 8) and shuffled before it is
written.  A record's wire id is its position in its batch, so neither
says which comparison it belongs to, and an answer is one value per
record, in request order.  Decoys draw their values from the batch's
real ones.  A batch ships at one level, the lowest among its real
records, to which a modulus switch of the wire copy brings it: an
interactive request starts with that level, and the package header holds
one for its comparisons and one for its sqrts.  Records carry no level.
This leaks nothing new, since every record's level follows from the
circuit alone, not from the data.

Padding is staged: the real values are laid out in entry order, decoys
draw from them, and one permutation moves them onto the wire.  The
deferred package is one header and a fixed list of columnar sections,
``_SECTIONS``: the sizer, the writer and the parser each walk that list.
It is sized from the lowered program, allocated once and filled in place.

Those sections are the slot tables' one form.  ``lower`` emits them (the
references, formed comparisons, slots, names, parameters, monomials, lane
maps and windows), so the serializer copies them, and
``LoweredProgram.bind`` adds one input's ciphertexts.  The package
(``DCGPKG09``) ships every piece once, in pools the slots refer into: one
wire-id row per record comparison and sqrt, each base map, each lane map
as a (base, shift) entry, each table, pooled per node (a leaf's per
source) and width, never by value, each reference, each formed
comparison and each distinct run of window weights.  A lane map that is
an earlier base of its width plus one constant is that base and shift;
any other is a base of its own.  A slot parameter is a (row, map or
none) reference and a monomial a row of pool indices, its coefficient a
table or a reference.

A term is ``±c * reindex(T, map)`` or ``±c * T`` for a pure node T of
more than one lane and a public scale c.  It ships as (T's table, the
map or none, ±c), and the client makes the gather and the multiply the
server would have made, so its values keep their bits.  A reference is
a coefficient that is a term other than its T itself, such as the -w of
a binned weight (mask * w): the server never evaluates it, and T ships
once, whatever reads it.  A public constant coefficient is a reference
with no table, its scale at any width, so no table of it is decrypted.

A window is a slot that is one window sum of unresolved values,
sum_p c_p * h[map_p] (``GraphBuilder.window_sum``), as each histogram bin
is.  Its source h ships as a slot of its own, once, which the client
sums like any other but does not return, and the window as a row naming
its slot, its source and its run of weights, each (map, c_p), which
windows of equal weights share.  The client then makes the server's
window sum from the source's lanes with the same kernel,
``ckks_sim.window_sum``, so the bin keeps its bits.

A comparison whose two sides are each a public constant or at most two
terms over pixel tables (T linear in leaf lanes) is formed: it ships as
one row of those terms and no records.  A linear table draws no
simulated noise.  In the pipeline these are detection's DoG tests and
the orientation and descriptor boundary tests over per-pixel gradients:
222 of 234 comparisons.  Localize's polynomial tests, and any
comparison over products or 1-lane values, still ship as records.  A
table ships only the lanes its readers read: each a comparison side's
value or a coefficient.

The client alone sums the slots, in two parts.  A ``SlotPlan`` is made
from the structural sections: it decodes the names, numbers the bit rows
of the distinct comparison parameters and groups the slots by monomial
table shape, family by family: a family's slots share a coefficient table
sequence.  ``SlotPlan.evaluate`` takes one package's answers and roots,
each flat, and its coefficient tables: a product of 0/1 answers is an AND
of bits, taken for a block of slots at once, and each family's
coefficient rows are gathered once, a reference's straight from its
table's lanes, through its map if it has one; then come the windows.
The client decrypts each pooled table once, forms the formed
comparisons from the tables, and keeps the plans
of the ``PLAN_MEMO_SIZE`` most recently used layouts, keyed by the exact
bytes of every section a plan depends on; wire ids, records, coefficient
values and levels are not in the key, so packages of one circuit share
a plan.  A plan holds no view into a package, so the memo keeps none
alive.

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

from .ckks_sim import Ciphertext, CkksContext, SecretKey, Value, gather, window_sum
from .deferred_graph import (
    ADD,
    CIPHER,
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
    operands,
    schedule,
)
from .errors import DeferralUnsupported

_U4 = np.dtype("<u4")  # lengths, wire ids, lanes, levels and pool references

# Wire records: a comparison's lhs - rhs or a sqrt's argument.  A
# record's wire id is its position in its batch, and a response is one
# RESP_DTYPE value per request record, in request order.  A batch's one
# level rides beside its records: a non-empty interactive request is one
# _U4 level, then the records; an empty one is no bytes.
RECORD_DTYPE = np.dtype([("value", "<f8")])
RESP_DTYPE = np.dtype("<f8")  # every answer is encrypted at full depth

_SLOT = np.dtype([("width", "<u4"), ("stride", "<u4")])  # stride: _U4s per monomial
_PARAM = np.dtype([("row", "<u4"), ("map", "<u4")])
# a term: a table read through a lane map, or whole when the map is _NONE
# (a formed term's alone), times a public scale; a reference is one
_REF = np.dtype([("table", "<u4"), ("map", "<u4"), ("scale", "<f8")])
# a formed comparison, [lhs > rhs] over ``width`` lanes: each side is the
# sum of its terms whose table is not _NONE; a side with no such term is
# the constant its first term's scale holds
_FORMED = np.dtype([("width", "<u4"), ("lhs", _REF, (2,)), ("rhs", _REF, (2,))])
# a window: the slot it fills, the source slot it sums and its run of
# weights, each weight a lane map into the source and a public scale
_WINDOW = np.dtype([("slot", "<u4"), ("source", "<u4"), ("weights", "<u4")])
_WEIGHT = np.dtype([("map", "<u4"), ("scale", "<f8")])
_SHIFT = np.dtype([("base", "<u4"), ("shift", "<i4")])  # a lane map: a base map plus a shift
_NONE = 0xFFFFFFFF  # no lane map; an unused monomial column; an absent term

# Deferred package layout, all little-endian and packed: _HEADER, then
# each section below in order, every one read with one frombuffer.  A
# section is (name, dtype, the header field counting its entries, ragged):
# a plain section is that many items; a ragged one is that many _U4
# lengths, then that many runs back to back.  Rows are the wire ids each
# record comparison or sqrt reads; slots are in name order, and each of
# a slot's monomials is ``stride`` references: its coefficient, then
# slot-local parameter indices padded with _NONE.  Coefficient k is table
# k, or past the tables, reference k - n_coeffs.  Parameter rows number
# the record comparisons' rows, then the formed comparisons, then the
# sqrts' rows.  Lane map i is base map ``shifts[i].base`` with
# ``shifts[i].shift`` added to every lane.  A reference whose table is
# _NONE is its scale, a constant of any width.  A window's slot has no
# monomials, and its weights are one of the pooled runs.
_SECTIONS = (
    ("comparisons", RECORD_DTYPE, "n_cmp", False),
    ("sqrts", RECORD_DTYPE, "n_sqrt", False),
    ("cmp_rows", _U4, "n_cmp_rows", True),
    ("sqrt_rows", _U4, "n_sqrt_rows", True),
    ("maps", _U4, "n_bases", True),
    ("shifts", _SHIFT, "n_maps", False),
    ("coeffs", np.dtype("<f8"), "n_coeffs", True),
    ("levels", _U4, "n_coeffs", False),
    ("refs", _REF, "n_refs", False),
    ("formed", _FORMED, "n_formed", False),
    ("slots", _SLOT, "n_slots", False),
    ("names", np.dtype("u1"), "n_slots", True),  # UTF-8
    ("params", _PARAM, "n_slots", True),  # (row, map or _NONE)
    ("monomials", _U4, "n_slots", True),
    ("windows", _WINDOW, "n_windows", False),
    ("weights", _WEIGHT, "n_runs", True),
)
_PKG_MAGIC = b"DCGPKG09"
# the magic, the level of each record section's batch, then every count
_HEADER = np.dtype([("magic", "S8")] + [(f, "<u4") for f in (
    "cmp_level", "sqrt_level", *dict.fromkeys(f for _, _, f, _ in _SECTIONS))])


def _table(buf, off: int, dtype, count: int) -> tuple[np.ndarray, int]:
    """``count`` items of ``dtype`` at ``off`` as a view, and the offset
    past them.  The writer fills such views; the parser reads them."""
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
    return arr, off + arr.nbytes


def _package_size(sizes: dict) -> int:
    """Bytes in a package whose sections have ``sizes``: a plain
    section's item count, a ragged one's run lengths."""
    return _HEADER.itemsize + sum(
        len(sizes[name]) * _U4.itemsize + int(sum(sizes[name])) * dtype.itemsize if ragged
        else sizes[name] * dtype.itemsize for name, dtype, _, ragged in _SECTIONS)


def _sections(buf, sizes: dict | None = None) -> dict:
    """``buf``'s header, as "header", and every section it counts, as
    views into ``buf``: a plain one as its table, a ragged one as
    (lengths, flat runs).  Given ``sizes``, as ``_package_size`` takes
    them, each ragged section's lengths are written before the walk
    reads past them, so the writer and the parser share this walk.
    Bytes past the last section are a ValueError, like a short table."""
    header, off = _table(buf, 0, _HEADER, 1)
    out = {"header": header[0]}
    for name, dtype, count, ragged in _SECTIONS:
        if not ragged:
            out[name], off = _table(buf, off, dtype, int(header[count][0]))
            continue
        lens, off = _table(buf, off, _U4, int(header[count][0]))
        if sizes is not None:
            lens[:] = sizes[name]
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


def _lane_maps(pkg: dict) -> list[np.ndarray]:
    """Every lane map of a package's sections, expanded: its base map's
    lanes plus its shift."""
    bases = _runs(*pkg["maps"])
    return [bases[b].astype(np.intp) + s for b, s in pkg["shifts"].tolist()]


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

    ``comparisons`` holds the comparisons that ship as records and
    ``formed`` those the client forms from pixel tables, ``sqrts`` the
    sqrt requests, each in id order; the record comparisons' wire-id rows
    are numbered in that order, then the sqrts'.  ``sections`` holds, as
    ``parse_package`` returns them, the ``refs``, the ``formed`` rows,
    the slot tables in name order: the ``slots`` ((width, stride) each),
    their ``names``, (row, map) ``params`` and ``monomials``, the base
    ``maps`` and each lane map's ``shifts`` entry, and the ``windows``
    with their pooled ``weights`` runs.
    ``coeff_nodes`` pools the tables as (node, slot width): one table per
    node and width, or per leaf source and width, never merged by value,
    so which monomials share a table follows from the graph alone.  A
    coefficient that is a term other than its T, or a public constant, is
    not a table but a reference, and a formed comparison's sides are terms too: each is
    (T's table, map or ``_NONE``, ±c).  ``table_lanes`` holds, per table, the lanes
    it ships when its readers read only some of them, else None.
    ``client_nodes`` holds what the client computes from the tables, so
    the server need not ask for it: each reference's coefficient node and
    each formed comparison's argument.  ``lane_maps`` pools the maps of
    the reindexed parameters, the terms and the windows by content, in
    full; the sections ship each as a base and shift.  ``bind`` adds
    the ciphertexts: ``cmp_args``, each record comparison's argument
    lhs - rhs, and ``sqrt_args`` by request id, and ``coeff_tables`` as
    (ciphertext, lanes) per pooled table.
    """

    comparisons: list[Comparison]
    formed: list[Comparison]
    sqrts: list[SqrtRequest]
    sections: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]]
    leakage: dict[str, int]
    coeff_nodes: list[tuple[Expr, int]]
    table_lanes: list[np.ndarray | None]
    client_nodes: list[Expr]
    lane_maps: list[np.ndarray]
    cmp_args: dict[int, Ciphertext] | None = None
    sqrt_args: dict[int, Ciphertext] | None = None
    coeff_tables: list[tuple[Ciphertext, int]] | None = None

    def operands(self) -> list[Expr]:
        """What ``bind`` asks its evaluator for, in order: each pooled
        table's node, then each record comparison's argument, then each
        sqrt's."""
        return [e for e, _ in self.coeff_nodes] + [r.arg for r in self.comparisons + self.sqrts]

    def bind(self, evaluator: CipherEvaluator) -> LoweredProgram:
        """This program with its ciphertexts, which ``evaluator``
        evaluates, asked for as ``operands`` lists them.  A table that
        ships some of its lanes is gathered to them, which is free."""
        cts = iter([evaluator.eval(e) for e in self.operands()])
        return replace(
            self, coeff_tables=[(next(cts), w) if lanes is None
                                else (gather(next(cts), lanes), len(lanes))
                                for (_, w), lanes in zip(self.coeff_nodes, self.table_lanes)],
            cmp_args={c.id: next(cts) for c in self.comparisons},
            sqrt_args={q.id: next(cts) for q in self.sqrts})


def lower(builder: GraphBuilder, slots: dict[str, Expr],
          ctx: CkksContext | None = None) -> LoweredProgram:
    """Lower named output slots to requests plus package sections.

    Every comparison and sqrt argument must be pure arithmetic (no nested
    unresolved parameters), otherwise the program needs mid-stream
    re-encryption and only the interactive path can run it.  Given ``ctx``,
    the program comes back bound: a fresh evaluator follows a plan over
    its operands and evaluates its coefficients and request arguments
    server-side, consuming simulator levels.  Without it, the program
    holds the structure alone, which depends on the graph only, and
    ``LoweredProgram.bind`` adds the ciphertexts of each input.

    ``_term`` alone recognises a term, ``±c * reindex(T, map)`` or
    ``±c * T``.  A comparison whose two sides ``_side`` recognises, at
    least one of them with a term, is formed: the client forms both
    sides from the terms' pixel tables, so it ships no records and no
    wire-id row.  Every other comparison ships as records.  Rows are numbered record
    comparisons first, then formed ones, then sqrts, each in id order.

    A slot's parameters are numbered slot-locally in normal-form key
    order: plain comparisons, then reindexed ones, then sqrts.  Each
    monomial row is its coefficient followed by those local indices in
    the same order, padded with ``_NONE`` to the slot's highest degree.
    A coefficient of the slot's width that is a term other than its T
    itself is a reference, and its T a table; so is a plain scalar, with
    no table; references are numbered after the tables.

    A slot whose normal form is one window sum over unresolved values
    (``GraphBuilder.window_sum``), times 1, is a window.  It ships as a
    slot with no monomials and a ``windows`` row naming it, its source and
    its weights run, each weight a pooled lane map and a scale; runs are
    pooled by content.  The source, the
    window sum's operand, ships as a slot the client sums and does not
    return, once, named after the first window in name order that reads
    it with ``:source`` appended.  A window sum of unresolved values used
    otherwise, or read by a source, raises ``DeferralUnsupported``.

    A table read only through lane maps, by references and formed terms,
    ships the union of the lanes they read, and their maps are remapped
    onto it, so no shipped lane goes unread.  Lane maps are pooled by
    content, after that remap, each as a base and shift
    (``_base_and_shift``).
    """
    windows, slots = _windows(builder, slots)
    terms = {name: builder.sorted_terms(builder.normal_form(e)) for name, e in slots.items()}
    keys = {name: sorted({k for params, _ in nf for k in params}) for name, nf in terms.items()}
    used = set().union(*keys.values())
    cmp_ids = sorted({pid for k, pid in used if k == "b"}
                     | {builder.reindexed[pid].source for k, pid in used if k == "r"})
    sqrt_ids = sorted(pid for k, pid in used if k == "s")
    linear: dict[int, bool] = {}
    sides = {cid: _formed(builder, builder.comparisons[cid], linear) for cid in cmp_ids}
    comparisons = [builder.comparisons[c] for c in cmp_ids if sides[c] is None]
    formed = [builder.comparisons[c] for c in cmp_ids if sides[c] is not None]
    rows = {("b", c.id): i for i, c in enumerate(comparisons + formed)}
    rows.update({("s", s): len(cmp_ids) + i for i, s in enumerate(sqrt_ids)})
    coeff_nodes: list[tuple[Expr, int]] = []
    coeff_pool: dict[tuple, int] = {}  # (leaf source or node id, width) -> table
    client_nodes: list[Expr] = []
    refs: list[tuple[int, int, float]] = []  # (table, map read, scale)
    ref_pool: dict[int, int] = {}  # coefficient node id -> reference
    whole: set[int] = set()  # the tables some reader reads whole
    # each read of a table through a lane map, in order: (table, the
    # builder's reindexing); pooled once the tables' lanes are known
    table_reads: list[tuple[int, Reindex]] = []
    map_pool: dict[bytes, int] = {}  # map content -> pooled map
    by_map: dict[tuple, int] = {}  # (narrowed table or None, builder map id) -> pooled map
    lane_maps: list[np.ndarray] = []
    bases: list[np.ndarray] = []
    shifts: list[tuple[int, int]] = []  # each pooled map's (base, shift)

    def lane_map(key: tuple, index: np.ndarray) -> int:
        if key not in by_map:
            by_map[key] = map_pool.setdefault(index.tobytes(), len(lane_maps))
            if by_map[key] == len(lane_maps):
                lane_maps.append(index)
                shifts.append(_base_and_shift(bases, index))
        return by_map[key]

    def param(key) -> tuple[int, int]:
        if key[0] != "r":
            return rows[key], _NONE
        r = builder.reindexed[key[1]]
        return rows["b", r.source], lane_map((None, r.map_id), r.index)

    def table(e: Expr, width: int) -> int:
        # leaves of one source bind one ciphertext, so they are one table
        key = ((CIPHER, e.payload) if e.op == CIPHER else e.id, width)
        k = coeff_pool.setdefault(key, len(coeff_nodes))
        if k == len(coeff_nodes):
            coeff_nodes.append((e, width))
        return k

    def term(pixels: Expr, r: Reindex | None, scale: float) -> tuple[int, int, float]:
        """(table, table read or _NONE, scale)."""
        k = table(pixels, pixels.width)
        if r is None:
            whole.add(k)
            return k, _NONE, scale
        table_reads.append((k, r))
        return k, len(table_reads) - 1, scale

    def coefficient(e: Expr, width: int) -> int:
        """Table k as k, reference j as -1 - j."""
        c = _scalar(e)
        weight = _term(builder, e) if c is None and e.width == width else None
        if c is None and (weight is None or weight[0] is e):
            k = table(e, width)
            whole.add(k)
            return k
        if e.id not in ref_pool:
            ref_pool[e.id] = len(refs)
            refs.append((_NONE, _NONE, float(c)) if c is not None else term(*weight))
            client_nodes.append(e)
        return -1 - ref_pool[e.id]

    # (width, stride), parameters, monomial rows and their coefficients,
    # pooled in slot order; then the formed rows
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
    for name, (_, ws) in windows.items():
        tables[name] = ((ws.index.shape[1], 1), np.empty(0, _PARAM), np.empty((0, 1), _U4),
                        np.empty(0, np.int64))
    none = (_NONE, _NONE, 0.0)  # an absent term
    rows_formed = []
    for c in formed:
        lhs, rhs = ([(_NONE, _NONE, s), none] if isinstance(s, float)
                    else [term(*t) for t in s] + [none] * (2 - len(s)) for s in sides[c.id])
        rows_formed.append((c.width, lhs, rhs))
        client_nodes.append(c.arg)
    for _, _, monos, coeffs in tables.values():  # references follow the tables
        monos[:, 0] = np.where(coeffs >= 0, coeffs, len(coeff_nodes) - 1 - coeffs)

    # each table's shipped lanes: all of them, or the union of the lanes
    # its maps read; then each table read's map is pooled, remapped onto them
    read: dict[int, np.ndarray] = {}  # table -> the lanes its maps read
    for k, r in table_reads:
        if k not in whole:
            read.setdefault(k, np.zeros(coeff_nodes[k][1], dtype=bool))[r.index] = True
    keep: list[np.ndarray | None] = [None] * len(coeff_nodes)
    for k, lanes in read.items():
        if not lanes.all():
            keep[k] = np.flatnonzero(lanes)
    pooled = {_NONE: _NONE}  # table read -> its pooled map
    for i, (k, r) in enumerate(table_reads):
        pooled[i] = (lane_map((None, r.map_id), r.index) if keep[k] is None
                     else lane_map((k, r.map_id), np.searchsorted(keep[k], r.index)))

    def mapped(terms) -> list[tuple]:
        return [(k, pooled[m], scale) for k, m, scale in terms]

    names = sorted(tables)
    at = {name: i for i, name in enumerate(names)}
    runs: dict[bytes, int] = {}  # weights run content -> pooled run
    window_rows = []  # (slot, source, run)
    for name, (src, ws) in windows.items():
        run = np.array([(lane_map((None, m), row), scale)
                        for m, row, scale in zip(ws.map_ids, ws.index, ws.scales.tolist())],
                       dtype=_WEIGHT)
        window_rows.append((at[name], at[src], runs.setdefault(run.tobytes(), len(runs))))
    sections = {"refs": np.array(mapped(refs), dtype=_REF),
                "formed": np.array([(w, mapped(lhs), mapped(rhs)) for w, lhs, rhs in rows_formed],
                                   dtype=_FORMED),
                "slots": np.array([tables[n][0] for n in names], dtype=_SLOT),
                "names": _ragged([np.frombuffer(n.encode(), np.uint8) for n in names], np.uint8),
                "params": _ragged([tables[n][1] for n in names], _PARAM),
                "monomials": _ragged([tables[n][2].ravel() for n in names], _U4),
                "maps": _ragged([m.astype(_U4) for m in bases], _U4),
                "shifts": np.array(shifts, dtype=_SHIFT),
                "windows": np.array(window_rows, dtype=_WINDOW),
                "weights": _ragged([np.frombuffer(run, _WEIGHT) for run in runs], _WEIGHT)}

    sqrts = [builder.sqrts[sid] for sid in sqrt_ids]
    for request, arg in ([(f"comparison {c.id}", c.arg) for c in comparisons]
                         + [(f"sqrt request {q.id}", q.arg) for q in sqrts]):
        if arg.tier > 0:
            raise DeferralUnsupported(f"{request} depends on other unresolved parameters; "
                                      "it cannot ship in a single deferred package")

    leakage = {
        "bool_params": len(cmp_ids),
        "formed_rows": len(formed),
        "sqrt_params": len(sqrt_ids),
        "monomials": sum(len(nf) for nf in terms.values()),
        "coeff_tables": len(coeff_nodes),
        "coeff_refs": len(refs),
        "lane_maps": len(lane_maps),
        "windows": len(windows),
    }
    program = LoweredProgram(comparisons, formed, sqrts, sections, leakage, coeff_nodes, keep,
                             client_nodes, lane_maps)
    if ctx is None:
        return program
    ev = CipherEvaluator(ctx, builder)
    ev.follow(RunPlan.over(program.operands()))
    return program.bind(ev)


def _base_and_shift(bases: list[np.ndarray], index: np.ndarray) -> tuple[int, int]:
    """(b, s) when the non-empty lane map ``index`` is ``bases[b] + s``
    for a constant s, b the first such base; else ``index`` becomes a new
    base, (itself, 0).  Shifts are found against bases only, so none
    chains."""
    for b, base in enumerate(bases):
        if len(base) == len(index):
            d = index - base
            if (d == d[0]).all():
                return b, int(d[0])
    bases.append(index)
    return len(bases) - 1, 0


def _windows(builder: GraphBuilder, slots: dict[str, Expr]) -> tuple[dict, dict]:
    """(windows, sums) for ``lower``: each window slot's (source name,
    ``WindowSum``) in name order, and the slots the client sums, every
    other slot and each window's source, once per source node."""
    windows, sums, sources = {}, {}, {}  # sources: source node id -> its name
    for name in sorted(slots):
        nf = builder.normal_form(slots[name])
        atoms = [k for params in nf for k in params if k[0] == "w"]
        if not atoms:
            sums[name] = slots[name]
            continue
        ((params, coeff),) = nf.items() if len(nf) == 1 else (((), None),)
        if len(params) != 1 or atoms != list(params) or _scalar(coeff) != 1.0:
            raise DeferralUnsupported(f"slot {name!r} uses a window sum of unresolved values "
                                      "other than as the whole slot")
        ws = builder.wsums[atoms[0][1]]
        src = sources.setdefault(ws.source.id, f"{name}:source")
        if src not in sums:
            if src in slots:
                raise ValueError(f"slot name {src!r} is taken by a window's source")
            if any(k[0] == "w" for params in builder.normal_form(ws.source) for k in params):
                raise DeferralUnsupported(f"the window of slot {name!r} sums a window sum "
                                          "of unresolved values")
            sums[src] = ws.source
        windows[name] = src, ws
    return windows, sums


def _scalar(e: Expr) -> float | None:
    """A plain scalar node's value, else None."""
    return e.payload if e.op == PLAIN and not isinstance(e.payload, np.ndarray) else None


def _scaled(e: Expr) -> tuple[float, Expr] | None:
    """(s, x) when ``e`` is x times a public scale s: sign flips, each a
    negation or a multiply by -1.0, around at most one multiply by a
    plain scalar c, so s is ±c or ±1.  A sign flip is exact, so x * s
    gives the server's bits.  None when ``e`` is a product with no plain
    scalar factor."""
    scale = 1.0
    while e.op == NEG or (e.op == MUL and -1.0 in (_scalar(e.a), _scalar(e.c))):
        scale, e = -scale, e.a if e.op == NEG or _scalar(e.c) == -1.0 else e.c
    if e.op == MUL:
        c, e = (_scalar(e.a), e.c) if _scalar(e.a) is not None else (_scalar(e.c), e.a)
        if c is None:
            return None
        scale *= c
    return scale, e


def _linear(e: Expr, memo: dict[int, bool]) -> bool:
    """Whether ``e`` is linear in leaf lanes: a pure node built from
    leaves, reindexing, additions, negations and multiplies by a plain
    scalar alone.  ``memo`` keeps each node's answer by id.  The walk
    stops at any other node, so a polynomial costs its top node only."""

    def scalar_factor(n: Expr) -> bool:
        return n.op == MUL and (_scalar(n.a) is not None or _scalar(n.c) is not None)

    def kids(n: Expr) -> tuple:
        linear_op = n.op in (ADD, NEG, REINDEX) or scalar_factor(n)
        return operands(n) if n.tier == 0 and linear_op else ()

    for n in schedule([e], memo, kids):
        if n.tier > 0 or n.op == PLAIN:
            memo[n.id] = False
        elif n.op == MUL:
            memo[n.id] = scalar_factor(n) and memo[(n.c if _scalar(n.a) is not None else n.a).id]
        else:
            memo[n.id] = n.op == CIPHER or (n.op in (ADD, NEG, REINDEX)
                                            and all(memo[k.id] for k in operands(n)))
    return memo[e.id]


def _term(builder: GraphBuilder, e: Expr) -> tuple[Expr, Reindex | None, float] | None:
    """(T, its reindexing or None, scale) when ``e`` is ``±c *
    reindex(T, map)`` or ``±c * T`` for a pure node T of more than one
    lane and a plain scalar c (or 1), else None.  The server computes
    such a node from T as a gather, a multiply by c and sign flips
    (``_scaled``), so ``T[map] * ±c`` gives its bits."""
    scaled = _scaled(e)
    if scaled is None:
        return None
    scale, e = scaled
    r = None
    if e.op == REINDEX:
        r, e = builder.reindexed[e.payload], e.a
    return (e, r, scale) if e.tier == 0 and e.width > 1 else None


def _side(builder: GraphBuilder, e: Expr, linear: dict[int, bool]):
    """A formed comparison's side: a plain scalar, as a float, or a list of
    one ``_term`` over a pixel table, ``e`` itself, or two, when ``e`` adds
    two such terms over tables that are not leaves; else None.  A pixel
    table is a T linear in leaf lanes (``_linear``).  The server computes
    the sum as one add (or a subtraction, the same bits), and two terms
    have no order to choose.  Split into leaves, a difference of two
    pixel reads such as a gradient would ship the raw pyramid level it
    reads, where unsplit it ships the gradient, which the comparison
    reveals anyway."""
    c = _scalar(e)
    if c is not None:
        return c

    def term(k: Expr):
        t = _term(builder, k)
        return t if t is not None and _linear(t[0], linear) else None

    if e.op == ADD:
        pair = [term(k) for k in (e.a, e.c)]
        if None not in pair and all(t[0].op != CIPHER for t in pair):
            return pair
    t = term(e)
    return None if t is None else [t]


def _formed(builder: GraphBuilder, c: Comparison, linear: dict[int, bool]):
    """Comparison ``c``'s (lhs, rhs) as ``_side``s when both are sides and
    one has a term, so the client can form it from pixel tables; else
    None, and it ships as records."""
    sides = (_side(builder, c.lhs, linear), _side(builder, c.rhs, linear))
    if None in sides or all(isinstance(s, float) for s in sides):
        return None
    return sides


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
    coeffs: np.ndarray  # (families x monomials) coefficients: tables, then references
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
    It holds the decoded names, the lane maps, each expanded once from its
    base and shift, the starts of the rows and tables, and:

      * the formed comparisons, in sets that read the same tables through
        the same maps, each formed in one (rows x lanes) pass: their
        lanes, and their sides, each side a column of constants or its
        terms as (table, lanes or None, a column of scales);
      * per slot width, the rows coefficients are read from: a row of
        ones, each table of that width, then, per table that references
        read through maps, its lanes through each map of that width that
        references read.  A coefficient is one of those rows, a
        reference's, which without a map is its table's own row, or with
        no table the ones, times its scale;
      * each distinct (row, map) comparison parameter's row of packed
        bits, packed by (map, row length) from blocks of the rows'
        answers, one per set of rows that packs read;
      * the slots, in groups of one monomial table shape, family by
        family: a family's slots share a coefficient sequence, so its
        coefficient rows are gathered once.  Each monomial's bit rows
        are held per slot, and a group is summed in blocks of about
        ``_BLOCK_BYTES``;
      * the monomials with a sqrt factor, by factor count, with their
        factors' (row, map);
      * each window's slot and source, its weights' (positions x lanes)
        source lanes and their scales.  The sources are summed as slots,
        each window from its source through ``ckks_sim.window_sum``, and
        the sources are not returned.

    It holds no view into a package.  Slots without monomials are 0.0,
    but for the windows'.
    """

    def __init__(self, pkg: dict):
        formed = pkg["formed"]
        lengths = np.concatenate([pkg["cmp_rows"][0], formed["width"]]).astype(np.int64)
        n_cmp = len(lengths)  # record comparison rows, then formed ones
        starts = np.concatenate([[0], np.cumsum(lengths)])
        self.starts = starts.tolist()  # comparison row r's answers run from [r] to [r + 1]
        # sqrt row q's roots, and coefficient table k's lanes, likewise
        self.root_starts = [0, *np.cumsum(pkg["sqrt_rows"][0], dtype=np.int64).tolist()]
        table_widths = pkg["coeffs"][0].tolist()
        self.table_starts = [0, *np.cumsum(table_widths, dtype=np.int64).tolist()]
        self.maps = _lane_maps(pkg)
        self.names = _slot_names(*pkg["names"])

        # the formed rows of one width that read the same tables through
        # the same maps, a constant on the same sides, are formed in one
        # pass: (its blocks, lhs, rhs), each side a (rows x 1) column of
        # constants or its terms, each (table, lanes or None, (rows x 1)
        # scales).  A block is about _BLOCK_BYTES of (rows x lanes): (its
        # rows, their count, their lanes as one span when they follow
        # each other, else each row's)
        at = self.starts[len(pkg["cmp_rows"][0]):]  # each formed row's first lane
        by_reads: dict[tuple, list[int]] = {}
        for i, (w, *sides) in enumerate(formed.tolist()):
            key = (w, *(tuple((t, k, m) for t, (k, m, _) in enumerate(terms.tolist())
                              if k != _NONE) for terms in sides))
            by_reads.setdefault(key, []).append(i)
        self.formed = []
        for (w, *reads), rows in by_reads.items():
            sides = []
            for name, terms in zip(("lhs", "rhs"), reads):
                scales = formed[name]["scale"][rows]
                sides.append([(k, None if m == _NONE else self.maps[m], scales[:, t, None])
                              for t, k, m in terms] or scales[:, :1])
            blocks, step = [], max(1, _BLOCK_BYTES // (8 * w))
            for lo in range(0, len(rows), step):
                part = rows[lo:lo + step]
                span = [(at[i], at[i + 1]) for i in part]
                if part[-1] - part[0] == len(part) - 1:
                    span = span[0][0], span[-1][1]
                blocks.append((slice(lo, lo + len(part)), len(part), span))
            self.formed.append((blocks, *sides))

        # each width's coefficient rows: a row of ones, which a constant
        # reference scales, its tables, then a block per table that
        # references of that width read, its lanes through each of the
        # width's reference maps (``ref_maps``)
        self.sources = Counter(dict.fromkeys(pkg["slots"]["width"].tolist() + table_widths, 1))
        self.table_at: list[tuple[int, int]] = []  # table -> (width, row)
        for w in table_widths:
            self.table_at.append((w, self.sources[w]))
            self.sources[w] += 1
        refs = pkg["refs"]
        map_rows: dict[int, dict[int, int]] = {}  # width -> map -> its row of ref_maps
        through: dict[tuple[int, int], int] = {}  # (width, table) -> its block's first row
        # each reference's (width, table, map's row of ref_maps), or with
        # no map (None, None, its coefficient row)
        ref_rows = []
        for k, m in zip(refs["table"].tolist(), refs["map"].tolist()):
            if m == _NONE:
                ref_rows.append((None, None, 0 if k == _NONE else self.table_at[k][1]))
                continue
            w = len(self.maps[m])
            through[w, k] = 0
            ref_rows.append((w, k, map_rows.setdefault(w, {}).setdefault(m, len(map_rows[w]))))
        # width -> (maps x width) lanes of the maps references read
        self.ref_maps = {w: np.array([self.maps[m] for m in ms], dtype=np.intp)
                         for w, ms in map_rows.items()}
        for w, k in through:
            through[w, k] = self.sources[w]
            self.sources[w] += len(self.ref_maps[w])
        self.through = [(w, lo, k) for (w, k), lo in through.items()]  # (width, first row, table)
        # each coefficient's row (tables, then references) and scale
        self.coeff_row = np.array([row for _, row in self.table_at]
                                  + [i if w is None else through[w, k] + i
                                     for w, k, i in ref_rows], dtype=np.intp)
        self.coeff_scale = np.concatenate([np.ones(len(table_widths)), refs["scale"]])
        self.is_ref = np.arange(len(self.coeff_row)) >= len(table_widths)

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
        # bit row, numbered from 1 per width in that order: the keys, none
        # negative, sorted, and each run of equal keys numbered
        r = row[is_cmp]
        keys = np.stack([width[is_cmp], lane_map[is_cmp], lengths[r], r], axis=1)
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        new = np.diff(keys, axis=0, prepend=-1).any(axis=1)  # each run's first key
        uniq, inverse = keys[new], np.empty(len(keys), dtype=np.intp)
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
                monos[first_slots, :, 0].astype(np.intp),
                np.ascontiguousarray(entry_bits[entry].transpose(1, 0, 2)),
                [tuple(np.array(col) for col in zip(*ms)) for ms in by_count.values()],
                _blocks(n_monos, family, w)))
        self.block_size = max((g.bit_rows.shape[0] * (hi - lo) * (l1 - l0)
                               for g in self.groups for lo, hi, l0, l1, _ in g.blocks), default=0)

        # each window as the kernel takes it: the slot it fills, its
        # source's, the (positions x lanes) source lanes its run's maps
        # read, which runs of one map sequence share, and its scales
        lanes_of: dict[bytes, np.ndarray] = {}
        runs = []
        for weights in _runs(*pkg["weights"]):
            raw = weights["map"].tobytes()
            if raw not in lanes_of:
                lanes_of[raw] = np.array([self.maps[m] for m in weights["map"].tolist()],
                                         dtype=np.intp)
            runs.append((lanes_of[raw], weights["scale"].copy()))
        self.windows = [(self.names[slot], self.names[src], *runs[run])
                        for slot, src, run in pkg["windows"].tolist()]
        self.hidden = {src for _, src, _, _ in self.windows}  # the sources, not returned

    def evaluate(self, answers: np.ndarray, roots: np.ndarray, table) -> dict[str, Value]:
        """Each slot's value, given every record comparison row's boolean
        answers back to back, every sqrt row's roots back to back, and
        coefficient table k as ``table(k)``, which is called once per
        table.

        The formed comparisons are answered from the tables first
        (``_form``).  A reference's coefficient row is its table's lanes,
        through its map if it has one, times its scale, the multiply the
        server would have made.  A product of 0/1 answers is an AND of bits; a
        monomial with a sqrt factor folds its floats as a balanced tree,
        as the server does.  Terms add in monomial order, left to right.
        Each window is then its source's window sum, and the sources are
        dropped.
        """
        tables = [table(k) for k in range(len(self.table_at))]
        answers = self._form(answers, tables)
        sources = {w: np.empty((n, w)) for w, n in self.sources.items()}
        for rows in sources.values():
            rows[0] = 1.0
        for lanes, (w, row) in zip(tables, self.table_at):
            sources[w][row] = lanes
        for w, lo, k in self.through:
            np.take(tables[k], self.ref_maps[w], out=sources[w][lo:lo + len(self.ref_maps[w])],
                    mode="clip")

        def coeffs(w: int, ids: np.ndarray) -> np.ndarray:
            """Coefficients ``ids``' rows, a reference's scaled, shaped
            ``ids.shape + (w,)``."""
            rows = sources[w][self.coeff_row[ids]]
            scaled = self.is_ref[ids]
            if scaled.all():
                rows *= self.coeff_scale[ids][..., None]
            elif scaled.any():
                np.multiply(rows, self.coeff_scale[ids][..., None], out=rows,
                            where=scaled[..., None])
            return rows

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
                     * coeffs(w, g.coeffs[g.family[slot], at])) for at, slot, fs in g.sqrt]
            sums = np.empty((n_slots, w))
            for lo, hi, l0, l1, fams in g.blocks:
                # (monomials x slots or 1 x lanes) coefficients: one family's
                # rows are gathered once, and a block of several families'
                # slots gathers each slot's
                if isinstance(fams, int):
                    if fams != family:
                        family, rows = fams, coeffs(w, g.coeffs[fams])[:, None]
                    block = rows[:, :, l0:l1]
                else:
                    block = coeffs(w, g.coeffs[fams])[:, :, l0:l1].transpose(1, 0, 2)
                terms = buf[:n_monos * (hi - lo) * (l1 - l0)].reshape(n_monos, hi - lo, l1 - l0)
                if not degree:
                    terms[:] = block
                else:
                    if l0 == 0:  # a block's slots, at their first lanes
                        on = np.bitwise_and.reduce(bits[w][g.bit_rows[:, lo:hi]],
                                                   axis=2).view(np.uint8)
                    terms[:] = np.unpackbits(on[:, :, l0 // 8:(l1 + 7) // 8], axis=2,
                                             count=l1 - l0)
                    np.multiply(terms, block, out=terms)
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
        for name, src, lanes, scales in self.windows:
            results[name] = window_sum(results[src], lanes, scales)
        for src in self.hidden:
            del results[src]
        return results

    def _form(self, answers: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
        """Every comparison row's answers back to back: the records', then
        each formed comparison's, [lhs > rhs] at its own width, a pass per
        set of rows that read the same tables.  A side is its constant, or
        its terms, each its table's lanes through its map (or all of them)
        times its scale, two of them added: the float ops the server would
        have made, so every answer keeps its bits."""
        out = np.empty(self.starts[-1], dtype=bool)
        out[:len(answers)] = answers
        for blocks, lhs, rhs in self.formed:
            lhs, rhs = _form_lanes(lhs, tables), _form_lanes(rhs, tables)
            for rows, n_rows, span in blocks:
                if isinstance(span, tuple):
                    np.greater(_form_side(lhs, rows), _form_side(rhs, rows),
                               out=out[span[0]:span[1]].reshape(n_rows, -1))
                    continue
                got = np.greater(_form_side(lhs, rows), _form_side(rhs, rows))
                for (lo, hi), row in zip(span, got):
                    out[lo:hi] = row
        return out


def _form_lanes(side, tables: list[np.ndarray]):
    """A formed side's constants, or each of its terms as (its table's
    lanes through its map, or all of them; its scales)."""
    if not isinstance(side, list):
        return side
    return [(tables[k] if m is None else np.take(tables[k], m), s) for k, m, s in side]


def _form_side(side, rows: slice) -> np.ndarray:
    """A formed side's values at ``rows``, (rows x lanes): its constants,
    or its one or two terms, each its lanes times its scale, summed."""
    if not isinstance(side, list):
        return side[rows]
    vals = [lanes * s[rows] for lanes, s in side]
    return vals[0] if len(vals) == 1 else vals[0] + vals[1]


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
        """[d > 0], which is [lhs > rhs], as a boolean per difference
        record of a comparison batch at ``level``; the decrypted column is
        freed before this returns."""
        return np.greater(self._decrypt(Ciphertext(recs["value"], level)), 0.0)

    def _roots(self, recs: np.ndarray, level: int) -> np.ndarray:
        """The square root of each decrypted argument of a sqrt batch at
        ``level``."""
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._decrypt(Ciphertext(recs["value"], level)))

    def resolve_comparisons(self, blob) -> memoryview:
        return self._response(self._greater(*_parse_request(blob)))

    def resolve_sqrts(self, blob) -> memoryview:
        return self._response(self._roots(*_parse_request(blob)))

    def _response(self, values: np.ndarray) -> memoryview:
        """Answers as wire bytes: each value freshly encrypted at full
        depth, in request order.  The bytes are a uint8 view of the
        encrypted lanes, not a copy, so ``len`` counts bytes."""
        return np.asarray(self.ctx.encrypt(values).value, dtype=RESP_DTYPE).view(np.uint8).data

    def resolve_package(self, blob: bytes) -> dict[str, Value]:
        """Decrypt a deferred package and finish the computation locally.

        The package layout's ``SlotPlan`` comes from the memo unless this
        layout is new or was dropped.  Every record comparison row's
        answers are gathered in one pass, and so are every sqrt row's
        roots; the plan then forms the other comparisons and sums the
        slots, decrypting each pooled table once.
        """
        pkg = parse_package(blob)
        plan = _PLAN_MEMO.pop(pkg["layout"], None)
        if plan is None:
            plan = SlotPlan(pkg)
        _PLAN_MEMO[pkg["layout"]] = plan  # the most recently used, last
        while len(_PLAN_MEMO) > PLAN_MEMO_SIZE:
            del _PLAN_MEMO[next(iter(_PLAN_MEMO))]
        answers = (self._greater(pkg["comparisons"], pkg["cmp_level"]) if len(pkg["comparisons"])
                   else np.empty(0, dtype=bool))[pkg["cmp_rows"][1]]
        roots = (self._roots(pkg["sqrts"], pkg["sqrt_level"]) if len(pkg["sqrts"])
                 else np.empty(0))[pkg["sqrt_rows"][1]]
        coeffs, levels, at = pkg["coeffs"][1], pkg["levels"].tolist(), plan.table_starts
        return plan.evaluate(answers, roots, lambda k: self._decrypt(
            Ciphertext(coeffs[at[k]:at[k + 1]], levels[k])))


# -- request batching -------------------------------------------------------------


def _parse_request(blob) -> tuple[np.ndarray, int]:
    """An interactive request's records, as a view into ``blob``, and the
    level of its batch; ValueError unless it is a level, then whole
    records."""
    if len(blob) < _U4.itemsize:
        raise ValueError(f"a {len(blob)}-byte request is shorter than its "
                         f"{_U4.itemsize}-byte level")
    if (len(blob) - _U4.itemsize) % RECORD_DTYPE.itemsize:
        raise ValueError(f"a request's {len(blob) - _U4.itemsize} bytes past its level "
                         f"are not whole {RECORD_DTYPE.itemsize}-byte records")
    return (np.frombuffer(blob, dtype=RECORD_DTYPE, offset=_U4.itemsize),
            int(np.frombuffer(blob, dtype=_U4, count=1)[0]))


_CHUNK = 1 << 16  # positions per step of a permutation's inversion and of the decoys


def _wire_ids(n: int, total: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Where a batch of ``n`` real lanes padded to ``total`` puts each
    lane, drawn before its wire exists: the wire id, that is the
    position, of every lane, real lanes in entry order then decoys, and
    each decoy's draw, the real lane whose value it copies.  Decoys draw
    from the pool of all real values, so decoy marginals match the real
    traffic.  The ids invert one ``rng.permutation``, a chunk of positions
    at a time, and the permutation is dropped before this returns."""
    draws = rng.integers(0, n, size=total - n) if total > n else np.empty(0, dtype=np.int64)
    perm = rng.permutation(total)
    ids = np.empty(total, dtype=np.uint32)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        ids[perm[lo:hi]] = np.arange(lo, hi, dtype=np.uint32)
    return ids, draws


def _pad_and_shuffle(wire: np.ndarray, widths: list[int], cts, ids: np.ndarray,
                     draws: np.ndarray) -> tuple[np.ndarray, int]:
    """Fill ``wire`` with real lanes plus decoys, shuffled as ``_wire_ids``'s
    ``ids`` and ``draws`` say.

    Entry i of ``cts``, any iterable, contributes ``widths[i]`` lanes,
    written straight to their wire ids; each entry is dropped before the
    next is drawn, so a generator's entries never all live at once.  Each
    decoy then copies its draw's lane.  Records carry no level; the caller
    writes the batch's one level beside them.  Returns the wire ids of the
    real lanes in entry order and that level: the lowest among the
    entries, to which a modulus switch of the wire copy brings the whole
    batch, or 0 for an empty batch.
    """
    values = wire.view(np.float64)
    entries, level, pos = iter(cts), None, 0
    for w in widths:
        ct = next(entries)
        # put, not a fancy assignment: about twice as fast through uint32 ids
        values.put(ids[pos:pos + w], _lanes(ct.value, w))
        level = ct.level if level is None else min(level, ct.level)
        pos += w
        del ct  # freed, if the caller holds it no longer, before the next is drawn
    for lo in range(0, len(draws), _CHUNK):  # in chunks: decoys may be near half the wire
        values.put(ids[pos + lo:pos + lo + _CHUNK], values.take(ids[draws[lo:lo + _CHUNK]]))
    return ids[:pos], 0 if level is None else level


def _wire_buffer(size: int, records_at: int) -> np.ndarray:
    """``size`` bytes, not zeroed, placed so that byte ``records_at``,
    where the float64 records start, sits on an 8-byte boundary.  The
    wire bytes are the same either way; the records' writes are faster."""
    raw = np.empty(size + 8, dtype=np.uint8)
    skip = -(raw.ctypes.data + records_at) % 8
    return raw[skip:skip + size]


def _request_batch(widths: list[int], cts, policy: DecoyPolicy,
                   rng) -> tuple[memoryview, np.ndarray]:
    """One padded, shuffled request batch of ``cts``, any iterable, as
    wire bytes, its level then its records, plus the wire ids of its real
    lanes.  The ids are drawn first, so the wire is allocated only once
    the permutation behind them is gone.  An empty batch is no bytes."""
    n = int(sum(widths))
    total = policy.padded_size(n)
    ids, draws = _wire_ids(n, total, rng)
    buf = _wire_buffer(_U4.itemsize + total * RECORD_DTYPE.itemsize if total else 0, _U4.itemsize)
    real, level = _pad_and_shuffle(buf[_U4.itemsize:].view(RECORD_DTYPE), widths, cts, ids, draws)
    if total:
        buf[:_U4.itemsize].view(_U4)[0] = level
    return buf.data, real


def _bind_response(width: int, values: np.ndarray, level: int) -> Ciphertext:
    v = float(values[0]) if width == 1 else values.astype(np.float64, copy=False)
    return Ciphertext(v, level)


def run_interactive(ctx: CkksContext, builder: GraphBuilder, slots: dict[str, Expr],
                    client: Client, policy: DecoyPolicy = DecoyPolicy(),
                    seed: int = 0, evaluator: CipherEvaluator | None = None,
                    evaluate_slots: bool = True) -> ProtocolRun:
    """Resolve parameters wave by wave; rounds = dependency depth.

    Client answers come back encrypted at the full depth budget, which is
    the only level-restoration mechanism in the system.  An ``evaluator``
    that already follows a plan (``CipherEvaluator.plan``) runs it: one
    made for the slots, and already asked for its ``first`` roots;
    otherwise the run is planned now, over the slots and what the
    evaluator holds.  The plan holds the requests, asked here tier by
    tier, and the tape each ask replays, which frees each ciphertext,
    answers included, after its last read.  With ``evaluate_slots`` off,
    the caller must then ask for each slot once, in the order of
    ``slots``, or of the roots the plan was made for.  Requests the
    evaluator was given answers to are not asked again.
    """
    rng = np.random.default_rng(seed)
    ev = evaluator if evaluator is not None else CipherEvaluator(ctx, builder)
    if ev.plan is None:
        ev.follow(RunPlan.over(slots.values(), ev.memo))
    trace: list[RoundTrace] = []
    full = ctx.params.depth_budget
    for round_no, tier in enumerate(ev.plan.by_tier(), start=1):
        sent = []  # (real lanes, request bytes, response bytes) per batch
        for nodes, resolve in zip(tier, (client.resolve_comparisons, client.resolve_sqrts)):
            # each argument is drawn, written to the wire and dropped in turn
            req, ids = _request_batch([n.width for n in nodes], (ev.eval(n.a) for n in nodes),
                                      policy, rng)
            n_req = len(req)
            resp = np.frombuffer(resolve(req) if n_req else b"", dtype=RESP_DTYPE)
            del req  # the wire is freed before the answers are bound
            pos = 0
            for n in nodes:
                ev.bind(n, _bind_response(n.width, resp[ids[pos:pos + n.width]], full))
                pos += n.width
            sent.append((len(ids), n_req, resp.nbytes))
        (n_cmp, creq, cresp), (n_sqrt, sreq, sresp) = sent
        trace.append(RoundTrace(
            round=round_no, n_real_comparisons=n_cmp, n_real_sqrts=n_sqrt,
            n_wire_comparisons=policy.padded_size(n_cmp), n_wire_sqrts=policy.padded_size(n_sqrt),
            request_bytes=creq + sreq, response_bytes=cresp + sresp))

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
    sections = program.sections
    sizes = {"comparisons": policy.padded_size(sum(cmp_widths)),
             "sqrts": policy.padded_size(sum(sqrt_widths)),
             "cmp_rows": cmp_widths, "sqrt_rows": sqrt_widths,
             "coeffs": [w for _, w in program.coeff_tables],
             "levels": len(program.coeff_tables),
             **{name: part[0] if isinstance(part, tuple) else len(part)
                for name, part in sections.items()}}
    cmp_ids = _wire_ids(sum(cmp_widths), sizes["comparisons"], rng)
    sqrt_ids = _wire_ids(sum(sqrt_widths), sizes["sqrts"], rng)

    fields = {"magic": _PKG_MAGIC, "cmp_level": 0, "sqrt_level": 0,
              **{count: len(sizes[name]) if ragged else sizes[name]
                 for name, _, count, ragged in _SECTIONS}}

    # every byte is written below, so the buffer need not be zeroed first;
    # the counts come first, since the section walk reads them, and each
    # batch's level once its records are written
    buf = _wire_buffer(_package_size(sizes), _HEADER.itemsize)
    header = buf[:_HEADER.itemsize].view(_HEADER)
    header[0] = tuple(fields[f] for f in _HEADER.names)
    sec = _sections(buf, sizes)
    sec["cmp_rows"][1][:], header["cmp_level"] = _pad_and_shuffle(
        sec["comparisons"], cmp_widths, program.cmp_args.values(), *cmp_ids)
    sec["sqrt_rows"][1][:], header["sqrt_level"] = _pad_and_shuffle(
        sec["sqrts"], sqrt_widths, program.sqrt_args.values(), *sqrt_ids)
    np.concatenate([np.empty(0), *(_lanes(ct.value, w) for ct, w in program.coeff_tables)],
                   out=sec["coeffs"][1])
    sec["levels"][:] = [ct.level for ct, _ in program.coeff_tables]
    for name, part in sections.items():
        if isinstance(part, tuple):
            sec[name][1][:] = part[1]
        else:
            sec[name][:] = part
    return buf.data


def _check_refs(what, refs: np.ndarray, count, none_ok=False):
    """ValueError unless every reference is below its ``count``, or is
    ``_NONE`` where ``none_ok``; each of the three, ``what`` naming the
    reference, is one for all, or one per reference."""
    bad = (refs >= count) & ~(np.asarray(none_ok) & (refs == _NONE))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"deferred package {np.broadcast_to(what, refs.shape)[i]} "
                         f"{int(refs[i])} is out of range "
                         f"(there are {int(np.broadcast_to(count, refs.shape)[i])})")


def parse_package(blob) -> dict:
    """A package's sections as views into ``blob``, as ``_sections`` reads
    them; only ``layout`` is a copy.

    ``cmp_level`` and ``sqrt_level`` are the levels the header gives the
    comparison and the sqrt records.  ``cmp_rows`` and ``sqrt_rows`` hold
    the wire-id row of each record comparison and sqrt, ``coeffs`` the
    tables and ``levels`` their levels, ``maps`` the base maps and
    ``shifts`` each lane map's (base, shift), ``refs`` the references as
    (table or ``_NONE`` for a constant, map or ``_NONE``, scale), and
    ``formed`` the comparisons the client forms from the tables (``_FORMED``).  Slot i's ``params`` are (row, map)
    references, rows numbered record comparisons first, then formed ones,
    then sqrts, and map ``_NONE`` for none, and its ``monomials`` are
    rows of ``stride`` references: a coefficient (a table, or past them a
    reference), then slot-local parameter indices padded with ``_NONE``.
    ``windows`` holds each window's (slot, source, weights run) and
    ``weights`` the runs of (map, scale) weights.
    ``layout`` holds, as bytes, every section a ``SlotPlan`` depends on;
    the client's plan memo is keyed by it.

    Every reference is checked against what it points into: a wire id
    against its kind's records, a lane map's base against the base maps,
    a parameter's row and map against the pools and the map's lanes, its
    base's plus its shift, none below 0, against the row, every term's
    table and map, the references' and the formed sides' in one pass,
    against the pools and the map's lanes against the table, a monomial's
    coefficient and parameter indices against the pools and the slot, a
    window's slot and source against the slots and its run against the
    runs, and the runs' maps against the pool and their lanes against
    each source that reads them.  So is every width: no slot is wider
    than every row, table and map; a slot's coefficients have its width
    in lanes, a reference's being its map's, or its table's without one,
    a constant's any; each of its parameters, read through its map if it
    has one, has 1 lane or that width; each term of a formed comparison,
    likewise, 1 or its row's width, which is its widest term's (1 with
    none); each window weight's map, the width of the window's slot.  An
    absent term, like a constant, has no map.  A window fills a slot with
    no monomials that no other window fills and sums a source that is no
    window, and no run is empty.  One out of range is a ValueError, like
    a truncated package.  The names are decoded, and checked, where they
    are read: by ``SlotPlan`` and ``dump_package``.
    """
    if blob[:len(_PKG_MAGIC)] != _PKG_MAGIC:
        raise ValueError("not a deferred package")
    sec = _sections(blob)
    header = sec.pop("header")
    (cmp_lens, cmp_ids), (sqrt_lens, sqrt_ids) = sec["cmp_rows"], sec["sqrt_rows"]
    _check_refs("comparison wire id", cmp_ids, len(sec["comparisons"]))
    _check_refs("sqrt wire id", sqrt_ids, len(sec["sqrts"]))
    formed = sec["formed"]
    row_lens = np.concatenate([cmp_lens, formed["width"], sqrt_lens]).astype(np.int64)
    base_lens, base_lanes = sec["maps"]
    base_lens = base_lens.astype(np.int64)
    base_top = np.full(len(base_lens), -1, dtype=np.int64)  # each base map's highest lane
    base_low = np.zeros(len(base_lens), dtype=np.int64)  # and its lowest
    full = base_lens > 0
    if full.any():  # reduceat would read an empty map's first lane past its end
        first = (np.cumsum(base_lens) - base_lens)[full]
        base_top[full] = np.maximum.reduceat(base_lanes, first)
        base_low[full] = np.minimum.reduceat(base_lanes, first)
    base, shift = sec["shifts"]["base"].astype(np.intp), sec["shifts"]["shift"].astype(np.int64)
    _check_refs("lane map's base", base, len(base_lens))
    if np.any(full[base] & (base_low[base] + shift < 0)):
        raise ValueError("deferred package lane map's shift takes a lane below 0")
    map_lens = base_lens[base]
    map_top = np.where(full[base], base_top[base] + shift, -1)  # each map's highest lane
    coeff_lens = sec["coeffs"][0].astype(np.int64)
    sides = np.concatenate([formed["lhs"], formed["rhs"]], axis=1)  # (rows x 4 terms)
    present = sides["table"] != _NONE
    if np.any(sides["map"][~present] != _NONE):
        raise ValueError("deferred package formed comparison's absent term has a lane map")
    refs = sec["refs"]
    live = refs["table"] != _NONE  # the others are constants, their scales
    if np.any(refs["map"][~live] != _NONE):
        raise ValueError("deferred package constant reference has a lane map")
    # every term, the references first
    n_refs = np.count_nonzero(live)
    terms = np.concatenate([refs[live], sides[present]])
    term_table, term_map = terms["table"].astype(np.intp), terms["map"].astype(np.intp)
    whose = np.where(np.arange(len(terms)) >= n_refs, "formed term's", "reference's")
    _check_refs(np.char.add(whose, " table"), term_table, len(coeff_lens))
    _check_refs(np.char.add(whose, " lane map"), term_map, len(map_lens), none_ok=True)
    mapped = term_map != _NONE
    past = np.zeros(len(terms), dtype=bool)
    past[mapped] = map_top[term_map[mapped]] >= coeff_lens[term_table[mapped]]
    if past.any():
        raise ValueError(f"deferred package {whose[np.flatnonzero(past)[0]]} lane map "
                         "reads past the end of its table")
    term_lanes = coeff_lens[term_table]  # each term's, read through its map if it has one
    term_lanes[mapped] = map_lens[term_map[mapped]]
    side_lanes = term_lanes[n_refs:]
    row_width = np.broadcast_to(formed["width"][:, None], sides.shape)[present]
    if np.any((side_lanes != 1) & (side_lanes != row_width)):
        raise ValueError("deferred package formed comparison side has neither 1 lane "
                         "nor its row's width")
    widest = np.ones(sides.shape, dtype=np.int64)
    widest[present] = side_lanes
    if np.any(widest.max(axis=1, initial=1) != formed["width"]):
        raise ValueError("deferred package formed comparison's width is not its widest term's")
    ref_lanes = np.full(len(refs), -1, dtype=np.int64)  # a constant's: any
    ref_lanes[live] = term_lanes[:n_refs]
    coeff_lens = np.concatenate([coeff_lens, ref_lanes])  # each coefficient's lanes

    width = sec["slots"]["width"].astype(np.int64)
    # a slot is no wider than what the package's bytes carry, so that a
    # slot of constants cannot ask the client for any number of lanes
    if np.any(width > max(row_lens.max(initial=1), coeff_lens.max(initial=1),
                          map_lens.max(initial=1))):
        raise ValueError("deferred package slot is wider than every row, table and lane map")
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
    got = coeff_lens[coeffs]
    if np.any((got != np.repeat(width, n_rows)) & (got != -1)):
        raise ValueError("deferred package coefficient's lanes differ from its slot's width")

    windows, (weight_lens, weights) = sec["windows"], sec["weights"]
    slot, source = windows["slot"].astype(np.intp), windows["source"].astype(np.intp)
    run = windows["weights"].astype(np.intp)
    _check_refs("window's slot", slot, len(width))
    _check_refs("window's source", source, len(width))
    _check_refs("window's weights run", run, len(weight_lens))
    filled = np.zeros(len(width), dtype=bool)
    filled[slot] = True
    if np.count_nonzero(filled) != len(slot):
        raise ValueError("deferred package slot is filled by two windows")
    if np.any(filled[source]):
        raise ValueError("deferred package window reads a window")
    if np.any(mono_lens[slot] != 0):
        raise ValueError("deferred package window's slot has monomials")
    if np.any(weight_lens == 0):
        raise ValueError("deferred package weights run is empty")
    weight_map = weights["map"].astype(np.intp)
    _check_refs("window weight's lane map", weight_map, len(map_lens))
    if len(weight_lens):  # each run's highest lane, and its maps' fewest and most lanes
        first = np.cumsum(weight_lens, dtype=np.int64) - weight_lens
        top = np.maximum.reduceat(map_top[weight_map], first)[run]
        fewest, most = (f.reduceat(map_lens[weight_map], first)[run]
                        for f in (np.minimum, np.maximum))
        if np.any(top >= width[source]):
            raise ValueError("deferred package window's lane map reads past the end of its source")
        if np.any((fewest != width[slot]) | (most != width[slot])):
            raise ValueError("deferred package window weight's lanes differ from its slot's width")

    # every section the slot plan depends on, byte for byte
    layout = (cmp_lens.tobytes(), sqrt_lens.tobytes(), sec["coeffs"][0].tobytes(),
              refs.tobytes(), formed.tobytes(), sec["slots"].tobytes(),
              sec["shifts"].tobytes(), windows.tobytes(),
              *(part.tobytes() for name in ("maps", "names", "params", "monomials", "weights")
                for part in sec[name]))
    return {**sec, "cmp_level": int(header["cmp_level"]),
            "sqrt_level": int(header["sqrt_level"]), "layout": layout}


def dump_package(blob: bytes) -> str:
    """Human-readable package listing, stable for golden comparisons.

    Rows print as ``b<i>`` (record comparisons), ``f<i>`` (formed
    comparisons) and ``s<i>`` (sqrts), maps as ``m<i>``, tables as
    ``k<i>``, references as ``x<i>`` and slot parameters as ``p<i>``; a
    map shifted from a base that an earlier map is prints as ``m<i> =
    m<j> + shift``, and a constant reference as its scale; a formed
    comparison prints as ``f<i> = [lhs] > [rhs]``, each side a constant
    or its terms ``k<t>[m<m>] * scale``.  Slots print in name
    order, then each window as ``slot <- source : weights``, each weight
    ``m<m> * scale``.
    """
    pkg = parse_package(blob)
    n_crows, n_tables = len(pkg["cmp_rows"][0]), len(pkg["coeffs"][0])
    n_formed = len(pkg["formed"])
    rows = _runs(*pkg["cmp_rows"]) + _runs(*pkg["sqrt_rows"])
    maps, coeffs = _lane_maps(pkg), _runs(*pkg["coeffs"])
    names = _slot_names(*pkg["names"])
    slots = zip(names, pkg["slots"].tolist(), _runs(*pkg["params"]), _runs(*pkg["monomials"]))

    def row_name(r: int) -> str:
        if r < n_crows:
            return f"b{r}"
        return f"f{r - n_crows}" if r < n_crows + n_formed else f"s{r - n_crows - n_formed}"

    def term(k: int, m: int, scale: float) -> str:
        if k == _NONE:
            return f"{scale:.6g}"
        return f"k{k}" + ("" if m == _NONE else f"[m{m}]") + f" * {scale:.6g}"

    def side(terms) -> str:
        present = [term(*t) for t in terms.tolist() if t[0] != _NONE]
        return " + ".join(present) or f"{terms['scale'][0]:.6g}"

    lines = [f"comparisons: {len(pkg['comparisons'])} @{pkg['cmp_level']}",
             f"sqrts: {len(pkg['sqrts'])} @{pkg['sqrt_level']}"]
    for i, rec in enumerate(pkg["comparisons"]):
        lines.append(f"  #{i} d={rec['value']:.6g}")
    for i, rec in enumerate(pkg["sqrts"]):
        lines.append(f"  #{i} arg={rec['value']:.6g}")
    lines.append(f"rows: {len(rows)}")
    for r, ids in enumerate(rows):
        lines.append(f"  {row_name(r if r < n_crows else r + n_formed)} -> wire {ids.tolist()}")
    lines.append(f"maps: {len(maps)}")
    shown: dict[int, int] = {}  # base -> the first map that is the base itself
    for m, ((b, s), lanes) in enumerate(zip(pkg["shifts"].tolist(), maps)):
        j = shown.setdefault(b, m) if s == 0 else shown.get(b)
        lines.append(f"  m{m} -> lanes {lanes.tolist()}" if j in (None, m)
                     else f"  m{m} = m{j} + {s}")
    lines.append(f"coeffs: {len(coeffs)}")
    for k, (lanes, level) in enumerate(zip(coeffs, pkg["levels"].tolist())):
        vals = " ".join(f"{v:.6g}" for v in lanes)
        lines.append(f"  k{k} : [{vals}] @{level}")
    lines.append(f"refs: {len(pkg['refs'])}")
    for j, ref in enumerate(pkg["refs"].tolist()):
        lines.append(f"  x{j} = {term(*ref)}")
    lines.append(f"formed: {n_formed}")
    for i, row in enumerate(pkg["formed"]):
        lines.append(f"  f{i} = [{side(row['lhs'])}] > [{side(row['rhs'])}] "
                     f"width={row['width']}")
    for name, (width, stride), params, monos in sorted(slots, key=lambda slot: slot[0]):
        lines.append(f"slot {name}: width={width}")
        for i, (r, m) in enumerate(params.tolist()):
            lines.append(f"  p{i} = {row_name(r)}" + ("" if m == _NONE else f"[m{m}]"))
        for ref, *mono in monos.reshape(-1, stride).tolist():
            key = "*".join(f"p{i}" for i in mono if i != _NONE) or "1"
            coeff = f"k{ref}" if ref < n_tables else f"x{ref - n_tables}"
            lines.append(f"  {key} : {coeff}")
    lines.append(f"windows: {len(pkg['windows'])}")
    runs = [", ".join(f"m{m} * {scale:.6g}" for m, scale in weights.tolist())
            for weights in _runs(*pkg["weights"])]
    for slot, src, run in pkg["windows"].tolist():
        lines.append(f"  {names[slot]} <- {names[src]} : {runs[run]}")
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
