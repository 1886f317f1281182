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

Every batch is padded with decoy records to a power of two (at least 8),
shuffled, and only then given wire ids, so a record's id and position say
nothing about which comparison it belongs to.  Decoy operand values are
resampled from the real operand pool.

Padding is columnar: each operand's values and levels are built as plain
columns, decoys index those columns, and one permutation gathers every
column into the wire records.  The deferred package is sized from the
lowered program, allocated once and filled in place; the client parses
it once and evaluates the residual tables straight from views into it.

Lowering lives here, next to the layout it targets: ``lower`` turns the
slots' normal forms into the package's pools and slot tables, so the
serializer only pads, shuffles and writes them.  The package ships every
piece once, in pools the slots refer into: one wire-id row per requested
comparison and sqrt, each lane map, and each coefficient table, pooled
per coefficient node and width, never by value.  A slot parameter is a
(row, map or none) reference and a monomial a row of pool indices.  One
slot evaluator, ``_evaluate_slots``, sums those tables for the client
and for ``LoweredProgram.evaluate``: it gathers each (row, map) pair once
for all slots that read it, and the client decrypts each pooled table once.

A reindexed comparison has no records of its own.  In a package its
parameter is its source comparison's row read through the lane map;
interactively the client answers the source, and the server gathers the
bound answer.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .ckks_sim import Ciphertext, CkksContext, SecretKey, Value
from .deferred_graph import SQRT, CipherEvaluator, Comparison, Expr, GraphBuilder, sum_of_products
from .errors import DeferralUnsupported, MissingAssignment

CMP_DTYPE = np.dtype(
    [("id", "<u4"), ("lhs", "<f8"), ("lhs_level", "<u4"), ("rhs", "<f8"), ("rhs_level", "<u4")]
)
RESP_DTYPE = np.dtype([("id", "<u4"), ("value", "<f8"), ("level", "<u4")])
SQRT_DTYPE = RESP_DTYPE
# (value field, level field) of each operand a record carries
_CMP_OPERANDS = (("lhs", "lhs_level"), ("rhs", "rhs_level"))
_SQRT_OPERANDS = (("value", "level"),)

# Deferred package layout, all little-endian and unaligned; every table
# is read with one frombuffer:
#   _PKG_HEADER;
#   n_cmp CMP_DTYPE records, then n_sqrt SQRT_DTYPE records;
#   the wire-id rows: one _LENGTH per row, then the rows' _WIRE_IDs back
#     to back, each requested comparison's row first, then each sqrt's;
#   the lane maps: one _LENGTH per map, then the maps' _LANEs back to back;
#   the coefficient tables: one _LENGTH per table, the tables' _COEFF
#     lanes back to back, then one _LEVEL per table;
#   per slot in name order: _SLOT_NAME, the UTF-8 name, _SLOT_HEADER,
#     n_params _PARAM references (row, map or _NONE), and the monomial
#     table: n_monos rows of 1 + degree _REFs, the coefficient table,
#     then slot-local parameter indices padded with _NONE.
_PKG_MAGIC = b"DCGPKG02"
# magic, n_cmp, n_sqrt, comparison rows, sqrt rows, n_maps, n_coeffs, n_slots
_PKG_HEADER = struct.Struct("<8sIIIIIII")
_SLOT_NAME = struct.Struct("<H")  # name length in bytes
_SLOT_HEADER = struct.Struct("<IIII")  # width, n_params, n_monos, monomial row length
_LENGTH = np.dtype("<u4")
_WIRE_ID = np.dtype("<u4")
_LANE = np.dtype("<u4")
_COEFF = np.dtype("<f8")
_LEVEL = np.dtype("<u4")
_PARAM = np.dtype([("row", "<u4"), ("map", "<u4")])
_REF = np.dtype("<u4")
_NONE = 0xFFFFFFFF  # no lane map; an unused monomial column


def _table(buf, off: int, dtype, count: int) -> tuple[np.ndarray, int]:
    """``count`` items of ``dtype`` at ``off`` as a view, and the offset
    past them.  The writer fills such views; the parser reads them."""
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
    return arr, off + arr.nbytes


def _unpack(fmt: struct.Struct, buf, off: int) -> tuple[tuple, int]:
    """``fmt``'s fields at ``off``, and the offset past them; a buffer too
    short for them is a ValueError, like a short ``_table``."""
    if off + fmt.size > len(buf):
        raise ValueError("truncated deferred package")
    return fmt.unpack_from(buf, off), off + fmt.size


def _ragged(buf, off: int, dtype, count: int) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """``count`` _LENGTHs, then that many runs of ``dtype`` back to back:
    the lengths, and the runs as one flat view."""
    lengths, off = _table(buf, off, _LENGTH, count)
    flat, off = _table(buf, off, dtype, int(lengths.sum(dtype=np.int64)))
    return (lengths, flat), off


def _runs(lengths: np.ndarray, flat: np.ndarray) -> list[np.ndarray]:
    """A ragged table's runs, one view each."""
    return np.split(flat, np.cumsum(lengths[:-1], dtype=np.int64)) if len(lengths) else []


def _write_ragged(buf, off: int, dtype, runs) -> int:
    lengths, _ = _table(buf, off, _LENGTH, len(runs))
    lengths[:] = [np.size(r) for r in runs]
    ragged, off = _ragged(buf, off, dtype, len(runs))
    for view, run in zip(_runs(*ragged), runs):
        view[:] = run
    return off


def _ragged_size(dtype, lengths) -> int:
    return len(lengths) * _LENGTH.itemsize + int(sum(lengths)) * dtype.itemsize


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


@dataclass
class LoweredProgram:
    """Requests plus slot tables, in the form the package ships them.

    ``comparisons`` and ``sqrt_args`` hold the requests in id order, and
    their wire-id rows are numbered in that order, comparisons first.
    ``slots`` holds, in name order, each slot's ``width``, its (row, map)
    ``params`` and its ``monomials`` table, as ``parse_package`` returns
    them.  ``coeff_tables`` pools the coefficients as (ciphertext, slot
    width): one table per coefficient node and width, never merged by
    value, so which monomials share a table follows from the graph alone.
    ``lane_maps`` pools the reindexed parameters' maps, one per builder map.
    """

    comparisons: list[Comparison]
    cmp_operands: dict[int, tuple[Ciphertext, Ciphertext]]
    sqrt_args: dict[int, Ciphertext]
    slots: dict[str, dict]
    leakage: dict[str, int]
    coeff_tables: list[tuple[Ciphertext, int]]
    lane_maps: list[np.ndarray]

    def evaluate(self, bools: dict[int, Value], sqrts: dict[int, Value] | None = None,
                 decrypt=lambda ct: ct.value) -> dict[str, Value]:
        """Every slot's value from resolved parameters, as the client
        computes it from a package.

        ``bools`` maps comparison ids to their answers and ``sqrts`` sqrt
        ids to their roots.  ``decrypt`` maps a coefficient ciphertext to
        its value; by default it reads the carried value.
        """
        sqrts = sqrts or {}
        rows = []
        for kind, values, ids in (("comparison", bools, self.cmp_operands),
                                  ("sqrt request", sqrts, self.sqrt_args)):
            for i in ids:
                if i not in values:
                    raise MissingAssignment(f"no value for {kind} {i}")
                rows.append(values[i])
        coeffs = [_lanes(decrypt(ct), w) for ct, w in self.coeff_tables]
        return _evaluate_slots(self.slots, rows, self.lane_maps, coeffs)


def lower(builder: GraphBuilder, slots: dict[str, Expr], ctx: CkksContext,
          evaluator: CipherEvaluator | None = None) -> LoweredProgram:
    """Lower named output slots to requests plus package slot tables.

    Every comparison and sqrt argument must be pure arithmetic (no nested
    unresolved parameters), otherwise the program needs mid-stream
    re-encryption and only the interactive path can run it.  Coefficients
    are evaluated server-side here, consuming simulator levels; passing a
    shared evaluator lets successive calls reuse each other's work.

    A slot's parameters are numbered slot-locally in normal-form key
    order: plain comparisons, then reindexed ones, then sqrts.  Each
    monomial row is its coefficient table followed by those local indices
    in the same order, padded with ``_NONE`` to the slot's highest degree.
    """
    ev = evaluator if evaluator is not None else CipherEvaluator(ctx, builder)
    terms = {name: builder.sorted_terms(builder.normal_form(e)) for name, e in slots.items()}
    keys = {name: sorted({k for params, _ in nf for k in params}) for name, nf in terms.items()}
    used = set().union(*keys.values())
    cmp_ids = sorted({pid for k, pid in used if k == "b"}
                     | {builder.reindexed[pid].source for k, pid in used if k == "r"})
    sqrt_ids = sorted(pid for k, pid in used if k == "s")
    rows = {k: i for i, k in enumerate([("b", c) for c in cmp_ids] + [("s", s) for s in sqrt_ids])}
    coeff_tables: list[tuple[Ciphertext, int]] = []
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
            ref = coeff_pool.setdefault((coeff.id, width), len(coeff_tables))
            if ref == len(coeff_tables):
                coeff_tables.append((ev.eval(coeff), width))
            monos.append([ref, *sorted(local[k] for k in mono), *[_NONE] * (degree - len(mono))])
        tables[name] = {"width": width, "params": params,
                        "monomials": np.array(monos, dtype=_REF).reshape(len(monos), 1 + degree)}

    def shipped(request: str, *exprs: Expr) -> tuple[Ciphertext, ...]:
        if any(e.tier > 0 for e in exprs):
            raise DeferralUnsupported(f"{request} depends on other unresolved parameters; "
                                      "it cannot ship in a single deferred package")
        return tuple(ev.eval(e) for e in exprs)

    comparisons = [builder.comparisons[cid] for cid in cmp_ids]
    cmp_operands = {c.id: shipped(f"comparison {c.id}", c.lhs, c.rhs) for c in comparisons}
    sqrt_args = {sid: shipped(f"sqrt request {sid}", builder.sqrts[sid].arg)[0]
                 for sid in sqrt_ids}

    leakage = {
        "bool_params": len(cmp_ids),
        "sqrt_params": len(sqrt_ids),
        "monomials": sum(len(nf) for nf in terms.values()),
        "coeff_tables": len(coeff_tables),
        "lane_maps": len(lane_maps),
    }
    return LoweredProgram(comparisons, cmp_operands, sqrt_args,
                          {name: tables[name] for name in sorted(tables)},
                          leakage, coeff_tables, lane_maps)


def _evaluate_slots(slots: dict[str, dict], rows: list, maps: list[np.ndarray],
                    coeffs: list[Value]) -> dict[str, Value]:
    """Each slot's value from its tables, given the resolved lanes of every
    wire-id row and the value of every coefficient table.

    Each (row, map) parameter is gathered once and kept until the last
    slot that reads it; every slot sums through ``sum_of_products``, so
    its float operations are the server-side walk's.
    """
    tables = {name: (slot["width"], slot["params"].tolist(), slot["monomials"].tolist())
              for name, slot in slots.items()}
    uses = Counter(p for _, params, _ in tables.values() for p in params)
    gathered: dict[tuple[int, int], Value] = {}
    results: dict[str, Value] = {}
    for name, (width, params, monos) in tables.items():
        vals = []
        for key in params:
            if key not in gathered:
                row, lane_map = key
                v = rows[row]
                gathered[key] = v if lane_map == _NONE else np.asarray(v)[maps[lane_map]]
            vals.append(gathered[key])
            uses[key] -= 1
            if not uses[key]:
                del gathered[key]
        out = sum_of_products(([vals[i] for i in refs if i != _NONE], coeffs[ref])
                              for ref, *refs in monos)
        if isinstance(out, np.ndarray) and width == 1:
            out = float(out[0])
        results[name] = out
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
        """[lhs > rhs] as 0.0/1.0 per comparison record; both decrypted
        operand columns are freed before this returns."""
        return np.greater(self._decrypt(Ciphertext(recs["lhs"], 0)),
                          self._decrypt(Ciphertext(recs["rhs"], 0))).astype(np.float64)

    def _roots(self, recs: np.ndarray) -> np.ndarray:
        """The square root of each sqrt record's decrypted argument."""
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._decrypt(Ciphertext(recs["value"], 0)))

    def resolve_comparisons(self, blob) -> memoryview:
        recs = np.frombuffer(blob, dtype=CMP_DTYPE)
        return self._response(recs["id"], self._greater(recs))

    def resolve_sqrts(self, blob) -> memoryview:
        recs = np.frombuffer(blob, dtype=SQRT_DTYPE)
        return self._response(recs["id"], self._roots(recs))

    def _response(self, ids: np.ndarray, values: np.ndarray) -> memoryview:
        """Answer records as wire bytes: each request id with its value
        freshly encrypted at full depth.  The bytes are a view of the
        records, not a copy."""
        out = np.empty(len(ids), dtype=RESP_DTYPE)
        out["id"] = ids
        out["value"] = self.ctx.encrypt(values).value
        out["level"] = self.ctx.params.depth_budget
        return out.view(np.uint8).data

    def resolve_package(self, blob: bytes) -> dict[str, Value]:
        """Decrypt a deferred package and finish the computation locally.

        Each pooled coefficient table is decrypted once and each wire-id
        row read once; the slots are then summed as ``_evaluate_slots``
        does for ``LoweredProgram.evaluate``.
        """
        pkg = parse_package(blob)
        bool_wire = self._greater(pkg["comparisons"])
        sqrt_wire = self._roots(pkg["sqrts"]) if len(pkg["sqrts"]) else np.empty(0)
        rows = [(bool_wire if r < pkg["cmp_rows"] else sqrt_wire)[ids]
                for r, ids in enumerate(pkg["rows"])]
        del bool_wire, sqrt_wire
        coeffs = [self._decrypt(Ciphertext(lanes, level)) for lanes, level in pkg["coeffs"]]
        return _evaluate_slots(pkg["slots"], rows, pkg["maps"], coeffs)


# -- request batching -------------------------------------------------------------


def _pad_and_shuffle(wire: np.ndarray, widths: list[int], operands, operand_fields,
                     rng) -> np.ndarray:
    """Fill ``wire`` with real lanes plus decoys, shuffled, with sequential ids.

    ``operands`` holds, for each (value, level) pair in ``operand_fields``,
    one ciphertext per entry; entry i contributes ``widths[i]`` lanes.  A
    decoy operand is a (value, level) draw from the pool of all real
    operands, so decoy marginals match the real traffic.  Returns the wire
    ids of the real lanes in entry order.
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
    seq = np.arange(total, dtype=np.uint32)
    wire["id"] = seq
    for v, l in operand_fields:
        # mode="clip" lets take write straight into the strided field;
        # popping frees each column once it is on the wire
        np.take(values.pop(0), perm, out=wire[v], mode="clip")
        np.take(levels.pop(0), perm, out=wire[l], mode="clip")
    ids = np.empty(total, dtype=np.uint32)
    ids[perm] = seq
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
                    evaluate_slots: bool = True) -> ProtocolRun:
    """Resolve parameters wave by wave; rounds = dependency depth.

    Client answers come back encrypted at the full depth budget, which is
    the only level-restoration mechanism in the system.  The evaluator's
    ``declare`` plans the run: it returns the requests, grouped here by
    tier, and frees each ciphertext, answers included, after its last
    read; with ``evaluate_slots`` off, the caller must then evaluate each
    slot once.  Requests the evaluator was built with answers to are not
    asked again.
    """
    rng = np.random.default_rng(seed)
    ev = evaluator if evaluator is not None else CipherEvaluator(ctx, builder)
    by_tier: dict[int, tuple[list[Expr], list[Expr]]] = {}
    for n in ev.declare(slots.values()):
        by_tier.setdefault(n.tier, ([], []))[n.op == SQRT].append(n)
    trace: list[RoundTrace] = []
    full = ctx.params.depth_budget
    for round_no, tier in enumerate(sorted(by_tier), start=1):
        tier_cmps, tier_sqrts = by_tier[tier]
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
                ev.bind(n, _bind_response(n.width, resp["value"][ids[pos:pos + n.width]], full))
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
    """Binary single-round package.

    Layout (see the constants at the top of the module): header,
    comparison records, sqrt records (both padded and shuffled like
    interactive batches), then the pools every slot refers into: one
    wire-id row per requested comparison and sqrt, the lane maps and the
    coefficient tables, each shipped once; then the slot tables as
    ``lower`` built them.  The size follows from the program and the
    policy, so the package is allocated once and every part is written in
    place.
    """
    rng = np.random.default_rng(seed)
    cmp_widths = [c.width for c in program.comparisons]
    sqrt_widths = [a.width for a in program.sqrt_args.values()]
    n_cmp = policy.padded_size(sum(cmp_widths))
    n_sqrt = policy.padded_size(sum(sqrt_widths))
    maps = program.lane_maps
    coeffs = program.coeff_tables
    encoded = [name.encode() for name in program.slots]

    size = (_PKG_HEADER.size + n_cmp * CMP_DTYPE.itemsize + n_sqrt * SQRT_DTYPE.itemsize
            + _ragged_size(_WIRE_ID, cmp_widths + sqrt_widths)
            + _ragged_size(_LANE, [len(m) for m in maps])
            + _ragged_size(_COEFF, [w for _, w in coeffs]) + len(coeffs) * _LEVEL.itemsize)
    for nb, slot in zip(encoded, program.slots.values()):
        size += (_SLOT_NAME.size + len(nb) + _SLOT_HEADER.size
                 + slot["params"].nbytes + slot["monomials"].nbytes)
    # every byte is written below, so the buffer need not be zeroed first
    buf = np.empty(size, dtype=np.uint8)

    _PKG_HEADER.pack_into(buf, 0, _PKG_MAGIC, n_cmp, n_sqrt, len(cmp_widths),
                          len(sqrt_widths), len(maps), len(coeffs), len(program.slots))
    off = _PKG_HEADER.size
    cwire, off = _table(buf, off, CMP_DTYPE, n_cmp)
    cmp_pos = _pad_and_shuffle(
        cwire, cmp_widths, ([lhs for lhs, _ in program.cmp_operands.values()],
                            [rhs for _, rhs in program.cmp_operands.values()]),
        _CMP_OPERANDS, rng)
    swire, off = _table(buf, off, SQRT_DTYPE, n_sqrt)
    sqrt_pos = _pad_and_shuffle(
        swire, sqrt_widths, (list(program.sqrt_args.values()),), _SQRT_OPERANDS, rng)
    del cwire, swire
    off = _write_ragged(buf, off, _WIRE_ID,
                        _split(cmp_pos, cmp_widths) + _split(sqrt_pos, sqrt_widths))
    off = _write_ragged(buf, off, _LANE, maps)
    off = _write_ragged(buf, off, _COEFF, [_lanes(ct.value, w) for ct, w in coeffs])
    levels, off = _table(buf, off, _LEVEL, len(coeffs))
    levels[:] = [ct.level for ct, _ in coeffs]

    for nb, slot in zip(encoded, program.slots.values()):
        _SLOT_NAME.pack_into(buf, off, len(nb))
        off += _SLOT_NAME.size
        buf[off:off + len(nb)] = np.frombuffer(nb, dtype=np.uint8)
        off += len(nb)
        params, monos = slot["params"], slot["monomials"]
        _SLOT_HEADER.pack_into(buf, off, slot["width"], len(params), *monos.shape)
        off += _SLOT_HEADER.size
        view, off = _table(buf, off, _PARAM, len(params))
        view[:] = params
        view, off = _table(buf, off, _REF, monos.size)
        view[:] = monos.ravel()
    if off != size:
        raise AssertionError(f"package layout wrote {off} of {size} bytes")
    return buf.data


def _split(pos: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    return np.split(pos, np.cumsum(widths)[:-1]) if widths else []


def _check_refs(what: str, refs: np.ndarray, count: int, none_ok: bool = False):
    """ValueError unless every reference is below ``count``, or is
    ``_NONE`` where ``none_ok``."""
    bad = refs >= count
    if none_ok:
        bad &= refs != _NONE
    if bad.any():
        raise ValueError(f"deferred package {what} {int(refs[bad][0])} is out of range "
                         f"(there are {count})")


def parse_package(blob) -> dict:
    """Package tables as views into ``blob``; nothing is copied.

    ``rows`` holds the wire-id row of each requested comparison, then of
    each sqrt (``cmp_rows`` of the first kind); ``coeffs`` holds
    (lanes, level) per coefficient table.  A slot's ``params`` are
    (row, map) references, map ``_NONE`` for none, and each row of its
    ``monomials`` is a coefficient table index followed by slot-local
    parameter indices padded with ``_NONE``.

    Every reference is checked against what it points into: a wire id
    against its kind's records, a parameter's row and map against the
    pools and the map's lanes against the row, a monomial's table and
    parameter indices against the pool and the slot.  One out of range
    is a ValueError, like a truncated package.
    """
    if blob[:len(_PKG_MAGIC)] != _PKG_MAGIC:
        raise ValueError("not a deferred package")
    (_, n_cmp, n_sqrt, n_crows, n_srows, n_maps, n_coeffs, n_slots), off = \
        _unpack(_PKG_HEADER, blob, 0)
    cmps, off = _table(blob, off, CMP_DTYPE, n_cmp)
    sqrts, off = _table(blob, off, SQRT_DTYPE, n_sqrt)
    (row_lengths, ids), off = _ragged(blob, off, _WIRE_ID, n_crows + n_srows)
    n_cmp_ids = int(row_lengths[:n_crows].sum(dtype=np.int64))
    _check_refs("comparison wire id", ids[:n_cmp_ids], n_cmp)
    _check_refs("sqrt wire id", ids[n_cmp_ids:], n_sqrt)
    ragged, off = _ragged(blob, off, _LANE, n_maps)
    maps = _runs(*ragged)
    map_top = np.array([int(m.max()) if len(m) else -1 for m in maps], dtype=np.int64)
    coeffs, off = _ragged(blob, off, _COEFF, n_coeffs)
    levels, off = _table(blob, off, _LEVEL, n_coeffs)
    slots: dict[str, dict] = {}
    for _ in range(n_slots):
        (name_len,), off = _unpack(_SLOT_NAME, blob, off)
        name, off = _table(blob, off, np.uint8, name_len)
        (width, n_params, n_monos, stride), off = _unpack(_SLOT_HEADER, blob, off)
        params, off = _table(blob, off, _PARAM, n_params)
        monos, off = _table(blob, off, _REF, n_monos * stride)
        monos = monos.reshape(n_monos, stride)
        _check_refs("parameter row", params["row"], n_crows + n_srows)
        _check_refs("lane map", params["map"], n_maps, none_ok=True)
        mapped = params[params["map"] != _NONE]
        if np.any(map_top[mapped["map"]] >= row_lengths[mapped["row"]]):
            raise ValueError("deferred package lane map reads past the end of its row")
        if n_monos and not stride:
            raise ValueError("deferred package monomial names no coefficient table")
        _check_refs("coefficient table", monos[:, :1], n_coeffs)
        _check_refs("parameter index", monos[:, 1:], n_params, none_ok=True)
        slots[name.tobytes().decode()] = {"width": width, "params": params, "monomials": monos}
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} bytes follow the deferred package's last table")
    return {"comparisons": cmps, "sqrts": sqrts, "rows": _runs(row_lengths, ids),
            "cmp_rows": n_crows, "maps": maps,
            "coeffs": list(zip(_runs(*coeffs), levels.tolist())), "slots": slots}


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
    for rec in pkg["comparisons"]:
        lines.append(
            f"  #{int(rec['id'])} lhs={rec['lhs']:.6g}@{int(rec['lhs_level'])}"
            f" rhs={rec['rhs']:.6g}@{int(rec['rhs_level'])}"
        )
    for rec in pkg["sqrts"]:
        lines.append(f"  #{int(rec['id'])} arg={rec['value']:.6g}@{int(rec['level'])}")
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
