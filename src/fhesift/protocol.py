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

A reindexed comparison has no records of its own.  In a package its
wire-id row is its source comparison's ids gathered through the lane
map; interactively the client answers the source, and the server
gathers the bound answer.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .ckks_sim import Ciphertext, CkksContext, SecretKey, Value
from .deferred_graph import (
    CipherEvaluator,
    Comparison,
    Expr,
    GraphBuilder,
    LoweredProgram,
    SqrtRequest,
    lower,
    sum_of_products,
)

CMP_DTYPE = np.dtype(
    [("id", "<u4"), ("lhs", "<f8"), ("lhs_level", "<u4"), ("rhs", "<f8"), ("rhs_level", "<u4")]
)
RESP_DTYPE = np.dtype([("id", "<u4"), ("value", "<f8"), ("level", "<u4")])
SQRT_DTYPE = RESP_DTYPE
# (value field, level field) of each operand a record carries
_CMP_OPERANDS = (("lhs", "lhs_level"), ("rhs", "rhs_level"))
_SQRT_OPERANDS = (("value", "level"),)

# Deferred package layout, all little-endian and unaligned:
#   _PKG_HEADER, n_cmp CMP_DTYPE records, n_sqrt SQRT_DTYPE records, then
#   per slot in name order: _SLOT_NAME, the UTF-8 name, _SLOT_HEADER, one
#   _WIRE_ID per lane for each bool then each sqrt parameter, _MONO_COUNT,
#   and per monomial its _mono_header(n_params) and one _COEFF per lane.
_PKG_MAGIC = b"DCGPKG01"
_PKG_HEADER = struct.Struct("<8sIII")  # magic, n_cmp, n_sqrt, n_slots
_SLOT_NAME = struct.Struct("<H")  # name length in bytes
_SLOT_HEADER = struct.Struct("<III")  # width, n_bool, n_sqrt
_MONO_COUNT = struct.Struct("<I")
_WIRE_ID = np.dtype("<u4")
_COEFF = np.dtype("<f8")
_PARAM_KINDS = ("b", "s")  # parameter kind code -> residual parameter key


@functools.lru_cache(maxsize=None)
def _mono_header(n_params: int) -> struct.Struct:
    """n_params, then (kind code, slot-local index) per parameter, then the
    coefficient level."""
    return struct.Struct("<B" + "BH" * n_params + "I")


@dataclass(frozen=True)
class DecoyPolicy:
    """Padding rule for request batches."""

    enabled: bool = True
    min_records: int = 8

    def padded_size(self, n: int) -> int:
        if n == 0 or not self.enabled:
            return n
        target = max(n, self.min_records)
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

    def resolve_comparisons(self, blob) -> memoryview:
        recs = np.frombuffer(blob, dtype=CMP_DTYPE)
        lhs = self._decrypt(Ciphertext(recs["lhs"], int(self.ctx.params.depth_budget)))
        rhs = self._decrypt(Ciphertext(recs["rhs"], int(self.ctx.params.depth_budget)))
        answer = np.greater(lhs, rhs).astype(np.float64)
        del lhs, rhs  # the operand columns are dead before the answer is encrypted
        return self._response(recs["id"], answer)

    def resolve_sqrts(self, blob) -> memoryview:
        recs = np.frombuffer(blob, dtype=SQRT_DTYPE)
        args = self._decrypt(Ciphertext(recs["value"], int(self.ctx.params.depth_budget)))
        with np.errstate(invalid="ignore"):
            roots = np.sqrt(args)
        return self._response(recs["id"], roots)

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
        """Decrypt a deferred package and finish the computation locally,
        evaluating each slot's residual table straight from the parsed views."""
        pkg = parse_package(blob)
        cmps = pkg["comparisons"]
        lhs = self._decrypt(Ciphertext(cmps["lhs"], 0))
        rhs = self._decrypt(Ciphertext(cmps["rhs"], 0))
        bool_wire = np.greater(lhs, rhs).astype(np.float64)
        del lhs, rhs
        sqrt_wire = np.empty(0)
        if len(pkg["sqrts"]):
            args = self._decrypt(Ciphertext(pkg["sqrts"]["value"], 0))
            with np.errstate(invalid="ignore"):
                sqrt_wire = np.sqrt(args)
        results: dict[str, Value] = {}
        for name, slot in pkg["slots"].items():
            params = {"b": bool_wire[slot["bool_ids"]], "s": sqrt_wire[slot["sqrt_ids"]]}
            out = sum_of_products(
                ([params[k][i] for k, i in refs], self._decrypt(Ciphertext(coeff, level)))
                for refs, coeff, level in slot["monomials"])
            if isinstance(out, np.ndarray) and slot["width"] == 1:
                out = float(out[0])
            results[name] = out
        return results


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


def _collect_requests(builder: GraphBuilder, roots) -> tuple[list[Comparison], list[SqrtRequest]]:
    """All comparisons/sqrts reachable from roots, including nested ones."""
    seen: set[int] = set()
    cmps: dict[int, Comparison] = {}
    sqrts: dict[int, SqrtRequest] = {}
    stack = list(roots)
    while stack:
        n = stack.pop()
        if n.id in seen:
            continue
        seen.add(n.id)
        if n.op == "bool":
            cmp = builder.comparisons[n.payload]
            cmps[cmp.id] = cmp
            stack.extend((cmp.lhs, cmp.rhs))
        elif n.op == "sqrt":
            sqrts[n.payload] = builder.sqrts[n.payload]
            stack.append(n.a)
        else:
            stack.extend(k for k in (n.a, n.c) if k is not None)
    return (
        [cmps[i] for i in sorted(cmps)],
        [sqrts[i] for i in sorted(sqrts)],
    )


def _bind_response(width: int, values: np.ndarray, level: int) -> Ciphertext:
    v = float(values[0]) if width == 1 else values.astype(np.float64)
    return Ciphertext(v, level)


def run_interactive(ctx: CkksContext, builder: GraphBuilder, slots: dict[str, Expr],
                    client: Client, policy: DecoyPolicy = DecoyPolicy(),
                    seed: int = 0, evaluator: CipherEvaluator | None = None,
                    evaluate_slots: bool = True) -> ProtocolRun:
    """Resolve parameters wave by wave; rounds = dependency depth.

    Client answers come back encrypted at the full depth budget, which is
    the only level-restoration mechanism in the system.
    """
    rng = np.random.default_rng(seed)
    comparisons, sqrts = _collect_requests(builder, slots.values())
    by_tier: dict[int, tuple[list[Comparison], list[SqrtRequest]]] = {}
    for cmp in comparisons:
        t = builder.comparison_tier(cmp)
        by_tier.setdefault(t, ([], []))[0].append(cmp)
    for req in sqrts:
        t = builder.sqrt_tier(req)
        by_tier.setdefault(t, ([], []))[1].append(req)

    ev = evaluator if evaluator is not None else CipherEvaluator(ctx, builder)
    trace: list[RoundTrace] = []
    full = ctx.params.depth_budget
    for round_no, tier in enumerate(sorted(by_tier), start=1):
        tier_cmps, tier_sqrts = by_tier[tier]
        pairs = [(ev.eval(c.lhs), ev.eval(c.rhs)) for c in tier_cmps]
        cwidths = [c.width for c in tier_cmps]
        swidths = [builder.sqrts[r.id].arg.width for r in tier_sqrts]
        creq_blob, cids = _request_batch(
            CMP_DTYPE, _CMP_OPERANDS, cwidths,
            ([lhs for lhs, _ in pairs], [rhs for _, rhs in pairs]), policy, rng)
        sreq_blob, sids = _request_batch(
            SQRT_DTYPE, _SQRT_OPERANDS, swidths, ([ev.eval(r.arg) for r in tier_sqrts],),
            policy, rng)
        cresp_blob = client.resolve_comparisons(creq_blob) if creq_blob else b""
        sresp_blob = client.resolve_sqrts(sreq_blob) if sreq_blob else b""
        cresp = np.frombuffer(cresp_blob, dtype=RESP_DTYPE)
        sresp = np.frombuffer(sresp_blob, dtype=RESP_DTYPE)
        pos = 0
        for c in tier_cmps:
            vals = cresp["value"][cids[pos:pos + c.width]]
            ev.bool_cts[c.id] = _bind_response(c.width, vals, full)
            pos += c.width
        pos = 0
        for r, w in zip(tier_sqrts, swidths):
            vals = sresp["value"][sids[pos:pos + w]]
            ev.sqrt_cts[r.id] = _bind_response(w, vals, full)
            pos += w
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
    interactive batches), then per-slot residual tables that reference
    wire ids per lane.  The size follows from the program and the policy,
    so the package is allocated once and every part is written in place.
    """
    rng = np.random.default_rng(seed)
    cmp_ids = sorted(program.cmp_operands)
    sqrt_ids = sorted(program.sqrt_args)
    widths = {c.id: c.width for c in program.comparisons}
    cmp_widths = [widths[cid] for cid in cmp_ids]
    sqrt_widths = [program.sqrt_args[sid].width for sid in sqrt_ids]
    n_cmp = policy.padded_size(sum(cmp_widths))
    n_sqrt = policy.padded_size(sum(sqrt_widths))
    names = sorted(program.slots)
    encoded = [name.encode() for name in names]

    size = (_PKG_HEADER.size + n_cmp * CMP_DTYPE.itemsize + n_sqrt * SQRT_DTYPE.itemsize)
    for name, nb in zip(names, encoded):
        rf = program.slots[name]
        n_params = len(rf.bool_params) + len(rf.reindexed) + len(rf.sqrt_params)
        size += (_SLOT_NAME.size + len(nb) + _SLOT_HEADER.size
                 + n_params * rf.width * _WIRE_ID.itemsize + _MONO_COUNT.size)
        for params, _ in rf.monomials:
            size += _mono_header(len(params)).size + rf.width * _COEFF.itemsize
    # every byte is written below, so the buffer need not be zeroed first
    buf = np.empty(size, dtype=np.uint8)

    _PKG_HEADER.pack_into(buf, 0, _PKG_MAGIC, n_cmp, n_sqrt, len(names))
    off = _PKG_HEADER.size
    cwire = np.frombuffer(buf, dtype=CMP_DTYPE, count=n_cmp, offset=off)
    cmp_pos = _pad_and_shuffle(
        cwire, cmp_widths, ([program.cmp_operands[cid][0] for cid in cmp_ids],
                            [program.cmp_operands[cid][1] for cid in cmp_ids]),
        _CMP_OPERANDS, rng)
    off += cwire.nbytes
    swire = np.frombuffer(buf, dtype=SQRT_DTYPE, count=n_sqrt, offset=off)
    sqrt_pos = _pad_and_shuffle(
        swire, sqrt_widths, ([program.sqrt_args[sid] for sid in sqrt_ids],),
        _SQRT_OPERANDS, rng)
    off += swire.nbytes
    del cwire, swire
    wire_ids = {("b", cid): ids for cid, ids in zip(cmp_ids, _split(cmp_pos, cmp_widths))}
    wire_ids.update(
        (("s", sid), ids) for sid, ids in zip(sqrt_ids, _split(sqrt_pos, sqrt_widths)))

    for name, nb in zip(names, encoded):
        rf = program.slots[name]
        width = rf.width
        _SLOT_NAME.pack_into(buf, off, len(nb))
        off += _SLOT_NAME.size
        buf[off:off + len(nb)] = np.frombuffer(nb, dtype=np.uint8)
        off += len(nb)
        bool_rows = rf.bool_rows()
        _SLOT_HEADER.pack_into(buf, off, width, len(bool_rows), len(rf.sqrt_params))
        off += _SLOT_HEADER.size
        # parameter key -> (kind code, slot-local index), bools first
        local = {key: (0, i) for i, (key, _, _) in enumerate(bool_rows)}
        local.update((("s", sid), (1, i)) for i, sid in enumerate(rf.sqrt_params))
        # a reindexed comparison reads its source's wire ids through its map
        rows = [wire_ids[("b", cid)] if index is None else wire_ids[("b", cid)][index]
                for _, cid, index in bool_rows]
        rows += [wire_ids[("s", sid)] for sid in rf.sqrt_params]
        table = np.frombuffer(buf, dtype=_WIRE_ID, count=len(rows) * width, offset=off)
        for row, ids in zip(table.reshape(len(rows), width), rows):
            row[:] = _lane_ids(ids, width)
        off += table.nbytes
        _MONO_COUNT.pack_into(buf, off, len(rf.monomials))
        off += _MONO_COUNT.size
        for params, coeff in rf.monomials:
            head = _mono_header(len(params))
            refs = [x for key in params for x in local[key]]
            head.pack_into(buf, off, len(params), *refs, coeff.level)
            off += head.size
            lanes = np.frombuffer(buf, dtype=_COEFF, count=width, offset=off)
            lanes[:] = coeff.value
            off += lanes.nbytes
    if off != size:
        raise AssertionError(f"package layout wrote {off} of {size} bytes")
    return buf.data


def _split(pos: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    return np.split(pos, np.cumsum(widths)[:-1]) if widths else []


def _lane_ids(ids: np.ndarray, width: int) -> np.ndarray:
    if len(ids) in (1, width):
        return ids
    raise ValueError(f"parameter width {len(ids)} does not divide slot width {width}")


def parse_package(blob) -> dict:
    """Package tables as views into ``blob``; nothing is copied."""
    if blob[:len(_PKG_MAGIC)] != _PKG_MAGIC:
        raise ValueError("not a deferred package")
    _, n_cmp, n_sqrt, n_slots = _PKG_HEADER.unpack_from(blob, 0)
    off = _PKG_HEADER.size
    cmps = np.frombuffer(blob, dtype=CMP_DTYPE, count=n_cmp, offset=off)
    off += cmps.nbytes
    sqrts = np.frombuffer(blob, dtype=SQRT_DTYPE, count=n_sqrt, offset=off)
    off += sqrts.nbytes
    slots: dict[str, dict] = {}
    for _ in range(n_slots):
        (name_len,) = _SLOT_NAME.unpack_from(blob, off)
        off += _SLOT_NAME.size
        name = bytes(blob[off:off + name_len]).decode()
        off += name_len
        width, n_bool, n_sq = _SLOT_HEADER.unpack_from(blob, off)
        off += _SLOT_HEADER.size
        table = np.frombuffer(blob, dtype=_WIRE_ID, count=(n_bool + n_sq) * width, offset=off)
        table = table.reshape(n_bool + n_sq, width)
        off += table.nbytes
        (n_monos,) = _MONO_COUNT.unpack_from(blob, off)
        off += _MONO_COUNT.size
        monomials = []
        for _ in range(n_monos):
            head = _mono_header(blob[off])
            _, *refs, level = head.unpack_from(blob, off)
            off += head.size
            coeff = np.frombuffer(blob, dtype=_COEFF, count=width, offset=off)
            off += coeff.nbytes
            params = tuple(zip([_PARAM_KINDS[k] for k in refs[::2]], refs[1::2]))
            monomials.append((params, coeff, level))
        slots[name] = {
            "width": width,
            "bool_ids": table[:n_bool],
            "sqrt_ids": table[n_bool:],
            "monomials": monomials,
        }
    return {"comparisons": cmps, "sqrts": sqrts, "slots": slots}


def dump_package(blob: bytes) -> str:
    """Human-readable package listing, stable for golden comparisons."""
    pkg = parse_package(blob)
    lines = [f"comparisons: {len(pkg['comparisons'])}", f"sqrts: {len(pkg['sqrts'])}"]
    for rec in pkg["comparisons"]:
        lines.append(
            f"  #{int(rec['id'])} lhs={rec['lhs']:.6g}@{int(rec['lhs_level'])}"
            f" rhs={rec['rhs']:.6g}@{int(rec['rhs_level'])}"
        )
    for rec in pkg["sqrts"]:
        lines.append(f"  #{int(rec['id'])} arg={rec['value']:.6g}@{int(rec['level'])}")
    for name in sorted(pkg["slots"]):
        slot = pkg["slots"][name]
        lines.append(f"slot {name}: width={slot['width']}")
        for i, ids in enumerate(slot["bool_ids"]):
            lines.append(f"  b{i} -> wire {list(map(int, ids))}")
        for i, ids in enumerate(slot["sqrt_ids"]):
            lines.append(f"  s{i} -> wire {list(map(int, ids))}")
        for params, coeff, level in slot["monomials"]:
            key = "*".join(f"{k}{i}" for k, i in params) or "1"
            vals = " ".join(f"{v:.6g}" for v in coeff)
            lines.append(f"  {key} : [{vals}] @{level}")
    return "\n".join(lines) + "\n"


def run_deferred(ctx: CkksContext, builder: GraphBuilder, slots: dict[str, Expr],
                 client: Client, policy: DecoyPolicy = DecoyPolicy(),
                 seed: int = 0, program: LoweredProgram | None = None) -> ProtocolRun:
    """Single-round delegation; raises DeferralUnsupported when the
    program needs resolved parameters to state its own requests."""
    if program is None:
        program = lower(builder, slots, ctx)
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
