"""Client/server delegation: batching, decoys, rounds, packages."""

import hashlib
import weakref
from pathlib import Path

import numpy as np
import pytest

from fhesift import (
    CipherEvaluator,
    CkksContext,
    Client,
    DecoyPolicy,
    GraphBuilder,
    PipelineConfig,
    PlainEvaluator,
    RunPlan,
    SecretKey,
    SimParams,
    dump_package,
    lower,
    parse_package,
    run_deferred,
    run_interactive,
    run_pipeline,
    serialize_package,
)
from fhesift import deferred_graph, protocol, sift_pipeline
from fhesift.errors import DeferralUnsupported
from fhesift.kernels import max2, running_max, vec_argmax_onehot

GOLDEN = Path(__file__).parent / "goldens"


def _toy(budget=20):
    """One select plus one sqrt over fixed scalars."""
    ctx = CkksContext(SimParams(depth_budget=budget))
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(4.0), name="x")
    y = b.cipher(ctx.encrypt(9.0), name="y")
    pick = b.select(b.compare(x, y), x, y)
    slots = {"pick": b.simplify(pick), "root": b.sqrt_deferred(y)}
    return ctx, b, slots


def _rows(pkg) -> list[np.ndarray]:
    """Each requested comparison's wire-id row, then each sqrt's, as views."""
    return protocol._runs(*pkg["cmp_rows"]) + protocol._runs(*pkg["sqrt_rows"])


def _slot_tables(pkg) -> dict[str, tuple]:
    """Each slot's width, (row, map) parameters and monomial rows, by name,
    as views into the package's sections."""
    return {name: (width, params, monos.reshape(-1, stride))
            for name, (width, stride), params, monos in zip(
                protocol._slot_names(*pkg["names"]), pkg["slots"].tolist(),
                protocol._runs(*pkg["params"]), protocol._runs(*pkg["monomials"]))}


def test_padded_size_powers_of_two():
    p = DecoyPolicy()
    assert [p.padded_size(n) for n in (0, 1, 5, 8, 9, 100)] == [0, 8, 8, 8, 16, 128]
    off = DecoyPolicy(enabled=False)
    assert [off.padded_size(n) for n in (0, 1, 5, 9)] == [0, 1, 5, 9]


def test_interactive_resolves_and_counts_rounds():
    ctx, b, slots = _toy()
    client = Client(ctx)
    run = run_interactive(ctx, b, slots, client)
    assert run.mode == "interactive"
    assert len(run.rounds) == 1 == max(e.tier for e in slots.values())
    assert run.results["pick"].value == 9.0
    assert run.results["root"].value == 3.0
    tr = run.rounds[0]
    assert (tr.n_real_comparisons, tr.n_real_sqrts) == (1, 1)
    assert (tr.n_wire_comparisons, tr.n_wire_sqrts) == (8, 8)
    assert tr.request_bytes > 0 and tr.response_bytes > 0


def test_interactive_rounds_follow_dependency_depth():
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    vals = [3.0, 8.0, 1.0, 5.0]
    xs = [b.cipher(ctx.encrypt(v)) for v in vals]
    chain = running_max(b, xs, seed=0.0)
    slots = {"m": chain}
    assert chain.tier == len(vals)
    run = run_interactive(ctx, b, slots, Client(ctx))
    assert len(run.rounds) == len(vals)
    assert run.results["m"].value == 8.0


def test_client_answers_restore_full_level():
    # nested comparisons still run at a tiny budget because every answer
    # comes back encrypted at full depth
    ctx = CkksContext(SimParams(depth_budget=2))
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(2.0))
    y = b.cipher(ctx.encrypt(3.0))
    z = b.cipher(ctx.encrypt(10.0))
    w = b.cipher(ctx.encrypt(20.0))
    m = max2(b, b.mul(x, x), y)  # operands at level 1 after the square
    out = b.select(b.compare(m, b.plain(4.0)), z, w)
    run = run_interactive(ctx, b, {"out": out}, Client(ctx))
    assert run.results["out"].value == 20.0  # max(4, 3) = 4, not > 4
    assert len(run.rounds) == 2


def test_interactive_can_skip_slot_evaluation():
    ctx, b, slots = _toy()
    run = run_interactive(ctx, b, slots, Client(ctx), evaluate_slots=False)
    assert run.results == {}
    assert len(run.rounds) == 1


def test_deferred_matches_interactive_bitwise():
    rng = np.random.default_rng(6)
    for trial in range(20):
        ctx = CkksContext(SimParams(depth_budget=24))
        b = GraphBuilder()
        xs = [b.cipher(ctx.encrypt(float(v))) for v in rng.uniform(-2, 2, 5)]
        c1 = b.compare(xs[0], xs[1])
        c2 = b.compare(b.mul(xs[2], xs[2]), xs[3])
        e = b.add(b.select(c1, b.mul(xs[0], xs[4]), xs[1]),
                  b.mul(b.select(c2, xs[2], xs[3]), b.sqrt_deferred(b.mul(xs[4], xs[4]))))
        slots = {"out": b.simplify(e)}
        ri = run_interactive(ctx, b, slots, Client(ctx), seed=trial)
        rd = run_deferred(lower(b, slots, ctx), Client(ctx), seed=trial)
        assert rd.results["out"] == ri.results["out"].value
        want = PlainEvaluator(b).eval(e)
        assert rd.results["out"] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_deferred_is_one_round_and_reports_leakage():
    ctx, b, slots = _toy()
    client = Client(ctx)
    run = run_deferred(lower(b, slots, ctx), client)
    assert run.mode == "deferred"
    assert len(run.rounds) == 1
    assert run.rounds[0].n_wire_comparisons == 8
    assert run.package_bytes == run.rounds[0].request_bytes > 0
    assert run.leakage == {"bool_params": 1, "sqrt_params": 1, "monomials": 3,
                            "coeff_tables": 3, "coeff_refs": 0, "lane_maps": 0}
    assert run.results["pick"] == 9.0
    assert run.results["root"] == 3.0


def test_deferred_rejects_chained_comparisons():
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    xs = [b.cipher(ctx.encrypt(v)) for v in (1.0, 2.0, 3.0)]
    chain = running_max(b, xs, seed=0.0)
    with pytest.raises(DeferralUnsupported):
        run_deferred(lower(b, {"m": chain}, ctx), Client(ctx))


def test_decoys_pad_to_power_of_two_and_draw_from_real_pool():
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    pairs = [(1.5, 2.5), (7.25, 9.0), (-3.0, 0.125)]
    sel = None
    for lv, rv in pairs:
        c = b.compare(b.cipher(ctx.encrypt(lv)), b.cipher(ctx.encrypt(rv)))
        term = b.select(c, b.plain(1.0), b.plain(0.0))
        sel = term if sel is None else b.add(sel, term)
    prog = lower(b, {"s": b.simplify(sel)}, ctx)
    blob = serialize_package(prog, DecoyPolicy(), seed=5)
    pkg = parse_package(blob)
    assert len(pkg["comparisons"]) == 8
    # decoys draw values alone from the real pool; records carry no level,
    # and the batch's one level is the lowest of its real operands'
    assert pkg["comparisons"].dtype.names == ("lhs", "rhs")
    pool = {v for pair in pairs for v in pair}
    assert set(pkg["comparisons"]["lhs"]) <= pool
    assert set(pkg["comparisons"]["rhs"]) <= pool
    assert len(set(pkg["comparisons"]["lhs"]) | set(pkg["comparisons"]["rhs"])) > 3
    assert pkg["cmp_level"] == min(ct.level for pair in prog.cmp_operands.values()
                                   for ct in pair)
    # a record's wire id is its position: each comparison's row points at
    # its own operands, among the decoys
    positions = [int(ids[0]) for ids in _rows(pkg)]
    assert len(set(positions)) == 3 and max(positions) < 8
    real = pkg["comparisons"][positions]
    assert list(zip(real["lhs"], real["rhs"])) == pairs

    plain_blob = serialize_package(prog, DecoyPolicy(enabled=False), seed=5)
    assert len(parse_package(plain_blob)["comparisons"]) == 3


def test_package_bytes_are_seed_deterministic():
    ctx, b, slots = _toy()
    prog = lower(b, slots, ctx)
    a = serialize_package(prog, seed=3)
    assert serialize_package(prog, seed=3) == a
    assert serialize_package(prog, seed=4) != a
    # decoy draws depend on the seed, so compare real records undecorated
    off = DecoyPolicy(enabled=False)
    ra = parse_package(serialize_package(prog, off, seed=3))["comparisons"]
    rb = parse_package(serialize_package(prog, off, seed=4))["comparisons"]
    assert sorted(ra["lhs"]) == sorted(rb["lhs"])  # same records, new order


def test_parse_package_round_trip_and_magic():
    ctx, b, slots = _toy()
    prog = lower(b, slots, ctx)
    pkg = parse_package(serialize_package(prog, seed=1))
    tables = _slot_tables(pkg)
    assert list(tables) == ["pick", "root"]
    width, params, monos = tables["pick"]
    assert width == 1
    assert len(params) == 1
    assert params["row"][0] < len(pkg["cmp_rows"][0])  # a comparison row
    assert len(monos) == 2
    for name in ("comparisons", "sqrts", "cmp_level", "sqrt_level", "layout"):
        assert name in pkg
    with pytest.raises(ValueError):
        parse_package(b"JUNKJUNK" + bytes(16))
    blob = bytes(serialize_package(prog, seed=1))
    # the layouts with record ids, then with a level in every record, then
    # without references
    for old in (b"DCGPKG01", b"DCGPKG02", b"DCGPKG03", b"DCGPKG04"):
        with pytest.raises(ValueError, match="not a deferred package"):
            parse_package(old + blob[len(old):])


def test_parse_package_rejects_a_truncated_blob():
    with pytest.raises(ValueError):
        parse_package(protocol._PKG_MAGIC)  # the magic and no header
    ctx, b, slots = _toy()
    blob = bytes(serialize_package(lower(b, slots, ctx), seed=1))
    for cut in range(len(protocol._PKG_MAGIC), len(blob)):
        with pytest.raises(ValueError):
            parse_package(blob[:cut])


def test_parse_package_rejects_trailing_bytes():
    ctx, b, slots = _toy()
    blob = bytes(serialize_package(lower(b, slots, ctx), seed=1))
    assert list(_slot_tables(parse_package(blob))) == ["pick", "root"]
    with pytest.raises(ValueError):
        parse_package(blob + bytes(4))
    with pytest.raises(ValueError):
        Client(ctx).resolve_package(blob + bytes(4))


def _patch_cmp_row(pkg):
    pkg["cmp_rows"][1][0] = len(pkg["comparisons"])


def _patch_sqrt_row(pkg):
    pkg["sqrt_rows"][1][0] = len(pkg["sqrts"])


def _patch_param_row(pkg):
    _slot_tables(pkg)["pick"][1]["row"][0] = len(_rows(pkg))


def _patch_param_map(pkg):
    _slot_tables(pkg)["pick"][1]["map"][0] = len(pkg["maps"][0])  # the toy ships none


def _patch_coeff_ref(pkg):
    _slot_tables(pkg)["pick"][2][0, 0] = len(pkg["coeffs"][0])


def _patch_param_index(pkg):
    _, params, monos = _slot_tables(pkg)["pick"]
    monos[monos[:, 1] != protocol._NONE, 1] = len(params)


@pytest.mark.parametrize("patch", [_patch_cmp_row, _patch_sqrt_row, _patch_param_row,
                                   _patch_param_map, _patch_coeff_ref, _patch_param_index])
def test_parse_package_rejects_a_reference_out_of_range(patch):
    ctx, b, slots = _toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    patch(parse_package(blob))  # the views write through into the blob
    with pytest.raises(ValueError, match="out of range"):
        parse_package(blob)
    with pytest.raises(ValueError):
        Client(ctx).resolve_package(blob)


def _weight_toy():
    """Window weights as the pipeline builds them: a comparison over 8
    lanes and a squared 6-lane 'pixel' node, each read through lane maps
    a (3 lanes) and b (2 lanes), and each slot (1 - [q > 0]) * pixel * c.
    Each slot's two coefficients, +c and -c times the reindexed pixels,
    ship as references into the one per-pixel table."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    p = b.cipher(ctx.encrypt(np.array([1.0, -5.0, 2.5, -0.5, 3.0, -1.0])), name="p")
    q = b.cipher(ctx.encrypt(np.array([2.0, -1.0, 0.5, 4.0, -3.0, 1.5, 6.0, -2.0])), name="q")
    mag2, c = b.mul(p, p), b.compare(q, b.plain(0.0))
    slots = {name: b.simplify(b.mul(b.sub(b.plain(1.0), b.reindex(c, at)),
                                    b.mul(b.reindex(mag2, at), b.plain(k))))
             for name, at, k in (("a", np.array([0, 2, 4]), 0.25), ("b", np.array([5, 1]), 0.1))}
    return ctx, b, slots


def test_window_weights_ship_as_references_and_resolve_bitwise(monkeypatch):
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    ctx, b, slots = _weight_toy()
    prog = lower(b, slots, ctx)
    assert (prog.leakage["coeff_tables"], prog.leakage["coeff_refs"]) == (1, 4)
    blob = serialize_package(prog, DecoyPolicy(), seed=1)
    pkg = parse_package(blob)
    assert pkg["refs"].tolist() == [(0, 0, 0.25), (0, 0, -0.25), (0, 1, 0.1), (0, 1, -0.1)]
    assert protocol._runs(*pkg["coeffs"])[0].tolist() == [1.0, 25.0, 6.25, 0.25, 9.0, 1.0]
    assert {name: monos[:, 0].tolist() for name, (_, _, monos) in
            _slot_tables(pkg).items()} == {"a": [1, 2], "b": [3, 4]}
    text = dump_package(blob)
    assert "refs: 4\n  x0 = k0[m0] * 0.25\n  x1 = k0[m0] * -0.25\n" in text
    assert "slot a: width=3\n  p0 = b0[m0]\n  1 : x0\n  p0 : x1\n" in text
    client = Client(ctx)
    got = client.resolve_package(blob)
    pe = PlainEvaluator(b)
    ce = CipherEvaluator(ctx, b, bool_cts={c.id: ctx.encrypt(pe.bool_value(c))
                                           for c in b.comparisons})
    for name, e in slots.items():
        want = np.asarray(pe.eval(e)).tobytes()
        assert got[name].tobytes() == want == ce.eval(e).value.tobytes(), name
    # the comparison's two operand columns, and the one per-pixel table
    assert client.attributed_decrypts == 2 + 1


def _patch_ref_table(pkg):
    pkg["refs"]["table"][0] = len(pkg["coeffs"][0])


def _patch_ref_map(pkg):
    pkg["refs"]["map"][0] = len(pkg["maps"][0])


@pytest.mark.parametrize("patch", [_patch_ref_table, _patch_ref_map])
def test_parse_package_rejects_a_window_weight_out_of_range(patch):
    ctx, b, slots = _weight_toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    patch(parse_package(blob))
    with pytest.raises(ValueError, match="reference's .* out of range"):
        parse_package(blob)
    with pytest.raises(ValueError):
        Client(ctx).resolve_package(blob)


def _patch_ref_map_past_its_table(pkg):
    # lane 6 is inside the comparison's 8-lane row, past the 6-lane table
    pkg["maps"][1][0] = 6


def _patch_ref_width(pkg):
    # slot a (3 lanes) weighted through map b (2 lanes)
    pkg["refs"]["map"][pkg["refs"]["map"] == 0] = 1


@pytest.mark.parametrize("patch,reason", [
    (_patch_ref_map_past_its_table, "reads past the end of its table"),
    (_patch_ref_width, "coefficient's lanes differ from its slot's width"),
])
def test_parse_package_rejects_a_window_weight_past_its_table_or_slot(patch, reason):
    ctx, b, slots = _weight_toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    patch(parse_package(blob))
    with pytest.raises(ValueError, match=reason):
        parse_package(blob)
    with pytest.raises(ValueError):
        Client(ctx).resolve_package(blob)


def _select4():
    """One 4-lane select slot."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    v = b.cipher(ctx.encrypt(np.array([4.0, 5.0, 6.0, 7.0])), name="v")
    return ctx, b, {"sel": b.simplify(b.select(b.compare(v, b.plain(5.5)), v, b.neg(v)))}


def _patch_slot_width(blob):
    protocol._sections(blob)["slots"]["width"][0] = 1  # its tables keep 4 lanes


def _patch_unmapped_param(blob):
    # slot "a" (3 lanes) then reads its comparison's 6-lane row directly
    _slot_tables(parse_package(blob))["a"][1]["map"][0] = protocol._NONE


def _patch_empty_map(lengths):
    """The toy's two 3-lane maps regrouped as an empty map and a 6-lane
    one, which a 3-lane slot each read: an empty last map must be refused,
    not read past the end of the section."""

    def patch(blob):
        parse_package(blob)["maps"][0][:] = lengths

    return patch


@pytest.mark.parametrize("toy,patch", [
    pytest.param(_select4, _patch_slot_width, id="slot_width"),
    pytest.param(lambda: _reindex_toy(), _patch_unmapped_param, id="unmapped_param"),
    pytest.param(lambda: _reindex_toy(), _patch_empty_map((0, 6)), id="empty_first_map"),
    pytest.param(lambda: _reindex_toy(), _patch_empty_map((6, 0)), id="empty_last_map"),
])
def test_parse_package_rejects_a_width_that_disagrees_with_its_tables(toy, patch):
    ctx, b, *_, slots = toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    want = {name: PlainEvaluator(b).eval(e) for name, e in slots.items()}
    got = Client(ctx).resolve_package(bytes(blob))
    assert all(np.array_equal(got[name], want[name]) for name in slots)
    patch(blob)
    with pytest.raises(ValueError, match="width"):
        parse_package(blob)
    with pytest.raises(ValueError):
        Client(ctx).resolve_package(blob)


def test_parse_package_rejects_a_lane_map_past_its_row():
    ctx, b, _, _, slots = _reindex_toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    pkg = parse_package(blob)
    pkg["maps"][1][0] = pkg["cmp_rows"][0][0]
    with pytest.raises(ValueError, match="past the end"):
        parse_package(blob)


@pytest.mark.parametrize("name,reason", [(b"pick", "'pick' repeats"),
                                         (b"r\xffot", "is not UTF-8")])
def test_a_package_whose_slot_names_repeat_or_are_not_utf8_is_refused(monkeypatch, name, reason):
    """Slot names key the client's results, so "root" renamed "pick" would
    come back as one slot holding the root's value."""
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    ctx, b, slots = _toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    names = parse_package(blob)["names"][1]
    assert names.tobytes() == b"pickroot"
    names[4:] = np.frombuffer(name, dtype=np.uint8)
    for read in (Client(ctx).resolve_package, dump_package):
        with pytest.raises(ValueError, match=reason):
            read(bytes(blob))
    assert protocol._PLAN_MEMO == {}


def test_dump_package_golden():
    ctx, b, slots = _toy()
    prog = lower(b, slots, ctx)
    text = dump_package(serialize_package(prog, DecoyPolicy(enabled=False), seed=0))
    want = (GOLDEN / "package_dump.txt").read_text()
    assert text == want


def test_decrypt_accounting_stays_on_the_client():
    ctx, b, slots = _toy()
    client = Client(ctx)
    run = run_deferred(lower(b, slots, ctx), client)
    assert client.attributed_decrypts == client.sk.decrypt_calls > 0
    assert client.unattributed_decrypts() == 0
    # both operand columns, the sqrt arguments, then each pooled
    # coefficient table once, however many monomials share it
    assert run.rounds[0].n_wire_sqrts > 0
    assert client.attributed_decrypts == 2 + 1 + run.leakage["coeff_tables"] == 6

    ctx2, b2, slots2 = _toy()
    client2 = Client(ctx2)
    run = run_interactive(ctx2, b2, slots2, client2)
    assert client2.unattributed_decrypts() == 0
    # reading the final outputs is also attributed
    for ct in run.results.values():
        client2.decrypt_value(ct)
    assert client2.unattributed_decrypts() == 0


def test_lane_batched_comparisons_ride_one_record_per_lane():
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    v = b.cipher(ctx.encrypt(np.array([1.0, 5.0, -2.0])))
    e = b.select(b.compare(v, b.plain(0.0)), v, b.neg(v))
    run = run_deferred(lower(b, {"abs": b.simplify(e)}, ctx), Client(ctx))
    assert np.array_equal(run.results["abs"], [1.0, 5.0, 2.0])
    assert run.rounds[0].n_real_comparisons == 3
    assert run.rounds[0].n_wire_comparisons == 8


def _wire_toy():
    """Width-1 and width-5 comparisons, a width-1 parameter in a width-5
    slot, and scalar and lane-batched sqrts."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(4.0), name="x")
    y = b.cipher(ctx.encrypt(9.0), name="y")
    v = b.cipher(ctx.encrypt(np.array([1.0, 5.0, -2.0, 0.5, 3.25])), name="v")
    slots = {
        "pick": b.simplify(b.select(b.compare(x, y), x, y)),
        "abs": b.simplify(b.select(b.compare(v, b.plain(0.0)), v, b.neg(v))),
        "flip": b.simplify(b.select(b.compare(y, x), v, b.mul(v, x))),
        "root": b.sqrt_deferred(y),
        "norm": b.sqrt_deferred(b.mul(v, v)),
    }
    return ctx, b, slots


def _sha(blob) -> str:
    return hashlib.sha256(bytes(blob)).hexdigest()


# sha256 digests of the sectioned layout (DCGPKG05) and of interactive
# requests, each a batch's level and then its records.  The wire format
# is a contract, so any change to them is a format change
PACKAGE_SHA256 = {
    (True, 0): "654703893404b082a7420b82c918520e2eeea7698e6a116022c53cf4bfacfa72",
    (True, 7): "b9809fc29fb93c9997a955139abdf8b21134e6ee139e9513b8ab5baa82bdf5e6",
    (False, 0): "43066f0eec3a3aa3eebb482031d68a4e8b51b56ce477f4fbf856dc5df856ad20",
}
REQUEST_SHA256 = [
    ("c", "d4e7a4594146d0306608d498b700963d0c1996846d6b75892453d6f72f4557dd"),
    ("s", "53d8081c1c9b4f8d65fb75ad99b17b04f299cf52ecc21c5eb5f8917427f14588"),
    ("c", "60ec0ac3441114b635fe1bec570e7201baea21a7089875586baa2f42ad8e278a"),
    ("c", "b921a8771e272c18a237d2833e12b8d1708f8585457dd254e3e8fc86ab1648e1"),
]


@pytest.mark.parametrize("decoys,seed", sorted(PACKAGE_SHA256))
def test_package_bytes_match_recorded_digest(decoys, seed):
    ctx, b, slots = _wire_toy()
    prog = lower(b, slots, ctx)
    blob = serialize_package(prog, DecoyPolicy(enabled=decoys), seed=seed)
    assert _sha(blob) == PACKAGE_SHA256[decoys, seed]


class _RecordingClient(Client):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.requests = []

    def resolve_comparisons(self, blob):
        self.requests.append(("c", _sha(blob)))
        return super().resolve_comparisons(blob)

    def resolve_sqrts(self, blob):
        self.requests.append(("s", _sha(blob)))
        return super().resolve_sqrts(blob)


def test_interactive_request_bytes_match_recorded_digests():
    ctx, b, slots = _wire_toy()
    z = b.cipher(ctx.encrypt(np.array([2.0, 6.0, -1.0, 4.0, 3.0])), name="z")
    slots["chain"] = max2(b, max2(b, slots["abs"], z), b.sqrt_deferred(b.mul(z, z)))
    client = _RecordingClient(ctx)
    run = run_interactive(ctx, b, slots, client, seed=11)
    assert [(r.n_real_comparisons, r.n_wire_comparisons, r.n_real_sqrts, r.n_wire_sqrts)
            for r in run.rounds] == [(6, 8, 11, 16), (5, 8, 0, 0), (5, 8, 0, 0)]
    assert client.requests == REQUEST_SHA256
    assert np.array_equal(run.results["chain"].value, [2.0, 6.0, 2.0, 4.0, 3.25])


def _address(blob) -> int:
    return np.frombuffer(blob, dtype=np.uint8).ctypes.data


def test_wire_records_start_on_an_8_byte_boundary():
    """A request's records follow its 4-byte level and a package's its
    48-byte header, so each wire buffer is placed to put them, not its
    first byte, on an 8-byte boundary; the bytes are the digests' above."""
    ctx, b, slots = _wire_toy()
    prog = lower(b, slots, ctx)
    for decoys, seed in sorted(PACKAGE_SHA256):
        blob = serialize_package(prog, DecoyPolicy(enabled=decoys), seed=seed)
        sec = protocol._sections(blob)
        assert protocol._HEADER.itemsize == 48
        assert sec["comparisons"].ctypes.data % 8 == 0
        assert sec["sqrts"].ctypes.data % 8 == 0
    rng = np.random.default_rng(0)
    for width in range(1, 40):  # buffers of many sizes, so of many allocations
        for dtype in (protocol.CMP_DTYPE, protocol.SQRT_DTYPE):
            operands = [[ctx.encrypt(np.arange(float(width)))]] * len(dtype.names)
            blob, _ = protocol._request_batch(dtype, [width], operands, DecoyPolicy(), rng)
            assert (_address(blob) + 4) % 8 == 0, (width, dtype)
            assert protocol._parse_request(blob, dtype)[0].ctypes.data % 8 == 0


@pytest.mark.parametrize("decoys", [True, False])
def test_run_deferred_parses_the_package_once(monkeypatch, decoys):
    ctx, b, slots = _wire_toy()
    parse = protocol.parse_package
    blobs = []

    def counting_parse(blob):
        blobs.append(blob)
        return parse(blob)

    monkeypatch.setattr(protocol, "parse_package", counting_parse)
    run = run_deferred(lower(b, slots, ctx), Client(ctx), DecoyPolicy(enabled=decoys), seed=2)
    assert len(blobs) == 1
    pkg = parse(blobs[0])
    assert run.rounds[0].n_wire_comparisons == len(pkg["comparisons"])
    assert run.rounds[0].n_wire_sqrts == len(pkg["sqrts"])


def _reindex_toy(v=(1.0, -5.0, 2.5, -0.5, 3.0, -1.0), y=(2.0, 7.0, -1.0), z=(0.5, -4.0, 6.0)):
    """One six-lane comparison read through two lane maps and directly."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    v = b.cipher(ctx.encrypt(np.array(v)), name="v")
    y = b.cipher(ctx.encrypt(np.array(y)), name="y")
    z = b.cipher(ctx.encrypt(np.array(z)), name="z")
    c = b.compare(v, b.plain(0.0))
    maps = {"a": np.array([0, 2, 4]), "b": np.array([4, 4, 1])}
    ra, rb = (b.reindex(c, maps[k]) for k in "ab")
    slots = {
        "direct": b.simplify(b.select(c, v, b.neg(v))),
        "a": b.simplify(b.select(ra, y, z)),
        "b": b.simplify(b.add(b.select(rb, z, y), b.mul(ra, rb))),
    }
    return ctx, b, c, maps, slots


def _param_ids(pkg, slot) -> list[list[int]]:
    """Each slot parameter's wire ids: its row, gathered through its map."""
    rows, maps = _rows(pkg), protocol._runs(*pkg["maps"])
    return [(rows[r] if m == protocol._NONE else rows[r][maps[m]]).tolist()
            for r, m in _slot_tables(pkg)[slot][1].tolist()]


def test_reindexed_parameters_share_their_comparisons_wire_ids():
    ctx, b, c, maps, slots = _reindex_toy()
    want = {name: PlainEvaluator(b).eval(e) for name, e in slots.items()}
    prog = lower(b, slots, ctx)
    assert [cmp.id for cmp in prog.comparisons] == [c.payload]
    pkg = parse_package(serialize_package(prog, DecoyPolicy(), seed=4))
    assert len(pkg["comparisons"]) == 8  # six real lanes, padded once
    assert len(_rows(pkg)) == 1  # one wire-id row, for the one comparison
    (direct,) = _param_ids(pkg, "direct")
    assert direct == pkg["cmp_rows"][1].tolist()
    a_ids = np.array(direct)[maps["a"]].tolist()
    assert _param_ids(pkg, "a") == [a_ids]
    assert _param_ids(pkg, "b") == [a_ids, np.array(direct)[maps["b"]].tolist()]
    # slots "a" and "b" both read through maps["a"]; it ships once
    assert [m.tolist() for m in protocol._runs(*pkg["maps"])] == \
        [maps["a"].tolist(), maps["b"].tolist()]

    rd = run_deferred(lower(b, slots, ctx), Client(ctx), seed=4)
    assert rd.rounds[0].n_real_comparisons == 6
    ev = CipherEvaluator(ctx, b)
    ri = run_interactive(ctx, b, slots, Client(ctx), seed=4, evaluator=ev)
    assert [(r.n_real_comparisons, r.n_wire_comparisons) for r in ri.rounds] == [(6, 8)]
    # one answer per source lane, gathered
    assert RunPlan.over(slots.values()).requests == [c]
    for name in slots:
        assert rd.results[name].tobytes() == ri.results[name].value.tobytes(), name
        assert np.array_equal(rd.results[name], want[name]), name


def _argmax_toy():
    """Three rounds: a one-hot argmax over four scalars takes two, and the
    root of the picked value's square plus 1/4 a third.  That root is the
    one slot, so every answer is read only by a later round's operands."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    xs = [b.cipher(ctx.encrypt(v), name=f"x{i}") for i, v in enumerate((3.0, -1.5, 7.25, 0.5))]
    top = b.sum_(b.mul(m, x) for m, x in zip(vec_argmax_onehot(b, xs), xs))
    return ctx, b, {"root": b.sqrt_deferred(b.add(b.mul(top, top), b.plain(0.25)))}


def _check_release(b: GraphBuilder, slots: dict):
    """An interactive run ends holding no ciphertext, and its slots match an
    evaluator that keeps everything, given the same answers."""
    ctx = CkksContext(SimParams(depth_budget=20))
    ev = CipherEvaluator(ctx, b)
    # the client encrypts its answers in a context of its own, so ctx
    # counts the server's work only
    run = run_interactive(ctx, b, slots, Client(CkksContext(SimParams(depth_budget=20))),
                          seed=4, evaluator=ev)
    assert ev.memo == {}  # answers included
    assert len(run.rounds) == max(e.tier for e in slots.values())

    # an evaluator that keeps everything, given the same answers, asked
    # for every request operand and then every slot
    pe, enc = PlainEvaluator(b), CkksContext(SimParams(depth_budget=20))
    keep_ctx = CkksContext(SimParams(depth_budget=20))
    keep = CipherEvaluator(keep_ctx, b,
                           {c.id: enc.encrypt(pe.bool_value(c)) for c in b.comparisons},
                           {q.id: enc.encrypt(np.sqrt(pe.eval(q.arg))) for q in b.sqrts})
    for e in [e for c in b.comparisons for e in (c.lhs, c.rhs)] + [q.arg for q in b.sqrts]:
        keep.eval(e)
    want = {name: keep.eval(e) for name, e in slots.items()}
    assert list(run.results) == list(want)
    for name, ct in run.results.items():
        assert (np.asarray(ct.value).tobytes(), ct.level) == \
            (np.asarray(want[name].value).tobytes(), want[name].level), name
    assert ctx.snapshot_counts() == keep_ctx.snapshot_counts()


def test_interactive_frees_each_ciphertext_after_its_last_read():
    _, b, _, _, slots = _reindex_toy()
    _check_release(b, slots)


def test_interactive_frees_answers_read_only_by_later_rounds():
    _, b, slots = _argmax_toy()
    _check_release(b, slots)
    assert max(e.tier for e in slots.values()) == 3


def test_declare_returns_the_unanswered_requests_and_declares_their_operands():
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(3.0), name="x")
    y = b.cipher(ctx.encrypt(1.0), name="y")
    c1 = b.compare(x, y)
    arg = b.add(b.mul(x, x), b.plain(0.25))  # read by its sqrt request only
    s = b.sqrt_deferred(arg)
    c2 = b.compare(b.select(c1, x, y), b.plain(2.0))
    slots = {"out": b.mul(c2, s)}

    ev = CipherEvaluator(ctx, b)
    plan = RunPlan.over(slots.values(), ev.memo)
    ev.follow(plan)
    assert plan.requests == [c1, s, c2]
    # asked for in plan order: c1's operands, then the root's argument
    for e in (x, y, arg):
        ev.eval(e)
    with pytest.raises(ValueError, match="more often than declared"):
        ev.eval(arg)  # asked for once, by its request

    # answers given to the constructor are not asked again, nor are their
    # operands declared
    pe = PlainEvaluator(b)
    answered = CipherEvaluator(ctx, b, {c1.payload: ctx.encrypt(pe.eval(c1))},
                               {s.payload: ctx.encrypt(pe.eval(s))})
    plan = RunPlan.over(slots.values(), answered.memo)
    answered.follow(plan)
    assert plan.requests == [c2]
    with pytest.raises(ValueError, match="not declared"):
        answered.eval(arg)
    run = run_interactive(ctx, b, slots, Client(ctx), evaluator=answered)
    assert len(run.rounds) == 1
    assert run.results["out"].value == pe.eval(slots["out"])


def test_no_walk_plans_the_interactive_run(blob16, monkeypatch):
    """Past the pipeline's pure evaluation, no walk runs before the first
    request batch goes out: the run's plan was made when the circuit was
    compiled."""
    calls = {"schedule": 0}
    schedule, request_batch = deferred_graph.schedule, protocol._request_batch
    at_first_batch = []

    def counting_schedule(*args):
        calls["schedule"] += 1
        return schedule(*args)

    def recording_batch(*args):
        at_first_batch.append(calls["schedule"])
        return request_batch(*args)

    def starting_run(*args, **kwargs):
        calls["schedule"] = 0
        return protocol.run_interactive(*args, **kwargs)

    for module in (deferred_graph, protocol, sift_pipeline):
        if hasattr(module, "schedule"):
            monkeypatch.setattr(module, "schedule", counting_schedule)
    monkeypatch.setattr(protocol, "_request_batch", recording_batch)
    monkeypatch.setattr(sift_pipeline, "run_interactive", starting_run)
    run_pipeline(blob16, PipelineConfig(octaves=1), mode="interactive", seed=3)
    assert at_first_batch[0] == 0


def _resolve_cold(ctx, blob):
    """The client's slots for ``blob`` from a plan built afresh."""
    protocol._PLAN_MEMO.clear()
    return Client(ctx).resolve_package(blob)


def _same_slots(got: dict, want: dict) -> bool:
    return list(got) == list(want) and all(
        type(got[k]) is type(want[k])
        and np.asarray(got[k]).tobytes() == np.asarray(want[k]).tobytes() for k in want)


def test_the_slot_plan_memo_tells_package_structures_apart(monkeypatch):
    """Packages of one shape whose structure differs in one monomial's
    coefficient table, one lane map's contents or one slot's name each get
    their own plan: resolved one after another, each gives what a plan
    built afresh gives, and the memo never holds more plans than its
    size."""
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    monkeypatch.setattr(protocol, "PLAN_MEMO_SIZE", 2)
    ctx, b, _, _, slots = _reindex_toy()
    base = bytes(serialize_package(lower(b, slots, ctx), seed=4))

    def table_ref(pkg):
        monos = _slot_tables(pkg)["a"][2]
        others = [k for k, lanes in enumerate(pkg["coeffs"][0].tolist())
                  if lanes == 3 and k != monos[0, 0]]
        monos[0, 0] = others[0]

    def map_lane(pkg):
        pkg["maps"][1][0] = 1  # [0, 2, 4] becomes [1, 2, 4]

    def slot_name(blob):
        names = protocol._sections(blob)["names"][1]
        names[names.tobytes().index(b"b")] = ord("c")

    variants = [base]
    for patch, via_parse in ((table_ref, True), (map_lane, True), (slot_name, False)):
        blob = bytearray(base)
        patch(parse_package(blob) if via_parse else blob)
        variants.append(bytes(blob))
    assert "c" in _slot_tables(parse_package(variants[3]))
    assert len({parse_package(v)["layout"] for v in variants}) == len(variants)
    cold = [_resolve_cold(ctx, v) for v in variants]
    # each change shows in the slots: a new table or map changes slot a
    assert not np.array_equal(cold[1]["a"], cold[0]["a"])
    assert not np.array_equal(cold[2]["a"], cold[0]["a"])
    assert list(cold[3]) == ["a", "c", "direct"]
    for blob, want in list(zip(variants, cold)) * 2:
        assert _same_slots(Client(ctx).resolve_package(blob), want)
        assert 0 < len(protocol._PLAN_MEMO) <= protocol.PLAN_MEMO_SIZE


def test_the_slot_plan_memo_tells_reference_scales_apart(monkeypatch):
    """A plan holds its references' scales, so packages whose references
    differ in a scale alone get plans of their own."""
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    ctx, b, slots = _weight_toy()
    base = bytes(serialize_package(lower(b, slots, ctx), seed=4))
    blob = bytearray(base)
    parse_package(blob)["refs"]["scale"][0] = 0.5
    variants = [base, bytes(blob)]
    cold = [_resolve_cold(ctx, v) for v in variants]
    assert not np.array_equal(cold[0]["a"], cold[1]["a"])
    protocol._PLAN_MEMO.clear()
    for blob, want in zip(variants * 2, cold * 2):
        assert _same_slots(Client(ctx).resolve_package(blob), want)
    assert len(protocol._PLAN_MEMO) == 2


def _arrays(obj, seen=None):
    """Every ndarray ``obj`` holds, through attributes, containers and
    array bases."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        if obj.base is not None:
            yield from _arrays(obj.base, seen)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _arrays(k, seen)
            yield from _arrays(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), seen)


def test_a_package_of_a_remembered_layout_gives_its_own_values(monkeypatch):
    """A second package with the first's layout but other data reuses its
    plan and gives its own slots, as the plaintext evaluator does.  The
    plan holds no array that shares memory with a package, so the memo
    keeps none alive."""
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    runs = []
    for values in ({}, {"v": (-2.0, 4.0, -0.25, 8.0, -3.0, 0.5), "y": (1.5, -6.0, 0.0),
                        "z": (-2.5, 3.0, 9.0)}):
        ctx, b, _, _, slots = _reindex_toy(**values)
        blob = bytes(serialize_package(lower(b, slots, ctx), seed=len(runs)))
        want = {name: PlainEvaluator(b).eval(e) for name, e in slots.items()}
        runs.append((parse_package(blob)["layout"], Client(ctx).resolve_package(blob), want))
        assert len(protocol._PLAN_MEMO) == 1
        (plan,) = protocol._PLAN_MEMO.values()
        held = list(_arrays(plan))
        assert len(held) > 10 and any(a.dtype == np.uint32 for a in held)  # the maps
        wire = np.frombuffer(blob, dtype=np.uint8)
        assert not any(np.shares_memory(a, wire) for a in held)
    (layout1, got1, want1), (layout2, got2, want2) = runs
    assert layout1 == layout2
    for got, want in ((got1, want1), (got2, want2)):
        assert list(got) == sorted(want)
        assert all(np.array_equal(got[name], want[name]) for name in want)
    assert not all(np.array_equal(got1[name], got2[name]) for name in got1)


@pytest.mark.parametrize("toy", [_reindex_toy, _wire_toy])
def test_lowered_program_evaluates_as_the_client_resolves_its_package(toy):
    """The client, resolving the shuffled, decoy-padded package of a
    lowered program, gives each slot the plaintext evaluator's bits: a
    float for a 1-lane slot, else its lanes."""
    ctx, b, *_, slots = toy()
    pe = PlainEvaluator(b)
    wire = run_deferred(lower(b, slots, ctx), Client(ctx), DecoyPolicy(enabled=True),
                        seed=3).results
    assert list(wire) == sorted(slots)
    for name, e in slots.items():
        want = np.asarray(pe.eval(e), dtype=np.float64)
        assert type(wire[name]) is (float if e.width == 1 else np.ndarray), name
        assert np.asarray(wire[name]).tobytes() == want.tobytes(), name


def _reference_slots(pkg, answers, roots):
    """The slot sum written out monomial by monomial: each product of float
    factors folds as a balanced tree, is multiplied by its coefficient
    row, and terms add left to right.  ``answers`` and ``roots`` hold the
    comparison and the sqrt rows' lanes back to back; a reference's
    coefficient row is its table read through its map, times its scale."""
    rows = ([run.astype(np.float64) for run in protocol._runs(pkg["cmp_rows"][0], answers)]
            + protocol._runs(pkg["sqrt_rows"][0], roots))
    maps, coeffs = protocol._runs(*pkg["maps"]), protocol._runs(*pkg["coeffs"])
    coeffs += [coeffs[k][maps[m]] * scale for k, m, scale in pkg["refs"].tolist()]
    out = {}
    for name, (width, params, monos) in _slot_tables(pkg).items():
        vals = [rows[r] if m == protocol._NONE else rows[r][maps[m]]
                for r, m in params.tolist()]
        acc = None
        for ref, *refs in monos.tolist():
            factors = [vals[i] for i in refs if i != protocol._NONE]
            term = (deferred_graph.balanced_fold(factors, lambda x, y: x * y) * coeffs[ref]
                    if factors else coeffs[ref])
            acc = term if acc is None else acc + term
        out[name] = 0.0 if acc is None else float(acc[0]) if width == 1 else acc
    return out


def _random_slot_tables(rng, widths, refs=False):
    """Random package sections, with each row's answers or roots back to
    back: comparison and sqrt rows of 1 lane or a slot's width, lane maps
    over 1-lane and full rows, coefficient tables holding signed zeros,
    and slots of 0 to 60 monomials of degree 0 to 6, with up to 3 sqrt
    factors, some of whose roots are nan.  Each width has one family of 2
    to 40 slots, which share their monomial table's shape and coefficient
    tables but not their parameters or factors, and one slot of its own,
    which half the time has the family's shape but other coefficient
    tables; the slots come in a shuffled order.  With ``refs``, each width
    also has 6 references, over two wider tables of their own, through
    maps of their own, with scales of either sign, ±1 and -0.0 among
    them, and the slots' coefficients are drawn from the tables and the
    references of their width."""
    NONE = protocol._NONE

    def values(n):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
        v[rng.random(n) < 0.15] = 0.0
        v[rng.random(n) < 0.15] = -0.0
        return v

    lengths = [int(rng.choice([1, w, w + 3])) for w in widths for _ in range(4)]
    answers = rng.random(sum(lengths)) < 0.6
    roots = [np.sqrt(np.abs(values(int(rng.choice([1, w]))))) for w in widths for _ in range(2)]
    for r in roots:
        r[rng.random(len(r)) < 0.15] = np.nan  # a negative argument's root
    maps, reads = [], []  # reads: (row, map) pairs a parameter may use, per width
    for w in widths:
        mine = []
        for r, n in enumerate(lengths):
            if n in (1, w):
                mine.append((r, NONE))
            maps.append(rng.integers(0, n, int(rng.choice([1, w]))))
            mine.append((r, len(maps) - 1))
        for q, root in enumerate(roots):
            if len(root) in (1, w):
                mine.append((len(lengths) + q, NONE))
        reads.append(mine)
    table_widths = [w for w in widths for _ in range(5)]
    coeffs = [values(w) for w in table_widths]
    weights = []  # (table, map, scale)
    if refs:
        for w in widths:
            for _ in range(2):
                table_widths.append(w + int(rng.integers(1, 6)))
                coeffs.append(values(table_widths[-1]))
                for _ in range(3):
                    maps.append(rng.integers(0, table_widths[-1], w))
                    scale = rng.choice([1.0, -1.0, -0.0, *(rng.standard_normal(3) * 0.3)])
                    weights.append((len(coeffs) - 1, len(maps) - 1, scale))
    # each width's coefficients: its tables, then its references
    choices = {w: [k for k, tw in enumerate(table_widths) if tw == w]
               + [len(coeffs) + j for j, (_, m, _) in enumerate(weights) if len(maps[m]) == w]
               for w in widths}

    def slot(w, mine, degree, refs):
        cmp_reads = [p for p in mine if p[0] < len(lengths)]
        sqrt_reads = [p for p in mine if p[0] >= len(lengths)]
        picked = [cmp_reads[j] for j in rng.permutation(len(cmp_reads))[:6]]
        n_cmp = len(picked)
        picked += [sqrt_reads[j] for j in rng.permutation(len(sqrt_reads))[:rng.integers(0, 4)]]
        monos = np.full((len(refs), 1 + degree), NONE, dtype=np.uint32)
        for m, ref in enumerate(refs):
            # half the monomials take every sqrt factor the slot has
            mono = list(range(n_cmp, len(picked))) if rng.random() < 0.5 else []
            d = int(rng.integers(0, max(degree - len(mono), 0) + 1))
            mono += rng.permutation(n_cmp)[:d].tolist()
            monos[m, 0] = ref
            mono = sorted(mono)[:degree]
            monos[m, 1:1 + len(mono)] = mono
        return w, np.array(picked, dtype=protocol._PARAM), monos

    slots, shape = [], {}
    for i, (w, mine) in enumerate(zip(widths * 2, reads * 2)):
        family = i < len(widths)
        if family or rng.random() < 0.5:
            shape[w] = int(rng.integers(0, 7)), int(rng.integers(12 if w == 1 else 0, 61))
        degree, n_monos = shape[w]
        coeff_refs = rng.choice(choices[w], n_monos)
        slots += [(f"s{i}.{j}", slot(w, mine, degree, coeff_refs))
                  for j in range(int(rng.integers(2, 41)) if family else 1)]
    slots = [slots[j] for j in rng.permutation(len(slots))]
    ragged, u4 = protocol._ragged, protocol._U4
    pkg = {
        "cmp_rows": (np.array(lengths, dtype=u4), np.arange(sum(lengths), dtype=u4)),
        "sqrt_rows": ragged([np.arange(len(r), dtype=u4) for r in roots], u4),
        "maps": ragged([m.astype(u4) for m in maps], u4),
        "coeffs": ragged(coeffs, np.float64),
        "refs": np.array(weights, dtype=protocol._REF),
        "slots": np.array([(w, monos.shape[1]) for _, (w, _, monos) in slots],
                          dtype=protocol._SLOT),
        "names": ragged([np.frombuffer(name.encode(), dtype=np.uint8) for name, _ in slots],
                        np.uint8),
        "params": ragged([params for _, (_, params, _) in slots], protocol._PARAM),
        "monomials": ragged([monos.ravel() for _, (_, _, monos) in slots], u4),
    }
    return pkg, answers, np.concatenate(roots)


@pytest.mark.parametrize("widths", [[1], [2], [37], [1, 2, 33]])
def test_slot_evaluator_matches_the_monomial_fold_bitwise(widths, monkeypatch):
    """The plan's families, summed a block at a time, add each slot's
    terms as the reference does, in monomial order onto -0.0.  With
    4096-byte blocks a 33- or 37-lane family is summed in runs of 8
    lanes, the last 33-lane run being 9, and narrower families a few
    slots at a time."""
    for block_bytes in (protocol._BLOCK_BYTES, 4096):
        monkeypatch.setattr(protocol, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(sum(widths))
        spans = set()  # (width, blocks > 1) of the families of 2 or more slots
        for _ in range(40):
            pkg, answers, roots = _random_slot_tables(rng, widths)
            want = _reference_slots(pkg, answers, roots)
            plan = protocol.SlotPlan(pkg)
            for g in plan.groups:
                for f in np.unique(g.family):
                    at = np.flatnonzero(g.family == f)
                    if len(at) > 1:
                        blocks = [lo for lo, hi, *_ in g.blocks if np.any((at >= lo) & (at < hi))]
                        spans.add((g.width, len(blocks) > 1))
            asked, flat, at = [], pkg["coeffs"][1], plan.table_starts
            got = plan.evaluate(answers, roots,
                                lambda k: asked.append(k) or flat[at[k]:at[k + 1]])
            assert asked == list(range(len(pkg["coeffs"][0])))  # each table once
            assert list(got) == list(want)
            for name in want:
                assert type(got[name]) is type(want[name]), name
                assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name
        assert {w for w, _ in spans} == set(widths)
        if block_bytes == 4096 or 37 in widths:
            assert any(more for _, more in spans)  # some family spans several blocks


@pytest.mark.parametrize("widths", [[1], [37], [1, 2, 33]])
def test_slot_evaluator_scales_references_as_the_monomial_fold_does(widths):
    """A reference's coefficient row is its table read through its map,
    times its scale, bit for bit, whether the table is also read directly
    or only through references; every table is asked for once."""
    rng = np.random.default_rng(100 + sum(widths))
    used = 0
    for _ in range(30):
        pkg, answers, roots = _random_slot_tables(rng, widths, refs=True)
        n_tables = len(pkg["coeffs"][0])
        used += sum(int(np.sum(monos[:, 0] >= n_tables)) for _, _, monos in
                    _slot_tables(pkg).values())
        want = _reference_slots(pkg, answers, roots)
        plan = protocol.SlotPlan(pkg)
        asked, flat, at = [], pkg["coeffs"][1], plan.table_starts
        got = plan.evaluate(answers, roots, lambda k: asked.append(k) or flat[at[k]:at[k + 1]])
        assert asked == list(range(n_tables))
        assert list(got) == list(want)
        for name in want:
            assert type(got[name]) is type(want[name]), name
            assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name
    assert used > 100


def test_pools_share_by_graph_node_never_by_value():
    """A pooled package shows which monomials share a coefficient table,
    which follows from the graph; tables never merge because their lanes
    are equal, which would leak the encrypted values."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    u = b.cipher(ctx.encrypt(np.array([1.0, -2.0, 3.0, -4.0])), name="u")
    w = b.cipher(ctx.encrypt(np.array([-1.0, 2.0, 0.5, 4.0])), name="w")
    x = b.cipher(ctx.encrypt(np.array([2.0, 2.0, 2.0])), name="x")
    y = b.cipher(ctx.encrypt(np.array([2.0, 2.0, 2.0])), name="y")  # x's lanes, its own node
    lane_map = np.array([0, 1, 3])
    ru = b.reindex(b.compare(u, b.plain(0.0)), lane_map)
    rw = b.reindex(b.compare(w, b.plain(0.0)), lane_map.copy())  # equal content
    slots = {"a": b.simplify(b.mul(ru, x)), "b": b.simplify(b.mul(rw, y)),
             "c": b.simplify(b.mul(rw, x))}
    prog = lower(b, slots, ctx)
    assert (prog.leakage["coeff_tables"], prog.leakage["lane_maps"]) == (2, 1)
    pkg = parse_package(serialize_package(prog, DecoyPolicy(), seed=1))
    kx, ky = protocol._runs(*pkg["coeffs"])
    assert kx.tobytes() == ky.tobytes()  # equal lanes, still two tables
    refs = {name: monos[:, 0].tolist() for name, (_, _, monos) in _slot_tables(pkg).items()}
    assert refs == {"a": [0], "b": [1], "c": [0]}  # x is one table for two slots
    assert [m.tolist() for m in protocol._runs(*pkg["maps"])] == [lane_map.tolist()]

    client = Client(ctx)
    run = run_deferred(lower(b, slots, ctx), client, seed=1)
    assert client.attributed_decrypts == 2 + 2
    for name, e in slots.items():
        assert np.array_equal(run.results[name], PlainEvaluator(b).eval(e)), name


def test_comparison_answers_are_encrypted_after_the_operands_are_freed(monkeypatch):
    ctx = CkksContext(SimParams(depth_budget=20))
    client = Client(ctx)
    recs = np.zeros(8, dtype=protocol.CMP_DTYPE)
    recs["lhs"] = np.arange(8.0)
    recs["rhs"] = 3.5
    decrypted = []
    decrypt, encrypt = SecretKey.decrypt, CkksContext.encrypt

    def tracking_decrypt(sk, ct):
        out = decrypt(sk, ct)
        decrypted.append(weakref.ref(out))
        return out

    def checking_encrypt(self, x):
        assert all(ref() is None for ref in decrypted), "an operand column is still held"
        return encrypt(self, x)

    monkeypatch.setattr(SecretKey, "decrypt", tracking_decrypt)
    monkeypatch.setattr(CkksContext, "encrypt", checking_encrypt)
    blob = client.resolve_comparisons(np.array([20], dtype="<u4").tobytes() + recs.tobytes())
    assert len(blob) == 8 * protocol.RESP_DTYPE.itemsize
    assert len(decrypted) == client.attributed_decrypts == 2
    assert ctx.snapshot_counts()["encrypt"] == 8
    # answer i is request i's, position for position
    resp = np.frombuffer(blob, dtype=protocol.RESP_DTYPE)
    assert np.array_equal(resp, (np.arange(8.0) > 3.5).astype(np.float64))


@pytest.mark.parametrize("kind,size,reason", [
    ("comparisons", 0, "shorter than its 4-byte level"),
    ("comparisons", 3, "shorter than its 4-byte level"),
    ("comparisons", 4 + 15, "not whole 16-byte records"),
    ("comparisons", 4 + 24, "not whole 16-byte records"),
    ("sqrts", 2, "shorter than its 4-byte level"),
    ("sqrts", 4 + 12, "not whole 8-byte records"),
])
def test_a_malformed_request_fails_with_a_reason(kind, size, reason):
    client = Client(CkksContext(SimParams(depth_budget=20)))
    resolve = getattr(client, f"resolve_{kind}")
    with pytest.raises(ValueError, match=reason):
        resolve(bytes(size))
    # a level, then whole records, is answered with one value per record
    record = {"comparisons": protocol.CMP_DTYPE, "sqrts": protocol.SQRT_DTYPE}[kind]
    assert len(resolve(bytes(4 + 3 * record.itemsize))) == 3 * protocol.RESP_DTYPE.itemsize
