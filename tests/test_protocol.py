"""Client/server delegation: batching, decoys, rounds, packages."""

import hashlib
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fhesift import (
    Ciphertext,
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
from fhesift.deferred_graph import operands
from fhesift.errors import DeferralUnsupported
from fhesift.kernels import max2, running_max, vec_argmax_onehot, vec_max

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


@pytest.mark.parametrize("kernel,values,adds", [
    # 7 duels over scalars, in 3 rounds
    ("vec_max", [3.0, -1.5, 7.25, 0.5, 2.0, 7.25, -4.0, 1.0], 14),
    # 1 duel over 4 lanes
    ("max2", [np.array([1.0, -2.0, 0.0, 5.0]), np.array([0.5, -2.0, 3.0, 6.0])], 8),
])
def test_each_select_duel_subtracts_once(kernel, values, adds):
    """max2 is [x > y]*(x - y) + y: the comparison is asked as its
    argument x - y, and the select scales that same node, so a duel costs
    two add lanes per lane, its subtraction and its sum, not three."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    xs = [b.cipher(ctx.encrypt(v)) for v in values]
    top = vec_max(b, xs) if kernel == "vec_max" else max2(b, *xs)
    run = run_interactive(ctx, b, {"top": top}, Client(ctx))
    assert np.array_equal(run.results["top"].value, np.max(values, axis=0))
    assert ctx.snapshot_counts()["add"] == adds
    bools = {n.payload: n for n in b.nodes if n.op == "bool"}
    scaled = {(n.a, n.c) for n in b.nodes if n.op == "mul"}
    assert len(b.comparisons) == (7 if kernel == "vec_max" else 1)
    for c in b.comparisons:
        assert operands(bools[c.id]) == (c.arg,)
        assert (bools[c.id], c.arg) in scaled or (c.arg, bools[c.id]) in scaled


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
    # the root's coefficient, 1.0, ships as a constant reference
    assert run.leakage == {"bool_params": 1, "formed_rows": 0, "sqrt_params": 1,
                           "monomials": 3, "coeff_tables": 2, "coeff_refs": 1, "lane_maps": 0,
                           "windows": 0}
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
    # a record is one difference, lhs - rhs; decoys draw values alone from
    # the real differences; records carry no level, and the batch's one
    # level is the lowest of its real records'
    assert pkg["comparisons"].dtype == protocol.RECORD_DTYPE
    assert pkg["comparisons"].dtype.names == ("value",)
    diffs = [lv - rv for lv, rv in pairs]
    assert set(pkg["comparisons"]["value"]) == set(diffs)
    assert pkg["cmp_level"] == min(ct.level for ct in prog.cmp_args.values())
    # a record's wire id is its position: each comparison's row points at
    # its own difference, among the decoys
    positions = [int(ids[0]) for ids in _rows(pkg)]
    assert len(set(positions)) == 3 and max(positions) < 8
    assert pkg["comparisons"]["value"][positions].tolist() == diffs

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
    assert sorted(ra["value"]) == sorted(rb["value"])  # same records, new order


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
    # without references, then with every comparison shipped as records,
    # then with both operands in every comparison record, then without
    # windows, then with every lane map and window weight written out
    for old in (b"DCGPKG01", b"DCGPKG02", b"DCGPKG03", b"DCGPKG04", b"DCGPKG05",
                b"DCGPKG06", b"DCGPKG07", b"DCGPKG08"):
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
    _slot_tables(pkg)["pick"][2][0, 0] = len(pkg["coeffs"][0]) + len(pkg["refs"])


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
    ship as references into the one per-pixel table, and [q > 0] is
    formed from q's table."""
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
    assert (prog.leakage["coeff_tables"], prog.leakage["coeff_refs"]) == (2, 4)
    blob = serialize_package(prog, DecoyPolicy(), seed=1)
    pkg = parse_package(blob)
    # no reference reads pixel lane 3, so the table ships the other five
    # and the references' maps a and b read them as m2 and m3
    assert pkg["refs"].tolist() == [(0, 2, 0.25), (0, 2, -0.25), (0, 3, 0.1), (0, 3, -0.1)]
    assert [m.tolist() for m in protocol._lane_maps(pkg)] == \
        [[0, 2, 4], [5, 1], [0, 2, 3], [4, 1]]
    assert protocol._runs(*pkg["coeffs"])[0].tolist() == [1.0, 25.0, 6.25, 9.0, 1.0]
    assert {name: monos[:, 0].tolist() for name, (_, _, monos) in
            _slot_tables(pkg).items()} == {"a": [2, 3], "b": [4, 5]}
    text = dump_package(blob)
    assert "refs: 4\n  x0 = k0[m2] * 0.25\n  x1 = k0[m2] * -0.25\n" in text
    assert "formed: 1\n  f0 = [k1 * 1] > [0] width=8\n" in text
    assert "slot a: width=3\n  p0 = f0[m0]\n  1 : x0\n  p0 : x1\n" in text
    client = Client(ctx)
    got = client.resolve_package(blob)
    pe = PlainEvaluator(b)
    ce = CipherEvaluator(ctx, b, bool_cts={c.id: ctx.encrypt(pe.bool_value(c))
                                           for c in b.comparisons})
    for name, e in slots.items():
        want = np.asarray(pe.eval(e)).tobytes()
        assert got[name].tobytes() == want == ce.eval(e).value.tobytes(), name
    # the per-pixel table and q's; no comparison ships records
    assert len(pkg["comparisons"]) == 0
    assert client.attributed_decrypts == 2


def _patch_ref_table(pkg):
    pkg["refs"]["table"][0] = len(pkg["coeffs"][0])


def _patch_ref_map(pkg):
    pkg["refs"]["map"][0] = len(pkg["maps"][0])


def _patch_ref_map_none(pkg):
    # slot a (3 lanes) weighted by the whole 5-lane table: an unmapped
    # reference is in range, so the width check is what refuses it
    pkg["refs"]["map"][0] = protocol._NONE


@pytest.mark.parametrize("patch,reason", [
    pytest.param(p, reason, id=p.__name__) for p, reason in [
        (_patch_ref_table, "reference's .* out of range"),
        (_patch_ref_map, "reference's .* out of range"),
        (_patch_ref_map_none, "coefficient's lanes differ from its slot's width"),
    ]])
def test_parse_package_rejects_a_window_weight_out_of_range(patch, reason):
    ctx, b, slots = _weight_toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    patch(parse_package(blob))
    with pytest.raises(ValueError, match=reason):
        parse_package(blob)
    with pytest.raises(ValueError):
        Client(ctx).resolve_package(blob)


def _patch_ref_map_past_its_table(pkg):
    # the first reference's map reads one lane past its table
    lengths, lanes = pkg["maps"]
    table, m = pkg["refs"][0][["table", "map"]].tolist()
    lanes[int(lengths[:m].sum())] = pkg["coeffs"][0][table]


def _patch_ref_width(pkg):
    # slot a (3 lanes) weighted through slot b's map (2 lanes)
    maps = pkg["refs"]["map"]
    maps[maps == maps[0]] = maps[-1]


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


def _window_toy():
    """Windows as the pipeline's histograms make them, over 6 "pixel"
    lanes: slots a (3 lanes) and b (2 lanes) window-sum one binned
    weight, [q > 0] * p, which ships formed, and c the same window as a
    over [q * q > 1] * p, whose comparison ships as records; "pure" is a
    window sum of p alone, a table the server computes."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    p = b.cipher(ctx.encrypt(np.array([1.0, -5.0, 2.5, -0.5, 3.0, 0.0])), name="p")
    q = b.cipher(ctx.encrypt(np.array([2.0, -1.0, 0.5, 4.0, -3.0, -0.0])), name="q")
    h = b.simplify(b.mul(b.compare(q, b.plain(0.0)), p))
    k = b.simplify(b.mul(b.compare(b.mul(q, q), b.plain(1.0)), p))
    wa = [(np.array([0, 2, 4]), 0.25), (np.array([5, 1, 3]), -0.5)]
    slots = {"a": b.window_sum(h, wa), "b": b.window_sum(h, [(np.array([1, 0]), 2.0)]),
             "c": b.window_sum(k, wa), "pure": b.window_sum(p, wa)}
    return ctx, b, slots


def test_windows_ship_their_sources_once_and_resolve_bitwise():
    ctx, b, slots = _window_toy()
    prog = lower(b, slots, ctx)
    assert prog.leakage["windows"] == 3 and prog.leakage["formed_rows"] == 1
    blob = serialize_package(prog, DecoyPolicy(), seed=3)
    pkg = parse_package(blob)
    names = protocol._slot_names(*pkg["names"])
    assert names == ["a", "a:source", "b", "c", "c:source", "pure"]
    # (slot, source, weights run): windows a and c share their run
    assert pkg["windows"].tolist() == [(0, 1, 0), (2, 1, 1), (3, 4, 0)]
    assert [w.tolist() for w in protocol._runs(*pkg["weights"])] == \
        [[(0, 0.25), (1, -0.5)], [(2, 2.0)]]
    text = dump_package(blob)
    assert "windows: 3\n  a <- a:source : m0 * 0.25, m1 * -0.5\n  b <- a:source : m2 * 2\n" in text
    got = Client(ctx).resolve_package(blob)
    assert list(got) == ["a", "b", "c", "pure"]  # the sources are not returned
    pe = PlainEvaluator(b)
    ce = CipherEvaluator(ctx, b, bool_cts={c.id: ctx.encrypt(pe.bool_value(c))
                                           for c in b.comparisons})
    for name, e in slots.items():
        want = np.asarray(pe.eval(e)).tobytes()
        assert got[name].tobytes() == want == ce.eval(e).value.tobytes(), name


def test_lower_refuses_a_window_sum_it_cannot_ship_as_a_window():
    ctx, b, slots = _window_toy()
    w = slots["a"]
    for bad in ({"x": b.mul(w, 2.0)}, {"x": b.add(w, slots["c"])},
                {"x": b.window_sum(b.add(w, b.plain(1.0)), [(np.array([0, 1]), 1.0)])}):
        with pytest.raises(DeferralUnsupported):
            lower(b, bad)
    with pytest.raises(ValueError, match="taken by a window's source"):
        lower(b, {"a": w, "a:source": slots["pure"]})


def _patch_window_source(pkg):
    pkg["windows"]["source"][0] = len(pkg["slots"])


def _patch_window_reads_a_window(pkg):
    pkg["windows"]["source"][2] = pkg["windows"]["slot"][0]


def _patch_window_slot_twice(pkg):
    pkg["windows"]["slot"][1] = pkg["windows"]["slot"][0]


def _patch_window_map(pkg):
    pkg["weights"][1]["map"][0] = len(pkg["maps"][0])


def _patch_window_map_past_its_source(pkg):
    # window a's first map reads lane 6 of its 6-lane source
    pkg["maps"][1][0] = 6


def _patch_window_width(pkg):
    # window b (2 lanes) weighted through a 3-lane map
    pkg["weights"][1]["map"][2] = 0


@pytest.mark.parametrize("patch,reason", [
    (_patch_window_source, "window's source 6 is out of range"),
    (_patch_window_reads_a_window, "window reads a window"),
    (_patch_window_slot_twice, "filled by two windows"),
    (_patch_window_map, "window weight's lane map .* out of range"),
    (_patch_window_map_past_its_source, "reads past the end of its source"),
    (_patch_window_width, "window weight's lanes differ from its slot's width"),
])
def test_parse_package_refuses_a_malformed_window(patch, reason):
    ctx, b, slots = _window_toy()
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


def _shift_toy():
    """A six-lane comparison [v * v > 1], which ships as records, read
    through lane maps [1, 3, 5], [0, 2, 4] and [4, 4, 1]: the second is
    the first shifted by -1, and the third a base of its own."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    v = b.cipher(ctx.encrypt(np.array([1.0, -5.0, 2.5, -0.5, 3.0, -1.0])), name="v")
    y = b.cipher(ctx.encrypt(np.array([2.0, 7.0, -1.0])), name="y")
    z = b.cipher(ctx.encrypt(np.array([0.5, -4.0, 6.0])), name="z")
    c = b.compare(b.mul(v, v), b.plain(1.0))
    slots = {name: b.simplify(b.select(b.reindex(c, np.array(at)), y, z))
             for name, at in (("a", [1, 3, 5]), ("b", [0, 2, 4]), ("c", [4, 4, 1]))}
    return ctx, b, slots


def test_lane_maps_ship_as_shifts_of_base_maps_and_resolve_bitwise():
    ctx, b, slots = _shift_toy()
    prog = lower(b, slots, ctx)
    assert [m.tolist() for m in prog.lane_maps] == [[1, 3, 5], [0, 2, 4], [4, 4, 1]]
    blob = serialize_package(prog, DecoyPolicy(), seed=2)
    pkg = parse_package(blob)
    assert [m.tolist() for m in protocol._runs(*pkg["maps"])] == [[1, 3, 5], [4, 4, 1]]
    assert pkg["shifts"].tolist() == [(0, 0), (0, -1), (1, 0)]
    assert [m.tolist() for m in protocol._lane_maps(pkg)] == [m.tolist() for m in prog.lane_maps]
    assert ("maps: 3\n  m0 -> lanes [1, 3, 5]\n  m1 = m0 + -1\n  m2 -> lanes [4, 4, 1]\n"
            in dump_package(blob))
    got = Client(ctx).resolve_package(blob)
    for name, e in slots.items():
        assert got[name].tobytes() == np.asarray(PlainEvaluator(b).eval(e)).tobytes(), name


def _patch_shift_base(pkg):
    pkg["shifts"]["base"][1] = len(pkg["maps"][0])


def _patch_shift_below_0(pkg):
    pkg["shifts"]["shift"][1] = -2  # [1, 3, 5] - 2 reads lane -1


def _patch_shift_past_its_row(pkg):
    pkg["shifts"]["shift"][1] = 1  # [1, 3, 5] + 1 reads lane 6 of 6


def _patch_shift_past_its_table(pkg):
    # the formed term's map [0, 2, 4], shifted, reads lane 6 of v's 6
    pkg["shifts"]["shift"][_formed_term(pkg)["map"][0]] = 2


def _patch_shift_past_its_source(pkg):
    # window a's first map [0, 2, 4], shifted, reads lane 6 of its 6-lane source
    pkg["shifts"]["shift"][0] = 2


def _patch_window_run(pkg):
    pkg["windows"]["weights"][0] = len(pkg["weights"][0])


def _patch_empty_run(pkg):
    # the runs of 2 and 1 weights become runs of 0 and 3
    pkg["weights"][0][:] = (0, 3)


def _patch_wide_constant_slot(pkg):
    # "root", a 1-lane sqrt times the constant 1.0, claims 2 lanes: its
    # parameter may have 1 lane and its constant any, but no piece of
    # the package is that wide
    pkg["slots"]["width"][1] = 2


@pytest.mark.parametrize("toy,patch,reason", [
    pytest.param(*case, id=case[1].__name__) for case in [
        (_shift_toy, _patch_shift_base, "lane map's base 2 is out of range"),
        (_shift_toy, _patch_shift_below_0, "shift takes a lane below 0"),
        (_shift_toy, _patch_shift_past_its_row, "lane map reads past the end of its row"),
        (lambda: _formed_toy(), _patch_shift_past_its_table,
         "formed term's lane map reads past the end of its table"),
        (_window_toy, _patch_shift_past_its_source,
         "window's lane map reads past the end of its source"),
        (_window_toy, _patch_window_run, "window's weights run 2 is out of range"),
        (_window_toy, _patch_empty_run, "weights run is empty"),
        (_toy, _patch_wide_constant_slot, "slot is wider than every row, table and lane map"),
    ]])
def test_parse_package_refuses_a_malformed_shift_weights_run_or_constant_slot(toy, patch, reason):
    ctx, b, slots = toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    patch(parse_package(blob))
    with pytest.raises(ValueError, match=reason):
        parse_package(blob)
    with pytest.raises(ValueError, match=reason):
        Client(ctx).resolve_package(blob)


def test_a_mutated_package_is_refused_with_a_reason_or_resolves(blob16, monkeypatch):
    """Seeded random mutations of a small16 package: a byte, a word
    anywhere, a word of one section and a truncation, in turn.  Each is
    refused with a ValueError, by ``parse_package``, the ``SlotPlan`` or
    ``resolve_package``, or it resolves; nothing else may be raised.  A
    mutated value may be any float, so float warnings are no fault."""
    blobs = []
    serialize = protocol.serialize_package
    monkeypatch.setattr(protocol, "serialize_package",
                        lambda *args, **kw: blobs.append(bytes(serialize(*args, **kw))) or
                        serialize(*args, **kw))
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    run_pipeline(blob16, PipelineConfig(octaves=1), mode="deferred", seed=3)
    (blob,) = blobs
    # each section's (a ragged one's lengths' and runs') words, by byte offset
    start = np.frombuffer(blob, np.uint8).ctypes.data
    words = [arr.ctypes.data - start + 4 * np.arange(arr.nbytes // 4)
             for name, part in protocol._sections(blob).items() if name != "header"
             for arr in (part if isinstance(part, tuple) else (part,)) if arr.nbytes >= 4]
    rng = np.random.default_rng(34)
    client = Client(CkksContext(SimParams()))
    outcomes = Counter()
    for i in range(320):
        bad = bytearray(blob)
        value = np.array(rng.choice([0, 1, 2, 0xFFFFFFFF, 0x7FFFFFFF, int(rng.integers(1 << 32))]),
                         dtype="<u4").tobytes()
        if i % 4 == 0:
            bad[rng.integers(len(bad))] = rng.integers(256)
        elif i % 4 < 3:
            at = (4 * rng.integers(len(bad) // 4) if i % 4 == 1
                  else rng.choice(words[rng.integers(len(words))]))
            bad[at:at + 4] = value
        else:
            bad = bad[:rng.integers(len(bad))]
        try:
            with np.errstate(all="ignore"):
                client.resolve_package(bytes(bad))
            outcomes["resolved"] += 1
        except ValueError:
            outcomes["refused"] += 1
    assert outcomes["resolved"] > 20 and outcomes["refused"] > 150


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
    # the comparison records' one column of differences, the sqrt
    # arguments, then each pooled coefficient table once, however many
    # monomials share it
    assert run.rounds[0].n_wire_sqrts > 0
    assert client.attributed_decrypts == 1 + 1 + run.leakage["coeff_tables"] == 4

    # formed comparisons read their tables as the slots do: each table is
    # decrypted once, however many rows and monomials read it
    ctx3, b3, slots3 = _formed_toy()
    client3 = Client(ctx3)
    decrypted = []

    def recording(ct):
        decrypted.append(ct.value.tobytes())
        return Client._decrypt(client3, ct)

    client3._decrypt = recording
    run = run_deferred(lower(b3, slots3, ctx3), client3)
    assert run.rounds[0].n_wire_comparisons == 0
    assert client3.attributed_decrypts == len(decrypted) == run.leakage["coeff_tables"] == 3
    assert len(set(decrypted)) == len(decrypted)
    assert client3.unattributed_decrypts() == 0

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
    # [v * v > 4] is not linear in v, so it ships as records
    e = b.select(b.compare(b.mul(v, v), b.plain(4.0)), v, b.neg(v))
    run = run_deferred(lower(b, {"big": b.simplify(e)}, ctx), Client(ctx))
    assert np.array_equal(run.results["big"], [-1.0, 5.0, 2.0])
    assert run.rounds[0].n_real_comparisons == 3
    assert run.rounds[0].n_wire_comparisons == 8
    # [v > 0] is formed from v's table, so it ships no record
    e = b.select(b.compare(v, b.plain(0.0)), v, b.neg(v))
    run = run_deferred(lower(b, {"abs": b.simplify(e)}, ctx), Client(ctx))
    assert np.array_equal(run.results["abs"], [1.0, 5.0, 2.0])
    assert (run.rounds[0].n_real_comparisons, run.rounds[0].n_wire_comparisons) == (0, 0)


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


# sha256 digests of the sectioned layout (DCGPKG09) and of interactive
# requests, each a batch's level and then its records.  The wire format
# is a contract, so any change to them is a format change
PACKAGE_SHA256 = {
    (True, 0): "2a4bd4fd34502f1d2ff902dd38cdeecad841e604a721723ce9c14a63d2ae9c66",
    (True, 7): "6d458e349937b7d4eadbc1622aca4370638b11600a1e35fa9a63dd2988f1167e",
    (False, 0): "204c8f15928876dcfa0858f719eb581f7d0a1f6587e0ab2d60cdbcc65316482a",
}
REQUEST_SHA256 = [
    ("c", "6d0888d1acf855ea9cfa0e4f8f87bf9e88bd5ea72352d1d8c4d16de7a0d7aae8"),
    ("s", "cd344ec2d7366d4123ae87571a4ac85b1dbfd70248628991788aa43b445affe7"),
    ("c", "7903e8648c62d4c334c20f8baddca9830affe5df3864001d6d436d00d4ed8abb"),
    ("c", "ed2c400e59ae83678def7709e2218ff77badc843d3a0754a1cf7a17c69f8b50b"),
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
    64-byte header, so each wire buffer is placed to put them, not its
    first byte, on an 8-byte boundary; the bytes are the digests' above."""
    ctx, b, slots = _wire_toy()
    prog = lower(b, slots, ctx)
    for decoys, seed in sorted(PACKAGE_SHA256):
        blob = serialize_package(prog, DecoyPolicy(enabled=decoys), seed=seed)
        sec = protocol._sections(blob)
        assert protocol._HEADER.itemsize == 64
        assert sec["comparisons"].ctypes.data % 8 == 0
        assert sec["sqrts"].ctypes.data % 8 == 0
    rng = np.random.default_rng(0)
    for width in range(1, 80):  # buffers of many sizes, so of many allocations
        cts = [ctx.encrypt(np.arange(float(width)))]
        blob, _ = protocol._request_batch([width], cts, DecoyPolicy(), rng)
        assert (_address(blob) + 4) % 8 == 0, width
        assert protocol._parse_request(blob)[0].ctypes.data % 8 == 0


def test_a_request_batch_frees_each_streamed_argument_before_it_draws_the_next():
    """A batch writes each argument straight to its wire ids and drops it
    before it draws the next, so a generator's arguments never all live
    at once.  The real lanes come back through the ids in entry order,
    each decoy is a copy of one of them, and the batch ships at its
    entries' lowest level.  The wire is the one that staging the lanes in
    entry order, decoys last, and permuting them gives, from the same
    draws: here over 2^17 decoys, so more than one chunk of them."""
    widths, levels = [5, 1, 300, 7, 1, 64, 131_000], [9, 4, 7, 3, 8, 6, 5]
    refs = []

    def argument(k):
        ct = Ciphertext(np.arange(float(widths[k])) + 1000.0 * k, levels[k])
        refs.append(weakref.ref(ct.value))
        return ct

    def arguments():
        for k in range(len(widths)):
            assert all(ref() is None for ref in refs), f"an argument before {k} is still held"
            yield argument(k)

    blob, ids = protocol._request_batch(widths, arguments(), DecoyPolicy(),
                                        np.random.default_rng(4))
    assert len(refs) == len(widths) and all(ref() is None for ref in refs)
    recs, level = protocol._parse_request(blob)
    real = np.concatenate([np.arange(float(w)) + 1000.0 * k for k, w in enumerate(widths)])
    assert len(recs) == DecoyPolicy().padded_size(len(real)) > len(real)
    assert np.array_equal(recs["value"][ids], real)
    assert level == min(levels)
    rng = np.random.default_rng(4)
    staged = np.concatenate([real, real[rng.integers(0, len(real), len(recs) - len(real))]])
    assert np.array_equal(recs["value"], staged[rng.permutation(len(recs))])


def test_a_request_batch_needs_at_most_twice_its_wire_bytes():
    """The wire ids are drawn, and the permutation behind them dropped,
    before the wire is allocated, and each argument is written straight
    to its ids: a batch of 2^18 real lanes from a generator peaks at no
    more than twice its wire bytes above its arguments.  Staging the
    arguments beside the wire, as the batch once did, takes about four."""
    widths = [1 << 12] * 64
    args = [Ciphertext(np.full(w, float(k)), 5) for k, w in enumerate(widths)]
    rng = np.random.default_rng(0)  # made outside the trace: it allocates ~0.7 MB
    tracemalloc.start()
    try:
        blob, ids = protocol._request_batch(widths, (ct for ct in args), DecoyPolicy(), rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ids) == 1 << 18 and len(blob) == 4 + 8 * (1 << 18)
    assert peak <= 2 * len(blob)


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
    """One six-lane comparison read through two lane maps and directly:
    [v * v > 1], which is not linear in v, so it ships as records."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    v = b.cipher(ctx.encrypt(np.array(v)), name="v")
    y = b.cipher(ctx.encrypt(np.array(y)), name="y")
    z = b.cipher(ctx.encrypt(np.array(z)), name="z")
    c = b.compare(b.mul(v, v), b.plain(1.0))
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
    rows, maps = _rows(pkg), protocol._lane_maps(pkg)
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
    assert [m.tolist() for m in protocol._lane_maps(pkg)] == \
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
    # for every request's argument, a comparison's the difference of its
    # operands, and then every slot
    pe, enc = PlainEvaluator(b), CkksContext(SimParams(depth_budget=20))
    keep_ctx = CkksContext(SimParams(depth_budget=20))
    keep = CipherEvaluator(keep_ctx, b,
                           {c.id: enc.encrypt(pe.bool_value(c)) for c in b.comparisons})
    for q in b.sqrts:
        keep.bind(b.sqrt_deferred(q.arg), enc.encrypt(np.sqrt(pe.eval(q.arg))))
    for r in b.comparisons + b.sqrts:
        keep.eval(r.arg)
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
    # asked for in plan order, each request as its one argument: c1's
    # x - y, then the root's
    c1_arg = b.comparisons[c1.payload].arg
    for e in (x, y):
        with pytest.raises(ValueError, match="not declared"):
            ev.eval(e)
    for e in (c1_arg, arg):
        ev.eval(e)
    with pytest.raises(ValueError, match="more often than declared"):
        ev.eval(arg)  # asked for once, by its request

    # answers bound before planning are not asked again, nor are their
    # operands declared
    pe = PlainEvaluator(b)
    answered = CipherEvaluator(ctx, b, {c1.payload: ctx.encrypt(pe.eval(c1))})
    answered.bind(s, ctx.encrypt(pe.eval(s)))
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
        assert len(held) > 10 and any(a.tolist() == [4, 4, 1] for a in held)  # a lane map
        wire = np.frombuffer(blob, dtype=np.uint8)
        assert not any(np.shares_memory(a, wire) for a in held)
    (layout1, got1, want1), (layout2, got2, want2) = runs
    assert layout1 == layout2
    for got, want in ((got1, want1), (got2, want2)):
        assert list(got) == sorted(want)
        assert all(np.array_equal(got[name], want[name]) for name in want)
    assert not all(np.array_equal(got1[name], got2[name]) for name in got1)


def _blob16_program(blob16, monkeypatch) -> protocol.LoweredProgram:
    """The bound program a small16 deferred run ships."""
    programs = []
    serialize = protocol.serialize_package
    monkeypatch.setattr(protocol, "serialize_package",
                        lambda program, *args, **kw: programs.append(program) or
                        serialize(program, *args, **kw))
    run_pipeline(blob16, PipelineConfig(octaves=1), mode="deferred", seed=3)
    monkeypatch.setattr(protocol, "serialize_package", serialize)
    (program,) = programs
    return program


def test_a_remembered_layout_is_not_checked_again(blob16, monkeypatch):
    """A package whose layout the memo holds is checked for what changes
    between packages, its wire ids, and takes the remembered plan; the
    layout's rules ran once, when its plan was made."""
    program = _blob16_program(blob16, monkeypatch)
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    first, second = (bytes(serialize_package(program, DecoyPolicy(), seed=s)) for s in (3, 4))
    assert first != second
    checks, check_refs = [], protocol._check_refs
    monkeypatch.setattr(protocol, "_check_refs",
                        lambda what, *args, **kw: checks.append(what) or
                        check_refs(what, *args, **kw))
    Client(CkksContext(SimParams())).resolve_package(first)
    assert len(checks) > 10
    checks.clear()
    pkg = parse_package(second)
    assert checks == ["comparison wire id", "sqrt wire id"]
    assert [pkg["plan"]] == list(protocol._PLAN_MEMO.values())


def _unread_base(sections: dict, lanes: int, n_maps: int) -> None:
    """One more base map, ``lanes`` lanes of 0, and ``n_maps`` lane maps
    that are it, unshifted, in ``sections``."""
    bases = protocol._runs(*sections["maps"]) + [np.zeros(lanes, dtype=protocol._U4)]
    sections["maps"] = protocol._ragged(bases, protocol._U4)
    sections["shifts"] = np.concatenate(
        [sections["shifts"], np.array([(len(bases) - 1, 0)] * n_maps, dtype=protocol._SHIFT)])


def _shifted_maps(program, sections):
    # 1,024 lane maps of 16,384 lanes, each one 8-byte shift entry
    _unread_base(sections, 1 << 14, 1024)


def _wide_constant_slots(program, sections):
    # 1,024 slots as wide as a map that nothing reads, each one monomial
    # of a public constant
    _unread_base(sections, 1 << 14, 1)
    constant = len(program.coeff_tables) + len(sections["refs"])
    sections["refs"] = np.concatenate(
        [sections["refs"], np.array([(protocol._NONE, protocol._NONE, 1.0)], dtype=protocol._REF)])
    sections["slots"] = np.concatenate(
        [sections["slots"], np.array([(1 << 14, 1)] * 1024, dtype=protocol._SLOT)])
    for name, runs in (("names", [np.frombuffer(f"wide{i}".encode(), np.uint8)
                                  for i in range(1024)]),
                       ("params", [np.empty(0, protocol._PARAM)] * 1024),
                       ("monomials", [np.array([constant], dtype=protocol._U4)] * 1024)):
        sections[name] = protocol._ragged(protocol._runs(*sections[name]) + runs,
                                          sections[name][1].dtype)


def _crossed_references(program, sections):
    # a reference through one 4,096-lane map to each of the 29 tables,
    # and one to table 0 through each of 256 such maps: 285 references
    # make 29 x 256 coefficient rows
    first = len(sections["shifts"])
    _unread_base(sections, 1 << 12, 256)
    crossed = [(k, first, 1.0) for k in range(len(program.coeff_tables))]
    crossed += [(0, first + m, 1.0) for m in range(256)]
    sections["refs"] = np.concatenate([sections["refs"], np.array(crossed, dtype=protocol._REF)])


@pytest.mark.parametrize("craft", [_shifted_maps, _wide_constant_slots, _crossed_references])
def test_a_layout_that_asks_for_more_lanes_than_its_bytes_bound_is_refused(blob16, monkeypatch,
                                                                         craft):
    """A layout may ask the client for at most MAX_LANES_PER_BYTE lanes
    per byte: each of these asks for more than 60, through lane maps,
    slot widths or coefficient rows.  It is refused from counts and
    widths, before any map is expanded, for less than twice its own
    bytes."""
    program = _blob16_program(blob16, monkeypatch)
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    sections = dict(program.sections)
    craft(program, sections)
    blob = bytes(serialize_package(replace(program, sections=sections), DecoyPolicy(), seed=3))
    client = Client(CkksContext(SimParams()))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"asks for \d+ lanes from \d+ bytes, more than "
                                             rf"{protocol.MAX_LANES_PER_BYTE} a byte"):
            client.resolve_package(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(blob)
    assert protocol._PLAN_MEMO == {}


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
    coefficient row is its table, read through its map if it has one,
    times its scale, or with no table its scale in every lane."""
    rows = ([run.astype(np.float64) for run in protocol._runs(pkg["cmp_rows"][0], answers)]
            + protocol._runs(pkg["sqrt_rows"][0], roots))
    maps, coeffs = protocol._lane_maps(pkg), protocol._runs(*pkg["coeffs"])
    coeffs += [scale if k == protocol._NONE
               else (coeffs[k] if m == protocol._NONE else coeffs[k][maps[m]]) * scale
               for k, m, scale in pkg["refs"].tolist()]
    out = {}
    for name, (width, params, monos) in _slot_tables(pkg).items():
        vals = [rows[r] if m == protocol._NONE else rows[r][maps[m]]
                for r, m in params.tolist()]
        acc = None
        for ref, *refs in monos.tolist():
            factors = [vals[i] for i in refs if i != protocol._NONE]
            coeff = np.broadcast_to(coeffs[ref], width)  # a constant's, at the slot's width
            term = (deferred_graph.balanced_fold(factors, lambda x, y: x * y) * coeff
                    if factors else coeff)
            acc = term if acc is None else acc + term
        out[name] = 0.0 if acc is None else float(acc[0]) if width == 1 else acc
    return out


def _random_slot_tables(rng, widths, refs=False):
    """Random package sections, with each row's answers or roots back to
    back: comparison and sqrt rows of 1 lane or a slot's width, lane maps
    over 1-lane and full rows, half of them an earlier base map of their
    width shifted to fit where one does, coefficient tables holding signed zeros,
    and slots of 0 to 60 monomials of degree 0 to 6, with up to 3 sqrt
    factors, some of whose roots are nan.  Each width has one family of 2
    to 40 slots, which share their monomial table's shape and coefficient
    tables but not their parameters or factors, and one slot of its own,
    which half the time has the family's shape but other coefficient
    tables; the slots come in a shuffled order.  With ``refs``, each width
    also has 6 references, over two wider tables of their own, through
    maps of their own, 2 over its own tables, whole, and one constant,
    with scales of either sign, ±1 and -0.0 among them, and the slots'
    coefficients are drawn from the tables and the references of their
    width and the constants."""
    NONE = protocol._NONE
    bases, shifts = [], []  # the base maps, and each lane map's (base, shift)

    def lane_map(n, k):
        """k lanes into a row or table of n."""
        fits = [b for b, m in enumerate(bases) if len(m) == k and m.max() - m.min() < n]
        if fits and rng.random() < 0.5:
            b = fits[int(rng.integers(len(fits)))]
            shifts.append((b, int(rng.integers(-bases[b].min(), n - bases[b].max()))))
        else:
            bases.append(rng.integers(0, n, k))
            shifts.append((len(bases) - 1, 0))
        b, shift = shifts[-1]
        return bases[b] + shift

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
            maps.append(lane_map(n, int(rng.choice([1, w]))))
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
                    maps.append(lane_map(table_widths[-1], w))
                    scale = rng.choice([1.0, -1.0, -0.0, *(rng.standard_normal(3) * 0.3)])
                    weights.append((len(coeffs) - 1, len(maps) - 1, scale))
            for _ in range(2):
                scale = rng.choice([1.0, -1.0, -0.0, *(rng.standard_normal(3) * 0.3)])
                weights.append((widths.index(w) * 5 + int(rng.integers(0, 5)), NONE, scale))
            weights.append((NONE, NONE, rng.choice([1.0, -0.0, *(rng.standard_normal(2) * 0.3)])))
    # each width's coefficients: its tables, then its references; a
    # constant has every width
    ref_width = [None if k == NONE else table_widths[k] if m == NONE else len(maps[m])
                 for k, m, _ in weights]
    choices = {w: [k for k, tw in enumerate(table_widths) if tw == w]
               + [len(coeffs) + j for j, rw in enumerate(ref_width) if rw in (w, None)]
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
        "maps": ragged([m.astype(u4) for m in bases], u4),
        "shifts": np.array(shifts, dtype=protocol._SHIFT),
        "coeffs": ragged(coeffs, np.float64),
        "refs": np.array(weights, dtype=protocol._REF),
        "formed": np.zeros(0, dtype=protocol._FORMED),
        "slots": np.array([(w, monos.shape[1]) for _, (w, _, monos) in slots],
                          dtype=protocol._SLOT),
        "names": ragged([np.frombuffer(name.encode(), dtype=np.uint8) for name, _ in slots],
                        np.uint8),
        "params": ragged([params for _, (_, params, _) in slots], protocol._PARAM),
        "monomials": ragged([monos.ravel() for _, (_, _, monos) in slots], u4),
        "windows": np.zeros(0, dtype=protocol._WINDOW),
        "weights": ragged([], protocol._WEIGHT),
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
    # x and y, then u and w, from which [u > 0] and [w > 0] are formed
    assert (prog.leakage["coeff_tables"], prog.leakage["lane_maps"]) == (4, 1)
    pkg = parse_package(serialize_package(prog, DecoyPolicy(), seed=1))
    kx, ky, _, _ = protocol._runs(*pkg["coeffs"])
    assert kx.tobytes() == ky.tobytes()  # equal lanes, still two tables
    refs = {name: monos[:, 0].tolist() for name, (_, _, monos) in _slot_tables(pkg).items()}
    assert refs == {"a": [0], "b": [1], "c": [0]}  # x is one table for two slots
    assert [m.tolist() for m in protocol._lane_maps(pkg)] == [lane_map.tolist()]

    client = Client(ctx)
    run = run_deferred(lower(b, slots, ctx), client, seed=1)
    assert client.attributed_decrypts == 4  # each table once, and no records
    for name, e in slots.items():
        assert np.array_equal(run.results[name], PlainEvaluator(b).eval(e)), name


# (lhs, rhs) pairs whose difference is a tie, a signed zero, a subnormal
# or an overflow to +-inf: the client's [lhs - rhs > 0] must still be
# [lhs > rhs].  A build that flushes subnormals to zero answers the
# subnormal differences 0, and fails.  _SMALL holds signed zeros and
# subnormals for the comparisons with 0, whose arguments fold.
_TINY = 2.0 ** -1074
_SIGN_PAIRS = [
    (1.0, 1.0), (-3.5, -3.5), (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0),
    (2.0 ** -1070, 2.0 ** -1071), (2.0 ** -1071, 2.0 ** -1070),
    (-(2.0 ** -1071), -(2.0 ** -1070)), (_TINY, 0.0), (0.0, _TINY), (-0.0, -_TINY),
    (2.0 ** -1022, 2.0 ** -1022 - _TINY), (2.0 ** -1022 - _TINY, 2.0 ** -1022),
    (1.0, 1.0 + 2.0 ** -52), (1.0 + 2.0 ** -52, 1.0),
    (1.7e308, -1.7e308), (-1.7e308, 1.7e308), (1.7976931348623157e308, -1e300),
    (2.5, -7.0), (-7.0, 2.5),
]
_SMALL = [0.0, -0.0, _TINY, -_TINY, 2.0 ** -1071, -(2.0 ** -1070), 2.0 ** -1022 - _TINY]


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_the_client_answers_each_difference_as_its_operands_compare(mode):
    lhs, rhs = (np.array(side) for side in zip(*_SIGN_PAIRS))
    with np.errstate(over="ignore"):
        diffs = lhs - rhs
    assert (diffs == 0).sum() == 6 and np.isinf(diffs).sum() == 3
    assert ((diffs != 0) & (np.abs(diffs) < 2.0 ** -1022)).sum() == 8  # subnormal
    small = np.array(_SMALL)
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    # sides that are products ship as records, not as formed rows; z and
    # w are two nodes, since compare(0.0, z) would complement compare(z, 0.0)
    x, y, z, w = (b.mul(b.cipher(ctx.encrypt(v)), b.cipher(ctx.encrypt(np.ones(len(v)))))
                  for v in (lhs, rhs, small, small))
    slots = {"gt": b.compare(x, y), "pos": b.compare(z, 0.0), "neg": b.compare(0.0, w)}
    want = {"gt": np.greater(lhs, rhs), "pos": np.greater(small, 0.0),
            "neg": np.greater(0.0, small)}
    args = {name: b.comparisons[c.payload].arg for name, c in slots.items()}
    assert args["pos"] is z  # x - 0 folds to x itself, with no op
    assert args["neg"].op == "neg" and args["neg"].a is w  # 0 - x folds to one neg
    pe = PlainEvaluator(b)  # the reference answers from the operands
    for name, e in slots.items():
        assert np.array_equal(pe.eval(e), want[name]), name
    client = Client(ctx)
    with np.errstate(over="ignore"):
        if mode == "interactive":
            got = {k: ct.value for k, ct in run_interactive(ctx, b, slots, client).results.items()}
        else:
            prog = lower(b, slots, ctx)
            assert len(prog.comparisons) == 3 and not prog.formed
            got = run_deferred(prog, client).results
    for name in slots:
        assert np.array_equal(got[name], want[name]), name
    # the server's ops: the operands' products, the one subtraction and the one negation
    ops = ctx.snapshot_counts()
    assert (ops["mul"], ops["add"], ops["neg"]) == (2 * len(lhs) + 2 * len(small), len(lhs),
                                                    len(small))
    # one column of differences; a package's coefficients, 1.0, are constants
    assert client.attributed_decrypts == 1


def test_comparison_answers_are_encrypted_after_the_operands_are_freed(monkeypatch):
    ctx = CkksContext(SimParams(depth_budget=20))
    client = Client(ctx)
    recs = np.zeros(8, dtype=protocol.RECORD_DTYPE)
    recs["value"] = np.arange(8.0) - 3.5
    decrypted = []
    decrypt, encrypt = SecretKey.decrypt, CkksContext.encrypt

    def tracking_decrypt(sk, ct):
        out = decrypt(sk, ct)
        decrypted.append(weakref.ref(out))
        return out

    def checking_encrypt(self, x):
        assert all(ref() is None for ref in decrypted), "a decrypted column is still held"
        return encrypt(self, x)

    monkeypatch.setattr(SecretKey, "decrypt", tracking_decrypt)
    monkeypatch.setattr(CkksContext, "encrypt", checking_encrypt)
    blob = client.resolve_comparisons(np.array([20], dtype="<u4").tobytes() + recs.tobytes())
    assert len(blob) == 8 * protocol.RESP_DTYPE.itemsize
    assert len(decrypted) == client.attributed_decrypts == 1  # one column per batch
    assert ctx.snapshot_counts()["encrypt"] == 8
    # answer i is request i's, position for position
    resp = np.frombuffer(blob, dtype=protocol.RESP_DTYPE)
    assert np.array_equal(resp, (np.arange(8.0) > 3.5).astype(np.float64))


@pytest.mark.parametrize("kind,size,reason", [
    ("comparisons", 0, "shorter than its 4-byte level"),
    ("comparisons", 3, "shorter than its 4-byte level"),
    ("comparisons", 4 + 15, "not whole 8-byte records"),
    ("comparisons", 4 + 20, "not whole 8-byte records"),
    ("sqrts", 2, "shorter than its 4-byte level"),
    ("sqrts", 4 + 12, "not whole 8-byte records"),
])
def test_a_malformed_request_fails_with_a_reason(kind, size, reason):
    client = Client(CkksContext(SimParams(depth_budget=20)))
    resolve = getattr(client, f"resolve_{kind}")
    with pytest.raises(ValueError, match=reason):
        resolve(bytes(size))
    # a level, then whole records, is answered with one value per record
    assert len(resolve(bytes(4 + 3 * protocol.RECORD_DTYPE.itemsize))) == \
        3 * protocol.RESP_DTYPE.itemsize


def _formed_program(rng, noise: float):
    """A random program of comparisons over 2- to 8-lane leaves, each slot
    a comparison read directly or through a lane map, or a sum of two.

    Sides are constants (0.0 and -0.0 among them, and some a term side's
    own value at one lane, a tie there), one term or two:
    a term is c * reindex(T, map) or c * T, T a leaf or a linear node
    over leaves (a difference of two reads of one leaf, a scaled leaf, a
    negated sum), maps of 1 lane or the row's width, and scales c among
    ±1.0, 6.1e-17 and random ones.  Width-1 and non-linear comparisons
    are mixed in; they ship as records.  Returns (ctx, builder, slots,
    the formable comparisons, the record ones)."""
    ctx = CkksContext(SimParams(depth_budget=24, noise_per_mul=noise))
    b = GraphBuilder()
    n = int(rng.integers(2, 9))

    def values(k):
        v = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, k)
        v[rng.random(k) < 0.2] = 0.0
        return v

    leaves = [b.cipher(ctx.encrypt(values(n)), name=f"l{i}") for i in range(3)]

    def lane_map(k):
        return rng.integers(0, n, k)

    def reads(leaf):
        return b.sub(b.reindex(leaf, lane_map(n)), b.reindex(leaf, lane_map(n)))

    pixels = [*leaves, reads(leaves[0]), reads(leaves[2]),
              b.mul(b.plain(float(rng.standard_normal())), leaves[1]),
              b.neg(b.add(leaves[0], leaves[1]))]
    inner = pixels[3:]  # not leaves, so a sum of two terms over them splits

    def term(tables, width):
        t = tables[int(rng.integers(len(tables)))]
        if rng.random() < 0.6:
            t = b.reindex(t, lane_map(width))
        scale = rng.choice([1.0, -1.0, 6.123233995736766e-17, float(rng.standard_normal())])
        return b.mul(b.plain(scale), t)

    def side(width):
        kind = rng.integers(4)
        if kind == 0:
            return b.plain(float(rng.choice([0.0, -0.0, rng.standard_normal()])))
        if kind == 1:
            return term(pixels, width)
        add = b.sub if kind == 2 else b.add
        return add(term(inner, width), term(inner, width))

    formable, records = [], []
    for _ in range(int(rng.integers(4, 10))):
        width = n if rng.random() < 0.8 else 1
        lhs, rhs = side(width), side(width)
        if lhs.op == "plain" and rhs.op == "plain":
            continue
        if rng.random() < 0.3 and lhs.op != "plain":
            # a tie at one lane: the constant is lhs's value there, so
            # one rounding step either way flips that lane's answer
            at = int(rng.integers(lhs.width))
            rhs = b.plain(float(np.atleast_1d(PlainEvaluator(b).eval(lhs))[at]))
        c = b.compare(lhs, rhs)
        if c.op == "bool" and c not in formable:
            formable.append(c)
    # rows that read the same tables through the same maps and differ in
    # their scales alone, which the client forms in one pass, now and then
    # apart, with another formed row between them
    same, at = [pixels[int(rng.integers(len(pixels)))], pixels[3]], lane_map(n)
    for _ in range(int(rng.integers(2, 5))):
        row = b.compare(b.mul(b.plain(float(rng.standard_normal())), b.reindex(same[0], at)),
                        b.mul(b.plain(float(rng.standard_normal())), same[1]))
        between = b.compare(b.reindex(leaves[1], lane_map(n)), b.plain(0.25))
        for c in (row, between) if rng.random() < 0.3 else (row,):
            if c.op == "bool" and c not in formable:
                formable.append(c)
    scalar = b.cipher(ctx.encrypt(float(rng.standard_normal())), name="s")
    records.append(b.compare(scalar, b.plain(0.0)))  # a 1-lane leaf
    records.append(b.compare(b.mul(leaves[0], leaves[1]), b.plain(0.5)))  # not linear
    slots = {}
    for i, c in enumerate(formable + records):
        slots[f"c{i}"] = c
        if c.width > 1:
            slots[f"r{i}"] = b.reindex(c, lane_map(int(rng.choice([1, 2 * n]))))
    if formable:
        slots["sum"] = b.simplify(b.add(formable[0], formable[-1]))
    return ctx, b, slots, formable, records


@pytest.mark.parametrize("noise", [0.0, 1e-12])
def test_formed_answers_are_bit_identical_to_record_answers(noise, monkeypatch):
    """A formed comparison, answered by the client from pixel tables, gives
    every slot the bits the interactive run gets from records, in exact
    mode and with noise: a linear table draws no noise.  A width-1 or
    non-linear comparison still ships as records.  Rows that read the
    same tables are formed in one pass, block by block, every other
    program in blocks of 128 bytes, so that a pass spans several."""
    monkeypatch.setattr(protocol, "_PLAN_MEMO", {})
    rng = np.random.default_rng(28 + int(noise > 0))
    kinds = Counter()
    block_bytes = protocol._BLOCK_BYTES
    for trial in range(60):
        monkeypatch.setattr(protocol, "_BLOCK_BYTES", 128 if trial % 2 else block_bytes)
        ctx, b, slots, formable, records = _formed_program(rng, noise)
        prog = lower(b, slots, ctx)
        assert [c.id for c in prog.formed] == sorted(c.payload for c in formable)
        assert [c.id for c in prog.comparisons] == sorted(c.payload for c in records)
        for row in prog.sections["formed"]:
            for side in (row["lhs"], row["rhs"]):
                kinds[int(np.sum(side["table"] != protocol._NONE))] += 1
        ri = run_interactive(ctx, b, slots, Client(ctx), seed=trial)
        rd = run_deferred(prog, Client(ctx), seed=trial)
        for name in slots:
            want = np.asarray(ri.results[name].value, dtype=np.float64)
            assert np.asarray(rd.results[name]).tobytes() == want.tobytes(), (trial, name)
        passes = [blocks for blocks, _, _ in protocol._PLAN_MEMO.popitem()[1].formed]
        assert sum(n for blocks in passes for _, n, _ in blocks) == len(formable)
        kinds["blocks of rows apart"] += sum(n > 1 and isinstance(span, list)
                                             for blocks in passes for _, n, span in blocks)
        kinds["blocks of rows in a run"] += sum(n > 1 and isinstance(span, tuple)
                                                for blocks in passes for _, n, span in blocks)
        kinds["passes of several blocks"] += sum(len(blocks) > 1 for blocks in passes)
    assert min(kinds[0], kinds[1], kinds[2]) > 20  # constant, one- and two-term sides
    assert min(kinds["blocks of rows apart"], kinds["blocks of rows in a run"],
               kinds["passes of several blocks"]) > 5


def _formed_toy():
    """Two formed comparisons over a 6-lane leaf v, which ships as one
    table: [v[a] > 0.5] through a 3-lane map a, and [v > 1] whole."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    v = b.cipher(ctx.encrypt(np.array([1.0, -5.0, 2.5, 0.5, 3.0, -1.0])), name="v")
    y = b.cipher(ctx.encrypt(np.array([2.0, 7.0, -1.0])), name="y")
    z = b.cipher(ctx.encrypt(np.array([0.5, -4.0, 6.0])), name="z")
    slots = {"a": b.simplify(b.select(b.compare(b.reindex(v, np.array([0, 2, 4])), b.plain(0.5)),
                                      y, z)),
             "b": b.compare(v, b.plain(1.0))}
    return ctx, b, slots


def test_formed_comparisons_ship_as_rows_over_tables():
    ctx, b, slots = _formed_toy()
    prog = lower(b, slots, ctx)
    assert (prog.comparisons, len(prog.formed)) == ([], 2)
    blob = serialize_package(prog, DecoyPolicy(), seed=1)
    pkg = parse_package(blob)
    assert (len(pkg["comparisons"]), len(pkg["cmp_rows"][0])) == (0, 0)
    text = dump_package(blob)
    # v is table k2, after the slots' coefficient tables; slot b's
    # coefficient 1.0 is the constant reference x0
    assert "refs: 1\n  x0 = 1\n" in text
    assert "formed: 2\n  f0 = [k2[m0] * 1] > [0.5] width=3\n  f1 = [k2 * 1] > [1] width=6\n" in text
    assert "slot b: width=6\n  p0 = f1\n  p0 : x0\n" in text
    got = Client(ctx).resolve_package(blob)
    for name, e in slots.items():
        assert got[name].tobytes() == np.asarray(PlainEvaluator(b).eval(e)).tobytes(), name


def _formed_term(pkg):
    return pkg["formed"]["lhs"][0]


def _patch_term_table(pkg):
    _formed_term(pkg)["table"][0] = len(pkg["coeffs"][0])


def _patch_term_map(pkg):
    _formed_term(pkg)["map"][0] = len(pkg["maps"][0])


def _patch_term_map_past_its_table(pkg):
    lengths, lanes = pkg["maps"]
    lanes[int(lengths[:_formed_term(pkg)["map"][0]].sum())] = 6  # v has 6 lanes


def _patch_side_width(pkg):
    pkg["formed"]["width"][0] = 2  # its term reads 3 lanes


def _patch_absent_term_map(pkg):
    pkg["formed"]["rhs"][0]["map"][1] = 0


def _patch_row_wider_than_its_terms(pkg):
    # [v[a] > 0.5] becomes [0 > 0.5], which has no term to give it 3 lanes
    pkg["formed"]["lhs"][0]["table"][0] = pkg["formed"]["lhs"][0]["map"][0] = protocol._NONE


@pytest.mark.parametrize("patch,reason", [
    (_patch_term_table, "formed term's table .* out of range"),
    (_patch_term_map, "formed term's lane map .* out of range"),
    (_patch_term_map_past_its_table, "formed term's lane map reads past the end of its table"),
    (_patch_side_width, "side has neither 1 lane nor its row's width"),
    (_patch_absent_term_map, "absent term has a lane map"),
    (_patch_row_wider_than_its_terms, "width is not its widest term's"),
])
def test_parse_package_refuses_a_malformed_formed_comparison(patch, reason):
    ctx, b, slots = _formed_toy()
    blob = bytearray(serialize_package(lower(b, slots, ctx), seed=1))
    patch(parse_package(blob))
    with pytest.raises(ValueError, match=reason):
        parse_package(blob)
    with pytest.raises(ValueError, match=reason):
        Client(ctx).resolve_package(blob)


def _lanes_read(pkg) -> list[np.ndarray]:
    """Per table, which of its lanes some reader reads: a monomial or a
    formed term that reads it whole, or a reference or a formed term
    through its map."""
    maps, coeffs = protocol._lane_maps(pkg), protocol._runs(*pkg["coeffs"])
    read = [np.zeros(len(lanes), dtype=bool) for lanes in coeffs]
    for _, _, monos in _slot_tables(pkg).values():
        for k in monos[:, 0].tolist():
            if k < len(read):
                read[k][:] = True
    terms = np.concatenate([pkg["refs"], pkg["formed"]["lhs"].ravel(), pkg["formed"]["rhs"].ravel()])
    for k, m in terms[["table", "map"]].tolist():
        if k != protocol._NONE:
            read[k][slice(None) if m == protocol._NONE else maps[m]] = True
    return read


def test_every_shipped_table_lane_is_read(blob16, monkeypatch):
    """No table ships a lane that no formed comparison, reference or
    monomial reads: DoG layers 0 and s + 1, read only at the ring, ship
    64 of the block's 100 lanes.  The client is sent no pixel value a
    record did not carry before.  No table is a raw Gaussian level: a
    gradient ships as itself, the comparisons' own operand."""
    blobs = []
    serialize = protocol.serialize_package
    monkeypatch.setattr(protocol, "serialize_package",
                        lambda *args, **kw: blobs.append(bytes(serialize(*args, **kw))) or
                        serialize(*args, **kw))
    run_pipeline(blob16, PipelineConfig(octaves=1), mode="deferred", seed=3)
    pkg = parse_package(blobs[0])
    read = _lanes_read(pkg)
    assert all(r.all() for r in read)
    assert sorted(len(r) for r in read).count(64) == 2
    program = sift_pipeline.compile_circuit(blob16.shape, PipelineConfig(octaves=1),
                                            "deferred").program
    leaves = [e.payload for e, _ in program.coeff_nodes if e.op == "cipher"]
    assert sorted((src.pyramid, src.layer) for src in leaves) == [("dog", l) for l in range(5)]
    assert len(program.formed) == 222 == len(pkg["formed"])
    # the gradient tables each pair of boundary tests reads
    assert sum(e.width > 1 and e.op == "add" for e, _ in program.coeff_nodes) >= 6
