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
                            "coeff_tables": 3, "lane_maps": 0}
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
    pool = {v for pair in pairs for v in pair}
    assert set(pkg["comparisons"]["lhs"]) <= pool
    assert set(pkg["comparisons"]["rhs"]) <= pool
    # a record's wire id is its position: each comparison's row points at
    # its own operands, among the decoys
    positions = [int(ids[0]) for ids in pkg["rows"]]
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
    assert set(pkg["slots"]) == {"pick", "root"}
    pick = pkg["slots"]["pick"]
    assert pick["width"] == 1
    assert len(pick["params"]) == 1
    assert pick["params"]["row"][0] < pkg["cmp_rows"]  # a comparison row
    assert len(pick["monomials"]) == 2
    with pytest.raises(ValueError):
        parse_package(b"JUNKJUNK" + bytes(16))
    blob = bytes(serialize_package(prog, seed=1))
    for old in (b"DCGPKG01", b"DCGPKG02"):  # the layouts with record ids
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
    assert set(parse_package(blob)["slots"]) == {"pick", "root"}
    with pytest.raises(ValueError):
        parse_package(blob + bytes(4))
    with pytest.raises(ValueError):
        Client(ctx).resolve_package(blob + bytes(4))


def _patch_cmp_row(pkg):
    pkg["rows"][0][0] = len(pkg["comparisons"])


def _patch_sqrt_row(pkg):
    pkg["rows"][pkg["cmp_rows"]][0] = len(pkg["sqrts"])


def _patch_param_row(pkg):
    pkg["slots"]["pick"]["params"]["row"][0] = len(pkg["rows"])


def _patch_param_map(pkg):
    pkg["slots"]["pick"]["params"]["map"][0] = len(pkg["maps"])  # the toy ships none


def _patch_coeff_ref(pkg):
    pkg["slots"]["pick"]["monomials"][0, 0] = len(pkg["coeffs"])


def _patch_param_index(pkg):
    monos = pkg["slots"]["pick"]["monomials"]
    monos[monos[:, 1] != protocol._NONE, 1] = len(pkg["slots"]["pick"]["params"])


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
    parse_package(blob)["slots"]["a"]["params"]["map"][0] = protocol._NONE


@pytest.mark.parametrize("toy,patch", [
    pytest.param(_select4, _patch_slot_width, id="slot_width"),
    pytest.param(lambda: _reindex_toy(), _patch_unmapped_param, id="unmapped_param"),
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
    pkg["maps"][0][0] = len(pkg["rows"][0])
    with pytest.raises(ValueError, match="past the end"):
        parse_package(blob)


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


# sha256 digests of the sectioned layout (DCGPKG03); its records are
# those of the layouts before it, less the id that was always their
# position.  The wire format is a contract, so any change to them is a
# format change
PACKAGE_SHA256 = {
    (True, 0): "96a2c0a6ac4d8f080117b9c5b7867ef6b9236ab7ab2f30b38367055818ba104c",
    (True, 7): "aac68e4e7732077f535ca1fd169441bd5925c4cd16eba58ed3adb2727bf1571e",
    (False, 0): "e81b903d2fe4fab2f3f230c17f07c88cdba52e3e06ed9aeb1ecd0d1cf2c82fa2",
}
REQUEST_SHA256 = [
    ("c", "cbed3e420d7c1f3fe43efec6785d879a71f06b3430e65e62649ff0497b4f7017"),
    ("s", "9004efeecffac0b418b023cffa0c780bf3634ed95ad0193fc6ef63a095b32beb"),
    ("c", "b19218a4e1dbb52d6feaac55ad4ddcce6c961a76c3925691815ad23382e3776f"),
    ("c", "0261df3f68df928a794a076266246b1367bc046edcb5b377352b48ecf277b445"),
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


def _reindex_toy():
    """One six-lane comparison read through two lane maps and directly."""
    ctx = CkksContext(SimParams(depth_budget=20))
    b = GraphBuilder()
    v = b.cipher(ctx.encrypt(np.array([1.0, -5.0, 2.5, -0.5, 3.0, -1.0])), name="v")
    y = b.cipher(ctx.encrypt(np.array([2.0, 7.0, -1.0])), name="y")
    z = b.cipher(ctx.encrypt(np.array([0.5, -4.0, 6.0])), name="z")
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
    rows, maps = pkg["rows"], pkg["maps"]
    return [(rows[r] if m == protocol._NONE else rows[r][maps[m]]).tolist()
            for r, m in pkg["slots"][slot]["params"].tolist()]


def test_reindexed_parameters_share_their_comparisons_wire_ids():
    ctx, b, c, maps, slots = _reindex_toy()
    want = {name: PlainEvaluator(b).eval(e) for name, e in slots.items()}
    prog = lower(b, slots, ctx)
    assert [cmp.id for cmp in prog.comparisons] == [c.payload]
    pkg = parse_package(serialize_package(prog, DecoyPolicy(), seed=4))
    assert len(pkg["comparisons"]) == 8  # six real lanes, padded once
    assert len(pkg["rows"]) == 1  # one wire-id row, for the one comparison
    (direct,) = _param_ids(pkg, "direct")
    assert direct == pkg["rows"][0].tolist()
    a_ids = np.array(direct)[maps["a"]].tolist()
    assert _param_ids(pkg, "a") == [a_ids]
    assert _param_ids(pkg, "b") == [a_ids, np.array(direct)[maps["b"]].tolist()]
    # slots "a" and "b" both read through maps["a"]; it ships once
    assert [m.tolist() for m in pkg["maps"]] == [maps["a"].tolist(), maps["b"].tolist()]

    rd = run_deferred(lower(b, slots, ctx), Client(ctx), seed=4)
    assert rd.rounds[0].n_real_comparisons == 6
    ev = CipherEvaluator(ctx, b)
    ri = run_interactive(ctx, b, slots, Client(ctx), seed=4, evaluator=ev)
    assert [(r.n_real_comparisons, r.n_wire_comparisons) for r in ri.rounds] == [(6, 8)]
    # one answer per source lane, gathered
    assert CipherEvaluator(ctx, b).declare(slots.values()) == [c]
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
    assert ev.declare(slots.values()) == [c1, s, c2]
    ev.eval(arg)  # asked for once, by its request
    with pytest.raises(ValueError, match="more often than declared"):
        ev.eval(arg)

    # answers given to the constructor are not asked again, nor are their
    # operands declared
    pe = PlainEvaluator(b)
    answered = CipherEvaluator(ctx, b, {c1.payload: ctx.encrypt(pe.eval(c1))},
                               {s.payload: ctx.encrypt(pe.eval(s))})
    assert answered.declare(slots.values()) == [c2]
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


@pytest.mark.parametrize("toy", [_reindex_toy, _wire_toy])
def test_lowered_program_evaluates_as_the_client_resolves_its_package(toy):
    """``LoweredProgram.evaluate`` on plaintext answers and the client on
    the shuffled, decoy-padded package share one slot evaluator."""
    ctx, b, *_, slots = toy()
    prog = lower(b, slots, ctx)
    pe = PlainEvaluator(b)
    bools = {cmp.id: pe.bool_value(cmp) for cmp in prog.comparisons}
    sqrts = {sid: np.sqrt(pe.eval(b.sqrts[sid].arg)) for sid in prog.sqrt_args}
    got = prog.evaluate(bools, sqrts)
    wire = run_deferred(prog, Client(ctx), DecoyPolicy(enabled=True), seed=3).results
    assert list(got) == list(wire) == sorted(slots)
    for name in slots:
        assert type(got[name]) is type(wire[name]), name
        assert np.asarray(got[name]).tobytes() == np.asarray(wire[name]).tobytes(), name


def _reference_slots(slots, rows, maps, coeffs):
    """The slot sum written out monomial by monomial: each product of float
    factors folds as a balanced tree, is multiplied by its coefficient
    row, and terms add left to right.  ``rows`` holds every row's float
    lanes, comparison rows first."""
    out = {}
    for name, slot in slots.items():
        vals = [rows[r] if m == protocol._NONE else rows[r][maps[m]]
                for r, m in slot["params"].tolist()]
        acc = None
        for ref, *refs in slot["monomials"].tolist():
            factors = [vals[i] for i in refs if i != protocol._NONE]
            term = (deferred_graph.balanced_fold(factors, lambda x, y: x * y) * coeffs[ref]
                    if factors else coeffs[ref])
            acc = term if acc is None else acc + term
        out[name] = 0.0 if acc is None else float(acc[0]) if slot["width"] == 1 else acc
    return out


def _random_slot_tables(rng, widths):
    """Random package tables: comparison and sqrt rows of 1 lane or a
    slot's width, lane maps over 1-lane and full rows, coefficient tables
    holding signed zeros, and slots of 0 to 60 monomials of degree 0 to 6,
    with up to 3 sqrt factors, some of whose roots are nan."""
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
    slots = {}
    for i, (w, mine) in enumerate(zip(widths * 2, reads * 2)):
        cmp_reads = [p for p in mine if p[0] < len(lengths)]
        sqrt_reads = [p for p in mine if p[0] >= len(lengths)]
        picked = [cmp_reads[j] for j in rng.permutation(len(cmp_reads))[:6]]
        n_cmp = len(picked)
        picked += [sqrt_reads[j] for j in rng.permutation(len(sqrt_reads))[:rng.integers(0, 4)]]
        params = np.array(picked, dtype=protocol._PARAM)
        degree = int(rng.integers(0, 7))
        n_monos = 12 if w == 1 and i == 0 else int(rng.integers(0, 61))
        tables = [k for k, tw in enumerate(table_widths) if tw == w]
        monos = np.full((n_monos, 1 + degree), NONE, dtype=np.uint32)
        for m in range(n_monos):
            # half the monomials take every sqrt factor the slot has
            mono = list(range(n_cmp, len(picked))) if rng.random() < 0.5 else []
            d = int(rng.integers(0, max(degree - len(mono), 0) + 1))
            mono += rng.permutation(n_cmp)[:d].tolist()
            monos[m, 0] = rng.choice(tables)
            mono = sorted(mono)[:degree]
            monos[m, 1:1 + len(mono)] = mono
        slots[f"s{i}"] = {"width": w, "params": params, "monomials": monos}
    return slots, answers, np.array(lengths), roots, maps, coeffs, table_widths


@pytest.mark.parametrize("widths", [[1], [2], [37], [1, 2, 37]])
def test_slot_evaluator_matches_the_monomial_fold_bitwise(widths):
    rng = np.random.default_rng(sum(widths))
    for _ in range(40):
        tables = _random_slot_tables(rng, widths)
        slots, answers, lengths, roots, maps, coeffs, table_widths = tables
        starts = np.concatenate([[0], np.cumsum(lengths)])
        rows = [answers[a:b].astype(np.float64) for a, b in zip(starts, starts[1:])] + roots
        want = _reference_slots(slots, rows, maps, coeffs)
        got = protocol._evaluate_slots(slots, answers, lengths, roots, maps, table_widths,
                                       lambda k: coeffs[k])
        assert list(got) == list(want)
        for name in want:
            assert type(got[name]) is type(want[name]), name
            assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name


@pytest.mark.parametrize("answer", [0.5, 2.0, -1.0, -0.0, np.nan])
def test_evaluate_rejects_an_answer_that_is_not_zero_or_one(answer):
    ctx, b, slots = _toy()
    prog = lower(b, slots, ctx)
    assert prog.evaluate({0: 1.0}, {0: 3.0}) == {"pick": 4.0, "root": 3.0}
    with pytest.raises(ValueError, match="exactly 0.0 or 1.0"):
        prog.evaluate({0: answer}, {0: 3.0})


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
    assert len(pkg["coeffs"]) == 2
    (kx, _), (ky, _) = pkg["coeffs"]
    assert kx.tobytes() == ky.tobytes()  # equal lanes, still two tables
    refs = {name: pkg["slots"][name]["monomials"][:, 0].tolist() for name in slots}
    assert refs == {"a": [0], "b": [1], "c": [0]}  # x is one table for two slots
    assert [m.tolist() for m in pkg["maps"]] == [lane_map.tolist()]

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
    blob = client.resolve_comparisons(recs.tobytes())
    assert len(blob) == 8 * protocol.RESP_DTYPE.itemsize
    assert len(decrypted) == client.attributed_decrypts == 2
    assert ctx.snapshot_counts()["encrypt"] == 8
    # answer i is request i's, position for position
    resp = np.frombuffer(blob, dtype=protocol.RESP_DTYPE)
    assert np.array_equal(resp, (np.arange(8.0) > 3.5).astype(np.float64))
