"""Acceptance suite: the package's shipped guarantees, one test per line.

Each test pins a user-facing contract at its stated tolerance and time
budget, so `pytest -v` on this file reads as a pass/fail checklist:
depth laws for the max kernels, comparison merging in the lowered form,
deferred-vs-interactive-vs-plaintext agreement, rational and histogram
correctness against float oracles, conservation invariants, pipeline
mode equivalence, round accounting, traffic indistinguishability, and
the no-decrypt server property.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_NAMES, SYNTHETIC_NAMES, config_for

from fhesift import (
    CipherEvaluator,
    CkksContext,
    Client,
    DecoyPolicy,
    GraphBuilder,
    PlainEvaluator,
    SimParams,
    lower,
    parse_package,
    run_deferred,
    run_interactive,
    serialize_package,
)
from fhesift.deferred_graph import format_normal_form
from fhesift.kernels import bin_mask, bin_mask_tan, running_max, vec_max
from fhesift.oracle import ambiguous_keypoints, run_with_margins
from fhesift.sift_pipeline import compare_keypoints

GOLDEN = Path(__file__).parent / "goldens"
ENCRYPTED = ("interactive", "deferred")


def test_c01_max_kernels_meet_the_exact_depth_law():
    # tournament max spends ceil(log2 N) select-levels, the running chain
    # spends N; integer-valued inputs keep every select arithmetically exact
    t0 = time.perf_counter()
    ctx = CkksContext(SimParams(depth_budget=300))
    rng = np.random.default_rng(0)
    vals = rng.integers(-1000, 1000, 256).astype(np.float64)
    sizes = [2, 4, 8, 16, 32, 64, 128, 256]

    def consumed_levels(make_root):
        b = GraphBuilder()
        xs = [b.cipher(ctx.encrypt(float(v))) for v in vals]
        roots = {n: make_root(b, xs[:n]) for n in sizes}
        pe = PlainEvaluator(b)
        bool_cts = {c.id: ctx.encrypt(pe.bool_value(c)) for c in b.comparisons}
        ce = CipherEvaluator(ctx, b, bool_cts=bool_cts)
        out = {}
        for n, root in roots.items():
            ct = ce.eval(root)
            assert ct.value == vals[:n].max(), n
            out[n] = 300 - ct.level
        return out

    assert consumed_levels(lambda b, xs: vec_max(b, xs)) == \
        {n: math.ceil(math.log2(n)) for n in sizes}
    assert consumed_levels(lambda b, xs: running_max(b, xs, seed=-2000.0)) == \
        {n: n for n in sizes}
    assert time.perf_counter() - t0 < 1.0


def test_c02_lowering_collapses_to_two_comparison_requests():
    # (x>y)*c + (z>w)*d + (y>=x)*e: the third factor is the complement of
    # the first, so two requests cover it and the residual is
    # {c1: c-e, c2: d, 1: e}
    t0 = time.perf_counter()
    ctx = CkksContext(SimParams(depth_budget=30))
    b = GraphBuilder()
    v = {k: b.cipher(ctx.encrypt(float(i + 1)), name=k) for i, k in enumerate("xyzwcde")}
    expr = b.add(
        b.add(b.mul(b.compare(v["x"], v["y"]), v["c"]),
              b.mul(b.compare(v["z"], v["w"]), v["d"])),
        b.mul(b.compare(v["y"], v["x"]), v["e"]),
    )
    assert len(b.comparisons) == 2

    pe = PlainEvaluator(b)
    coeffs = {tuple(sorted(k)): float(pe.eval(c)) for k, c in b.normal_form(expr).items()}
    # with x..e bound to 1..7: c-e = -2, d = 6, e = 7
    assert coeffs == {(): 7.0, (("b", 0),): -2.0, (("b", 1),): 6.0}

    prog = lower(b, {"expr": expr}, ctx)
    wire = parse_package(serialize_package(prog, DecoyPolicy(enabled=False), seed=0))
    assert len(wire["comparisons"]) == 2
    assert format_normal_form(b, {"expr": expr}) == (GOLDEN / "lowering_nf.txt").read_text()
    assert time.perf_counter() - t0 < 1.0


def test_c03_deferred_interactive_and_plaintext_agree_on_random_programs():
    t0 = time.perf_counter()
    ctx = CkksContext(SimParams(depth_budget=24))
    rng = np.random.default_rng(1234)

    def gen_expr(b, leaves):
        cmps = [0]
        sqrts = [0]

        def pure(depth):
            r = rng.random()
            if depth <= 0 or r < 0.3:
                if rng.random() < 0.25:
                    return b.plain(round(float(rng.uniform(-1.25, 1.25)), 3))
                return leaves[int(rng.integers(len(leaves)))]
            if r < 0.5:
                return b.add(pure(depth - 1), pure(depth - 1))
            if r < 0.7:
                return b.sub(pure(depth - 1), pure(depth - 1))
            if r < 0.9:
                return b.mul(pure(depth - 1), pure(depth - 1))
            return b.neg(pure(depth - 1))

        def impure(depth):
            r = rng.random()
            if depth <= 0 or r < 0.2:
                return pure(min(depth, 3))
            if r < 0.45 and cmps[0] < 4:
                cmps[0] += 1
                c = b.compare(pure(2), pure(2))
                return b.select(c, impure(depth - 2), impure(depth - 2))
            if r < 0.55 and sqrts[0] < 2:
                sqrts[0] += 1
                e = pure(2)
                # x*x + 0.25 stays positive, so the root is always real
                return b.sqrt_deferred(b.add(b.mul(e, e), b.plain(0.25)))
            if r < 0.7:
                return b.add(impure(depth - 1), impure(depth - 1))
            if r < 0.85:
                return b.sub(impure(depth - 1), impure(depth - 1))
            if r < 0.95:
                return b.mul(impure(depth - 1), impure(depth - 1))
            return b.neg(impure(depth - 1))

        return impure(8)

    n_builders, per = 50, 200
    for bi in range(n_builders):
        b = GraphBuilder()
        leaves = [b.cipher(ctx.encrypt(float(rng.uniform(-1.25, 1.25)))) for _ in range(6)]
        slots = {f"s{si}": gen_expr(b, leaves) for si in range(per)}
        pe = PlainEvaluator(b)
        plain = {k: float(pe.eval(e)) for k, e in slots.items()}
        ri = run_interactive(ctx, b, slots, Client(ctx), seed=bi)
        rd = run_deferred(lower(b, slots, ctx), Client(ctx), seed=bi)
        for k, p in plain.items():
            assert np.isfinite(p), (bi, k)
            iv = float(ri.results[k].value)
            dv = float(rd.results[k])
            scale = max(1.0, abs(p))
            assert abs(iv - p) / scale < 1e-9, (bi, k, p, iv)
            assert abs(dv - p) / scale < 1e-9, (bi, k, p, dv)
    assert time.perf_counter() - t0 < 30.0


def test_c04_rational_comparisons_match_float_division():
    t0 = time.perf_counter()
    ctx = CkksContext(SimParams(depth_budget=30))
    rng = np.random.default_rng(77)
    n_lanes = 10_000
    n1 = rng.uniform(-10, 10, n_lanes)
    n2 = rng.uniform(-10, 10, n_lanes)

    def dens():
        d = rng.uniform(1e-3, 10, n_lanes) * rng.choice([-1.0, 1.0], n_lanes)
        small = rng.random(n_lanes) < 0.1
        d[small] = rng.uniform(1e-9, 1e-6, small.sum()) * rng.choice([-1.0, 1.0], small.sum())
        return d

    d1, d2 = dens(), dens()
    for sign_mode in ("known", "unknown"):
        b = GraphBuilder()
        en1, en2 = b.cipher(ctx.encrypt(n1)), b.cipher(ctx.encrypt(n2))
        if sign_mode == "known":
            r = b.rational_div(en1, b.cipher(ctx.encrypt(np.abs(d1))), "positive")
            s = b.rational_div(en2, b.cipher(ctx.encrypt(-np.abs(d2))), "negative")
            oracle = (n1 / np.abs(d1)) < (n2 / (-np.abs(d2)))
        else:
            r = b.rational_div(en1, b.cipher(ctx.encrypt(d1)))
            s = b.rational_div(en2, b.cipher(ctx.encrypt(d2)))
            oracle = (n1 / d1) < (n2 / d2)
        got = np.asarray(PlainEvaluator(b).eval(b.rational_lt(r, s)), dtype=bool)
        # unknown signs cost one [den > 0] probe plus a single orientation
        assert len(b.comparisons) == (1 if sign_mode == "known" else 2)
        assert np.array_equal(got, oracle), sign_mode
    assert time.perf_counter() - t0 < 5.0


@pytest.fixture(scope="module")
def circle_masks():
    """100k random gradients through the full-circle 36-bin masks."""
    t0 = time.perf_counter()
    n_bins, n_lanes = 36, 100_000
    rng = np.random.default_rng(99)
    dx = rng.uniform(-4, 4, n_lanes)
    dy = rng.uniform(-4, 4, n_lanes)
    ang = np.mod(np.arctan2(dy, dx), 2 * math.pi)
    want = np.floor(ang / (2 * math.pi / n_bins)).astype(int) % n_bins
    margin = np.full(n_lanes, np.inf)
    for j in range(n_bins):
        a = 2 * math.pi * j / n_bins
        margin = np.minimum(margin, np.abs(math.cos(a) * dy - math.sin(a) * dx))

    ctx = CkksContext(SimParams(depth_budget=10))
    b = GraphBuilder()
    masks = bin_mask(b, b.cipher(ctx.encrypt(dx)), b.cipher(ctx.encrypt(dy)), n_bins)
    pe = PlainEvaluator(b)
    vals = np.stack([np.asarray(pe.eval(m), dtype=float) for m in masks])
    return {"vals": vals, "want": want, "keep": margin > 1e-9,
            "elapsed": time.perf_counter() - t0}


def test_c05_bin_masks_match_the_arctan2_oracle(circle_masks):
    t0 = time.perf_counter()
    vals, want, keep = circle_masks["vals"], circle_masks["want"], circle_masks["keep"]
    got = vals.argmax(axis=0)
    assert np.array_equal(got[keep], want[keep])
    assert np.all(vals[want[keep], np.flatnonzero(keep)] == 1.0)

    # the cheaper tan-form on the dx > 0 half-plane: tangents repeat with
    # period pi, so the true bin fires together with its mirror, and the
    # steep-negative wedge (bin 27) straddles the discontinuity and dies
    n_bins, n_lanes = 36, 100_000
    rng = np.random.default_rng(7)
    dx = rng.uniform(0.05, 4, n_lanes)
    dy = rng.uniform(-4, 4, n_lanes)
    ang = np.mod(np.arctan2(dy, dx), 2 * math.pi)
    want2 = np.floor(ang / (2 * math.pi / n_bins)).astype(int) % n_bins
    margin = np.full(n_lanes, np.inf)
    for j in range(n_bins):
        t = math.tan(2 * math.pi * j / n_bins)
        if abs(t) > 1e6:
            continue
        margin = np.minimum(margin, np.abs(dy - t * dx))
    keep2 = margin > 1e-9

    ctx = CkksContext(SimParams(depth_budget=10))
    b = GraphBuilder()
    masks = bin_mask_tan(b, b.cipher(ctx.encrypt(dx)), b.cipher(ctx.encrypt(dy)), n_bins)
    pe = PlainEvaluator(b)
    vals2 = np.stack([np.asarray(pe.eval(m), dtype=float) for m in masks])
    sums = vals2.sum(axis=0)
    live = keep2 & (want2 != 27)
    assert np.all(vals2[want2[live], np.flatnonzero(live)] == 1.0)
    assert np.all(sums[live] == 2.0)
    assert np.array_equal(vals2.argmax(axis=0)[live], want2[live] % 18)
    assert np.all(sums[keep2 & (want2 == 27)] == 0.0)
    assert circle_masks["elapsed"] + time.perf_counter() - t0 < 10.0


def test_c06_masks_are_one_hot_and_histograms_conserve_weight(circle_masks, suite_runs):
    sums = circle_masks["vals"].sum(axis=0)
    assert float(np.max(np.abs(sums - 1.0))) <= 1e-6

    for name in ALL_NAMES:
        si = suite_runs[(name, "interactive")].slots
        for p in sorted(k.split("/")[0] for k in si if k.endswith("/wsum")):
            oh = np.stack([np.asarray(si[f"{p}/oh{k:02d}"]) for k in range(36)])
            assert float(np.max(np.abs(oh.sum(axis=0) - 1.0))) <= 1e-6, (name, p)

        sd = suite_runs[(name, "deferred")].slots
        for p in sorted(k.split("/")[0] for k in sd if k.endswith("/wsum")):
            bins = np.stack([np.asarray(sd[f"{p}/bin{k:02d}"]) for k in range(36)])
            wsum = np.asarray(sd[f"{p}/wsum"])
            assert float(np.max(np.abs(bins.sum(axis=0) - wsum))) <= 1e-6, (name, p)


def test_c07_all_three_modes_find_the_same_keypoints(suite_runs, images):
    exclusions = {}
    for name in ALL_NAMES:
        rp = suite_runs[(name, "plaintext")]
        ri = suite_runs[(name, "interactive")]
        rd = suite_runs[(name, "deferred")]
        pi = compare_keypoints(rp.keypoints, ri.keypoints)
        assert pi["equal"], (name, pi)
        idf = compare_keypoints(ri.keypoints, rd.keypoints, descriptor_tol=0.0)
        assert idf["equal"], (name, idf)

        _, margins = run_with_margins(images[name], config_for(name))
        excl = ambiguous_keypoints(margins, 0.0)
        exclusions[name] = sorted(excl)
        if name in SYNTHETIC_NAMES:
            assert excl == set(), name
    print("boundary exclusions by image:", exclusions)
    assert len(suite_runs[("blob32", "plaintext")].keypoints) >= 1
    assert len(suite_runs[("natural64", "plaintext")].keypoints) >= 1
    assert suite_runs["elapsed"] < 300.0


def test_c08_deferred_is_one_round_and_interactive_tracks_depth(suite_runs):
    for name in ALL_NAMES:
        rd = suite_runs[(name, "deferred")].report
        assert len(rd.rounds) == 1, name
        ri = suite_runs[(name, "interactive")].report
        assert len(ri.rounds) == ri.dependency_depth, name


def test_c09_same_size_images_are_indistinguishable_by_accounting(suite_runs):
    def wire(report):
        return [(r.n_real_comparisons, r.n_real_sqrts, r.n_wire_comparisons,
                 r.n_wire_sqrts, r.request_bytes, r.response_bytes)
                for r in report.rounds]

    for mode in ENCRYPTED:
        ra = suite_runs[("blob32", mode)].report
        rb = suite_runs[("two_blobs32", mode)].report
        assert ra.stage_ops == rb.stage_ops, mode
        assert wire(ra) == wire(rb), mode
    assert suite_runs[("blob32", "deferred")].report.package_bytes == \
        suite_runs[("two_blobs32", "deferred")].report.package_bytes


def test_c10_the_server_path_never_decrypts(suite_runs):
    for name in ALL_NAMES:
        for mode in ENCRYPTED:
            report = suite_runs[(name, mode)].report
            assert report.server_decrypt_calls == 0, (name, mode)
            assert report.client_decrypt_calls > 0, (name, mode)
