"""Pipeline behavior beyond the acceptance checks: configuration, stage
attribution, noisy-mode exclusion bands, slot-level mode agreement."""

import hashlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from conftest import ALL_NAMES, CFG32, SEED, SYNTHETIC_NAMES, config_for, make_blob16

from fhesift import (
    PipelineConfig,
    SimParams,
    compare_keypoints,
    keypoints_from_text,
    keypoints_to_text,
    oracle,
    protocol,
    run_pipeline,
    sift_pipeline,
)
from fhesift.cli import _flat_report, render_kv
from fhesift.errors import ConfigError, DeferralUnsupported, DepthExhausted
from fhesift.oracle import ambiguous_keypoints, ambiguous_sites, run_with_margins, site_of
from fhesift.sift_pipeline import (
    MAGNITUDE_SQUARED,
    MARGIN,
    SQRT_MAGNITUDE,
    STAGES,
    Keypoint,
    parse_keypoint_line,
    validate_image,
)

CFG16 = PipelineConfig(octaves=1)


# -- configuration ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(octaves=0)
    with pytest.raises(ConfigError):
        PipelineConfig(scales_per_octave=0)
    with pytest.raises(ConfigError):
        PipelineConfig(base_sigma=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(orientation_bins=2)
    with pytest.raises(ConfigError):
        PipelineConfig(orientation_weighting="cubed")
    # a nan field would also make the config unequal to itself
    for name in ("base_sigma", "contrast_threshold", "edge_threshold"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                PipelineConfig(**{name: bad})
    with pytest.raises(ConfigError):
        run_pipeline(np.zeros((16, 16)), mode="hybrid")
    with pytest.raises(ConfigError, match="unknown mode"):
        run_pipeline(np.zeros((16, 16)), mode="plaintext-oracle")


def test_sigma_ladder_doubles_over_an_octave():
    cfg = PipelineConfig()
    s = cfg.sigmas()
    assert len(s) == cfg.scales_per_octave + 3
    assert s[0] == cfg.base_sigma
    assert s[cfg.scales_per_octave] == pytest.approx(2.0 * cfg.base_sigma)


def test_validate_image():
    with pytest.raises(ConfigError):
        validate_image(np.zeros(16))
    with pytest.raises(ConfigError):
        validate_image(np.full((4, 4), np.nan))
    out = validate_image([[0.0, 1.0], [0.5, 0.25]])
    assert out.dtype == np.float64 and out.shape == (2, 2)


# -- keypoint serialization ----------------------------------------------------------


def test_keypoint_text_round_trip():
    kp = Keypoint(x=12.25, y=3.5, octave=1, scale=1.75, orientation_bin=9,
                  descriptor=tuple(float(i) / 7 for i in range(128)))
    back = parse_keypoint_line(kp.line())
    assert back.key() == kp.key()
    assert back.descriptor == pytest.approx(kp.descriptor, abs=1e-6)
    kps = [kp, Keypoint(1.0, 2.0, 0, 1.0, 3, (0.0,) * 128)]
    assert [k.key() for k in keypoints_from_text(keypoints_to_text(kps))] == \
        [k.key() for k in kps]
    with pytest.raises(ValueError):
        parse_keypoint_line("1.0 2.0 0")


def test_compare_keypoints_reports_asymmetries():
    a = Keypoint(1.0, 2.0, 0, 1.0, 3, (1.0, 0.0))
    b = Keypoint(1.0, 2.0, 0, 1.0, 3, (1.0, 1e-6))
    c = Keypoint(5.0, 5.0, 0, 1.0, 4, (0.5, 0.5))
    d = compare_keypoints([a, c], [b])
    assert d["matched"] == 1
    assert d["only_a"] == [c.key()]
    assert d["only_b"] == []
    assert d["descriptor_mismatches"] == [a.key()]
    assert d["max_descriptor_diff"] == pytest.approx(1e-6)
    assert not d["equal"]
    assert compare_keypoints([a], [a])["equal"]


# -- mode agreement on small images --------------------------------------------------


def test_three_modes_agree_on_16px_blob(blob16):
    rp = run_pipeline(blob16, CFG16, mode="plaintext")
    ri = run_pipeline(blob16, CFG16, mode="interactive", seed=SEED)
    rd = run_pipeline(blob16, CFG16, mode="deferred", seed=SEED)
    assert len(rp.keypoints) == 1
    assert compare_keypoints(rp.keypoints, ri.keypoints)["equal"]
    # the two encrypted modes walk identical float ops: no tolerance at all
    assert compare_keypoints(ri.keypoints, rd.keypoints, descriptor_tol=0.0)["equal"]


def _rect_image() -> np.ndarray:
    """20x28 single-blob image; its second octave, 10x14, has no site."""
    yy, xx = np.mgrid[0:20, 0:28].astype(np.float64)
    return np.clip(0.02 + 0.001 * xx + 0.0007 * yy
                   + 0.9 * np.exp(-((yy - 9.3) ** 2 + (xx - 13.6) ** 2) / 18.0), 0, 1)


def test_rectangular_images_work():
    img = _rect_image()
    rp = run_pipeline(img, CFG16, mode="plaintext")
    rd = run_pipeline(img, CFG16, mode="deferred", seed=SEED)
    assert len(rp.keypoints) >= 1
    assert compare_keypoints(rp.keypoints, rd.keypoints)["equal"]


def test_an_octave_without_sites_is_left_out_of_the_batch():
    cfg = PipelineConfig(octaves=2)
    img = _rect_image()
    rp = run_pipeline(img, cfg, mode="plaintext")
    assert len(rp.keypoints) >= 1
    for mode in ("interactive", "deferred"):
        out = run_pipeline(img, cfg, mode=mode, seed=SEED, keep_slots=True)
        # the first octave alone forms each layer's batch
        assert {k.split("/")[0] for k in out.slots} == {"o0l1", "o0l2", "o0l3"}
        assert {len(v) for v in out.slots.values()} == {(20 - 2 * MARGIN) * (28 - 2 * MARGIN)}
        assert compare_keypoints(rp.keypoints, out.keypoints)["equal"], mode


def test_identical_runs_are_byte_identical_and_seed_independent(blob16):
    a = run_pipeline(blob16, CFG16, mode="deferred", seed=5)
    b = run_pipeline(blob16, CFG16, mode="deferred", seed=5)
    assert keypoints_to_text(a.keypoints) == keypoints_to_text(b.keypoints)
    assert a.report.package_bytes == b.report.package_bytes
    # the protocol seed shuffles wire traffic, never results
    c = run_pipeline(blob16, CFG16, mode="interactive", seed=9)
    assert keypoints_to_text(c.keypoints) == keypoints_to_text(a.keypoints)


def _tied_dog(shape, layers: int) -> np.ndarray:
    """DoG layers 0..layers+1 of small integers on a zero background, which
    fails the contrast test.  Each planted 3x3x3 block centres a site on 3
    over neighbours of 2 (or on -3 over -2).  Per layer and sign, three of
    the four blocks also raise one neighbour to the centre's value: in the
    layer, below or above.  Localization accepts every block, so only the
    strictness of the extremum test rejects the tied ones."""
    dog = np.zeros((layers + 2, *shape))
    blocks = list(itertools.product(range(1, layers + 1), (1.0, -1.0),
                                    (None, (0, 0, 1), (-1, 0, 0), (1, 0, 0))))
    spots = list(itertools.product(range(6, shape[0] - 6, 4), range(6, shape[1] - 6, 4)))
    assert len(spots) >= len(blocks)
    for (l, sign, tie), (y, x) in zip(blocks, spots):
        dog[l - 1:l + 2, y - 1:y + 2, x - 1:x + 2] = 2 * sign
        dog[l, y, x] = 3 * sign
        if tie is not None:
            dl, dy, dx = tie
            dog[l + dl, y + dy, x + dx] = 3 * sign
    return dog


def test_strict_extrema_survive_ties(images, monkeypatch):
    cfg = PipelineConfig(octaves=1)
    img = images["blob32"]
    s = cfg.scales_per_octave
    dog = _tied_dog(img.shape, s)

    # not vacuous: sites that pass the contrast test and equal their
    # largest, or their smallest, neighbour
    (h, w), m = img.shape, MARGIN
    tied_max = tied_min = 0
    for l in range(1, s + 1):
        v = dog[l, m:h - m, m:w - m]
        nbrs = np.stack([dog[l + dl, m + dy:h - m + dy, m + dx:w - m + dx]
                         for dl, dy, dx in itertools.product((-1, 0, 1), repeat=3)
                         if (dl, dy, dx) != (0, 0, 0)])
        tie = (np.abs(v) > cfg.contrast_threshold) & np.any(nbrs == v, axis=0)
        tied_max += np.sum(tie & np.all(v >= nbrs, axis=0))
        tied_min += np.sum(tie & np.all(v <= nbrs, axis=0))
    assert tied_max and tied_min

    scale_space, scale_space_cipher = oracle.scale_space, sift_pipeline._scale_space_cipher

    def tied(img, cfg):
        gauss, _, dims = scale_space(img, cfg)
        return gauss, [list(dog)], dims

    def tied_cipher(ctx, img_ct, cfg):
        gauss, _, dims = scale_space_cipher(ctx, img_ct, cfg)
        return gauss, [[ctx.encrypt(d) for d in dog]], dims

    monkeypatch.setattr(oracle, "scale_space", tied)
    monkeypatch.setattr(sift_pipeline, "_scale_space_cipher", tied_cipher)
    kps = {mode: run_pipeline(img, cfg, mode=mode, seed=SEED).keypoints
           for mode in ("plaintext", "interactive", "deferred")}
    assert len(kps["plaintext"]) == 2 * s  # the untied blocks, one per layer and sign
    for mode in ("interactive", "deferred"):
        assert compare_keypoints(kps["plaintext"], kps[mode])["equal"], mode


# -- stage attribution ----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_tiny_budget_dies_in_localization(blob16, mode):
    with pytest.raises(DepthExhausted) as ei:
        run_pipeline(blob16, CFG16, SimParams(depth_budget=2), mode=mode, seed=SEED)
    assert ei.value.stage == "localize"


def test_budget_ten_only_breaks_the_interactive_tournament(blob16):
    sim = SimParams(depth_budget=10)
    with pytest.raises(DepthExhausted) as ei:
        run_pipeline(blob16, CFG16, sim, mode="interactive", seed=SEED)
    assert ei.value.stage == "orient"
    out = run_pipeline(blob16, CFG16, sim, mode="deferred", seed=SEED)
    assert out.report.keypoint_count == 1


def test_second_octave_blurs_exhaust_a_three_level_budget(images):
    with pytest.raises(DepthExhausted) as ei:
        run_pipeline(images["blob32"], CFG32, SimParams(depth_budget=3),
                     mode="deferred", seed=SEED)
    assert ei.value.stage == "scale-space"


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_reports_carry_per_stage_tables(blob16, mode):
    r = run_pipeline(blob16, CFG16, mode=mode, seed=SEED).report
    assert set(r.stage_ops) == set(STAGES)
    # the protocol adds no ciphertext of its own to the level table
    assert set(r.stage_min_level) == set(STAGES) - {"protocol"}
    assert all(v >= 0 for ops in r.stage_ops.values() for v in ops.values())
    assert r.stage_min_level["scale-space"] == 28  # two blur levels per octave
    # detection compares gathered DoG samples and does no arithmetic
    assert r.stage_ops["detect"] == {}
    assert min(r.stage_min_level.values()) >= 0


def _octave_sites(shape, cfg: PipelineConfig) -> list[tuple[int, int, int]]:
    """(height, width, interior sites) of each octave's DoG layers."""
    (h, w), out = shape, []
    for _ in range(cfg.octaves):
        out.append((h, w, max(h - 2 * MARGIN, 0) * max(w - 2 * MARGIN, 0)))
        h, w = (h + 1) // 2, (w + 1) // 2
    return out


def _closed_form_cmp_lanes(shape, cfg: PipelineConfig) -> dict:
    # comparisons are asked once per pixel of the region the descriptor
    # window covers, not once per window position; a fallback to
    # per-position comparisons would multiply orient and descriptor
    want = dict.fromkeys(("detect", "localize", "orient", "descriptor"), 0)
    layers = cfg.scales_per_octave
    for h, w, sites in _octave_sites(shape, cfg):
        if not sites:
            continue
        pixels = (h - 3) * (w - 3)  # sites widened by the window -4..3
        ring = (h - 8) * (w - 8)  # sites widened by one sample
        # each ordered pair of adjacent site-layer samples once over the
        # ring: 8 in-layer offsets per layer, 9 per ordered pair of adjacent
        # layers.  At the sites: the 36 tests against DoG layers 0 and s + 1,
        # which hold no sites, and 2 contrast tests per layer.  A fallback
        # to per-site neighbour tests would ask 54 per site and layer
        want["detect"] += (8 * layers + 18 * (layers - 1)) * ring + (36 + 2 * layers) * sites
        want["localize"] += 4 * sites * layers  # three offset bounds and the edge test
        want["orient"] += cfg.orientation_bins * pixels * layers
        # 8 boundaries every 45 degrees; the 4 at multiples of 90 are orient's
        want["descriptor"] += 4 * pixels * layers
    return want


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_comparison_lanes_follow_the_closed_form(blob16, mode):
    r = run_pipeline(blob16, CFG16, mode=mode, seed=SEED).report
    want = _closed_form_cmp_lanes(blob16.shape, CFG16)
    assert r.cmp_lanes == want
    assert r.rounds[0].n_real_comparisons == sum(want.values())
    kv = dict(_flat_report(r))
    assert {k: int(kv[f"cmp_lanes.{k}"]) for k in want} == want


@pytest.mark.parametrize("name", ["blob32", "natural64"])
def test_comparison_lanes_sum_the_closed_form_over_octaves(suite_runs, images, name):
    want = _closed_form_cmp_lanes(images[name].shape, config_for(name))
    for mode in ("interactive", "deferred"):
        assert suite_runs[(name, mode)].report.cmp_lanes == want, mode


def test_package_structure_does_not_depend_on_the_octave_count(suite_runs, blob16):
    # one graph per layer index batches every octave's sites, so the 32 px
    # runs (two octaves) and natural64 (three) ship what one octave ships
    one = run_pipeline(blob16, CFG16, mode="deferred", seed=SEED).report.leakage
    assert one == {"bool_params": 234, "sqrt_params": 0, "monomials": 8919,
                   "coeff_tables": 20, "coeff_refs": 528, "lane_maps": 73}
    for name in ALL_NAMES:
        assert suite_runs[(name, "deferred")].report.leakage == one, name


@pytest.mark.parametrize("name", ["blob32", "natural64"])
def test_slot_tables_are_split_back_per_octave_and_layer(suite_runs, images, name):
    cfg = config_for(name)
    sites = [n for _, _, n in _octave_sites(images[name].shape, cfg)]
    want = {f"o{o}l{l}" for o, n in enumerate(sites) if n
            for l in range(1, cfg.scales_per_octave + 1)}
    for mode in ("interactive", "deferred"):
        slots = suite_runs[(name, mode)].slots
        assert {k.split("/")[0] for k in slots} == want, mode
        for k, v in slots.items():
            assert len(v) == sites[int(k[1:k.index("l")])], (mode, k)


# sha256 of every blob16 slot (name, then little-endian float64 lanes, in
# name order) and of the deferred package.  Exact-mode outputs are a
# contract: reorganizing how the server evaluates must leave them unchanged.
# The package digest also pins which comparison records ship and the
# package layout, so it changes whenever either does, even with every slot
# unchanged.  The report digest (``report.kv`` as the CLI writes it) pins
# the per-stage accounting: op counts, minimum levels, comparison lanes,
# leakage counts and decrypts.
BLOB16_SLOTS_SHA256 = {
    "interactive": "3009a0f001f858af0fab65dce5ccb9b10b6bd1ab1df9de758c923c11933efd91",
    "deferred": "9a1e337e87bd44d6435980460f1b14acf4bae18f69b637b2f13895e7a6ed7629",
}
BLOB16_PACKAGE_SHA256 = "322f3bca1361de92ddbe28fd30f5534b4b55b3f60a30217c5c2055e47918596e"
BLOB16_REPORT_SHA256 = {
    "interactive": "b28b7d1147150ccedcc514a289a950998946c9cfa178500f2dab619887ca0522",
    "deferred": "5520e05e0c1c63812e2f7be972378056114afc3b2ca34ad1e0304cf3eb286f63",
}


def _slots_sha(slots: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(slots):
        h.update(name.encode())
        h.update(np.ascontiguousarray(slots[name], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_blob16_outputs_match_recorded_digests(blob16, monkeypatch, mode):
    serialize = protocol.serialize_package
    packages = []

    def recording_serialize(*args, **kwargs):
        blob = serialize(*args, **kwargs)
        packages.append(hashlib.sha256(blob).hexdigest())
        return blob

    monkeypatch.setattr(protocol, "serialize_package", recording_serialize)
    out = run_pipeline(blob16, CFG16, mode=mode, seed=SEED, keep_slots=True)
    assert _slots_sha(out.slots) == BLOB16_SLOTS_SHA256[mode]
    assert packages == ([BLOB16_PACKAGE_SHA256] if mode == "deferred" else [])
    report = render_kv(_flat_report(out.report)).encode()
    assert hashlib.sha256(report).hexdigest() == BLOB16_REPORT_SHA256[mode]


# The slot digests again with noise injected (noise_per_mul=1e-12, which
# flips no decision on blob16).  Noisy values depend on which multiplies
# run, in what order, and on their draws, so these pin all three, which
# exact-mode digests cannot.  The report is the exact run's: noise moves
# no op count, level or leakage count.
BLOB16_NOISY_SLOTS_SHA256 = {
    "interactive": "829e0fece9b1e6cc0c297b60b1cbc421f8c3d46ba142d09650017a8ac18f1825",
    "deferred": "96667f06d9134c8e9735201a3196c285cdac4332f508a32cdffda05565f97ba1",
}


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_blob16_noisy_outputs_match_recorded_digests(blob16, mode):
    out = run_pipeline(blob16, CFG16, SimParams(noise_per_mul=1e-12), mode=mode, seed=SEED,
                       keep_slots=True)
    assert _slots_sha(out.slots) == BLOB16_NOISY_SLOTS_SHA256[mode]
    assert BLOB16_NOISY_SLOTS_SHA256[mode] != BLOB16_SLOTS_SHA256[mode]
    report = render_kv(_flat_report(out.report)).encode()
    assert hashlib.sha256(report).hexdigest() == BLOB16_REPORT_SHA256[mode]


def test_blob16_client_decrypts_each_pooled_table_once(blob16):
    r = run_pipeline(blob16, CFG16, mode="deferred", seed=SEED).report
    kv = dict(_flat_report(r))
    tables = int(kv["leakage.coeff_tables"])
    sqrt_records = int(r.rounds[0].n_wire_sqrts > 0)
    # both operand columns, the sqrt arguments if any, each table once
    assert r.client_decrypt_calls == int(kv["decrypts.client"]) == 2 + sqrt_records + tables
    assert tables < int(kv["leakage.monomials"])  # tables are shared, not per monomial
    # one lane map per position of the 8x8 descriptor window (orientation's
    # 5x5 positions are among them) and one per offset of detection's 3x3
    # neighbourhood into the ring; every layer index shares them
    assert int(kv["leakage.lane_maps"]) == 64 + 9


@pytest.mark.parametrize("name", ["blob16", "natural64"])
def test_package_bytes_per_part_sum_to_the_package(suite_runs, blob16, name):
    report = (run_pipeline(blob16, CFG16, mode="deferred", seed=SEED).report if name == "blob16"
              else suite_runs[name, "deferred"].report)
    kv = dict(_flat_report(report))
    parts = {k.split(".", 1)[1]: int(v) for k, v in kv.items() if k.startswith("package_bytes.")}
    assert list(parts) == ["header", *(section for section, *_ in protocol._SECTIONS)]
    assert sum(parts.values()) == int(kv["package_bytes"]) == report.package_bytes
    # each window weight is one 16-byte reference
    assert parts["refs"] == 16 * int(kv["leakage.coeff_refs"]) > 0


# -- orientation weighting variants ----------------------------------------------------


def test_sqrt_weighting_runs_interactively_and_matches(blob16):
    cfg = PipelineConfig(octaves=1, orientation_weighting=SQRT_MAGNITUDE)
    rp = run_pipeline(blob16, cfg, mode="plaintext")
    ri = run_pipeline(blob16, cfg, mode="interactive", seed=SEED)
    assert len(rp.keypoints) == 1
    assert compare_keypoints(rp.keypoints, ri.keypoints)["equal"]
    # resolving roots mid-histogram needs an extra round
    assert ri.report.dependency_depth == len(ri.report.rounds)


@pytest.mark.parametrize("mode,weighting", [("interactive", MAGNITUDE_SQUARED),
                                            ("deferred", MAGNITUDE_SQUARED),
                                            ("interactive", SQRT_MAGNITUDE)])
def test_wire_bytes_follow_from_lanes(blob16, monkeypatch, mode, weighting):
    """A comparison record is 16 B, a sqrt record 8 B, a non-empty request
    batch's level 4 B and an answer 8 B, so ``len`` of every blob on the
    wire counts bytes, never lanes."""
    serialize = protocol.serialize_package
    packages = []

    def parsing_serialize(*args, **kwargs):
        blob = serialize(*args, **kwargs)
        packages.append(protocol.parse_package(blob))
        return blob

    monkeypatch.setattr(protocol, "serialize_package", parsing_serialize)
    cfg = PipelineConfig(octaves=1, orientation_weighting=weighting)
    rounds = run_pipeline(blob16, cfg, mode=mode, seed=SEED).report.rounds
    assert any(r.n_wire_sqrts for r in rounds) == (weighting == SQRT_MAGNITUDE)
    if mode == "interactive":
        assert not packages
        for r in rounds:
            batches = (r.n_wire_comparisons > 0) + (r.n_wire_sqrts > 0)
            assert r.request_bytes == 16 * r.n_wire_comparisons + 8 * r.n_wire_sqrts + 4 * batches
            assert r.response_bytes == 8 * (r.n_wire_comparisons + r.n_wire_sqrts)
    else:
        ((r,), (pkg,)) = rounds, packages
        assert pkg["comparisons"].nbytes == 16 * r.n_wire_comparisons > 0
        assert pkg["sqrts"].nbytes == 8 * r.n_wire_sqrts
        assert r.response_bytes == 0


def test_batches_ship_at_their_lowest_operand_level_which_follows_from_shape(suite_runs):
    """Every record batch on the wire, interactive or in a package, ships
    at the lowest level among its real operands, and that level follows
    from the image's shape and config alone, never from its pixels."""
    batches = suite_runs["batches"]
    for key, got in batches.items():
        assert got, key
        assert all(shipped == lowest for shipped, lowest in got), key
    for mode in ("interactive", "deferred"):
        levels = [[shipped for shipped, _ in batches[name, mode]] for name in SYNTHETIC_NAMES]
        assert all(same == levels[0] for same in levels), mode
    # the header is no constant: natural64's operands sit below full depth
    (cmp_level,) = [shipped for shipped, _ in batches["natural64", "deferred"]]
    assert cmp_level < SimParams().depth_budget


def test_sqrt_weighting_cannot_ship_deferred(blob16):
    cfg = PipelineConfig(octaves=1, orientation_weighting=SQRT_MAGNITUDE)
    with pytest.raises(DeferralUnsupported):
        run_pipeline(blob16, cfg, mode="deferred", seed=SEED)


# -- shared slots across modes ----------------------------------------------------------


def test_shared_slots_are_bitwise_equal_across_modes(suite_runs):
    si = suite_runs[("blob32", "interactive")].slots
    sd = suite_runs[("blob32", "deferred")].slots
    shared = sorted(set(si) & set(sd))
    assert shared  # masks, determinants, numerators, weight sums, descriptors
    assert not any(k.split("/")[1].startswith("oh") for k in shared)
    for k in shared:
        assert np.array_equal(np.asarray(si[k]), np.asarray(sd[k])), k


def test_onehot_masks_are_exact_indicator_rows(suite_runs):
    slots = suite_runs[("blob32", "interactive")].slots
    oh = [k for k in slots if k.split("/")[1].startswith("oh")]
    assert oh
    by_layer: dict = {}
    for k in oh:
        by_layer.setdefault(k.split("/")[0], []).append(k)
    for layer, keys in by_layer.items():
        stack = np.stack([np.asarray(slots[k]) for k in sorted(keys)])
        assert np.array_equal(np.unique(stack), [0.0, 1.0])
        assert np.all(stack.sum(axis=0) == 1.0)


# -- noisy arithmetic and exclusion bands -------------------------------------------------


def test_noise_only_flips_decisions_inside_the_ambiguity_band(images):
    img = images["blob32"]
    exact_kps, margins = run_with_margins(img, CFG32)
    noisy = run_pipeline(img, CFG32, SimParams(noise_per_mul=1e-12),
                         mode="interactive", seed=SEED)
    eps = 1e-6
    amb_sites = ambiguous_sites(margins, eps)
    amb_kps = ambiguous_keypoints(margins, eps)

    exact_sites = {site_of(kp) for kp in exact_kps}
    noisy_sites = {site_of(kp) for kp in noisy.keypoints}
    assert (exact_sites ^ noisy_sites) <= amb_sites

    noisy_bins = {site_of(kp): kp.orientation_bin for kp in noisy.keypoints}
    for kp in exact_kps:
        site = site_of(kp)
        if kp.key() in amb_kps or site in amb_sites:
            continue
        assert site in noisy_bins
        assert noisy_bins[site] == kp.orientation_bin


def test_exact_mode_has_no_ambiguous_decisions(images):
    for name in ("blob32", "two_blobs32", "ramp_h32"):
        _, margins = run_with_margins(images[name], CFG32)
        assert ambiguous_sites(margins, 0.0) == set()
        assert ambiguous_keypoints(margins, 0.0) == set()


def test_the_benchmark_tracer_finds_every_name_it_rebinds():
    """benchmarks/tracing.py times a run by rebinding names where their
    callers look them up; a rename in the package must leave none of
    them dangling, and the harness's own tests are not in tier 1."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) > 20
    for owner, attr, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner, attr)
