"""Pipeline behavior beyond the acceptance checks: configuration, stage
attribution, noisy-mode exclusion bands, slot-level mode agreement."""

import hashlib
import importlib.util
import itertools
from dataclasses import replace
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
from fhesift.errors import ConfigError, DepthExhausted
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
    # the protocol adds no ciphertext of its own to the level table.  In
    # deferred mode the client forms detection's and the descriptor's
    # comparisons from pixel tables, so detection evaluates nothing on the
    # server, and the descriptor only reads the squared magnitudes its
    # binned weights ship in, which the orientation stage computes
    idle = {"detect"} if mode == "deferred" else set()
    assert set(r.stage_min_level) == set(STAGES) - {"protocol"} - idle
    assert all(v >= 0 for ops in r.stage_ops.values() for v in ops.values())
    assert r.stage_min_level["scale-space"] == 28  # two blur levels per octave
    # a comparison's argument lhs - rhs is evaluated by the stage that
    # builds it: interactively, detection subtracts gathered DoG samples,
    # one add per comparison lane and nothing else; in a package the
    # client forms those, and the protocol itself runs no op
    if mode == "interactive":
        assert r.stage_ops["detect"] == {"add": r.cmp_lanes["detect"]}
        assert r.cmp_lanes["detect"] == 5352
    else:
        assert r.stage_ops["detect"] == {} and r.stage_ops["protocol"] == {}
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
    # a package ships records for localize's polynomial tests alone; the
    # client forms every other comparison from pixel tables
    assert r.rounds[0].n_real_comparisons == (
        want["localize"] if mode == "deferred" else sum(want.values()))
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
    # localize's +1.0 and -1.0 coefficients ship as two constant references
    one = run_pipeline(blob16, CFG16, mode="deferred", seed=SEED).report.leakage
    assert one == {"bool_params": 234, "formed_rows": 222, "sqrt_params": 0, "monomials": 711,
                   "coeff_tables": 29, "coeff_refs": 14, "lane_maps": 83, "windows": 492}
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
    "interactive": "05373b19c7d114909d2911a73b7b9e6b39855c6183c5f36c092f46dbc1089a4b",
    "deferred": "a12171169186602d87b2bbc0ad06f3b640b48f742060e7f474141a3e96b117c7",
}
BLOB16_PACKAGE_SHA256 = "17638b44a838e4c47c2a701a12b7c8e2963e9a242da5e09a6d8ef9c1dedf6760"
BLOB16_REPORT_SHA256 = {
    "interactive": "ac78f90b0cd32399fa10dc4af7f7442f52d80cde8c11cada3520c372f7734768",
    "deferred": "195dd5f2c469244247b03b881812a1ac59a76a020f268ed7a4b6330dea5cb9ec",
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


# sha256 of every blob16 interactive request batch at SEED, in the order
# sent, as (kind, bytes, digest): a batch's level, then its padded and
# shuffled records.  test_protocol.py's REQUEST_SHA256 pins a toy's
# batches of 8 and 16 lanes; these pin batches of a real image's size,
# up to 65,536 lanes, sqrt arguments among them.
BLOB16_REQUEST_SHA256 = {
    MAGNITUDE_SQUARED: [
        ("c", 262_148, "5a75e1391c66aaefc6e9b61e4327bc69d6d3a4f1119f90d9fd923d4f9a04ee17"),
        ("c", 16_388, "d792230c48f47512878e002d28efc7ccef10c0f36043ca4fda557700a87212fd"),
        ("c", 8_196, "650e6293f25e5795d5b6e73def112e8b299b95960862038a605de083512545f3"),
        ("c", 4_100, "2fef00a8d66f3862c3a7fefc24b0de1300ddbdacf19c7398c502aa50220f5743"),
        ("c", 4_100, "67e093e2753f9fc27dc1daac554d6a75bb0e15c13b46ebf6557d544207f7adfe"),
        ("c", 2_052, "b459837a013002d892f32a5253c9385e03c36ad3ff47b33865941f8f069c5c91"),
        ("c", 1_028, "8feb6ea98f476469eab8b6b1096428f3cd1200678e39df5a523aa7a53cd98c20"),
    ],
    SQRT_MAGNITUDE: [
        ("c", 262_148, "5a75e1391c66aaefc6e9b61e4327bc69d6d3a4f1119f90d9fd923d4f9a04ee17"),
        ("s", 4_100, "afcbcc6bee216651e6da268c46c750fb786549fa689c83912201d30d53fdd862"),
        ("c", 16_388, "c8a04e7ebcbfe908c90786156e2e85cebab2bd1068d9190f6d70fc5be43ec248"),
        ("c", 8_196, "f97db4dbbbf663a7c17c0470e6c9f6606134d9862f610c5ea4faad29e3cccbf1"),
        ("c", 4_100, "37c2343532018063ba0af6e3d18fed6eab173d99ec8ef7a7c9246a856e538ca4"),
        ("c", 4_100, "683dda6811e03bc4a6d1cbd5cc5358fe619cb40929cc3e84674a04bc6236aac6"),
        ("c", 2_052, "9f93eaad3fc3c825937aa56077cd6d7cbfdca83df4428d4b0c15329b3a7b6fdc"),
        ("c", 1_028, "81955b4167af56a7a2a419d1549ecee6a1e61471037d0ece5cfcc5485a9afe5d"),
    ],
}


@pytest.mark.parametrize("weighting", sorted(BLOB16_REQUEST_SHA256))
def test_blob16_interactive_requests_match_recorded_digests(blob16, monkeypatch, weighting):
    requests = []
    for kind in ("comparisons", "sqrts"):
        resolve = getattr(protocol.Client, f"resolve_{kind}")

        def recording(client, blob, kind=kind[0], resolve=resolve):
            requests.append((kind, len(blob), hashlib.sha256(blob).hexdigest()))
            return resolve(client, blob)

        monkeypatch.setattr(protocol.Client, f"resolve_{kind}", recording)
    out = run_pipeline(blob16, replace(CFG16, orientation_weighting=weighting),
                       mode="interactive", seed=SEED)
    assert requests == BLOB16_REQUEST_SHA256[weighting]
    assert len(out.keypoints) == 1


# The slot digests again with noise injected (noise_per_mul=1e-12).
# Noisy values depend on which multiplies run, in what order, and on
# their draws, so these pin all three, which exact-mode digests cannot.
# The report is the exact run's but for the keypoint count: noise moves
# no op count, level or leakage count, but it may flip a decision closer
# to its boundary than the noise.  blob16's one keypoint is 2e-13 from
# one, and these draws lose it (about half of all seeds do).
BLOB16_NOISY_SLOTS_SHA256 = {
    "interactive": "dfc5eb4151ed91ff6a7bcf5dbc729d82437203c0340ded94ae4385ce77a99086",
    "deferred": "f8af4cd4b0aa76489d11e35166a258c77b4cebddc988103e1ddf1033a7ea0f0c",
}


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_blob16_noisy_outputs_match_recorded_digests(blob16, mode):
    out = run_pipeline(blob16, CFG16, SimParams(noise_per_mul=1e-12), mode=mode, seed=SEED,
                       keep_slots=True)
    assert _slots_sha(out.slots) == BLOB16_NOISY_SLOTS_SHA256[mode]
    assert BLOB16_NOISY_SLOTS_SHA256[mode] != BLOB16_SLOTS_SHA256[mode]
    exact, margins = run_with_margins(blob16, CFG16)
    assert len(exact) == 1 and ambiguous_keypoints(margins, 1e-12) == {exact[0].key()}
    assert out.report.keypoint_count == 0
    report = render_kv(_flat_report(replace(out.report, keypoint_count=len(exact)))).encode()
    assert hashlib.sha256(report).hexdigest() == BLOB16_REPORT_SHA256[mode]


def test_blob16_client_decrypts_each_pooled_table_once(blob16):
    r = run_pipeline(blob16, CFG16, mode="deferred", seed=SEED).report
    kv = dict(_flat_report(r))
    tables = int(kv["leakage.coeff_tables"])
    sqrt_records = int(r.rounds[0].n_wire_sqrts > 0)
    # the one column of comparison differences, the sqrt arguments if
    # any, each table once
    assert r.client_decrypt_calls == int(kv["decrypts.client"]) == 1 + sqrt_records + tables
    assert tables < int(kv["leakage.monomials"])  # tables are shared, not per monomial
    # one lane map per position of the 8x8 descriptor window (orientation's
    # 5x5 positions are among them) and one per offset of detection's 3x3
    # neighbourhood into the ring; every layer index shares them.  The
    # formed ring tests read the DoG block through one map per offset
    # into it, and the sites through one more; the tests against DoG
    # layers 0 and s + 1 read their tables, narrowed to the ring, through
    # the ring maps again
    assert int(kv["leakage.lane_maps"]) == 64 + 9 + 9 + 1


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


def test_histograms_multiply_once_per_pixel_and_bin(blob16, suite_runs):
    """Each pixel's binned weight, mask_k * weight, is formed once per bin
    (3 multiplies a lane), and each bin is one window sum of them, which
    multiplies by public scales alone.  Where each bin multiplied per
    window position, blob16's interactive protocol and descriptor stages
    took 460,728 multiply lanes and natural64's 43,973,928.  blob16's
    region holds 169 pixels for its 36 sites, so its fall is the smaller."""

    def muls(report) -> int:
        return report.stage_ops["protocol"]["mul"] + report.stage_ops["descriptor"]["mul"]

    assert muls(run_pipeline(blob16, CFG16, mode="interactive", seed=SEED).report) == 68_568
    assert 68_568 <= 0.15 * 460_728
    assert muls(suite_runs["natural64", "interactive"].report) == 2_167_176 <= 3_000_000


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
                                            ("interactive", SQRT_MAGNITUDE),
                                            ("deferred", SQRT_MAGNITUDE)])
def test_wire_bytes_follow_from_lanes(blob16, monkeypatch, mode, weighting):
    """A record of either kind is 8 B (a comparison's difference, a sqrt's
    argument), a non-empty request batch's level 4 B and an answer 8 B,
    so ``len`` of every blob on the wire counts bytes, never lanes."""
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
            assert r.request_bytes == 8 * (r.n_wire_comparisons + r.n_wire_sqrts) + 4 * batches
            assert r.response_bytes == 8 * (r.n_wire_comparisons + r.n_wire_sqrts)
    else:
        ((r,), (pkg,)) = rounds, packages
        assert pkg["comparisons"].nbytes == 8 * r.n_wire_comparisons > 0
        assert pkg["sqrts"].nbytes == 8 * r.n_wire_sqrts
        assert r.response_bytes == 0


def test_wire_traffic_follows_from_shape_and_is_pinned(suite_runs, blob16, images):
    """Traffic depends on image shape and config alone, so its totals are
    pinned, at 8 B per record: any 64x64 image with the default config
    (the benchmark's natural64 workloads), and any 16x16 one at one
    octave (its small16).  A package ships each lane map as a (base,
    shift) entry over the base maps, and natural64's 83 maps have 15
    bases."""

    def wire(report) -> int:
        return sum(r.request_bytes + r.response_bytes for r in report.rounds)

    interactive = suite_runs["natural64", "interactive"].report
    assert (wire(interactive), len(interactive.rounds)) == (25_952_284, 7)
    deferred = suite_runs["natural64", "deferred"].report
    assert wire(deferred) == deferred.package_bytes == 1_965_952
    assert deferred.package_sections["comparisons"] == 8 * 65_536
    assert deferred.package_sections["maps"] + deferred.package_sections["shifts"] <= 250_000
    assert wire(run_pipeline(blob16, CFG16, mode="deferred", seed=SEED).report) == 178_864
    program = sift_pipeline.compile_circuit(images["natural64"].shape, config_for("natural64"),
                                            "deferred").program
    bases = protocol._runs(*program.sections["maps"])
    shifts = program.sections["shifts"].tolist()
    assert (len(bases), len(shifts)) == (15, len(program.lane_maps)) == (15, 83)
    for index, (base, shift) in zip(program.lane_maps, shifts):
        assert np.array_equal(index, bases[base].astype(np.intp) + shift)


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


def test_sqrt_weighting_asks_one_root_per_pixel(blob16, images):
    """One root per pixel of the region, per layer index, which each window
    position reads through its map: 3 roots over blob16's 3 x 169 pixels,
    where one per window position asked 75 over 2,700 lanes, and a
    natural64 package of 2,073,234 bytes, where those made it 7,090,624
    (shipping every lane map and weight in full, and each public constant
    coefficient as a table, made it 3,196,246)."""
    cfg = PipelineConfig(octaves=1, orientation_weighting=SQRT_MAGNITUDE)
    r = run_pipeline(blob16, cfg, mode="deferred", seed=SEED).report
    assert r.leakage["sqrt_params"] == 3
    assert (r.rounds[0].n_real_sqrts, r.rounds[0].n_wire_sqrts) == (3 * 169, 512)
    cfg = replace(config_for("natural64"), orientation_weighting=SQRT_MAGNITUDE)
    r = run_pipeline(images["natural64"], cfg, mode="deferred", seed=SEED).report
    assert r.package_bytes == 2_073_234


def test_sqrt_weighting_ships_deferred_in_one_round(blob16):
    """The window weights' roots feed the orientation histogram's sums
    alone, and in deferred mode the client takes the argmax, so no root
    feeds a comparison: the package ships them, and the client multiplies
    them into the sums as the server would have."""
    cfg = PipelineConfig(octaves=1, orientation_weighting=SQRT_MAGNITUDE)
    rp = run_pipeline(blob16, cfg, mode="plaintext")
    ri = run_pipeline(blob16, cfg, mode="interactive", seed=SEED, keep_slots=True)
    rd = run_pipeline(blob16, cfg, mode="deferred", seed=SEED, keep_slots=True)
    (only,) = rd.report.rounds
    assert only.n_real_sqrts > 0
    assert len(rp.keypoints) == 1
    assert compare_keypoints(rp.keypoints, rd.keypoints)["equal"]
    assert compare_keypoints(ri.keypoints, rd.keypoints, descriptor_tol=0.0)["equal"]
    shared = sorted(set(ri.slots) & set(rd.slots))
    assert shared
    for k in shared:
        assert np.array_equal(np.asarray(ri.slots[k]), np.asarray(rd.slots[k])), k


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
