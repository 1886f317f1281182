"""End-to-end command-line checks: option parsing, file outputs, exit codes."""

import pytest

from conftest import make_blob16

from fhesift import cli, deferred_graph
from fhesift.ckks_sim import CkksContext, SimParams
from fhesift.cli import main, parse_settings
from fhesift.deferred_graph import GraphBuilder
from fhesift.errors import ConfigError
from fhesift.pgm import format_pgm
from fhesift.protocol import lower
from fhesift.sift_pipeline import STAGES, keypoints_from_text

MODES = ("plaintext", "interactive", "deferred")


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("img") / "blob16.pgm"
    p.write_bytes(format_pgm(make_blob16(), maxval=65535))
    return p


@pytest.fixture(scope="module")
def mode_dirs(image_path, tmp_path_factory):
    outs = {}
    for mode in MODES:
        out = tmp_path_factory.mktemp(f"out_{mode}")
        rc = main(["run", str(image_path), "--mode", mode,
                   "--out", str(out), "--set", "octaves=1"])
        assert rc == 0
        outs[mode] = out
    return outs


# -- run ------------------------------------------------------------------------


def test_run_writes_all_outputs(mode_dirs):
    for mode, out in mode_dirs.items():
        kps = keypoints_from_text((out / "keypoints.txt").read_text())
        assert len(kps) >= 1, mode
        assert (out / "report.kv").read_text().startswith("mode = ")
        assert (out / "report.txt").stat().st_size > 0


def test_run_stdout_names_outputs(image_path, tmp_path, capsys):
    rc = main(["run", str(image_path), "--mode", "deferred",
               "--out", str(tmp_path / "o"), "--set", "octaves=1"])
    assert rc == 0
    out = capsys.readouterr().out
    n = len(keypoints_from_text((tmp_path / "o" / "keypoints.txt").read_text()))
    assert f"mode deferred: {n} keypoints, 1 round(s)" in out
    assert out.count("wrote ") == 3


def test_encrypted_reports_embed_oracle_agreement(mode_dirs):
    for mode in ("interactive", "deferred"):
        kv = (mode_dirs[mode] / "report.kv").read_text()
        assert "oracle.equal = True" in kv
        assert "decrypts.server = 0" in kv
    assert "oracle.equal" not in (mode_dirs["plaintext"] / "report.kv").read_text()


def test_identical_runs_are_byte_identical(image_path, tmp_path):
    """Also when one run writes its stage timings, which go elsewhere."""
    args = ["run", str(image_path), "--mode", "deferred", "--seed", "4",
            "--set", "octaves=1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b"),
                        "--timings", str(tmp_path / "timings.kv")]) == 0
    assert (tmp_path / "timings.kv").read_text().startswith("wall_s.")
    for name in ("keypoints.txt", "report.kv", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_timings_list_every_stage(image_path, tmp_path, capsys, mode):
    """A run that compiles its circuit also lists the compile; a run that
    finds it memoized does not."""
    for run, compiled in (("cold", True), ("warm", False)):
        timings = tmp_path / run / "timings.kv"
        assert main(["run", str(image_path), "--mode", mode, "--out", str(tmp_path / run),
                     "--set", "octaves=1", "--timings", str(timings)]) == 0
        assert f"wrote {timings}" in capsys.readouterr().out
        kv = dict(line.split(" = ") for line in timings.read_text().splitlines())
        assert sorted(kv) == sorted(f"wall_s.{stage}" for stage
                                    in STAGES + (("compile",) if compiled else ())), run
        assert all(float(seconds) >= 0.0 for seconds in kv.values())
        assert "wall_s" not in (tmp_path / run / "report.kv").read_text()


# -- diff -----------------------------------------------------------------------


def test_diff_accepts_matching_modes(mode_dirs, capsys):
    for a, b in (("interactive", "deferred"), ("plaintext", "deferred")):
        rc = main(["diff", str(mode_dirs[a] / "keypoints.txt"),
                   str(mode_dirs[b] / "keypoints.txt")])
        assert rc == 0, (a, b)
        assert "only-left 0  only-right 0" in capsys.readouterr().out


def test_diff_flags_a_dropped_keypoint(mode_dirs, tmp_path, capsys):
    lines = (mode_dirs["deferred"] / "keypoints.txt").read_text().splitlines()
    edited = tmp_path / "edited.txt"
    edited.write_text("\n".join(lines[1:]) + "\n")
    rc = main(["diff", str(mode_dirs["deferred"] / "keypoints.txt"), str(edited)])
    assert rc == 1
    assert "only left:" in capsys.readouterr().out


def test_diff_tolerance_is_adjustable(mode_dirs, tmp_path, capsys):
    lines = (mode_dirs["deferred"] / "keypoints.txt").read_text().splitlines()
    parts = lines[0].split()
    parts[5] = f"{float(parts[5]) + 2e-6:.6f}"  # nudge one descriptor entry
    lines[0] = " ".join(parts)
    edited = tmp_path / "nudged.txt"
    edited.write_text("\n".join(lines) + "\n")
    src = str(mode_dirs["deferred"] / "keypoints.txt")
    assert main(["diff", src, str(edited)]) == 1
    assert "descriptor:" in capsys.readouterr().out
    assert main(["diff", src, str(edited), "--descriptor-tol", "1e-4"]) == 0


# -- report ---------------------------------------------------------------------


def test_report_rerenders_saved_kv(mode_dirs, capsys):
    rc = main(["report", str(mode_dirs["deferred"] / "report.kv")])
    assert rc == 0
    assert capsys.readouterr().out == (mode_dirs["deferred"] / "report.txt").read_text()


def test_report_rejects_malformed_lines(tmp_path, capsys):
    bad = tmp_path / "r.kv"
    bad.write_text("mode = ok\nnonsense\n")
    assert main(["report", str(bad)]) == 1
    assert "expected 'key = value'" in capsys.readouterr().err


# -- settings -------------------------------------------------------------------


def test_parse_settings_routes_keys_to_the_right_config():
    sim, cfg = parse_settings([
        "depth_budget=12", "noise_per_mul=1e-9", "plain_mul_consumes_level=off",
        "octaves=2", "base_sigma=1.8",
    ])
    assert sim.depth_budget == 12
    assert sim.noise_per_mul == 1e-9
    assert sim.plain_mul_consumes_level is False
    assert cfg.octaves == 2 and cfg.base_sigma == 1.8
    dsim, dcfg = parse_settings(None)
    assert dsim.depth_budget == 30 and dcfg.octaves == 3


def test_parse_settings_errors():
    with pytest.raises(ConfigError, match="known options"):
        parse_settings(["octave=2"])
    with pytest.raises(ConfigError, match="known options"):
        parse_settings(["descriptor_grid=4,4,8"])
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_settings(["octaves"])
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_settings(["plain_mul_consumes_level=maybe"])
    with pytest.raises(ConfigError):
        parse_settings(["octaves=0"])
    with pytest.raises(ConfigError):
        parse_settings(["depth_budget=tall"])
    for bad in ("contrast_threshold=nan", "edge_threshold=inf", "base_sigma=-inf",
                "noise_per_mul=nan", "noise_per_mul=inf"):
        with pytest.raises(ConfigError, match="finite"):
            parse_settings([bad])


# -- exit codes -----------------------------------------------------------------


def test_missing_image_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.pgm")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_image_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P9\n2 2\n255\n")
    assert main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_setting_exits_1(image_path, tmp_path, capsys):
    rc = main(["run", str(image_path), "--out", str(tmp_path / "o"),
               "--set", "contrast_threshold=nan"])
    assert rc == 1
    assert "contrast_threshold must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_depth_exhaustion_exits_2(image_path, tmp_path, capsys):
    rc = main(["run", str(image_path), "--out", str(tmp_path / "o"),
               "--set", "octaves=1", "--set", "depth_budget=2"])
    assert rc == 2
    assert "depth budget exhausted in localize" in capsys.readouterr().err


def test_oversized_normal_form_exits_1(image_path, tmp_path, capsys, monkeypatch):
    # the pipeline's largest product multiplies 144 term pairs
    monkeypatch.setattr(deferred_graph, "MAX_PRODUCT_TERMS", 100)
    rc = main(["run", str(image_path), "--mode", "deferred",
               "--out", str(tmp_path / "o"), "--set", "octaves=1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: normal form of node ")
    assert "more than the 100 allowed" in err
    assert not (tmp_path / "o").exists()


def test_undeferrable_program_exits_3(image_path, tmp_path, capsys, monkeypatch):
    """A program only interactive rounds can run exits 3.  No pipeline
    config lowers to one, so the run lowers a comparison of a select on
    another comparison's answer, which ``lower`` refuses."""

    def undeferrable(*args, **kwargs):
        ctx, b = CkksContext(SimParams()), GraphBuilder()
        x, y = b.cipher(ctx.encrypt(1.0)), b.cipher(ctx.encrypt(2.0))
        lower(b, {"out": b.compare(b.select(b.compare(x, y), x, y), b.plain(1.5))})

    monkeypatch.setattr(cli, "run_pipeline", undeferrable)
    rc = main(["run", str(image_path), "--mode", "deferred",
               "--out", str(tmp_path / "o"), "--set", "octaves=1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot defer: comparison ")
    assert "depends on other unresolved parameters" in err
    assert not (tmp_path / "o").exists()


def test_unknown_mode_is_rejected_by_the_parser(image_path):
    with pytest.raises(SystemExit):
        main(["run", str(image_path), "--mode", "hybrid"])
