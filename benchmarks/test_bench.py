"""Tests of the benchmark harness: inputs, correctness gates, tracing and
the structural baseline.

Run from the repository root with ``python3 -m pytest benchmarks``.
test_structural_baseline runs two natural64 images and peaks near 3 GB.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run_bench  # noqa: E402

fhesift = run_bench.import_fhesift()

from fhesift import oracle  # noqa: E402
from fhesift.sift_pipeline import PipelineResult, RunReport  # noqa: E402
from tracing import ACCOUNTING_TOLERANCE_S, ROOT  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DEFAULT_SEEDS = range(5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seeds_give_keypoints(name):
    # without a keypoint, _assemble and descriptor normalization never run
    cfg = WORKLOADS[name].cfg
    for seed in DEFAULT_SEEDS:
        for i, img in enumerate(make_inputs(name, seed)):
            assert len(oracle.run_reference(img, cfg)) >= 1, (name, seed, i)


def test_random_noise_has_no_keypoints():
    img = np.random.default_rng(0).uniform(0.0, 1.0, (64, 64))
    assert oracle.run_reference(img, WORKLOADS["deferred-natural64"].cfg) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    a, b, c = make_inputs(name, 3), make_inputs(name, 3), make_inputs(name, 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, y) for x, y in zip(a, c))
    assert len({x.tobytes() for x in a}) == len(a)


def test_natural64_is_16_bit_quantized():
    img = make_inputs("deferred-natural64", 0)[0]
    assert np.array_equal(np.round(img * 65535) / 65535, img)


def test_structural_baseline():
    """Shape-only counts of the seed state (ROADMAP baseline table);
    they depend on image size and config, not on the seed."""
    expected = {
        "deferred-natural64": {"protocol.real_lanes": 14_121_960,
                               "protocol.wire_lanes": 16_777_216,
                               "wire_bytes": 834_195_717, "rounds": 1},
        "interactive-natural64": {"rounds": 7},
    }
    for name, want in expected.items():
        w = WORKLOADS[name]
        rec = run_bench.run_image(fhesift, oracle, w, make_inputs(name, 7)[1],
                                  pipeline_seed=11, index=0)
        assert rec.problems == [], rec.problems
        assert {k: rec.structure[k] for k in want} == want, name


def test_obliviousness_signature():
    w = WORKLOADS["deferred-small16"]
    noise = np.random.default_rng(1).uniform(0.0, 1.0, (16, 16))
    recs = [run_bench.run_image(fhesift, oracle, w, img, pipeline_seed=s, index=s)
            for s, img in enumerate([*make_inputs("deferred-small16", 5)[:2], noise])]
    sigs = {run_bench.oblivious_signature(r.structure) for r in recs}
    assert len(sigs) == 1
    changed = dict(recs[0].structure)
    changed["stage_ops"] = {**changed["stage_ops"], "orient": {"add": 1}}
    assert run_bench.oblivious_signature(changed) not in sigs


def test_speed_probe_samples_and_normalises():
    probe = run_bench.SpeedProbe()
    before = signal.getsignal(signal.SIGPROF)
    with probe:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert len(probe.samples) >= 5  # 0.3 s of CPU at a 0.02 s period
    probe.samples = [run_bench.PROBE_NOMINAL_S]
    assert probe.normalise(4.0) == 4.0
    probe.samples = [2 * run_bench.PROBE_NOMINAL_S]  # a core half as fast
    assert probe.normalise(1.0 + run_bench.CORE_SHARE) == pytest.approx(1.0)


def test_check_image_flags_each_failure():
    img = make_inputs("deferred-small16", 0)[0]
    cfg = WORKLOADS["deferred-small16"].cfg
    ref = oracle.run_reference(img, cfg)
    report = RunReport("deferred", img.shape, 0, 30, dependency_depth=1,
                       rounds=[object()], server_decrypt_calls=0)
    good = PipelineResult(list(ref), report)
    assert run_bench.check_image(fhesift, good, ref, "deferred") == []
    bad = [
        PipelineResult([], report),
        PipelineResult(ref, dataclasses.replace(report, server_decrypt_calls=1)),
        PipelineResult(ref, dataclasses.replace(report, rounds=[object(), object()])),
    ]
    for res in bad:
        assert len(run_bench.check_image(fhesift, res, ref, "deferred")) == 1
    assert len(run_bench.check_image(fhesift, good, ref, "interactive")) == 0
    deep = dataclasses.replace(report, dependency_depth=2)
    assert len(run_bench.check_image(fhesift, PipelineResult(ref, deep), ref,
                                     "interactive")) == 1


def test_traced_run_accounts_for_every_span(tmp_path):
    result = run_bench.run("deferred-small16", seed=2, seconds=0, trace=True, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    spans = np.load(tmp_path / "trace-deferred-small16-seed2.npz")
    names = list(spans["names"])
    mine = spans["image"] == 1
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    roots = np.nonzero(mine & (parent < 0))[0]
    assert [names[spans["name"][r]] for r in roots] == [ROOT]
    total = float(np.sum((dur - child)[mine]))
    assert abs(total - dur[roots[0]]) <= ACCOUNTING_TOLERANCE_S
    # spans of the untraced image were never recorded
    assert not np.any(spans["image"] == 0)


def test_end_to_end_run_reports_every_metric():
    result = run_bench.run("deferred-small16", seed=3, seconds=0, trace=False)
    assert result["correct"] and result["attempted"] == run_bench.MIN_IMAGES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "deferred-small16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
