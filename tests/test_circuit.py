"""Compiled circuits: a run that reuses one gives what a cold run gives.

``run_pipeline`` compiles the site graph once per (image shape, config,
mode) and memoizes it; each image only binds the graph's leaves.  These
tests check that the memo is invisible in every output, that a circuit
keeps no ciphertext of the images it ran, and that the memo stays
within its bound.
"""

import gc
import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import CFG32, SEED, make_synthetic_images

from fhesift import (Ciphertext, CkksContext, GraphBuilder, PipelineConfig, SimParams, protocol,
                    run_pipeline, sift_pipeline)
from fhesift.cli import main
from fhesift.errors import FheSiftError
from fhesift.pgm import format_pgm

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI in a fresh interpreter and prints the sha256 of each
# package it serializes, as ``_run_in_process`` records them.
_FRESH_RUN = """
import hashlib, sys
from fhesift import protocol
from fhesift.cli import main
serialize = protocol.serialize_package
def recording(*args, **kwargs):
    blob = serialize(*args, **kwargs)
    print("package", hashlib.sha256(blob).hexdigest())
    return blob
protocol.serialize_package = recording
sys.exit(main(sys.argv[1:]))
"""


def _cli_args(image: Path, out: Path, mode: str, noise: float) -> list[str]:
    return ["run", str(image), "--mode", mode, "--out", str(out), "--seed", str(SEED),
            "--set", f"octaves={CFG32.octaves}", "--set", f"noise_per_mul={noise!r}"]


def _outputs(out: Path, packages: list[str]) -> dict:
    return {"report.kv": (out / "report.kv").read_bytes(),
            "keypoints.txt": (out / "keypoints.txt").read_bytes(),
            "packages": packages}


def _run_in_process(image, out, mode, noise, monkeypatch) -> dict:
    packages = []
    serialize = protocol.serialize_package

    def recording(*args, **kwargs):
        blob = serialize(*args, **kwargs)
        packages.append(hashlib.sha256(blob).hexdigest())
        return blob

    with monkeypatch.context() as m:
        m.setattr(protocol, "serialize_package", recording)
        assert main(_cli_args(image, out, mode, noise)) == 0
    return _outputs(out, packages)


def _run_fresh(image, out, mode, noise) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, *_cli_args(image, out, mode, noise)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    packages = [line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith("package ")]
    return _outputs(out, packages)


@pytest.fixture(scope="module")
def pgm_images(tmp_path_factory) -> dict:
    imgs = make_synthetic_images()
    paths = {}
    for name in ("blob32", "two_blobs32"):
        paths[name] = tmp_path_factory.mktemp("img") / f"{name}.pgm"
        paths[name].write_bytes(format_pgm(imgs[name], maxval=65535))
    return paths


@pytest.mark.parametrize("noise", [0.0, 1e-12])
@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_warm_runs_match_cold_runs_and_fresh_processes(pgm_images, tmp_path, monkeypatch,
                                                       mode, noise):
    """A cold run, a warm run of the same image and seed, and a second
    same-size image through the same circuit each give, byte for byte,
    the report.kv, keypoints.txt and package of a fresh process, so
    nothing in them says whether the memo was hit.  Under noise too: the
    walk order, and with it every noise draw, does not change."""
    a, b = pgm_images["blob32"], pgm_images["two_blobs32"]
    runs = [_run_in_process(a, tmp_path / "cold", mode, noise, monkeypatch),
            _run_in_process(a, tmp_path / "warm", mode, noise, monkeypatch),
            _run_in_process(b, tmp_path / "other", mode, noise, monkeypatch)]
    info = sift_pipeline._memo_circuit.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert runs[0] == runs[1]
    assert runs[0]["packages"] if mode == "deferred" else not runs[0]["packages"]
    if noise == 0.0:
        assert runs[0] == _run_fresh(a, tmp_path / "fresh", mode, noise)
        assert runs[2] == _run_fresh(b, tmp_path / "fresh_other", mode, noise)
        assert runs[0]["keypoints.txt"] != runs[2]["keypoints.txt"]
    else:
        assert runs[1] == _run_fresh(a, tmp_path / "fresh", mode, noise)


def _reachable(root):
    """Every object reachable from ``root`` through ``gc.get_referents``,
    not counting classes, modules and functions, which lead to globals."""
    seen, stack = {id(root)}, [root]
    while stack:
        obj = stack.pop()
        yield obj
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(
                    ref, (type, types.ModuleType, types.FunctionType)):
                seen.add(id(ref))
                stack.append(ref)


@pytest.mark.parametrize("mode", ["interactive", "deferred"])
def test_a_memoized_circuit_holds_no_ciphertext(blob16, monkeypatch, mode):
    bound = []
    bind = GraphBuilder.bind
    monkeypatch.setattr(GraphBuilder, "bind",
                        lambda b, leaves: bound.append(bind(b, leaves)) or bound[-1])
    cfg = PipelineConfig(octaves=1)
    for seed in (SEED, SEED + 1):
        run_pipeline(blob16, cfg, mode=mode, seed=seed)
    circuit = sift_pipeline._memo_circuit(blob16.shape, cfg, mode, repr(cfg))
    assert sift_pipeline._memo_circuit.cache_info().hits == 2
    assert not any(isinstance(o, Ciphertext) for o in _reachable(circuit))
    # the walk finds the ciphertexts an image's bound builder still holds
    assert len(bound) == 2 and bound[0].nodes is circuit.plan.builder.nodes
    if mode == "interactive":
        assert any(isinstance(o, Ciphertext) for o in _reachable(bound[-1]))
        # the interactive run's tape, replayed by both images, is data-free too
        tape = circuit.run_plan.tape
        assert any(steps for _, steps, _ in tape)
        assert not any(isinstance(o, Ciphertext) for o in _reachable(tape))


def test_the_memo_keeps_at_most_its_bound():
    """Shapes without interior sites compile to an empty graph at once."""
    memo = sift_pipeline._memo_circuit
    cfg = PipelineConfig(octaves=1)
    shapes = [(8, 8 + i) for i in range(sift_pipeline.CIRCUIT_MEMO_SIZE + 2)]
    for shape in shapes:
        run_pipeline(np.full(shape, 0.5), cfg, mode="deferred")
        assert memo.cache_info().currsize <= sift_pipeline.CIRCUIT_MEMO_SIZE
    assert memo.cache_info().currsize == sift_pipeline.CIRCUIT_MEMO_SIZE
    # the most recent shape is kept; the first was dropped
    run_pipeline(np.full(shapes[-1], 0.5), cfg, mode="deferred")
    run_pipeline(np.full(shapes[0], 0.5), cfg, mode="deferred")
    info = memo.cache_info()
    assert (info.hits, info.misses) == (1, len(shapes) + 1)


def test_configs_equal_but_for_a_signed_zero_compile_apart(blob16, monkeypatch):
    # the contrast test compares against plain(t) and plain(-t), which a
    # package ships as operands, sign bit and all
    packages = []
    serialize = protocol.serialize_package
    monkeypatch.setattr(protocol, "serialize_package",
                        lambda *a, **k: packages.append(bytes(serialize(*a, **k))) or packages[-1])
    neg, pos = (PipelineConfig(octaves=1, contrast_threshold=t) for t in (-0.0, 0.0))
    assert neg == pos
    run_pipeline(blob16, neg, mode="deferred", seed=SEED)
    sift_pipeline._memo_circuit.cache_clear()
    run_pipeline(blob16, pos, mode="deferred", seed=SEED)
    run_pipeline(blob16, neg, mode="deferred", seed=SEED)
    assert packages[0] == packages[2] != packages[1]


def test_a_frozen_graph_takes_no_new_node(blob16):
    cfg = PipelineConfig(octaves=1)
    circuit = sift_pipeline.compile_circuit(blob16.shape, cfg, "deferred")
    b = circuit.plan.builder
    nodes = len(b.nodes)
    with pytest.raises(FheSiftError, match="frozen"):
        b.add(b.nodes[0], b.nodes[0])
    with pytest.raises(FheSiftError, match="frozen"):
        b.bind({}).plain(2.5)
    assert len(b.nodes) == nodes


def _with_sites(shape, cfg) -> list[int]:
    """The octaves of a ``shape`` image that hold interior sites."""
    dims = sift_pipeline._octave_dims(shape, cfg.octaves)
    return [o for o, (h, w) in enumerate(dims) if min(h, w) > 2 * sift_pipeline.MARGIN]


@pytest.mark.parametrize("shape, cfg", [((16, 16), PipelineConfig(octaves=1)),
                                        ((64, 64), PipelineConfig(octaves=3)),
                                        ((23, 40), PipelineConfig(octaves=3))])
def test_one_leaf_source_per_pyramid_level_gathered_once_per_octave(shape, cfg, monkeypatch):
    """Every DoG and Gaussian value is read through a lane map of its
    level's leaf: the leaves' sources are the DoG levels 0..s+1 and the
    Gaussian levels 1..s, and binding an image gathers each source once
    per octave with sites.  (23x40's third octave holds no site.)"""
    s = cfg.scales_per_octave
    plan = sift_pipeline.compile_circuit(shape, cfg, "deferred").plan
    sources = {(n.payload.pyramid, n.payload.layer) for n in plan.leaves}
    assert sources == ({("dog", l) for l in range(s + 2)}
                       | {("gauss", l) for l in range(1, s + 1)})
    octaves = _with_sites(shape, cfg)
    assert list(plan.sites) == octaves
    ctx = CkksContext(SimParams())
    img = np.random.default_rng(SEED).uniform(size=shape)
    gauss, dog, _ = sift_pipeline._scale_space_cipher(ctx, ctx.encrypt(img), cfg)
    calls = []
    gather = sift_pipeline.gather
    monkeypatch.setattr(sift_pipeline, "gather", lambda *a: calls.append(a) or gather(*a))
    bound = sift_pipeline._bind_leaves(plan, {"dog": dog, "gauss": gauss})
    assert len(calls) == len(sources) * len(octaves)
    assert bound.keys() == {n.id for n in plan.leaves}
    for n in plan.leaves:
        assert bound[n.id].width == n.width
        assert all(bound[m.id] is bound[n.id] for m in plan.leaves if m.payload == n.payload)


@pytest.mark.parametrize("shape, cfg", [((11, 11), PipelineConfig(octaves=1)),
                                        ((45, 53), PipelineConfig(octaves=3))])
def test_every_leaf_block_lies_inside_its_octave(shape, cfg):
    """numpy would wrap a negative index without a word, so each block
    a leaf gathers must stay inside its octave, down to the smallest
    image with a site and odd octave shapes."""
    plan = sift_pipeline.compile_circuit(shape, cfg, "interactive").plan
    dims = sift_pipeline._octave_dims(shape, cfg.octaves)
    assert list(plan.sites) == _with_sites(shape, cfg) and plan.sites
    assert set(plan.blocks) == {"dog", "gauss"}
    for blocks in plan.blocks.values():
        assert len(blocks) == len(plan.sites)
        for o, (ys, xs) in zip(plan.sites, blocks):
            h, w = dims[o]
            assert 0 <= ys.min() and ys.max() < h and 0 <= xs.min() and xs.max() < w
