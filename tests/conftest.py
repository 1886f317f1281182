"""Shared fixtures: synthetic images and the whole-suite pipeline runs.

The expensive part of the suite is running every image through all three
execution modes.  That happens once, in a session-scoped fixture, and the
equivalence / accounting tests all read from the same result table.
"""

import time

import numpy as np
import pytest

from fhesift import PipelineConfig, protocol, run_pipeline, sift_pipeline
from fhesift.pgm import format_pgm, parse_pgm

# 32x32 synthetics run two octaves; the 64x64 image runs the default three.
CFG32 = PipelineConfig(octaves=2)
CFG64 = PipelineConfig()
SEED = 3

SYNTHETIC_NAMES = ("blob32", "two_blobs32", "ramp_h32", "ramp_diag32", "impulse32")
ALL_NAMES = SYNTHETIC_NAMES + ("natural64",)
MODES = ("plaintext", "interactive", "deferred")


def gaussian_blob(yy, xx, cy, cx, sigma, amp=1.0):
    return amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))


def make_synthetic_images() -> dict:
    """Five 32x32 test patterns: blobs, ramps and an impulse.

    All of them sit on a slightly tilted base so no DoG neighborhood is
    exactly symmetric; exact ties would otherwise make argmax ordering
    the only thing distinguishing the modes.
    """
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    imgs = {}
    imgs["blob32"] = 0.02 + 0.0011 * xx + 0.0007 * yy + gaussian_blob(yy, xx, 14.3, 16.6, 3.0, 0.9)
    imgs["two_blobs32"] = (0.5 + gaussian_blob(yy, xx, 9.4, 10.2, 2.8, 0.45)
                           - gaussian_blob(yy, xx, 21.7, 20.3, 3.4, 0.45))
    imgs["ramp_h32"] = 0.1 + 0.8 * xx / 31.0
    imgs["ramp_diag32"] = 0.1 + (0.5 * xx + 0.3 * yy) / 31.0
    imp = 0.05 + 0.002 * xx + 0.0013 * yy
    imp[15, 17] = 1.0
    imgs["impulse32"] = imp
    return {k: np.clip(v, 0.0, 1.0) for k, v in imgs.items()}


def make_natural_image() -> np.ndarray:
    """64x64 blob-and-grating texture, quantized through a 16-bit PGM
    round trip so the pixels match what the CLI would read from disk."""
    rng = np.random.default_rng(42)
    yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
    img = np.zeros((64, 64))
    for _ in range(20):
        cy, cx = rng.uniform(6, 58, 2)
        sigma = rng.uniform(2.2, 6.0)
        amp = rng.uniform(0.2, 0.55) * (1.0 if rng.random() < 0.6 else -1.0)
        img += gaussian_blob(yy, xx, cy, cx, sigma, amp)
    img += 0.06 * np.sin(2.0 * np.pi * (1.7 * xx + 0.9 * yy) / 64.0 + 0.7)
    img += 0.04 * np.sin(2.0 * np.pi * (0.5 * xx - 2.3 * yy) / 64.0 + 2.1)
    lo, hi = img.min(), img.max()
    img = 0.05 + 0.9 * (img - lo) / (hi - lo)
    return parse_pgm(format_pgm(img, maxval=65535))


def make_blob16() -> np.ndarray:
    """16x16 single-blob image with exactly one keypoint at octaves=1;
    small enough for tests that need many full pipeline runs."""
    yy, xx = np.mgrid[0:16, 0:16].astype(np.float64)
    img = 0.02 + 0.0011 * xx + 0.0007 * yy + gaussian_blob(yy, xx, 7.3, 8.6, 3.0, 0.9)
    return np.clip(img, 0.0, 1.0)


def config_for(name: str) -> PipelineConfig:
    return CFG64 if name == "natural64" else CFG32


@pytest.fixture(autouse=True)
def cold_circuits():
    """Every test starts, and leaves, with no compiled circuit memoized,
    so one that patches graph construction compiles its own."""
    sift_pipeline._memo_circuit.cache_clear()
    yield
    sift_pipeline._memo_circuit.cache_clear()


@pytest.fixture(scope="session")
def images() -> dict:
    imgs = make_synthetic_images()
    imgs["natural64"] = make_natural_image()
    return imgs


@pytest.fixture(scope="session")
def blob16() -> np.ndarray:
    return make_blob16()


@pytest.fixture(scope="session")
def suite_runs(images) -> dict:
    """Every image through every mode, once.

    Returns {(image, mode): PipelineResult} plus "elapsed" in seconds and
    "batches": per encrypted (image, mode), each non-empty record batch
    on the wire as (the level it ships at, the lowest level among its
    real records' ciphertexts, a comparison's difference at its lower
    operand's), in the order sent.  Encrypted runs keep
    their decrypted slot tables so the mask and histogram invariants can
    be checked on every run's real data; the retained arrays are small
    next to the transient evaluation peaks.
    """
    runs: dict = {}
    batches: list = []
    request_batch, serialize = protocol._request_batch, protocol.serialize_package

    def recording_batch(widths, cts, policy, rng):
        cts = list(cts)  # an iterator of the arguments, read here and by the batch
        blob, ids = request_batch(widths, cts, policy, rng)
        if len(blob):
            batches.append((int(np.frombuffer(blob, dtype="<u4", count=1)[0]),
                            min(ct.level for ct in cts)))
        return blob, ids

    def recording_serialize(program, *args, **kwargs):
        blob = serialize(program, *args, **kwargs)
        pkg = protocol.parse_package(blob)
        for level, cts in ((pkg["cmp_level"], list(program.cmp_args.values())),
                           (pkg["sqrt_level"], list(program.sqrt_args.values()))):
            if cts:
                batches.append((level, min(ct.level for ct in cts)))
        return blob

    t0 = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_request_batch", recording_batch)
        mp.setattr(protocol, "serialize_package", recording_serialize)
        for name in ALL_NAMES:
            cfg = config_for(name)
            for mode in MODES:
                runs[(name, mode)] = run_pipeline(
                    images[name], cfg, mode=mode, seed=SEED,
                    keep_slots=mode != "plaintext")
                if mode != "plaintext":
                    runs.setdefault("batches", {})[name, mode] = batches[:]
                    batches.clear()
    runs["elapsed"] = time.time() - t0
    return runs
