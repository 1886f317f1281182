"""Seeded benchmark inputs and the workload table.

The generators belong to the benchmark, not to the program: the library
only ever receives the arrays.  natural64 follows the texture recipe of
the test suite's ``make_natural_image`` (20 signed Gaussian blobs plus
two gratings, rescaled into [0.05, 0.95] and quantized through a 16-bit
PGM round trip); small16 is the suite's tilted-base single blob with a
seeded centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from fhesift import PipelineConfig
from fhesift.pgm import format_pgm, parse_pgm


def _blob(yy, xx, cy, cx, sigma, amp):
    return amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))


def natural64(seed: int, index: int) -> np.ndarray:
    """64x64 blob-and-grating texture, 16-bit quantized."""
    rng = np.random.default_rng([seed, index])
    yy, xx = np.mgrid[0:64, 0:64].astype(np.float64)
    img = np.zeros((64, 64))
    for _ in range(20):
        cy, cx = rng.uniform(6, 58, 2)
        sigma = rng.uniform(2.2, 6.0)
        amp = rng.uniform(0.2, 0.55) * (1.0 if rng.random() < 0.6 else -1.0)
        img += _blob(yy, xx, cy, cx, sigma, amp)
    img += 0.06 * np.sin(2.0 * np.pi * (1.7 * xx + 0.9 * yy) / 64.0 + 0.7)
    img += 0.04 * np.sin(2.0 * np.pi * (0.5 * xx - 2.3 * yy) / 64.0 + 2.1)
    lo, hi = img.min(), img.max()
    img = 0.05 + 0.9 * (img - lo) / (hi - lo)
    return parse_pgm(format_pgm(img, maxval=65535))


def small16(seed: int, index: int) -> np.ndarray:
    """16x16 single blob on a tilted base with one keypoint.

    The centre is drawn within 0.3 px of one of the sites (7|8, 7|8): a
    centre near a half-integer puts equal DoG values on two sites, so
    neither is a strict extremum and the image has no keypoint.
    """
    rng = np.random.default_rng([seed, index])
    cy, cx = rng.integers(7, 9, 2) + rng.uniform(-0.3, 0.3, 2)
    yy, xx = np.mgrid[0:16, 0:16].astype(np.float64)
    img = 0.02 + 0.0011 * xx + 0.0007 * yy + _blob(yy, xx, cy, cx, 3.0, 0.9)
    return np.clip(img, 0.0, 1.0)


@dataclass(frozen=True)
class Workload:
    mode: str
    cfg: PipelineConfig
    generate: Callable[[int, int], np.ndarray]  # (seed, index) -> image
    # images generated during set-up; a run that outlasts the pool cycles it
    pool: int


WORKLOADS = {
    "deferred-natural64": Workload("deferred", PipelineConfig(), natural64, 4),
    "interactive-natural64": Workload("interactive", PipelineConfig(), natural64, 4),
    "deferred-small16": Workload("deferred", PipelineConfig(octaves=1), small16, 32),
}


def make_inputs(name: str, seed: int) -> list[np.ndarray]:
    w = WORKLOADS[name]
    return [w.generate(seed, i) for i in range(w.pool)]
