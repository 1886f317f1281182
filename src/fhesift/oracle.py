"""Branch-based reference pipeline on raw pixels.

This is the ground truth the encrypted modes are checked against.  It
mirrors the ciphertext arithmetic operation for operation: the same
kernel taps folded in the same order, the same central-difference and
adjugate formulas with the same nesting, the same strict comparisons on
the same float values.  Every boolean decision therefore agrees with
the encrypted modes bit for bit; accumulated sums (histogram bins,
descriptor entries) may differ by float rounding because this path adds
contributions per branch while the encrypted path sums a flattened
polynomial, so downstream checks compare those within a tolerance.

``run_with_margins`` additionally reports, for every candidate site and
every emitted keypoint, its distance to the nearest comparison
boundary.  A test harness running with approximate arithmetic of known
error ``eps`` excludes samples whose margin falls inside the ambiguity
band; with exact arithmetic the band is empty.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import gaussian_kernel1d
from .sift_pipeline import (
    DESCRIPTOR_SIGMA,
    MAGNITUDE_SQUARED,
    NORM_EPS,
    ORIENTATION_RADIUS,
    _NEIGHBORS_26,
    _site_grid,
    Keypoint,
    PipelineConfig,
    validate_image,
)


def _convolve2d(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Clamp-to-edge convolution, taps accumulated in kernel order."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim == 1:
        kernel = kernel.reshape(1, -1)
    kh, kw = kernel.shape
    h, w = img.shape
    ys = np.arange(h)
    xs = np.arange(w)
    acc = None
    for dy in range(-(kh // 2), kh // 2 + 1):
        for dx in range(-(kw // 2), kw // 2 + 1):
            k = float(kernel[dy + kh // 2, dx + kw // 2])
            if k == 0.0:
                continue
            yi = np.clip(ys + dy, 0, h - 1)
            xi = np.clip(xs + dx, 0, w - 1)
            term = img[np.ix_(yi, xi)] * k
            acc = term if acc is None else acc + term
    return acc


def scale_space(img: np.ndarray, cfg: PipelineConfig):
    """Gaussian and DoG pyramids; every blur runs from the octave base."""
    sigmas = cfg.sigmas()
    s = cfg.scales_per_octave
    gauss, dog, dims = [], [], []
    base = img
    for o in range(cfg.octaves):
        h, w = base.shape
        dims.append((h, w))
        levels = [base]
        for i in range(1, s + 3):
            srel = math.sqrt(sigmas[i] * sigmas[i] - sigmas[0] * sigmas[0])
            k = gaussian_kernel1d(srel)
            g = _convolve2d(_convolve2d(base, k.reshape(-1, 1)), k.reshape(1, -1))
            levels.append(g)
        gauss.append(levels)
        dog.append([levels[j + 1] - levels[j] for j in range(s + 2)])
        base = levels[s][np.ix_(np.arange(0, h, 2), np.arange(0, w, 2))]
    return gauss, dog, dims


def _sector_bools(dx: np.ndarray, dy: np.ndarray, n_bins: int):
    """Per-boundary half-plane tests, plus |u| margins for each boundary."""
    n = dx.shape[0]
    below = np.empty((n_bins, n), dtype=bool)
    absu = np.empty((n_bins, n), dtype=np.float64)
    for j in range(n_bins):
        ang = 2.0 * math.pi * j / n_bins
        u = math.cos(ang) * dy - math.sin(ang) * dx
        below[j] = 0.0 > u
        absu[j] = np.abs(u)
    return below, absu


def _run(img: np.ndarray, cfg: PipelineConfig, want_margins: bool):
    img = validate_image(img)
    gauss, dog, dims = scale_space(img, cfg)
    s = cfg.scales_per_octave
    sigmas = cfg.sigmas()
    t = cfg.contrast_threshold
    r = cfg.edge_threshold
    nb = cfg.orientation_bins
    rad = ORIENTATION_RADIUS

    kps: list[Keypoint] = []
    site_margin: dict = {}
    kp_margin: dict = {}
    kp_site: dict = {}

    for o in range(cfg.octaves):
        grid = _site_grid(*dims[o])
        if grid is None:
            continue
        ys, xs = grid
        n = len(ys)
        for l in range(1, s + 1):
            dcache: dict = {}

            def dv(dl, dy, dx):
                key = (dl, dy, dx)
                if key not in dcache:
                    dcache[key] = dog[o][l + dl][(ys + dy, xs + dx)]
                return dcache[key]

            margin = np.full(n, np.inf) if want_margins else None

            # detect
            v = dv(0, 0, 0)
            is_max = np.ones(n, dtype=bool)
            is_min = np.ones(n, dtype=bool)
            for dl, dy, dx in _NEIGHBORS_26:
                nv = dv(dl, dy, dx)
                is_max &= v > nv
                is_min &= nv > v
                if want_margins:
                    margin = np.minimum(margin, np.abs(v - nv))
            contrast = (v > t) | ((-t) > v)
            if want_margins:
                margin = np.minimum(margin, np.abs(v - t))
                margin = np.minimum(margin, np.abs((-t) - v))

            # localize; nesting matches the ciphertext formulas so the
            # quotients and every acceptance boolean agree bit for bit
            d0 = {(dy, dx): dv(0, dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
            gx = 0.5 * (d0[(0, 1)] - d0[(0, -1)])
            gy = 0.5 * (d0[(1, 0)] - d0[(-1, 0)])
            gs = 0.5 * (dv(1, 0, 0) - dv(-1, 0, 0))
            v2 = v + v
            dxx = (d0[(0, 1)] + d0[(0, -1)]) - v2
            dyy = (d0[(1, 0)] + d0[(-1, 0)]) - v2
            dss = (dv(1, 0, 0) + dv(-1, 0, 0)) - v2
            dxy = 0.25 * ((d0[(1, 1)] - d0[(1, -1)]) - (d0[(-1, 1)] - d0[(-1, -1)]))
            dxs = 0.25 * ((dv(1, 0, 1) - dv(1, 0, -1)) - (dv(-1, 0, 1) - dv(-1, 0, -1)))
            dys = 0.25 * ((dv(1, 1, 0) - dv(1, -1, 0)) - (dv(-1, 1, 0) - dv(-1, -1, 0)))
            a00 = dyy * dss - dys * dys
            a01 = dxs * dys - dxy * dss
            a02 = dxy * dys - dyy * dxs
            a11 = dxx * dss - dxs * dxs
            a12 = dxy * dxs - dxx * dys
            a22 = dxx * dyy - dxy * dxy
            det = (dxx * a00 + dxy * a01) + dxs * a02
            num_x = -((a00 * gx + a01 * gy) + a02 * gs)
            num_y = -((a01 * gx + a11 * gy) + a12 * gs)
            num_s = -((a02 * gx + a12 * gy) + a22 * gs)
            d2 = det * det
            thr = 0.25 * d2
            accept = np.ones(n, dtype=bool)
            for num in (num_x, num_y, num_s):
                n2 = num * num
                accept &= ~(n2 > thr)
                if want_margins:
                    margin = np.minimum(margin, np.abs(n2 - thr))
            tr = dxx + dyy
            det2 = dxx * dyy - dxy * dxy
            tr2 = tr * tr
            rd = r * det2
            edge_bad = tr2 > rd
            if want_margins:
                margin = np.minimum(margin, np.abs(tr2 - rd))
            mask = (is_max | is_min) & contrast & accept & ~edge_bad

            # gradients over the descriptor window
            g = gauss[o][l]
            grads = {}
            for vv in range(-4, 4):
                for uu in range(-4, 4):
                    grads[(uu, vv)] = (
                        g[(ys + vv, xs + uu + 1)] - g[(ys + vv, xs + uu - 1)],
                        g[(ys + vv + 1, xs + uu)] - g[(ys + vv - 1, xs + uu)],
                    )

            # orientation histogram, weights accumulated per branch
            sw = 1.5 * sigmas[l]
            bins = np.zeros((nb, n))
            omargin = np.full(n, np.inf) if want_margins else None
            for vv in range(-rad, rad + 1):
                for uu in range(-rad, rad + 1):
                    dx_g, dy_g = grads[(uu, vv)]
                    gwin = math.exp(-(uu * uu + vv * vv) / (2.0 * sw * sw))
                    mag2 = dx_g * dx_g + dy_g * dy_g
                    if cfg.orientation_weighting == MAGNITUDE_SQUARED:
                        w = mag2 * (0.25 * gwin)
                    else:
                        w = np.sqrt(mag2) * (0.5 * gwin)
                    below, absu = _sector_bools(dx_g, dy_g, nb)
                    for k in range(nb):
                        active = (~below[k]) & below[(k + 1) % nb]
                        bins[k] = bins[k] + np.where(active, w, 0.0)
                    if want_margins:
                        boundary = np.min(absu, axis=0)
                        omargin = np.minimum(
                            omargin, np.where(mag2 > 0.0, boundary, np.inf))
            obins = np.argmax(bins, axis=0)
            if want_margins:
                top2 = np.partition(bins, nb - 2, axis=0)
                gap = top2[nb - 1] - top2[nb - 2]
                omargin = np.minimum(omargin, gap)

            # descriptor
            desc = np.zeros((128, n))
            for vv in range(-4, 4):
                for uu in range(-4, 4):
                    dx_g, dy_g = grads[(uu, vv)]
                    cu, cv = (uu + 4) // 2, (vv + 4) // 2
                    gwin = math.exp(
                        -(uu * uu + vv * vv) / (2.0 * DESCRIPTOR_SIGMA * DESCRIPTOR_SIGMA))
                    mag2 = dx_g * dx_g + dy_g * dy_g
                    w = mag2 * (0.25 * gwin)
                    below, _ = _sector_bools(dx_g, dy_g, 8)
                    for k in range(8):
                        active = (~below[k]) & below[(k + 1) % 8]
                        e = (cv * 4 + cu) * 8 + k
                        desc[e] = desc[e] + np.where(active, w, 0.0)

            if want_margins:
                for i in range(n):
                    site_margin[(o, l, int(ys[i]), int(xs[i]))] = float(margin[i])

            scale_factor = float(1 << o)
            for i in np.nonzero(mask)[0]:
                d = float(det[i])
                if d != 0.0:
                    off = [float(num_x[i]) / d, float(num_y[i]) / d, float(num_s[i]) / d]
                else:
                    off = [0.0, 0.0, 0.0]
                vec = desc[:, i].astype(np.float64)
                norm2 = float(np.sum(vec * vec))
                if norm2 >= NORM_EPS:
                    vec = vec / math.sqrt(norm2) + 0.0  # adding 0 drops negative zeros
                else:
                    vec = np.zeros(128)
                kp = Keypoint(
                    x=(float(xs[i]) + off[0]) * scale_factor,
                    y=(float(ys[i]) + off[1]) * scale_factor,
                    octave=o,
                    scale=float(l) + off[2],
                    orientation_bin=int(obins[i]),
                    descriptor=tuple(float(c) for c in vec),
                )
                kps.append(kp)
                if want_margins:
                    kp_margin[kp.key()] = float(min(margin[i], omargin[i]))
                    kp_site[kp.key()] = (o, l, int(ys[i]), int(xs[i]))

    kps.sort(key=lambda k: (k.octave, k.scale, k.y, k.x))
    if not want_margins:
        return kps, None
    return kps, {"site": site_margin, "keypoint": kp_margin, "keypoint_site": kp_site}


def run_reference(img, cfg: PipelineConfig | None = None) -> list[Keypoint]:
    """Keypoints by direct branching; the encrypted modes' ground truth."""
    cfg = cfg if cfg is not None else PipelineConfig()
    kps, _ = _run(img, cfg, want_margins=False)
    return kps


def run_with_margins(img, cfg: PipelineConfig | None = None):
    """Keypoints plus distance-to-boundary margins for exclusion bands.

    Returns (keypoints, margins) where margins["site"] maps every
    candidate (octave, layer, y, x) to its weakest mask comparison and
    margins["keypoint"] maps each emitted keypoint's key to the minimum
    of that and its orientation margins (sector boundaries over offsets
    with nonzero gradient, and the histogram top-two gap).
    """
    cfg = cfg if cfg is not None else PipelineConfig()
    return _run(img, cfg, want_margins=True)


def site_of(kp: Keypoint) -> tuple[int, int, int, int]:
    """Recover the integer site a keypoint was emitted from."""
    f = float(1 << kp.octave)
    return (kp.octave, int(round(kp.scale)),
            int(round(kp.y / f)), int(round(kp.x / f)))


def ambiguous_sites(margins: dict, eps: float) -> set:
    """Sites whose mask decision sits within eps of a boundary."""
    return {k for k, m in margins["site"].items() if m < eps}


def ambiguous_keypoints(margins: dict, eps: float) -> set:
    """Keypoint keys whose mask or orientation margin is within eps."""
    return {k for k, m in margins["keypoint"].items() if m < eps}
