"""Branchless kernels for the encrypted domain.

Two families live here.  Graph-domain kernels (max, argmax, histogram
binning) build deferred-comparison expressions through a GraphBuilder;
they never branch on data, so every output is a fixed arithmetic shape
regardless of input values.  Cipher-domain kernels (2-D convolution)
run directly on batched ciphertexts where each array cell is its own
independent ciphertext; shifting cells around is bookkeeping, so a
convolution costs one plaintext-multiply level total.
"""

from __future__ import annotations

import math

import numpy as np

from .ckks_sim import Ciphertext, CkksContext, gather
from .deferred_graph import Expr, GraphBuilder
from .errors import EmptyInput


# -- comparison-based kernels ---------------------------------------------------


def max2(b: GraphBuilder, x, y) -> Expr:
    """max(x, y) as [x > y]*(x - y) + y; one comparison, one multiply."""
    x, y = b.as_expr(x), b.as_expr(y)
    return b.select(b.compare(x, y), x, y)


def running_max(b: GraphBuilder, xs, seed: float = 0.0) -> Expr:
    """Left-to-right max scan; comparison depth grows linearly.

    The seed must underestimate the true max (0 for non-negative data).
    Each step compares against the previous winner, so the result chains
    n dependent comparisons and only the interactive path can run it.
    """
    xs = list(xs)
    if not xs:
        raise EmptyInput("running_max over no elements")
    acc = b.plain(seed)
    for x in xs:
        acc = max2(b, acc, x)
    return acc


def vec_max(b: GraphBuilder, xs) -> Expr:
    """Tournament max; ceil(log2 n) dependent comparison levels."""
    xs = [b.as_expr(x) for x in xs]
    if not xs:
        raise EmptyInput("vec_max over no elements")

    def rec(ls):
        if len(ls) == 1:
            return ls[0]
        mid = len(ls) // 2
        return max2(b, rec(ls[:mid]), rec(ls[mid:]))

    return rec(xs)


def vec_argmax_onehot(b: GraphBuilder, xs) -> list[Expr]:
    """One-hot masks for the position of the maximum.

    Ties resolve to the lowest index: each duel tests [right > left], so
    on equality the left (earlier) candidate survives, matching
    np.argmax on the resolved values.
    """
    xs = [b.as_expr(x) for x in xs]
    n = len(xs)
    if n == 0:
        raise EmptyInput("vec_argmax_onehot over no elements")
    zero = b.plain(0.0)

    def rec(lo, hi):
        if hi - lo == 1:
            return xs[lo], {lo: b.plain(1.0)}
        mid = (lo + hi) // 2
        lval, lmask = rec(lo, mid)
        rval, rmask = rec(mid, hi)
        c = b.compare(rval, lval)
        val = b.select(c, rval, lval)
        masks = {}
        for i in range(lo, mid):
            masks[i] = b.select(c, zero, lmask[i])
        for i in range(mid, hi):
            masks[i] = b.select(c, rmask[i], zero)
        return val, masks

    _, masks = rec(0, n)
    return [masks[i] for i in range(n)]


# -- orientation binning ----------------------------------------------------------


def _boundary_tests(b: GraphBuilder, dx, dy, n_bins: int) -> list[Expr]:
    """[0 > u_j] for each boundary j of ``bin_mask``."""
    if n_bins < 3:
        raise ValueError("need at least 3 bins for sector masks")
    dx, dy = b.as_expr(dx), b.as_expr(dy)
    zero = b.plain(0.0)
    below = []
    for j in range(n_bins):
        ang = 2.0 * math.pi * j / n_bins
        u = b.sub(b.mul(b.plain(math.cos(ang)), dy), b.mul(b.plain(math.sin(ang)), dx))
        below.append(b.compare(zero, u))
    return below


def _sectors(b: GraphBuilder, below: list[Expr]) -> list[Expr]:
    """Bin i as [u_i >= 0] AND [u_{i+1} < 0], from the boundary tests."""
    n = len(below)
    return [b.mul(b.sub(b.plain(1.0), below[i]), below[(i + 1) % n]) for i in range(n)]


def bin_mask(b: GraphBuilder, dx, dy, n_bins: int) -> list[Expr]:
    """Sector masks for atan2(dy, dx) over n equal bins from angle 0.

    Boundary j points along angle 2*pi*j/n; the signed cross product
    u_j = cos*dy - sin*dx is >= 0 iff the gradient lies within half a
    turn counterclockwise of it.  Bin i is [u_i >= 0] AND [u_{i+1} < 0],
    which partitions all nonzero gradients exactly (bins narrower than
    pi), shares each boundary comparison between adjacent bins, and
    sends a zero gradient to no bin at all.
    """
    return _sectors(b, _boundary_tests(b, dx, dy, n_bins))


def bin_mask_tan(b: GraphBuilder, dx, dy, n_bins: int) -> list[Expr]:
    """Slope-threshold binning: [dy > tan(a_i)*dx] AND [tan(a_{i+1})*dx > dy].

    Cheaper to state but only separates angles by their tangent, so it
    is valid on the right half-plane (dx > 0); mirrored gradients land
    in the same masks.  Kept for cost comparison; bin_mask is the
    full-circle form.
    """
    dx, dy = b.as_expr(dx), b.as_expr(dy)
    masks = []
    for i in range(n_bins):
        t0 = math.tan(2.0 * math.pi * i / n_bins)
        t1 = math.tan(2.0 * math.pi * (i + 1) / n_bins)
        lo = b.compare(dy, b.mul(b.plain(t0), dx))
        hi = b.compare(b.mul(b.plain(t1), dx), dy)
        masks.append(b.mul(lo, hi))
    return masks


def weighted_histogram(b: GraphBuilder, dx, dy, n_bins: int, window,
                       n_cells: int = 1) -> list[Expr]:
    """Histograms of gradient angles over a window of per-pixel gradients.

    ``window`` is a sequence of (lane map, weight, cell) entries.  The
    boundary tests of ``bin_mask`` are built once, over the per-pixel
    ``dx, dy``; each entry reads them through its map (see
    ``GraphBuilder.reindex``) and adds mask_k * weight into bin
    ``cell * n_bins + k``, in window order.  The result holds ``n_cells``
    histograms of ``n_bins`` bins back to back.  Every entry touches
    every bin of its cell (mask * weight, zero or not), so the operation
    count is independent of the data.
    """
    window = list(window)
    if not window:
        raise EmptyInput("weighted_histogram over an empty window")
    below = _boundary_tests(b, dx, dy, n_bins)
    bins = [b.plain(0.0)] * (n_cells * n_bins)
    for at, w, cell in window:
        w = b.as_expr(w)
        masks = _sectors(b, [b.reindex(c, at) for c in below])
        for k in range(n_bins):
            e = cell * n_bins + k
            bins[e] = b.add(bins[e], b.mul(masks[k], w))
    return bins


# -- cipher-domain convolution ------------------------------------------------------


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps with radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    radius = max(1, int(math.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return k / k.sum()


def convolve2d(ctx: CkksContext, img: Ciphertext, kernel: np.ndarray) -> Ciphertext:
    """Clamp-to-edge 2-D convolution over a grid of lane ciphertexts.

    The image ciphertext batches one independent ciphertext per pixel;
    a shifted copy is the same collection re-indexed, so each nonzero
    tap costs one plaintext multiply on the whole grid and the result
    sits exactly one plaintext level below the input.

    Each axis's clamped source rows or columns are one (taps x side)
    table, made once per call.  A column or row kernel shifts along one
    axis only, so its taps index that axis alone; a 2-D kernel's taps
    index both through ``np.ix_``.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim == 1:
        kernel = kernel.reshape(1, -1)
    kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel sides must be odd")
    value = np.asarray(img.value)
    if value.ndim != 2:
        raise ValueError("convolve2d needs a 2-D ciphertext grid")
    h, w = value.shape
    # row a of yi holds the source row of every output row at tap dy = a - kh // 2
    yi = np.clip(np.arange(h) + np.arange(-(kh // 2), kh // 2 + 1)[:, None], 0, h - 1)
    xi = np.clip(np.arange(w) + np.arange(-(kw // 2), kw // 2 + 1)[:, None], 0, w - 1)
    acc = None
    for a in range(kh):
        for c in range(kw):
            k = float(kernel[a, c])
            if k == 0.0:
                continue
            if kw == 1:
                shifted = gather(img, yi[a])
            elif kh == 1:
                shifted = gather(img, (slice(None), xi[c]))
            else:
                shifted = gather(img, np.ix_(yi[a], xi[c]))
            term = ctx.mul_plain(shifted, k)
            acc = term if acc is None else ctx.add(acc, term)
    if acc is None:
        raise ValueError("kernel has no nonzero taps")
    return acc
