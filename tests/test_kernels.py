"""Branchless kernels: max family, sector masks, histogram, convolution."""

import math

import numpy as np
import pytest

from fhesift import (Ciphertext, CipherEvaluator, CkksContext, GraphBuilder, PlainEvaluator,
                     SimParams, gather)
from fhesift.errors import EmptyInput
from fhesift.kernels import (
    bin_mask,
    bin_mask_tan,
    convolve2d,
    gaussian_kernel1d,
    max2,
    running_max,
    vec_argmax_onehot,
    vec_max,
    weighted_histogram,
)


def resolve_and_eval(ctx, b, exprs):
    """Resolve every comparison from plaintext, then run the cipher walk."""
    pe = PlainEvaluator(b)
    bool_cts = {c.id: ctx.encrypt(pe.bool_value(c)) for c in b.comparisons}
    ce = CipherEvaluator(ctx, b, bool_cts=bool_cts)
    return [ce.eval(e) for e in exprs]


def test_max2_value_and_level():
    ctx = CkksContext(SimParams(depth_budget=10))
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(3.0))
    y = b.cipher(ctx.encrypt(8.0))
    (ct,) = resolve_and_eval(ctx, b, [max2(b, x, y)])
    assert ct.value == 8.0
    assert ct.level == 9  # one select multiply


def test_running_max_chains_one_level_per_element():
    ctx = CkksContext(SimParams(depth_budget=20))
    vals = [3.0, -1.0, 7.0, 7.0, 2.0]
    b = GraphBuilder()
    xs = [b.cipher(ctx.encrypt(v)) for v in vals]
    (ct,) = resolve_and_eval(ctx, b, [running_max(b, xs, seed=-10.0)])
    assert ct.value == 7.0
    assert ct.level == 20 - len(vals)
    with pytest.raises(EmptyInput):
        running_max(b, [])


def test_vec_max_uses_log_depth():
    ctx = CkksContext(SimParams(depth_budget=20))
    vals = [5.0, 1.0, 9.0, 4.0, 8.0, 2.0]
    b = GraphBuilder()
    xs = [b.cipher(ctx.encrypt(v)) for v in vals]
    (ct,) = resolve_and_eval(ctx, b, [vec_max(b, xs)])
    assert ct.value == 9.0
    assert ct.level == 20 - math.ceil(math.log2(len(vals)))
    with pytest.raises(EmptyInput):
        vec_max(b, [])


def test_vec_argmax_matches_numpy_and_breaks_ties_low():
    ctx = CkksContext(SimParams(depth_budget=40))
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        # small integers keep the select arithmetic exact and force ties
        vals = rng.integers(0, 5, n).astype(float)
        b = GraphBuilder()
        xs = [b.cipher(ctx.encrypt(float(v))) for v in vals]
        masks = resolve_and_eval(ctx, b, vec_argmax_onehot(b, xs))
        hot = [m.value for m in masks]
        assert sorted(hot) == [0.0] * (n - 1) + [1.0]
        assert hot.index(1.0) == int(np.argmax(vals))
    with pytest.raises(EmptyInput):
        vec_argmax_onehot(GraphBuilder(), [])


def test_bin_mask_against_arctan_oracle():
    # 1000 random gradients per lane batch; every mask decision must agree
    # with arctan2 binning away from sector boundaries
    ctx = CkksContext(SimParams(depth_budget=10))
    n_bins = 36
    rng = np.random.default_rng(20)
    dx = rng.uniform(-3, 3, 1000)
    dy = rng.uniform(-3, 3, 1000)
    ang = np.mod(np.arctan2(dy, dx), 2 * math.pi)
    want = np.floor(ang / (2 * math.pi / n_bins)).astype(int) % n_bins
    margin = np.full(dx.shape, np.inf)
    for j in range(n_bins):
        a = 2 * math.pi * j / n_bins
        margin = np.minimum(margin, np.abs(math.cos(a) * dy - math.sin(a) * dx))
    keep = margin > 1e-9
    assert keep.sum() > 900

    b = GraphBuilder()
    masks = bin_mask(b, b.cipher(ctx.encrypt(dx)), b.cipher(ctx.encrypt(dy)), n_bins)
    pe = PlainEvaluator(b)
    vals = np.stack([np.asarray(pe.eval(m), dtype=float) for m in masks])
    assert np.array_equal(np.unique(vals), [0.0, 1.0])
    assert np.all(vals.sum(axis=0)[keep] == 1.0)
    assert np.array_equal(vals.argmax(axis=0)[keep], want[keep])


def test_bin_mask_shares_boundary_comparisons():
    ctx = CkksContext(SimParams(depth_budget=10))
    b = GraphBuilder()
    bin_mask(b, b.cipher(ctx.encrypt(1.0)), b.cipher(ctx.encrypt(1.0)), 36)
    assert len(b.comparisons) == 36  # one per boundary, not two per bin
    with pytest.raises(ValueError):
        bin_mask(b, b.plain(1.0), b.plain(1.0), 2)


def test_bin_mask_sends_zero_gradient_nowhere():
    ctx = CkksContext(SimParams(depth_budget=10))
    b = GraphBuilder()
    masks = bin_mask(b, b.cipher(ctx.encrypt(0.0)), b.cipher(ctx.encrypt(0.0)), 8)
    pe = PlainEvaluator(b)
    assert sum(pe.eval(m) for m in masks) == 0.0


def test_bin_mask_tan_on_right_half_plane():
    # tangents repeat with period pi, so bin k and bin k+18 fire together;
    # the steep-negative wedge (true bin 27) straddles the discontinuity
    # and fires nothing, which is the cost of the cheaper formulation
    ctx = CkksContext(SimParams(depth_budget=10))
    n_bins = 36
    rng = np.random.default_rng(21)
    dx = rng.uniform(0.05, 3, 2000)
    dy = rng.uniform(-3, 3, 2000)
    ang = np.mod(np.arctan2(dy, dx), 2 * math.pi)
    want = np.floor(ang / (2 * math.pi / n_bins)).astype(int) % n_bins
    margin = np.full(dx.shape, np.inf)
    for j in range(n_bins):
        t = math.tan(2 * math.pi * j / n_bins)
        if abs(t) > 1e6:
            continue
        margin = np.minimum(margin, np.abs(dy - t * dx))
    keep = margin > 1e-9

    b = GraphBuilder()
    masks = bin_mask_tan(b, b.cipher(ctx.encrypt(dx)), b.cipher(ctx.encrypt(dy)), n_bins)
    pe = PlainEvaluator(b)
    vals = np.stack([np.asarray(pe.eval(m), dtype=float) for m in masks])
    wedge = want == 27
    assert np.all(vals.sum(axis=0)[keep & ~wedge] == 2.0)
    assert np.all(vals.sum(axis=0)[keep & wedge] == 0.0)
    got = vals.argmax(axis=0)
    sel = keep & ~wedge
    assert np.array_equal(got[sel], want[sel] % 18)


def test_weighted_histogram_conserves_weight():
    """Three cells over a window of four positions, each reading four
    lanes of six per-pixel gradients and weights; pixel 1 is read at three
    positions and pixel 4 has a zero gradient, which lands in no bin.
    Each pixel's binned weights are built once, and each bin is one window
    sum of them."""
    ctx = CkksContext(SimParams(depth_budget=12))
    n_bins, n_cells = 12, 3
    rng = np.random.default_rng(22)
    dx, dy = rng.uniform(-2, 2, (2, 6))
    dx[4] = dy[4] = 0.0
    maps = [np.array(m) for m in ([0, 1, 2, 3], [1, 5, 4, 0], [3, 3, 2, 1], [5, 4, 0, 2])]
    cells = [0, 2, 2, 0]  # cell 1 gets no position
    scales = rng.uniform(0.1, 1.0, len(maps))
    pixel_w = rng.uniform(0.1, 1.0, 6)
    b = GraphBuilder()
    gx, gy = b.cipher(ctx.encrypt(dx)), b.cipher(ctx.encrypt(dy))
    weight = b.cipher(ctx.encrypt(pixel_w))
    window = list(zip(maps, scales, cells))
    bins = weighted_histogram(b, gx, gy, n_bins, weight, window, n_cells)
    assert len(bins) == n_cells * n_bins
    assert len(b.comparisons) == n_bins  # each boundary tested once per pixel
    assert {e.op for e in bins[n_bins:2 * n_bins]} == {"plain"}  # the empty cell
    assert all(e.op == "wsum" and e.a.width == 6 for e in bins[:n_bins] + bins[2 * n_bins:])
    pe = PlainEvaluator(b)
    got = np.array([np.broadcast_to(pe.eval(e), (4,)) for e in bins])

    k = (np.mod(np.arctan2(dy, dx), 2 * math.pi) // (2 * math.pi / n_bins)).astype(int)
    want = np.zeros((n_cells * n_bins, 4))
    for m, s, c in zip(maps, scales, cells):
        hit = (dx[m] != 0.0) | (dy[m] != 0.0)
        np.add.at(want, (c * n_bins + k[m][hit], np.arange(4)[hit]), s * pixel_w[m][hit])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # per cell, the bins hold the weight of every lane but the zero gradient's
    per_cell = got.reshape(n_cells, n_bins, 4).sum(axis=1)
    for c in range(n_cells):
        mine = [(m, s) for m, s, cc in zip(maps, scales, cells) if cc == c]
        total = (sum(np.where(m == 4, 0.0, s * pixel_w[m]) for m, s in mine) if mine
                 else np.zeros(4))
        np.testing.assert_allclose(per_cell[c], total, rtol=0, atol=1e-12)
    with pytest.raises(EmptyInput):
        weighted_histogram(b, gx, gy, n_bins, weight, [])


def test_gaussian_kernel_shape():
    for sigma in (0.4, 1.0, 2.7):
        k = gaussian_kernel1d(sigma)
        radius = max(1, int(math.ceil(3.0 * sigma)))
        assert len(k) == 2 * radius + 1
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(k, k[::-1])
        assert k.argmax() == radius
    with pytest.raises(ValueError):
        gaussian_kernel1d(0.0)


def _conv_reference(img, kernel):
    h, w = img.shape
    kh, kw = kernel.shape
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-(kh // 2), kh // 2 + 1):
                for dx in range(-(kw // 2), kw // 2 + 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    acc += kernel[dy + kh // 2, dx + kw // 2] * img[yy, xx]
            out[y, x] = acc
    return out


def test_convolve2d_matches_clamped_reference():
    ctx = CkksContext(SimParams(depth_budget=5))
    rng = np.random.default_rng(23)
    img = rng.uniform(0, 1, (6, 7))
    kernel = rng.uniform(-1, 1, (3, 5))
    out = convolve2d(ctx, ctx.encrypt(img), kernel)
    assert np.allclose(out.value, _conv_reference(img, kernel), atol=1e-12)
    assert out.level == 4  # one plaintext level for the whole kernel


def test_convolve2d_one_dimensional_kernel_is_a_row():
    ctx = CkksContext(SimParams(depth_budget=5))
    rng = np.random.default_rng(24)
    img = rng.uniform(0, 1, (5, 5))
    k = rng.uniform(0, 1, 3)
    row = convolve2d(ctx, ctx.encrypt(img), k)
    full = convolve2d(ctx, ctx.encrypt(img), k.reshape(1, -1))
    assert np.array_equal(row.value, full.value)


def _convolve2d_per_tap(ctx, img, kernel):
    """The convolution as it was first written: each tap clamps its own
    rows and columns and gathers them through ``np.ix_``."""
    kernel = np.asarray(kernel, dtype=np.float64).reshape(np.shape(kernel)[0], -1)
    kh, kw = kernel.shape
    h, w = img.value.shape
    ys, xs = np.arange(h), np.arange(w)
    acc = None
    for dy in range(-(kh // 2), kh // 2 + 1):
        for dx in range(-(kw // 2), kw // 2 + 1):
            k = float(kernel[dy + kh // 2, dx + kw // 2])
            if k == 0.0:
                continue
            yi = np.clip(ys + dy, 0, h - 1)
            xi = np.clip(xs + dx, 0, w - 1)
            term = ctx.mul_plain(gather(img, np.ix_(yi, xi)), k)
            acc = term if acc is None else ctx.add(acc, term)
    return acc


@pytest.mark.parametrize("shape", [(16, 16), (9, 12), (3, 2), (1, 5)])
@pytest.mark.parametrize("kernel_shape", ["column", "row", "square"])
def test_convolve2d_matches_the_per_tap_loop_bitwise(shape, kernel_shape):
    """Column, row and 2-D kernels give the per-tap loop's values, level,
    noise bounds and op counts; the 3x2 and 1x5 grids are narrower than
    the kernel's radius, so most taps clamp."""
    rng = np.random.default_rng(31)
    k = gaussian_kernel1d(1.7)  # 13 taps
    kernel = {"column": k.reshape(-1, 1), "row": k.reshape(1, -1),
              "square": np.outer(k[3:-3], rng.uniform(-1, 1, 5))}[kernel_shape]
    kernel[kernel.shape[0] // 2, 0] = 0.0  # a zero tap is skipped by both
    img = rng.uniform(-2, 2, shape)
    noise = rng.uniform(0, 1e-9, shape)
    results = []
    for conv in (convolve2d, _convolve2d_per_tap):
        ctx = CkksContext(SimParams(depth_budget=5))
        out = conv(ctx, Ciphertext(img.copy(), 5, noise.copy()), kernel)
        results.append((out.value.tobytes(), out.noise_bound.tobytes(), out.level,
                        ctx.snapshot_counts()))
    assert results[0] == results[1]


def test_convolve2d_rejects_bad_kernels():
    ctx = CkksContext(SimParams(depth_budget=5))
    img = ctx.encrypt(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        convolve2d(ctx, img, np.ones((2, 3)))
    with pytest.raises(ValueError):
        convolve2d(ctx, img, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        convolve2d(ctx, ctx.encrypt(np.zeros(4)), np.ones((3, 3)))
