"""Keypoint pipeline over the leveled-ciphertext simulator.

Four stages: difference-of-Gaussians scale space, strict 26-neighbor
extremum detection, subpixel localization, orientation histogram and
descriptor.  In the encrypted modes every interior site of every layer
is processed identically; there is no data-dependent control flow, so
operation counts and traffic shapes depend only on image dimensions and
configuration.

Lane layout: one graph per layer index, whose ciphertexts batch the
sites of every octave back to back in octave order, so each comparison
template covers every site of the layer index at once.  Octaves sit at
different levels; ``ckks_sim.concat`` joins them at the lowest, for
free.  The graph, and so the package's structure, does not depend on
the octave count.  Each pyramid level the graph reads is one leaf over
a block of pixels, and every offset into it, of a DoG neighbourhood or
a gradient's central difference, a lane map (``GraphBuilder.reindex``),
which is free.  Comparisons are asked once and read through maps too: the
bin masks once per pixel of the region the descriptor window covers,
read through one map per window position; detection once per ordered
pair of adjacent DoG samples of the site layers, over a ring of the
sites widened by one sample, read through 9 maps, one per offset of the
3x3 neighbourhood.  Each pixel's squared gradient magnitude is likewise
computed once and read through the window position's map, so each
window weight is a reindexed per-pixel value times a public constant,
which a deferred package ships once per pixel.  Stage outputs are named
graph slots; ``_GraphPlan.split`` cuts each back into one table per
(octave, layer), and the client turns those into the keypoint list.
Subpixel division, the orientation argmax (in deferred mode) and
descriptor normalization happen client side, since none of them is
expressible in deferred arithmetic.

Compiled once per image shape: the graph, its normal forms and
everything planned from them depend on the image shape, the config and
the mode alone.  ``compile_circuit`` builds the graph with leaves that
name their sources (``_LayerLeaf``: a DoG or Gaussian level) instead
of holding ciphertexts, lists each stage's pure work (in deferred mode,
less the window weights the client computes), lowers the deferred
package's tables, plans the server's evaluation as a tape that each
image replays (the pure work, gradients included, then the package's
operands or the interactive run) and freezes the graph.
``run_pipeline`` takes circuits from a memo keyed by (image shape,
config, mode) that keeps the ``CIRCUIT_MEMO_SIZE`` most recently used.
Per image only the ciphertext work runs: scale space, binding the
leaves (one gather per leaf source and octave), the pure evaluation,
the coefficient tables, padding and shuffling, the client, and
assembly.  A circuit holds no ciphertext, and nothing an image writes
says whether its circuit came from the memo.

Mode map: "plaintext" runs the branchy reference implementation on raw
pixels; "interactive" resolves comparisons wave by wave, including a
server-side select tournament for the orientation argmax; "deferred"
ships one package and the client finishes locally, taking the argmax
over the resolved histogram bins.  Both argmax routes resolve ties to
the lowest bin.

Cross-mode agreement is structural, not approximate: every slot the
modes share is rebuilt into its canonical normal form first, so the
server-side ciphertext walk and the client-side residual sum add the
same terms in the same order, and their products of 0/1 answers are
exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .ckks_sim import Ciphertext, CkksContext, SimParams, concat, gather
from .deferred_graph import CIPHER, CipherEvaluator, Expr, GraphBuilder, RunPlan
from .errors import ConfigError, DeferralUnsupported, DepthExhausted
# bin_mask is unused here but stays importable: benchmark tracing rebinds it by name
from .kernels import bin_mask, convolve2d, gaussian_kernel1d, vec_argmax_onehot, weighted_histogram
from .protocol import Client, DecoyPolicy, LoweredProgram, lower, run_deferred, run_interactive

MARGIN = 5  # descriptor window -4..3 plus the gradient ring
WINDOW = range(-4, 4)  # descriptor window offsets; orientation reads the inner ones
ORIENTATION_RADIUS = 2
DESCRIPTOR_SIGMA = 4.0
NORM_EPS = 1e-12

MAGNITUDE_SQUARED = "magnitude-squared"
SQRT_MAGNITUDE = "sqrt-magnitude"

STAGES = ("scale-space", "detect", "localize", "orient", "descriptor", "protocol")
_GRAPH_STAGES = ("detect", "localize", "orient", "descriptor")


@dataclass(frozen=True)
class PipelineConfig:
    octaves: int = 3
    scales_per_octave: int = 3
    base_sigma: float = 1.6
    orientation_bins: int = 36
    contrast_threshold: float = 0.03
    edge_threshold: float = 10.0
    orientation_weighting: str = MAGNITUDE_SQUARED

    def __post_init__(self):
        if self.octaves < 1 or self.scales_per_octave < 1:
            raise ConfigError("octaves and scales_per_octave must be positive")
        for name in ("base_sigma", "contrast_threshold", "edge_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.base_sigma <= 0:
            raise ConfigError("base_sigma must be positive")
        if self.orientation_bins < 3:
            raise ConfigError("orientation_bins must be at least 3")
        if self.orientation_weighting not in (MAGNITUDE_SQUARED, SQRT_MAGNITUDE):
            raise ConfigError(
                f"unknown orientation_weighting {self.orientation_weighting!r}")

    def sigmas(self) -> list[float]:
        s = self.scales_per_octave
        return [self.base_sigma * 2.0 ** (i / s) for i in range(s + 3)]


@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    octave: int
    scale: float
    orientation_bin: int
    descriptor: tuple[float, ...]

    def line(self) -> str:
        head = f"{self.x:.6f} {self.y:.6f} {self.octave} {self.scale:.6f} {self.orientation_bin}"
        return head + " " + " ".join(f"{v:.6f}" for v in self.descriptor)

    def key(self) -> tuple:
        """Identity for cross-run matching: position, scale and bin."""
        return (self.octave, round(self.x, 6), round(self.y, 6),
                round(self.scale, 6), self.orientation_bin)


def parse_keypoint_line(line: str) -> Keypoint:
    parts = line.split()
    if len(parts) < 5:
        raise ValueError(f"keypoint line has {len(parts)} fields, expected at least 5")
    return Keypoint(
        float(parts[0]), float(parts[1]), int(parts[2]), float(parts[3]), int(parts[4]),
        tuple(float(v) for v in parts[5:]),
    )


def keypoints_to_text(kps: list[Keypoint]) -> str:
    return "".join(kp.line() + "\n" for kp in kps)


def keypoints_from_text(text: str) -> list[Keypoint]:
    return [parse_keypoint_line(ln) for ln in text.splitlines() if ln.strip()]


def compare_keypoints(a: list[Keypoint], b: list[Keypoint],
                      descriptor_tol: float = 1e-9) -> dict:
    """Match two runs by keypoint identity; descriptors compare within tol."""
    bya = {kp.key(): kp for kp in a}
    byb = {kp.key(): kp for kp in b}
    only_a = sorted(k for k in bya if k not in byb)
    only_b = sorted(k for k in byb if k not in bya)
    max_desc = 0.0
    mismatched = []
    for k in bya.keys() & byb.keys():
        da = np.asarray(bya[k].descriptor)
        db = np.asarray(byb[k].descriptor)
        d = float(np.max(np.abs(da - db))) if da.size else 0.0
        max_desc = max(max_desc, d)
        if d > descriptor_tol:
            mismatched.append(k)
    return {
        "matched": len(bya.keys() & byb.keys()),
        "only_a": only_a,
        "only_b": only_b,
        "descriptor_mismatches": sorted(mismatched),
        "max_descriptor_diff": max_desc,
        "equal": not only_a and not only_b and not mismatched,
    }


@dataclass
class RunReport:
    mode: str
    image_shape: tuple[int, int]
    seed: int
    depth_budget: int
    keypoint_count: int = 0
    dependency_depth: int = 0
    rounds: list = field(default_factory=list)
    stage_ops: dict = field(default_factory=dict)
    stage_min_level: dict = field(default_factory=dict)
    # wall seconds per stage, plus "compile" when the run compiled its
    # circuit: they depend on the host and on the memo, so report.kv,
    # which identical runs must reproduce byte for byte, never shows them
    stage_wall_s: dict = field(default_factory=dict)
    cmp_lanes: dict = field(default_factory=dict)
    server_decrypt_calls: int = 0
    client_decrypt_calls: int = 0
    leakage: dict | None = None
    package_bytes: int | None = None
    package_sections: dict | None = None  # package bytes per header and section
    oracle_diff: dict | None = None


@dataclass
class PipelineResult:
    keypoints: list[Keypoint]
    report: RunReport
    slots: dict | None = None


def validate_image(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ConfigError("image must be a non-empty 2-D array")
    if not np.all(np.isfinite(img)):
        raise ConfigError("image contains non-finite values")
    return img


def _interior(dim: int) -> np.ndarray:
    return np.arange(MARGIN, dim - MARGIN)


def _site_grid(h: int, w: int):
    iy, ix = _interior(h), _interior(w)
    if len(iy) == 0 or len(ix) == 0:
        return None
    ys, xs = np.meshgrid(iy, ix, indexing="ij")
    return ys.ravel(), xs.ravel()


# -- encrypted scale space ---------------------------------------------------------


def _scale_space_cipher(ctx: CkksContext, img_ct, cfg: PipelineConfig):
    """Gaussian and DoG pyramids of batched per-pixel ciphertexts.

    Every blur runs directly from the octave base (two separable passes,
    two plaintext levels), so level consumption per octave is flat in
    the number of scales.  The input counts as already carrying the
    base blur.
    """
    sigmas = cfg.sigmas()
    s = cfg.scales_per_octave
    gauss, dog, dims = [], [], []
    base = img_ct
    for o in range(cfg.octaves):
        h, w = np.asarray(base.value).shape
        dims.append((h, w))
        levels = [base]
        for i in range(1, s + 3):
            srel = math.sqrt(sigmas[i] * sigmas[i] - sigmas[0] * sigmas[0])
            k = gaussian_kernel1d(srel)
            g = convolve2d(ctx, convolve2d(ctx, base, k.reshape(-1, 1)), k.reshape(1, -1))
            levels.append(g)
        gauss.append(levels)
        dog.append([ctx.sub(levels[j + 1], levels[j]) for j in range(s + 2)])
        base = gather(levels[s], np.ix_(np.arange(0, h, 2), np.arange(0, w, 2)))
    return gauss, dog, dims


# -- graph construction ------------------------------------------------------------


_NEIGHBORS_26 = [
    (dl, dy, dx)
    for dl in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dx in (-1, 0, 1)
    if (dl, dy, dx) != (0, 0, 0)
]


class _GraphPlan:
    """Everything the run phase needs to know about the built graph."""

    def __init__(self, builder: GraphBuilder):
        self.builder = builder
        self.slots: dict = {}
        self.stage_slots: dict[str, list[str]] = {st: [] for st in _GRAPH_STAGES}
        self.stage_cmps: dict[str, list[int]] = {st: [] for st in _GRAPH_STAGES}
        self.stage_sqrts: dict[str, list[int]] = {st: [] for st in _GRAPH_STAGES}
        # expressions whose normal-form coefficients are the stage's pure work
        self.stage_roots: dict[str, list] = {st: [] for st in _GRAPH_STAGES}
        # (ys, xs) of each octave with interior sites; every graph batches
        # these octaves' sites back to back, in octave order
        self.sites: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.layers: dict[str, int] = {}  # graph name -> its layer index
        # per pyramid ("dog", "gauss"), the (ys, xs) pixel lists of each
        # octave's block, which its leaves gather: the sites widened by
        # two samples, and the descriptor window's region widened by one
        self.blocks: dict[str, list] = {}
        self.leaves: list = []  # every leaf node, in id order

    def add_slot(self, stage: str, name: str, e):
        self.slots[name] = e
        self.stage_slots[stage].append(name)

    def split(self, values: dict) -> dict:
        """Each graph slot's lanes as one table per octave, named
        ``o{octave}l{layer}/...`` like the slot tables of a one-octave run.
        A one-octave run's tables are the slots' own."""
        ends = np.cumsum([len(ys) for ys, _ in self.sites.values()]).tolist()
        bounds = list(zip(self.sites, [0, *ends], ends))
        out = {}
        for name, v in values.items():
            graph, field = name.split("/")
            layer = self.layers[graph]
            if len(bounds) == 1:
                out[f"o{bounds[0][0]}l{layer}/{field}"] = v
                continue
            for o, lo, hi in bounds:
                out[f"o{o}l{layer}/{field}"] = v[lo:hi]
        return out

    def mark_stage(self, stage: str, cmp_lo: int, sqrt_lo: int):
        b = self.builder
        self.stage_cmps[stage].extend(range(cmp_lo, len(b.comparisons)))
        self.stage_sqrts[stage].extend(range(sqrt_lo, len(b.sqrts)))

    def cmp_lanes(self) -> dict[str, int]:
        """Comparison lanes each stage asks of its own pure operands
        (tier 1); comparisons that wait on answers show in the rounds."""
        b = self.builder
        return {st: sum(b.comparisons[c].width for c in cids if b.comparisons[c].tier == 1)
                for st, cids in self.stage_cmps.items()}

    def pure(self, stage: str) -> list:
        """The stage's server work that needs no client answer: pure
        comparison operands, pure sqrt arguments and the normal-form
        coefficients of its roots, each once, in first-use order."""
        b = self.builder
        exprs = [side for cid in self.stage_cmps[stage]
                 for side in (b.comparisons[cid].lhs, b.comparisons[cid].rhs)]
        exprs += [b.sqrts[sid].arg for sid in self.stage_sqrts[stage]]
        exprs = [e for e in exprs if e.tier == 0]
        exprs += [c for root in self.stage_roots[stage] for c in b.normal_form(root).values()]
        return list({e.id: e for e in exprs}.values())

    def waiting_stage(self) -> str | None:
        """The first stage owning requests that wait on earlier answers
        (tier > 1), if any.  Past the pure evaluation, only their operands
        make the server evaluate while the protocol runs."""
        b = self.builder
        return next((st for st in _GRAPH_STAGES
                     if any(b.comparisons[c].tier > 1 for c in self.stage_cmps[st])
                     or any(b.sqrts[q].tier > 1 for q in self.stage_sqrts[st])), None)


@contextmanager
def _stage(ctx: CkksContext, report: RunReport, name: str, depth_stage: str | None = None):
    """Guard one stage: add its simulator ops to ``report.stage_ops[name]``
    and its wall seconds to ``report.stage_wall_s[name]``, and re-raise
    DepthExhausted naming ``depth_stage`` (default ``name``).

    Yields ``note(cts)``, which lowers ``report.stage_min_level[name]`` to
    the lowest level among ``cts``.
    """

    def note(cts):
        low = min((ct.level for ct in cts), default=None)
        if low is not None:
            report.stage_min_level[name] = min(report.stage_min_level.get(name, low), low)

    before = ctx.snapshot_counts()
    start = time.perf_counter()
    try:
        yield note
    except DepthExhausted as e:
        raise DepthExhausted(str(e), stage=depth_stage or name) from e
    finally:
        report.stage_wall_s[name] = (report.stage_wall_s.get(name, 0.0)
                                     + time.perf_counter() - start)
        acc = report.stage_ops.setdefault(name, {})
        for k, n in ctx.snapshot_counts().items():
            d = n - before.get(k, 0)
            if d:
                acc[k] = acc.get(k, 0) + d


def _block_maps(points, window: range):
    """Each octave's pixel block, its ``points`` (the (ys, xs) of its sites
    or of an earlier block) widened by ``window``, as (ys, xs) pixel lists,
    and for every offset (u, v) of the window the lane map from points to
    block lanes, with the octaves' blocks back to back in octave order.  A
    map depends on the octaves' shapes only, so every layer index shares it."""
    blocks, parts, offset = [], {}, 0
    for ys, xs in points:
        ry = np.arange(ys.min() + window[0], ys.max() + window[-1] + 1)
        rx = np.arange(xs.min() + window[0], xs.max() + window[-1] + 1)
        for vv in window:
            for uu in window:
                at = offset + (ys + vv - ry[0]) * len(rx) + (xs + uu - rx[0])
                parts.setdefault((uu, vv), []).append(at)
        blocks.append(tuple(a.ravel() for a in np.meshgrid(ry, rx, indexing="ij")))
        offset += len(ry) * len(rx)
    return blocks, {key: np.concatenate(at) for key, at in parts.items()}


def _or(b: GraphBuilder, p, q):
    return b.sub(b.add(p, q), b.mul(p, q))


@dataclass(frozen=True)
class _LayerLeaf:
    """Where a graph leaf's lanes come from: level ``layer`` of the
    ``pyramid`` ("dog" or "gauss") at the pixels of that pyramid's block
    (``_GraphPlan.blocks``) of each octave with sites, octaves back to
    back."""

    pyramid: str
    layer: int


def _octave_dims(shape: tuple[int, int], octaves: int) -> list[tuple[int, int]]:
    """Each octave's (height, width); every octave halves the last,
    rounding up, as ``_scale_space_cipher`` subsamples."""
    dims = [tuple(shape)]
    for _ in range(octaves - 1):
        h, w = dims[-1]
        dims.append(((h + 1) // 2, (w + 1) // 2))
    return dims


def _build_site_graph(plan: _GraphPlan, dims, cfg: PipelineConfig, with_argmax: bool):
    """Build the site graph of an image whose octaves have shapes ``dims``.
    Its leaves name their sources (``_LayerLeaf``), so the graph depends on
    the shapes and ``cfg`` only."""
    b = plan.builder
    s = cfg.scales_per_octave
    sigmas = cfg.sigmas()
    t = cfg.contrast_threshold
    r = cfg.edge_threshold
    nb = cfg.orientation_bins

    for o in range(cfg.octaves):
        grid = _site_grid(*dims[o])
        if grid is not None:
            plan.sites[o] = grid
    if not plan.sites:
        return
    octs = list(plan.sites)

    # One leaf per pyramid level, and every offset a lane map into it.
    # Detection reads DoG values over the ring (the sites widened by one
    # sample) and its neighbours, so the DoG block is the sites widened by
    # two.  Gradients are taken once per pixel of the region the descriptor
    # window covers, as central differences of the Gaussian block: that
    # region widened by one.  Window position (uu, vv) reads them through
    # a lane map from sites to region pixels.
    ring, ring_maps = _block_maps(plan.sites.values(), range(-1, 2))
    region, lanes = _block_maps(plan.sites.values(), WINDOW)
    plan.blocks["dog"], from_ring = _block_maps(ring, range(-1, 2))
    plan.blocks["gauss"], from_region = _block_maps(region, range(-1, 2))
    from_site = {d: at[ring_maps[0, 0]] for d, at in from_ring.items()}
    leaves: dict = {}

    def level(pyramid, layer, copy=0):
        """Leaf ``copy`` of a pyramid level; copies share one source."""
        if (pyramid, layer, copy) not in leaves:
            width = sum(len(ys) for ys, _ in plan.blocks[pyramid])
            leaves[pyramid, layer, copy] = b.leaf(_LayerLeaf(pyramid, layer), width,
                                                  name=f"{pyramid}{layer}" + "'" * copy)
        return leaves[pyramid, layer, copy]

    # one graph per layer index, batching every octave's sites in octave
    # order; it is named after the octaves it spans, so a one-octave
    # graph's slots already carry their table names
    span = f"o{octs[0]}" + (f"-{octs[-1]}" if len(octs) > 1 else "")

    # Detection asks [D_la(a) > D_lb(a + d)] once per ordered pair of
    # adjacent samples of site layers (1 <= la, lb <= s, |la - lb| <= 1),
    # over the ring.  Site p reads its max test against neighbour (dl, d)
    # as (l, l + dl, d) at its own ring lane, and its min test as
    # (l + dl, l, -d) at the ring lane of p + d, through 9 lane maps that
    # every layer index shares; the graphs of layer indices l and l + 1
    # share the tests between their layers.  A test's left operand reads
    # the layer's second leaf: over one leaf, (la, lb, 0) and (lb, la, 0)
    # would be one pair of operands, and the second test the non-strict
    # 1 - c of the first.
    ring_tests: dict = {}

    def ring_test(la, lb, dy, dx):
        key = (la, lb, dy, dx)
        if key not in ring_tests:
            ring_tests[key] = b.compare(b.reindex(level("dog", la, 1), from_ring[0, 0]),
                                        b.reindex(level("dog", lb), from_ring[dx, dy]))
        return ring_tests[key]

    for l in range(1, s + 1):
        p = f"{span}l{l}"
        plan.layers[p] = l

        def dsite(dl, dy, dx, copy=0):
            """DoG layer l + dl at the sites shifted by (dy, dx)."""
            return b.reindex(level("dog", l + dl, copy), from_site[dx, dy])

        # detect: strict max or strict min among the 26 neighbors,
        # plus |v| above the contrast threshold.
        cmp_lo, sqrt_lo = len(b.comparisons), len(b.sqrts)
        v = dsite(0, 0, 0)

        def beats(dl, dy, dx, lower):
            """[v > n] against neighbour n = (dl, dy, dx), or [n > v]."""
            if 1 <= l + dl <= s:
                if lower:
                    return b.reindex(ring_test(l + dl, l, -dy, -dx), ring_maps[dx, dy])
                return b.reindex(ring_test(l, l + dl, dy, dx), ring_maps[0, 0])
            # DoG layers 0 and s + 1 hold no sites, so no other site reads
            # this pair: it is asked at the site lanes, the min test on v
            # read from the layer's second leaf
            n = dsite(dl, dy, dx)
            return b.compare(n, dsite(0, 0, 0, copy=1)) if lower else b.compare(v, n)

        is_max = b.product([beats(*nb, lower=False) for nb in _NEIGHBORS_26])
        is_min = b.product([beats(*nb, lower=True) for nb in _NEIGHBORS_26])
        contrast = _or(b, b.compare(v, b.plain(t)), b.compare(b.plain(-t), v))
        det_mask = b.mul(_or(b, is_max, is_min), contrast)
        plan.mark_stage("detect", cmp_lo, sqrt_lo)

        # localize: central differences, adjugate solve, acceptance
        # and edge tests in cleared (division-free) form.
        cmp_lo, sqrt_lo = len(b.comparisons), len(b.sqrts)
        d0 = {(dy, dx): dsite(0, dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)}
        half, quarter = b.plain(0.5), b.plain(0.25)
        gx = b.mul(half, b.sub(d0[(0, 1)], d0[(0, -1)]))
        gy = b.mul(half, b.sub(d0[(1, 0)], d0[(-1, 0)]))
        gs = b.mul(half, b.sub(dsite(1, 0, 0), dsite(-1, 0, 0)))
        v2 = b.add(v, v)
        dxx = b.sub(b.add(d0[(0, 1)], d0[(0, -1)]), v2)
        dyy = b.sub(b.add(d0[(1, 0)], d0[(-1, 0)]), v2)
        dss = b.sub(b.add(dsite(1, 0, 0), dsite(-1, 0, 0)), v2)
        dxy = b.mul(quarter, b.sub(b.sub(d0[(1, 1)], d0[(1, -1)]),
                                   b.sub(d0[(-1, 1)], d0[(-1, -1)])))
        dxs = b.mul(quarter, b.sub(b.sub(dsite(1, 0, 1), dsite(1, 0, -1)),
                                   b.sub(dsite(-1, 0, 1), dsite(-1, 0, -1))))
        dys = b.mul(quarter, b.sub(b.sub(dsite(1, 1, 0), dsite(1, -1, 0)),
                                   b.sub(dsite(-1, 1, 0), dsite(-1, -1, 0))))
        a00 = b.sub(b.mul(dyy, dss), b.mul(dys, dys))
        a01 = b.sub(b.mul(dxs, dys), b.mul(dxy, dss))
        a02 = b.sub(b.mul(dxy, dys), b.mul(dyy, dxs))
        a11 = b.sub(b.mul(dxx, dss), b.mul(dxs, dxs))
        a12 = b.sub(b.mul(dxy, dxs), b.mul(dxx, dys))
        a22 = b.sub(b.mul(dxx, dyy), b.mul(dxy, dxy))
        det = b.add(b.add(b.mul(dxx, a00), b.mul(dxy, a01)), b.mul(dxs, a02))
        num_x = b.neg(b.add(b.add(b.mul(a00, gx), b.mul(a01, gy)), b.mul(a02, gs)))
        num_y = b.neg(b.add(b.add(b.mul(a01, gx), b.mul(a11, gy)), b.mul(a12, gs)))
        num_s = b.neg(b.add(b.add(b.mul(a02, gx), b.mul(a12, gy)), b.mul(a22, gs)))
        accept = b.rational_div(num_x, det).abs_le(0.5)
        accept = b.mul(accept, b.rational_div(num_y, det).abs_le(0.5))
        accept = b.mul(accept, b.rational_div(num_s, det).abs_le(0.5))
        tr = b.add(dxx, dyy)
        det2 = b.sub(b.mul(dxx, dyy), b.mul(dxy, dxy))
        # tr^2 <= r*det2 rejects det2 <= 0 on its own; no sign split
        edge_ok = b.sub(b.plain(1.0), b.compare(b.mul(tr, tr), b.mul(b.plain(r), det2)))
        kp_mask = b.mul(b.mul(det_mask, accept), edge_ok)
        plan.mark_stage("localize", cmp_lo, sqrt_lo)
        for name, e in (("mask", kp_mask), ("det", det), ("num_x", num_x),
                        ("num_y", num_y), ("num_s", num_s)):
            e = b.simplify(e)
            plan.stage_roots["localize"].append(e)
            plan.add_slot("localize", f"{p}/{name}", e)

        # x and y central differences of the Gaussian level over the
        # region; orientation reads the window's inner part.  The 1/2
        # factor is folded into the plaintext weights; angles do not see
        # scale.  The bin masks below ask each pixel's comparisons once,
        # and each pixel's squared magnitude is computed once; window
        # position (uu, vv) reads both through its lane map.
        g = level("gauss", l)
        gx_e = b.sub(b.reindex(g, from_region[1, 0]), b.reindex(g, from_region[-1, 0]))
        gy_e = b.sub(b.reindex(g, from_region[0, 1]), b.reindex(g, from_region[0, -1]))
        mag2 = b.add(b.mul(gx_e, gx_e), b.mul(gy_e, gy_e))

        # orientation histogram over the inner window
        cmp_lo, sqrt_lo = len(b.comparisons), len(b.sqrts)
        sw = 1.5 * sigmas[l]
        rad = ORIENTATION_RADIUS
        window = []
        for vv in range(-rad, rad + 1):
            for uu in range(-rad, rad + 1):
                at = lanes[(uu, vv)]
                gwin = math.exp(-(uu * uu + vv * vv) / (2.0 * sw * sw))
                if cfg.orientation_weighting == MAGNITUDE_SQUARED:
                    w = b.mul(b.reindex(mag2, at), b.plain(0.25 * gwin))
                else:
                    w = b.mul(b.sqrt_deferred(b.reindex(mag2, at)), b.plain(0.5 * gwin))
                window.append((at, w, 0))
        bins = [b.simplify(e) for e in weighted_histogram(b, gx_e, gy_e, nb, window)]
        wsum = b.simplify(b.sum_([w for _, w, _ in window]))
        # the bins are roots in both modes; the one-hot slots are not,
        # since their coefficients hang on the tournament's answers
        plan.stage_roots["orient"] += [wsum, *bins]
        plan.add_slot("orient", f"{p}/wsum", wsum)
        if with_argmax:
            onehot = vec_argmax_onehot(b, bins)
            for k in range(nb):
                plan.add_slot("orient", f"{p}/oh{k:02d}", onehot[k])
        else:
            for k in range(nb):
                plan.add_slot("orient", f"{p}/bin{k:02d}", bins[k])
        plan.mark_stage("orient", cmp_lo, sqrt_lo)

        # descriptor: 4x4 cells of 2x2 pixels, 8 angle bins, fixed
        # Gaussian weight, nearest-cell assignment
        cmp_lo, sqrt_lo = len(b.comparisons), len(b.sqrts)
        window = []
        for vv in range(-4, 4):
            for uu in range(-4, 4):
                at = lanes[(uu, vv)]
                gwin = math.exp(
                    -(uu * uu + vv * vv) / (2.0 * DESCRIPTOR_SIGMA * DESCRIPTOR_SIGMA))
                w = b.mul(b.reindex(mag2, at), b.plain(0.25 * gwin))
                window.append((at, w, (vv + 4) // 2 * 4 + (uu + 4) // 2))
        for e, d in enumerate(weighted_histogram(b, gx_e, gy_e, 8, window, n_cells=16)):
            d = b.simplify(d)
            plan.stage_roots["descriptor"].append(d)
            plan.add_slot("descriptor", f"{p}/d{e:03d}", d)
        plan.mark_stage("descriptor", cmp_lo, sqrt_lo)


# -- assembly ----------------------------------------------------------------------


def _assemble(plan: _GraphPlan, values: dict, cfg: PipelineConfig,
              orientation_from: str) -> list[Keypoint]:
    """Turn resolved slot lanes into the keypoint list (client side)."""
    kps = []
    nb = cfg.orientation_bins
    for (o, (ys, xs)), l in itertools.product(plan.sites.items(),
                                              range(1, cfg.scales_per_octave + 1)):
        p = f"o{o}l{l}"
        mask = np.asarray(values[f"{p}/mask"])
        # exact runs give literal 0.0/1.0; under injected noise the product
        # of boolean factors only drifts by the noise bound, so 0.5 splits
        hot = np.nonzero(mask > 0.5)[0]
        if len(hot) == 0:
            continue
        det = np.asarray(values[f"{p}/det"])
        nums = [np.asarray(values[f"{p}/num_{ax}"]) for ax in ("x", "y", "s")]
        prefix = "oh" if orientation_from == "onehot" else "bin"
        stack = np.stack([values[f"{p}/{prefix}{k:02d}"] for k in range(nb)])
        obins = np.argmax(stack, axis=0)
        desc = np.stack([values[f"{p}/d{e:03d}"] for e in range(128)])
        scale_factor = float(1 << o)
        for i in hot:
            d = float(det[i])
            if d != 0.0:
                off = [float(n[i]) / d for n in nums]
            else:
                off = [0.0, 0.0, 0.0]
            vec = desc[:, i].astype(np.float64)
            norm2 = float(np.sum(vec * vec))
            if norm2 >= NORM_EPS:
                vec = vec / math.sqrt(norm2) + 0.0  # adding 0 drops negative zeros
            else:
                vec = np.zeros(128)
            kps.append(Keypoint(
                x=(float(xs[i]) + off[0]) * scale_factor,
                y=(float(ys[i]) + off[1]) * scale_factor,
                octave=o,
                scale=float(l) + off[2],
                orientation_bin=int(obins[i]),
                descriptor=tuple(float(c) for c in vec),
            ))
    kps.sort(key=lambda k: (k.octave, k.scale, k.y, k.x))
    return kps


# -- compile -----------------------------------------------------------------------


@dataclass(frozen=True)
class Circuit:
    """The part of an encrypted run that depends on the image shape, the
    config and the mode alone, compiled once and shared by every image of
    that kind.  It holds no ciphertext: each image binds the frozen
    graph's leaves (``GraphBuilder.bind``) and gives an evaluator of its
    own ``run_plan``, whose tape replays the image's whole server-side
    evaluation: ``pure``, then binding ``program`` or the interactive
    run.
    """

    plan: _GraphPlan
    pure: dict[str, list[Expr]]  # stage -> what _evaluate_pure asks for
    dependency_depth: int
    cmp_lanes: dict[str, int]
    waiting_stage: str | None
    program: LoweredProgram | None  # deferred: the slots lowered, unbound
    run_plan: RunPlan  # _evaluate_pure's asks, then program.bind's or the protocol's


def compile_circuit(shape: tuple[int, int], cfg: PipelineConfig, mode: str) -> Circuit:
    """Build, simplify and plan the site graph of a ``shape`` image for
    ``mode`` ("interactive" or "deferred"), then freeze it."""
    plan = _GraphPlan(GraphBuilder())
    _build_site_graph(plan, _octave_dims(shape, cfg.octaves), cfg,
                      with_argmax=(mode == "interactive"))
    b = plan.builder
    program = lower(b, plan.slots) if mode == "deferred" else None
    # the client scales the window weights a package ships as references,
    # so the server never evaluates them
    shipped = {e.id for e in program.ref_nodes} if program else set()
    pure = {stage: [e for e in plan.pure(stage) if e.id not in shipped] for stage in _GRAPH_STAGES}
    first = [e for es in pure.values() for e in es]
    if program is not None:
        run_plan = RunPlan.over(program.operands(), first=first)
    else:
        # run_pipeline asks for the slots stage by stage
        run_plan = RunPlan.over([plan.slots[name] for stage in _GRAPH_STAGES
                                 for name in plan.stage_slots[stage]], first=first)
    plan.leaves = [n for n in b.nodes if n.op == CIPHER]
    b.freeze()
    return Circuit(plan, pure, max((e.tier for e in plan.slots.values()), default=0),
                   plan.cmp_lanes(), plan.waiting_stage(), program, run_plan)


CIRCUIT_MEMO_SIZE = 4  # compiled circuits kept, least recently used dropped first


@functools.lru_cache(maxsize=CIRCUIT_MEMO_SIZE)
def _memo_circuit(shape: tuple[int, int], cfg: PipelineConfig, mode: str,
                  cfg_text: str) -> Circuit:
    """The circuit for (shape, cfg, mode).  ``cfg_text``, ``repr(cfg)``,
    only keys the memo: configs that compare equal but differ in a sign
    (0.0 and -0.0) put differently signed constants on the wire."""
    return compile_circuit(shape, cfg, mode)


# -- run ---------------------------------------------------------------------------


def _bind_leaves(plan: _GraphPlan, pyramids: dict) -> dict[int, Ciphertext]:
    """Each leaf's ciphertext: its level of ``pyramids[pyramid]`` gathered
    over that pyramid's block of each octave with sites, octaves back to
    back, once per source."""
    cts = {src: concat([gather(pyramids[src.pyramid][o][src.layer], block)
                        for o, block in zip(plan.sites, plan.blocks[src.pyramid])])
           for src in dict.fromkeys(n.payload for n in plan.leaves)}
    return {n.id: cts[n.payload] for n in plan.leaves}


def run_pipeline(img, cfg: PipelineConfig | None = None, sim: SimParams | None = None,
                 mode: str = "plaintext", seed: int = 0,
                 keep_slots: bool = False) -> PipelineResult:
    cfg = cfg if cfg is not None else PipelineConfig()
    sim = sim if sim is not None else SimParams()
    img = validate_image(img)

    if mode == "plaintext":
        from . import oracle

        kps = oracle.run_reference(img, cfg)
        report = RunReport("plaintext", img.shape, seed, sim.depth_budget,
                           keypoint_count=len(kps))
        return PipelineResult(kps, report)
    if mode not in ("interactive", "deferred"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "deferred" and cfg.orientation_weighting == SQRT_MAGNITUDE:
        raise DeferralUnsupported(
            "sqrt-magnitude orientation weighting resolves square roots "
            "mid-histogram; run it interactively")

    misses, start = _memo_circuit.cache_info().misses, time.perf_counter()
    circuit = _memo_circuit(img.shape, cfg, mode, repr(cfg))
    plan = circuit.plan
    ctx = CkksContext(sim, seed=seed)
    client = Client(ctx)
    report = RunReport(mode, img.shape, seed, sim.depth_budget,
                       dependency_depth=circuit.dependency_depth,
                       cmp_lanes=dict(circuit.cmp_lanes))
    if _memo_circuit.cache_info().misses > misses:  # this run compiled its circuit
        report.stage_wall_s["compile"] = time.perf_counter() - start

    with _stage(ctx, report, "scale-space") as note:
        gauss, dog, _ = _scale_space_cipher(ctx, ctx.encrypt(img), cfg)
        note([g for lv in gauss for g in lv] + [d for lv in dog for d in lv])
    b = plan.builder.bind(_bind_leaves(plan, {"dog": dog, "gauss": gauss}))
    ev = CipherEvaluator(ctx, b)
    ev.follow(circuit.run_plan)
    _evaluate_pure(ctx, circuit, report, ev)

    if mode == "deferred":
        with _stage(ctx, report, "protocol"):
            # every ciphertext the program binds is already computed, and
            # the plan frees each after binding it; the bound program
            # holds every one that outlives binding, and dropping the
            # leaves releases the rest
            program = circuit.program.bind(ev)
            b.leaves.clear()
            run = run_deferred(program, client, DecoyPolicy(), seed=seed)
        values = plan.split({k: np.atleast_1d(np.asarray(v)) for k, v in run.results.items()})
        report.rounds = run.rounds
        report.leakage = run.leakage
        report.package_bytes = run.package_bytes
        report.package_sections = run.package_sections
    else:
        with _stage(ctx, report, "protocol", depth_stage=circuit.waiting_stage):
            run = run_interactive(ctx, b, plan.slots, client, DecoyPolicy(), seed=seed,
                                  evaluator=ev, evaluate_slots=False, run_plan=circuit.run_plan)
        report.rounds = run.rounds
        values = {}
        for stage in _GRAPH_STAGES:
            with _stage(ctx, report, stage) as note:
                # the run's plan asks for every slot once, in this order,
                # so the evaluator drops each slot's ciphertext once it is
                # returned; decrypting it at once keeps one slot
                # ciphertext alive at a time
                for name in plan.stage_slots[stage]:
                    ct = ev.eval(plan.slots[name])
                    note([ct])
                    values[name] = np.atleast_1d(np.asarray(client.decrypt_value(ct)))
        values = plan.split(values)

    kps = _assemble(plan, values, cfg,
                    orientation_from=("onehot" if mode == "interactive" else "bins"))
    report.keypoint_count = len(kps)
    report.client_decrypt_calls = client.attributed_decrypts
    report.server_decrypt_calls = client.unattributed_decrypts()
    return PipelineResult(kps, report, slots=values if keep_slots else None)


def _evaluate_pure(ctx, circuit: Circuit, report: RunReport, ev: CipherEvaluator):
    """Evaluate, stage by stage, all server work that needs no client answer
    (``_GraphPlan.pure``), the first asks of the circuit's plan, which
    ``ev`` follows.  Both protocols then find these ciphertexts computed,
    so running out of depth is attributed to the stage that caused it.
    """
    for stage in _GRAPH_STAGES:
        with _stage(ctx, report, stage) as note:
            note([ev.eval(e) for e in circuit.pure[stage]])
