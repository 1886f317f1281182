"""Outside-in spans around the public functions of each fhesift layer.

A span is recorded by rebinding a name where its caller looks it up:
module functions in the calling module's namespace, methods on their
class.  Private helpers are not wrapped, so their cost stays in the
self time of the nearest wrapped caller.  Spans (name, start, end,
parent span, image id) stay in memory in flat arrays and are written
out once, when the run ends.

Self time is a span's duration minus the durations of its direct
children.  Summed over every span of one image this telescopes to the
image's root span, which ``accounting`` checks.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from fhesift import ckks_sim, deferred_graph, kernels, protocol, sift_pipeline

ROOT = "sift_pipeline.run_pipeline"

# GraphBuilder methods that construct nodes; about 500k calls per
# natural64 image.  as_expr and the underscored helpers are not wrapped.
BUILD_METHODS = ("cipher", "plain", "add", "neg", "sub", "mul", "sum_", "product",
                 "compare", "select", "sqrt_deferred", "rational_div", "rational_lt",
                 "rational_gt", "rational_abs_le")
CKKS_METHODS = ("encrypt", "add", "sub", "neg", "mul", "mul_plain")

# (owner, attribute, span name).  The layer of a span is the text before
# the first dot of its name.  bin_mask is bound twice because the
# pipeline calls it directly and weighted_histogram calls it inside
# kernels.
TARGETS = (
    *((ckks_sim.CkksContext, m, "ckks_sim." + m) for m in CKKS_METHODS),
    *((deferred_graph.GraphBuilder, m, "deferred_graph.build") for m in BUILD_METHODS),
    (deferred_graph.GraphBuilder, "normal_form", "deferred_graph.normal_form"),
    (deferred_graph.GraphBuilder, "simplify", "deferred_graph.simplify"),
    (deferred_graph.CipherEvaluator, "eval", "deferred_graph.eval"),
    (sift_pipeline, "lower", "deferred_graph.lower"),
    (sift_pipeline, "convolve2d", "kernels.convolve2d"),
    (sift_pipeline, "bin_mask", "kernels.bin_mask"),
    (kernels, "bin_mask", "kernels.bin_mask"),
    (sift_pipeline, "weighted_histogram", "kernels.weighted_histogram"),
    (sift_pipeline, "vec_argmax_onehot", "kernels.vec_argmax_onehot"),
    (protocol, "serialize_package", "protocol.serialize"),
    (protocol, "parse_package", "protocol.parse"),
    *((protocol.Client, m, "protocol.client")
      for m in ("resolve_comparisons", "resolve_sqrts", "resolve_package")),
    (sift_pipeline, "run_deferred", "protocol.run_deferred"),
    (sift_pipeline, "run_interactive", "protocol.run_interactive"),
)

# |sum of self times - root span| allowed per image, in seconds
ACCOUNTING_TOLERANCE_S = 1e-6


class Tracer:
    """Span recorder; ``install`` rebinds the targets, ``uninstall``
    restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.image = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.image_id = -1
        self.builders: list = []
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.image.append(self.image_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(sid)

        return traced

    @contextmanager
    def root(self, image_id: int):
        """The run_pipeline span of one image; every span inside it is
        tagged with ``image_id``."""
        self.image_id = image_id
        sid = self._open(self._name_id(ROOT))
        try:
            yield
        finally:
            self._close(sid)
            self.image_id = -1

    def install(self):
        for owner, attr, name in TARGETS:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        builders = self.builders
        init = deferred_graph.GraphBuilder.__init__

        @functools.wraps(init)
        def capture(builder, *args, **kwargs):
            init(builder, *args, **kwargs)
            builders.append(builder)

        self._saved.append((deferred_graph.GraphBuilder, "__init__", init))
        deferred_graph.GraphBuilder.__init__ = capture

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _arrays(self):
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        image = np.asarray(self.image, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, parent, image, dur, dur - child

    def summary(self, image_id: int) -> dict[str, tuple[float, int]]:
        """Span name -> (summed self seconds, calls) for one image."""
        name, _, image, _, self_s = self._arrays()
        mine = image == image_id
        secs = np.bincount(name[mine], weights=self_s[mine], minlength=len(self.names))
        calls = np.bincount(name[mine], minlength=len(self.names))
        return {n: (float(secs[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def accounting(self, image_id: int) -> tuple[bool, str]:
        """Check that one image's spans form a single tree under its
        run_pipeline span and that their self times sum to it."""
        name, parent, image, dur, self_s = self._arrays()
        mine = image == image_id
        roots = np.nonzero(mine & (parent < 0))[0]
        if len(roots) != 1 or self.names[name[roots[0]]] != ROOT:
            return False, f"image {image_id}: {len(roots)} root spans"
        total = float(np.sum(self_s[mine]))
        root = float(dur[roots[0]])
        lowest = float(np.min(self_s[mine]))
        ok = abs(total - root) <= ACCOUNTING_TOLERANCE_S and lowest >= -ACCOUNTING_TOLERANCE_S
        return ok, (f"image {image_id}: self times sum to {total:.9f} s against a "
                    f"{root:.9f} s run_pipeline span over {int(np.sum(mine))} spans "
                    f"(tolerance {ACCOUNTING_TOLERANCE_S:g} s, lowest self time {lowest:.3g} s)")

    def write(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), image=np.asarray(self.image),
                 start=np.asarray(self.start), end=np.asarray(self.end))
