"""Leveled-ciphertext arithmetic simulator.

Stands in for an approximate-arithmetic FHE backend.  Every ciphertext
carries the value it encrypts, the number of multiplications it can still
absorb (its level) and a running error bound.  The simulator is exact about
the two things the rest of the package leans on -- multiplicative depth and
operation counts -- and optionally injects per-multiplication noise.

A ciphertext value may be a scalar or an ndarray.  An ndarray ciphertext is
a batch of independent ciphertexts that happen to share level bookkeeping;
uniform circuits keep levels identical lane by lane, which is the only way
the package ever uses them.  There is no slot packing: lanes never interact
and there are no rotation ops.

A window sum, ``CkksContext.window_sum``, adds public multiples of lanes
gathered from one ciphertext, which in a slot-packed backend is rotations
and plaintext multiplies (GAZELLE, Juvekar et al., USENIX Security 2018):
it costs one plaintext level.  Its float work is the module's
``window_sum`` kernel, which the client calls on decrypted values too.

A ``Ciphertext`` is a slotted record that no code mutates: each op builds
a new one.  The server replays tens of thousands of ops per image, so the
ops keep their bookkeeping inline and build nothing else per call, and a
caller done with an operand may hand its value array over to hold the
result (``out``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthExhausted

Value = float | np.ndarray
_ndarray = np.ndarray
_F64 = np.dtype(np.float64)

# Injected noise is drawn from a clipped Gaussian so the accumulated
# noise_bound is a hard bound rather than a high-probability one.
_CLIP_SIGMAS = 6.0


@dataclass(frozen=True)
class SimParams:
    """Backend configuration.

    depth_budget: levels a fresh ciphertext starts with; must be >= 1.
    noise_per_mul: stddev of the error each ct-ct multiply injects (0 = exact).
    plain_mul_consumes_level: whether plaintext multiplication costs a level,
        mirroring backends that rescale after every multiplication.
    """

    depth_budget: int = 30
    noise_per_mul: float = 0.0
    plain_mul_consumes_level: bool = True

    def __post_init__(self):
        if self.depth_budget < 1:
            raise ValueError("depth_budget must be >= 1")
        if not math.isfinite(self.noise_per_mul) or self.noise_per_mul < 0:
            raise ValueError(f"noise_per_mul must be finite and >= 0, not {self.noise_per_mul!r}")


def _as_value(x) -> Value:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return float(arr)
    return arr


class Ciphertext:
    """Simulated ciphertext: carried value, remaining levels, error bound.

    A slotted record that no code mutates: every op builds a new one.
    Values and bounds may be shared between ciphertexts; a value array is
    only ever written once its holder is given up as an op's ``out``.
    """

    __slots__ = ("value", "level", "noise_bound")

    def __init__(self, value: Value, level: int, noise_bound: Value = 0.0):
        self.value = value
        self.level = level
        self.noise_bound = noise_bound

    def __repr__(self) -> str:
        return f"Ciphertext(value={self.value!r}, level={self.level}, noise_bound={self.noise_bound!r})"

    @property
    def width(self) -> int:
        return self.value.size if isinstance(self.value, np.ndarray) else 1


class SecretKey:
    """Decryption capability.

    Server-side code never holds one; the counter exists so runs can prove
    which side of a protocol decrypted and how often.
    """

    __slots__ = ("decrypt_calls",)

    def __init__(self):
        self.decrypt_calls = 0

    def decrypt(self, ct: Ciphertext) -> Value:
        self.decrypt_calls += 1
        v = ct.value
        return v.copy() if isinstance(v, np.ndarray) else v


def _zero_bound(nb: Value) -> bool:
    return type(nb) is not _ndarray and nb == 0.0


def _into(ufunc, av: Value, bv: Value, out: np.ndarray) -> Value:
    """``ufunc(av, bv)``, written into ``out`` -- the value array of one
    operand, which the caller gives up -- when the result has its shape
    and dtype; the values are the same either way."""
    if out.dtype is not _F64 or (type(av) is _ndarray and type(bv) is _ndarray
                                 and av.shape != bv.shape):
        return ufunc(av, bv)
    return ufunc(av, bv, out=out)


class CkksContext:
    """Operation context: holds parameters, the noise source and op counters.

    All ops are pure with respect to their ciphertext arguments (inputs are
    never mutated); the context itself accumulates counters and RNG state.
    The one exception is ``out``: a caller done with an operand may hand
    over its value array, and the result's value is written there.
    """

    def __init__(self, params: SimParams | None = None, seed: int = 0):
        self.params = params or SimParams()
        self._rng = np.random.default_rng(seed)
        self.op_counts: dict[str, int] = {
            "encrypt": 0,
            "add": 0,
            "neg": 0,
            "mul": 0,
            "mul_plain": 0,
        }

    def snapshot_counts(self) -> dict[str, int]:
        return dict(self.op_counts)

    # -- core ops --------------------------------------------------------
    #
    # Each op adds its result's lanes to ``op_counts`` itself: an array
    # value's size, or one lane for any other value.

    def encrypt(self, x) -> Ciphertext:
        # one float64 copy, whatever the input's dtype, so the ciphertext
        # never aliases it; np.array copies by default
        v = np.array(x, dtype=np.float64)
        if v.ndim == 0:
            v = float(v)
        self.op_counts["encrypt"] += v.size if type(v) is _ndarray else 1
        return Ciphertext(v, self.params.depth_budget, 0.0)

    # Values and bounds are Python floats or float64 arrays, so the plain
    # operators below keep floats as floats and send arrays through numpy.

    def add(self, a: Ciphertext, b: Ciphertext, out: np.ndarray | None = None) -> Ciphertext:
        v = a.value + b.value if out is None else _into(np.add, a.value, b.value, out)
        self.op_counts["add"] += v.size if type(v) is _ndarray else 1
        lvl, lb = a.level, b.level
        return Ciphertext(v, lvl if lvl < lb else lb, a.noise_bound + b.noise_bound)

    def sub(self, a: Ciphertext, b: Ciphertext, out: np.ndarray | None = None) -> Ciphertext:
        v = a.value - b.value if out is None else _into(np.subtract, a.value, b.value, out)
        self.op_counts["add"] += v.size if type(v) is _ndarray else 1
        lvl, lb = a.level, b.level
        return Ciphertext(v, lvl if lvl < lb else lb, a.noise_bound + b.noise_bound)

    def neg(self, a: Ciphertext, out: np.ndarray | None = None) -> Ciphertext:
        v = -a.value if out is None else np.negative(a.value, out=out)
        self.op_counts["neg"] += v.size if type(v) is _ndarray else 1
        return Ciphertext(v, a.level, a.noise_bound)

    def mul(self, a: Ciphertext, b: Ciphertext, out: np.ndarray | None = None) -> Ciphertext:
        lvl, lb = a.level, b.level
        if lb < lvl:
            lvl = lb
        if lvl < 1:
            raise DepthExhausted(
                f"ct-ct multiply at level {lvl}: no multiplicative levels left"
            )
        av, bv = a.value, b.value
        # |carried - ideal| stays bounded: cross terms use carried magnitudes,
        # which dominate the ideal ones once their own bounds are added in.
        # The bound reads the operands' values, so it comes before ``out``
        # is written.
        na, nb = a.noise_bound, b.noise_bound
        if (type(na) is not _ndarray and na == 0.0
                and type(nb) is not _ndarray and nb == 0.0):  # _zero_bound, inline
            bound = 0.0
        else:
            bound = (abs(av) + na) * nb + (abs(bv) + nb) * na + na * nb
        v = av * bv if out is None else _into(np.multiply, av, bv, out)
        sigma = self.params.noise_per_mul
        if sigma > 0.0:
            shape = np.shape(v)
            fresh = self._rng.normal(0.0, sigma, shape if shape else None)
            fresh = np.clip(fresh, -_CLIP_SIGMAS * sigma, _CLIP_SIGMAS * sigma)
            v = _as_value(v + fresh)
            bound = bound + _CLIP_SIGMAS * sigma
        self.op_counts["mul"] += v.size if type(v) is _ndarray else 1
        return Ciphertext(v, lvl - 1, bound)

    def mul_plain(self, a: Ciphertext, k, out: np.ndarray | None = None) -> Ciphertext:
        lvl = a.level
        if self.params.plain_mul_consumes_level:
            if lvl < 1:
                raise DepthExhausted(
                    f"plaintext multiply at level {lvl}: no multiplicative levels left"
                )
            lvl -= 1
        kv = k if type(k) is float else _as_value(k)
        v = a.value * kv if out is None else _into(np.multiply, a.value, kv, out)
        self.op_counts["mul_plain"] += v.size if type(v) is _ndarray else 1
        return Ciphertext(v, lvl, a.noise_bound * abs(kv))

    def window_sum(self, a: Ciphertext, index: np.ndarray, scales: np.ndarray) -> Ciphertext:
        """``window_sum(a.value, index, scales)``: one plaintext multiply
        per (position, lane) of ``index`` and the adds between positions,
        counted as ``mul_plain`` and ``add`` lanes, at one plaintext level.
        The bound is the same window sum of the operand's bounds, with
        |scales|."""
        lvl = a.level
        if self.params.plain_mul_consumes_level:
            if lvl < 1:
                raise DepthExhausted(
                    f"window sum at level {lvl}: no multiplicative levels left")
            lvl -= 1
        positions, lanes = index.shape
        nb = a.noise_bound
        bound = 0.0 if _zero_bound(nb) else window_sum(
            np.broadcast_to(nb, np.shape(a.value)), index, np.abs(scales))
        self.op_counts["mul_plain"] += positions * lanes
        self.op_counts["add"] += (positions - 1) * lanes
        return Ciphertext(window_sum(a.value, index, scales), lvl, bound)


def window_sum(values: Value, index: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Lane s of the result is the sum over positions p, in order, of
    ``values[index[p, s]] * scales[p]``: one (positions x lanes) gather,
    scaled row by row, and its rows added one after another onto -0.0,
    which leaves the first row's bits as they are.  numpy may reduce a
    column of single lanes pairwise, so those accumulate instead; either
    way each lane adds its terms left to right."""
    terms = np.take(values, index)
    np.multiply(terms, np.asarray(scales, dtype=np.float64)[:, None], out=terms)
    if terms.shape[1] > 1:
        return np.add.reduce(terms, axis=0, initial=-0.0)
    return np.add.accumulate(terms, axis=0)[-1]


def _take(x: Value, index) -> Value:
    """``x[index]`` as a value.  A float64 array is indexed directly."""
    if type(x) is _ndarray and x.dtype is _F64:
        x = x[index]
        return x if type(x) is _ndarray else float(x)
    return _as_value(np.asarray(x)[index])


def gather(ct: Ciphertext, index) -> Ciphertext:
    """Select lanes out of a batched ciphertext.

    Rearranging a collection of independent ciphertexts is bookkeeping, not a
    homomorphic operation: no level is consumed and nothing is counted.
    Callers index with integer arrays, whole or per axis, so the result's
    value and bound are copies, never views of ``ct``'s.
    """
    nb = ct.noise_bound
    return Ciphertext(_take(ct.value, index), ct.level,
                      _take(nb, index) if type(nb) is _ndarray else nb)


def concat(cts) -> Ciphertext:
    """Join batched ciphertexts lane by lane, in order, into one batch.

    The batch sits at the lowest of the inputs' levels: lowering a
    ciphertext's level is a modulus switch, which costs nothing, so like
    ``gather`` this counts no operation.  Scalar noise bounds are
    broadcast over their lanes.  A single input is returned as it is.
    """
    cts = list(cts)
    if len(cts) == 1:
        return cts[0]
    v = np.concatenate([np.ravel(ct.value) for ct in cts])
    if all(_zero_bound(ct.noise_bound) for ct in cts):
        nb = 0.0
    else:
        nb = np.concatenate([np.broadcast_to(ct.noise_bound, np.shape(ct.value)).ravel()
                             for ct in cts])
    return Ciphertext(v, min(ct.level for ct in cts), nb)
