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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DepthExhausted

Value = float | np.ndarray

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


@dataclass(frozen=True)
class Ciphertext:
    """Simulated ciphertext: carried value, remaining levels, error bound."""

    value: Value
    level: int
    noise_bound: Value = 0.0

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
    return not isinstance(nb, np.ndarray) and nb == 0.0


class CkksContext:
    """Operation context: holds parameters, the noise source and op counters.

    All ops are pure with respect to their ciphertext arguments (inputs are
    never mutated); the context itself accumulates counters and RNG state.
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

    # -- helpers ---------------------------------------------------------

    def _count(self, name: str, width: int):
        self.op_counts[name] += width

    def snapshot_counts(self) -> dict[str, int]:
        return dict(self.op_counts)

    # -- core ops --------------------------------------------------------

    def encrypt(self, x) -> Ciphertext:
        v = _as_value(x)
        if isinstance(v, np.ndarray):
            v = v.copy()
        ct = Ciphertext(v, self.params.depth_budget, 0.0)
        self._count("encrypt", ct.width)
        return ct

    # Values and bounds are Python floats or float64 arrays, so the plain
    # operators below keep floats as floats and send arrays through numpy.

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        out = Ciphertext(a.value + b.value, min(a.level, b.level), a.noise_bound + b.noise_bound)
        self._count("add", out.width)
        return out

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        out = Ciphertext(a.value - b.value, min(a.level, b.level), a.noise_bound + b.noise_bound)
        self._count("add", out.width)
        return out

    def neg(self, a: Ciphertext) -> Ciphertext:
        out = Ciphertext(-a.value, a.level, a.noise_bound)
        self._count("neg", out.width)
        return out

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        lvl = min(a.level, b.level)
        if lvl < 1:
            raise DepthExhausted(
                f"ct-ct multiply at level {lvl}: no multiplicative levels left"
            )
        v = a.value * b.value
        # |carried - ideal| stays bounded: cross terms use carried magnitudes,
        # which dominate the ideal ones once their own bounds are added in.
        na, nb = a.noise_bound, b.noise_bound
        if _zero_bound(na) and _zero_bound(nb):
            bound = 0.0
        else:
            bound = (abs(a.value) + na) * nb + (abs(b.value) + nb) * na + na * nb
        sigma = self.params.noise_per_mul
        if sigma > 0.0:
            shape = np.shape(v)
            fresh = self._rng.normal(0.0, sigma, shape if shape else None)
            fresh = np.clip(fresh, -_CLIP_SIGMAS * sigma, _CLIP_SIGMAS * sigma)
            v = _as_value(v + fresh)
            bound = bound + _CLIP_SIGMAS * sigma
        out = Ciphertext(v, lvl - 1, bound)
        self._count("mul", out.width)
        return out

    def mul_plain(self, a: Ciphertext, k) -> Ciphertext:
        lvl = a.level
        if self.params.plain_mul_consumes_level:
            if lvl < 1:
                raise DepthExhausted(
                    f"plaintext multiply at level {lvl}: no multiplicative levels left"
                )
            lvl -= 1
        kv = _as_value(k)
        out = Ciphertext(a.value * kv, lvl, a.noise_bound * abs(kv))
        self._count("mul_plain", out.width)
        return out


def gather(ct: Ciphertext, index) -> Ciphertext:
    """Select lanes out of a batched ciphertext.

    Rearranging a collection of independent ciphertexts is bookkeeping, not a
    homomorphic operation: no level is consumed and nothing is counted.
    """
    v = _as_value(np.asarray(ct.value)[index])
    nb = ct.noise_bound
    if isinstance(nb, np.ndarray):
        nb = _as_value(nb[index])
    return Ciphertext(v, ct.level, nb)


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
