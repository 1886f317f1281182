"""Simulator semantics: levels, noise accounting, op counters."""

import numpy as np
import pytest

from fhesift import Ciphertext, CkksContext, SecretKey, SimParams, concat, gather
from fhesift.errors import DepthExhausted


def test_params_validation():
    with pytest.raises(ValueError):
        SimParams(depth_budget=0)
    with pytest.raises(ValueError):
        SimParams(noise_per_mul=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SimParams(noise_per_mul=bad)


def test_encrypt_starts_at_full_level():
    ctx = CkksContext(SimParams(depth_budget=7))
    ct = ctx.encrypt(1.5)
    assert ct.level == 7
    assert ct.value == 1.5
    assert ct.noise_bound == 0.0


def test_add_sub_neg_are_free():
    ctx = CkksContext(SimParams(depth_budget=4))
    a = ctx.encrypt(2.0)
    b = ctx.encrypt(3.0)
    assert ctx.add(a, b).level == 4
    assert ctx.sub(a, b).level == 4
    assert ctx.neg(a).level == 4
    assert ctx.add(a, b).value == 5.0
    assert ctx.sub(a, b).value == -1.0
    assert ctx.neg(a).value == -2.0


def test_mul_consumes_one_level():
    ctx = CkksContext(SimParams(depth_budget=3))
    a = ctx.encrypt(2.0)
    b = ctx.encrypt(4.0)
    out = ctx.mul(a, b)
    assert out.value == 8.0
    assert out.level == 2


def test_mul_at_level_one_is_legal_and_zero_raises():
    ctx = CkksContext(SimParams(depth_budget=1))
    a = ctx.encrypt(2.0)
    out = ctx.mul(a, a)
    assert out.level == 0
    with pytest.raises(DepthExhausted):
        ctx.mul(out, out)


def test_mul_takes_min_operand_level():
    ctx = CkksContext(SimParams(depth_budget=5))
    a = ctx.encrypt(2.0)
    low = ctx.mul(a, a)  # level 4
    out = ctx.mul(a, low)
    assert out.level == 3


def test_plain_mul_level_flag():
    ctx = CkksContext(SimParams(depth_budget=3))
    ct = ctx.mul_plain(ctx.encrypt(2.0), 0.5)
    assert ct.value == 1.0
    assert ct.level == 2

    free = CkksContext(SimParams(depth_budget=3, plain_mul_consumes_level=False))
    ct = free.mul_plain(free.encrypt(2.0), 0.5)
    assert ct.level == 3

    tight = CkksContext(SimParams(depth_budget=1))
    low = tight.mul_plain(tight.encrypt(2.0), 0.5)
    with pytest.raises(DepthExhausted):
        tight.mul_plain(low, 0.5)


def test_exact_mode_keeps_scalar_zero_noise_bound():
    # arrays would silently grow the bound into a lane vector; exact mode
    # must keep the scalar 0.0 so downstream checks can assert on it
    ctx = CkksContext(SimParams(depth_budget=6))
    a = ctx.encrypt(np.arange(4.0))
    out = ctx.mul(ctx.add(a, a), a)
    assert isinstance(out.noise_bound, float)
    assert out.noise_bound == 0.0


def test_array_lanes_never_interact():
    ctx = CkksContext(SimParams(depth_budget=6))
    a = ctx.encrypt(np.array([1.0, 2.0, 3.0]))
    b = ctx.encrypt(np.array([4.0, 5.0, 6.0]))
    out = ctx.mul(a, b)
    assert np.array_equal(out.value, [4.0, 10.0, 18.0])


def test_op_counts_scale_with_width():
    ctx = CkksContext(SimParams(depth_budget=6))
    a = ctx.encrypt(np.zeros(5))
    b = ctx.encrypt(np.ones(5))
    ctx.add(a, b)
    ctx.mul(a, b)
    ctx.mul_plain(a, 2.0)
    ctx.neg(a)
    assert ctx.op_counts == {"encrypt": 10, "add": 5, "neg": 5, "mul": 5, "mul_plain": 5}
    snap = ctx.snapshot_counts()
    ctx.add(a, b)
    assert snap["add"] == 5 and ctx.op_counts["add"] == 10


def test_gather_is_free_bookkeeping():
    ctx = CkksContext(SimParams(depth_budget=6))
    grid = ctx.encrypt(np.arange(9.0).reshape(3, 3))
    before = ctx.snapshot_counts()
    out = gather(grid, np.ix_([2, 0], [1, 1]))
    assert ctx.snapshot_counts() == before
    assert out.level == grid.level
    assert np.array_equal(out.value, [[7.0, 7.0], [1.0, 1.0]])


def test_concat_joins_lanes_at_the_lowest_level_for_free():
    ctx = CkksContext(SimParams(depth_budget=6))
    a = ctx.encrypt(np.array([1.0, 2.0]))
    b = ctx.mul_plain(ctx.encrypt(np.array([3.0, 4.0, 5.0])), 2.0)
    c = ctx.encrypt(7.0)
    before = ctx.snapshot_counts()
    out = concat([a, b, c])
    assert ctx.snapshot_counts() == before
    assert out.level == min(a.level, b.level, c.level) == 5
    assert np.array_equal(out.value, [1.0, 2.0, 6.0, 8.0, 10.0, 7.0])
    assert out.noise_bound == 0.0  # exact inputs stay on the scalar fast path


def test_concat_joins_scalar_and_array_noise_bounds():
    a = Ciphertext(np.array([1.0, 2.0]), 4, 0.5)
    b = Ciphertext(np.array([3.0, 4.0, 5.0]), 3, np.array([0.1, 0.2, 0.3]))
    c = Ciphertext(6.0, 5, 0.0)
    out = concat([a, b, c])
    assert out.level == 3
    assert np.array_equal(out.value, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(out.noise_bound, [0.5, 0.5, 0.1, 0.2, 0.3, 0.0])


def test_concat_leaves_its_inputs_alone():
    a = Ciphertext(np.array([1.0, 2.0]), 4, np.array([0.1, 0.2]))
    b = Ciphertext(np.array([3.0]), 2, 0.25)
    out = concat([a, b])
    out.value[:] = -1.0
    out.noise_bound[:] = -1.0
    assert np.array_equal(a.value, [1.0, 2.0]) and np.array_equal(b.value, [3.0])
    assert np.array_equal(a.noise_bound, [0.1, 0.2]) and b.noise_bound == 0.25
    assert (a.level, b.level) == (4, 2)
    assert concat([a]) is a  # one input is already the batch


def test_decrypt_counter():
    sk = SecretKey()
    ct = Ciphertext(3.5, 2)
    assert sk.decrypt(ct) == 3.5
    sk.decrypt(ct)
    assert sk.decrypt_calls == 2


def test_inputs_are_never_mutated():
    ctx = CkksContext(SimParams(depth_budget=6))
    arr = np.array([1.0, 2.0])
    ct = ctx.encrypt(arr)
    arr[0] = 99.0
    assert ct.value[0] == 1.0
    v = SecretKey().decrypt(ct)
    v[0] = 77.0
    assert ct.value[0] == 1.0


def test_noisy_mode_respects_hard_bound():
    # the injected error is clipped, so |carried - ideal| <= noise_bound
    # must hold exactly, not just with high probability
    sigma = 1e-6
    ctx = CkksContext(SimParams(depth_budget=12, noise_per_mul=sigma), seed=11)
    exact = CkksContext(SimParams(depth_budget=12))
    rng = np.random.default_rng(5)
    vals = rng.uniform(-2.0, 2.0, 6)
    noisy = [ctx.encrypt(v) for v in vals]
    clean = [exact.encrypt(v) for v in vals]
    for _ in range(30):
        i, j = rng.integers(0, len(noisy), 2)
        noisy.append(ctx.mul(noisy[i], noisy[j]))
        clean.append(exact.mul(clean[i], clean[j]))
        k = rng.integers(0, len(noisy))
        noisy.append(ctx.add(noisy[k], noisy[-1]))
        clean.append(exact.add(clean[k], clean[-1]))
    drifted = 0
    for n, c in zip(noisy, clean):
        err = abs(n.value - c.value)
        assert err <= n.noise_bound + 1e-30
        drifted += err > 0.0
    assert drifted > 0


def test_noisy_mode_is_seed_deterministic():
    p = SimParams(depth_budget=8, noise_per_mul=1e-5)
    outs = []
    for _ in range(2):
        ctx = CkksContext(p, seed=42)
        a = ctx.encrypt(1.25)
        b = ctx.encrypt(-0.75)
        outs.append(ctx.mul(ctx.mul(a, b), b).value)
    assert outs[0] == outs[1]
    other = CkksContext(p, seed=43)
    a = other.encrypt(1.25)
    b = other.encrypt(-0.75)
    assert other.mul(other.mul(a, b), b).value != outs[0]
