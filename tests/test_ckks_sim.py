"""Simulator semantics: levels, noise accounting, op counters."""

import tracemalloc

import numpy as np
import pytest

from fhesift import Ciphertext, CkksContext, GraphBuilder, PlainEvaluator, SecretKey, SimParams
from fhesift import concat, gather
from fhesift.ckks_sim import window_sum
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


def test_encrypt_makes_exactly_one_float64_copy():
    """A float64 input is copied, never aliased; a bool input, as the
    client's answers are, becomes float64 in that same one copy; a scalar
    stays a float."""
    ctx = CkksContext(SimParams(depth_budget=6))
    arr = np.arange(4.0)
    assert not np.shares_memory(ctx.encrypt(arr).value, arr)
    assert type(ctx.encrypt(np.float64(2.5)).value) is float
    assert type(ctx.encrypt(True).value) is float
    answers = np.arange(1 << 16) % 3 == 0
    tracemalloc.start()
    try:
        ct = ctx.encrypt(answers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ct.value.dtype == np.float64 and type(ct.value) is np.ndarray
    assert np.array_equal(ct.value, answers.astype(np.float64))
    assert peak <= 1.1 * ct.value.nbytes


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


# -- property test: every op against the reference formulas ------------------------

_WIDTH = 6
_VALUE_KINDS = ("scalar", "one_lane", "lanes")
_BOUND_KINDS = ("zero", "np_zero", "zero_lanes", "scalar", "lanes")


def _random_ct(rng, value_kind, bound_kind, level):
    shape = {"scalar": (), "one_lane": (1,), "lanes": (_WIDTH,)}[value_kind]
    v = float(rng.normal()) if not shape else rng.normal(size=shape)
    nb = {"zero": lambda: 0.0, "np_zero": lambda: np.float64(0.0),
          "zero_lanes": lambda: np.zeros(shape or (1,)),
          "scalar": lambda: float(rng.uniform(1e-9, 1e-6)),
          "lanes": lambda: rng.uniform(1e-9, 1e-6, shape or (1,))}[bound_kind]()
    return Ciphertext(v, level, nb)


def _as_is(x):
    """A value or bound as (type, shape, bytes): equal means bit for bit."""
    return type(x), np.shape(x), np.asarray(x, dtype=np.float64).tobytes()


def _reference(op, a, b, k, sigma, rng):
    """(value, level, bound) of ``op`` by the formulas, drawing noise from
    ``rng`` as a context seeded alike would."""
    if op in ("add", "sub"):
        v = a.value + b.value if op == "add" else a.value - b.value
        return v, min(a.level, b.level), a.noise_bound + b.noise_bound
    if op == "neg":
        return -a.value, a.level, a.noise_bound
    if op == "mul_plain":
        kv = float(k) if np.ndim(k) == 0 else np.asarray(k, dtype=np.float64)
        return a.value * kv, a.level - 1, a.noise_bound * abs(kv)
    na, nb = a.noise_bound, b.noise_bound
    if all(not isinstance(x, np.ndarray) and x == 0.0 for x in (na, nb)):
        bound = 0.0
    else:
        bound = (abs(a.value) + na) * nb + (abs(b.value) + nb) * na + na * nb
    v = a.value * b.value
    if sigma > 0.0:
        fresh = rng.normal(0.0, sigma, np.shape(v) or None)
        v = v + np.clip(fresh, -6.0 * sigma, 6.0 * sigma)
        v = float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=np.float64)
        bound = bound + 6.0 * sigma
    return v, min(a.level, b.level) - 1, bound


def _copy(ct):
    v, nb = ct.value, ct.noise_bound
    return Ciphertext(v.copy() if isinstance(v, np.ndarray) else v, ct.level,
                      nb.copy() if isinstance(nb, np.ndarray) else nb)


@pytest.mark.parametrize("sigma", [0.0, 1e-7])
def test_ops_match_the_reference_formulas_bit_for_bit(sigma):
    """Seeded random operands of every value and bound kind, at levels
    down to 0, through every op: values, levels, bound types and values,
    and lane counts all match the formulas, and no input is written.  A
    second context seeded alike runs each op on copies, handing over one
    operand's value array as ``out``, and returns the same results."""
    rng = np.random.default_rng(2024)
    params = SimParams(depth_budget=9, noise_per_mul=sigma)
    ctx, reusing = CkksContext(params, seed=7), CkksContext(params, seed=7)
    draws = np.random.default_rng(7)  # the contexts' noise source, replayed
    raised = {"mul": 0, "mul_plain": 0}
    for trial in range(600):
        op = ("add", "sub", "neg", "mul", "mul_plain")[trial % 5]
        a, b = (_random_ct(rng, rng.choice(_VALUE_KINDS), rng.choice(_BOUND_KINDS),
                           int(rng.integers(0, 3))) for _ in range(2))
        k = (float(rng.normal()), -2, np.float64(0.5), rng.normal(size=_WIDTH))[trial % 4]
        args = {"add": (a, b), "sub": (a, b), "neg": (a,), "mul": (a, b),
                "mul_plain": (a, k)}[op]
        copies = {id(ct): _copy(ct) for ct in (a, b)}
        reuse_args = tuple(copies.get(id(x), x) for x in args)
        donor = copies[id(b if op in ("add", "sub", "mul") and trial % 2 else a)].value
        out = donor if isinstance(donor, np.ndarray) else None
        before = [_as_is(x) for ct in (a, b) for x in (ct.value, ct.noise_bound)]
        counts = ctx.snapshot_counts()
        if op in ("mul", "mul_plain") and min(a.level, b.level if op == "mul" else 9) < 1:
            for c, xs in ((ctx, args), (reusing, reuse_args)):
                with pytest.raises(DepthExhausted):
                    getattr(c, op)(*xs)
            raised[op] += 1
            assert ctx.snapshot_counts() == reusing.snapshot_counts() == counts
            continue
        want = _reference(op, a, b, k, sigma, draws)
        for got in (getattr(ctx, op)(*args), getattr(reusing, op)(*reuse_args, out=out)):
            assert (_as_is(got.value), got.level, _as_is(got.noise_bound)) == \
                   (_as_is(want[0]), want[1], _as_is(want[2])), (trial, op)
        name = "add" if op == "sub" else op
        assert ctx.op_counts[name] - counts[name] == np.size(want[0]), (trial, op)
        assert {n: c for n, c in ctx.op_counts.items() if n != name} == \
               {n: c for n, c in counts.items() if n != name}
        assert reusing.snapshot_counts() == ctx.snapshot_counts()
        assert [_as_is(x) for ct in (a, b) for x in (ct.value, ct.noise_bound)] == before
    assert min(raised.values()) > 0  # level 0 was met by both multiplies


def test_gather_copies_for_every_index_kind_its_callers_pass():
    """Callers gather through a 1-D lane map, ``np.ix_`` row and column
    maps, or one index array per axis; the result never shares memory
    with its input, value or bound, so it may be written in place."""
    ctx = CkksContext()
    flat = Ciphertext(np.arange(12.0), 5, np.linspace(0.0, 1e-6, 12))
    grid = Ciphertext(np.arange(12.0).reshape(3, 4), 5, np.full((3, 4), 1e-7))
    cases = [(flat, np.array([3, 0, 3, 11], dtype=np.intp)),
             (grid, np.ix_(np.array([2, 0]), np.array([1, 3]))),
             (grid, (np.array([0, 2, 1]), np.array([3, 3, 0])))]
    for ct, index in cases:
        before = ctx.snapshot_counts()
        out = gather(ct, index)
        assert ctx.snapshot_counts() == before and out.level == ct.level
        assert np.array_equal(out.value, ct.value[index])
        assert np.array_equal(out.noise_bound, ct.noise_bound[index])
        assert not np.shares_memory(out.value, ct.value)
        assert not np.shares_memory(out.noise_bound, ct.noise_bound)
    assert gather(Ciphertext(np.arange(4.0), 2, 0.0), np.array([1])).noise_bound == 0.0


# values a window sum must add in order: signed zeros, subnormals, and
# sums that tie, where 1 + 2^-53 rounds back to 1 but 2^-53 + 2^-53 does not
_AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 2.0 ** -53,
            3 * 2.0 ** -53, 1e16, -1e16, 1e300, 0.1)


def _loop_window_sum(values, index, scales):
    """The reference: -0.0, then each position's lanes times its scale,
    added one by one."""
    acc = np.full(index.shape[1], -0.0)
    for at, scale in zip(index, scales):
        acc = acc + values[at] * scale
    return acc


def test_window_sum_matches_the_loop_in_every_evaluator_bit_for_bit():
    """The kernel, the cipher op and the plain evaluator's window sum add
    each position's gathered, scaled lanes in order onto -0.0, as the loop
    does, bit for bit: over random lanes drawn with signed zeros,
    subnormals and ties, one lane wide too, where numpy may sum a column
    pairwise."""
    rng = np.random.default_rng(11)
    seen_one_lane = False
    for _ in range(200):
        n = int(rng.integers(2, 30))
        positions, lanes = int(rng.integers(1, 30)), int(rng.choice([1, 2, 7, 33]))
        values = np.where(rng.random(n) < 0.6, rng.choice(_AWKWARD, n), rng.standard_normal(n))
        index = rng.integers(0, n, (positions, lanes))
        scales = rng.choice([1.0, -1.0, 0.5, -0.0, 3.0, 1e-300, *rng.standard_normal(3)], positions)
        want = _loop_window_sum(values, index, scales).tobytes()
        assert window_sum(values, index, scales).tobytes() == want
        ctx = CkksContext()
        assert ctx.window_sum(ctx.encrypt(values), index, scales).value.tobytes() == want
        b = GraphBuilder()
        node = b.window_sum(b.cipher(ctx.encrypt(values)), list(zip(index, scales)))
        assert np.asarray(PlainEvaluator(b).eval(node)).tobytes() == want
        seen_one_lane |= lanes == 1 and positions >= 16
    assert seen_one_lane
    # one lane of twenty terms: 1.0, then 2^-53 nineteen times, stays 1.0
    # added in order; numpy's pairwise sum of the same terms in a row counts
    # the small ones
    one = np.array([1.0, 2.0 ** -53])
    index = np.array([[0]] + [[1]] * 19)
    assert window_sum(one, index, np.ones(20)).tolist() == [1.0]
    assert np.add.reduce(one[index[:, 0]]) > 1.0


def test_window_sum_counts_its_lanes_takes_a_plain_level_and_bounds_noise():
    values, nb = np.arange(5.0), np.array([0.0, 1e-9, 2e-9, 0.0, 4e-9])
    index = np.array([[0, 1, 4, 2], [3, 3, 1, 0], [4, 2, 2, 1]])
    scales = np.array([0.5, -2.0, 0.25])
    ctx = CkksContext(SimParams(depth_budget=3))
    out = ctx.window_sum(Ciphertext(values, 2, nb), index, scales)
    # a multiply per (position, lane), an add per lane between positions
    assert {k: v for k, v in ctx.op_counts.items() if v} == {"mul_plain": 12, "add": 8}
    assert out.level == 1
    # the bound is the window sum of the bounds, with |scales|: lane 0
    # reads lanes 0, 3 and 4, so 0.25 * 4e-9
    assert out.noise_bound.tobytes() == _loop_window_sum(nb, index, np.abs(scales)).tobytes()
    assert out.noise_bound[0] == 1e-9
    # exact stays the scalar zero; one scalar bound covers every lane
    assert ctx.window_sum(Ciphertext(values, 2), index, scales).noise_bound == 0.0
    assert ctx.window_sum(Ciphertext(values, 2, 1e-9), index, scales).noise_bound.tobytes() == \
        _loop_window_sum(np.full(5, 1e-9), index, np.abs(scales)).tobytes()
    with pytest.raises(DepthExhausted, match="window sum at level 0"):
        ctx.window_sum(Ciphertext(values, 0), index, scales)
    free = CkksContext(SimParams(depth_budget=3, plain_mul_consumes_level=False))
    assert free.window_sum(Ciphertext(values, 0), index, scales).level == 0
