"""Graph construction, normal forms, evaluators and lowering."""

import time

import numpy as np
import pytest

from conftest import SEED, make_blob16

from fhesift import (
    Ciphertext,
    CipherEvaluator,
    CkksContext,
    Client,
    GraphBuilder,
    PipelineConfig,
    PlainEvaluator,
    RunPlan,
    SimParams,
    format_expr,
    format_normal_form,
    lower,
    run_deferred,
    run_interactive,
    run_pipeline,
)
from fhesift import protocol
from fhesift.deferred_graph import MAX_PRODUCT_TERMS, balanced_fold, operands, schedule
from fhesift.errors import DeferralUnsupported, FheSiftError, MissingAssignment


def _ctx(budget=30):
    return CkksContext(SimParams(depth_budget=budget))


# -- construction and folding ------------------------------------------------------


def test_hash_consing_interns_structurally():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(1.0))
    y = b.cipher(ctx.encrypt(2.0))
    assert b.add(x, y) is b.add(y, x)
    assert b.mul(x, y) is b.mul(y, x)
    assert b.add(x, y) is not b.mul(x, y)


def test_constant_folds():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(1.0))
    assert b.add(b.plain(2.0), b.plain(3.0)).payload == 5.0
    assert b.mul(b.plain(2.0), b.plain(3.0)).payload == 6.0
    assert b.add(x, b.plain(0.0)) is x
    assert b.add(b.plain(-0.0), x) is x
    assert b.mul(x, b.plain(1.0)) is x
    assert b.mul(x, b.plain(0.0)).payload == 0.0
    assert b.neg(b.neg(x)) is x
    assert b.neg(b.plain(2.5)).payload == -2.5


def test_sub_is_add_neg():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(5.0), name="x")
    y = b.cipher(ctx.encrypt(2.0), name="y")
    d = b.sub(x, y)
    assert format_expr(d) == "x - y"
    assert PlainEvaluator(b).eval(d) == 3.0


def _literal_walk(ctx, e):
    """Node-by-node cipher walk: every ADD is ctx.add, every NEG ctx.neg."""
    if e.op == "cipher":
        return e.payload
    if e.op == "neg":
        return ctx.neg(_literal_walk(ctx, e.a))
    return ctx.add(_literal_walk(ctx, e.a), _literal_walk(ctx, e.c))


def test_cipher_walk_lowers_subtraction_to_one_sub():
    # signed zeros in every pairing, plus different levels and noise bounds
    xv = np.array([5.0, 0.0, -0.0, 0.0, -0.0, 1e-300, 3.5])
    yv = np.array([2.0, 0.0, 0.0, -0.0, -0.0, -1e-300, 7.25])
    ct_x = Ciphertext(xv, 7, np.linspace(0.0, 1e-9, 7))
    ct_y = Ciphertext(yv, 4, np.full(7, 3e-10))
    b = GraphBuilder()
    x = b.cipher(ct_x, name="x")
    nx = b.neg(x)  # interned before y, so it becomes the ADD's left child
    y = b.cipher(ct_y, name="y")
    cases = {
        "x - y": (b.sub(x, y), 0),
        "neg(x) + y": (b.add(nx, y), 0),
        "x - x": (b.sub(x, x), 0),
        # -x - y needs one negation whichever way it is computed
        "neg(x) + neg(y)": (b.add(nx, b.neg(y)), 1),
    }
    assert cases["neg(x) + y"][0].a is nx
    for label, (e, negs) in cases.items():
        ctx = _ctx()
        got = CipherEvaluator(ctx, b).eval(e)
        assert ctx.op_counts["add"] == 7 and ctx.op_counts["neg"] == 7 * negs, label
        want = _literal_walk(_ctx(), e)
        assert got.level == want.level, label
        assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes(), label
        assert np.asarray(got.noise_bound).tobytes() == \
            np.asarray(want.noise_bound).tobytes(), label


def test_operator_sugar():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(3.0))
    y = b.cipher(ctx.encrypt(4.0))
    pe = PlainEvaluator(b)
    assert pe.eval(x + y) == 7.0
    assert pe.eval(x * y) == 12.0
    assert pe.eval(x - y) == -1.0
    assert pe.eval(-x) == -3.0
    assert pe.eval(1.0 - x) == -2.0


def test_width_broadcast_and_mismatch():
    b = GraphBuilder()
    ctx = _ctx()
    v = b.cipher(ctx.encrypt(np.arange(3.0)))
    s = b.cipher(ctx.encrypt(2.0))
    assert b.add(v, s).width == 3
    w = b.cipher(ctx.encrypt(np.arange(4.0)))
    with pytest.raises(ValueError):
        b.add(v, w)


# -- comparisons -------------------------------------------------------------------


def test_compare_is_strict_and_pair_canonical():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(2.0))
    y = b.cipher(ctx.encrypt(1.0))
    c = b.compare(x, y)
    assert b.compare(x, y) is c
    assert len(b.comparisons) == 1
    pe = PlainEvaluator(b)
    assert pe.eval(c) == 1.0


def test_reversed_compare_is_complement():
    # the reverse orientation folds into 1 - c, i.e. a non-strict >=
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(2.0))
    y = b.cipher(ctx.encrypt(2.0))
    fwd = b.compare(x, y)
    rev = b.compare(y, x)
    assert len(b.comparisons) == 1
    pe = PlainEvaluator(b)
    assert pe.eval(fwd) == 0.0
    assert pe.eval(rev) == 1.0


def test_compare_with_itself_stays_real():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(2.0))
    c = b.compare(x, x)
    assert len(b.comparisons) == 1
    assert PlainEvaluator(b).eval(c) == 0.0


def test_select_folds_and_masks():
    b = GraphBuilder()
    ctx = _ctx()
    t = b.cipher(ctx.encrypt(5.0))
    e = b.cipher(ctx.encrypt(7.0))
    assert b.select(b.plain(1.0), t, e) is t
    assert b.select(b.plain(0.0), t, e) is e
    assert b.select(b.compare(t, e), t, t) is t
    c = b.compare(t, e)
    pe = PlainEvaluator(b)
    assert pe.eval(b.select(c, t, e)) == 7.0  # 5 > 7 is false


# -- normal form -------------------------------------------------------------------


def test_normal_form_of_pure_expression_is_itself():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(1.0))
    e = b.add(b.mul(x, x), b.plain(2.0))
    nf = b.normal_form(e)
    assert list(nf) == [frozenset()]
    assert nf[frozenset()] is e
    assert b.simplify(e) is e


def test_normal_form_of_select():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(1.0))
    y = b.cipher(ctx.encrypt(2.0))
    c = b.compare(x, y)
    nf = b.normal_form(b.select(c, x, y))
    key = frozenset({("b", 0)})
    assert set(nf) == {frozenset(), key}
    pe = PlainEvaluator(b)
    assert pe.eval(nf[frozenset()]) == 2.0       # the else branch
    assert pe.eval(nf[key]) == -1.0              # then - else


def test_boolean_idempotence():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(3.0))
    c = b.compare(x, b.plain(1.0))
    sq = b.mul(c, c)
    nf = b.normal_form(sq)
    assert set(nf) == {frozenset({("b", 0)})}
    assert nf[frozenset({("b", 0)})].payload == 1.0


def test_squared_sqrt_substitutes_argument():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(2.0))
    arg = b.add(b.mul(x, x), b.plain(1.0))
    s = b.sqrt_deferred(arg)
    assert b.sqrt_deferred(arg) is s
    nf = b.normal_form(b.mul(s, s))
    assert set(nf) == {frozenset()}
    assert nf[frozenset()] is arg
    cube = b.normal_form(b.mul(b.mul(s, s), s))
    key = frozenset({("s", 0)})
    assert set(cube) == {key}
    assert cube[key] is arg


def test_squared_sqrt_with_impure_argument_fails():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(2.0))
    y = b.cipher(ctx.encrypt(3.0))
    s = b.sqrt_deferred(b.select(b.compare(x, y), x, y))
    with pytest.raises(DeferralUnsupported):
        b.normal_form(b.mul(s, s))


def test_normal_form_refuses_a_product_past_the_term_limit():
    # each reversed comparison is 1 - c, two terms, so a product of n of
    # them expands to 2^n monomials; the limit stops the balanced product
    # where two 8-factor halves would multiply 256 by 256 terms
    b = GraphBuilder()
    ctx = _ctx()
    xs = [b.cipher(ctx.encrypt(float(i))) for i in range(27)]
    for lo, hi in zip(xs, xs[1:]):
        b.compare(lo, hi)
    factors = [b.compare(hi, lo) for lo, hi in zip(xs, xs[1:])]
    assert len(factors) == 26 and len(b.comparisons) == 26
    assert all(len(b.normal_form(f)) == 2 for f in factors)
    prod = b.product(factors)
    t0 = time.perf_counter()
    with pytest.raises(FheSiftError, match=rf"node \d+ multiplies 256 by 256 terms, 65536 "
                                           rf"products, more than the {MAX_PRODUCT_TERMS} allowed"):
        b.normal_form(prod)
    assert time.perf_counter() - t0 < 1.0


def test_simplify_is_idempotent_and_value_preserving():
    b = GraphBuilder()
    ctx = _ctx()
    rng = np.random.default_rng(0)
    xs = [b.cipher(ctx.encrypt(float(v))) for v in rng.uniform(-2, 2, 4)]
    c1 = b.compare(xs[0], xs[1])
    c2 = b.compare(xs[2], xs[3])
    e = b.mul(b.select(c1, xs[0], xs[1]), b.select(c2, xs[2], b.mul(xs[0], xs[3])))
    s = b.simplify(e)
    assert b.simplify(s) is s
    pe = PlainEvaluator(b)
    assert pe.eval(e) == pytest.approx(pe.eval(s), rel=1e-12)
    # same normal form before and after
    nf_e = {k: PlainEvaluator(b).eval(v) for k, v in b.normal_form(e).items()}
    nf_s = {k: PlainEvaluator(b).eval(v) for k, v in b.normal_form(s).items()}
    assert nf_e == nf_s


def test_simplified_roots_reuse_their_normal_form(monkeypatch):
    # every root the blob16 pipeline simplifies: the rebuilt node's normal
    # form is the original's, read from the memo instead of expanded again
    built = []
    for name in ("add", "mul"):
        op = getattr(GraphBuilder, name)
        monkeypatch.setattr(GraphBuilder, name,
                            lambda b, x, y, op=op: built.append(op) or op(b, x, y))
    simplify = GraphBuilder.simplify
    roots = []

    def checking_simplify(b, e):
        want = {k: c.id for k, c in b.normal_form(e).items()}
        out = simplify(b, e)
        nodes, calls = len(b.nodes), len(built)
        assert {k: c.id for k, c in b.normal_form(out).items()} == want
        assert (len(b.nodes), len(built)) == (nodes, calls)  # no node, no term built
        roots.append(out)
        return out

    monkeypatch.setattr(GraphBuilder, "simplify", checking_simplify)
    run_pipeline(make_blob16(), PipelineConfig(octaves=1), mode="deferred", seed=SEED)
    # per layer: five localize slots and the binned weight of each of the
    # 36 orientation and 8 descriptor bins; the bins and the weight sum
    # are window sums, canonical as built
    assert len(roots) == 3 * (5 + 36 + 8)


def test_simplify_keeps_the_zero_normal_form():
    # an empty normal form rebuilds to plain(0.0), whose own form is not empty
    b = GraphBuilder()
    c = b.compare(b.cipher(_ctx().encrypt(1.0)), b.plain(0.0))
    zero = b.simplify(b.sub(c, c))
    assert zero is b.plain(0.0)
    assert b.normal_form(zero) == {frozenset(): zero}


def test_sorted_terms_orders_by_arity_then_keys():
    b = GraphBuilder()
    terms = {
        frozenset({("b", 1), ("b", 0)}): b.plain(1.0),
        frozenset({("b", 1)}): b.plain(2.0),
        frozenset(): b.plain(3.0),
        frozenset({("b", 0)}): b.plain(4.0),
    }
    order = [sorted(k) for k, _ in GraphBuilder.sorted_terms(terms)]
    assert order == [[], [("b", 0)], [("b", 1)], [("b", 0), ("b", 1)]]


# -- dependency tiers ---------------------------------------------------------------


def test_tiers_and_dependency_depth():
    b = GraphBuilder()
    ctx = _ctx()
    x = b.cipher(ctx.encrypt(4.0))
    y = b.cipher(ctx.encrypt(1.0))
    assert b.mul(x, y).tier == 0
    c1 = b.compare(x, y)
    first = b.select(c1, x, y)
    assert c1.tier == 1
    assert first.tier == 1
    c2 = b.compare(first, b.plain(2.0))
    second = b.select(c2, first, y)
    assert b.comparisons[c2.payload].tier == 2 == c2.tier
    assert second.tier == 2
    s = b.sqrt_deferred(second)
    assert s.tier == 3 == b.sqrts[s.payload].tier
    assert max(e.tier for e in (first, second, s)) == 3
    assert x.tier == y.tier == b.plain(2.0).tier == 0


def test_tiers_match_a_sweep_over_operands():
    """Tiers set at build time equal a from-scratch sweep in id order, and
    an interactive run takes one round per tier of its slots."""
    ctx = _ctx(200)  # deep enough for any chain the generator builds
    rng = np.random.default_rng(5)
    for trial in range(10):
        b = GraphBuilder()
        pool = [b.cipher(ctx.encrypt(float(v))) for v in rng.uniform(-1.25, 1.25, 4)]
        for _ in range(60):
            x, y = (pool[int(i)] for i in rng.integers(len(pool), size=2))
            r = rng.random()
            if r < 0.15:
                pool.append(b.compare(x, y))
            elif r < 0.2:
                pool.append(b.sqrt_deferred(b.add(b.mul(x, x), b.plain(0.25))))
            elif r < 0.4:
                pool.append(b.add(x, y))
            elif r < 0.55:
                pool.append(b.sub(x, y))
            elif r < 0.8:
                pool.append(b.mul(x, y))
            else:
                pool.append(b.select(b.compare(x, y), x, b.neg(y)))
        sweep: list[int] = []
        for n in b.nodes:
            t = max((sweep[k.id] for k in operands(n)), default=0)
            sweep.append(t + 1 if n.op in ("bool", "sqrt") else t)
        assert [n.tier for n in b.nodes] == sweep, trial
        slots = {f"s{i}": e for i, e in enumerate(pool[-8:])}
        run = run_interactive(ctx, b, slots, Client(ctx), seed=trial)
        assert len(run.rounds) == max(e.tier for e in slots.values()), trial


# -- schedule -----------------------------------------------------------------------


def test_schedule_returns_each_reachable_node_once_in_id_order():
    ctx = _ctx()
    b = GraphBuilder()
    x, y, z, w = (b.cipher(ctx.encrypt(float(i))) for i in range(4))
    p = b.mul(x, y)
    q = b.add(p, z)
    top = b.mul(q, p)  # reads p twice: directly and through q
    b.add(w, x)  # not reachable from top
    assert schedule([top, q, top], (), operands) == [x, y, z, p, q, top]
    # done nodes are left out, and so is what is reachable only through them
    assert schedule([top], {p.id}, operands) == [z, q, top]
    assert schedule([top], {q.id: None}, operands) == [x, y, p, top]
    assert schedule([top], {top.id}, operands) == []


def test_blob16_nodes_are_created_after_their_operands(monkeypatch):
    # id order is a topological order only if every node, including those
    # normal_form and simplify create while lowering, reads older nodes
    builders = []
    init = GraphBuilder.__init__

    def capture(b, *args, **kwargs):
        init(b, *args, **kwargs)
        builders.append(b)

    monkeypatch.setattr(GraphBuilder, "__init__", capture)
    run_pipeline(make_blob16(), PipelineConfig(octaves=1), mode="deferred", seed=SEED)
    # a cold run compiles the graph, then binds the image's leaves through
    # a second builder over the same nodes
    b, bound = builders
    assert bound.nodes is b.nodes and bound.frozen
    assert b.reindexed
    for i, n in enumerate(b.nodes):
        assert n.id == i
        reads = [k for k in (n.a, n.c) if k is not None]
        if n.op == "bool":
            cmp = b.comparisons[n.payload]
            reads += [cmp.lhs, cmp.rhs]
        elif n.op == "sqrt":
            reads.append(b.sqrts[n.payload].arg)
        elif n.op == "reindex":  # its source comparison is a, or a is pure
            source = b.reindexed[n.payload].source
            assert (n.a.op, n.a.payload) == ("bool", source) if n.a.tier else source is None
        assert all(k.id < n.id for k in reads), n


# -- rationals ----------------------------------------------------------------------


def test_rational_div_signs():
    b = GraphBuilder()
    ctx = _ctx()
    n = b.cipher(ctx.encrypt(1.0))
    assert b.rational_div(n, b.plain(2.0)).den_sign == "positive"
    assert b.rational_div(n, b.plain(-2.0)).den_sign == "negative"
    assert b.rational_div(n, n).den_sign == "unknown"
    with pytest.raises(ValueError):
        b.rational_div(n, b.plain(0.0))
    with pytest.raises(ValueError):
        b.rational_div(n, n, den_sign="sideways")


def test_rational_lt_known_signs():
    ctx = _ctx()
    rng = np.random.default_rng(8)
    for _ in range(200):
        n1, n2 = rng.uniform(-5, 5, 2)
        d1 = rng.uniform(0.01, 5)
        d2 = -rng.uniform(0.01, 5)
        b = GraphBuilder()
        r = b.rational_div(b.cipher(ctx.encrypt(float(n1))),
                           b.cipher(ctx.encrypt(float(d1))), "positive")
        s = b.rational_div(b.cipher(ctx.encrypt(float(n2))),
                           b.cipher(ctx.encrypt(float(d2))), "negative")
        got = PlainEvaluator(b).eval(b.rational_lt(r, s))
        assert got == float(n1 / d1 < n2 / d2)
        assert len(b.comparisons) == 1  # known signs need no sign probe


def test_rational_unknown_sign_uses_probe_comparison():
    ctx = _ctx()
    rng = np.random.default_rng(9)
    for _ in range(200):
        n1, n2, d1 = rng.uniform(-5, 5, 3)
        d2 = rng.uniform(-5, 5)
        if abs(d1) < 1e-3 or abs(d2) < 1e-3:
            continue
        b = GraphBuilder()
        r = b.rational_div(b.cipher(ctx.encrypt(float(n1))), b.cipher(ctx.encrypt(float(d1))))
        s = b.rational_div(b.cipher(ctx.encrypt(float(n2))), b.cipher(ctx.encrypt(float(d2))))
        e = b.rational_lt(r, s)
        # [den > 0] plus one orientation; the reverse is its complement
        assert len(b.comparisons) == 2
        assert PlainEvaluator(b).eval(e) == float(n1 / d1 < n2 / d2)


def test_rational_gt_and_scalar_coercion():
    ctx = _ctx()
    b = GraphBuilder()
    r = b.rational_div(b.cipher(ctx.encrypt(3.0)), b.plain(2.0))
    assert PlainEvaluator(b).eval(r.gt(1.0)) == 1.0
    assert PlainEvaluator(b).eval(r.lt(1.0)) == 0.0


def test_rational_abs_le_squares_away_the_sign():
    ctx = _ctx()
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = rng.uniform(-2, 2)
        d = rng.uniform(-2, 2)
        if abs(d) < 1e-3:
            continue
        b = GraphBuilder()
        r = b.rational_div(b.cipher(ctx.encrypt(float(n))), b.cipher(ctx.encrypt(float(d))))
        got = PlainEvaluator(b).eval(r.abs_le(0.5))
        assert got == float(abs(n / d) <= 0.5)
        assert len(b.comparisons) == 1


def test_quadratic_vertex_offset_recovers_exactly():
    # three samples of a parabola with vertex at 0.3; the central
    # difference ratio must land on the offset to within 1e-6
    ctx = _ctx()
    f = lambda t: (t - 0.3) ** 2 + 0.1
    b = GraphBuilder()
    fm1 = b.cipher(ctx.encrypt(f(-1.0)))
    f0 = b.cipher(ctx.encrypt(f(0.0)))
    fp1 = b.cipher(ctx.encrypt(f(1.0)))
    g = b.mul(b.plain(0.5), b.sub(fp1, fm1))
    h = b.add(b.sub(b.sub(fp1, f0), f0), fm1)
    r = b.rational_div(b.neg(g), h)
    pe = PlainEvaluator(b)
    offset = pe.eval(r.num) / pe.eval(r.den)
    assert offset == pytest.approx(0.3, abs=1e-6)
    assert pe.eval(r.abs_le(0.5)) == 1.0
    assert pe.eval(r.abs_le(0.2)) == 0.0


# -- evaluators ---------------------------------------------------------------------


def test_plain_and_cipher_evaluators_agree_bitwise():
    ctx = _ctx()
    b = GraphBuilder()
    rng = np.random.default_rng(3)
    xs = [b.cipher(ctx.encrypt(float(v))) for v in rng.uniform(-3, 3, 5)]
    c = b.compare(b.mul(xs[0], xs[1]), xs[2])
    e = b.add(b.select(c, xs[3], xs[4]), b.mul(xs[0], b.plain(1.5)))
    pe = PlainEvaluator(b)
    want = pe.eval(e)
    bool_ct = ctx.encrypt(pe.bool_value(b.comparisons[0]))
    ce = CipherEvaluator(ctx, b, bool_cts={0: bool_ct})
    assert ce.eval(e).value == want


def test_cipher_evaluator_requires_bound_parameters():
    ctx = _ctx()
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(1.0))
    c = b.compare(x, b.plain(0.0))
    ce = CipherEvaluator(ctx, b)
    with pytest.raises(MissingAssignment):
        ce.eval(b.select(c, x, b.plain(0.0)))
    with pytest.raises(MissingAssignment):
        CipherEvaluator(ctx, b).eval(b.sqrt_deferred(x))


def test_declared_roots_release_every_ciphertext_after_its_last_read():
    b = GraphBuilder()
    ctx0 = _ctx()
    xv, yv = np.array([1.5, -2.0, 0.5, 3.0]), np.array([0.25, 4.0, -1.0, 2.0])
    x = b.cipher(ctx0.encrypt(xv), name="x")
    y = b.cipher(ctx0.encrypt(yv), name="y")
    c = b.compare(x, y)
    xy = b.mul(x, y)  # read by two roots
    pre = b.mul(b.sub(xy, y), b.plain(0.5))  # evaluated before the declaration
    r1 = b.add(xy, b.mul(c, x))
    r2 = b.sub(b.mul(r1, xy), pre)  # reads root r1
    r3 = b.mul(b.reindex(c, np.array([3, 0, 0, 1])), r1)
    roots = [r1, r2, r3, r1]  # r1 is asked for twice

    def run(declare):
        ctx = _ctx()
        ev = CipherEvaluator(ctx, b, bool_cts={c.payload: Ciphertext((xv > yv) * 1.0, 30)})
        ev.eval(pre)
        if declare:
            plan = RunPlan.over(roots, ev.memo)
            ev.follow(plan)
            assert plan.requests == []  # the one comparison is answered
            # y, xy - y and 0.5 were read only to compute pre
            assert sorted(ev.memo) == sorted([x.id, c.id, xy.id, pre.id])
        return ctx, ev, [ev.eval(r) for r in roots]

    keep_ctx, keep, want = run(declare=False)
    ctx, ev, got = run(declare=True)
    assert ev.memo == {} and len(keep.memo) > len(roots)
    for g, w in zip(got, want):
        assert (g.value.tobytes(), g.level) == (w.value.tobytes(), w.level)
    assert ctx.snapshot_counts() == keep_ctx.snapshot_counts()  # nothing computed twice
    with pytest.raises(ValueError, match="more often than declared"):
        ev.eval(r1)


def _random_program(rng, ctx):
    """A random program over 4-lane leaves, in the style of acceptance
    check c03: arithmetic, selects on comparisons (some reindexed, some
    over operands that wait on earlier answers) and square roots.
    Returns the builder, its slots and some pure comparison arguments, to
    ask for first, as the pipeline's pure pass does."""
    b = GraphBuilder()
    leaves = [b.cipher(ctx.encrypt(rng.uniform(-1.25, 1.25, 4))) for _ in range(5)]

    def pure(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if rng.random() < 0.25:
                return b.plain(round(float(rng.uniform(-1.25, 1.25)), 3))
            return leaves[int(rng.integers(len(leaves)))]
        if r < 0.9:
            return (b.add, b.sub, b.mul)[int(rng.integers(3))](pure(depth - 1), pure(depth - 1))
        return b.neg(pure(depth - 1))

    def impure(depth):
        r = rng.random()
        if depth <= 0 or r < 0.2:
            return pure(min(depth, 3))
        if r < 0.45:
            c = b.compare(impure(depth - 3) if rng.random() < 0.4 else pure(2), pure(2))
            if c.op == "bool" and c.width == 4 and rng.random() < 0.3:
                c = b.reindex(c, rng.integers(0, 4, 4))
            return b.select(c, impure(depth - 2), impure(depth - 2))
        if r < 0.55:
            e = impure(depth - 3)
            return b.sqrt_deferred(b.add(b.mul(e, e), b.plain(0.25)))
        if r < 0.85:
            return (b.add, b.sub, b.mul)[int(rng.integers(3))](impure(depth - 1),
                                                               impure(depth - 1))
        return b.neg(impure(depth - 1))

    slots = {f"s{i}": impure(8) for i in range(12)}
    pre = [c.arg for c in b.comparisons if c.tier == 1]
    return b, slots, pre[:int(rng.integers(len(pre) + 1))]


@pytest.mark.parametrize("noise", [0.0, 1e-9])
def test_a_replayed_tape_matches_the_walk_on_random_programs(noise):
    """A followed plan replays its tape; an evaluator with no plan walks
    each ask.  Asked the same things and given the same answers, both
    run the same simulator ops in the same order, so every slot agrees
    bit for bit, level included, with noise injected too.  A tape step
    may write its result into the value array of an operand it reads for
    the last time, when a step built that array and no ask handed it
    out, so leaves, answers and every ask's result keep their values to
    the end of the run."""
    rng = np.random.default_rng(11)
    tiers, reused = set(), 0
    for trial in range(12):
        enc = _ctx(40)
        b, slots, pre = _random_program(rng, enc)
        plan = RunPlan.over(slots.values(), first=pre)
        reused += sum(step[5] is not None for _, steps, _ in plan.tape for step in steps)
        pe = PlainEvaluator(b)
        answers = {n.id: enc.encrypt(pe.eval(n)) for n in plan.requests}
        tiers.add(len(plan.by_tier()))
        runs = []
        for planned in (True, False):
            ctx = CkksContext(SimParams(depth_budget=40, noise_per_mul=noise), seed=trial)
            ev = CipherEvaluator(ctx, b)
            if planned:
                ev.follow(plan)
            kept = [(ct, np.array(ct.value)) for ct in answers.values()]
            kept += [(n.payload, np.array(n.payload.value)) for n in b.nodes if n.op == "cipher"]

            def ask(e):
                ct = ev.eval(e)
                kept.append((ct, np.array(ct.value)))
                return ct

            for e in pre:
                ask(e)
            for cmps, sqrts in plan.by_tier():
                for n in cmps + sqrts:  # each request is asked as its one argument
                    ask(n.a)
                for n in cmps + sqrts:
                    ev.bind(n, answers[n.id])
            out = [ask(e) for e in slots.values()]
            assert (ev.memo == {}) == planned, trial
            for ct, value in kept:
                assert np.asarray(ct.value).tobytes() == value.tobytes(), (trial, planned)
            runs.append((ctx.snapshot_counts(),
                         [(np.asarray(ct.value).tobytes(), ct.level) for ct in out]))
        assert runs[0] == runs[1], trial
    assert max(tiers) >= 3  # some requests waited on two rounds of answers
    assert reused > 100  # most products and sums write into a freed operand


def _one_request(ctx, b, sqrt=False):
    x = b.cipher(ctx.encrypt(np.array([1.5, -2.0])), name="x")
    y = b.cipher(ctx.encrypt(np.array([0.5, 4.0])), name="y")
    p = b.sqrt_deferred(b.mul(x, x)) if sqrt else b.compare(x, y)
    return x, y, p, b.mul(p, b.add(x, y))


def test_a_followed_plan_takes_its_asks_in_order_and_as_often_as_planned():
    ctx, b = _ctx(), GraphBuilder()
    x, y, c, out = _one_request(ctx, b)
    ev = CipherEvaluator(ctx, b)
    plan = RunPlan.over([out], ev.memo)
    ev.follow(plan)
    assert plan.requests == [c]
    arg = b.comparisons[c.payload].arg
    assert operands(c) == (arg,) and format_expr(arg) == "x - y"
    for e in (x, y):  # the comparison is asked as its argument, not its operands
        with pytest.raises(ValueError, match="out of order"):
            ev.eval(e)
    ev.eval(arg)
    ev.bind(c, ctx.encrypt(np.array([1.0, 0.0])))
    assert np.array_equal(ev.eval(out).value, [1.5 + 0.5, 0.0])
    with pytest.raises(ValueError, match="more often than declared"):
        ev.eval(out)


@pytest.mark.parametrize("sqrt", [False, True])
def test_reading_an_unbound_answer_on_a_tape_is_a_missing_assignment(sqrt):
    ctx, b = _ctx(), GraphBuilder()
    x, y, p, out = _one_request(ctx, b, sqrt)
    ev = CipherEvaluator(ctx, b)
    plan = RunPlan.over([out], ev.memo)
    ev.follow(plan)
    assert plan.requests == [p]
    for e in operands(p):
        ev.eval(e)
    with pytest.raises(MissingAssignment, match="sqrt request 0" if sqrt else "comparison 0"):
        ev.eval(out)  # the answer was never bound


def test_follow_refuses_a_plan_made_over_other_nodes():
    """A plan made after evaluating x + y does not fit an evaluator that
    evaluated x * y instead, though both hold three nodes."""
    ctx, b = _ctx(), GraphBuilder()
    x, y = b.cipher(ctx.encrypt(2.0)), b.cipher(ctx.encrypt(3.0))
    total, prod = b.add(x, y), b.mul(x, y)
    plan = RunPlan.over([b.add(total, prod)], {x.id, y.id, total.id})
    ev = CipherEvaluator(ctx, b)
    ev.eval(prod)
    assert len(ev.memo) == len(plan.evaluated) == 3
    with pytest.raises(ValueError, match="1 of them not among those"):
        ev.follow(plan)
    fits = CipherEvaluator(ctx, b)
    fits.eval(total)
    fits.follow(plan)
    assert fits.eval(b.add(total, prod)).value == 11.0


def test_plain_evaluator_vectorizes_over_lanes():
    ctx = _ctx()
    b = GraphBuilder()
    v = b.cipher(ctx.encrypt(np.array([1.0, -1.0, 2.0])))
    e = b.select(b.compare(v, b.plain(0.0)), v, b.neg(v))
    out = PlainEvaluator(b).eval(e)
    assert np.array_equal(out, [1.0, 1.0, 2.0])


# -- lowering -----------------------------------------------------------------------


def test_lower_emits_requests_and_residuals():
    ctx = _ctx()
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(4.0))
    y = b.cipher(ctx.encrypt(9.0))
    c = b.compare(x, y)
    s = b.sqrt_deferred(y)
    slots = {"pick": b.select(c, x, y), "root": s}
    prog = lower(b, slots, ctx)
    assert [c.id for c in prog.comparisons] == [0]
    assert list(prog.sqrt_args) == [0]
    # the root's coefficient, 1.0, is a constant reference, not a table
    assert prog.leakage == {"bool_params": 1, "formed_rows": 0, "sqrt_params": 1,
                            "monomials": 3, "coeff_tables": 2, "coeff_refs": 1, "lane_maps": 0,
                            "windows": 0}
    assert prog.cmp_args[0].value == 4.0 - 9.0  # the record ships lhs - rhs
    # the slot tables, in name order: pick is y + [x > y](x - y), root s
    sections = prog.sections
    assert bytes(sections["names"][1]).decode() == "pickroot"
    assert sections["names"][0].tolist() == [4, 4]
    assert sections["slots"].tolist() == [(1, 2), (1, 2)]
    assert sections["params"][1].tolist() == [(0, protocol._NONE), (1, protocol._NONE)]
    assert sections["monomials"][1].tolist() == [0, protocol._NONE, 1, 0, 2, 0]
    want = {name: PlainEvaluator(b).eval(e) for name, e in slots.items()}
    assert run_deferred(prog, Client(ctx)).results == want == {"pick": 9.0, "root": 3.0}


def test_lower_rejects_impure_comparison_operands():
    ctx = _ctx()
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(1.0))
    y = b.cipher(ctx.encrypt(2.0))
    inner = b.select(b.compare(x, y), x, y)
    chained = b.compare(inner, b.plain(0.0))
    with pytest.raises(DeferralUnsupported):
        lower(b, {"s": chained}, ctx)


def test_lower_rejects_impure_sqrt_arguments():
    ctx = _ctx()
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(1.0))
    y = b.cipher(ctx.encrypt(2.0))
    s = b.sqrt_deferred(b.select(b.compare(x, y), x, y))
    with pytest.raises(DeferralUnsupported):
        lower(b, {"s": s}, ctx)


def test_residual_evaluate_counts_decrypts():
    ctx = _ctx()
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(4.0))
    y = b.cipher(ctx.encrypt(9.0))
    prog = lower(b, {"pick": b.select(b.compare(x, y), x, y)}, ctx)
    client = Client(ctx)
    assert run_deferred(prog, client).results == {"pick": 9.0}
    # the comparison batch's one column of differences, no sqrt batch,
    # then each coefficient table once
    assert len(prog.coeff_tables) == prog.leakage["monomials"] == 2
    assert client.attributed_decrypts == client.sk.decrypt_calls == 1 + len(prog.coeff_tables)


# -- reindexed parameters -----------------------------------------------------------


def _pixel_comparison(ctx, b):
    """One comparison over four 'pixel' lanes, [p > 0]."""
    p = b.cipher(ctx.encrypt(np.array([1.5, -2.0, 0.25, -0.5])), name="p")
    return b.compare(p, b.plain(0.0))


def test_reindex_interns_equal_maps_to_one_node():
    ctx = _ctx()
    b = GraphBuilder()
    c = _pixel_comparison(ctx, b)
    r1 = b.reindex(c, np.array([2, 0, 1]))
    assert b.reindex(c, [2, 0, 1]) is r1  # equal content, new object, other dtype
    assert b.reindex(c, np.array([2, 0, 1], dtype=np.uint8)) is r1
    r2 = b.reindex(c, np.array([3, 3, 0]))
    assert r2 is not r1
    assert (r1.width, r2.width) == (3, 3)
    assert [(r.id, r.source) for r in b.reindexed] == [(0, c.payload), (1, c.payload)]
    assert len(b.comparisons) == 1  # reindexing never asks a new comparison


def test_reindex_normal_form_keys_and_tier():
    ctx = _ctx()
    b = GraphBuilder()
    c = _pixel_comparison(ctx, b)
    r1 = b.reindex(c, np.array([2, 0, 1]))
    r2 = b.reindex(c, np.array([0, 1, 2]))
    assert b.normal_form(r1) == {frozenset({("r", 0)}): b.plain(1.0)}
    assert r1.tier == c.tier == 1
    # reindexed booleans are idempotent, and sort by creation order
    assert set(b.normal_form(b.mul(r1, r1))) == {frozenset({("r", 0)})}
    y = b.cipher(ctx.encrypt(np.array([1.0, 2.0, 3.0])), name="y")
    e = b.simplify(b.add(b.mul(r2, y), b.mul(r1, b.mul(r2, y))))
    assert [sorted(k) for k, _ in b.sorted_terms(b.normal_form(e))] == \
        [[("r", 1)], [("r", 0), ("r", 1)]]
    # a comparison on a reindexed parameter waits one more round
    assert b.comparisons[b.compare(e, y).payload].tier == 2


def test_simplify_multiplies_factors_in_creation_order():
    # reindexed factors created before a plain comparison come first, so
    # the two monomials share the product over them; in key order every
    # comparison would come before every reindexed parameter
    ctx = _ctx()
    b = GraphBuilder()
    c = _pixel_comparison(ctx, b)
    r1 = b.reindex(c, np.array([2, 0, 1]))
    r2 = b.reindex(c, np.array([1, 1, 3]))
    y = b.cipher(ctx.encrypt(np.array([1.0, 2.0, 3.0])), name="y")
    c1, c2 = b.compare(y, b.plain(0.0)), b.compare(y, b.plain(2.0))
    e1 = b.simplify(b.mul(c1, b.mul(r2, r1)))
    e2 = b.simplify(b.mul(b.mul(r1, c2), r2))
    shared = b.mul(r1, r2)
    assert e1 is b.mul(shared, c1)
    assert e2 is b.mul(shared, c2)


def test_reindex_evaluators_and_residual_agree_bitwise():
    ctx = _ctx()
    b = GraphBuilder()
    c = _pixel_comparison(ctx, b)
    rng = np.random.default_rng(12)
    y = b.cipher(ctx.encrypt(rng.uniform(-3, 3, 3)), name="y")
    z = b.cipher(ctx.encrypt(rng.uniform(-3, 3, 3)), name="z")
    r1 = b.reindex(c, np.array([2, 0, 1]))
    r2 = b.reindex(c, np.array([1, 1, 3]))
    e = b.simplify(b.add(b.select(r1, b.mul(y, z), z), b.mul(b.mul(r1, r2), b.mul(y, b.plain(0.7)))))
    want = PlainEvaluator(b).eval(e)
    assert np.array_equal(PlainEvaluator(b).eval(r2), [0.0, 0.0, 0.0])
    bits = PlainEvaluator(b).bool_value(b.comparisons[c.payload])
    assert np.array_equal(bits, [1.0, 0.0, 1.0, 0.0])
    ce = CipherEvaluator(ctx, b, bool_cts={c.payload: ctx.encrypt(bits)})
    got = ce.eval(e)
    assert got.value.tobytes() == np.asarray(want).tobytes()
    prog = lower(b, {"e": e}, ctx)
    # both parameters read the one comparison's row, each through its own map
    assert prog.sections["params"][1].tolist() == [(0, 0), (0, 1)]
    assert [m.tolist() for m in prog.lane_maps] == [[2, 0, 1], [1, 1, 3]]
    # [p > 0] over a 4-lane leaf is formed from the leaf's table: no records
    assert ([cmp.id for cmp in prog.comparisons], [cmp.id for cmp in prog.formed]) == \
        ([], [c.payload])
    assert prog.leakage["bool_params"] == 1
    assert run_deferred(prog, Client(ctx)).results["e"].tobytes() == np.asarray(want).tobytes()


def test_reindex_rejects_bad_maps_and_width_mismatch():
    ctx = _ctx()
    b = GraphBuilder()
    c = _pixel_comparison(ctx, b)
    with pytest.raises(ValueError):
        b.reindex(c, np.array([0, 4]))  # the comparison has 4 lanes
    with pytest.raises(ValueError):
        b.reindex(c, np.array([-1, 0]))
    with pytest.raises(ValueError):
        b.reindex(c, np.array([[0, 1]]))
    with pytest.raises(ValueError):
        b.reindex(c, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        b.reindex(b.sub(b.plain(1.0), c), np.array([0, 1]))  # not a parameter
    scalar = b.compare(b.cipher(ctx.encrypt(1.0)), b.plain(0.0))
    with pytest.raises(ValueError):
        b.reindex(scalar, np.array([0, 0]))
    r = b.reindex(c, np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="width mismatch"):
        b.mul(r, b.cipher(ctx.encrypt(np.zeros(4))))


def test_reindex_of_a_pure_node_is_a_free_gather():
    """A pure node's lanes read through a map: a coefficient, not a
    parameter, which both evaluators compute as a gather that counts no
    op and keeps the operand's level, and which the client, given the
    node as a table, rebuilds bit for bit."""
    ctx = _ctx()
    b = GraphBuilder()
    rng = np.random.default_rng(5)
    p = b.cipher(ctx.encrypt(rng.uniform(-3, 3, 6)), name="p")
    mag2 = b.mul(p, p)
    at = np.array([5, 0, 0, 3])
    r = b.reindex(mag2, at)
    assert b.reindex(mag2, at.tolist()) is r  # equal maps intern to one node
    assert (r.tier, r.width, b.reindexed[r.payload].source) == (0, 4, None)
    assert b.normal_form(r) == {frozenset(): r}
    assert format_expr(r) == "(p*p)[5 0 0 3]"
    q = b.cipher(ctx.encrypt(rng.uniform(-1, 1, 4)), name="q")
    c = b.compare(q, b.plain(0.0))
    slots = {"w": b.simplify(b.mul(b.sub(b.plain(1.0), c), b.mul(r, b.plain(0.3))))}

    pe = PlainEvaluator(b)
    want = np.asarray(pe.eval(slots["w"]))
    assert pe.eval(r).tobytes() == (pe.eval(mag2)[at]).tobytes()
    ce = CipherEvaluator(ctx, b, bool_cts={c.payload: ctx.encrypt(pe.bool_value(
        b.comparisons[c.payload]))})
    square = ce.eval(mag2)
    before = ctx.snapshot_counts()
    got = ce.eval(r)
    assert ctx.snapshot_counts() == before  # the gather counts nothing
    assert got.level == square.level
    assert got.value.tobytes() == square.value[at].tobytes()
    assert ce.eval(slots["w"]).value.tobytes() == want.tobytes()
    prog = lower(b, slots)
    assert (prog.leakage["coeff_tables"], prog.leakage["coeff_refs"]) == (2, 2)
    # mag2 for the references, and q, from which the client forms [q > 0]
    assert [e for e, _ in prog.coeff_nodes] == [mag2, q]
    assert run_deferred(lower(b, slots, ctx), Client(ctx)).results["w"].tobytes() == \
        want.tobytes()


def test_reindex_refuses_a_node_that_waits_on_a_comparison():
    ctx = _ctx()
    b = GraphBuilder()
    c = _pixel_comparison(ctx, b)
    pixels = b.cipher(ctx.encrypt(np.arange(4.0)), name="p")
    with pytest.raises(ValueError, match="pure node"):
        b.reindex(b.mul(c, pixels), np.array([0, 1]))  # tier 1
    with pytest.raises(ValueError, match="outside the 4 lanes"):
        b.reindex(b.mul(pixels, pixels), np.array([0, 4]))
    with pytest.raises(ValueError):
        b.reindex(b.mul(pixels, pixels), np.array([-1, 0]))
    with pytest.raises(ValueError):
        b.reindex(b.cipher(ctx.encrypt(2.0)), np.array([0, 0]))  # one lane


def test_format_renders_reindexed_parameters():
    ctx = _ctx()
    b = GraphBuilder()
    c = _pixel_comparison(ctx, b)
    y = b.cipher(ctx.encrypt(np.array([1.0, 2.0, 3.0])), name="y")
    r = b.reindex(c, np.array([2, 0, 1]))
    assert format_expr(r) == "r1"
    text = format_normal_form(b, {"out": b.simplify(b.mul(r, y))})
    assert text == "params:\n  c1 = [p > 0]\n  r1 = c1[2 0 1]\nslot out:\n  r1 : y\n"


def test_window_sum_interns_by_content_and_waits_as_a_parameter():
    """A window sum over a pure node is pure, its own coefficient; over an
    unresolved one it is one parameter of its normal forms, which simplify
    keeps as built and which no product may square.  Equal windows intern
    to one, and one window serves every source."""
    ctx = _ctx()
    b = GraphBuilder()
    c = _pixel_comparison(ctx, b)
    p = b.comparisons[c.payload].lhs
    maps = [np.array([0, 2, 3]), np.array([3, 1, 1])]
    window = [(maps[0], 0.5), (maps[1], -2.0)]
    pure = b.window_sum(p, window)
    assert b.window_sum(p, [(m.copy(), k) for m, k in window]) is pure
    assert (pure.tier, pure.width) == (0, 3)
    assert b.normal_form(pure) == {frozenset(): pure} and format_expr(pure) == "wsum1(p)"
    h = b.simplify(b.mul(c, p))
    w = b.window_sum(h, window)
    assert b.wsums[w.payload].index is b.wsums[pure.payload].index  # one window, two sources
    assert b.window_sum(h, [(maps[0], 0.5)]) is not w  # another window
    assert (w.tier, w.width) == (1, 3)
    assert b.normal_form(w) == {frozenset({("w", w.payload)}): b.plain(1.0)}
    assert b.simplify(w) is w
    r = b.reindex(c, maps[0])
    assert b.normal_form(b.mul(w, r)) == {frozenset({("r", r.payload), ("w", w.payload)}):
                                          b.plain(1.0)}
    with pytest.raises(DeferralUnsupported, match="square a window sum"):
        b.normal_form(b.mul(w, b.add(w, pure)))
    assert format_normal_form(b, {"out": w}) == (
        "params:\n  c1 = [p > 0]\n  w2 = wsum(p*c1)\nslot out:\n  w2 : 1\n")
    for bad in ([], [(np.array([0, 4, 1]), 1.0)], [(maps[0], 1.0), (np.array([0, 1]), 1.0)]):
        with pytest.raises(ValueError):
            b.window_sum(p, bad)

    # sum_p c_p * h[map_p], left to right, from every evaluator
    pe = PlainEvaluator(b)
    want = np.full(3, -0.0)
    for at, k in window:
        want = want + np.asarray(pe.eval(h))[at] * k
    ce = CipherEvaluator(ctx, b, bool_cts={0: ctx.encrypt(pe.bool_value(b.comparisons[0]))})
    before = dict(ctx.op_counts)
    got = ce.eval(w).value
    assert ctx.op_counts["mul_plain"] - before["mul_plain"] == 2 * 3
    assert np.asarray(pe.eval(w)).tobytes() == got.tobytes() == want.tobytes()


# -- formatting ---------------------------------------------------------------------


def test_format_expr_rendering():
    ctx = _ctx()
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(1.0), name="x")
    y = b.cipher(ctx.encrypt(2.0), name="y")
    # commutative operands are interned in creation order, y before the sum
    assert format_expr(b.mul(b.add(x, y), y)) == "y*(x + y)"
    assert format_expr(b.neg(b.add(x, y))) == "-(x + y)"
    assert format_expr(b.add(x, b.plain(-2.0))) == "x - 2"
    assert format_expr(b.sub(b.mul(x, y), y)) == "x*y - y"
    c = b.compare(x, y)
    assert format_expr(c) == "c1"
    s = b.sqrt_deferred(y)
    assert format_expr(s) == "s1"


def test_format_normal_form_lists_params_and_terms():
    ctx = _ctx()
    b = GraphBuilder()
    x = b.cipher(ctx.encrypt(1.0), name="x")
    y = b.cipher(ctx.encrypt(2.0), name="y")
    text = format_normal_form(b, {"out": b.select(b.compare(x, y), x, y)})
    assert "params:" in text
    assert "c1 = [x > y]" in text
    assert "slot out:" in text
    assert "  1 : y" in text
    assert "  c1 : x - y" in text


def test_format_renders_sums_deeper_than_the_recursion_limit():
    ctx = _ctx()
    b = GraphBuilder()
    total = b.sum_(b.cipher(ctx.encrypt(1.0)) for _ in range(5000))
    # each partial sum is created after the leaf it adds, so the leaf reads first
    want = " + ".join([f"v{i}" for i in range(4999, 1, -1)] + ["v0", "v1"])
    assert format_expr(total) == want
    text = format_normal_form(b, {"out": b.compare(total, b.plain(0.0))})
    assert text.startswith(f"params:\n  c1 = [{want} > 0]\nslot out:\n")


# -- helpers ------------------------------------------------------------------------


def test_balanced_fold_shape_and_errors():
    assert balanced_fold([1, 2, 3, 4, 5], lambda a, c: (a, c)) == (((1, 2), (3, 4)), 5)
    assert balanced_fold([7], lambda a, c: None) == 7
    with pytest.raises(ValueError):
        balanced_fold([], lambda a, c: None)
