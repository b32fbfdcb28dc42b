import numpy as np
import pytest

from sesopt import (CallableObjective, DenseOperator, EmptySubspaceError,
                    HistoryBuffer, LineSearchError, build_frame,
                    line_search_backtracking, make_expsquares,
                    make_svm_smooth, seeded_rng, subspace_minimize)

from conftest import small_l1, small_quadratic


# -- frame construction -------------------------------------------------------

def test_duplicate_and_zero_columns_dropped(rng):
    v = rng.standard_normal(10)
    frame = build_frame(np.zeros(10),
                        [(v, "a", None), (2.0 * v, "b", None),
                         (np.zeros(10), "z", None)])
    assert frame.size == 1
    assert frame.tags == ["a"]
    assert set(frame.dropped) == {"b", "z"}
    assert np.linalg.norm(frame.basis[:, 0]) == pytest.approx(1.0, rel=1e-14)


def test_empty_subspace_raises():
    with pytest.raises(EmptySubspaceError):
        build_frame(np.zeros(4), [(np.zeros(4), "z", None)])


def test_near_dependent_column_dropped(rng):
    v = rng.standard_normal(20)
    w = v + 1e-13 * rng.standard_normal(20)
    frame = build_frame(np.zeros(20), [(v, "a", None), (w, "b", None)])
    assert frame.size == 1 and frame.dropped == ["b"]


def test_drop_tolerance_holds_on_the_vectors(rng):
    # the 1e-10 drop tolerance is a distance between n-vectors; a Gram-matrix
    # selector sees both independent parts below its rounding floor
    v = rng.standard_normal(50)
    v /= np.linalg.norm(v)
    w = rng.standard_normal(50)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    frame = build_frame(np.zeros(50), [(v, "a", None), (v + 1e-9 * w, "b", None)])
    assert frame.tags == ["a", "b"] and frame.dropped == []
    frame = build_frame(np.zeros(50), [(v, "a", None), (v + 1e-11 * w, "b", None)])
    assert frame.tags == ["a"] and frame.dropped == ["b"]


def test_history_appended_newest_first(rng):
    hist = HistoryBuffer(max_len=3)
    steps = [rng.standard_normal(6) for _ in range(4)]
    for s in steps:
        hist.push_step(s)
    assert len(hist) == 3  # ring buffer dropped the oldest
    frame = build_frame(np.zeros(6), [(rng.standard_normal(6), "d", None)],
                        history=hist, max_history=2)
    assert frame.tags == ["d", "step-1", "step-2"]
    # step-1 is the newest push, normalized
    np.testing.assert_allclose(frame.basis[:, 1],
                               steps[3] / np.linalg.norm(steps[3]), rtol=1e-14)


def test_products_cached_vs_fresh(rng):
    a = rng.standard_normal((8, 6))
    op = DenseOperator(a)
    v = rng.standard_normal(6)
    av = a @ v
    op.counters.reset()
    frame = build_frame(np.zeros(6), [(v, "d", av)], op=op, with_products=True)
    assert op.counters.matvecs == 0  # cached product reused
    np.testing.assert_allclose(frame.products[:, 0], av / np.linalg.norm(v),
                               rtol=1e-14)

    frame = build_frame(np.zeros(6), [(v, "d", None)], op=op, with_products=True)
    assert op.counters.matvecs == 1  # fresh application
    frame = build_frame(np.zeros(6), [(v, "d", None)], op=op, with_products=True)
    assert op.counters.matvecs == 2  # no cache to reuse

    with pytest.raises(ValueError):
        build_frame(np.zeros(6), [(v, "d", None)], with_products=True)


def test_mixed_cached_and_fresh_products_keep_value_order_and_layout(rng):
    a = rng.standard_normal((40, 30))
    op = DenseOperator(a)
    vs = [rng.standard_normal(30) for _ in range(5)]
    cols = [(v, f"c{i}", a @ v if i in (1, 3) else None)
            for i, v in enumerate(vs)]
    cols.insert(2, (2.0 * vs[0], "dup", None))  # dropped before the products
    hist = HistoryBuffer(max_len=2)
    step = rng.standard_normal(30)
    hist.push_step(step, a @ step)
    frame = build_frame(np.zeros(30), cols, hist, op=op, with_products=True)
    assert frame.tags == ["c0", "c1", "c2", "c3", "c4", "step-1"]
    assert frame.dropped == ["dup"]
    assert op.counters.matvecs == 3  # one per fresh column, in one apply
    # one row per column, transposed: the layout that fixes the summation
    # order of the solvers' products @ alpha, and so their traces
    assert frame.products.shape == (40, 6) and frame.products.T.flags.c_contiguous
    for j, (v, _, av) in enumerate(cols[:2] + cols[3:] + [(step, "", a @ step)]):
        got = frame.products[:, j]
        if av is not None:  # the cached product, scaled as it was pushed
            np.testing.assert_array_equal(got, av / np.linalg.norm(v))
        else:
            want = a @ (v / np.linalg.norm(v))
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# -- reduced minimization -----------------------------------------------------

def test_two_column_solve_matches_dense_oracle():
    obj, a, _ = small_quadratic(n=12)
    x0 = seeded_rng(41).standard_normal(12)
    r0 = obj.residual(x0)
    d1 = seeded_rng(42).standard_normal(12)
    d2 = seeded_rng(43).standard_normal(12)
    frame = build_frame(x0, [(d1, "d1", None), (d2, "d2", None)], op=obj.op,
                        with_products=True)
    res = subspace_minimize(obj, frame, residual=r0)
    # oracle: minimize ||r0 + (A D) alpha||^2 by the normal equations
    ad = a @ frame.basis
    alpha_star = np.linalg.solve(ad.T @ ad, -(ad.T @ r0))
    np.testing.assert_allclose(res.alpha, alpha_star, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(res.x, x0 + frame.basis @ alpha_star, rtol=1e-10)
    assert res.f == pytest.approx(obj._value(res.x), rel=1e-12)
    np.testing.assert_allclose(res.residual, a @ res.x - obj.b, rtol=1e-9,
                               atol=1e-12)


def test_single_gradient_column_is_cauchy_step():
    obj, a, _ = small_quadratic(n=9)
    x0 = seeded_rng(44).standard_normal(9)
    r0 = obj.residual(x0)
    g = 2.0 * a.T @ r0
    frame = build_frame(x0, [(-g, "grad", None)], op=obj.op, with_products=True)
    res = subspace_minimize(obj, frame, residual=r0)
    h = 2.0 * a.T @ a
    t_star = float(g @ g) / float(g @ (h @ g))
    np.testing.assert_allclose(res.x, x0 - t_star * g, rtol=1e-10)


def test_composite_inner_loop_applies_no_operators():
    obj, a = small_l1()
    x0 = seeded_rng(45).standard_normal(obj.dim)
    r0 = obj.residual(x0)
    atr = obj.op.adjoint(r0)
    cols = [(-atr, "grad", a @ (-atr))]
    before = obj.counters.matvecs
    frame = build_frame(x0, cols, op=obj.op, with_products=True)
    res = subspace_minimize(obj, frame, residual=r0)
    assert obj.counters.matvecs == before  # cached products only
    assert res.f <= obj.value_from_residual(r0, x0)
    assert res.inner_iters >= 1


def test_composite_exact_value_never_increases():
    # large mu stresses the smoothing correction
    obj, _ = small_l1(mu=0.5)
    for seed in range(6):
        x0 = seeded_rng(50 + seed).standard_normal(obj.dim)
        r0 = obj.residual(x0)
        atr = obj.op.adjoint(r0)
        cols = [(-atr, "grad", None),
                (seeded_rng(60 + seed).standard_normal(obj.dim), "noise", None)]
        frame = build_frame(x0, cols, op=obj.op, with_products=True)
        res = subspace_minimize(obj, frame, residual=r0)
        assert res.f <= obj.value_from_residual(r0, x0) + 1e-12


def test_composite_solve_is_stationary_for_the_smoothed_objective():
    # oracle: the gradient of the smoothed composite, computed from scratch
    # through the operator, projected on the frame
    obj, _ = small_l1(mu=0.05)
    smooth = obj.smoothed()
    x0 = seeded_rng(70).standard_normal(obj.dim)
    r0 = obj.residual(x0)
    cols = [(-obj.op.adjoint(r0), "grad", None)]
    cols += [(seeded_rng(71 + i).standard_normal(obj.dim), f"d{i}", None)
             for i in range(3)]
    frame = build_frame(x0, cols, op=obj.op, with_products=True)
    assert frame.size == 4
    before = obj.counters.matvecs
    res = subspace_minimize(obj, frame, residual=r0)
    assert obj.counters.matvecs == before  # cached products only
    assert 1 <= res.inner_iters < 20
    d = frame.basis
    tol = 1e-10 * (1.0 + np.linalg.norm(d.T @ smooth.grad(x0)))
    assert np.linalg.norm(d.T @ smooth.grad(res.x)) <= tol
    assert res.f == pytest.approx(obj.value(res.x), rel=1e-12)
    np.testing.assert_allclose(res.residual, obj.residual(res.x), rtol=1e-9,
                               atol=1e-12)


def test_composite_first_column_fallback_when_newton_makes_no_move():
    # with no Newton step allowed the solve must fall back to an Armijo
    # search along the first column, still without operator applications
    obj, _ = small_l1(mu=0.05)
    x0 = seeded_rng(75).standard_normal(obj.dim)
    r0 = obj.residual(x0)
    cols = [(seeded_rng(76 + i).standard_normal(obj.dim), f"d{i}", None)
            for i in range(3)]
    frame = build_frame(x0, cols, op=obj.op, with_products=True)
    before = obj.counters.matvecs
    res = subspace_minimize(obj, frame, residual=r0, max_inner=0)
    assert obj.counters.matvecs == before
    assert res.events == ["fallback_first_column"]
    assert res.alpha[0] != 0.0 and not np.any(res.alpha[1:])
    assert res.f < obj.value_from_residual(r0, x0)
    np.testing.assert_allclose(res.x, x0 + res.alpha[0] * frame.basis[:, 0],
                               rtol=1e-12)


def _hvp_newton_oracle(obj, frame, tol=1e-14, max_iters=100):
    """Minimizer over the frame by damped Newton on the full-space value,
    gradient and hvp, the reduced system assembled column by column."""
    d, x0 = frame.basis, frame.base
    alpha = np.zeros(frame.size)
    f = obj.value(x0)
    for _ in range(max_iters):
        x = x0 + d @ alpha
        g = d.T @ obj.grad(x)
        if np.linalg.norm(g) <= tol:
            break
        h = d.T @ np.column_stack([obj.hvp(x, d[:, j]) for j in range(frame.size)])
        delta = np.linalg.solve(h, -g)
        t = 1.0
        while obj.value(x0 + d @ (alpha + t * delta)) > f + 1e-4 * t * (g @ delta):
            t *= 0.5
        alpha = alpha + t * delta
        f = obj.value(x0 + d @ alpha)
    return alpha


@pytest.mark.parametrize("kind", ["svm", "expsquares"])
def test_linear_loss_solve_matches_hvp_newton_oracle(kind):
    rng = seeded_rng(80)
    if kind == "svm":
        obj = make_svm_smooth(60, 25, seed=5, violation_frac=0.1)
        x0 = 0.3 * rng.standard_normal(obj.dim)
        a = obj.x_rows
    else:
        obj = make_expsquares(30)
        x0 = 0.1 * rng.standard_normal(obj.dim)
        a = np.ones((1, obj.dim))
    step = rng.standard_normal(obj.dim)
    hist = HistoryBuffer(2)
    hist.push_step(step, a @ step)  # carried product, made outside the counters
    cols = [(-obj.grad(x0), "grad", None),
            (rng.standard_normal(obj.dim), "noise", None)]
    obj.counters.reset()
    z0 = a @ x0
    frame = build_frame(x0, cols, hist, 2, op=obj.linear_map, with_products=True)
    assert frame.tags == ["grad", "noise", "step-1"]
    assert obj.counters.matvecs == 2  # the fresh columns only
    res = subspace_minimize(obj, frame, residual=z0, inner_tol=1e-14)
    assert obj.counters.matvecs == 2 and obj.counters.hvps == 0
    assert res.inner_iters >= 1

    alpha_star = _hvp_newton_oracle(obj, frame)
    np.testing.assert_allclose(res.alpha, alpha_star, rtol=1e-10)
    np.testing.assert_allclose(res.x, x0 + frame.basis @ alpha_star, rtol=1e-10)
    np.testing.assert_allclose(res.residual, a @ res.x, rtol=1e-12, atol=1e-12)
    assert res.f == pytest.approx(obj.value(res.x), rel=1e-12)
    if kind == "svm":
        # the solve crossed the hinge: rows on both sides at its start and end
        for w in (x0, res.x):
            active = int(np.sum(obj.margins(w) < 1.0))
            assert 0 < active < obj.y.size


def test_linear_loss_trial_point_past_the_exponent_guard_raises():
    # along e1 the squares pull x1 from 5000 towards -5000: the first Newton
    # trial point has sum(x) near -2500
    obj = make_expsquares(2)
    x0 = np.array([5000.0, -5000.0])
    frame = build_frame(x0, [(np.array([1.0, 0.0]), "e1", None)],
                        op=obj.linear_map, with_products=True)
    with pytest.raises(OverflowError):
        subspace_minimize(obj, frame, residual=obj.linear_map.apply(x0))


def test_linear_loss_needs_products():
    obj = make_expsquares(5)
    frame = build_frame(np.zeros(5), [(np.ones(5), "d", None)])
    with pytest.raises(ValueError, match="products"):
        subspace_minimize(obj, frame)


def test_smooth_path_requires_hvp():
    no_hvp = CallableObjective(4, value=lambda z: float(z @ z),
                               grad=lambda z: 2 * z)
    frame = build_frame(np.zeros(4), [(np.ones(4), "d", None)])
    with pytest.raises(ValueError, match="hvp"):
        subspace_minimize(no_hvp, frame)


def test_smooth_path_minimizes_over_frame():
    quad = CallableObjective(5, value=lambda z: float(z @ z),
                             grad=lambda z: 2 * z,
                             hvp=lambda z, v: 2 * v)
    x0 = np.array([1.0, -2.0, 3.0, 0.5, -1.0])
    d = seeded_rng(46).standard_normal(5)
    frame = build_frame(x0, [(d, "d", None)])
    res = subspace_minimize(quad, frame)
    u = frame.basis[:, 0]
    t_star = -float(x0 @ u)  # argmin ||x0 + t u||^2 for unit u
    np.testing.assert_allclose(res.x, x0 + t_star * u, rtol=1e-9, atol=1e-12)


def test_composite_needs_products():
    obj, _ = small_l1()
    frame = build_frame(np.zeros(obj.dim), [(np.ones(obj.dim), "d", None)])
    with pytest.raises(ValueError, match="products"):
        subspace_minimize(obj, frame)


# -- line search ---------------------------------------------------------------

def test_backtracking_accepts_full_step_on_easy_descent():
    quad = CallableObjective(3, value=lambda z: float(z @ z),
                             grad=lambda z: 2 * z)
    x = np.array([4.0, 0.0, 0.0])
    t, f_new = line_search_backtracking(quad, x, -x)
    assert t == 1.0 and f_new == 0.0


def test_backtracking_validation_and_failure():
    quad = CallableObjective(2, value=lambda z: float(z @ z),
                             grad=lambda z: 2 * z)
    with pytest.raises(ValueError, match="descent"):
        line_search_backtracking(quad, np.ones(2), np.ones(2))

    # gradient promises descent but the value never drops: budget exhausted
    liar = CallableObjective(2, value=lambda z: 0.0,
                             grad=lambda z: -np.ones(2))
    with pytest.raises(LineSearchError):
        line_search_backtracking(liar, np.zeros(2), np.ones(2))
