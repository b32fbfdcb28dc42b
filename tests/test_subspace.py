import dataclasses
import math
import warnings

import numpy as np
import pytest

from sesopt import (CallableObjective, CompositeObjective, DenseOperator,
                    EmptySubspaceError, HistoryBuffer, LineSearchError,
                    build_frame, line_search_backtracking, make_expsquares,
                    make_svm_smooth, run_nonlinear_cg, run_sesop_tn,
                    run_steepest_descent, seeded_rng, subspace_minimize)

from sesopt.subspace import DROP_TOL, _newton_step

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
    hist = HistoryBuffer(max_len=2)
    steps = [rng.standard_normal(6) for _ in range(4)]
    for s in steps:
        hist.push_step(s)
    assert len(hist) == 2  # ring buffer dropped the oldest
    frame = build_frame(np.zeros(6), [(rng.standard_normal(6), "d", None)],
                        history=hist)
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
    frame = build_frame(np.zeros(6), [(v, "d", av)], op=op)
    assert op.counters.matvecs == 0  # cached product reused
    np.testing.assert_allclose(frame.products[:, 0], av / np.linalg.norm(v),
                               rtol=1e-14)

    frame = build_frame(np.zeros(6), [(v, "d", None)], op=op)
    assert op.counters.matvecs == 1  # fresh application
    frame = build_frame(np.zeros(6), [(v, "d", None)], op=op)
    assert op.counters.matvecs == 2  # no cache to reuse


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
    frame = build_frame(np.zeros(30), cols, hist, op=op)
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


def _normalized(vec, avec=None):
    vec = np.asarray(vec, dtype=np.float64)
    nrm = math.sqrt(vec.dot(vec))
    if not (nrm > 0.0 and math.isfinite(nrm)):
        return None, None
    return vec / nrm, None if avec is None else np.asarray(avec, dtype=np.float64) / nrm


def _stacked_frame(base, columns, pushed, max_len, op=None):
    """(basis, products, tags, dropped) from stacking every submission and
    the newest ``max_len`` pushes, each normalized, and the full Gram of
    the stack: the frame without a store. A push whose product is not
    finite is dropped, as the store drops it."""
    subs = [(*_normalized(vec, avec), tag) for vec, tag, avec in columns]
    for i, (step, a_step) in enumerate(reversed(pushed[-max_len:])):
        u, au = _normalized(step, a_step)
        if au is not None and not math.isfinite(au.dot(au)):
            u = au = None
        subs.append((u, au, f"step-{i + 1}"))
    usable = [i for i, sub in enumerate(subs) if sub[0] is not None]
    if not usable:
        raise EmptySubspaceError("empty subspace")
    unit = np.array([subs[i][0] for i in usable])
    k, n = unit.shape
    sel = None
    if k <= n:
        gram = unit @ unit.T
        gram.ravel()[::k + 1] -= DROP_TOL ** 2 + 8 * (n + k * k) * np.finfo(float).eps
        try:
            np.linalg.cholesky(gram)
            sel = list(range(k))
        except np.linalg.LinAlgError:
            pass
    if sel is None:  # modified Gram-Schmidt on the rows
        rest, sel = unit.copy(), []
        for j in range(k):
            wn = float(np.linalg.norm(rest[j]))
            if wn > DROP_TOL:
                sel.append(j)
                q = rest[j] / wn
                rest[j + 1:] -= np.outer(rest[j + 1:] @ q, q)
    if not sel:
        raise EmptySubspaceError("empty subspace")
    kept = [usable[j] for j in sel]
    unit = unit[sel]
    products = None
    if op is not None:
        rows = [subs[i][1] for i in kept]
        fresh = [j for j, au in enumerate(rows) if au is None]
        if fresh:
            for j, au in zip(fresh, op.apply(unit[fresh].T).T):
                rows[j] = au
        products = np.array(rows).T
    return (unit.T, products, [subs[i][2] for i in kept],
            [sub[2] for i, sub in enumerate(subs) if i not in kept])


@pytest.mark.parametrize("n", [30, 6])
@pytest.mark.parametrize("max_len", [1, 7])
@pytest.mark.parametrize("orth", [False, True])
@pytest.mark.parametrize("with_products", [True, False])
def test_store_frames_are_bitwise_those_of_stacking(n, max_len, orth,
                                                    with_products):
    # pushes past max_len, zero, non-finite and duplicate steps, fresh
    # columns that duplicate a history step, one or three fresh columns
    # (gradient + orth, whose total step is zero at k = 0); with n = 6 the
    # frames outgrow the space and every one goes through Gram-Schmidt
    rng = seeded_rng(300 + n + max_len)
    a = rng.standard_normal((n + 5, n))
    op = DenseOperator(a) if with_products else None
    hist = HistoryBuffer(max_len)
    pushed, total = [], np.zeros(n)
    drops = 0
    for k in range(30):
        g = rng.standard_normal(n)
        last = pushed[-1][0] if pushed else np.zeros(n)
        if k % 5 == 4 and last.any() and np.isfinite(last).all():
            g = -2.0 * last
        cols = [(g, "gradient", None)]
        if orth:
            cols += [(rng.standard_normal(n), "orth_wgrad", None),
                     (total, "orth_tstep", a @ total if with_products else None)]
        x = rng.standard_normal(n)
        frame = build_frame(x, cols, hist, op=op)
        basis, products, tags, dropped = _stacked_frame(x, cols, pushed, max_len, op)
        np.testing.assert_array_equal(frame.basis, basis)
        assert frame.tags == tags and frame.dropped == dropped
        if with_products:
            np.testing.assert_array_equal(frame.products, products)
        drops += len(dropped)

        step = rng.standard_normal(n)
        if k % 7 == 1:  # follows a random step
            step = 3.0 * pushed[-1][0]
        elif k % 7 == 3:
            step = np.zeros(n)
        elif k % 7 == 5:
            step[k % n] = np.nan if k % 2 else np.inf
        a_step = a @ step if with_products else None
        if with_products and k == 10:  # finite step, non-finite product
            a_step[0] = np.inf
        hist.push_step(step, a_step)
        pushed.append((step, a_step))
        if np.isfinite(step).all():
            total = total + step
    assert len(hist) == max_len
    assert drops >= 10


def test_frames_are_views_valid_until_the_next_push():
    # a frame that keeps every column hands out the store's rows: the next
    # push and frame write over them, so a caller keeping one must copy it
    rng = seeded_rng(311)
    a = rng.standard_normal((8, 10))
    op = DenseOperator(a)
    hist = HistoryBuffer(3)
    for _ in range(2):
        step = rng.standard_normal(10)
        hist.push_step(step, a @ step)
    frame = build_frame(np.zeros(10), [(rng.standard_normal(10), "d", None)],
                        hist, op=op)
    assert frame.tags == ["d", "step-1", "step-2"]
    assert np.shares_memory(frame.basis, hist._units)
    assert np.shares_memory(frame.products, hist._products)
    basis, products = frame.basis.copy(), frame.products.copy()
    step = rng.standard_normal(10)
    hist.push_step(step, a @ step)
    build_frame(np.zeros(10), [(rng.standard_normal(10), "d", None)],
                hist, op=op)
    assert not np.array_equal(frame.basis, basis)
    assert not np.array_equal(frame.products, products)
    # steps() hands out copies of the rows, newest first
    held = hist.steps()
    assert len(held) == 3 and len(hist.steps(2)) == 2
    np.testing.assert_array_equal(held[0][0], step / np.linalg.norm(step))
    np.testing.assert_array_equal(held[1][0], basis[:, 1])
    np.testing.assert_array_equal(held[2][1], products[:, 2])
    assert not np.shares_memory(held[0][0], hist._units)


def test_non_finite_pushes_never_reach_the_gram():
    # the store rejects them on their norm before any inner product, so the
    # Cholesky certification never sees a NaN
    rng = seeded_rng(310)
    a = rng.standard_normal((12, 10))
    op = DenseOperator(a)
    hist = HistoryBuffer(4)
    good = rng.standard_normal(10)
    nan_step = rng.standard_normal(10)
    nan_step[2] = np.nan
    inf_step = rng.standard_normal(10)
    inf_step[5] = -np.inf
    bad_product = a @ good
    bad_product[1] = np.nan
    for step, a_step in ((good, a @ good), (nan_step, a @ nan_step),
                         (inf_step, a @ inf_step), (2.0 * good + 1.0, bad_product)):
        hist.push_step(step, a_step)
    frame = build_frame(np.zeros(10), [(rng.standard_normal(10), "d", None)],
                        hist, op=op)
    assert frame.tags == ["d", "step-4"]
    assert frame.dropped == ["step-1", "step-2", "step-3"]
    assert np.isfinite(frame.basis).all() and np.isfinite(frame.products).all()
    assert np.isfinite(hist._units).all() and np.isfinite(hist._gram).all()


def _solve_case(kind, mu=0.05):
    """(objective, its operator A, A as an array, scale of random base
    points) of a frame solve on cached products: an L1 least squares or a
    linear loss."""
    if kind == "l1":
        obj, a = small_l1(mu=mu)
        return obj, obj.op, a, 1.0
    if kind == "svm":
        obj = make_svm_smooth(60, 25, seed=5, violation_frac=0.1)
        return obj, obj.linear_map, obj.x_rows, 0.3
    obj = make_expsquares(30)
    return obj, obj.linear_map, np.ones((1, obj.dim)), 0.1


def _at_base(kind, obj, x0):
    """(A x0 - b, f(x0)) of an L1 least squares, (A x0, f(x0)) of a linear
    loss."""
    if kind == "l1":
        r0 = obj.residual(x0)
        return r0, obj.value_from_residual(r0, x0)
    return obj.linear_map.apply(x0), obj.value(x0)


def test_kept_solve_buffers_give_a_fresh_call_s_result():
    # one store's frames shrink and grow past the buffers it sized first;
    # each solve in the kept buffers is bitwise a solve in new ones, for
    # the L1 least squares and for both linear losses
    for kind in ("l1", "svm", "expsquares"):
        obj, op, a, scale = _solve_case(kind)
        rng = seeded_rng(320)
        hist = HistoryBuffer(3)
        for ncols, npush in ((3, 0), (1, 3), (2, 1), (1, 0), (6, 2)):
            for _ in range(npush):
                step = rng.standard_normal(obj.dim)
                hist.push_step(step, a @ step)
            x0 = scale * rng.standard_normal(obj.dim)
            r0, f0 = _at_base(kind, obj, x0)
            cols = [(rng.standard_normal(obj.dim), f"d{i}", None)
                    for i in range(ncols)]
            frame = build_frame(x0, cols, hist, op=op)
            kept = subspace_minimize(obj, frame, residual=r0,
                                     f_base=f0 if kind == "l1" else None)
            fresh = subspace_minimize(
                obj, dataclasses.replace(frame, store=None), residual=r0)
            assert frame.store._solve_buffers.rows >= frame.size
            for name in ("alpha", "x", "residual", "step", "a_step"):
                np.testing.assert_array_equal(getattr(kept, name),
                                              getattr(fresh, name))
            assert (kept.f, kept.inner_iters, kept.events) == (
                fresh.f, fresh.inner_iters, fresh.events)


# -- reduced minimization -----------------------------------------------------

def test_newton_step_is_bitwise_np_linalg_solve():
    rng = seeded_rng(330)
    for k in (1, 3, 8):
        a = rng.standard_normal((k, k))
        hess = a @ a.T + k * np.eye(k)
        g = rng.standard_normal(k)
        delta, slope = _newton_step(hess, g)
        np.testing.assert_array_equal(delta, np.linalg.solve(hess, -g))
        assert slope == float(g.dot(delta)) < 0.0
    # a singular system, or a step that is no descent direction, falls back
    # to -g, silently
    g = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hess in (np.zeros((2, 2)), np.ones((2, 2)), -np.eye(2)):
            delta, slope = _newton_step(hess, g)
            np.testing.assert_array_equal(delta, -g)
            assert slope == -5.0



def test_two_column_solve_matches_dense_oracle():
    obj, a, _ = small_quadratic(n=12)
    x0 = seeded_rng(41).standard_normal(12)
    r0 = obj.residual(x0)
    d1 = seeded_rng(42).standard_normal(12)
    d2 = seeded_rng(43).standard_normal(12)
    frame = build_frame(x0, [(d1, "d1", None), (d2, "d2", None)], op=obj.op)
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
    frame = build_frame(x0, [(-g, "grad", None)], op=obj.op)
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
    frame = build_frame(x0, cols, op=obj.op)
    res = subspace_minimize(obj, frame, residual=r0)
    assert obj.counters.matvecs == before  # cached products only
    assert res.f <= obj.value_from_residual(r0, x0)
    assert res.inner_iters >= 1


def test_composite_exact_value_never_increases():
    # large mu stresses the smoothing correction; a linear loss is valued
    # exactly along the line, but incrementally
    for kind in ("l1", "svm", "expsquares"):
        obj, op, _, scale = _solve_case(kind, mu=0.5)
        for seed in range(6):
            x0 = scale * seeded_rng(50 + seed).standard_normal(obj.dim)
            r0, f0 = _at_base(kind, obj, x0)
            grad = -obj.op.adjoint(r0) if kind == "l1" else -obj.grad(x0)
            cols = [(grad, "grad", None),
                    (seeded_rng(60 + seed).standard_normal(obj.dim), "noise",
                     None)]
            frame = build_frame(x0, cols, op=op)
            res = subspace_minimize(obj, frame, residual=r0)
            assert res.f <= f0 + 1e-12


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
    frame = build_frame(x0, cols, op=obj.op)
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
    for kind in ("l1", "svm", "expsquares"):
        obj, op, _, scale = _solve_case(kind)
        x0 = scale * seeded_rng(75).standard_normal(obj.dim)
        r0, f0 = _at_base(kind, obj, x0)
        cols = [(seeded_rng(76 + i).standard_normal(obj.dim), f"d{i}", None)
                for i in range(3)]
        frame = build_frame(x0, cols, op=op)
        before = obj.counters.matvecs
        res = subspace_minimize(obj, frame, residual=r0, max_inner=0)
        assert obj.counters.matvecs == before
        assert res.events == ["fallback_first_column"]
        assert res.alpha[0] != 0.0 and not np.any(res.alpha[1:])
        assert res.f < f0
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
    frame = build_frame(x0, cols, hist, op=obj.linear_map)
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

    # the same frame built without the operator has no products: its solve
    # runs on full-space hvps and finds the same minimizer
    bare = HistoryBuffer(2)
    bare.push_step(step)
    plain = build_frame(x0, cols, bare)
    assert plain.products is None and plain.tags == frame.tags
    np.testing.assert_array_equal(plain.basis, frame.basis)
    obj.counters.reset()
    res_h = subspace_minimize(obj, plain, inner_tol=1e-14)
    assert obj.counters.hvps > 0 and res_h.residual is None
    np.testing.assert_allclose(res_h.alpha, res.alpha, rtol=1e-10)
    assert res_h.f == pytest.approx(res.f, rel=1e-12)
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
                        op=obj.linear_map)
    with pytest.raises(OverflowError):
        subspace_minimize(obj, frame, residual=obj.linear_map.apply(x0))


def test_linear_loss_needs_a_nonnegative_quad_diag():
    # the solve squares sqrt(q) x
    obj = make_expsquares(5)
    obj.quad_diag = obj.j2 * np.array([1.0, 1.0, -1.0, 1.0, 1.0])
    frame = build_frame(np.zeros(5), [(np.ones(5), "d", None)],
                        op=obj.linear_map)
    with pytest.raises(ValueError, match="quad_diag"):
        subspace_minimize(obj, frame)


def test_smooth_path_requires_hvp():
    no_hvp = CallableObjective(4, value=lambda z: float(z @ z),
                               grad=lambda z: 2 * z)
    frame = build_frame(np.zeros(4), [(np.ones(4), "d", None)])
    with pytest.raises(ValueError, match="hvp"):
        subspace_minimize(no_hvp, frame)
    # a frame with products is solved on them, which needs a linear map
    frame = build_frame(np.zeros(4), [(np.ones(4), "d", None)],
                        op=DenseOperator(np.eye(4)))
    with pytest.raises(ValueError, match="linear-loss"):
        subspace_minimize(no_hvp, frame)


def test_smooth_path_takes_no_gradient_after_its_last_step():
    # sum(z^4 / 4 + z^2 / 2) from far out: two damped Newton steps do not
    # converge, and the solve takes a gradient before each of them only
    quartic = CallableObjective(6, value=lambda z: float(np.sum(z**4 / 4 + z**2 / 2)),
                                grad=lambda z: z**3 + z,
                                hvp=lambda z, v: (3 * z**2 + 1) * v)
    x0 = 10.0 * seeded_rng(47).standard_normal(6)
    cols = [(seeded_rng(48 + i).standard_normal(6), f"d{i}", None)
            for i in range(2)]
    frame = build_frame(x0, cols)
    res = subspace_minimize(quartic, frame, max_inner=2)
    assert res.inner_iters == 2 and res.events == []
    assert quartic.counters.gevals == 2 and quartic.counters.hvps == 4
    assert res.f < quartic.value(x0)


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


def test_backtracking_stops_before_any_trial_on_a_non_finite_slope():
    svm = make_svm_smooth(40, 10, seed=3, violation_frac=0.1)
    x, d = np.zeros(10), np.ones(10)
    d[4] = np.nan
    for f_x, g_x in ((None, None), (svm.value(x), svm.grad(x))):
        svm.counters.reset()
        with pytest.raises(LineSearchError, match="finite"):
            line_search_backtracking(svm, x, d, f_x, g_x)
        assert svm.counters.fevals == 0
    # a gradient that is not finite: the gradient runners end as they did
    nan_grad = CallableObjective(3, value=lambda z: float(z @ z),
                                 grad=lambda z: np.full(3, np.nan))
    for run in (run_steepest_descent, run_nonlinear_cg):
        _, tr = run(nan_grad, np.ones(3))
        assert tr.header["status"] == "line_search_failed"
        assert nan_grad.counters.fevals == 1  # the start only


def test_backtracking_values_its_trials_on_the_objective_line():
    quad = CallableObjective(3, value=lambda z: float(z @ z),
                             grad=lambda z: 2 * z)
    lines = []
    line = quad.line
    quad.line = lambda x, d: (lines.append(1), line(x, d))[1]
    x = np.array([1.0, -2.0, 0.5])
    t, f_new = line_search_backtracking(quad, x, -3.0 * x, quad.value(x))
    assert len(lines) == 1
    assert t == 0.5 and f_new == quad.value(x - 1.5 * x)
    assert quad.counters.fevals == 4  # f(x), two trials, the check above


# -- exact-value shrink tallies -----------------------------------------------

def test_exact_value_shrink_is_tallied_by_its_cause():
    # the composite's loop values a smoothed L1 term: with a wide smoothing
    # its step overshoots the exact value and is shrunk
    rng = seeded_rng(3)
    a, b = rng.standard_normal((20, 10)), rng.standard_normal(20)
    comp = CompositeObjective(DenseOperator(a), b, mu=8.0, smoothing_eps=1.0)
    x0 = np.zeros(10)
    frame = build_frame(x0, [(2.0 * a.T @ b, "grad", None)], op=comp.op)
    res = subspace_minimize(comp, frame)
    assert res.events == ["smoothing_shrink"]
    assert 0.0 < res.f < comp.value(x0)
    # a linear loss is valued exactly up to rounding: at f's rounding floor
    # the shrink fires, and is tallied as rounding
    _, tr = run_sesop_tn(make_expsquares(200), np.zeros(200), l_max=1,
                         grad_tol=1e-12, max_iters=3000)
    assert tr.header["status"] == "stalled"
    assert tr.header["events"].startswith("rounding_shrink:")
