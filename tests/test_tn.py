import numpy as np
import pytest

from sesopt import (CallableObjective, HistoryBuffer, InnerCgState,
                    QuadraticModel, build_frame, inner_cg, make_expsquares,
                    make_quadratic_ls, make_svm_smooth, run_linear_cg,
                    run_sesop_tn, run_tn_classic, seeded_rng)
from sesopt.bench import run_solver

from conftest import assert_monotone


def _spd_model(n=18, seed=51, f0=3.0):
    rng = seeded_rng(seed)
    m = rng.standard_normal((n, n))
    h = m @ m.T + n * np.eye(n)
    g = rng.standard_normal(n)
    obj = CallableObjective(n, value=lambda z: 0.0, hvp=lambda z, v: h @ v)
    return QuadraticModel(obj, np.zeros(n), f0, g), h, g


# -- inner CG -----------------------------------------------------------------

def test_inner_cg_solves_to_tolerance_with_full_budget():
    model, h, g = _spd_model()
    st = inner_cg(model, l_max=len(g), rtol=1e-12)
    assert st.n_steps <= len(g)
    assert not st.neg_curvature
    assert float(np.linalg.norm(g + h @ st.d)) <= 1e-10 * np.linalg.norm(g)
    np.testing.assert_allclose(st.model_grad, g + h @ st.d, rtol=1e-8,
                               atol=1e-12)


def test_inner_cg_single_step_is_cauchy_point():
    model, h, g = _spd_model(seed=52)
    st = inner_cg(model, l_max=1, rtol=0.0)
    t = float(g @ g) / float(g @ (h @ g))
    np.testing.assert_allclose(st.d, -t * g, rtol=1e-13)
    assert st.n_steps == 1
    np.testing.assert_allclose(st.last_step, st.d, rtol=1e-13)


def test_inner_cg_model_decrease_bookkeeping():
    model, h, g = _spd_model(seed=53)
    st = inner_cg(model, l_max=6, rtol=1e-14)
    assert len(st.q_deltas) == st.n_steps
    assert all(dq <= 0.0 for dq in st.q_deltas)
    q_direct = model.value(st.d)
    assert model.f0 + sum(st.q_deltas) == pytest.approx(q_direct, rel=1e-10)


def test_inner_cg_counts_one_hvp_per_step():
    model, h, g = _spd_model(seed=54)
    model.obj.counters.reset()
    st = inner_cg(model, l_max=5, rtol=0.0)
    assert st.n_steps == 5
    assert model.obj.counters.hvps == 5

    # the warm two-direction start costs two products but counts one step
    model.obj.counters.reset()
    st = inner_cg(model, l_max=1, rtol=0.0,
                  warm_pair=(np.ones(len(g)), -g))
    assert st.n_steps == 1
    assert model.obj.counters.hvps == 2


def test_inner_cg_zero_gradient_and_bad_cap():
    model, _, g = _spd_model(seed=55)
    model.g0 = np.zeros_like(g)
    st = inner_cg(model, l_max=4, rtol=0.5)
    assert st.n_steps == 0 and not np.any(st.d)
    with pytest.raises(ValueError, match="at least 1"):
        inner_cg(model, l_max=0, rtol=0.5)


def test_inner_cg_warm_start_matches_two_column_solve():
    model, h, g = _spd_model(seed=56)
    rng = seeded_rng(57)
    u, v = rng.standard_normal(len(g)), rng.standard_normal(len(g))
    st = inner_cg(model, l_max=1, rtol=0.0, warm_pair=(u, v))
    k = np.array([[u @ h @ u, u @ h @ v], [u @ h @ v, v @ h @ v]])
    ab = np.linalg.solve(k, -np.array([g @ u, g @ v]))
    np.testing.assert_allclose(st.d, ab[0] * u + ab[1] * v, rtol=1e-10)


def test_inner_cg_negative_curvature_first_step():
    n = 7
    obj = CallableObjective(n, value=lambda z: 0.0, hvp=lambda z, v: -v)
    g = seeded_rng(58).standard_normal(n)
    st = inner_cg(QuadraticModel(obj, np.zeros(n), 0.0, g), l_max=9, rtol=0.0)
    assert st.neg_curvature and st.n_steps == 1
    # curvature magnitude g.g gives the unit bounded step along -g
    np.testing.assert_allclose(st.d, -g, rtol=1e-13)


def test_inner_cg_negative_curvature_truncates_later():
    # positive curvature along the first gradient direction, negative later
    h = np.diag([4.0, -1.0])
    obj = CallableObjective(2, value=lambda z: 0.0, hvp=lambda z, v: h @ v)
    g = np.array([1.0, 0.05])
    st = inner_cg(QuadraticModel(obj, np.zeros(2), 0.0, g), l_max=5, rtol=0.0)
    assert st.neg_curvature
    assert st.n_steps == 1  # kept the first step, stopped before the bad one


# -- classic truncated Newton ---------------------------------------------------

def test_tn_classic_expsquares_to_oracle():
    obj = make_expsquares(50)
    x, trace = run_tn_classic(obj, np.zeros(50), l_max=12, grad_tol=1e-10,
                              max_iters=200)
    assert trace.header["status"] == "stationary"
    assert abs(trace.final.f_value - obj.ground_truth.f_opt) <= 1e-9
    assert_monotone(trace.column("f_value"))


def test_tn_classic_zero_outer_iterations_at_optimum():
    obj = make_expsquares(20)
    x, trace = run_tn_classic(obj, obj.ground_truth.x_opt, grad_tol=1e-8)
    assert trace.header["status"] == "stationary"
    assert trace.final.iter == 0 and len(trace) == 1


def test_tn_requires_hvp():
    no_hvp = CallableObjective(3, value=lambda z: float(z @ z),
                               grad=lambda z: 2 * z)
    with pytest.raises(TypeError, match="Hessian-vector"):
        run_tn_classic(no_hvp, np.zeros(3))
    with pytest.raises(TypeError, match="Hessian-vector"):
        run_sesop_tn(no_hvp, np.zeros(3))


def test_tn_hvps_match_cumulative_steps():
    obj = make_expsquares(40)
    _, trace = run_tn_classic(obj, np.zeros(40), l_max=8, grad_tol=1e-10,
                              max_iters=60)
    # every cumulative step is an inner CG step costing exactly one product
    assert trace.final.hvps == trace.final.cum_steps


# -- subspace truncated Newton ---------------------------------------------------

def test_sesop_tn_tracks_global_cg_on_quadratic():
    # cumulative-step alignment with plain CG on the same quadratic
    n = 400
    obj = make_quadratic_ls(n, seed=3)
    a = obj.op.matrix
    _, ref = run_linear_cg(lambda v: 2.0 * (a.T @ (a @ v)),
                           2.0 * (a.T @ obj.b), np.zeros(n), tol=0.0,
                           max_iters=110, f_offset=float(obj.b @ obj.b))
    f_ref = {int(r.cum_steps): r.f_value for r in ref.records}
    scale = ref.records[0].f_value  # f_opt = 0

    for l_max in (1, 10):
        _, trace = run_sesop_tn(obj, np.zeros(n), l_max=l_max, grad_tol=0.0,
                                max_iters=300, max_cum_steps=100,
                                trace_inner=True)
        dev = 0.0
        checked = 0
        for rec in trace.records:
            c = int(rec.cum_steps)
            if c in f_ref and c <= 100:
                dev = max(dev, abs(rec.f_value - f_ref[c]) / scale)
                checked += 1
        assert checked >= 90
        assert dev <= 1e-6, f"l_max={l_max}: scale-relative deviation {dev:.2e}"


def test_sesop_tn_expsquares_beats_classic_budget():
    obj = make_expsquares(100)
    f_opt = obj.ground_truth.f_opt

    def steps_to(trace, tol=1e-8):
        for rec in trace.records:
            if rec.f_value - f_opt <= tol:
                return rec.cum_steps
        return np.inf

    _, tr_s = run_sesop_tn(obj, np.zeros(100), l_max=10, grad_tol=1e-12,
                           max_iters=400, max_cum_steps=3000)
    _, tr_c = run_tn_classic(obj, np.zeros(100), l_max=10, grad_tol=1e-12,
                             max_iters=400, max_cum_steps=3000)
    assert steps_to(tr_s) <= steps_to(tr_c)
    assert np.isfinite(steps_to(tr_s))


def test_sesop_tn_monotone_and_stationary():
    obj = make_expsquares(60)
    x, trace = run_sesop_tn(obj, np.zeros(60), l_max=10, grad_tol=1e-10,
                            max_iters=200)
    assert trace.header["status"] in ("stationary", "stalled")
    assert abs(trace.final.f_value - obj.ground_truth.f_opt) <= 1e-9
    assert_monotone(trace.column("f_value"))


def test_sesop_tn_zero_outer_iterations_at_optimum():
    obj = make_expsquares(20)
    _, trace = run_sesop_tn(obj, obj.ground_truth.x_opt, grad_tol=1e-8)
    assert trace.header["status"] == "stationary"
    assert trace.final.iter == 0


def test_sesop_tn_rejects_nonsmooth_composite():
    from conftest import small_l1

    obj, _ = small_l1()
    with pytest.raises(TypeError, match="smooth"):
        run_sesop_tn(obj, np.zeros(obj.dim))


def test_sesop_tn_composite_least_squares_path():
    obj = make_quadratic_ls(50, seed=9)
    x, trace = run_sesop_tn(obj, np.zeros(50), l_max=5, grad_tol=1e-9,
                            max_iters=200)
    assert trace.final.f_value <= 1e-14 * trace.records[0].f_value
    assert_monotone(trace.column("f_value"))
    assert trace.final.matvecs > 0  # composite path uses counted products


def test_sesop_tn_inner_rows_interleave():
    obj = make_quadratic_ls(40, seed=10)
    _, trace = run_sesop_tn(obj, np.zeros(40), l_max=4, grad_tol=0.0,
                            max_iters=5, trace_inner=True)
    cum = trace.column("cum_steps")
    assert np.all(np.diff(cum) >= 1)  # strictly advancing cumulative axis
    # inner rows carry the running model value, monotone within one outer pass
    by_iter = {}
    for rec in trace.records:
        by_iter.setdefault(rec.iter, []).append(rec.f_value)
    for it, fs in by_iter.items():
        assert_monotone(fs, slack=1e-10)


def test_degenerate_inner_state_still_builds_a_frame():
    # an empty inner run leaves only the model gradient as a direction;
    # the frame must stay usable
    g = seeded_rng(59).standard_normal(12)
    st = InnerCgState(d=np.zeros(12), x_last=np.zeros(12), model_grad=g,
                      last_step=None, n_steps=0, neg_curvature=False)
    cols = []
    if np.any(st.d):
        cols.append((st.d, "tn_step", None))
    cols.append((st.model_grad, "tn_model_grad", None))
    if st.last_step is not None:
        cols.append((st.last_step, "tn_last_dir", None))
    frame = build_frame(np.zeros(12), cols, HistoryBuffer(2), 2)
    assert frame.size == 1 and frame.tags == ["tn_model_grad"]


# -- the linear-loss subspace path ----------------------------------------------

def _callable_twin(obj):
    """The same objective behind plain callables: no products to cache."""
    return CallableObjective(obj.dim, value=obj._value, grad=obj._grad,
                             hvp=obj._hvp)


def test_sesop_tn_cached_products_follow_the_hvp_path_on_svm():
    svm = make_svm_smooth(150, 60, seed=8, violation_frac=0.1)
    twin = _callable_twin(svm)
    x0 = np.zeros(svm.dim)
    for l_max in (1, 10):
        _, tr = run_sesop_tn(svm, x0, l_max=l_max, grad_tol=0.0, max_iters=15)
        _, tr_h = run_sesop_tn(twin, x0, l_max=l_max, grad_tol=0.0, max_iters=15)
        assert tr.final.iter == tr_h.final.iter == 15
        assert tr.final.hvps < tr_h.final.hvps  # no hvps in the frame solve
        assert tr_h.final.matvecs == 0 < tr.final.matvecs
        np.testing.assert_array_equal(tr.column("cum_steps"),
                                      tr_h.column("cum_steps"))
        np.testing.assert_allclose(tr.column("f_value"), tr_h.column("f_value"),
                                   rtol=1e-10, atol=0.0)


def test_sesop_tn_matvec_budget_binds_on_linear_loss_problems():
    svm = make_svm_smooth(150, 60, seed=8, violation_frac=0.1)
    _, tr = run_solver("sesop_tn:l_max=10", svm, grad_tol=0.0, max_iters=500,
                       max_matvecs=30)
    assert tr.header["status"] == "max_matvecs"
    assert 30 <= tr.final.matvecs < 30 + 10  # one frame's products past it


def test_sesop_tn_carried_products_stay_true_to_the_iterate():
    # A x and the history products are carried, never recomputed; a run far
    # past its target must still report f at the point it returns
    obj = make_expsquares(200)
    x, tr = run_sesop_tn(obj, np.zeros(200), l_max=1, grad_tol=1e-12,
                         max_iters=3000)
    assert tr.final.iter > 300
    assert tr.final.f_value == pytest.approx(obj.value(x), rel=1e-14)
    assert min(tr.column("f_minus_fopt")) >= -1e-14
