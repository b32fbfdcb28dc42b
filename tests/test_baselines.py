import numpy as np
import pytest

from sesopt import (CompositeObjective, DenseOperator, make_expsquares,
                    make_quadratic_ls, run_fista, run_linear_cg,
                    run_nonlinear_cg, run_ssf_iteration, run_steepest_descent,
                    seeded_rng, snr_db)
from sesopt.kernels import ssf_direction

from conftest import assert_monotone, small_l1


# -- linear CG ----------------------------------------------------------------

def test_cg_identity_converges_in_one_step():
    b = seeded_rng(61).standard_normal(9)
    x, trace = run_linear_cg(lambda v: v, b, np.zeros(9), tol=1e-12)
    np.testing.assert_allclose(x, b, rtol=1e-14)
    assert trace.header["status"] == "converged"
    assert trace.final.iter == 1


def test_cg_f_column_matches_direct_evaluation():
    rng = seeded_rng(62)
    m = rng.standard_normal((25, 25))
    h = m @ m.T + 25 * np.eye(25)
    b = rng.standard_normal(25)
    off = 1.25
    xs = []
    _, trace = run_linear_cg(lambda v: h @ v, b, np.zeros(25), tol=1e-12,
                             f_offset=off, callback=lambda k, x: xs.append(x.copy()))
    assert trace.header["status"] == "converged"
    for rec, x in zip(trace.records, xs):
        direct = 0.5 * float(x @ (h @ x)) - float(b @ x) + off
        assert rec.f_value == pytest.approx(direct, rel=1e-9, abs=1e-12)
    assert_monotone(trace.column("f_value"))


def test_cg_breakdown_on_indefinite_matrix():
    h = np.diag([1.0, -1.0])
    _, trace = run_linear_cg(lambda v: h @ v, np.array([1.0, 1.0]),
                             np.zeros(2), tol=1e-12)
    assert trace.header["status"] == "breakdown"


def test_cg_iteration_cap():
    rng = seeded_rng(63)
    m = rng.standard_normal((30, 30))
    h = m @ m.T + 0.1 * np.eye(30)
    _, trace = run_linear_cg(lambda v: h @ v, rng.standard_normal(30),
                             np.zeros(30), tol=1e-14, max_iters=5)
    assert trace.header["status"] == "max_iters"
    assert trace.final.iter == 5


# -- steepest descent -----------------------------------------------------------

def test_sd_worst_case_rate_is_exact():
    # classic 2-D worst start: the A-norm error contracts by (r-1)/(r+1)
    # every iteration, i.e. the f gap contracts by its square
    lam = np.array([1.0, 100.0])
    a = np.diag(np.sqrt(lam / 2.0))  # Hessian of ||A x||^2 is diag(lam)
    obj = CompositeObjective(DenseOperator(a), np.zeros(2), mu=0.0)
    x0 = 1.0 / lam
    _, trace = run_steepest_descent(obj, x0, grad_tol=0.0, max_iters=25,
                                    exact_line_search=True)
    f = trace.column("f_value")
    rho = ((100.0 - 1.0) / (100.0 + 1.0)) ** 2
    ratios = f[1:] / f[:-1]
    np.testing.assert_allclose(ratios, rho, rtol=1e-10)


def test_sd_armijo_descends_to_stationarity():
    obj = make_quadratic_ls(15, seed=64)
    x, trace = run_steepest_descent(obj, np.zeros(15), grad_tol=1e-6,
                                    max_iters=20000)
    assert trace.header["status"] == "stationary"
    assert_monotone(trace.column("f_value"))


# -- nonlinear CG -----------------------------------------------------------------

def test_nlcg_exact_ls_reproduces_linear_cg():
    obj = make_quadratic_ls(80, seed=65)
    a = obj.op.matrix
    _, ref = run_linear_cg(lambda v: 2.0 * (a.T @ (a @ v)),
                           2.0 * (a.T @ obj.b), np.zeros(80), tol=0.0,
                           max_iters=40, f_offset=float(obj.b @ obj.b))
    _, trace = run_nonlinear_cg(obj, np.zeros(80), grad_tol=0.0, max_iters=40,
                                exact_line_search=True)
    f_ref = ref.column("f_value")
    f_nl = trace.column("f_value")
    n = min(30, len(f_ref), len(f_nl))  # stay out of the float64 endgame
    scale = f_ref[0]
    np.testing.assert_allclose(f_nl[:n] / scale, f_ref[:n] / scale, atol=1e-8)


def test_nlcg_converges_on_expsquares():
    # curvature spans 1..n^2 here, so the achievable gradient norm in
    # float64 bottoms out near 1e-6 of its starting value
    obj = make_expsquares(40)
    x, trace = run_nonlinear_cg(obj, np.zeros(40), grad_tol=1e-6,
                                max_iters=1000)
    assert trace.header["status"] == "stationary"
    assert abs(trace.final.f_value - obj.ground_truth.f_opt) <= 1e-10
    assert_monotone(trace.column("f_value"))


# -- ISTA / SSF -------------------------------------------------------------------

def test_ssf_iteration_monotone_and_counts():
    obj, _ = small_l1()
    _, trace = run_ssf_iteration(obj, np.zeros(obj.dim), grad_tol=0.0,
                                 max_iters=50)
    assert_monotone(trace.column("f_value"))
    mv = trace.column("matvecs")
    assert np.all(np.diff(mv) == 2)  # one apply + one adjoint per iteration


def test_ssf_rejects_bad_majorizer():
    obj, _ = small_l1()
    with pytest.raises(ValueError, match="invalid majorizer"):
        run_ssf_iteration(obj, np.zeros(obj.dim), c=-1.0)


def test_fista_beats_ista_and_obeys_envelope():
    # f(x_k) - f_opt <= 4 c ||x0 - x_opt||^2 / (k+1)^2 with the majorizer c
    # (the smooth part has Lipschitz constant 2 sigma_max^2 <= 2c)
    for seed in (5, 6, 7):
        obj, _ = small_l1(seed=seed)
        c = obj.ssf_constant
        x0 = np.zeros(obj.dim)
        x_opt, oracle = run_fista(obj, x0, restart=True, grad_tol=1e-12,
                                  max_iters=30000)
        f_opt = oracle.final.f_value
        r2 = float(np.sum((x0 - x_opt) ** 2))

        _, fista = run_fista(obj, x0, grad_tol=0.0, max_iters=400)
        _, ista = run_ssf_iteration(obj, x0, grad_tol=0.0, max_iters=400)
        for rec in fista.records:
            if rec.iter == 0:
                continue
            assert rec.f_value - f_opt <= 4.0 * c * r2 / (rec.iter + 1) ** 2
        # acceleration dominates plain ISTA at the end of the budget
        assert fista.final.f_value < ista.final.f_value


def test_fista_restart_is_monotone():
    obj, _ = small_l1(seed=8)
    _, plain = run_fista(obj, np.zeros(obj.dim), grad_tol=0.0, max_iters=300)
    diffs = np.diff(plain.column("f_value"))
    assert np.any(diffs > 0)  # plain momentum overshoots somewhere
    _, restarted = run_fista(obj, np.zeros(obj.dim), grad_tol=0.0,
                             max_iters=300, restart=True)
    assert_monotone(restarted.column("f_value"))


def test_fista_and_ssf_find_the_same_optimum():
    obj, _ = small_l1()
    _, trf = run_fista(obj, np.zeros(obj.dim), restart=True, grad_tol=1e-12,
                       max_iters=30000)
    _, trs = run_ssf_iteration(obj, np.zeros(obj.dim), grad_tol=1e-12,
                               max_iters=50000)
    assert trf.header["status"] == "stationary"
    assert trs.header["status"] == "stationary"
    assert abs(trf.final.f_value - trs.final.f_value) <= 1e-9


def test_ssf_direction_vanishes_at_the_optimum():
    obj, _ = small_l1()
    x_opt, _ = run_fista(obj, np.zeros(obj.dim), restart=True, grad_tol=1e-12,
                         max_iters=30000)
    atr = obj.op.adjoint(obj.residual(x_opt))
    d = ssf_direction(x_opt, atr, obj.ssf_constant, obj.mu)
    assert float(np.max(np.abs(d))) <= 1e-8


def test_fista_aux_metric_and_stops():
    obj, _ = small_l1(seed=9)
    metric = ("snr_db", lambda x: snr_db(obj.x_signal, x))
    _, trace = run_fista(obj, np.zeros(obj.dim), grad_tol=0.0, max_iters=25,
                         aux_metric=metric)
    assert trace.aux_name == "snr_db"
    assert len(trace.column("aux")) == len(trace)

    _, trace = run_fista(obj, np.zeros(obj.dim), grad_tol=0.0, max_iters=5000,
                         max_matvecs=30)
    assert trace.header["status"] == "max_matvecs"
    _, trace = run_ssf_iteration(obj, np.zeros(obj.dim), grad_tol=0.0,
                                 f_tol=1e-5, max_iters=5000)
    assert trace.header["status"] == "f_tol"
