import numpy as np
import pytest

from sesopt import (CallableObjective, SesopConfig, make_expsquares,
                    make_l1_ls, make_quadratic_ls, run_linear_cg, run_sesop,
                    seeded_rng, snr_db, subspace_minimize)
from sesopt import sesop as sesop_module

from conftest import assert_monotone


def _cg_on_normal_equations(obj, x0, iters):
    a = obj.op.matrix
    xs = []
    run_linear_cg(lambda v: 2.0 * (a.T @ (a @ v)), 2.0 * (a.T @ obj.b), x0,
                  tol=0.0, max_iters=iters, f_offset=float(obj.b @ obj.b),
                  callback=lambda k, x: xs.append(x.copy()))
    return xs


def test_history_one_matches_linear_cg():
    # gradient + one previous step with exact frame solves is CG in disguise;
    # n well above the iteration window keeps CG out of its endgame, where
    # float64 trajectories of distinct implementations lawfully drift apart
    obj = make_quadratic_ls(400, seed=2)
    x0 = np.zeros(400)
    xs_cg = _cg_on_normal_equations(obj, x0, 50)

    xs = []
    cfg = SesopConfig(direction="gradient", history=1, grad_tol=0.0,
                      max_iters=50)
    run_sesop(obj, x0, cfg, callback=lambda k, x: xs.append(x.copy()))

    n_common = min(len(xs), len(xs_cg))
    assert n_common >= 30
    for k in range(n_common):
        dev = np.linalg.norm(xs[k] - xs_cg[k]) / (1.0 + np.linalg.norm(xs_cg[k]))
        assert dev <= 1e-8, f"iterate {k} deviates by {dev:.3e}"


def test_composite_directions_require_composite():
    smooth = CallableObjective(4, value=lambda z: float(z @ z),
                               grad=lambda z: 2 * z, hvp=lambda z, v: 2 * v)
    for d in ("pcd", "ssf"):
        with pytest.raises(TypeError):
            run_sesop(smooth, np.zeros(4), SesopConfig(direction=d))
    with pytest.raises(ValueError, match="'tn' is not a valid"):
        run_sesop(smooth, np.zeros(4), SesopConfig(direction="tn"))
    for d in ("cg", "newton"):
        with pytest.raises(ValueError, match="valid: gradient, pcd, ssf$"):
            run_sesop(smooth, np.zeros(4), SesopConfig(direction=d))


def test_composite_operator_budget_two_per_iteration():
    obj = make_l1_ls(30, 64, seed=8, mu=1e-4)
    for d in ("pcd", "ssf", "gradient"):
        _, trace = run_sesop(obj, np.zeros(64),
                             SesopConfig(direction=d, max_iters=12, grad_tol=0.0))
        mv = trace.column("matvecs")
        assert mv[0] == 2  # initial residual + first adjoint
        assert np.all(np.diff(mv) == 2), d  # one adjoint + one frame product


def test_composite_orth_budget_three_per_iteration():
    obj = make_l1_ls(30, 64, seed=8, mu=1e-4)
    _, trace = run_sesop(obj, np.zeros(64),
                         SesopConfig(direction="gradient", include_orth=True,
                                     max_iters=12, grad_tol=0.0))
    mv = trace.column("matvecs")
    # the total-step product is maintained for free; the weighted gradient
    # column costs the one extra application
    assert np.all(np.diff(mv)[1:] == 3)


def test_composite_reports_exact_objective():
    obj = make_l1_ls(30, 64, seed=9, mu=1e-3)
    xs = []
    _, trace = run_sesop(obj, np.zeros(64),
                         SesopConfig(direction="pcd", max_iters=15, grad_tol=0.0),
                         callback=lambda k, x: xs.append(x.copy()))
    for rec, x in zip(trace.records, xs):
        want = float(np.sum((obj.op.matrix @ x - obj.b) ** 2))
        want += obj.mu * float(np.sum(np.abs(x)))
        assert rec.f_value == pytest.approx(want, rel=1e-12)
    assert_monotone(trace.column("f_value"))


def test_composite_stationary_stop():
    obj = make_l1_ls(25, 50, seed=10, mu=1e-2)
    x, trace = run_sesop(obj, np.zeros(50),
                         SesopConfig(direction="ssf", grad_tol=1e-9,
                                     max_iters=4000))
    assert trace.header["status"] in ("stationary", "stalled")
    if trace.header["status"] == "stationary":
        assert trace.final.stat_norm <= 1e-9


def test_orth_columns_carry_k2_bound():
    obj = make_quadratic_ls(40, seed=11)
    x_opt = obj.ground_truth.x_opt
    x0 = np.zeros(40)
    lip = 2.0 * np.linalg.svd(obj.op.matrix, compute_uv=False)[0] ** 2
    bound_scale = lip * float(np.sum((x0 - x_opt) ** 2))
    _, trace = run_sesop(obj, x0,
                         SesopConfig(direction="gradient", include_orth=True,
                                     max_iters=100, grad_tol=0.0))
    for rec in trace.records:
        if rec.iter == 0:
            continue
        assert rec.f_value <= bound_scale / rec.iter ** 2 + 1e-12


def test_stop_reasons():
    obj = make_l1_ls(25, 50, seed=12, mu=1e-3)
    _, trace = run_sesop(obj, np.zeros(50),
                         SesopConfig(direction="ssf", f_tol=1e-4, grad_tol=0.0,
                                     max_iters=5000))
    assert trace.header["status"] == "f_tol"

    _, trace = run_sesop(obj, np.zeros(50),
                         SesopConfig(direction="ssf", grad_tol=0.0,
                                     max_iters=5000, max_matvecs=20))
    assert trace.header["status"] == "max_matvecs"
    assert trace.final.matvecs >= 20

    _, trace = run_sesop(obj, np.zeros(50),
                         SesopConfig(direction="ssf", grad_tol=0.0, max_iters=3))
    assert trace.header["status"] == "max_iters"
    assert trace.final.iter == 3


def test_aux_metric_column():
    obj = make_l1_ls(25, 50, seed=13, mu=1e-3)
    metric = ("snr_db", lambda x: snr_db(obj.x_signal, x))
    _, trace = run_sesop(obj, np.zeros(50),
                         SesopConfig(direction="pcd", max_iters=10, grad_tol=0.0),
                         aux_metric=metric)
    assert trace.aux_name == "snr_db"
    aux = trace.column("aux")
    assert aux.shape[0] == len(trace)
    assert np.all(np.isfinite(aux))
    assert aux[-1] > aux[0]  # recovery improves


def test_smooth_path_on_expsquares_gradient():
    obj = make_expsquares(30)
    x, trace = run_sesop(obj, np.zeros(30),
                         SesopConfig(direction="gradient", history=7,
                                     grad_tol=1e-8, max_iters=300))
    assert trace.header["status"] == "stationary"
    gap = trace.final.f_value - obj.ground_truth.f_opt
    assert gap <= 1e-9
    assert_monotone(trace.column("f_value"))


def test_smooth_sesop_stalls_once_the_iterate_stops_moving():
    # behind plain callables the frame solve takes the hvp path; on
    # expsquares n=50 it reaches a bitwise fixed point with alpha != 0
    e = make_expsquares(50)
    obj = CallableObjective(50, value=e._value, grad=e._grad, hvp=e._hvp)
    seen = []
    cfg = SesopConfig(history=3, grad_tol=1e-14, max_iters=1500)
    _, tr = run_sesop(obj, np.zeros(50), cfg,
                      callback=lambda k, z: seen.append(z))
    assert tr.header["status"] == "stalled"
    assert len(seen) == tr.final.iter + 1 > 100
    assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))


def _record_frame_solves(monkeypatch):
    """List that collects (objective, frame, result) of every frame solve
    run_sesop makes."""
    solves = []

    def recorded(obj, frame, *args, **kwargs):
        res = subspace_minimize(obj, frame, *args, **kwargs)
        solves.append((obj, frame, res))
        return res

    monkeypatch.setattr(sesop_module, "subspace_minimize", recorded)
    return solves


def test_frame_solves_take_at_most_two_newton_steps(monkeypatch):
    solves = _record_frame_solves(monkeypatch)
    runs = [(make_l1_ls(60, 120, seed=3), np.zeros(120),
             SesopConfig(direction=d, history=7, grad_tol=0.0, max_iters=150))
            for d in ("pcd", "ssf")]
    runs.append((make_expsquares(200), 0.5 * seeded_rng(1).standard_normal(200),
                 SesopConfig(direction="gradient", include_orth=True,
                             grad_tol=0.0, max_iters=150)))
    for obj, x0, cfg in runs:
        solves.clear()
        run_sesop(obj, x0, cfg)
        steps = [res.inner_iters for _, _, res in solves]
        assert len(steps) >= 20
        assert max(steps) == 2, f"{cfg.direction}: {max(steps)} Newton steps"


def test_composite_history_products_stay_fresh(monkeypatch):
    # the history's cached products are pushed as P alpha, not as the
    # difference of two residuals, which loses digits once steps are small;
    # a step that nearly cancels its columns still magnifies their errors,
    # which this instance does not provoke
    solves = _record_frame_solves(monkeypatch)
    obj = make_l1_ls(60, 120, seed=3)
    run_sesop(obj, np.zeros(120), SesopConfig(direction="pcd", history=7,
                                              grad_tol=0.0, max_iters=500))
    assert len(solves) == 500
    worst = 0.0
    for _, frame, _ in solves:
        exact = obj.op.matrix @ frame.basis
        err = (np.linalg.norm(frame.products - exact, axis=0)
               / np.linalg.norm(exact, axis=0))
        worst = max(worst, float(err.max()))
    assert worst <= 1e-12, f"worst relative product error {worst:.2e}"


def test_composite_history_product_error_stays_bounded(monkeypatch):
    # here steps come to nearly cancel their columns (|alpha| / |D alpha|
    # near 30), so each pushed P alpha magnifies the errors of the cached
    # products it combines; the error climbs to about 4e-9 by iteration
    # 600 and stays there (the difference push reached 6e-7 by 300)
    solves = _record_frame_solves(monkeypatch)
    obj = make_l1_ls(40, 80, seed=1)
    run_sesop(obj, np.zeros(80), SesopConfig(direction="pcd", history=7,
                                             grad_tol=0.0, max_iters=1000))
    assert len(solves) == 1000
    worst = 0.0
    for _, frame, _ in solves:
        exact = obj.op.matrix @ frame.basis
        err = (np.linalg.norm(frame.products - exact, axis=0)
               / np.linalg.norm(exact, axis=0))
        worst = max(worst, float(err.max()))
    assert worst <= 1e-8, f"worst relative product error {worst:.2e}"
