"""End-to-end acceptance checks for the solver family.

One test per headline claim, so ``pytest -v`` prints one pass or fail
line for each. Tolerances, problem sizes, and budgets are pinned in the
asserts; wall-clock caps guard the desk-scale claims.
"""

import math
import time

import numpy as np

from sesopt import (CompositeObjective, DenseOperator, ProblemSpec,
                    SesopConfig, check_gradient, make_expsquares,
                    make_quadratic_ls, make_svm_smooth, run_linear_cg,
                    run_sesop, run_steepest_descent, seeded_rng,
                    write_trace_csv)
from sesopt.bench import run_solver


def _f_by_cum(trace):
    out = {}
    for rec in trace.records:
        out[rec.cum_steps] = rec.f_value  # later rows win at equal count
    return out


def _steps_to_gap(trace, f_opt, tol):
    for rec in trace.records:
        if rec.f_value - f_opt <= tol:
            return rec.cum_steps
    return math.inf


def _matvecs_to_value(trace, threshold):
    for rec in trace.records:
        if rec.f_value <= threshold:
            return rec.matvecs
    return math.inf


def test_subspace_tn_trajectory_matches_cg_on_quadratics():
    # On a quadratic the inner CG sequence continues seamlessly across
    # outer restarts, so the objective along cumulative inner steps must
    # retrace plain CG no matter where the inner loop is cut. Deviation
    # is measured against the initial gap over the first 100 cumulative
    # steps (and pointwise-relative over the first 50, where both
    # trajectories are far from the float64 endgame).
    t0 = time.perf_counter()
    for seed in (1, 2, 3):
        obj = make_quadratic_ls(400, seed=seed)
        _, cg = run_solver("cg:tol=0.0,max_iters=110", obj)
        f_cg = _f_by_cum(cg)
        scale = cg.records[0].f_value  # f(x0); the exact minimum is 0
        for l_max in (1, 10, 40):
            _, tr = run_solver(f"sesop_tn:l_max={l_max}", obj, grad_tol=0.0,
                               max_iters=3000, max_cum_steps=105,
                               trace_inner=True)
            f_tn = _f_by_cum(tr)
            shared = [c for c in sorted(f_tn) if c <= 100 and c in f_cg]
            assert len(shared) >= 90
            worst = max(abs(f_tn[c] - f_cg[c]) / scale for c in shared)
            assert worst <= 1e-6, f"seed {seed} l_max {l_max}: {worst:.3e}"
            worst_pt = max(abs(f_tn[c] - f_cg[c]) / abs(f_cg[c])
                           for c in shared if c <= 50)
            assert worst_pt <= 1e-6, f"seed {seed} l_max {l_max}: {worst_pt:.3e}"
    assert time.perf_counter() - t0 < 10.0


def test_early_truncation_slows_classic_tn_but_not_subspace_tn():
    # with a single inner step per outer iteration, the classic outer
    # line search discards the CG state and crawls; the subspace variant
    # keeps the two-term recurrence alive and stays on the CG schedule
    for seed in (1, 2, 3):
        obj = make_quadratic_ls(400, seed=seed)
        _, tr_s = run_solver("sesop_tn:l_max=1", obj, grad_tol=1e-12,
                             max_iters=3000, max_cum_steps=1500)
        _, tr_c = run_solver("tn:l_max=1", obj, grad_tol=1e-12,
                             max_iters=3000, max_cum_steps=3000)
        steps_s = _steps_to_gap(tr_s, 0.0, 1e-8)
        steps_c = _steps_to_gap(tr_c, 0.0, 1e-8)
        assert math.isfinite(steps_s)
        assert steps_c > steps_s, f"seed {seed}: {steps_c} vs {steps_s}"


def test_subspace_tn_never_trails_classic_tn_on_expsquares():
    t0 = time.perf_counter()
    obj = make_expsquares(200)
    f_opt = obj.ground_truth.f_opt  # scalar fixed point, analytic
    for l_max in (1, 10, 40):
        _, tr_s = run_solver(f"sesop_tn:l_max={l_max}", obj, grad_tol=1e-12,
                             max_iters=3000, max_cum_steps=2000)
        _, tr_c = run_solver(f"tn:l_max={l_max}", obj, grad_tol=1e-12,
                             max_iters=3000, max_cum_steps=20000)
        steps_s = _steps_to_gap(tr_s, f_opt, 1e-8)
        steps_c = _steps_to_gap(tr_c, f_opt, 1e-8)
        assert math.isfinite(steps_s)
        assert steps_s <= steps_c, f"l_max {l_max}: {steps_s} vs {steps_c}"
    assert time.perf_counter() - t0 < 10.0


def test_plain_sesop_with_one_step_memory_reproduces_cg_iterates():
    # gradient + one previous step with exact frame solves is CG in
    # disguise; n is kept well above the window so float64 endgame drift
    # between the two recurrences cannot bite
    for seed in (1, 2, 3):
        obj = make_quadratic_ls(400, seed=seed)
        x0 = np.zeros(400)
        a = obj.op.matrix
        xs_cg = []
        run_linear_cg(lambda v: 2.0 * (a.T @ (a @ v)), 2.0 * (a.T @ obj.b),
                      x0, tol=0.0, max_iters=50,
                      f_offset=float(obj.b @ obj.b),
                      callback=lambda k, x: xs_cg.append(x.copy()))
        xs = []
        cfg = SesopConfig(direction="gradient", history=1, grad_tol=0.0,
                          max_iters=50)
        run_sesop(obj, x0, cfg, callback=lambda k, x: xs.append(x.copy()))
        assert min(len(xs), len(xs_cg)) >= 51  # 50 iterations plus the start
        for k, (xa, xb) in enumerate(zip(xs, xs_cg)):
            dev = np.linalg.norm(xa - xb) / (1.0 + np.linalg.norm(xb))
            assert dev <= 1e-8, f"seed {seed} iterate {k}: {dev:.3e}"


def _check_k_squared_envelope(obj, x0, lip):
    gt = obj.ground_truth
    r2 = float(np.sum((np.asarray(x0) - gt.x_opt) ** 2))
    _, tr = run_solver("sesop:direction=gradient,orth=1,history=7", obj,
                       x0=x0, grad_tol=0.0, max_iters=200)
    assert tr.final.iter >= 20  # enough iterations for a meaningful sweep
    for rec in tr.records:
        if rec.iter == 0:
            continue
        bound = lip * r2 / rec.iter ** 2
        assert rec.f_value - gt.f_opt <= bound, \
            f"iter {rec.iter}: gap {rec.f_value - gt.f_opt:.3e} > {bound:.3e}"


def test_orth_history_meets_the_one_over_k_squared_envelope():
    for seed in (1, 2, 3):
        obj = make_quadratic_ls(120, seed=seed)
        x0 = 0.5 * seeded_rng(seed).standard_normal(120)
        lip = 2.0 * float(np.linalg.svd(obj.op.matrix, compute_uv=False)[0]) ** 2
        _check_k_squared_envelope(obj, x0, lip)

        obj = make_expsquares(200)
        x0 = 0.5 * seeded_rng(seed).standard_normal(200)
        # curvature on the starting sublevel set: n^2 from the squares
        # plus n times the exponential term, itself bounded by f(x0)
        lip = 200.0 ** 2 + 200.0 * obj.value(x0)
        _check_k_squared_envelope(obj, x0, lip)


_L1_RECOVERY = "kind=l1_ls,n=512,m=200,seed={seed},mu=1e-06,kappa=6.0,noise=0.01"

# Reference values frozen from an independent long run per seed:
#   obj = ProblemSpec.from_config(_L1_RECOVERY.format(seed=s)).build()
#   _, tr = run_fista(obj, np.zeros(512), restart=True, grad_tol=0.0,
#                     max_iters=100000)
#   f_ref = tr.final.f_value
# They are reference values, not the minima: seed 1's is 1.47e-14 above
# the KKT-certified minimum 5.119780540902221e-05 (perfbench/reference.py),
# far below the 1e-6 target margin.
_L1_F_REF = {
    1: 5.1197805423733626e-05,
    2: 3.599059012709701e-05,
    3: 2.8015420310644323e-05,
}


def test_coordinate_and_surrogate_subspace_methods_beat_proximal_baselines():
    t0 = time.perf_counter()
    sub_pcd = "sesop:direction=pcd,history=7"
    sub_ssf = "sesop:direction=ssf,history=7"
    walls = []
    for seed in (1, 2, 3):
        target = _L1_F_REF[seed] + 1e-6
        budget = {}
        for spec in (sub_pcd, sub_ssf, "fista", "ista"):
            obj = ProblemSpec.from_config(_L1_RECOVERY.format(seed=seed)).build()
            t_run = time.perf_counter()
            _, tr = run_solver(spec, obj, grad_tol=0.0, max_iters=8000,
                               max_matvecs=12000)
            walls.append(f"{spec} seed {seed}: {time.perf_counter() - t_run:.1f} s")
            budget[spec] = _matvecs_to_value(tr, target)
        for fast in (sub_pcd, sub_ssf):
            assert math.isfinite(budget[fast]), f"seed {seed}: {fast}"
            for slow in ("fista", "ista"):
                assert budget[fast] < budget[slow], \
                    f"seed {seed}: {budget[fast]} vs {slow} {budget[slow]}"
    assert time.perf_counter() - t0 < 60.0, "; ".join(walls)


def test_cg_and_steepest_descent_rates_track_the_condition_number():
    # CG on a spectrum spread over [1, 100]: the energy-norm error must
    # contract at least as fast as (sqrt(r)-1)/(sqrt(r)+1) each sweep.
    # A uniform error across the whole spectrum keeps the per-step rate
    # at the Chebyshev envelope; lopsided errors only obey it cumulatively
    lam = np.linspace(1.0, 100.0, 300)
    x_star = np.ones(300)
    b = lam * x_star
    _, tr = run_linear_cg(lambda v: lam * v, b, np.zeros(300), tol=1e-13,
                          max_iters=400)
    f_opt = -0.5 * float(x_star @ b)
    gaps = tr.column("f_value") - f_opt
    floor = gaps[0] * 1e-20
    bound = (10.0 - 1.0) / (10.0 + 1.0) + 0.02
    checked = 0
    for k in range(1, len(gaps)):
        if gaps[k] <= floor or gaps[k - 1] <= floor:
            break
        ratio = math.sqrt(gaps[k] / gaps[k - 1])
        assert ratio <= bound, f"iteration {k}: {ratio:.4f}"
        checked += 1
    assert checked >= 20

    # steepest descent from the classic worst-case start contracts the
    # gap by exactly ((r-1)/(r+1))^2 per iteration
    lam2 = np.array([1.0, 100.0])
    quad = CompositeObjective(DenseOperator(np.diag(np.sqrt(lam2 / 2.0))),
                              np.zeros(2), mu=0.0)
    _, tr = run_steepest_descent(quad, 1.0 / lam2, grad_tol=0.0,
                                 max_iters=30, exact_line_search=True)
    f = tr.column("f_value")
    rho = ((100.0 - 1.0) / (100.0 + 1.0)) ** 2
    np.testing.assert_allclose(f[1:] / f[:-1], rho, rtol=1e-8)


def test_property_suite_gradients_surrogates_monotone_descent_traces(tmp_path):
    rng = seeded_rng(88)

    # gradient checks across every problem family
    quad = make_quadratic_ls(25, seed=11)
    assert check_gradient(quad, rng.standard_normal(25)) <= 1e-5
    l1 = ProblemSpec.from_config(
        "kind=l1_ls,m=30,n=50,seed=3,mu=0.001,kappa=2.0,noise=0.01").build()
    xs = np.sign(rng.standard_normal(50)) * (0.5 + rng.random(50))
    assert check_gradient(l1.smoothed(), xs) <= 1e-5
    exps = make_expsquares(30)
    assert check_gradient(exps, 0.1 * rng.standard_normal(30)) <= 1e-5
    svm = make_svm_smooth(60, 25, seed=5, violation_frac=0.1)
    w = 0.3 * rng.standard_normal(25)
    # probe safely away from the hinge kinks for clean central differences
    assert float(np.min(np.abs(1.0 - svm.margins(w)))) > 1e-4
    assert check_gradient(svm, w) <= 1e-5

    # diagonal surrogate majorizes the composite, touching it at the base
    c = l1.ssf_constant
    x = rng.standard_normal(50)
    rx = l1.residual(x)
    smooth_x = float(rx @ rx)
    atr = l1.op.adjoint(rx)
    f_base = smooth_x + l1.mu * float(np.sum(np.abs(x)))
    assert abs(f_base - l1.value(x)) <= 1e-12 * max(1.0, abs(f_base))
    for _ in range(100):
        y = x + rng.standard_normal(50) * rng.random()
        d = y - x
        sur = (smooth_x + 2.0 * float(atr @ d) + c * float(d @ d)
               + l1.mu * float(np.sum(np.abs(y))))
        fy = l1.value(y)
        assert sur >= fy - 1e-9 * max(1.0, abs(fy))

    # every solver in the suite descends monotonically
    smooth = make_quadratic_ls(40, seed=21)
    comp = ProblemSpec.from_config(
        "kind=l1_ls,m=30,n=45,seed=9,mu=0.01,kappa=2.0,noise=0.01").build()
    runs = (
        ("cg:tol=1e-12,max_iters=60", smooth),
        ("sd", smooth),
        ("nlcg", exps),
        ("ista", comp),
        ("fista:restart=1", comp),
        ("sesop:direction=gradient,orth=1,history=5", smooth),
        ("sesop:direction=pcd,history=5", comp),
        ("sesop:direction=ssf,history=5", comp),
        ("tn:l_max=8", exps),
        ("sesop_tn:l_max=8", exps),
    )
    for spec, obj in runs:
        _, tr = run_solver(spec, obj, grad_tol=1e-8, max_iters=150)
        f = tr.column("f_value")
        slack = 1e-12 * np.maximum(1.0, np.abs(f[:-1]))
        assert np.all(np.diff(f) <= slack), spec

    # forward and adjoint applications agree as bilinear forms
    mat = comp.op.matrix
    for _ in range(20):
        u = rng.standard_normal(mat.shape[1])
        v = rng.standard_normal(mat.shape[0])
        lhs = float(comp.op.apply(u) @ v)
        rhs = float(u @ comp.op.adjoint(v))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    # rebuilding and re-running a seeded cell reproduces the trace bytes
    for seed in (1, 2, 3):
        blobs = []
        for tag in ("a", "b"):
            obj = ProblemSpec.from_config(
                f"kind=l1_ls,m=30,n=45,seed={seed},mu=0.01,kappa=2.0,"
                "noise=0.01").build()
            _, tr = run_solver("sesop:direction=ssf,history=4", obj,
                               grad_tol=1e-8, max_iters=60)
            path = tmp_path / f"trace_{seed}_{tag}.csv"
            write_trace_csv(tr, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
