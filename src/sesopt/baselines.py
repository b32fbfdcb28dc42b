"""Classical reference solvers the subspace methods are benchmarked against.

All runners share the same contract: reset the problem counters at start,
emit one trace row per iteration (row 0 is the starting point), stop on
the first satisfied criterion and record the reason in the trace header.

The composite solvers maintain the residual A x - b across iterations so
objective values for reporting are free; linear CG tracks the quadratic's
value through the exact one-step update identity. Matvec counts therefore
reflect algorithmic cost only.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import Counters
from .kernels import ssf_direction
from .subspace import LineSearchError, line_search_backtracking
from .trace import Trace, _fopt, new_trace

__all__ = ["run_linear_cg", "run_ssf_iteration", "run_fista",
           "run_steepest_descent", "run_nonlinear_cg"]


def _row(trace, t0, it, cum, f, stat, counters, f_opt=None, aux=None):
    trace.add(iter=it, cum_steps=cum, f_value=f,
              f_minus_fopt=None if f_opt is None else f - f_opt,
              stat_norm=stat, matvecs=counters.matvecs, hvps=counters.hvps,
              wall_ms=(time.perf_counter() - t0) * 1e3, aux=aux)


def run_linear_cg(a_spd_hvp, b, x0, tol=1e-10, max_iters=None, f_offset=0.0,
                  counters=None, header=None, f_opt=None, callback=None,
                  max_matvecs=None):
    """Conjugate gradients for A x = b with SPD matvec callable.

    Reports f(x) = 0.5 x.A.x - b.x + f_offset per row, updated through the
    exact quadratic decrease identity so tracing costs no extra products.
    Stops when ||A x - b|| <= tol * max(1, ||A x0 - b||), on the iteration
    cap, on non-positive curvature (status "breakdown"), or once
    ``counters`` has reached ``max_matvecs`` before a step.

    Returns (x, trace).
    """
    counters = counters if counters is not None else Counters()
    counters.reset()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=np.float64)
    if max_iters is None:
        max_iters = 10 * x.size

    ax = a_spd_hvp(x)
    r = ax - b  # gradient of the quadratic
    f = 0.5 * float(x @ ax) - float(b @ x) + f_offset
    rs = float(r @ r)
    stop_at = tol * max(1.0, math.sqrt(rs))

    trace = Trace(header=dict(header or {}))
    trace.header.setdefault("solver", "name=cg")
    _row(trace, t0, 0, 0, f, math.sqrt(rs), counters, f_opt)
    if callback:
        callback(0, x)

    status = "max_iters"
    p = -r
    for k in range(1, max_iters + 1):
        if math.sqrt(rs) <= stop_at:
            status = "converged"
            break
        if max_matvecs is not None and counters.matvecs >= max_matvecs:
            status = "max_matvecs"
            break
        ap = a_spd_hvp(p)
        curv = float(p @ ap)
        if curv <= 0.0:
            status = "breakdown"
            break
        rp = float(r @ p)
        alpha = rs / curv  # equals -rp/curv for CG-generated directions
        f += alpha * rp + 0.5 * alpha * alpha * curv
        x += alpha * p
        r += alpha * ap
        rs_new = float(r @ r)
        _row(trace, t0, k, k, f, math.sqrt(rs_new), counters, f_opt)
        if callback:
            callback(k, x)
        p = -r + (rs_new / rs) * p
        rs = rs_new
    else:
        status = "max_iters"
    trace.header["status"] = status
    return x, trace


def run_ssf_iteration(composite, x0, c=None, grad_tol=1e-8, f_tol=0.0,
                      max_iters=1000, max_matvecs=None, callback=None,
                      aux_metric=None):
    """Plain separable-surrogate (ISTA / proximal gradient) iteration.

    x <- soft(x - A^T r / c, mu/(2c)) with the cached majorizer constant by
    default. Two operator applications per iteration; the stationarity
    measure is the infinity norm of the step itself.
    """
    c = composite.ssf_constant if c is None else float(c)
    if not c > 0:
        raise ValueError("invalid majorizer")
    counters = composite.counters
    counters.reset()
    t0 = time.perf_counter()
    op, mu = composite.op, composite.mu

    x = np.array(x0, dtype=np.float64)
    r = op.apply(x) - composite.b
    f = composite.value_from_residual(r, x)
    atr = op.adjoint(r)
    d = ssf_direction(x, atr, c, mu)
    stat = float(np.max(np.abs(d))) if d.size else 0.0

    trace = new_trace(composite, f"name=ista,c={c!r}")
    if aux_metric is not None:
        trace.aux_name = aux_metric[0]
    _row(trace, t0, 0, 0, f, stat, counters,
         _fopt(composite), aux_metric[1](x) if aux_metric else None)
    if callback:
        callback(0, x)

    status = "max_iters"
    k = 0
    while True:
        if stat <= grad_tol:
            status = "stationary"
            break
        if k >= max_iters:
            status = "max_iters"
            break
        if max_matvecs is not None and counters.matvecs >= max_matvecs:
            status = "max_matvecs"
            break
        f_prev = f
        x = x + d
        r = op.apply(x) - composite.b
        f = composite.value_from_residual(r, x)
        atr = op.adjoint(r)
        d = ssf_direction(x, atr, c, mu)
        stat = float(np.max(np.abs(d)))
        k += 1
        _row(trace, t0, k, k, f, stat, counters,
             _fopt(composite), aux_metric[1](x) if aux_metric else None)
        if callback:
            callback(k, x)
        if f_tol > 0 and abs(f_prev - f) <= f_tol * (1.0 + abs(f)):
            status = "f_tol"
            break
    trace.header["status"] = status
    return x, trace


def run_fista(composite, x0, c=None, grad_tol=1e-8, f_tol=0.0, max_iters=1000,
              max_matvecs=None, restart=False, callback=None, aux_metric=None):
    """Accelerated proximal gradient (two-sequence momentum schedule).

    Prox steps are taken at the extrapolated point y; the stationarity
    column records the prox residual ||x_{k+1} - y_k||_inf. With
    ``restart=True`` the momentum is reset whenever f increases and the
    step is retaken from x, which makes the trace monotone (majorization
    guarantees the plain prox step cannot increase f).
    """
    c = composite.ssf_constant if c is None else float(c)
    if not c > 0:
        raise ValueError("invalid majorizer")
    counters = composite.counters
    counters.reset()
    t0 = time.perf_counter()
    op, mu = composite.op, composite.mu

    x = np.array(x0, dtype=np.float64)
    rx = op.apply(x) - composite.b
    f = composite.value_from_residual(rx, x)
    y, ry = x, rx
    t_mom = 1.0

    atr_y = op.adjoint(ry)
    d0 = ssf_direction(x, atr_y, c, mu)
    stat = float(np.max(np.abs(d0)))

    trace = new_trace(composite, f"name=fista,c={c!r},restart={int(restart)}")
    if aux_metric is not None:
        trace.aux_name = aux_metric[0]
    _row(trace, t0, 0, 0, f, stat, counters,
         _fopt(composite), aux_metric[1](x) if aux_metric else None)
    if callback:
        callback(0, x)

    status = "max_iters"
    k = 0
    have_atr = True  # y == x at start, adjoint already computed
    while True:
        if stat <= grad_tol:
            status = "stationary"
            break
        if k >= max_iters:
            status = "max_iters"
            break
        if max_matvecs is not None and counters.matvecs >= max_matvecs:
            status = "max_matvecs"
            break
        if not have_atr:
            atr_y = op.adjoint(ry)
        have_atr = False
        xn = y + ssf_direction(y, atr_y, c, mu)
        stat = float(np.max(np.abs(xn - y)))
        rn = op.apply(xn) - composite.b
        fn = composite.value_from_residual(rn, xn)
        if restart and fn > f:
            # momentum took us uphill: restart the schedule from x
            t_mom = 1.0
            atr_x = op.adjoint(rx)
            xn = x + ssf_direction(x, atr_x, c, mu)
            stat = float(np.max(np.abs(xn - x)))
            rn = op.apply(xn) - composite.b
            fn = composite.value_from_residual(rn, xn)
        f_prev = f
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        coef = (t_mom - 1.0) / t_next
        y = xn + coef * (xn - x)
        ry = rn + coef * (rn - rx)
        x, rx, f, t_mom = xn, rn, fn, t_next
        k += 1
        _row(trace, t0, k, k, f, stat, counters,
             _fopt(composite), aux_metric[1](x) if aux_metric else None)
        if callback:
            callback(k, x)
        if f_tol > 0 and abs(f_prev - f) <= f_tol * (1.0 + abs(f)):
            status = "f_tol"
            break
    trace.header["status"] = status
    return x, trace


def _exact_quadratic_step(obj, x, g, d):
    """Exact line minimum t = -<g,d>/<d,Hd> (valid for quadratic f)."""
    hd = obj.hvp(x, d)
    curv = float(d @ hd)
    if curv <= 0:
        raise ValueError("exact line search needs positive curvature")
    return -float(g @ d) / curv


def run_steepest_descent(obj, x0, grad_tol=1e-8, f_tol=0.0, max_iters=1000,
                         exact_line_search=False, max_matvecs=None, callback=None):
    """Gradient descent with Armijo backtracking or exact quadratic steps."""
    obj.counters.reset()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=np.float64)
    f, g = obj.value_and_grad(x)
    gnorm = float(np.linalg.norm(g))
    stop_at = grad_tol * (1.0 + gnorm)

    trace = new_trace(obj, f"name=sd,exact={int(exact_line_search)}")
    _row(trace, t0, 0, 0, f, gnorm, obj.counters, _fopt(obj))
    if callback:
        callback(0, x)

    status = "max_iters"
    k = 0
    while True:
        if gnorm <= stop_at:
            status = "stationary"
            break
        if k >= max_iters:
            break
        if max_matvecs is not None and obj.counters.matvecs >= max_matvecs:
            status = "max_matvecs"
            break
        f_prev = f
        d = -g
        if exact_line_search:
            t_step = _exact_quadratic_step(obj, x, g, d)
            x = x + t_step * d
            f, g = obj.value_and_grad(x)
        else:
            try:
                t_step, f = line_search_backtracking(obj, x, d, f, g)
            except LineSearchError:
                status = "line_search_failed"
                break
            x = x + t_step * d
            g = obj.grad(x)
        gnorm = float(np.linalg.norm(g))
        k += 1
        _row(trace, t0, k, k, f, gnorm, obj.counters, _fopt(obj))
        if callback:
            callback(k, x)
        if f_tol > 0 and abs(f_prev - f) <= f_tol * (1.0 + abs(f)):
            status = "f_tol"
            break
    trace.header["status"] = status
    return x, trace


def run_nonlinear_cg(obj, x0, grad_tol=1e-8, f_tol=0.0, max_iters=1000,
                     exact_line_search=False, max_matvecs=None, callback=None):
    """Nonlinear conjugate gradients, Polak-Ribiere+ variant.

    beta = max(0, g_new.(g_new - g) / g.g), with a steepest-descent restart
    whenever the recurrence stops producing a descent direction. On
    quadratics with exact line search this reproduces linear CG.
    """
    obj.counters.reset()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=np.float64)
    f, g = obj.value_and_grad(x)
    gnorm = float(np.linalg.norm(g))
    stop_at = grad_tol * (1.0 + gnorm)

    trace = new_trace(obj, f"name=nlcg,exact={int(exact_line_search)}")
    _row(trace, t0, 0, 0, f, gnorm, obj.counters, _fopt(obj))
    if callback:
        callback(0, x)

    status = "max_iters"
    d = -g
    k = 0
    while True:
        if gnorm <= stop_at:
            status = "stationary"
            break
        if k >= max_iters:
            break
        if max_matvecs is not None and obj.counters.matvecs >= max_matvecs:
            status = "max_matvecs"
            break
        f_prev = f
        if float(g @ d) >= 0.0:
            d = -g  # restart on non-descent
        if exact_line_search:
            t_step = _exact_quadratic_step(obj, x, g, d)
            x = x + t_step * d
            f, g_new = obj.value_and_grad(x)
        else:
            try:
                t_step, f = line_search_backtracking(obj, x, d, f, g)
            except LineSearchError:
                status = "line_search_failed"
                break
            x = x + t_step * d
            g_new = obj.grad(x)
        beta = max(0.0, float(g_new @ (g_new - g)) / float(g @ g))
        d = -g_new + beta * d
        g = g_new
        gnorm = float(np.linalg.norm(g))
        k += 1
        _row(trace, t0, k, k, f, gnorm, obj.counters, _fopt(obj))
        if callback:
            callback(k, x)
        if f_tol > 0 and abs(f_prev - f) <= f_tol * (1.0 + abs(f)):
            status = "f_tol"
            break
    trace.header["status"] = status
    return x, trace
