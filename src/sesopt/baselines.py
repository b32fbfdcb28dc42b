"""Classical reference solvers the subspace methods are benchmarked against.

All runners share one contract, kept by ``trace.Recorder``: the problem
counters are reset at start, one trace row is emitted per iteration (row 0
is the starting point), the run stops on the first satisfied criterion
and the trace header records the reason.

The composite solvers maintain the residual A x - b across iterations so
objective values for reporting are free; linear CG tracks the quadratic's
value through the exact one-step update identity. Matvec counts therefore
reflect algorithmic cost only.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import ssf_direction
from .subspace import LineSearchError, line_search_backtracking
from .trace import Recorder

__all__ = ["run_linear_cg", "run_ssf_iteration", "run_fista",
           "run_steepest_descent", "run_nonlinear_cg"]


def run_linear_cg(a_spd_hvp, b, x0, tol=1e-10, max_iters=None, f_offset=0.0,
                  obj=None, callback=None, max_matvecs=None):
    """Conjugate gradients for A x = b with SPD matvec callable.

    Reports f(x) = 0.5 x.A.x - b.x + f_offset per row, updated through the
    exact quadratic decrease identity so tracing costs no extra products.
    Stops when ||A x - b|| <= tol * max(1, ||A x0 - b||) (status
    "converged"), on the iteration cap, on non-positive curvature (status
    "breakdown"), or once the counters have reached ``max_matvecs`` before
    a step. ``obj``, when given, is the objective the system comes from:
    the run counts on its counters, and the trace takes its header and
    known optimum.

    Returns (x, trace).
    """
    x = np.array(x0, dtype=np.float64)
    rec = Recorder(obj, "name=cg",
                   max_iters=10 * x.size if max_iters is None else max_iters,
                   max_matvecs=max_matvecs, callback=callback)
    ax = a_spd_hvp(x)
    r = ax - b  # gradient of the quadratic
    f = 0.5 * float(x @ ax) - float(b @ x) + f_offset
    rs = float(r @ r)
    rec.stop_at = tol * max(1.0, math.sqrt(rs))

    p = -r
    k = 0
    while not rec.row(k, k, f, math.sqrt(rs), x):
        ap = a_spd_hvp(p)
        curv = float(p @ ap)
        if curv <= 0.0:
            return x, rec.finish("breakdown")
        rp = float(r @ p)
        alpha = rs / curv  # equals -rp/curv for CG-generated directions
        f += alpha * rp + 0.5 * alpha * alpha * curv
        x += alpha * p
        r += alpha * ap
        rs_new = float(r @ r)
        p = -r + (rs_new / rs) * p
        rs = rs_new
        k += 1
    return x, rec.finish("converged" if rec.status == "stationary" else None)


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
    rec = Recorder(composite, f"name=ista,c={c!r}", stop_at=grad_tol,
                   f_tol=f_tol, max_iters=max_iters, max_matvecs=max_matvecs,
                   callback=callback, aux_metric=aux_metric)
    op, mu = composite.op, composite.mu

    x = np.array(x0, dtype=np.float64)
    r = op.apply(x) - composite.b
    f = composite.value_from_residual(r, x)
    atr = op.adjoint(r)
    d = ssf_direction(x, atr, c, mu)
    stat = float(np.max(np.abs(d))) if d.size else 0.0

    k = 0
    while not rec.row(k, k, f, stat, x):
        x = x + d
        r = op.apply(x) - composite.b
        f = composite.value_from_residual(r, x)
        atr = op.adjoint(r)
        d = ssf_direction(x, atr, c, mu)
        stat = float(np.max(np.abs(d)))
        k += 1
    return x, rec.finish()


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
    rec = Recorder(composite, f"name=fista,c={c!r},restart={int(restart)}",
                   stop_at=grad_tol, f_tol=f_tol, max_iters=max_iters,
                   max_matvecs=max_matvecs, callback=callback,
                   aux_metric=aux_metric)
    op, mu = composite.op, composite.mu

    x = np.array(x0, dtype=np.float64)
    rx = op.apply(x) - composite.b
    f = composite.value_from_residual(rx, x)
    y, ry = x, rx
    t_mom = 1.0

    atr_y = op.adjoint(ry)
    d0 = ssf_direction(x, atr_y, c, mu)
    stat = float(np.max(np.abs(d0)))

    k = 0
    have_atr = True  # y == x at start, adjoint already computed
    while not rec.row(k, k, f, stat, x):
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
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        coef = (t_mom - 1.0) / t_next
        y = xn + coef * (xn - x)
        ry = rn + coef * (rn - rx)
        x, rx, f, t_mom = xn, rn, fn, t_next
        k += 1
    return x, rec.finish()


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
    rec = Recorder(obj, f"name=sd,exact={int(exact_line_search)}", f_tol=f_tol,
                   max_iters=max_iters, max_matvecs=max_matvecs,
                   callback=callback)
    x = np.array(x0, dtype=np.float64)
    f, g = obj.value_and_grad(x)
    gnorm = float(np.linalg.norm(g))
    rec.stop_at = grad_tol * (1.0 + gnorm)

    k = 0
    while not rec.row(k, k, f, gnorm, x):
        d = -g
        if exact_line_search:
            t_step = _exact_quadratic_step(obj, x, g, d)
            x = x + t_step * d
            f, g = obj.value_and_grad(x)
        else:
            try:
                t_step, f = line_search_backtracking(obj, x, d, f, g)
            except LineSearchError:
                return x, rec.finish("line_search_failed")
            x = x + t_step * d
            g = obj.grad(x)
        gnorm = float(np.linalg.norm(g))
        k += 1
    return x, rec.finish()


def run_nonlinear_cg(obj, x0, grad_tol=1e-8, f_tol=0.0, max_iters=1000,
                     exact_line_search=False, max_matvecs=None, callback=None):
    """Nonlinear conjugate gradients, Polak-Ribiere+ variant.

    beta = max(0, g_new.(g_new - g) / g.g), with a steepest-descent restart
    whenever the recurrence stops producing a descent direction. On
    quadratics with exact line search this reproduces linear CG.
    """
    rec = Recorder(obj, f"name=nlcg,exact={int(exact_line_search)}",
                   f_tol=f_tol, max_iters=max_iters, max_matvecs=max_matvecs,
                   callback=callback)
    x = np.array(x0, dtype=np.float64)
    f, g = obj.value_and_grad(x)
    gnorm = float(np.linalg.norm(g))
    rec.stop_at = grad_tol * (1.0 + gnorm)

    d = -g
    k = 0
    while not rec.row(k, k, f, gnorm, x):
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
                return x, rec.finish("line_search_failed")
            x = x + t_step * d
            g_new = obj.grad(x)
        beta = max(0.0, float(g_new @ (g_new - g)) / float(g @ g))
        d = -g_new + beta * d
        g = g_new
        gnorm = float(np.linalg.norm(g))
        k += 1
    return x, rec.finish()
