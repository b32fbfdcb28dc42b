"""Truncated Newton solvers: classic line-search TN and the subspace variant.

The inner loop runs conjugate gradients on the local quadratic model
q(d) = f + g.d + d.H d / 2 until a forcing tolerance or a step cap, with
one Hessian-vector product per step. The subspace variant replaces the
line search along the truncated direction with an exact minimization over
a frame built from the inner run (truncated step, model gradient at the
truncation point, last inner direction), recent outer steps and the
previous gradient; the following inner run is warm-started from a
two-direction exact solve seeded by that outer step.

Progress is reported on a cumulative-steps axis: every inner CG step
counts one, and each outer subspace step counts one more, since on a
quadratic the exact frame minimization advances the iterate exactly as
far as one more CG step would.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import CompositeObjective
from .subspace import (HistoryBuffer, LineSearchError, build_frame,
                       line_search_backtracking, subspace_minimize)
from .trace import new_trace

__all__ = ["QuadraticModel", "InnerCgState", "inner_cg", "run_tn_classic",
           "run_sesop_tn"]


@dataclass
class QuadraticModel:
    """Second-order model of an objective around a base point.

    Works in offset coordinates d (the model argument is x_base + d);
    Hessian products go through the objective and are counted there.
    """

    obj: object
    base: np.ndarray
    f0: float
    g0: np.ndarray

    def hvp(self, v):
        return self.obj.hvp(self.base, v)

    def value(self, d, hd=None):
        if hd is None:
            hd = self.hvp(d)
        return self.f0 + float(self.g0 @ d) + 0.5 * float(d @ hd)


@dataclass
class InnerCgState:
    """Outcome of one truncated inner CG run (offset coordinates)."""

    d: np.ndarray
    x_last: np.ndarray
    model_grad: np.ndarray
    last_step: np.ndarray | None
    n_steps: int
    neg_curvature: bool
    q_deltas: list = field(default_factory=list)


def _warm_first_step(model, warm_pair):
    """Exact minimizer over span{u, v} when that 2x2 system is SPD.

    Costs two Hessian products but advances as far as one CG step seeded
    this way, so callers count it as a single step. Returns
    (delta, h_delta) or None when the pair is unusable.
    """
    u, v = warm_pair
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if (not np.any(u) or not np.any(v)
            or not np.all(np.isfinite(u)) or not np.all(np.isfinite(v))):
        return None
    hu = model.hvp(u)
    hv = model.hvp(v)
    k11 = float(u @ hu)
    k12 = float(u @ hv)
    k22 = float(v @ hv)
    det = k11 * k22 - k12 * k12
    scale = max(abs(k11), abs(k22))
    if k11 <= 0.0 or k22 <= 0.0 or det <= 1e-14 * scale * scale:
        return None
    b1 = -float(model.g0 @ u)
    b2 = -float(model.g0 @ v)
    a = (k22 * b1 - k12 * b2) / det
    b = (k11 * b2 - k12 * b1) / det
    delta = a * u + b * v
    if not np.any(delta):
        return None
    return delta, a * hu + b * hv


def inner_cg(model, l_max, rtol, warm_pair=None):
    """Conjugate gradients on the quadratic model, truncated.

    Stops when the model gradient norm falls below rtol times its starting
    value, after l_max steps, or on negative curvature (at the very first
    step that produces a bounded move along the gradient instead:
    d = -(g.g / |g.H.g|) g). Direction updates use the curvature form
    beta = r.Hp / p.Hp, which matches the classical recurrence on the
    model and stays valid after the warm first step.
    """
    if l_max < 1:
        raise ValueError("inner step cap must be at least 1")
    g0 = model.g0
    gnorm0 = float(np.linalg.norm(g0))
    zero = np.zeros_like(g0)
    if gnorm0 == 0.0:
        return InnerCgState(d=zero, x_last=model.base.copy(), model_grad=g0.copy(),
                            last_step=None, n_steps=0, neg_curvature=False)
    threshold = rtol * gnorm0

    d = zero.copy()
    r = g0.copy()
    q_deltas = []
    last_step = None
    l = 0
    p = None
    hp = None

    if warm_pair is not None:
        warm = _warm_first_step(model, warm_pair)
        if warm is not None:
            delta, h_delta = warm
            dq = float(g0 @ delta) + 0.5 * float(delta @ h_delta)
            d = delta
            r = g0 + h_delta
            q_deltas.append(dq)
            last_step = delta
            l = 1
            if l >= l_max or float(np.linalg.norm(r)) <= threshold:
                return InnerCgState(d=d, x_last=model.base + d, model_grad=r,
                                    last_step=last_step, n_steps=l,
                                    neg_curvature=False, q_deltas=q_deltas)
            curv_last = float(delta @ h_delta)
            beta = float(r @ h_delta) / curv_last
            p = -r + beta * delta
        else:
            p = -r
    else:
        p = -r

    neg = False
    while l < l_max and float(np.linalg.norm(r)) > threshold:
        hp = model.hvp(p)
        curv = float(p @ hp)
        if curv <= 0.0:
            neg = True
            if l == 0:
                # p == -g here; take the bounded gradient step and stop
                denom = abs(curv)
                t = float(g0 @ g0) / denom if denom > 0 else 1.0
                dq = t * float(r @ p) + 0.5 * t * t * curv
                d = t * p
                r = r + t * hp
                q_deltas.append(dq)
                last_step = d.copy()
                l = 1
            break
        rp = float(r @ p)
        alpha = -rp / curv
        dq = alpha * rp + 0.5 * alpha * alpha * curv
        step = alpha * p
        d = d + step
        r = r + alpha * hp
        q_deltas.append(dq)
        last_step = step
        l += 1
        if l >= l_max or float(np.linalg.norm(r)) <= threshold:
            break
        beta = float(r @ hp) / curv
        p = -r + beta * p

    return InnerCgState(d=d, x_last=model.base + d, model_grad=r,
                        last_step=last_step, n_steps=l, neg_curvature=neg,
                        q_deltas=q_deltas)


def _forcing(gnorm, gnorm0):
    return min(0.5, math.sqrt(gnorm / gnorm0)) if gnorm0 > 0 else 0.5


def _fopt(obj):
    gt = getattr(obj, "ground_truth", None)
    return None if gt is None or gt.f_opt is None else gt.f_opt


def run_tn_classic(obj, x0, l_max=10, grad_tol=1e-8, f_tol=0.0, max_iters=500,
                   max_cum_steps=None, callback=None):
    """Line-search truncated Newton; returns (x, trace).

    The cumulative-steps column counts inner CG steps only. The forcing
    tolerance tightens as min(1/2, sqrt(||g||/||g0||)), giving superlinear
    outer convergence once the gradient is small.
    """
    if "hvp" not in obj.capabilities:
        raise TypeError("truncated Newton needs Hessian-vector products")
    obj.counters.reset()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=np.float64)
    f, g = obj.value_and_grad(x)
    gnorm0 = float(np.linalg.norm(g))
    gnorm = gnorm0
    stop_at = grad_tol * (1.0 + gnorm0)
    f_opt = _fopt(obj)

    trace = new_trace(obj, f"name=tn,l_max={l_max}")
    cum = 0
    k = 0
    status = "max_iters"

    def row():
        trace.add(iter=k, cum_steps=cum, f_value=f,
                  f_minus_fopt=None if f_opt is None else f - f_opt,
                  stat_norm=gnorm, matvecs=obj.counters.matvecs,
                  hvps=obj.counters.hvps,
                  wall_ms=(time.perf_counter() - t0) * 1e3)

    row()
    if callback:
        callback(k, x)
    while True:
        if gnorm <= stop_at:
            status = "stationary"
            break
        if k >= max_iters:
            status = "max_iters"
            break
        if max_cum_steps is not None and cum >= max_cum_steps:
            status = "max_steps"
            break
        f_prev = f
        model = QuadraticModel(obj, x, f, g)
        st = inner_cg(model, l_max, _forcing(gnorm, gnorm0))
        cum += st.n_steps
        try:
            t_step, f = line_search_backtracking(obj, x, st.d, f, g)
            x = x + t_step * st.d
        except (LineSearchError, ValueError):
            try:
                t_step, f = line_search_backtracking(obj, x, -g, f, g)
                x = x - t_step * g
            except (LineSearchError, ValueError):
                status = "line_search_failed"
                break
        g = obj.grad(x)
        gnorm = float(np.linalg.norm(g))
        k += 1
        row()
        if callback:
            callback(k, x)
        if f_tol > 0 and abs(f_prev - f) <= f_tol * (1.0 + abs(f)):
            status = "f_tol"
            break
    trace.header["status"] = status
    return x, trace


def run_sesop_tn(obj, x0, l_max=10, outer_history=2, include_prev_grad=True,
                 grad_tol=1e-8, f_tol=0.0, max_iters=500, max_cum_steps=None,
                 max_matvecs=None, inner_tol=1e-10, max_inner=20,
                 trace_inner=False, callback=None):
    """Truncated Newton with a subspace step instead of the line search.

    After each truncated inner run the next iterate is the exact minimizer
    over the frame {truncated step, model gradient at the truncation
    point, last inner direction, previous outer steps, previous gradient}.
    The next inner run warm-starts from the two directions
    {new outer displacement from the truncation point, new gradient},
    solved exactly and counted as one step.

    Least-squares and linear-loss objectives carry A x (less b) across
    iterations and keep the products of the history steps, so each outer
    step applies A once per fresh frame column, counted as matvecs, and
    the frame solve makes no hvps.

    ``trace_inner`` additionally emits one row per inner step carrying the
    running model value (exact objective values on quadratics), so traces
    align row-by-row with plain CG on least-squares problems.
    """
    is_comp = isinstance(obj, CompositeObjective)
    if is_comp and obj.mu != 0.0:
        raise TypeError("subspace TN needs a smooth objective; pass .smoothed()")
    if "hvp" not in obj.capabilities:
        raise TypeError("truncated Newton needs Hessian-vector products")
    obj.counters.reset()
    t0 = time.perf_counter()
    # r carries A x - b (composite) or A x (linear loss) across iterations
    if is_comp:
        op = obj.op
    else:
        op = obj.linear_map if "linear_loss" in obj.capabilities else None

    x = np.array(x0, dtype=np.float64)
    if is_comp:
        r = obj.residual(x)
        f = obj.value_from_residual(r, x)
        g = 2.0 * op.adjoint(r)
    else:
        r = None if op is None else op.apply(x)
        f, g = obj.value_and_grad(x)
    gnorm0 = float(np.linalg.norm(g))
    gnorm = gnorm0
    stop_at = grad_tol * (1.0 + gnorm0)
    f_opt = _fopt(obj)

    hist = HistoryBuffer(max(outer_history, 1))
    prev_grad = None
    warm = None
    trace = new_trace(
        obj, f"name=sesop_tn,l_max={l_max},outer_history={outer_history}")
    events = {}
    cum = 0
    k = 0
    status = "max_iters"

    def row(it, cm, fv, sn):
        trace.add(iter=it, cum_steps=cm, f_value=fv,
                  f_minus_fopt=None if f_opt is None else fv - f_opt,
                  stat_norm=sn, matvecs=obj.counters.matvecs,
                  hvps=obj.counters.hvps,
                  wall_ms=(time.perf_counter() - t0) * 1e3)

    row(0, 0, f, gnorm)
    if callback:
        callback(0, x)
    while True:
        if gnorm <= stop_at:
            status = "stationary"
            break
        if k >= max_iters:
            status = "max_iters"
            break
        if max_cum_steps is not None and cum >= max_cum_steps:
            status = "max_steps"
            break
        if max_matvecs is not None and obj.counters.matvecs >= max_matvecs:
            status = "max_matvecs"
            break
        f_prev = f
        model = QuadraticModel(obj, x, f, g)
        st = inner_cg(model, l_max, _forcing(gnorm, gnorm0), warm_pair=warm)
        if trace_inner:
            q_run = f
            for j, dq in enumerate(st.q_deltas, start=1):
                q_run += dq
                row(k, cum + j, q_run, None)
        cum += st.n_steps

        cols = []
        if np.any(st.d):
            cols.append((st.d, "tn_step", None))
        cols.append((st.model_grad, "tn_model_grad", None))
        if st.last_step is not None:
            cols.append((st.last_step, "tn_last_dir", None))
        if include_prev_grad and prev_grad is not None:
            cols.append((prev_grad, "grad_prev", None))
        frame = build_frame(x, cols, hist, outer_history, op=op,
                            with_products=op is not None)
        res = subspace_minimize(obj, frame, inner_tol=inner_tol,
                                max_inner=max_inner, residual=r)
        for name in res.events:
            events[name] = events.get(name, 0) + 1
        if not np.any(res.alpha):
            status = "stalled"
            break
        cum += 1  # the subspace step advances like one more CG step
        if is_comp or op is None:
            hist.push_step(res.x - x, None if r is None else res.residual - r)
        else:  # D alpha and A D alpha, free of the cancellation in x and z
            hist.push_step(frame.basis @ res.alpha, frame.products @ res.alpha)
        prev_grad = g
        r, f = res.residual, res.f
        g_new = 2.0 * op.adjoint(r) if is_comp else obj.grad(res.x)
        warm = (res.x - st.x_last, g_new.copy())
        x, g = res.x, g_new
        gnorm = float(np.linalg.norm(g))
        k += 1
        row(k, cum, f, gnorm)
        if callback:
            callback(k, x)
        if f_tol > 0 and abs(f_prev - f) <= f_tol * (1.0 + abs(f)):
            status = "f_tol"
            break
    trace.header["status"] = status
    if events:
        trace.header["events"] = ",".join(
            f"{name}:{events[name]}" for name in sorted(events))
    return x, trace
