"""Truncated Newton solvers: classic line-search TN and the subspace variant.

The inner loop runs conjugate gradients on the local quadratic model
q(d) = f + g.d + d.H d / 2 until a forcing tolerance or a step cap, with
one Hessian-vector product per step. The subspace variant replaces the
line search along the truncated direction with an exact minimization over
a frame built from the inner run (truncated step, model gradient at the
truncation point and, after two or more inner steps, the last inner
direction), recent outer steps and the previous gradient; the following
inner run is warm-started from a two-direction exact solve seeded by that
outer step.

Progress is reported on a cumulative-steps axis: every inner CG step
counts one, and each outer subspace step counts one more, since on a
quadratic the exact frame minimization advances the iterate exactly as
far as one more CG step would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CompositeObjective
from .subspace import (HistoryBuffer, LineSearchError, build_frame,
                       line_search_backtracking, subspace_minimize)
from .trace import Recorder

__all__ = ["QuadraticModel", "InnerCgState", "inner_cg", "run_tn_classic",
           "run_sesop_tn"]

# damped Newton steps per frame solve: SESOP-TN solves each frame until the
# reduced gradient meets subspace_minimize's 1e-10 tolerance or this cap
FRAME_NEWTON_STEPS = 20


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

    Costs two Hessian products, made in one block call, but advances as
    far as one CG step seeded this way, so callers count it as a single
    step. Returns (delta, h_delta) or None when the pair is unusable.
    """
    u, v = (np.asarray(w, dtype=np.float64) for w in warm_pair)
    if not (u.any() and v.any() and np.isfinite(u).all()
            and np.isfinite(v).all()):
        return None
    # columns contiguous, as u and v are, so a column-by-column block is
    # bitwise the two single products
    hu, hv = model.hvp(np.array((u, v)).T).T
    k11 = float(u.dot(hu))
    k12 = float(u.dot(hv))
    k22 = float(v.dot(hv))
    det = k11 * k22 - k12 * k12
    scale = max(abs(k11), abs(k22))
    if k11 <= 0.0 or k22 <= 0.0 or det <= 1e-14 * scale * scale:
        return None
    b1 = -float(model.g0.dot(u))
    b2 = -float(model.g0.dot(v))
    a = (k22 * b1 - k12 * b2) / det
    b = (k11 * b2 - k12 * b1) / det
    delta = a * u + b * v
    if not delta.any():
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
    # ndarray.dot runs the same BLAS dot as @ and np.linalg.norm, so every
    # figure is bitwise theirs, with less call overhead per step
    gnorm0 = math.sqrt(g0.dot(g0))
    if gnorm0 == 0.0:
        return InnerCgState(d=np.zeros_like(g0), x_last=model.base.copy(),
                            model_grad=g0.copy(), last_step=None, n_steps=0,
                            neg_curvature=False)
    threshold = rtol * gnorm0
    hvp = model.hvp
    q_deltas = []
    warm = None if warm_pair is None else _warm_first_step(model, warm_pair)
    if warm is None:
        d = np.zeros_like(g0)
        r = g0.copy()
        p = -r
        last_step = None
        l = 0
        rnorm = gnorm0
    else:
        d, h_delta = warm
        curv = float(d.dot(h_delta))
        q_deltas.append(float(g0.dot(d)) + 0.5 * curv)
        last_step = d
        r = g0 + h_delta
        l = 1
        rnorm = math.sqrt(r.dot(r))
        if l < l_max and rnorm > threshold:
            p = float(r.dot(h_delta)) / curv * d
            p -= r

    neg = False
    while l < l_max and rnorm > threshold:
        hp = hvp(p)
        curv = float(p.dot(hp))
        if curv <= 0.0:
            neg = True
            if l == 0:
                # p == -g here; take the bounded gradient step and stop
                denom = abs(curv)
                t = float(g0.dot(g0)) / denom if denom > 0 else 1.0
                q_deltas.append(t * float(r.dot(p)) + 0.5 * t * t * curv)
                d = t * p
                r += t * hp
                last_step = d.copy()
                l = 1
            break
        rp = float(r.dot(p))
        alpha = -rp / curv
        q_deltas.append(alpha * rp + 0.5 * alpha * alpha * curv)
        step = alpha * p
        d += step  # may be the warm step, which last_step held until here
        r += alpha * hp
        last_step = step
        l += 1
        rnorm = math.sqrt(r.dot(r))
        if l >= l_max or rnorm <= threshold:
            break
        p *= float(r.dot(hp)) / curv
        p -= r

    return InnerCgState(d=d, x_last=model.base + d, model_grad=r,
                        last_step=last_step, n_steps=l, neg_curvature=neg,
                        q_deltas=q_deltas)


def frame_columns(st, prev_grad):
    """SESOP-TN's frame submissions after the inner run ``st``.

    In priority order: the truncated step (when nonzero), the model
    gradient at the truncation point, the last inner direction and the
    previous outer gradient. The last inner direction is offered only
    after two or more inner steps; after one it is the truncated step
    itself, which the frame would drop again as a duplicate.
    """
    cols = []
    if st.d.any():
        cols.append((st.d, "tn_step", None))
    cols.append((st.model_grad, "tn_model_grad", None))
    if st.n_steps >= 2:
        cols.append((st.last_step, "tn_last_dir", None))
    if prev_grad is not None:
        cols.append((prev_grad, "grad_prev", None))
    return cols


def _forcing(gnorm, gnorm0):
    return min(0.5, math.sqrt(gnorm / gnorm0)) if gnorm0 > 0 else 0.5


def run_tn_classic(obj, x0, l_max=10, grad_tol=1e-8, f_tol=0.0, max_iters=500,
                   max_cum_steps=None, max_matvecs=None, callback=None):
    """Line-search truncated Newton; returns (x, trace).

    The cumulative-steps column counts inner CG steps only. The forcing
    tolerance tightens as min(1/2, sqrt(||g||/||g0||)), giving superlinear
    outer convergence once the gradient is small.

    The Armijo search along the truncated step (along -g when that fails)
    values its trial points through ``obj.line``. An objective that caches
    its points, as the SVM does, then takes the gradient and the next
    step's Hessian products at the accepted point from that cache: on the
    SVM one outer iteration makes one pass over X for the line, besides
    those of its active rows.
    """
    if "hvp" not in obj.capabilities:
        raise TypeError("truncated Newton needs Hessian-vector products")
    rec = Recorder(obj, f"name=tn,l_max={l_max}", f_tol=f_tol,
                   max_iters=max_iters, max_steps=max_cum_steps,
                   max_matvecs=max_matvecs, callback=callback)
    x = np.array(x0, dtype=np.float64)
    f, g = obj.value_and_grad(x)
    gnorm0 = math.sqrt(g.dot(g))
    gnorm = gnorm0
    rec.stop_at = grad_tol * (1.0 + gnorm0)

    cum = 0
    k = 0
    while not rec.row(k, cum, f, gnorm, x):
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
                return x, rec.finish("line_search_failed")
        g = obj.grad(x)
        gnorm = math.sqrt(g.dot(g))
        k += 1
    return x, rec.finish()


def run_sesop_tn(obj, x0, l_max=10, outer_history=2, grad_tol=1e-8, f_tol=0.0,
                 max_iters=500, max_cum_steps=None, max_matvecs=None,
                 trace_inner=False, callback=None):
    """Truncated Newton with a subspace step instead of the line search.

    After each truncated inner run the next iterate is the exact minimizer
    over the frame {truncated step, model gradient at the truncation
    point, last inner direction, the ``outer_history`` previous outer
    steps (ValueError when negative), previous gradient}, found by at most
    FRAME_NEWTON_STEPS damped Newton steps.
    The last inner direction is offered only after two or more inner
    steps: after one it is the truncated step itself.
    The next inner run warm-starts from the two directions
    {new outer displacement from the truncation point, new gradient},
    solved exactly and counted as one step. The run ends "stalled" when a
    subspace step leaves x unchanged in floating point.

    Least-squares and linear-loss objectives carry A x (less b) across
    iterations and keep the products of the history steps, so each outer
    step forms the products of its fresh frame columns in one blocked
    pass over A, counted one matvec per column, and the frame solve makes
    no hvps. A linear-loss objective is handed the carried A x of each new
    iterate (``seed_linear_map``), so one that caches A x takes the next
    gradient without another pass of A.

    ``trace_inner`` additionally emits one row per inner step carrying the
    running model value (exact objective values on quadratics), so traces
    align row-by-row with plain CG on least-squares problems.
    """
    is_comp = isinstance(obj, CompositeObjective)
    if is_comp and obj.mu != 0.0:
        raise TypeError("subspace TN needs a smooth objective; pass .smoothed()")
    if "hvp" not in obj.capabilities:
        raise TypeError("truncated Newton needs Hessian-vector products")
    hist = HistoryBuffer(outer_history)
    rec = Recorder(
        obj, f"name=sesop_tn,l_max={l_max},outer_history={outer_history}",
        f_tol=f_tol, max_iters=max_iters, max_steps=max_cum_steps,
        max_matvecs=max_matvecs, callback=callback)
    # r carries A x - b (composite) or A x (linear loss) across iterations
    if is_comp:
        op = obj.op
    else:
        op = obj.linear_map if "linear_loss" in obj.capabilities else None

    x = np.array(x0, dtype=np.float64)
    if is_comp:
        r = obj.residual(x)
        f = obj.value_from_residual(r, x)
        g = obj.smooth_grad(op.adjoint(r), x)
    else:
        r = None if op is None else op.apply(x)
        f, g = obj.value_and_grad(x)
    gnorm0 = math.sqrt(g.dot(g))
    gnorm = gnorm0
    rec.stop_at = grad_tol * (1.0 + gnorm0)

    prev_grad = None
    warm = None
    cum = 0
    k = 0
    while not rec.row(k, cum, f, gnorm, x):
        model = QuadraticModel(obj, x, f, g)
        st = inner_cg(model, l_max, _forcing(gnorm, gnorm0), warm_pair=warm)
        if trace_inner:
            q_run = f
            for j, dq in enumerate(st.q_deltas, start=1):
                q_run += dq
                rec.inner_row(k, cum + j, q_run)
        cum += st.n_steps

        frame = build_frame(x, frame_columns(st, prev_grad), hist, op=op)
        res = subspace_minimize(obj, frame, max_inner=FRAME_NEWTON_STEPS,
                                residual=r, f_base=f)
        rec.note(res.events)
        if not np.any(res.alpha) or not (res.x - x).any():
            # no step, or one lost below x's last digit
            return x, rec.finish("stalled")
        cum += 1  # the subspace step advances like one more CG step
        # the solve's step and its product (None without products): D alpha
        # and A D alpha, free of the cancellation in x and r
        hist.push_step(res.step, res.a_step)
        prev_grad = g
        r, f = res.residual, res.f
        if is_comp:
            g_new = obj.smooth_grad(op.adjoint(r), res.x)
        else:
            if op is not None:
                obj.seed_linear_map(res.x, r)
            g_new = obj.grad(res.x)
        warm = (res.x - st.x_last, g_new.copy())
        x, g = res.x, g_new
        gnorm = math.sqrt(g.dot(g))
        k += 1
    return x, rec.finish()
