"""Sequential subspace optimization driver.

Each outer iteration assembles a small frame of directions (a chosen
first direction, optionally the two growing-subspace columns, and up to M
previous steps), minimizes the objective approximately over that affine
frame and takes the result as the next iterate. SESOP needs only an
approximate frame minimizer, so each frame solve stops after at most
FRAME_NEWTON_STEPS damped Newton steps (earlier when the reduced gradient
meets the solver's 1e-10 tolerance). On quadratics one Newton step is
already the exact frame minimizer.

Composite least-squares objectives get the cheap path: the residual is
maintained across iterations, one adjoint per iteration provides the
gradient, the proximal step and the stationarity measure, and frame
products A @ D are cached so the inner minimization applies no operators.
With the plain gradient, coordinate-descent or surrogate first direction
this costs exactly two operator applications per outer iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompositeObjective
from .directions import DirectionKind, OrthState, dir_orth_update
from .kernels import (pcd_direction, pcd_reciprocals, smooth_abs_grad,
                      ssf_direction)
from .subspace import HistoryBuffer, build_frame, subspace_minimize
from .trace import Recorder

__all__ = ["SesopConfig", "run_sesop"]

# damped Newton steps per frame solve; one doubles the matvecs to target
# on fig1, three gains nothing over two
FRAME_NEWTON_STEPS = 2


@dataclass
class SesopConfig:
    """Knobs for the subspace driver.

    direction: first frame column ("gradient", "pcd" or "ssf").
    include_orth: add the weighted-gradient and total-step columns, which
        carry the accelerated worst-case rate.
    history: number of previous steps kept in the frame.

    Each frame is solved inexactly, by at most FRAME_NEWTON_STEPS damped
    Newton steps.
    """

    direction: str = "gradient"
    include_orth: bool = False
    history: int = 7
    grad_tol: float = 1e-8
    f_tol: float = 0.0
    max_iters: int = 1000
    max_matvecs: int | None = 100_000


def _desc(cfg):
    return (f"name=sesop,direction={cfg.direction},orth={int(cfg.include_orth)},"
            f"history={cfg.history}")


def run_sesop(obj, x0, config=None, callback=None, aux_metric=None):
    """Run the subspace solver; returns (x, trace).

    Stops when the stationarity measure drops below grad_tol (composite:
    infinity norm of the surrogate step, absolute; smooth: gradient norm
    relative to the starting gradient), on relative f stagnation below
    f_tol, or on the iteration / matvec budget. It ends "stalled" when a
    frame step leaves x unchanged in floating point (alpha = 0, or a step
    below the last digit of every x_j).

    ``aux_metric`` is an optional (name, fn) pair; fn(x) is evaluated at
    every recorded iterate and stored in the trace's aux column.
    """
    cfg = config if config is not None else SesopConfig()
    try:
        direction = DirectionKind(cfg.direction)
    except ValueError:
        raise ValueError(
            f"{cfg.direction!r} is not a valid direction; valid: "
            + ", ".join(sorted(d.value for d in DirectionKind))) from None
    if isinstance(obj, CompositeObjective):
        return _run_composite(obj, x0, cfg, direction, callback, aux_metric)
    return _run_smooth(obj, x0, cfg, direction, callback, aux_metric)


def _run_composite(comp, x0, cfg, direction, callback, aux_metric=None):
    c = comp.ssf_constant  # force the lazy power iteration before reset
    rec = Recorder(comp, _desc(cfg), stop_at=cfg.grad_tol, f_tol=cfg.f_tol,
                   max_iters=cfg.max_iters, max_matvecs=cfg.max_matvecs,
                   callback=callback, aux_metric=aux_metric)
    op, mu, eps = comp.op, comp.mu, comp.smoothing_eps
    if direction == DirectionKind.PCD:
        col_nsq = op.column_norms_sq()
        if col_nsq is None:
            raise ValueError("pcd needs per-column norms from the operator")
        pcd_recip = pcd_reciprocals(col_nsq)

    x = np.array(x0, dtype=np.float64)
    r = comp.residual(x)
    r_start = r.copy()
    f = comp.value_from_residual(r, x)
    orth = OrthState(x) if cfg.include_orth else None
    hist = HistoryBuffer(max(cfg.history, 1))

    k = 0
    while True:
        atr = op.adjoint(r)
        d_ssf = ssf_direction(x, atr, c, mu)
        if rec.row(k, k, f, float(np.max(np.abs(d_ssf))), x):
            break

        g_s = None  # smoothed gradient, for the columns that use it
        if direction == DirectionKind.GRADIENT or orth is not None:
            g_s = 2.0 * atr
            if mu != 0.0:
                g_s = g_s + mu * smooth_abs_grad(x, eps)
        cols = []
        if direction == DirectionKind.PCD:
            cols.append((pcd_direction(x, atr, pcd_recip, mu), "pcd", None))
        elif direction == DirectionKind.SSF:
            cols.append((d_ssf, "ssf", None))
        else:
            cols.append((-g_s, "gradient", None))
        if orth is not None:
            wdir, tstep = dir_orth_update(orth, x, g_s)
            cols.append((wdir, "orth_wgrad", None))
            cols.append((tstep, "orth_tstep", r - r_start))

        frame = build_frame(x, cols, hist, cfg.history, op=op,
                            with_products=True)
        res = subspace_minimize(comp, frame, max_inner=FRAME_NEWTON_STEPS,
                                residual=r)
        rec.note(res.events)
        if not np.any(res.alpha) or not (res.x - x).any():
            # no step, or one lost below x's last digit
            return x, rec.finish("stalled")
        # D alpha and A D alpha, free of the cancellation in x and r
        hist.push_step(frame.basis @ res.alpha, frame.products @ res.alpha)
        x, r, f = res.x, res.residual, res.f
        k += 1
    return x, rec.finish()


def _run_smooth(obj, x0, cfg, direction, callback, aux_metric=None):
    if direction in (DirectionKind.PCD, DirectionKind.SSF):
        raise TypeError(f"direction {direction.value!r} needs a composite objective")
    rec = Recorder(obj, _desc(cfg), f_tol=cfg.f_tol, max_iters=cfg.max_iters,
                   max_matvecs=cfg.max_matvecs, callback=callback,
                   aux_metric=aux_metric)

    # linear-loss objectives carry z = A x and cache the frame's products;
    # each new iterate's z is handed to the objective, so one that caches
    # A x takes the gradient there without another pass of A
    op = obj.linear_map if "linear_loss" in obj.capabilities else None
    x = np.array(x0, dtype=np.float64)
    z = None if op is None else op.apply(x)
    z_start = z
    f, g = obj.value_and_grad(x)
    gnorm = float(np.linalg.norm(g))
    rec.stop_at = cfg.grad_tol * (1.0 + gnorm)
    orth = OrthState(x) if cfg.include_orth else None
    hist = HistoryBuffer(max(cfg.history, 1))

    k = 0
    while not rec.row(k, k, f, gnorm, x):
        cols = [(-g, "gradient", None)]
        if orth is not None:
            wdir, tstep = dir_orth_update(orth, x, g)
            cols.append((wdir, "orth_wgrad", None))
            cols.append((tstep, "orth_tstep", None if z is None else z - z_start))

        frame = build_frame(x, cols, hist, cfg.history, op=op,
                            with_products=op is not None)
        res = subspace_minimize(obj, frame, max_inner=FRAME_NEWTON_STEPS,
                                residual=z)
        rec.note(res.events)
        step = res.x - x
        if not np.any(res.alpha) or not step.any():
            # no step, or one lost below x's last digit
            return x, rec.finish("stalled")
        if z is None:
            hist.push_step(step)
        else:  # D alpha and A D alpha, free of the cancellation in x and z
            hist.push_step(frame.basis @ res.alpha, frame.products @ res.alpha)
        x, z = res.x, res.residual
        if z is not None:
            obj.seed_linear_map(x, z)
        f, g = obj.value_and_grad(x)
        gnorm = float(np.linalg.norm(g))
        k += 1
    return x, rec.finish()
