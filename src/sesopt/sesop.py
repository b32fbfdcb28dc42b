"""Sequential subspace optimization driver.

Each outer iteration assembles a small frame of directions (a chosen
first direction, optionally the two growing-subspace columns, and up to M
previous steps), minimizes the objective exactly over that affine frame
and takes the result as the next iterate.

Composite least-squares objectives get the cheap path: the residual is
maintained across iterations, one adjoint per iteration provides the
gradient, the proximal step and the stationarity measure, and frame
products A @ D are cached so the inner minimization applies no operators.
With the plain gradient, coordinate-descent or surrogate first direction
this costs exactly two operator applications per outer iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._kernels import pcd_direction, smooth_abs_grad, ssf_direction
from .core import CompositeObjective, NewtonUnavailableError
from .directions import DirectionKind, OrthState, dir_newton, dir_orth_update
from .subspace import HistoryBuffer, build_frame, subspace_minimize
from .trace import new_trace

__all__ = ["SesopConfig", "run_sesop", "run_sesop_newton"]


@dataclass
class SesopConfig:
    """Knobs for the subspace driver.

    direction: first frame column ("gradient", "pcd", "ssf" or "newton").
    include_orth: add the weighted-gradient and total-step columns, which
        carry the accelerated worst-case rate.
    history: number of previous steps kept in the frame.
    """

    direction: str = "gradient"
    include_orth: bool = False
    history: int = 7
    grad_tol: float = 1e-8
    f_tol: float = 0.0
    max_iters: int = 1000
    max_matvecs: int | None = 100_000
    inner_tol: float = 1e-10
    max_inner: int = 20
    reuse_products: bool = True


def _desc(cfg):
    return (f"name=sesop,direction={cfg.direction},orth={int(cfg.include_orth)},"
            f"history={cfg.history}")


def _finish(trace, status, events):
    trace.header["status"] = status
    if events:
        trace.header["events"] = ",".join(
            f"{name}:{events[name]}" for name in sorted(events))


def _note(events, names):
    for name in names:
        events[name] = events.get(name, 0) + 1


def run_sesop(obj, x0, config=None, callback=None, aux_metric=None):
    """Run the subspace solver; returns (x, trace).

    Stops when the stationarity measure drops below grad_tol (composite:
    infinity norm of the surrogate step, absolute; smooth: gradient norm
    relative to the starting gradient), on relative f stagnation below
    f_tol, or on the iteration / matvec budget.

    ``aux_metric`` is an optional (name, fn) pair; fn(x) is evaluated at
    every recorded iterate and stored in the trace's aux column.
    """
    cfg = config if config is not None else SesopConfig()
    direction = DirectionKind(cfg.direction)
    if isinstance(obj, CompositeObjective):
        return _run_composite(obj, x0, cfg, direction, callback, aux_metric)
    return _run_smooth(obj, x0, cfg, direction, callback, aux_metric)


def run_sesop_newton(obj, x0, config=None, callback=None):
    """Subspace solver whose first column is the Newton direction."""
    cfg = config if config is not None else SesopConfig()
    cfg = SesopConfig(**{**cfg.__dict__, "direction": "newton"})
    return run_sesop(obj, x0, cfg, callback)


def _fopt(obj):
    gt = getattr(obj, "ground_truth", None)
    return None if gt is None or gt.f_opt is None else gt.f_opt


def _run_composite(comp, x0, cfg, direction, callback, aux_metric=None):
    c = comp.ssf_constant  # force the lazy power iteration before reset
    counters = comp.counters
    counters.reset()
    t0 = time.perf_counter()
    op, mu, eps = comp.op, comp.mu, comp.smoothing_eps

    x = np.array(x0, dtype=np.float64)
    r = comp.residual(x)
    r_start = r.copy()
    f = comp.value_from_residual(r, x)
    f_prev = f
    orth = OrthState(x) if cfg.include_orth else None
    hist = HistoryBuffer(max(cfg.history, 1))
    trace = new_trace(comp, _desc(cfg))
    if aux_metric is not None:
        trace.aux_name = aux_metric[0]
    events = {}
    f_opt = _fopt(comp)

    status = "max_iters"
    k = 0
    while True:
        atr = op.adjoint(r)
        d_ssf = ssf_direction(x, atr, c, mu)
        stat = float(np.max(np.abs(d_ssf)))
        trace.add(iter=k, cum_steps=k, f_value=f,
                  f_minus_fopt=None if f_opt is None else f - f_opt,
                  stat_norm=stat, matvecs=counters.matvecs,
                  hvps=counters.hvps,
                  wall_ms=(time.perf_counter() - t0) * 1e3,
                  aux=aux_metric[1](x) if aux_metric else None)
        if callback:
            callback(k, x)
        if stat <= cfg.grad_tol:
            status = "stationary"
            break
        if cfg.f_tol > 0 and k > 0 and abs(f_prev - f) <= cfg.f_tol * (1.0 + abs(f)):
            status = "f_tol"
            break
        if k >= cfg.max_iters:
            status = "max_iters"
            break
        if cfg.max_matvecs is not None and counters.matvecs >= cfg.max_matvecs:
            status = "max_matvecs"
            break
        f_prev = f

        g_s = None  # smoothed gradient, for the columns that use it
        if direction not in (DirectionKind.PCD, DirectionKind.SSF) or orth is not None:
            g_s = 2.0 * atr
            if mu != 0.0:
                g_s = g_s + mu * smooth_abs_grad(x, eps)
        cols = []
        if direction == DirectionKind.PCD:
            col_nsq = op.column_norms_sq()
            if col_nsq is None:
                raise ValueError("pcd needs per-column norms from the operator")
            d, _ = pcd_direction(x, atr, col_nsq, mu)
            cols.append((d, "pcd", None))
        elif direction == DirectionKind.SSF:
            cols.append((d_ssf, "ssf", None))
        elif direction == DirectionKind.NEWTON:
            try:
                d_n = dir_newton(comp, x, g_s)
                cols.append((d_n, "newton", None))
            except NewtonUnavailableError:
                _note(events, ["newton_unavailable"])
            cols.append((-g_s, "gradient", None))
        else:
            cols.append((-g_s, "gradient", None))
        if orth is not None:
            wdir, tstep = dir_orth_update(orth, x, g_s)
            cols.append((wdir, "orth_wgrad", None))
            cols.append((tstep, "orth_tstep", r - r_start))

        frame = build_frame(x, cols, hist, cfg.history, op=op,
                            with_products=True,
                            reuse_products=cfg.reuse_products)
        res = subspace_minimize(comp, frame, inner_tol=cfg.inner_tol,
                                max_inner=cfg.max_inner, residual=r)
        _note(events, res.events)
        if not np.any(res.alpha):
            status = "stalled"
            break
        hist.push_step(res.x - x, res.residual - r)
        x, r, f = res.x, res.residual, res.f
        k += 1
    _finish(trace, status, events)
    return x, trace


def _run_smooth(obj, x0, cfg, direction, callback, aux_metric=None):
    if direction in (DirectionKind.PCD, DirectionKind.SSF):
        raise TypeError(f"direction {direction.value!r} needs a composite objective")
    counters = obj.counters
    counters.reset()
    t0 = time.perf_counter()

    # linear-loss objectives carry z = A x and cache the frame's products
    op = obj.linear_map if "linear_loss" in obj.capabilities else None
    x = np.array(x0, dtype=np.float64)
    z = None if op is None else op.apply(x)
    z_start = z
    f, g = obj.value_and_grad(x)
    f_prev = f
    gnorm = float(np.linalg.norm(g))
    stop_at = cfg.grad_tol * (1.0 + gnorm)
    orth = OrthState(x) if cfg.include_orth else None
    hist = HistoryBuffer(max(cfg.history, 1))
    trace = new_trace(obj, _desc(cfg))
    if aux_metric is not None:
        trace.aux_name = aux_metric[0]
    events = {}
    f_opt = _fopt(obj)

    status = "max_iters"
    k = 0
    while True:
        trace.add(iter=k, cum_steps=k, f_value=f,
                  f_minus_fopt=None if f_opt is None else f - f_opt,
                  stat_norm=gnorm, matvecs=counters.matvecs,
                  hvps=counters.hvps,
                  wall_ms=(time.perf_counter() - t0) * 1e3,
                  aux=aux_metric[1](x) if aux_metric else None)
        if callback:
            callback(k, x)
        if gnorm <= stop_at:
            status = "stationary"
            break
        if cfg.f_tol > 0 and k > 0 and abs(f_prev - f) <= cfg.f_tol * (1.0 + abs(f)):
            status = "f_tol"
            break
        if k >= cfg.max_iters:
            status = "max_iters"
            break
        if cfg.max_matvecs is not None and counters.matvecs >= cfg.max_matvecs:
            status = "max_matvecs"
            break
        f_prev = f

        cols = []
        if direction == DirectionKind.NEWTON:
            try:
                cols.append((dir_newton(obj, x, g), "newton", None))
            except NewtonUnavailableError:
                _note(events, ["newton_unavailable"])
            cols.append((-g, "gradient", None))
        else:
            cols.append((-g, "gradient", None))
        if orth is not None:
            wdir, tstep = dir_orth_update(orth, x, g)
            cols.append((wdir, "orth_wgrad", None))
            cols.append((tstep, "orth_tstep", None if z is None else z - z_start))

        frame = build_frame(x, cols, hist, cfg.history, op=op,
                            with_products=op is not None,
                            reuse_products=cfg.reuse_products)
        res = subspace_minimize(obj, frame, inner_tol=cfg.inner_tol,
                                max_inner=cfg.max_inner, residual=z)
        _note(events, res.events)
        if not np.any(res.alpha):
            status = "stalled"
            break
        if z is None:
            hist.push_step(res.x - x)
        else:  # D alpha and A D alpha, free of the cancellation in x and z
            hist.push_step(frame.basis @ res.alpha, frame.products @ res.alpha)
        x, z = res.x, res.residual
        f, g = obj.value_and_grad(x)
        gnorm = float(np.linalg.norm(g))
        k += 1
    _finish(trace, status, events)
    return x, trace
