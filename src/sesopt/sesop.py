"""Sequential subspace optimization driver.

Each outer iteration minimizes f over the affine frame x_k + span{first
direction, optionally the two ORTH columns, up to M previous steps} by at
most FRAME_NEWTON_STEPS damped Newton steps, and takes the result as the
next iterate. SESOP needs only an approximate frame minimizer; on
quadratics one Newton step is already exact.

One loop serves every objective. A composite least-squares objective
carries r = A x - b: one adjoint per iteration gives A^T r, and from it
the stationarity measure (the surrogate step) and the PCD, SSF or
gradient direction; the frame solve returns the exact f. Other
objectives take f and the gradient from ``value_and_grad``, and a linear
loss carries A x and hands it to the objective at each new iterate
(``seed_linear_map``). Objectives with a linear map cache the frame
products A @ D, so the frame solve applies no operators, and a composite
iteration costs exactly two operator applications unless ORTH is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import CompositeObjective
from .kernels import pcd_direction, pcd_reciprocals, ssf_direction
from .subspace import HistoryBuffer, build_frame, subspace_minimize
from .trace import Recorder

__all__ = ["DirectionKind", "OrthState", "dir_orth_update", "run_sesop"]

# damped Newton steps per frame solve; one doubles the matvecs to target
# on fig1, three gains nothing over two
FRAME_NEWTON_STEPS = 2


class DirectionKind(str, Enum):
    GRADIENT = "gradient"
    PCD = "pcd"
    SSF = "ssf"


@dataclass
class OrthState:
    """Running state for the two auxiliary ORTH directions.

    Weights follow w_0 = 1, w_k = 1/2 + sqrt(1/4 + w_{k-1}^2), so the
    weighted gradient sum emphasizes recent gradients; the second direction
    is the total step x_k - x_0.
    """

    x0: np.ndarray
    w: float = 0.0
    k: int = 0
    weighted_grad_sum: np.ndarray = field(default=None)

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=np.float64).copy()


def dir_orth_update(state, x_k, g_k):
    """Advance the ORTH state with the iterate/gradient pair at step k.

    Returns (weighted_grad_dir, total_step_dir): the unit-normalized
    negative weighted gradient sum and x_k - x0. At k = 0 the total step is
    the zero vector (the frame builder drops it).
    """
    g_k = np.asarray(g_k, dtype=np.float64)
    if state.k == 0:
        state.w = 1.0
        state.weighted_grad_sum = state.w * g_k
    else:
        state.w = 0.5 + np.sqrt(0.25 + state.w * state.w)
        state.weighted_grad_sum = state.weighted_grad_sum + state.w * g_k
    state.k += 1

    wsum = state.weighted_grad_sum
    nrm = float(np.linalg.norm(wsum))
    wdir = -wsum / nrm if nrm > 0 else np.zeros_like(wsum)
    return wdir, np.asarray(x_k, dtype=np.float64) - state.x0


def run_sesop(obj, x0, *, direction="gradient", orth=False, history=7,
              grad_tol=1e-8, f_tol=0.0, max_iters=1000, max_matvecs=100_000,
              callback=None, aux_metric=None):
    """Run the subspace solver; returns (x, trace).

    ``direction`` is the first frame column ("gradient", "pcd" or "ssf");
    ``orth`` adds the weighted-gradient and total-step columns, which
    carry the accelerated worst-case rate; ``history`` is the number of
    previous steps in each frame (ValueError when negative). Each frame
    is solved inexactly, by at most FRAME_NEWTON_STEPS damped Newton
    steps.

    Stops when the stationarity measure drops below grad_tol (composite:
    infinity norm of the surrogate step, absolute; smooth: gradient norm
    relative to the starting gradient), on relative f stagnation below
    f_tol, or on the iteration / matvec budget (``max_matvecs=None`` sets
    none). It ends "stalled" when a frame step leaves x unchanged in
    floating point (alpha = 0, or a step below the last digit of every
    x_j).

    ``aux_metric`` is an optional (name, fn) pair; fn(x) is evaluated at
    every recorded iterate and stored in the trace's aux column.
    """
    desc = (f"name=sesop,direction={direction},orth={int(orth)},"
            f"history={history}")
    try:
        direction = DirectionKind(direction)
    except ValueError:
        raise ValueError(
            f"{direction!r} is not a valid direction; valid: "
            + ", ".join(sorted(d.value for d in DirectionKind))) from None
    hist = HistoryBuffer(history)
    lsq = isinstance(obj, CompositeObjective)
    if lsq:
        op = obj.op
        c = obj.ssf_constant  # force the lazy power iteration before reset
    elif direction != DirectionKind.GRADIENT:
        raise TypeError(f"direction {direction.value!r} needs a composite objective")
    else:
        op = obj.linear_map if "linear_loss" in obj.capabilities else None
    rec = Recorder(obj, desc, f_tol=f_tol, max_iters=max_iters,
                   max_matvecs=max_matvecs, callback=callback,
                   aux_metric=aux_metric)
    if direction == DirectionKind.PCD:
        col_nsq = op.column_norms_sq()
        if col_nsq is None:
            raise ValueError("pcd needs per-column norms from the operator")
        pcd_recip = pcd_reciprocals(col_nsq)

    # p carries A x - b (composite) or A x (linear loss) across iterations
    x = np.array(x0, dtype=np.float64)
    if lsq:
        p = obj.residual(x)
        f = obj.value_from_residual(p, x)
    else:
        p = None if op is None else op.apply(x)
    p_start = p
    orth_state = OrthState(x) if orth else None
    ssf_out, pcd_out, work = np.empty((3, x.size))  # direction buffers

    k = 0
    while True:
        if lsq:
            atr = op.adjoint(p)
            d_ssf = ssf_direction(x, atr, c, obj.mu, ssf_out, work)
            stat = float(np.abs(d_ssf, out=work).max())
        else:
            if k and p is not None:  # the objective values the start itself
                obj.seed_linear_map(x, p)
            f, g = obj.value_and_grad(x)
            stat = float(np.linalg.norm(g))
        if k == 0:  # absolute on the composite, else relative to the start
            rec.stop_at = grad_tol * (1.0 if lsq else 1.0 + stat)
        if rec.row(k, k, f, stat, x):
            break

        if lsq and (direction == DirectionKind.GRADIENT or orth):
            g = obj.smooth_grad(atr, x)
        if direction == DirectionKind.PCD:
            cols = [(pcd_direction(x, atr, pcd_recip, obj.mu, pcd_out, work),
                     "pcd", None)]
        elif direction == DirectionKind.SSF:
            cols = [(d_ssf, "ssf", None)]
        else:
            cols = [(-g, "gradient", None)]
        if orth:
            wdir, tstep = dir_orth_update(orth_state, x, g)
            cols.append((wdir, "orth_wgrad", None))
            cols.append((tstep, "orth_tstep", None if p is None else p - p_start))

        frame = build_frame(x, cols, hist, op=op)
        res = subspace_minimize(obj, frame, max_inner=FRAME_NEWTON_STEPS,
                                residual=p, f_base=f)
        rec.note(res.events)
        if not res.alpha.any() or not (res.x - x).any():
            # no step, or one lost below x's last digit
            return x, rec.finish("stalled")
        # the solve's step and its product (None without products): D alpha
        # and A D alpha, free of the cancellation in x and p
        hist.push_step(res.step, res.a_step)
        x, p, f = res.x, res.residual, res.f  # smooth objectives revalue f
        k += 1
    return x, rec.finish()
