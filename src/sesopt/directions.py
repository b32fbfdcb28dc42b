"""Per-iteration search directions fed into the subspace frame.

Every function returns a full-space vector (never normalized here; the
frame conditioning owns scaling). The PCD and SSF directions of composite
objectives are the elementwise kernels in ``kernels``, applied by the
solvers to the A^T r they already hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import NewtonUnavailableError

__all__ = [
    "DirectionKind",
    "OrthState",
    "dir_orth_update",
    "dir_newton",
]


class DirectionKind(str, Enum):
    GRADIENT = "gradient"
    PCD = "pcd"
    SSF = "ssf"
    NEWTON = "newton"


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


def dir_newton(obj, x, g):
    """Newton direction d = -H(x)^{-1} g via the objective's Hessian solve.

    Requires the hessian_solve capability; raises NewtonUnavailableError
    (message "newton direction unavailable") when the solve fails or the
    result is not a descent direction, so callers can fall back to the
    gradient. A zero gradient returns the zero vector.
    """
    g = np.asarray(g, dtype=np.float64)
    if not np.any(g):
        return np.zeros_like(g)
    d = obj.hessian_solve(x, -g)
    if not np.all(np.isfinite(d)) or float(g @ d) >= 0.0:
        raise NewtonUnavailableError("newton direction unavailable")
    return d
