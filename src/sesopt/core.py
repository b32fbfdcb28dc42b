"""Shared abstractions: objectives, linear operators, counters, RNG.

Everything a solver touches goes through this module. Objectives expose
value/grad/hvp behind evaluation counters, a block hvp counting one per
column, and a line evaluator phi(t) = f(x + t d); linear operators
count every apply/adjoint on a shared matvec counter, which is the
primary cost axis of the benchmarks. ``LinearLossObjective`` marks objectives of
the form sum_i phi((A x)_i) + 1/2 sum_j q_j x_j^2, whose subspace solve
runs on cached products. ``CompositeObjective`` is the least-squares
plus L1 objective

    f(x) = ||A x - b||^2 + mu * ||x||_1

whose exact value is used for reporting while inner smooth solves work on
the eps-smoothed view returned by :meth:`CompositeObjective.smoothed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import smooth_abs, smooth_abs_grad, smooth_abs_hess, soft_threshold_vec

__all__ = [
    "Counters",
    "Objective",
    "CallableObjective",
    "LinearLossObjective",
    "LinearOperator",
    "DenseOperator",
    "CompositeObjective",
    "SmoothedComposite",
    "check_gradient",
    "seeded_rng",
    "soft_threshold",
    "power_iteration_sq_norm",
]


@dataclass
class Counters:
    """Cumulative evaluation counts; reset only at solver start."""

    matvecs: int = 0
    fevals: int = 0
    gevals: int = 0
    hvps: int = 0

    def reset(self):
        self.matvecs = 0
        self.fevals = 0
        self.gevals = 0
        self.hvps = 0

    def snapshot(self):
        return Counters(self.matvecs, self.fevals, self.gevals, self.hvps)


def seeded_rng(seed):
    """Deterministic generator for a 64-bit seed.

    Fixed algorithm and layout (PCG64 behind ``numpy.random.Generator``) so
    identical seeds give identical streams across runs and platforms.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return np.random.Generator(np.random.PCG64(seed))


def soft_threshold(v, tau):
    """Soft-threshold prox of tau*|.|: sign(v) * max(|v| - tau, 0).

    Scalar in, scalar out; arrays are handled elementwise (tau may then be
    an array as well).
    """
    if np.any(np.asarray(tau) < 0):
        raise ValueError("threshold must be nonnegative")
    out = soft_threshold_vec(v, tau)
    return out.item() if np.ndim(v) == np.ndim(tau) == 0 else out


class Objective:
    """Base class for differentiable (or composite) objectives.

    Subclasses implement ``_value`` and optionally ``_grad`` and ``_hvp``;
    the public methods do the counter bookkeeping. A block hvp is answered
    by ``_hvp_block``, column by column unless a subclass shares the work
    of its columns.
    ``capabilities`` reports what is actually available so solvers can
    check preconditions instead of catching AttributeError.
    """

    def __init__(self, dim, counters=None):
        self.dim = int(dim)
        self.counters = counters if counters is not None else Counters()
        self.ground_truth = None

    # -- capability flags ------------------------------------------------
    @property
    def capabilities(self):
        caps = {"value"}
        if type(self)._grad is not Objective._grad:
            caps.add("gradient")
        if type(self)._hvp is not Objective._hvp:
            caps.add("hvp")
        return frozenset(caps)

    # -- counted public interface ----------------------------------------
    def value(self, x):
        self.counters.fevals += 1
        return float(self._value(np.asarray(x, dtype=np.float64)))

    def grad(self, x):
        self.counters.gevals += 1
        return self._grad(np.asarray(x, dtype=np.float64))

    def value_and_grad(self, x):
        x = np.asarray(x, dtype=np.float64)
        self.counters.fevals += 1
        self.counters.gevals += 1
        return self._value_and_grad(x)

    def line(self, x, d):
        """phi(t) = f(x + t d), counted one feval per call as ``value``.

        Here phi(t) is ``value(x + t * d)``; an objective that can value
        points of a line more cheaply than points at large overrides this.
        """
        x = np.asarray(x, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        return lambda t: self.value(x + t * d)

    def hvp(self, x, v):
        """H(x) v; an (n, k) block of columns gives the (n, k) block of
        their products, counted as k hvps."""
        x = np.asarray(x, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 2:
            if v.shape[0] != self.dim:
                raise ValueError(f"hvp block has {v.shape[0]} rows, "
                                 f"expected {self.dim}")
            self.counters.hvps += v.shape[1]
            return self._hvp_block(x, v)
        self.counters.hvps += 1
        return self._hvp(x, v)

    # -- implementation hooks ---------------------------------------------
    def _value(self, x):
        raise NotImplementedError

    def _grad(self, x):
        raise NotImplementedError

    def _value_and_grad(self, x):
        return float(self._value(x)), self._grad(x)

    def _hvp(self, x, v):
        raise NotImplementedError

    def _hvp_block(self, x, v):
        # one column at a time, each bitwise that of hvp, in the layout of v
        out = np.empty_like(v)
        for j in range(v.shape[1]):
            out[:, j] = self._hvp(x, v[:, j])
        return out


class CallableObjective(Objective):
    """Adapter wrapping plain callables; handy for tests and small studies."""

    def __init__(self, dim, value, grad=None, hvp=None, counters=None):
        super().__init__(dim, counters)
        self._fn_value = value
        self._fn_grad = grad
        self._fn_hvp = hvp

    @property
    def capabilities(self):
        caps = {"value"}
        if self._fn_grad is not None:
            caps.add("gradient")
        if self._fn_hvp is not None:
            caps.add("hvp")
        return frozenset(caps)

    def _value(self, x):
        return self._fn_value(x)

    def _grad(self, x):
        if self._fn_grad is None:
            raise NotImplementedError("objective has no gradient")
        return self._fn_grad(x)

    def _hvp(self, x, v):
        if self._fn_hvp is None:
            raise NotImplementedError("objective has no hvp")
        return self._fn_hvp(x, v)


class LinearLossObjective(Objective):
    """f(x) = sum_i phi((A x)_i) + 1/2 sum_j q_j x_j^2.

    Subclasses set ``linear_map`` (A, a counted :class:`LinearOperator` on
    the objective's own counters) and ``quad_diag`` (q >= 0), and
    implement the elementwise loss phi and its first and second
    derivatives. With them the subspace solve works on the cached products
    A @ D alone; the full-space value/grad/hvp hooks stay the subclass's
    own.
    """

    linear_map = None
    quad_diag = None

    @property
    def capabilities(self):
        return super().capabilities | {"linear_loss"}

    def loss(self, z):
        """Elementwise phi at z = A x, or at a block of rows of such z."""
        raise NotImplementedError

    def loss_derivatives(self, z):
        """Elementwise (phi', phi'') at z = A x."""
        raise NotImplementedError

    def seed_linear_map(self, x, z):
        """Take z, a solver's carried A x, for the point x; ignored here."""


class LinearOperator:
    """Counted linear map. Every apply/adjoint bumps the matvec counter.

    ``apply`` also takes an (n, k) block of columns and returns the (rows,
    k) block of their images, counted as k matvecs.
    """

    def __init__(self, rows, cols, counters=None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.counters = counters if counters is not None else Counters()

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            self.counters.matvecs += x.shape[1]
            return self._apply_block(x)
        self.counters.matvecs += 1
        return self._apply(x)

    def adjoint(self, y):
        self.counters.matvecs += 1
        return self._adjoint(np.asarray(y, dtype=np.float64))

    def column_norms_sq(self):
        """Squared column norms, or None when not cheaply available."""
        return None

    def _apply(self, x):
        raise NotImplementedError

    def _apply_block(self, u):
        # one column at a time, so each image is bitwise that of apply
        return np.array([self._apply(col) for col in u.T]).T

    def _adjoint(self, y):
        raise NotImplementedError


# bytes of matrix rows per product in a block apply: a block of rows stays
# in cache while it meets every column, so the matrix is read once
_BLOCK_BYTES = 512 * 1024


class DenseOperator(LinearOperator):
    def __init__(self, matrix, counters=None):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("dense operator expects a 2-D array")
        super().__init__(matrix.shape[0], matrix.shape[1], counters)
        self.matrix = matrix
        self._col_norms_sq = None

    def column_norms_sq(self):
        if self._col_norms_sq is None:
            self._col_norms_sq = np.einsum("ij,ij->j", self.matrix, self.matrix)
        return self._col_norms_sq

    def _apply(self, x):
        return self.matrix @ x

    def _apply_block(self, u):
        if u.shape[1] == 1:  # the matrix-vector product of apply
            return (self.matrix @ u[:, 0])[:, None]
        m = self.matrix
        out = np.empty((self.rows, u.shape[1]))
        step = max(1, _BLOCK_BYTES // max(1, m.strides[0]))
        for s in range(0, self.rows, step):
            np.dot(m[s:s + step], u, out=out[s:s + step])
        return out

    def _adjoint(self, y):
        return self.matrix.T @ y


def power_iteration_sq_norm(op, iters=50):
    """Largest eigenvalue estimate of A^T A by power iteration.

    Deterministic start vector (all ones, normalized); returns the final
    Rayleigh quotient. Uses 2*iters operator applications.
    """
    v = np.full(op.cols, 1.0 / math.sqrt(op.cols))
    lam = 0.0
    for _ in range(int(iters)):
        w = op.adjoint(op.apply(v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        lam = float(v @ w)
        v = w / nw
    return lam


class CompositeObjective(Objective):
    """f(x) = ||A x - b||^2 + mu * ||x||_1 with exact-value reporting.

    The exact objective is nonsmooth for mu > 0, so this class only carries
    gradient/hvp capabilities when mu == 0 (plain least squares, Hessian
    2 A^T A). Smooth machinery for mu > 0 lives on the
    view returned by :meth:`smoothed`, which replaces |t| with
    sqrt(t^2 + eps^2) - eps.

    The SSF majorizer constant ``c = 1.01 * sigma_max(A)^2`` is estimated
    once by power iteration at problem build time and cached.
    """

    def __init__(self, op, b, mu=0.0, smoothing_eps=1e-8):
        super().__init__(op.cols, op.counters)
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (op.rows,):
            raise ValueError("rhs length must match operator rows")
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        if not smoothing_eps > 0:
            raise ValueError("smoothing_eps must be positive")
        self.op = op
        self.b = b
        self.mu = float(mu)
        self.smoothing_eps = float(smoothing_eps)
        self.x_signal = None  # ground-truth signal when the generator knows it
        self._ssf_constant = None
        self._smoothed = None

    @property
    def capabilities(self):
        caps = {"value", "composite"}
        if self.mu == 0.0:
            caps |= {"gradient", "hvp"}
        return frozenset(caps)

    @property
    def ssf_constant(self):
        if self._ssf_constant is None:
            self._ssf_constant = 1.01 * power_iteration_sq_norm(self.op, iters=50)
        return self._ssf_constant

    def residual(self, x):
        """A x - b (one operator application)."""
        return self.op.apply(np.asarray(x, dtype=np.float64)) - self.b

    def value_from_residual(self, r, x):
        """Exact f from a maintained residual; free of operator applications."""
        v = float(r @ r)
        if self.mu != 0.0:
            v += self.mu * float(np.add.reduce(np.abs(x)))
        return v

    def smooth_value_from_residual(self, r, x):
        """Smoothed f from a maintained residual (inner-solve objective)."""
        v = float(r @ r)
        if self.mu != 0.0:
            v += self.mu * float(np.sum(smooth_abs(x, self.smoothing_eps)))
        return v

    def smooth_grad(self, atr, x):
        """Gradient of the smoothed view, 2 A^T r + mu * smooth_abs'(x),
        from atr = A^T (A x - b); the exact gradient when mu == 0."""
        g = 2.0 * atr
        if self.mu != 0.0:
            g = g + self.mu * smooth_abs_grad(x, self.smoothing_eps)
        return g

    def smoothed(self):
        """Smooth view of the composite (shared counters and operator)."""
        if self._smoothed is None:
            self._smoothed = SmoothedComposite(self)
        return self._smoothed

    def _value(self, x):
        r = self.op.apply(x) - self.b
        return self.value_from_residual(r, x)

    # with mu == 0 the smoothed view is the exact objective, bit for bit
    def _exact_smooth(self, what):
        if self.mu != 0.0:
            raise NotImplementedError(
                f"exact composite {what} undefined for mu > 0; use smoothed()")
        return self.smoothed()

    def _grad(self, x):
        return self._exact_smooth("gradient")._grad(x)

    def _value_and_grad(self, x):
        return self._exact_smooth("gradient")._value_and_grad(x)

    def _hvp(self, x, v):
        return self._exact_smooth("hvp")._hvp(x, v)


class SmoothedComposite(Objective):
    """Smoothed view of a composite: ||Ax-b||^2 + mu*sum(sqrt(x^2+eps^2)-eps)."""

    def __init__(self, parent):
        super().__init__(parent.dim, parent.counters)
        self.parent = parent

    @property
    def capabilities(self):
        return frozenset({"value", "gradient", "hvp"})

    def _value(self, x):
        p = self.parent
        return p.smooth_value_from_residual(p.residual(x), x)

    def _grad(self, x):
        p = self.parent
        return p.smooth_grad(p.op.adjoint(p.residual(x)), x)

    def _value_and_grad(self, x):
        p = self.parent
        r = p.residual(x)
        g = p.smooth_grad(p.op.adjoint(r), x)
        return p.smooth_value_from_residual(r, x), g

    def _hvp(self, x, v):
        p = self.parent
        out = 2.0 * p.op.adjoint(p.op.apply(v))
        if p.mu != 0.0:
            out = out + (p.mu * smooth_abs_hess(x, p.smoothing_eps)) * v
        return out


def check_gradient(obj, x, h=1e-6):
    """Max relative error between obj.grad and central differences.

    error_j = |(f(x + h e_j) - f(x - h e_j)) / (2h) - g_j| / (1 + |g_j|),
    maximized over coordinates. Raises ValueError("non-finite objective")
    if any probe value is non-finite.
    """
    x = np.asarray(x, dtype=np.float64)
    g = obj.grad(x)
    worst = 0.0
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fp = obj.value(x + e)
        fm = obj.value(x - e)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError("non-finite objective")
        fd = (fp - fm) / (2.0 * h)
        err = abs(fd - g[j]) / (1.0 + abs(g[j]))
        if err > worst:
            worst = err
    return worst
