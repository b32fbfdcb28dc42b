"""Elementwise kernels of the composite and smoothed solvers.

These are the non-BLAS loops of the package: the soft-threshold prox,
the PCD/SSF direction assembly, and the smoothed-absolute-value maps used
by the inner Newton solves. Each is a short chain of NumPy ufuncs whose
operation order is fixed (a precomputed reciprocal is multiplied rather
than divided by, where noted), so solver traces are byte-reproducible.

All kernels are elementwise and return float64 arrays, new ones unless
the direction kernels are handed ``out`` and ``work`` buffers to write
into; reductions are left to ``np.sum`` at call sites.
"""

import numpy as np


def _as_f64(v):
    return np.ascontiguousarray(v, dtype=np.float64)


def soft_threshold_vec(v, tau):
    """sign(v) * max(|v| - tau, 0), elementwise; tau may be scalar or array."""
    v = _as_f64(v)
    if np.ndim(tau) == 0:
        tau = float(tau)
    else:
        tau = _as_f64(tau)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _soft_step(x, atr, inv, thr, out, work):
    """sign(u) * max(|u| - thr, 0) - x with u = x - atr * inv, written into
    ``out`` with ``work`` as scratch; in new arrays, by the same operations,
    when ``out`` is None."""
    if out is None:
        u = x - atr * inv
        return np.sign(u) * np.maximum(np.abs(u) - thr, 0.0) - x
    if work is None:
        work = np.empty_like(x)
    u = np.multiply(atr, inv, out=out)
    np.subtract(x, u, out=u)
    np.abs(u, out=work)
    np.subtract(work, thr, out=work)
    np.maximum(work, 0.0, out=work)
    np.sign(u, out=u)
    u *= work
    u -= x
    return u


def ssf_direction(x, atr, c, mu, out=None, work=None):
    """Separable-surrogate step minus x: soft(x - atr/c, mu/(2c)) - x.

    ``atr`` is A^T(Ax - b). Implemented as multiplication by 1/c. The
    result goes into ``out`` when given; ``work`` is scratch of x's size.
    """
    inv = 1.0 / float(c)
    return _soft_step(_as_f64(x), _as_f64(atr), inv, 0.5 * float(mu) * inv,
                      out, work)


def pcd_reciprocals(col_norms_sq):
    """The fixed part of pcd_direction, built once per run.

    Returns (inv, skipped): inv_j = 1/cn_j where cn_j > 0 and 0 elsewhere,
    and the indices of the skipped coordinates (cn_j <= 0).
    """
    cn = _as_f64(col_norms_sq)
    ok = cn > 0.0
    inv = np.zeros_like(cn)
    inv[ok] = 1.0 / cn[ok]
    return inv, np.flatnonzero(~ok)


def pcd_direction(x, atr, reciprocals, mu, out=None, work=None):
    """Parallel-coordinate-descent direction.

    Per coordinate j with column norm squared cn_j > 0:
        d_j = soft(x_j - atr_j / cn_j, mu / (2 cn_j)) - x_j
    Coordinates with cn_j <= 0 get d_j = 0 (skipped). ``reciprocals`` is
    ``pcd_reciprocals(cn)``. The result goes into ``out`` when given;
    ``work`` is scratch of x's size.
    """
    inv, skipped = reciprocals
    d = _soft_step(_as_f64(x), _as_f64(atr), inv, 0.5 * float(mu) * inv,
                   out, work)
    if skipped.size:
        d[skipped] = 0.0
    return d


def smooth_abs(x, eps):
    """sqrt(x^2 + eps^2) - eps elementwise (exact |x| when eps == 0)."""
    x = _as_f64(x)
    eps = float(eps)
    return np.sqrt(x * x + eps * eps) - eps


def smooth_abs_grad(x, eps):
    """d/dx of smooth_abs: x / sqrt(x^2 + eps^2); sign(x) when eps == 0."""
    x = _as_f64(x)
    eps = float(eps)
    if eps == 0.0:
        return np.sign(x)
    return x / np.sqrt(x * x + eps * eps)


def smooth_abs_hess(x, eps):
    """Second derivative of smooth_abs: eps^2 / (x^2 + eps^2)^(3/2)."""
    x = _as_f64(x)
    eps = float(eps)
    if eps == 0.0:
        return np.zeros_like(x)
    e2 = eps * eps
    t = x * x + e2
    return e2 / (t * np.sqrt(t))
