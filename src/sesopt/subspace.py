"""Subspace frames and the per-iteration reduced minimization.

A frame is the affine search set x_k + span(D) assembled from the current
direction(s) and recent history. Columns are normalized and selected by
the modified Gram-Schmidt rule (drop tolerance 1e-10): the surviving
normalized original columns stay as the working basis, which keeps cached
operator products valid under the rescaling. History steps are stored
normalized once, with their products, when they are pushed.

For composite objectives the reduced problem reuses the cached A*d
products, so the inner Newton loop performs zero new operator
applications; the accepted step's product A*(D alpha) then comes free as a
linear combination and can seed the history cache of the next iteration.
The least-squares part is handled in the reduced coordinates, and each
Newton step makes a fixed, small number of passes over the full space.
Linear-loss objectives (sum phi(A x) + x^T Q x / 2) take the same route
with no pass over the full space at all: their Newton steps need only
A*D, A*x at the base and the k x k matrix D^T Q D.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import CompositeObjective

__all__ = [
    "EmptySubspaceError",
    "LineSearchError",
    "HistoryBuffer",
    "SubspaceFrame",
    "SubspaceResult",
    "build_frame",
    "subspace_minimize",
    "line_search_backtracking",
]


class EmptySubspaceError(RuntimeError):
    """No usable columns survived frame conditioning."""


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without satisfying Armijo."""


def _normalized(vec, avec=None):
    """(vec / |vec|, avec / |vec|), or (None, None) when vec is zero or not
    finite; the second entry stays None without avec."""
    vec = np.asarray(vec, dtype=np.float64)
    nrm = math.sqrt(vec.dot(vec))
    if not (nrm > 0.0 and math.isfinite(nrm)):
        return None, None
    return vec / nrm, None if avec is None else np.asarray(avec, dtype=np.float64) / nrm


class HistoryBuffer:
    """Ring buffer of recent steps with their cached A-products.

    Each step is stored normalized once, its A-product scaled alike, so
    frames take history columns as they are; a zero or non-finite step is
    kept as None and dropped by the frame.
    """

    def __init__(self, max_len=7):
        self.max_len = int(max_len)
        self._steps = deque(maxlen=self.max_len)

    def push_step(self, step, a_step=None):
        self._steps.appendleft(_normalized(step, a_step))

    def steps(self, k=None):
        """Newest-first list of (unit step or None, its scaled A-product or
        None); at most k entries."""
        out = list(self._steps)
        return out if k is None else out[:k]

    def __len__(self):
        return len(self._steps)


@dataclass
class SubspaceFrame:
    """Conditioned affine search frame x_k + span(basis)."""

    base: np.ndarray
    basis: np.ndarray           # (n, m), unit-norm independent columns
    tags: list
    products: np.ndarray | None = None   # A @ basis when requested
    dropped: list = field(default_factory=list)

    @property
    def size(self):
        return self.basis.shape[1]


_EPS = np.finfo(np.float64).eps


def _independent(unit, drop_tol):
    """Indices of the rows modified Gram-Schmidt keeps, in order.

    Row j survives when its distance to the span of the surviving rows
    before it exceeds ``drop_tol``. Every such distance is at least the
    smallest singular value of the whole stack, so when the Gram matrix
    less drop_tol^2 and a rounding margin still has a Cholesky factor,
    every row survives. Otherwise modified Gram-Schmidt runs on the rows,
    each survivor projected out of all later rows at once.
    """
    k, n = unit.shape
    if 0 < k <= n:
        gram = unit @ unit.T
        gram.ravel()[::k + 1] -= drop_tol * drop_tol + 8 * (n + k * k) * _EPS
        try:
            np.linalg.cholesky(gram)
            return list(range(k))
        except np.linalg.LinAlgError:
            pass
    rest = unit.copy()
    kept = []
    for j in range(k):
        wn = float(np.linalg.norm(rest[j]))
        if wn > drop_tol:
            kept.append(j)
            q = rest[j] / wn
            rest[j + 1:] -= np.outer(rest[j + 1:] @ q, q)
    return kept


def build_frame(base, columns, history=None, max_history=None, *, op=None,
                with_products=False, drop_tol=1e-10):
    """Assemble and condition a subspace frame.

    ``columns`` is an iterable of (vector, tag, a_vector-or-None)
    submissions in priority order; history steps (newest first, up to
    ``max_history``) are appended after them. Columns are normalized, and
    a column within ``drop_tol`` of the span of the kept columns before it
    is dropped (the modified Gram-Schmidt rule on the normalized copies),
    so duplicated directions collapse to one column.

    With ``with_products`` the returned frame carries A @ basis, reusing
    cached products where provided. The kept columns without one get
    theirs from a single block apply of A, so A is read once per frame and
    counted one matvec per fresh column. Basis and products are transposes
    of one-row-per-column arrays.

    Raises EmptySubspaceError when nothing survives.
    """
    base = np.asarray(base, dtype=np.float64)
    if with_products and op is None:
        raise ValueError("with_products requires an operator")
    subs = [(*_normalized(vec, avec), tag) for vec, tag, avec in columns]
    if history is not None:
        subs += [(u, au, f"step-{i + 1}")
                 for i, (u, au) in enumerate(history.steps(max_history))]

    usable = [i for i, sub in enumerate(subs) if sub[0] is not None]
    unit = np.array([subs[i][0] for i in usable]).reshape(len(usable), base.size)
    sel = _independent(unit, drop_tol)
    if not sel:
        raise EmptySubspaceError("empty subspace")
    kept = [usable[j] for j in sel]
    if len(sel) < len(usable):
        unit = unit[sel]

    products = None
    if with_products:
        rows = [subs[i][1] for i in kept]
        fresh = [j for j, au in enumerate(rows) if au is None]
        if fresh:
            for j, au in zip(fresh, op.apply(unit[fresh].T).T):
                rows[j] = au
        products = np.array(rows).T
    keep = set(kept)
    return SubspaceFrame(
        base=base, basis=unit.T, tags=[subs[i][2] for i in kept],
        products=products,
        dropped=[tag for i, (_, _, tag) in enumerate(subs) if i not in keep])


@dataclass
class SubspaceResult:
    alpha: np.ndarray
    x: np.ndarray
    f: float
    residual: np.ndarray | None
    inner_iters: int
    events: list


def _armijo_reduced(phi, alpha, delta, f0, slope, c1=1e-4, rho=0.5, max_bt=40):
    """Backtrack t along delta in reduced coordinates; None if no decrease."""
    t = 1.0
    for _ in range(max_bt + 1):
        cand = alpha + t * delta
        f_new = phi(cand)
        if f_new <= f0 + c1 * t * slope:
            return cand, f_new
        t *= rho
    return None, f0


def subspace_minimize(obj, frame, alpha0=None, inner_tol=1e-10, max_inner=20,
                      residual=None):
    """Minimize the objective over the affine frame by damped Newton.

    Composite objectives take the cached-products path: the reduced
    gradient and Hessian are built from A*D, the residual at the base and
    the smoothed L1 curvature, so no operator is applied during the inner
    loop. Linear-loss objectives do the same from A*D and z = A x at the
    base. Both need ``frame.products``; ``residual`` is A x - b or A x at
    the base (applied once when omitted) and the result carries it at the
    new point. Other objectives use value/grad/hvp at full-space points.

    The exact composite value is re-checked at the end and the step is
    shrunk if smoothing ever made it an ascent step, so the returned f
    never exceeds f at the base point. If Newton stalls completely, a
    backtracking search along the first frame column is attempted and the
    event is recorded.
    """
    d = frame.basis
    m = frame.size
    alpha = np.zeros(m) if alpha0 is None else np.asarray(alpha0, dtype=np.float64).copy()
    events = []

    if isinstance(obj, CompositeObjective):
        return _minimize_composite(obj, frame, alpha, inner_tol, max_inner,
                                   residual, events)
    if "linear_loss" in obj.capabilities:
        return _minimize_linear_loss(obj, frame, alpha, inner_tol, max_inner,
                                     residual, events)

    if "hvp" not in obj.capabilities:
        raise ValueError("subspace_minimize needs hvp for smooth objectives")

    # C order keeps the summation order, and so the traces, of smooth runs
    d = np.ascontiguousarray(d)
    x0 = frame.base

    def phi(a):
        return obj.value(x0 + d @ a)

    def phi_grad(a):
        return d.T @ obj.grad(x0 + d @ a)

    def hessian(a):
        xa = x0 + d @ a
        return d.T @ np.column_stack([obj.hvp(xa, d[:, j]) for j in range(m)])

    alpha, f_cur, it = _damped_newton(
        phi, phi_grad, hessian, alpha, inner_tol, max_inner, events)
    x_new = x0 + d @ alpha
    return SubspaceResult(alpha=alpha, x=x_new, f=f_cur, residual=None,
                          inner_iters=it, events=events)


def _damped_newton(phi, phi_grad, hessian, alpha, inner_tol, max_inner,
                   events):
    """Damped Newton on a smooth reduced objective; (alpha, f, iters).

    Never leaves the sublevel set of alpha = 0: a result above it is reset
    to zero ("no_progress"), and a zero result is followed by the
    first-column fallback.
    """
    m = alpha.size
    f_base = phi(np.zeros(m))
    f_cur = phi(alpha) if np.any(alpha) else f_base
    g = phi_grad(alpha)
    g_norm = math.sqrt(g.dot(g))
    tol = inner_tol * (1.0 + g_norm)
    it = 0
    while it < max_inner and g_norm > tol:
        delta, slope = _newton_step(hessian(alpha), g)
        cand, f_new = _armijo_reduced(phi, alpha, delta, f_cur, slope)
        if cand is None:
            break
        alpha, f_cur = cand, f_new
        g = phi_grad(alpha)
        g_norm = math.sqrt(g.dot(g))
        it += 1

    if f_cur > f_base:  # smooth path: never leave the base sublevel set
        alpha = np.zeros(m)
        f_cur = f_base
        events.append("no_progress")
    if not np.any(alpha) and g_norm > tol:
        cand, f_new, event = _first_column_fallback(
            lambda delta, slope, max_bt: _armijo_reduced(
                phi, alpha, delta, f_base, slope, max_bt=max_bt),
            phi_grad(alpha))
        if cand is not None:
            alpha, f_cur = cand, f_new
        events.append(event)
    return alpha, f_cur, it


def _minimize_linear_loss(obj, frame, alpha, inner_tol, max_inner, z0,
                          events):
    """Damped Newton over the frame of a linear-loss objective on cached
    products only.

    With f(x) = sum phi(A x) + x^T Q x / 2, P = A D and z = z0 + P alpha,
    the reduced objective is sum phi(z) + q0 + c^T alpha + alpha^T G
    alpha / 2, where G = D^T Q D, c = D^T Q x0 and q0 = x0^T Q x0 / 2, so
    its gradient P^T phi'(z) + c + G alpha and Hessian P^T diag(phi''(z)) P
    + G need no pass over the full space. The result carries z at the new
    point as its residual, and its f is valued there from z and x.
    """
    if frame.products is None:
        raise ValueError("linear-loss subspace minimization needs frame products")
    d, p, x0 = frame.basis, frame.products, frame.base
    q = obj.quad_diag
    z0 = obj.linear_map.apply(x0) if z0 is None else np.asarray(z0, dtype=np.float64)
    qd = q[:, None] * d
    gram = d.T @ qd
    c = x0 @ qd
    q0 = 0.5 * float(x0 @ (q * x0))

    def phi(a):
        return (float(np.add.reduce(obj.loss(z0 + p @ a))) + q0 + float(c.dot(a))
                + 0.5 * float(a.dot(gram @ a)))

    def phi_grad(a):
        d1, _ = obj.loss_derivatives(z0 + p @ a)
        return d1 @ p + c + gram @ a

    def hessian(a):
        _, d2 = obj.loss_derivatives(z0 + p @ a)
        return p.T @ (d2[:, None] * p) + gram

    alpha, _, it = _damped_newton(
        phi, phi_grad, hessian, alpha, inner_tol, max_inner, events)
    x_new = x0 + d @ alpha
    z_new = z0 + p @ alpha
    f_new = float(np.add.reduce(obj.loss(z_new))) + 0.5 * float(x_new @ (q * x_new))
    return SubspaceResult(alpha=alpha, x=x_new, f=f_new, residual=z_new,
                          inner_iters=it, events=events)


def _newton_step(hess, g):
    """(delta, slope) of the Newton step, or of -g when that step is singular,
    not finite or no descent direction."""
    try:
        delta = np.linalg.solve(hess, -g)
        slope = float(g.dot(delta))  # finite exactly when delta is
        if math.isfinite(slope) and slope < 0.0:
            return delta, slope
    except np.linalg.LinAlgError:
        pass
    return -g, -float(g.dot(g))


def _first_column_fallback(search, g0):
    """Armijo search along the first frame column when Newton made no move.

    ``g0`` is the reduced gradient at alpha = 0 and ``search(delta, slope,
    max_bt)`` backtracks from there, returning (result, f) with result None
    on failure. Returns (result, f, event); result and f are None when no
    decrease was found.
    """
    slope = float(g0[0])
    direction = -1.0 if slope > 0 else 1.0
    slope = slope * direction
    if slope < 0.0:
        e0 = np.zeros(g0.size)
        e0[0] = direction
        cand, f_new = search(e0, slope, 60)
        if cand is not None:
            return cand, f_new, "fallback_first_column"
    return None, None, "no_progress"


_BATCH = 4  # Armijo trial points evaluated per pass over the full space
_TRIALS = 0.5 ** np.arange(_BATCH)
_FIRST_TRIALS = _TRIALS.tolist()
_FIRST_COEF = np.stack((np.ones(_BATCH), _TRIALS), axis=1)  # rows (1, t)


def _minimize_composite(comp, frame, alpha, inner_tol, max_inner, residual,
                        events):
    """Damped Newton over the frame on cached products only.

    With P = (AD)^T, r = r0 + P^T alpha and x = x0 + D alpha, one product
    gives the whole Newton system: the rows (D * w, 2 P) and (x / s, 2 r)
    times the rows (mu D, P) are the reduced Hessian 2 P P^T + mu D diag(w)
    D^T and the reduced gradient 2 P r + mu D (x / s), where s = sqrt(x^2 +
    eps^2) and w = eps^2 / s^3. Along delta the least-squares part is the
    quadratic |r + t P^T delta|^2, so only the smoothed L1 term needs a pass
    over x: one pass values up to _BATCH Armijo trial points x + t D delta,
    t = 1, 1/2, 1/4, ..., accepted in that order as in a one-at-a-time
    search, and the accepted one leaves x / s and w for the next system.

    The loop is bound by the number of numpy calls rather than by flops at
    these sizes, so it works in preallocated buffers through np.dot and
    positional ``out`` arguments, and sums by dot products.
    """
    if frame.products is None:
        raise ValueError("composite subspace minimization needs frame products")
    dot, add, mul, div = np.dot, np.add, np.multiply, np.divide
    x0 = frame.base
    b = np.ascontiguousarray(frame.basis.T)  # one row per column
    p = np.ascontiguousarray(frame.products.T)
    k, n = b.shape
    r0 = comp.residual(x0) if residual is None else np.asarray(residual, dtype=np.float64)
    mu, eps = comp.mu, comp.smoothing_eps
    e2, n_eps = eps * eps, n * eps
    nx = n if mu != 0.0 else 0  # the L1 columns of the product
    moved = alpha.any()
    r = r0 + dot(alpha, p) if moved else r0
    left = np.empty((k + 1, nx + p.shape[1]))
    right = np.empty((k, nx + p.shape[1]))
    mul(p, 2.0, left[:k, nx:])
    mul(r, 2.0, left[k, nx:])
    right[:, nx:] = p
    rho = left[k, nx:]  # 2 r, moved along with the Armijo steps
    fr = f = float(dot(r, r))
    u = np.empty(p.shape[1])  # P^T delta
    steps = []  # accepted (t, delta)

    if mu != 0.0:
        mul(b, mu, right[:, :n])
        work = np.empty((3 * _BATCH + 4, n))
        xt, s2t, st = work[:_BATCH], work[_BATCH:2 * _BATCH], work[2 * _BATCH:3 * _BATCH]
        rows = list(zip(xt, s2t, st))
        xy = work[-4:-2]  # the current x, then D delta
        x, y = xy
        w, ones = work[-2], work[-1]
        ones.fill(1.0)
        lw, lq = left[:k, :n], left[k, :n]
        if moved:
            add(x0, dot(alpha, b), x)
        else:
            x[:] = x0
        xt[0] = x
        mul(x, x, s2t[0])
        add(s2t[0], e2, s2t[0])
        np.sqrt(s2t[0], st[0])
        f += mu * (float(dot(ones, st[0])) - n_eps)

    def settle(xi, s2i, si):
        x[:] = xi
        div(xi, si, lq)
        mul(s2i, si, w)
        div(e2, w, w)

    def newton_system():
        """Reduced Hessian and gradient at the current point."""
        if mu != 0.0:
            mul(b, w, lw)
        prod = dot(left, right.T)
        return prod[:k], prod[k]

    def search(delta, slope, max_bt=40, c1=1e-4):
        """Armijo backtracking along delta; moves and returns (t, f), or
        (None, f) without moving when no trial point passes."""
        nonlocal fr, f
        dot(delta, p, u)
        a1 = float(dot(rho, u))
        a2 = float(dot(u, u))
        if mu != 0.0:
            dot(delta, b, y)
        t0, left_bt = 1.0, max_bt + 1
        while left_bt > 0:
            nb = min(_BATCH, left_bt)
            ts, coef = _FIRST_TRIALS, _FIRST_COEF
            if t0 != 1.0:
                coef = _FIRST_COEF * [1.0, t0]
                ts = coef[:, 1].tolist()
            if mu != 0.0:
                if nb == _BATCH:
                    xb, s2b, sb = xt, s2t, st
                else:
                    xb, s2b, sb, coef = xt[:nb], s2t[:nb], st[:nb], coef[:nb]
                dot(coef, xy, xb)
                mul(xb, xb, s2b)
                add(s2b, e2, s2b)
                np.sqrt(s2b, sb)
                sums = dot(sb, ones).tolist()
            for i in range(nb):
                t = ts[i]
                fr_t = fr + t * a1 + t * t * a2
                f_new = fr_t + mu * (sums[i] - n_eps) if mu != 0.0 else fr_t
                if f_new <= f + c1 * t * slope:
                    add(rho, (2.0 * t) * u, rho)
                    fr, f = fr_t, f_new
                    steps.append((t, delta))
                    if mu != 0.0:
                        settle(*rows[i])
                    return t, f_new
            t0 *= 0.5 ** nb
            left_bt -= nb
        return None, f

    if mu != 0.0:
        settle(*rows[0])
    hess, g = newton_system()
    g_norm = math.sqrt(dot(g, g))
    tol = inner_tol * (1.0 + g_norm)
    it = 0
    while it < max_inner and g_norm > tol:
        delta, slope = _newton_step(hess, g)
        if search(delta, slope)[0] is None:
            break
        it += 1
        if it == max_inner:  # nothing reads the system after the last step
            break
        hess, g = newton_system()
        g_norm = math.sqrt(dot(g, g))

    if not moved and not steps and g_norm > tol:
        events.append(_first_column_fallback(search, g)[2])
    if steps:
        ts, deltas = zip(*steps)
        alpha = alpha + dot(ts, deltas)

    def point(a):
        return x0 + dot(a, b), r0 + dot(a, p)

    # smoothing safety: never let the exact composite value increase
    f_base = comp.value_from_residual(r0, x0)
    xa, ra = point(alpha)
    f_exact = comp.value_from_residual(ra, xa)
    shrink = 0
    while f_exact > f_base and shrink < 60:
        alpha = 0.5 * alpha
        xa, ra = point(alpha)
        f_exact = comp.value_from_residual(ra, xa)
        shrink += 1
    if f_exact > f_base:
        alpha = np.zeros(alpha.size)
        xa, ra = x0.copy(), r0.copy()
        f_exact = f_base
        events.append("no_progress")
    if shrink:
        events.append("smoothing_shrink")

    return SubspaceResult(alpha=alpha, x=xa, f=f_exact, residual=ra,
                          inner_iters=it, events=events)


def line_search_backtracking(obj, x, d, f_x=None, g_x=None, c1=1e-4, rho=0.5,
                             max_backtracks=60):
    """Armijo backtracking from t = 1.

    Accepts the first t = rho^j with f(x + t d) <= f(x) + c1 t <g, d>.
    Requires a descent direction; raises LineSearchError ("line search
    failed") after ``max_backtracks`` shrinks.

    Returns (t, f_new).
    """
    x = np.asarray(x, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if f_x is None:
        f_x = obj.value(x)
    if g_x is None:
        g_x = obj.grad(x)
    slope = float(np.asarray(g_x) @ d)
    if slope >= 0.0:
        raise ValueError("line search needs a descent direction")
    t = 1.0
    for _ in range(max_backtracks + 1):
        f_new = obj.value(x + t * d)
        if f_new <= f_x + c1 * t * slope:
            return t, f_new
        t *= rho
    raise LineSearchError("line search failed")
