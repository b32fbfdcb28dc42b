"""Subspace frames and the per-iteration reduced minimization.

A frame is the affine search set x_k + span(D) assembled from the current
direction(s) and recent history. Columns are normalized and selected by
the modified Gram-Schmidt rule (drop tolerance 1e-10): the surviving
normalized original columns stay as the working basis, which keeps cached
operator products valid under the rescaling. History steps are stored
normalized once, with their products, when they are pushed, in a store
that also carries their Gram block; a frame's fresh columns go into the
store's rows just above them, so a frame is usually a view of contiguous
rows, certified from the carried inner products.

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
import mmap
from dataclasses import dataclass, field

import numpy as np
# The LAPACK gufuncs behind np.linalg.solve and np.linalg.cholesky, called
# with the signature those use, so results are bitwise theirs. At k x k
# sizes the public functions spend most of their time on argument checks
# and error-state switching, and a SESOP iteration makes three such calls.
# A failed factorization comes back as NaN rather than LinAlgError.
from numpy.linalg import _umath_linalg

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


def _zeros(*shape):
    """A float64 array of zeros in an anonymous memory mapping of its own.

    A store's arrays live for a whole run. In the malloc heap they could
    split the hole a freed large array leaves, so that the next large
    array grows the heap instead: a process that rebuilt an SVM problem
    between runs then peaked at one more copy of its data.
    """
    size = math.prod(shape)
    buf = mmap.mmap(-1, 8 * max(size, 1))
    return np.frombuffer(buf, dtype=np.float64)[:size].reshape(shape)


class HistoryBuffer:
    """Newest-first store of recent unit steps, their products and their
    Gram block, shared with the frames built on it.

    The steps lie in preallocated rows, newest first from row ``_head``;
    ``build_frame`` writes a frame's fresh columns into the rows just above
    them, so a frame is contiguous rows and its basis and products are
    views, valid until the next push or frame. Each step is stored
    normalized once, its product scaled alike. A zero or non-finite step,
    or one whose product is not finite, keeps its slot but no row, and
    frames drop it. The inner products of a step are taken once, at the
    first frame after its push, and those of fresh columns at their frame.
    The store also keeps the composite frame solve's arrays for the run.
    """

    def __init__(self, max_len=7):
        self.max_len = int(max_len)
        # per slot, newest first: True (unit and product), False (unit
        # only) or None (rejected, no row)
        self._slots = []
        self._head = 0       # row of the newest step
        self._stale = 0      # newest steps whose inner products are not taken
        self._fresh = 0      # most fresh columns asked for at once
        self._units = self._products = self._gram = None
        self._solve_buffers = None  # the composite frame solve's arrays

    def __len__(self):
        return len(self._slots)

    def steps(self, k=None):
        """Newest-first list of (unit step or None, its scaled product or
        None), copies of the store's rows; at most k entries."""
        out = []
        for i, state in enumerate(self._slots[:k]):
            row = self._head + i
            out.append((None, None) if state is None else (
                self._units[row].copy(),
                self._products[row].copy() if state else None))
        return out

    def _reserve(self, n, free, m=None):
        """Arrays for rows of length n (products of length m) with ``free``
        rows above the newest step."""
        self._fresh = max(self._fresh, free)
        for arr, size in ((self._units, n), (self._products, m)):
            if arr is not None and size is not None and arr.shape[1] != size:
                raise ValueError(f"history holds vectors of length "
                                 f"{arr.shape[1]}, not {size}")
        if self._units is None:
            cap = free + self.max_len + max(self.max_len, 8)
            self._units, self._gram = _zeros(cap, n), _zeros(cap, cap)
            self._head = cap
        elif self._head < free:
            self._move(free)
        if m is not None and self._products is None:
            self._products = _zeros(self._units.shape[0], m)

    def _move(self, free):
        """Move the held rows to the bottom of the arrays, into larger ones
        when that leaves fewer than ``free`` rows above them."""
        held, cap = len(self._slots), self._units.shape[0]
        if cap - held < free:
            cap = free + self.max_len + max(self.max_len, 8)
        old = slice(self._head, self._head + held)
        new = slice(cap - held, cap)
        for name in ("_units", "_products"):
            arr = getattr(self, name)
            if arr is not None:
                out = arr if arr.shape[0] == cap else _zeros(cap, arr.shape[1])
                out[new] = arr[old]
                setattr(self, name, out)
        gram = self._gram if self._gram.shape[0] == cap else _zeros(cap, cap)
        gram[new, new] = self._gram[old, old]
        self._gram = gram
        self._head = new.start

    def push_step(self, step, a_step=None):
        """Store step / |step| and a_step / |step| as the newest slot."""
        step = np.asarray(step, dtype=np.float64)
        if a_step is not None:
            a_step = np.asarray(a_step, dtype=np.float64)
        self._reserve(step.size, 1, None if a_step is None else a_step.size)
        row = self._head - 1
        nrm = math.sqrt(step.dot(step))
        state = None
        if nrm > 0.0 and math.isfinite(nrm):
            np.divide(step, nrm, out=self._units[row])
            state = a_step is not None
            if state:
                au = np.divide(a_step, nrm, out=self._products[row])
                if not math.isfinite(au.dot(au)):
                    state = None
        self._head = row
        self._slots.insert(0, state)
        del self._slots[self.max_len:]
        self._stale = min(self._stale + 1, len(self._slots))

    def _take_inner_products(self, top):
        """Gram entries of the fresh rows from ``top`` and of the steps
        pushed since the last frame, against every held row."""
        end = self._head + len(self._slots)
        new = self._head + self._stale
        if new > top:
            u, gram = self._units, self._gram
            blk = u[top:new] @ u[top:end].T
            gram[top:new, top:end] = blk
            gram[top:end, top:new] = blk.T
        self._stale = 0


@dataclass
class SubspaceFrame:
    """Conditioned affine search frame x_k + span(basis).

    ``basis`` and ``products`` may be views of the rows of the history
    store the frame was built on: the next ``push_step`` or ``build_frame``
    on that store overwrites them. Copy them to keep a frame past that.
    """

    base: np.ndarray
    basis: np.ndarray           # (n, m), unit-norm independent columns
    tags: list
    products: np.ndarray | None = None   # A @ basis when requested
    dropped: list = field(default_factory=list)
    store: HistoryBuffer | None = field(default=None, repr=False)

    @property
    def size(self):
        return self.basis.shape[1]


_EPS = np.finfo(np.float64).eps


def _independent(unit, gram, drop_tol):
    """Indices of the rows modified Gram-Schmidt keeps, in order.

    Row j survives when its distance to the span of the surviving rows
    before it exceeds ``drop_tol``. Every such distance is at least the
    smallest singular value of the whole stack, so when the Gram matrix
    ``gram`` (a copy, changed here) less drop_tol^2 and a rounding margin
    still has a Cholesky factor, every row survives. Otherwise modified
    Gram-Schmidt runs on a copy of the rows, each survivor projected out of
    all later rows at once.
    """
    k, n = unit.shape
    if 0 < k <= n:
        gram.ravel()[::k + 1] -= drop_tol * drop_tol + 8 * (n + k * k) * _EPS
        with np.errstate(all="ignore"):
            factor = _umath_linalg.cholesky_lo(gram, signature="d->d")
        if not math.isnan(factor[0, 0]):  # NaN throughout when it fails
            return list(range(k))
    rest = unit.copy()
    kept = []
    for j in range(k):
        wn = float(np.linalg.norm(rest[j]))
        if wn > drop_tol:
            kept.append(j)
            q = rest[j] / wn
            rest[j + 1:] -= np.outer(rest[j + 1:] @ q, q)
    return kept


def _rows(idx):
    """An index for the rows ``idx``: a slice, which takes views, when they
    are consecutive."""
    if idx[-1] - idx[0] == len(idx) - 1:
        return slice(idx[0], idx[-1] + 1)
    return idx


def build_frame(base, columns, history=None, max_history=None, *, op=None,
                with_products=False, drop_tol=1e-10):
    """Assemble and condition a subspace frame.

    ``columns`` is an iterable of (vector, tag, a_vector-or-None)
    submissions in priority order; history steps (newest first, up to
    ``max_history``) are appended after them. Columns are normalized, and
    a column within ``drop_tol`` of the span of the kept columns before it
    is dropped (the modified Gram-Schmidt rule on the normalized copies),
    so duplicated directions collapse to one column.

    The fresh columns go into the store's rows above its history, so
    unless a history slot is empty the frame is contiguous rows: the
    Cholesky certification reads the store's Gram block, and a frame that
    keeps every column gets the store's rows as its basis and products.
    Those are views, valid until the next ``push_step`` or ``build_frame``
    on ``history``, which overwrite the rows. Without ``history`` a store
    is made for this frame alone.

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
    store = HistoryBuffer(0) if history is None else history
    cols = [(np.asarray(vec, dtype=np.float64), tag, avec)
            for vec, tag, avec in columns]
    store._reserve(base.size, len(cols), op.rows if with_products else None)
    units, prods, head = store._units, store._products, store._head

    # the usable columns in frame order: their position among the
    # submissions, tag, row and whether their product is still to be made
    norms = [math.sqrt(vec.dot(vec)) for vec, _, _ in cols]
    good = [nrm > 0.0 and math.isfinite(nrm) for nrm in norms]
    top = row = head - good.count(True)  # fresh rows end above the history
    usable, dropped = [], []
    for i, ((vec, tag, avec), nrm, ok) in enumerate(zip(cols, norms, good)):
        if not ok:
            dropped.append(tag)
            continue
        np.divide(vec, nrm, out=units[row])
        cached = with_products and avec is not None
        if cached:
            np.divide(np.asarray(avec, dtype=np.float64), nrm, out=prods[row])
        usable.append((i, tag, row, not cached))
        row += 1
    held = store._slots if max_history is None else store._slots[:max_history]
    for i, state in enumerate(held):
        tag = f"step-{i + 1}"
        if state is None:
            dropped.append(tag)
        else:
            usable.append((len(cols) + i, tag, head + i, not state))
    store._take_inner_products(top)
    if not usable:
        raise EmptySubspaceError("empty subspace")

    rows = [u[2] for u in usable]
    span = _rows(rows)
    if isinstance(span, slice):
        gram = store._gram[span, span].copy()
    else:  # an empty history slot splits the rows
        gram = store._gram[np.ix_(rows, rows)]
    sel = _independent(units[span], gram, drop_tol)
    if not sel:
        raise EmptySubspaceError("empty subspace")
    if len(sel) < len(usable):
        kept = [usable[j] for j in sel]
        keep = {u[0] for u in kept}
        tags = [tag for _, tag, _ in cols] + [f"step-{i + 1}"
                                              for i in range(len(held))]
        dropped = [tag for i, tag in enumerate(tags) if i not in keep]
        usable, rows = kept, [u[2] for u in kept]

    products = None
    if with_products:
        need = [u[2] for u in usable if u[3]]
        if need:
            prods[_rows(need)] = op.apply(units[_rows(need)].T).T
        products = prods[_rows(rows)].T
    return SubspaceFrame(base=base, basis=units[_rows(rows)].T,
                         tags=[u[1] for u in usable], products=products,
                         dropped=dropped, store=store)


@dataclass
class SubspaceResult:
    alpha: np.ndarray
    x: np.ndarray
    f: float
    residual: np.ndarray | None
    inner_iters: int
    events: list
    step: np.ndarray | None = None     # D alpha, so x = base + step
    a_step: np.ndarray | None = None   # A D alpha, from the frame's products


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


def subspace_minimize(obj, frame, inner_tol=1e-10, max_inner=20,
                      residual=None, f_base=None):
    """Minimize the objective over the affine frame by damped Newton from
    its base point (alpha = 0).

    Composite objectives take the cached-products path: the reduced
    gradient and Hessian are built from A*D, the residual at the base and
    the smoothed L1 curvature, so no operator is applied during the inner
    loop. Linear-loss objectives do the same from A*D and z = A x at the
    base. Both need ``frame.products``; ``residual`` is A x - b or A x at
    the base (applied once when omitted) and the result carries it at the
    new point. Other objectives use value/grad/hvp at full-space points.
    The result carries D alpha as ``step`` and, with products, A D alpha
    as ``a_step``.

    The exact composite value is re-checked at the end and the step is
    shrunk if smoothing ever made it an ascent step, so the returned f
    never exceeds f at the base point: ``f_base``, which composite
    objectives value from the residual when it is omitted and other
    objectives do not read. If Newton stalls completely, a
    backtracking search along the first frame column is attempted and the
    event is recorded.
    """
    events = []
    if isinstance(obj, CompositeObjective):
        return _minimize_composite(obj, frame, inner_tol, max_inner, residual,
                                   f_base, events)
    if "linear_loss" in obj.capabilities:
        return _minimize_linear_loss(obj, frame, inner_tol, max_inner,
                                     residual, events)

    if "hvp" not in obj.capabilities:
        raise ValueError("subspace_minimize needs hvp for smooth objectives")

    # C order keeps the summation order, and so the traces, of smooth runs
    d = np.ascontiguousarray(frame.basis)
    m = frame.size
    x0 = frame.base

    def phi(a):
        return obj.value(x0 + d @ a)

    def phi_grad(a):
        return d.T @ obj.grad(x0 + d @ a)

    def hessian(a):
        xa = x0 + d @ a
        return d.T @ obj.hvp(xa, d)

    alpha, f_cur, it = _damped_newton(
        phi, phi_grad, hessian, m, inner_tol, max_inner, events)
    step = d @ alpha
    return SubspaceResult(alpha=alpha, x=x0 + step, f=f_cur, residual=None,
                          inner_iters=it, events=events, step=step)


def _damped_newton(phi, phi_grad, hessian, m, inner_tol, max_inner, events):
    """Damped Newton on a smooth m-dimensional reduced objective from
    alpha = 0; (alpha, f, iters).

    Never leaves the sublevel set of alpha = 0: a result above it is reset
    to zero ("no_progress"), and a zero result is followed by the
    first-column fallback.
    """
    alpha = np.zeros(m)
    f_cur = f_base = phi(alpha)
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


def _minimize_linear_loss(obj, frame, inner_tol, max_inner, z0, events):
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
        phi, phi_grad, hessian, frame.size, inner_tol, max_inner, events)
    step, a_step = d @ alpha, p @ alpha
    x_new = x0 + step
    z_new = z0 + a_step
    f_new = float(np.add.reduce(obj.loss(z_new))) + 0.5 * float(x_new @ (q * x_new))
    return SubspaceResult(alpha=alpha, x=x_new, f=f_new, residual=z_new,
                          inner_iters=it, events=events, step=step,
                          a_step=a_step)


def _newton_step(hess, g):
    """(delta, slope) of the Newton step, or of -g when that step is singular,
    not finite or no descent direction."""
    with np.errstate(all="ignore"):  # NaN when hess is singular
        delta = _umath_linalg.solve1(hess, -g, signature="dd->d")
    slope = float(g.dot(delta))  # finite exactly when delta is
    if math.isfinite(slope) and slope < 0.0:
        return delta, slope
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


class _CompositeBuffers:
    """Arrays of the composite frame solve for frames of up to ``rows``
    columns of length n with products of length m; a history store keeps
    them for the solves of its run."""

    def __init__(self, rows, n, m, l1):
        self.key = (n, m, l1)
        self.rows = rows
        self.nx = nx = n if l1 else 0  # the L1 columns of the product
        self.left = np.zeros((rows + 1, nx + m))
        self.right = np.zeros((rows, nx + m))
        self.u = np.zeros(m)  # P^T delta
        # trial x, x^2 + eps^2 and s rows; the current x and D delta; w; ones
        work = np.zeros((3 * _BATCH + 4, n))
        work[-1] = 1.0
        self.xt, self.s2t, self.st = work[:3 * _BATCH].reshape(3, _BATCH, n)
        self.xy = work[-4:-2]
        self.w, self.ones = work[-2], work[-1]
        self._views = {}

    def views(self, k):
        """(left, right^T, the 2 P block, the 2 r row, the P block, the mu D
        block, the D * w block, the x / s row) for a frame of k columns."""
        views = self._views.get(k)
        if views is None:
            nx = self.nx
            left, right = self.left[:k + 1], self.right[:k]
            views = self._views[k] = (
                left, right.T, left[:k, nx:], left[k, nx:], right[:, nx:],
                right[:, :nx], left[:k, :nx], left[k, :nx])
        return views


def _composite_buffers(store, k, n, m, l1):
    """The store's buffers, made anew for the largest frame it has room for
    when they do not fit; new ones for a frame without a store."""
    if store is None:
        return _CompositeBuffers(k, n, m, l1)
    bufs = store._solve_buffers
    if bufs is None or bufs.key != (n, m, l1) or bufs.rows < k:
        bufs = store._solve_buffers = _CompositeBuffers(
            max(k, store._fresh + store.max_len), n, m, l1)
    return bufs


def _minimize_composite(comp, frame, inner_tol, max_inner, residual, f_base,
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
    search, and the accepted one leaves x / s and w for the next system,
    taken only when one is built.

    The loop is bound by the number of numpy calls rather than by flops at
    these sizes, so it works in the frame store's buffers, kept for the
    run, through ndarray.dot (np.dot's product without its dispatch) and
    positional ``out`` arguments, and sums by dot products.
    """
    if frame.products is None:
        raise ValueError("composite subspace minimization needs frame products")
    add, mul, div = np.add, np.multiply, np.divide
    x0 = frame.base
    b = np.ascontiguousarray(frame.basis.T)  # one row per column
    p = np.ascontiguousarray(frame.products.T)
    k, n = b.shape
    m = p.shape[1]
    r0 = comp.residual(x0) if residual is None else np.asarray(residual, dtype=np.float64)
    if f_base is None:
        f_base = comp.value_from_residual(r0, x0)
    mu, eps = comp.mu, comp.smoothing_eps
    l1 = mu != 0.0
    bufs = _composite_buffers(frame.store, k, n, m, l1)
    left, right_t, lp, rho, rp, rd, lw, lq = bufs.views(k)
    mul(p, 2.0, lp)
    mul(r0, 2.0, rho)  # 2 r, moved along with the Armijo steps
    rp[:] = p
    fr = f = float(r0.dot(r0))
    u = bufs.u
    steps = []  # accepted (t, delta)
    accepted = None  # (x, x^2 + eps^2, s) rows of the point moved to

    if l1:
        e2, n_eps = eps * eps, n * eps
        mul(b, mu, rd)
        xt, s2t, st, xy, w, ones = (bufs.xt, bufs.s2t, bufs.st, bufs.xy,
                                    bufs.w, bufs.ones)
        x, y = xy  # the current x, then D delta
        x[:] = x0
        mul(x, x, s2t[0])
        add(s2t[0], e2, s2t[0])
        np.sqrt(s2t[0], st[0])
        f += mu * (float(ones.dot(st[0])) - n_eps)
        accepted = x, s2t[0], st[0]

    def newton_system():
        """Reduced Hessian and gradient at the current point."""
        nonlocal accepted
        if l1:
            if accepted is not None:
                xi, s2i, si = accepted
                if xi is not x:
                    x[:] = xi
                div(xi, si, lq)
                mul(s2i, si, w)
                div(e2, w, w)
                accepted = None
            mul(b, w, lw)
        prod = left.dot(right_t)
        return prod[:k], prod[k]

    def search(delta, slope, max_bt=40, c1=1e-4):
        """Armijo backtracking along delta; moves and returns (t, f), or
        (None, f) without moving when no trial point passes."""
        nonlocal fr, f, accepted
        delta.dot(p, u)
        a1 = float(rho.dot(u))
        a2 = float(u.dot(u))
        if l1:
            delta.dot(b, y)
        t0, left_bt = 1.0, max_bt + 1
        while left_bt > 0:
            nb = min(_BATCH, left_bt)
            ts, coef = _FIRST_TRIALS, _FIRST_COEF
            if t0 != 1.0:
                coef = _FIRST_COEF * [1.0, t0]
                ts = coef[:, 1].tolist()
            if l1:
                if nb == _BATCH:
                    xb, s2b, sb = xt, s2t, st
                else:
                    xb, s2b, sb, coef = xt[:nb], s2t[:nb], st[:nb], coef[:nb]
                coef.dot(xy, xb)
                mul(xb, xb, s2b)
                add(s2b, e2, s2b)
                np.sqrt(s2b, sb)
                sums = sb.dot(ones).tolist()
            for i in range(nb):
                t = ts[i]
                fr_t = fr + t * a1 + t * t * a2
                f_new = fr_t + mu * (sums[i] - n_eps) if l1 else fr_t
                if f_new <= f + c1 * t * slope:
                    add(rho, (2.0 * t) * u, rho)
                    fr, f = fr_t, f_new
                    steps.append((t, delta))
                    if l1:
                        accepted = xt[i], s2t[i], st[i]
                    return t, f_new
            t0 *= 0.5 ** nb
            left_bt -= nb
        return None, f

    hess, g = newton_system()
    g_norm = math.sqrt(g.dot(g))
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
        g_norm = math.sqrt(g.dot(g))

    if not steps and g_norm > tol:
        events.append(_first_column_fallback(search, g)[2])
    alpha = np.zeros(k)
    if steps:
        ts, deltas = zip(*steps)
        alpha += np.dot(ts, deltas)

    # smoothing safety: never let the exact composite value increase
    shrink = 0
    while True:
        step, a_step = alpha.dot(b), alpha.dot(p)
        xa, ra = x0 + step, r0 + a_step
        f_exact = comp.value_from_residual(ra, xa)
        if not (f_exact > f_base and shrink < 60):
            break
        alpha = 0.5 * alpha
        shrink += 1
    if f_exact > f_base:
        alpha = np.zeros(alpha.size)
        step, a_step = np.zeros(n), np.zeros(m)
        xa, ra = x0.copy(), r0.copy()
        f_exact = f_base
        events.append("no_progress")
    if shrink:
        events.append("smoothing_shrink")

    return SubspaceResult(alpha=alpha, x=xa, f=f_exact, residual=ra,
                          inner_iters=it, events=events, step=step,
                          a_step=a_step)


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
