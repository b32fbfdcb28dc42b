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

Composite (||A x - b||^2 + mu ||x||_1) and linear-loss (sum phi(A x) +
x^T Q x / 2) objectives share one reduced solve on the cached products
A*D, as a square of one affine image of the point plus an elementwise sum
over another: its Newton loop applies no operator, values the square
exactly along each direction and a batch of Armijo trial points per pass
over the elementwise image, and its step's product A*(D alpha) comes free
to seed the history cache. Other smooth objectives use value/grad/hvp at
full-space points. One damped Newton loop drives both solves.
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
    The store also keeps the frame solve's arrays for the run.
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
        self._solve_buffers = None  # the cached-products frame solve's arrays

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
    step: np.ndarray | None = None     # D alpha; x - base on the hvp path
    a_step: np.ndarray | None = None   # A D alpha, from the frame's products


def _armijo_reduced(phi, alpha, delta, f0, slope, c1=1e-4, rho=0.5, max_bt=40):
    """Backtrack t along delta in reduced coordinates; (alpha + t delta,
    its value) for the first t that passes, or None."""
    t = 1.0
    for _ in range(max_bt + 1):
        cand = alpha + t * delta
        f_new = phi(cand)
        if f_new <= f0 + c1 * t * slope:
            return cand, f_new
        t *= rho
    return None


def subspace_minimize(obj, frame, inner_tol=1e-10, max_inner=20,
                      residual=None, f_base=None):
    """Minimize the objective over the affine frame by damped Newton from
    its base point (alpha = 0).

    Composite and linear-loss objectives take the cached-products path:
    the reduced gradient and Hessian are built from the frame's products
    A*D and the carried image of the base point, so no operator is
    applied during the inner loop. That path needs ``frame.products``;
    ``residual`` is A x - b (composite) or A x (linear loss) at the base,
    applied once when omitted, and the result carries it at the new point.
    Other objectives use value/grad/hvp at full-space points. The result
    carries the step to push to the history: D alpha (x - base on the hvp
    path) as ``step`` and, with products, A D alpha as ``a_step``.

    On the cached-products path the exact value is re-checked at the end
    and the step is shrunk if smoothing or rounding ever made it an ascent
    step, so the returned f never exceeds f at the base point: ``f_base``,
    valued from the residual when it is omitted. Other objectives do not
    read it. If Newton makes no step, a backtracking search along the
    first frame column is attempted and the event is recorded.
    """
    events = []
    if isinstance(obj, CompositeObjective) or "linear_loss" in obj.capabilities:
        return _minimize_cached(obj, frame, inner_tol, max_inner, residual,
                                f_base, events)
    if "hvp" not in obj.capabilities:
        raise ValueError("subspace_minimize needs hvp for smooth objectives")

    # C order keeps the summation order, and so the traces, of smooth runs
    d = np.ascontiguousarray(frame.basis)
    x0 = frame.base
    alpha = np.zeros(frame.size)

    def phi(a):
        return obj.value(x0 + d @ a)

    f_cur = phi(alpha)

    def search(delta, slope, max_bt=40):
        nonlocal alpha, f_cur
        found = _armijo_reduced(phi, alpha, delta, f_cur, slope, max_bt=max_bt)
        if found is not None:
            alpha, f_cur = found
        return found is not None

    it = _newton(lambda: d.T @ obj.grad(x0 + d @ alpha),
                 lambda: d.T @ obj.hvp(x0 + d @ alpha, d),
                 search, inner_tol, max_inner, events)
    x = x0 + d @ alpha
    # the move made: the history keeps it, since D alpha can differ from it
    # in x's last digits, and runs at that floor then never stall
    return SubspaceResult(alpha=alpha, x=x, f=f_cur, residual=None,
                          inner_iters=it, events=events, step=x - x0)


def _newton(gradient, hessian, search, inner_tol, max_inner, events):
    """Damped Newton on a reduced objective from alpha = 0; the number of
    steps made.

    ``gradient()`` and ``hessian()`` give the reduced gradient and Hessian
    at the current point, and ``search(delta, slope, max_bt=40)`` moves to
    the first Armijo point along delta from it, returning False without
    moving when none passes. Nothing is taken after the last step. A solve
    that makes no step tries an Armijo search along the first frame column.
    """
    g = gradient()
    g_norm = math.sqrt(g.dot(g))
    tol = inner_tol * (1.0 + g_norm)
    it = 0
    while it < max_inner and g_norm > tol:
        delta, slope = _newton_step(hessian(), g)
        if not search(delta, slope):
            break
        it += 1
        if it == max_inner:  # nothing reads the gradient after the last step
            break
        g = gradient()
        g_norm = math.sqrt(g.dot(g))
    if it == 0 and g_norm > tol:
        sign = -1.0 if g[0] > 0 else 1.0
        e0 = np.zeros(g.size)
        e0[0] = sign
        slope = float(g[0]) * sign
        found = slope < 0.0 and search(e0, slope, 60)
        events.append("fallback_first_column" if found else "no_progress")
    return it


def _newton_step(hess, g):
    """(delta, slope) of the Newton step, or of -g when that step is singular,
    not finite or no descent direction."""
    with np.errstate(all="ignore"):  # NaN when hess is singular
        delta = _umath_linalg.solve1(hess, -g, signature="dd->d")
    slope = float(g.dot(delta))  # finite exactly when delta is
    if math.isfinite(slope) and slope < 0.0:
        return delta, slope
    return -g, -float(g.dot(g))


_BATCH = 4  # Armijo trial points evaluated per pass over the full space
_TRIALS = 0.5 ** np.arange(_BATCH)
_FIRST_TRIALS = _TRIALS.tolist()
_FIRST_COEF = np.stack((np.ones(_BATCH), _TRIALS), axis=1)  # rows (1, t)


class _SolveBuffers:
    """Arrays of the cached-products frame solve for frames of up to
    ``rows`` columns whose elementwise image has length ne and whose
    squared image has length ns; a history store keeps them for the solves
    of its run."""

    def __init__(self, rows, ne, ns):
        self.key = (ne, ns)
        self.rows = rows
        self.ne = ne
        self.left = _zeros(rows + 1, ne + ns)
        self.right = _zeros(rows, ne + ns)
        self.u = _zeros(ns)  # S^T delta
        # trial e, e^2 + eps^2 and s rows; the current e and E^T delta; w; ones
        work = _zeros(3 * _BATCH + 4, ne)
        work[-1] = 1.0
        self.et, self.s2t, self.st = work[:3 * _BATCH].reshape(3, _BATCH, ne)
        self.ey = work[-4:-2]
        self.w, self.ones = work[-2], work[-1]
        self._views = {}

    def views(self, k):
        """(left, right^T, the 2c S block, the 2c s row, the S block, the
        scale E block, the E * w block, the psi' row) for a frame of k
        columns."""
        views = self._views.get(k)
        if views is None:
            ne = self.ne
            left, right = self.left[:k + 1], self.right[:k]
            views = self._views[k] = (
                left, right.T, left[:k, ne:], left[k, ne:], right[:, ne:],
                right[:, :ne], left[:k, :ne], left[k, :ne])
        return views


def _solve_buffers(store, k, ne, ns):
    """The store's buffers, made anew for the largest frame it has room for
    when they do not fit; new ones for a frame without a store."""
    if store is None:
        return _SolveBuffers(k, ne, ns)
    bufs = store._solve_buffers
    if bufs is None or bufs.key != (ne, ns) or bufs.rows < k:
        bufs = store._solve_buffers = _SolveBuffers(
            max(k, store._fresh + store.max_len), ne, ns)
    return bufs


class _SmoothAbs:
    """psi(e) = sum sqrt(e^2 + eps^2), the composite's smoothed L1 term
    before its scale mu and offset n eps, on the solve buffers. Each
    valued row keeps its e^2 + eps^2 and s = sqrt(e^2 + eps^2) for the
    derivatives e / s and eps^2 / s^3."""

    def __init__(self, bufs, comp):
        eps = comp.smoothing_eps
        self.bufs, self.e2 = bufs, eps * eps
        self.scale, self.offset = comp.mu, bufs.ne * eps

    def start(self):
        """psi at the current point, its rows kept in trial row 0."""
        bufs = self.bufs
        e, s2, s = bufs.ey[0], bufs.s2t[0], bufs.st[0]
        np.multiply(e, e, s2)
        np.add(s2, self.e2, s2)
        np.sqrt(s2, s)
        return float(bufs.ones.dot(s))

    def trials(self, nb):
        """psi at the first nb trial rows, as a list."""
        bufs = self.bufs
        et, s2, s = bufs.et, bufs.s2t, bufs.st
        if nb != _BATCH:
            et, s2, s = et[:nb], s2[:nb], s[:nb]
        np.multiply(et, et, s2)
        np.add(s2, self.e2, s2)
        np.sqrt(s2, s)
        return s.dot(bufs.ones).tolist()

    def derivatives(self, i, grad, weight):
        """psi' and psi'' at the current point, valued in trial row i."""
        s2, s = self.bufs.s2t[i], self.bufs.st[i]
        np.divide(self.bufs.ey[0], s, grad)
        np.multiply(s2, s, weight)
        np.divide(self.e2, weight, weight)


class _Loss:
    """psi(e) = sum phi(e), a linear-loss objective's loss at e = A x, on
    the solve buffers (scale 1 and offset 0, both exact)."""

    scale, offset = 1.0, 0.0

    def __init__(self, bufs, obj):
        self.bufs, self.obj = bufs, obj

    def start(self):
        return float(np.add.reduce(self.obj.loss(self.bufs.ey[0])))

    def trials(self, nb):
        return np.add.reduce(self.obj.loss(self.bufs.et[:nb]), axis=1).tolist()

    def derivatives(self, i, grad, weight):
        grad[:], weight[:] = self.obj.loss_derivatives(self.bufs.ey[0])


def _minimize_cached(obj, frame, inner_tol, max_inner, residual, f_base,
                     events):
    """Damped Newton over the frame on cached products only.

    The objective is c |s|^2 + scale (psi(e) - offset) for two affine
    images of the point, s = s0 + S^T alpha and e = e0 + E^T alpha, and an
    elementwise sum psi. With D the frame's basis and P = A D its products:

    - composite ||A x - b||^2 + mu ||x||_1, smoothed: c = 1, s = A x - b
      (S = P) and e = x (E = D), psi = sum sqrt(x^2 + eps^2), scale mu and
      offset n eps; no psi when mu = 0;
    - linear loss sum phi(A x) + x^T Q x / 2: c = 1/2, s = sqrt(q) x
      (S = sqrt(q) D) and e = A x (E = P), psi = sum phi.

    One product gives the whole Newton system: the rows (E * w, 2c S) and
    (psi', 2c s) times the rows (scale E, S) are the reduced Hessian
    2c S S^T + scale E diag(w) E^T and the reduced gradient 2c S s +
    scale E psi', where w = psi''. Along delta the square term is the
    quadratic c |s + t S^T delta|^2, so only psi needs a pass over e: one
    pass values up to _BATCH Armijo trial points e + t E^T delta, t = 1,
    1/2, 1/4, ..., accepted in that order as in a one-at-a-time search,
    and the accepted one leaves what psi's derivatives need for the next
    system, taken only when one is built.

    The loop is bound by the number of numpy calls rather than by flops at
    these sizes, so it works in the frame store's buffers, kept for the
    run, through ndarray.dot (np.dot's product without its dispatch) and
    positional ``out`` arguments, and sums by dot products.
    """
    if frame.products is None:
        raise ValueError("cached-products subspace minimization needs frame "
                         "products")
    add, mul = np.add, np.multiply
    x0 = frame.base
    b = np.ascontiguousarray(frame.basis.T)  # one row per column
    p = np.ascontiguousarray(frame.products.T)
    k = b.shape[0]
    composite = isinstance(obj, CompositeObjective)
    if residual is not None:
        r0 = np.asarray(residual, dtype=np.float64)
    else:
        r0 = obj.residual(x0) if composite else obj.linear_map.apply(x0)
    if composite:
        value = obj.value_from_residual
        c, s0, srows, e0, erows = 1.0, r0, p, x0, b
        hook = _SmoothAbs if obj.mu != 0.0 else None
    else:
        q = obj.quad_diag
        if not q.min() >= 0.0:
            raise ValueError("the frame solve needs quad_diag >= 0")

        def value(z, x):
            return float(np.add.reduce(obj.loss(z))) + 0.5 * float(x @ (q * x))

        sq = np.sqrt(q)
        c, s0, srows, e0, erows = 0.5, sq * x0, b * sq, r0, p
        hook = _Loss
    if f_base is None:
        f_base = value(r0, x0)
    bufs = _solve_buffers(frame.store, k, 0 if hook is None else e0.size,
                          s0.size)
    psi = None if hook is None else hook(bufs, obj)
    left, right_t, ls, rho, rs, re, lw, lg = bufs.views(k)
    c2 = 2.0 * c
    mul(srows, c2, ls)
    mul(s0, c2, rho)  # 2c s, moved along with the Armijo steps
    rs[:] = srows
    fr = f = c * float(s0.dot(s0))
    u = bufs.u
    steps = []  # accepted (t, delta)
    prod = None
    moved = None  # the trial row moved to (-1: the start) until a system reads it

    if psi is not None:
        scale, offset = psi.scale, psi.offset
        mul(erows, scale, re)
        et, ey, w = bufs.et, bufs.ey, bufs.w
        e, y = ey  # the current e, then E^T delta
        e[:] = e0
        f += scale * (psi.start() - offset)
        moved = -1

    def gradient():
        """The reduced gradient at the current point, its Hessian with it."""
        nonlocal moved, prod
        if psi is not None:
            if moved is not None:
                if moved >= 0:
                    e[:] = et[moved]
                psi.derivatives(max(moved, 0), lg, w)
                moved = None
            mul(erows, w, lw)
        prod = left.dot(right_t)
        return prod[k]

    def search(delta, slope, max_bt=40, c1=1e-4):
        """Armijo backtracking along delta; moves and returns True, or
        False without moving when no trial point passes."""
        nonlocal fr, f, moved
        delta.dot(srows, u)
        a1 = float(rho.dot(u))
        a2 = c * float(u.dot(u))
        if psi is not None:
            delta.dot(erows, y)
        t0, left_bt = 1.0, max_bt + 1
        while left_bt > 0:
            nb = min(_BATCH, left_bt)
            ts, coef = _FIRST_TRIALS, _FIRST_COEF
            if t0 != 1.0:
                coef = _FIRST_COEF * [1.0, t0]
                ts = coef[:, 1].tolist()
            if psi is not None:
                if nb == _BATCH:
                    eb = et
                else:
                    eb, coef = et[:nb], coef[:nb]
                coef.dot(ey, eb)
                sums = psi.trials(nb)
            for i in range(nb):
                t = ts[i]
                fr_t = fr + t * a1 + t * t * a2
                f_new = fr_t + scale * (sums[i] - offset) if psi is not None else fr_t
                if f_new <= f + c1 * t * slope:
                    add(rho, (c2 * t) * u, rho)
                    fr, f = fr_t, f_new
                    steps.append((t, delta))
                    moved = i  # read only with psi
                    return True
            t0 *= 0.5 ** nb
            left_bt -= nb
        return False

    it = _newton(gradient, lambda: prod[:k], search, inner_tol, max_inner,
                 events)
    alpha = np.zeros(k)
    if steps:
        ts, deltas = zip(*steps)
        alpha += np.dot(ts, deltas)

    # never let the exact value increase: the composite's L1 term is
    # smoothed in the loop, and a linear loss is valued there incrementally
    shrink = 0
    while True:
        step, a_step = alpha.dot(b), alpha.dot(p)
        xa, ra = x0 + step, r0 + a_step
        f_exact = value(ra, xa)
        if not (f_exact > f_base and shrink < 60):
            break
        alpha = 0.5 * alpha
        shrink += 1
    if f_exact > f_base:
        alpha = np.zeros(alpha.size)
        step, a_step = np.zeros(x0.size), np.zeros(r0.size)
        xa, ra = x0.copy(), r0.copy()
        f_exact = f_base
        events.append("no_progress")
    if shrink:
        events.append("smoothing_shrink" if composite else "rounding_shrink")

    return SubspaceResult(alpha=alpha, x=xa, f=f_exact, residual=ra,
                          inner_iters=it, events=events, step=step,
                          a_step=a_step)


def line_search_backtracking(obj, x, d, f_x=None, g_x=None, c1=1e-4, rho=0.5,
                             max_backtracks=60):
    """Armijo backtracking from t = 1.

    Accepts the first t = rho^j with f(x + t d) <= f(x) + c1 t <g, d>,
    valuing the trial points through ``obj.line(x, d)``. Raises
    LineSearchError before any trial when <g, d> is not finite and
    ValueError when it is not negative; raises LineSearchError ("line
    search failed") after ``max_backtracks`` shrinks.

    Returns (t, f_new).
    """
    x = np.asarray(x, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if g_x is None:
        g_x = obj.grad(x)
    slope = float(np.asarray(g_x) @ d)
    if not math.isfinite(slope):
        raise LineSearchError("line search needs a finite slope")
    if slope >= 0.0:
        raise ValueError("line search needs a descent direction")
    if f_x is None:
        f_x = obj.value(x)
    phi = obj.line(x, d)
    t = 1.0
    for _ in range(max_backtracks + 1):
        f_new = phi(t)
        if f_new <= f_x + c1 * t * slope:
            return t, f_new
        t *= rho
    raise LineSearchError("line search failed")
