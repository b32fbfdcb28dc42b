"""Benchmark problem generators.

Four families, all seeded and deterministic:

* ``make_quadratic_ls``: dense random least squares, noise-free rhs, so the
  optimum is known exactly (f_opt = 0).
* ``make_l1_ls``: least squares plus L1 with a log-spaced singular spectrum,
  condition number 10**kappa, sparse ground-truth signal.
* ``make_expsquares``: exp(-sum x) + (1/2) sum_j j^2 x_j^2, a classic smooth
  test with analytically reducible optimum.
* ``make_svm_smooth``: squared-hinge SVM primal on synthetic
  separable-with-violations data.

``ProblemSpec`` serializes the generator configuration to/from the flat
``key=value,key=value`` strings used by the CLI and trace headers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_BLOCK_BYTES, CompositeObjective, DenseOperator,
                   LinearLossObjective, LinearOperator, seeded_rng)

__all__ = [
    "GroundTruth",
    "ProblemSpec",
    "ExpSquaresObjective",
    "SvmSquaredHinge",
    "make_quadratic_ls",
    "make_l1_ls",
    "make_expsquares",
    "make_svm_smooth",
    "expsquares_ground_truth",
]


@dataclass
class GroundTruth:
    """Known optimum of a generated problem instance."""

    f_opt: float | None = None
    x_opt: np.ndarray | None = None


@dataclass
class ProblemSpec:
    """Flat, serializable description of a problem instance."""

    kind: str
    n: int
    seed: int
    m: int | None = None
    mu: float = 0.0
    kappa: float = 0.0
    noise: float = 0.0
    c_penalty: float = 1.0
    margin: float = 1.0
    violation_frac: float = 0.0

    _FIELDS = ("kind", "n", "seed", "m", "mu", "kappa", "noise",
               "c_penalty", "margin", "violation_frac")

    def to_config(self):
        """Render as ``key=value,key=value`` (skips inapplicable fields)."""
        parts = [f"kind={self.kind}", f"n={self.n}", f"seed={self.seed}"]
        if self.m is not None:
            parts.append(f"m={self.m}")
        if self.kind == "l1_ls":
            parts += [f"mu={self.mu!r}", f"kappa={self.kappa!r}", f"noise={self.noise!r}"]
        elif self.kind == "quadratic_ls":
            parts.append(f"noise={self.noise!r}")
        elif self.kind == "svm_smooth":
            parts += [
                f"c_penalty={self.c_penalty!r}",
                f"margin={self.margin!r}",
                f"violation_frac={self.violation_frac!r}",
            ]
        return ",".join(parts)

    @classmethod
    def from_config(cls, text):
        """Parse a ``key=value,...`` string; unknown keys raise ValueError."""
        kv = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad problem config item {item!r}")
            k, v = item.split("=", 1)
            kv[k.strip()] = v.strip()
        if "kind" not in kv:
            raise ValueError("problem config needs kind=...")
        kind = kv.pop("kind")
        spec = cls(kind=kind, n=0, seed=0)
        ints = {"n", "seed", "m"}
        for k, v in kv.items():
            if k not in cls._FIELDS:
                raise ValueError(f"unknown problem config key {k!r}")
            setattr(spec, k, int(v) if k in ints else float(v))
        if spec.n <= 0:
            raise ValueError("problem config needs n > 0")
        return spec

    def build(self):
        """Instantiate the objective described by this spec."""
        if self.kind == "quadratic_ls":
            obj = make_quadratic_ls(self.n, self.seed)
        elif self.kind == "l1_ls":
            m = self.m if self.m is not None else self.n
            obj = make_l1_ls(m, self.n, self.seed, mu=self.mu, kappa=self.kappa,
                             noise=self.noise if self.noise else 0.01)
        elif self.kind == "expsquares":
            obj = make_expsquares(self.n)
        elif self.kind == "svm_smooth":
            m = self.m if self.m is not None else 2 * self.n
            obj = make_svm_smooth(m, self.n, self.seed, c_penalty=self.c_penalty,
                                  margin=self.margin,
                                  violation_frac=self.violation_frac)
        else:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        obj.spec = self  # keep the requested config in trace headers
        return obj


def make_quadratic_ls(n, seed):
    """Dense noise-free least squares ||A x - b||^2.

    A is n x n with iid N(0, 1/n) entries, b = A @ x_star for a standard
    normal x_star, so f_opt = 0 at x_opt = x_star exactly.
    """
    rng = seeded_rng(seed)
    a = rng.normal(0.0, 1.0 / math.sqrt(n), size=(n, n))
    x_star = rng.standard_normal(n)
    b = a @ x_star
    obj = CompositeObjective(DenseOperator(a), b, mu=0.0)
    obj.ssf_constant  # estimate the majorizer at build time
    obj.ground_truth = GroundTruth(f_opt=0.0, x_opt=x_star)
    obj.x_signal = x_star
    obj.spec = ProblemSpec(kind="quadratic_ls", n=n, seed=seed, m=n, noise=0.0)
    obj.counters.reset()
    return obj


def make_l1_ls(m, n, seed, mu=1e-6, kappa=6.0, noise=0.01):
    """L1-regularized least squares with a controlled singular spectrum.

    A Gaussian m x n draw is reshaped by SVD to have singular values
    log-spaced from 1 down to 10**-kappa (condition number 10**kappa). The
    signal has ceil(0.05 n) nonzero standard-normal entries at seeded
    positions, and b = A @ x_signal + noise * rms(A @ x_signal) * gaussian.

    Requires m <= n (the compressed / underdetermined regime).
    """
    if m > n:
        raise ValueError("underdetermined generator expects m <= n")
    rng = seeded_rng(seed)
    g = rng.standard_normal((m, n))
    u, _, vt = np.linalg.svd(g, full_matrices=False)
    s = np.logspace(0.0, -float(kappa), num=m)
    a = (u * s) @ vt

    k_nz = math.ceil(0.05 * n)
    support = rng.choice(n, size=k_nz, replace=False)
    x_signal = np.zeros(n)
    x_signal[support] = rng.standard_normal(k_nz)

    clean = a @ x_signal
    b = clean.copy()
    if noise > 0:
        rms = float(np.linalg.norm(clean)) / math.sqrt(m)
        b = clean + noise * rms * rng.standard_normal(m)

    obj = CompositeObjective(DenseOperator(a), b, mu=mu)
    obj.ssf_constant
    obj.x_signal = x_signal
    obj.spec = ProblemSpec(kind="l1_ls", n=n, seed=seed, m=m, mu=mu,
                           kappa=float(kappa), noise=float(noise))
    obj.counters.reset()
    return obj


class _OnesRow(LinearOperator):
    """The 1 x n all-ones row: apply sums, adjoint broadcasts."""

    def _apply(self, x):
        return np.add.reduce(x, keepdims=True)

    def _adjoint(self, y):
        return np.full(self.cols, y[0])


class ExpSquaresObjective(LinearLossObjective):
    """f(x) = exp(-sum x) + (1/2) sum_j j^2 x_j^2 (j = 1..n).

    Smooth, strictly convex, with Hessian exp(-sum x) * ones ones^T +
    diag(j^2).
    As a linear loss, A is the all-ones row, phi(t) = exp(-t) and q = j^2.
    Values with sum(x) < -700 would overflow the exponential and raise.
    """

    def __init__(self, n):
        super().__init__(n)
        self.j2 = np.arange(1.0, n + 1.0) ** 2
        self.quad_diag = self.j2
        self.linear_map = _OnesRow(1, n, self.counters)

    def loss(self, z):
        # z is A x, or a block of such rows
        if z.min() < -700.0:
            raise OverflowError("exponent overflow")
        return np.exp(-z)

    def loss_derivatives(self, z):
        e = self.loss(z)
        return -e, e

    def _exp_term(self, x):
        s = float(np.add.reduce(x))
        if s < -700.0:
            raise OverflowError("exponent overflow")
        return math.exp(-s)

    def _value(self, x):
        return self._exp_term(x) + 0.5 * float(self.j2.dot(x * x))

    def _grad(self, x):
        e = self._exp_term(x)
        return self.j2 * x - e

    def _value_and_grad(self, x):
        e = self._exp_term(x)
        return e + 0.5 * float(self.j2.dot(x * x)), self.j2 * x - e

    def _hvp(self, x, v):
        e = self._exp_term(x)
        return self.j2 * v + e * float(np.add.reduce(v))


def expsquares_ground_truth(n, tol=1e-14):
    """Exact optimum of the exponents-and-squares objective.

    At the minimum j^2 x_j = exp(-sum x) for every j, so with S = sum j^-2
    the scalar s = sum x solves s = S * exp(-s); bisection to ``tol``. Then
    x_j = exp(-s) / j^2 and f_opt = exp(-s) + (1/2) exp(-2s) S.

    For n = 1 the fixed point s = exp(-s) is the omega constant
    0.5671432904...
    """
    j2 = np.arange(1.0, n + 1.0) ** 2
    big_s = float(np.sum(1.0 / j2))
    lo, hi = 0.0, big_s  # s - S e^{-s} is negative at 0, positive at S
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid - big_s * math.exp(-mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    e = math.exp(-s)
    x_opt = e / j2
    f_opt = e + 0.5 * e * e * big_s
    return GroundTruth(f_opt=f_opt, x_opt=x_opt)


def make_expsquares(n):
    """Exponents-and-squares instance with its analytic ground truth."""
    obj = ExpSquaresObjective(n)
    obj.ground_truth = expsquares_ground_truth(n)
    obj.spec = ProblemSpec(kind="expsquares", n=n, seed=0)
    return obj


class SvmSquaredHinge(LinearLossObjective):
    """Squared-hinge SVM primal:

        f(w) = 0.5 ||w||^2 + C * sum_i max(0, 1 - y_i x_i . w)^2

    Convex and differentiable with a piecewise-linear gradient; the
    generalized Hessian I + 2C X_act^T X_act (active margin rows) backs the
    hvp used by Newton-type solvers. As a linear loss, A = X (the rows,
    not copied), phi_i(t) = C max(0, 1 - y_i t)^2 and q = 1.

    The margins of the last point seen are cached, keyed on the point's
    contents, with its active rows and their coefficients y_i (1 - margin_i)
    once a gradient or an hvp asks for them. The active rows are X itself
    when every row is active, and otherwise a copy in one buffer the size
    of X that the instance keeps. The gradient w - 2C coef^T X_act is one
    pass over the active rows; an hvp, of one column or a block, is one
    more, over row blocks of ``core._BLOCK_BYTES`` that meet both of their
    products while in cache. A truncated Newton step differentiates and
    takes all its Hessian products at one point, so they share one pass
    over X for the margins and one set of active rows. A line
    phi(t) = f(w + t d) (:meth:`line`) makes one pass, for y * (X d), and
    values every trial point from the margins m at w as m + t y * (X d),
    caching each trial point with them; the point a line search accepts
    is then differentiated without another pass. A solver that carries
    z = X w may seed the cache with y * z through :meth:`seed_linear_map`.
    Margins that come from a line or a seed follow it, and can differ from
    y * (X w) in the last bits; margins computed at a point not cached are
    bitwise those of recomputing. The cache makes an instance unsafe to
    share between threads.
    """

    def __init__(self, x_rows, y, c_penalty):
        x_rows = np.ascontiguousarray(x_rows, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        super().__init__(x_rows.shape[1])
        self.x_rows = x_rows
        self.y = y
        self.c_penalty = float(c_penalty)
        self.quad_diag = np.ones(self.dim)
        self.linear_map = DenseOperator(x_rows, self.counters)
        self._at = None  # copy of the cached point
        self._margins = None
        self._active_rows = self._coef = None
        self._rows_buf = None  # holds the active rows when some are not

    def loss(self, z):
        viol = np.maximum(0.0, 1.0 - self.y * z)
        return self.c_penalty * (viol * viol)

    def loss_derivatives(self, z):
        # the second derivative is the generalized one of the hvp: 2C on
        # the active margin rows
        viol = np.maximum(0.0, 1.0 - self.y * z)
        return (-2.0 * self.c_penalty) * (self.y * viol), \
            (2.0 * self.c_penalty) * (viol > 0.0)

    def margins(self, w):
        """y * (X w), read-only; recomputed only when w's contents change."""
        if self._at is None or not np.array_equal(w, self._at):
            # a new point: drop the old entry, rows and coefficients too
            self._at = self._margins = self._active_rows = self._coef = None
            self._keep(w, self.y * self._x_dot(w))
        return self._margins

    def _x_dot(self, v):
        """X v: a pass over X for the margins of a point or of a line."""
        return self.x_rows @ v

    def line(self, w, d):
        """phi(t) = f(w + t d) from the margins at w and one pass for X d.

        Each trial point w + t d is cached with its margins, so the caller's
        ``w + t * d`` at an accepted t is differentiated without a pass
        over X.
        """
        w = np.asarray(w, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        base = self.margins(w)
        rate = self.y * self._x_dot(d)
        counters, c = self.counters, self.c_penalty

        def phi(t):
            counters.fevals += 1
            wt, margins = w + t * d, base + t * rate
            self._keep(wt, margins)
            viol = np.maximum(0.0, 1.0 - margins)
            return 0.5 * float(wt @ wt) + c * float(viol @ viol)
        return phi

    def seed_linear_map(self, w, z):
        """Cache y * z as the margins of w, for z = X w carried by a solver."""
        self._keep(w, self.y * np.asarray(z, dtype=np.float64))

    def _keep(self, w, margins):
        """Cache margins as those of w, dropping the rows and coefficients."""
        margins.flags.writeable = False
        self._at, self._margins = np.array(w, dtype=np.float64), margins
        self._active_rows = self._coef = None

    def _active(self, w):
        """(rows, coef): the active rows of X at w and y * (1 - margins) on
        them; the violation is zero on every other row."""
        margins = self.margins(w)
        if self._active_rows is None:
            viol = 1.0 - margins
            coef = self.y * viol
            active = viol > 0.0
            if active.all():
                self._active_rows, self._coef = self.x_rows, coef
            else:
                # every copy goes to one buffer, so no point allocates (and
                # faults in) rows of its own; indices are in range, and
                # mode="clip" lets take write to the buffer directly
                if self._rows_buf is None:
                    self._rows_buf = np.empty_like(self.x_rows)
                idx = np.flatnonzero(active)
                rows = self._rows_buf[:idx.size]
                np.take(self.x_rows, idx, axis=0, out=rows, mode="clip")
                self._active_rows, self._coef = rows, coef[idx]
        return self._active_rows, self._coef

    def hinge_sq_sum(self, w):
        viol = np.maximum(0.0, 1.0 - self.margins(w))
        return float(viol @ viol)

    def _value(self, w):
        return 0.5 * float(w @ w) + self.c_penalty * self.hinge_sq_sum(w)

    def _grad(self, w):
        rows, coef = self._active(w)
        return w - 2.0 * self.c_penalty * (coef @ rows)

    def _hvp(self, w, v):
        # v + 2C X_act^T (X_act v), v one column or a block of them
        rows = self._active(w)[0]
        acc = np.zeros_like(v)
        step = max(1, _BLOCK_BYTES // rows.strides[0])
        for s in range(0, rows.shape[0], step):
            block = rows[s:s + step]
            acc += block.T @ (block @ v)
        return v + 2.0 * self.c_penalty * acc

    _hvp_block = _hvp


def make_svm_smooth(num_examples, num_features, seed, c_penalty=1.0,
                    margin=1.0, violation_frac=0.05):
    """Synthetic squared-hinge SVM instance.

    Gaussian features are pushed to satisfy y_i x_i . w_ref >= margin for a
    seeded unit reference direction w_ref, then a seeded fraction of rows is
    label-flipped to create margin violations. With violation_frac = 0 the
    data is separable with the given margin and w = (2/margin) w_ref attains
    zero hinge loss.
    """
    rng = seeded_rng(seed)
    w_ref = rng.standard_normal(num_features)
    w_ref /= np.linalg.norm(w_ref)
    x_rows = rng.standard_normal((num_examples, num_features))
    y = np.where(x_rows @ w_ref >= 0.0, 1.0, -1.0)

    # push every point to margin distance from the separating hyperplane
    gap = margin - y * (x_rows @ w_ref)
    push = np.maximum(gap, 0.0)
    x_rows += (push * y)[:, None] * w_ref[None, :]  # no third X-sized array

    if violation_frac > 0:
        n_flip = int(round(violation_frac * num_examples))
        if n_flip:
            flip = rng.choice(num_examples, size=n_flip, replace=False)
            y[flip] = -y[flip]

    obj = SvmSquaredHinge(x_rows, y, c_penalty)
    obj.w_ref = w_ref
    obj.spec = ProblemSpec(kind="svm_smooth", n=num_features, seed=seed,
                           m=num_examples, c_penalty=float(c_penalty),
                           margin=float(margin),
                           violation_frac=float(violation_frac))
    return obj
