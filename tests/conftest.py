import numpy as np
import pytest

from sesopt import CompositeObjective, DenseOperator, seeded_rng
from sesopt.core import _BLOCK_BYTES


def small_quadratic(n=30, seed=3):
    """Dense noise-free least squares with a known zero optimum."""
    rng = seeded_rng(seed)
    a = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, n))
    x_star = rng.standard_normal(n)
    obj = CompositeObjective(DenseOperator(a), a @ x_star, mu=0.0)
    return obj, a, x_star


def small_l1(m=40, n=60, seed=5, mu=1e-3):
    rng = seeded_rng(seed)
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    x_sig = np.zeros(n)
    x_sig[rng.choice(n, 4, replace=False)] = rng.standard_normal(4)
    b = a @ x_sig + 0.01 * rng.standard_normal(m)
    obj = CompositeObjective(DenseOperator(a), b, mu=mu)
    obj.x_signal = x_sig
    return obj, a


def svm_grad(x_rows, y, c, margins, w):
    """The SVM's gradient at w from its data and the margins y * (X w),
    nothing cached: w - 2C coef^T X_act over the active rows, where
    coef = y * (1 - margins)."""
    active = (1.0 - margins) > 0.0
    coef = (y * (1.0 - margins))[active]
    return w - 2.0 * c * (coef @ x_rows[active])


def svm_hvp(x_rows, y, c, margins, v):
    """The SVM's generalized hvp v + 2C X_act^T (X_act v), nothing cached,
    for one column or an (n, k) block: both products of a row block of
    ``core._BLOCK_BYTES`` at a time, summed block by block."""
    xa = x_rows[(1.0 - margins) > 0.0]
    acc = np.zeros_like(v)
    step = max(1, _BLOCK_BYTES // xa.strides[0])
    for s in range(0, xa.shape[0], step):
        block = xa[s:s + step]
        acc += block.T @ (block @ v)
    return v + 2.0 * c * acc


def assert_monotone(values, slack=1e-12):
    v = np.asarray(values, dtype=np.float64)
    up = np.nonzero(v[1:] > v[:-1] + slack * np.maximum(1.0, np.abs(v[:-1])))[0]
    assert up.size == 0, f"f increased at rows {up[:5] + 1}"


@pytest.fixture
def rng():
    return seeded_rng(2024)
