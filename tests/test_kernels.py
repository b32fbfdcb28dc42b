"""The elementwise kernels match their closed forms."""

import numpy as np
import pytest

import sesopt
from sesopt.kernels import (pcd_direction, pcd_reciprocals, smooth_abs,
                            smooth_abs_grad, smooth_abs_hess, soft_threshold_vec,
                            ssf_direction)


def _probe_arrays(seed=11, n=257):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x[::17] = 0.0  # exact zeros exercise the sign branches
    atr = rng.standard_normal(n)
    cn = np.abs(rng.standard_normal(n)) + 0.05
    cn[::31] = 0.0
    return x, atr, cn


def test_backend_reported():
    assert sesopt.kernel_backend == "python"


def test_soft_threshold_formula():
    x, _, _ = _probe_arrays()
    out = soft_threshold_vec(x, 0.3)
    ref = np.sign(x) * np.maximum(np.abs(x) - 0.3, 0.0)
    np.testing.assert_array_equal(out, ref)
    # array threshold
    tau = np.full_like(x, 0.3)
    np.testing.assert_array_equal(soft_threshold_vec(x, tau), ref)


def test_ssf_direction_formula():
    x, atr, _ = _probe_arrays()
    c, mu = 2.5, 1e-2
    out = ssf_direction(x, atr, c, mu)
    u = x - atr * (1.0 / c)
    ref = np.sign(u) * np.maximum(np.abs(u) - 0.5 * mu / c, 0.0) - x
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)


def test_direction_buffers_give_the_new_array_result_bitwise():
    x, atr, cn = _probe_arrays()
    c, mu = 2.5, 1e-2
    recip = pcd_reciprocals(cn)
    out, work = np.full_like(x, np.nan), np.full_like(x, np.nan)
    d = ssf_direction(x, atr, c, mu, out, work)
    assert d is out
    np.testing.assert_array_equal(d, ssf_direction(x, atr, c, mu))
    d = pcd_direction(x, atr, recip, mu, out, work)
    assert d is out
    np.testing.assert_array_equal(d, pcd_direction(x, atr, recip, mu))


def test_pcd_direction_formula_and_skips():
    x, atr, cn = _probe_arrays()
    mu = 1e-2
    recip = pcd_reciprocals(cn)
    np.testing.assert_array_equal(recip[1], np.flatnonzero(cn == 0.0))
    d = pcd_direction(x, atr, recip, mu)
    for j in range(x.size):
        if cn[j] == 0.0:
            assert d[j] == 0.0
            continue
        u = x[j] - atr[j] / cn[j]
        thr = 0.5 * mu / cn[j]
        ref = np.sign(u) * max(abs(u) - thr, 0.0) - x[j]
        assert d[j] == pytest.approx(ref, rel=1e-14, abs=1e-15)


def test_smooth_abs_family():
    x, _, _ = _probe_arrays()
    eps = 1e-4
    v = smooth_abs(x, eps)
    np.testing.assert_allclose(v, np.sqrt(x * x + eps * eps) - eps, atol=1e-15)
    assert np.all(v >= 0.0)
    # eps=0 reduces to |x| and sign(x)
    np.testing.assert_array_equal(smooth_abs(x, 0.0), np.abs(x))
    g = smooth_abs_grad(x, eps)
    np.testing.assert_allclose(g, x / np.sqrt(x * x + eps * eps), atol=1e-15)
    assert np.all(np.abs(g) <= 1.0)
    h = smooth_abs_hess(x, eps)
    assert np.all(h >= 0.0)
    # central difference of the gradient
    dh = 1e-6
    fd = (smooth_abs_grad(x + dh, eps) - smooth_abs_grad(x - dh, eps)) / (2 * dh)
    np.testing.assert_allclose(h, fd, rtol=1e-4, atol=1e-6)
