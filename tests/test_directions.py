import numpy as np
import pytest

from sesopt import (CallableObjective, CompositeObjective, DenseOperator,
                    OrthState, SesopConfig, dir_orth_update, run_fista,
                    run_sesop, seeded_rng, soft_threshold)
from sesopt.kernels import pcd_direction, pcd_reciprocals, ssf_direction

from conftest import small_l1


# -- PCD ----------------------------------------------------------------------

def _pcd(obj, x, r):
    recip = pcd_reciprocals(obj.op.column_norms_sq())
    return pcd_direction(x, obj.op.adjoint(r), recip, obj.mu)


def _ssf(obj, x, r, c):
    return ssf_direction(x, obj.op.adjoint(r), c, obj.mu)


def test_pcd_matches_per_coordinate_minimizer():
    obj, a = small_l1()
    x = seeded_rng(31).standard_normal(obj.dim)
    r = a @ x - obj.b
    d = _pcd(obj, x, r)
    cn = (a * a).sum(axis=0)
    for j in range(obj.dim):
        want = soft_threshold(x[j] - (a[:, j] @ r) / cn[j],
                              0.5 * obj.mu / cn[j]) - x[j]
        assert d[j] == pytest.approx(want, rel=1e-12, abs=1e-14)

    # each coordinate move is the exact 1-D minimizer of the composite f
    f0 = obj.value(x)
    for j in np.argsort(-np.abs(d))[:5]:
        e = np.zeros(obj.dim)
        e[j] = 1.0
        f_at = obj.value(x + d[j] * e)
        assert f_at <= f0 + 1e-12
        for bump in (1e-4, -1e-4):
            assert f_at <= obj.value(x + (d[j] + bump) * e) + 1e-12


def test_pcd_preconditions():
    smooth = CallableObjective(3, value=lambda z: 0.0)
    with pytest.raises(TypeError):
        run_sesop(smooth, np.zeros(3), SesopConfig(direction="pcd"))

    class NoColumns(DenseOperator):
        def column_norms_sq(self):
            return None

    bad = CompositeObjective(NoColumns(np.eye(4)), np.zeros(4), mu=0.0)
    with pytest.raises(ValueError, match="column norms"):
        run_sesop(bad, np.zeros(4), SesopConfig(direction="pcd"))


# -- SSF ----------------------------------------------------------------------

def test_ssf_is_prox_gradient_step():
    obj, a = small_l1()
    x = seeded_rng(35).standard_normal(obj.dim)
    r = a @ x - obj.b
    c = obj.ssf_constant
    d = _ssf(obj, x, r, c)
    atr = a.T @ r
    want = soft_threshold(x - atr / c, 0.5 * obj.mu / c) - x
    np.testing.assert_allclose(d, want, atol=1e-14)
    # descent: the surrogate minimizer decreases the true objective
    assert obj.value(x + d) < obj.value(x)


def test_ssf_equals_pcd_for_orthonormal_columns():
    q, _ = np.linalg.qr(seeded_rng(36).standard_normal((12, 6)))
    obj = CompositeObjective(DenseOperator(q), np.ones(12), mu=0.01)
    x = seeded_rng(37).standard_normal(6)
    r = obj.residual(x)
    d_pcd = _pcd(obj, x, r)
    d_ssf = _ssf(obj, x, r, c=1.0)  # unit column norms, unit majorizer
    np.testing.assert_allclose(d_pcd, d_ssf, atol=1e-14)


def test_ssf_validation():
    obj, _ = small_l1()
    with pytest.raises(ValueError, match="invalid majorizer"):
        run_fista(obj, np.zeros(obj.dim), c=0.0)
    with pytest.raises(TypeError):
        run_sesop(CallableObjective(2, value=lambda z: 0.0), np.zeros(2),
                  SesopConfig(direction="ssf"))


# -- ORTH ---------------------------------------------------------------------

def test_orth_weights_follow_recurrence():
    st = OrthState(x0=np.zeros(3))
    g = np.array([1.0, 0.0, 0.0])
    wdir, tstep = dir_orth_update(st, np.zeros(3), g)
    assert st.w == 1.0
    np.testing.assert_array_equal(tstep, np.zeros(3))  # k=0 total step is zero
    assert np.linalg.norm(wdir) == pytest.approx(1.0)

    dir_orth_update(st, np.ones(3), g)
    assert st.w == pytest.approx(1.618033988749895, abs=1e-15)  # 1/2+sqrt(5)/2
    dir_orth_update(st, np.ones(3), g)
    w_prev = 1.618033988749895
    assert st.w == pytest.approx(0.5 + np.sqrt(0.25 + w_prev ** 2), rel=1e-15)


def test_orth_directions_content():
    st = OrthState(x0=np.array([1.0, 1.0]))
    g1 = np.array([2.0, 0.0])
    g2 = np.array([0.0, 1.0])
    dir_orth_update(st, np.array([1.0, 1.0]), g1)
    wdir, tstep = dir_orth_update(st, np.array([3.0, -1.0]), g2)
    np.testing.assert_array_equal(tstep, [2.0, -2.0])
    w2 = 1.618033988749895
    s = 1.0 * g1 + w2 * g2
    np.testing.assert_allclose(wdir, -s / np.linalg.norm(s), rtol=1e-14)
