import math

import numpy as np
import pytest

from sesopt import (CallableObjective, CompositeObjective, DenseOperator,
                    check_gradient, make_expsquares, make_svm_smooth,
                    power_iteration_sq_norm, seeded_rng, soft_threshold)

from sesopt.problems import _OnesRow

from conftest import small_l1, small_quadratic


# -- counters and rng ------------------------------------------------------

def test_counters_track_every_call():
    obj, a, x_star = small_quadratic()
    c = obj.counters
    c.reset()
    x = np.zeros(obj.dim)
    obj.value(x)
    assert (c.fevals, c.gevals, c.hvps) == (1, 0, 0)
    obj.grad(x)
    obj.value_and_grad(x)
    assert (c.fevals, c.gevals) == (2, 2)
    obj.hvp(x, x)
    assert c.hvps == 1
    assert c.matvecs > 0  # composite evals go through the counted operator
    snap = c.snapshot()
    c.reset()
    assert (c.matvecs, c.fevals, c.gevals, c.hvps) == (0, 0, 0, 0)
    assert snap.fevals == 2  # snapshot is detached


def _hvp_objectives():
    """(name, objective, point) for every objective with an hvp."""
    quad, _, _ = small_quadratic()
    l1, _ = small_l1()
    h = seeded_rng(71).standard_normal((30, 30))
    fn = CallableObjective(30, value=lambda z: 0.0, hvp=lambda z, v: h @ v)
    svm = make_svm_smooth(300, 600, seed=4, violation_frac=0.1)
    objs = [("least squares", quad), ("smoothed composite", l1.smoothed()),
            ("callable", fn), ("expsquares", make_expsquares(30)),
            ("svm", svm)]
    for name, obj in objs:
        yield name, obj, 0.05 * seeded_rng(72).standard_normal(obj.dim)


def test_block_hvp_counts_one_per_column_and_checks_rows():
    for name, obj, x in _hvp_objectives():
        n = obj.dim
        for k in (1, 2, 5):
            block = seeded_rng(73).standard_normal((n, k))
            before = obj.counters.hvps
            out = obj.hvp(x, block)
            assert obj.counters.hvps == before + k, name
            assert out.shape == (n, k), name
        before = obj.counters.hvps
        with pytest.raises(ValueError, match="rows"):
            obj.hvp(x, np.ones((n + 1, 2)))
        assert obj.counters.hvps == before, name


def test_base_class_blocks_are_bitwise_per_column_calls():
    # the layouts the solvers pass: the generic frame solve a C-order frame
    # (strided columns, answered in C order as np.column_stack did), the
    # warm step two contiguous columns (answered with contiguous columns)
    for name, obj, x in _hvp_objectives():
        if name == "svm":  # shares its pass over the rows; see test_problems
            continue
        rng = seeded_rng(74)
        for block in (rng.standard_normal((obj.dim, 3)),
                      np.array((rng.standard_normal(obj.dim),
                                rng.standard_normal(obj.dim))).T):
            out = obj.hvp(x, block)
            cols = [obj.hvp(x, block[:, j]) for j in range(block.shape[1])]
            np.testing.assert_array_equal(out, np.column_stack(cols))
            assert (out.flags.c_contiguous == block.flags.c_contiguous
                    and out.flags.f_contiguous == block.flags.f_contiguous), name


def test_base_line_is_value_along_the_line():
    l1, _ = small_l1()
    objs = list(_hvp_objectives()) + [("composite", l1, np.ones(l1.dim))]
    rng = seeded_rng(75)
    for name, obj, x in objs:
        if name == "svm":  # values its line from its margins; see test_problems
            continue
        d = rng.standard_normal(obj.dim)
        phi = obj.line(x, d)
        for t in (1.0, 0.5, -0.3, 0.0):
            before = obj.counters.fevals
            f_t = phi(t)
            assert obj.counters.fevals == before + 1, name
            assert f_t == obj.value(x + t * d), name


def test_seeded_rng_deterministic():
    a = seeded_rng(42).standard_normal(1000)
    b = seeded_rng(42).standard_normal(1000)
    np.testing.assert_array_equal(a, b)
    c = seeded_rng(43).standard_normal(1000)
    assert not np.array_equal(a, c)
    # sanity on the distribution: mean of 1000 samples within 5 sigma
    assert abs(a.mean()) < 5.0 / math.sqrt(1000)


def test_seeded_rng_rejects_bad_seeds():
    with pytest.raises(ValueError):
        seeded_rng(-1)
    with pytest.raises(ValueError):
        seeded_rng(2**64)


# -- soft threshold ---------------------------------------------------------

def test_soft_threshold_scalar_matches_prox_grid():
    # soft(v, tau) minimizes 0.5 (t - v)^2 + tau |t|
    for v in (-2.3, -0.4, 0.0, 0.7, 3.1):
        for tau in (0.0, 0.5, 1.2):
            t_star = soft_threshold(v, tau)
            grid = np.linspace(-4, 4, 4001)
            costs = 0.5 * (grid - v) ** 2 + tau * np.abs(grid)
            t_grid = grid[np.argmin(costs)]
            assert abs(t_star - t_grid) < 3e-3
            # exact characterization
            assert abs(t_star) <= max(abs(v) - tau, 0.0) + 1e-15


def test_soft_threshold_vector_and_validation():
    v = np.array([-1.0, 0.2, 3.0])
    np.testing.assert_allclose(soft_threshold(v, 0.5), [-0.5, 0.0, 2.5])
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)
    assert soft_threshold(0.0, 1.0) == 0.0
    assert type(soft_threshold(np.float64(-0.7), 0.5)) is float  # scalar out


# -- operators ---------------------------------------------------------------

def test_dense_operator_adjoint_consistency(rng):
    a = rng.standard_normal((17, 29))
    op = DenseOperator(a)
    for _ in range(20):
        x = rng.standard_normal(29)
        y = rng.standard_normal(17)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.adjoint(y))
        scale = 1.0 + abs(lhs)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_dense_operator_counts_and_columns(rng):
    a = rng.standard_normal((5, 7))
    op = DenseOperator(a)
    op.apply(np.ones(7))
    op.adjoint(np.ones(5))
    assert op.counters.matvecs == 2
    np.testing.assert_allclose(op.column_norms_sq(), (a * a).sum(axis=0),
                               rtol=1e-14)
    with pytest.raises(ValueError):
        DenseOperator(np.ones(3))


def test_dense_block_apply_matches_columns_and_counts_each(rng):
    # 4800-byte rows: several row blocks, the last one short
    a = rng.standard_normal((300, 600))
    op = DenseOperator(a)
    for k in (2, 3, 5):
        for u in (rng.standard_normal((k, 600)).T,  # columns contiguous
                  rng.standard_normal((600, k))):   # rows contiguous
            before = op.counters.matvecs
            block = op.apply(u)
            assert op.counters.matvecs == before + k
            assert block.shape == (300, k)
            for j in range(k):
                col = op.apply(u[:, j])
                assert (np.linalg.norm(block[:, j] - col)
                        <= 1e-13 * np.linalg.norm(col))


def test_one_column_block_and_ones_row_are_bitwise_per_column(rng):
    op = DenseOperator(rng.standard_normal((30, 50)))
    u = rng.standard_normal((50, 1))
    block = op.apply(u)
    assert block.shape == (30, 1) and op.counters.matvecs == 1
    np.testing.assert_array_equal(block[:, 0], op.apply(u[:, 0]))

    ones = _OnesRow(1, 50)
    for u in (rng.standard_normal((3, 50)).T, rng.standard_normal((50, 3))):
        before = ones.counters.matvecs
        block = ones.apply(u)
        assert block.shape == (1, 3) and ones.counters.matvecs == before + 3
        for j in range(3):
            np.testing.assert_array_equal(
                block[:, j], ones.apply(np.ascontiguousarray(u[:, j])))


def test_power_iteration_matches_svd(rng):
    a = rng.standard_normal((40, 25))
    op = DenseOperator(a)
    lam = power_iteration_sq_norm(op, iters=200)
    smax2 = np.linalg.svd(a, compute_uv=False)[0] ** 2
    assert lam == pytest.approx(smax2, rel=1e-8)


# -- composite objective -----------------------------------------------------

def test_composite_value_and_capabilities():
    obj, a = small_l1()
    x = seeded_rng(1).standard_normal(obj.dim)
    r = a @ x - obj.b
    want = float(r @ r) + obj.mu * float(np.abs(x).sum())
    assert obj.value(x) == pytest.approx(want, rel=1e-14)
    assert "composite" in obj.capabilities
    assert "gradient" not in obj.capabilities  # nonsmooth for mu > 0
    with pytest.raises(NotImplementedError):
        obj.grad(x)

    quad, _, _ = small_quadratic()
    assert quad.capabilities == {"value", "composite", "gradient", "hvp"}


def test_composite_residual_bookkeeping():
    obj, a = small_l1()
    x = seeded_rng(2).standard_normal(obj.dim)
    obj.counters.reset()
    r = obj.residual(x)
    assert obj.counters.matvecs == 1
    f1 = obj.value_from_residual(r, x)
    assert obj.counters.matvecs == 1  # free of products
    assert f1 == pytest.approx(obj._value(x), rel=1e-14)
    fs = obj.smooth_value_from_residual(r, x)
    assert fs <= f1 + 1e-12  # smoothed |.| underestimates |.|


def test_composite_validation():
    op = DenseOperator(np.eye(3))
    with pytest.raises(ValueError):
        CompositeObjective(op, np.zeros(4))
    with pytest.raises(ValueError):
        CompositeObjective(op, np.zeros(3), mu=-1.0)


def test_ssf_constant_majorizes_spectrum():
    obj, a = small_l1()
    smax2 = np.linalg.svd(a, compute_uv=False)[0] ** 2
    assert obj.ssf_constant >= smax2  # the 1.01 slack absorbs iteration error
    assert obj.ssf_constant <= 1.02 * smax2


def test_smoothed_view_consistency():
    obj, a = small_l1()
    sm = obj.smoothed()
    assert sm.capabilities == {"value", "gradient", "hvp"}
    assert sm is obj.smoothed()  # cached view
    assert sm.counters is obj.counters
    x = seeded_rng(3).standard_normal(obj.dim) + 0.5
    # smoothed value within mu*eps*n of the exact one
    assert abs(sm.value(x) - obj.value(x)) <= obj.mu * obj.smoothing_eps * obj.dim
    assert check_gradient(sm, x) <= 1e-6
    # hvp against finite differences of the gradient
    v = seeded_rng(4).standard_normal(obj.dim)
    h = 1e-6
    fd = (sm.grad(x + h * v) - sm.grad(x - h * v)) / (2 * h)
    np.testing.assert_allclose(sm.hvp(x, v), fd, rtol=1e-4, atol=1e-6)


# -- gradient checker and callable adapter -----------------------------------

def test_check_gradient_accepts_true_and_flags_wrong():
    obj, _, _ = small_quadratic(n=10)
    x = seeded_rng(6).standard_normal(10)
    assert check_gradient(obj, x) <= 1e-6

    lying = CallableObjective(10, value=lambda z: float(z @ z),
                              grad=lambda z: 2.0 * z + 0.1)
    assert check_gradient(lying, x) > 1e-3


def test_check_gradient_nonfinite_probe():
    bad = CallableObjective(2, value=lambda z: math.inf,
                            grad=lambda z: np.zeros(2))
    with pytest.raises(ValueError, match="non-finite objective"):
        check_gradient(bad, np.zeros(2))


def test_callable_objective_capabilities():
    f = CallableObjective(3, value=lambda z: 0.0)
    assert f.capabilities == {"value"}
    with pytest.raises(NotImplementedError):
        f.grad(np.zeros(3))
    g = CallableObjective(3, value=lambda z: float(z @ z),
                          grad=lambda z: 2 * z,
                          hvp=lambda z, v: 2 * v)
    assert g.capabilities == {"value", "gradient", "hvp"}
