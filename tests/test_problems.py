import math

import numpy as np
import pytest

from sesopt import (ProblemSpec, check_gradient, expsquares_ground_truth,
                    make_expsquares, make_l1_ls, make_quadratic_ls,
                    make_svm_smooth, seeded_rng)

from conftest import svm_grad, svm_hvp


# -- quadratic LS -------------------------------------------------------------

def test_quadratic_deterministic_and_scaled():
    p1 = make_quadratic_ls(400, seed=1)
    p2 = make_quadratic_ls(400, seed=1)
    np.testing.assert_array_equal(p1.op.matrix, p2.op.matrix)
    np.testing.assert_array_equal(p1.b, p2.b)
    assert not np.array_equal(p1.b, make_quadratic_ls(400, seed=2).b)
    # N(0, 1/n) entries: squared Frobenius norm concentrates near n
    fro2 = float(np.sum(p1.op.matrix ** 2))
    assert abs(fro2 / 400.0 - 1.0) < 0.05


def test_quadratic_ground_truth_exact():
    p = make_quadratic_ls(120, seed=7)
    gt = p.ground_truth
    assert gt.f_opt == 0.0
    assert p.value(gt.x_opt) <= 1e-22  # b built from the same product
    assert p.counters.matvecs == 1  # reset at build; the value() above


# -- l1 LS --------------------------------------------------------------------

def test_l1_conditioning_and_sparsity():
    p = make_l1_ls(50, 128, seed=3, mu=1e-4, kappa=4.0)
    s = np.linalg.svd(p.op.matrix, compute_uv=False)
    assert s[0] / s[-1] == pytest.approx(10.0 ** 4, rel=1e-6)
    assert s[0] == pytest.approx(1.0, rel=1e-9)
    k_nz = int(np.count_nonzero(p.x_signal))
    assert k_nz == math.ceil(0.05 * 128)
    assert p.mu == 1e-4


def test_l1_noise_level():
    p = make_l1_ls(200, 512, seed=1, noise=0.01)
    clean = p.op.matrix @ p.x_signal
    resid = float(np.linalg.norm(p.b - clean))
    expected = 0.01 * float(np.linalg.norm(clean))
    assert 0.5 * expected < resid < 1.5 * expected

    p0 = make_l1_ls(40, 64, seed=1, noise=0.0)
    np.testing.assert_array_equal(p0.b, p0.op.matrix @ p0.x_signal)


def test_l1_requires_underdetermined():
    with pytest.raises(ValueError):
        make_l1_ls(65, 64, seed=1)


# -- exponents and squares ----------------------------------------------------

def test_expsquares_oracle_stationary():
    for n in (1, 5, 200):
        p = make_expsquares(n)
        gt = p.ground_truth
        g = p.grad(gt.x_opt)
        assert float(np.linalg.norm(g)) <= 1e-10
        assert p.value(gt.x_opt) == pytest.approx(gt.f_opt, rel=1e-14)


def test_expsquares_omega_constant():
    # n = 1: the optimum solves x = exp(-x), the omega constant
    gt = expsquares_ground_truth(1)
    assert gt.x_opt[0] == pytest.approx(0.5671432904097838, abs=1e-12)


def test_expsquares_derivatives():
    p = make_expsquares(30)
    x = 0.1 * seeded_rng(9).standard_normal(30)
    assert check_gradient(p, x) <= 1e-7
    v = seeded_rng(10).standard_normal(30)
    # H = diag(j^2) + e ones ones^T with e = exp(-sum x)
    e = math.exp(-float(np.sum(x)))
    want = p.j2 * v + e * float(np.sum(v))
    np.testing.assert_allclose(p.hvp(x, v), want, rtol=1e-13)


def test_expsquares_overflow_guard():
    p = make_expsquares(4)
    with pytest.raises(OverflowError):
        p.value(np.full(4, -300.0))
    # the loss at a block of trial rows z = sum x: any row past the guard
    np.testing.assert_allclose(p.loss(np.array([[0.0], [-1.0]])),
                               [[1.0], [math.e]], rtol=1e-15)
    with pytest.raises(OverflowError):
        p.loss(np.array([[0.0], [-701.0]]))


# -- svm ----------------------------------------------------------------------

def test_svm_separable_construction():
    p = make_svm_smooth(60, 40, seed=2, margin=1.0, violation_frac=0.0)
    assert float(np.min(p.margins(2.0 * p.w_ref))) >= 2.0 - 1e-9
    assert p.hinge_sq_sum(2.0 * p.w_ref) == 0.0


def test_svm_violations_and_gradient():
    p = make_svm_smooth(80, 30, seed=4, violation_frac=0.1)
    # label flips create persistent margin violations
    assert p.hinge_sq_sum(2.0 * p.w_ref) > 0.0
    w = 0.3 * seeded_rng(11).standard_normal(30)
    # keep probes away from the hinge kinks so central differences are clean
    assert float(np.min(np.abs(1.0 - p.margins(w)))) > 1e-4
    assert check_gradient(p, w) <= 1e-5
    v = seeded_rng(12).standard_normal(30)
    assert float(v @ p.hvp(w, v)) >= float(v @ v) - 1e-12  # I + PSD part


def _svm_reference(x_rows, y, c, w, v, z=None):
    """Value, gradient and hvp from the SVM's data alone, nothing cached;
    with z, from the margins y * z in place of y * (X w)."""
    margins = y * (x_rows @ w if z is None else z)
    viol = np.maximum(0.0, 1.0 - margins)
    val = 0.5 * float(w @ w) + c * float(viol @ viol)
    return (val, svm_grad(x_rows, y, c, margins, w),
            svm_hvp(x_rows, y, c, margins, v))


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _svm_points(p, seed):
    """w = 0, where every row is active, and two points where only some are."""
    rng = seeded_rng(seed)
    points = [np.zeros(p.dim)]
    for scale in (0.02, 0.2):
        w = scale * rng.standard_normal(p.dim)
        assert 0 < int(np.sum(p.margins(w) < 1.0)) < p.y.size
        points.append(w)
    return points


def test_svm_active_row_formulas_agree_with_full_x():
    # 600 features: a 512 KiB row block holds 109 rows, so the 300 rows
    # take three blocks
    p = make_svm_smooth(300, 600, seed=4, violation_frac=0.1)
    x_rows, y, c = p.x_rows, p.y, p.c_penalty
    rng = seeded_rng(15)
    for w in _svm_points(p, 16):
        margins = y * (x_rows @ w)
        viol = np.maximum(0.0, 1.0 - margins)
        xa = x_rows[(1.0 - margins) > 0.0]
        # the formulas before the active-row cache: every row of X
        assert _rel(p.grad(w), w - 2.0 * c * ((viol * y) @ x_rows)) <= 1e-13
        v = rng.standard_normal(p.dim)
        assert _rel(p.hvp(w, v), v + 2.0 * c * (xa.T @ (xa @ v))) <= 1e-13
        block = rng.standard_normal((p.dim, 3))
        hb = p.hvp(w, block)
        # and bitwise the reference formulas, over several row blocks
        np.testing.assert_array_equal(p.grad(w), svm_grad(x_rows, y, c, margins, w))
        np.testing.assert_array_equal(p.hvp(w, v), svm_hvp(x_rows, y, c, margins, v))
        np.testing.assert_array_equal(hb, svm_hvp(x_rows, y, c, margins, block))
        for j in range(3):
            assert _rel(hb[:, j], p.hvp(w, block[:, j])) <= 1e-13


def test_svm_all_active_rows_are_x_rows():
    p = make_svm_smooth(300, 600, seed=4, violation_frac=0.1)
    w0, w1, w2 = _svm_points(p, 16)
    rows, coef = p._active(w0)
    assert rows is p.x_rows  # no copy at w = 0
    np.testing.assert_array_equal(coef, p.y)
    rows, coef = p._active(w1)
    active = p.margins(w1) < 1.0
    np.testing.assert_array_equal(rows, p.x_rows[active])
    np.testing.assert_array_equal(coef, (p.y * (1.0 - p.margins(w1)))[active])
    # the copies of every point share one buffer
    assert np.shares_memory(rows, p._active(w2)[0])


def test_svm_cache_drops_rows_and_coefficients_together():
    p = make_svm_smooth(300, 600, seed=4, violation_frac=0.1)
    _, w1, w2 = _svm_points(p, 16)
    p.grad(w1)
    assert p._active_rows is not None and p._coef is not None
    p.value(w1)  # the same point keeps them
    assert p._active_rows is not None and p._coef is not None
    p.value(w2)  # another point drops both; a value needs neither
    assert p._active_rows is None and p._coef is None
    p.hvp(w2, np.ones(p.dim))
    assert p._active_rows is not None and p._coef is not None
    p.seed_linear_map(w2, p.x_rows @ w2)  # a seed drops both, even here
    assert p._active_rows is None and p._coef is None
    p.grad(w2)
    p.line(w2, w1)(0.0)  # so does a line's trial point, even at w2
    assert p._active_rows is None and p._coef is None


def test_svm_cached_products_are_bitwise_the_uncached_ones():
    p = make_svm_smooth(120, 40, seed=4, violation_frac=0.1)
    x_rows, y, c = p.x_rows.copy(), p.y.copy(), p.c_penalty
    rng = seeded_rng(13)
    w1, w2 = 0.3 * rng.standard_normal(40), 0.3 * rng.standard_normal(40)
    buf = w1.copy()
    strided = np.zeros((40, 3))
    strided[:, 1] = w2

    def check(w, ops):
        w_now = np.array(w)  # the contents at the time of the call
        v = rng.standard_normal(40)
        val, g, hv = _svm_reference(x_rows, y, c, w_now, v)
        assert 0 < int(np.sum(y * (x_rows @ w_now) < 1.0)) < 120  # both sides
        for op in ops:
            if op == "value":
                assert p.value(w) == val
            elif op == "grad":
                np.testing.assert_array_equal(p.grad(w), g)
            elif op == "value_and_grad":
                f_w, g_w = p.value_and_grad(w)
                assert f_w == val
                np.testing.assert_array_equal(g_w, g)
            else:
                before = p.counters.hvps
                np.testing.assert_array_equal(p.hvp(w, v), hv)
                assert p.counters.hvps == before + 1

    check(w1, ["hvp", "value", "hvp", "grad", "hvp"])  # hvp before any value
    check(w2, ["value", "grad", "hvp", "hvp", "value_and_grad"])
    check(w1, ["value_and_grad", "hvp", "hvp"])  # revisit after eviction
    check(w1.copy(), ["hvp", "value"])  # same contents, another array
    check(buf, ["value", "hvp", "grad"])
    buf[[3, 17]] += 0.4  # same array object, new contents
    check(buf, ["hvp", "value", "grad", "hvp"])
    check(strided[:, 1], ["hvp", "value_and_grad", "hvp"])  # a strided view
    check(w2, ["hvp", "grad"])  # the view's contents, contiguous
    buf[:] = w2
    check(buf, ["grad", "hvp", "value"])
    with pytest.raises(ValueError):
        p.margins(buf)[0] = 0.0  # the cached margins are read-only


def test_svm_line_values_agree_with_values_at_its_points():
    p = make_svm_smooth(300, 600, seed=4, violation_frac=0.1)
    fresh = make_svm_smooth(300, 600, seed=4, violation_frac=0.1)
    _, w, _ = _svm_points(p, 16)
    d = -p.grad(w)
    phi = p.line(w, d)
    actives = {int(np.sum(fresh.margins(w) < 1.0))}
    for t in (1.0, 0.03, 1e-2, 1e-3, -0.5):
        before = p.counters.fevals
        f_t = phi(t)
        assert p.counters.fevals == before + 1
        f_ref = fresh.value(w + t * d)
        assert abs(f_t - f_ref) <= 1e-12 * abs(f_ref), t
        actives.add(int(np.sum(fresh.margins(w + t * d) < 1.0)))
    assert len(actives) == 6  # each t moves rows across the margin


def test_svm_line_makes_one_pass_and_serves_the_accepted_point():
    p = make_svm_smooth(300, 600, seed=4, violation_frac=0.1)
    x_rows, y, c = p.x_rows.copy(), p.y.copy(), p.c_penalty
    _, _, w = _svm_points(p, 16)
    d = -p.grad(w)  # the margins at w are cached from here
    passes = []
    x_dot = p._x_dot
    p._x_dot = lambda v: (passes.append(1), x_dot(v))[1]
    phi = p.line(w, d)
    phi(1.0)
    phi(0.5)
    accepted = w + 0.5 * d
    g = p.grad(accepted)
    hv = p.hvp(accepted, d)
    margins = p.margins(accepted)
    np.testing.assert_array_equal(  # those of the line, from the cache
        margins, y * (x_rows @ w) + 0.5 * (y * (x_rows @ d)))
    np.testing.assert_array_equal(g, svm_grad(x_rows, y, c, margins, accepted))
    np.testing.assert_array_equal(hv, svm_hvp(x_rows, y, c, margins, d))
    assert _rel(margins, y * (x_rows @ accepted)) <= 1e-12
    assert len(passes) == 1  # X d, for the whole line


def test_svm_seeded_margins_serve_only_their_point():
    p = make_svm_smooth(120, 40, seed=4, violation_frac=0.1)
    x_rows, y, c = p.x_rows.copy(), p.y.copy(), p.c_penalty
    rng = seeded_rng(14)
    w1, w2 = 0.3 * rng.standard_normal(40), 0.3 * rng.standard_normal(40)
    v = rng.standard_normal(40)
    # a z off X w by far more than rounding, so a served seed shows
    z = x_rows @ w1 + 1e-3 * rng.standard_normal(120)

    def agrees(w, z=None):
        val, g, hv = _svm_reference(x_rows, y, c, np.array(w), v, z)
        f_w, g_w = p.value_and_grad(w)
        np.testing.assert_array_equal(p.hvp(w, v), hv)
        return f_w == val and np.array_equal(g_w, g) and np.array_equal(p.grad(w), g)

    handed = z.copy()
    p.seed_linear_map(w1, handed)
    handed[:] = 0.0  # the cache holds margins of its own
    assert agrees(w1.copy(), z)  # served by contents
    assert agrees(w2)            # another point: from X
    assert agrees(w1)            # and the seed is gone for good

    buf = w1.copy()
    p.seed_linear_map(buf, z)
    buf[[3, 17]] += 0.4  # the seeded point changed in place
    assert agrees(buf)
    buf[:] = w1  # its old contents again, after another point was asked
    assert agrees(buf)
    p.seed_linear_map(w1, z)
    with pytest.raises(ValueError):
        p.margins(w1)[0] = 0.0  # seeded margins are read-only too


# -- ProblemSpec --------------------------------------------------------------

def test_spec_round_trip():
    cfg = "kind=l1_ls,n=512,seed=1,m=200,mu=1e-06,kappa=6.0,noise=0.01"
    spec = ProblemSpec.from_config(cfg)
    assert (spec.kind, spec.n, spec.m, spec.seed) == ("l1_ls", 512, 200, 1)
    assert ProblemSpec.from_config(spec.to_config()) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec.from_config("n=4,seed=1")  # no kind
    with pytest.raises(ValueError):
        ProblemSpec.from_config("kind=quadratic_ls,seed=1")  # no n
    with pytest.raises(ValueError):
        ProblemSpec.from_config("kind=quadratic_ls,n=4,bogus=1")
    with pytest.raises(ValueError):
        ProblemSpec.from_config("kind=quadratic_ls,n=4,seed")
    with pytest.raises(ValueError):
        ProblemSpec(kind="nope", n=4, seed=1).build()


def test_spec_build_stamps_requested_config():
    spec = ProblemSpec.from_config("kind=expsquares,n=50,seed=3")
    obj = spec.build()
    assert obj.spec is spec  # trace headers see the requested seed, not a default
    assert obj.dim == 50

    for cfg in ("kind=quadratic_ls,n=20,seed=1",
                "kind=l1_ls,n=32,m=16,seed=1,mu=0.001",
                "kind=svm_smooth,n=10,m=24,seed=1"):
        obj = ProblemSpec.from_config(cfg).build()
        assert obj.dim == ProblemSpec.from_config(cfg).n


def test_gradient_checks_all_kinds():
    # the l1 case checks the smoothed view away from the smoothing width
    probes = {
        "kind=quadratic_ls,n=25,seed=1": None,
        "kind=expsquares,n=25,seed=0": None,
        "kind=svm_smooth,n=25,m=40,seed=1": None,
    }
    for cfg in probes:
        obj = ProblemSpec.from_config(cfg).build()
        x = 0.25 * seeded_rng(21).standard_normal(obj.dim)
        assert check_gradient(obj, x) <= 1e-5, cfg

    l1 = ProblemSpec.from_config("kind=l1_ls,n=40,m=20,seed=1,mu=0.001").build()
    x = seeded_rng(22).standard_normal(40) + 1.0  # |x_j| >> eps
    assert check_gradient(l1.smoothed(), x) <= 1e-5
