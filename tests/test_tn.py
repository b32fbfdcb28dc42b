import numpy as np
import pytest

from sesopt import (CallableObjective, DenseOperator, HistoryBuffer,
                    InnerCgState, LinearLossObjective, QuadraticModel,
                    SesopConfig, build_frame, inner_cg, make_expsquares,
                    make_quadratic_ls, make_svm_smooth, run_linear_cg,
                    run_sesop, run_sesop_tn, run_tn_classic, seeded_rng)
from sesopt.bench import run_solver
from sesopt.tn import frame_columns

from conftest import assert_monotone, svm_grad, svm_hvp


def _spd_model(n=18, seed=51, f0=3.0):
    rng = seeded_rng(seed)
    m = rng.standard_normal((n, n))
    h = m @ m.T + n * np.eye(n)
    g = rng.standard_normal(n)
    obj = CallableObjective(n, value=lambda z: 0.0, hvp=lambda z, v: h @ v)
    return QuadraticModel(obj, np.zeros(n), f0, g), h, g


# -- inner CG -----------------------------------------------------------------

def test_inner_cg_solves_to_tolerance_with_full_budget():
    model, h, g = _spd_model()
    st = inner_cg(model, l_max=len(g), rtol=1e-12)
    assert st.n_steps <= len(g)
    assert not st.neg_curvature
    assert float(np.linalg.norm(g + h @ st.d)) <= 1e-10 * np.linalg.norm(g)
    np.testing.assert_allclose(st.model_grad, g + h @ st.d, rtol=1e-8,
                               atol=1e-12)


def test_inner_cg_single_step_is_cauchy_point():
    model, h, g = _spd_model(seed=52)
    st = inner_cg(model, l_max=1, rtol=0.0)
    t = float(g @ g) / float(g @ (h @ g))
    np.testing.assert_allclose(st.d, -t * g, rtol=1e-13)
    assert st.n_steps == 1
    np.testing.assert_allclose(st.last_step, st.d, rtol=1e-13)


def test_inner_cg_model_decrease_bookkeeping():
    model, h, g = _spd_model(seed=53)
    st = inner_cg(model, l_max=6, rtol=1e-14)
    assert len(st.q_deltas) == st.n_steps
    assert all(dq <= 0.0 for dq in st.q_deltas)
    q_direct = model.value(st.d)
    assert model.f0 + sum(st.q_deltas) == pytest.approx(q_direct, rel=1e-10)


def test_inner_cg_counts_one_hvp_per_step():
    model, h, g = _spd_model(seed=54)
    model.obj.counters.reset()
    st = inner_cg(model, l_max=5, rtol=0.0)
    assert st.n_steps == 5
    assert model.obj.counters.hvps == 5

    # the warm two-direction start costs two products but counts one step
    model.obj.counters.reset()
    st = inner_cg(model, l_max=1, rtol=0.0,
                  warm_pair=(np.ones(len(g)), -g))
    assert st.n_steps == 1
    assert model.obj.counters.hvps == 2


def test_inner_cg_zero_gradient_and_bad_cap():
    model, _, g = _spd_model(seed=55)
    model.g0 = np.zeros_like(g)
    st = inner_cg(model, l_max=4, rtol=0.5)
    assert st.n_steps == 0 and not np.any(st.d)
    with pytest.raises(ValueError, match="at least 1"):
        inner_cg(model, l_max=0, rtol=0.5)


def test_inner_cg_warm_start_matches_two_column_solve():
    model, h, g = _spd_model(seed=56)
    rng = seeded_rng(57)
    u, v = rng.standard_normal(len(g)), rng.standard_normal(len(g))
    st = inner_cg(model, l_max=1, rtol=0.0, warm_pair=(u, v))
    k = np.array([[u @ h @ u, u @ h @ v], [u @ h @ v, v @ h @ v]])
    ab = np.linalg.solve(k, -np.array([g @ u, g @ v]))
    np.testing.assert_allclose(st.d, ab[0] * u + ab[1] * v, rtol=1e-10)


def test_inner_cg_negative_curvature_first_step():
    n = 7
    obj = CallableObjective(n, value=lambda z: 0.0, hvp=lambda z, v: -v)
    g = seeded_rng(58).standard_normal(n)
    st = inner_cg(QuadraticModel(obj, np.zeros(n), 0.0, g), l_max=9, rtol=0.0)
    assert st.neg_curvature and st.n_steps == 1
    # curvature magnitude g.g gives the unit bounded step along -g
    np.testing.assert_allclose(st.d, -g, rtol=1e-13)


def test_inner_cg_negative_curvature_truncates_later():
    # positive curvature along the first gradient direction, negative later
    h = np.diag([4.0, -1.0])
    obj = CallableObjective(2, value=lambda z: 0.0, hvp=lambda z, v: h @ v)
    g = np.array([1.0, 0.05])
    st = inner_cg(QuadraticModel(obj, np.zeros(2), 0.0, g), l_max=5, rtol=0.0)
    assert st.neg_curvature
    assert st.n_steps == 1  # kept the first step, stopped before the bad one


def _textbook_warm_first_step(model, warm_pair):
    u, v = warm_pair
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if (not np.any(u) or not np.any(v)
            or not np.all(np.isfinite(u)) or not np.all(np.isfinite(v))):
        return None
    hu, hv = model.hvp(np.array((u, v)).T).T  # one block, columns contiguous
    k11 = float(u @ hu)
    k12 = float(u @ hv)
    k22 = float(v @ hv)
    det = k11 * k22 - k12 * k12
    scale = max(abs(k11), abs(k22))
    if k11 <= 0.0 or k22 <= 0.0 or det <= 1e-14 * scale * scale:
        return None
    b1 = -float(model.g0 @ u)
    b2 = -float(model.g0 @ v)
    a = (k22 * b1 - k12 * b2) / det
    b = (k11 * b2 - k12 * b1) / det
    delta = a * u + b * v
    if not np.any(delta):
        return None
    return delta, a * hu + b * hv


def _textbook_inner_cg(model, l_max, rtol, warm_pair=None):
    """The inner CG loop written out plainly: fresh arrays for every update
    and np.linalg.norm at both stopping tests. inner_cg must match it bit
    for bit."""
    g0 = model.g0
    gnorm0 = float(np.linalg.norm(g0))
    zero = np.zeros_like(g0)
    if gnorm0 == 0.0:
        return InnerCgState(d=zero, x_last=model.base.copy(), model_grad=g0.copy(),
                            last_step=None, n_steps=0, neg_curvature=False)
    threshold = rtol * gnorm0

    d = zero.copy()
    r = g0.copy()
    q_deltas = []
    last_step = None
    l = 0
    p = None
    hp = None

    if warm_pair is not None:
        warm = _textbook_warm_first_step(model, warm_pair)
        if warm is not None:
            delta, h_delta = warm
            dq = float(g0 @ delta) + 0.5 * float(delta @ h_delta)
            d = delta
            r = g0 + h_delta
            q_deltas.append(dq)
            last_step = delta
            l = 1
            if l >= l_max or float(np.linalg.norm(r)) <= threshold:
                return InnerCgState(d=d, x_last=model.base + d, model_grad=r,
                                    last_step=last_step, n_steps=l,
                                    neg_curvature=False, q_deltas=q_deltas)
            curv_last = float(delta @ h_delta)
            beta = float(r @ h_delta) / curv_last
            p = -r + beta * delta
        else:
            p = -r
    else:
        p = -r

    neg = False
    while l < l_max and float(np.linalg.norm(r)) > threshold:
        hp = model.hvp(p)
        curv = float(p @ hp)
        if curv <= 0.0:
            neg = True
            if l == 0:
                denom = abs(curv)
                t = float(g0 @ g0) / denom if denom > 0 else 1.0
                dq = t * float(r @ p) + 0.5 * t * t * curv
                d = t * p
                r = r + t * hp
                q_deltas.append(dq)
                last_step = d.copy()
                l = 1
            break
        rp = float(r @ p)
        alpha = -rp / curv
        dq = alpha * rp + 0.5 * alpha * alpha * curv
        step = alpha * p
        d = d + step
        r = r + alpha * hp
        q_deltas.append(dq)
        last_step = step
        l += 1
        if l >= l_max or float(np.linalg.norm(r)) <= threshold:
            break
        beta = float(r @ hp) / curv
        p = -r + beta * p

    return InnerCgState(d=d, x_last=model.base + d, model_grad=r,
                        last_step=last_step, n_steps=l, neg_curvature=neg,
                        q_deltas=q_deltas)


def _model_at(obj, seed):
    x = 0.1 * seeded_rng(seed).standard_normal(obj.dim)
    f, g = obj.value_and_grad(x)
    return QuadraticModel(obj, x, f, g)


def _negative_curvature_models():
    n = 7
    flip = CallableObjective(n, value=lambda z: 0.0, hvp=lambda z, v: -v)
    h = np.diag([4.0, -1.0])
    later = CallableObjective(2, value=lambda z: 0.0, hvp=lambda z, v: h @ v)
    return [QuadraticModel(flip, np.zeros(n), 0.0,
                           seeded_rng(58).standard_normal(n)),
            QuadraticModel(later, np.zeros(2), 0.0, np.array([1.0, 0.05]))]


def _bitwise_cases():
    models = [_model_at(make_quadratic_ls(60, seed=4), 61),
              _model_at(make_expsquares(80), 62),
              _model_at(make_svm_smooth(60, 30, seed=8, violation_frac=0.1), 63)]
    for model in models:
        n = model.g0.size
        rng = seeded_rng(64)
        # the last two pairs are unusable: one column is zero, or both are
        # parallel
        pairs = [None, (rng.standard_normal(n), model.g0.copy()),
                 (np.zeros(n), model.g0.copy()),
                 (model.g0.copy(), 2.0 * model.g0)]
        for l_max in (1, 5, n):
            for rtol in (0.5, 1e-3, 1e-12):
                for pair in pairs:
                    yield model, l_max, rtol, pair
    for model in _negative_curvature_models():
        yield model, 9, 0.0, None


def test_inner_cg_is_bitwise_the_textbook_loop():
    fields = ("d", "x_last", "model_grad", "last_step", "q_deltas", "n_steps",
              "neg_curvature")
    n_cases = 0
    for model, l_max, rtol, pair in _bitwise_cases():
        model.obj.counters.reset()
        ref = _textbook_inner_cg(model, l_max, rtol, warm_pair=pair)
        ref_hvps = model.obj.counters.hvps
        model.obj.counters.reset()
        st = inner_cg(model, l_max, rtol, warm_pair=pair)
        assert model.obj.counters.hvps == ref_hvps
        for name in fields:
            assert np.array_equal(getattr(st, name), getattr(ref, name)), name
        n_cases += 1
    assert n_cases == 3 * 3 * 3 * 4 + 2


# -- classic truncated Newton ---------------------------------------------------

def test_tn_classic_expsquares_to_oracle():
    obj = make_expsquares(50)
    x, trace = run_tn_classic(obj, np.zeros(50), l_max=12, grad_tol=1e-10,
                              max_iters=200)
    assert trace.header["status"] == "stationary"
    assert abs(trace.final.f_value - obj.ground_truth.f_opt) <= 1e-9
    assert_monotone(trace.column("f_value"))


def test_tn_classic_zero_outer_iterations_at_optimum():
    obj = make_expsquares(20)
    x, trace = run_tn_classic(obj, obj.ground_truth.x_opt, grad_tol=1e-8)
    assert trace.header["status"] == "stationary"
    assert trace.final.iter == 0 and len(trace) == 1


def test_tn_requires_hvp():
    no_hvp = CallableObjective(3, value=lambda z: float(z @ z),
                               grad=lambda z: 2 * z)
    with pytest.raises(TypeError, match="Hessian-vector"):
        run_tn_classic(no_hvp, np.zeros(3))
    with pytest.raises(TypeError, match="Hessian-vector"):
        run_sesop_tn(no_hvp, np.zeros(3))


def test_tn_hvps_match_cumulative_steps():
    obj = make_expsquares(40)
    _, trace = run_tn_classic(obj, np.zeros(40), l_max=8, grad_tol=1e-10,
                              max_iters=60)
    # every cumulative step is an inner CG step costing exactly one product
    assert trace.final.hvps == trace.final.cum_steps


# -- subspace truncated Newton ---------------------------------------------------

def test_sesop_tn_tracks_global_cg_on_quadratic():
    # cumulative-step alignment with plain CG on the same quadratic
    n = 400
    obj = make_quadratic_ls(n, seed=3)
    a = obj.op.matrix
    _, ref = run_linear_cg(lambda v: 2.0 * (a.T @ (a @ v)),
                           2.0 * (a.T @ obj.b), np.zeros(n), tol=0.0,
                           max_iters=110, f_offset=float(obj.b @ obj.b))
    f_ref = {int(r.cum_steps): r.f_value for r in ref.records}
    scale = ref.records[0].f_value  # f_opt = 0

    for l_max in (1, 10):
        _, trace = run_sesop_tn(obj, np.zeros(n), l_max=l_max, grad_tol=0.0,
                                max_iters=300, max_cum_steps=100,
                                trace_inner=True)
        dev = 0.0
        checked = 0
        for rec in trace.records:
            c = int(rec.cum_steps)
            if c in f_ref and c <= 100:
                dev = max(dev, abs(rec.f_value - f_ref[c]) / scale)
                checked += 1
        assert checked >= 90
        assert dev <= 1e-6, f"l_max={l_max}: scale-relative deviation {dev:.2e}"


def test_sesop_tn_expsquares_beats_classic_budget():
    obj = make_expsquares(100)
    f_opt = obj.ground_truth.f_opt

    def steps_to(trace, tol=1e-8):
        for rec in trace.records:
            if rec.f_value - f_opt <= tol:
                return rec.cum_steps
        return np.inf

    _, tr_s = run_sesop_tn(obj, np.zeros(100), l_max=10, grad_tol=1e-12,
                           max_iters=400, max_cum_steps=3000)
    _, tr_c = run_tn_classic(obj, np.zeros(100), l_max=10, grad_tol=1e-12,
                             max_iters=400, max_cum_steps=3000)
    assert steps_to(tr_s) <= steps_to(tr_c)
    assert np.isfinite(steps_to(tr_s))


def test_sesop_tn_monotone_and_stationary():
    obj = make_expsquares(60)
    x, trace = run_sesop_tn(obj, np.zeros(60), l_max=10, grad_tol=1e-10,
                            max_iters=200)
    assert trace.header["status"] in ("stationary", "stalled")
    assert abs(trace.final.f_value - obj.ground_truth.f_opt) <= 1e-9
    assert_monotone(trace.column("f_value"))


def test_sesop_tn_zero_outer_iterations_at_optimum():
    obj = make_expsquares(20)
    _, trace = run_sesop_tn(obj, obj.ground_truth.x_opt, grad_tol=1e-8)
    assert trace.header["status"] == "stationary"
    assert trace.final.iter == 0


def test_sesop_tn_rejects_nonsmooth_composite():
    from conftest import small_l1

    obj, _ = small_l1()
    with pytest.raises(TypeError, match="smooth"):
        run_sesop_tn(obj, np.zeros(obj.dim))


def test_sesop_tn_composite_least_squares_path():
    obj = make_quadratic_ls(50, seed=9)
    x, trace = run_sesop_tn(obj, np.zeros(50), l_max=5, grad_tol=1e-9,
                            max_iters=200)
    assert trace.final.f_value <= 1e-14 * trace.records[0].f_value
    assert_monotone(trace.column("f_value"))
    assert trace.final.matvecs > 0  # composite path uses counted products


def test_sesop_tn_inner_rows_interleave():
    obj = make_quadratic_ls(40, seed=10)
    _, trace = run_sesop_tn(obj, np.zeros(40), l_max=4, grad_tol=0.0,
                            max_iters=5, trace_inner=True)
    cum = trace.column("cum_steps")
    assert np.all(np.diff(cum) >= 1)  # strictly advancing cumulative axis
    # inner rows carry the running model value, monotone within one outer pass
    by_iter = {}
    for rec in trace.records:
        by_iter.setdefault(rec.iter, []).append(rec.f_value)
    for it, fs in by_iter.items():
        assert_monotone(fs, slack=1e-10)


def test_degenerate_inner_state_still_builds_a_frame():
    # an empty inner run leaves only the model gradient as a direction;
    # the frame must stay usable
    g = seeded_rng(59).standard_normal(12)
    st = InnerCgState(d=np.zeros(12), x_last=np.zeros(12), model_grad=g,
                      last_step=None, n_steps=0, neg_curvature=False)
    frame = build_frame(np.zeros(12), frame_columns(st, None),
                        HistoryBuffer(2), 2)
    assert frame.size == 1 and frame.tags == ["tn_model_grad"]


def test_sesop_tn_frames_drop_no_column(monkeypatch):
    # after a one-step inner run the last inner direction is the truncated
    # step itself; offering it would only be dropped again as a duplicate
    import sesopt.tn as tn

    build = tn.build_frame
    frames = []

    def recording_build_frame(*args, **kwargs):
        frames.append(build(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(tn, "build_frame", recording_build_frame)
    for obj in (make_expsquares(200),
                make_svm_smooth(150, 60, seed=8, violation_frac=0.1)):
        for l_max in (1, 10):
            frames.clear()
            run_sesop_tn(obj, np.zeros(obj.dim), l_max=l_max, grad_tol=1e-10,
                         max_iters=300)
            assert len(frames) > 5
            assert [f.dropped for f in frames if f.dropped] == []


# -- the linear-loss subspace path ----------------------------------------------

def _callable_twin(obj):
    """The same objective behind plain callables: no products to cache."""
    return CallableObjective(obj.dim, value=obj._value, grad=obj._grad,
                             hvp=obj._hvp)


def test_sesop_tn_cached_products_follow_the_hvp_path_on_svm():
    svm = make_svm_smooth(150, 60, seed=8, violation_frac=0.1)
    twin = _callable_twin(svm)
    x0 = np.zeros(svm.dim)
    for l_max in (1, 10):
        _, tr = run_sesop_tn(svm, x0, l_max=l_max, grad_tol=0.0, max_iters=15)
        _, tr_h = run_sesop_tn(twin, x0, l_max=l_max, grad_tol=0.0, max_iters=15)
        assert tr.final.iter == tr_h.final.iter == 15
        assert tr.final.hvps < tr_h.final.hvps  # no hvps in the frame solve
        assert tr_h.final.matvecs == 0 < tr.final.matvecs
        np.testing.assert_array_equal(tr.column("cum_steps"),
                                      tr_h.column("cum_steps"))
        np.testing.assert_allclose(tr.column("f_value"), tr_h.column("f_value"),
                                   rtol=1e-10, atol=0.0)


def test_sesop_tn_matvec_budget_binds_on_linear_loss_problems():
    svm = make_svm_smooth(150, 60, seed=8, violation_frac=0.1)
    _, tr = run_solver("sesop_tn:l_max=10", svm, grad_tol=0.0, max_iters=500,
                       max_matvecs=30)
    assert tr.header["status"] == "max_matvecs"
    assert 30 <= tr.final.matvecs < 30 + 10  # one frame's products past it


def test_sesop_tn_carried_products_stay_true_to_the_iterate():
    # A x and the history products are carried, never recomputed; a run far
    # past its target must still report f at the point it returns
    obj = make_expsquares(200)
    x, tr = run_sesop_tn(obj, np.zeros(200), l_max=1, grad_tol=1e-12,
                         max_iters=3000)
    assert tr.final.iter > 300
    assert tr.final.f_value == pytest.approx(obj.value(x), rel=1e-14)
    assert min(tr.column("f_minus_fopt")) >= -1e-14


def test_sesop_tn_stalls_once_the_iterate_stops_moving():
    # behind plain callables the frame solve takes the hvp path; on
    # expsquares n=200 it reaches a bitwise fixed point with alpha != 0
    e = make_expsquares(200)
    obj = CallableObjective(200, value=e._value, grad=e._grad, hvp=e._hvp)
    obj.ground_truth = e.ground_truth
    seen = []
    x, tr = run_sesop_tn(obj, np.zeros(200), l_max=1, grad_tol=1e-12,
                         max_iters=1000, callback=lambda k, z: seen.append(z))
    assert tr.header["status"] == "stalled"
    assert tr.final.iter < 700
    assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
    assert tr.final.f_minus_fopt <= 1e-8


class _LinearLossCallable(LinearLossObjective, CallableObjective):
    """Plain callables plus the linear-loss structure."""


def _uncached_svm(svm):
    """The SVM rebuilt from its data with formulas that cache nothing.

    It keeps the linear-loss structure, so sesop_tn solves its frames on
    the same cached-products path as the SVM itself, and takes the carried
    X w that sesop_tn hands over: the margins at that point are y * z
    until another point is asked for. Its line values w + t d with the
    margins m + t y * (X d), m those of w, and holds each trial point's
    margins alike. Everywhere else the margins are y * (X w). Its
    gradient sums over the active rows and its hvp answers a block in one
    pass, as the SVM's do.
    """
    x_rows, y, c = svm.x_rows.copy(), svm.y.copy(), svm.c_penalty
    carried = []  # the (point, margins) handed over or valued last

    def seed_linear_map(w, z):
        carried[:] = [(np.array(w), y * z)]

    def margins(w):
        if carried and np.array_equal(w, carried[0][0]):
            return carried[0][1]
        carried.clear()
        return y * (x_rows @ w)

    def viol(w):
        return np.maximum(0.0, 1.0 - margins(w))

    def value(w):
        s = viol(w)
        return 0.5 * float(w @ w) + c * float(s @ s)

    def line(w, d):
        base, rate = margins(w), y * (x_rows @ d)

        def phi(t):
            twin.counters.fevals += 1
            carried[:] = [(w + t * d, base + t * rate)]
            return value(carried[0][0])
        return phi

    def grad(w):
        return svm_grad(x_rows, y, c, margins(w), w)

    def hvp(w, v):  # one column or a block
        return svm_hvp(x_rows, y, c, margins(w), v)

    def loss(z):
        s = np.maximum(0.0, 1.0 - y * z)
        return c * (s * s)

    def loss_derivatives(z):
        s = np.maximum(0.0, 1.0 - y * z)
        return (-2.0 * c) * (y * s), (2.0 * c) * (s > 0.0)

    twin = _LinearLossCallable(svm.dim, value=value, grad=grad, hvp=hvp)
    twin.linear_map = DenseOperator(x_rows, twin.counters)
    twin.quad_diag = np.ones(svm.dim)
    twin.loss, twin.loss_derivatives = loss, loss_derivatives
    twin.seed_linear_map = seed_linear_map
    twin.line = line
    twin._hvp_block = hvp
    return twin


def test_svm_traces_are_those_of_uncached_formulas():
    svm = make_svm_smooth(150, 60, seed=8, violation_frac=0.1)
    twin = _uncached_svm(svm)
    x0 = np.zeros(svm.dim)
    for run in (lambda o: run_tn_classic(o, x0, l_max=10, grad_tol=0.0,
                                         max_iters=12),
                lambda o: run_sesop_tn(o, x0, l_max=10, grad_tol=0.0,
                                       max_iters=15)):
        _, tr = run(svm)
        _, tr_u = run(twin)
        assert tr.final.hvps > 3 * tr.final.iter  # several hvps per point
        assert len(tr) == len(tr_u) > 10
        for col in ("f_value", "stat_norm", "hvps", "matvecs", "cum_steps"):
            np.testing.assert_array_equal(tr.column(col), tr_u.column(col))


def test_tn_classic_makes_one_product_with_x_per_line_search():
    svm = make_svm_smooth(150, 60, seed=8, violation_frac=0.1)
    passes, searches = [], []
    x_dot, line = svm._x_dot, svm.line
    svm._x_dot = lambda v: (passes.append(1), x_dot(v))[1]
    svm.line = lambda w, d: (searches.append(1), line(w, d))[1]
    _, tr = run_tn_classic(svm, np.zeros(svm.dim), l_max=10, grad_tol=0.0,
                           max_iters=12)
    assert tr.final.iter == len(searches) == 12  # no -g fallback
    assert len(passes) == 1 + len(searches)  # the margins at x0, then X d
    assert tr.final.matvecs == 0 and tr.final.hvps > 3 * tr.final.iter


def test_sesop_tn_carried_map_stays_at_x_w():
    # the carried z = X w is summed from frame products step after step;
    # it must not drift from a fresh product over a long run (a large C
    # keeps this instance from converging within the 400 iterations).
    # SESOP-TN and SESOP both hand each new iterate's z to the SVM, so its
    # margins come from X only at the starting point
    runs = {
        "sesop_tn": lambda o: run_sesop_tn(o, np.zeros(o.dim), l_max=3,
                                           grad_tol=0.0, max_iters=400),
        "sesop": lambda o: run_sesop(o, np.zeros(o.dim),
                                     SesopConfig(grad_tol=0.0, max_iters=400)),
    }
    for name, run in runs.items():
        svm = make_svm_smooth(400, 200, seed=2, c_penalty=100.0,
                              violation_frac=0.05)
        handed, kept = [], []
        seed, keep = svm.seed_linear_map, svm._keep
        svm.seed_linear_map = lambda w, z: (handed.append((w.copy(), z.copy())),
                                            seed(w, z))
        # every cache entry, seeded or computed from X, passes through _keep
        svm._keep = lambda w, margins: (kept.append(1), keep(w, margins))
        _, tr = run(svm)
        assert tr.final.iter == len(handed) == 400, name
        assert len(kept) - len(handed) == 1, name  # margins from X at x0 only
        worst = max(np.linalg.norm(z - svm.x_rows @ w)
                    / np.linalg.norm(svm.x_rows @ w) for w, z in handed)
        assert worst <= 1e-12, name


@pytest.mark.parametrize("spec", ["tn:l_max=5", "sd", "nlcg", "cg"])
def test_newton_and_gradient_baselines_honour_the_matvec_budget(spec):
    # least squares: an hvp is two matvecs (A, then A^T), a value one
    obj = make_quadratic_ls(60, seed=12)
    _, tr = run_solver(spec, obj, grad_tol=0.0, max_iters=5000,
                       max_matvecs=150)
    assert tr.header["status"] == "max_matvecs"
    assert tr.records[-2].matvecs < 150 <= tr.final.matvecs
    assert tr.final.matvecs >= 2 * tr.final.hvps
