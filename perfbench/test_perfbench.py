"""Fast tests of the benchmark's own checks and of its metric names.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError, check_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

L1, SVM, EXPSQ = (WORKLOADS[n] for n in ("l1_recovery", "svm_tn", "expsq_tn"))


def trace(f, matvecs=None, hvps=None, steps=None):
    f = np.asarray(f, dtype=np.float64)
    k = np.arange(f.size)
    return {"iter": k, "cum_steps": k if steps is None else np.asarray(steps),
            "f_value": f, "matvecs": 2 + 2 * k if matvecs is None else np.asarray(matvecs),
            "hvps": np.zeros_like(k) if hvps is None else np.asarray(hvps),
            "wall_ms": 0.5 * k}


def const(value):
    return lambda x: value


def test_a_sound_run_passes():
    check_run(L1, "sesop:direction=pcd,history=7", trace([1.0, 0.5, 1e-7]),
              np.zeros(3), const(1e-7), 0.0)


def test_f_below_the_reference_minimum_is_rejected():
    with pytest.raises(CheckError, match="below the reference minimum"):
        check_run(L1, "sesop:direction=ssf,history=7", trace([1.0, 0.5, -1e-9]),
                  np.zeros(3), const(-1e-9), 0.0)


def test_rising_f_is_rejected_except_for_plain_fista():
    rising = trace([1.0, 1e-7, 2e-7])
    with pytest.raises(CheckError, match="increases at row 2"):
        check_run(L1, "sesop:direction=pcd,history=7", rising, np.zeros(3),
                  const(2e-7), 0.0)
    fista = trace([1.0, 1e-7, 2e-7], matvecs=[2, 3, 5])
    check_run(L1, "fista", fista, np.zeros(3), const(2e-7), 0.0)


def test_a_third_matvec_in_an_iteration_is_rejected():
    with pytest.raises(CheckError, match="3 operator applications in iteration 2"):
        check_run(L1, "sesop:direction=pcd,history=7",
                  trace([1.0, 0.5, 0.25, 1e-7], matvecs=[2, 4, 7, 9]),
                  np.zeros(3), const(1e-7), 0.0)
    with pytest.raises(CheckError, match="3 operator applications in iteration 1"):
        check_run(L1, "fista", trace([1.0, 0.5, 1e-7], matvecs=[2, 5, 7]),
                  np.zeros(3), const(1e-7), 0.0)


def test_a_missed_target_is_rejected():
    with pytest.raises(CheckError, match="target missed"):
        check_run(L1, "fista", trace([1.0, 1e-5], matvecs=[2, 3]), np.zeros(3),
                  const(1e-5), 0.0)
    # svm's target is relative to the initial gap
    with pytest.raises(CheckError, match="target missed"):
        check_run(SVM, "tn:l_max=10", trace([2.0, 1.0 + 2e-4]), np.zeros(3),
                  const(1.0 + 2e-4), 1.0)
    check_run(SVM, "tn:l_max=10", trace([2.0, 1.0 + 5e-5]), np.zeros(3),
              const(1.0 + 5e-5), 1.0)


def test_a_final_f_that_is_not_f_of_the_returned_point_is_rejected():
    with pytest.raises(CheckError, match="final f"):
        check_run(L1, "fista", trace([1.0, 1e-7], matvecs=[2, 3]), np.zeros(3),
                  const(2e-7), 0.0)


def test_expsq_kkt_residual_and_its_perturbation():
    n = 200
    f_opt, x_opt = checks.expsq_reference(n)
    assert checks.expsq_kkt(x_opt) < 1e-15
    f_of = checks.objective({"kind": "expsquares", "n": n})
    assert abs(f_of(x_opt) - f_opt) == 0.0
    tr = trace([f_opt + 1.0, f_opt])
    check_run(EXPSQ, "tn:l_max=10", tr, x_opt, f_of, f_opt)
    bumped = x_opt.copy()
    bumped[-1] += 1e-3  # KKT residual j^2 * 1e-3 = 40, the gap 20
    tr = trace([f_of(bumped) + 1.0, f_of(bumped)])
    with pytest.raises(CheckError, match="KKT residual"):
        check_run(EXPSQ, "tn:l_max=10", tr, bumped, f_of,
                  f_of(bumped) - 1e-9)  # a wrong f* that would pass the target


def test_expsq_fixed_point_matches_the_omega_constant():
    # n = 1: s = exp(-s) at the omega constant
    f_opt, x_opt = checks.expsq_reference(1)
    assert math.isclose(x_opt[0], 0.5671432904097838, rel_tol=1e-15)


def _l1_data(seed=3, m=20, n=40, k=3, mu=0.1):
    """Small L1 problem built around a known minimizer by its KKT conditions."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) / math.sqrt(m)
    x = np.zeros(n)
    x[:k] = [1.0, -2.0, 0.5]
    a_s = a[:, :k]
    r = -0.5 * mu * a_s @ np.linalg.solve(a_s.T @ a_s, np.sign(x[:k]))
    assert np.max(np.abs(2 * a.T @ r)[k:]) < mu  # off-support KKT holds
    return {"kind": "l1_ls", "a": a, "b": a @ x - r, "mu": mu}, x


def test_l1_certificate_accepts_the_minimizer_and_rejects_a_perturbed_one():
    data, x = _l1_data()
    f_opt = checks.certify_l1(data, x)
    assert math.isclose(f_opt, checks.objective(data)(x))
    moved = x.copy()
    moved[0] += 1e-3
    with pytest.raises(CheckError, match="KKT"):
        checks.certify_l1(data, moved)
    grown = x.copy()
    grown[5] = 1e-3
    with pytest.raises(CheckError, match="KKT"):
        checks.certify_l1(data, grown)


def test_svm_certificate_rejects_a_perturbed_minimizer():
    rng = np.random.default_rng(4)
    data = {"kind": "svm_smooth", "x_rows": rng.standard_normal((30, 5)),
            "y": np.sign(rng.standard_normal(30)), "c_penalty": 1.0}
    w = np.zeros(5)
    for _ in range(50):  # generalized Newton on the active rows
        z = data["x_rows"] * data["y"][:, None]
        za = z[1.0 - z @ w > 0.0]
        w = w - np.linalg.solve(np.eye(5) + 2.0 * za.T @ za,
                                checks.svm_gradient(data, w))
    checks.certify_svm(data, w)
    with pytest.raises(CheckError, match="gradient norm"):
        checks.certify_svm(data, w + 1e-6)


def test_stored_references_certify_on_the_workload_data():
    from worker import build, problem_arrays

    for workload in (L1, SVM):
        data = problem_arrays(build(workload))
        f_opt = checks.reference_minimum(workload, data)
        refs = json.loads(checks.REFERENCES.read_text())
        assert f_opt == refs[workload.name]["f_opt"]


def test_trace_parser_reads_the_package_output(tmp_path):
    from sesopt import make_expsquares, write_trace_csv
    from sesopt.bench import run_solver

    obj = make_expsquares(20)
    _, tr = run_solver("tn:l_max=5", obj, grad_tol=1e-10, max_iters=20)
    write_trace_csv(tr, tmp_path / "t.csv", include_wall=True)
    parsed = checks.read_trace(tmp_path / "t.csv")
    assert parsed["f_value"].tolist() == tr.column("f_value").tolist()
    assert parsed["hvps"].tolist() == tr.column("hvps").tolist()
    assert parsed["wall_ms"].size == len(tr)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {"perfbench"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

    fig = {"wall_s": 1.0, "ttt_s": 0.5, "work": (10, 7, 3)}
    timed = run.figures([("fista", fig)])
    assert set(timed) | {"setup_s", "peak_rss_mb"} == set(run.END_TO_END)
    tracing = {"layers": {"core.matvec": {"calls": 4, "self_s": 0.1}},
               "counts": {"frame_cols": 3}}
    assert set(run.per_layer(tracing, timed, timed)) == set(run.PER_LAYER)


def test_figures_take_each_solvers_median_run_and_need_repeating_work():
    def fig(wall, work=(100, 40, 20)):
        return {"wall_s": wall, "ttt_s": wall / 2, "work": work}

    runs = [("fista", fig(1.0)), ("fista", fig(9.0)), ("fista", fig(2.0)),
            ("sesop:direction=pcd,history=7", fig(4.0, (50, 30, 10)))]
    out = run.figures(runs)
    assert out["solve_s"] == 6.0 and out["time_to_target_s"] == 3.0
    assert out["baseline_us_per_iter"] == 2.0e6 / 100
    assert out["sesop_us_per_iter"] == 4.0e6 / 50
    assert (out["ops_to_target"], out["steps_to_target"]) == (70, 30)
    with pytest.raises(CheckError, match="work differs"):
        run.figures(runs + [("fista", fig(1.0, (100, 41, 20)))])


def test_round_order_is_seeded_and_repeats_short_runs():
    order = WORKLOADS["l1_recovery"]
    from workloads import round_order

    a, b = round_order(order, 7, 0), round_order(order, 7, 0)
    assert a == b and a.count("fista") == 4 and len(a) == 6
    assert sorted(round_order(order, 7, 1, repeat=False)) == sorted(order.solvers)
