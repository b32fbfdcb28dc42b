import functools
import math
from pathlib import Path

import numpy as np
import pytest

from sesopt import (Trace, emit_plot_data, make_l1_ls, make_quadratic_ls,
                    read_trace_csv, snr_db, write_trace_csv)
from sesopt import bench
from sesopt.bench import SOLVER_OPTIONS, parse_solver, run_single, run_solver
from sesopt.cli import main


def _toy_trace(problem="kind=quadratic_ls,n=4,seed=1", solver="name=x",
               aux_name=None):
    tr = Trace(header={"problem": problem, "solver": solver, "seed": "1",
                       "status": "max_iters"}, aux_name=aux_name)
    return tr


# -- trace CSV round trip ------------------------------------------------------

def test_trace_csv_round_trip_is_exact(tmp_path):
    tr = _toy_trace(aux_name="snr_db")
    vals = [0.1 + 0.2, 1e-300, 3.0, float(np.float64(1) / 3)]
    for k, v in enumerate(vals):
        tr.add(iter=k, cum_steps=2 * k, f_value=v,
               f_minus_fopt=None if k == 0 else v - 1e-3,
               stat_norm=v * 0.5, matvecs=3 * k, hvps=k,
               wall_ms=7.5 * k, aux=None if k == 3 else -12.25 * k)
    path = tmp_path / "t.csv"
    write_trace_csv(tr, path)
    back = read_trace_csv(path)

    assert back.header == tr.header
    assert back.aux_name == "snr_db"
    assert len(back) == len(tr)
    for a, b in zip(tr.records, back.records):
        assert b.iter == a.iter and b.cum_steps == a.cum_steps
        assert b.f_value == a.f_value  # repr round trip, bit exact
        assert b.f_minus_fopt == a.f_minus_fopt
        assert b.stat_norm == a.stat_norm
        assert b.matvecs == a.matvecs and b.hvps == a.hvps
        assert b.aux == a.aux
        assert b.wall_ms == 0.0  # wall time is opt-in, not round tripped


def test_trace_csv_can_keep_wall_times(tmp_path):
    tr = _toy_trace()
    tr.add(iter=0, cum_steps=0, f_value=1.0, f_minus_fopt=None,
           stat_norm=1.0, matvecs=0, hvps=0, wall_ms=12.125)
    path = tmp_path / "t.csv"
    write_trace_csv(tr, path, include_wall=True)
    assert read_trace_csv(path).final.wall_ms == 12.125


def test_reader_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


# -- plot tables ----------------------------------------------------------------

def _plot_pair():
    ta = _toy_trace(solver="name=a")
    for mv, f in ((0, 3.0), (2, 2.0), (4, 1.0)):
        ta.add(iter=mv, cum_steps=mv, f_value=f, f_minus_fopt=None,
               stat_norm=1.0, matvecs=mv, hvps=0)
    tb = _toy_trace(solver="name=b")
    for mv, f in ((3, 10.0), (4, 5.0)):
        tb.add(iter=mv, cum_steps=mv, f_value=f, f_minus_fopt=None,
               stat_norm=1.0, matvecs=mv, hvps=0)
    return ta, tb


def test_plot_table_step_interpolates_on_the_union_grid():
    ta, tb = _plot_pair()
    lines = emit_plot_data([ta, tb], "matvecs").splitlines()
    assert lines[0] == "matvecs\tname=a\tname=b"
    rows = [ln.split("\t") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["0", "2", "3", "4"]
    assert [r[1] for r in rows] == ["3.0", "2.0", "2.0", "1.0"]
    # second trace starts at matvecs=3: blank cells before that
    assert [r[2] for r in rows] == ["", "", "10.0", "5.0"]


def test_plot_table_input_validation():
    ta, tb = _plot_pair()
    tb.header["problem"] = "kind=quadratic_ls,n=5,seed=1"
    with pytest.raises(ValueError, match="incomparable"):
        emit_plot_data([ta, tb], "matvecs")
    with pytest.raises(ValueError, match="axis"):
        emit_plot_data([ta], "nonsense")


def test_snr_db_values():
    assert snr_db([3.0, 4.0], [3.0, 4.5]) == pytest.approx(20.0, abs=1e-12)
    assert snr_db([3.0, 4.0], [3.0, 4.0]) == math.inf


# -- single-cell runner -----------------------------------------------------------

def test_run_single_is_byte_reproducible(tmp_path):
    cfg = "kind=quadratic_ls,n=30,seed=7"
    spec = "sesop:direction=ssf,history=2"
    files_a = run_single(cfg, spec, out_dir=tmp_path / "a", max_iters=40)
    files_b = run_single(cfg, spec, out_dir=tmp_path / "b", max_iters=40)
    for fa, fb in zip(files_a, files_b):
        assert Path(fa).name == Path(fb).name
        if fa.endswith("manifest.json"):
            continue  # carries timestamps by design
        assert Path(fa).read_bytes() == Path(fb).read_bytes()
    trace = read_trace_csv(files_a[0])
    assert trace.header["status"] in ("stationary", "max_iters")
    assert len(trace) >= 2


def test_parse_solver_lists_valid_names():
    with pytest.raises(ValueError, match="valid: cg, sd, nlcg, ista, fista, "
                                         "sesop, tn, sesop_tn$"):
        parse_solver("simplex")
    name, opts = parse_solver("sesop_tn: l_max = 5 ,outer_history=3")
    assert name == "sesop_tn"
    assert opts == {"l_max": "5", "outer_history": "3"}


@pytest.mark.parametrize("spec, valid", [
    ("sesop:bogus=3", "direction, orth, history"),
    ("tn:history=9", "l_max"),
    ("fista:restrat=1", "c, restart"),
], ids=["sesop:bogus", "tn:history", "fista:restrat"])
def test_run_solver_rejects_options_the_solver_does_not_read(spec, valid):
    obj = make_quadratic_ls(8, seed=1)
    with pytest.raises(ValueError, match=f"unknown option.*valid: {valid}$"):
        run_solver(spec, obj, max_iters=3)


@pytest.mark.parametrize("spec", ["sesop:direction=pcd,history=-1",
                                  "sesop_tn:outer_history=-1"])
def test_negative_history_is_an_error(spec, tmp_path, capsys):
    # a negative bound once kept no step, the same run as history=0; it is
    # rejected before the first row, so also by a run that records no frame:
    # one with no iterations, or one that starts stationary
    obj = make_l1_ls(40, 80, seed=1)
    if spec.startswith("sesop_tn"):
        obj = make_quadratic_ls(40, seed=1)
    for budget in ({"grad_tol": 0.0, "max_iters": 5},
                   {"grad_tol": 0.0, "max_iters": 0},
                   {"grad_tol": 1e30, "max_iters": 5}):
        with pytest.raises(ValueError, match="history length must be >= 0"):
            run_solver(spec, obj, **budget)
    assert main(["--problem", "kind=quadratic_ls,n=20,seed=2", "--solver",
                 spec, "--out", str(tmp_path)]) == 1
    assert "history length must be >= 0" in capsys.readouterr().err


def test_cg_spec_iteration_cap_never_raises_the_run_budgets():
    # as in sesop_cg_equiv: the spec asks for 110 steps, the plan allows 105
    obj = make_quadratic_ls(120, seed=1)
    for budget in ({"max_cum_steps": 105}, {"max_iters": 105}):
        _, tr = run_solver("cg:tol=0.0,max_iters=110", obj, grad_tol=0.0,
                           **budget)
        assert tr.header["status"] == "max_iters"
        assert tr.final.iter == tr.final.cum_steps == 105
    _, tr = run_solver("cg:tol=0.0,max_iters=20", obj, grad_tol=0.0,
                       max_iters=105)
    assert tr.final.iter == 20


# the runners run_solver dispatches to, each of which takes a callback
_RUNNERS = ("run_linear_cg", "run_steepest_descent", "run_nonlinear_cg",
            "run_ssf_iteration", "run_fista", "run_sesop", "run_tn_classic",
            "run_sesop_tn")


@pytest.mark.parametrize("name", list(SOLVER_OPTIONS))
def test_every_solver_counts_records_and_stops_alike(name, monkeypatch):
    seen = []
    for fn in _RUNNERS:
        monkeypatch.setattr(bench, fn, functools.partial(
            getattr(bench, fn), callback=lambda k, x: seen.append(k)))

    def run(**budget):
        # the proximal and subspace solvers get an l1 problem
        obj = (make_quadratic_ls(40, seed=3)
               if name in ("cg", "sd", "nlcg", "tn", "sesop_tn")
               else make_l1_ls(20, 40, seed=3, mu=1e-3))
        obj.counters.matvecs = obj.counters.hvps = 999  # the run resets them
        seen.clear()
        _, trace = run_solver(name, obj, grad_tol=0.0, **budget)
        first = trace.records[0]
        assert (first.iter, first.cum_steps) == (0, 0)
        assert (first.matvecs, first.hvps) == (2, 0)  # the starting point's
        assert seen == [rec.iter for rec in trace.records]
        return trace, trace.final, trace.records[-2]

    trace, last, _ = run(max_iters=4)
    assert trace.header["status"] == "max_iters" and last.iter == 4
    trace, last, before = run(max_matvecs=15)
    assert trace.header["status"] == "max_matvecs"
    assert last.matvecs >= 15 > before.matvecs
    trace, last, before = run(max_cum_steps=6)
    if name in ("tn", "sesop_tn"):
        assert trace.header["status"] == "max_steps"
        assert last.cum_steps >= 6 > before.cum_steps
    else:  # one step per iteration: the step budget caps the iterations
        assert trace.header["status"] == "max_iters"
        assert last.iter == last.cum_steps == 6


# -- CLI ---------------------------------------------------------------------------

def test_cli_single_cell_success(tmp_path, capsys):
    code = main(["--problem", "kind=quadratic_ls,n=25,seed=3",
                 "--solver", "cg:tol=1e-10", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed
    for f in printed:
        assert Path(f).exists()
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_cli_flag_validation(tmp_path, capsys):
    assert main([]) == 1
    assert main(["--experiment", "fig2_quadratic_tn",
                 "--problem", "kind=quadratic_ls,n=4"]) == 1
    assert main(["--problem", "kind=quadratic_ls,n=4"]) == 1  # missing --solver
    assert main(["--bogus-flag"]) == 1
    assert main(["--experiment", "no_such_experiment"]) == 1
    assert main(["--problem", "kind=quadratic_ls,n=4", "--solver", "simplex",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "unknown solver 'simplex'; valid: cg, sd, nlcg, ista, fista, sesop, " \
           "tn, sesop_tn" in err
    # an experiment's plan fixes its stop rules; the single-cell flags
    # must not be silently dropped
    for flag, value in (("--max-iters", "3"), ("--grad-tol", "1.0")):
        assert main(["--experiment", "bound_1k2", flag, value,
                     "--out", str(tmp_path / "exp")]) == 1
        assert "single-cell runs only" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_cli_reports_solver_failure(tmp_path, capsys):
    # classic TN needs curvature information the nonsmooth composite lacks
    code = main(["--problem", "kind=l1_ls,m=20,n=40,mu=0.001,seed=1",
                 "--solver", "tn", "--out", str(tmp_path)])
    assert code == 2
    assert "solver failure" in capsys.readouterr().err


def test_cli_honors_bench_out_env(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv("BENCH_OUT", str(target))
    code = main(["--problem", "kind=quadratic_ls,n=20,seed=2",
                 "--solver", "sd", "--max-iters", "30"])
    assert code == 0
    capsys.readouterr()
    assert target.is_dir() and (target / "summary.csv").exists()
