"""Program side of the benchmark: builds, solves and writes, nothing else.

Run by ``run.py`` in a process of its own, with the BLAS thread count
fixed in its environment and ``src`` on its path, so that its peak memory
is the program's and no reference computation runs in it. It writes its
outputs under ``--out``: the problem data, one trace CSV and one final
iterate per solver run, a plot table and a summary per round, and
``result.json`` with its timings. ``run.py`` checks all of them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import sesopt
from sesopt import ProblemSpec, emit_plot_data, write_trace_csv
from sesopt.bench import run_solver, write_summary_csv
from spans import Spans
from workloads import (SUBSPACE_SOLVERS, WORKLOADS, blas_threads, round_order,
                       slug, solver_name)

# Set-up is timed in blocks of builds, one before the rounds and one after
# each, so its median samples the machine at several moments of the run; a
# block's sample is its mean build time, which evens out the bimodal times
# of single microsecond-scale builds.
BLOCK_BUILDS = 3
BLOCK_S = 0.25        # a block repeats builds until both minimums are met


def build(workload):
    """The workload's problem, with the lazily built parts made now."""
    obj = ProblemSpec.from_config(workload.problem).build()
    op = getattr(obj, "op", None)
    if op is not None:
        obj.ssf_constant           # power-iteration majorizer
        op.column_norms_sq()       # per-column norms used by pcd
    return obj


def problem_arrays(obj):
    """Arrays an independent checker needs to evaluate the objective."""
    if hasattr(obj, "op"):
        return {"kind": "l1_ls", "a": obj.op.matrix, "b": obj.b, "mu": obj.mu}
    if hasattr(obj, "x_rows"):
        return {"kind": "svm_smooth", "x_rows": obj.x_rows, "y": obj.y,
                "c_penalty": obj.c_penalty}
    return {"kind": "expsquares", "n": obj.dim}


def timed_builds(workload, samples):
    """One block of builds; appends its mean build time to ``samples`` and
    returns the last problem built."""
    start, count = time.perf_counter(), 0
    while count < BLOCK_BUILDS or time.perf_counter() - start < BLOCK_S:
        obj = build(workload)
        count += 1
    samples.append((time.perf_counter() - start) / count)
    return obj


def run_round(workload, obj, order, out_dir, solve=run_solver, write=None):
    """Every solver run of one round, then the round's output files."""
    runs, traces = [], {}
    for i, spec in enumerate(order):
        entry = {"spec": spec, "id": f"{i}-{slug(spec)}"}
        t0 = time.perf_counter()
        try:
            x, trace = solve(spec, obj, **workload.budget)
        except Exception as exc:  # one failed run must not end the round
            entry["error"] = f"{type(exc).__name__}: {exc}"
            runs.append(entry)
            continue
        entry["wall_s"] = time.perf_counter() - t0
        entry["iters"] = trace.final.iter
        entry["status"] = trace.header.get("status", "")
        traces[entry["id"]] = (x, trace)
        runs.append(entry)

    write = write or (lambda fn, *args, **kwargs: fn(*args, **kwargs))
    out_dir.mkdir(parents=True)
    rows = []
    for entry in runs:
        if "error" in entry:
            continue
        op = entry["id"]
        x, trace = traces[op]
        write(write_trace_csv, trace, out_dir / f"{op}.csv", include_wall=True)
        np.save(out_dir / f"{op}.npy", x)
        fin = trace.final
        rows.append({"run": op, "solver": entry["spec"], "status": entry["status"],
                     "iters": fin.iter, "cum_steps": fin.cum_steps,
                     "matvecs": fin.matvecs, "hvps": fin.hvps,
                     "final_f": fin.f_value})
    write(write_summary_csv, rows, out_dir / "summary.csv")
    # the plot table takes each solver's first run of the round
    first = {}
    for entry in runs:
        if "error" not in entry:
            first.setdefault(entry["spec"], traces[entry["id"]][1])
    labels = [s for s in workload.solvers if s in first]
    if labels:
        table = write(emit_plot_data, [first[s] for s in labels],
                      axis=workload.plot_axis, labels=labels)
        (out_dir / "plot.tsv").write_text(table)
    return runs


def traced_round(workload, obj, order, out_dir):
    spans = Spans()

    def solve(spec, *args, **kwargs):
        layer = ("loop.sesop" if solver_name(spec) in SUBSPACE_SOLVERS
                 else "loop.baseline")
        return spans.wrap(layer, run_solver)(spec, *args, **kwargs)

    def write(fn, *args, **kwargs):
        return spans.wrap("trace.write", fn)(*args, **kwargs)

    with spans.install():
        runs = run_round(workload, obj, order, out_dir, solve=solve, write=write)
    layers = {name: {"calls": calls, "self_s": self_s}
              for name, (calls, self_s) in spans.stats.items()}
    return runs, {"layers": layers, "counts": spans.counts,
                  "missing": spans.missing}


def warm_up(workload, obj):
    """Run every solver a few iterations, so lazy state and caches fill."""
    budget = dict(workload.budget, max_iters=3)
    for spec in workload.solvers:
        run_solver(spec, obj, **budget)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = args.out

    setup_times = []
    obj = timed_builds(workload, setup_times)
    np.savez(out / "problem.npz", **problem_arrays(obj))
    warm_up(workload, obj)

    rounds, tracing = [], None
    t_start = time.perf_counter()
    while True:
        k = len(rounds)
        t0 = time.perf_counter()
        runs = run_round(workload, obj, round_order(workload, args.seed, k),
                         out / f"r{k}")
        rounds.append({"dir": f"r{k}", "runs": runs})
        timed_builds(workload, setup_times)
        elapsed = time.perf_counter() - t_start
        longest = max(elapsed / len(rounds), time.perf_counter() - t0)
        if args.trace or elapsed + longest > args.seconds:
            break
    if args.trace:
        k = len(rounds)
        runs, tracing = traced_round(
            workload, obj, round_order(workload, args.seed, k, repeat=False),
            out / f"r{k}")
        tracing["dir"] = f"r{k}"
        tracing["runs"] = runs

    result = {
        "setup_s": setup_times,
        "rounds": rounds,
        "tracing": tracing,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "kernel_backend": sesopt.kernel_backend,
    }
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
