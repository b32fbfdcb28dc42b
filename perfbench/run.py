"""Benchmark of the sesopt solvers: one workload per call, checked and timed.

    python3 perfbench/run.py --workload l1_recovery --seed 1 --seconds 40 --trace 0

Runs ``worker.py`` in a child process with one BLAS thread, which builds
the workload's problem several times (set-up), then runs whole rounds of
the workload's solver runs for about ``--seconds`` seconds. Each solver
run is one operation; it fails if it raises, misses its target within its
budget or fails a check. Figures take each solver's median run. With
``--trace 1`` the child runs one plain round and then one round with every
layer's entry points wrapped, and this prints the per-layer figures
instead. The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

from workloads import (BLAS_ENV, BLAS_THREADS, SUBSPACE_SOLVERS, WORKLOADS,
                       solver_name)

os.environ.update(BLAS_ENV)  # this process's numpy, too

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import (CheckError, check_round_files, check_run,  # noqa: E402
                    objective, read_trace, reference_minimum, target_row)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "time_to_target_s": "s",
    "sesop_us_per_iter": "us", "baseline_us_per_iter": "us",
    "ops_to_target": "count", "steps_to_target": "count", "peak_rss_mb": "MB",
}

# per-layer metric -> (span layer, statistic); see README.md for which
# end-to-end metric each should move
LAYER_SPANS = {
    "core.matvecs": ("core.matvec", "calls"),
    "core.matvec_ms": ("core.matvec", "self_ms"),
    "problems.hvps": ("problems.hvp", "calls"),
    "problems.hvp_ms": ("problems.hvp", "self_ms"),
    "problems.fg_calls": ("problems.fg", "calls"),
    "problems.fg_ms": ("problems.fg", "self_ms"),
    "kernels.calls": ("kernels", "calls"),
    "kernels.ms": ("kernels", "self_ms"),
    "subspace.frames": ("subspace.frame", "calls"),
    "subspace.frame_ms": ("subspace.frame", "self_ms"),
    "subspace.solves": ("subspace.solve", "calls"),
    "subspace.solve_self_ms": ("subspace.solve", "self_ms"),
    "subspace.linesearches": ("subspace.linesearch", "calls"),
    "subspace.linesearch_self_ms": ("subspace.linesearch", "self_ms"),
    "tn.inner_cg_calls": ("tn.inner_cg", "calls"),
    "tn.inner_cg_self_ms": ("tn.inner_cg", "self_ms"),
    "loop.sesop_self_ms": ("loop.sesop", "self_ms"),
    "loop.baseline_self_ms": ("loop.baseline", "self_ms"),
    "trace.write_ms": ("trace.write", "self_ms"),
}
LAYER_COUNTS = {
    "subspace.frame_cols": "frame_cols",
    "subspace.frame_dropped": "frame_dropped",
    "subspace.newton_steps": "newton_steps",
    "subspace.solve_hvps": "solve_hvps",
    "tn.inner_cg_steps": "inner_cg_steps",
    "trace.bytes": "trace_bytes",
}
PER_LAYER = {**{k: ("ms" if stat == "self_ms" else "count")
                for k, (_, stat) in LAYER_SPANS.items()},
             **{k: "count" for k in LAYER_COUNTS},
             "tracing_overhead_s": "s"}


def run_worker(args, out):
    env = dict(os.environ)  # BLAS_ENV included
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    # the worker's own output goes to stderr: stdout ends with the result
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads((out / "result.json").read_text())


def check_round(workload, out, rnd, f_of, f_opt, problems):
    """Check one round's runs; returns [(spec, figures)] of the runs that passed."""
    rdir = out / rnd["dir"]
    passed, traces, firsts = [], {}, {}
    for run in rnd["runs"]:
        spec, op = run["spec"], run["id"]
        try:
            if "error" in run:
                raise CheckError(run["error"])
            tr = read_trace(rdir / f"{op}.csv")
            traces[op] = tr
            firsts.setdefault(spec, op)
            check_run(workload, spec, tr, np.load(rdir / f"{op}.npy"), f_of, f_opt)
        except (CheckError, OSError, ValueError) as exc:
            problems.append(f"{rnd['dir']} {op}: {exc}")
            continue
        k = target_row(tr, workload, f_opt)
        passed.append((spec, {
            "wall_s": run["wall_s"], "ttt_s": float(tr["wall_ms"][k]) / 1e3,
            "work": (int(tr["iter"][-1]), int(tr["matvecs"][k] + tr["hvps"][k]),
                     int(tr["cum_steps"][k])),
        }))
    try:
        check_round_files(rdir, traces,
                          {s: firsts[s] for s in workload.solvers if s in firsts})
    except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckError(f"{rnd['dir']}: {exc}") from exc
    return passed


def figures(passed):
    """Workload figures from each solver's median run over the given runs.

    The work counts (iterations, and operations and steps to target) of a
    solver must repeat exactly in every run; CheckError otherwise.
    """
    by_spec = {}
    for spec, fig in passed:
        by_spec.setdefault(spec, []).append(fig)
    med = {}
    for spec, figs in by_spec.items():
        work = {f["work"] for f in figs}
        if len(work) > 1:
            raise CheckError(f"{spec}: work differs between runs: {sorted(work)}")
        med[spec] = (statistics.median(f["wall_s"] for f in figs),
                     statistics.median(f["ttt_s"] for f in figs), work.pop())

    def per_iter_us(subspace):
        sel = [m for spec, m in med.items()
               if (solver_name(spec) in SUBSPACE_SOLVERS) == subspace]
        iters = sum(m[2][0] for m in sel)
        return 1e6 * sum(m[0] for m in sel) / iters if iters else float("nan")

    return {
        "solve_s": sum(m[0] for m in med.values()),
        "time_to_target_s": sum(m[1] for m in med.values()),
        "sesop_us_per_iter": per_iter_us(True),
        "baseline_us_per_iter": per_iter_us(False),
        "ops_to_target": sum(m[2][1] for m in med.values()),
        "steps_to_target": sum(m[2][2] for m in med.values()),
    }


def per_layer(tracing, untraced, traced):
    stats, counts = tracing["layers"], tracing["counts"]
    values = {}
    for name, (layer, stat) in LAYER_SPANS.items():
        s = stats.get(layer, {"calls": 0, "self_s": 0.0})
        values[name] = s["calls"] if stat == "calls" else s["self_s"] * 1e3
    for name, key in LAYER_COUNTS.items():
        values[name] = counts.get(key, 0)
    values["tracing_overhead_s"] = traced["solve_s"] - untraced["solve_s"]
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sesopt" / "__init__.py").is_file():
        print(f"no sesopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    result = run_worker(args, out)
    problems = []  # failed operations
    correct = True
    with np.load(out / "problem.npz") as npz:
        data = dict(npz)
    f_of = objective(data)
    traced = [result["tracing"]] if result["tracing"] else []
    rounds = result["rounds"] + traced
    try:
        f_opt = reference_minimum(workload, data)
        passed = [check_round(workload, out, r, f_of, f_opt, problems)
                  for r in rounds]
        timed = figures([p for r in passed[:len(result["rounds"])] for p in r])
        if traced:
            values = per_layer(result["tracing"], timed, figures(passed[-1]))
        else:
            values = {"setup_s": statistics.median(result["setup_s"]),
                      "peak_rss_mb": result["peak_rss_kb"] / 1024.0, **timed}
    except CheckError as exc:
        print(f"incorrect: {exc}", file=sys.stderr)
        correct, values = False, {}
    attempted = sum(len(r["runs"]) for r in rounds)
    for line in problems:
        print(f"failed: {line}", file=sys.stderr)

    threads = result["blas_threads"]
    if threads is not None and str(threads) != BLAS_THREADS:
        print(f"incorrect: OpenBLAS runs {threads} threads", file=sys.stderr)
        correct = False

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values.get(name, float("nan")), "unit": unit}
               for name, unit in units.items()}
    print(f"{workload.name}: {len(result['rounds'])} timed round(s), "
          f"{len(result['setup_s'])} set-up blocks, BLAS threads {threads}, "
          f"kernel backend {result['kernel_backend']}"
          + (f"; unwrapped: {', '.join(result['tracing']['missing'])}"
             if args.trace and result["tracing"]["missing"] else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
