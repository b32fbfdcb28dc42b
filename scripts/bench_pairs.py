"""Interleaved benchmark pairs of two checkouts of this repository.

    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --workload l1_recovery --pairs 10 --first-seed 9601 --out BENCH.json

Runs ``perfbench/run.py --trace 0`` in each checkout as pairs, one pair per
seed, for the ``run_seconds`` that the change's ``BENCHMARK.json`` sets: the
base runs first in even pairs and the change runs first in odd ones, so
drift of the machine falls on both sides alike. For every end-to-end metric
of each workload it writes both sides' medians and quartiles, every run's
value, the pairs the change won (ties count for neither) and the change's
median relative to the base's, with the bound from ``BENCHMARK.json``,
and a verdict:

- ``gain``: over at least ten pairs in which every run was correct and the
  change failed no more operations than the base, the change wins nine in
  ten pairs and its median beats the base's by more than the base's
  interquartile range;
- ``worse``: the change's median is worse than the base's by more than the
  bound, taken relative to the base's median;
- ``unresolved``: the change's median is worse, within the bound, but the
  base's interquartile range is wider than the bound, so the pairs cannot
  tell the move from noise; so is every metric of fewer than two pairs;
- ``within_bound``: anything else.

A change whose every run beats every base run has the better median, so it
is never ``unresolved``. The rows that are not ``within_bound`` are printed
at the end. The JSON also names the two git commits, the BLAS thread count
that perfbench reports and the machine. It is rewritten after every pair,
so an interrupted run keeps the pairs made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 600
MIN_PAIRS = 10  # fewer pairs never resolve a gain


def git_sha(checkout):
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True, check=True)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=checkout, capture_output=True, text=True, check=True)
    return out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run; (result JSON, BLAS threads)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    threads = re.search(r"BLAS threads (\S+),", proc.stdout)
    return json.loads(lines[-1]), threads.group(1) if threads else None


def side_stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def summarize(pairs, bounds):
    """Per-metric figures of one workload's pairs."""
    sides = ("base", "change")
    clean = (all(p[s]["correct"] for p in pairs for s in sides)
             and sum(p["change"]["failed"] for p in pairs)
             <= sum(p["base"]["failed"] for p in pairs))
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        better, bound = bounds.get(name, ("lower", None))
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        row = {"unit": pairs[0]["base"]["metrics"][name]["unit"],
               "better": better, "bound": bound, "pairs": len(pairs),
               "change_wins": wins}
        if len(pairs) >= 2:
            row["base"], row["change"] = side_stats(base), side_stats(change)
            b_med, c_med = row["base"]["median"], row["change"]["median"]
            row["change_over_base"] = c_med / b_med if b_med else None
            row["base_iqr"] = iqr = row["base"]["q3"] - row["base"]["q1"]
            row["verdict"] = verdict(
                sign * (c_med - b_med), iqr, abs(b_med), bound,
                clean and len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs))
        else:
            row["base"], row["change"] = {"runs": base}, {"runs": change}
            row["verdict"] = "unresolved"
        out[name] = row
    return out


def verdict(worsening, base_iqr, scale, bound, wins_enough):
    """Verdict of one metric. ``worsening`` is how much worse the change's
    median is than the base's (negative when better), ``scale`` the base's
    median, which a relative ``bound`` (None: no bound) multiplies."""
    if wins_enough and -worsening > base_iqr:
        return "gain"
    if bound is not None and worsening > 0.0:
        if worsening > bound * scale:
            return "worse"
        if base_iqr > bound * scale:
            return "unresolved"
    return "within_bound"


def flagged(report):
    """One line per metric row of ``report`` that is not within_bound."""
    lines = []
    for workload, entry in report["workloads"].items():
        for name, row in entry["metrics"].items():
            if row["verdict"] != "within_bound":
                ratio = row.get("change_over_base")
                lines.append(f"{workload} {name}: {row['verdict']}, change/base "
                             + ("n/a" if ratio is None else f"{ratio:.3f}")
                             + f", {row['change_wins']}/{row['pairs']} pairs won")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="changed checkout")
    ap.add_argument("--workload", required=True, action="append",
                    help="perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--first-seed", type=int, required=True,
                    help="pair i runs seed first-seed + i")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for checkout in (args.base, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            ap.error(f"{checkout} has no perfbench/run.py")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    report = {
        "base": {"sha": git_sha(args.base)},
        "change": {"sha": git_sha(args.change)},
        "run_seconds": spec["run_seconds"],
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "blas_threads": None,
        "workloads": {},
    }
    sides = {"base": args.base, "change": args.change}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result, threads = run_once(sides[side], workload, seed,
                                           spec["run_seconds"])
                pair[side] = result
                report["blas_threads"] = threads
            pairs.append(pair)
            report["workloads"][workload] = {
                "seeds": [p["seed"] for p in pairs],
                "first": [p["first"] for p in pairs],
                "correct": {s: [p[s]["correct"] for p in pairs] for s in sides},
                "failed": {s: [p[s]["failed"] for p in pairs] for s in sides},
                "metrics": summarize(pairs, bounds),
            }
            args.out.write_text(json.dumps(report, indent=2) + "\n")
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                  file=sys.stderr, flush=True)
    for line in flagged(report):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
