"""Command-line entry point for the benchmark runner.

Two modes:

* ``sesopt --experiment NAME [--seed S ...]`` runs a named experiment.
* ``sesopt --problem "kind=...,n=..." --solver "name:opt=..."`` runs a
  single cell.

Both write trace CSVs, summary.csv and manifest.json under --out
(default ./results, overridable with the BENCH_OUT environment
variable). Exit codes: 0 success, 1 bad flags or unknown names, 2 solver
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import EXPERIMENTS, SOLVER_NAMES, run_experiment, run_single

__all__ = ["main", "console_entry"]


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CLI contract wants 1
    def error(self, message):
        raise _ArgError(message)


def _build_parser():
    p = _Parser(prog="sesopt", description="subspace-solver benchmark runner",
                add_help=True)
    p.add_argument("--experiment", help="named experiment to run: "
                   + ", ".join(sorted(EXPERIMENTS)))
    p.add_argument("--problem", help="problem config string kind=...,n=...")
    p.add_argument("--solver", help="solver spec string: one of "
                   + ", ".join(SOLVER_NAMES) + ", with name:key=val options")
    p.add_argument("--seed", type=int, action="append", default=None,
                   help="seed (repeatable); defaults per experiment")
    p.add_argument("--out", default=None,
                   help="output directory (default ./results or $BENCH_OUT)")
    p.add_argument("--max-matvecs", type=int, default=None,
                   help="operator-application budget per run")
    p.add_argument("--tol", type=float, default=None,
                   help="objective threshold for summary *-to-tol columns")
    p.add_argument("--max-iters", type=int, default=None,
                   help="iteration cap for single-cell runs (default 1000)")
    p.add_argument("--grad-tol", type=float, default=None,
                   help="stationarity stop for single-cell runs (default 1e-8)")
    return p


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out or os.environ.get("BENCH_OUT") or "./results"

    if bool(args.experiment) == bool(args.problem):
        print("error: pass exactly one of --experiment or --problem "
              "(with --solver)", file=sys.stderr)
        return 1
    if args.problem and not args.solver:
        print("error: --problem needs --solver", file=sys.stderr)
        return 1
    if args.experiment and (args.max_iters is not None
                            or args.grad_tol is not None):
        # an experiment's plan fixes its own stop rules
        print("error: --max-iters and --grad-tol apply to single-cell runs "
              "only", file=sys.stderr)
        return 1

    try:
        if args.experiment:
            if args.experiment not in EXPERIMENTS:
                print(f"error: unknown experiment {args.experiment!r}; valid: "
                      + ", ".join(sorted(EXPERIMENTS)), file=sys.stderr)
                return 1
            files = run_experiment(args.experiment, seeds=args.seed,
                                   out_dir=out_dir, max_matvecs=args.max_matvecs,
                                   tol=args.tol)
        else:
            seeds = args.seed or [None]
            files = []
            for seed in seeds:
                files += run_single(args.problem, args.solver, seed=seed,
                                    out_dir=out_dir,
                                    max_matvecs=args.max_matvecs,
                                    grad_tol=1e-8 if args.grad_tol is None
                                    else args.grad_tol,
                                    max_iters=1000 if args.max_iters is None
                                    else args.max_iters,
                                    summary_tol=args.tol if args.tol is not None
                                    else 1e-8)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver blew up: report, distinct exit code
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    for f in files:
        print(f)
    return 0


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
