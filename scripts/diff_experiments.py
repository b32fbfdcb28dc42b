"""Compare the outputs of every named experiment in two checkouts.

    python3 scripts/diff_experiments.py --base ../parent --change . [--out DIR]

Runs ``python -m sesopt --experiment NAME`` in each checkout, with its own
``src`` on the path and one BLAS thread (trajectories depend on the thread
count), for every experiment the change's ``sesopt.bench.EXPERIMENTS``
names. The outputs go to ``DIR/base/NAME`` and ``DIR/change/NAME`` (a
temporary directory without ``--out``). Then it lists, per experiment, the files found on one side
only and the files whose bytes differ, leaving out ``manifest.json``,
which holds wall times and dates, and prints both versions of every
``summary.csv`` row that moved, keyed by problem, solver and seed.

Exits 0 when every compared file is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 1800
SKIPPED = {"manifest.json"}
ROW_KEY = ("problem", "solver", "seed")


def experiment_names(checkout):
    """The experiments ``checkout``'s package names, sorted."""
    code = ("from sesopt.bench import EXPERIMENTS; "
            "print('\\n'.join(sorted(EXPERIMENTS)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          env=run_env(checkout), capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def run_env(checkout):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(Path(checkout).resolve() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_experiment(checkout, name, out):
    cmd = [sys.executable, "-m", "sesopt", "--experiment", name,
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, env=run_env(checkout),
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")


def summary_rows(path):
    """``summary.csv``'s rows keyed by problem, solver and seed."""
    if not path.is_file():
        return {}
    with path.open(newline="") as fh:
        return {tuple(row[k] for k in ROW_KEY): row for row in csv.DictReader(fh)}


def compare(base_dir, change_dir):
    """(lines describing every difference, whether the outputs differ)."""
    base = {p.name for p in base_dir.iterdir()} - SKIPPED
    change = {p.name for p in change_dir.iterdir()} - SKIPPED
    lines = [f"  only in base: {f}" for f in sorted(base - change)]
    lines += [f"  only in change: {f}" for f in sorted(change - base)]
    lines += [f"  differs: {f}" for f in sorted(base & change)
              if (base_dir / f).read_bytes() != (change_dir / f).read_bytes()]
    old = summary_rows(base_dir / "summary.csv")
    new = summary_rows(change_dir / "summary.csv")
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            lines.append(f"  summary row {','.join(key)}:")
            for side, rows in (("base", old), ("change", new)):
                row = rows.get(key)
                lines.append(f"    {side}: "
                             + ("(none)" if row is None else ",".join(row.values())))
    return lines, bool(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="changed checkout")
    ap.add_argument("--out", type=Path,
                    help="directory for both sides' outputs (default: temporary)")
    args = ap.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "src" / "sesopt").is_dir():
            ap.error(f"{checkout} has no src/sesopt")
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        differ = False
        for name in experiment_names(args.change):
            dirs = {}
            for side, checkout in (("base", args.base), ("change", args.change)):
                dirs[side] = (out / side / name).resolve()
                run_experiment(checkout, name, dirs[side])
            lines, moved = compare(dirs["base"], dirs["change"])
            differ |= moved
            print(f"{name}: " + ("differs" if moved else "identical"))
            for line in lines:
                print(line)
            sys.stdout.flush()
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
