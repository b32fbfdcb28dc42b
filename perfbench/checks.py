"""Checks made apart from sesopt: objectives, reference minima, run checks.

Everything here uses numpy and scipy on the problem data the worker
saved, never the package, so a fault in the package cannot hide itself.
The reference minima of ``l1_recovery`` and ``svm_tn`` are stored in
``references.json`` (``reference.py`` remakes them) together with their
minimizers, and every run re-certifies them on its own data: the KKT
conditions of the L1 problem, the gradient norm of the strongly convex
SVM objective. The ``expsq_tn`` minimum comes from its scalar fixed point.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize

ROUND = 1e-12          # relative rounding allowance on objective values
REFERENCES = Path(__file__).resolve().parent / "references.json"


class CheckError(Exception):
    """A program output failed a check."""


# -- objectives, written from the problem definitions -------------------------

def objective(data):
    """f(x) for the saved problem data."""
    kind = str(data["kind"])
    if kind == "l1_ls":
        a, b, mu = data["a"], data["b"], float(data["mu"])
        return lambda x: float(np.sum((a @ x - b) ** 2) + mu * np.sum(np.abs(x)))
    if kind == "svm_smooth":
        z = data["x_rows"] * data["y"][:, None]
        c = float(data["c_penalty"])
        return lambda w: float(0.5 * np.sum(w * w)
                               + c * np.sum(np.maximum(0.0, 1.0 - z @ w) ** 2))
    j2 = np.arange(1, int(data["n"]) + 1, dtype=np.float64) ** 2
    return lambda x: float(math.exp(-np.sum(x)) + 0.5 * np.sum(j2 * x * x))


def svm_gradient(data, w):
    z = data["x_rows"] * data["y"][:, None]
    viol = np.maximum(0.0, 1.0 - z @ w)
    return w - 2.0 * float(data["c_penalty"]) * (z.T @ viol)


def expsq_kkt(x):
    """max_j |j^2 x_j - exp(-sum x)|: the gradient's largest entry."""
    j2 = np.arange(1, x.size + 1, dtype=np.float64) ** 2
    return float(np.max(np.abs(j2 * x - math.exp(-np.sum(x)))))


def expsq_kkt_bound(x, gap):
    """Largest KKT residual a point with this gap can have.

    The Hessian diag(j^2) + exp(-sum x) 11^T is bounded by L = n^2 +
    n exp(-sum x) near x, so |grad|_inf <= |grad|_2 <= sqrt(2 L gap).
    """
    n = x.size
    lip = n * n + n * math.exp(-np.sum(x))
    return math.sqrt(2.0 * lip * gap)


# -- reference minima ---------------------------------------------------------

def expsq_reference(n):
    """(f*, x*) from the fixed point s = S exp(-s), S = sum_j j^-2."""
    big_s = float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** 2))
    s = optimize.brentq(lambda t: t - big_s * math.exp(-t), 0.0, big_s,
                        xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    x = math.exp(-s) / np.arange(1, n + 1, dtype=np.float64) ** 2
    return objective({"kind": "expsquares", "n": n})(x), x


def certify_l1(data, x_opt):
    """f(x_opt) after checking the KKT conditions of the L1 problem at x_opt.

    With c = 2 A^T (A x - b): c_j = -mu sign(x_j) on the support and
    |c_j| <= mu off it, which makes x_opt a minimizer of the convex problem.
    """
    a, b, mu = data["a"], data["b"], float(data["mu"])
    c = 2.0 * (a.T @ (a @ x_opt - b))
    on = x_opt != 0.0
    on_err = float(np.max(np.abs(c[on] + mu * np.sign(x_opt[on])), initial=0.0))
    off = float(np.max(np.abs(c[~on]), initial=0.0))
    if on_err > 1e-6 * mu or off > mu:
        raise CheckError(f"l1 reference fails KKT: support {on_err:.3g}, "
                         f"off-support {off / mu:.6f} mu")
    return objective(data)(x_opt)


def certify_svm(data, w_opt, tol=1e-8):
    """f(w_opt) after checking that its gradient is below ``tol``.

    The objective is 1-strongly convex, so f(w_opt) - f* <= |grad|^2 / 2.
    """
    gnorm = float(np.linalg.norm(svm_gradient(data, w_opt)))
    if not gnorm <= tol:
        raise CheckError(f"svm reference gradient norm {gnorm:.3g} > {tol:g}")
    return objective(data)(w_opt)


def reference_minimum(workload, data):
    """Certified f* for the workload's saved problem data."""
    if workload.name == "expsq_tn":
        return expsq_reference(int(data["n"]))[0]
    refs = json.loads(REFERENCES.read_text())
    ref = refs.get(workload.name)
    if ref is None or ref["problem"] != workload.problem:
        raise CheckError(f"no stored reference for {workload.problem}; "
                         "run perfbench/reference.py")
    x_opt = np.asarray(ref["x_opt"], dtype=np.float64)
    f_opt = (certify_l1 if workload.name == "l1_recovery" else certify_svm)(data, x_opt)
    if abs(f_opt - ref["f_opt"]) > ROUND * abs(f_opt):
        raise CheckError(f"stored f* {ref['f_opt']!r} differs from f(x*) {f_opt!r}")
    return f_opt


# -- program outputs ----------------------------------------------------------

INT_COLUMNS = ("iter", "cum_steps", "matvecs", "hvps")


def read_trace(path):
    """Columns of a trace CSV as numpy arrays, parsed without the package."""
    cols, rows = None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# columns: "):
                cols = line[len("# columns: "):].split(",")
            elif line and not line.startswith("#"):
                rows.append(line.split(","))
    if cols is None or not rows:
        raise CheckError(f"{path}: no trace rows")
    table = list(zip(*rows))
    return {c: np.array(table[i], dtype=np.int64 if c in INT_COLUMNS else np.float64)
            for i, c in enumerate(cols)}


def target_row(trace, workload, f_opt):
    """Index of the first row within the target gap, or None."""
    f = trace["f_value"]
    threshold = workload.target
    if workload.target_relative:
        threshold *= f[0] - f_opt
    hit = np.flatnonzero(f - f_opt <= threshold)
    return int(hit[0]) if hit.size else None


def check_run(workload, spec, trace, x, f_of, f_opt):
    """Raise CheckError unless one solver run's outputs hold up."""
    f = trace["f_value"]
    if not np.all(np.isfinite(f)):
        raise CheckError("non-finite objective value in the trace")
    floor = f_opt - ROUND * max(1.0, abs(f_opt))
    if f.min() < floor:
        raise CheckError(f"f {f.min()!r} below the reference minimum {f_opt!r}")
    # plain FISTA's momentum may raise f; every other method descends
    if spec != "fista":
        rise = np.diff(f) - ROUND * np.abs(f[:-1])
        if np.any(rise > 0):
            k = int(np.argmax(rise > 0)) + 1
            raise CheckError(f"f increases at row {k}: {f[k - 1]!r} -> {f[k]!r}")
    if spec.startswith(("sesop:direction=pcd", "sesop:direction=ssf", "fista")):
        # two operator applications per iteration; FISTA's first iteration
        # reuses the starting adjoint
        steps = np.diff(trace["matvecs"])
        if steps.size and (steps[0] > 2 or np.any(steps[1:] != 2)):
            bad = int(np.argmax(np.append(steps[0] > 2, steps[1:] != 2)))
            raise CheckError(f"{steps[bad]} operator applications in iteration {bad + 1}")
    if target_row(trace, workload, f_opt) is None:
        raise CheckError(f"target missed: best gap {f.min() - f_opt:.3e}")
    f_x = f_of(x)
    if abs(f_x - f[-1]) > ROUND * max(1.0, abs(f_x)):
        raise CheckError(f"trace's final f {f[-1]!r} but f(x) = {f_x!r}")
    if workload.name == "expsq_tn":
        kkt, bound = expsq_kkt(x), expsq_kkt_bound(x, workload.target)
        if not kkt <= bound:
            raise CheckError(f"KKT residual {kkt:.3e} above {bound:.3e}")


def check_round_files(round_dir, traces, firsts):
    """The round's summary and plot table agree with its traces.

    ``traces`` maps run ids to traces; ``firsts`` maps each solver spec, in
    plot-column order, to the id of its first run in the round.
    """
    with open(round_dir / "summary.csv", newline="") as fh:
        rows = {row["run"]: row for row in csv.DictReader(fh)}
    for op, tr in traces.items():
        row = rows.get(op)
        if row is None or float(row["final_f"]) != tr["f_value"][-1] \
                or int(row["iters"]) != tr["iter"][-1]:
            raise CheckError(f"{round_dir.name}/summary.csv disagrees on {op}")
    lines = (round_dir / "plot.tsv").read_text().splitlines()
    head, last = lines[0].split("\t"), lines[-1].split("\t")
    if head[1:] != list(firsts):
        raise CheckError(f"{round_dir.name}/plot.tsv has columns {head[1:]}")
    for (spec, op), cell in zip(firsts.items(), last[1:]):
        if float(cell) != traces[op]["f_value"][-1]:
            raise CheckError(f"{round_dir.name}/plot.tsv ends at {cell} for {spec}")
