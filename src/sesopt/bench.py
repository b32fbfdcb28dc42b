"""Benchmark experiments: problem/solver matrices, traces, summaries.

Each experiment is a fixed plan (problem template, solver list, stop
rules, summary threshold) run over a seed list. Per (solver, seed) run
one trace CSV is written; a summary table and a machine-readable
manifest complete the output directory. Trace and summary bodies are
deterministic for a given seed list; wall-clock times live only in the
manifest, so re-runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .baselines import (run_fista, run_linear_cg, run_nonlinear_cg,
                        run_ssf_iteration, run_steepest_descent)
from .core import seeded_rng
from .problems import ProblemSpec
from .sesop import run_sesop
from .tn import run_sesop_tn, run_tn_classic
from .trace import emit_plot_data, snr_db, write_trace_csv

__all__ = ["ExperimentPlan", "EXPERIMENTS", "parse_solver", "run_solver",
           "run_experiment", "run_single", "write_summary_csv",
           "write_gnuplot_script"]


def _parse_kv(text):
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad solver option {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


# the spec options each solver reads
SOLVER_OPTIONS = {
    "cg": ("tol", "max_iters"),
    "sd": ("exact",),
    "nlcg": ("exact",),
    "ista": ("c",),
    "fista": ("c", "restart"),
    "sesop": ("direction", "orth", "history"),
    "tn": ("l_max",),
    "sesop_tn": ("l_max", "outer_history", "trace_inner"),
}
SOLVER_NAMES = tuple(SOLVER_OPTIONS)


def parse_solver(spec):
    """Split ``name:key=value,...`` into (name, options dict).

    Raises ValueError for an unknown solver name or for an option the
    solver does not read.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in SOLVER_OPTIONS:
        raise ValueError(
            f"unknown solver {name!r}; valid: {', '.join(SOLVER_NAMES)}")
    opts = _parse_kv(rest) if rest else {}
    valid = SOLVER_OPTIONS[name]
    for key in opts:
        if key not in valid:
            raise ValueError(
                f"unknown option {key!r} for solver {name!r}; "
                f"valid: {', '.join(valid)}")
    return name, opts


def _as_int(opts, key, default):
    return int(opts[key]) if key in opts else default


def _as_float(opts, key, default):
    return float(opts[key]) if key in opts else default


def run_solver(spec, obj, x0=None, max_iters=1000, grad_tol=1e-8,
               max_matvecs=None, max_cum_steps=None, aux_metric=None,
               trace_inner=False):
    """Run the solver described by a ``name:options`` spec string.

    Returns (x, trace); the trace header carries the solver string so
    summaries and plots can label the run.
    """
    name, opts = parse_solver(spec)
    x0 = np.zeros(obj.dim) if x0 is None else np.asarray(x0, dtype=np.float64)
    if max_cum_steps is not None and name not in ("tn", "sesop_tn"):
        max_iters = min(max_iters, max_cum_steps)  # one step per iteration

    if name == "cg":
        # normal-equations CG for a composite least-squares objective
        if not hasattr(obj, "op"):
            raise ValueError("cg runs on composite least-squares objectives")
        op, b = obj.op, obj.b
        mv = lambda v: 2.0 * op.adjoint(op.apply(v))
        rhs = 2.0 * op.adjoint(b)
        # the spec's max_iters= caps the run's budgets, never raises them
        cg_iters = min(max_iters, _as_int(opts, "max_iters", max_iters))
        x, trace = run_linear_cg(mv, rhs, x0, tol=_as_float(opts, "tol", 1e-10),
                                 max_iters=cg_iters,
                                 f_offset=float(b @ b), obj=obj,
                                 max_matvecs=max_matvecs)
    elif name == "sd":
        x, trace = run_steepest_descent(
            obj, x0, grad_tol=grad_tol, max_iters=max_iters,
            max_matvecs=max_matvecs,
            exact_line_search=bool(_as_int(opts, "exact", 0)))
    elif name == "nlcg":
        x, trace = run_nonlinear_cg(
            obj, x0, grad_tol=grad_tol, max_iters=max_iters,
            max_matvecs=max_matvecs,
            exact_line_search=bool(_as_int(opts, "exact", 0)))
    elif name == "ista":
        x, trace = run_ssf_iteration(
            obj, x0, c=_as_float(opts, "c", None) if "c" in opts else None,
            grad_tol=grad_tol, max_iters=max_iters, max_matvecs=max_matvecs,
            aux_metric=aux_metric)
    elif name == "fista":
        x, trace = run_fista(
            obj, x0, c=_as_float(opts, "c", None) if "c" in opts else None,
            grad_tol=grad_tol, max_iters=max_iters, max_matvecs=max_matvecs,
            restart=bool(_as_int(opts, "restart", 0)), aux_metric=aux_metric)
    elif name == "sesop":
        x, trace = run_sesop(
            obj, x0, direction=opts.get("direction", "gradient"),
            orth=bool(_as_int(opts, "orth", 0)),
            history=_as_int(opts, "history", 7), grad_tol=grad_tol,
            max_iters=max_iters, max_matvecs=max_matvecs,
            aux_metric=aux_metric)
    elif name == "tn":
        x, trace = run_tn_classic(
            obj, x0, l_max=_as_int(opts, "l_max", 10), grad_tol=grad_tol,
            max_iters=max_iters, max_cum_steps=max_cum_steps,
            max_matvecs=max_matvecs)
    else:  # sesop_tn
        x, trace = run_sesop_tn(
            obj, x0, l_max=_as_int(opts, "l_max", 10),
            outer_history=_as_int(opts, "outer_history", 2),
            grad_tol=grad_tol, max_iters=max_iters,
            max_cum_steps=max_cum_steps, max_matvecs=max_matvecs,
            trace_inner=trace_inner or bool(_as_int(opts, "trace_inner", 0)))
    trace.header["solver"] = spec
    return x, trace


@dataclass
class ExperimentPlan:
    """One named experiment: problem template, solver list, stop rules."""

    name: str
    problem: str                       # ProblemSpec config string (seed patched per run)
    solvers: tuple
    seeds: tuple = (1, 2, 3)
    grad_tol: float = 1e-8
    max_iters: int = 1000
    max_cum_steps: int | None = None
    max_matvecs: int | None = None
    summary_tol: float = 1e-8          # threshold for *-to-tol summary columns
    tol_on_gap: bool = False           # threshold applies to f - f_opt
    with_snr: bool = False
    trace_inner: bool = False
    plot_axes: tuple = ("iter", "matvecs")
    extra_problems: tuple = ()         # more ProblemSpec config strings

    def serialized(self):
        text = (f"name={self.name};problem={self.problem};"
                f"solvers={'|'.join(self.solvers)};"
                f"seeds={','.join(str(s) for s in self.seeds)};"
                f"grad_tol={self.grad_tol!r};max_iters={self.max_iters};"
                f"max_cum_steps={self.max_cum_steps};"
                f"max_matvecs={self.max_matvecs};"
                f"summary_tol={self.summary_tol!r};tol_on_gap={int(self.tol_on_gap)}")
        if self.extra_problems:
            text += f";extra_problems={'|'.join(self.extra_problems)}"
        return text


EXPERIMENTS = {
    "fig2_quadratic_tn": ExperimentPlan(
        name="fig2_quadratic_tn",
        problem="kind=quadratic_ls,n=400,seed=1",
        solvers=("cg:tol=1e-9,max_iters=900",
                 "sesop_tn:l_max=1", "sesop_tn:l_max=10", "sesop_tn:l_max=40",
                 "tn:l_max=1", "tn:l_max=10", "tn:l_max=40"),
        grad_tol=1e-10, max_iters=3000, max_cum_steps=900,
        summary_tol=1e-8, trace_inner=True,
        plot_axes=("cum_steps", "matvecs")),
    "fig3_expsquares": ExperimentPlan(
        name="fig3_expsquares",
        problem="kind=expsquares,n=200,seed=1",
        solvers=("sesop_tn:l_max=1", "sesop_tn:l_max=10", "sesop_tn:l_max=40",
                 "tn:l_max=1", "tn:l_max=10", "tn:l_max=40"),
        seeds=(1,), grad_tol=1e-12, max_iters=3000, max_cum_steps=20000,
        summary_tol=1e-8, tol_on_gap=True,
        plot_axes=("cum_steps", "iter")),
    "fig3_svm": ExperimentPlan(
        name="fig3_svm",
        problem="kind=svm_smooth,n=2000,m=1495,seed=1,c_penalty=1.0,"
                "margin=1.0,violation_frac=0.05",
        solvers=("sesop_tn:l_max=1", "sesop_tn:l_max=10", "sesop_tn:l_max=40",
                 "tn:l_max=1", "tn:l_max=10", "tn:l_max=40"),
        seeds=(1,), grad_tol=1e-6, max_iters=400, max_cum_steps=20000,
        summary_tol=1e-6, plot_axes=("cum_steps", "iter")),
    "fig1_l1_recovery": ExperimentPlan(
        name="fig1_l1_recovery",
        problem="kind=l1_ls,n=512,m=200,seed=1,mu=1e-06,kappa=6.0,noise=0.01",
        solvers=("sesop:direction=pcd,history=7", "sesop:direction=ssf,history=7",
                 "fista", "ista"),
        grad_tol=1e-10, max_iters=8000, max_matvecs=30000,
        summary_tol=1e-4, with_snr=True,
        plot_axes=("iter", "matvecs")),
    "sesop_cg_equiv": ExperimentPlan(
        name="sesop_cg_equiv",
        problem="kind=quadratic_ls,n=400,seed=1",
        solvers=("cg:tol=0.0,max_iters=110",
                 "sesop:direction=gradient,history=1",
                 "sesop_tn:l_max=1", "sesop_tn:l_max=10", "sesop_tn:l_max=40"),
        grad_tol=0.0, max_iters=400, max_cum_steps=105, max_matvecs=None,
        summary_tol=1e-6, trace_inner=True,
        plot_axes=("cum_steps",)),
    "bound_1k2": ExperimentPlan(
        name="bound_1k2",
        problem="kind=quadratic_ls,n=120,seed=1",
        solvers=("sesop:direction=gradient,orth=1,history=7",),
        grad_tol=0.0, max_iters=200,
        summary_tol=1e-8, plot_axes=("iter",),
        # the 1/k^2 experiment also covers the smooth non-quadratic problem
        extra_problems=("kind=expsquares,n=200,seed=1",)),
}


def _slug(text):
    out = []
    for ch in text:
        out.append(ch if ch.isalnum() else "-")
    s = "".join(out)
    while "--" in s:
        s = s.replace("--", "-")
    return s.strip("-")


def _to_tol(trace, threshold, on_gap):
    """First (matvecs, cum_steps) meeting the threshold, else (inf, inf)."""
    for rec in trace.records:
        v = rec.f_minus_fopt if on_gap else rec.f_value
        if v is None:
            continue
        if v <= threshold:
            return rec.matvecs, rec.cum_steps
    return math.inf, math.inf


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        text = repr(float(v))
    else:
        text = str(v)
    if "," in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_summary_csv(rows, path):
    """Write summary rows (list of dicts) with a stable column order."""
    base = ["experiment", "problem", "solver", "seed", "status", "iters",
            "cum_steps", "matvecs", "hvps", "final_f", "final_gap",
            "stat_norm", "matvecs_to_tol", "steps_to_tol"]
    extras = sorted({k for row in rows for k in row} - set(base))
    cols = [c for c in base if any(c in row for row in rows)] + extras
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in cols))
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text)
    return text


def _summary_row(plan, problem_cfg, spec, seed, trace, tol, extra=None):
    fin = trace.final
    mv_tol, st_tol = _to_tol(trace, tol, plan.tol_on_gap)
    row = {
        "experiment": plan.name, "problem": problem_cfg, "solver": spec,
        "seed": seed, "status": trace.header.get("status", ""),
        "iters": fin.iter, "cum_steps": fin.cum_steps,
        "matvecs": fin.matvecs, "hvps": fin.hvps,
        "final_f": fin.f_value, "final_gap": fin.f_minus_fopt,
        "stat_norm": fin.stat_norm,
        "matvecs_to_tol": mv_tol, "steps_to_tol": st_tol,
    }
    if extra:
        row.update(extra)
    return row


def write_gnuplot_script(path, plot_files, value_label="f"):
    """Small gnuplot driver for the emitted TSV tables."""
    lines = ["set datafile missing ''", "set key outside", "set logscale y",
             f"set ylabel '{value_label}'"]
    for tsv in plot_files:
        stem = Path(tsv).name
        lines.append(f"set xlabel '{stem.rsplit('_', 1)[-1].removesuffix('.tsv')}'")
        lines.append(
            f"plot for [i=2:*] '{stem}' using 1:i with steps title columnhead(i)")
        lines.append("pause -1")
    Path(path).write_text("\n".join(lines) + "\n")


def _aligned_deviation(trace, ref, width, scale):
    """Max |f - f_ref| / scale over shared cumulative steps <= width."""
    ref_f = {rec.cum_steps: rec.f_value for rec in ref.records}
    cur = {}
    for rec in trace.records:
        cur[rec.cum_steps] = rec.f_value  # later rows win at equal count
    dev = 0.0
    for c, fv in cur.items():
        if c <= width and c in ref_f:
            dev = max(dev, abs(fv - ref_f[c]) / scale)
    return dev


def run_single(problem_cfg, solver_spec, seed=None, out_dir="results",
               max_matvecs=None, grad_tol=1e-8, max_iters=1000,
               summary_tol=1e-8):
    """Run one (problem, solver) cell and write trace + summary + manifest.

    Returns the list of written file paths.
    """
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    spec = ProblemSpec.from_config(problem_cfg)
    if seed is not None:
        spec.seed = seed
    obj = spec.build()
    x, trace = run_solver(solver_spec, obj, grad_tol=grad_tol,
                          max_iters=max_iters, max_matvecs=max_matvecs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = f"single__{_slug(spec.to_config())}__{_slug(solver_spec)}.csv"
    write_trace_csv(trace, out / name)
    plan = ExperimentPlan(name="single", problem=spec.to_config(),
                          solvers=(solver_spec,), seeds=(spec.seed,),
                          summary_tol=summary_tol)
    rows = [_summary_row(plan, spec.to_config(), solver_spec, spec.seed,
                         trace, summary_tol)]
    write_summary_csv(rows, out / "summary.csv")
    manifest = {
        "version": __version__, "experiment": "single",
        "plan": plan.serialized(), "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "wall_s": time.perf_counter() - t0,
        "runs": [{"file": name, "solver": solver_spec, "seed": spec.seed,
                  "status": trace.header.get("status", ""),
                  "rows": len(trace), "wall_ms": trace.final.wall_ms}],
        "files": [name, "summary.csv"],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return [str(out / name), str(out / "summary.csv"), str(out / "manifest.json")]


def run_experiment(name, seeds=None, out_dir="results", max_matvecs=None,
                   tol=None):
    """Run a named experiment; returns the list of written file paths.

    Writes one trace CSV per (solver, seed), plot-ready TSV tables per
    seed and axis, summary.csv, a gnuplot script and manifest.json.
    """
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; valid: {', '.join(sorted(EXPERIMENTS))}")
    plan = EXPERIMENTS[name]
    seeds = tuple(seeds) if seeds else plan.seeds
    summary_tol = plan.summary_tol if tol is None else tol
    budget = plan.max_matvecs if max_matvecs is None else max_matvecs

    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    problem_cfgs = (plan.problem,) + plan.extra_problems
    files, run_meta, rows = [], [], []
    for seed in seeds:
        for problem_cfg in problem_cfgs:
            pspec = ProblemSpec.from_config(problem_cfg)
            pspec.seed = seed
            obj = pspec.build()
            aux = None
            if plan.with_snr and getattr(obj, "x_signal", None) is not None:
                x_true = obj.x_signal
                aux = ("snr_db", lambda z, xt=x_true: snr_db(xt, z))
            x0 = None
            if pspec.kind == "expsquares" and name == "bound_1k2":
                rng = seeded_rng(seed)
                x0 = 0.5 * rng.standard_normal(obj.dim)
            traces = {}
            for spec in plan.solvers:
                x, trace = run_solver(
                    spec, obj, x0=x0, max_iters=plan.max_iters,
                    grad_tol=plan.grad_tol, max_matvecs=budget,
                    max_cum_steps=plan.max_cum_steps, aux_metric=aux,
                    trace_inner=plan.trace_inner)
                traces[spec] = (x, trace)
                fname = f"{name}__{_slug(pspec.to_config())}__{_slug(spec)}__seed{seed}.csv"
                write_trace_csv(trace, out / fname)
                files.append(fname)
                run_meta.append({"file": fname, "solver": spec, "seed": seed,
                                 "problem": pspec.to_config(),
                                 "status": trace.header.get("status", ""),
                                 "rows": len(trace),
                                 "wall_ms": trace.final.wall_ms})

            extra_by_spec = _experiment_extras(name, plan, obj, traces, x0)
            for spec in plan.solvers:
                rows.append(_summary_row(plan, pspec.to_config(), spec, seed,
                                         traces[spec][1], summary_tol,
                                         extra_by_spec.get(spec)))
            for axis in plan.plot_axes:
                tl = [traces[s][1] for s in plan.solvers]
                tsv = emit_plot_data(tl, axis=axis, labels=list(plan.solvers))
                pf = f"{name}__{_slug(pspec.to_config())}__seed{seed}__plot_{axis}.tsv"
                (out / pf).write_text(tsv)
                files.append(pf)
            if plan.with_snr:
                tl = [traces[s][1] for s in plan.solvers]
                tsv = emit_plot_data(tl, axis="iter", value="aux",
                                     labels=list(plan.solvers))
                pf = f"{name}__{_slug(pspec.to_config())}__seed{seed}__plot_snr.tsv"
                (out / pf).write_text(tsv)
                files.append(pf)

    write_summary_csv(rows, out / "summary.csv")
    files.append("summary.csv")
    gp = f"{name}.gp"
    write_gnuplot_script(out / gp, [f for f in files if f.endswith(".tsv")])
    files.append(gp)
    manifest = {
        "version": __version__, "experiment": name,
        "plan": plan.serialized(), "seeds": list(seeds),
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "wall_s": time.perf_counter() - t0,
        "runs": run_meta, "files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    files.append("manifest.json")
    return [str(out / f) for f in files]


def _experiment_extras(name, plan, obj, traces, x0):
    """Per-solver extra summary columns for the analysis experiments."""
    extras = {}
    if name == "sesop_cg_equiv":
        ref_spec = plan.solvers[0]
        ref = traces[ref_spec][1]
        scale = ref.records[0].f_value - (obj.ground_truth.f_opt or 0.0)
        for spec in plan.solvers[1:]:
            dev = _aligned_deviation(traces[spec][1], ref, 100, scale)
            extras[spec] = {"max_traj_dev": dev}
    elif name == "bound_1k2":
        x_opt = obj.ground_truth.x_opt
        f_opt = obj.ground_truth.f_opt
        start = np.zeros(obj.dim) if x0 is None else x0
        r2 = float(np.sum((start - x_opt) ** 2))
        if hasattr(obj, "op"):
            lip = 2.0 * np.linalg.norm(obj.op.matrix, 2) ** 2
        else:
            # curvature bound on the starting level set
            lip = obj.dim ** 2 + obj.dim * obj.value(start)
        for spec in plan.solvers:
            tr = traces[spec][1]
            worst = 0.0
            for rec in tr.records:
                if rec.iter >= 1:
                    gap = rec.f_value - (f_opt or 0.0)
                    worst = max(worst, float(gap * rec.iter ** 2 / (lip * r2)))
            extras[spec] = {"bound_ratio": worst}
    return extras
