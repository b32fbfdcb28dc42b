"""Convergence traces and their on-disk CSV form.

A Trace is a header (flat string key/values: problem config, solver
config, seed, library version, run status) plus one record per solver
iteration. The CSV body is deterministic: floats are written with
shortest round-trip decimals (repr) and per-row wall-clock times are kept
in memory only, so re-running a seeded experiment reproduces the file
byte for byte. Wall totals belong in the run manifest. Solvers fill
their traces through a Recorder, which also keeps the stop rules they
share.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import Counters

__all__ = ["TraceRecord", "Trace", "Recorder", "new_trace", "write_trace_csv",
           "read_trace_csv", "emit_plot_data", "snr_db"]

_MAGIC = "sesopt-trace v1"
_BASE_COLUMNS = ("iter", "cum_steps", "f_value", "f_minus_fopt", "stat_norm",
                 "matvecs", "hvps")


@dataclass
class TraceRecord:
    iter: int
    cum_steps: int
    f_value: float
    f_minus_fopt: float | None
    stat_norm: float
    matvecs: int
    hvps: int
    wall_ms: float = 0.0
    aux: float | None = None


@dataclass
class Trace:
    header: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    aux_name: str | None = None

    def add(self, **kw):
        self.records.append(TraceRecord(**kw))

    def column(self, name):
        vals = [getattr(rec, name) for rec in self.records]
        if name in ("iter", "cum_steps", "matvecs", "hvps"):
            return np.asarray(vals, dtype=np.int64)
        return np.asarray([math.nan if v is None else v for v in vals])

    @property
    def final(self):
        return self.records[-1]

    def __len__(self):
        return len(self.records)


def _fmt(v):
    if v is None:
        return "nan"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def new_trace(obj, solver_desc):
    """Trace with the standard header for a solver run on an objective.

    The problem line comes from the objective's attached spec when one
    exists so that traces of the same problem are directly comparable.
    """
    from ._version import __version__

    spec = getattr(obj, "spec", None)
    if spec is not None:
        problem = spec.to_config()
        seed = str(spec.seed)
    else:
        problem = f"kind=custom,n={getattr(obj, 'dim', 0)}"
        seed = "0"
    return Trace(header={"problem": problem, "solver": solver_desc,
                         "seed": seed, "version": __version__})


def _fopt(obj):
    """The objective's known optimal value, or None."""
    gt = getattr(obj, "ground_truth", None)
    return None if gt is None else gt.f_opt


class Recorder:
    """The bookkeeping every solver run shares: counters, rows, stop rules.

    Creating one resets the objective's counters and starts the clock, so
    row 0 counts the products spent on the starting point. ``row`` records
    one iterate, fires ``callback(iter, x)`` on it and checks the stop
    rules in a fixed order: stationary (``stat_norm <= stop_at``), f_tol
    (relative change of f since the previous row), max_iters, max_steps
    (cumulative steps) and max_matvecs. ``finish`` writes the status and
    the event tally into the header. A solver that stops for a reason of
    its own (breakdown, a failed line search, a stall) passes that status
    to ``finish``.

    ``stop_at`` is the absolute threshold on the stationarity measure; a
    solver whose threshold is relative to the starting point sets it once
    that point is evaluated. With ``obj=None`` (linear CG on a bare matvec)
    the run counts on counters of its own and the header names only the
    solver. ``aux_metric`` is an optional (name, fn) pair; fn(x) fills the
    trace's aux column at every iterate.
    """

    def __init__(self, obj, solver_desc, *, max_iters, stop_at=0.0, f_tol=0.0,
                 max_steps=None, max_matvecs=None, callback=None,
                 aux_metric=None):
        self.counters = Counters() if obj is None else obj.counters
        self.counters.reset()
        self.t0 = time.perf_counter()
        self.trace = (Trace(header={"solver": solver_desc}) if obj is None
                      else new_trace(obj, solver_desc))
        self.f_opt = _fopt(obj)
        self.aux_fn = None
        if aux_metric is not None:
            self.trace.aux_name, self.aux_fn = aux_metric
        self.stop_at, self.f_tol, self.max_iters = stop_at, f_tol, max_iters
        self.max_steps, self.max_matvecs = max_steps, max_matvecs
        self.callback = callback
        self.f_prev = None
        self.status = None
        self.events = {}

    def _add(self, it, cum, f, stat, aux):
        # positional, in TraceRecord's field order: building the keyword
        # dict of Trace.add doubles the cost of a row, which shows on
        # solvers whose iterations take tens of microseconds (FISTA)
        c = self.counters
        self.trace.records.append(TraceRecord(
            it, cum, f, None if self.f_opt is None else f - self.f_opt, stat,
            c.matvecs, c.hvps, (time.perf_counter() - self.t0) * 1e3, aux))

    def row(self, it, cum, f, stat, x):
        """Record iterate ``it``; returns the stop rule that holds, or None."""
        aux = None if self.aux_fn is None else self.aux_fn(x)
        self._add(it, cum, f, stat, aux)
        if self.callback:
            self.callback(it, x)
        if stat <= self.stop_at:
            self.status = "stationary"
        elif (self.f_tol > 0 and self.f_prev is not None
              and abs(self.f_prev - f) <= self.f_tol * (1.0 + abs(f))):
            self.status = "f_tol"
        elif it >= self.max_iters:
            self.status = "max_iters"
        elif self.max_steps is not None and cum >= self.max_steps:
            self.status = "max_steps"
        elif (self.max_matvecs is not None
              and self.counters.matvecs >= self.max_matvecs):
            self.status = "max_matvecs"
        self.f_prev = f
        return self.status

    def inner_row(self, it, cum, f):
        """A row between iterates (a model value inside an inner run): no
        stationarity measure, no callback and no stop rule."""
        self._add(it, cum, f, None, None)

    def note(self, names):
        """Tally named events, such as those a frame solve reports."""
        for name in names:
            self.events[name] = self.events.get(name, 0) + 1

    def finish(self, status=None):
        """Write the status (the solver's own, else the stop rule that
        held) and the event tally into the header; returns the trace."""
        self.trace.header["status"] = status or self.status
        if self.events:
            self.trace.header["events"] = ",".join(
                f"{name}:{self.events[name]}" for name in sorted(self.events))
        return self.trace


def write_trace_csv(trace, path, include_wall=False):
    """Serialize a trace; the default body is deterministic (no wall times)."""
    cols = list(_BASE_COLUMNS)
    if include_wall:
        cols.append("wall_ms")
    if trace.aux_name is not None:
        cols.append(f"aux:{trace.aux_name}")
    lines = [f"# {_MAGIC}"]
    for k in sorted(trace.header):
        lines.append(f"# {k}={trace.header[k]}")
    lines.append("# columns: " + ",".join(cols))
    for rec in trace.records:
        row = [str(rec.iter), str(rec.cum_steps), _fmt(rec.f_value),
               _fmt(rec.f_minus_fopt), _fmt(rec.stat_norm),
               str(rec.matvecs), str(rec.hvps)]
        if include_wall:
            row.append(_fmt(rec.wall_ms))
        if trace.aux_name is not None:
            row.append(_fmt(rec.aux))
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def read_trace_csv(path):
    """Inverse of write_trace_csv."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != f"# {_MAGIC}":
        raise ValueError(f"{path}: not a trace file")
    header, cols, body = {}, None, []
    for ln in lines[1:]:
        if ln.startswith("# columns: "):
            cols = ln[len("# columns: "):].split(",")
        elif ln.startswith("# "):
            k, _, v = ln[2:].partition("=")
            header[k] = v
        elif ln:
            body.append(ln.split(","))
    if cols is None:
        raise ValueError(f"{path}: missing columns header")
    aux_name = None
    for c in cols:
        if c.startswith("aux:"):
            aux_name = c[4:]
    trace = Trace(header=header, aux_name=aux_name)
    idx = {c: i for i, c in enumerate(cols)}
    for parts in body:
        def fval(col, cast=float):
            return cast(parts[idx[col]]) if col in idx else None
        fmf = fval("f_minus_fopt")
        if fmf is not None and math.isnan(fmf):
            fmf = None
        aux = fval(f"aux:{aux_name}") if aux_name else None
        if aux is not None and math.isnan(aux):
            aux = None
        trace.add(iter=int(parts[idx["iter"]]),
                  cum_steps=int(parts[idx["cum_steps"]]),
                  f_value=float(parts[idx["f_value"]]),
                  f_minus_fopt=fmf,
                  stat_norm=float(parts[idx["stat_norm"]]),
                  matvecs=int(parts[idx["matvecs"]]),
                  hvps=int(parts[idx["hvps"]]),
                  wall_ms=fval("wall_ms") or 0.0,
                  aux=aux)
    return trace


_AXES = ("iter", "matvecs", "cum_steps", "wall_ms")


def emit_plot_data(traces, axis, value="f_value", labels=None):
    """Tab-separated step-interpolated table aligning several traces.

    The first column is the union of the axis breakpoints across traces;
    each trace contributes its latest value at-or-before the breakpoint
    (step interpolation), blank before its first record. All traces must
    describe the same problem or ValueError("incomparable traces") is
    raised.
    """
    if axis not in _AXES:
        raise ValueError(f"unknown axis {axis!r}; choose from {sorted(_AXES)}")
    problems = {t.header.get("problem") for t in traces}
    if len(problems) > 1:
        raise ValueError("incomparable traces")
    if labels is None:
        labels = [t.header.get("solver", f"trace{i}") for i, t in enumerate(traces)]

    axes = [t.column(axis) for t in traces]
    vals = [t.column(value) for t in traces]
    breakpoints = np.unique(np.concatenate(axes))
    lines = [axis + "\t" + "\t".join(labels)]
    for bp in breakpoints:
        row = [_fmt(bp) if axis == "wall_ms" else str(int(bp))]
        for ax, vv in zip(axes, vals):
            j = int(np.searchsorted(ax, bp, side="right")) - 1
            row.append("" if j < 0 else _fmt(vv[j]))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def snr_db(x_true, x):
    """Recovery signal-to-noise ratio 10 log10(||x_true||^2 / ||x - x_true||^2)."""
    err = float(np.linalg.norm(np.asarray(x) - np.asarray(x_true)) ** 2)
    sig = float(np.linalg.norm(np.asarray(x_true)) ** 2)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(sig / err)
