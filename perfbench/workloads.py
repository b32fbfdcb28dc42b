"""Workload definitions shared by the benchmark's worker and its checker.

Each workload is one fixed problem instance from the paper's figures, a
list of solver specs run on it, the stop rules those runs share and the
accuracy target that defines the "to target" metrics. The instances are
fixed, not drawn from the seed: the paper's cost axis (operator
applications and cumulative inner steps to a target) is only comparable
between runs when every run solves the same problem, and with a fixed
BLAS thread count those counts then repeat exactly. The seed orders the
solver runs inside each round.
"""

from __future__ import annotations

import ctypes
import glob
import os
import random
from dataclasses import dataclass, field

BLAS_THREADS = "1"
# Set in the environment before numpy is imported: OpenBLAS reads it once.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
            "MKL_NUM_THREADS": BLAS_THREADS}

SUBSPACE_SOLVERS = ("sesop", "sesop_tn")


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str              # ProblemSpec config string
    solvers: tuple            # run_solver spec strings
    budget: dict              # keyword stop rules passed to run_solver
    target: float             # gap that counts as reaching the target
    target_relative: bool     # target scales with the initial gap f(x0) - f*
    plot_axis: str            # emit_plot_data axis for the round's table
    # runs per round of a solver whose run is too short to time steadily
    # once; figures take each solver's median run
    repeats: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="l1_recovery",
            problem="kind=l1_ls,n=512,m=200,seed=1,mu=1e-06,kappa=6.0,noise=0.01",
            solvers=("sesop:direction=pcd,history=7",
                     "sesop:direction=ssf,history=7", "fista"),
            budget={"grad_tol": 0.0, "max_iters": 8000, "max_matvecs": 12000},
            target=1e-6, target_relative=False, plot_axis="matvecs",
            # FISTA runs ~0.5 s; once per round it spread by 18-24%
            repeats={"fista": 4}),
        Workload(
            name="svm_tn",
            problem="kind=svm_smooth,n=2000,m=1495,seed=1,c_penalty=1.0,"
                    "margin=1.0,violation_frac=0.05",
            solvers=("sesop_tn:l_max=1", "sesop_tn:l_max=10", "tn:l_max=10"),
            # 40 outer iterations: the slowest run meets the target at 27
            budget={"grad_tol": 1e-6, "max_iters": 40, "max_cum_steps": 20000},
            target=1e-4, target_relative=True, plot_axis="cum_steps"),
        Workload(
            name="expsq_tn",
            problem="kind=expsquares,n=200,seed=1",
            solvers=("sesop_tn:l_max=1", "sesop_tn:l_max=10", "tn:l_max=10"),
            budget={"grad_tol": 1e-12, "max_iters": 3000, "max_cum_steps": 20000},
            target=1e-8, target_relative=False, plot_axis="cum_steps"),
    )
}


def round_order(workload, seed, round_index, repeat=True):
    """Seeded order of the solver runs in one round; without ``repeat``
    each solver runs once."""
    specs = [spec for spec in workload.solvers
             for _ in range(workload.repeats.get(spec, 1) if repeat else 1)]
    return random.Random(f"{seed}:{round_index}").sample(specs, len(specs))


def solver_name(spec):
    return spec.partition(":")[0]


def slug(spec):
    return "".join(ch if ch.isalnum() else "_" for ch in spec)


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unknown.

    Call after numpy is imported; reads numpy's bundled OpenBLAS.
    """
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
