"""Subspace optimization toolkit for large smooth and L1-composite problems.

The solvers minimize over small affine frames built from current
directions and recent steps; classical baselines (CG, ISTA, FISTA,
steepest descent, nonlinear CG, truncated Newton) share the same trace
format so runs are directly comparable on iteration, operator-count and
cumulative-step axes.
"""

from ._version import __version__
from .baselines import (run_fista, run_linear_cg, run_nonlinear_cg,
                        run_ssf_iteration, run_steepest_descent)
from .core import (CallableObjective, CompositeObjective, Counters,
                   DenseOperator, LinearLossObjective, LinearOperator,
                   Objective, check_gradient, power_iteration_sq_norm,
                   seeded_rng, soft_threshold)
from .problems import (ExpSquaresObjective, GroundTruth, ProblemSpec,
                       SvmSquaredHinge, expsquares_ground_truth, make_expsquares,
                       make_l1_ls, make_quadratic_ls, make_svm_smooth)
from .sesop import DirectionKind, OrthState, dir_orth_update, run_sesop
from .subspace import (EmptySubspaceError, HistoryBuffer, LineSearchError,
                       SubspaceFrame, SubspaceResult, build_frame,
                       line_search_backtracking, subspace_minimize)
from .tn import InnerCgState, QuadraticModel, inner_cg, run_sesop_tn, run_tn_classic
from .trace import (Trace, TraceRecord, emit_plot_data, new_trace,
                    read_trace_csv, snr_db, write_trace_csv)

# the elementwise kernels are NumPy; the name stays for tools that report it
kernel_backend = "python"

__all__ = [
    "__version__",
    "kernel_backend",
    # core
    "Counters", "seeded_rng", "soft_threshold", "Objective",
    "CallableObjective", "CompositeObjective", "LinearLossObjective",
    "LinearOperator",
    "DenseOperator", "check_gradient",
    "power_iteration_sq_norm",
    # problems
    "ProblemSpec", "GroundTruth", "make_quadratic_ls", "make_l1_ls",
    "make_expsquares", "make_svm_smooth", "ExpSquaresObjective",
    "SvmSquaredHinge", "expsquares_ground_truth",
    # directions and frames
    "DirectionKind", "OrthState", "dir_orth_update",
    "HistoryBuffer", "SubspaceFrame",
    "SubspaceResult", "build_frame", "subspace_minimize",
    "line_search_backtracking", "EmptySubspaceError", "LineSearchError",
    # solvers
    "run_sesop", "QuadraticModel",
    "InnerCgState", "inner_cg", "run_tn_classic", "run_sesop_tn",
    "run_linear_cg", "run_ssf_iteration", "run_fista",
    "run_steepest_descent", "run_nonlinear_cg",
    # traces
    "Trace", "TraceRecord", "new_trace", "write_trace_csv", "read_trace_csv",
    "emit_plot_data", "snr_db",
]
