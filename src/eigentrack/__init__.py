"""Predict the eigendecomposition of a time-varying symmetric matrix
one sampling instant ahead.

The package tracks all n eigenpairs of a smooth symmetric flow A(t)
through discretized zeroing dynamics: each pair obeys a small bordered
linear system built from the current sample and a backward-difference
estimate of dA/dt, and a convergent look-ahead recursion turns the
solved rates into a prediction for the next instant.  Discontinuities
in the data are detected from the derivative estimate itself and
handled by restarting on fresh static eigendata.

Layout: `flows` (benchmark and user-defined matrix flows), `densela`
(static eigensolver and bordered-system solvers on `numpy.linalg`),
`formulas` (finite-difference catalog with exactness and stability
checks), `znn` (the predictor: a streaming `Tracker` and the `run`
driver), `harness` (metrics, reports, baselines, sweeps), `cli`
(command-line front end).
"""

from .densela import (AsymmetryError, LinearSolveReport, MatrixShapeError,
                      fro_norm, solve_augmented, sym_eig_batch)
from .flows import (FlowFileError, InterpolationError, JumpSchedule,
                    MatrixFlow, OrthogonalRandomizer, SpanError,
                    builtin_flows, conjugate, constant_flow,
                    diag_linear_flow, flow_from_file, with_jumps,
                    write_flow_file)
from .formulas import (BackwardFormula, FormulaError, LookaheadRecursion,
                       PRESETS, catalog, check_zero_stability,
                       complete_recursion, derivative_estimate,
                       truncation_order)
from .harness import (BaselineReport, RunReport, SweepReport, build_report,
                      convergence_sweep, naive_baseline, orth_deviation,
                      residual, steady_mask, timed_run)
from .znn import KINDS, NumericalAbort, SolverConfig, Tracker, Trajectory, run

__version__ = "0.1.0"

__all__ = [
    "AsymmetryError", "LinearSolveReport", "MatrixShapeError", "fro_norm",
    "solve_augmented", "sym_eig_batch",
    "FlowFileError", "InterpolationError", "JumpSchedule", "MatrixFlow",
    "OrthogonalRandomizer", "SpanError", "builtin_flows",
    "conjugate", "constant_flow", "diag_linear_flow", "flow_from_file",
    "with_jumps", "write_flow_file",
    "BackwardFormula", "FormulaError", "LookaheadRecursion", "PRESETS",
    "catalog", "check_zero_stability", "complete_recursion",
    "derivative_estimate", "truncation_order",
    "BaselineReport", "RunReport", "SweepReport", "build_report",
    "convergence_sweep", "naive_baseline", "orth_deviation", "residual",
    "steady_mask", "timed_run",
    "KINDS", "NumericalAbort", "SolverConfig", "Tracker", "Trajectory", "run",
    "__version__",
]
