"""Adaptive tensor-regularization minimizer with demand-driven oracle accuracy.

The package namespace holds the user-facing API; the internals live in
`arq.tensors`, `arq.subsolvers` and `arq.check`.
"""

from .diagnostics import BoundReport, compute_bounds
from .oracle import (
    EvalCounters,
    NoiseModel,
    Oracle,
    OracleFaultError,
    Problem,
    make_problem,
)
from .solver import (
    BudgetExhaustedError,
    Certificate,
    ConfigError,
    InternalInvariantError,
    SolveResult,
    SolverConfig,
    solve,
)
from .subsolvers import SolveStoppedError, SubsolverStallError

__all__ = [
    "BoundReport",
    "BudgetExhaustedError",
    "Certificate",
    "ConfigError",
    "EvalCounters",
    "InternalInvariantError",
    "NoiseModel",
    "Oracle",
    "OracleFaultError",
    "Problem",
    "SolveResult",
    "SolveStoppedError",
    "SolverConfig",
    "SubsolverStallError",
    "compute_bounds",
    "make_problem",
    "solve",
]

__version__ = "0.1.0"
