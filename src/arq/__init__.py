"""Adaptive tensor-regularization minimizer with demand-driven oracle accuracy."""

from .check import CheckOutcome, check
from .diagnostics import BoundReport, compute_bounds
from .oracle import EvalCounters, NoiseModel, Oracle, Problem, make_problem
from .solver import (
    BudgetExhaustedError,
    Certificate,
    ConfigError,
    InternalInvariantError,
    SolveResult,
    SolverConfig,
    solve,
)
from .subsolvers import (
    MeasureResult,
    SolveStoppedError,
    StepResult,
    SubsolverStallError,
    minimize_model,
    optimality_measure,
    radius_search,
)
from .tensors import (
    DerivativeBundle,
    RegularizedModel,
    model_decrement,
    shifted_model_derivatives,
    taylor_decrement,
)

__all__ = [
    "BoundReport",
    "BudgetExhaustedError",
    "Certificate",
    "CheckOutcome",
    "ConfigError",
    "DerivativeBundle",
    "EvalCounters",
    "InternalInvariantError",
    "MeasureResult",
    "NoiseModel",
    "Oracle",
    "Problem",
    "RegularizedModel",
    "SolveResult",
    "SolveStoppedError",
    "SolverConfig",
    "StepResult",
    "SubsolverStallError",
    "check",
    "compute_bounds",
    "make_problem",
    "minimize_model",
    "model_decrement",
    "optimality_measure",
    "radius_search",
    "shifted_model_derivatives",
    "solve",
    "taylor_decrement",
]

__version__ = "0.1.0"
