import arq

PUBLIC_API = {
    "solve", "SolverConfig", "SolveResult", "Certificate", "NoiseModel",
    "Problem", "make_problem", "Oracle", "EvalCounters", "BoundReport",
    "compute_bounds", "ConfigError", "SolveStoppedError",
    "BudgetExhaustedError", "SubsolverStallError", "InternalInvariantError",
}

# Reached as arq.tensors.*, arq.subsolvers.* and arq.check.CheckOutcome.
INTERNALS = (
    "CheckOutcome", "DerivativeBundle", "MeasureResult", "RegularizedModel",
    "StepResult", "minimize_model", "model_decrement", "optimality_measure",
    "radius_search", "shifted_model_derivatives", "taylor_decrement",
)


def test_public_api():
    # The package namespace is the user-facing API; internals are reached
    # through their submodules.
    assert sorted(arq.__all__) == sorted(PUBLIC_API)
    assert len(arq.__all__) == len(PUBLIC_API)
    for name in arq.__all__:
        assert getattr(arq, name) is not None
    for internal in INTERNALS:
        assert not hasattr(arq, internal)
