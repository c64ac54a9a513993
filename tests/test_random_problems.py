"""Robustness net: randomized coercive problems beyond the four built-ins.

Each instance is a sum of separable double wells plus a random convex
quadratic coupling, so zero is always a valid lower bound and all
derivatives up to order three have closed forms.
"""
import numpy as np
import pytest

from arq import NoiseModel, Problem, SolverConfig, solve
from arq.harness import verify_certificate


def random_well_problem(rng, dim):
    c = rng.uniform(0.5, 2.0, dim)
    a = rng.uniform(0.25, 2.0, dim)
    m = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    b = m @ m.T  # PSD coupling

    def value(x):
        return float(np.sum(c * (x**2 - a) ** 2) + 0.5 * x @ b @ x)

    def deriv(x, i):
        if i == 1:
            return 4.0 * c * x * (x**2 - a) + b @ x
        if i == 2:
            return np.diag(4.0 * c * (3.0 * x**2 - a)) + b
        t = np.zeros((dim,) * 3)
        idx = np.arange(dim)
        t[idx, idx, idx] = 24.0 * c * x
        return t

    x0 = rng.uniform(-1.5, 1.5, dim)
    return Problem("random_well", dim, value, deriv, 0.0, x0, 3)


@pytest.mark.parametrize("trial", range(10))
def test_random_instances_terminate_and_verify(trial):
    rng = np.random.default_rng(5000 + trial)
    dim = int(rng.integers(1, 5))
    problem = random_well_problem(rng, dim)
    q = int(rng.integers(1, 3))
    noise_kind = ("exact", "truncation", "bounded_random")[trial % 3]
    kwargs = dict(p=2, q=q, epsilons=(1e-2,) * q)
    if noise_kind == "exact":
        kwargs.update(acc0=(0.0, 0.0), acc_max=0.0)
    result = solve(
        problem,
        NoiseModel(noise_kind, 0.9, int(rng.integers(0, 2**31))),
        SolverConfig(**kwargs),
    )
    checks = verify_certificate(problem, result.certificate)
    assert all(c["ok"] for c in checks)
    assert problem.value(result.certificate.x_eps) <= problem.value(problem.x0)
