"""Shared fixtures: the benchmark run grid and independent reference oracles.

The reference evaluators here are deliberately written with explicit loops
and grids, independent of the package's contraction/solver code paths, so
they can serve as oracles for it.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from arq import ConfigError, NoiseModel, Problem, SolverConfig, make_problem, solve
from arq.harness import ExperimentSpec, _sphere_grid, build_config, expand_seeds

BENCH_PROBLEMS = (("quadratic", 4), ("rosenbrock", 2), ("quartic", 3), ("sineq", 4))
BENCH_NOISES = ("exact", "truncation", "bounded_random")
BENCH_EPS = (1e-2, 1e-3)
BENCH_QS = (1, 2)
MASTER_SEED = 20240809
N_SEEDS = 5


def bench_seeds():
    return [s % 2**32 for s in expand_seeds(MASTER_SEED, N_SEEDS)]


def bench_config(q: int, eps_min: float, noise: str) -> SolverConfig:
    return build_config(ExperimentSpec(noise=noise, eps=(eps_min,), p=2, q=q))


def steep_problem():
    """Curvature 1e6 against a unit slope: every step-1 sweep halves the
    radius far below the lowest guard floor."""
    return Problem(
        "steep",
        1,
        lambda x: float(x[0] + 5e5 * x[0] ** 2),
        lambda x, i: [np.array([1.0 + 1e6 * x[0]]), np.array([[1e6]]),
                      np.zeros((1, 1, 1))][i - 1],
        -1.0,
        np.zeros(1),
    )


FLOAT_MAX = sys.float_info.max
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def accepted_configs(draw, max_iters=st.just(1000)):
    """A `SolverConfig` from anywhere in the box it accepts, out to the
    float extremes: subnormal sigma_min, epsilons and gammas near their
    limits, acc_max up to the largest float."""
    p, q = draw(st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]))
    sigma_min, sigma0 = sorted(draw(st.lists(st.floats(5e-324, FLOAT_MAX), min_size=2,
                                             max_size=2)))
    eta1, eta2 = sorted(draw(st.lists(_OPEN_UNIT, min_size=2, max_size=2)))
    gamma2, gamma3 = sorted(draw(st.lists(st.floats(1.0, FLOAT_MAX, exclude_min=True),
                                          min_size=2, max_size=2, unique=True)))
    omega_cap = min(0.5 * eta1, 0.25 * (1.0 - eta2))
    kwargs = dict(
        p=p, q=q, sigma0=sigma0, sigma_min=sigma_min, eta1=eta1, eta2=eta2,
        epsilons=tuple(draw(st.lists(_OPEN_UNIT, min_size=q, max_size=q))),
        gamma1=draw(_OPEN_UNIT), gamma2=gamma2, gamma3=gamma3,
        gamma_acc=draw(_OPEN_UNIT), omega=omega_cap * draw(_OPEN_UNIT),
        theta=draw(_OPEN_UNIT), varsigma=draw(st.none() | st.floats(5e-324, 1.0)),
        acc_max=draw(st.floats(0.0, FLOAT_MAX)), max_iters=draw(max_iters),
    )
    try:
        return SolverConfig(**kwargs)
    except ConfigError:  # omega rounded to an end of its interval
        assume(False)


@dataclass
class BenchRun:
    problem_name: str
    dim: int
    noise: str
    seed: int
    q: int
    eps_min: float
    problem: object
    config: SolverConfig
    result: object

    @property
    def t_records(self):
        return [r for r in self.result.trace if r.kind in ("successful", "unsuccessful")]


@dataclass
class BenchSuite:
    runs: list
    build_seconds: float


@pytest.fixture(scope="session")
def benchmark_suite():
    import time

    start = time.perf_counter()
    runs = []
    for name, dim in BENCH_PROBLEMS:
        problem = make_problem(name, dim)
        for noise in BENCH_NOISES:
            for seed in bench_seeds():
                for q in BENCH_QS:
                    for eps_min in BENCH_EPS:
                        config = bench_config(q, eps_min, noise)
                        result = solve(problem, NoiseModel(noise, 0.9, seed), config)
                        runs.append(
                            BenchRun(name, dim, noise, seed, q, eps_min, problem, config, result)
                        )
    return BenchSuite(runs, time.perf_counter() - start)


def assert_bundle_reuse(trace, noise):
    """A record evaluates no derivative bundle when the previous record is
    unsuccessful and one when it is successful or there is none.  After an
    accuracy-improving record it evaluates none exactly when the errors the
    oracle measured meet the tightened demands.  Bounded noise never does:
    its measured error is about fill_fraction = 0.9 of the demand, and step
    5 tightens the demand by gamma_acc = 0.25 or less."""
    after_accuracy = (1,) if noise == "bounded_random" else (0, 1)
    previous = [None] + [rec.kind for rec in trace[:-1]]
    for rec, kind in zip(trace, previous):
        if kind == "accuracy_improving":
            assert rec.derivative_evals in after_accuracy
        else:
            assert rec.derivative_evals == (0 if kind == "unsuccessful" else 1)


# ---------------------------------------------------------------------------
# Independent reference evaluators.
# ---------------------------------------------------------------------------


def reference_taylor_eval(value, tensors, s, j):
    """Multinomial-expansion Taylor evaluation with explicit index loops."""
    total = float(value)
    n = len(s)
    for order in range(1, j + 1):
        t = np.asarray(tensors[order - 1], dtype=float)
        acc = 0.0
        for idx in itertools.product(range(n), repeat=order):
            term = float(t[idx])
            for a in idx:
                term *= s[a]
            acc += term
        total += acc / math.factorial(order)
    return total


def row_decrements(tensors, d):
    """Degree-len(tensors) Taylor decrement at each row of d."""
    dec = -(d @ tensors[0])
    if len(tensors) >= 2:
        dec -= 0.5 * np.einsum("ai,ij,aj->a", d, tensors[1], d)
    if len(tensors) >= 3:
        dec -= np.einsum("ijk,ai,aj,ak->a", tensors[2], d, d, d) / 6.0
    return dec


def grid_phi(tensors, delta, dirs, n_radius, refine):
    """Ball-maximized decrement of a degree-<=3 polynomial over the unit
    directions `dirs` times `n_radius` radii in (0, delta].

    The radius grid is rescanned `refine` times around the incumbent so
    interior maximizers are resolved well below the comparison tolerances.
    """
    lo, hi = delta / n_radius, delta
    best = 0.0
    best_r = delta
    for _ in range(1 + refine):
        radii = np.linspace(lo, hi, n_radius)
        d = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dirs.shape[1])
        dec = row_decrements(tensors, d)
        idx = int(np.argmax(dec))
        if float(dec[idx]) > best:
            best = float(dec[idx])
            best_r = radii[idx // dirs.shape[0]]
        step = (hi - lo) / (n_radius - 1)
        lo, hi = max(1e-12, best_r - step), min(delta, best_r + step)
    return best


def polar_grid_phi(tensors, delta, n_angle=4000, n_radius=100, refine=2):
    """`grid_phi` on `n_angle` equally spaced directions of the plane (n=2)."""
    angles = np.linspace(0.0, 2.0 * math.pi, n_angle, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return grid_phi(tensors, delta, dirs, n_radius, refine)


def sphere_grid_phi(tensors, delta):
    """`grid_phi` on the grid `harness.exact_phi` scans at order 3 (n <= 3):
    its direction set, 64 radii and two rescans, with the decrement summed
    point by point."""
    n = len(tensors[0])
    dirs = _sphere_grid(n, 4000 if n == 3 else 2000)
    return grid_phi(tensors, delta, dirs, 64, 2)


def central_diff_gradient(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def central_diff_hessian(fun, x, h=1e-5):
    # Extended precision: at h = 1e-5 the subtraction roundoff in float64
    # (~2e-6) would swamp tolerances of 1e-6.
    x = np.asarray(x, dtype=np.longdouble)
    h = np.longdouble(h)
    n = x.size
    out = np.zeros((n, n), dtype=np.longdouble)
    for i in range(n):
        for j in range(n):
            pp = x.copy(); pp[i] += h; pp[j] += h
            pm = x.copy(); pm[i] += h; pm[j] -= h
            mp = x.copy(); mp[i] -= h; mp[j] += h
            mm = x.copy(); mm[i] -= h; mm[j] -= h
            out[i, j] = (fun(pp) - fun(pm) - fun(mp) + fun(mm)) / (4.0 * h * h)
    return np.asarray(out, dtype=float)


def random_symmetric(rng, n, order):
    t = rng.standard_normal((n,) * order)
    if order == 1:
        return t
    perms = list(itertools.permutations(range(order)))
    return sum(np.transpose(t, p) for p in perms) / len(perms)


def sampled_norm3(tensor, samples=1000, seed=0):
    """max |T[u,u,u]| over `samples` random unit vectors u (seed `seed`) and
    the axes, in one einsum: a lower estimate of the induced norm of the
    symmetric order-3 tensor T, which T attains on the diagonal."""
    n = tensor.shape[0]
    u = np.random.default_rng(seed).standard_normal((samples, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u = np.vstack([u, np.eye(n)])
    return float(np.abs(np.einsum("ijk,ai,aj,ak->a", tensor, u, u, u)).max())
