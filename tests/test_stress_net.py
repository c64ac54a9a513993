"""Stress net: rescaled random double wells at every model degree.

Instance i draws everything from ``default_rng(FIRST_SEED + i)``: n in
1..6, then `test_random_problems.random_well_problem`'s well f, rescaled to
a f(x / b) with a in 10^[-6, 6] and b in 10^[-3, 3] (log-uniform), p in
{1, 2, 3}, q in 1..p, one epsilon in 10^[-5, -1] for every order, a noise
kind and its seed.  Every fifth instance starts at 0, a stationary point of
every such well; the others start at b times the well's own start.  The
solver is configured as the harness configures it (exact noise demands
exact derivatives), with a budget of `MAX_ITERS` iterations.

Tier-1 solves `SLICE`, a few seconds of the net, and the instances in
`VERIFIED`.  Run as a script, the module solves all `COUNT` instances and
prints their outcomes by p, their totals by p (iterations, value and
derivative evaluations, and the model minimizer's inner iterations, stops
included), then every instance that stopped without a certificate:

    PYTHONPATH=src python tests/test_stress_net.py
"""
from __future__ import annotations

import collections
import sys

import numpy as np
import pytest

from arq import NoiseModel, Problem, SolveStoppedError, solve
from arq.harness import ExperimentSpec, build_config, verify_certificate
from test_random_problems import random_well_problem

FIRST_SEED = 90000
COUNT = 1000
MAX_ITERS = 2000
NOISES = ("exact", "truncation", "bounded_random")
# The statuses a stop may carry here: `invariant` would be a bug, and the
# wells' derivatives are finite everywhere, so `oracle` would be one too.
STOPS = ("budget", "stall")
# 160 instances, 58 of them at p = 3, about 1.5 s.  Before `minimize_model`
# took its Newton trials' model drop from the model's expansion at the
# iterate, five of them (90046, 90074, 90097, 90141, 90156) stopped with
# "trust region collapsed before certification"; so did 90703, outside the
# slice, at p = 2.
SLICE = range(160)
# Instances outside the slice that verify.  354, 703 and 986 are p = 2 wells
# whose runs depend on the cubic model's secular step: with Newton steps on
# 1/||s(mu)|| - sigma / (2 mu) in place of tangent roots, each stopped with
# "model minimizer converged but step certification failed".  328 and 384
# are p = q = 1 wells whose model-minimizer steps come from `solve_trs`:
# when it started every solve at mu = 0, unscaled, each stopped so too.
VERIFIED = (328, 354, 384, 703, 986)
# The columns of `main`'s totals table, one per entry of `totals`.
TOTALS = ("iterations", "value evals", "derivative evals", "inner iterations")


def instance(i: int):
    """(problem, noise model, config) of the net's instance i."""
    seed = FIRST_SEED + i
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    well = random_well_problem(rng, n)
    a, b = 10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-3, 3)
    p = int(rng.integers(1, 4))
    q = int(rng.integers(1, p + 1))
    eps = 10.0 ** rng.uniform(-5, -1)
    noise = NOISES[int(rng.integers(3))]
    x0 = np.zeros(n) if i % 5 == 0 else b * well.x0
    problem = Problem(f"well{seed}", n, lambda x: a * well.value(x / b),
                      lambda x, j: a / b**j * well.derivative(x / b, j), 0.0, x0, 3)
    spec = ExperimentSpec(noise=noise, eps=(eps,), p=p, q=q, overrides={"max_iters": MAX_ITERS})
    return problem, NoiseModel(noise, 0.9, int(rng.integers(2**31))), build_config(spec)


def outcome(i: int):
    """(config, outcome, totals) of instance i.  The outcome is ``verified``
    or ``unsupported`` by the exact recheck of its certificate,
    ``rejected`` when an order fails it, or, for a stop, the
    `SolveStoppedError` raised; the totals are `totals` of its run."""
    problem, noise, config = instance(i)
    try:
        result = solve(problem, noise, config)
    except SolveStoppedError as exc:
        return config, exc, totals(exc.trace, exc.counters)
    run = totals(result.trace, result.counters)
    flags = [c["ok"] for c in verify_certificate(problem, result.certificate)]
    if False in flags:
        return config, "rejected", run
    return config, "verified" if all(flags) else "unsupported", run


def totals(trace, counters) -> tuple:
    """A run's iterations, value and derivative evaluations, and model
    minimizer inner iterations, in `TOTALS` order."""
    inner = sum(rec.inner_iterations or 0 for rec in trace)
    return len(trace), counters.value_evals, counters.derivative_evals, inner


def label(out) -> str:
    """An outcome's row in the table: a stop by status and the message up
    to its numbers."""
    if isinstance(out, str):
        return out
    return f"{out.status}: {str(out).split(' (')[0]}"


@pytest.mark.parametrize("i", SLICE, ids=lambda i: str(FIRST_SEED + i))
def test_instance_certifies_or_stops_as_documented(i):
    config, out, _ = outcome(i)
    if isinstance(out, str):
        assert out in ("verified", "unsupported")
    else:
        assert out.status in STOPS, label(out)
        assert "trust region collapsed" not in str(out), label(out)


@pytest.mark.parametrize("i", VERIFIED, ids=lambda i: str(FIRST_SEED + i))
def test_instance_verifies(i):
    assert outcome(i)[1] == "verified"


def main() -> int:
    table = collections.defaultdict(collections.Counter)
    sums = {p: [0] * len(TOTALS) for p in (1, 2, 3)}
    stops = []
    for i in range(COUNT):
        config, out, run = outcome(i)
        table[label(out)][config.p] += 1
        sums[config.p] = [a + b for a, b in zip(sums[config.p], run)]
        if not isinstance(out, str):
            stops.append(f"{FIRST_SEED + i} p={config.p} q={config.q}: {out.status}: {out}")
    def print_table(head, rows):
        print(f"| {head} | p = 1 | p = 2 | p = 3 | all |\n|---|---|---|---|---|")
        for name, counts in rows:
            print(f"| {name} | " + " | ".join(map(str, counts)) + f" | {sum(counts)} |")

    print_table("outcome", [(row, [table[row][p] for p in (1, 2, 3)])
                            for row in sorted(table, key=lambda r: -sum(table[r].values()))])
    print()
    print_table("total", [(name, [sums[p][k] for p in (1, 2, 3)])
                          for k, name in enumerate(TOTALS)])
    print("\n".join(stops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
