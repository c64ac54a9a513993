"""Trace-level theory properties checked across the shared benchmark grid.

These complement the acceptance criteria: radius floors, the exact-function
decrease at accepted steps, and the certificate's exit inequality, all
recomputed against ground truth.
"""
import math

import numpy as np

from arq.tensors import operator_norm

from conftest import assert_bundle_reuse


def _norm(t):
    """The induced norm of a matrix, `operator_norm` (Frobenius) else: a
    smaller bound on a Hessian, so a higher radius floor."""
    return float(np.abs(np.linalg.eigvalsh(t)).max()) if t.ndim == 2 else operator_norm(t)


def _local_norm_bound(run, rec):
    """Upper bound on the norms of the derivative bundle used at rec.x."""
    p = run.config.p
    exact = max(_norm(run.problem.derivative(rec.x, order)) for order in range(1, p + 1))
    return max(1.0, exact) + float(np.max(rec.acc))


def test_step2_entry_radius_floor(benchmark_suite):
    # Whenever control reaches the step computation, the working radius for
    # the active order never fell below its theoretical floor.
    for run in benchmark_suite.runs:
        cfg = run.config
        for rec in run.t_records:
            j = rec.j_k
            floor = (
                cfg.varsigma
                * cfg.epsilons[j - 1]
                / (8.0 * (1.0 + cfg.omega) * max(_local_norm_bound(run, rec), rec.sigma))
            )
            assert rec.delta_end[j - 1] >= min(floor, rec.delta_start[j - 1])


def test_global_start_radius_floor(benchmark_suite):
    # Radii entering each iteration stay above kappa_delta(max sigma so far)
    # times the accuracy target, order by order.
    for run in benchmark_suite.runs:
        cfg = run.config
        trace = run.result.trace
        l_bar = max(_local_norm_bound(run, rec) for rec in trace)
        sigma_max = cfg.sigma0
        for prev, nxt in zip(trace[:-1], trace[1:]):
            sigma_max = max(sigma_max, prev.sigma)
            kd = (
                cfg.varsigma
                * cfg.theta
                * (1.0 - cfg.omega)
                / (8.0 * (1.0 + cfg.omega) * (3.0 * l_bar + sigma_max))
            )
            for j in range(1, cfg.q + 1):
                assert nxt.delta_start[j - 1] >= kd * cfg.epsilons[j - 1]


def test_accepted_steps_decrease_the_true_objective(benchmark_suite):
    for run in benchmark_suite.runs:
        cfg = run.config
        for rec in run.t_records:
            if rec.kind != "successful":
                continue
            drop = run.problem.value(rec.x) - run.problem.value(rec.x + rec.step)
            assert drop >= (cfg.eta1 - 2.0 * cfg.omega) * rec.dec_bar


def test_certificates_satisfy_the_exit_inequality(benchmark_suite):
    for run in benchmark_suite.runs:
        cfg = run.config
        for entry in run.result.certificate.measured:
            j = entry["order"]
            exit_cap = (
                cfg.varsigma
                * cfg.epsilons[j - 1]
                / (1.0 + cfg.omega)
                * entry["delta"] ** j
                / math.factorial(j)
            )
            assert entry["phi_bar"] <= exit_cap
            assert exit_cap <= entry["threshold"]


def test_derivatives_are_reused_after_an_unsuccessful_iteration(benchmark_suite):
    for run in benchmark_suite.runs:
        assert_bundle_reuse(run.result.trace, run.noise)
    assert any(rec.kind == "unsuccessful" for run in benchmark_suite.runs
               for rec in run.result.trace)


def test_per_iteration_counter_breakdown(benchmark_suite):
    for run in benchmark_suite.runs:
        counters = run.result.counters
        per_iteration = [(r.k, r.value_evals, r.derivative_evals) for r in run.result.trace]
        assert [k for k, _, _ in per_iteration] == list(range(run.result.iterations))
        assert sum(v for _, v, _ in per_iteration) == counters.value_evals
        assert sum(d for _, _, d in per_iteration) == counters.derivative_evals


def _next_sigma(cfg, sigma, rho):
    """Step 4's regularization update at ratio ``rho``."""
    if rho >= cfg.eta2:
        return max(cfg.sigma_min, cfg.gamma1 * sigma)
    if rho >= cfg.eta1:
        return sigma
    return (cfg.gamma2 if rho >= 0.0 else cfg.gamma3) * sigma


def test_sigma_follows_the_ratio_band(benchmark_suite):
    """Every trial record's successor carries the sigma its rho's band
    gives, and every accuracy-improving record's successor keeps sigma.
    Every band but 0 <= rho < eta1 is reached on the grid; the unit tests
    of `step3_step4` cover that one."""
    bands = set()
    for run in benchmark_suite.runs:
        cfg = run.config
        trace = run.result.trace
        for rec, nxt in zip(trace[:-1], trace[1:]):
            if rec.kind == "accuracy_improving":
                assert nxt.sigma == rec.sigma
                continue
            assert nxt.sigma == _next_sigma(cfg, rec.sigma, rec.rho)
            bands.add(sum(rec.rho >= edge for edge in (0.0, cfg.eta1, cfg.eta2)))
    assert bands >= {0, 2, 3}
