"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Criteria 3-10 share the session-scoped benchmark grid (4 problems x 3 noise
models x 5 seeds x q in {1,2} x eps_min in {1e-2, 1e-3}, degree 2).
Ground-truth quantities are recomputed with exact derivatives throughout.
"""
import math
import time

import numpy as np

import arq.solver as solver_mod
from arq.check import CheckOutcome, check
from arq.diagnostics import compute_bounds
from arq.harness import run_sweep, verify_certificate, ExperimentSpec
from arq.oracle import NoiseModel, make_problem
from arq.solver import solve
from arq.subsolvers import optimality_measure
from arq.tensors import DerivativeBundle, taylor_decrement

from conftest import bench_config, polar_grid_phi, random_symmetric, row_decrements


def _report(num, name, n_checks, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status} "
          f"[{n_checks} checks, {len(violations)} violations]")
    assert not violations, violations[:5]


def _ball_samples(rng, n, delta, count=256):
    u = rng.standard_normal((count, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = np.concatenate(
        [np.full(count // 2, delta), delta * rng.random(count - count // 2)]
    )
    w = u * radii[:, None]
    w[0] = 0.0
    return w


_RUN_CACHE = {}


def _run_report(run):
    key = ("report", id(run))
    if key not in _RUN_CACHE:
        l_p = _visited_l(run)
        problem = run.problem
        f0 = problem.value(run.result.trace[0].x)
        _RUN_CACHE[key] = compute_bounds(run.config, l_p, max(0.0, f0 - problem.f_low))
    return _RUN_CACHE[key]


def _visited_l(run):
    from arq.harness import visited_lipschitz

    key = ("l", id(run))
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = visited_lipschitz(run.problem, run.result.trace, run.config.p)
    return _RUN_CACHE[key]


class TestCriterion1CheckGuarantees:
    def test_verdicts_against_ground_truth_instances(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20250809)
        counts = {v: 0 for v in CheckOutcome}
        violations = []
        n_instances = 1000
        for idx in range(n_instances):
            r = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            exact = [scale * random_symmetric(rng, n, i) for i in range(1, r + 1)]
            accs = [10.0 ** rng.uniform(-6.0, 0.0) for _ in range(r)]
            noisy = []
            for i, t in enumerate(exact):
                e = random_symmetric(rng, n, i + 1)
                e *= rng.uniform(0.0, 0.98) * accs[i] / math.sqrt(np.sum(e**2))
                noisy.append(t + e)
            delta = float(rng.uniform(0.2, 1.2))
            w = _ball_samples(rng, n, delta)
            dec_noisy = row_decrements(noisy, w)
            dec_exact = row_decrements(exact, w)
            decrement = float(dec_noisy.max())  # best sampled displacement
            xi = 10.0 ** rng.uniform(-3.0, 0.5)
            omega = float(rng.uniform(0.01, 0.6))
            verdict = check(delta, decrement, accs, xi, omega)
            counts[verdict] += 1
            err = np.abs(dec_noisy - dec_exact)
            budget = sum(a * delta**i / math.factorial(i) for i, a in enumerate(accs, 1))
            if verdict is CheckOutcome.RELATIVE:
                if not (decrement > 0 and float(err.max()) <= omega * decrement):
                    violations.append(("relative", idx))
            elif verdict is CheckOutcome.ABSOLUTE:
                cap = xi * delta**r / math.factorial(r)
                if not (float(np.maximum(dec_noisy, err).max()) <= cap):
                    violations.append(("absolute", idx))
            if budget <= omega * xi * delta**r / math.factorial(r):
                if verdict is CheckOutcome.INSUFFICIENT:
                    violations.append(("small-budget", idx))
        elapsed = time.perf_counter() - start
        assert all(counts[v] > 0 for v in CheckOutcome), counts
        if elapsed >= 10.0:
            violations.append(("runtime", elapsed))
        _report(1, "check guarantees", n_instances, violations)


class TestCriterion2SubsolverOracleEquivalence:
    def test_measures_match_reference_solvers(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        violations = []
        for idx in range(100):
            g = rng.standard_normal(2) * 10.0 ** rng.uniform(-1, 1)
            h = random_symmetric(rng, 2, 2) * 10.0 ** rng.uniform(-1, 1)
            delta = float(rng.uniform(0.1, 1.0))
            bundle = DerivativeBundle([g, h])
            m = optimality_measure(bundle, 2, delta)
            ref = polar_grid_phi([g, h], delta)
            if abs(m.phi_bar - ref) > 1e-4 * max(ref, 1e-300):
                violations.append(("order-2", idx, m.phi_bar, ref))
        for idx in range(100):
            n = int(rng.integers(1, 6))
            g = rng.standard_normal(n)
            delta = float(rng.uniform(0.1, 1.0))
            bundle = DerivativeBundle([g, np.zeros((n, n))])
            m = optimality_measure(bundle, 1, delta)
            ref = delta * float(np.linalg.norm(g))
            if abs(m.phi_bar - ref) > 1e-12 * max(ref, 1.0):
                violations.append(("order-1", idx))
        elapsed = time.perf_counter() - start
        if elapsed >= 30.0:
            violations.append(("runtime", elapsed))
        _report(2, "subsolver oracle equivalence", 200, violations)


class TestCriterion3RelativeErrorHeadline:
    def test_every_accepted_decrement_is_relatively_accurate(self, benchmark_suite):
        start = time.perf_counter()
        violations = []
        n_checks = 0
        for run in benchmark_suite.runs:
            omega = run.config.omega
            for rec in run.t_records:
                p = run.config.p
                bundle = DerivativeBundle([run.problem.derivative(rec.x, i)
                                           for i in range(1, p + 1)])
                exact = taylor_decrement(bundle, rec.step, p)
                n_checks += 1
                if not abs(rec.dec_bar - exact) <= omega * rec.dec_bar:
                    violations.append((run.problem_name, run.noise, rec.k))
        elapsed = benchmark_suite.build_seconds + (time.perf_counter() - start)
        if elapsed >= 120.0:
            violations.append(("runtime", elapsed))
        _report(3, "relative decrement accuracy", n_checks, violations)

    def test_step3_values_are_within_omega_of_the_decrement(self, benchmark_suite):
        """Step 3 needs f-bar(x_k) and f-bar(x_k + s_k) each within
        omega * dec_bar of f, whether it evaluated f-bar(x_k) afresh or
        reused it.  From the trace alone: an unsuccessful row's f_bar is
        f-bar(x_k); a successful row's is the trial value, and f-bar(x_k)
        is trial + rho * dec_bar, checked with 1e-9 relative slack for that
        reconstruction."""
        violations = []
        n_checks = 0
        for run in benchmark_suite.runs:
            omega = run.config.omega
            for rec in run.t_records:
                bound = omega * rec.dec_bar
                f_x = run.problem.value(rec.x)
                if rec.kind == "unsuccessful":
                    checks = [("f_bar(x_k)", rec.f_bar_after, f_x, bound)]
                else:
                    checks = [
                        ("trial", rec.f_bar_after, run.problem.value(rec.x + rec.step), bound),
                        ("f_bar(x_k)", rec.f_bar_after + rec.rho * rec.dec_bar, f_x,
                         bound * (1.0 + 1e-9)),
                    ]
                for name, inexact, exact, tol in checks:
                    n_checks += 1
                    if not abs(inexact - exact) <= tol:
                        violations.append((run.problem_name, run.noise, run.seed, rec.k, name))
        _report(3, "step-3 value accuracy", n_checks, violations)


class TestCriterion4SigmaBound:
    def test_regularization_stays_under_its_cap(self, benchmark_suite):
        violations = []
        n_checks = 0
        for run in benchmark_suite.runs:
            cfg = run.config
            l_p = _visited_l(run)
            cap = max(cfg.sigma0, cfg.gamma3 * 4.0 * l_p / (1.0 - cfg.eta2))
            for rec in run.result.trace:
                n_checks += 1
                if rec.sigma > cap:
                    violations.append((run.problem_name, run.noise, rec.k, rec.sigma, cap))
        _report(4, "sigma upper bound", n_checks, violations)


class TestCriterion5IterationAccounting:
    def test_trial_iterations_dominated_by_successes(self, benchmark_suite):
        violations = []
        n_checks = 0
        for run in benchmark_suite.runs:
            cfg = run.config
            report = _run_report(run)
            c1 = 1.0 + abs(math.log(cfg.gamma1)) / math.log(cfg.gamma2)
            c2 = math.log(report.sigma_max / cfg.sigma0) / math.log(cfg.gamma2)
            n_t = n_s = 0
            for rec in run.result.trace:
                if rec.kind == "successful":
                    n_s += 1
                    n_t += 1
                elif rec.kind == "unsuccessful":
                    n_t += 1
                n_checks += 1
                if n_t > n_s * c1 + c2:
                    violations.append((run.problem_name, run.noise, rec.k, n_t, n_s))
        _report(5, "iteration accounting", n_checks, violations)


class TestCriterion6ModelDecreaseAndStepBound:
    def test_decrement_floor_and_step_cap(self, benchmark_suite):
        violations = []
        n_checks = 0
        for run in benchmark_suite.runs:
            p = run.config.p
            report = _run_report(run)
            for rec in run.t_records:
                n_checks += 1
                floor = rec.sigma * rec.step_norm ** (p + 1) / math.factorial(p + 1)
                if not rec.dec_bar >= floor:
                    violations.append(("floor", run.problem_name, rec.k))
                if not rec.step_norm <= report.kappa_s:
                    violations.append(("step", run.problem_name, rec.k))
        _report(6, "model decrease and step bound", n_checks, violations)


class TestCriterion7CertificateVerification:
    def test_every_terminating_run_verifies_exactly(self, benchmark_suite):
        violations = []
        n_checks = 0
        for run in benchmark_suite.runs:
            checks = verify_certificate(run.problem, run.result.certificate)
            for entry in checks:
                n_checks += 1
                if entry["ok"] is not True:
                    violations.append((run.problem_name, run.noise, run.q, entry))
        assert n_checks == sum(run.q for run in benchmark_suite.runs)
        _report(7, "certificate verification", n_checks, violations)


class TestCriterion8AccuracyImprovementBudget:
    def test_step5_count_stays_under_its_bound(self, benchmark_suite):
        violations = []
        for run in benchmark_suite.runs:
            report = _run_report(run)
            n_a = sum(1 for r in run.result.trace if r.kind == "accuracy_improving")
            if n_a > report.k_acc_min:
                violations.append((run.problem_name, run.noise, n_a, report.k_acc_min))
        _report(8, "accuracy-improvement budget", len(benchmark_suite.runs), violations)

    def test_total_exponent_stays_under_its_bound(self, benchmark_suite):
        # Before its last tightening a run's total exponent is under
        # k_acc_min, after which no check fails; one step 5 adds at most
        # the cap.
        cap = solver_mod._ACC_STEPS_CAP
        violations = []
        for run in benchmark_suite.runs:
            report = _run_report(run)
            total = sum(r.acc_steps for r in run.result.trace if r.acc_steps is not None)
            if total > report.k_acc_min - 1 + cap:
                violations.append((run.problem_name, run.noise, total, report.k_acc_min))
        _report(8, "accuracy exponent budget", len(benchmark_suite.runs), violations)


class TestCriterion9EvaluationBounds:
    def test_counts_within_theory_and_slope_shallow(self, benchmark_suite):
        violations = []
        n_checks = 0
        for run in benchmark_suite.runs:
            report = _run_report(run)
            counters = run.result.counters
            n_checks += 2
            if counters.value_evals > report.n_value_evals:
                violations.append(("value", run.problem_name, run.noise))
            if counters.derivative_evals > report.n_derivative_evals:
                violations.append(("deriv", run.problem_name, run.noise))
        for prob_name, dim, q in (("quadratic", 4, 1), ("rosenbrock", 2, 1),
                                  ("quadratic", 4, 2)):
            spec = ExperimentSpec(
                problem=prob_name, dim=dim, noise="exact", seed=1,
                eps=(1e-2, 1e-3, 1e-4), q=q,
            )
            summary = run_sweep(spec)
            cap = (2 + 1) / (2 - q + 1) + 0.1
            n_checks += 2
            for key in ("slope_value", "slope_deriv"):
                if not summary[key] <= cap:
                    violations.append((key, prob_name, q, summary[key], cap))
        _report(9, "evaluation bounds and slope", n_checks, violations)


class TestCriterion10ExactOracleDegeneration:
    def test_exact_runs_never_improve_accuracy(self, benchmark_suite):
        violations = []
        exact_runs = [r for r in benchmark_suite.runs if r.noise == "exact"]
        for run in exact_runs:
            n_a = sum(1 for r in run.result.trace if r.kind == "accuracy_improving")
            if n_a != 0:
                violations.append((run.problem_name, run.q, n_a))

        # every accuracy check made during an exact run must come back
        # relative whenever the decrement is positive
        recorded = []
        original = solver_mod.verdict

        def recording_verdict(delta, decrement, accuracies, xi, omega):
            outcome, margins = original(delta, decrement, accuracies, xi, omega)
            recorded.append((decrement, outcome))
            return outcome, margins

        solver_mod.verdict = recording_verdict
        try:
            for name, dim in (("quadratic", 4), ("rosenbrock", 2)):
                problem = make_problem(name, dim)
                solve(problem, NoiseModel("exact"), bench_config(1, 1e-3, "exact"))
        finally:
            solver_mod.verdict = original
        assert recorded
        for decrement, verdict in recorded:
            if decrement > 0 and verdict is not CheckOutcome.RELATIVE:
                violations.append(("verdict", decrement, verdict))
            if verdict is CheckOutcome.INSUFFICIENT:
                violations.append(("insufficient", decrement))
        _report(10, "exact-oracle degeneration",
                len(exact_runs) + len(recorded), violations)
