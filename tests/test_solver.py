import dataclasses
import logging

import numpy as np
import pytest

import arq.solver
from arq.check import Shortfall
from arq.oracle import NoiseModel, Problem, make_problem
from arq.solver import (
    BudgetExhaustedError,
    Certificate,
    ConfigError,
    InternalInvariantError,
    SolverConfig,
    SolverState,
    solve,
    step1,
    step2,
    step3_step4,
    step5,
)
from arq.subsolvers import MeasureResult, StepResult, SubsolverStallError
from arq.tensors import DerivativeBundle, RegularizedModel

from conftest import (
    BENCH_NOISES,
    BENCH_PROBLEMS,
    assert_bundle_reuse,
    bench_config,
    bench_seeds,
    steep_problem,
)


def half_norm_squared(dim):
    return Problem(
        "halfnorm",
        dim,
        lambda x: 0.5 * float(x @ x),
        lambda x, i: x if i == 1 else (np.eye(dim) if i == 2 else np.zeros((dim,) * i)),
        0.0,
        np.ones(dim),
        3,
        1.0,
    )


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SolverConfig()
        assert cfg.varsigma == 1.0
        assert cfg.delta0 == (1.0,)
        assert cfg.acc0 == (0.1, 0.1)

    def test_varsigma_tracks_subsolver_guarantees(self):
        assert SolverConfig(q=2, epsilons=(0.1, 0.1)).varsigma == 1.0 - 1e-8
        assert SolverConfig(p=3, q=3, epsilons=(0.1,) * 3).varsigma == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=5, epsilons=(0.1,) * 5),
            dict(p=1, q=2, epsilons=(0.1, 0.1)),
            dict(p=4, q=1),
            dict(epsilons=(0.1, 0.1)),
            dict(epsilons=(1.5,)),
            dict(sigma0=0.0),
            dict(sigma_min=0.0),
            dict(sigma_min=2.0),
            dict(eta1=0.0),
            dict(eta2=1.0, omega=0.001),
            dict(eta1=0.95, eta2=0.9),
            dict(gamma1=1.0),
            dict(gamma2=0.9),
            dict(gamma3=2.0),
            dict(gamma_acc=1.0),
            dict(omega=0.03),
            dict(omega=0.0),
            dict(theta=0.0),
            dict(varsigma=1.5),
            dict(delta0=(0.05,), epsilons=(0.1,)),
            dict(delta0=(1.5,)),
            dict(acc0=(0.1,)),
            dict(acc0=(2.0, 2.0)),
            dict(acc_max=-1.0),
            dict(max_iters=0),
            dict(max_inner_iters=0),
            # compute_bounds needs theta < 1 and these finite
            dict(theta=2.0),
            dict(sigma0=float("inf")),
            dict(gamma3=float("inf")),
            dict(acc_max=float("inf")),
        ],
    )
    def test_constraint_violations_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SolverConfig(**kwargs)

    def test_nan_accuracy_rejected(self):
        # Accepted before, after which a solve ran out its 1 000 iterations.
        with pytest.raises(ConfigError, match="acc0"):
            SolverConfig(p=2, q=1, epsilons=(1e-2,), acc0=(float("nan"), 0.1))


def make_state(dim=1, sigma=1.0, q=1, acc=(0.0, 0.0), f_bar=None):
    return SolverState(
        x=np.zeros(dim),
        sigma=sigma,
        delta=np.ones(q),
        delta_start=np.ones(q),
        acc=np.asarray(acc, float),
        f_bar=f_bar,
    )


def bundle_1d(g, h):
    return DerivativeBundle([np.array([g]), np.array([[h]])])


class TestStep1:
    def test_large_gradient_goes_to_step2_without_halving(self):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0)
        state = make_state()
        bundle = bundle_1d(1.0, 0.0)
        j_k, measure = step1(state, bundle, RegularizedModel(bundle, 1.0), cfg, lambda: 3.0)
        assert j_k == 1
        assert state.delta[0] == 1.0
        assert measure.phi_bar == pytest.approx(1.0)

    def test_insufficient_accuracy_goes_to_step5(self):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0)
        state = make_state(acc=(10.0, 10.0))
        bundle = bundle_1d(1.0, 0.0)
        out = step1(state, bundle, RegularizedModel(bundle, 1.0), cfg, lambda: 12.0)
        # error sum 10 * 1 against max(omega * phi_bar, omega * xi) = 0.02
        assert out == Shortfall("step1 j=1", 10.0, 0.02)

    def test_small_measures_terminate_with_certificate(self):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0)
        state = make_state()
        bundle = bundle_1d(1e-6, 0.0)
        out = step1(state, bundle, RegularizedModel(bundle, 1.0), cfg, lambda: 3.0)
        assert isinstance(out, Certificate)
        cert = out
        assert cert.measured[0]["order"] == 1
        assert cert.measured[0]["phi_bar"] == pytest.approx(1e-6)
        assert cert.measured[0]["threshold"] == pytest.approx(0.1)

    def test_positive_curvature_forces_halving_before_step2(self):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0, sigma0=0.1)
        state = make_state(sigma=0.1)
        bundle = bundle_1d(0.15, 3.0)
        j_k, _ = step1(state, bundle, RegularizedModel(bundle, 0.1), cfg, lambda: 3.0)
        assert j_k == 1
        # four halvings: at delta = 0.0625 the order-2 drop at the probe
        # displacement finally clears half the exit threshold
        assert state.delta[0] == pytest.approx(0.0625)


def guard_floor(cfg, sigma, l_bar):
    # The order-1 step-1 guard floor at this L-bar.
    return 1e-3 * cfg.varsigma * cfg.epsilons[0] / (
        4.0 * (1.0 + cfg.omega) * max(l_bar, sigma)
    )


def lowest_guard_floor(cfg, sigma):
    # The guard floor at its least possible L-bar, 1 + acc_max.
    return guard_floor(cfg, sigma, 1.0 + cfg.acc_max)


@pytest.fixture
def estimate_calls(monkeypatch):
    """Count the solver's calls of the Lipschitz estimate behind its guard."""
    calls = []
    real = arq.solver.estimate_lipschitz

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(arq.solver, "estimate_lipschitz", counted)
    return calls


class TestLazyGuard:
    def test_callable_guard_is_left_alone_above_the_lowest_floor(self):
        cfg = SolverConfig(epsilons=(0.9,), varsigma=1.0, sigma0=0.001)
        state = make_state(sigma=0.001)
        bundle = bundle_1d(2.0, 200.0)
        calls = []
        j_k, _ = step1(
            state, bundle, RegularizedModel(bundle, 0.001), cfg, lambda: calls.append(1)
        )
        assert j_k == 1
        assert state.delta[0] == 2.0**-7
        assert calls == []

    def test_callable_guard_is_called_only_under_the_lowest_floor(self):
        cfg = SolverConfig(epsilons=(0.9,), varsigma=1.0, sigma0=0.001)
        state = make_state(sigma=0.001)
        bundle = bundle_1d(2.0, 2e5)
        seen = []

        def guard():
            seen.append(float(state.delta[0]))
            return 1e6

        j_k, _ = step1(state, bundle, RegularizedModel(bundle, 0.001), cfg, guard)
        assert j_k == 1
        assert seen
        assert all(d < lowest_guard_floor(cfg, 0.001) for d in seen)
        assert 2.0 * seen[0] >= lowest_guard_floor(cfg, 0.001)

    def test_callable_guard_raises_like_the_eager_check(self):
        from arq.solver import InternalInvariantError

        cfg = SolverConfig(epsilons=(0.9,), varsigma=1.0, sigma0=0.001)
        bundle = bundle_1d(2.0, 2e5)
        state = make_state(sigma=0.001)
        with pytest.raises(InternalInvariantError) as err:
            step1(state, bundle, RegularizedModel(bundle, 0.001), cfg, lambda: 3.0)
        # A check after every halving would raise at the first radius under
        # the floor at L-bar = 3, the one the lazy check raised at.
        floor = guard_floor(cfg, 0.001, 3.0)
        assert state.delta[0] < floor <= 2.0 * state.delta[0]
        assert f"({state.delta[0]:.3e} < {floor:.3e})" in str(err.value)

    def test_grid_sized_solve_never_estimates(self, estimate_calls):
        cfg = bench_config(2, 1e-3, "bounded_random")
        res = solve(make_problem("quadratic", 4), NoiseModel("bounded_random", 0.9, 5), cfg)
        assert res.iterations > 1
        assert estimate_calls == []

    def test_solve_estimates_at_most_once(self, estimate_calls):
        cfg = SolverConfig(epsilons=(0.5,), acc0=(0.0, 0.0), acc_max=0.0)
        res = solve(steep_problem(), NoiseModel("exact"), cfg)
        assert min(float(np.min(r.delta_end)) for r in res.trace) < lowest_guard_floor(
            cfg, cfg.sigma0
        )
        assert len(estimate_calls) == 1


class TestStep2:
    """Step 2 makes the decrement check and the ell check on one bundle and
    step.  Here f' = 1, the step is -0.5 (dec_p = 0.5, so the decrement
    threshold is omega * 0.5 = 0.01) and acc = (a, a): the decrement error
    sum is 0.625 a, and the ell=1 check compares 3 a with omega * phi_bar."""

    def run(self, monkeypatch, a, phi_bar):
        step = StepResult(np.array([-0.5]), np.ones(1), (phi_bar,), False, 0)
        monkeypatch.setattr(arq.solver, "minimize_model", lambda *args, **kw: step)
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0)
        bundle = bundle_1d(1.0, 0.0)
        measure = MeasureResult(1.0, np.array([-1.0]))
        return step2(make_state(acc=(a, a)), bundle, RegularizedModel(bundle, 1.0),
                     cfg, 1, measure)

    def test_largest_exponent_wins(self, monkeypatch):
        # decrement: 0.0625 against 0.01, k = 2; ell=1: 0.3 against 0.002, k = 4
        out = self.run(monkeypatch, 0.1, 0.1)
        assert out == Shortfall("step2 ell=1", pytest.approx(0.3), pytest.approx(0.002))
        assert out.steps(0.25, arq.solver._ACC_STEPS_CAP) == 4
        # ell=1: 0.3 against 0.2, k = 1, so the decrement's k = 2 wins
        out = self.run(monkeypatch, 0.1, 10.0)
        assert out == Shortfall("step2 decrement", pytest.approx(0.0625), pytest.approx(0.01))

    def test_tie_returns_the_earlier_check(self, monkeypatch):
        # ell=1: 0.3 against 0.02, k = 2, as for the decrement
        out = self.run(monkeypatch, 0.1, 1.0)
        assert out == Shortfall("step2 decrement", pytest.approx(0.0625), pytest.approx(0.01))

    def test_one_failing_check_is_returned_as_before(self, monkeypatch):
        # ell=1 passes (0.3 <= 2): only the decrement fails
        out = self.run(monkeypatch, 0.1, 100.0)
        assert out == Shortfall("step2 decrement", pytest.approx(0.0625), pytest.approx(0.01))
        # the decrement passes (0.00625 <= 0.01): only ell=1 fails
        out = self.run(monkeypatch, 0.01, 0.1)
        assert out == Shortfall("step2 ell=1", pytest.approx(0.03), pytest.approx(0.002))

    def test_no_failing_check_returns_the_step(self, monkeypatch):
        step_res, dec_p = self.run(monkeypatch, 0.001, 1.0)
        assert step_res.step == pytest.approx([-0.5])
        assert dec_p == pytest.approx(0.5)


class ScriptedOracle:
    """Returns the scripted values in turn: a ``(value, achieved)`` pair as
    it is, a bare value with the requested bound as its achieved error."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def inexact_value(self, x, bound):
        self.calls.append((np.array(x, float), float(bound)))
        value = self.values.pop(0)
        return value if isinstance(value, tuple) else (value, float(bound))


def plain_step(s, q=1):
    return StepResult(np.asarray(s, float), np.ones(q), (), False, 0)


class TestStep3Step4:
    def test_plain_success_keeps_sigma(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 0.0))
        oracle = ScriptedOracle([0.5])
        rho = step3_step4(state, oracle, cfg, plain_step([0.5]), 1.0)
        assert rho == pytest.approx(0.5)
        assert rho >= cfg.eta1
        assert state.sigma == 2.0
        assert state.x == pytest.approx([0.5])
        assert state.f_bar == (0.5, cfg.omega)

    def test_very_successful_shrinks_sigma_to_lower_endpoint(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 0.0))
        oracle = ScriptedOracle([0.05])
        rho = step3_step4(state, oracle, cfg, plain_step([0.5]), 1.0)
        assert rho == pytest.approx(0.95)
        assert rho >= cfg.eta1
        assert state.sigma == pytest.approx(1.0)  # max(sigma_min, gamma1 * 2)

    def test_rejection_grows_sigma_and_keeps_x(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 0.0))
        oracle = ScriptedOracle([1.2])
        rho = step3_step4(state, oracle, cfg, plain_step([0.5]), 1.0)
        assert rho == pytest.approx(-0.2)
        assert rho < cfg.eta1
        assert state.sigma == pytest.approx(4.0)
        assert state.x == pytest.approx([0.0])

    def test_stale_cache_triggers_recompute(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 100.0))
        oracle = ScriptedOracle([0.5, 0.9])
        rho = step3_step4(state, oracle, cfg, plain_step([0.5]), 1.0)
        # stored bound 100 is looser than omega * dec: both points evaluated
        assert len(oracle.calls) == 2
        assert rho == pytest.approx(0.4)

    def test_tight_trial_value_serves_the_next_step3(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 0.0))
        # Requested at omega * 1.0 = 0.02, achieved 1e-4: below the next
        # demand omega * 0.1 = 0.002, so f-bar(x_1) is not evaluated again.
        oracle = ScriptedOracle([(0.5, 1e-4), 0.45])
        assert step3_step4(state, oracle, cfg, plain_step([0.5]), 1.0) == pytest.approx(0.5)
        assert state.f_bar == (0.5, 1e-4)
        rho = step3_step4(state, oracle, cfg, plain_step([0.25]), 0.1)
        assert [bound for _, bound in oracle.calls] == [cfg.omega, pytest.approx(0.1 * cfg.omega)]
        assert oracle.calls[1][0] == pytest.approx([0.75])
        assert rho == pytest.approx(0.5)
        assert state.f_bar == (0.45, pytest.approx(0.1 * cfg.omega))

    def test_short_step_installs_searched_radii(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 0.0))
        state.delta[0] = 0.25
        oracle = ScriptedOracle([0.5])
        res = StepResult(np.array([0.5]), np.array([1.0]), (), False, 0)
        step3_step4(state, oracle, cfg, res, 1.0)
        assert state.delta[0] == 1.0


class TestStep5:
    def test_tightens_accuracy_and_rewinds_radii(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(acc=(0.1, 0.1))
        state.delta[0] = 0.25  # halved during step 1
        sigma_before = state.sigma
        # 0.25 * 1.0 <= 0.5: one factor clears the shortfall
        assert step5(state, cfg, Shortfall("step2 decrement", 1.0, 0.5)) == 1
        assert np.all(state.acc == pytest.approx([0.025, 0.025]))
        assert state.delta[0] == 1.0
        assert state.sigma == sigma_before

    def test_applies_the_shortfall_exponent(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(acc=(0.1, 0.1))
        # 0.25**3 * 1.0 = 0.0156 <= 0.02 < 0.25**2 * 1.0
        assert step5(state, cfg, Shortfall("step2 decrement", 1.0, 0.02)) == 3
        assert np.array_equal(state.acc, 0.25**3 * np.array([0.1, 0.1]))


class TestSolve:
    def test_quadratic_exact_certifies_gradient_norm(self):
        problem = half_norm_squared(2)
        cfg = SolverConfig(epsilons=(1e-3,), acc0=(0.0, 0.0), acc_max=0.0)
        res = solve(problem, NoiseModel("exact"), cfg, x0=np.array([1.0, 1.0]))
        g = problem.derivative(res.certificate.x_eps, 1)
        assert np.linalg.norm(g) <= 1e-3
        assert res.iterations < 30

    def test_start_at_minimizer_terminates_immediately(self):
        problem = half_norm_squared(3)
        cfg = SolverConfig(epsilons=(0.5,), acc0=(0.0, 0.0), acc_max=0.0)
        res = solve(problem, NoiseModel("exact"), cfg, x0=np.zeros(3))
        assert res.iterations == 1
        assert res.trace[0].kind is None
        assert res.counters.value_evals == 0

    def test_noisy_rosenbrock_certificate_verifies(self):
        from arq.harness import verify_certificate

        problem = make_problem("rosenbrock", 2)
        cfg = SolverConfig(epsilons=(1e-4,))
        res = solve(problem, NoiseModel("bounded_random", 0.9, 3), cfg)
        checks = verify_certificate(problem, res.certificate)
        assert [c["ok"] for c in checks] == [True]
        assert checks[0]["phi_exact"] <= 1e-4

    def test_certificate_is_frozen(self):
        cfg = SolverConfig(epsilons=(1e-3,), acc0=(0.0, 0.0), acc_max=0.0)
        cert = solve(half_norm_squared(2), NoiseModel("exact"), cfg).certificate
        assert [f.name for f in dataclasses.fields(cert)] == ["x_eps", "delta_eps", "measured"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.x_eps = np.zeros(2)

    def test_order_above_the_problems_derivatives_rejected(self):
        # Before, the oracle's bare ValueError escaped from the first bundle.
        calls = []
        problem = dataclasses.replace(
            half_norm_squared(2), p_max=2,
            eval_derivative=lambda x, i: calls.append(i) or np.zeros((2,) * i),
        )
        with pytest.raises(ConfigError, match="p=3"):
            solve(problem, NoiseModel("exact"), SolverConfig(p=3, q=1))
        assert calls == []

    @pytest.mark.parametrize("q", [1, 2])
    def test_degree_three_model_with_lower_order_targets(self, q):
        from arq.harness import verify_certificate

        problem = make_problem("quartic", 3)
        cfg = SolverConfig(
            p=3, q=q, epsilons=(1e-3,) * q, delta0=(0.5,) * q,
            acc0=(0.05, 0.1, 0.2),
        )
        res = solve(problem, NoiseModel("bounded_random", 0.9, 9), cfg)
        checks = verify_certificate(problem, res.certificate)
        assert all(c["ok"] for c in checks)

    def test_first_order_model(self):
        # p = 1: affine Taylor part, only the regularizer curves
        from arq.harness import verify_certificate

        problem = make_problem("quadratic", 3)
        cfg = SolverConfig(p=1, q=1, epsilons=(1e-2,), acc0=(0.1,))
        res = solve(problem, NoiseModel("bounded_random", 0.9, 6), cfg)
        checks = verify_certificate(problem, res.certificate)
        assert all(c["ok"] for c in checks)

    def test_custom_varsigma(self):
        problem = make_problem("sineq", 3)
        cfg = SolverConfig(epsilons=(1e-3,), varsigma=0.8)
        res = solve(problem, NoiseModel("bounded_random", 0.9, 4), cfg)
        g = problem.derivative(res.certificate.x_eps, 1)
        assert np.linalg.norm(g) <= 1e-3

    def test_budget_exhaustion_carries_trace(self):
        problem = make_problem("rosenbrock", 2)
        cfg = SolverConfig(epsilons=(1e-4,), max_iters=3)
        with pytest.raises(BudgetExhaustedError) as err:
            solve(problem, NoiseModel("bounded_random", 0.9, 3), cfg)
        assert len(err.value.trace) == 3
        assert_evals_sum_to_counters(err.value)

    def test_stall_carries_status_trace_and_counters(self):
        problem = make_problem("rosenbrock", 2)
        cfg = SolverConfig(epsilons=(1e-3,), max_inner_iters=1)
        with pytest.raises(SubsolverStallError) as err:
            solve(problem, NoiseModel("bounded_random", 0.9, 3), cfg)
        assert err.value.status == "stall"
        # the first step-2 inner solve stalls; its iteration ends the trace
        assert [rec.kind for rec in err.value.trace] == [None]
        assert err.value.counters.derivative_evals == 1
        assert_evals_sum_to_counters(err.value)

    def test_invariant_carries_status_trace_and_counters(self, monkeypatch):
        # An estimate far below the steep problem's true L (1e6), with a small
        # sigma, lifts the guard floor over the radius step 1 halves to.
        monkeypatch.setattr(arq.solver, "estimate_lipschitz", lambda *args: 1e-3)
        cfg = SolverConfig(epsilons=(0.5,), acc0=(0.0, 0.0), acc_max=0.0, sigma0=1e-3)
        with pytest.raises(InternalInvariantError) as err:
            solve(steep_problem(), NoiseModel("exact"), cfg)
        assert err.value.status == "invariant"
        assert [rec.kind for rec in err.value.trace] == [None]
        assert err.value.counters.derivative_evals == 1
        assert_evals_sum_to_counters(err.value)

    def test_bad_start_shape_rejected(self):
        problem = half_norm_squared(3)
        cfg = SolverConfig(epsilons=(0.5,))
        with pytest.raises(ConfigError):
            solve(problem, NoiseModel("exact"), cfg, x0=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected_by_name(self, bad):
        problem = half_norm_squared(2)
        cfg = SolverConfig(epsilons=(0.5,))
        with pytest.raises(ConfigError, match="x0 holds a non-finite entry"):
            solve(problem, NoiseModel("exact"), cfg, x0=np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", ["abc", [1.0, "x"], {"a": 1}])
    def test_unconvertible_start_rejected_by_name(self, bad):
        cfg = SolverConfig(epsilons=(0.5,))
        with pytest.raises(ConfigError, match="x0 is not a float vector"):
            solve(half_norm_squared(2), NoiseModel("exact"), cfg, x0=bad)


def assert_evals_sum_to_counters(run):
    assert run.counters.value_evals == sum(r.value_evals for r in run.trace)
    assert run.counters.derivative_evals == sum(r.derivative_evals for r in run.trace)


@pytest.fixture(scope="module")
def noisy_run():
    problem = make_problem("quartic", 3)
    cfg = bench_config(2, 1e-3, "bounded_random")
    return solve(problem, NoiseModel("bounded_random", 0.9, 12345), cfg)


class TestTraceInvariants:
    def test_accuracy_rows_have_no_ratio_and_freeze_sigma(self, noisy_run):
        trace = noisy_run.trace
        for prev, nxt in zip(trace[:-1], trace[1:]):
            if prev.kind == "accuracy_improving":
                assert prev.rho is None
                assert nxt.sigma == prev.sigma

    def test_radii_never_grow_within_an_iteration(self, noisy_run):
        for rec in noisy_run.trace:
            assert np.all(rec.delta_end <= rec.delta_start + 1e-15)

    def test_evaluation_accounting(self, noisy_run):
        for rec in noisy_run.trace:
            if rec.kind in ("successful", "unsuccessful"):
                assert 1 <= rec.value_evals <= 2
            else:
                assert rec.value_evals == 0
            assert rec.derivative_evals in (0, 1)
        assert_evals_sum_to_counters(noisy_run)

    def test_derivatives_are_reused_after_an_unsuccessful_iteration(self, noisy_run):
        assert_bundle_reuse(noisy_run.trace)

    def test_trial_kind_follows_rho_and_rejection_keeps_x(self, noisy_run):
        trace = noisy_run.trace
        eta1 = bench_config(2, 1e-3, "bounded_random").eta1
        assert {rec.kind for rec in trace} >= {"successful", "unsuccessful"}
        for rec in trace:
            assert (rec.rho is not None) == (rec.kind in ("successful", "unsuccessful"))
            if rec.rho is not None:
                assert (rec.kind == "successful") == (rec.rho >= eta1)
        for prev, nxt in zip(trace[:-1], trace[1:]):
            if prev.kind == "unsuccessful":
                assert np.array_equal(nxt.x, prev.x)

    def test_accuracy_only_decreases_by_gamma(self, noisy_run):
        """The next acc is exactly gamma_acc**k * acc, k in 1..cap being the
        record's acc_steps: the least k that clears its cause's threshold."""
        gamma = bench_config(2, 1e-3, "bounded_random").gamma_acc
        cap = arq.solver._ACC_STEPS_CAP
        trace = noisy_run.trace
        steps = []
        for prev, nxt in zip(trace[:-1], trace[1:]):
            if prev.kind == "accuracy_improving":
                k, cause = prev.acc_steps, prev.cause
                steps.append(k)
                assert isinstance(k, int) and 1 <= k <= cap
                assert np.array_equal(nxt.acc, gamma**k * prev.acc)
                assert k == cap or gamma**k * cause.error_sum <= cause.threshold
                assert all(gamma**i * cause.error_sum > cause.threshold for i in range(1, k))
            else:
                assert prev.cause is None and prev.acc_steps is None
                assert np.array_equal(nxt.acc, prev.acc)
        assert max(steps) > 1  # the run exercises a multi-factor step


def test_end_of_run_info_line(caplog):
    problem = make_problem("quartic", 3)
    cfg = bench_config(2, 1e-3, "bounded_random")
    with caplog.at_level(logging.INFO, logger="arq"):
        res = solve(problem, NoiseModel("bounded_random", 0.9, 12345), cfg)
    [line] = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    kinds = [r.kind for r in res.trace]
    causes = sorted(r.cause.cause for r in res.trace if r.cause is not None)
    assert len(causes) == kinds.count("accuracy_improving") > 0
    assert line == (
        f"terminated after {len(res.trace)} iterations (S/U/A = "
        f"{kinds.count('successful')}/{kinds.count('unsuccessful')}/{len(causes)}); "
        f"step-5 causes: {', '.join(f'{c} x{causes.count(c)}' for c in sorted(set(causes)))}; "
        f"{res.counters.value_evals} value evaluations "
        f"({sum(r.value_evals == 2 for r in res.trace)} re-evaluating f(x_k) in step 3), "
        f"{res.counters.derivative_evals} derivative bundles"
    )


def test_info_line_counts_step3_reevaluations(caplog):
    # Exact values achieve error 0, so f-bar(x_k) is evaluated at most once
    # beside the trial values: at the first step 3.
    problem = make_problem("rosenbrock", 2)
    cfg = bench_config(1, 1e-3, "exact")
    with caplog.at_level(logging.INFO, logger="arq"):
        res = solve(problem, NoiseModel("exact"), cfg)
    [line] = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    trials = [r for r in res.trace if r.kind in ("successful", "unsuccessful")]
    reevaluations = sum(r.value_evals == 2 for r in trials)
    assert len(trials) > 1 and reevaluations <= 1
    assert res.counters.value_evals == len(trials) + reevaluations
    assert f"{res.counters.value_evals} value evaluations ({reevaluations} " in line


def fixed_factor_step5(state, config, shortfall=None):
    """Step 5 as a fixed factor: one gamma_acc per accuracy-improving
    iteration, whatever the shortfall."""
    state.acc = config.gamma_acc * state.acc
    state.delta = state.delta_start.copy()


def test_cap_one_is_the_fixed_factor(monkeypatch, noisy_run):
    """With the exponent capped at 1, every trace matches the fixed-factor
    step 5 field for field, on the noisy run and one seed of the grid.
    Both sides run at cap 1, since step 2 picks its recorded cause by the
    capped exponent: at cap 1 every check ties, and the first failed one
    is recorded, as a fixed-factor step 5 would be told."""
    seed = bench_seeds()[0]
    runs = [(make_problem("quartic", 3), NoiseModel("bounded_random", 0.9, 12345),
             bench_config(2, 1e-3, "bounded_random"))]
    runs += [
        (make_problem(name, dim), NoiseModel(noise, 0.9, seed), bench_config(2, 1e-3, noise))
        for name, dim in BENCH_PROBLEMS
        for noise in BENCH_NOISES
    ]

    def solve_all():
        return [solve(problem, noise, cfg).trace for problem, noise, cfg in runs]

    with monkeypatch.context() as patch:
        patch.setattr(arq.solver, "_ACC_STEPS_CAP", 1)
        capped = solve_all()
    with monkeypatch.context() as patch:
        patch.setattr(arq.solver, "_ACC_STEPS_CAP", 1)
        patch.setattr(arq.solver, "step5", fixed_factor_step5)
        fixed = solve_all()
    for trace in capped:
        for rec in trace:
            assert rec.acc_steps == (1 if rec.kind == "accuracy_improving" else None)
            rec.acc_steps = None  # the fixed-factor step 5 records no exponent
    assert [trace_key(t) for t in capped] == [trace_key(t) for t in fixed]
    assert sum(r.kind == "accuracy_improving" for t in fixed for r in t) > 0
    # uncapped, the noisy run takes fewer accuracy-improving iterations
    assert len(noisy_run.trace) < len(capped[0])


def trace_key(trace):
    """Every IterationRecord field by repr, arrays in full precision."""
    return [
        tuple(
            repr(v.tolist() if isinstance(v, np.ndarray) else v)
            for v in dataclasses.astuple(rec)
        )
        for rec in trace
    ]


def test_guard_never_steers_the_run(monkeypatch, estimate_calls):
    """The guard only arms an invariant: computing it eagerly from the
    real estimate, or lazily from a huge one, leaves every trace alike."""
    seed = bench_seeds()[0]
    runs = [
        (make_problem(name, dim), noise)
        for name, dim in BENCH_PROBLEMS
        for noise in BENCH_NOISES
    ]

    def solve_all():
        return [
            trace_key(solve(problem, NoiseModel(noise, 0.9, seed),
                            bench_config(2, 1e-3, noise)).trace)
            for problem, noise in runs
        ]

    real_step1 = arq.solver.step1

    def eager_step1(state, bundle, model, config, guard_l_bar):
        guard_l_bar()
        return real_step1(state, bundle, model, config, guard_l_bar)

    with monkeypatch.context() as patch:
        patch.setattr(arq.solver, "step1", eager_step1)
        eager = solve_all()
    assert len(estimate_calls) == len(runs)
    with monkeypatch.context() as patch:
        patch.setattr(arq.solver, "estimate_lipschitz", lambda *a, **k: 1e6)
        huge = solve_all()
    assert eager == huge
