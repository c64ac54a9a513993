import dataclasses
import logging
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arq.oracle
import arq.solver
import arq.subsolvers
from arq.check import CheckOutcome, Shortfall, check, verdict
from arq.oracle import NoiseModel, Problem, make_problem
from arq.solver import (
    BudgetExhaustedError,
    Certificate,
    ConfigError,
    InternalInvariantError,
    SolveStoppedError,
    SolverConfig,
    SolverState,
    solve,
    step1,
    step2,
    step3_step4,
    value_request_bound,
    step5,
    _radius_floor,
    _termination_threshold,
)
from arq.subsolvers import MeasureResult, StepResult, SubsolverStallError, optimality_measure
from arq.tensors import DerivativeBundle, RegularizedModel, _ModelPoint, taylor_decrement

from conftest import (
    BENCH_NOISES,
    BENCH_PROBLEMS,
    accepted_configs,
    assert_bundle_reuse,
    bench_config,
    bench_seeds,
    random_symmetric,
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

    def test_varsigma_above_the_guarantee_warns_with_both_values(self, caplog):
        with caplog.at_level(logging.WARNING, logger="arq"):
            SolverConfig(q=2, epsilons=(0.1, 0.1), varsigma=1.0)
        [line] = [r.getMessage() for r in caplog.records]
        assert line.startswith(
            "varsigma 1.0 exceeds 0.99999999, the fraction of the ball optimum "
            "the order-2 measure certifies"
        )

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

    def test_inner_iteration_cap_is_not_a_setting(self):
        # The model minimizer's cap is `subsolvers._MAX_INNER_ITERS`.
        with pytest.raises(TypeError, match="max_inner_iters"):
            SolverConfig(max_inner_iters=1)

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
        j_k, measure = step1(state, RegularizedModel(bundle, 1.0), cfg, lambda: 3.0)
        assert j_k == 1
        assert state.delta[0] == 1.0
        assert measure.phi_bar == pytest.approx(1.0)

    def test_insufficient_accuracy_goes_to_step5(self):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0)
        state = make_state(acc=(10.0, 10.0))
        bundle = bundle_1d(1.0, 0.0)
        out = step1(state, RegularizedModel(bundle, 1.0), cfg, lambda: 12.0)
        # error sum 10 * 1 against max(omega * phi_bar, omega * xi) = 0.02
        assert out == Shortfall("step1 j=1", 10.0, 0.02)

    def test_small_measures_terminate_with_certificate(self):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0)
        state = make_state()
        bundle = bundle_1d(1e-6, 0.0)
        out = step1(state, RegularizedModel(bundle, 1.0), cfg, lambda: 3.0)
        assert isinstance(out, Certificate)
        cert = out
        assert cert.measured[0]["order"] == 1
        assert cert.measured[0]["phi_bar"] == pytest.approx(1e-6)
        assert cert.measured[0]["threshold"] == pytest.approx(0.1)

    @pytest.mark.parametrize("delta", [(1e-310,), (1.0, 1e-160)])
    def test_certificate_threshold_under_the_normal_range_stalls(self, delta):
        """A zero gradient and Hessian measure 0 at any radius; at these
        radii the last order's threshold epsilon delta**j / j! is subnormal,
        so no certificate is issued."""
        q = len(delta)
        cfg = SolverConfig(q=q, epsilons=(0.1,) * q, varsigma=1.0)
        state = make_state(dim=2, q=q)
        state.delta[:] = delta
        bundle = DerivativeBundle([np.zeros(2), np.zeros((2, 2))])
        with pytest.raises(SubsolverStallError,
                           match=rf"order-{q} certificate threshold .* below the normal range"):
            step1(state, RegularizedModel(bundle, 1.0), cfg, lambda: 3.0)

    def test_least_normal_certificate_threshold_certifies(self):
        cfg = SolverConfig(epsilons=(0.5,), varsigma=1.0)
        state = make_state(dim=2)
        state.delta[0] = 2.0 * sys.float_info.min
        bundle = DerivativeBundle([np.zeros(2), np.zeros((2, 2))])
        out = step1(state, RegularizedModel(bundle, 1.0), cfg, lambda: 3.0)
        assert out.measured[0]["threshold"] == sys.float_info.min

    def test_positive_curvature_forces_halving_before_step2(self):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0, sigma0=0.1)
        state = make_state(sigma=0.1)
        bundle = bundle_1d(0.15, 3.0)
        j_k, _ = step1(state, RegularizedModel(bundle, 0.1), cfg, lambda: 3.0)
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
        j_k, _ = step1(state, RegularizedModel(bundle, 0.001), cfg, lambda: calls.append(1))
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

        j_k, _ = step1(state, RegularizedModel(bundle, 0.001), cfg, guard)
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
            step1(state, RegularizedModel(bundle, 0.001), cfg, lambda: 3.0)
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


def step1_reference(state, model, config, guard_l_bar):
    """Step 1 with every halving evaluated afresh: the measure, its
    accuracy check, the termination test and the model decrement at each
    radius, for every order.  Returns what `step1` returns, and counts its
    halvings as `step1` does."""
    state.halvings = 0
    measured = []
    for j in range(1, config.q + 1):
        while True:
            delta_j = float(state.delta[j - 1])
            meas = optimality_measure(model.bundle, j, delta_j)
            args = (delta_j, meas.phi_bar, state.acc[:j].tolist(),
                    0.5 * config.epsilons[j - 1], config.omega)
            if check(*args) is CheckOutcome.INSUFFICIENT:
                return Shortfall.at(f"step1 j={j}", verdict(*args)[1])
            if meas.phi_bar <= _termination_threshold(config, j, delta_j):
                measured.append({
                    "order": j,
                    "phi_bar": meas.phi_bar,
                    "delta": delta_j,
                    "threshold": config.epsilons[j - 1] * delta_j**j / math.factorial(j),
                })
                break
            dm = _ModelPoint(model, meas.displacement).decrement()
            if dm >= 0.5 * _termination_threshold(config, j, delta_j):
                return j, meas
            state.delta[j - 1] = 0.5 * delta_j
            state.halvings += 1
            lowest = _radius_floor(config, j, 1.0 + config.acc_max, state.sigma)
            if state.delta[j - 1] >= lowest:
                continue
            floor = _radius_floor(config, j, guard_l_bar(), state.sigma)
            if state.delta[j - 1] < floor:
                raise InternalInvariantError(
                    f"step-1 radius for order {j} fell below its guard "
                    f"({state.delta[j - 1]:.3e} < {floor:.3e}) at iteration {state.k}"
                )
    return Certificate(state.x.copy(), state.delta.copy(), tuple(measured))


def bits(value):
    """A value with every float by its bits and every array by its bytes."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, bits(dataclasses.astuple(value)))
    return value


def run_step1(step, bundle, sigma, config, l_bar):
    """(outcome, radii, halvings, guard calls) of one step 1 from the
    entry radii ``config.delta0``, with the guard's L-bar ``l_bar``."""
    state = SolverState(
        x=np.zeros(bundle.dim), sigma=sigma, delta=np.array(config.delta0),
        delta_start=np.array(config.delta0), acc=np.array(config.acc0),
    )
    model = RegularizedModel(bundle, sigma)
    calls = []

    def guard():
        calls.append(state.delta.tobytes())
        return l_bar

    try:
        out = step(state, model, config, guard)
    except InternalInvariantError as exc:
        out = ("invariant", str(exc))
    return bits(out), state.delta.tobytes(), state.halvings, calls


@st.composite
def step1_draws(draw):
    """A bundle, sigma, config and guard L-bar for one step 1.  With
    ``near_tie``, sigma puts the order-1 decrement within a few ulps of
    half the termination threshold at the entry radius halved m times."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 3))
    q = draw(st.integers(1, p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Curvature up to 1e8 against a gradient down to 1e-6 sends the radius
    # under the guard's floors.
    scales = [10.0 ** draw(st.floats(-6, 3 if i == 1 else 8)) for i in range(1, p + 1)]
    tensors = [random_symmetric(rng, n, i) * scales[i - 1] for i in range(1, p + 1)]
    if draw(st.booleans()):  # some zero entries
        tensors[0] = np.where(rng.random(n) < 0.3, 0.0, tensors[0])
    bundle = DerivativeBundle(tensors)
    eps = tuple(10.0 ** draw(st.floats(-4, -0.5)) for _ in range(q))
    delta0 = tuple(e ** draw(st.floats(0.0, 0.99)) for e in eps)
    acc = tuple(draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(-12, 0))])) for _ in range(p))
    config = SolverConfig(p=p, q=q, epsilons=eps, delta0=delta0, acc0=acc,
                          acc_max=max(acc))
    sigma = 10.0 ** draw(st.floats(-8, 8))
    if draw(st.booleans()):  # near_tie
        m = draw(st.integers(0, 20))
        delta_m = delta0[0] * 2.0**-m
        d = optimality_measure(bundle, 1, delta_m).displacement
        gap = (taylor_decrement(bundle, d, p)
               - 0.5 * _termination_threshold(config, 1, delta_m))
        if gap > 0:
            sigma = gap * math.factorial(p + 1) / np.linalg.norm(d) ** (p + 1)
            for _ in range(draw(st.integers(0, 4))):
                sigma = math.nextafter(sigma, draw(st.sampled_from([0.0, math.inf])))
    l_bar = (1.0 + max(acc)) * 10.0 ** draw(st.floats(0, 8))
    return bundle, sigma, config, l_bar


class TestRaySearch:
    """`step1` halves order 1 along one steepest-descent ray; every other
    step 1 is `step1_reference`, the per-halving loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(step1_draws())
    def test_matches_the_per_halving_loop(self, draw):
        bundle, sigma, config, l_bar = draw
        assert run_step1(step1, bundle, sigma, config, l_bar) == run_step1(
            step1_reference, bundle, sigma, config, l_bar)

    def test_zero_gradient_terminates_alike(self):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0, acc0=(0.0, 0.0), acc_max=0.0)
        bundle = DerivativeBundle([np.zeros(3), np.eye(3)])
        out = run_step1(step1, bundle, 1.0, cfg, 3.0)
        assert out == run_step1(step1_reference, bundle, 1.0, cfg, 3.0)
        assert out[0][0] == "Certificate"

    @pytest.mark.parametrize("hessian, acc", [
        # H[d, d] is subnormal at every radius.
        ([[1e-300, 3e-301], [3e-301, 2e-300]], 0.0),
        # The check's error sum acc * delta leaves the normal range after
        # four halvings.
        ([[1e3, 0.0], [0.0, 2e3]], 1e-306),
    ])
    def test_products_under_the_normal_range_take_one_order1_measure(
            self, monkeypatch, hessian, acc):
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0, acc0=(acc, acc), acc_max=acc)
        bundle = DerivativeBundle([np.array([1.0, -0.5]), np.array(hessian)])
        want = run_step1(step1_reference, bundle, 1e3, cfg, 3.0)
        measures = count_calls(monkeypatch, "optimality_measure")
        got = run_step1(step1, bundle, 1e3, cfg, 3.0)
        assert got == want
        halvings = got[2]
        assert np.frombuffer(got[1])[0] == 2.0**-halvings
        assert halvings >= 4
        assert len(measures) == 1

    def test_overflowed_decrement_is_measured_afresh_at_the_next_radius(self, monkeypatch):
        # H[d, d] overflows at delta0 = 1 and not at 1/2; from there the
        # ray search halves until the guard stops it.
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0, acc0=(0.0, 0.0), acc_max=0.0)
        bundle = DerivativeBundle([np.ones(2), np.full((2, 2), 1.7e308)])
        with np.errstate(over="ignore"):
            want = run_step1(step1_reference, bundle, 1.0, cfg, 3.0)
            measures = count_calls(monkeypatch, "optimality_measure")
            got = run_step1(step1, bundle, 1.0, cfg, 3.0)
        assert got == want
        assert got[0][0] == "invariant"
        assert [args[2] for args in measures] == [1.0, 0.5]

    def test_one_measure_and_one_check_whatever_the_halvings(self, monkeypatch):
        # The four halvings of TestStep1's positive-curvature case.
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0, sigma0=0.1)
        state = make_state(sigma=0.1)
        bundle = bundle_1d(0.15, 3.0)
        measures = count_calls(monkeypatch, "optimality_measure")
        checks = count_calls(monkeypatch, "verdict")
        j_k, meas = step1(state, RegularizedModel(bundle, 0.1), cfg, lambda: 3.0)
        assert state.delta[0] == 2.0**-4
        assert (len(measures), len(checks)) == (1, 1)

    def test_solve_traces_match_the_per_halving_loop(self, monkeypatch):
        seed = bench_seeds()[0]
        runs = [
            (make_problem(name, dim), NoiseModel(noise, 0.9, seed), bench_config(q, 1e-3, noise))
            for name, dim in BENCH_PROBLEMS
            for noise in BENCH_NOISES
            for q in (1, 2)
        ]

        def solve_all():
            return [trace_key(solve(*run).trace) for run in runs]

        got = solve_all()
        monkeypatch.setattr(arq.solver, "step1", step1_reference)
        assert got == solve_all()


def count_calls(monkeypatch, name):
    """Record each call of `arq.solver.<name>` (its arguments)."""
    calls = []
    real = getattr(arq.solver, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(arq.solver, name, counted)
    return calls


class TestStep2:
    """Step 2 makes the decrement check and the ell check on one bundle and
    step.  Here f' = 1, the step is -0.5 (dec_p = 0.5, so the decrement
    threshold is omega * 0.5 = 0.01) and acc = (a, a): the decrement error
    sum is 0.625 a, and the ell=1 check compares 3 a with omega * phi_bar."""

    def run(self, monkeypatch, a, phi_bar):
        step = StepResult(np.array([-0.5]), np.ones(1), (phi_bar,), 0.5, 0)
        monkeypatch.setattr(arq.solver, "minimize_model", lambda *args, **kw: step)
        cfg = SolverConfig(epsilons=(0.1,), varsigma=1.0)
        bundle = bundle_1d(1.0, 0.0)
        measure = MeasureResult(1.0, np.array([-1.0]))
        return step2(make_state(acc=(a, a)), RegularizedModel(bundle, 1.0), cfg, 1, measure)

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
    s = np.asarray(s, float)
    return StepResult(s, np.ones(q), (), float(np.linalg.norm(s)), 0)


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
        # requested, and here achieved, at a quarter of omega * dec_p
        assert state.f_bar == (0.5, 0.25 * cfg.omega) == (0.5, value_request_bound(cfg, 1.0))

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
        assert rho < 0.0
        assert state.sigma == 2.0 * cfg.gamma3  # an increase of f: the widest growth
        assert state.x == pytest.approx([0.0])

    @pytest.mark.parametrize("trial, expected_rho", [(1.0, 0.0), (0.95, 0.05)])
    def test_rejection_without_increase_doubles_sigma(self, trial, expected_rho):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 0.0))
        rho = step3_step4(state, ScriptedOracle([trial]), cfg, plain_step([0.5]), 1.0)
        assert rho == pytest.approx(expected_rho)
        assert 0.0 <= rho < cfg.eta1
        assert state.sigma == 2.0 * cfg.gamma2
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
        # Requested at omega * 1.0 / 4 = 0.005, achieved 1e-4: below the
        # next demand omega * 0.1 = 0.002, so f-bar(x_1) is not evaluated
        # again, and the next trial value is requested at 0.002 / 4.
        oracle = ScriptedOracle([(0.5, 1e-4), 0.45])
        assert step3_step4(state, oracle, cfg, plain_step([0.5]), 1.0) == pytest.approx(0.5)
        assert state.f_bar == (0.5, 1e-4)
        rho = step3_step4(state, oracle, cfg, plain_step([0.25]), 0.1)
        assert [bound for _, bound in oracle.calls] == [0.25 * cfg.omega,
                                                        pytest.approx(0.025 * cfg.omega)]
        assert oracle.calls[1][0] == pytest.approx([0.75])
        assert rho == pytest.approx(0.5)
        assert state.f_bar == (0.45, pytest.approx(0.025 * cfg.omega))

    @pytest.mark.parametrize("next_dec, evaluations", [(0.25, 1), (0.2, 2)])
    def test_a_quarter_request_serves_a_decrease_a_quarter_as_large(self, next_dec, evaluations):
        """A trial value achieved at its request bound, a quarter of omega *
        dec_p, serves the next step 3 exactly when the next decrease is at
        least a quarter of this one."""
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 0.0))
        oracle = ScriptedOracle([0.5, 0.4, 0.5])
        step3_step4(state, oracle, cfg, plain_step([0.5]), 1.0)
        calls = len(oracle.calls)
        step3_step4(state, oracle, cfg, plain_step([0.1]), next_dec)
        assert len(oracle.calls) - calls == evaluations

    def test_short_step_installs_searched_radii(self):
        cfg = SolverConfig(epsilons=(0.1,))
        state = make_state(sigma=2.0, f_bar=(1.0, 0.0))
        state.delta[0] = 0.25
        oracle = ScriptedOracle([0.5])
        res = StepResult(np.array([0.5]), np.array([1.0]), (), 0.5, 0)
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

    @settings(max_examples=60, deadline=None)
    # A check target that underflows to 0: in step 1 from epsilon, in step 2
    # from varsigma (both raised ValueError before).
    @example(cfg=SolverConfig(epsilons=(5e-324,), max_iters=5), name="quadratic",
             noise="exact", seed=0)
    @example(cfg=SolverConfig(q=2, epsilons=(0.4, 0.4), varsigma=5e-324, max_iters=5),
             name="quadratic", noise="exact", seed=0)
    # sigma overflows to inf, so the step-1 radius guard's floor is 0 and
    # the radius halves to 0 (optimality_measure's ValueError before).
    @example(cfg=SolverConfig(
        p=3, q=2, epsilons=(0.26916823797154654, 0.021758781648522962),
        sigma0=1.4477469485423794e16, sigma_min=0.05426551071070685,
        eta1=0.4154983223615783, eta2=0.8390602554463588, gamma1=0.22340637245366615,
        gamma2=1.3700867513902048e307, gamma3=1.4088349071161367e308,
        gamma_acc=2.659508092789694e-60, omega=0.0037323892522031664,
        theta=0.9999999999999999, acc_max=2.5187320736566266e306, max_iters=30),
        name="rosenbrock", noise="exact", seed=30)
    @given(
        cfg=accepted_configs(max_iters=st.integers(1, 30)),
        name=st.sampled_from([name for name, _ in BENCH_PROBLEMS]),
        noise=st.sampled_from(BENCH_NOISES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_accepted_setting_stops_only_by_documented_errors(self, cfg, name, noise, seed):
        # The harness and CLI map these two to exit codes; nothing else may escape.
        try:
            solve(make_problem(name, 2), NoiseModel(noise, 0.9, seed), cfg)
        except (ConfigError, SolveStoppedError):
            pass

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

    @pytest.mark.parametrize("noise", ["truncation", "bounded_random"])
    def test_noisy_third_order_solves_on_the_grid_problems(self, noise):
        from arq.harness import verify_certificate

        seed = bench_seeds()[0]
        cfg = SolverConfig(p=3, q=3, epsilons=(1e-3,) * 3)
        for name, dim in BENCH_PROBLEMS:
            problem = make_problem(name, dim)
            res = solve(problem, NoiseModel(noise, 0.9, seed), cfg)
            checks = verify_certificate(problem, res.certificate)
            assert [c["order"] for c in checks] == [1, 2, 3]
            assert all(c["ok"] for c in checks if c["ok"] is not None)

    @pytest.mark.parametrize("noise", BENCH_NOISES)
    def test_second_order_steps_take_no_inner_iterations(self, noise):
        # At p = 2 step 2 starts from the cubic model's global minimizer,
        # which certifies before the model minimizer's Newton loop.
        seed = bench_seeds()[0]
        for name, dim in BENCH_PROBLEMS:
            for q in (1, 2):
                res = solve(make_problem(name, dim), NoiseModel(noise, 0.9, seed),
                            bench_config(q, 1e-3, noise))
                steps = [r for r in res.trace if r.kind in ("successful", "unsuccessful")]
                assert steps
                assert [r.inner_iterations for r in steps] == [0] * len(steps)

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

    def test_stall_carries_status_trace_and_counters(self, monkeypatch):
        # p=3, so step 2 enters the model minimizer's Newton loop; its cap of
        # one iteration is hit before the step certifies.
        monkeypatch.setattr(arq.subsolvers, "_MAX_INNER_ITERS", 1)
        problem = make_problem("rosenbrock", 2)
        cfg = SolverConfig(p=3, epsilons=(1e-3,))
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
        assert_bundle_reuse(noisy_run.trace, "bounded_random")

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



class TestBundleKeeping:
    """After an accuracy-improving iteration the bundle in hand is kept when
    every error the oracle achieved meets the tightened demand."""

    @staticmethod
    def run(monkeypatch=None):
        if monkeypatch is not None:  # report no achieved error below the demand
            real = arq.oracle.Oracle.inexact_bundle

            def demand_only(self, x, accuracies, p):
                return real(self, x, accuracies, p)[0], np.asarray(accuracies, dtype=float)

            monkeypatch.setattr(arq.oracle.Oracle, "inexact_bundle", demand_only)
        cfg = bench_config(2, 1e-3, "truncation")
        return solve(make_problem("rosenbrock", 2), NoiseModel("truncation", 0.9, 0), cfg)

    def test_an_accuracy_row_is_followed_by_a_kept_bundle(self):
        trace = self.run().trace
        assert_bundle_reuse(trace, "truncation")
        kept = [nxt for prev, nxt in zip(trace[:-1], trace[1:])
                if prev.kind == "accuracy_improving" and nxt.derivative_evals == 0]
        assert kept

    def test_keeping_moves_only_the_derivative_counts(self, monkeypatch):
        kept = self.run()
        fresh = self.run(monkeypatch)
        assert kept.counters.derivative_evals < fresh.counters.derivative_evals
        assert kept.counters.value_evals == fresh.counters.value_evals
        assert len(kept.trace) == len(fresh.trace)
        for a, b in zip(kept.trace, fresh.trace):
            a_fields, b_fields = dataclasses.asdict(a), dataclasses.asdict(b)
            del a_fields["derivative_evals"], b_fields["derivative_evals"]
            for name, value in a_fields.items():
                assert np.array_equal(value, b_fields[name]), name
        assert np.array_equal(kept.certificate.x_eps, fresh.certificate.x_eps)


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
        f"{res.counters.derivative_evals} derivative bundles, "
        f"{sum(r.halvings for r in res.trace)} step-1 halvings"
    )


def test_halvings_count_step1s_halvings(monkeypatch):
    """Each record's `halvings` is the number of halvings its step 1 made,
    summed over orders, on a run that halves both orders' radii: from the
    saddle at 0 of the quartic, order 2 halves until the regularizer of
    sigma0 = 100 leaves enough of the negative curvature's decrease."""
    calls = count_calls(monkeypatch, "_halve")
    made = []
    real_step1 = arq.solver.step1

    def tallied_step1(*args):
        before = len(calls)
        try:
            return real_step1(*args)
        finally:
            made.append(sum(call[4] if len(call) > 4 else 1 for call in calls[before:]))

    monkeypatch.setattr(arq.solver, "step1", tallied_step1)
    cfg = SolverConfig(p=2, q=2, epsilons=(1e-3, 1e-3), sigma0=100.0, acc0=(0.0, 0.0),
                       acc_max=0.0)
    res = solve(make_problem("quartic", 3), NoiseModel("exact"), cfg, x0=np.zeros(3))
    assert [r.halvings for r in res.trace] == made
    assert {args[2] for args in calls} == {1, 2}


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

    def eager_step1(state, model, config, guard_l_bar):
        guard_l_bar()
        return real_step1(state, model, config, guard_l_bar)

    with monkeypatch.context() as patch:
        patch.setattr(arq.solver, "step1", eager_step1)
        eager = solve_all()
    assert len(estimate_calls) == len(runs)
    with monkeypatch.context() as patch:
        patch.setattr(arq.solver, "estimate_lipschitz", lambda *a, **k: 1e6)
        huge = solve_all()
    assert eager == huge
