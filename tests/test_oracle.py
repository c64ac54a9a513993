import ast
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arq import oracle as oracle_module
from arq.oracle import (
    NOISE_KINDS,
    NoiseModel,
    Oracle,
    OracleFaultError,
    PROBLEM_NAMES,
    Problem,
    _truncate_tensor,
    estimate_lipschitz,
    lipschitz_over_points,
    make_problem,
)
from arq.solver import SolverConfig, solve
from arq import tensors as tensors_module
from arq.tensors import operator_norm

from conftest import central_diff_gradient, random_symmetric


@pytest.fixture(params=PROBLEM_NAMES)
def problem(request):
    dims = {"quadratic": 4, "rosenbrock": 3, "quartic": 3, "sineq": 4}
    return make_problem(request.param, dims[request.param])


class TestProblems:
    def test_gradient_matches_finite_differences(self, problem):
        rng = np.random.default_rng(0)
        for _ in range(4):
            x = problem.x0 + rng.uniform(-0.5, 0.5, problem.dim)
            fd = central_diff_gradient(problem.value, x)
            assert problem.derivative(x, 1) == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_hessian_matches_gradient_differences(self, problem):
        rng = np.random.default_rng(1)
        x = problem.x0 + rng.uniform(-0.5, 0.5, problem.dim)
        h = 1e-6
        for c in range(problem.dim):
            e = np.zeros(problem.dim); e[c] = h
            fd = (problem.derivative(x + e, 1) - problem.derivative(x - e, 1)) / (2 * h)
            assert problem.derivative(x, 2)[:, c] == pytest.approx(fd, rel=1e-4, abs=1e-4)

    def test_third_order_matches_hessian_differences(self, problem):
        rng = np.random.default_rng(2)
        x = problem.x0 + rng.uniform(-0.5, 0.5, problem.dim)
        h = 1e-5
        for c in range(problem.dim):
            e = np.zeros(problem.dim); e[c] = h
            fd = (problem.derivative(x + e, 2) - problem.derivative(x - e, 2)) / (2 * h)
            assert problem.derivative(x, 3)[:, :, c] == pytest.approx(fd, rel=1e-3, abs=1e-3)

    def test_lower_bound_holds(self, problem):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-3, 3, problem.dim)
            assert problem.value(x) >= problem.f_low

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError):
            make_problem("bogus", 2)


def rosenbrock_loop_tensors(x):
    """The Rosenbrock Hessian and order-3 tensor summed term by term, each
    coordinate pair k adding its entries onto zeros in a Python loop."""
    n = x.size
    h, t = np.zeros((n, n)), np.zeros((n, n, n))
    for k in range(n - 1):
        h[k, k] += -400.0 * x[k + 1] + 1200.0 * x[k] ** 2 + 2.0
        h[k, k + 1] += -400.0 * x[k]
        h[k + 1, k] += -400.0 * x[k]
        h[k + 1, k + 1] += 200.0
        t[k, k, k] += 2400.0 * x[k]
        t[k, k, k + 1] += -400.0
        t[k, k + 1, k] += -400.0
        t[k + 1, k, k] += -400.0
    return h, t


class TestRosenbrockTensors:
    @pytest.mark.parametrize("n", [2, 3, 20, 60])
    def test_band_writes_match_the_loop(self, n):
        # The loop squares x[k] as a scalar, the band writes square the
        # array x * x: the Hessian's diagonal may differ by one ulp there.
        # Every other entry, and the sign of each zero, is the loop's.
        rng = np.random.default_rng(n)
        problem = make_problem("rosenbrock", n)
        off = ~np.eye(n, dtype=bool)
        for _ in range(50):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            x[rng.random(n) < 0.2] = 0.0
            x[rng.random(n) < 0.2] = -0.0
            h, t = problem.derivative(x, 2), problem.derivative(x, 3)
            ref_h, ref_t = rosenbrock_loop_tensors(x)
            assert t.tobytes() == ref_t.tobytes()
            assert h[off].tobytes() == ref_h[off].tobytes()
            diag, ref_diag = np.diag(h), np.diag(ref_h)
            assert (np.abs(diag - ref_diag) <= np.spacing(np.abs(ref_diag))).all()
            squared = np.zeros(n)  # the loop's sums with x[k] ** 2 taken as x[k] * x[k]
            squared[:-1] = -400.0 * x[1:] + 1200.0 * (x[:-1] * x[:-1]) + 2.0
            squared[1:] += 200.0
            assert diag.tobytes() == squared.tobytes()

    def test_hessian_squares_as_the_gradient_does(self):
        # At x_0 = 0x1.e31cca2ac8b6bp+0 the scalar x_0 ** 2 is one ulp above
        # x_0 * x_0, the square the gradient takes; the Hessian takes it too.
        x = np.array([float.fromhex("0x1.e31cca2ac8b6bp+0"), 1.0])
        h = make_problem("rosenbrock", 2).derivative(x, 2)
        assert h[0, 0] == -400.0 + 1200.0 * (x[0] * x[0]) + 2.0
        assert h[0, 0] != rosenbrock_loop_tensors(x)[0][0, 0]


class TestValueContract:
    def test_exact_kind(self, problem):
        oracle = Oracle(problem, NoiseModel("exact", seed=0))
        x = problem.x0
        assert oracle.inexact_value(x, 123.0) == (problem.value(x), 0.0)

    def test_bounded_random_fills_most_of_the_budget(self, problem):
        oracle = Oracle(problem, NoiseModel("bounded_random", 0.9, seed=5))
        x = problem.x0
        pairs = [oracle.inexact_value(x, 0.1) for _ in range(20)]
        errs = [abs(value - problem.value(x)) for value, _ in pairs]
        assert all(e <= 0.1 for e in errs)
        assert all(e == pytest.approx(0.09, rel=1e-12) for e in errs)
        assert [achieved for _, achieved in pairs] == errs

    def test_zero_bound_returns_exact(self, problem):
        oracle = Oracle(problem, NoiseModel("bounded_random", 0.9, seed=5))
        assert oracle.inexact_value(problem.x0, 0.0) == (problem.value(problem.x0), 0.0)

    def test_truncation_rounds_to_coarsest_admissible_grid(self, problem):
        oracle = Oracle(problem, NoiseModel("truncation", seed=0))
        exact = problem.value(problem.x0)
        for bound in (0.5, 1e-2, 1e-5):
            got, achieved = oracle.inexact_value(problem.x0, bound)
            assert abs(got - exact) <= achieved <= bound
            # coarsest: one fewer decimal either violates the bound or is
            # already identical (value lies on the coarser grid)
            decimals = 0
            while np.round(exact, decimals) != got and decimals < 20:
                decimals += 1
            if decimals > 0 and np.round(exact, decimals - 1) != got:
                assert abs(np.round(exact, decimals - 1) - exact) > bound

    def test_fill_fraction_zero_is_exact(self, problem):
        oracle = Oracle(problem, NoiseModel("bounded_random", 0.0, seed=5))
        assert oracle.inexact_value(problem.x0, 0.3) == (problem.value(problem.x0), 0.0)


def constant_problem(value):
    """A 1-D problem whose objective is `value` everywhere."""
    return Problem("constant", 1, lambda x: value, lambda x, i: np.zeros((1,) * i),
                   value, np.zeros(1))


class TestAchievedBound:
    """``inexact_value`` returns ``(value, achieved)`` with
    ``achieved = |value - f(x)| <= bound``."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(NOISE_KINDS),
        magnitude=st.floats(1e-8, 1e12),
        negative=st.booleans(),
        bound=st.floats(1e-18, 1e2),
        fill=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    # A full fill that rounds past the bound: 131074 - 1.2834458160972417
    # rounds to 131072.7165541839, 1.1e-11 too far from f.
    @example(kind="bounded_random", magnitude=131074.0, negative=False,
             bound=1.2834458160972417, fill=1.0, seed=0)
    def test_value_within_achieved_within_bound(self, kind, magnitude, negative, bound,
                                                fill, seed):
        f = -magnitude if negative else magnitude
        oracle = Oracle(constant_problem(f), NoiseModel(kind, fill, seed))
        value, achieved = oracle.inexact_value(np.zeros(1), bound)
        assert abs(value - f) == achieved <= bound

    @settings(max_examples=200, deadline=None)
    @given(
        magnitude=st.floats(1e-8, 1e12),
        negative=st.booleans(),
        bound=st.floats(1e-18, 1e2),
        tighter=st.floats(0.0, 1.0),
    )
    def test_truncated_value_serves_a_tighter_demand(self, magnitude, negative, bound,
                                                     tighter):
        # Step 3 keeps f-bar while its achieved error meets the new demand:
        # a request at any demand from that error up to the first one
        # returns the same bits, so keeping it is as good as asking again.
        f = -magnitude if negative else magnitude
        oracle = Oracle(constant_problem(f), NoiseModel("truncation"))
        value, achieved = oracle.inexact_value(np.zeros(1), bound)
        for share in (0.0, tighter, 1.0):
            again = oracle.inexact_value(np.zeros(1), achieved + share * (bound - achieved))
            assert again[0].hex() == value.hex() and again[1] == achieved

    @pytest.mark.parametrize("f, bound, decimals", [
        (57.402273528956236, 7.105427357601002e-15, 14),
        (0.29194289087055336, 5.551115123125783e-17, 16),
    ])
    def test_truncation_bound_covers_the_conversion_to_float(self, f, bound, decimals):
        # The coarsest grid that fits rounds to `decimals` decimals and errs
        # by more than half of 10**-decimals, because the decimal is
        # converted back to a float: the second case misses by 5.55e-17
        # against 5e-17.  The measured error reports that, where half of
        # 10**-decimals would not cover it.
        oracle = Oracle(constant_problem(f), NoiseModel("truncation"))
        value, achieved = oracle.inexact_value(np.zeros(1), bound)
        assert value == np.round(f, decimals) != np.round(f, decimals - 1)
        assert abs(value - f) > 0.5 / 10.0**decimals
        assert abs(value - f) == achieved <= bound

    def test_truncation_reports_the_grid_not_the_request(self):
        oracle = Oracle(constant_problem(1.23456), NoiseModel("truncation"))
        value, achieved = oracle.inexact_value(np.zeros(1), 0.01)
        assert value == 1.23
        assert achieved == abs(1.23 - 1.23456) < 0.005

    def test_truncation_without_a_fitting_grid_is_exact(self):
        # Rounding to 16 decimals errs by 3.5e-17 here, above the bound.
        f = math.pi * 1e-10
        oracle = Oracle(constant_problem(f), NoiseModel("truncation"))
        assert abs(round(f, 16) - f) > 1e-18
        assert oracle.inexact_value(np.zeros(1), 1e-18) == (f, 0.0)


class TestBundleContract:
    @pytest.mark.parametrize("kind", ["exact", "truncation", "bounded_random"])
    def test_errors_respect_bounds(self, problem, kind):
        oracle = Oracle(problem, NoiseModel(kind, 0.9, seed=11))
        acc = np.array([0.1, 0.05, 0.2])
        bundle, achieved = oracle.inexact_bundle(problem.x0, acc, 3)
        assert achieved.shape == (3,) and (achieved <= acc).all()
        if kind == "exact":
            assert np.array_equal(achieved, np.zeros(3))
        for i in range(1, 4):
            err = bundle.tensors[i - 1] - problem.derivative(problem.x0, i)
            assert operator_norm(err) <= achieved[i - 1]

    def test_exact_kind_returns_exact_tensors(self, problem):
        oracle = Oracle(problem, NoiseModel("exact", seed=0))
        bundle, _ = oracle.inexact_bundle(problem.x0, np.array([0.5, 0.5]), 2)
        for i in (1, 2):
            assert bundle.tensors[i - 1] == pytest.approx(problem.derivative(problem.x0, i))

    def test_fill_zero_matches_exact(self, problem):
        oracle = Oracle(problem, NoiseModel("bounded_random", 0.0, seed=11))
        bundle, _ = oracle.inexact_bundle(problem.x0, np.array([0.5, 0.5]), 2)
        for i in (1, 2):
            assert np.array_equal(bundle.tensors[i - 1], problem.derivative(problem.x0, i))

    @pytest.mark.parametrize("kind", ["exact", "truncation", "bounded_random"])
    def test_bundles_never_evaluate_f(self, problem, kind):
        def no_value(x):
            raise AssertionError("a bundle evaluated f")

        blind = dataclasses.replace(problem, eval_value=no_value)
        oracle = Oracle(blind, NoiseModel(kind, 0.9, seed=11))
        bundle, _ = oracle.inexact_bundle(problem.x0, np.array([0.1, 0.05, 0.2]), 3)
        assert bundle.degree == 3
        assert oracle.counters.snapshot() == (0, 1)

    def test_accuracy_shape_validated(self, problem):
        oracle = Oracle(problem, NoiseModel("exact", seed=0))
        with pytest.raises(ValueError):
            oracle.inexact_bundle(problem.x0, np.array([0.1]), 2)

    def test_nan_accuracy_rejected(self, problem):
        oracle = Oracle(problem, NoiseModel("truncation", seed=0))
        with pytest.raises(ValueError, match="accuracy entries"):
            oracle.inexact_bundle(problem.x0, np.array([0.1, np.nan]), 2)
        with pytest.raises(ValueError, match="bound"):
            oracle.inexact_value(problem.x0, float("nan"))
        assert oracle.counters.snapshot() == (0, 0)


def faulty_double_well(fault):
    """The 2-D double well started at (0.2, -0.3) with one fault, which
    fires once the first coordinate passes 0.55 (at once for the gradient
    of the wrong shape)."""
    well = make_problem("quartic", 2)

    def fires(x):
        return x[0] > 0.55

    def value(x):
        if fault in ("inf value", "nan value") and fires(x):
            return math.inf if fault == "inf value" else math.nan
        return well.eval_value(x)

    def derivative(x, i):
        d = well.eval_derivative(x, i)
        if fault == "gradient shape" and i == 1:
            return np.append(d, 0.0)
        if (fault, i) in (("nan gradient", 1), ("nan hessian", 2)) and fires(x):
            return np.full_like(d, math.nan)
        return d

    return dataclasses.replace(well, eval_value=value, eval_derivative=derivative,
                               x0=np.array([0.2, -0.3]))


class TestProblemFaults:
    """A faulty `Problem` stops a solve with status ``oracle`` and a message
    naming the order, the point and the fault."""

    @pytest.mark.parametrize("fault, order, says", [
        ("nan gradient", 1, "a non-finite entry"),
        ("nan hessian", 2, "a non-finite entry"),
        ("inf value", 0, "the non-finite value inf"),
        ("nan value", 0, "the non-finite value nan"),
        ("gradient shape", 1, "shape (3,) instead of (2,)"),
    ])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_fault_stops_the_solve(self, fault, order, says, kind):
        config = SolverConfig(p=2, q=2, epsilons=(1e-3, 1e-3))
        with pytest.raises(OracleFaultError) as info:
            solve(faulty_double_well(fault), NoiseModel(kind, 0.9, seed=3), config)
        err = info.value
        assert err.status == "oracle"
        message = str(err)
        assert message.startswith(f"problem 'quartic' returned {says} at order {order}, x = [")
        x = np.array(ast.literal_eval(message.split("x = ")[1]))
        assert x.shape == (2,)
        assert fault == "gradient shape" or x[0] > 0.55
        # the interrupted iteration ends the trace, and its evaluations
        # are counted
        assert err.trace[-1].kind is None
        assert sum(r.value_evals for r in err.trace) == err.counters.value_evals
        assert sum(r.derivative_evals for r in err.trace) == err.counters.derivative_evals


def norm_check_truncation(exact, bound):
    """Coarsest decimal rounding of a matrix whose error passes `operator_norm`,
    one grid at a time."""
    for d in range(17):
        v = np.round(exact, d)
        if operator_norm(v - exact) <= bound:
            return v
    return exact.copy()


class TestMatrixTruncation:
    def test_same_rounding_as_the_norm_check_for_every_bound(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 8, 30):
            for _ in range(10):
                m = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, n))
                m = m + m.T
                # Bounds on both sides of each rounding's error, and at it.
                sizes = [operator_norm(np.round(m, d) - m) for d in range(17)]
                bounds = [10.0 ** rng.uniform(-14, 2) for _ in range(5)]
                bounds += [s for s in sizes if s > 0] + [s * (1 + 1e-12) for s in sizes if s > 0]
                for bound in bounds:
                    assert np.array_equal(_truncate_tensor(m, bound)[0],
                                          norm_check_truncation(m, bound))


class TestMatrixErrorBounds:
    """A Hessian's truncation error is normed without an eigensolve."""

    def test_diagonal_hessian_truncates_without_an_eigensolve(self, monkeypatch):
        problem = make_problem("sineq", 200)
        x = np.random.default_rng(2).uniform(-3.0, 3.0, 200)
        exact = problem.derivative(x, 2)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        oracle = Oracle(problem, NoiseModel("truncation"))
        bounds = 10.0 ** np.linspace(-14.0, 0.0, 15)
        hessians = [oracle.inexact_bundle(x, [0.0, bound], 2)[0].tensors[1] for bound in bounds]
        assert calls == []
        monkeypatch.undo()
        for bound, hessian in zip(bounds, hessians):
            assert np.array_equal(hessian, norm_check_truncation(exact, bound))


class TestDeterminism:
    def test_same_seed_same_stream(self, problem):
        a = Oracle(problem, NoiseModel("bounded_random", 0.9, seed=42))
        b = Oracle(problem, NoiseModel("bounded_random", 0.9, seed=42))
        xs = [problem.x0 + 0.1 * k for k in range(3)]
        for x in xs:
            assert a.inexact_value(x, 0.2) == b.inexact_value(x, 0.2)
            ba, _ = a.inexact_bundle(x, np.array([0.1, 0.1]), 2)
            bb, _ = b.inexact_bundle(x, np.array([0.1, 0.1]), 2)
            for ta, tb in zip(ba.tensors, bb.tensors):
                assert np.array_equal(ta, tb)


def bounded_hessian(n, fill=0.9, seed=0):
    """(exact, returned) Hessian of sineq at its start point under one
    order-2 bounded-noise request with bound 0.1."""
    problem = make_problem("sineq", n)
    oracle = Oracle(problem, NoiseModel("bounded_random", fill, seed))
    bundle, _ = oracle.inexact_bundle(problem.x0, np.array([0.0, 0.1]), 2)
    return problem.derivative(problem.x0, 2), bundle.tensors[1]


def bounded_error(order, n, fill=0.9, seed=0):
    """The error of sineq's order-`order` derivative at its start point under
    one bounded-noise request with bound 0.1 at that order (and 0 below)."""
    problem = make_problem("sineq", n)
    oracle = Oracle(problem, NoiseModel("bounded_random", fill, seed))
    bundle, _ = oracle.inexact_bundle(problem.x0, np.eye(order)[-1] * 0.1, order)
    return bundle.tensors[-1] - problem.derivative(problem.x0, order)


class TestBoundedHessianDirection:
    """The bounded-noise direction is rank one at every order, so its
    `operator_norm` is its induced norm and no eigensolve sizes it."""

    @pytest.mark.parametrize("fill", [0.9, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 20, 60, 200])
    def test_error_norm_is_the_fill(self, n, fill):
        exact, hessian = bounded_hessian(n, fill)
        assert operator_norm(hessian - exact) == pytest.approx(fill * 0.1, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 20, 200])
    def test_bit_symmetric(self, n):
        _, hessian = bounded_hessian(n)
        assert np.array_equal(hessian, hessian.T)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [2, 4, 20, 60])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_error_is_rank_one_and_fills_the_induced_norm(self, order, n, seed):
        err = bounded_error(order, n, seed=seed)
        if order > 1:
            # Rank one: one nonzero singular value of the n x n**(order-1)
            # unfolding, up to the rounding of exact + direction - exact.
            sv = np.linalg.svd(err.reshape(n, -1), compute_uv=False)
            assert sv[1] <= 1e-12 * sv[0]
        if order == 1:
            induced = np.linalg.norm(err)
        elif order == 2:
            induced = np.abs(np.linalg.eigvalsh(err)).max()
        else:
            # err = c v (x) v (x) v, so err[:, k, k] is along v.
            k = np.argmax(np.abs(np.einsum("iii->i", err)))
            u = err[:, k, k] / np.linalg.norm(err[:, k, k])
            induced = abs(np.einsum("ijk,i,j,k->", err, u, u, u))
        assert operator_norm(err) == pytest.approx(0.09, rel=1e-12, abs=0)
        assert induced == pytest.approx(0.09, rel=1e-12, abs=0)

    def test_no_eigensolve(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("an eigensolve sized the noise")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        for n in (1, 4, 60):
            bounded_hessian(n)

    def test_seed_fixes_the_tensors(self):
        first = bounded_hessian(20, seed=5)[1]
        assert np.array_equal(first, bounded_hessian(20, seed=5)[1])
        assert not np.array_equal(first, bounded_hessian(20, seed=6)[1])


class TestCaching:
    """The oracle keeps no cache: every bundle request is one evaluation."""

    def test_repeat_and_looser_requests_reevaluate(self, problem):
        oracle = Oracle(problem, NoiseModel("bounded_random", 0.9, seed=1))
        acc = np.array([0.1, 0.1])
        b1, _ = oracle.inexact_bundle(problem.x0, acc, 2)
        assert oracle.counters.derivative_evals == 1
        b2, _ = oracle.inexact_bundle(problem.x0, acc.copy(), 2)
        assert oracle.counters.derivative_evals == 2
        for first, repeat in zip(b1.tensors, b2.tensors):
            assert not np.array_equal(first, repeat)
        oracle.inexact_bundle(problem.x0, np.array([0.2, 0.5]), 2)
        assert oracle.counters.derivative_evals == 3

    def test_tighter_request_reevaluates(self, problem):
        oracle = Oracle(problem, NoiseModel("bounded_random", 0.9, seed=1))
        oracle.inexact_bundle(problem.x0, np.array([0.1, 0.1]), 2)
        oracle.inexact_bundle(problem.x0, np.array([0.1, 0.025]), 2)
        assert oracle.counters.derivative_evals == 2

    def test_new_point_reevaluates(self, problem):
        oracle = Oracle(problem, NoiseModel("bounded_random", 0.9, seed=1))
        oracle.inexact_bundle(problem.x0, np.array([0.1, 0.1]), 2)
        oracle.inexact_bundle(problem.x0 + 1.0, np.array([0.1, 0.1]), 2)
        assert oracle.counters.derivative_evals == 2


class TestLipschitzEstimates:
    def test_floor_at_one(self):
        problem = make_problem("quadratic", 2)
        pts = [np.zeros(2), np.ones(2)]
        # order-2 derivative of a quadratic is constant: floor applies
        assert lipschitz_over_points(problem, pts, 2) == 1.0

    def test_visited_points_evaluated_once_each(self):
        problem = make_problem("rosenbrock", 3)
        calls = []

        def counted(x, i):
            calls.append((x.tobytes(), i))
            return problem.eval_derivative(x, i)

        counting = dataclasses.replace(problem, eval_derivative=counted)
        rng = np.random.default_rng(4)
        a, b, c = (problem.x0 + rng.uniform(-0.5, 0.5, 3) for _ in range(3))
        # repeats (as after rejected steps) and a pair closer than 1e-12
        pts = [a, b, b, c, a, a + 1e-14, c]
        ref = 1.0  # the next-order norm, every point evaluated afresh
        for x in pts:
            ref = max(ref, operator_norm(problem.derivative(x, 3)))
        assert lipschitz_over_points(counting, pts, 2) == ref
        assert len(calls) == len(set(calls)) == 4  # 4 distinct points x order 3

    def test_sampled_estimate_covers_quadratic_hessian(self):
        problem = make_problem("quadratic", 4)
        est = estimate_lipschitz(problem, problem.x0, 2)
        # max |A x| over the sampled box is at least the top eigenvalue scale
        assert est >= 1.0

    @staticmethod
    def nan_hessian_well():
        """The 2-D double well with a NaN Hessian for x_0 > 1.5."""
        well = make_problem("quartic", 2)

        def derivative(x, i):
            d = well.eval_derivative(x, i)
            return np.full_like(d, math.nan) if i == 2 and x[0] > 1.5 else d

        return dataclasses.replace(well, eval_derivative=derivative)

    def test_a_nan_norm_is_a_fault_not_a_sample_dropped(self):
        problem = self.nan_hessian_well()
        message = "returned a derivative of order 2 with a non-finite norm"
        with pytest.raises(OracleFaultError, match=message):
            estimate_lipschitz(problem, np.array([0.5, 0.5]), 2)
        a, b = np.array([0.5, 0.5]), np.array([2.0, 0.5])
        with pytest.raises(OracleFaultError, match=message + r".*x = \[2\. *, 0\.5\]"):
            lipschitz_over_points(problem, [a, b], 1)  # the next-order norm at b
        # Without a third derivative, order 2 takes the difference quotients.
        quotients = dataclasses.replace(problem, p_max=2)
        with pytest.raises(OracleFaultError, match=r"x = \[0\.5, 0\.5\] and \[2\. *, 0\.5\]"):
            lipschitz_over_points(quotients, [a, b], 2)  # the difference between a and b
        assert lipschitz_over_points(quotients, [a, a + 0.1], 2) > 1.0  # finite where x_0 <= 1.5

    @staticmethod
    def misshapen(problem, order):
        """`problem` whose order-`order` derivative has an axis too few."""
        def derivative(x, i):
            d = problem.eval_derivative(x, i)
            return d[..., 0] if i == order else d

        return dataclasses.replace(problem, eval_derivative=derivative)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_a_misshapen_derivative_is_a_fault_naming_its_order(self, order):
        well = make_problem("quartic", 2)
        problem = self.misshapen(well, order)
        message = re.escape(f"instead of {(2,) * order} at order {order}, x = ")
        with pytest.raises(OracleFaultError, match=message):
            estimate_lipschitz(problem, well.x0, 2)  # next-order norms of orders 1..3
        a, b = well.x0, well.x0 + 0.1
        with pytest.raises(OracleFaultError, match=message):  # the next-order norm
            lipschitz_over_points(problem, [a, b], order - 1)
        quotients = dataclasses.replace(problem, p_max=order)
        with pytest.raises(OracleFaultError, match=message):  # the difference quotient
            lipschitz_over_points(quotients, [a, b], order)

    def test_a_start_point_whose_squares_overflow_has_a_finite_box(self):
        # The box's half-width is ||x0|| + 1 with ||x0|| near 1.4e200: the
        # unscaled sum of squares would overflow and put the samples at inf.
        problem = make_problem("sineq", 2)
        with np.errstate(over="ignore"):
            assert 1e200 < estimate_lipschitz(problem, np.full(2, 1e200), 2) < math.inf

    @pytest.mark.parametrize("loop", ["next derivative", "pair differences", "truncation"])
    def test_package_loops_norm_through_the_kernel_not_the_traced_name(self, loop, monkeypatch):
        # The per-layer tracer wraps `tensors.operator_norm`; the loops call
        # its kernel, so the tracer counts only the calls made by that name.
        problem = make_problem("quartic", 3)
        pts = [problem.x0, problem.x0 + 0.1, problem.x0 - 0.2]

        def run():
            if loop == "truncation":
                rounded, achieved = _truncate_tensor(problem.derivative(problem.x0, 3), 1e-3)
                return rounded.tobytes(), achieved
            return lipschitz_over_points(problem, pts, 2 if loop == "next derivative" else 3)

        want = run()

        def traced(tensor):
            raise AssertionError("a package loop called the public operator_norm")

        monkeypatch.setattr(tensors_module, "operator_norm", traced)
        monkeypatch.setattr(oracle_module, "operator_norm", traced)
        assert run() == want

    @staticmethod
    def huge_cubic(p_max):
        """f = 1e155 / 6 * sum_i x_i**3 over R^2, with derivatives up to
        `p_max`: entries near 1e155 whose squares overflow."""
        c = 1e155

        def derivative(x, i):
            if i == 1:
                return c / 2 * x**2
            if i == 2:
                return np.diag(c * x)
            t = np.zeros((2, 2, 2))
            t[0, 0, 0] = t[1, 1, 1] = c
            return t

        return Problem("huge", 2, lambda x: c / 6 * float(np.sum(x**3)), derivative, 0.0,
                       np.ones(2), p_max)

    def test_a_hessian_whose_squares_overflow_warns_of_nothing(self):
        # The unscaled sum of squares overflows, and `_norm` rescales it:
        # numpy's overflow warning must not reach the caller.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lipschitz_over_points(self.huge_cubic(2), [np.zeros(2), np.ones(2)],
                                         1) == 1.414213562373095e155

    def test_derivatives_whose_squares_overflow_keep_finite_norms(self):
        a, b = np.zeros(2), np.ones(2)
        with warnings.catch_warnings():  # the unscaled sums of squares overflow, silently
            warnings.simplefilter("error")
            # The next derivative: 1e155 at two entries of the order-3 tensor.
            assert lipschitz_over_points(self.huge_cubic(3), [a, b], 2) == pytest.approx(
                math.sqrt(2.0) * 1e155, rel=1e-15)
            # Without it, the pair difference: the Hessians differ by 1e155 I,
            # over a gap of sqrt(2).
            assert lipschitz_over_points(self.huge_cubic(2), [a, b], 2) == pytest.approx(
                1e155, rel=1e-15)
            # The start estimate takes both branches: orders 0 and 1, then 2.
            assert 1e155 < estimate_lipschitz(self.huge_cubic(2), b, 2) < math.inf


# Point-by-point references for the estimates: one point, one public
# `operator_norm` and one pair at a time.  The estimates must reproduce them
# bit for bit.
def start_samples(x0):
    """x0 and the seeded box points the start estimate samples."""
    x0 = np.asarray(x0, dtype=float)
    radius = max(1.0, float(np.linalg.norm(x0)) + 1.0)
    rng = np.random.default_rng(oracle_module._LIPSCHITZ_SEED)
    pts = x0 + radius * rng.uniform(-1.0, 1.0, size=(oracle_module._LIPSCHITZ_SAMPLES, x0.size))
    return np.vstack([x0[None, :], pts])


def ref_estimate_lipschitz(problem, x0, p):
    pts = start_samples(x0)
    best = 1.0
    for j in range(0, p + 1):
        if j + 1 <= problem.p_max:
            for x in pts:
                best = max(best, operator_norm(problem.derivative(x, j + 1)))
        else:
            for a, b in zip(pts[:-1], pts[1:]):
                diff = problem.derivative(a, j) - problem.derivative(b, j)
                best = max(best, operator_norm(diff) / float(np.linalg.norm(a - b)))
    return float(best)


def ref_lipschitz_over_points(problem, points, order):
    pts = [np.asarray(x, dtype=float) for x in points]
    best = 1.0
    if order + 1 <= problem.p_max:
        for x in {x.tobytes(): x for x in pts}.values():
            best = max(best, operator_norm(problem.derivative(x, order + 1)))
        return float(best)
    for a, b in zip(pts[:-1], pts[1:]):
        gap = float(np.linalg.norm(a - b))
        if gap > 1e-12:
            diff = problem.derivative(a, order) - problem.derivative(b, order)
            best = max(best, operator_norm(diff) / gap)
    return float(best)


def wavy(dim, w):
    """f = sum_i cos(w x_i) / w**2 with derivatives of orders 1 and 2 only:
    their norms are at most 1, while the Hessian changes at a rate of up to
    w, so the order-2 difference quotient sets the estimate at p = 2."""
    def value(x):
        return float(np.sum(np.cos(w * x))) / w**2

    def derivative(x, i):
        return -np.sin(w * x) / w if i == 1 else np.diag(-np.cos(w * x))

    return Problem("wavy", dim, value, derivative, -dim / w**2, np.zeros(dim), 2)


def counting(problem):
    """`problem` with every derivative evaluation logged as (x bytes, order)."""
    calls = []

    def counted(x, i):
        calls.append((x.tobytes(), i))
        return problem.eval_derivative(x, i)

    return dataclasses.replace(problem, eval_derivative=counted), calls


class TestLipschitzEstimatesMatchTheReferences:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 4, 20])
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_start_estimate_matches_the_point_loop(self, name, n, p):
        problem = make_problem(name, n)
        ref = ref_estimate_lipschitz(problem, problem.x0, p)
        assert estimate_lipschitz(problem, problem.x0, p) == ref

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 4, 20])
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_start_estimate_is_the_point_set_estimate_over_its_samples(self, name, n, p):
        problem = make_problem(name, n)
        pts = start_samples(problem.x0)
        over_points = max(lipschitz_over_points(problem, pts, j) for j in range(p + 1))
        assert estimate_lipschitz(problem, problem.x0, p) == over_points

    def test_an_order_without_a_next_derivative_takes_pair_quotients(self):
        # Order 2 has no next derivative and its pair quotients set the
        # maximum; a central difference at a small step would read up to w.
        w = 50.0
        problem = wavy(3, w)
        pts = start_samples(problem.x0)
        lower = max(lipschitz_over_points(problem, pts, j) for j in (0, 1))
        est = estimate_lipschitz(problem, problem.x0, 2)
        assert est == ref_estimate_lipschitz(problem, problem.x0, 2)
        assert est == lipschitz_over_points(problem, pts, 2) > lower
        assert est < 0.25 * w

    # The start estimate at p = 1, 2, 3 before it became the point-set
    # estimate over its samples, which keeps every one of these bits.
    # Quartic's at n = 2, 3, 4 were recorded again when the Hessian's norm
    # became the Frobenius norm: its diagonal Hessian sets the maximum there.
    # Sineq's were recorded again when its Lipschitz hint of 2 went: they
    # are the sampled estimate the hint had stood in for.
    RECORDED = {
        ("quadratic", 2): ("0x1.2319c4d9b5819p+5", "0x1.2319c4d9b5819p+5", "0x1.2319c4d9b5819p+5"),
        ("quadratic", 3): ("0x1.352832d3d8d37p+5", "0x1.352832d3d8d37p+5", "0x1.352832d3d8d37p+5"),
        ("quadratic", 4): ("0x1.449282042a7cfp+5", "0x1.449282042a7cfp+5", "0x1.449282042a7cfp+5"),
        ("quadratic", 20): ("0x1.cc350b3d3f1bdp+6", "0x1.cc350b3d3f1bdp+6", "0x1.cc350b3d3f1bdp+6"),
        ("rosenbrock", 2): ("0x1.4d78a8aa32953p+14", "0x1.4d78a8aa32953p+14", "0x1.4d78a8aa32953p+14"),
        ("rosenbrock", 3): ("0x1.c9b98f6e297ddp+14", "0x1.c9b98f6e297ddp+14", "0x1.c9b98f6e297ddp+14"),
        ("rosenbrock", 4): ("0x1.619926e88cae1p+15", "0x1.619926e88cae1p+15", "0x1.619926e88cae1p+15"),
        ("rosenbrock", 20): ("0x1.fbdbd565235a4p+17", "0x1.fbdbd565235a4p+17", "0x1.fbdbd565235a4p+17"),
        ("quartic", 2): ("0x1.de566c2cea133p+5", "0x1.f46a26fb0170cp+5", "0x1.f46a26fb0170cp+5"),
        ("quartic", 3): ("0x1.568c2dba5b2a6p+6", "0x1.5ac7986d0b68ep+6", "0x1.5ac7986d0b68ep+6"),
        ("quartic", 4): ("0x1.9b2f3beb2f67dp+6", "0x1.9b2f3beb2f67dp+6", "0x1.9b2f3beb2f67dp+6"),
        ("quartic", 20): ("0x1.8b735440db874p+8", "0x1.8b735440db874p+8", "0x1.8b735440db874p+8"),
        ("sineq", 2): ("0x1.78889449db2e8p+1", "0x1.78889449db2e8p+1", "0x1.78889449db2e8p+1"),
        ("sineq", 3): ("0x1.ea573f3e7afafp+1", "0x1.ea573f3e7afafp+1", "0x1.ea573f3e7afafp+1"),
        ("sineq", 4): ("0x1.4d6f31beec79fp+2", "0x1.4d6f31beec79fp+2", "0x1.4d6f31beec79fp+2"),
        ("sineq", 20): ("0x1.3703a6efe2364p+4", "0x1.3703a6efe2364p+4", "0x1.3703a6efe2364p+4"),
    }

    @pytest.mark.parametrize("name, n", RECORDED)
    def test_start_estimate_keeps_its_recorded_values(self, name, n):
        problem = make_problem(name, n)
        got = [estimate_lipschitz(problem, problem.x0, p) for p in (1, 2, 3)]
        assert got == [float.fromhex(h) for h in self.RECORDED[name, n]]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_repeated_points_are_evaluated_once(self, order):
        # Without an order + 1 derivative, so the pairs are differenced.
        quartic = dataclasses.replace(make_problem("quartic", 3), p_max=order)
        problem, calls = counting(quartic)
        rng = np.random.default_rng(order)
        a, b = (problem.x0 + rng.uniform(-0.5, 0.5, 3) for _ in range(2))
        pts = [a, a, b, a, a, b, b, a]
        ref = ref_lipschitz_over_points(problem, pts, order)
        calls.clear()
        assert lipschitz_over_points(problem, pts, order) == ref
        assert len(calls) == len(set(calls)) == 2
        assert {i for _, i in calls} == {order}

    def test_signed_zero_points_are_distinct_but_never_paired(self):
        problem, calls = counting(make_problem("rosenbrock", 2))
        pts = [np.array([0.0, 1.0]), np.array([-0.0, 1.0]), np.array([0.0, 1.0])]
        ref = ref_lipschitz_over_points(problem, pts, 2)
        calls.clear()
        assert lipschitz_over_points(problem, pts, 2) == ref
        # Both zeros get the next-order norm; no pair is 1e-12 apart.
        assert sorted(i for _, i in calls) == [3, 3]

    @pytest.mark.parametrize("offset, paired", [(5e-13, False), (1e-12, False), (3e-12, True)])
    def test_gaps_at_or_under_1e_12_are_skipped(self, offset, paired):
        # Without a second derivative, so order 1 takes difference quotients.
        problem, calls = counting(dataclasses.replace(make_problem("rosenbrock", 2), p_max=1))
        a = np.zeros(2)  # so the gap is the offset exactly
        pts = [a, a + np.array([offset, 0.0])]
        ref = ref_lipschitz_over_points(problem, pts, 1)
        calls.clear()
        assert lipschitz_over_points(problem, pts, 1) == ref
        assert sum(i == 1 for _, i in calls) == (2 if paired else 0)

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_visited_region_matches_the_point_loop(self, name):
        rng = np.random.default_rng(7)
        problem = make_problem(name, 4)
        pts, x = [], problem.x0.copy()
        for k in range(30):
            s = rng.uniform(-0.3, 0.3, 4)
            pts += [x] + [x + t * s for t in (0.25, 0.5, 0.75, 1.0)]
            if k % 3:  # a successful step, else the iterate repeats
                x = x + s
        for order in (1, 2, 3):
            ref = ref_lipschitz_over_points(problem, pts, order)
            assert lipschitz_over_points(problem, pts, order) == ref

    N3 = 60
    TENSOR3 = 8 * N3**3  # bytes of one order-3 tensor at n = 60

    @pytest.mark.parametrize("order", [2, 3])
    def test_memory_holds_a_few_order3_tensors(self, order):
        """About 200 points at n = 60.  At order 2 each distinct point's
        order-3 tensor is normed (25 points in a seeded order, so the norms
        stay quick); at order 3 a visited-region walk of 160 distinct points
        is differenced.  One tensor per point would be 25 or 160 of them;
        norming each tensor as it is made and evicting derivatives after
        their last pair keep the peak near 1.1 and 4.2 of them (measured)."""
        import tracemalloc

        n, rng = self.N3, np.random.default_rng(60 + order)
        problem = make_problem("quartic", n)
        if order == 2:
            distinct = problem.x0 + rng.uniform(-0.5, 0.5, (25, n))
            pts = list(distinct[rng.integers(0, 25, 200)])
        else:
            pts, x = [], problem.x0.copy()
            for k in range(40):
                s = rng.uniform(-0.1, 0.1, n)
                pts += [x] + [x + t * s for t in (0.25, 0.5, 0.75, 1.0)]
                if k % 3:
                    x = x + s
        tracemalloc.start()
        try:
            lipschitz_over_points(problem, pts, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = (4 if order == 2 else 6) * self.TENSOR3
        assert peak <= limit


def ref_truncate_tensor(exact, bound):
    """The truncation without the candidate grids rounded in blocks: one
    `np.round` and one check of numpy's Frobenius norm per decimal count."""
    if bound <= 0:
        return exact.copy()
    for d in range(0, 17):
        v = np.round(exact, d)
        if float(np.linalg.norm(v - exact)) <= bound:
            return v
    return exact.copy()


class TestTruncationMatchesTheReference:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_bit_for_bit(self, order):
        # Sizes on both sides of `_GRID_ELEMENTS`: every grid in one batch,
        # a batch of 10 grids (n = 20 matrices), and one grid at a time.
        rng = np.random.default_rng(20240809 + order)
        dims = {1: (1, 2, 4, 20), 2: (1, 2, 4, 20, 70, 200), 3: (1, 2, 4, 17)}[order]
        for n in dims:
            for _ in range(8):
                t = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n,) * order)
                if order == 2:
                    t = t + t.T
                for bound in [0.0] + [10.0 ** rng.uniform(-16, 1) for _ in range(6)]:
                    ours, ref = _truncate_tensor(t, bound)[0], ref_truncate_tensor(t, bound)
                    assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_an_error_whose_squares_underflow_keeps_its_norm(self, order):
        # Every grid rounds these entries to 0, an error near 1e-170 in norm
        # against a demand of 1e-180, although its squares underflow to 0.
        exact = np.full((2,) * order, 1e-170)
        rounded, achieved = _truncate_tensor(exact, 1e-180)
        assert rounded.tobytes() == exact.tobytes() and achieved == 0.0

    def test_one_rounding_formula(self):
        # `_DECIMAL_SCALES` reproduces `np.round` at every decimal count.
        x = np.random.default_rng(1).standard_normal(1000) * 10.0 ** np.linspace(-12, 8, 1000)
        for d, scale in enumerate(oracle_module._DECIMAL_SCALES):
            assert (np.rint(x * scale) / scale).tobytes() == np.round(x, d).tobytes()


def truncation_tensors(rng, n, p, pattern):
    """Derivatives of orders 1..p at n for a truncation bundle, the Hessian
    with a diagonal, tridiagonal (banded) or dense pattern, each scaled by
    its own power of ten."""
    scales = 10.0 ** rng.uniform(-3, 3, 3)
    hessian = rng.standard_normal((n, n))
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    if pattern != "dense":
        hessian *= band <= (0 if pattern == "diagonal" else 1)
    tensors = [rng.standard_normal(n), hessian + hessian.T, random_symmetric(rng, n, 3)]
    return [scale * t for scale, t in zip(scales, tensors[:p])]


def fixed_problem(tensors):
    n = len(tensors[0])
    return Problem("fixed", n, lambda x: 0.0, lambda x, i: tensors[i - 1], 0.0, np.zeros(n),
                   len(tensors))


class TestAchievedBundleErrors:
    """A truncation bundle reports per order the norm that accepted its
    decimal grid: its error's `operator_norm`, at most the demand.  A
    request at any demand from it up to the one it was made at returns the
    same tensors, which is why the solver may keep a bundle whose achieved
    errors meet a tightened demand."""

    @staticmethod
    def request(tensors, demand, tighter):
        n, p = len(tensors[0]), len(tensors)
        oracle = Oracle(fixed_problem(tensors), NoiseModel("truncation"))
        bundle, achieved = oracle.inexact_bundle(np.zeros(n), demand, p)
        for order, (got, exact) in enumerate(zip(bundle.tensors, tensors), start=1):
            assert achieved[order - 1] == operator_norm(got - exact)
            assert achieved[order - 1] <= demand[order - 1]
        for share in (0.0, tighter, 1.0):
            tighter_demand = achieved + share * (demand - achieved)
            again, _ = oracle.inexact_bundle(np.zeros(n), tighter_demand, p)
            for got, kept in zip(again.tensors, bundle.tensors):
                assert got.tobytes() == kept.tobytes()
        return bundle, achieved

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(1, 3),
        n=st.integers(1, 8),
        pattern=st.sampled_from(["diagonal", "banded", "dense"]),
        seed=st.integers(0, 2**32 - 1),
        digits=st.lists(st.floats(-12.0, 1.0), min_size=3, max_size=3),
        tighter=st.floats(0.0, 1.0),
    )
    def test_lies_between_the_error_and_the_demand_and_serves_a_tighter_one(
            self, p, n, pattern, seed, digits, tighter):
        tensors = truncation_tensors(np.random.default_rng(seed), n, p, pattern)
        self.request(tensors, 10.0 ** np.array(digits[:p]), tighter)


class TestBundleErrorRule:
    """Every noise kind reports per order the measured `operator_norm` of
    the error it returns, and that error never exceeds the demand, also
    where rounding ``exact + direction`` carries bounded noise past it."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(NOISE_KINDS),
        fill=st.floats(0.0, 1.0),
        name=st.sampled_from(PROBLEM_NAMES),
        n=st.integers(2, 6),
        p=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        digits=st.lists(st.floats(-16.0, 2.0), min_size=3, max_size=3),
        scale=st.floats(-8.0, 12.0),
    )
    # A full fill whose sum rounds past the demand at orders 2 and 3, by
    # 4e-16 of it.
    @example(kind="bounded_random", fill=1.0, name="sineq", n=4, p=3, seed=0,
             digits=[-1.0, -1.0, -1.0], scale=0.0)
    # The default fill at a demand near the entries' ulp: the gradient's
    # sum rounds 0.5% past the demand.
    @example(kind="bounded_random", fill=0.9, name="rosenbrock", n=4, p=3, seed=9,
             digits=[-14.0, -14.0, -14.0], scale=0.0)
    def test_achieved_is_the_measured_error_within_the_demand(
            self, kind, fill, name, n, p, seed, digits, scale):
        problem = make_problem(name, n)
        x = problem.x0 + np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        exacts = [10.0**scale * problem.derivative(x, i) for i in range(1, p + 1)]
        oracle = Oracle(fixed_problem(exacts), NoiseModel(kind, fill, seed))
        demand = 10.0 ** np.array(digits[:p])
        bundle, achieved = oracle.inexact_bundle(np.zeros(n), demand, p)
        for got, exact, error, bound in zip(bundle.tensors, exacts, achieved, demand):
            assert operator_norm(got - exact) == error <= bound
