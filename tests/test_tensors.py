import math

import numpy as np
import pytest

from arq import tensors
from arq.tensors import (
    DerivativeBundle,
    RegularizedModel,
    model_decrement,
    operator_norm,
    regularizer_derivative,
    shifted_model_derivatives,
    symmetrize,
    taylor_decrement,
)

from conftest import central_diff_gradient, central_diff_hessian, reference_taylor_eval, random_symmetric


def bundle_1d(g, h):
    return DerivativeBundle([np.array([g]), np.array([[h]])])


def random_bundle(rng, n, degree):
    return DerivativeBundle([random_symmetric(rng, n, i) for i in range(1, degree + 1)])


class TestTaylorDecrement:
    def test_zero_displacement(self):
        b = bundle_1d(2.0, -6.0)
        assert taylor_decrement(b, np.zeros(1), 2) == 0.0

    def test_scalar_example(self):
        b = bundle_1d(2.0, -6.0)
        assert taylor_decrement(b, np.array([1.0]), 2) == pytest.approx(1.0, abs=0)

    def test_matches_eval_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = random_bundle(rng, 4, 3)
            s = rng.standard_normal(4)
            for j in (1, 2, 3):
                direct = taylor_decrement(b, s, j)
                diff = (reference_taylor_eval(0.0, b.tensors, np.zeros(4), j)
                        - reference_taylor_eval(0.0, b.tensors, s, j))
                assert direct == pytest.approx(diff, abs=1e-12 * (1 + abs(direct)))

    def test_dimension_mismatch(self):
        b = bundle_1d(1.0, 1.0)
        with pytest.raises(ValueError):
            taylor_decrement(b, np.zeros(2), 1)
        with pytest.raises(ValueError):
            taylor_decrement(b, np.zeros(1), 3)


class TestModelDecrement:
    def test_spec_example(self):
        # sigma=6, p=2, ||s||=1, taylor drop 1 -> 1 - 6/3! = 0
        b = bundle_1d(-1.0, 0.0)
        model = RegularizedModel(b, 6.0)
        s = np.array([1.0])
        assert taylor_decrement(b, s, 2) == pytest.approx(1.0)
        assert model_decrement(model, s) == pytest.approx(0.0, abs=1e-15)

    def test_zero_step(self):
        rng = np.random.default_rng(1)
        model = RegularizedModel(random_bundle(rng, 3, 2), 2.0)
        assert model_decrement(model, np.zeros(3)) == 0.0

    def test_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = random_bundle(rng, 3, 2)
            sigma = float(rng.uniform(0.1, 5.0))
            model = RegularizedModel(b, sigma)
            s = rng.standard_normal(3)
            expected = taylor_decrement(b, s, 2) - sigma * np.linalg.norm(s) ** 3 / 6.0
            assert model_decrement(model, s) == pytest.approx(expected, rel=1e-12)
            assert model_decrement(model, s) <= taylor_decrement(b, s, 2)


class TestRegularizerDerivative:
    def test_gradient_closed_form(self):
        s = np.array([1.0, 0.0])
        assert regularizer_derivative(s, 2, 1) == pytest.approx([3.0, 0.0])

    def test_hessian_against_finite_differences(self):
        s = np.array([1.0, 0.0])
        got = regularizer_derivative(s, 2, 2)
        assert got == pytest.approx(np.diag([6.0, 3.0]), abs=1e-12)
        fd = central_diff_hessian(lambda x: np.linalg.norm(x) ** 3, s, h=1e-5)
        assert got == pytest.approx(fd, abs=1e-6)

    def test_third_order_against_finite_differences(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(2)
        got = regularizer_derivative(s, 3, 3)
        h = 1e-4
        for c in range(2):
            e = np.zeros(2); e[c] = h
            fd = (
                regularizer_derivative(s + e, 3, 2) - regularizer_derivative(s - e, 3, 2)
            ) / (2 * h)
            assert got[:, :, c] == pytest.approx(fd, abs=1e-5)

    def test_zero_point(self):
        assert np.all(regularizer_derivative(np.zeros(3), 2, 2) == 0.0)

    @pytest.mark.parametrize("p, j, match", [
        (1, 3, "order 3 outside 1..2"),
        (2, 3, "order 3 outside 1..2"),
        (3, 4, "order 4 outside 1..3"),
        (4, 2, "degree 4 outside 1..3"),
    ])
    def test_only_the_orders_a_model_reads(self, p, j, match):
        # Order 3 of ||s||^(p+1) is read only by a degree-3 model.
        with pytest.raises(ValueError, match=match):
            regularizer_derivative(np.array([1.0, 0.0]), p, j)

    @pytest.mark.parametrize("s", [[0.0, 0.0], [1e-160, 0.0], [1e-154, -3e-155], [0.3, -2.0]])
    def test_hessian_of_the_squared_norm_is_twice_the_identity(self, s):
        # p = 1: the Newton Hessian of a degree-1 model, 2I at every s.
        assert np.array_equal(regularizer_derivative(np.array(s), 1, 2), 2.0 * np.eye(2))


class TestShiftedModelDerivatives:
    def test_unshifted_without_regularizer_is_gradient(self):
        rng = np.random.default_rng(2)
        b = random_bundle(rng, 3, 2)
        model = RegularizedModel(b, 0.0)
        got = shifted_model_derivatives(model, np.zeros(3), 1)
        assert got == pytest.approx(b.tensors[0], abs=0)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        b = random_bundle(rng, 3, 3)
        model = RegularizedModel(b, 1.5)
        s = rng.standard_normal(3)
        for j in (2, 3):
            t = shifted_model_derivatives(model, s, j)
            assert t == pytest.approx(symmetrize(t), rel=1e-12, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for p in (2, 3):
            b = random_bundle(rng, 3, p)
            model = RegularizedModel(b, 2.0)
            s = rng.standard_normal(3)
            s *= rng.uniform(0.1, 2.0) / np.linalg.norm(s)
            grad = shifted_model_derivatives(model, s, 1)
            fd = central_diff_gradient(lambda v: -model_decrement(model, v), s)
            assert grad == pytest.approx(fd, abs=1e-6 * (1 + np.linalg.norm(grad)))

    def test_order_above_degree_rejected(self):
        rng = np.random.default_rng(4)
        model = RegularizedModel(random_bundle(rng, 2, 2), 1.0)
        with pytest.raises(ValueError):
            shifted_model_derivatives(model, np.zeros(2), 3)


class TestErrorPropagation:
    def test_decrement_error_bounded_by_accuracy_sum(self):
        rng = np.random.default_rng(33)
        n, p = 3, 3
        for _ in range(25):
            exact = [random_symmetric(rng, n, i) for i in range(1, p + 1)]
            acc = rng.uniform(0.01, 0.5, size=p)
            noisy = []
            for i, t in enumerate(exact):
                e = random_symmetric(rng, n, i + 1)
                # scale to fill 90% of the bound in a norm dominating the
                # induced norm
                e *= 0.9 * acc[i] / np.sqrt(np.sum(e**2))
                noisy.append(t + e)
            be = DerivativeBundle(exact)
            bn = DerivativeBundle(noisy)
            for _ in range(5):
                s = rng.standard_normal(n) * rng.uniform(0.1, 2.0)
                for j in (1, 2, 3):
                    gap = abs(taylor_decrement(bn, s, j) - taylor_decrement(be, s, j))
                    budget = sum(
                        acc[i - 1] * np.linalg.norm(s) ** i / math.factorial(i)
                        for i in range(1, j + 1)
                    )
                    assert gap <= budget


class TestBundleValidation:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            DerivativeBundle([np.zeros(2), np.zeros((3, 3))])


class TestOperatorNorm:
    @pytest.mark.parametrize("n", [2, 3, 4, 20, 60])
    def test_order3_matches_the_four_operand_einsum(self, n):
        rng = np.random.default_rng(100 + n)
        t = random_symmetric(rng, n, 3)
        # Reference: the sampled maximum of |T[u,u,u]| in one einsum.
        u_rng = np.random.default_rng(0)
        u = u_rng.standard_normal((1000, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u = np.vstack([u, np.eye(n)])
        ref = float(np.abs(np.einsum("ijk,ai,aj,ak->a", t, u, u, u)).max())
        assert operator_norm(t) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_cached_directions_are_read_only(self):
        t = random_symmetric(np.random.default_rng(1), 3, 3)
        operator_norm(t)
        u = tensors._unit_directions(3)
        assert u is tensors._unit_directions(3)
        with pytest.raises(ValueError):
            u[0, 0] = 1.0


# The model arithmetic before the public functions were split into a
# validating wrapper and a kernel that shares ||s|| and each product T @ s
# between the model decrement and its derivatives.  The kernels must reproduce
# it bit for bit.
def ref_contract(tensor, s, times):
    out = np.asarray(tensor, dtype=float)
    for _ in range(times):
        out = out @ s
    return out


def ref_taylor_decrement(bundle, s, j, contract=ref_contract):
    total = 0.0
    for i in range(1, j + 1):
        total -= float(contract(bundle.tensors[i - 1], s, i)) / math.factorial(i)
    return float(total)


def ref_model_decrement(model, s):
    p = model.degree
    reg = model.sigma / math.factorial(p + 1) * np.linalg.norm(s) ** (p + 1)
    return ref_taylor_decrement(model.bundle, s, p) - reg


def ref_regularizer_derivative(s, p, j):
    n = s.shape[0]
    r = float(np.linalg.norm(s))
    if r == 0.0:
        return np.zeros((n,) * j)
    b = float(p + 1)
    if j == 1:
        return b * r ** (b - 2) * s
    if j == 2:
        return b * r ** (b - 2) * np.eye(n) + b * (b - 2) * r ** (b - 4) * np.outer(s, s)
    eye = np.eye(n)
    mixed = (
        np.einsum("ab,c->abc", eye, s)
        + np.einsum("ac,b->abc", eye, s)
        + np.einsum("bc,a->abc", eye, s)
    )
    out = b * (b - 2) * r ** (b - 4) * mixed
    if b != 4.0:
        out += b * (b - 2) * (b - 4) * r ** (b - 6) * np.einsum("a,b,c->abc", s, s, s)
    return out


def ref_shifted_model_derivatives(model, s, j):
    p = model.degree
    n = model.bundle.dim
    out = np.zeros((n,) * j)
    for ell in range(j, p + 1):
        out = out + ref_contract(model.bundle.tensors[ell - 1], s, ell - j) / math.factorial(
            ell - j
        )
    return out + model.sigma / math.factorial(p + 1) * ref_regularizer_derivative(s, p, j)


def same_bits(a, b) -> bool:
    """Equal shape and bytes: stricter than ==, it also tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_cases():
    """Seeded random models and displacements: p in 1..3, n in {1, 2, 4, 20},
    steps from 1e-3 to 3 in norm."""
    rng = np.random.default_rng(20240809)
    cases = []
    for p in (1, 2, 3):
        for n in (1, 2, 4, 20):
            for _ in range(6):
                bundle = random_bundle(rng, n, p)
                model = RegularizedModel(bundle, float(rng.uniform(0.0, 5.0)))
                s = rng.standard_normal(n)
                s *= 10.0 ** rng.uniform(-3, 0.5) / np.linalg.norm(s)
                cases.append((model, s))
    return cases


def mismatches(ours, reference):
    """Cases of `kernel_cases` (with every order j of the model) on which
    ``ours(model, s, j)`` and ``reference(model, s, j)`` differ in a bit."""
    return [
        (model.degree, model.bundle.dim, j)
        for model, s in kernel_cases()
        for j in range(1, model.degree + 1)
        if not same_bits(ours(model, s, j), reference(model, s, j))
    ]


class TestKernelsMatchTheReference:
    def test_taylor_decrement(self):
        assert mismatches(lambda m, s, j: taylor_decrement(m.bundle, s, j),
                          lambda m, s, j: ref_taylor_decrement(m.bundle, s, j)) == []

    def test_model_eval_and_decrement(self):
        assert mismatches(lambda m, s, j: model_decrement(m, s),
                          lambda m, s, j: ref_model_decrement(m, s)) == []

    def test_shifted_model_derivatives(self):
        assert mismatches(shifted_model_derivatives, ref_shifted_model_derivatives) == []

    def test_one_point_serves_value_and_derivatives(self):
        # The solver's order: decrement first, then derivatives from the
        # same point's products.
        for model, s in kernel_cases():
            point = tensors._ModelPoint(model, s)
            assert same_bits(point.decrement(), ref_model_decrement(model, s))
            for j in range(1, max(model.degree, 2) + 1):
                assert same_bits(point.derivative(j), ref_shifted_model_derivatives(model, s, j))

    def test_a_reordered_contraction_is_caught(self):
        # T[s, ..., s] contracted from the leading axis: the same number up
        # to rounding, so only a bitwise comparison notices.
        def leading_first(tensor, s, times):
            out = np.asarray(tensor, dtype=float)
            for _ in range(times):
                out = s @ out
            return out

        found = mismatches(lambda m, s, j: ref_taylor_decrement(m.bundle, s, j, leading_first),
                           lambda m, s, j: taylor_decrement(m.bundle, s, j))
        assert found

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 20, 64, 200])
    def test_lean_norm_is_numpys(self, n):
        rng = np.random.default_rng(n)
        for scale in (0.0, 1e-160, 1e-20, 1.0, 1e20, 1e150):
            v = scale * rng.standard_normal(n)
            assert same_bits(tensors._norm(v), np.linalg.norm(v))
