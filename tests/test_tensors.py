import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arq import tensors
from arq.tensors import (
    DerivativeBundle,
    RegularizedModel,
    _ModelPoint,
    _norm,
    _regularizer_derivative,
    operator_norm,
    taylor_decrement,
)

from conftest import (
    central_diff_gradient,
    central_diff_hessian,
    random_symmetric,
    reference_taylor_eval,
    sampled_norm3,
)


def bundle_1d(g, h):
    return DerivativeBundle([np.array([g]), np.array([[h]])])


def random_bundle(rng, n, degree):
    return DerivativeBundle([random_symmetric(rng, n, i) for i in range(1, degree + 1)])


def regularizer(s, p, j):
    """Order-j derivative of ||s||^(p+1), from the kernel."""
    return _regularizer_derivative(s, _norm(s), p, j)


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
        assert _ModelPoint(model, s).decrement() == pytest.approx(0.0, abs=1e-15)

    def test_zero_step(self):
        rng = np.random.default_rng(1)
        model = RegularizedModel(random_bundle(rng, 3, 2), 2.0)
        assert _ModelPoint(model, np.zeros(3)).decrement() == 0.0

    def test_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = random_bundle(rng, 3, 2)
            sigma = float(rng.uniform(0.1, 5.0))
            model = RegularizedModel(b, sigma)
            s = rng.standard_normal(3)
            expected = taylor_decrement(b, s, 2) - sigma * np.linalg.norm(s) ** 3 / 6.0
            dec = _ModelPoint(model, s).decrement()
            assert dec == pytest.approx(expected, rel=1e-12)
            assert dec <= taylor_decrement(b, s, 2)


class TestRegularizerDerivative:
    def test_gradient_closed_form(self):
        s = np.array([1.0, 0.0])
        assert regularizer(s, 2, 1) == pytest.approx([3.0, 0.0])

    def test_hessian_against_finite_differences(self):
        s = np.array([1.0, 0.0])
        got = regularizer(s, 2, 2)
        assert got == pytest.approx(np.diag([6.0, 3.0]), abs=1e-12)
        fd = central_diff_hessian(lambda x: np.linalg.norm(x) ** 3, s, h=1e-5)
        assert got == pytest.approx(fd, abs=1e-6)

    def test_third_order_against_finite_differences(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(2)
        got = regularizer(s, 3, 3)
        h = 1e-4
        for c in range(2):
            e = np.zeros(2); e[c] = h
            fd = (regularizer(s + e, 3, 2) - regularizer(s - e, 3, 2)) / (2 * h)
            assert got[:, :, c] == pytest.approx(fd, abs=1e-5)

    def test_zero_point(self):
        assert np.all(regularizer(np.zeros(3), 2, 2) == 0.0)

    @pytest.mark.parametrize("s", [[0.0, 0.0], [1e-160, 0.0], [1e-154, -3e-155], [0.3, -2.0]])
    def test_hessian_of_the_squared_norm_is_twice_the_identity(self, s):
        # p = 1: the Newton Hessian of a degree-1 model, 2I at every s.
        assert np.array_equal(regularizer(np.array(s), 1, 2), 2.0 * np.eye(2))


class TestShiftedModelDerivatives:
    def test_above_a_degree_one_model_only_the_regularizer_curves(self):
        # The Newton Hessian of a degree-1 model: sigma/2! times 2I at every s.
        model = RegularizedModel(DerivativeBundle([np.array([0.5, -2.0])]), 3.0)
        for s in ([0.0, 0.0], [0.3, -2.0]):
            assert np.array_equal(_ModelPoint(model, np.array(s)).derivative(2), 3.0 * np.eye(2))

    def test_unshifted_without_regularizer_is_gradient(self):
        rng = np.random.default_rng(2)
        b = random_bundle(rng, 3, 2)
        model = RegularizedModel(b, 0.0)
        got = _ModelPoint(model, np.zeros(3)).derivative(1)
        assert got == pytest.approx(b.tensors[0], abs=0)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        b = random_bundle(rng, 3, 3)
        model = RegularizedModel(b, 1.5)
        s = rng.standard_normal(3)
        for j in (2, 3):
            t = _ModelPoint(model, s).derivative(j)
            for perm in itertools.permutations(range(j)):
                assert t == pytest.approx(np.transpose(t, perm), rel=1e-12, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for p in (2, 3):
            b = random_bundle(rng, 3, p)
            model = RegularizedModel(b, 2.0)
            s = rng.standard_normal(3)
            s *= rng.uniform(0.1, 2.0) / np.linalg.norm(s)
            grad = _ModelPoint(model, s).derivative(1)
            fd = central_diff_gradient(lambda v: -_ModelPoint(model, v).decrement(), s)
            assert grad == pytest.approx(fd, abs=1e-6 * (1 + np.linalg.norm(grad)))


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
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_order3_bounds_the_tensor_on_every_direction(self, n, seed):
        """At order 3 the norm is the Frobenius norm, an upper bound on
        |T[u,u,u]| for every unit u, attained at n = 1."""
        t = random_symmetric(np.random.default_rng(seed), n, 3)
        norm = operator_norm(t)
        assert norm == np.linalg.norm(t.reshape(-1))
        sampled = sampled_norm3(t, seed=seed)
        assert norm >= sampled
        if n == 1:
            assert norm == sampled


def symmetric_stack(rng, count, n, order):
    """`count` random symmetric order-`order` tensors over R^n, stacked."""
    t = rng.standard_normal((count,) + (n,) * order)
    perms = list(itertools.permutations(range(1, order + 1)))
    return sum(np.transpose(t, (0,) + p) for p in perms) / len(perms)


def groupings(n, order):
    """The lengths of the groups `operator_norms` forms of tensors of this
    shape: the stacks `_stacks` copies."""
    return [tensors._BLOCK // n**order if 2 * n**order <= tensors._BLOCK else 1]


def stack_sizes(n, order):
    """Stack lengths on either side of each grouping."""
    sizes = {1, 2} | {g + d for g in groupings(n, order) for d in (-1, 0, 1)}
    return sorted(k for k in sizes if k >= 1)


def edge_positions(k, n, order):
    """The first and last tensor of a stack of k and those on either side of
    a group boundary: the tensors worth norming alone."""
    cuts = {0, k - 1} | {m + d for m in groupings(n, order) if 1 < m < k for d in (-1, 0)}
    return sorted(cuts)


class TestStackedNorms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 20, 60])
    def test_order3_stacked_equals_single_bit_for_bit(self, n):
        rng = np.random.default_rng(300 + n)
        for k in stack_sizes(n, 3):
            stack = symmetric_stack(rng, k, n, 3)
            stacked = tensors.operator_norms(stack)
            at = edge_positions(k, n, 3)
            single = np.array([operator_norm(stack[i]) for i in at])
            assert stacked[at].tobytes() == single.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (60,), (4, 4), (60, 60), (200, 200), (2, 2, 2),
                                       (20, 20, 20), (60, 60, 60)])
    def test_every_order_is_numpys_norm_of_the_entries_bit_for_bit(self, shape):
        # The Frobenius norm at every order, alone and stacked, at sizes
        # from 1e-3 to 1e3.
        rng = np.random.default_rng(len(shape) * shape[0])
        n, order = shape[0], len(shape)
        for k in stack_sizes(n, order)[:4]:
            stack = rng.standard_normal((k,) + shape) * 10.0 ** rng.uniform(-3, 3, k).reshape(
                (k,) + (1,) * order)
            ref = np.array([np.linalg.norm(t.reshape(-1)) for t in stack])
            assert tensors.operator_norms(stack).tobytes() == ref.tobytes()
            assert np.array([operator_norm(t) for t in stack]).tobytes() == ref.tobytes()

    def test_empty_iterable_and_mixed_shapes(self):
        assert tensors.operator_norms([]).shape == (0,)
        with pytest.raises(ValueError, match="shape"):
            tensors.operator_norms([np.zeros((2, 2)), np.zeros((3, 3))])
        with pytest.raises(ValueError, match="order 4"):
            operator_norm(np.zeros((2, 2, 2, 2)))


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
    p = model.bundle.degree
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
    p = model.bundle.degree
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
        (model.bundle.degree, model.bundle.dim, j)
        for model, s in kernel_cases()
        for j in range(1, model.bundle.degree + 1)
        if not same_bits(ours(model, s, j), reference(model, s, j))
    ]


class TestKernelsMatchTheReference:
    def test_taylor_decrement(self):
        assert mismatches(lambda m, s, j: taylor_decrement(m.bundle, s, j),
                          lambda m, s, j: ref_taylor_decrement(m.bundle, s, j)) == []

    def test_model_eval_and_decrement(self):
        assert mismatches(lambda m, s, j: _ModelPoint(m, s).decrement(),
                          lambda m, s, j: ref_model_decrement(m, s)) == []

    def test_shifted_model_derivatives(self):
        assert mismatches(lambda m, s, j: _ModelPoint(m, s).derivative(j),
                          ref_shifted_model_derivatives) == []

    def test_one_point_serves_value_and_derivatives(self):
        # The solver's order: decrement first, then derivatives from the
        # same point's products.
        for model, s in kernel_cases():
            point = tensors._ModelPoint(model, s)
            assert same_bits(point.decrement(), ref_model_decrement(model, s))
            for j in range(1, max(model.bundle.degree, 2) + 1):
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
        # Wherever v.dot(v) is finite and not far under the normal range.
        rng = np.random.default_rng(n)
        for scale in (0.0, 1e-20, 1.0, 1e20, 1e150):
            v = scale * rng.standard_normal(n)
            assert same_bits(tensors._norm(v), np.linalg.norm(v))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 200])
    def test_norm_outside_the_range_of_squares_is_numpys_scaled(self, n):
        # The same bits as numpy's norm of v brought into range by a power
        # of two, scaled back: the squares underflow or overflow unscaled.
        rng = np.random.default_rng(n)
        for scale, k in ((1e-170, 600), (1e-160, 600), (1e155, -600), (1e300, -600)):
            v = scale * rng.standard_normal(n)
            with np.errstate(over="ignore"):
                got = tensors._norm(v)
            assert same_bits(got, math.ldexp(np.linalg.norm(np.ldexp(v, k)), -k))

    @pytest.mark.parametrize("v, want", [
        ((1e-170, 1e-170), 1.4142135623730951e-170),
        ((3e-160, 4e-160), 5e-160),
        ((1e155, 1e155), 1.414213562373095e155),
    ])
    def test_norm_where_squares_underflow_or_overflow(self, v, want):
        # `operator_norm` at every order scales the same way, alone or
        # stacked beside a tensor whose squares are in range.
        v = np.array(v)
        square, cube = np.diag(v), np.zeros((2, 2, 2))
        cube[0, 0, 0], cube[1, 1, 1] = v
        with np.errstate(over="ignore"):
            assert tensors._norm(v) == want
            assert operator_norm(v) == operator_norm(square) == operator_norm(cube) == want
            assert tensors.operator_norms([v, np.ones(2)]).tolist() == [want, math.sqrt(2.0)]
            assert tensors.operator_norms([np.ones((2, 2)), square]).tolist() == [2.0, want]
            assert tensors.operator_norms([np.ones((2, 2, 2)), cube]).tolist() == [
                math.sqrt(8.0), want]

    def test_model_point_norm_scales_with_its_displacement(self):
        # At 2**-538 s the squares of s are under the normal range.
        for s in (np.array([0.3]), np.array([0.75, -0.4, 1.1])):
            model = RegularizedModel(random_bundle(np.random.default_rng(s.size), s.size, 2), 1.0)
            tiny = tensors._ModelPoint(model, np.ldexp(s, -538))
            assert tiny.norm == math.ldexp(tensors._ModelPoint(model, s).norm, -538)
