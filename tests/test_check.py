import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arq.check import CheckOutcome, check


class TestExamples:
    def test_relative(self):
        out = check(0.5, 1.0, [0.01], xi=0.05, omega=0.02)
        assert out is CheckOutcome.RELATIVE
        assert out.sufficient

    def test_absolute_boundary_equality(self):
        # error sum 0.0005 equals omega*xi*delta exactly -> absolute
        out = check(0.5, 0.0, [0.001], xi=0.05, omega=0.02)
        assert out is CheckOutcome.ABSOLUTE
        assert out.sufficient

    def test_insufficient(self):
        out = check(0.5, 1.0, [1.0], xi=0.05, omega=0.02)
        assert out is CheckOutcome.INSUFFICIENT
        assert not out.sufficient


class TestValidation:
    def test_negative_decrement_rejected(self):
        with pytest.raises(ValueError):
            check(0.5, -1e-12, [0.01], xi=0.05, omega=0.02)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            check(0.0, 1.0, [0.01], xi=0.05, omega=0.02)

    def test_bad_omega(self):
        with pytest.raises(ValueError):
            check(0.5, 1.0, [0.01], xi=0.05, omega=1.0)

    def test_empty_accuracies(self):
        with pytest.raises(ValueError):
            check(0.5, 1.0, [], xi=0.05, omega=0.02)

    @pytest.mark.parametrize(
        "name, args",
        [
            ("decrement", (0.5, math.nan, [0.01], 0.05, 0.02)),
            ("delta", (math.nan, 1.0, [0.01], 0.05, 0.02)),
            ("xi", (0.5, 1.0, [0.01], math.nan, 0.02)),
            ("omega", (0.5, 1.0, [0.01], 0.05, math.nan)),
            ("accuracies", (0.5, 1.0, [0.01, math.nan], 0.05, 0.02)),
            ("accuracies", (0.5, 1.0, np.array([math.nan]), 0.05, 0.02)),
        ],
    )
    def test_nan_rejected_by_name(self, name, args):
        # A NaN decrement used to be certified as small (ABSOLUTE).
        with pytest.raises(ValueError, match=f"^{name} must"):
            check(*args)


class TestZeroAccuracies:
    def test_relative_whenever_positive(self):
        assert check(0.7, 1e-30, [0.0, 0.0], xi=1.0, omega=0.02) is CheckOutcome.RELATIVE

    def test_absolute_at_zero_decrement(self):
        assert check(0.7, 0.0, [0.0, 0.0], xi=1.0, omega=0.02) is CheckOutcome.ABSOLUTE


def _error_sum(accs, delta):
    return sum(a * delta**i / math.factorial(i) for i, a in enumerate(accs, start=1))


@st.composite
def check_inputs(draw):
    r = draw(st.integers(1, 3))
    delta = draw(st.floats(0.05, 1.5))
    decrement = draw(st.floats(0.0, 10.0))
    accs = [10.0 ** draw(st.floats(-8, 0)) for _ in range(r)]
    xi = 10.0 ** draw(st.floats(-4, 1))
    omega = draw(st.floats(0.001, 0.999))
    return delta, decrement, accs, xi, omega


class TestProperties:
    @given(check_inputs())
    @settings(max_examples=500, deadline=None)
    def test_small_errors_are_never_insufficient(self, inputs):
        # Whenever the error sum is within the absolute budget, the verdict
        # must be sufficient.
        delta, decrement, accs, xi, omega = inputs
        r = len(accs)
        if _error_sum(accs, delta) <= omega * xi * delta**r / math.factorial(r):
            assert check(delta, decrement, accs, xi, omega).sufficient

    @given(check_inputs(), st.floats(0.0, 1.0))
    @settings(max_examples=500, deadline=None)
    def test_shrinking_errors_preserves_sufficiency(self, inputs, scale):
        delta, decrement, accs, xi, omega = inputs
        before = check(delta, decrement, accs, xi, omega)
        after = check(delta, decrement, [scale * a for a in accs], xi, omega)
        if before.sufficient:
            assert after.sufficient

    @given(check_inputs())
    @settings(max_examples=500, deadline=None)
    def test_relative_evaluated_first(self, inputs):
        delta, decrement, accs, xi, omega = inputs
        r = len(accs)
        err = _error_sum(accs, delta)
        relative_holds = decrement > 0 and err <= omega * decrement
        absolute_holds = err <= omega * xi * delta**r / math.factorial(r)
        out = check(delta, decrement, accs, xi, omega)
        if relative_holds:
            assert out is CheckOutcome.RELATIVE
        elif absolute_holds:
            assert out is CheckOutcome.ABSOLUTE
        else:
            assert out is CheckOutcome.INSUFFICIENT
