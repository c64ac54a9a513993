import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arq.check import CheckOutcome, Margins, Shortfall, check, verdict


class TestExamples:
    def test_relative(self):
        out = check(0.5, 1.0, [0.01], xi=0.05, omega=0.02)
        assert out is CheckOutcome.RELATIVE

    def test_absolute_boundary_equality(self):
        # error sum 0.0005 equals omega*xi*delta exactly -> absolute
        out = check(0.5, 0.0, [0.001], xi=0.05, omega=0.02)
        assert out is CheckOutcome.ABSOLUTE

    def test_insufficient(self):
        out = check(0.5, 1.0, [1.0], xi=0.05, omega=0.02)
        assert out is CheckOutcome.INSUFFICIENT


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

    def test_underflowed_target_passes_only_an_exact_error_sum(self):
        # 0.5 * 5e-324, step 1's target for the smallest epsilon, is 0.0.
        assert check(0.7, 0.0, [0.0], xi=0.5 * 5e-324, omega=0.02) is CheckOutcome.ABSOLUTE
        assert check(0.7, 0.0, [5e-324], xi=0.0, omega=0.02) is CheckOutcome.INSUFFICIENT


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
            assert check(delta, decrement, accs, xi, omega) is not CheckOutcome.INSUFFICIENT

    @given(check_inputs(), st.floats(0.0, 1.0))
    @settings(max_examples=500, deadline=None)
    def test_shrinking_errors_preserves_sufficiency(self, inputs, scale):
        delta, decrement, accs, xi, omega = inputs
        before = check(delta, decrement, accs, xi, omega)
        after = check(delta, decrement, [scale * a for a in accs], xi, omega)
        if before is not CheckOutcome.INSUFFICIENT:
            assert after is not CheckOutcome.INSUFFICIENT

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


def _shortfall(args):
    """The `Shortfall` of a check on valid arguments `args`."""
    return Shortfall.at("c", verdict(*args)[1])


def _scaled(args, factor):
    delta, decrement, accs, xi, omega = args
    return delta, decrement, [factor * a for a in accs], xi, omega


class TestShortfallSteps:
    """k is the least exponent with gamma**k * error_sum <= threshold."""

    def test_one_factor_suffices(self):
        # error sum 0.1 against omega * decrement = 0.04: one quarter clears it
        args = (1.0, 2.0, [0.1], 0.05, 0.02)
        assert check(*args) is CheckOutcome.INSUFFICIENT
        assert _shortfall(args).steps(0.25, 8) == 1
        assert check(*_scaled(args, 0.25)) is CheckOutcome.RELATIVE

    def test_boundary_equality_passes(self):
        # error sum 1 against omega * decrement = 0.25, with gamma = 0.25 and
        # 0.5 landing on the threshold exactly (powers of two)
        args = (1.0, 1.0, [1.0], 0.05, 0.25)
        short = _shortfall(args)
        assert (short.error_sum, short.threshold) == (1.0, 0.25)
        assert short.steps(0.25, 8) == 1
        assert short.steps(0.5, 8) == 2
        assert check(*_scaled(args, 0.25)) is CheckOutcome.RELATIVE

    def test_zero_decrement_uses_the_absolute_threshold(self):
        # threshold omega * xi * delta = 5e-4 against error sum 0.5:
        # 0.25**4 * 0.5 = 2.0e-3 fails, 0.25**5 * 0.5 = 4.9e-4 passes
        args = (0.5, 0.0, [1.0], 0.05, 0.02)
        short = _shortfall(args)
        m = verdict(*args)[1]
        assert short.threshold == m.absolute > m.relative
        assert short.steps(0.25, 8) == 5
        assert check(*_scaled(args, 0.25**4)) is CheckOutcome.INSUFFICIENT
        assert check(*_scaled(args, 0.25**5)) is CheckOutcome.ABSOLUTE

    def test_cap_is_hit(self):
        args = (1.0, 1.0, [1e6], 0.05, 0.02)
        assert _shortfall(args).steps(0.25, 8) == 8
        assert _shortfall(args).steps(0.25, 3) == 3

    def test_underflowed_threshold_gives_the_cap(self):
        # delta**2 underflows to 0, so with a zero decrement both thresholds
        # are 0 while the order-1 error term stays positive
        args = (1e-200, 0.0, [1.0, 1.0], 0.05, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            short = _shortfall(args)
            k = short.steps(0.25, 8)
        assert short.threshold == 0.0 and short.error_sum > 0.0
        assert k == 8

    @given(check_inputs())
    @settings(max_examples=500, deadline=None)
    def test_steps_agree_with_check(self, inputs):
        # gamma = 0.25 scales the error sum exactly, so `check` on the
        # scaled accuracies passes at k and fails at k - 1
        if check(*inputs) is not CheckOutcome.INSUFFICIENT:
            return
        k = _shortfall(inputs).steps(0.25, 8)
        assert 1 <= k <= 8
        if k > 1:
            assert check(*_scaled(inputs, 0.25 ** (k - 1))) is CheckOutcome.INSUFFICIENT
        if k < 8:
            assert check(*_scaled(inputs, 0.25**k)) is not CheckOutcome.INSUFFICIENT


class TestVerdictKernel:
    """`verdict` is `check` without the validation, and returns the
    margins it compared."""

    @given(check_inputs())
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_the_validated_check(self, inputs):
        outcome, m = verdict(*inputs)
        assert outcome is check(*inputs)
        delta, decrement, accs, xi, omega = inputs
        r = len(accs)
        assert m == Margins(_error_sum(accs, delta), omega * decrement,
                            omega * xi * delta**r / math.factorial(r))
        assert Shortfall.at("c", m) == Shortfall("c", m.error_sum,
                                                 max(m.relative, m.absolute))

    def test_skips_the_validation(self):
        # A negative decrement, which `check` rejects, is compared as given.
        args = (0.5, -1.0, [0.01], 0.05, 0.02)
        with pytest.raises(ValueError, match="^decrement must"):
            check(*args)
        assert verdict(*args)[0] is CheckOutcome.INSUFFICIENT
