"""Three-valued accuracy verdict on an inexact Taylor decrement.

Given the absolute error bounds in force for the derivative tensors behind
a degree-r Taylor decrement, decide whether the decrement is trustworthy in
relative terms, certifiably small in absolute terms, or neither.  The
decision is a pure comparison; callers own the consequences (typically:
``insufficient`` triggers a global accuracy tightening, whose size the
failed check's `Shortfall` sets).

`check` validates its arguments.  The solver's own checks pass values it
built itself and call the kernel, `verdict`, which skips that validation
and returns the margins with the outcome, so an insufficient check's
`Shortfall` reuses them (`Shortfall.at`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = ["CheckOutcome", "Margins", "Shortfall", "check", "verdict"]


class CheckOutcome(Enum):
    RELATIVE = "relative"
    ABSOLUTE = "absolute"
    INSUFFICIENT = "insufficient"


class Margins(NamedTuple):
    """The numbers a check compares: the error sum and its two thresholds."""

    error_sum: float  # sum_i accuracies[i] * delta^i / i!
    relative: float  # omega * decrement
    absolute: float  # omega * xi * delta^r / r!


def verdict(delta: float, decrement: float, accuracies: list, xi: float,
            omega: float) -> tuple:
    """``(outcome, margins)`` of `check` on arguments the caller vouches
    for, unvalidated: floats in `check`'s ranges, and the accuracies a
    nonempty list of floats.

    The error sum is linear in the accuracies, so scaling every accuracy by
    c scales it by c and leaves both thresholds alone.
    """
    r = len(accuracies)
    error_sum = sum(
        a * delta**i / math.factorial(i) for i, a in enumerate(accuracies, start=1)
    )
    m = Margins(error_sum, omega * decrement, omega * xi * delta**r / math.factorial(r))
    if decrement > 0 and m.error_sum <= m.relative:
        return CheckOutcome.RELATIVE, m
    if m.error_sum <= m.absolute:
        return CheckOutcome.ABSOLUTE, m
    return CheckOutcome.INSUFFICIENT, m


def check(delta, decrement, accuracies, xi, omega) -> CheckOutcome:
    """Classify the accuracy of a nonnegative degree-r Taylor decrement.

    Parameters
    ----------
    delta : float
        Radius bounding the displacement behind `decrement`; > 0.
    decrement : float
        The inexact Taylor decrement; callers guarantee it is >= 0.
    accuracies : sequence of float
        Absolute error bounds on the tensor orders 1..r, all >= 0.
    xi : float
        Absolute smallness target, >= 0.  A target that underflowed to 0
        (from a subnormal epsilon, say) passes only a zero error sum as
        absolute, which the true, positive target passes too.
    omega : float
        Relative accuracy target, in (0, 1).

    Returns
    -------
    CheckOutcome
        RELATIVE if the decrement is positive and the worst-case error sum
        ``sum_i accuracies[i] * delta^i / i!`` is at most ``omega *
        decrement``; otherwise ABSOLUTE if the error sum is at most
        ``omega * xi * delta^r / r!``; otherwise INSUFFICIENT.  The relative
        branch is evaluated first and boundary equality qualifies.
    """
    delta = float(delta)
    decrement = float(decrement)
    xi = float(xi)
    omega = float(omega)
    if isinstance(accuracies, np.ndarray):
        accuracies = accuracies.tolist()  # much faster than iterating the array
    accuracies = [float(a) for a in accuracies]
    # Written as `not x >= 0` so that NaN fails every check.
    if not decrement >= 0:
        raise ValueError(f"decrement must be >= 0, got {decrement}")
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if not xi >= 0:
        raise ValueError(f"xi must be >= 0, got {xi}")
    if not 0 < omega < 1:
        raise ValueError(f"omega must be in (0, 1), got {omega}")
    if not accuracies:
        raise ValueError("accuracies must be nonempty")
    if not all(a >= 0 for a in accuracies):
        raise ValueError(f"accuracies must be >= 0, got {accuracies}")
    return verdict(delta, decrement, accuracies, xi, omega)[0]


@dataclass(frozen=True)
class Shortfall:
    """An insufficient check: where it was made (``cause``), its error sum
    and the larger of its two thresholds, which the error sum must not
    exceed for the check to pass."""

    cause: str
    error_sum: float
    threshold: float

    @classmethod
    def at(cls, cause: str, m: Margins) -> Shortfall:
        """The shortfall of a check that compared the margins `m`."""
        return cls(cause, m.error_sum, max(m.relative, m.absolute))

    def steps(self, gamma: float, cap: int) -> int:
        """Least k in 1..cap with ``gamma**k * error_sum <= threshold``
        (boundary equality passes, as in `check`), or `cap` when none is.

        Scaling every accuracy by ``gamma**k`` scales the error sum by it,
        so k is how many accuracy tightenings the check needs at its
        current decrement.  A threshold of 0 (say, ``delta**r`` underflowed
        with a zero decrement) gives `cap`.
        """
        for k in range(1, cap):
            if gamma**k * self.error_sum <= self.threshold:
                return k
        return cap
