"""Three-valued accuracy verdict on an inexact Taylor decrement.

Given the absolute error bounds in force for the derivative tensors behind
a degree-r Taylor decrement, decide whether the decrement is trustworthy in
relative terms, certifiably small in absolute terms, or neither.  The
decision is a pure comparison; callers own the consequences (typically:
``insufficient`` triggers a global accuracy tightening).
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = ["CheckOutcome", "check"]


class CheckOutcome(Enum):
    RELATIVE = "relative"
    ABSOLUTE = "absolute"
    INSUFFICIENT = "insufficient"

    @property
    def sufficient(self) -> bool:
        return self is not CheckOutcome.INSUFFICIENT


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
        Absolute smallness target, > 0.
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
    if not xi > 0:
        raise ValueError(f"xi must be > 0, got {xi}")
    if not 0 < omega < 1:
        raise ValueError(f"omega must be in (0, 1), got {omega}")
    if not accuracies:
        raise ValueError("accuracies must be nonempty")
    if not all(a >= 0 for a in accuracies):
        raise ValueError(f"accuracies must be >= 0, got {accuracies}")

    r = len(accuracies)
    error_sum = sum(
        a * delta**i / math.factorial(i) for i, a in enumerate(accuracies, start=1)
    )
    if decrement > 0 and error_sum <= omega * decrement:
        return CheckOutcome.RELATIVE
    if error_sum <= omega * xi * delta**r / math.factorial(r):
        return CheckOutcome.ABSOLUTE
    return CheckOutcome.INSUFFICIENT
