"""Worst-case constants and evaluation bounds implied by a configuration.

Everything here is a literal transcription of the theory's displayed
formulas, evaluated numerically so the property suite can assert that runs
stay inside the guaranteed envelope.  Nothing in this module feeds back
into the algorithm.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .solver import ConfigError, SolverConfig

__all__ = ["BoundReport", "compute_bounds", "digits_demanded"]


def digits_demanded(trace) -> float | None:
    """Decimal digits of accuracy demanded per derivative evaluation.

    The mean, over the records that evaluated a derivative bundle, of
    ``sum_i -log10(acc_i)`` over the positive accuracies; None when no such
    record demands a positive accuracy (an exact run).  Under a cost model
    where a tighter demand costs more, this shows whether fewer evaluations
    were bought with tighter ones.
    """
    demands = [rec.acc[rec.acc > 0] for rec in trace if rec.derivative_evals > 0]
    if not any(d.size for d in demands):
        return None
    return float(np.mean([-np.log10(d).sum() for d in demands]))


@contextmanager
def _float_range(name: str):
    """Report an overflow or a division by an underflowed zero while
    computing the bound constant `name` as a `ConfigError` naming it."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"bound constant {name} is out of float range: {exc.args[-1]}") from None


@dataclass(frozen=True)
class BoundReport:
    """Constants derived from a configuration and problem-scale estimates.

    ``kappa_delta`` is the non-increasing radius-floor function of sigma;
    the rest are scalars (per-order tuples where indicated, index j-1 for
    order j).
    """

    l_f: float
    l_bar_f: float
    sigma_max: float
    kappa_s: float
    kappa_delta: object  # sigma -> float
    kappa_delta_min: float
    kappa_dm: float
    pi: tuple
    step_lower_bounds: tuple
    kappa_sharp2_max: float
    kappa_acc: float
    k_acc_min: int
    kappa_s_evals: float  # per-successful-iteration constant in both bounds
    kappa_a_evals: float
    kappa_c_evals: float
    kappa_e_evals: float
    kappa_f_evals: float
    n_value_evals: float
    n_derivative_evals: float

    def as_dict(self) -> dict:
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("kappa_delta", "pi", "step_lower_bounds")
        }
        for j, (pi_j, slb) in enumerate(zip(self.pi, self.step_lower_bounds), start=1):
            out[f"pi_{j}"] = pi_j
            out[f"step_lower_bound_{j}"] = slb
        return out


def compute_bounds(config: SolverConfig, l_f: float, f0_minus_flow: float) -> BoundReport:
    """Evaluate every theoretical constant for the given configuration.

    Parameters
    ----------
    config : SolverConfig
        Validated run parameters.
    l_f : float
        Lipschitz-scale constant for the derivatives in play (>= 1); used
        both as the overall derivative bound and for the order-p constant.
    f0_minus_flow : float
        Gap between the starting value and the problem's lower bound, >= 0.

    A constant that is not positive, or whose formula overflows (to inf
    or with an `OverflowError`) or divides by an underflowed zero, raises
    `ConfigError` naming it.
    """
    if not l_f >= 1.0:
        raise ConfigError(f"l_f must be >= 1, got {l_f}")
    if not f0_minus_flow >= 0.0:
        raise ConfigError(f"f0_minus_flow must be >= 0, got {f0_minus_flow}")

    p, q = config.p, config.q
    omega = config.omega
    theta = config.theta
    varsigma = config.varsigma
    eps = np.asarray(config.epsilons)
    eps_min = float(np.min(eps))
    acc_max = config.acc_max

    l_bar = l_f + acc_max
    sigma_max = max(config.sigma0, config.gamma3 * 4.0 * l_f / (1.0 - config.eta2))
    base_s = 2.0 * l_bar * math.factorial(p + 1) / config.sigma_min
    kappa_s = max(base_s, base_s ** (1.0 / p))

    def kappa_delta(sigma: float) -> float:
        return (
            varsigma
            * theta
            * (1.0 - omega)
            / (8.0 * (1.0 + omega) * (3.0 * l_bar + sigma))
        )

    kappa_delta_min = kappa_delta(sigma_max)

    if q <= 2:
        pi = tuple((p + 1.0) / (p - j + 1.0) for j in range(1, q + 1))
        dm_base = (
            varsigma
            * (1.0 - theta)
            * (1.0 - omega)
            / (2.0 * math.factorial(q) * (l_f + sigma_max) * (1.0 + omega))
        )
        kappa_dm = (
            config.sigma_min
            / math.factorial(p + 1)
            * dm_base ** ((p + 1.0) / (p - q + 1.0))
        )
        step_lower = tuple(
            (
                varsigma
                * (1.0 - theta)
                * (1.0 - omega)
                / (2.0 * math.factorial(j) * (l_f + sigma_max) * (1.0 + omega))
            )
            ** (1.0 / (p - j + 1.0))
            * eps[j - 1] ** (1.0 / (p - j + 1.0))
            for j in range(1, q + 1)
        )
    else:
        pi = tuple(j * (p + 1.0) / p for j in range(1, q + 1))
        dm_base = (
            varsigma
            * (1.0 - theta)
            * (1.0 - omega)
            * kappa_delta_min ** (q - 1)
            / (2.0 * math.factorial(q) * (l_f + sigma_max) * (1.0 + omega))
        )
        kappa_dm = (
            config.sigma_min
            / math.factorial(p + 1)
            * dm_base ** (q * (p + 1.0) / p)
        )
        step_lower = tuple(
            (
                varsigma
                * (1.0 - theta)
                * (1.0 - omega)
                * kappa_delta_min ** (j - 1)
                / (2.0 * math.factorial(j) * (l_f + sigma_max) * (1.0 + omega))
            )
            ** (1.0 / p)
            * eps[j - 1] ** (j / p)
            for j in range(1, q + 1)
        )

    def kappa_sharp2(sigma: float) -> float:
        return (
            varsigma
            * omega
            * kappa_delta(sigma) ** q
            / (4.0 * math.factorial(q) * (1.0 + omega))
        ) * min(1.0 / max(1.0, kappa_s**p), theta * (1.0 - omega) / (3.0 * (1.0 + omega)))

    with _float_range("kappa_sharp2_max"):
        kappa_sharp2_max = kappa_sharp2(sigma_max)
    kappa_acc = min(
        varsigma * omega / (4.0 * math.factorial(q)) * kappa_delta_min ** (q - 1),
        kappa_sharp2_max,
    )

    # Smallest improvement count after which no accuracy check can fail.
    if acc_max == 0.0:
        k_acc_min = 0
    else:
        ratio = kappa_acc * eps_min ** (q + 1) / acc_max
        if ratio == 0.0:  # underflowed: no finite power of gamma_acc reaches it
            raise ConfigError(f"bound constant k_acc_min is not finite at acc_max={acc_max}")
        if ratio >= 1.0:
            k_acc_min = 0
        else:
            k_acc_min = int(math.ceil(math.log(ratio) / math.log(config.gamma_acc)))

    with _float_range("kappa_s_evals"):
        if q <= 2:
            kappa_s_evals = (
                math.factorial(p + 1)
                / ((config.eta1 - 2.0 * omega) * config.sigma_min)
                * (
                    2.0
                    * math.factorial(q)
                    * (l_f + acc_max + sigma_max)
                    * (1.0 + omega)
                    / ((1.0 - theta) * (1.0 - omega))
                )
            )
            kappa_a_evals = 2.0 * kappa_s_evals * (
                1.0 + abs(math.log(config.gamma1)) / math.log(config.gamma2)
            )
        else:
            kappa_s_evals = (
                math.factorial(p + 1)
                / ((config.eta1 - 2.0 * omega) * config.sigma_min)
                * (
                    2.0
                    * math.factorial(q)
                    * (l_f + sigma_max)
                    * (1.0 + omega)
                    / ((1.0 - theta) * (1.0 - omega) * kappa_delta_min ** (q - 1))
                )
                ** ((p + 1.0) / p)
            )
            kappa_a_evals = kappa_s_evals * (
                1.0 + abs(math.log(config.gamma1)) / math.log(config.gamma2)
            )
    kappa_c_evals = (
        2.0 / math.log(config.gamma2) * math.log(sigma_max / config.sigma0) + 2.0
    )
    kappa_e_evals = (q + 1.0) / abs(math.log(config.gamma_acc))
    if acc_max == 0.0:
        kappa_f_evals = 2.0
    else:
        kappa_f_evals = (
            abs(math.log(kappa_acc / acc_max)) / abs(math.log(config.gamma_acc)) + 2.0
        )

    eps_power = float(np.min([eps[j - 1] ** pi[j - 1] for j in range(1, q + 1)]))
    with _float_range("n_value_evals"):
        n_value = kappa_a_evals * f0_minus_flow / eps_power + kappa_c_evals
    with _float_range("n_derivative_evals"):
        if acc_max == 0.0:
            n_deriv = kappa_s_evals * f0_minus_flow / eps_power + kappa_f_evals
        else:
            n_deriv = (
                kappa_s_evals * f0_minus_flow / eps_power
                + kappa_e_evals * abs(math.log(eps_min))
                + kappa_f_evals
            )

    report = BoundReport(
        l_f=float(l_f),
        l_bar_f=float(l_bar),
        sigma_max=float(sigma_max),
        kappa_s=float(kappa_s),
        kappa_delta=kappa_delta,
        kappa_delta_min=float(kappa_delta_min),
        kappa_dm=float(kappa_dm),
        pi=pi,
        step_lower_bounds=tuple(float(s) for s in step_lower),
        kappa_sharp2_max=float(kappa_sharp2_max),
        kappa_acc=float(kappa_acc),
        k_acc_min=int(k_acc_min),
        kappa_s_evals=float(kappa_s_evals),
        kappa_a_evals=float(kappa_a_evals),
        kappa_c_evals=float(kappa_c_evals),
        kappa_e_evals=float(kappa_e_evals),
        kappa_f_evals=float(kappa_f_evals),
        n_value_evals=float(n_value),
        n_derivative_evals=float(n_deriv),
    )
    for name, value in report.as_dict().items():
        if name == "k_acc_min":
            if value < 0:
                raise ConfigError(f"bound constant {name} is negative: {value}")
        elif not value > 0.0:
            raise ConfigError(f"bound constant {name} is not positive: {value}")
        elif value == math.inf:
            raise ConfigError(f"bound constant {name} is out of float range: {value}")
    return report
