"""Worst-case constants and evaluation bounds implied by a configuration.

Everything here is a transcription of the theory's displayed formulas,
evaluated in the logs of their factors so the property suite can assert
that runs stay inside the guaranteed envelope.  Nothing in this module feeds back
into the algorithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .solver import ConfigError, SolverConfig, value_request_bound

__all__ = ["BoundReport", "compute_bounds", "digits_demanded", "value_digits_demanded"]


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


def value_digits_demanded(trace, config: SolverConfig) -> float | None:
    """Decimal digits of accuracy demanded per value evaluation.

    The mean, over the value requests, of -log10 of the bound each was
    made at.  Step 3 makes every value request of a record with a step at
    `value_request_bound` of its ``dec_bar``, so each such record counts
    its value evaluations at that bound.  None when no record requests a
    value.  The value counterpart of `digits_demanded`.
    """
    requests = [(rec.value_evals, value_request_bound(config, rec.dec_bar))
                for rec in trace if rec.dec_bar is not None and rec.value_evals]
    if not requests:
        return None
    counts, bounds = zip(*requests)
    return float(np.average(-np.log10(bounds), weights=counts))


_LN_FACTORIAL = tuple(math.log(math.factorial(n)) for n in range(5))  # n <= p + 1 <= 4


def _exp(ln_x: float) -> float:
    """e**ln_x, inf above float range (0.0 below it, as `math.exp` gives)."""
    try:
        return math.exp(ln_x)
    except OverflowError:
        return math.inf


def _ln_sum(ln_a: float, ln_b: float) -> float:
    """ln(a + b) from ln a and ln b, either of which may be inf."""
    hi, lo = max(ln_a, ln_b), min(ln_a, ln_b)
    if hi == math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


def _ln_pow(ln_x: float, k: int) -> float:
    """ln(x**k) from ln x, with x**0 = 1 also where x is 0 or inf."""
    return k * ln_x if k else 0.0


@dataclass(frozen=True)
class BoundReport:
    """Constants derived from a configuration and problem-scale estimates.

    All are scalars (per-order tuples where indicated, index j-1 for
    order j).

    Every value is true, never NaN or negative.  One whose exact value lies
    above float range reads ``inf`` (an upper bound or an evaluation count)
    and one below it reads ``0.0`` (a lower bound such as ``kappa_dm``,
    ``kappa_acc`` or a step lower bound): both are true but vacuous.
    ``k_acc_min`` is a finite int unless ``l_f`` is inf and ``acc_max`` is
    positive, when no count suffices and it reads ``inf``.
    """

    l_f: float
    l_bar_f: float
    sigma_max: float
    kappa_s: float
    kappa_delta_min: float
    kappa_dm: float
    pi: tuple
    step_lower_bounds: tuple
    kappa_sharp2_max: float
    kappa_acc: float
    k_acc_min: int  # or inf, see above
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
            if f.name not in ("pi", "step_lower_bounds")
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
        Lipschitz-scale constant for the derivatives in play, in [1, inf].
        The formulas use it both as the overall derivative bound and as
        the order-p constant, so it should bound both.  The start estimate
        (`arq.oracle.estimate_lipschitz`) does: it takes the maximum over
        orders 0..p.  The sweep's ``l_visited`` is the order-p constant
        alone and can read far less (ROADMAP item 7).
    f0_minus_flow : float
        Gap between the starting value and the problem's lower bound, in
        [0, inf].

    Each constant is computed as the sum of the natural logs of its factors
    and exponentiated once, so every accepted configuration gets a report
    (see `BoundReport` for how values outside float range read).  An
    argument outside its interval, NaN included, raises `ConfigError`.
    """
    if not l_f >= 1.0:
        raise ConfigError(f"l_f must be >= 1, got {l_f}")
    if not f0_minus_flow >= 0.0:
        raise ConfigError(f"f0_minus_flow must be >= 0, got {f0_minus_flow}")

    ln = math.log
    ln_fact = _LN_FACTORIAL
    p, q = config.p, config.q
    omega = config.omega
    theta = config.theta
    varsigma = config.varsigma
    eps = config.epsilons
    eps_min = min(eps)
    acc_max = config.acc_max
    ln_vs, ln_th, ln_1mth = ln(varsigma), ln(theta), ln(1.0 - theta)
    ln_w, ln_1mw, ln_1pw = ln(omega), ln(1.0 - omega), ln(1.0 + omega)
    ln_smin = ln(config.sigma_min)
    ln_lf = ln(l_f)

    # Both overflow to inf in float arithmetic exactly where their true
    # values lie above float range; the constants below use their logs.
    l_bar = l_f + acc_max
    sigma_max = max(config.sigma0, config.gamma3 * 4.0 * l_f / (1.0 - config.eta2))
    ln_lbar = ln_lf + math.log1p(acc_max / l_f)
    ln_smax = max(ln(config.sigma0), ln(4.0) + ln(config.gamma3) + ln_lf - ln(1.0 - config.eta2))
    ln_lf_smax = _ln_sum(ln_lf, ln_smax)
    # kappa_s = max(b, b**(1/p)) with b = 2 l_bar (p+1)! / sigma_min
    ln_base_s = ln(2.0) + ln_lbar + ln_fact[p + 1] - ln_smin
    ln_ks = max(ln_base_s, ln_base_s / p)

    # kappa_delta(sigma) = varsigma theta (1 - omega) / (8 (1 + omega)(3 l_bar + sigma)),
    # the radius floor, falls as sigma rises: its least value is at sigma_max.
    ln_kdmin = (ln_vs + ln_th + ln_1mw - ln(8.0) - ln_1pw
                - _ln_sum(ln(3.0) + ln_lbar, ln_smax))
    # c = varsigma (1 - theta)(1 - omega) / (2 (l_f + sigma_max)(1 + omega))
    ln_c = ln_vs + ln_1mth + ln_1mw - ln(2.0) - ln_lf_smax - ln_1pw

    if q <= 2:
        # kappa_dm = sigma_min / (p+1)! * (c / q!)**((p+1) / (p-q+1));
        # step lower bound j = (c / j! * eps_j)**(1 / (p-j+1))
        pi = tuple((p + 1.0) / (p - j + 1.0) for j in range(1, q + 1))
        ln_kdm = ln_smin - ln_fact[p + 1] + (ln_c - ln_fact[q]) * ((p + 1.0) / (p - q + 1.0))
        ln_step_lower = tuple(
            (ln_c - ln_fact[j]) / (p - j + 1.0) + ln(eps[j - 1]) / (p - j + 1.0)
            for j in range(1, q + 1)
        )
    else:
        # kappa_dm = sigma_min / (p+1)! * (c kappa_delta_min**(q-1) / q!)**(q (p+1) / p);
        # step lower bound j = (c kappa_delta_min**(j-1) / j!)**(1/p) * eps_j**(j/p)
        pi = tuple(j * (p + 1.0) / p for j in range(1, q + 1))
        ln_dm_base = ln_c + (q - 1) * ln_kdmin - ln_fact[q]
        ln_kdm = ln_smin - ln_fact[p + 1] + ln_dm_base * (q * (p + 1.0) / p)
        ln_step_lower = tuple(
            (ln_c + _ln_pow(ln_kdmin, j - 1) - ln_fact[j]) / p + ln(eps[j - 1]) * (j / p)
            for j in range(1, q + 1)
        )

    # kappa_sharp2(sigma) = varsigma omega kappa_delta(sigma)**q / (4 q! (1 + omega))
    #     * min(1 / max(1, kappa_s**p), theta (1 - omega) / (3 (1 + omega)))
    ln_ksh2_max = (
        ln_vs + ln_w + q * ln_kdmin - ln(4.0) - ln_fact[q] - ln_1pw
        + min(-max(0.0, p * ln_ks), ln_th + ln_1mw - ln(3.0) - ln_1pw)
    )
    # kappa_acc = min(varsigma omega kappa_delta_min**(q-1) / (4 q!), kappa_sharp2_max)
    ln_kacc = min(ln_vs + ln_w - ln(4.0) - ln_fact[q] + _ln_pow(ln_kdmin, q - 1), ln_ksh2_max)

    # kappa_s_evals = (p+1)! / ((eta1 - 2 omega) sigma_min) * e, where
    # e = 2 q! (l_bar + sigma_max)(1 + omega) / ((1 - theta)(1 - omega)) for q <= 2
    # and (2 q! (l_f + sigma_max)(1 + omega)
    #      / ((1 - theta)(1 - omega) kappa_delta_min**(q-1)))**((p+1)/p) for q = 3.
    ln_kse = ln_fact[p + 1] - ln(config.eta1 - 2.0 * omega) - ln_smin
    ln_kse_core = ln(2.0) + ln_fact[q] + ln_1pw - ln_1mth - ln_1mw
    # kappa_a_evals = kappa_s_evals (1 + |ln gamma1| / ln gamma2), twice that for q <= 2
    ln_gamma_ratio = math.log1p(abs(ln(config.gamma1)) / ln(config.gamma2))
    if q <= 2:
        ln_kse += ln_kse_core + _ln_sum(ln_lbar, ln_smax)
        ln_kae = ln(2.0) + ln_kse + ln_gamma_ratio
    else:
        ln_kse += (ln_kse_core + ln_lf_smax - (q - 1) * ln_kdmin) * ((p + 1.0) / p)
        ln_kae = ln_kse + ln_gamma_ratio
    # kappa_c: an unsuccessful iteration grows sigma by gamma3 when rho < 0
    # and by gamma2 otherwise, so by at least gamma2; counting each at
    # ln gamma2, the least growth, bounds how many fit under sigma_max,
    # which is built from gamma3, the most.
    # ln(sigma_max / sigma0), from the quotient while it is a float: the
    # difference of logs would cancel when sigma_max is close to sigma0.
    smax_ratio = sigma_max / config.sigma0
    ln_smax_ratio = ln(smax_ratio) if smax_ratio < math.inf else ln_smax - ln(config.sigma0)
    kappa_c_evals = 2.0 / ln(config.gamma2) * ln_smax_ratio + 2.0
    ln_gamma_acc = ln(config.gamma_acc)
    kappa_e_evals = (q + 1.0) / abs(ln_gamma_acc)
    if acc_max == 0.0:  # exact derivatives: no accuracy improvement is needed
        k_acc_min, kappa_f_evals, accuracy_steps = 0, 2.0, 0.0
    else:
        # Smallest improvement count after which no accuracy check can fail:
        # the least k >= 0 with gamma_acc**k acc_max <= kappa_acc eps_min**(q+1).
        ln_ratio = ln_kacc + (q + 1) * ln(eps_min) - ln(acc_max)
        k = ln_ratio / ln_gamma_acc
        k_acc_min = 0 if ln_ratio >= 0.0 else math.ceil(k) if k < math.inf else math.inf
        kappa_f_evals = abs(ln_kacc - ln(acc_max)) / abs(ln_gamma_acc) + 2.0
        accuracy_steps = kappa_e_evals * abs(ln(eps_min))

    ln_eps_power = min(pi[j - 1] * ln(eps[j - 1]) for j in range(1, q + 1))

    def per_gap(ln_kappa: float) -> float:
        """kappa * f0_minus_flow / min_j eps_j**pi_j, 0 for a zero gap."""
        if f0_minus_flow == 0.0:
            return 0.0
        return _exp(ln_kappa + ln(f0_minus_flow) - ln_eps_power)

    n_value = per_gap(ln_kae) + kappa_c_evals
    n_deriv = per_gap(ln_kse) + accuracy_steps + kappa_f_evals

    return BoundReport(
        l_f=float(l_f),
        l_bar_f=l_bar,
        sigma_max=sigma_max,
        kappa_s=_exp(ln_ks),
        kappa_delta_min=_exp(ln_kdmin),
        kappa_dm=_exp(ln_kdm),
        pi=pi,
        step_lower_bounds=tuple(_exp(s) for s in ln_step_lower),
        kappa_sharp2_max=_exp(ln_ksh2_max),
        kappa_acc=_exp(ln_kacc),
        k_acc_min=k_acc_min,
        kappa_s_evals=_exp(ln_kse),
        kappa_a_evals=_exp(ln_kae),
        kappa_c_evals=kappa_c_evals,
        kappa_e_evals=kappa_e_evals,
        kappa_f_evals=kappa_f_evals,
        n_value_evals=n_value,
        n_derivative_evals=n_deriv,
    )
