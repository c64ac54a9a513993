"""Adaptive regularization with demand-driven evaluation accuracy.

The driver alternates five phases per iteration k:

  step 1   measure approximate optimality of orders 1..q inside shrinking
           balls; terminate, demand better accuracy, or pick the order
           whose measured decrement is large enough to work with;
  step 2   approximately minimize the regularized degree-p Taylor model and
           vet the step's decrement (and, for short steps, the model's own
           measures) for accuracy;
  step 3   evaluate the objective at the trial point to within a fraction
           of the predicted decrease and accept/reject by the usual ratio;
  step 4   update the regularization weight from the ratio: shrink it by
           gamma1 (not under sigma_min) on a very successful step, keep it
           on a successful one, and on a rejection grow it by gamma2, or by
           gamma3 when f rose (rho < 0), inside the theory's interval
           [gamma2 sigma, gamma3 sigma];
  step 5   when an accuracy check came back insufficient, tighten every
           derivative accuracy demand by gamma_acc^k, where k >= 1 is the
           least exponent, capped, that clears the failed check's
           threshold at its current decrement.  Step 2 makes all of its
           checks on the one bundle and step and hands on the insufficient
           one with the largest k; step 1 stops at its first.

Step 1's order-1 halvings are one scalar search along the steepest-descent
ray: in real arithmetic the measure, the accuracy check and the termination
test at delta0 2**-m scale by 2**-m from delta0, so only the model
decrement test is made again, from the products at delta0 (see `step1`).
Step 2 starts from the measure's displacement at the final radius.

Every check's error sum is linear in the accuracies, so gamma_acc^k is k
fixed-factor step 5s at the same x without the derivative evaluations in
between.  The theory's accuracy-improvement bound counts factors: once
the exponents add up to its k_acc_min no check fails, so a run's total
exponent is at most k_acc_min - 1 plus the cap, however k is chosen in
1..cap.

Two evaluations are reused, as the theory's evaluation bounds assume,
while the errors the oracle measured in them (never above the bounds they
were requested at) meet the current demands:

  derivatives  at the same x_k: after an unsuccessful iteration (same
               accuracies), and after an accuracy-improving one when every
               achieved error meets the tightened accuracy;
  f-bar(x_k)   in step 3, while its achieved error is within the step's
               demand omega * dec_p.

Step 3 asks for each value at a quarter of that demand
(`_VALUE_REQUEST_SHARE`), so an accepted trial value serves the next step 3
whenever the next model decrease is at least a quarter of this one, for
log10(4), about 0.6, more digits per value request.

Iterations are classified successful / unsuccessful / accuracy-improving;
the trace records everything the property suite needs to recheck the run
against ground truth.
"""
from __future__ import annotations

import functools
import logging
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .check import CheckOutcome, Shortfall, verdict
from .oracle import EvalCounters, NoiseModel, Oracle, Problem, estimate_lipschitz
from .subsolvers import (
    ORDER_GUARANTEES,
    MeasureResult,
    SolveStoppedError,
    StepResult,
    SubsolverStallError,
    minimize_model,
    optimality_measure,
)
from .tensors import RegularizedModel, _ModelPoint, taylor_decrement

logger = logging.getLogger("arq")

__all__ = [
    "ConfigError",
    "BudgetExhaustedError",
    "InternalInvariantError",
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "Certificate",
    "SolveResult",
    "solve",
    "step1",
    "step2",
    "step3_step4",
    "step5",
    "KIND_SUCCESS",
    "KIND_UNSUCCESS",
    "KIND_ACCURACY",
    "kind_counts",
]

KIND_SUCCESS = "successful"
KIND_UNSUCCESS = "unsuccessful"
KIND_ACCURACY = "accuracy_improving"

# Most gamma_acc factors one step 5 applies.
_ACC_STEPS_CAP = 8
# Share of step 3's demand omega * dec_p each value is requested at.
_VALUE_REQUEST_SHARE = 0.25


class ConfigError(ValueError):
    """A solver parameter violates its admissible interval."""


class BudgetExhaustedError(SolveStoppedError):
    """Iteration budget ran out before certification."""

    status = "budget"


class InternalInvariantError(SolveStoppedError):
    """A bound the theory guarantees was crossed: implementation bug."""

    status = "invariant"


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; every interval constraint is enforced at construction."""

    p: int = 2
    q: int = 1
    epsilons: tuple = (1e-3,)
    sigma0: float = 1.0
    sigma_min: float = 1e-8
    eta1: float = 0.1
    eta2: float = 0.9
    gamma1: float = 0.5
    gamma2: float = 2.0
    # Step 4 reads gamma3 too: a rejected step with rho < 0 grows sigma by it.
    gamma3: float = 4.0
    gamma_acc: float = 0.25
    omega: float = 0.02
    varsigma: float | None = None
    theta: float = 0.5
    delta0: tuple | None = None
    acc0: tuple | None = None
    acc_max: float = 1.0
    max_iters: int = 1000

    def __post_init__(self):
        def fail(msg):
            raise ConfigError(msg)

        if self.q not in (1, 2, 3):
            fail(f"q must be 1, 2 or 3, got {self.q}")
        if not self.q <= self.p <= 3:
            fail(f"p must satisfy q <= p <= 3, got p={self.p}, q={self.q}")
        eps = tuple(float(e) for e in np.atleast_1d(self.epsilons))
        if len(eps) != self.q:
            fail(f"epsilons must have {self.q} entries, got {len(eps)}")
        if any(not 0.0 < e < 1.0 for e in eps):
            fail(f"epsilons must lie in (0, 1), got {eps}")
        if not 0.0 < self.sigma0 < math.inf:
            fail(f"sigma0 must be finite and > 0, got {self.sigma0}")
        if not 0.0 < self.sigma_min <= self.sigma0:
            fail(f"sigma_min must be in (0, sigma0], got {self.sigma_min}")
        if not 0.0 < self.eta1 <= self.eta2 < 1.0:
            fail(f"need 0 < eta1 <= eta2 < 1, got {self.eta1}, {self.eta2}")
        if not 0.0 < self.gamma1 < 1.0 < self.gamma2 < self.gamma3 < math.inf:
            fail(
                "need 0 < gamma1 < 1 < gamma2 < gamma3 < inf, got "
                f"{self.gamma1}, {self.gamma2}, {self.gamma3}"
            )
        if not 0.0 < self.gamma_acc < 1.0:
            fail(f"gamma_acc must be in (0, 1), got {self.gamma_acc}")
        omega_cap = min(0.5 * self.eta1, 0.25 * (1.0 - self.eta2))
        if not 0.0 < self.omega < omega_cap:
            fail(f"omega must be in (0, {omega_cap}), got {self.omega}")
        if not 0.0 < self.theta < 1.0:
            fail(f"theta must be in (0, 1), got {self.theta}")
        varsigma = self.varsigma
        weakest = min(range(1, self.q + 1), key=ORDER_GUARANTEES.__getitem__)
        guaranteed = ORDER_GUARANTEES[weakest]
        if varsigma is None:
            varsigma = guaranteed
        if not 0.0 < varsigma <= 1.0:
            fail(f"varsigma must be in (0, 1], got {varsigma}")
        if varsigma > guaranteed:
            logger.warning(
                "varsigma %r exceeds %r, the fraction of the ball optimum the "
                "order-%d measure certifies (the lowest for q=%d); certificates "
                "may overstate optimality",
                float(varsigma), guaranteed, weakest, self.q,
            )
        delta0 = self.delta0
        if delta0 is None:
            delta0 = (1.0,) * self.q
        delta0 = tuple(float(d) for d in np.atleast_1d(delta0))
        if len(delta0) != self.q:
            fail(f"delta0 must have {self.q} entries, got {len(delta0)}")
        if any(not e < d <= 1.0 for d, e in zip(delta0, eps)):
            fail(f"delta0 entries must lie in (epsilon_j, 1], got {delta0}")
        if not 0.0 <= self.acc_max < math.inf:
            fail(f"acc_max must be finite and >= 0, got {self.acc_max}")
        acc0 = self.acc0
        if acc0 is None:
            acc0 = (min(0.1, self.acc_max),) * self.p
        acc0 = tuple(float(a) for a in np.atleast_1d(acc0))
        if len(acc0) != self.p:
            fail(f"acc0 must have {self.p} entries, got {len(acc0)}")
        if not all(0.0 <= a <= self.acc_max for a in acc0):
            fail(f"acc0 entries must lie in [0, acc_max], got {acc0}")
        if self.max_iters < 1:
            fail(f"max_iters must be >= 1, got {self.max_iters}")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "delta0", delta0)
        object.__setattr__(self, "acc0", acc0)
        object.__setattr__(self, "varsigma", float(varsigma))


@dataclass
class SolverState:
    x: np.ndarray
    sigma: float
    delta: np.ndarray
    delta_start: np.ndarray
    acc: np.ndarray  # absolute accuracy demand per derivative order 1..p
    k: int = 0
    f_bar: tuple | None = None  # (value, achieved error) of the inexact f at x
    halvings: int = 0  # radius halvings of the latest step 1, summed over orders


@dataclass
class IterationRecord:
    k: int
    kind: str | None
    sigma: float
    acc: np.ndarray
    delta_start: np.ndarray
    delta_end: np.ndarray
    x: np.ndarray
    value_evals: int = 0
    derivative_evals: int = 0
    j_k: int | None = None
    rho: float | None = None
    step: np.ndarray | None = None
    step_norm: float | None = None
    dec_bar: float | None = None
    f_bar_after: float | None = None
    cause: Shortfall | None = None  # accuracy-improving rows: the failed check
    acc_steps: int | None = None  # accuracy-improving rows: the k step 5 applied
    inner_iterations: int | None = None  # trial rows: the step's model-minimizer iterations
    halvings: int = 0  # step 1's radius halvings, summed over orders


@dataclass(frozen=True)
class Certificate:
    """What step 1 proved at termination: the point, the radii, and the
    measured drops.  Its exact recheck is `arq.harness.verify_certificate`'s
    record, kept apart from it.
    """

    x_eps: np.ndarray
    delta_eps: np.ndarray
    measured: tuple  # per order: dict(order, phi_bar, delta, threshold)


@dataclass
class SolveResult:
    certificate: Certificate
    counters: EvalCounters
    trace: list

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _termination_threshold(config: SolverConfig, j: int, delta_j: float) -> float:
    return (
        config.varsigma
        * config.epsilons[j - 1]
        / (1.0 + config.omega)
        * delta_j**j
        / math.factorial(j)
    )


def _radius_floor(config: SolverConfig, j: int, l_bar: float, sigma: float) -> float:
    """Step-1 radius guard for order j: 1e-3 under the theoretical floor."""
    return (
        1e-3
        * config.varsigma
        * config.epsilons[j - 1]
        / (4.0 * (1.0 + config.omega) * max(l_bar, sigma))
    )


def _halve(state: SolverState, config: SolverConfig, j: int, guard_l_bar, times: int = 1) -> None:
    """Halve the order-j step-1 radius ``times`` times, checking the radius
    guard after each halving; a radius halved to 0 (the guard's floor is 0
    once sigma is inf) raises `SubsolverStallError`."""
    # The halving loop provably stops before delta_j falls a factor 1e-3
    # under its theoretical floor; crossing it is a bug, not a math failure.
    lowest = _radius_floor(config, j, 1.0 + config.acc_max, state.sigma)
    for _ in range(times):
        state.delta[j - 1] *= 0.5
        state.halvings += 1
        if state.delta[j - 1] == 0.0:
            raise SubsolverStallError(
                f"step-1 radius for order {j} halved to 0.0 at sigma {state.sigma!r} "
                f"at iteration {state.k}"
            )
        if state.delta[j - 1] >= lowest:
            continue
        floor = _radius_floor(config, j, guard_l_bar(), state.sigma)
        if state.delta[j - 1] < floor:
            raise InternalInvariantError(
                f"step-1 radius for order {j} fell below its guard "
                f"({state.delta[j - 1]:.3e} < {floor:.3e}) at iteration {state.k}"
            )


def _ray_search(point: _ModelPoint, threshold: float) -> int | None:
    """The least number m of order-1 halvings from delta0 at which the
    decrement test ``dm >= threshold / 2`` passes, from the products of
    ``point``, the model at the order-1 measure's displacement at delta0
    (see `step1`); ``threshold`` is the termination threshold at delta0.
    Touches no state.  None is a non-finite decrement at delta0 (an
    overflowed product, or sigma ||d||**(p+1) overflowing) that fails the
    test: it does not scale.  From a finite one the search ends, since
    every term of both sides tends to 0 in m.
    """
    # At delta0 2**-m, half the termination threshold is threshold 2**(-m-1).
    dec = point.decrement()  # the decrement at m = 0
    if dec >= math.ldexp(threshold, -1):
        return 0
    if not math.isfinite(dec):
        return None
    m = 1
    while not point.decrement_at(m) >= math.ldexp(threshold, -1 - m):  # NaN fails too
        m += 1
    return m


def step1(state: SolverState, model, config: SolverConfig, guard_l_bar):
    """Order-by-order optimality sweep with radius halving.

    Mutates ``state.delta`` in place, and counts its halvings in
    ``state.halvings``; the caller snapshots the entry values.
    Returns the `Certificate` when every order is small enough (terminate),
    unless an order's certified threshold epsilon_j delta_j**j / j! is 0
    or subnormal, which no recheck can resolve: that raises
    `SubsolverStallError`;
    ``(j_k, measure)`` for the order step 2 works on and its measure at the
    final radius, or the `Shortfall` of an accuracy check that came back
    insufficient (go to step 5), with cause ``step1 j=<j>``.

    Order 1 measures, checks and tests for termination once, at its entry
    radius delta0, then makes the m halvings `_ray_search` finds, each with
    its radius guard, and returns its measure times 2**-m; with no m it
    halves once and measures afresh.  The steepest-descent
    displacement at delta0 2**-m is -(delta0 2**-m / ||g||) g, 2**-m times
    the one at delta0.  In real arithmetic its norm is then 2**-m times
    that at delta0, each full contraction T_i[d, ..., d] 2**(-i m) times
    its value there, and the measure, the check's error sum and both its
    thresholds, and the termination threshold 2**-m times theirs, since
    each is linear in delta.  The check and the termination test thus give
    their verdicts at delta0 at every m, and the decrement at 2**-m d is
    the `_ModelPoint` arithmetic on the products at delta0 times powers of
    two.  Orders 2 and 3, whose measures are not linear in delta, measure
    and decrement afresh at every radius.

    ``guard_l_bar`` is a zero-argument callable returning the L-bar of the
    radius guard, at least ``1 + acc_max``.  The guard floor decreases in
    L-bar, so a radius at or above the floor at L-bar = 1 + acc_max cannot
    be under the real one; the callable is called only once a radius falls
    below that cheaper floor, and the check raises exactly when one made
    after every halving would.
    """
    state.halvings = 0
    measured = []
    for j in range(1, config.q + 1):
        while True:
            delta_j = float(state.delta[j - 1])
            meas = optimality_measure(model.bundle, j, delta_j)
            outcome, margins = verdict(
                delta_j,
                float(meas.phi_bar),
                state.acc[:j].tolist(),
                0.5 * config.epsilons[j - 1],
                config.omega,
            )
            if outcome is CheckOutcome.INSUFFICIENT:
                return Shortfall.at(f"step1 j={j}", margins)
            threshold = _termination_threshold(config, j, delta_j)
            if meas.phi_bar <= threshold:
                certified = config.epsilons[j - 1] * delta_j**j / math.factorial(j)
                if not certified >= sys.float_info.min:  # 0 or subnormal
                    raise SubsolverStallError(
                        f"order-{j} certificate threshold {certified!r} at step-1 radius "
                        f"{delta_j!r} is below the normal range at iteration {state.k}"
                    )
                measured.append(
                    {"order": j, "phi_bar": meas.phi_bar, "delta": delta_j,
                     "threshold": certified}
                )
                break
            point = _ModelPoint(model, meas.displacement)
            if j == 1:
                m = _ray_search(point, threshold)
                if m is None:
                    _halve(state, config, 1, guard_l_bar)
                    continue
                _halve(state, config, 1, guard_l_bar, m)
                return 1, MeasureResult(math.ldexp(meas.phi_bar, -m),
                                        np.ldexp(meas.displacement, -m))
            if point.decrement() >= 0.5 * threshold:
                return j, meas
            _halve(state, config, j, guard_l_bar)
    return Certificate(state.x.copy(), state.delta.copy(), tuple(measured))


def step2(state: SolverState, model, config: SolverConfig, j_k: int, start):
    """Step computation plus the accuracy vetting of its decrement.

    The model minimizer starts from ``start``, the displacement of step 1's
    order-j_k measure.

    The step's own model measures must be small: order ell against the
    target ``varsigma theta (1 - omega) / (2 (1 + omega)) * epsilon_ell``,
    and for a short step each is rechecked for accuracy against that target
    over ``1 + omega``.  Returns ``(step_result, dec_p)`` for step 3, or,
    when a check came back insufficient (go to step 5), the `Shortfall`
    that needs the most accuracy tightenings, with cause ``step2
    decrement`` or ``step2 ell=<ell>``.

    Every check reads the same bundle and step, so all are made: step 5 is
    sized by the largest k among the insufficient ones, which spares the
    accuracy-improving iteration a later check would cost at the same x.
    On a tie the earliest check is returned.
    """
    coef = config.varsigma * config.theta * (1.0 - config.omega) / (2.0 * (1.0 + config.omega))
    targets = [coef * eps for eps in config.epsilons]
    caps = np.minimum(1.0, state.delta_start)
    step_res = minimize_model(model, start, targets, delta_caps=caps)
    step_norm = step_res.norm
    dec_p = taylor_decrement(model.bundle, step_res.step, config.p)

    delta_1 = float(state.delta[j_k - 1])
    xi_first = (
        config.varsigma
        * config.epsilons[j_k - 1]
        / (2.0 * (1.0 + config.omega))
        * math.factorial(config.p)
        * delta_1**j_k
        / (math.factorial(j_k) * max(delta_1, step_norm) ** config.p)
    )
    outcome, margins = verdict(step_norm, dec_p, state.acc.tolist(), xi_first, config.omega)
    if outcome is CheckOutcome.ABSOLUTE:
        # Ruled out by the lower bound on the model decrease carried over
        # from step 1; reaching here means that bound was broken.
        raise InternalInvariantError(
            f"step-2 decrement check returned absolute at iteration {state.k}"
        )
    shortfalls = []
    if outcome is CheckOutcome.INSUFFICIENT:
        shortfalls.append(Shortfall.at("step2 decrement", margins))

    if step_res.radii is not None:  # a short step: its own measures are rechecked
        for ell in range(1, config.q + 1):
            acc_model = 3.0 * float(state.acc[ell - 1 : config.p].max())
            outcome, margins = verdict(
                float(step_res.radii[ell - 1]),
                float(step_res.phi_bars[ell - 1]),
                [acc_model] * ell,
                targets[ell - 1] / (1.0 + config.omega),
                config.omega,
            )
            if outcome is CheckOutcome.INSUFFICIENT:
                shortfalls.append(Shortfall.at(f"step2 ell={ell}", margins))
    if shortfalls:
        # max keeps the first of equal keys: the earliest check wins a tie.
        return max(shortfalls, key=lambda sf: sf.steps(config.gamma_acc, _ACC_STEPS_CAP))
    return step_res, dec_p


def step3_step4(
    state: SolverState,
    oracle: Oracle,
    config: SolverConfig,
    step_res: StepResult,
    dec_p: float,
) -> float:
    """Trial-point acceptance and regularization update; returns rho, and
    the step was accepted when ``rho >= eta1``.

    Both values must lie within ``omega * dec_p`` of f, and each is
    requested at `value_request_bound`, a quarter of that.  ``state.f_bar``
    holds f-bar(x_k) with the error the oracle achieved for it, and is
    reused when that error is already within ``omega * dec_p``; otherwise
    f at x is evaluated again (the second value evaluation this
    iteration).  On acceptance the trial value, with its achieved error,
    takes its place.

    Step 4 then sets sigma by the band rho lies in:

        rho >= eta2          max(sigma_min, gamma1 sigma)   very successful
        eta1 <= rho < eta2   sigma                          successful
        0 <= rho < eta1      gamma2 sigma                   rejected
        rho < 0              gamma3 sigma                   rejected, f rose

    A rejection thus grows sigma inside [gamma2 sigma, gamma3 sigma], the
    interval the theory allows: `compute_bounds`' sigma_max is built from
    gamma3, and its count of unsuccessful iterations from ln gamma2.
    """
    bound = config.omega * dec_p
    request = value_request_bound(config, dec_p)
    x_trial = state.x + step_res.step
    trial = oracle.inexact_value(x_trial, request)
    if state.f_bar is None or state.f_bar[1] > bound:
        state.f_bar = oracle.inexact_value(state.x, request)
    rho = (state.f_bar[0] - trial[0]) / dec_p
    if rho >= config.eta1:
        state.x = x_trial
        state.f_bar = trial
        if step_res.radii is not None:
            state.delta = step_res.radii.copy()
        # long step: keep the end-of-step-1 radii already in state.delta
    if rho >= config.eta2:
        state.sigma = max(config.sigma_min, config.gamma1 * state.sigma)
    elif rho < 0.0:
        state.sigma = config.gamma3 * state.sigma
    elif rho < config.eta1:
        state.sigma = config.gamma2 * state.sigma
    return rho


def value_request_bound(config: SolverConfig, dec_p: float) -> float:
    """The error bound step 3 requests each value at, for a step whose
    model decrease is ``dec_p``: `_VALUE_REQUEST_SHARE` of its demand
    ``omega * dec_p``."""
    return _VALUE_REQUEST_SHARE * config.omega * dec_p


def step5(state: SolverState, config: SolverConfig, shortfall: Shortfall) -> int:
    """Tighten all accuracy demands by ``gamma_acc**k``; rewind the radii;
    keep x and sigma.  Returns k.

    k is ``shortfall.steps(gamma_acc, cap)``: the least k >= 1, capped, that
    clears the failed check at its current decrement; from step 2 it is the
    largest such k among the checks that failed there.  A larger k saves
    the derivative evaluations of the k - 1 accuracy-improving iterations
    at the same x that k fixed-factor steps would take.
    """
    k = shortfall.steps(config.gamma_acc, _ACC_STEPS_CAP)
    state.acc = config.gamma_acc**k * state.acc
    state.delta = state.delta_start.copy()
    return k


def _guard_bound(problem: Problem, x0, config: SolverConfig):
    """L-bar of the step-1 radius guard at x0, as a memoised zero-argument
    callable; its value is at least 1 + acc_max, since `estimate_lipschitz`
    floors at 1."""
    x0 = x0.copy()
    return functools.cache(lambda: estimate_lipschitz(problem, x0, config.p) + config.acc_max)


def solve(
    problem: Problem,
    noise: NoiseModel,
    config: SolverConfig,
    x0=None,
) -> SolveResult:
    """Run steps 1-5 until step 1 returns a certificate, or raise a
    `SolveStoppedError` (budget exhaustion, an inner-solve stall, a crossed
    invariant or an oracle fault) that carries the trace and the counters.
    Each iteration appends one record; a stall, an invariant or an oracle
    fault interrupts an iteration, and its record, with ``kind`` None, ends
    the trace, so the per-record evaluations sum to the counters.

    The Lipschitz estimate behind the step-1 radius guard is computed at
    most once, and only when a halved radius first falls below the guard
    floor at its least possible L-bar (see `step1`).  The estimate's sample
    points come from its own seeded generator, it reads the problem without
    the oracle, and it only arms the guard, so computing it late changes
    neither the iterates nor the oracle's evaluations.
    """
    oracle = Oracle(problem, noise)
    try:
        start = np.array(problem.x0 if x0 is None else x0, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"x0 is not a float vector: {exc}") from exc
    if start.shape != (problem.dim,):
        raise ConfigError(f"x0 has shape {start.shape}, expected ({problem.dim},)")
    if not np.isfinite(start).all():
        raise ConfigError("x0 holds a non-finite entry")
    if config.p > problem.p_max:
        raise ConfigError(
            f"p={config.p} exceeds the derivative orders of {problem.name!r} "
            f"(p_max={problem.p_max})"
        )
    state = SolverState(
        x=start,
        sigma=config.sigma0,
        delta=np.asarray(config.delta0, dtype=float).copy(),
        delta_start=np.asarray(config.delta0, dtype=float).copy(),
        acc=np.asarray(config.acc0, dtype=float).copy(),
    )
    guard_l_bar = _guard_bound(problem, start, config)
    trace = []

    try:
        for k in range(config.max_iters):
            state.k = k
            state.delta_start = state.delta.copy()
            snap = oracle.counters.snapshot()
            record = IterationRecord(
                k=k,
                kind=None,
                sigma=state.sigma,
                acc=state.acc.copy(),
                delta_start=state.delta_start.copy(),
                delta_end=state.delta_start.copy(),
                x=state.x.copy(),
            )
            # Only a successful iteration moves x_k.  After any other the
            # bundle serves again while its achieved errors meet the demands:
            # always after an unsuccessful one, whose accuracies are as they
            # were, and after an accuracy-improving one when they meet the
            # tightened ones.
            if not trace or trace[-1].kind == KIND_SUCCESS or not (achieved <= state.acc).all():
                bundle, achieved = oracle.inexact_bundle(state.x, state.acc, config.p)
            model = RegularizedModel(bundle, state.sigma)

            out = step1(state, model, config, guard_l_bar)
            record.delta_end = state.delta.copy()
            record.halvings = state.halvings
            if isinstance(out, tuple):  # (j_k, measure): compute a step
                record.j_k = out[0]
                out = step2(state, model, config, out[0], out[1].displacement)
            if isinstance(out, Certificate):
                record.f_bar_after = state.f_bar[0] if state.f_bar else None
            elif isinstance(out, Shortfall):
                record.kind = KIND_ACCURACY
                record.cause = out
                record.acc_steps = step5(state, config, out)
            else:
                step_res, dec_p = out
                rho = step3_step4(state, oracle, config, step_res, dec_p)
                record.kind = KIND_SUCCESS if rho >= config.eta1 else KIND_UNSUCCESS
                record.rho = rho
                record.step = step_res.step.copy()
                record.step_norm = step_res.norm
                record.dec_bar = dec_p
                record.inner_iterations = step_res.inner_iterations
                record.f_bar_after = state.f_bar[0]
            _close_record(record, oracle, snap)
            trace.append(record)
            logger.debug(
                "k=%d %s rho=%s sigma=%.3g", k, record.kind, record.rho, record.sigma
            )
            if isinstance(out, Certificate):
                _log_run("terminated", trace, oracle.counters)
                return SolveResult(out, oracle.counters, trace)

        raise BudgetExhaustedError(
            f"no certificate within {config.max_iters} iterations"
        )
    except SolveStoppedError as exc:
        if not isinstance(exc, BudgetExhaustedError):
            # A stall, invariant or oracle fault interrupts iteration k
            # after its evaluations were counted: its record ends the trace.
            record.delta_end = state.delta.copy()
            record.halvings = state.halvings
            _close_record(record, oracle, snap)
            trace.append(record)
        exc.trace, exc.counters = trace, oracle.counters
        _log_run(f"stopped ({exc.status})", trace, oracle.counters)
        raise


def _log_run(ending: str, trace, counters: EvalCounters) -> None:
    """The end-of-run info line: iterations per kind, the step-5 cause
    histogram, the evaluation totals, with the value evaluations that
    re-evaluated f(x_k) in step 3 (the trial rows with two), and step 1's
    radius halvings."""
    if not logger.isEnabledFor(logging.INFO):
        return
    causes = Counter(rec.cause.cause for rec in trace if rec.cause is not None)
    logger.info(
        "%s after %d iterations (S/U/A = %d/%d/%d); step-5 causes: %s; "
        "%d value evaluations (%d re-evaluating f(x_k) in step 3), "
        "%d derivative bundles, %d step-1 halvings",
        ending,
        len(trace),
        *kind_counts(trace).values(),
        ", ".join(f"{cause} x{n}" for cause, n in sorted(causes.items())) or "none",
        counters.value_evals,
        sum(rec.value_evals == 2 for rec in trace),
        counters.derivative_evals,
        sum(rec.halvings for rec in trace),
    )


def kind_counts(trace) -> dict:
    """Iterations per kind, keyed by the ``KIND_*`` constants in S/U/A
    order; the terminating record, whose kind is None, is not counted."""
    counts = Counter(rec.kind for rec in trace)
    return {kind: counts[kind] for kind in (KIND_SUCCESS, KIND_UNSUCCESS, KIND_ACCURACY)}


def _close_record(record: IterationRecord, oracle: Oracle, snap):
    record.value_evals = oracle.counters.value_evals - snap[0]
    record.derivative_evals = oracle.counters.derivative_evals - snap[1]
