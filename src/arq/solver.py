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
  step 4   update the regularization weight from the ratio;
  step 5   tighten every derivative accuracy demand by a fixed factor when
           any accuracy check came back insufficient.

Iterations are classified successful / unsuccessful / accuracy-improving;
the trace records everything the property suite needs to recheck the run
against ground truth.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .check import CheckOutcome, check
from .oracle import EvalCounters, NoiseModel, Oracle, Problem, estimate_lipschitz
from .subsolvers import (
    ORDER_GUARANTEES,
    MeasureResult,
    SolveStoppedError,
    StepResult,
    minimize_model,
    optimality_measure,
)
from .tensors import RegularizedModel, model_decrement, taylor_decrement

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
]

KIND_SUCCESS = "successful"
KIND_UNSUCCESS = "unsuccessful"
KIND_ACCURACY = "accuracy_improving"


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
    gamma3: float = 4.0
    gamma_acc: float = 0.25
    omega: float = 0.02
    varsigma: float | None = None
    theta: float = 0.5
    delta0: tuple | None = None
    acc0: tuple | None = None
    acc_max: float = 1.0
    max_iters: int = 1000
    max_inner_iters: int = 500

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
        if not self.sigma0 > 0:
            fail(f"sigma0 must be > 0, got {self.sigma0}")
        if not 0.0 < self.sigma_min <= self.sigma0:
            fail(f"sigma_min must be in (0, sigma0], got {self.sigma_min}")
        if not 0.0 < self.eta1 <= self.eta2 < 1.0:
            fail(f"need 0 < eta1 <= eta2 < 1, got {self.eta1}, {self.eta2}")
        if not 0.0 < self.gamma1 < 1.0 < self.gamma2 < self.gamma3:
            fail(
                "need 0 < gamma1 < 1 < gamma2 < gamma3, got "
                f"{self.gamma1}, {self.gamma2}, {self.gamma3}"
            )
        if not 0.0 < self.gamma_acc < 1.0:
            fail(f"gamma_acc must be in (0, 1), got {self.gamma_acc}")
        omega_cap = min(0.5 * self.eta1, 0.25 * (1.0 - self.eta2))
        if not 0.0 < self.omega < omega_cap:
            fail(f"omega must be in (0, {omega_cap}), got {self.omega}")
        if not self.theta > 0:
            fail(f"theta must be > 0, got {self.theta}")
        varsigma = self.varsigma
        guaranteed = min(ORDER_GUARANTEES[j] for j in range(1, self.q + 1))
        if varsigma is None:
            varsigma = guaranteed
        if not 0.0 < varsigma <= 1.0:
            fail(f"varsigma must be in (0, 1], got {varsigma}")
        if varsigma > guaranteed:
            logger.warning(
                "varsigma %.3g exceeds the subsolver guarantee %.3g for q=%d; "
                "certificates may overstate optimality",
                varsigma, guaranteed, self.q,
            )
        delta0 = self.delta0
        if delta0 is None:
            delta0 = (1.0,) * self.q
        delta0 = tuple(float(d) for d in np.atleast_1d(delta0))
        if len(delta0) != self.q:
            fail(f"delta0 must have {self.q} entries, got {len(delta0)}")
        if any(not e < d <= 1.0 for d, e in zip(delta0, eps)):
            fail(f"delta0 entries must lie in (epsilon_j, 1], got {delta0}")
        if not self.acc_max >= 0:
            fail(f"acc_max must be >= 0, got {self.acc_max}")
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
        if self.max_inner_iters < 1:
            fail(f"max_inner_iters must be >= 1, got {self.max_inner_iters}")
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


@dataclass
class Certificate:
    """Termination evidence: the point, the radii, and the measured drops.

    The harness fills the two verification fields after recomputing the
    measures with exact derivatives.
    """

    x_eps: np.ndarray
    delta_eps: np.ndarray
    measured: tuple  # per order: dict(order, phi_bar, delta, threshold)
    verified_exact: tuple | None = None  # per-order pass flags
    verified_phi: tuple | None = None  # per-order recomputed measures


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


def step1(state: SolverState, bundle, model, config: SolverConfig, guard_l_bar):
    """Order-by-order optimality sweep with radius halving.

    Mutates ``state.delta`` in place; the caller snapshots the entry values.
    Returns the `Certificate` when every order is small enough (terminate),
    ``(j_k, measure)`` for the order step 2 works on, or None when an
    accuracy check came back insufficient (go to step 5).

    ``guard_l_bar`` is a zero-argument callable returning the L-bar of the
    radius guard, at least ``1 + acc_max``.  The guard floor decreases in
    L-bar, so a radius at or above the floor at L-bar = 1 + acc_max cannot
    be under the real one; the callable is called only once a radius falls
    below that cheaper floor, and the check raises exactly when one made
    after every halving would.
    """
    measured = []
    for j in range(1, config.q + 1):
        while True:
            delta_j = float(state.delta[j - 1])
            meas = optimality_measure(bundle, j, delta_j)
            verdict = check(
                delta_j,
                meas.phi_bar,
                state.acc[:j],
                0.5 * config.epsilons[j - 1],
                config.omega,
            )
            if verdict is CheckOutcome.INSUFFICIENT:
                return None
            if meas.phi_bar <= _termination_threshold(config, j, delta_j):
                measured.append(
                    {
                        "order": j,
                        "phi_bar": meas.phi_bar,
                        "delta": delta_j,
                        "threshold": config.epsilons[j - 1]
                        * delta_j**j
                        / math.factorial(j),
                    }
                )
                break
            dm = model_decrement(model, meas.displacement)
            if dm >= 0.5 * _termination_threshold(config, j, delta_j):
                return j, meas
            state.delta[j - 1] = 0.5 * delta_j
            # The halving loop provably stops before delta_j falls a factor
            # 1e-3 under its theoretical floor; crossing it is a bug, not a
            # math failure.
            lowest = _radius_floor(config, j, 1.0 + config.acc_max, state.sigma)
            if state.delta[j - 1] >= lowest:
                continue
            floor = _radius_floor(config, j, guard_l_bar(), state.sigma)
            if state.delta[j - 1] < floor:
                raise InternalInvariantError(
                    f"step-1 radius for order {j} fell below its guard "
                    f"({state.delta[j - 1]:.3e} < {floor:.3e}) at iteration {state.k}"
                )
    return Certificate(state.x.copy(), state.delta.copy(), tuple(measured))


def step2(
    state: SolverState,
    bundle,
    model,
    config: SolverConfig,
    j_k: int,
    d_measure: MeasureResult,
):
    """Step computation plus the accuracy vetting of its decrement.

    The step's own model measures must be small: order ell against the
    target ``varsigma theta (1 - omega) / (2 (1 + omega)) * epsilon_ell``,
    and for a short step each is rechecked for accuracy against that target
    over ``1 + omega``.  Returns ``(step_result, dec_p)`` for step 3, or None
    when a check came back insufficient (go to step 5).
    """
    coef = config.varsigma * config.theta * (1.0 - config.omega) / (2.0 * (1.0 + config.omega))
    targets = [coef * eps for eps in config.epsilons]
    caps = np.minimum(1.0, state.delta_start)
    step_res = minimize_model(
        model,
        d_measure.displacement,
        targets,
        delta_caps=caps,
        max_inner=config.max_inner_iters,
    )
    s = step_res.step
    step_norm = float(np.linalg.norm(s))
    dec_p = taylor_decrement(bundle, s, config.p)

    delta_1 = float(state.delta[j_k - 1])
    xi_first = (
        config.varsigma
        * config.epsilons[j_k - 1]
        / (2.0 * (1.0 + config.omega))
        * math.factorial(config.p)
        * delta_1**j_k
        / (math.factorial(j_k) * max(delta_1, step_norm) ** config.p)
    )
    verdict = check(step_norm, dec_p, state.acc, xi_first, config.omega)
    if verdict is CheckOutcome.ABSOLUTE:
        # Ruled out by the lower bound on the model decrease carried over
        # from step 1; reaching here means that bound was broken.
        raise InternalInvariantError(
            f"step-2 decrement check returned absolute at iteration {state.k}"
        )
    if verdict is CheckOutcome.INSUFFICIENT:
        return None

    if step_norm < 1.0:
        for ell in range(1, config.q + 1):
            acc_model = 3.0 * float(np.max(state.acc[ell - 1 : config.p]))
            verdict = check(
                float(step_res.radii[ell - 1]),
                step_res.phi_bars[ell - 1],
                [acc_model] * ell,
                targets[ell - 1] / (1.0 + config.omega),
                config.omega,
            )
            if verdict is CheckOutcome.INSUFFICIENT:
                return None
    return step_res, dec_p


def step3_step4(
    state: SolverState,
    oracle: Oracle,
    config: SolverConfig,
    step_res: StepResult,
    dec_p: float,
    fbar_cache,
):
    """Trial-point acceptance and regularization update.

    ``fbar_cache`` is ``(value, bound)`` for the inexact objective at the
    current iterate, reused when its recorded bound is already tight enough;
    otherwise the value is recomputed (the second evaluation this iteration).
    Returns ``(rho, fbar_cache)``, the cache now holding the value at the
    next iterate; the step was accepted when ``rho >= eta1``.
    """
    bound = config.omega * dec_p
    trial = oracle.inexact_value(state.x + step_res.step, bound)
    if fbar_cache is None or fbar_cache[1] > bound:
        fbar_cache = (oracle.inexact_value(state.x, bound), bound)
    rho = (fbar_cache[0] - trial) / dec_p
    if rho >= config.eta1:
        state.x = state.x + step_res.step
        fbar_cache = (trial, bound)
        if not step_res.long_step:
            state.delta = step_res.radii.copy()
        # long step: keep the end-of-step-1 radii already in state.delta
    if rho >= config.eta2:
        state.sigma = max(config.sigma_min, config.gamma1 * state.sigma)
    elif rho < config.eta1:
        state.sigma = config.gamma2 * state.sigma
    return rho, fbar_cache


def step5(state: SolverState, config: SolverConfig):
    """Tighten all accuracy demands; rewind the radii; keep x and sigma."""
    state.acc = config.gamma_acc * state.acc
    state.delta = state.delta_start.copy()


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
    `SolveStoppedError` (budget exhaustion, an inner-solve stall or a crossed
    invariant) that carries the trace and the counters.  Each iteration
    appends one record; a stall or invariant interrupts an iteration, and
    its record, with ``kind`` None, ends the trace, so the per-record
    evaluations sum to the counters.

    The Lipschitz estimate behind the step-1 radius guard is computed at
    most once, and only when a halved radius first falls below the guard
    floor at its least possible L-bar (see `step1`).  The estimate draws
    from its own rng and only arms the guard, so computing it late changes
    neither the iterates nor the oracle's evaluations.
    """
    oracle = Oracle(problem, noise)
    start = np.asarray(problem.x0 if x0 is None else x0, dtype=float).copy()
    if start.shape != (problem.dim,):
        raise ConfigError(f"x0 has shape {start.shape}, expected ({problem.dim},)")
    if not np.isfinite(start).all():
        raise ConfigError("x0 holds a non-finite entry")
    state = SolverState(
        x=start,
        sigma=config.sigma0,
        delta=np.asarray(config.delta0, dtype=float).copy(),
        delta_start=np.asarray(config.delta0, dtype=float).copy(),
        acc=np.asarray(config.acc0, dtype=float).copy(),
    )
    guard_l_bar = _guard_bound(problem, start, config)
    fbar_cache = None
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
            bundle = oracle.inexact_bundle(state.x, state.acc, config.p)
            model = RegularizedModel(bundle, state.sigma)

            out = step1(state, bundle, model, config, guard_l_bar)
            record.delta_end = state.delta.copy()
            if isinstance(out, Certificate):
                record.f_bar_after = fbar_cache[0] if fbar_cache else None
            else:
                stepped = None
                if out is not None:
                    record.j_k = out[0]
                    stepped = step2(state, bundle, model, config, *out)
                if stepped is None:
                    step5(state, config)
                    record.kind = KIND_ACCURACY
                else:
                    step_res, dec_p = stepped
                    rho, fbar_cache = step3_step4(
                        state, oracle, config, step_res, dec_p, fbar_cache
                    )
                    record.kind = KIND_SUCCESS if rho >= config.eta1 else KIND_UNSUCCESS
                    record.rho = rho
                    record.step = step_res.step.copy()
                    record.step_norm = float(np.linalg.norm(step_res.step))
                    record.dec_bar = dec_p
                    record.f_bar_after = fbar_cache[0]
            _close_record(record, oracle, snap)
            trace.append(record)
            logger.debug(
                "k=%d %s rho=%s sigma=%.3g", k, record.kind, record.rho, record.sigma
            )
            if isinstance(out, Certificate):
                logger.info("terminated at iteration %d", k)
                return SolveResult(out, oracle.counters, trace)

        raise BudgetExhaustedError(
            f"no certificate within {config.max_iters} iterations"
        )
    except SolveStoppedError as exc:
        if not isinstance(exc, BudgetExhaustedError):
            # A stall or invariant interrupts iteration k after its
            # evaluations were counted: its record ends the trace.
            record.delta_end = state.delta.copy()
            _close_record(record, oracle, snap)
            trace.append(record)
        exc.trace, exc.counters = trace, oracle.counters
        raise


def _close_record(record: IterationRecord, oracle: Oracle, snap):
    record.value_evals = oracle.counters.value_evals - snap[0]
    record.derivative_evals = oracle.counters.derivative_evals - snap[1]
