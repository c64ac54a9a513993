"""Function/derivative oracle honoring demanded absolute accuracy bounds.

The solver never sees exact problem data directly: it asks an `Oracle` for
a value or a derivative bundle together with an absolute error bound per
quantity, and the oracle must return something within that bound.  A
bundle request computes derivatives only, never f, so objective values
reach the solver through `inexact_value` alone, each one counted.  Noise
injection is pluggable (`NoiseModel`); the bound is a hard contract for
every model, checked against ground truth in the test suite.  A
derivative's error is measured in `tensors.operator_norm`, the Frobenius
norm, the one tensor norm throughout the package; no request eigensolves.
The Lipschitz estimates norm their tensors one at a time through its
kernel `tensors._frobenius`.  The truncation rounds values and tensors
alike through `_truncate_tensor`, a value as a one-entry array: it rounds
as many decimal grids per array operation as fit a fixed element budget,
into two buffers it reuses, norms each batch's errors with one
`tensors._row_dots`, and returns the rounding it accepted as it is;
bounded noise scales its rank-one direction and adds the exact tensor to
it in place.

Every request follows one error rule: it reports as `achieved` the
measured error of what it returns, ``|value - f(x)|`` or the
`tensors._frobenius` norm of the difference, and that error never exceeds
the demand.  Where rounding carries bounded noise past its demand, the
result steps back toward the exact one an ulp at a time, down to the exact
result and 0.  The solver reuses a value, or a whole bundle at the same x,
for as long as those errors meet its demands.

Every request is evaluated afresh and counted (`EvalCounters`); reusing a
bundle is the solver's decision, not the oracle's.  What the problem
returns is checked before any noise is added: a non-finite value, or a
derivative of the wrong shape or with a non-finite entry, raises
`OracleFaultError`, so a faulty `Problem` stops a solve with its own status
instead of failing somewhere inside the solver.

The Lipschitz constants L_{f,j} are estimated by one rule over a set of
points, `lipschitz_over_points`.  `estimate_lipschitz`, the estimate near
the start point, applies it to x0 and seeded points around it, for every
problem alike; the harness applies it to the region a run visited.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .subsolvers import SolveStoppedError
from .tensors import (
    _LEAST_SQUARES,
    DerivativeBundle,
    _frobenius,
    _norm,
    _row_dots,
    operator_norm,
)

__all__ = [
    "Problem",
    "NoiseModel",
    "EvalCounters",
    "Oracle",
    "OracleFaultError",
    "make_problem",
    "PROBLEM_NAMES",
    "estimate_lipschitz",
]

NOISE_KINDS = ("exact", "truncation", "bounded_random")


@dataclass(frozen=True)
class Problem:
    """Smooth unconstrained test problem with exact derivatives up to p_max."""

    name: str
    dim: int
    eval_value: callable
    eval_derivative: callable  # (x, i) -> symmetric order-i tensor
    f_low: float
    x0: np.ndarray
    p_max: int = 3

    def value(self, x) -> float:
        return float(self.eval_value(np.asarray(x, dtype=float)))

    def derivative(self, x, i: int) -> np.ndarray:
        if not 1 <= i <= self.p_max:
            raise ValueError(f"derivative order {i} outside 1..{self.p_max}")
        return np.asarray(self.eval_derivative(np.asarray(x, dtype=float), i), dtype=float)


@dataclass(frozen=True)
class NoiseModel:
    """How much of the permitted error budget gets injected, and how.

    kind:
        "exact"          -- no error regardless of the bound;
        "truncation"     -- round to the coarsest decimal grid still inside
                            the bound (multi-precision style);
        "bounded_random" -- pseudo-random perturbation of magnitude
                            fill_fraction * bound: a random sign for a
                            value, and for a derivative of order i the
                            rank-one tensor v (x) ... (x) v (i factors) of
                            a Gaussian v, with a random sign at even
                            orders (see `Oracle._perturb_tensor`).

    Whatever the kind, a request reports the error it measured in what it
    returns, and that error is at most the bound.
    """

    kind: str = "exact"
    fill_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; choose from {NOISE_KINDS}")
        if not 0.0 <= self.fill_fraction <= 1.0:
            raise ValueError("fill_fraction must be in [0, 1]")


class OracleFaultError(SolveStoppedError):
    """The problem returned a non-finite value, or a derivative of the wrong
    shape or with a non-finite entry; the message names the order (0 for
    f), the point and the fault."""

    status = "oracle"


def _point_text(x: np.ndarray) -> str:
    """A point as a fault message prints it, every digit kept."""
    return np.array2string(x, separator=", ", precision=17, threshold=16)


def _fault(problem: Problem, x: np.ndarray, order: int, returned: np.ndarray) -> str | None:
    """What is wrong with `returned`, problem's order-`order` derivative (its
    value at order 0) at x, as a message, or None when nothing is."""
    expected = (problem.dim,) * order
    if returned.shape != expected:
        fault = f"shape {returned.shape} instead of {expected}"
    elif not np.isfinite(returned).all():
        fault = "a non-finite entry" if order else f"the non-finite value {float(returned)}"
    else:
        return None
    return f"problem {problem.name!r} returned {fault} at order {order}, x = {_point_text(x)}"


@dataclass
class EvalCounters:
    value_evals: int = 0
    derivative_evals: int = 0

    def snapshot(self) -> tuple:
        return (self.value_evals, self.derivative_evals)


# 10**d for d = 0..16 decimals: the factors `np.round` multiplies by (and
# divides back by), so ``np.rint(x * 10.0**d) / 10.0**d == np.round(x, d)``.
_DECIMAL_SCALES = 10.0 ** np.arange(17)
# Entries rounded per array operation: as many decimal grids as fit, at
# least one and at most all 17.  A small tensor rounds every grid at once,
# where numpy's per-call overhead dominates; a tensor of this size or more
# rounds one grid at a time, so no grid past the accepted one is rounded.
# Either way a call allocates two buffers of a batch each, the roundings and
# their errors, and reuses them from batch to batch.
_GRID_ELEMENTS = 4096


def _truncate_tensor(exact: np.ndarray, bound: float) -> tuple:
    """``(rounded, achieved)``: `exact` rounded to the coarsest of 0..16
    decimals whose error has an `operator_norm` at most `bound`, with that
    norm, or a copy of `exact` and 0 when none does.  The candidate grids
    are rounded coarsest first, ``_GRID_ELEMENTS // exact.size`` of them
    (1 to 17) in one array operation; the squared norms of a batch's errors
    are one `_row_dots`, whose square root is `_norm` bit for bit where it
    is in range, and an error whose squares under- or overflow is normed by
    `_frobenius` itself.  The rounding returned is the one the accepting
    norm was taken of, ``np.round(exact, d)`` bit for bit.

    A request at any demand from the accepting norm up to `bound` returns
    the same rounding bit for bit: every coarser grid failed at `bound`,
    and so fails at any lower demand, while this one fits at its accepting
    norm and above.
    """
    if bound <= 0:
        return exact.copy(), 0.0
    flat = exact.reshape(-1)
    batch = min(max(_GRID_ELEMENTS // max(flat.size, 1), 1), len(_DECIMAL_SCALES))
    roundings, errors = np.empty((batch, flat.size)), np.empty((batch, flat.size))
    for first in range(0, len(_DECIMAL_SCALES), batch):
        scales = _DECIMAL_SCALES[first:first + batch, None]
        rounded, errs = roundings[:len(scales)], errors[:len(scales)]
        np.multiply(flat, scales, out=rounded)
        np.rint(rounded, out=rounded)
        rounded /= scales
        np.subtract(rounded, flat, out=errs)
        for k, squares in enumerate(_row_dots(errs, errs).tolist()):
            in_range = _LEAST_SQUARES <= squares < math.inf
            norm = math.sqrt(squares) if in_range else _frobenius(errs[k])
            if norm <= bound:
                return rounded[k].reshape(exact.shape), norm
    return exact.copy(), 0.0


class Oracle:
    """Owns the noise stream and the evaluation counters.

    One solver run owns one oracle; independent runs may hold independent
    oracles concurrently.  With a fixed seed the injected noise is a pure
    function of the call sequence.
    """

    def __init__(self, problem: Problem, noise: NoiseModel):
        self.problem = problem
        self.noise = noise
        self.counters = EvalCounters()
        self._rng = np.random.default_rng(noise.seed)

    def inexact_value(self, x, bound: float) -> tuple:
        """``(value, achieved)``: f at x with ``achieved = |value - f(x)| <=
        bound`` (bound >= 0), the error measured.  Counts one eval.

        ``achieved`` is 0 for exact noise or a zero bound.  A truncated
        value is f(x) rounded through `_truncate_tensor` as a one-entry
        array, and is f(x) itself when no grid of 0..16 decimals fits.  A
        bounded value is f(x) moved by ``fill_fraction * bound``, stepped
        back an ulp at a time where rounding carried it past the bound.
        """
        if not bound >= 0:
            raise ValueError(f"bound must be >= 0, got {bound}")
        x = np.asarray(x, dtype=float)
        exact = self.problem.value(x)
        self.counters.value_evals += 1
        if not math.isfinite(exact):
            raise OracleFaultError(_fault(self.problem, x, 0, np.asarray(exact)))
        if self.noise.kind == "exact" or bound == 0.0:
            return exact, 0.0
        if self.noise.kind == "truncation":
            rounded, achieved = _truncate_tensor(np.array([exact]), bound)
            return float(rounded[0]), achieved
        sign = 1.0 if self._rng.random() < 0.5 else -1.0
        value = exact + sign * self.noise.fill_fraction * bound
        while abs(value - exact) > bound:  # rounding carried the fill past the bound
            value = math.nextafter(value, exact)
        return value, abs(value - exact)

    def _perturb_tensor(self, exact: np.ndarray, bound: float) -> tuple:
        """``(tensor, achieved)``: `exact` within ``achieved <= bound`` in
        `operator_norm`, ``achieved`` being the measured norm of the error:
        unchanged, with 0, for exact noise or a zero bound; rounded for
        truncation (see `_truncate_tensor`); and for bounded noise moved by
        ``fill_fraction * bound`` along a random direction.

        Every order follows one rule: a Gaussian v in R^n, and the rank-one
        direction v (x) ... (x) v, with a random sign at even orders (at odd
        orders -v already gives it), sized by its `operator_norm`.  On a
        rank-one tensor the Frobenius norm is the induced norm, so the
        error is ``fill_fraction * bound`` in both, up to the rounding of
        ``exact + direction``.  Where that rounding carries it past the
        bound, every entry steps back an ulp toward `exact` until it fits,
        which ends at `exact` and 0 where rounding alone exceeds the bound.
        Each request draws n numbers, and one more for the sign at order 2.
        """
        if self.noise.kind == "exact" or bound == 0.0:
            return exact.copy(), 0.0
        if self.noise.kind == "truncation":
            return _truncate_tensor(exact, bound)
        v = self._rng.standard_normal(len(exact))
        direction = v
        for _ in range(exact.ndim - 1):
            direction = np.multiply.outer(direction, v)
        sign = -1.0 if exact.ndim % 2 == 0 and self._rng.random() < 0.5 else 1.0
        size = operator_norm(direction)
        if size == 0.0:
            return exact.copy(), 0.0
        direction *= sign * self.noise.fill_fraction * bound / size
        direction += exact
        achieved = _frobenius(direction - exact)
        while achieved > bound:  # rounding carried the fill past the bound
            np.nextafter(direction, exact, out=direction)
            achieved = _frobenius(direction - exact)
        return direction, achieved

    def inexact_bundle(self, x, accuracies, p: int) -> tuple:
        """``(bundle, achieved)``: the derivative bundle at x with per-order
        error bounds `accuracies`, and per order the measured `operator_norm`
        of its error, ``achieved <= accuracies`` (see `_perturb_tensor`), as
        a float array.  Counts one derivative evaluation, and raises
        `OracleFaultError` when a derivative the problem returned has the
        wrong shape or a non-finite entry."""
        x = np.asarray(x, dtype=float)
        accuracies = np.asarray(accuracies, dtype=float)
        if accuracies.shape != (p,):
            raise ValueError(f"need {p} accuracy entries, got {accuracies.shape}")
        if not (accuracies >= 0).all():
            raise ValueError(f"accuracy entries must be >= 0, got {accuracies}")
        exacts = [self.problem.derivative(x, i) for i in range(1, p + 1)]
        self.counters.derivative_evals += 1
        for order, exact in enumerate(exacts, start=1):
            fault = _fault(self.problem, x, order, exact)
            if fault:
                raise OracleFaultError(fault)
        pairs = [self._perturb_tensor(exact, acc)
                 for exact, acc in zip(exacts, accuracies.tolist())]
        return DerivativeBundle([t for t, _ in pairs]), np.array([a for _, a in pairs])


# ---------------------------------------------------------------------------
# Built-in benchmark problems.  All expose exact derivatives up to order 3
# and a certified lower bound on f, which is what certificate verification
# and the theoretical eval bounds need.
# ---------------------------------------------------------------------------


def _quadratic(dim: int) -> Problem:
    # Fixed rotation per dimension so runs are reproducible across processes.
    rng = np.random.default_rng(1234 + dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = q @ np.diag(np.linspace(1.0, 10.0, dim)) @ q.T
    a = 0.5 * (a + a.T)

    def value(x):
        return 0.5 * x @ a @ x

    def deriv(x, i):
        if i == 1:
            return a @ x
        if i == 2:
            return a
        return np.zeros((dim,) * i)

    return Problem("quadratic", dim, value, deriv, 0.0, np.ones(dim), 3)


def _rosenbrock(dim: int) -> Problem:
    if dim < 2:
        raise ValueError("rosenbrock needs dim >= 2")

    def value(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def deriv(x, i):
        n = dim
        if i == 1:
            g = np.zeros(n)
            g[:-1] += -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
            g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
            return g
        if i == 2:
            h = np.zeros((n, n))
            for k in range(n - 1):
                h[k, k] += -400.0 * x[k + 1] + 1200.0 * x[k] ** 2 + 2.0
                h[k, k + 1] += -400.0 * x[k]
                h[k + 1, k] += -400.0 * x[k]
                h[k + 1, k + 1] += 200.0
            return h
        t = np.zeros((n, n, n))
        for k in range(n - 1):
            t[k, k, k] += 2400.0 * x[k]
            t[k, k, k + 1] += -400.0
            t[k, k + 1, k] += -400.0
            t[k + 1, k, k] += -400.0
        return t

    x0 = np.array([-1.2 if k % 2 == 0 else 1.0 for k in range(dim)])
    return Problem("rosenbrock", dim, value, deriv, 0.0, x0, 3)


def _quartic(dim: int) -> Problem:
    # Separable double well: nonconvex, minimizers at +-1 per coordinate.
    def value(x):
        return float(np.sum((x**2 - 1.0) ** 2))

    def deriv(x, i):
        if i == 1:
            return 4.0 * x * (x**2 - 1.0)
        if i == 2:
            return np.diag(12.0 * x**2 - 4.0)
        t = np.zeros((dim,) * 3)
        idx = np.arange(dim)
        t[idx, idx, idx] = 24.0 * x
        return t

    x0 = 0.6 * np.ones(dim)
    x0[1::2] = -0.4
    return Problem("quartic", dim, value, deriv, 0.0, x0, 3)


def _sineq(dim: int) -> Problem:
    def value(x):
        return float(np.sum(np.sin(x)) + 0.5 * x @ x)

    def deriv(x, i):
        if i == 1:
            return np.cos(x) + x
        if i == 2:
            return np.diag(-np.sin(x) + 1.0)
        t = np.zeros((dim,) * 3)
        idx = np.arange(dim)
        t[idx, idx, idx] = -np.cos(x)
        return t

    return Problem("sineq", dim, value, deriv, float(-dim), np.ones(dim), 3)


# Built-in problems by name, in the order `PROBLEM_NAMES` and the CLI list them.
_PROBLEMS = {
    "quadratic": _quadratic,
    "rosenbrock": _rosenbrock,
    "quartic": _quartic,
    "sineq": _sineq,
}
PROBLEM_NAMES = tuple(_PROBLEMS)


def make_problem(name: str, dim: int) -> Problem:
    if name not in _PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return _PROBLEMS[name](dim)


_LIPSCHITZ_SAMPLES = 48
_LIPSCHITZ_SEED = 7


def _finite_norms(problem: Problem, order: int, norms: np.ndarray, at) -> np.ndarray:
    """`norms`, all checked at once: a non-finite one raises
    `OracleFaultError` naming the derivative order and ``at(i)``, the point
    (or the pair of points of a difference) behind the first such norm i."""
    finite = np.isfinite(norms)
    if finite.all():
        return norms
    where = " and ".join(map(_point_text, np.atleast_2d(at(int(np.argmin(finite))))))
    raise OracleFaultError(
        f"problem {problem.name!r} returned a derivative of order {order} with a "
        f"non-finite norm in a Lipschitz estimate, x = {where}"
    )


def _shaped_derivative(problem: Problem, x: np.ndarray, order: int) -> np.ndarray:
    """problem's order-`order` derivative at x; one of the wrong shape raises
    `OracleFaultError`.  Its entries are left to the norm taken of it
    (`_finite_norms`), so no extra pass reads them."""
    tensor = problem.derivative(x, order)
    if tensor.shape != (problem.dim,) * order:
        raise OracleFaultError(_fault(problem, x, order, tensor))
    return tensor


def estimate_lipschitz(problem: Problem, x0, p: int) -> float:
    """Sampled estimate of max_j L_{f,j}, j = 0..p, near the start point.

    The largest `lipschitz_over_points` over orders 0..p at x0 followed by
    48 seeded points in the box of half-width max(1, ||x0|| + 1) around it,
    so the start estimate and the visited-region estimate follow one rule;
    floored at 1.  A derivative of the wrong shape, or a non-finite norm,
    raises `OracleFaultError`.
    """
    x0 = np.asarray(x0, dtype=float)
    radius = max(1.0, _norm(x0) + 1.0)
    rng = np.random.default_rng(_LIPSCHITZ_SEED)
    pts = x0 + radius * rng.uniform(-1.0, 1.0, size=(_LIPSCHITZ_SAMPLES, x0.size))
    pts = np.vstack([x0[None, :], pts])
    return max(lipschitz_over_points(problem, pts, j) for j in range(p + 1))


# A norm whose sum of squares overflows is rescaled (`_norm`), and an overflow
# in a derivative or a difference leaves a non-finite norm, which raises:
# numpy's overflow warnings tell nothing more, so they are ignored, once per
# call rather than per tensor.
@np.errstate(over="ignore")
def lipschitz_over_points(problem: Problem, points, order: int) -> float:
    """Estimate of L_{f,order} over a set of points (a visited region's
    trace points and segments, or `estimate_lipschitz`'s samples); floored
    at 1.

    Every tensor is measured in `operator_norm`, the Frobenius norm.  Where
    the problem has the order-(order + 1) derivative, the largest of its
    norms at the distinct points: over a segment from a to b,
    ||D^order f(a) - D^order f(b)||_F / ||a - b|| is at most the largest
    Frobenius norm of D^(order + 1) f along it.  Otherwise the largest
    difference quotient ||D^order f(a) - D^order f(b)||_F / ||a - b|| over
    the consecutive pairs more than 1e-12 apart (a point repeated after a
    rejected step still pairs with its neighbours).

    A derivative of the wrong shape, or a non-finite norm, raises
    `OracleFaultError`.  Points are told apart by their bytes, so each
    distinct point's derivative is evaluated once, in order of first use.
    Each tensor is normed as it is made (`operator_norm`'s kernel), and an
    order-`order` derivative is kept only from the first pair that reads
    it to the last, so memory holds a few tensors at a time, not one per
    point.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return 1.0
    slot_of = {}
    slots = [slot_of.setdefault(x.tobytes(), len(slot_of)) for x in pts]
    distinct = pts[np.unique(slots, return_index=True)[1]]
    if order + 1 <= problem.p_max:
        norms = np.array([_frobenius(_shaped_derivative(problem, x, order + 1))
                          for x in distinct])
        norms = _finite_norms(problem, order + 1, norms, distinct.__getitem__)
        return max(1.0, float(norms.max()))

    steps = pts[:-1] - pts[1:]
    gaps = np.sqrt(_row_dots(steps, steps))
    ends = np.flatnonzero(gaps > 1e-12)  # pair i joins points i and i + 1
    if not len(ends):
        return 1.0
    last = {}  # slot -> the last kept pair that reads its derivative
    for at, i in enumerate(ends):
        last[slots[i]] = last[slots[i + 1]] = at

    live, norms = {}, []
    for at, i in enumerate(ends):
        pair = (slots[i], slots[i + 1])
        for s in pair:
            if s not in live:
                live[s] = _shaped_derivative(problem, distinct[s], order)
        norms.append(_frobenius(live[pair[0]] - live[pair[1]]))
        for s in pair:
            if last[s] == at:
                del live[s]
    norms = _finite_norms(problem, order, np.array(norms), lambda i: pts[ends[i]:ends[i] + 2])
    return max(1.0, float((norms / gaps[ends]).max()))
