"""Ball-constrained decrement maximization and regularized-model minimization.

Two jobs live here.  `optimality_measure` maximizes a degree-j Taylor
decrement over a Euclidean ball, the quantity the outer algorithm uses both
as its optimality measure and as its progress certificate:

    order 1  closed form (scaled steepest descent), exact;
    order 2  global trust-region subproblem, near-exact: the Newton step
             when H is positive definite and it lies in the ball, else one
             Moré-Sorensen Newton iteration on the secular equation, its
             solves by Cholesky factors of H + mu I or, for any other H, in
             closed form in the eigenbasis;
    order 3  projected gradient ascent from 50 starts, advanced together
             as the rows of one array (each row with its own step size and
             stop rules, a stopped row masked out, an improved row
             overwritten in place) for at most 80 iterations, each
             contracting H and T with the candidate rows in one GEMM
             apiece; the ascent direction reuses the products of the last
             accepted candidates.  The starts that depend on n alone (the
             signed axes and the seeded random draws) come from a table
             built once per n and scaled by delta.  It stops early once
             the best decrement over all starts stalls (it rose by at most
             1e-12 of itself over the last 15 iterations), or, inside the
             radius search, once it exceeds the radius's bar; it claims
             half the optimum, a heuristic bound the tests check against
             grid searches at n = 2 and 3 and a 1 000-start ascent at
             n = 4 to 8.

`minimize_model` returns a step of the regularized Taylor model that is
either long (norm >= 1) or at which the model's own ball measures are
provably small, the two exits the outer algorithm accepts; only a short
step carries radii.  "Small" is per order: the caller (step 2 of the
solver) passes one smallness target per order, and the measure of order
ell at radius delta must not exceed
``target * delta**ell / ell!``.  At p = 2 it first takes the cubic model's
global minimizer, from the trust-region solve's own secular iteration with
the radius 2 mu / sigma in place of delta (`_minimize_cubic`); its model
gradient is zero and its model Hessian positive semidefinite, so it
certifies at once unless rounding says otherwise.  From a step that does
not certify, and at p = 1 and 3 from the warm start, a safeguarded
trust-region Newton iteration descends until one exit is reached; at odd p
it measures each trial's model drop from the model's Taylor series at the
iterate, which is finite there, rather than as a difference of two
decrements from 0, which cancels near the model's minimizer.

The public functions validate their arguments; below them one kernel
computes.  `minimize_model` holds the model at each iterate and trial as
one `tensors._ModelPoint`, so a trial's decrement and, once it is accepted,
its shifted derivatives share ||s|| and the products T @ s.  Its step
certification settles order 1 from the model gradient with the arithmetic
of the order-1 measure and builds a derivative bundle only once the checks
reach order 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .tensors import (
    DerivativeBundle,
    RegularizedModel,
    _ModelPoint,
    _full_contraction,
    _norm,
    _row_dots,
    _taylor_decrement,
)

__all__ = [
    "MeasureResult",
    "StepResult",
    "SolveStoppedError",
    "SubsolverStallError",
    "ORDER_GUARANTEES",
    "solve_trs",
    "optimality_measure",
    "radius_search",
    "minimize_model",
]

# Certified fraction of the true ball-constrained optimum, per order.
ORDER_GUARANTEES = {1: 1.0, 2: 1.0 - 1e-8, 3: 0.5}

_ORDER3_STARTS = 50
_ORDER3_ITERS = 80
# Stall stop of the ascent (see _measure_order3).  On 600 seeded random
# bundles (n = 2-8, tensor scales over six decades) a 15-iteration window
# lost at most 1.5e-7 of the full ascent's measure, a 10-iteration window 3e-5.
_ORDER3_STALL_WINDOW = 15
_ORDER3_STALL_RTOL = 1e-12


class SolveStoppedError(RuntimeError):
    """A solve stopped without a certificate.

    ``status`` says why: ``budget`` (iterations ran out), ``stall`` (an inner
    solve hit its iteration or radius floor, a step-1 radius halved to 0,
    or a step-1 certificate threshold fell below the normal range),
    ``invariant`` (a bound the theory guarantees was crossed) or
    ``oracle`` (the problem returned a non-finite value or derivative, or
    one of the wrong shape).
    `solve` attaches the run's ``trace`` (ending with the interrupted
    iteration, unless the budget ran out) and its ``counters`` before it
    re-raises.
    """

    status = ""

    def __init__(self, message: str):
        super().__init__(message)
        self.trace = []
        self.counters = None


class SubsolverStallError(SolveStoppedError):
    """Inner solve hit its iteration or radius floor, a step-1 radius
    halved to 0, or a step-1 certificate threshold fell below the normal
    range; the message carries the numbers (iterations, step or gradient
    norm, radius floor; for step 1 the order and radius, with sigma or the
    threshold)."""

    status = "stall"


@dataclass(frozen=True)
class MeasureResult:
    """Certified lower bound on a ball-constrained Taylor decrement maximum."""

    phi_bar: float
    displacement: np.ndarray


@dataclass(frozen=True)
class StepResult:
    """Outcome of approximately minimizing the regularized model.

    Either a long step (``norm`` = ||step|| >= 1, ``radii`` None) or a short
    step with per-order radii and ``phi_bars``, the model's ball measure at
    the step for each order at its radius, certified small.
    """

    step: np.ndarray
    radii: np.ndarray | None
    phi_bars: tuple | None
    norm: float
    inner_iterations: int = 0


def _lex_ge(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return True
        if x < y:
            return False
    return True


def _complete_to_boundary(base, u, delta, g, hs):
    """Both boundary points of the line base + t u; the one with the lower
    g.d + d'(hs)d / 2 wins, within 1e-14 relative the lexicographically larger.

    Solves ||base + t u||^2 = delta^2 exactly, so the completion stays on
    the sphere even when base is not orthogonal to u.
    """
    bu = float(base @ u)
    disc = bu * bu + delta**2 - float(base @ base)
    root = math.sqrt(max(disc, 0.0))
    a, b = base + (-bu + root) * u, base + (-bu - root) * u
    va, vb = (float(g @ d + 0.5 * d @ hs @ d) for d in (a, b))
    tol = 1e-14 * (1.0 + abs(va))
    return b if vb < va - tol or (abs(vb - va) <= tol and _lex_ge(b, a)) else a


def solve_trs(g: np.ndarray, h: np.ndarray, delta: float) -> np.ndarray:
    """Global solution of min g.d + 0.5 d'Hd subject to ||d|| <= delta.

    The global minimizer d* satisfies (H + mu I) d* = -g with
    H + mu I >= 0, mu >= 0 and mu (delta - ||d*||) = 0.  As in Moré &
    Sorensen (1983), `_factor_solve` at mu = 0 factors the symmetrized H
    first: when it succeeds, H is positive definite, and a Newton step
    d = -H^-1 g with ||d|| <= delta is the solution (mu = 0).  A Newton
    step outside the ball is moved to the boundary by `_secular_newton`
    from mu = 0, one factorization of H + mu I per step; only this path
    solves for the ||w|| that Newton's derivative needs.  Every other case
    (H not positive definite, a failed factorization, or an iteration that
    does not converge) is solved by the same iteration in the eigenbasis of
    H (see `_solve_trs_eigen`), with g and H first scaled by a power of two
    when an entry exceeds 2**500 (the eigenvalues and the objective could
    overflow near the largest float) or ||g|| / delta reaches 2**1000 (the
    eigen path's secular scale would overflow at a tiny delta); that scales
    the objective, not its minimizer.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    delta = float(delta)
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if not np.isfinite(g).all():
        raise ValueError("g holds a non-finite entry")
    if not np.isfinite(h).all():
        raise ValueError("h holds a non-finite entry")
    hs = 0.5 * h  # halved first: h + h.T could overflow
    hs = hs + hs.T
    solved = _factor_solve(g, hs, 0.0)
    if solved is not None:
        d, chol = solved
        if _norm(d) <= delta:
            return d
        d, radius, converged = _secular_newton(partial(_secular_solve, g, hs), delta, 0.0,
                                               d, _w_norm(chol, d))
        if converged:
            return d * (radius / _norm(d))
    top = max(_max_abs(g), _max_abs(h))
    if top > 2.0**500 or not _norm(g) / delta < 2.0**1000:
        e = -math.frexp(top)[1]
        g, hs = np.ldexp(g, e), np.ldexp(hs, e)
    return _solve_trs_eigen(g, hs, delta)


# Newton steps one secular solve may take.  On 640 seeded positive definite
# boundary instances (n = 2-60, cond(H) = 1-1e12) the Cholesky path converged
# within 5 at cond(H) <= 1e3 and 13 at 1e8-1e12, or its residual stalled at
# the rounding of the factors (about 1e-10 at cond(H) = 1e8).
_TRS_NEWTON_STEPS = 19
# Relative residual | ||d(mu)|| - delta | / delta at which the secular
# iteration stops.
_TRS_SECULAR_RTOL = 1e-13


def _secular_newton(solve, delta, mu, d, w_norm, rate=0.0):
    """Newton's method on the secular equation 1/||d(mu)|| = 1/r(mu), with
    the target radius r(mu) = delta + rate * mu.

    ``solve(mu)`` returns d(mu) = -(H + mu I)^-1 g and ||w||, where
    ||w||^2 = d'(H + mu I)^-1 d, or None; `d` and `w_norm` are its values
    at a start `mu` left of the root.  A constant radius (rate 0) is the
    trust-region subproblem's secular equation.  The radius 2 mu / sigma
    (delta 0, rate 2 / sigma) is that of the cubic model
    g.s + s'Hs / 2 + sigma ||s||^3 / 6, whose minimizer has
    mu = sigma ||s|| / 2: Newton then runs on 1/||d(mu)|| - sigma / (2 mu),
    as in Cartis, Gould & Toint (2011, §6.1).  1/||d(mu)|| and -1/r(mu) are
    both concave in mu, so mu rises monotonically to the root; a residual
    | ||d|| - r(mu) | that does not fall is rounding.  Returns the last d,
    r(mu) at its mu, and whether its residual reached `_TRS_SECULAR_RTOL` *
    r(mu) before `_TRS_NEWTON_STEPS` steps, a residual that stops falling,
    an ||w|| that underflows to 0, or a failed solve.  The callers scale d
    onto r(mu): near the hard case ||d(mu)|| can move by a large fraction
    of itself within one ulp of mu, while r(mu) does not.
    """
    residual = math.inf
    for steps in range(_TRS_NEWTON_STEPS + 1):
        nd = _norm(d)
        radius = delta + rate * mu
        gap = abs(nd - radius)
        if gap <= _TRS_SECULAR_RTOL * radius:
            return d, radius, True
        if steps == _TRS_NEWTON_STEPS or not gap < residual or w_norm == 0.0:
            break
        residual = gap
        ratio = (nd / w_norm) ** 2
        step = ratio * (nd - radius) / radius
        if rate:  # the target's own slope, rate / r(mu)^2, joins the derivative
            step /= 1.0 + ratio * (nd / radius) * (rate / radius)
        mu += step
        solved = solve(mu)
        if solved is None:
            break
        d, w_norm = solved
    return d, radius, False


def _factor_solve(g, hs, mu):
    """d = -(H + mu I)^-1 g and the Cholesky factor U of H + mu I = U'U;
    None where H + mu I does not factor.  H + mu I is symmetric, so its
    transpose, a Fortran-ordered view of the same entries, is factored in
    place: one copy of H, not two.  At mu = 0 the diagonal is left as it
    is: adding 0.0 could only turn a -0.0 pivot into 0.0, and either
    fails the factorization."""
    a = hs.copy()
    if mu:
        a.reshape(-1)[:: g.size + 1] += mu  # a's diagonal, as a view
    chol, info = dpotrf(a.T, overwrite_a=1)
    if info != 0:
        return None
    d, _ = dpotrs(chol, -g)
    return d, chol


def _w_norm(chol, d):
    """||w|| with w = U^-T d, so ||w||^2 = d'(H + mu I)^-1 d for the
    Cholesky factor U of H + mu I."""
    w, _ = dtrtrs(chol, d, trans=1)
    return _norm(w)


def _secular_solve(g, hs, mu):
    """`_secular_newton`'s solve by `_factor_solve`: d(mu) and ||w||, or
    None."""
    solved = _factor_solve(g, hs, mu)
    if solved is None:
        return None
    d, chol = solved
    return d, _w_norm(chol, d)


def _solve_trs_eigen(g, hs, delta, rate=0.0, mu_start=0.0):
    """`solve_trs` in the eigenbasis of the symmetrized Hessian `hs`, or,
    with a `rate`, the secular equation of `_secular_newton`'s radius
    r(mu) = delta + rate * mu (see `_minimize_cubic`).

    A strictly convex interior solution, ||H^-1 g|| <= r(0), is the Newton
    step.  Otherwise the multiplier comes from `_secular_newton`, started
    just right of max(0, -lam_1), or at `mu_start` when that is larger (a
    lower bound on the root the caller knows), its solves closed form in
    the eigenbasis: e = -gh / (lam + mu) and ||w|| = ||e / sqrt(lam + mu)||.
    The hard case (gradient orthogonal to the minimal eigenspace with the
    pseudo-solution inside r(max(0, -lam_1))), and a root pinched against
    that start, are completed by moving along a minimal eigenvector to the
    target radius (`_complete_to_boundary`).  The step is scaled onto the
    radius at the last mu.
    """
    lam, q = np.linalg.eigh(hs)
    gh = q.T @ g
    lam1 = float(lam[0])
    top = float(np.max(np.abs(lam)))
    # mu's own scale: the m with m r(m) = ||gh|| at delta or at rate 0
    scale = max(1.0, top, _norm(gh) / delta if delta else math.sqrt(_norm(gh) / rate))

    # Strictly convex interior solution the factorization missed (H at the
    # edge of definiteness, or a Newton step on the sphere within rounding).
    if lam1 > 0:
        d = q @ (-gh / lam)
        if _norm(d) <= delta:
            return d

    mu_floor = max(0.0, -lam1)
    # Relative to the spectrum alone, so a power-of-two rescale of g and H
    # leaves the mask as it is.
    min_mask = lam - lam1 <= 1e-12 * top
    gh_min = float(np.max(np.abs(gh[min_mask]), initial=0.0))

    nz = ~min_mask
    d0 = np.zeros_like(g)
    d0[nz] = -gh[nz] / (lam[nz] + mu_floor)
    radius = delta + rate * mu_floor
    if gh_min <= 1e-11 * scale and _norm(d0) <= radius:
        return _complete_to_boundary(q @ d0, q[:, 0], radius, g, hs)

    def solve(mu):
        shifted = lam + mu
        e = -gh / shifted
        return e, _norm(e / np.sqrt(shifted))

    lo = max(mu_floor + max(1e-14, 1e-13 * scale), mu_start)
    e, w_norm = solve(lo)
    radius = delta + rate * lo
    if _norm(e) <= radius:
        # Root is pinched against the floor; the offset solution already
        # sits (numerically) inside the target, so complete as in the hard
        # case.
        return _complete_to_boundary(q @ e, q[:, 0], radius, g, hs)
    e, radius, _ = _secular_newton(solve, delta, lo, e, w_norm, rate)
    d = q @ e
    nd = _norm(d)
    if nd > 0:
        d *= radius / nd
    return d


def _minimize_cubic(g: np.ndarray, h: np.ndarray, sigma: float) -> np.ndarray:
    """Global minimizer of the cubic model g.s + s'Hs / 2 + sigma ||s||^3 / 6,
    for sigma > 0.

    The model is first scaled by powers of two: s = 2^a u, where u
    minimizes the model of 2^(-c-a) g, 2^-c H and 2^(a-c) sigma, with
    sigma then in [1/2, 1), no entry of g or H of magnitude 1 or more, and
    c even.  That model's minimizer and multiplier are of order one, so
    `_solve_cubic` stays inside the float range; a minimizer beyond it
    comes back infinite.
    """
    e_sigma = math.frexp(sigma)[1]
    c = max(math.frexp(_max_abs(h))[1], (math.frexp(_max_abs(g))[1] + e_sigma + 1) // 2)
    c += c % 2  # even, so that the Cholesky factors of H scale by 2^(-c/2)
    a = c - e_sigma
    u = _solve_cubic(np.ldexp(g, -c - a), np.ldexp(h, -c), math.ldexp(sigma, -e_sigma))
    return np.ldexp(u, a)


def _max_abs(x: np.ndarray) -> float:
    """max |x| of a finite array, without an |x| temporary."""
    return max(float(x.max()), -float(x.min()))


def _solve_cubic(g: np.ndarray, h: np.ndarray, sigma: float) -> np.ndarray:
    """`_minimize_cubic` of a model scaled to order one.

    It solves (H + mu I) s = -g with mu = sigma ||s|| / 2 and H + mu I >= 0
    (Cartis, Gould & Toint 2011, Thm 3.1): `_secular_newton` with the
    radius 2 mu / sigma, on Cholesky factors of H + mu I.  Newton starts
    from a lower bound on the root, so that mu rises to it.  The first bound
    rests on ||s(mu)|| >= ||g|| / (R + mu), R = g'Hg / ||g||^2 the Rayleigh
    quotient (Cauchy-Schwarz): left of the mu where that equals 2 mu / sigma,
    ||s(mu)|| exceeds the radius.  The second rests on the tangent of the
    concave 1/||s(mu)|| at the first, which lies above it: the root is
    right of the mu where the tangent meets sigma / (2 mu).  Both are the
    positive root of a quadratic (`_positive_root`).  Where H + mu I does
    not factor at the first bound, or the iteration does not converge, the
    same iteration runs in the eigenbasis from the last bound
    (`_solve_trs_eigen`), whose hard-case and pinched-root completion
    covers a gradient orthogonal to the lowest eigenvector, g = 0 included.
    """
    hs = 0.5 * h
    hs = hs + hs.T  # 0.5 h' is (0.5 h)' exactly
    rate = 2.0 / sigma
    ng = _norm(g)
    mu = _positive_root(float(g @ (hs @ g)) / ng / ng, 0.5 * sigma * ng) if ng > 0 else 0.0
    solved = _secular_solve(g, hs, mu) if mu > 0 else None
    if solved is not None and solved[1] > 0:
        nd = _norm(solved[0])
        ratio = (nd / solved[1]) ** 2  # 1/||s|| has the slope 1 / (||s|| ratio)
        mu = _positive_root(ratio - mu, 0.5 * sigma * nd * ratio)
        solved = _secular_solve(g, hs, mu)
    if solved is not None:
        d, radius, converged = _secular_newton(partial(_secular_solve, g, hs), 0.0, mu, *solved,
                                               rate)
        if converged:
            return d * (radius / _norm(d))
    return _solve_trs_eigen(g, hs, 0.0, rate, mu)


def _positive_root(b: float, k: float) -> float:
    """The positive root of m^2 + b m = k, for k > 0, without cancellation."""
    root = math.hypot(b, 2.0 * math.sqrt(k))
    return 2.0 * k / (b + root) if b > 0 else 0.5 * (root - b)


def _steepest_descent(g: np.ndarray, delta: float):
    """(decrement, displacement) of the order-1 ball measure of gradient g:
    the step -delta g / ||g||, or zero when g vanishes."""
    ng = _norm(g)
    if ng == 0.0:
        return 0.0, np.zeros(g.shape[0])
    d = -(delta / ng) * g
    return _taylor_decrement((g,), d, 1), d


def _measure_order2(bundle: DerivativeBundle, delta: float) -> MeasureResult:
    d = solve_trs(bundle.tensors[0], bundle.tensors[1], delta)
    dec = _taylor_decrement(bundle.tensors, d, 2)
    if dec <= 0.0:
        return MeasureResult(0.0, np.zeros(bundle.dim))
    return MeasureResult(dec, d)


def _row_products(d: np.ndarray, h: np.ndarray, t: np.ndarray):
    """H d and T[., d, d] for every row d of the k x n stack, one GEMM apiece.

    H d is ``d @ H.T``; T[., d, d] is the pair products d_b d_c of every row
    (k x n^2) times ``T.reshape(n, n^2).T``.  Both contract the trailing
    axes, as ``h @ d`` and ``(t @ d) @ d`` do, so a tensor that is symmetric
    only up to rounding gives what those products give.
    """
    k, n = d.shape
    return d @ h.T, (d[:, :, None] * d[:, None, :]).reshape(k, n * n) @ t.reshape(n, n * n).T


@cache
def _order3_start_table(n: int):
    """The part of the order-3 starts that depends on n alone, built once
    per n as read-only arrays ``(axes, z, a, nz)``.

    ``axes`` holds the signed unit axes +e_0, -e_0, +e_1, ...; ``z``, ``a``
    and ``nz`` the seeded random draws, each a standard normal vector z,
    then u ** (1/n) for a uniform u, drawn in that order from
    ``default_rng(101)``, and ||z||.  One start, the trust-region step,
    always precedes them, so the table stops at `_ORDER3_STARTS` - 1 rows
    of axes and draws together.  `_measure_order3` scales an axis by delta
    and a draw to ``z * ((delta * a) / nz)``, a point in the delta-ball.
    """
    rows = _ORDER3_STARTS - 1
    m = min(2 * n, rows)
    axes = np.zeros((m, n))
    axes[np.arange(m), np.arange(m) // 2] = 1.0
    axes[1::2] *= -1.0  # -e carries -0.0 off its axis, as negating e does
    k = rows - m
    rng = np.random.default_rng(101)
    z, a, nz = np.empty((k, n)), np.empty((k, 1)), np.empty((k, 1))
    for i in range(k):
        z[i] = v = rng.standard_normal(n)
        a[i] = rng.random() ** (1.0 / n)
        nz[i] = _norm(v)
    for x in (axes, z, a, nz):
        x.flags.writeable = False
    return axes, z, a, nz


def _measure_order3(bundle: DerivativeBundle, delta: float, stop_above: float) -> MeasureResult:
    """Multi-start projected gradient ascent on the cubic Taylor decrement.

    The starts (scaled steepest descent when g is nonzero, the trust-region
    step, the signed coordinate axes, then seeded random points in the
    ball, the first 50 of them) advance together as the rows of one array.
    The axes and the random draws come from `_order3_start_table`, built
    once per n, and are scaled by delta here, with the arithmetic a draw
    made at each call would use.  Each row has its own step size, grown on
    an accepted move and halved on a rejected one, and stops (leaves the
    ``live`` mask) when its gradient vanishes or its step falls below
    1e-12 delta; every row is computed each iteration, a stopped row's
    results are masked out, and a row whose candidate improves is
    overwritten in place.  Each evaluation of the row stack contracts H
    and T with it in one GEMM apiece (see `_row_products`).  The ascent
    direction at a row, -(g + H d + T[., d, d] / 2), reuses the
    products computed when that row was evaluated as a start or an accepted
    candidate, so an iteration contracts the tensors once, at the
    candidates.  The whole ascent stops after `_ORDER3_ITERS` iterations, or
    earlier once the best decrement over all rows has risen by at most
    `_ORDER3_STALL_RTOL` of its magnitude over the last
    `_ORDER3_STALL_WINDOW` iterations (the start values count as
    iteration 0), or as soon as it exceeds `stop_above`: no row's decrement
    ever falls, so the result would too.  The best decrement wins (a NaN
    row never does); among equal decrements the lexicographically largest
    displacement, the later row on a full tie (as `_lex_ge` reads it).
    """
    g, h, t = bundle.tensors[0], bundle.tensors[1], bundle.tensors[2]
    n = bundle.dim
    axes, z, a, nz = _order3_start_table(n)

    def evaluate(d):
        """The rows of d scaled back onto the delta-ball where they lie
        outside, with H d, T[., d, d] and the decrement of each row."""
        d = d * (delta / np.maximum(np.sqrt(_row_dots(d, d)), delta))[:, None]
        hd, tdd = _row_products(d, h, t)
        return d, hd, tdd, ((0.0 - d @ g) - _row_dots(hd, d) / 2) - _row_dots(tdd, d) / 6

    starts = np.empty((_ORDER3_STARTS, n))
    k = 0
    ng = _norm(g)
    if ng > 0:
        starts[k] = -(delta / ng) * g
        k += 1
    starts[k] = solve_trs(g, h, delta)
    k += 1
    m = min(len(axes), _ORDER3_STARTS - k)
    np.multiply(axes[:m], delta, out=starts[k:k + m])
    k += m
    m = _ORDER3_STARTS - k
    np.multiply(z[:m], (delta * a[:m]) / nz[:m], out=starts[k:])

    d, hd, tdd, v = evaluate(starts)
    step = np.full(len(d), 0.5 * delta)
    live = np.ones(len(d), dtype=bool)
    best = [float(v.max())]  # best decrement over all rows, per iteration
    for _ in range(_ORDER3_ITERS):
        if best[-1] > stop_above:
            break
        gr = -(g + hd + 0.5 * tdd)
        ngr = np.sqrt(_row_dots(gr, gr))
        moving = live & (ngr >= 1e-14)
        # a row that does not move divides by 1e-14 instead of its vanishing
        # gradient norm; its candidate is masked out below
        cand, cand_hd, cand_tdd, cv = evaluate(
            d + step[:, None] * gr / np.maximum(ngr, 1e-14)[:, None])
        up = moving & (cv > v)
        won = up[:, None]
        np.copyto(d, cand, where=won)
        np.copyto(hd, cand_hd, where=won)
        np.copyto(tdd, cand_tdd, where=won)
        np.copyto(v, cv, where=up)
        step *= np.where(up, 1.3, 0.5)
        live = moving & (up | (step >= 1e-12 * delta))
        if not live.any():
            break
        best.append(float(v.max()))
        if (len(best) > _ORDER3_STALL_WINDOW
                and best[-1] - best[-1 - _ORDER3_STALL_WINDOW]
                <= _ORDER3_STALL_RTOL * abs(best[-1])):
            break

    top = np.fmax.reduce(v)  # NaN rows are skipped; NaN only if every row is
    if not top > 0.0:
        return MeasureResult(0.0, np.zeros(n))
    best_d = None
    for i in np.flatnonzero(v == top):
        if best_d is None or _lex_ge(d[i], best_d):
            best_d = d[i]
    return MeasureResult(float(top), best_d.copy())


def optimality_measure(bundle: DerivativeBundle, j: int, delta: float, *,
                       stop_above: float = math.inf) -> MeasureResult:
    """Displacement in the delta-ball whose degree-j decrement certifies a
    fraction of the ball optimum (1, 1 - 1e-8 and 0.5 for orders 1, 2, 3).

    A caller that only asks whether the measure is at most `stop_above`
    may pass it: the order-3 ascent then stops once its best decrement
    exceeds it, and returns a measure above it that is not the optimum's
    certified fraction.  Orders 1 and 2 ignore it."""
    if not 1 <= j <= bundle.degree:
        raise ValueError(f"order {j} outside 1..{bundle.degree}")
    delta = float(delta)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if j == 1:
        return MeasureResult(*_steepest_descent(bundle.tensors[0], delta))
    if j == 2:
        return _measure_order2(bundle, delta)
    return _measure_order3(bundle, delta, stop_above)


_RADIUS_FLOOR = 1e-8
# Trust-region Newton iterations `minimize_model` may take before it stalls.
_MAX_INNER_ITERS = 500


def radius_search(bundle: DerivativeBundle, ell: int, target: float, delta_cap: float):
    """Largest radius on a halving grid from delta_cap, down to 1e-8, at
    which the order-ell ball measure of `bundle` (the model's derivatives at
    the step, orders 1..ell) is at most ``target * delta**ell / ell!``.

    Only orders >= 3 are searched; orders 1 and 2 keep radius 1.  The
    measure of a radius that fails is not kept, so its ascent stops as soon
    as it exceeds that radius's bar.
    """
    if ell < 3:
        raise ValueError("radius is fixed at 1 for orders 1 and 2")
    delta = min(1.0, float(delta_cap))
    while delta >= _RADIUS_FLOOR:
        bar = target * delta**ell / math.factorial(ell)
        m = optimality_measure(bundle, ell, delta, stop_above=bar)
        if m.phi_bar <= bar:
            return delta, m
        delta *= 0.5
    raise SubsolverStallError(
        f"radius search hit its floor {_RADIUS_FLOOR:.0e} "
        f"(order {ell}, target {target:.3e})"
    )


def _certify_step(point: _ModelPoint, targets, delta_caps):
    """(radii, phi_bars) with every order-1..q model measure at the point
    within its target, or None if some order fails (checked cheapest
    first).

    The model's derivatives at the point are built once each, order ell
    only when the checks reach it.  Order 1 is settled from the gradient
    alone; a bundle is built from order 2.
    """
    q = len(targets)
    radii = np.ones(q)
    phi, _ = _steepest_descent(point.derivative(1), 1.0)
    if phi > targets[0]:  # the order-1 target at delta = 1
        return None
    phi_bars = [phi]
    for ell in range(2, q + 1):
        sb = DerivativeBundle([point.derivative(i) for i in range(1, ell + 1)])
        if ell == 2:
            delta = 1.0
            m = optimality_measure(sb, ell, delta)
            if m.phi_bar > targets[ell - 1] * delta**ell / math.factorial(ell):
                return None
        else:
            try:
                delta, m = radius_search(sb, ell, targets[ell - 1], delta_caps[ell - 1])
            except SubsolverStallError:
                return None
        radii[ell - 1] = delta
        phi_bars.append(m.phi_bar)
    return radii, tuple(phi_bars)


def _odd_degree_drop(point: _ModelPoint, d: np.ndarray, nd: float, pred: float) -> float:
    """m(s) - m(s + d) for a model of odd degree p at `point`, given
    nd = ||d|| and `pred`, the drop of the model's second-order expansion
    at s along d.

    At odd p the regularized model is a polynomial of degree p + 1, so the
    drop is its Taylor series at s, which ends at order p + 1: at p = 1
    `pred` is all of it (the point's Hessian is sigma I), and at p = 3 the
    orders 3 and 4 add (T[d, d, d] + sigma (s.d) ||d||^2) / 6 and
    sigma ||d||^4 / 24.  No term is a decrement from 0, so near the model's
    minimizer, where the decrements at s and s + d agree to their last
    digits, the drop keeps its own.
    """
    if point.model.bundle.degree == 1:
        return pred
    sigma, d2 = point.model.sigma, nd * nd
    third = _full_contraction(point.model.bundle.tensors[2], d) + sigma * float(point.s @ d) * d2
    return pred - third / 6.0 - sigma * d2 * d2 / 24.0


def minimize_model(
    model: RegularizedModel,
    warm_start: np.ndarray,
    targets,
    delta_caps=None,
) -> StepResult:
    """Step for the outer algorithm: never worse than the warm start, and
    either long (norm >= 1) or certified nearly optimal for the model.

    A short step is certified when, for each order ell = 1..q with
    q = len(targets), the model's order-ell ball measure at the step is at
    most ``targets[ell-1] * delta**ell / ell!``: at delta = 1 for orders 1
    and 2, and at a radius found by `radius_search`, at most
    ``delta_caps[ell-1]``, for order 3.

    At p = 2 (with sigma > 0) the model's global minimizer comes first, by
    `_minimize_cubic`: it replaces the warm start when it is finite and
    decreases the model more.  From that point a trust-region Newton
    iteration descends on the model until a step certifies or is long
    (steepest descent is implicit: the trust-region step degrades to it as
    the radius shrinks).  A trial is accepted when the model drops from the
    iterate to it: at odd p by `_odd_degree_drop`, at p = 2 by the
    difference of their decrements.  Every accepted iterate keeps the
    model decrement at least that of the warm start, so the descent
    postcondition holds by monotonicity.

    ``warm_start`` is a displacement; the solver's step 2 passes the
    displacement of step 1's measure.
    """
    point = _ModelPoint(model, np.asarray(warm_start, dtype=float).copy())
    if delta_caps is None:
        delta_caps = np.ones(len(targets))
    if not point.decrement() > 0:
        raise ValueError("warm start must strictly decrease the model")

    def finish(current, iterations):
        """StepResult at the point `current`, or None if it fails certification."""
        if current.norm >= 1.0:
            return StepResult(current.s, None, None, current.norm, iterations)
        cert = _certify_step(current, targets, delta_caps)
        if cert is None:
            return None
        return StepResult(current.s, *cert, current.norm, iterations)

    if model.bundle.degree == 2 and model.sigma > 0:
        s = _minimize_cubic(*model.bundle.tensors, model.sigma)
        if np.isfinite(s).all():
            # At a tiny sigma the minimizer lies about 2 / sigma along the
            # negative curvature, and the model's products at it may leave
            # the float range: its decrement then reads inf or NaN, and the
            # warm start stays.  The overflow is expected there, so it is
            # not reported.
            with np.errstate(over="ignore", invalid="ignore"):
                best = _ModelPoint(model, s)
                dec = best.decrement()
            if math.isfinite(dec) and dec > point.decrement():
                point = best
    out = finish(point, 0)
    if out is not None:
        return out

    tr = max(0.25, min(1.0, point.norm))
    odd = model.bundle.degree % 2 == 1
    for it in range(1, _MAX_INNER_ITERS + 1):
        # The point keeps the derivatives `finish` built, so a rejected
        # trial costs no recomputation at the next Newton step.
        g1, h1 = point.derivative(1), point.derivative(2)
        d = solve_trs(g1, h1, tr)
        nd = _norm(d)
        pred = -(g1 @ d + 0.5 * d @ h1 @ d)
        if pred <= 0 or nd < 1e-16:
            # No descent available at this radius: the iterate is a numerical
            # second-order point of the model, and `finish` already failed
            # to certify it.
            raise SubsolverStallError(
                "model minimizer converged but step certification failed "
                f"(iteration {it}, gradient norm {_norm(g1):.3e})"
            )
        trial = _ModelPoint(model, point.s + d)
        if odd:
            actual = _odd_degree_drop(point, d, nd, pred)
        else:
            actual = trial.decrement() - point.decrement()
        if actual > 0:
            point = trial
            out = finish(point, it)
            if out is not None:
                return out
            if actual >= 0.75 * pred and nd >= 0.9 * tr:
                tr = min(2.0 * tr, 1e3)
        else:
            tr *= 0.25
            if tr < 1e-14:
                raise SubsolverStallError(
                    "trust region collapsed before certification "
                    f"(iteration {it}, gradient norm {_norm(g1):.3e})"
                )
    raise SubsolverStallError(
        f"inner iteration cap exceeded (iterations {_MAX_INNER_ITERS}, "
        f"step norm {point.norm:.3e})"
    )
