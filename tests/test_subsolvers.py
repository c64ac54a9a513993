import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from arq import subsolvers
from arq.subsolvers import (
    ORDER_GUARANTEES,
    SubsolverStallError,
    minimize_model,
    optimality_measure,
    radius_search,
    solve_trs,
)
from arq.tensors import (
    DerivativeBundle,
    RegularizedModel,
    _ModelPoint,
    _norm,
    _row_dots,
    taylor_decrement,
)

from conftest import polar_grid_phi, random_symmetric, sampled_norm3, sphere_grid_phi


def bundle2(g, h):
    return DerivativeBundle([np.asarray(g, float), np.asarray(h, float)])


class TestOrderOne:
    def test_closed_form_example(self):
        b = bundle2([3.0, 4.0], np.zeros((2, 2)))
        m = optimality_measure(b, 1, 0.5)
        assert m.phi_bar == pytest.approx(2.5, rel=1e-12)
        assert m.displacement == pytest.approx([-0.3, -0.4], rel=1e-12)

    def test_zero_gradient(self):
        b = bundle2([0.0, 0.0], np.eye(2))
        m = optimality_measure(b, 1, 1.0)
        assert m.phi_bar == 0.0
        assert np.all(m.displacement == 0.0)


class TestOrderTwo:
    def test_pure_negative_eigenvector_case(self):
        b = bundle2([0.0, 0.0], np.diag([-2.0, 1.0]))
        m = optimality_measure(b, 2, 1.0)
        assert m.phi_bar == pytest.approx(1.0, rel=1e-10)
        # tie broken toward the lexicographically larger displacement
        assert m.displacement == pytest.approx([1.0, 0.0], abs=1e-8)

    def test_spec_instance_against_polar_grid(self):
        g = np.array([1.0, 0.0])
        h = np.array([[-1.0, 0.0], [0.0, 2.0]])
        m = optimality_measure(bundle2(g, h), 2, 0.8)
        ref = polar_grid_phi([g, h], 0.8)
        assert m.phi_bar == pytest.approx(ref, rel=1e-4)

    def test_interior_solution_for_convex_problems(self):
        g = np.array([0.1, -0.2])
        h = np.diag([4.0, 2.0])
        m = optimality_measure(bundle2(g, h), 2, 1.0)
        d_star = -np.linalg.solve(h, g)
        assert m.displacement == pytest.approx(d_star, rel=1e-10)

    def test_random_instances_against_polar_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = rng.standard_normal(2)
            h = random_symmetric(rng, 2, 2)
            delta = float(rng.uniform(0.2, 1.0))
            m = optimality_measure(bundle2(g, h), 2, delta)
            ref = polar_grid_phi([g, h], delta)
            assert m.phi_bar == pytest.approx(ref, rel=1e-4, abs=1e-12)
            assert m.phi_bar >= ref * (1.0 - 1e-6)

    def test_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            g = rng.standard_normal(n)
            h = random_symmetric(rng, n, 2)
            delta = float(rng.uniform(0.05, 1.0))
            m = optimality_measure(bundle2(g, h), 2, delta)
            assert np.linalg.norm(m.displacement) <= delta + 1e-12
            assert m.phi_bar >= 0.0
            b = bundle2(g, h)
            assert m.phi_bar == taylor_decrement(b, m.displacement, 2)


def scalar_measure_order3(bundle, delta):
    """The order-3 measure one start at a time, each move checked with
    `taylor_decrement`: the reference the batched ascent must match to
    rounding.  The one-start loops advance in lockstep so that the stall
    stop can read the best decrement over all starts after each iteration."""
    g, h, t = bundle.tensors
    n = bundle.dim
    rng = np.random.default_rng(101)

    def project(d):
        nd = float(np.linalg.norm(d))
        return d if nd <= delta else d * (delta / nd)

    starts = []
    ng = float(np.linalg.norm(g))
    if ng > 0:
        starts.append(-(delta / ng) * g)
    starts.append(solve_trs(g, h, delta))
    for i in range(n):
        e = np.zeros(n)
        e[i] = delta
        starts.extend([e, -e])
    while len(starts) < 50:
        v = rng.standard_normal(n)
        v *= delta * rng.random() ** (1.0 / n) / np.linalg.norm(v)
        starts.append(v)

    ds = [project(np.asarray(d, dtype=float)) for d in starts[:50]]
    vs = [taylor_decrement(bundle, d, 3) for d in ds]
    steps = [0.5 * delta] * len(ds)
    live = [True] * len(ds)
    best = [max(vs)]
    for _ in range(80):
        for i, d in enumerate(ds):
            if not live[i]:
                continue
            gr = -(g + h @ d + 0.5 * (t @ d) @ d)
            ngr = float(np.linalg.norm(gr))
            if ngr < 1e-14:
                live[i] = False
                continue
            cand = project(d + steps[i] * gr / ngr)
            cv = taylor_decrement(bundle, cand, 3)
            if cv > vs[i]:
                ds[i], vs[i] = cand, cv
                steps[i] *= 1.3
            else:
                steps[i] *= 0.5
                live[i] = steps[i] >= 1e-12 * delta
        if not any(live):
            break
        best.append(max(vs))
        if len(best) > 15 and best[-1] - best[-16] <= 1e-12 * abs(best[-1]):
            break

    best_d, best_v = np.zeros(n), 0.0
    for d, v in zip(ds, vs):
        if v > best_v or (v == best_v and tuple(d) >= tuple(best_d)):
            best_d, best_v = d, v
    if best_v <= 0.0:
        return 0.0, np.zeros(n)
    return best_v, best_d


def ref_measure_order3(bundle, delta, stop_above=math.inf, n_starts=50):
    """The batched ascent as it was before its starts came from a table:
    the random starts drawn one at a time from a fresh ``default_rng(101)``
    on every call, the rows replaced by ``np.where`` copies and the best
    picked by a loop over all rows.  `optimality_measure` must match it bit
    for bit at 50 starts.  Returns (phi_bar, displacement, decrements of the
    final rows)."""
    g, h, t = bundle.tensors
    n = bundle.dim
    rng = np.random.default_rng(101)

    def evaluate(d):
        d = d * (delta / np.maximum(np.sqrt(_row_dots(d, d)), delta))[:, None]
        hd, tdd = subsolvers._row_products(d, h, t)
        return d, hd, tdd, ((0.0 - d @ g) - _row_dots(hd, d) / 2) - _row_dots(tdd, d) / 6

    starts = []
    ng = _norm(g)
    if ng > 0:
        starts.append(-(delta / ng) * g)
    starts.append(solve_trs(g, h, delta))
    for i in range(n):
        e = np.zeros(n)
        e[i] = delta
        starts.extend([e, -e])
    while len(starts) < n_starts:
        v = rng.standard_normal(n)
        v *= delta * rng.random() ** (1.0 / n) / _norm(v)
        starts.append(v)

    d, hd, tdd, v = evaluate(np.array(starts[:n_starts], dtype=float))
    step = np.full(len(d), 0.5 * delta)
    live = np.ones(len(d), dtype=bool)
    best = [float(v.max())]
    for _ in range(80):
        if best[-1] > stop_above:
            break
        gr = -(g + hd + 0.5 * tdd)
        ngr = np.sqrt(_row_dots(gr, gr))
        moving = live & (ngr >= 1e-14)
        cand, cand_hd, cand_tdd, cv = evaluate(
            d + step[:, None] * gr / np.maximum(ngr, 1e-14)[:, None])
        up = moving & (cv > v)
        won = up[:, None]
        d = np.where(won, cand, d)
        hd = np.where(won, cand_hd, hd)
        tdd = np.where(won, cand_tdd, tdd)
        v = np.where(up, cv, v)
        step = step * np.where(up, 1.3, 0.5)
        live = moving & (up | (step >= 1e-12 * delta))
        if not live.any():
            break
        best.append(float(v.max()))
        if len(best) > 15 and best[-1] - best[-16] <= 1e-12 * abs(best[-1]):
            break

    best_d, best_v = np.zeros(n), 0.0
    for di, vi in zip(d, v.tolist()):
        if vi > best_v or (vi == best_v and subsolvers._lex_ge(di, best_d)):
            best_d, best_v = di, vi
    if best_v <= 0.0:
        return 0.0, np.zeros(n), v
    return best_v, best_d.copy(), v


class TestOrderThreeStartTable:
    @staticmethod
    def assert_matches_reference(b, delta, stop_above=math.inf):
        m = optimality_measure(b, 3, delta, stop_above=stop_above)
        phi, disp, v = ref_measure_order3(b, delta, stop_above)
        assert type(m.phi_bar) is float
        assert np.float64(m.phi_bar).tobytes() == np.float64(phi).tobytes()
        assert m.displacement.tobytes() == disp.tobytes()
        return phi, v

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 23, 24, 25])
    @pytest.mark.parametrize("zero_gradient", [False, True])
    def test_bit_for_bit_against_draws_per_call(self, n, zero_gradient):
        # n = 24 fills the 50 rows with fixed starts (48 axes, the descent
        # and trust-region steps) unless the gradient vanishes; n = 25 cuts
        # the axes short.
        rng = np.random.default_rng(500 + n)
        for scales in ((0.1, 1.0, 3.0), (1.0, 0.01, 10.0), (5.0, 2.0, 0.1)):
            tensors = [c * random_symmetric(rng, n, i) for i, c in zip((1, 2, 3), scales)]
            if zero_gradient:
                tensors[0] = np.zeros(n)
            b, delta = DerivativeBundle(tensors), float(rng.uniform(0.05, 1.0))
            phi, _ = self.assert_matches_reference(b, delta)
            self.assert_matches_reference(b, delta, stop_above=0.5 * phi)

    def test_tied_best_rows_pick_the_same_row(self):
        # -H = I, T = 0: every boundary axis decrements by exactly delta^2/2.
        for n in (1, 2, 3):
            b = DerivativeBundle([np.zeros(n), -np.eye(n), np.zeros((n, n, n))])
            phi, v = self.assert_matches_reference(b, 0.5)
            assert np.count_nonzero(v == phi) >= 2

    def test_inf_and_nan_rows_pick_the_same_row(self):
        # Entries of +-1e308 in H and +-1.7e308 in T: products of the rows
        # overflow, and opposite infinities in one row's sum give NaN.
        rng = np.random.default_rng(9)
        for n in (2, 3, 5):
            b = DerivativeBundle([rng.standard_normal(n),
                                  1e308 * np.sign(random_symmetric(rng, n, 2)),
                                  1.7e308 * np.sign(random_symmetric(rng, n, 3))])
            with np.errstate(over="ignore", invalid="ignore"):
                _, v = self.assert_matches_reference(b, 1.0)
            assert np.isinf(v).any() and np.isnan(v).any()

    def test_table_is_read_only_and_built_once_per_dimension(self):
        table = subsolvers._order3_start_table(4)
        assert subsolvers._order3_start_table(4) is table
        assert subsolvers._order3_start_table(5) is not table
        for x in table:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[...] = 0.0


class TestOrderThree:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20])
    @pytest.mark.parametrize("zeroed", [None, 0, 2])
    def test_batched_ascent_matches_one_start_at_a_time(self, n, zeroed):
        # The stacked products round differently from the one-start ones, so
        # the measure matches to rounding; on a flat maximum the displacement
        # itself may move by far more than the decrement does.
        rng = np.random.default_rng(100 + n)
        for _ in range(6):
            tensors = [float(rng.uniform(0.01, 10.0)) * random_symmetric(rng, n, i)
                       for i in (1, 2, 3)]
            if zeroed is not None:
                tensors[zeroed] = np.zeros((n,) * (zeroed + 1))
            b = DerivativeBundle(tensors)
            delta = float(rng.uniform(0.05, 1.0))
            m = optimality_measure(b, 3, delta)
            ref_phi, _ = scalar_measure_order3(b, delta)
            assert type(m.phi_bar) is float
            assert abs(m.phi_bar - ref_phi) <= 1e-13 * ref_phi
            assert abs(taylor_decrement(b, m.displacement, 3) - ref_phi) <= 1e-13 * ref_phi
            assert np.linalg.norm(m.displacement) <= delta * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scales=st.tuples(*[st.floats(1e-2, 10.0)] * 3),
           delta=st.floats(0.05, 1.0))
    def test_half_guarantee_against_grid_search(self, n, seed, scales, delta):
        rng = np.random.default_rng(seed)
        tensors = [c * random_symmetric(rng, n, i) for i, c in zip((1, 2, 3), scales)]
        m = optimality_measure(DerivativeBundle(tensors), 3, delta)
        if n == 2:
            ref = polar_grid_phi(tensors, delta, n_angle=2000, n_radius=60)
        else:
            ref = sphere_grid_phi(tensors, delta)
        assert m.phi_bar >= ORDER_GUARANTEES[3] * ref

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_half_guarantee_against_a_thousand_starts(self, n):
        # Grids are out of reach beyond n = 3; 1000 starts of the same
        # ascent stand in for the optimum.
        rng = np.random.default_rng(600 + n)
        for _ in range(25):
            scales = 10.0 ** rng.uniform(-2.0, 1.0, size=3)
            tensors = [c * random_symmetric(rng, n, i) for i, c in zip((1, 2, 3), scales)]
            b, delta = DerivativeBundle(tensors), float(rng.uniform(0.05, 1.0))
            ref, _, _ = ref_measure_order3(b, delta, n_starts=1000)
            assert optimality_measure(b, 3, delta).phi_bar >= ORDER_GUARANTEES[3] * ref

    def test_tracks_polar_grid_well_beyond_its_guarantee(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            tensors = [random_symmetric(rng, 2, i) for i in (1, 2, 3)]
            b = DerivativeBundle(tensors)
            delta = float(rng.uniform(0.3, 1.0))
            m = optimality_measure(b, 3, delta)
            ref = polar_grid_phi(tensors, delta, n_angle=2000, n_radius=60)
            assert m.phi_bar >= ORDER_GUARANTEES[3] * ref
            assert m.phi_bar <= ref * (1.0 + 1e-3) + 1e-9
            assert np.linalg.norm(m.displacement) <= delta + 1e-12

    def test_stall_stop_loses_under_a_millionth(self, monkeypatch):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(500):
            n = int(rng.integers(1, 9))
            scales = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
            tensors = [c * random_symmetric(rng, n, i) for i, c in zip((1, 2, 3), scales)]
            cases.append((DerivativeBundle(tensors), float(rng.uniform(0.01, 1.0))))
        stopped = [optimality_measure(b, 3, delta).phi_bar for b, delta in cases]
        monkeypatch.setattr(subsolvers, "_ORDER3_STALL_WINDOW", subsolvers._ORDER3_ITERS + 1)
        full = [optimality_measure(b, 3, delta).phi_bar for b, delta in cases]
        for got, ref in zip(stopped, full):
            assert got <= ref
            assert got >= (1.0 - 1e-6) * ref

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 60])
    def test_row_products_match_per_row_products(self, n):
        # Entrywise error within 1e-13 of the products of absolute values.
        # The general tensor is far from symmetric, so at n >= 2 contracting
        # other axes than h @ d and (t @ d) @ d do fails here.
        rng = np.random.default_rng(40 + n)
        d = rng.uniform(-1.0, 1.0, size=(50, n))
        d[0] = 0.0
        h = random_symmetric(rng, n, 2)
        for t in (random_symmetric(rng, n, 3), np.zeros((n,) * 3),
                  rng.standard_normal((n,) * 3)):
            hd, tdd = subsolvers._row_products(d, h, t)
            assert hd.shape == tdd.shape == d.shape
            for row, got_h, got_t in zip(d, hd, tdd):
                a = np.abs(row)
                assert np.all(np.abs(got_h - h @ row) <= 1e-13 * (np.abs(h) @ a))
                assert np.all(np.abs(got_t - (t @ row) @ row)
                              <= 1e-13 * ((np.abs(t) @ a) @ a))

    def test_rejects_order_above_degree(self):
        b = bundle2([1.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            optimality_measure(b, 3, 0.5)
        with pytest.raises(ValueError):  # the radius search keeps the checks
            radius_search(b, 3, 0.1, 1.0)

    def test_stop_above_ends_the_ascent_once_the_best_exceeds_it(self, monkeypatch):
        # Under the bar the ascent runs to its own stop, bit for bit; over
        # it, the ascent stops early with a measure still above the bar.
        rng = np.random.default_rng(12)
        contractions = []
        row_products = subsolvers._row_products

        def counted(*args):
            contractions.append(1)
            return row_products(*args)

        monkeypatch.setattr(subsolvers, "_row_products", counted)
        for n in (2, 3, 5):
            tensors = [c * random_symmetric(rng, n, i) for i, c in zip((1, 2, 3), (0.1, 1.0, 3.0))]
            b, delta = DerivativeBundle(tensors), 0.5
            full = optimality_measure(b, 3, delta)
            iterations = len(contractions)
            contractions.clear()
            same = optimality_measure(b, 3, delta, stop_above=full.phi_bar)
            assert same.phi_bar == full.phi_bar
            assert same.displacement.tobytes() == full.displacement.tobytes()
            contractions.clear()
            stopped = optimality_measure(b, 3, delta, stop_above=0.5 * full.phi_bar)
            assert 0.5 * full.phi_bar < stopped.phi_bar <= full.phi_bar
            assert len(contractions) < iterations
            contractions.clear()

    def test_rejects_bad_delta(self):
        b = bundle2([1.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            optimality_measure(b, 1, 1.5)


def eigh_trs_reference(g, h, delta):
    """The trust-region step for a positive definite h by eigendecomposition
    alone: the interior Newton step in the eigenbasis, else the boundary
    step whose multiplier solves 1/||d(mu)|| = 1/delta."""
    lam, q = np.linalg.eigh(0.5 * (h + h.T))
    gh = q.T @ g
    d = q @ (-gh / lam)
    if np.linalg.norm(d) <= delta:
        return d

    def gap(mu):
        return 1.0 / np.linalg.norm(gh / (lam + mu)) - 1.0 / delta

    hi = 1.0
    while gap(hi) < 0.0:
        hi *= 2.0
    mu = brentq(gap, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=200)
    d = q @ (-gh / (lam + mu))
    return d * (delta / np.linalg.norm(d))


def mp_trs_optima(g, h, deltas):
    """The optimal values of min g.d + 0.5 d'Hd over ||d|| <= delta, one per
    delta, computed with 50 digits, for a symmetric h with a negative lowest
    eigenvalue lambda_1 and a g not orthogonal to its eigenvector (no hard
    case): the eigendecomposition by `mpmath.eigsy`, the multiplier by a
    bracketed root find on delta / ||d(mu)|| = 1 right of -lambda_1."""
    n = len(g)
    with mpmath.workdps(50):
        lam, q = mpmath.eigsy(mpmath.matrix(h.tolist()))
        lam = [lam[i] for i in range(n)]
        gh = [mpmath.fsum(q[j, i] * g[j] for j in range(n)) for i in range(n)]
        low = min(range(n), key=lambda i: lam[i])
        assert lam[low] < 0 and gh[low] != 0
        optima = []
        for delta in deltas:
            delta = mpmath.mpf(delta)

            def gap(mu):
                return delta / mpmath.norm([x / (l + mu) for x, l in zip(gh, lam)]) - 1

            bracket = (-lam[low] + abs(gh[low]) / delta / 2,
                       -lam[low] + mpmath.norm(gh) / delta)
            mu = mpmath.findroot(gap, bracket, solver="anderson")
            optima.append(mpmath.fsum(-x * x / (l + mu) * (1 - l / (l + mu) / 2)
                                      for x, l in zip(gh, lam)))
        return optima


def mp_newton_optimum(g, h):
    """The Newton step -H^-1 g of a positive definite h and its model value
    g.d / 2, the unconstrained optimum, computed with 50 digits."""
    with mpmath.workdps(50):
        newton = mpmath.lu_solve(mpmath.matrix(h.tolist()), mpmath.matrix((-g).tolist()))
        return newton, mpmath.fsum(float(gi) * x for gi, x in zip(g, newton)) / 2


def mp_cubic_optimum(g, h, sigma):
    """The optimal value of min g.s + 0.5 s'Hs + sigma ||s||^3 / 6, computed
    with 50 digits for a symmetric h: the eigendecomposition by
    `mpmath.eigsy`, the multiplier mu = sigma ||s|| / 2 by bisection on
    ||s(mu)|| = 2 mu / sigma right of max(0, -lambda_1).  With g = 0 the
    minimizer is 0, or 2 (-lambda_1) / sigma along the lowest eigenvector;
    a gradient orthogonal to that eigenvector in floats is not in 50 digits,
    so the bisection meets no hard case."""
    n = len(g)
    with mpmath.workdps(50):
        lam, q = mpmath.eigsy(mpmath.matrix(h.tolist()))
        lam = [lam[i] for i in range(n)]
        gh = [mpmath.fsum(q[j, i] * g[j] for j in range(n)) for i in range(n)]
        sigma = mpmath.mpf(sigma)
        floor = max(mpmath.mpf(0), -min(lam))
        if all(x == 0 for x in gh):
            return -2 * floor**3 / (3 * sigma**2)

        def excess(mu):  # ||s(mu)|| - 2 mu / sigma, falling in mu
            return mpmath.norm([x / (l + mu) for x, l in zip(gh, lam)]) - 2 * mu / sigma

        t = mpmath.sqrt(sigma * mpmath.norm(gh)) + 1
        while excess(floor + t) <= 0:
            t /= 2
            assert t > 1e-100, "g is orthogonal to the lowest eigenvector"
        lo, hi = floor + t, floor + 2 * t
        while excess(hi) > 0:
            lo, hi = hi, floor + 2 * (hi - floor)
        for _ in range(200):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                lo = mid
            else:
                hi = mid
        s = [-x / (l + lo) for x, l in zip(gh, lam)]
        return (mpmath.fsum(x * si + l * si * si / 2 for x, l, si in zip(gh, lam, s))
                + sigma * mpmath.norm(s) ** 3 / 6)


def mp_model_value(g, h, d, sigma=0.0):
    """g.d + 0.5 d'Hd (+ sigma ||d||^3 / 6) of float inputs with 50 digits,
    as an mpf."""
    with mpmath.workdps(50):
        dm = [mpmath.mpf(float(x)) for x in d]
        n = len(dm)
        return (mpmath.fsum(mpmath.mpf(float(g[i])) * dm[i] for i in range(n))
                + mpmath.fsum(mpmath.mpf(float(h[i, j])) * dm[i] * dm[j]
                              for i in range(n) for j in range(n)) / 2
                + mpmath.mpf(sigma) * mpmath.norm(dm) ** 3 / 6)


def random_indefinite(rng, n):
    """A symmetric matrix with standard normal entries, shifted so that its
    lowest eigenvalue is negative."""
    h = random_symmetric(rng, n, 2)
    lowest = float(np.linalg.eigvalsh(h)[0])
    if lowest >= 0.0:
        h -= (lowest + 1.0) * np.eye(n)
    return h


def random_positive_definite(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.5 * np.eye(n)


def conditioned_positive_definite(rng, n, cond):
    """A random rotation of eigenvalues spread geometrically over [1, cond],
    times a random scale; returned with its lowest eigenvector."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, cond, n) * 10.0 ** rng.uniform(-2, 2)
    h = q @ np.diag(lam) @ q.T
    return 0.5 * (h + h.T), q[:, 0]


def model_value(g, h, d):
    return g @ d + 0.5 * d @ h @ d


def trs_instance(rng, n, kind):
    """(g, h, delta) of one trust-region subproblem: h a random rotation of
    eigenvalues over six decades of scale, indefinite or positive definite;
    ``hard`` makes g orthogonal to the lowest eigenvector with the
    pseudo-solution inside the ball, ``zero_gradient`` makes g = 0."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    if kind == "definite":
        lam = np.abs(lam) + 1e-3 * np.max(np.abs(lam))
    elif n > 1:
        lam[0] = -np.max(np.abs(lam))  # the lowest, and negative
    h = q @ np.diag(lam) @ q.T
    h = 0.5 * (h + h.T)
    gh = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    delta = float(10.0 ** rng.uniform(-4, 0))
    if kind == "zero_gradient":
        gh[:] = 0.0
    elif kind == "hard":
        gh[lam == lam.min()] = 0.0
        shifted = lam - lam.min()
        kept = shifted > 0
        # the pseudo-solution at mu = -lambda_1 has norm delta / 2
        norm = np.linalg.norm(gh[kept] / shifted[kept]) if kept.any() else 0.0
        if norm > 0:
            gh *= 0.5 * delta / norm
    return q @ gh, h, delta


def dual_bound(g, h, delta):
    """The Lagrangian dual bound 0.5 sum_i gh_i^2 / (lambda_i + mu)
    + 0.5 mu delta^2 of the trust-region subproblem's largest decrement, at
    the mu >= max(0, -lambda_1) where ||d(mu)|| = delta, found by bisection,
    or at max(0, -lambda_1) when ||d|| is at most delta there; terms with
    gh_i = 0 drop out."""
    lam, q = np.linalg.eigh(h)
    gh = q.T @ g
    kept = gh != 0.0
    gh, shifts = gh[kept], lam[kept]

    def norm(mu):
        return float(np.linalg.norm(gh / (shifts + mu)))

    def bound(mu):
        return 0.5 * float(np.sum(gh**2 / (shifts + mu))) + 0.5 * mu * delta**2

    lo = max(0.0, -float(lam[0]))
    if not (shifts + lo > 0).all() or norm(lo) > delta:
        hi = lo + float(np.linalg.norm(gh)) / delta
        while True:  # norm(lo) > delta >= norm(hi)
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if (shifts + mid > 0).all() and norm(mid) <= delta:
                hi = mid
            else:
                lo = mid
        lo = hi
    return bound(lo)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes passed to `np.linalg.eigh` so far in the test, one per call."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.fixture
def dpotrf_calls(monkeypatch):
    """The `info` of every Cholesky factorization `solve_trs` has made so far."""
    calls = []
    dpotrf = subsolvers.dpotrf

    def counted(a, *args, **kwargs):
        chol, info = dpotrf(a, *args, **kwargs)
        calls.append(info)
        return chol, info

    monkeypatch.setattr(subsolvers, "dpotrf", counted)
    return calls


class TestSolveTrs:
    def test_boundary_norm_is_exact(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(4)
        h = random_symmetric(rng, 4, 2) - 2.0 * np.eye(4)
        d = solve_trs(g, h, 0.7)
        assert np.linalg.norm(d) == pytest.approx(0.7, rel=1e-12)

    def test_one_dimensional(self):
        d = solve_trs(np.array([2.0]), np.array([[1.0]]), 0.5)
        assert d == pytest.approx([-0.5])
        d = solve_trs(np.array([0.1]), np.array([[4.0]]), 1.0)
        assert d == pytest.approx([-0.025])

    def test_near_hard_case_stays_in_ball_and_near_optimal(self):
        # gradient almost orthogonal to the minimal eigenspace
        h = np.diag([-1.0, 3.0])
        for tiny in (0.0, 1e-15, 1e-12, 1e-9):
            g = np.array([tiny, 0.5])
            d = solve_trs(g, h, 1.0)
            assert np.linalg.norm(d) <= 1.0 + 1e-12
            dec = -(g @ d + 0.5 * d @ h @ d)
            ref = polar_grid_phi([g, h], 1.0)
            assert dec >= ref * (1.0 - 1e-6)

    def test_extreme_scales_remain_feasible_and_descending(self):
        rng = np.random.default_rng(3)
        for scale_g in (1e-10, 1e-4, 1.0, 1e4, 1e8):
            for scale_h in (1e-8, 1.0, 1e6):
                g = scale_g * rng.standard_normal(3)
                h = scale_h * random_symmetric(rng, 3, 2)
                delta = float(rng.uniform(0.05, 1.0))
                d = solve_trs(g, h, delta)
                assert np.all(np.isfinite(d))
                assert np.linalg.norm(d) <= delta * (1.0 + 1e-12)
                assert g @ d + 0.5 * d @ h @ d <= 1e-12 * (scale_g + scale_h)

    @pytest.mark.parametrize("h", [
        [[1.7e308, 1e307], [1e307, 1.6e308]],  # positive definite
        [[1.7e308, 1.7e308], [1.7e308, 1.7e308]],  # singular
    ])
    def test_hessian_near_the_largest_float_symmetrizes_without_overflow(self, h):
        with np.errstate(over="raise"):
            d = solve_trs(np.ones(2), np.array(h), 1.0)
        assert np.all(np.isfinite(d))
        assert np.linalg.norm(d) <= 1.0 + 1e-12

    @pytest.mark.parametrize("g", [[1.0, 1.0], [1e308, -1e308]])
    def test_indefinite_hessian_near_the_largest_float_is_scaled_before_eigh(self, g):
        # Its eigenvalues overflow unscaled: the secular solve met NaN at
        # g = (1, 1), and the objective's dot overflowed at the larger g.
        h = np.array([[1.7e308, -1.7e308], [-1.7e308, -1.7e308]])
        with np.errstate(over="raise", invalid="raise"):
            d = solve_trs(np.array(g), h, 1.0)
        assert np.all(np.isfinite(d))
        assert np.linalg.norm(d) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [2, 5, 20, 60])
    def test_positive_definite_interior_takes_one_factorization(self, n, eigh_calls):
        rng = np.random.default_rng(n)
        for _ in range(5):
            h = random_positive_definite(rng, n)
            g = rng.standard_normal(n)
            delta = 1.5 * float(np.linalg.norm(np.linalg.solve(h, g)))
            ref = eigh_trs_reference(g, h, delta)
            assert np.linalg.norm(ref) < delta
            n_eigh = len(eigh_calls)
            d = solve_trs(g, h, delta)
            assert len(eigh_calls) == n_eigh  # no eigendecomposition
            assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [2, 5, 20, 60])
    def test_positive_definite_boundary_matches_eigen_reference(self, n, eigh_calls):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            h = random_positive_definite(rng, n)
            g = rng.standard_normal(n)
            delta = 0.5 * float(np.linalg.norm(np.linalg.solve(h, g)))
            ref = eigh_trs_reference(g, h, delta)
            n_eigh = len(eigh_calls)
            d = solve_trs(g, h, delta)
            assert len(eigh_calls) == n_eigh  # Cholesky factors only
            assert np.linalg.norm(d) == pytest.approx(delta, rel=1e-12)
            model, model_ref = g @ d + 0.5 * d @ h @ d, g @ ref + 0.5 * ref @ h @ ref
            assert model == pytest.approx(model_ref, rel=1e-12)

    # Relative model-value gap to `eigh_trs_reference` that the reference's
    # own rounding explains, per cond(H).  The reference and the eigen path
    # share one eigendecomposition and so mostly agree bit for bit; against
    # a 50-digit reference on n = 2-10, both the factor path and the eigen
    # path stayed within 2.2e-16 at cond(H) = 1e3, and at 1e8 the factor
    # path within 1.4e-16, the eigen path within 1.2e-9.
    REFERENCE_ROUNDING = {1.0: 4e-15, 1e3: 1e-13, 1e8: 1e-9}

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e8])
    @pytest.mark.parametrize("n", [2, 5, 20, 60])
    def test_boundary_steps_across_conditioning(self, n, cond, eigh_calls):
        """Radii from 1e-8 up to 0.999 of the Newton step, gradients random
        or almost orthogonal to the lowest eigenvector: the step is on the
        sphere, and its model value is no further from the reference than
        the eigen path's, or than the reference's rounding."""
        rng = np.random.default_rng(round(n * math.log10(10.0 * cond)))
        worst_gap, worst_eigen_gap = 0.0, 0.0
        for case in range(6):
            h, lowest = conditioned_positive_definite(rng, n, cond)
            g = rng.standard_normal(n)
            if case % 2:  # near the hard case
                g -= (g @ lowest - 1e-8 * np.linalg.norm(g)) * lowest
            lam, q = np.linalg.eigh(h)
            newton = float(np.linalg.norm((q.T @ g) / lam))
            for delta in (1e-8, 1e-4 * newton, 0.1 * newton, 0.5 * newton, 0.999 * newton):
                if not delta < newton:
                    continue
                ref = eigh_trs_reference(g, h, delta)
                model_ref = model_value(g, h, ref)
                n_eigh = len(eigh_calls)
                d = solve_trs(g, h, delta)
                if cond <= 1e3:
                    assert len(eigh_calls) == n_eigh
                assert np.linalg.norm(d) / delta == pytest.approx(1.0, rel=1e-12)
                eigen = subsolvers._solve_trs_eigen(g, h, delta)  # h is symmetric
                scale = abs(model_ref)
                worst_gap = max(worst_gap, abs(model_value(g, h, d) - model_ref) / scale)
                worst_eigen_gap = max(worst_eigen_gap,
                                      abs(model_value(g, h, eigen) - model_ref) / scale)
        assert worst_gap <= max(worst_eigen_gap, self.REFERENCE_ROUNDING[cond])

    @pytest.mark.parametrize("stop", ["cap", "failed factorization"])
    def test_unconverged_boundary_solve_takes_the_eigen_path(self, stop, monkeypatch,
                                                             eigh_calls, dpotrf_calls):
        rng = np.random.default_rng(8)
        h, _ = conditioned_positive_definite(rng, 20, 1e3)
        g = rng.standard_normal(20)
        delta = 1e-3 * float(np.linalg.norm(np.linalg.solve(h, g)))
        if stop == "cap":
            monkeypatch.setattr(subsolvers, "_TRS_NEWTON_STEPS", 1)
        else:
            counted = subsolvers.dpotrf

            def fails_after_the_first(a, *args, **kwargs):
                chol, info = counted(a, *args, **kwargs)
                return chol, info if len(dpotrf_calls) == 1 else 1

            monkeypatch.setattr(subsolvers, "dpotrf", fails_after_the_first)
        d = solve_trs(g, h, delta)
        assert len(eigh_calls) == 1
        assert len(dpotrf_calls) == 2
        eigen = subsolvers._solve_trs_eigen(g, h, delta)  # h is symmetric
        assert d.tobytes() == eigen.tobytes()

    def test_interior_step_after_a_failed_factorization_matches_a_50_digit_reference(
            self, monkeypatch, eigh_calls, dpotrf_calls):
        # Every factorization fails, so a positive definite H whose Newton
        # step lies in the ball reaches the eigen path's interior return.
        counted = subsolvers.dpotrf

        def fails(a, *args, **kwargs):
            chol, _ = counted(a, *args, **kwargs)
            return chol, 1

        monkeypatch.setattr(subsolvers, "dpotrf", fails)
        rng = np.random.default_rng(6)
        for n in (2, 5, 11):
            for _ in range(3):
                h = random_positive_definite(rng, n)
                g = rng.standard_normal(n)
                delta = 2.0 * float(np.linalg.norm(np.linalg.solve(h, g)))
                first, eighs = len(dpotrf_calls), len(eigh_calls)
                d = solve_trs(g, h, delta)
                assert len(dpotrf_calls) - first == 1  # no secular iteration
                assert len(eigh_calls) - eighs == 1
                newton, optimum = mp_newton_optimum(g, h)
                assert float(abs(mp_model_value(g, h, d) / optimum - 1)) <= 1e-14
                with mpmath.workdps(50):
                    gap = mpmath.norm(mpmath.matrix(d.tolist()) - newton)
                    assert float(gap / mpmath.norm(newton)) <= 1e-13

    def test_root_pinched_against_the_floor_is_completed_to_the_sphere(self, monkeypatch):
        # lambda_1 = -1 and gh_1 = 2e-11, above the hard-case tolerance of
        # 1e-11: at the secular start mu = 1 + 1e-13 the step has norm
        # about 200, inside delta = 1000, so it is completed along e_1.
        completions = []
        complete = subsolvers._complete_to_boundary

        def spy(*args):
            completions.append(complete(*args))
            return completions[-1]

        monkeypatch.setattr(subsolvers, "_complete_to_boundary", spy)
        g, h, delta = np.array([2e-11, 1.0]), np.diag([-1.0, 1.0]), 1000.0
        d = solve_trs(g, h, delta)
        assert len(completions) == 1 and completions[0] is d
        assert np.linalg.norm(d) == pytest.approx(delta, rel=1e-12)
        assert d[0] < 0.0  # the completion that g.d lowers
        (optimum,) = mp_trs_optima(g, h, [delta])
        assert float(abs(mp_model_value(g, h, d) / optimum - 1)) <= 1e-14

    @pytest.mark.parametrize("cond", [1e8, 1e10, 1e12])
    def test_boundary_solve_takes_at_most_the_cap_of_factorizations(self, cond,
                                                                     dpotrf_calls):
        rng = np.random.default_rng(round(math.log10(cond)))
        counts = []
        for n in (5, 20, 60):
            for _ in range(6):
                h, _ = conditioned_positive_definite(rng, n, cond)
                g = rng.standard_normal(n)
                delta = rng.uniform(0.01, 0.9) * float(np.linalg.norm(np.linalg.solve(h, g)))
                first = len(dpotrf_calls)
                solve_trs(g, h, delta)
                counts.append(len(dpotrf_calls) - first)
        # These solves stall at the rounding of the factors, and the stall
        # ends them before the cap.
        assert max(counts) <= subsolvers._TRS_NEWTON_STEPS
        assert min(counts) >= 1

    def test_stalled_boundary_solve_stops_early_on_the_eigen_path(self, eigh_calls,
                                                                   dpotrf_calls):
        rng = np.random.default_rng(18)
        stalled = 0
        for n in (5, 20, 60):
            for _ in range(4):
                h, _ = conditioned_positive_definite(rng, n, 1e8)
                g = rng.standard_normal(n)
                delta = rng.uniform(0.01, 0.9) * float(np.linalg.norm(np.linalg.solve(h, g)))
                first, eighs = len(dpotrf_calls), len(eigh_calls)
                d = solve_trs(g, h, delta)
                if len(eigh_calls) == eighs:
                    continue  # converged on the factors
                stalled += 1
                assert len(dpotrf_calls) - first <= subsolvers._TRS_NEWTON_STEPS
                eigen = subsolvers._solve_trs_eigen(g, h, delta)  # h is symmetric
                assert d.tobytes() == eigen.tobytes()
        assert stalled >= 6

    def test_indefinite_hessian_with_interior_saddle_goes_to_boundary(self, eigh_calls):
        # -H^-1 g = (0.1, -0.05) lies in the ball but is a saddle, not the
        # minimizer: a solve that does not prove definiteness would return it.
        g = np.array([0.1, 0.1])
        h = np.diag([-1.0, 2.0])
        d = solve_trs(g, h, 1.0)
        assert len(eigh_calls) == 1
        assert np.linalg.norm(d) == pytest.approx(1.0, rel=1e-12)
        dec = -(g @ d + 0.5 * d @ h @ d)
        ref = polar_grid_phi([g, h], 1.0)
        assert dec == pytest.approx(ref, rel=1e-4)
        assert dec >= ref * (1.0 - 1e-6)

    def test_eigen_path_matches_a_50_digit_reference(self, eigh_calls):
        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 12))
            h = random_indefinite(rng, n)
            g = rng.standard_normal(n)
            g *= 10.0 ** rng.uniform(-3.0, 3.0) / np.linalg.norm(g)
            deltas = 10.0 ** rng.uniform(-4.0, 0.0, size=3)
            for delta, optimum in zip(deltas, mp_trs_optima(g, h, deltas)):
                n_eigh = len(eigh_calls)
                d = solve_trs(g, h, delta)
                assert len(eigh_calls) == n_eigh + 1
                assert np.linalg.norm(d) <= delta * (1.0 + 1e-12)
                worst = max(worst, float(abs(mp_model_value(g, h, d) / optimum - 1)))
        assert worst <= 1e-14

    SMALL_RADII = (1e-9, 1e-13, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300)

    def test_small_radii_give_the_optimum(self):
        # The minimal-eigenvalue tolerance once grew with ||g|| / delta: at
        # small delta every eigenvalue counted as minimal, and the step went
        # along the first eigenvector only, an ascent step or none at all.
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            h = random_indefinite(rng, n)
            g = rng.standard_normal(n)
            for delta, optimum in zip(self.SMALL_RADII,
                                      mp_trs_optima(g, h, self.SMALL_RADII)):
                d = solve_trs(g, h, delta)
                assert np.linalg.norm(d) <= delta * (1.0 + 1e-12)
                assert float(g @ d) < 0.0
                assert mp_model_value(g, h, d) <= (1.0 - 1e-8) * optimum

    @pytest.mark.parametrize("delta", [1e-13, 1e-100, 1e-300])
    def test_small_radius_step_descends_on_the_sphere(self, delta):
        d = solve_trs(np.ones(2), np.diag([-1.0, 1.0]), delta) / delta
        assert np.linalg.norm(d) == pytest.approx(1.0, rel=1e-12)
        assert d == pytest.approx(-np.ones(2) / math.sqrt(2.0), rel=1e-9)

    @pytest.mark.parametrize("scale", [1e8, 1e10])
    def test_gradient_over_a_tiny_radius_descends_on_the_sphere(self, scale):
        # ||g|| / delta overflows at g = (1e10, 1e10), delta = 1e-300: the
        # eigen path's secular scale read inf, and the step came back zero.
        g, h, delta = np.full(2, scale), np.diag([-1.0, 1.0]), 1e-300
        d = solve_trs(g, h, delta)
        assert np.linalg.norm(d / delta) == pytest.approx(1.0, rel=1e-12)
        assert model_value(g, h, d) < 0.0
        assert d / delta == pytest.approx(-np.ones(2) / math.sqrt(2.0), rel=1e-9)

    @pytest.mark.parametrize("scale", [1e20, 1e100, 1e200])
    def test_huge_gradient_over_a_tiny_radius_descends_on_the_sphere(self, scale):
        # After the power-of-two rescale the Hessian's eigenvalues are far
        # below 1: a minimal-eigenvalue mask with an absolute floor of 1e-12
        # took both as minimal, and the step came back zero.
        g, h, delta = np.full(2, scale), np.diag([-1.0, 1.0]), 1e-300
        with np.errstate(over="ignore"):  # g.g overflows in `_norm` first
            d = solve_trs(g, h, delta)
        assert np.linalg.norm(d / delta) == pytest.approx(1.0, rel=1e-12)
        assert d / delta == pytest.approx(-np.ones(2) / math.sqrt(2.0), rel=1e-9)

    def test_large_gradient_at_a_comparable_radius_is_scaled_before_its_w_norm_overflows(self):
        # Unscaled, the eigen path's first multiplier sits 1e-13 right of
        # -lambda_1 = 1, and ||e / sqrt(lam + mu)|| = 2e154 squares past the
        # largest float.  The solution is the boundary point along -g.
        g, h, delta = np.array([7e134, 0.0]), np.diag([-1.0, 1.0]), 7e134
        with np.errstate(over="raise", invalid="raise"):
            d = solve_trs(g, h, delta)
        assert d / delta == pytest.approx(np.array([-1.0, 0.0]), abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 11),
           st.sampled_from(["indefinite", "definite", "hard", "zero_gradient"]))
    @settings(max_examples=300, deadline=None)
    def test_decrement_meets_the_order2_guarantee_against_the_dual_bound(self, seed, n, kind):
        # For mu >= max(0, -lambda_1), 0.5 sum_i gh_i^2 / (lambda_i + mu)
        # + 0.5 mu delta^2 bounds the ball's largest decrement from above,
        # and at the secular root ||d(mu)|| = delta it equals it (Moré &
        # Sorensen 1983): ORDER_GUARANTEES[2] is then tested, not assumed.
        rng = np.random.default_rng(seed)
        g, h, delta = trs_instance(rng, n, kind)
        d = solve_trs(g, h, delta)
        assert np.linalg.norm(d) <= delta * (1.0 + 1e-12)
        bound = dual_bound(g, h, delta)
        assert -model_value(g, h, d) >= ORDER_GUARANTEES[2] * bound

    @pytest.mark.parametrize(
        "g, h, delta, match",
        [
            ([1.0, 1.0], [[1.0, 0.0], [0.0, 2.0]], float("nan"), "^delta must be > 0"),
            ([float("nan"), 1.0], [[1.0, 0.0], [0.0, 2.0]], 1.0, "^g holds a non-finite entry"),
            ([1.0, 1.0], [[float("inf"), 0.0], [0.0, 1.0]], 1.0, "^h holds a non-finite entry"),
        ],
    )
    def test_non_finite_input_rejected_by_name(self, g, h, delta, match):
        with pytest.raises(ValueError, match=match):
            solve_trs(np.array(g), np.array(h), delta)


class TestMinimizeCubic:
    """`_minimize_cubic`, the global minimizer of g.s + 0.5 s'Hs
    + sigma ||s||^3 / 6 that step 2 starts from at p = 2."""

    @pytest.mark.parametrize("kind", ["definite", "indefinite", "hard", "zero_gradient"])
    def test_matches_a_50_digit_reference(self, kind):
        # n = 2-11; H, g and sigma each over six decades of scale.  "hard"
        # puts g orthogonal to the lowest eigenvector with the
        # pseudo-solution at mu = -lambda_1 at half the radius 2 mu / sigma.
        rng = np.random.default_rng(27)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(2, 12))
            g, h, delta = trs_instance(rng, n, kind)
            lam = np.linalg.eigvalsh(h)
            lam1 = float(lam[0])
            # the radius at mu = -lambda_1 is delta in the hard case
            sigma = -2.0 * lam1 / delta if kind == "hard" else float(10.0 ** rng.uniform(-3, 3))
            s = subsolvers._minimize_cubic(g, h, sigma)
            optimum = mp_cubic_optimum(g, h, sigma)
            value = mp_model_value(g, h, s, sigma)
            if optimum == 0:  # g = 0 and H positive definite
                assert not s.any()
            else:
                worst = max(worst, float(abs(value / optimum - 1)))
            mu = 0.5 * sigma * float(np.linalg.norm(s))
            assert mu >= max(0.0, -lam1) * (1.0 - 1e-14)
            # The model gradient g + (H + mu I) s vanishes relative to ||g||,
            # up to the rounding of mu: ||s(mu)|| moves by mu / (lambda_1 + mu)
            # of itself per relative change of mu, a large factor near the
            # hard case.
            shift = lam1 + mu
            if g.any() and shift > 0:
                rtol = 1e-12 + 8 * np.finfo(float).eps * mu / shift
                gradient = g + h @ s + mu * s
                assert np.linalg.norm(gradient) <= rtol * np.linalg.norm(g)
        assert worst <= 1e-14

    def test_positive_definite_takes_no_eigendecomposition(self, eigh_calls):
        rng = np.random.default_rng(31)
        for n in (2, 5, 20, 60):
            for _ in range(5):
                h = random_positive_definite(rng, n)
                g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                s = subsolvers._minimize_cubic(g, h, float(10.0 ** rng.uniform(-3, 3)))
                assert np.all(np.isfinite(s))
        assert not eigh_calls

    def test_multipliers_rise_to_the_root_by_tangent_roots(self, monkeypatch, eigh_calls,
                                                           dpotrf_calls):
        # Every secular step is the root of the tangent of 1/||s(mu)|| against
        # the exact target sigma / (2 mu), so each mu stays left of the root.
        mus, roots = [], []
        secular_solve, solve_cubic = subsolvers._secular_solve, subsolvers._solve_cubic

        def recorded_solve(g, hs, mu):
            mus[-1].append(mu)
            return secular_solve(g, hs, mu)

        def recorded_cubic(g, h, sigma):
            mus.append([])
            u = solve_cubic(g, h, sigma)
            roots.append(0.5 * sigma * float(np.linalg.norm(u)))
            return u

        monkeypatch.setattr(subsolvers, "_secular_solve", recorded_solve)
        monkeypatch.setattr(subsolvers, "_solve_cubic", recorded_cubic)
        rng = np.random.default_rng(47)
        for n in (2, 5, 20, 60):
            for indefinite in (False, True):
                for _ in range(10):
                    h, v = conditioned_positive_definite(rng, n, 1e4)
                    if indefinite:  # the lowest eigenvalue's sign flipped
                        h -= 2.0 * float(v @ h @ v) * np.outer(v, v)
                    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                    eighs = len(eigh_calls)
                    subsolvers._minimize_cubic(g, h, float(10.0 ** rng.uniform(-3, 3)))
                    mu, root = mus[-1], roots[-1]
                    # a step taken within rounding of the root may go back by
                    # as much
                    assert all(b >= a * (1.0 - 1e-12) for a, b in zip(mu, mu[1:])), mu
                    assert max(mu) <= root * (1.0 + 1e-12)
                    if len(eigh_calls) == eighs:  # converged on the Cholesky path
                        assert mu[-1] == pytest.approx(root, rel=1e-14)
        # 80 models, 29 of them finished in the eigenbasis: 237 factorizations,
        # against 269 when one tangent root was followed by Newton steps on
        # 1/||s(mu)|| - sigma / (2 mu).
        assert len(dpotrf_calls) <= 250


def convex_model():
    g = np.array([1.0, 0.0])
    b = bundle2(g, np.eye(2))
    return RegularizedModel(b, 1.0)


def targets(theta, omega, varsigma, epsilons):
    """Step 2's per-order smallness targets for these solver constants."""
    coef = varsigma * theta * (1.0 - omega) / (2.0 * (1.0 + omega))
    return [coef * e for e in epsilons]


def shifted_bundle(model, s, order):
    """The model's derivatives at s, orders 1..order."""
    point = _ModelPoint(model, s)
    return DerivativeBundle([point.derivative(j) for j in range(1, order + 1)])


def model_dec(model, s):
    """The regularized model's decrement from 0 to s."""
    return _ModelPoint(model, np.asarray(s, dtype=float)).decrement()


def cauchy_point(model, radius=1.0):
    g = model.bundle.tensors[0]
    ts = np.linspace(1e-4, radius / np.linalg.norm(g), 400)
    vals = [-model_dec(model, -t * g) for t in ts]
    return -ts[int(np.argmin(vals))] * g


class TestMinimizeModel:
    def test_convex_quadratic_matches_dense_grid(self):
        model = convex_model()
        d0 = cauchy_point(model)
        res = minimize_model(model, d0, targets(0.5, 0.02, 1.0, [1e-6]))
        assert res.norm < 1.0
        assert model_dec(model, res.step) >= model_dec(model, d0)
        grid = np.linspace(-2, 2, 401)
        pts = np.stack(np.meshgrid(grid, grid), -1).reshape(-1, 2)
        best = pts[np.argmin([-model_dec(model, p) for p in pts])]
        assert res.step == pytest.approx(best, abs=2e-2)

    def test_warm_start_already_certified_returned_unchanged(self):
        model = convex_model()
        # true minimizer: -t + t^2/2 + t^3/6 along -g has its root at sqrt(3)-1
        s_star = np.array([1.0 - math.sqrt(3.0), 0.0])
        res = minimize_model(model, s_star, targets(0.5, 0.02, 1.0, [0.5]))
        # The cubic model's global minimizer, computed by its own kernel,
        # may replace the start where it is better in the last bits.
        assert res.norm < 1.0
        assert res.inner_iterations == 0
        assert res.radii is not None and res.radii[0] == 1.0
        assert model_dec(model, res.step) >= model_dec(model, s_star)

    def test_negative_curvature_gives_long_step(self):
        # one-dimensional model -x^2 + sigma x^3 / 3! with its minimizer at
        # |s| = 2 |h| / sigma = 6.67 >= 1
        b = DerivativeBundle([np.array([0.0]), np.array([[-2.0]])])
        model = RegularizedModel(b, 0.6)
        res = minimize_model(model, np.array([0.5]), targets(0.5, 0.02, 1.0, [0.5]))
        assert res.norm == np.linalg.norm(res.step)
        assert np.linalg.norm(res.step) >= 1.0
        assert res.radii is None
        assert 2.0 * 2.0 / 0.6 >= 1.0

    def test_descent_postcondition_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            tensors = [rng.standard_normal(3), random_symmetric(rng, 3, 2)]
            b = DerivativeBundle(tensors)
            model = RegularizedModel(b, float(rng.uniform(0.5, 4.0)))
            g = tensors[0]
            d0 = -0.2 * g / np.linalg.norm(g)
            if model_dec(model, d0) <= 0:
                continue
            res = minimize_model(model, d0, targets(0.5, 0.02, 1.0, [1e-4]))
            assert model_dec(model, res.step) >= model_dec(model, d0)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-131])
    def test_global_minimizer_beyond_the_float_range_leaves_the_warm_start(self, sigma):
        # The cubic model's minimizer lies 2 / sigma along the negative
        # curvature, where its decrement overflows: the loop runs from the
        # warm start instead, to a long step, and no overflow is reported.
        b = DerivativeBundle([np.array([1.0, 0.0]), np.diag([-1.0, 1.0])])
        model = RegularizedModel(b, sigma)
        d0 = np.array([-0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize_model(model, d0, targets(0.5, 0.02, 1.0, [0.5]))
        assert res.norm >= 1.0
        assert np.all(np.isfinite(res.step))
        assert model_dec(model, res.step) >= model_dec(model, d0)

    def test_warm_start_without_decrease_rejected(self):
        model = convex_model()
        with pytest.raises(ValueError):
            minimize_model(model, np.array([1.0, 0.0]), targets(0.5, 0.02, 1.0, [0.5]))

    def test_inner_cap_raises_stall(self, monkeypatch):
        # At p = 2 the cubic model's global minimizer certifies before the
        # loop, so the loop is driven at p = 3.
        g = np.array([1.0, 0.0])
        model = RegularizedModel(DerivativeBundle([g, np.eye(2), np.zeros((2, 2, 2))]), 1.0)
        d0 = cauchy_point(model)
        monkeypatch.setattr(subsolvers, "_MAX_INNER_ITERS", 1)
        with pytest.raises(SubsolverStallError, match="inner iteration cap exceeded"):
            minimize_model(model, d0, targets(0.5, 0.02, 1.0, [1e-13]))

    @staticmethod
    def long_start_model():
        """p = 3 model x - x^2/2 + y^2/2 + sigma ||s||^4 / 24 at sigma 0.1,
        its minimizer near x = -8.2, with a long warm start at x = -1.5 where
        ||grad m|| = 2.44 exceeds sigma ||s||^3 = 0.34."""
        g = np.array([1.0, 0.0])
        b = DerivativeBundle([g, np.diag([-1.0, 1.0]), np.zeros((2, 2, 2))])
        return RegularizedModel(b, 0.1), np.array([-1.5, 0.0])

    def test_long_warm_start_far_from_stationary_is_minimized(self):
        model, d0 = self.long_start_model()
        start = _ModelPoint(model, d0)
        assert start.norm >= 1.0
        assert _norm(start.derivative(1)) > model.sigma * start.norm**3
        res = minimize_model(model, d0, targets(0.5, 0.02, 1.0, [1e-6] * 3))
        point = _ModelPoint(model, res.step)
        assert res.radii is None and res.norm >= 1.0
        assert res.inner_iterations > 0
        assert _norm(point.derivative(1)) <= model.sigma * res.norm**3
        assert point.decrement() >= start.decrement()

    def test_long_point_at_the_inner_cap_is_handed_on(self, monkeypatch):
        # One Newton step takes the point to x = -2.5, long but not yet
        # nearly stationary: at the cap it is the step, and nothing raises.
        model, d0 = self.long_start_model()
        monkeypatch.setattr(subsolvers, "_MAX_INNER_ITERS", 1)
        res = minimize_model(model, d0, targets(0.5, 0.02, 1.0, [1e-6] * 3))
        point = _ModelPoint(model, res.step)
        assert res.radii is None and res.norm >= 1.0
        assert res.inner_iterations == 1
        assert _norm(point.derivative(1)) > model.sigma * res.norm**3
        assert point.decrement() >= _ModelPoint(model, d0).decrement()

    def test_second_degree_drop_near_the_minimizer_is_not_lost(self):
        # m(x) = -x + |x|^3 / 3 has its minimizer at x = 1, where m = -2/3.
        # A Newton trial 1e-9 long from 1 + 2e-9 drops the model by 3e-18,
        # under the rounding of m itself: the difference of the two
        # decrements reads 0, while the drop from the model's expansion at
        # the iterate keeps its digits.
        model = RegularizedModel(DerivativeBundle([np.array([-1.0]), np.zeros((1, 1))]), 2.0)
        s, d = np.array([1.0 + 2e-9]), np.array([-1e-9])
        point, trial = _ModelPoint(model, s), _ModelPoint(model, s + d)

        def m(x):
            x = Fraction(float(x[0]))
            return -x + abs(x) ** 3 / 3

        exact = float(m(s) - m(s + d))
        assert exact > 0
        assert trial.decrement() - point.decrement() == 0.0
        assert subsolvers._model_drop(point, trial, d) == pytest.approx(exact, rel=1e-6)


def ref_radius_search(bundle, ell, target, delta_cap):
    """`radius_search` with every radius measured by the full ascent."""
    delta = min(1.0, float(delta_cap))
    while delta >= subsolvers._RADIUS_FLOOR:
        m = optimality_measure(bundle, ell, delta)
        if m.phi_bar <= target * delta**ell / math.factorial(ell):
            return delta, m
        delta *= 0.5
    raise AssertionError("the reference search hit its floor")


class TestRadiusSearch:
    def test_early_stop_keeps_the_radius_and_measure_bit_for_bit(self):
        # A failing radius's ascent stops once it exceeds the bar; the
        # radius that passes never does, so its measure is the full one.
        # Near a second-order point (tiny g, H positive definite) the
        # search halves 0-7 times on these bundles.
        rng = np.random.default_rng(34)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n))
            h = 10.0 ** rng.uniform(-2.0, 0.0) * (a @ a.T + 0.1 * np.eye(n))
            b = DerivativeBundle([1e-6 * rng.standard_normal(n), h, random_symmetric(rng, n, 3)])
            target, cap = 10.0 ** rng.uniform(-2.0, 0.5), float(rng.uniform(0.1, 1.0))
            want = ref_radius_search(b, 3, target, cap)
            delta, m = radius_search(b, 3, target, cap)
            assert delta == want[0] and m.phi_bar == want[1].phi_bar
            assert m.displacement.tobytes() == want[1].displacement.tobytes()

    def test_low_orders_rejected(self):
        model = convex_model()
        with pytest.raises(ValueError):
            radius_search(
                shifted_bundle(model, np.zeros(2), 2), 2,
                targets(0.5, 0.02, 1.0, [0.1])[0], 1.0,
            )

    def test_vanishing_third_order_returns_cap(self):
        # order-3 part of the model is identically zero at the quadratic's
        # minimizer: any radius certifies, so the cap comes back unchanged
        g = np.array([1.0, 0.0])
        h = np.eye(2)
        t = np.zeros((2, 2, 2))
        b = DerivativeBundle([g, h, t])
        model = RegularizedModel(b, 0.0)
        s_star = -g
        delta, m = radius_search(
            shifted_bundle(model, s_star, 3), 3, targets(0.5, 0.02, 0.5, [0.1])[0], 0.7
        )
        assert delta == 0.7
        assert m.phi_bar <= 1e-10

    def test_floor_respects_kappa_delta(self):
        rng = np.random.default_rng(91)
        theta, omega, varsigma = 0.5, 0.02, 0.5
        for _ in range(5):
            tensors = [
                0.3 * rng.standard_normal(2),
                random_symmetric(rng, 2, 2) + 2.0 * np.eye(2),
                0.5 * random_symmetric(rng, 2, 3),
            ]
            b = DerivativeBundle(tensors)
            sigma = 1.0
            model = RegularizedModel(b, sigma)
            eps = np.array([0.1, 0.1, 0.1])
            g = tensors[0]
            d0 = -0.1 * g / np.linalg.norm(g)
            if model_dec(model, d0) <= 0:
                continue
            res = minimize_model(model, d0, targets(theta, omega, varsigma, eps))
            if res.radii is None:  # a long step
                continue
            from arq.tensors import operator_norm

            # The induced norm of the Hessian and a sampled lower estimate
            # of the order-3 norm: they give a smaller l_bar, so a higher
            # floor, than the Frobenius norm.
            l_bar = max(operator_norm(tensors[0]), np.abs(np.linalg.eigvalsh(tensors[1])).max(),
                        sampled_norm3(tensors[2]))
            kappa_delta = (
                varsigma * theta * (1 - omega) / (8 * (1 + omega) * (3 * l_bar + sigma))
            )
            assert res.radii[2] >= min(kappa_delta * eps[2], 1.0)
            assert res.radii[0] == 1.0 and res.radii[1] == 1.0
