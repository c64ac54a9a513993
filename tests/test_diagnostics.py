import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arq.diagnostics import compute_bounds, digits_demanded, value_digits_demanded
from arq.solver import ConfigError, IterationRecord, SolverConfig

from conftest import FLOAT_MAX, accepted_configs


def reference_bounds(cfg, l_f, gap):
    """Second, independent transcription of the bound formulas (kept
    deliberately separate from the package's own)."""
    p, q = cfg.p, cfg.q
    w, th, vs = cfg.omega, cfg.theta, cfg.varsigma
    lbar = l_f + cfg.acc_max
    smax = max(cfg.sigma0, cfg.gamma3 * 4 * l_f / (1 - cfg.eta2))
    ks_base = 2 * lbar * math.factorial(p + 1) / cfg.sigma_min
    ks = max(ks_base, ks_base ** (1 / p))
    kd = lambda s: vs * th * (1 - w) / (8 * (1 + w) * (3 * lbar + s))
    kdmin = kd(smax)
    if q <= 2:
        pis = [(p + 1) / (p - j + 1) for j in range(1, q + 1)]
        core = vs * (1 - th) * (1 - w) / (2 * math.factorial(q) * (l_f + smax) * (1 + w))
        kdm = cfg.sigma_min / math.factorial(p + 1) * core ** ((p + 1) / (p - q + 1))
        kse = (
            math.factorial(p + 1) / ((cfg.eta1 - 2 * w) * cfg.sigma_min)
            * 2 * math.factorial(q) * (l_f + cfg.acc_max + smax) * (1 + w)
            / ((1 - th) * (1 - w))
        )
        kae = 2 * kse * (1 + abs(math.log(cfg.gamma1)) / math.log(cfg.gamma2))
    else:
        pis = [j * (p + 1) / p for j in range(1, q + 1)]
        core = (
            vs * (1 - th) * (1 - w) * kdmin ** (q - 1)
            / (2 * math.factorial(q) * (l_f + smax) * (1 + w))
        )
        kdm = cfg.sigma_min / math.factorial(p + 1) * core ** (q * (p + 1) / p)
        kse = (
            math.factorial(p + 1) / ((cfg.eta1 - 2 * w) * cfg.sigma_min)
            * (
                2 * math.factorial(q) * (l_f + smax) * (1 + w)
                / ((1 - th) * (1 - w) * kdmin ** (q - 1))
            ) ** ((p + 1) / p)
        )
        kae = kse * (1 + abs(math.log(cfg.gamma1)) / math.log(cfg.gamma2))
    ksh2 = (vs * w * kd(smax) ** q / (4 * math.factorial(q) * (1 + w))) * min(
        1 / max(1, ks**p), th * (1 - w) / (3 * (1 + w))
    )
    kacc = min(vs * w / (4 * math.factorial(q)) * kdmin ** (q - 1), ksh2)
    kce = 2 / math.log(cfg.gamma2) * math.log(smax / cfg.sigma0) + 2
    kee = (q + 1) / abs(math.log(cfg.gamma_acc))
    eps_min = min(cfg.epsilons)
    power = min(cfg.epsilons[j - 1] ** pis[j - 1] for j in range(1, q + 1))
    n1 = kae * gap / power + kce
    if cfg.acc_max == 0:
        kfe = 2.0
        n2 = kse * gap / power + kfe
    else:
        kfe = abs(math.log(kacc / cfg.acc_max)) / abs(math.log(cfg.gamma_acc)) + 2
        n2 = kse * gap / power + kee * abs(math.log(eps_min)) + kfe
    return dict(
        sigma_max=smax, kappa_s=ks, kappa_delta_min=kdmin, kappa_dm=kdm, pi=pis,
        kappa_sharp2_max=ksh2, kappa_acc=kacc, kappa_s_evals=kse, kappa_a_evals=kae,
        kappa_c_evals=kce, kappa_e_evals=kee, kappa_f_evals=kfe,
        n_value_evals=n1, n_derivative_evals=n2,
    )


_WIDE = decimal.Context(prec=34, Emax=10**9, Emin=-10**9)


def decimal_bounds(cfg, l_f, gap):
    """Third transcription, in decimal arithmetic whose exponent range no
    accepted setting leaves: the true value of a constant a float cannot
    hold.  Keyed as `BoundReport.as_dict`; finite `l_f` only."""
    with decimal.localcontext(_WIDE):
        D = decimal.Decimal
        fact = lambda n: D(math.factorial(n))
        p, q = cfg.p, cfg.q
        w, th, vs = D(cfg.omega), D(cfg.theta), D(cfg.varsigma)
        lf, gap, acc = D(l_f), D(gap), D(cfg.acc_max)
        smin, s0 = D(cfg.sigma_min), D(cfg.sigma0)
        eps = [D(e) for e in cfg.epsilons]
        lbar = lf + acc
        smax = max(s0, D(cfg.gamma3) * 4 * lf / (1 - D(cfg.eta2)))
        ks_base = 2 * lbar * fact(p + 1) / smin
        ks = max(ks_base, ks_base ** (D(1) / p))
        kdmin = vs * th * (1 - w) / (8 * (1 + w) * (3 * lbar + smax))
        core = lambda j: vs * (1 - th) * (1 - w) / (2 * fact(j) * (lf + smax) * (1 + w))
        gamma_term = 1 + abs(D(cfg.gamma1).ln()) / D(cfg.gamma2).ln()
        kse_head = fact(p + 1) / ((D(cfg.eta1) - 2 * w) * smin)
        if q <= 2:
            pis = [D(p + 1) / (p - j + 1) for j in range(1, q + 1)]
            kdm = smin / fact(p + 1) * core(q) ** (D(p + 1) / (p - q + 1))
            steps = [(core(j) * eps[j - 1]) ** (D(1) / (p - j + 1)) for j in range(1, q + 1)]
            kse = kse_head * 2 * fact(q) * (lf + acc + smax) * (1 + w) / ((1 - th) * (1 - w))
            kae = 2 * kse * gamma_term
        else:
            pis = [D(j * (p + 1)) / p for j in range(1, q + 1)]
            kdm = smin / fact(p + 1) * (core(q) * kdmin ** (q - 1)) ** (D(q * (p + 1)) / p)
            steps = [(core(j) * kdmin ** (j - 1)) ** (D(1) / p) * eps[j - 1] ** (D(j) / p)
                     for j in range(1, q + 1)]
            kse = kse_head * (
                2 * fact(q) * (lf + smax) * (1 + w) / ((1 - th) * (1 - w) * kdmin ** (q - 1))
            ) ** (D(p + 1) / p)
            kae = kse * gamma_term
        ksh2 = vs * w * kdmin**q / (4 * fact(q) * (1 + w)) * min(
            1 / max(1, ks**p), th * (1 - w) / (3 * (1 + w))
        )
        kacc = min(vs * w / (4 * fact(q)) * kdmin ** (q - 1), ksh2)
        ln_gacc = D(cfg.gamma_acc).ln()
        kce = 2 / D(cfg.gamma2).ln() * (smax / s0).ln() + 2
        kee = (q + 1) / abs(ln_gacc)
        eps_min = min(eps)
        power = min(e**pi for e, pi in zip(eps, pis))
        n1 = kae * gap / power + kce
        if acc == 0:
            k_acc_min, kfe = 0, D(2)
            n2 = kse * gap / power + kfe
        else:
            ratio = kacc * eps_min ** (q + 1) / acc
            k_acc_min = 0 if ratio >= 1 else int(
                (ratio.ln() / ln_gacc).to_integral_value(rounding=decimal.ROUND_CEILING))
            kfe = abs((kacc / acc).ln()) / abs(ln_gacc) + 2
            n2 = kse * gap / power + kee * abs(eps_min.ln()) + kfe
        out = dict(
            l_f=lf, l_bar_f=lbar, sigma_max=smax, kappa_s=ks, kappa_delta_min=kdmin,
            kappa_dm=kdm, kappa_sharp2_max=ksh2, kappa_acc=kacc, k_acc_min=k_acc_min,
            kappa_s_evals=kse, kappa_a_evals=kae, kappa_c_evals=kce, kappa_e_evals=kee,
            kappa_f_evals=kfe, n_value_evals=n1, n_derivative_evals=n2,
        )
        for j, (pi, step) in enumerate(zip(pis, steps), start=1):
            out[f"pi_{j}"] = pi
            out[f"step_lower_bound_{j}"] = step
        return out


# Report entries that bound from above (and may read inf beyond float
# range) and from below (and may read 0.0).
UPPER = {"l_f", "l_bar_f", "sigma_max", "kappa_s", "kappa_s_evals", "kappa_a_evals",
         "kappa_c_evals", "kappa_e_evals", "kappa_f_evals", "n_value_evals",
         "n_derivative_evals"}
LOWER = {"kappa_delta_min", "kappa_dm", "kappa_sharp2_max", "kappa_acc"}


def assert_true_values(report, cfg, l_f, gap):
    """Every entry of `report` is the correctly rounded decimal value to rel
    1e-12 (one subnormal step near 0.0); `k_acc_min` is exact."""
    exact = decimal_bounds(cfg, l_f, gap)
    got = report.as_dict()
    assert got.keys() == exact.keys()
    assert got["k_acc_min"] == exact.pop("k_acc_min")
    for key, value in exact.items():
        # float() of a decimal rounds correctly: inf above range, 0.0 below.
        assert got[key] == pytest.approx(float(value), rel=1e-12, abs=5e-324), key


class TestSpotValues:
    def test_sigma_max_example(self):
        cfg = SolverConfig(epsilons=(0.1,))
        rep = compute_bounds(cfg, 1.0, 1.0)
        assert rep.sigma_max == pytest.approx(160.0)

    def test_kappa_s_example(self):
        cfg = SolverConfig(epsilons=(0.1,), sigma_min=1.0, acc0=(0.0, 0.0), acc_max=0.0)
        rep = compute_bounds(cfg, 1.0, 1.0)
        assert rep.kappa_s == pytest.approx(12.0)


class TestDualTranscription:
    @pytest.mark.parametrize(
        "kwargs,l_f,gap",
        [
            (dict(epsilons=(1e-2,)), 1.0, 5.0),
            (dict(q=2, epsilons=(1e-2, 1e-3)), 7.3, 11.0),
            (dict(p=3, q=2, epsilons=(1e-2, 1e-2), theta=0.25), 2.0, 3.0),
            (dict(p=3, q=3, epsilons=(0.05, 0.02, 0.01)), 4.0, 2.5),
            (dict(epsilons=(1e-4,), acc0=(0.0, 0.0), acc_max=0.0), 1.5, 1.0),
            (dict(epsilons=(1e-3,), gamma1=0.25, gamma2=3.0, gamma3=9.0), 3.0, 8.0),
        ],
    )
    def test_agrees_with_independent_formulas(self, kwargs, l_f, gap):
        cfg = SolverConfig(**kwargs)
        rep = compute_bounds(cfg, l_f, gap)
        ref = reference_bounds(cfg, l_f, gap)
        for key, expected in ref.items():
            got = getattr(rep, key)
            if key == "pi":
                assert list(got) == pytest.approx(expected, rel=1e-12)
            else:
                assert got == pytest.approx(expected, rel=1e-12), key

    def test_eval_bounds_finite_and_positive_on_defaults(self):
        cfg = SolverConfig(epsilons=(1e-3,))
        rep = compute_bounds(cfg, 2.0, 10.0)
        assert math.isfinite(rep.n_value_evals) and rep.n_value_evals > 0
        assert math.isfinite(rep.n_derivative_evals) and rep.n_derivative_evals > 0


class TestMonotonicityAndConsistency:
    def test_eval_bounds_grow_as_epsilon_shrinks(self):
        prev = None
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            rep = compute_bounds(SolverConfig(epsilons=(eps,)), 2.0, 10.0)
            if prev is not None:
                assert rep.n_value_evals > prev.n_value_evals
                assert rep.n_derivative_evals > prev.n_derivative_evals
            prev = rep

    def test_kappa_delta_min_is_below_one(self):
        rep = compute_bounds(SolverConfig(epsilons=(1e-2,)), 2.0, 10.0)
        assert rep.kappa_delta_min < 1.0

    def test_pi_exponents(self):
        rep = compute_bounds(SolverConfig(q=2, epsilons=(1e-2, 1e-2)), 2.0, 1.0)
        assert rep.pi == (1.5, 3.0)
        rep3 = compute_bounds(
            SolverConfig(p=3, q=3, epsilons=(1e-2,) * 3), 2.0, 1.0
        )
        assert rep3.pi == (4.0 / 3.0, 8.0 / 3.0, 4.0)

    def test_k_acc_min_is_the_smallest_sufficient_count(self):
        cfg = SolverConfig(epsilons=(1e-2,))
        rep = compute_bounds(cfg, 2.0, 10.0)
        k = rep.k_acc_min
        target = rep.kappa_acc * min(cfg.epsilons) ** (cfg.q + 1)
        assert cfg.gamma_acc**k * cfg.acc_max <= target
        if k > 0:
            assert cfg.gamma_acc ** (k - 1) * cfg.acc_max > target

    def test_exact_demands_need_no_improvements(self):
        cfg = SolverConfig(epsilons=(1e-2,), acc0=(0.0, 0.0), acc_max=0.0)
        rep = compute_bounds(cfg, 2.0, 10.0)
        assert rep.k_acc_min == 0


class TestValidation:
    def test_l_f_below_one_rejected(self):
        with pytest.raises(ConfigError):
            compute_bounds(SolverConfig(epsilons=(1e-2,)), 0.5, 1.0)

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigError):
            compute_bounds(SolverConfig(epsilons=(1e-2,)), 1.0, -1.0)

    def test_theta_at_or_above_one_rejected(self):
        # SolverConfig owns the interval, so compute_bounds never sees it.
        with pytest.raises(ConfigError, match="theta"):
            SolverConfig(epsilons=(1e-2,), theta=1.0)


class TestOutsideFloatRange:
    @pytest.mark.parametrize("sigma_min, vacuous", [
        (1e-200, {"kappa_sharp2_max": 0.0, "kappa_acc": 0.0}),  # kappa_s**p above range
        (5e-324, {"kappa_s": math.inf, "kappa_s_evals": math.inf, "kappa_dm": 0.0}),
    ])
    def test_tiny_sigma_min_reads_vacuous_bounds(self, sigma_min, vacuous):
        cfg = SolverConfig(epsilons=(1e-2,), sigma_min=sigma_min, acc0=(0.0, 0.0), acc_max=0.0)
        report = compute_bounds(cfg, 20.0, 1.0)
        assert {key: getattr(report, key) for key in vacuous} == vacuous
        assert report.k_acc_min == 0
        assert_true_values(report, cfg, 20.0, 1.0)

    def test_overflowing_count_reads_inf(self):
        cfg = SolverConfig(epsilons=(1e-2,), sigma_min=1e-100, acc0=(0.0, 0.0), acc_max=0.0)
        report = compute_bounds(cfg, 1.0, 1e300)
        assert report.n_value_evals == report.n_derivative_evals == math.inf
        assert math.isfinite(report.kappa_a_evals)
        assert_true_values(report, cfg, 1.0, 1e300)

    @pytest.mark.parametrize("kwargs, l_f, expected", [
        (dict(epsilons=(1e-2,), sigma_min=1e-200), 20.0,
         dict(kappa_sharp2_max=0.0, kappa_acc=0.0, k_acc_min=691)),
        (dict(epsilons=(1e-2,), sigma_min=5e-324), 20.0,
         dict(k_acc_min=1101, n_value_evals=math.inf, n_derivative_evals=math.inf)),
        (dict(epsilons=(1e-2,), acc_max=1e300), 2.0, dict(k_acc_min=2037)),
        (dict(epsilons=(1e-2,), gamma3=1e300), 2.0, dict(k_acc_min=546)),
        (dict(epsilons=(1e-200,)), 2.0, dict(k_acc_min=707)),
    ])
    def test_extreme_settings_match_the_decimal_transcription(self, kwargs, l_f, expected):
        cfg = SolverConfig(**kwargs)
        report = compute_bounds(cfg, l_f, 1.0)
        assert {key: getattr(report, key) for key in expected} == expected
        assert_true_values(report, cfg, l_f, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        cfg=accepted_configs(),
        l_f=st.just(math.inf) | st.floats(1.0, FLOAT_MAX),
        gap=st.sampled_from([0.0, math.inf]) | st.floats(0.0, FLOAT_MAX),
    )
    def test_every_accepted_setting_gets_a_true_report(self, cfg, l_f, gap):
        report = compute_bounds(cfg, l_f, gap).as_dict()
        k_acc_min = report.pop("k_acc_min")
        if math.isinf(l_f) and cfg.acc_max > 0.0:
            assert k_acc_min == math.inf  # no count suffices without a Lipschitz bound
        else:
            assert isinstance(k_acc_min, int) and k_acc_min >= 0
        for key, value in report.items():
            assert value >= 0.0, key  # neither NaN nor negative
            assert value < math.inf or key in UPPER, key
            assert value > 0.0 or key in LOWER or key.startswith("step_lower_bound_"), key
        if math.isfinite(l_f):
            exact = decimal_bounds(cfg, l_f, gap)
            # The float quotient behind the ceiling is good to about 1e-13
            # relative: a count near an integer, or past 2**53, can be off.
            assert abs(k_acc_min - exact["k_acc_min"]) <= 1 + 1e-12 * k_acc_min
            for key, value in report.items():
                if value in (0.0, math.inf):
                    assert float(exact[key]) == value, key

    @settings(max_examples=100, deadline=None)
    @given(
        orders=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]),
        eps=st.floats(1e-6, 0.5),
        sigma_min=st.floats(1e-10, 1.0),
        gamma3=st.floats(2.5, 100.0),
        acc_max=st.sampled_from([0.0, 1e-3, 1.0, 10.0]),
        theta=st.floats(0.05, 0.95),
        l_f=st.floats(1.0, 1e6),
        gap=st.floats(0.0, 1e6),
    )
    def test_ordinary_settings_agree_with_both_transcriptions(
        self, orders, eps, sigma_min, gamma3, acc_max, theta, l_f, gap
    ):
        p, q = orders
        cfg = SolverConfig(p=p, q=q, epsilons=(eps,) * q, sigma_min=sigma_min, gamma3=gamma3,
                           acc_max=acc_max, acc0=(0.0,) * p, theta=theta)
        report = compute_bounds(cfg, l_f, gap)
        for key, expected in reference_bounds(cfg, l_f, gap).items():
            got = list(report.pi) if key == "pi" else getattr(report, key)
            assert got == pytest.approx(expected, rel=1e-12), key
        assert_true_values(report, cfg, l_f, gap)


def _record(acc, derivative_evals):
    return IterationRecord(0, None, 1.0, np.asarray(acc, float), np.ones(1), np.ones(1),
                           np.zeros(1), derivative_evals=derivative_evals)


class TestDigitsDemanded:
    def test_mean_over_evaluating_records_of_positive_accuracies(self):
        trace = [
            _record([1e-2, 1e-3], 1),  # 5 digits
            _record([1e-9, 1e-9], 0),  # no evaluation: not counted
            _record([1e-4, 0.0], 1),  # 4 digits, the exact order skipped
        ]
        assert digits_demanded(trace) == pytest.approx(4.5)

    def test_exact_runs_have_none(self):
        assert digits_demanded([_record([0.0, 0.0], 1)]) is None
        assert digits_demanded([]) is None


class TestValueDigitsDemanded:
    def test_mean_over_value_requests_at_the_request_bound(self):
        cfg = SolverConfig(omega=0.02)
        one = dataclasses.replace(_record([0.1], 1), value_evals=1, dec_bar=2e-2)
        two = dataclasses.replace(_record([0.1], 0), value_evals=2, dec_bar=2e-5)
        none = _record([0.1], 1)  # an accuracy-improving row requests no value
        # Requested at dec_bar * omega / 4: 1e-4 once (4 digits), 1e-7 twice (7 digits).
        assert value_digits_demanded([one, none, two], cfg) == pytest.approx(6.0)

    def test_no_value_request_has_none(self):
        assert value_digits_demanded([_record([0.1], 1)], SolverConfig()) is None
        assert value_digits_demanded([], SolverConfig()) is None
