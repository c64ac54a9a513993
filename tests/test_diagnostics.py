import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arq.diagnostics import compute_bounds, digits_demanded
from arq.solver import ConfigError, IterationRecord, SolverConfig


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

    def test_kappa_delta_nonincreasing_in_sigma(self):
        rep = compute_bounds(SolverConfig(epsilons=(1e-2,)), 2.0, 10.0)
        sigmas = np.linspace(0.0, 1000.0, 50)
        vals = [rep.kappa_delta(s) for s in sigmas]
        assert all(a >= b for a, b in zip(vals[:-1], vals[1:]))
        assert all(v > 0 for v in vals)
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

    @pytest.mark.parametrize("sigma_min, constant", [
        (1e-200, "kappa_sharp2_max"),  # kappa_s**p overflowed
        (5e-324, "kappa_s_evals"),  # divided by an underflowed zero
    ])
    def test_tiny_sigma_min_names_the_constant(self, sigma_min, constant):
        cfg = SolverConfig(epsilons=(1e-2,), sigma_min=sigma_min, acc0=(0.0, 0.0), acc_max=0.0)
        with pytest.raises(ConfigError, match=f"bound constant {constant} "):
            compute_bounds(cfg, 20.0, 1.0)

    def test_overflow_to_inf_names_the_constant(self):
        cfg = SolverConfig(epsilons=(1e-2,), sigma_min=1e-100, acc0=(0.0, 0.0), acc_max=0.0)
        with pytest.raises(ConfigError, match="bound constant n_value_evals is out of float range"):
            compute_bounds(cfg, 1.0, 1e300)

    @settings(max_examples=300, deadline=None)
    @given(
        orders=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]),
        sigma_min=st.floats(5e-324, 1.0),
        eps=st.floats(5e-324, 0.5),
        acc_max=st.sampled_from([0.0, 1.0, 1e100, 1e300]),
        gamma3=st.sampled_from([4.0, 1e100, 1e300]),
        l_f=st.floats(1.0, 1e300),
        gap=st.floats(0.0, 1e300),
    )
    def test_extreme_settings_fail_only_by_config_error(
        self, orders, sigma_min, eps, acc_max, gamma3, l_f, gap
    ):
        p, q = orders
        cfg = SolverConfig(p=p, q=q, epsilons=(eps,) * q, sigma_min=sigma_min,
                           gamma3=gamma3, acc_max=acc_max, acc0=(0.0,) * p)
        try:
            report = compute_bounds(cfg, l_f, gap)
        except ConfigError as exc:
            assert str(exc).startswith("bound constant ")
        else:
            assert all(math.isfinite(value) for value in report.as_dict().values())


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
