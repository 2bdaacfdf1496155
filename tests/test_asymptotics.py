"""Standard errors, intervals, and empirical checks of the normal limits."""

import math

import numpy as np
import pytest
from scipy import stats

from prevbias import (
    BoundaryEstimate,
    EmptyStratum,
    InvalidSpec,
    Mechanism,
    NegativeVarianceCombination,
    RngStream,
    TestingOutcome as Outcome,
    VarianceEstimates,
    ci_active_info,
    build_bundle,
    ci_logit_prevalence,
    draw_outcome,
    normal_quantile,
    p_hat,
    sigma_it,
    sigma_p,
    sigma_p0,
)

from conftest import MAR_ORACLE, PI_MAR, base_spec

MAR_V = tuple(float(MAR_ORACLE[k]) for k in ("v1", "v2", "v3", "v4"))
MAR_P = float(MAR_ORACLE["p"])


class TestQuantile:
    def test_two_sided_critical_values(self):
        assert normal_quantile(0.05) == pytest.approx(1.959963985, abs=1e-8)
        assert normal_quantile(1.0) == pytest.approx(0.0, abs=1e-12)
        for alpha in (1e-12, 1e-6, 0.01, 0.1, 0.5, 0.9):
            assert normal_quantile(alpha) == pytest.approx(stats.norm.ppf(1 - alpha / 2), abs=1e-14)
        # the level 1 - alpha/2 rounds to 1 below alpha = 2^-53
        assert normal_quantile(1e-20) == math.inf

    def test_alpha_domain(self):
        with pytest.raises(InvalidSpec):
            normal_quantile(0.0)


class TestPluginVariances:
    def test_large_population_plugin_is_consistent(self):
        spec = base_spec(PI_MAR, n=10**6)
        out = draw_outcome(spec, RngStream(2024, 0))
        v = build_bundle(out, Mechanism.mar(("0.8", "0.2"))).variances
        assert v.v1 == pytest.approx(MAR_V[0], rel=0.05)
        assert v.v2 == pytest.approx(MAR_V[1], rel=0.05)
        assert v.v3 == pytest.approx(MAR_V[2], rel=0.05)
        assert v.v4 == pytest.approx(MAR_V[3], rel=0.05)
        assert not v.degenerate

    def test_degenerate_class_rates_flagged_with_zero_variances(self):
        out = Outcome(counts=[[5, 0], [7, 0]], n=100)
        v = build_bundle(out, Mechanism.mar([0.5, 0.5])).variances
        assert v.degenerate
        assert v[:4] == (0.0, 0.0, 0.0, 0.0)

    def test_mixed_boundary_rates_keep_share_noise(self):
        # 0/1 class rates zero the within-class noise terms, but the
        # between-class spread still feeds the share-noise component
        out = Outcome(counts=[[5, 0], [0, 5]], n=100)
        v = build_bundle(out, Mechanism.mar([0.5, 0.5])).variances
        assert v.degenerate
        assert (v.v1, v.v3, v.v4) == (0.0, 0.0, 0.0)
        assert v.v2 > 0.0

    def test_census_class_has_zero_contribution(self):
        out = Outcome(counts=[[40, 10]], n=50)
        v = build_bundle(out, Mechanism.mar([1.0])).variances
        assert v[:4] == (0.0, 0.0, 0.0, 0.0)

    def test_empty_weighted_class_rejected(self):
        out = Outcome(counts=[[5, 5], [0, 0]], n=100)
        with pytest.raises(EmptyStratum):
            build_bundle(out, Mechanism.mar([0.8, 0.2]))


class TestLogitInterval:
    def test_reference_interval(self):
        ci = ci_logit_prevalence(0.5, 0.05, 0.05)
        assert ci.lo == pytest.approx(0.403237, abs=1e-4)
        assert ci.hi == pytest.approx(0.596763, abs=1e-4)
        # symmetric about 1/2 because the log-odds map is antisymmetric there
        assert ci.lo + ci.hi == pytest.approx(1.0, abs=1e-12)

    def test_zero_sigma_is_a_point(self):
        ci = ci_logit_prevalence(0.37, 0.0, 0.05)
        assert (ci.lo, ci.hi) == (0.37, 0.37)

    def test_alpha_one_is_a_point(self):
        ci = ci_logit_prevalence(0.37, 0.1, 1.0)
        assert (ci.lo, ci.hi) == (0.37, 0.37)

    def test_boundary_estimates_rejected(self):
        for est in (0.0, 1.0):
            with pytest.raises(BoundaryEstimate):
                ci_logit_prevalence(est, 0.1, 0.05)

    def test_endpoints_stay_inside_unit_interval_fuzzed(self):
        rng = np.random.default_rng(55)
        cases = [(float(rng.uniform(1e-6, 1 - 1e-6)), float(rng.exponential(0.2))) for _ in range(300)]
        # half-widths so large that the logistic function rounds to 0 and 1
        cases += [(1e-9, 10.0), (1 - 1e-9, 10.0)]
        for est, sigma in cases:
            ci = ci_logit_prevalence(est, sigma, 0.05)
            assert 0.0 < ci.lo <= est <= ci.hi < 1.0


class TestInfoInterval:
    def test_reference_interval(self):
        ci = ci_active_info(0.99, 0.1, 0.05)
        assert ci.lo == pytest.approx(0.794004, abs=1e-5)
        assert ci.hi == pytest.approx(1.185996, abs=1e-5)

    def test_zero_sigma_point(self):
        ci = ci_active_info(0.5, 0.0, 0.05)
        assert (ci.lo, ci.hi) == (0.5, 0.5)

    def test_alpha_one_point(self):
        ci = ci_active_info(0.5, 0.3, 1.0)
        assert (ci.lo, ci.hi) == (0.5, 0.5)


class TestSigmaIT:
    def test_reference_value(self):
        sigma = sigma_it(MAR_V, MAR_P, 0.2, 10**6)
        assert sigma == pytest.approx(0.0029377728, abs=1e-9)

    def test_conditional_is_strictly_smaller(self):
        unconditional = sigma_it(MAR_V, MAR_P, 0.2, 10**6)
        conditional = sigma_it(MAR_V, MAR_P, 0.2, 10**6, conditional=True)
        assert conditional == pytest.approx(0.0027851800, abs=1e-9)
        assert conditional < unconditional

    def test_zero_components(self):
        assert sigma_it((0.0, 0.0, 0.0, 0.0), 0.5, 0.5, 100) == 0.0

    def test_conditional_never_larger_fuzzed(self):
        rng = np.random.default_rng(66)
        for _ in range(200):
            v1, v3 = rng.uniform(0.0, 1.0, size=2)
            v2 = float(rng.uniform(0.0, 1.0))
            v4 = float(rng.uniform(-1.0, 1.0)) * math.sqrt(v1 * v3)
            p, pb = rng.uniform(0.05, 0.95, size=2)
            try:
                s_u = sigma_it((v1, v2, v3, v4), p, pb, 1000)
                s_c = sigma_it((v1, v2, v3, v4), p, pb, 1000, conditional=True)
            except NegativeVarianceCombination:
                continue
            assert s_c <= s_u + 1e-15

    def test_matches_its_expression_on_numpy_columns(self):
        # the first six have x**2 != x * x in Python floats on glibc 2.36,
        # whose libm pow is not correctly rounded; numpy's * is, as on floats
        planted = [
            0.42533730676875514, 0.5874183784430576, 0.43022268713048784,
            0.07689070041014368, 0.1759696703546062, 0.8982605744652615,
        ]
        rng = np.random.default_rng(68)
        p = np.array(planted + rng.uniform(0.05, 0.95, size=30).tolist())
        p_bar0 = np.array(planted[::-1] + rng.uniform(0.05, 0.95, size=30).tolist())
        v1, v2, v3 = rng.uniform(0.0, 1.0, size=(3, p.size))
        v4 = 0.9 * rng.uniform(-1.0, 1.0, size=p.size) * np.sqrt(v1 * v3)
        for conditional in (False, True):
            top = v1 if conditional else v1 + v2
            bracket = top / (p * p) + v3 / (p_bar0 * p_bar0) - 2.0 * v4 / (p * p_bar0)
            columns = np.sqrt(bracket / 1000)
            scalars = [
                sigma_it(v, a, b, 1000, conditional=conditional)
                for v, a, b in zip(zip(v1, v2, v3, v4), p.tolist(), p_bar0.tolist())
            ]
            assert scalars == columns.tolist()

    def test_tiny_negative_bracket_clipped(self):
        v4 = 1e-10 * 0.25 / 2.0
        assert sigma_it((0.0, 0.0, 0.0, v4), 0.5, 0.5, 100) == 0.0

    def test_large_negative_bracket_raises(self):
        with pytest.raises(NegativeVarianceCombination):
            sigma_it((0.0, 0.0, 0.0, 1.0), 0.5, 0.5, 100)

    def test_domain_checks(self):
        with pytest.raises(InvalidSpec):
            sigma_it(MAR_V, 0.0, 0.2, 100)
        with pytest.raises(InvalidSpec):
            sigma_it(MAR_V, 0.5, 1.0, 100)


class TestMarginalSigmas:
    def test_values(self):
        v = VarianceEstimates(0.1, 0.2, 0.3, 0.05)
        assert sigma_p(v, 10_000) == pytest.approx(math.sqrt(0.3 / 10_000), abs=1e-15)
        assert sigma_p0(v, 10_000) == pytest.approx(math.sqrt(0.3 / 10_000), abs=1e-15)

    def test_negative_variance_is_a_typed_value_error(self):
        for sigma, v in ((sigma_p, (0.1, -0.2, 0.0, 0.0)), (sigma_p0, (0.0, 0.0, -1e-300, 0.0))):
            with pytest.raises(NegativeVarianceCombination) as caught:
                sigma(v, 10)
            assert isinstance(caught.value, ValueError)
        assert math.copysign(1.0, sigma_p0((0.0, 0.0, -0.0, 0.0), 10)) == -1.0  # sqrt(-0.0) is -0.0

    def test_class_tested_beyond_its_share_makes_the_plugin_variance_negative(self):
        # class 2 has 38 tested individuals, more than N * 0.2 = 20.4
        out = Outcome(counts=[[9, 5], [35, 15], [34, 4]], n=102)
        v = build_bundle(out, Mechanism.mar(["0.5", "0.3", "0.2"])).variances
        assert v.v1 + v.v2 < 0.0
        with pytest.raises(NegativeVarianceCombination, match="tested beyond N times its share"):
            sigma_p(v, out.n)


def _mar_replicates(n, reps, seed):
    spec = base_spec(PI_MAR, n=n)
    mechanism = Mechanism.mar([0.8, 0.2])
    p_hats = np.empty(reps)
    p0_hats = np.empty(reps)
    for r in range(reps):
        out = draw_outcome(spec, RngStream(seed, r))
        p_hats[r] = p_hat(out)
        p0_hats[r] = build_bundle(out, mechanism).p0_hat
    return p_hats, p0_hats


def _rejects_normality(z):
    """Anderson-Darling rejection at the 1% level.

    The interpolated p-value is clipped to [0.01, 0.15], so every statistic
    at or beyond the 1% critical value reports exactly 0.01: hence ``<=``.
    """
    return stats.anderson(z, dist="norm", method="interpolate").pvalue <= 0.01


class TestEmpiricalLimits:
    def test_scaled_errors_match_the_closed_form_variances(self):
        n, reps = 100_000, 500
        p_hats, p0_hats = _mar_replicates(n, reps, seed=515)
        v1, v2, v3, v4 = MAR_V
        assert n * p_hats.var(ddof=1) == pytest.approx(v1 + v2, rel=0.15)
        assert n * p0_hats.var(ddof=1) == pytest.approx(v3, rel=0.15)
        bracket = (v1 + v2) / MAR_P**2 + v3 / 0.04 - 2 * v4 / (MAR_P * 0.2)
        i_t = np.log(p_hats / p0_hats)
        assert n * i_t.var(ddof=1) == pytest.approx(bracket, rel=0.15)

    def test_standardized_errors_pass_normality_in_most_reruns(self):
        # Anderson-Darling on sqrt(N) (p0_hat - p0) / sqrt(V3), 20 reruns,
        # 1% level; at most one rejection expected
        n, reps = 100_000, 500
        scale = math.sqrt(float(MAR_ORACLE["v3"]) / n)
        rejections = 0
        for seed in range(20):
            _, p0_hats = _mar_replicates(n, reps, seed=7000 + seed)
            rejections += _rejects_normality((p0_hats - 0.2) / scale)
        assert rejections <= 1

    def test_normality_check_rejects_skewed_and_heavy_tailed_samples(self):
        rng = np.random.default_rng(7100)
        assert _rejects_normality(rng.exponential(size=500))
        assert _rejects_normality(rng.standard_t(3, size=500))
