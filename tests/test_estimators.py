"""Estimators against hand arithmetic, enumeration oracles, and identities."""

import math

import numpy as np
import pytest

from prevbias import (
    EmptySample,
    EmptyStratum,
    InvalidSpec,
    Mechanism,
    PopulationSpec,
    RngStream,
    TestingOutcome as Outcome,
    build_bundle,
    covid_shares,
    draw_outcome,
    enumerate_outcomes,
    p_hat,
    population_prevalence,
)

from conftest import MNAR_CORRECTED_LIMIT, MNAR_P, PI_MAR

REFERENCE_COUNTS = Outcome(counts=[[380, 20], [40, 60]], n=10_000)


class TestPHat:
    def test_reference_counts(self):
        assert p_hat(REFERENCE_COUNTS) == pytest.approx(0.16, abs=1e-15)

    def test_all_tested_infected(self):
        assert p_hat(Outcome(counts=[[0, 7], [0, 3]], n=100)) == 1.0

    def test_no_tested_infected(self):
        assert p_hat(Outcome(counts=[[7, 0], [3, 0]], n=100)) == 0.0

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            p_hat(Outcome(counts=[[0, 0], [0, 0]], n=100))


class TestKnownShareCorrection:
    def test_reference_shares(self):
        out = Outcome(counts=[[380, 20], [25, 75]], n=10_000)
        assert build_bundle(out, Mechanism.mar((0.8, 0.2))).p0_hat == pytest.approx(
            0.8 * (20 / 400) + 0.2 * 0.75, abs=1e-15
        )

    def test_single_class_degenerates_to_p_hat(self):
        out = Outcome(counts=[[40, 10]], n=100)
        assert build_bundle(out, Mechanism.mar((1.0,))).p0_hat == pytest.approx(p_hat(out), abs=1e-15)

    def test_empty_weighted_class_rejected(self):
        out = Outcome(counts=[[40, 10], [0, 0]], n=100)
        with pytest.raises(EmptyStratum) as info:
            build_bundle(out, Mechanism.mar((0.8, 0.2)))
        assert info.value.strata == (1,)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(InvalidSpec):
            build_bundle(REFERENCE_COUNTS, Mechanism.mar((0.8, 0.1)))

    def test_enumerated_conditional_mean_recovers_the_truth(self):
        # conditionally on every class being sampled, the known-share
        # correction is exactly unbiased (its class rates are means of
        # draw-without-replacement laws)
        spec = PopulationSpec(20, (("0.4", "0.1"), ("0.3", "0.2")), PI_MAR)
        p0 = population_prevalence(spec)
        mechanism = Mechanism.mar(spec.rho_s)
        kept_mass = 0.0
        kept_mean = 0.0
        discarded_mass = 0.0
        for outcome, prob in enumerate_outcomes(spec):
            if np.all(np.array(outcome.n_ts) > 0):
                kept_mean += prob * build_bundle(outcome, mechanism).p0_hat
                kept_mass += prob
            else:
                discarded_mass += prob
        conditional_mean = kept_mean / kept_mass
        assert conditional_mean == pytest.approx(p0, abs=1e-10)
        assert abs(conditional_mean - p0) <= discarded_mass


class TestBoundedShareCorrection:
    def test_reference_two_class_value(self):
        out = Outcome(counts=[[380, 20], [40, 60]], n=1000)
        assert out.n_t == 500 and list(out.n_ts) == [400, 100]
        assert build_bundle(out, Mechanism.maxent()).p0_hat == pytest.approx(
            0.05 * 0.85 + 0.6 * 0.15, abs=1e-15
        )

    def test_closed_form_equals_share_pipeline(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            counts = rng.integers(1, 40, size=(2, 2))
            out = Outcome(counts=counts, n=int(counts.sum() * 3))
            direct = build_bundle(out, Mechanism.maxent()).p0_hat
            shares = covid_shares(out.n, out.n_t, int(out.n_ts[1]))
            two_term = (out.counts[0][1] / out.n_ts[0]) * shares[0] + (
                out.counts[1][1] / out.n_ts[1]
            ) * shares[1]
            assert direct == pytest.approx(two_term, abs=1e-12)
            assert direct == pytest.approx(build_bundle(out, Mechanism.mar(shares)).p0_hat, abs=0)

    def test_degenerate_bounds_reproduce_known_share_estimator_bitwise(self):
        rng = np.random.default_rng(31)
        shares = np.array([0.8, 0.2])
        mechanism, known = Mechanism.maxent(shares, shares), Mechanism.mar(shares)
        for _ in range(50):
            counts = rng.integers(1, 50, size=(2, 2))
            out = Outcome(counts=counts, n=int(counts.sum() * 2))
            assert build_bundle(out, mechanism).p0_hat == build_bundle(out, known).p0_hat

    def test_census_degenerates_to_p_hat(self):
        out = Outcome(counts=[[8, 2], [6, 4]], n=20)
        shares = covid_shares(20, 20, 10)
        assert shares[1] == pytest.approx(0.5, abs=1e-15)
        assert build_bundle(out, Mechanism.maxent()).p0_hat == pytest.approx(p_hat(out), abs=1e-15)

    def test_empty_class_rejected(self):
        out = Outcome(counts=[[10, 2], [0, 0]], n=100)
        with pytest.raises(EmptyStratum):
            build_bundle(out, Mechanism.maxent())


UNDEFINED = "active information undefined: "


class TestActiveInfoEstimates:
    """The information estimates ``i_t_hat`` and ``i_c_hat`` of
    `build_bundle`, whose plug-in stage decides where ``log(p_hat / p0_hat)``
    is defined."""

    def test_equal_estimates_give_zero(self):
        # under mcar p0_hat is p_hat
        bundle = build_bundle(REFERENCE_COUNTS, Mechanism.mcar())
        assert (bundle.i_t_hat, bundle.i_c_hat, bundle.warnings) == (0.0, -0.0, ())
        assert math.copysign(1.0, bundle.i_c_hat) == -1.0

    def test_reference_value(self):
        # the expected counts of the base population at N = 1000 under PI_MAR
        bundle = build_bundle(Outcome(counts=[[75, 5], [45, 135]], n=1000), Mechanism.mar(("0.8", "0.2")))
        assert bundle.i_t_hat == pytest.approx(math.log(0.538462 / 0.2), abs=1e-6)
        assert bundle.i_t_hat == pytest.approx(0.99040, abs=5e-6)
        assert bundle.i_c_hat == -bundle.i_t_hat

    def test_status_dependent_expectation_level_values(self):
        # the expected counts under PI_MNAR: p_hat = 27/64, p0_hat = 776/3410
        bundle = build_bundle(Outcome(counts=[[150, 15], [35, 120]], n=1000), Mechanism.mar(("0.8", "0.2")))
        assert bundle.p_hat == float(MNAR_P)
        assert bundle.p0_hat == pytest.approx(float(MNAR_CORRECTED_LIMIT), abs=1e-15)
        assert bundle.i_t_hat == pytest.approx(0.617269, abs=5e-7)
        assert bundle.i_c_hat == -bundle.i_t_hat

    def test_zero_inputs_undefined(self):
        for counts, mechanism in (
            ([[7, 0], [3, 0]], Mechanism.mcar()),  # p_hat = p0_hat = 0
            ([[10, 0], [0, 5]], Mechanism.mar((1.0, 0.0))),  # p0_hat = 0 < p_hat
        ):
            bundle = build_bundle(Outcome(counts=counts, n=100), mechanism)
            assert math.isnan(bundle.i_t_hat) and math.isnan(bundle.i_c_hat)
            assert bundle.warnings == (UNDEFINED + "a prevalence estimate is zero",)

    def test_an_overflowing_ratio_is_undefined(self):
        # a subnormal share: p0_hat = 5e-324, so the ratio is inf, whose log would be inf
        bundle = build_bundle(Outcome(counts=[[140, 0], [36, 123]], n=369), Mechanism.mar([1.0, 5e-324]))
        assert bundle.p0_hat == 5e-324
        assert math.isnan(bundle.i_t_hat) and math.isnan(bundle.i_c_hat)
        assert bundle.warnings == (UNDEFINED + "p_hat / p0_hat = 0.411371237458194 / 5e-324 overflows",)

    def test_decomposition_cancels_exactly_fuzzed(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            counts = rng.integers(1, 40, size=(2, 2))
            shares = rng.dirichlet(np.ones(2)).tolist()
            bundle = build_bundle(Outcome(counts=counts, n=int(counts.sum())), Mechanism.mar(shares))
            assert bundle.i_t_hat + bundle.i_c_hat == 0.0


class TestBundle:
    @pytest.mark.parametrize(
        "mechanism",
        [Mechanism.mcar(), Mechanism.mar(("0.8", "0.2")), Mechanism.maxent()],
        ids=["mcar", "mar", "maxent"],
    )
    def test_invariants_on_simulated_outcomes(self, mechanism, spec_mar):
        rng = np.random.default_rng(13)
        for k in range(50):
            out = draw_outcome(spec_mar, RngStream(99, k))
            bundle = build_bundle(out, mechanism)
            assert 0.0 <= bundle.p_hat <= 1.0
            assert 0.0 <= bundle.p0_hat <= 1.0
            assert float(np.sum(bundle.rho_hat)) == pytest.approx(1.0, abs=1e-12)
            if not math.isnan(bundle.i_t_hat):
                assert bundle.i_c_hat == -bundle.i_t_hat
            assert bundle.pi_hat == out.n_t / out.n

    def test_bounded_share_mechanism_with_explicit_bounds(self, spec_mar):
        out = draw_outcome(spec_mar, RngStream(4))
        mech = Mechanism.maxent([0.75, 0.15], [0.85, 0.25])
        bundle = build_bundle(out, mech)
        shares = bundle.rho_hat
        assert shares[1] == pytest.approx(0.2, abs=0.01)
        assert bundle.p0_hat == pytest.approx(build_bundle(out, Mechanism.mar(shares)).p0_hat, abs=0)
