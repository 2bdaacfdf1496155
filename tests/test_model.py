"""Population-level closed forms against exact rational oracles."""

import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

from prevbias import (
    EmptySample,
    EmptyStratum,
    InvalidSpec,
    Mechanism,
    MechanismMismatch,
    PopulationSpec,
    UndefinedActiveInfo,
    ZeroTestingMass,
    active_info_testing,
    corrected_prevalence_limit,
    covid_shares,
    exact_quantities,
    mean_shares,
    population_prevalence,
    testing_prevalence as prevalence_among_tested,
)

from conftest import (
    BASE_RHO,
    MAR_ORACLE,
    MNAR_CORRECTED_LIMIT,
    MNAR_P,
    base_spec,
    PI_MAR,
    PI_MCAR,
    PI_MNAR,
    random_integer_spec,
)


class TestPopulationSpec:
    def test_exact_string_shares_scale_to_every_grid_size(self):
        for n in (20, 1000, 10**6):
            spec = PopulationSpec(n=n, rho=BASE_RHO, pi=PI_MCAR)
            assert spec.n_si.sum() == n
            assert spec.n_si.tolist() == [[int(0.75 * n), int(0.05 * n)], [int(0.05 * n), int(0.15 * n)]]

    def test_non_integer_stratum_size_rejected_with_stratum_named(self):
        with pytest.raises(InvalidSpec, match="is not an integer"):
            PopulationSpec(n=30, rho=BASE_RHO, pi=PI_MCAR)  # 30 * 0.75 = 22.5

    def test_shares_must_sum_to_one(self):
        with pytest.raises(InvalidSpec, match="sum to 1"):
            PopulationSpec(n=10, rho=(("0.5", "0.2"), ("0.1", "0.1")), pi=PI_MCAR)

    def test_probabilities_out_of_range_rejected(self):
        with pytest.raises(InvalidSpec, match="pi"):
            PopulationSpec(n=20, rho=BASE_RHO, pi=[[0.5, 0.5], [0.5, 1.5]])

    def test_float_shares_accepted_when_sizes_are_whole(self):
        spec = PopulationSpec(n=1000, rho=[[0.75, 0.05], [0.05, 0.15]], pi=PI_MAR)
        assert spec.n_si.tolist() == [[750, 50], [50, 150]]

    def test_float_shares_rejected_when_sizes_are_not_whole(self):
        with pytest.raises(InvalidSpec):
            PopulationSpec(n=100, rho=[[1 / 3, 1 / 6], [1 / 4, 1 / 4]], pi=PI_MCAR)

    def test_mar_detection(self):
        assert base_spec(PI_MCAR).is_mar
        assert base_spec(PI_MAR).is_mar
        assert not base_spec(PI_MNAR).is_mar
        with pytest.raises(MechanismMismatch):
            _ = base_spec(PI_MNAR).pi_s


class TestMechanism:
    def test_mar_requires_consistent_shares(self, spec_mar):
        Mechanism.mar(("0.8", "0.2")).check_against(spec_mar)
        with pytest.raises(InvalidSpec):
            Mechanism.mar(("0.7", "0.3")).check_against(spec_mar)

    def test_one_check_decides_whether_a_mechanism_fits(self, spec_mar):
        # spec_mar: N = 1000, shares 0.8 / 0.2, both classes tested
        fits = [
            Mechanism.mcar(),
            Mechanism.mar(("0.8", "0.2")),
            Mechanism.maxent([0.5, 0.4], [0.6, 0.5]),  # misspecified: the bounds miss 0.8 / 0.2
        ]
        for mechanism in fits:
            mechanism.check_against(spec_mar)
        refused = [
            (Mechanism.maxent(), "need explicit share bounds"),
            (Mechanism.mar(("0.6", "0.2", "0.2")), "3 classes, population has 2"),
            (Mechanism.maxent([0.1] * 3, [0.5] * 3), "3 classes, population has 2"),
            (Mechanism.maxent([0.0, 0.0], [0.0, 1.0]), "share 0.0 of tested class 0"),
            (Mechanism.maxent([0.0, 5e-324], [1.0, 5e-324]), "share 5e-324 of tested class 1"),
        ]
        for mechanism, message in refused:
            with pytest.raises(InvalidSpec, match=re.escape(message)):
                mechanism.check_against(spec_mar)

    def test_mar_shares_are_held_relatively_on_tested_classes_only(self):
        n = 10**13
        rho = [[F(1, n), 0], [F(1, 2) - F(1, n), F(1, 2)]]
        # 5e-324 lies within 1e-12 of the share 1/N of class 0: refused when
        # the class can be tested, accepted when nobody in it is
        mechanism = Mechanism.mar([5e-324, 1.0])
        with pytest.raises(InvalidSpec, match="inconsistent"):
            mechanism.check_against(PopulationSpec(n, rho, PI_MAR))
        mechanism.check_against(PopulationSpec(n, rho, [[0.0, 0.0], [0.9, 0.9]]))
        # a share within 1e-12 relative of 1/N passes
        Mechanism.mar([1e-13 * (1 + 1e-13), 1.0 - 1e-13]).check_against(PopulationSpec(n, rho, PI_MAR))

    def test_mar_shares_must_be_a_distribution(self):
        with pytest.raises(InvalidSpec):
            Mechanism.mar((0.8, 0.3))

    def test_maxent_bounds_validated(self):
        Mechanism.maxent([0.1, 0.0], [0.9, 0.9])
        with pytest.raises(InvalidSpec):
            Mechanism.maxent([0.5, 0.2], [0.4, 0.9])


class TestPrevalences:
    def test_population_prevalence_base(self, spec_mcar):
        assert population_prevalence(spec_mcar) == pytest.approx(0.20, abs=1e-15)

    def test_population_prevalence_zero_infected(self):
        spec = PopulationSpec(10, (("0.6", "0"), ("0.4", "0")), PI_MCAR)
        assert population_prevalence(spec) == 0.0

    def test_population_prevalence_small_scenario(self):
        spec = PopulationSpec(100, (("0.89", "0.01"), ("0.06", "0.04")), PI_MAR)
        assert population_prevalence(spec) == pytest.approx(0.05, abs=1e-15)

    def test_testing_prevalence_uniform_testing_is_unbiased(self, spec_mcar):
        assert prevalence_among_tested(spec_mcar) == pytest.approx(0.20, abs=1e-15)

    def test_testing_prevalence_symptom_dependent(self, spec_mar):
        assert prevalence_among_tested(spec_mar) == pytest.approx(float(F(7, 13)), abs=1e-15)

    def test_testing_prevalence_status_dependent(self, spec_mnar):
        assert prevalence_among_tested(spec_mnar) == pytest.approx(float(MNAR_P), abs=1e-15)

    def test_zero_testing_mass(self):
        spec = PopulationSpec(20, BASE_RHO, [[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroTestingMass):
            prevalence_among_tested(spec)

    def test_uniform_testing_matches_population_prevalence_fuzzed(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            spec = random_integer_spec(rng, pi_mode="equal")
            assert prevalence_among_tested(spec) == pytest.approx(
                population_prevalence(spec), abs=1e-12
            )

    def test_two_formulas_agree_under_symptom_only_testing(self):
        # direct ratio form vs the tested-class weighted average of p0s
        rng = np.random.default_rng(202)
        for _ in range(50):
            spec = random_integer_spec(rng, pi_mode="mar")
            rho_s = spec.rho_s
            keep = rho_s > 0
            d = float(rho_s[keep] @ spec.pi_s[keep])
            weighted = float(
                ((rho_s * spec.pi_s)[keep] / d * spec.p0s[keep]).sum()
            )
            assert prevalence_among_tested(spec) == pytest.approx(weighted, abs=1e-12)


class TestActiveInfo:
    def test_uniform_testing_gives_zero(self, spec_mcar):
        assert active_info_testing(spec_mcar) == pytest.approx(0.0, abs=1e-14)

    def test_symptom_dependent_value(self, spec_mar):
        assert active_info_testing(spec_mar) == pytest.approx(
            math.log(float(F(7, 13)) / 0.2), abs=1e-12
        )
        assert active_info_testing(spec_mar) == pytest.approx(0.990399, abs=5e-7)

    def test_status_dependent_value(self, spec_mnar):
        assert active_info_testing(spec_mnar) == pytest.approx(
            math.log(float(MNAR_P) / 0.2), abs=1e-12
        )
        assert active_info_testing(spec_mnar) == pytest.approx(0.746392, abs=5e-7)

    def test_undefined_when_no_infected(self):
        spec = PopulationSpec(10, (("0.6", "0"), ("0.4", "0")), PI_MCAR)
        with pytest.raises(UndefinedActiveInfo):
            active_info_testing(spec)


class TestMechanismShares:
    """`Mechanism.shares` is the one place that picks the corrected estimate's
    share vector."""

    def test_mar_and_bounded_maxent_weight_by_rho_s(self):
        mar = Mechanism.mar(["0.7", "0.3"])
        assert mar.shares(1000, [10, 20]) is mar.rho_s
        bounded = Mechanism.maxent([0.45, 0.15, 0.05], [0.65, 0.35, 0.25])
        assert bounded.rho_s == mean_shares(bounded.slab)
        assert isinstance(bounded.rho_s, tuple)
        assert bounded.shares(1000, [0, 0, 0]) is bounded.rho_s
        with pytest.raises(InvalidSpec, match="do not match the number of symptom classes"):
            bounded.shares(1000, [10, 20])

    def test_mcar_weights_by_the_sample_fractions_row_by_row(self):
        rows = [[30, 10], [0, 7], [5, 0]]
        assert [Mechanism.mcar().shares(100, n_ts) for n_ts in rows] == [(0.75, 0.25), (0.0, 1.0), (1.0, 0.0)]

    def test_maxent_without_bounds_uses_the_closed_form(self):
        mech = Mechanism.maxent()
        assert mech.rho_s is None
        assert mech.shares(1000, [200, 100]) == covid_shares(1000, 300, 100)

    def test_closed_form_errors_come_in_a_fixed_order(self):
        mech = Mechanism.maxent()
        with pytest.raises(InvalidSpec, match="exactly two symptom classes"):
            mech.shares(1000, [0, 0, 0])
        with pytest.raises(InvalidSpec, match="exactly two symptom classes"):
            mech.shares(1000, [10])
        with pytest.raises(EmptySample):
            mech.shares(1000, [0, 0])
        with pytest.raises(EmptyStratum) as caught:
            mech.shares(1000, [0, 5])
        assert caught.value.strata == (0,)


class TestCorrectedLimit:
    def test_status_dependent_bias_floor(self, spec_mnar):
        limit = corrected_prevalence_limit(spec_mnar)
        assert limit == pytest.approx(float(MNAR_CORRECTED_LIMIT), abs=1e-12)
        assert abs(limit - 0.2) == pytest.approx(0.0275660, abs=5e-7)

    def test_symptom_only_testing_has_no_bias(self, spec_mar):
        assert corrected_prevalence_limit(spec_mar) == pytest.approx(0.2, abs=1e-12)

    def test_weights_are_read_by_the_number_parser(self, spec_mnar):
        limit = corrected_prevalence_limit(spec_mnar, [0.25, 0.75])
        assert corrected_prevalence_limit(spec_mnar, ["1/4", "3/4"]) == limit
        assert corrected_prevalence_limit(spec_mnar, np.array([0.25, 0.75])) == limit
        for weights, message in (
            ([True, False], r"^weights\[0\] is not a number: True$"),
            ([0.25, math.nan], r"^weights\[1\] is not a finite number: nan$"),
            ([1.0], "^weights must have one entry per symptom class$"),
            ([], "^weights must be a non-empty list$"),
        ):
            with pytest.raises(InvalidSpec, match=message):
                corrected_prevalence_limit(spec_mnar, weights)


class TestExactQuantities:
    def test_base_mar_scenario_matches_rational_oracle(self, spec_mar, mech_mar):
        q = exact_quantities(spec_mar, mech_mar)
        assert q.v1 == pytest.approx(float(MAR_ORACLE["v1"]), abs=1e-14)
        assert q.v2 == pytest.approx(float(MAR_ORACLE["v2"]), abs=1e-14)
        assert q.v3 == pytest.approx(float(MAR_ORACLE["v3"]), abs=1e-14)
        assert q.v4 == pytest.approx(float(MAR_ORACLE["v4"]), abs=1e-14)
        # frozen decimals for the record
        assert q.v1 == pytest.approx(0.1123335799, abs=1e-9)
        assert q.v2 == pytest.approx(0.2531998398, abs=1e-9)
        assert q.v3 == pytest.approx(0.4260416667, abs=1e-9)
        assert q.v4 == pytest.approx(0.1766826923, abs=1e-9)

    def test_limits_and_weights(self, spec_mar, mech_mar):
        q = exact_quantities(spec_mar, mech_mar)
        assert q.p == pytest.approx(float(MAR_ORACLE["p"]), abs=1e-14)
        # with known shares the corrected estimator is centred on the truth
        assert q.p_bar0 == pytest.approx(q.p0, abs=1e-12)

    def test_census_kills_all_variances(self):
        spec = PopulationSpec(20, BASE_RHO, [[1.0, 1.0], [1.0, 1.0]])
        q = exact_quantities(spec, Mechanism.mcar())
        assert (q.v1, q.v2, q.v3, q.v4) == (0.0, 0.0, 0.0, 0.0)

    def test_equal_class_prevalences_kill_v2(self):
        spec = PopulationSpec(20, (("0.6", "0.2"), ("0.15", "0.05")), PI_MAR)
        q = exact_quantities(spec, Mechanism.mcar())
        assert q.v2 == pytest.approx(0.0, abs=1e-16)
        assert q.v1 > 0.0

    def test_status_dependent_testing_rejected(self, spec_mnar):
        with pytest.raises(MechanismMismatch):
            exact_quantities(spec_mnar, Mechanism.mcar())

    def test_maxent_limit_shares_are_the_exact_centroid(self, spec_mar):
        q = exact_quantities(spec_mar, Mechanism.maxent([0.7, 0.1], [0.9, 0.3]))
        assert q.p_bar0 == pytest.approx(0.8 * 0.0625 + 0.2 * 0.75, abs=1e-12)
        with pytest.raises(InvalidSpec):
            exact_quantities(spec_mar, Mechanism.maxent())

    def test_limits_are_their_closed_forms_bit_for_bit(self):
        rng = np.random.default_rng(404)
        checked = 0
        for _ in range(60):
            spec = random_integer_spec(rng, pi_mode="mar")
            rho_s = spec.rho_s.tolist()
            if min(rho_s) <= 0:
                continue
            lower = [max(x - 0.1, 0.0) for x in rho_s]
            upper = [min(x + 0.1, 1.0) for x in rho_s]
            for mech in (Mechanism.mcar(), Mechanism.mar(rho_s), Mechanism.maxent(lower, upper)):
                q = exact_quantities(spec, mech)
                rho_bar = spec.rho_s if mech.kind == "mcar" else mech.rho_s
                assert q.p0 == population_prevalence(spec)
                assert q.p == prevalence_among_tested(spec)
                assert q.p_bar0 == corrected_prevalence_limit(spec, rho_bar)
                checked += 1
        assert checked > 100

    def test_v4_cauchy_schwarz_fuzzed(self):
        rng = np.random.default_rng(303)
        checked = 0
        for _ in range(100):
            spec = random_integer_spec(rng, pi_mode="mar")
            if np.any(spec.rho_s <= 0):
                continue
            q = exact_quantities(spec, Mechanism.mcar())
            assert q.v4**2 <= q.v1 * q.v3 + 1e-9
            checked += 1
        assert checked > 50
