"""Testing-round simulation: the count table, determinism, and exact enumeration."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from prevbias import (
    InvalidSpec,
    PopulationSpec,
    RngStream,
    TestingOutcome as Outcome,
    TooLarge,
    draw_outcome,
    enumerate_outcomes,
)

from conftest import BASE_RHO, PI_MCAR, sample_fractions

SMALL_RHO = (("0.4", "0.1"), ("0.3", "0.2"))  # N=20 -> sizes (8, 2, 6, 4), p0 = 0.3


def small_spec(pi=0.5, n=20):
    return PopulationSpec(n=n, rho=SMALL_RHO, pi=np.full((2, 2), pi))


class TestOutcomeType:
    def test_derived_counts(self):
        out = Outcome(counts=[[380, 20], [40, 60]], n=10_000)
        assert out.n_t == 500
        assert out.n_t1 == 80
        assert list(out.n_ts) == [400, 100]
        assert sample_fractions(out) == [0.8, 0.2]
        # every count follows the JSON number rule
        assert Outcome(counts=[["3", 1.0], ["1e1", 2]], n=100).counts == ((3, 1), (10, 2))
        for bad in (2.5, True, -1, "x"):
            with pytest.raises(InvalidSpec, match=r"counts\[1,0\]"):
                Outcome(counts=[[3, 1], [bad, 2]], n=100)
        # and so does the population size
        for bad in (True, 1.5, 0, "x"):
            with pytest.raises(InvalidSpec, match="population size"):
                Outcome(counts=[[0, 1]], n=bad)

    def test_counts_cannot_exceed_population(self):
        with pytest.raises(InvalidSpec, match="exceeds the population"):
            Outcome(counts=[[5, 5], [5, 6]], n=20)


class TestDraw:
    def test_certain_testing_returns_the_census(self):
        spec = small_spec(pi=1.0)
        out = draw_outcome(spec, RngStream(0))
        assert np.array_equal(out.counts, spec.n_si)

    def test_no_testing_returns_zeros(self):
        spec = small_spec(pi=0.0)
        out = draw_outcome(spec, RngStream(0))
        assert out.n_t == 0

    def test_same_stream_is_bit_identical(self):
        spec = small_spec()
        a = draw_outcome(spec, RngStream(42, 7))
        b = draw_outcome(spec, RngStream(42, 7))
        assert np.array_equal(a.counts, b.counts)

    def test_streams_are_independent_of_thread_layout(self):
        spec = small_spec(n=2000)
        streams = [RngStream(42, k) for k in range(16)]
        serial = [draw_outcome(spec, s).counts for s in streams]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda s: draw_outcome(spec, s).counts, streams))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        spec = PopulationSpec(10_000, BASE_RHO, PI_MCAR)
        a = draw_outcome(spec, RngStream(42, 0))
        b = draw_outcome(spec, RngStream(42, 1))
        assert not np.array_equal(a.counts, b.counts)


class TestEnumeration:
    def test_two_fair_coins(self):
        spec = PopulationSpec(2, (("0.5", "0.5"),), [[0.5, 0.5]])
        law = {}
        for outcome, prob in enumerate_outcomes(spec):
            law[outcome.n_t] = law.get(outcome.n_t, 0.0) + prob
        assert law[0] == pytest.approx(0.25, abs=1e-15)
        assert law[1] == pytest.approx(0.50, abs=1e-15)
        assert law[2] == pytest.approx(0.25, abs=1e-15)

    def test_probabilities_sum_to_one(self):
        spec = small_spec(pi=0.37)
        total = sum(prob for _, prob in enumerate_outcomes(spec))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_population_guard(self):
        spec = PopulationSpec(31, (("1", "0"),), [[0.5, 0.5]])
        with pytest.raises(TooLarge):
            enumerate_outcomes(spec)

    def test_total_positives_given_total_tested_is_hypergeometric(self):
        # uniform testing: conditionally on N_T the positives follow the
        # draw-without-replacement law of a simple random sample
        spec = small_spec(pi=0.5)
        outcomes = enumerate_outcomes(spec)
        k_infected = int(spec.n_si[:, 1].sum())
        for n_t in (5, 10, 14):
            mass = {}
            total = 0.0
            for outcome, prob in outcomes:
                if outcome.n_t == n_t:
                    mass[outcome.n_t1] = mass.get(outcome.n_t1, 0.0) + prob
                    total += prob
            law = stats.hypergeom(spec.n, k_infected, n_t)
            for n_t1, p in mass.items():
                assert p / total == pytest.approx(law.pmf(n_t1), abs=1e-10)

    def test_class_positives_given_class_tested_is_hypergeometric(self):
        # per symptom class, when testing inside the class ignores status
        spec = small_spec(pi=0.5)
        outcomes = enumerate_outcomes(spec)
        for s in (0, 1):
            n_s = int(spec.n_si[s].sum())
            k_s = int(spec.n_si[s, 1])
            for t in (1, 3, 5):
                mass = {}
                total = 0.0
                for outcome, prob in outcomes:
                    if int(outcome.n_ts[s]) == t:
                        key = int(outcome.counts[s][1])
                        mass[key] = mass.get(key, 0.0) + prob
                        total += prob
                law = stats.hypergeom(n_s, k_s, t)
                for n_ts1, p in mass.items():
                    assert p / total == pytest.approx(law.pmf(n_ts1), abs=1e-10)
