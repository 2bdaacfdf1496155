"""Share integration over the constrained simplex region."""

import numpy as np
import pytest

from prevbias import (
    EmptyRegion,
    InvalidSpec,
    RngStream,
    SimplexSlab,
    TooLarge,
    covid_shares,
    mean_shares,
)
from prevbias.maxent import MAX_FREE_CLASSES

from conftest import RejectionStarvation, covid_slab, expected_shares, oracle_three_class_centroid


class TestSlab:
    def test_bounds_validated(self):
        with pytest.raises(InvalidSpec):
            SimplexSlab([0.5, -0.1], [0.9, 0.5])
        with pytest.raises(InvalidSpec):
            SimplexSlab([0.5, 0.6], [0.9, 0.5])

    def test_nan_bounds_rejected(self):
        with pytest.raises(InvalidSpec):
            SimplexSlab([float("nan"), 0.5], [float("nan"), 0.6])

    def test_empty_region_detected(self):
        with pytest.raises(EmptyRegion):
            SimplexSlab([0.7, 0.6], [0.8, 0.7])  # lower sum > 1
        with pytest.raises(EmptyRegion):
            SimplexSlab([0.1, 0.1], [0.3, 0.3])  # upper sum < 1


class TestExpectedShares:
    def test_point_mass_is_exact_and_consumes_no_randomness(self):
        est = expected_shares(SimplexSlab([0.8, 0.2], [0.8, 0.2]))
        assert est.estimate.tolist() == [0.8, 0.2]
        assert est.stderr.tolist() == [0.0, 0.0]

    def test_two_class_interval_mean(self):
        # with rho_0 = 1 - rho_1, the region is the segment rho_1 in (a, b)
        # and the mean share is its midpoint
        slab = SimplexSlab([0.8, 0.1], [0.9, 0.2])
        est = expected_shares(slab, RngStream(5), n_samples=20_000)
        tol = 3.0 * max(est.stderr[1], 1e-4)
        assert abs(est.estimate[1] - 0.15) < tol
        assert est.estimate.sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_simplex_is_symmetric(self):
        slab = SimplexSlab([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        est = expected_shares(slab, RngStream(6), n_samples=30_000)
        for s in range(3):
            assert abs(est.estimate[s] - 1 / 3) < 3.0 * est.stderr[s]

    def test_permutation_equivariance_within_monte_carlo_error(self):
        lower = np.array([0.05, 0.25, 0.0])
        upper = np.array([0.55, 0.75, 0.4])
        est = expected_shares(SimplexSlab(lower, upper), RngStream(7), n_samples=40_000)
        perm = [2, 0, 1]
        est_p = expected_shares(
            SimplexSlab(lower[perm], upper[perm]), RngStream(8), n_samples=40_000
        )
        for s in range(3):
            tol = 3.0 * np.hypot(est.stderr[perm[s]], est_p.stderr[s])
            assert abs(est_p.estimate[s] - est.estimate[perm[s]]) < tol

    def test_starvation_raises(self):
        slab = SimplexSlab([0.0, 0.5], [1.0, 0.5 + 1e-8])
        with pytest.raises(RejectionStarvation):
            expected_shares(slab, RngStream(9), n_samples=100)

    def test_needs_rng_when_not_degenerate(self):
        with pytest.raises(InvalidSpec):
            expected_shares(SimplexSlab([0.0, 0.0], [1.0, 1.0]))


class TestMeanShares:
    def test_three_classes_match_the_polygon_centroid_exactly(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            lower = rng.uniform(0.0, 0.4, size=3)
            upper = np.minimum(lower + rng.uniform(0.05, 0.8, size=3), 1.0)
            if not lower.sum() < 1.0 < upper.sum():
                continue
            exact = oracle_three_class_centroid(lower, upper)
            assert list(mean_shares(SimplexSlab(lower, upper))) == [float(x) for x in exact]
            checked += 1

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ([0.05, 0.1, 0.0, 0.2], [0.5, 0.4, 0.3, 0.6]),
            ([0.0, 0.05, 0.1, 0.0, 0.15], [0.3, 0.35, 0.4, 0.25, 0.5]),
        ],
        ids=["S=4", "S=5"],
    )
    def test_four_and_five_classes_match_monte_carlo(self, lower, upper):
        slab = SimplexSlab(lower, upper)
        exact = mean_shares(slab)
        est = expected_shares(slab, RngStream(12, len(lower)), n_samples=40_000)
        assert np.all(np.abs(est.estimate - exact) <= 4.0 * est.stderr)
        assert sum(exact) == pytest.approx(1.0, abs=1e-15)

    def test_fixed_class_keeps_its_share(self):
        # class 0 is fixed at 0.25; the rest is the segment rho_1 in [0.1, 0.55]
        shares = mean_shares(SimplexSlab([0.25, 0.1, 0.2], [0.25, 0.6, 0.7]))
        assert shares[0] == 0.25
        assert shares[1] == pytest.approx(0.325, abs=1e-15)
        assert shares[2] == pytest.approx(0.425, abs=1e-15)

    def test_point_regions_return_the_bound(self):
        # exact sum(lower) exceeds 1 and exact sum(upper) falls short of 1,
        # each within the slab's tolerance
        assert list(mean_shares(SimplexSlab([0.8, 0.2], [0.9, 0.3]))) == [0.8, 0.2]
        assert list(mean_shares(SimplexSlab([0.5, 0.1], [0.7, 0.3]))) == [0.7, 0.3]

    def test_thin_region_is_exact(self):
        # a float sum of the alternating terms breaks down here
        shares = mean_shares(SimplexSlab([0.0] * 5, [0.2 + 1e-6] * 5))
        assert list(shares) == [0.2] * 5

    def test_permutation_equivariance_is_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            lower = rng.uniform(0.0, 0.25, size=4)
            upper = np.minimum(lower + rng.uniform(0.0, 0.6, size=4), 1.0)
            if not lower.sum() < 1.0 < upper.sum():
                continue
            shares = mean_shares(SimplexSlab(lower, upper))
            perm = rng.permutation(4)
            assert list(mean_shares(SimplexSlab(lower[perm], upper[perm]))) == [shares[i] for i in perm]

    def test_free_class_cap(self):
        s = MAX_FREE_CLASSES + 1
        with pytest.raises(TooLarge):
            mean_shares(SimplexSlab([0.0] * s, [1.0] * s))
        # fixed classes do not count against the cap
        shares = mean_shares(SimplexSlab([0.0] * s, [1.0] * (s - 1) + [0.0]))
        assert list(shares) == [1.0 / (s - 1)] * (s - 1) + [0.0]


class TestCovidShares:
    def test_reference_midpoint(self):
        shares = covid_shares(1000, 500, 100)
        assert shares[1] == pytest.approx(0.15, abs=1e-15)
        assert shares[0] == pytest.approx(0.85, abs=1e-15)

    def test_census(self):
        assert covid_shares(1000, 1000, 137)[1] == pytest.approx(0.137, abs=1e-15)

    def test_no_symptomatic_tested(self):
        assert covid_shares(1000, 400, 0)[1] == 0.0

    def test_domain_violations(self):
        with pytest.raises(InvalidSpec):
            covid_shares(100, 0, 0)
        with pytest.raises(InvalidSpec):
            covid_shares(100, 101, 10)
        with pytest.raises(InvalidSpec):
            covid_shares(100, 50, 60)

    def test_matches_interval_midpoint_fuzzed(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            n = int(rng.integers(2, 500))
            n_t = int(rng.integers(1, n + 1))
            n_t1 = int(rng.integers(0, n_t + 1))
            shares = covid_shares(n, n_t, n_t1)
            midpoint = 0.5 * (n_t1 / n + n_t1 / n_t)
            assert shares[1] == pytest.approx(midpoint, abs=1e-12)
            exact = mean_shares(covid_slab(n, n_t, n_t1))
            assert exact == pytest.approx(shares, abs=1e-12)
