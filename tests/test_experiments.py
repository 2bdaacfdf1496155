"""Replicate engine: determinism, aggregation conventions, and scaling."""

import math
from dataclasses import astuple
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from prevbias import (
    InvalidSpec,
    Mechanism,
    PopulationSpec,
    ScenarioConfig,
    run_experiment,
)
from prevbias.config import load_scenario
from prevbias.scenarios import (
    coverage_scenario,
    mar_scenario,
    mcar_scenario,
    mnar_scenario,
)

from conftest import MAR_ORACLE, PI_MCAR, oracle_mcar_mse

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestScenarioConfig:
    def test_grid_must_give_integer_sizes_everywhere(self):
        with pytest.raises(InvalidSpec, match="not an integer"):
            ScenarioConfig(
                rho=(("0.75", "0.05"), ("0.05", "0.15")),
                pi=[[0.6, 0.6], [0.6, 0.6]],
                mechanism=Mechanism.mcar(),
                n_grid=(1000, 1010),  # 1010 * 0.05 = 50.5
                replicates=10,
                alpha=0.05,
                seed=1,
                label="bad",
            )

    def test_mechanism_consistency_checked(self):
        with pytest.raises(InvalidSpec):
            mcfg = mar_scenario(n_grid=(1000,), replicates=5)
            ScenarioConfig(
                rho=mcfg.rho,
                pi=mcfg.pi,
                mechanism=Mechanism.mar(("0.5", "0.5")),
                n_grid=(1000,),
                replicates=5,
                alpha=0.05,
                seed=1,
                label="bad",
            )

    @pytest.mark.parametrize("name", ["mcar", "mar", "mnar", "coverage1", "coverage2"])
    def test_bundled_configs_and_presets_fit_their_mechanism_at_every_grid_size(self, name, monkeypatch):
        checked, check = [], Mechanism.check_against

        def recording_check(mechanism, spec):
            checked.append(spec.n)
            return check(mechanism, spec)

        monkeypatch.setattr(Mechanism, "check_against", recording_check)
        preset = {"mcar": mcar_scenario, "mar": mar_scenario, "mnar": mnar_scenario}.get(name)
        preset = preset() if preset else coverage_scenario(int(name[-1]))
        bundled = load_scenario(CONFIG_DIR / f"{name}.json")[0]
        assert checked == [*bundled.n_grid, *preset.n_grid] and len(bundled.n_grid) > 1

    def test_spec_materialisation(self):
        cfg = mar_scenario(n_grid=(1000, 10_000), replicates=5)
        assert cfg.specs[1].n_si.tolist() == [[7500, 500], [500, 1500]]

    def test_float_shares_give_the_sizes_of_the_population_path(self):
        rho = [[0.75, 0.05], [0.05, 0.15]]
        cfg = _config(rho, n_grid=(20, 1000, 10**6))
        for n, spec in zip(cfg.n_grid, cfg.specs):
            assert spec.n_si.tolist() == PopulationSpec(n=n, rho=rho, pi=PI_MCAR).n_si.tolist()

    def test_float_thirds_are_not_exact_shares(self):
        # repr(1/3) is a 16-digit decimal, so these shares do not sum to 1
        rho = [[1 / 3, 1 / 3], [1 / 6, 1 / 6]]
        with pytest.raises(InvalidSpec):
            PopulationSpec(n=6, rho=rho, pi=PI_MCAR)
        with pytest.raises(InvalidSpec):
            _config(rho, n_grid=(6,))


def _config(rho, n_grid):
    return ScenarioConfig(
        rho=rho,
        pi=PI_MCAR,
        mechanism=Mechanism.mcar(),
        n_grid=n_grid,
        replicates=1,
        alpha=0.05,
        seed=1,
        label="shares",
    )


class TestDeterminism:
    def test_same_config_same_report(self):
        cfg = mcar_scenario(n_grid=(1000,), replicates=32, seed=5)
        assert _reports_equal(run_experiment(cfg), run_experiment(cfg))

    def test_different_seed_changes_the_records(self):
        a = run_experiment(mcar_scenario(n_grid=(1000,), replicates=8, seed=1))
        b = run_experiment(mcar_scenario(n_grid=(1000,), replicates=8, seed=2))
        assert not _fans_equal(a, b)
        assert not _reports_equal(a, b)


def _reports_equal(a, b) -> bool:
    rows_equal = len(a.rows) == len(b.rows) and all(
        _nan_equal(astuple(ra), astuple(rb)) for ra, rb in zip(a.rows, b.rows)
    )
    return rows_equal and _fans_equal(a, b)


def _fans_equal(a, b) -> bool:
    return a.fan.keys() == b.fan.keys() and all(_nan_equal(a.fan[k], b.fan[k]) for k in a.fan)


def _nan_equal(xs, ys) -> bool:
    """Equal value by value, with NaN equal to NaN."""
    return len(xs) == len(ys) and all(x == y or (x != x and y != y) for x, y in zip(xs, ys))


class TestActiveInfoAggregation:
    def test_uniform_testing_decomposition_is_exactly_zero(self):
        report = run_experiment(mcar_scenario(n_grid=(1000, 10_000), replicates=100))
        for row in report.rows:
            assert row.i_plus_t == 0.0
            assert row.i_plus_c == 0.0
            assert abs(row.i_plus) < 0.02

    def test_symptom_dependent_testing_matches_the_limit(self):
        report = run_experiment(mar_scenario(n_grid=(100_000,), replicates=200))
        row = report.rows[0]
        assert row.i_plus_t == pytest.approx(math.log(float(F(7, 13)) / 0.2), abs=0.01)
        assert row.i_plus_c == pytest.approx(-row.i_plus_t, abs=1e-15)
        assert abs(row.i_plus) < 0.01

    def test_status_dependent_testing_reports_partial_correction(self):
        report = run_experiment(mnar_scenario(n_grid=(10_000, 100_000), replicates=200))
        for row in report.rows:
            # i_plus_t measured against the true prevalence, residual positive
            assert row.i_plus_t == pytest.approx(0.7464, abs=0.02)
            assert 0.0 < row.i_plus < row.i_plus_t
            assert row.i_plus == pytest.approx(row.i_plus_t + row.i_plus_c, abs=1e-12)


class TestRmseAggregation:
    def test_rmse_decreases_with_population_size(self):
        for cfg in (
            mcar_scenario(n_grid=(1000, 10_000, 100_000), replicates=300),
            mar_scenario(n_grid=(1000, 10_000, 100_000), replicates=300),
        ):
            rows = run_experiment(cfg).rows
            values = [row.rmse_p0 for row in rows]
            assert values[0] > values[1] > values[2]

    def test_known_share_rmse_tracks_the_variance_formula(self):
        rows = run_experiment(mar_scenario(n_grid=(10_000, 100_000), replicates=400)).rows
        v3 = float(MAR_ORACLE["v3"])
        for row in rows:
            assert row.rmse_p0 == pytest.approx(math.sqrt(v3 / row.n), rel=0.25)

    def test_uniform_testing_rmse_tracks_the_biased_estimator_variance(self):
        # mcar needs no correction, so its RMSE is that of the uncorrected estimator
        rows = run_experiment(mcar_scenario(n_grid=(10_000, 100_000), replicates=400)).rows
        for row in rows:
            assert row.rmse_p0 == pytest.approx(math.sqrt(oracle_mcar_mse(row.n, 0.6, 0.2)), rel=0.25)

    def test_bounded_share_scenario_runs_end_to_end(self):
        cfg = ScenarioConfig(
            rho=(("0.75", "0.05"), ("0.05", "0.15")),
            pi=[[0.1, 0.1], [0.9, 0.9]],
            mechanism=Mechanism.maxent([0.7, 0.1], [0.9, 0.3]),
            n_grid=(10_000,),
            replicates=100,
            alpha=0.05,
            seed=11,
            label="bounded",
        )
        row = run_experiment(cfg).rows[0]
        # the integrated shares centre on (0.8, 0.2), so the corrected
        # estimate lands near the truth
        assert row.discarded == 0
        assert row.mean_p0_hat == pytest.approx(0.2, abs=0.02)

    def test_no_discards_in_base_scenarios(self):
        for cfg in (
            mcar_scenario(n_grid=(1000,), replicates=300),
            mar_scenario(n_grid=(1000,), replicates=300),
            mnar_scenario(n_grid=(1000,), replicates=300),
        ):
            rows = run_experiment(cfg).rows
            assert rows[0].discarded == 0


class TestCoverage:
    def test_moderate_prevalence_scenario_reaches_nominal_coverage(self):
        cfg = coverage_scenario(2, n_grid=(100_000,), replicates=300)
        row = run_experiment(cfg).rows[0]
        assert row.coverage == pytest.approx(0.95, abs=0.04)

    def test_small_population_undercovers(self):
        cfg = coverage_scenario(1, n_grid=(1000, 100_000), replicates=300)
        rows = run_experiment(cfg).rows
        assert rows[0].coverage < rows[1].coverage


class TestCiFan:
    def test_cardinality_and_consistency_with_coverage(self):
        cfg = coverage_scenario(2, n_grid=(1000, 10_000), replicates=150)
        fan = run_experiment(cfg).fan
        assert len(fan["n"]) == 300
        report = run_experiment(cfg)
        for row in report.rows:
            hits = [hit for n, hit in zip(fan["n"], fan["hit"]) if n == row.n]
            assert len(hits) == 150
            assert np.mean(hits) == pytest.approx(row.coverage, abs=1e-12)

    def test_width_shrinks_like_root_n(self):
        cfg = mar_scenario(n_grid=(10_000, 1_000_000), replicates=120)
        fan = run_experiment(cfg).fan
        widths = {}
        for n in (10_000, 1_000_000):
            widths[n] = np.median([hi - lo for m, lo, hi in zip(fan["n"], fan["lo"], fan["hi"]) if m == n])
        assert widths[1_000_000] / widths[10_000] == pytest.approx(0.1, rel=0.2)
