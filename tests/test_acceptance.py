"""Acceptance suite: one test per release criterion, with a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every stochastic check runs under a fixed seed, so
the suite is deterministic.

Criterion 3's uniform-testing (mcar) column is checked against the exact RMSE
of the documented scenario (testing probability 3/5, prevalence 1/5), which
``conftest.oracle_mcar_mse`` computes from the hypergeometric law of the
positives given the tested count: about sqrt(8 / (75 N)), 0.0103 at N=1e3.
``test_c3_mcar_reference_matches_exact_enumeration`` confirms that oracle
against a full enumeration of outcomes, with no Monte Carlo.  The column
bundled earlier (0.0058 at N=1e3 down to 0.0002 at N=1e6) implied an error
variance of about 0.04/N, which fits a testing probability of about 0.8, not
the stated 0.6; the simulation matched the exact law, so that column was
replaced.  Seed, replicates, grid and the x1.5 tolerance are unchanged.
"""

import math
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from prevbias import (
    PopulationSpec,
    RngStream,
    TestingOutcome as Outcome,
    build_bundle,
    covid_shares,
    draw_outcome,
    enumerate_outcomes,
    exact_quantities,
    Mechanism,
    p_hat,
    run_experiment,
    sigma_it,
)
from prevbias.cli import main as cli_main
from prevbias.scenarios import (
    coverage_scenario,
    mar_scenario,
    mcar_scenario,
    mnar_scenario,
)

from conftest import covid_slab, expected_shares, oracle_mcar_mse

BASE_RHO = (("0.75", "0.05"), ("0.05", "0.15"))
PI_MAR = [[0.1, 0.1], [0.9, 0.9]]

# Stated tolerances and reference values for the acceptance gate.
# The uniform-testing column is the exact RMSE of the documented mcar scenario.
MCAR_PI = F(3, 5)
MCAR_P0 = F(1, 5)
MCAR_RMSE_REFERENCE = {
    n: math.sqrt(oracle_mcar_mse(n, float(MCAR_PI), float(MCAR_P0)))
    for n in (1000, 10_000, 100_000, 1_000_000)
}
MAR_RMSE_REFERENCE = {1000: 0.0218, 10_000: 0.0072, 100_000: 0.0023, 1_000_000: 0.0007}
RMSE_FACTOR = 1.5
MAR_IT_LIMIT = 0.9905
VAR_P_TARGET = 0.365504
VAR_P0_TARGET = 0.426042
VAR_IT_TARGET = 8.63035
VAR_REL_TOL = 0.15
MNAR_FLOOR = 0.0275660  # |limit of corrected estimate - p0| for the mnar parameters
COVERAGE_REFERENCE = {100_000: 0.95, 1_000_000: 0.942}


def _criterion(cid, name, ok, detail=""):
    print(f"ACCEPTANCE {cid} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def mcar_run():
    start = time.perf_counter()
    report = run_experiment(mcar_scenario())
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def mar_run():
    return run_experiment(mar_scenario())


@pytest.fixture(scope="module")
def mnar_run():
    return run_experiment(mnar_scenario())


def test_c1_mcar_active_info_table(mcar_run):
    report, elapsed = mcar_run
    worst = max(abs(row.i_plus_t) for row in report.rows)
    exact_zero_correction = all(row.i_plus_c == 0.0 for row in report.rows)
    ok = worst <= 0.005 and exact_zero_correction and elapsed <= 60.0
    _criterion(
        1,
        "mcar active information",
        ok,
        f"max |I_T| = {worst:.2e}, I_C all exactly 0: {exact_zero_correction}, "
        f"runtime {elapsed:.2f}s (limit 60s)",
    )


def test_c2_mar_active_info_table(mar_run):
    by_n = {row.n: row for row in mar_run.rows}
    it_large = by_n[1_000_000].i_plus_t
    residuals = [abs(by_n[n].i_plus) for n in (100_000, 1_000_000)]
    ok = abs(it_large - MAR_IT_LIMIT) <= 0.01 and max(residuals) <= 0.01
    _criterion(
        2,
        "mar active information",
        ok,
        f"I_T(1e6) = {it_large:.5f} (target {MAR_IT_LIMIT} +- 0.01), "
        f"max |I+| at N>=1e5 = {max(residuals):.5f} (limit 0.01)",
    )


def test_c3_rmse_mar_column(mar_run):
    measured = {row.n: row.rmse_p0 for row in mar_run.rows}
    bad = {
        n: (measured[n], ref)
        for n, ref in MAR_RMSE_REFERENCE.items()
        if not ref / RMSE_FACTOR <= measured[n] <= ref * RMSE_FACTOR
    }
    rounded = {n: round(v, 6) for n, v in measured.items()}
    _criterion(
        3,
        "rmse, known-share column",
        not bad,
        f"measured {rounded} within x{RMSE_FACTOR} of {MAR_RMSE_REFERENCE}"
        + (f"; violations {bad}" if bad else ""),
    )


def test_c3_rmse_mnar_floor(mnar_run):
    by_n = {row.n: row.rmse_p0 for row in mnar_run.rows}
    at_largest = by_n[1_000_000]
    floor_ok = abs(at_largest - MNAR_FLOOR) <= 0.01
    non_vanishing = all(v >= MNAR_FLOOR - 0.01 for v in by_n.values())
    ok = floor_ok and non_vanishing
    _criterion(
        3,
        "rmse, status-dependent floor",
        ok,
        f"rmse(1e6) = {at_largest:.6f} vs floor {MNAR_FLOOR} (+-0.01), "
        f"never below floor-0.01: {non_vanishing}",
    )


def test_c3_rmse_mcar_column(mcar_run):
    """Uniform-testing RMSE within x1.5 of the scenario's exact RMSE at every N."""
    report, _ = mcar_run
    cfg = mcar_scenario()
    documented = (
        cfg.mechanism.kind == "mcar"
        and np.all(cfg.pi == float(MCAR_PI))
        and sum(row[1] for row in cfg.rho) == MCAR_P0
    )
    measured = {row.n: row.rmse_p0 for row in report.rows}
    ratios = {n: measured[n] / ref for n, ref in MCAR_RMSE_REFERENCE.items()}
    bad = [n for n, ratio in ratios.items() if not 1 / RMSE_FACTOR <= ratio <= RMSE_FACTOR]
    _criterion(
        3,
        "rmse, uniform-testing column",
        documented and not bad,
        f"scenario has pi = {MCAR_PI}, p0 = {MCAR_P0}: {documented}; "
        + ", ".join(
            f"N={n}: {measured[n]:.6f} vs {ref:.6f} (ratio {ratios[n]:.3f})"
            for n, ref in MCAR_RMSE_REFERENCE.items()
        )
        + f"; within x{RMSE_FACTOR}"
        + (f"; violations at N in {bad}" if bad else ""),
    )


def test_c3_mcar_reference_matches_exact_enumeration():
    # The oracle behind the c3 reference against E[(p_hat - p0)^2 | N_T > 0]
    # summed over every outcome of the base population, without Monte Carlo.
    n = 20
    spec = PopulationSpec(n, BASE_RHO, np.full((2, 2), 0.6))
    mass = spread = F(0)
    for outcome, prob in enumerate_outcomes(spec):
        if outcome.n_t == 0:
            continue
        mass += F(prob)
        spread += F(prob) * (F(p_hat(outcome)) - MCAR_P0) ** 2
    oracle = oracle_mcar_mse(n, MCAR_PI, MCAR_P0)
    assert isinstance(oracle, F)
    assert abs(spread / mass - oracle) <= 1e-12

    # at N = 1e3 the exact RMSE is within 0.2% of its leading order,
    # sqrt((1 - pi) / pi * p0 (1 - p0) / N) = sqrt(8 / (75 N))
    big = 1000
    leading = math.sqrt(8 / (75 * big))
    assert math.sqrt(oracle_mcar_mse(big, 0.6, 0.2)) == pytest.approx(leading, rel=0.002)


def test_c4_coverage_windows_and_small_n_undercoverage():
    cfg = coverage_scenario(2, n_grid=(100_000, 1_000_000), replicates=500)
    rows = {row.n: row.coverage for row in run_experiment(cfg).rows}
    window_ok = all(abs(rows[n] - ref) <= 0.03 for n, ref in COVERAGE_REFERENCE.items())

    seeds = range(3000, 3020)
    strict = 0
    for seed in seeds:
        increase = True
        for which in (1, 2):
            cfg = coverage_scenario(which, n_grid=(1000, 1_000_000), replicates=500, seed=seed)
            r = run_experiment(cfg).rows
            increase = increase and (r[0].coverage < r[1].coverage)
        strict += increase
    fraction = strict / len(list(seeds))
    ok = window_ok and fraction >= 0.9
    _criterion(
        4,
        "interval coverage",
        ok,
        f"coverage {rows} vs {COVERAGE_REFERENCE} (+-0.03); "
        f"small-N undercoverage in {fraction:.0%} of {len(list(seeds))} seeds (need >=90%)",
    )


def test_c5_exact_conditional_laws():
    spec = PopulationSpec(20, (("0.4", "0.1"), ("0.3", "0.2")), np.full((2, 2), 0.5))
    outcomes = enumerate_outcomes(spec)
    total_prob = sum(p for _, p in outcomes)
    worst = 0.0

    # total positives given total tested: sampling-without-replacement law
    k_infected = int(spec.n_si[:, 1].sum())
    for t in range(0, spec.n + 1):
        mass = {}
        denom = 0.0
        for outcome, prob in outcomes:
            if outcome.n_t == t:
                mass[outcome.n_t1] = mass.get(outcome.n_t1, 0.0) + prob
                denom += prob
        if denom < 1e-12:
            continue
        law = stats.hypergeom(spec.n, k_infected, t)
        for value, prob in mass.items():
            worst = max(worst, abs(prob / denom - law.pmf(value)))

    # per-class positives given per-class tested
    for s in (0, 1):
        n_s, k_s = int(spec.n_si[s].sum()), int(spec.n_si[s, 1])
        for t in range(0, n_s + 1):
            mass = {}
            denom = 0.0
            for outcome, prob in outcomes:
                if int(outcome.n_ts[s]) == t:
                    key = int(outcome.counts[s][1])
                    mass[key] = mass.get(key, 0.0) + prob
                    denom += prob
            if denom < 1e-12:
                continue
            law = stats.hypergeom(n_s, k_s, t)
            for value, prob in mass.items():
                worst = max(worst, abs(prob / denom - law.pmf(value)))

    ok = worst <= 1e-10 and abs(total_prob - 1.0) <= 1e-12
    _criterion(
        5,
        "exact conditional laws",
        ok,
        f"max pointwise gap {worst:.2e} (limit 1e-10), total probability {total_prob!r}",
    )


def test_c6_variance_formulas_empirically():
    n, reps, seed = 100_000, 500, 2026
    spec = PopulationSpec(n, BASE_RHO, PI_MAR)
    mechanism = Mechanism.mar([0.8, 0.2])
    p_hats = np.empty(reps)
    p0_hats = np.empty(reps)
    for r in range(reps):
        out = draw_outcome(spec, RngStream(seed, r))
        p_hats[r] = p_hat(out)
        p0_hats[r] = build_bundle(out, mechanism).p0_hat
    var_p = n * p_hats.var(ddof=1)
    var_p0 = n * p0_hats.var(ddof=1)
    var_it = n * np.log(p_hats / p0_hats).var(ddof=1)
    checks = {
        "Var sqrtN(p_hat - p)": (var_p, VAR_P_TARGET),
        "Var sqrtN(p0_hat - p0)": (var_p0, VAR_P0_TARGET),
        "Var sqrtN I_T": (var_it, VAR_IT_TARGET),
    }
    bad = {k: v for k, v in checks.items() if abs(v[0] - v[1]) > VAR_REL_TOL * v[1]}
    _criterion(
        6,
        "variance formulas",
        not bad,
        ", ".join(f"{k}: {v[0]:.4f} vs {v[1]} (+-15%)" for k, v in checks.items()),
    )


def test_c7_conditional_interval_is_shorter():
    spec = PopulationSpec(1000, BASE_RHO, PI_MAR)
    q = exact_quantities(spec, Mechanism.mar(("0.8", "0.2")))
    unconditional = sigma_it((q.v1, q.v2, q.v3, q.v4), q.p, q.p_bar0, 10**6)
    # given the per-class tested counts, V2 drops out
    conditional = sigma_it((q.v1, 0.0, q.v3, q.v4), q.p, q.p_bar0, 10**6)
    ok = conditional < unconditional
    _criterion(
        7,
        "conditional standard error",
        ok,
        f"conditional {conditional:.6e} < unconditional {unconditional:.6e}",
    )


def test_c8_maxent_consistency():
    rng = np.random.default_rng(88)
    z_values = []
    exact_checks = 0
    for case in range(1000):
        n = int(rng.integers(20, 400))
        if case % 20 == 0:
            n_t, n_t1 = n, int(rng.integers(0, n + 1))  # census: degenerate region
        elif case % 20 == 1:
            n_t, n_t1 = int(rng.integers(1, n + 1)), 0  # no symptomatic tested
        else:
            n_t = int(rng.integers(max(2, n // 5), max(3, (4 * n) // 5)))
            n_t1 = int(rng.integers(max(1, n_t // 10), n_t + 1))
        closed_form = covid_shares(n, n_t, n_t1)
        slab = covid_slab(n, n_t, n_t1)
        est = expected_shares(slab, RngStream(880, case), n_samples=500)
        if slab.lower == slab.upper:
            assert np.allclose(est.estimate, closed_form, atol=1e-12)
            exact_checks += 1
            continue
        z = abs(est.estimate[1] - closed_form[1]) / est.stderr[1]
        z_values.append(z)
    z_values = np.array(z_values)
    within = float(np.mean(z_values <= 3.0))
    mc_ok = within >= 0.99 and z_values.max() <= 5.0

    # degenerate bounds reproduce the known-share estimator bit for bit
    shares = np.array([0.8, 0.2])
    mechanism, known = Mechanism.maxent(shares, shares), Mechanism.mar(shares)
    bitwise = True
    for k in range(200):
        counts = rng.integers(1, 60, size=(2, 2))
        out = Outcome(counts=counts, n=int(counts.sum() * 2))
        bitwise = bitwise and (build_bundle(out, mechanism).p0_hat == build_bundle(out, known).p0_hat)
    ok = mc_ok and bitwise
    _criterion(
        8,
        "maxent consistency",
        ok,
        f"{within:.1%} of {len(z_values)} fuzz cases within 3 MC standard errors "
        f"(max z = {z_values.max():.2f}), {exact_checks} degenerate cases exact, "
        f"degenerate-bounds bitwise equality over 200 outcomes: {bitwise}",
    )


def test_c9_byte_identical_outputs_across_thread_counts(tmp_path):
    import json

    doc = json.loads((Path(__file__).resolve().parent.parent / "configs" / "mar.json").read_text())
    doc.update({"n_grid": [1000, 10_000], "replicates": 200})
    config = tmp_path / "mar_det.json"
    config.write_text(json.dumps(doc))
    digests = []
    for run_id, threads in enumerate((1, 2, 5, 1)):
        out = tmp_path / f"run{run_id}"
        code = cli_main(
            ["run", "--config", str(config), "--out-dir", str(out), "--threads", str(threads)]
        )
        assert code == 0
        blob = b"".join(
            sorted_path.read_bytes() for sorted_path in sorted(out.iterdir())
        )
        digests.append(blob)
    ok = all(d == digests[0] for d in digests)
    _criterion(
        9,
        "determinism across thread counts",
        ok,
        f"{len(digests)} runs with threads (1, 2, 5, 1) produced "
        f"{'identical' if ok else 'DIFFERING'} bytes",
    )
