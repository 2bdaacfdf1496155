"""The exact finite-N law of the study engine, `conftest.exact_law`.

It enumerates every count table a population can give, weights each by its
product-binomial probability and runs them through `replicate_columns` in
chunks, so coverage at small N is exact and free of seeds.

At N <= 30 it must agree with `enumerate_outcomes` run through the one-shot
path (`build_bundle` and the interval kernels on floats), table by table:

* the same tables in the same order;
* the same probabilities, bit for bit, with a total of 1;
* the same P(kept), moments and coverages.

On the bundled `mar` shape it pins the exact coverage at N = 20, 100 and
200, given a kept table.  `ci_p0` covers p0 with probability 0.206, 0.403
and 0.644, and the information interval covers log(p / p0) with 0.63, 0.55
and 0.66: far below the nominal 0.95.  Acceptance check c4 expects
undercoverage at small N from seeded replicates; these are its exact values.

On the bundled `mcar` shape (pi = 0.6, p0 = 0.2) `ci_p0` is `ci_p`, built
from the standard error of `p_hat`, and covers p0 with probability 0.9505 at
N = 100 and 0.9512 at N = 200.  Built from sqrt(V3 / N), the standard error
given the per-class tested counts, it covered 0.8345 and 0.8410.
"""

import math

import numpy as np
import pytest

from prevbias import (
    EmptySample,
    EmptyStratum,
    Mechanism,
    NegativeVarianceCombination,
    PopulationSpec,
    build_bundle,
    corrected_prevalence_limit,
    enumerate_outcomes,
    population_prevalence,
)
from prevbias import testing_prevalence as prevalence_among_tested

from conftest import (
    BASE_RHO,
    EXACT_LAW_SUMS,
    PI_MAR,
    PI_MCAR,
    PI_MNAR,
    exact_count_tables,
    exact_law,
    information_interval,
    prevalence_interval,
)

MAR = Mechanism.mar(("0.8", "0.2"))
SMALL = {
    "mcar_n20": (PopulationSpec(20, BASE_RHO, PI_MCAR), Mechanism.mcar()),
    "mar_n20": (PopulationSpec(20, BASE_RHO, PI_MAR), MAR),
    "mnar_n20": (PopulationSpec(20, BASE_RHO, PI_MNAR), MAR),  # p_bar0 != p0
    "mar_s3_n12": (
        PopulationSpec(12, [["1/4", "1/12"], ["1/6", "1/6"], ["1/12", "1/4"]], [[x, x] for x in (0.3, 0.6, 0.9)]),
        Mechanism.mar(["1/3", "1/3", "1/3"]),
    ),
}


def _one_shot_law(spec, mechanism, alpha):
    """What `exact_law` returns, from `enumerate_outcomes` and the one-shot path."""
    mcar = mechanism.kind == "mcar"
    p0 = population_prevalence(spec)
    p_bar0 = corrected_prevalence_limit(spec, None if mcar else mechanism.rho_s)
    i_true = math.log(prevalence_among_tested(spec) / p0)
    sums = dict.fromkeys(EXACT_LAW_SUMS, 0.0)
    for outcome, prob in enumerate_outcomes(spec):
        sums["total"] += prob
        try:
            bundle = build_bundle(outcome, mechanism)
        except (EmptySample, EmptyStratum):
            continue
        p_h, p0_h, v = bundle.p_hat, bundle.p0_hat, bundle.variances
        sums["kept"] += prob
        sums["p0_hat"] += prob * p0_h
        sums["p0_hat_sq"] += prob * p0_h * p0_h
        _, lo, hi, _ = prevalence_interval(p0_h, v, spec.n, mcar, alpha)  # NaN on the boundary
        sums["cover_p0"] += prob * (lo <= p0 <= hi)
        sums["cover_p_bar0"] += prob * (lo <= p_bar0 <= hi)
        try:
            _, lo, hi, _ = information_interval(bundle.i_t_hat, p_h, p0_h, v, spec.n, mcar, alpha)
            sums["cover_i_t"] += prob * (lo <= i_true <= hi)
        except NegativeVarianceCombination:
            pass
    kept = sums["kept"]
    mean = sums["p0_hat"] / kept
    return {
        "total": sums["total"],
        "kept": kept,
        "mean_p0_hat": mean,
        "var_p0_hat": sums["p0_hat_sq"] / kept - mean * mean,
        **{key: sums[key] / kept for key in ("cover_p0", "cover_p_bar0", "cover_i_t")},
    }


@pytest.mark.parametrize("name", SMALL)
def test_small_populations_equal_enumerate_outcomes(name):
    spec, mechanism = SMALL[name]
    outcomes = enumerate_outcomes(spec)
    chunks = list(exact_count_tables(spec, chunk=100))
    counts = np.concatenate([c for c, _ in chunks])
    probs = np.concatenate([p for _, p in chunks])
    np.testing.assert_array_equal(counts, np.array([o.counts for o, _ in outcomes]))
    np.testing.assert_array_equal(probs.view(np.uint64), np.array([p for _, p in outcomes]).view(np.uint64))
    law = exact_law(spec, mechanism, alpha=0.05)
    assert law["total"] == pytest.approx(1.0, abs=1e-14)
    assert law == pytest.approx(_one_shot_law(spec, mechanism, alpha=0.05), rel=1e-12, abs=1e-15)
    if name == "mnar_n20":
        assert law["cover_p_bar0"] != law["cover_p0"]


@pytest.mark.parametrize(
    "n, kept, cover_p0, cover_i_t",
    [(20, 0.8146, 0.2064, 0.6274), (100, 0.9998, 0.4029, 0.5474), (200, 1.0, 0.6436, 0.6552)],
)
def test_bundled_mar_shape_undercovers_exactly(n, kept, cover_p0, cover_i_t):
    law = exact_law(PopulationSpec(n, BASE_RHO, PI_MAR), MAR, alpha=0.05)
    assert law["total"] == pytest.approx(1.0, abs=1e-12)
    assert law["kept"] == pytest.approx(kept, abs=1e-4)
    assert law["cover_p0"] == pytest.approx(cover_p0, abs=1e-4)
    assert law["cover_p_bar0"] == law["cover_p0"]  # known shares: p_bar0 = p0
    assert law["cover_i_t"] == pytest.approx(cover_i_t, abs=1e-4)
    assert law["mean_p0_hat"] == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("n, cover_p0", [(100, 0.9505), (200, 0.9512)])
def test_bundled_mcar_shape_covers_at_nominal_exactly(n, cover_p0):
    law = exact_law(PopulationSpec(n, BASE_RHO, PI_MCAR), Mechanism.mcar(), alpha=0.05)
    assert law["total"] == pytest.approx(1.0, abs=1e-12)
    assert law["kept"] == pytest.approx(1.0, abs=1e-12)
    assert law["cover_p0"] == pytest.approx(cover_p0, abs=1e-4)
    assert law["cover_p_bar0"] == law["cover_p0"]  # uniform testing: p_bar0 = p0
    assert law["mean_p0_hat"] == pytest.approx(0.2, abs=1e-12)
