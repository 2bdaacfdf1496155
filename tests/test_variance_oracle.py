"""The float plug-in variances against the numpy oracle they were ported from.

`build_bundle` computes them on Python floats;
`conftest.oracle_plugin_variances` and `conftest.oracle_plugin_inputs` keep
their numpy form.  numpy adds fewer than eight terms left to right from 0.0,
as `prevbias.maxent.ordered_sum` does, so below eight classes the variances,
standard errors and logit intervals must agree to the bit (NaNs compare
equal, and so must the error raised).  From eight terms on numpy adds eight
partial sums pairwise, so the two orders may round differently: there they
must agree within the error bound of the sums, on tables whose class terms
all have one sign (every estimated testing probability at most 1), since
cancelling terms magnify any rounding.  The tables are drawn at random under
mcar, mar and bounded maxent, with empty classes, zero positives and class
rates of 0 or 1 planted.
"""

import math
import sys

import numpy as np
import pytest

from prevbias import (
    Mechanism,
    PrevBiasError,
    TestingOutcome as Outcome,
    build_bundle,
    normal_quantile,
)

from conftest import oracle_plugin_inputs, oracle_plugin_variances, prevalence_interval

TABLES = 60  # per mechanism and class count
ALPHAS = (0.05, 1.0, 1e-20)


def _tables(s_count: int):
    """(outcome, mechanism, alpha) triples for one class count."""
    rng = np.random.default_rng([11, s_count])
    for k in range(3 * TABLES):
        n_si = rng.integers(0, 10 ** rng.integers(1, 5), size=(s_count, 2))
        n_si[0, 0] += 1
        n = int(n_si.sum())
        # the true class shares, or shares that some class is tested beyond
        shares = n_si.sum(axis=1) / n if k % 2 else rng.dirichlet(np.ones(s_count))
        kind = ("mcar", "mar", "maxent")[k % 3]
        if kind == "mcar":
            mech = Mechanism.mcar()
        elif kind == "mar":
            mech = Mechanism.mar(shares)
        else:
            width = rng.uniform(0.0, 0.1, size=s_count)
            mech = Mechanism.maxent(np.maximum(shares - width, 0.0), np.minimum(shares + width, 1.0))
        counts = rng.binomial(n_si, rng.uniform(0.0, 1.0, size=(s_count, 2)))
        plant = k // 3 % 5
        if plant == 1:
            counts[rng.integers(s_count)] = 0  # an empty class
        elif plant == 2:
            counts[:, 1] = 0  # zero positives
        elif plant == 3:
            counts[rng.integers(s_count), rng.integers(2)] = 0  # a class rate of 0 or 1
        elif plant == 4:
            counts[:, 0] = 0  # every tested individual positive
        yield Outcome(counts=counts, n=n), mech, ALPHAS[k % len(ALPHAS)]


def _oracle(outcome, mech, bundle):
    return oracle_plugin_variances(outcome, *oracle_plugin_inputs(outcome, mech))


def _ported(outcome, mech, bundle):
    return bundle.variances


def _evaluate(outcome, mech, alpha, variances):
    """V1..V4, the degeneracy flag, sigma_p, sigma_p0 and the logit intervals
    of p_hat and p0_hat (NaN endpoints on a boundary estimate) as one list of
    floats, or the type of the error raised."""
    try:
        bundle = build_bundle(outcome, mech)
        v = variances(outcome, mech, bundle)
        # sigma_p from V1 + V2, sigma_p0 from V3 under mcar too
        pairs = ((bundle.p_hat, True), (bundle.p0_hat, False))
        intervals = [prevalence_interval(est, v, outcome.n, from_v12, alpha) for est, from_v12 in pairs]
    except PrevBiasError as exc:
        return type(exc)
    values = [v.v1, v.v2, v.v3, v.v4, float(v.degenerate), *(sigma for sigma, *_ in intervals)]
    for _, lo, hi, _ in intervals:
        values += [lo, hi]
    return values


def _both(outcome, mech, alpha):
    oracle = _evaluate(outcome, mech, alpha, _oracle)
    ported = _evaluate(outcome, mech, alpha, _ported)
    return oracle, ported


@pytest.mark.parametrize("s_count", range(1, 8))
def test_below_eight_classes_equal_the_oracle_bitwise(s_count):
    results = {"values": 0, "errors": 0}
    for outcome, mech, alpha in _tables(s_count):
        oracle, ported = _both(outcome, mech, alpha)
        if isinstance(oracle, type):
            assert ported is oracle
            results["errors"] += 1
        else:
            assert [x.hex() for x in ported] == [x.hex() for x in oracle]
            results["values"] += 1
    assert min(results.values()) > 0, results


@pytest.mark.parametrize("s_count", range(8, 11))
def test_eight_classes_and_more_agree_within_the_summation_bound(s_count):
    # Each sum of S terms lies within (S - 1) roundings of its exact value in
    # any order; V1 and V2 also divide by the square of one.  So 3 S units of
    # epsilon bound every relative difference; V2 is measured against V1 + V2,
    # the sum that uses it, and an endpoint moves with the half-width of its
    # interval.  (In 6,000 such tables at S = 8..10 the largest differences
    # were 8, 13, 2 and 5 ulp in V1..V4, 4 ulp in sigma_p, 2 in sigma_p0.)
    tol = 3 * s_count * sys.float_info.epsilon
    compared = 0
    for outcome, mech, alpha in _tables(s_count):
        pi_hat, rho_hat = oracle_plugin_inputs(outcome, mech)
        if any(w > 0.0 and p > 1.0 for p, w in zip(pi_hat, rho_hat)):
            continue
        oracle, ported = _both(outcome, mech, alpha)
        if isinstance(oracle, type):
            assert ported is oracle
            continue
        (v1, v2, v3, v4, flag, *rest), (w1, w2, w3, w4, ported_flag, *ported_rest) = oracle, ported
        assert ported_flag == flag
        for a, b in ((v1, w1), (v1 + v2, w1 + w2), (v3, w3), (v4, w4), *zip(rest[:2], ported_rest[:2])):
            assert math.isclose(a, b, rel_tol=tol, abs_tol=0.0), (a, b)
        assert abs(v2 - w2) <= tol * (v1 + v2)
        bundle = build_bundle(outcome, mech)
        for k, est in enumerate((bundle.p_hat, bundle.p0_hat)):
            half = normal_quantile(alpha) * rest[k] / (est * (1.0 - est)) if 0.0 < est < 1.0 else 0.0
            for a, b in zip(rest[2 + 2 * k : 4 + 2 * k], ported_rest[2 + 2 * k : 4 + 2 * k]):
                same = a == b or (math.isnan(a) and math.isnan(b))
                assert same or math.isclose(a, b, rel_tol=tol * (1.0 + half), abs_tol=0.0), (a, b)
        compared += 1
    assert compared > TABLES
