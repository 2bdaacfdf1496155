"""The batched replicate engine against the scalar estimators, bit for bit.

`replicate_columns` computes every replicate of a counts array at once; the
scalar oracle below runs the one-shot functions of `estimators` and
`asymptotics` on one `TestingOutcome` at a time, as the engine did before it
was batched.  Every per-replicate column must agree to the last bit (NaNs
compare equal) on random count arrays for S = 2..5 and 9 classes, under
mcar, mar and bounded maxent, with empty samples, empty weighted classes,
zero and all positives, class rates of 0 or 1, infection-dependent testing
probabilities, zero-share classes and zero-width intervals mixed in.
"""

import math

import numpy as np
import pytest

from prevbias import (
    BoundaryEstimate,
    EmptySample,
    EmptyStratum,
    InvalidSpec,
    Mechanism,
    NegativeVarianceCombination,
    ci_logit_prevalence,
    mechanism_plugin_inputs,
    p_hat,
    plugin_variances,
    share_weighted_p0,
    sigma_p0,
)
from prevbias.experiments import replicate_columns
from prevbias.sampler import TestingOutcome as Outcome

FLOAT_COLUMNS = ("p_hat", "p0_hat", "sigma_p0", "lo", "hi")
FLAG_COLUMNS = ("ok", "hit", "boundary", "degenerate", "it_defined")
DISCARDED = dict(
    ok=False, p_hat=math.nan, p0_hat=math.nan, sigma_p0=math.nan, lo=math.nan, hi=math.nan,
    hit=False, boundary=False, degenerate=False, it_defined=False,
)
REPS = 240
KINDS = ("mcar", "mar", "maxent")
# alpha = 1 gives zero-width intervals, 1e-20 infinite half-widths (endpoints
# clamped inside (0, 1)), 1 - 2^-52 half-widths of an ulp or so (endpoints
# clamped to the estimate)
ALPHAS = (0.05, 1.0, 1e-20, 1.0 - 2.0**-52, 0.1, 0.05)


def scalar_replicate(counts, n_si, mechanism, p0_true, alpha) -> dict:
    """One replicate through the scalar path; ``ValueError`` propagates."""
    outcome = Outcome(counts=counts, n=int(n_si.sum()), n_si=n_si)
    try:
        p_h = p_hat(outcome)
        p0_h = p_h if mechanism.kind == "mcar" else share_weighted_p0(outcome, mechanism.rho_s)
    except (EmptySample, EmptyStratum):
        return DISCARDED
    pi_hat, rho_hat = mechanism_plugin_inputs(outcome, mechanism)
    v = plugin_variances(outcome, pi_hat, rho_hat)
    s_p0 = sigma_p0(v, outcome.n)
    try:
        ci = ci_logit_prevalence(p0_h, s_p0, alpha)
        lo, hi, hit, boundary = ci.lo, ci.hi, ci.contains(p0_true), False
    except BoundaryEstimate:
        lo = hi = math.nan
        hit, boundary = False, True
    return dict(
        ok=True, p_hat=p_h, p0_hat=p0_h, sigma_p0=s_p0, lo=lo, hi=hi, hit=hit,
        boundary=boundary, degenerate=v.degenerate, it_defined=p_h > 0.0 and p0_h > 0.0,
    )


def _bits(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def _mechanism(kind: str, s_count: int, rng):
    """A mechanism; one class has zero share in about half the cases."""
    if kind == "mcar":
        return Mechanism.mcar()
    zero = rng.integers(s_count) if rng.random() < 0.5 else None
    if kind == "mar":
        w = rng.dirichlet(np.ones(s_count))
        if zero is not None:
            w[zero] = 0.0
        w /= w.sum()
        return Mechanism.mar(w)
    centre = rng.dirichlet(np.ones(s_count))
    lower = np.maximum(centre - rng.uniform(0.0, 0.2, s_count), 0.0)
    upper = np.minimum(centre + rng.uniform(0.0, 0.2, s_count), 1.0)
    if zero is not None:
        lower[zero] = upper[zero] = 0.0
        lower *= 0.5  # keeps sum(lower) <= 1 <= sum(upper) possible
        upper = np.minimum(upper * 2.0, 1.0)
    if upper.sum() < 1.0:
        upper = np.minimum(upper + (1.0 - upper.sum()), 1.0)
    return Mechanism.maxent(lower, upper)


def _counts(s_count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Stratum sizes and REPS count tables with the edge cases planted."""
    n_si = rng.integers(0, 10 ** rng.integers(1, 5), size=(s_count, 2))
    n_si[0, 0] += 1  # a positive population
    pi = rng.uniform(0.0, 1.0, size=(s_count, 2))  # infection-dependent
    pi[rng.random((s_count, 2)) < 0.15] = 1.0
    pi[rng.random((s_count, 2)) < 0.15] = 0.0
    counts = rng.binomial(n_si, pi, size=(REPS, s_count, 2))
    counts[0] = 0  # nobody tested
    for r in range(1, 30):  # empty classes
        counts[r, rng.integers(s_count)] = 0
    counts[30:40, :, 1] = 0  # no positives
    counts[40:50, :, 0] = 0  # only positives
    for r in range(50, 80):  # one class with rate 0 or 1
        counts[r, rng.integers(s_count), rng.integers(2)] = 0
    counts[80:90] = n_si  # everyone tested
    return n_si, counts


@pytest.mark.parametrize("s_count", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("kind", KINDS)
def test_columns_equal_the_scalar_path_bitwise(kind, s_count):
    rng = np.random.default_rng([s_count, KINDS.index(kind)])
    seen = dict.fromkeys(("kept", "discarded", "boundary", "degenerate", "zero_width", "raised"), 0)
    for case in range(6):
        mech = _mechanism(kind, s_count, rng)
        n_si, counts = _counts(s_count, rng)
        alpha = ALPHAS[case]
        p0_true = float(rng.uniform(0.05, 0.5))
        scalar, raised = [], []
        for r in range(REPS):
            try:
                scalar.append((r, scalar_replicate(counts[r], n_si, mech, p0_true, alpha)))
            except ValueError:  # NegativeVarianceCombination: a negative V3
                raised.append(r)
        for r in raised[:3]:
            with pytest.raises(ValueError):
                replicate_columns(counts[r : r + 1], n_si, mech, p0_true, alpha)
        rows = [r for r, _ in scalar]
        cols = replicate_columns(counts[rows], n_si, mech, p0_true, alpha)
        for name in FLOAT_COLUMNS:
            want = [record[name] for _, record in scalar]
            np.testing.assert_array_equal(_bits(getattr(cols, name)), _bits(want), err_msg=name)
        for name in FLAG_COLUMNS:
            want = np.array([record[name] for _, record in scalar], dtype=bool)
            np.testing.assert_array_equal(getattr(cols, name), want, err_msg=name)
        seen["kept"] += int(cols.ok.sum())
        seen["discarded"] += int((~cols.ok).sum())
        seen["boundary"] += int(cols.boundary.sum())
        seen["degenerate"] += int(cols.degenerate.sum())
        seen["zero_width"] += int(np.sum(cols.ok & ~cols.boundary & (cols.lo == cols.hi)))
        seen["raised"] += len(raised)
    for branch in ("kept", "discarded", "boundary", "degenerate", "zero_width"):
        assert seen[branch] > 0, f"no {branch} replicates in {seen}"


def test_counts_outside_their_strata_are_rejected():
    n_si = np.array([[5, 5], [5, 5]])
    for bad in ([[6, 0], [0, 0]], [[-1, 0], [0, 0]]):
        with pytest.raises(InvalidSpec):
            replicate_columns(np.array([bad]), n_si, Mechanism.mcar(), 0.5, 0.05)


def test_negative_v3_raises_like_the_scalar_square_root():
    # class 1 tested beyond its assumed share: pi_hat = 10 / (20 * 0.3) > 1
    n_si = np.array([[10, 0], [5, 5]])
    counts = np.array([[[4, 0], [5, 5]]])
    mech = Mechanism.mar([0.7, 0.3])
    with pytest.raises(ValueError):
        scalar_replicate(counts[0], n_si, mech, 0.25, 0.05)
    with pytest.raises(ValueError):
        replicate_columns(counts, n_si, mech, 0.25, 0.05)


def test_negative_v3_is_a_typed_error_on_both_paths():
    n_si = np.array([[10, 0], [5, 5]])
    counts = np.array([[[4, 0], [5, 5]], [[4, 0], [1, 1]]])  # only the first is negative
    mech = Mechanism.mar([0.7, 0.3])
    with pytest.raises(NegativeVarianceCombination, match="V3 / N"):
        scalar_replicate(counts[0], n_si, mech, 0.25, 0.05)
    expected = r"negative in 1 of 2 replicates at N = 20 \(first: replicate 0\)"
    with pytest.raises(NegativeVarianceCombination, match=expected):
        replicate_columns(counts, n_si, mech, 0.25, 0.05)
    assert replicate_columns(counts[1:], n_si, mech, 0.25, 0.05).ok.tolist() == [True]
