"""Prevalence estimators and active-information estimates from realised counts.

The biased estimate is the raw positive rate among tested individuals.  The
corrected estimates reweight the per-class positive rates by an estimate of
the class shares, which the assumed missingness mechanism picks
(:meth:`prevbias.model.Mechanism.shares`): observed sample fractions (mcar,
where no reweighting is needed), known shares (mar), or the maximum-entropy
mean over bounded shares (maxent).  All corrected estimators share
:func:`share_weighted_p0`, so mechanisms that agree on the share vector agree
on the estimate bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DivisionByZeroWeight,
    EmptySample,
    EmptyStratum,
    InvalidSpec,
    MechanismMismatch,
    UndefinedActiveInfo,
)
from .maxent import SimplexSlab, ordered_sum
from .model import MAXENT, MCAR, Mechanism, PopulationSpec, _floats, population_prevalence
from .sampler import TestingOutcome


def p_hat(outcome: TestingOutcome) -> float:
    """Biased prevalence estimate: positives over tested, ``N_T.1 / N_T``."""
    n_t = outcome.n_t
    if n_t == 0:
        raise EmptySample("cannot estimate a prevalence from zero tested individuals")
    return outcome.n_t1 / n_t


def p0_hat_general(outcome: TestingOutcome, pi_hat_si) -> float:
    """Inverse-probability-weighted correction with per-cell weights.

    ``sum_s N_Ts1 / pi_hat_s1  /  sum_{s,i} N_Tsi / pi_hat_si``.  Cells with a
    zero count contribute nothing and their weight may be arbitrary; a zero
    weight on a nonzero count is an error.
    """
    try:
        pi_hat = [tuple(map(float, row)) for row in pi_hat_si]
    except (TypeError, ValueError):
        pi_hat = []
    if [len(row) for row in pi_hat] != [2] * outcome.s:
        raise InvalidSpec("pi_hat must hold one (healthy, infected) pair per symptom class")
    if outcome.n_t == 0:
        raise EmptySample("cannot correct an empty sample")
    numerator = 0.0
    denominator = 0.0
    for s in range(outcome.s):
        for i in range(2):
            count = outcome.counts[s][i]
            if count == 0:
                continue
            if not pi_hat[s][i] > 0.0:
                raise DivisionByZeroWeight(
                    f"stratum (s={s}, i={i}) has {count} tested individuals but "
                    f"weight {pi_hat[s][i]!r}"
                )
            term = count / pi_hat[s][i]
            denominator += term
            if i == 1:
                numerator += term
    return numerator / denominator


def share_weighted_p0(outcome: TestingOutcome, shares) -> float:
    """Share-weighted average of per-class positive rates,
    ``sum_s shares_s * (N_Ts1 / N_Ts)``.

    This is the common corrected-estimator kernel; mar and maxent only differ
    in where ``shares`` comes from.  Classes with zero weight are skipped, a
    positively weighted class without tested individuals is an error.
    """
    w = _floats(shares, outcome.s, "shares")
    if any(x < 0.0 for x in w):
        raise InvalidSpec("shares must be nonnegative")
    n_ts = outcome.n_ts
    missing = [s for s in range(outcome.s) if w[s] > 0.0 and n_ts[s] == 0]
    if missing:
        raise EmptyStratum(missing)
    return ordered_sum(w[s] * (outcome.counts[s][1] / n_ts[s]) for s in range(outcome.s) if w[s] > 0.0)


def p0_hat_mar(outcome: TestingOutcome, rho_s) -> float:
    """Corrected estimate with known class shares (stratified positive rate);
    the shares are read and checked as :meth:`Mechanism.mar` reads them."""
    return share_weighted_p0(outcome, Mechanism.mar(rho_s).rho_s)


def p0_hat_maxent(outcome: TestingOutcome, slab: SimplexSlab | None = None) -> float:
    """Corrected estimate with bounded unknown shares.

    With ``slab=None`` the two-class convenience-sampling bounds are derived
    from the counts themselves and the closed-form mean share is used.  With
    an explicit slab the mean share is :func:`prevbias.maxent.mean_shares`
    (a degenerate slab reproduces the known-shares estimator).
    """
    shares = Mechanism(kind=MAXENT, slab=slab).shares(outcome.n, outcome.n_ts)
    return share_weighted_p0(outcome, shares)


def active_info_estimates(p_hat_value: float, p0_hat_value: float) -> tuple[float, float]:
    """Estimated testing-bias information ``log(p_hat / p0_hat)`` and its
    correction counterpart (the exact negative)."""
    if not p_hat_value > 0.0 or not p0_hat_value > 0.0:
        raise UndefinedActiveInfo(
            f"log(p_hat/p0_hat) undefined for p_hat={p_hat_value!r}, p0_hat={p0_hat_value!r}"
        )
    i_t = math.log(p_hat_value / p0_hat_value)
    return i_t, -i_t


def conditional_targets(spec: PopulationSpec, outcome: TestingOutcome) -> tuple[float, float]:
    """Conditional prevalence and information targets given the realised
    per-class tested counts.

    ``p_bar = sum_s (N_Ts / N_T) p0s`` uses the true within-class prevalences,
    so it is the conditional expectation of the biased estimate given how many
    individuals of each class were tested.
    """
    if not spec.is_mar:
        raise MechanismMismatch("conditional targets require pi[s, i] = pi_s")
    n_t = outcome.n_t
    if n_t == 0:
        raise EmptySample("no tested individuals")
    p0s = spec.p0s
    p_bar = 0.0
    for s, n_ts in enumerate(outcome.n_ts):
        if n_ts:
            p_bar += (n_ts / n_t) * p0s[s]
    p0 = population_prevalence(spec)
    if not p_bar > 0.0 or not p0 > 0.0:
        raise UndefinedActiveInfo(f"log(p_bar/p0) undefined for p_bar={p_bar!r}, p0={p0!r}")
    return float(p_bar), math.log(p_bar / p0)


@dataclass(frozen=True, eq=False)
class EstimateBundle:
    """All point estimates for one outcome under one mechanism.

    ``i_c_hat`` is exactly ``-i_t_hat`` by construction; both are NaN when a
    zero estimate makes the logarithm undefined (recorded in ``warnings``).
    """

    p_hat: float
    p0_hat: float
    rho_hat: tuple[float, ...]
    p0s_hat: tuple[float, ...]
    pi_hat: float
    i_t_hat: float
    i_c_hat: float
    mechanism: Mechanism
    warnings: tuple[str, ...] = field(default=())


def build_bundle(outcome: TestingOutcome, mechanism: Mechanism) -> EstimateBundle:
    """Run the full estimation pipeline for one outcome: the biased estimate,
    and the corrected one weighted by the mechanism's share vector
    (:meth:`Mechanism.shares`), which under mcar is the biased estimate.
    """
    warnings: list[str] = []
    p_h = p_hat(outcome)
    rho_hat = mechanism.shares(outcome.n, outcome.n_ts)
    p0_h = p_h if mechanism.kind == MCAR else share_weighted_p0(outcome, rho_hat)

    try:
        i_t, i_c = active_info_estimates(p_h, p0_h)
    except UndefinedActiveInfo:
        i_t = i_c = math.nan
        warnings.append("active information undefined: a prevalence estimate is zero")

    return EstimateBundle(
        p_hat=p_h,
        p0_hat=p0_h,
        rho_hat=rho_hat,
        p0s_hat=outcome.p0s_hat,
        pi_hat=outcome.n_t / outcome.n,
        i_t_hat=i_t,
        i_c_hat=i_c,
        mechanism=mechanism,
        warnings=tuple(warnings),
    )
