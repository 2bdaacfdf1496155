"""Prevalence estimators and active-information estimates from realised counts.

The biased estimate is the raw positive rate among tested individuals.  The
corrected estimate reweights the per-class positive rates by the class
shares that the assumed missingness mechanism picks
(:meth:`prevbias.model.Mechanism.shares`): observed sample fractions (mcar,
where no reweighting is needed), known shares (mar), or the maximum-entropy
mean over bounded shares (maxent).  :func:`build_bundle` does this for any
mechanism, as ``prevbias estimate`` does, and :func:`p0_hat_mar` is the
known-share shortcut.  Both weight through :func:`share_weighted_p0`, so
mechanisms that agree on the share vector agree on the estimate bit for bit."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EmptySample, InvalidSpec, UndefinedActiveInfo
from .asymptotics import _table_sums
from .model import MCAR, Mechanism, _floats
from .sampler import TestingOutcome


def p_hat(outcome: TestingOutcome) -> float:
    """Biased prevalence estimate: positives over tested, ``N_T.1 / N_T``."""
    n_t = outcome.n_t
    if n_t == 0:
        raise EmptySample("cannot estimate a prevalence from zero tested individuals")
    return outcome.n_t1 / n_t


def share_weighted_p0(outcome: TestingOutcome, shares) -> float:
    """Share-weighted average of per-class positive rates,
    ``sum_s shares_s * (N_Ts1 / N_Ts)``.

    This is the common corrected estimator; mar and maxent only differ in
    where ``shares`` comes from.  Zero-weight classes are skipped (all-zero
    shares give 0); a weighted class without tested individuals is an error.
    """
    w = _floats(shares, outcome.s, "shares")
    if not all(0.0 <= x < math.inf for x in w):
        raise InvalidSpec("shares must be finite and nonnegative")
    if not any(w):
        return 0.0
    # p0 takes no pi; 1 / share keeps each testing mass near 1, away from 0
    return _table_sums(outcome, w, [1.0 / x if x else 1.0 for x in w])[0][0]


def p0_hat_mar(outcome: TestingOutcome, rho_s) -> float:
    """Corrected estimate with known class shares (stratified positive rate);
    the shares are read and checked as :meth:`Mechanism.mar` reads them."""
    return share_weighted_p0(outcome, Mechanism.mar(rho_s).rho_s)


def active_info_estimates(p_hat_value: float, p0_hat_value: float) -> tuple[float, float]:
    """Estimated testing-bias information ``log(p_hat / p0_hat)`` and its
    correction counterpart (the exact negative)."""
    if not p_hat_value > 0.0 or not p0_hat_value > 0.0:
        raise UndefinedActiveInfo(
            f"log(p_hat/p0_hat) undefined for p_hat={p_hat_value!r}, p0_hat={p0_hat_value!r}"
        )
    i_t = math.log(p_hat_value / p0_hat_value)
    return i_t, -i_t


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
        warnings=tuple(warnings),
    )
