"""Prevalence estimators and active-information estimates from realised counts.

The biased estimate is the raw positive rate among tested individuals.  The
corrected estimate reweights the per-class positive rates by the class
shares that the assumed missingness mechanism picks
(:meth:`prevbias.model.Mechanism.shares`): observed sample fractions (mcar,
where no reweighting is needed), known shares (mar), or the maximum-entropy
mean over bounded shares (maxent).  :func:`build_bundle` does this for any
mechanism, as ``prevbias estimate`` does: it reads the shares once and takes
the corrected estimate and the plug-in variance components of the table from
the plug-in stage :func:`prevbias.asymptotics._plugin_sums`, which the study
engine runs on columns, so mechanisms that agree on the share vector agree
on the estimate bit for bit."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .asymptotics import VarianceEstimates, _choose, _plugin_sums
from .errors import EmptySample, EmptyStratum, UndefinedActiveInfo
from .model import MCAR, Mechanism
from .sampler import TestingOutcome


def p_hat(outcome: TestingOutcome) -> float:
    """Biased prevalence estimate: positives over tested, ``N_T.1 / N_T``."""
    n_t = outcome.n_t
    if n_t == 0:
        raise EmptySample("cannot estimate a prevalence from zero tested individuals")
    return outcome.n_t1 / n_t


def active_info_estimates(p_hat_value: float, p0_hat_value: float) -> tuple[float, float]:
    """Estimated testing-bias information ``log(p_hat / p0_hat)`` and its
    correction counterpart (the exact negative); :class:`UndefinedActiveInfo`
    when an estimate is zero or their ratio is not a finite number."""
    if not p_hat_value > 0.0 or not p0_hat_value > 0.0:
        raise UndefinedActiveInfo("a prevalence estimate is zero")
    ratio = p_hat_value / p0_hat_value
    if not ratio < math.inf:
        raise UndefinedActiveInfo(f"p_hat / p0_hat = {p_hat_value!r} / {p0_hat_value!r} overflows")
    i_t = math.log(ratio)
    return i_t, -i_t


@dataclass(frozen=True, eq=False)
class EstimateBundle:
    """All point estimates for one outcome under one mechanism.

    ``i_c_hat`` is exactly ``-i_t_hat`` by construction; both are NaN when a
    zero estimate or an overflowing ratio makes the logarithm undefined
    (recorded in ``warnings``).
    ``variances`` holds the plug-in V1..V4 at the estimated quantities.
    """

    p_hat: float
    p0_hat: float
    rho_hat: tuple[float, ...]
    p0s_hat: tuple[float, ...]
    pi_hat: float
    i_t_hat: float
    i_c_hat: float
    variances: VarianceEstimates
    warnings: tuple[str, ...] = field(default=())


def build_bundle(outcome: TestingOutcome, mechanism: Mechanism) -> EstimateBundle:
    """Run the full estimation pipeline for one outcome: the biased estimate,
    the corrected one weighted by the mechanism's share vector
    (:meth:`Mechanism.shares`), which under mcar is the biased estimate, and
    the plug-in variances, all from one call of the plug-in stage
    :func:`prevbias.asymptotics._plugin_sums`.  A positively weighted class
    without tested individuals raises :class:`EmptyStratum`.
    """
    warnings: list[str] = []
    p_h = p_hat(outcome)
    n, n_ts = outcome.n, outcome.n_ts
    rho_hat = mechanism.shares(n, n_ts)
    missing = [s for s, (w, c) in enumerate(zip(rho_hat, n_ts)) if w > 0.0 and c == 0]
    if missing:
        raise EmptyStratum(missing)
    mcar = mechanism.kind == MCAR
    positives = [row[1] for row in outcome.counts]
    p0, *v, degenerate = _plugin_sums(n, outcome.n_t, n_ts, positives, rho_hat, mcar, _choose)
    p0_h = p_h if mcar else p0

    try:
        i_t, i_c = active_info_estimates(p_h, p0_h)
    except UndefinedActiveInfo as exc:
        i_t = i_c = math.nan
        warnings.append(f"active information undefined: {exc}")

    return EstimateBundle(
        p_hat=p_h,
        p0_hat=p0_h,
        rho_hat=rho_hat,
        p0s_hat=outcome.p0s_hat,
        pi_hat=outcome.n_t / n,
        i_t_hat=i_t,
        i_c_hat=i_c,
        variances=VarianceEstimates(*v, degenerate=degenerate),
        warnings=tuple(warnings),
    )
