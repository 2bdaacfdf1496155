"""The biased estimate, and every estimate of one count table.

The biased estimate is the raw positive rate among tested individuals.  The
corrected estimate reweights the per-class positive rates by the class
shares that the assumed missingness mechanism picks
(:meth:`prevbias.model.Mechanism.shares`): observed sample fractions (mcar,
where no reweighting is needed), known shares (mar), or the maximum-entropy
mean over bounded shares (maxent).  :func:`build_bundle` does this for any
mechanism, as ``prevbias estimate`` does: it reads the shares once, and the
plug-in stage :func:`prevbias.asymptotics._plugin_sums`, which the study
engine runs on columns, decides whether the table is kept, gives the
corrected estimate and its variance components, and says where the
information estimate ``log(p_hat / p0_hat)`` is defined."""

from __future__ import annotations

import math

from .asymptotics import VarianceEstimates, _choose, _plugin_sums
from .errors import EmptySample, EmptyStratum
from .model import MCAR, Mechanism
from .sampler import TestingOutcome


def p_hat(outcome: TestingOutcome) -> float:
    """Biased prevalence estimate: positives over tested, ``N_T.1 / N_T``."""
    n_t = outcome.n_t
    if n_t == 0:
        raise EmptySample("cannot estimate a prevalence from zero tested individuals")
    return outcome.n_t1 / n_t


class EstimateBundle:
    """All point estimates for one outcome under one mechanism.

    ``i_c_hat`` is exactly ``-i_t_hat`` by construction; both are NaN when a
    zero estimate or an overflowing ratio makes the logarithm undefined
    (recorded in ``warnings``).
    ``variances`` holds the plug-in V1..V4 at the estimated quantities.
    """

    __slots__ = (
        "p_hat", "p0_hat", "rho_hat", "p0s_hat", "pi_hat", "i_t_hat", "i_c_hat", "variances", "warnings",
    )

    def __init__(self, p_hat, p0_hat, rho_hat, p0s_hat, pi_hat, i_t_hat, i_c_hat, variances, warnings=()):
        self.p_hat, self.p0_hat, self.rho_hat, self.p0s_hat = p_hat, p0_hat, rho_hat, p0s_hat
        self.pi_hat, self.i_t_hat, self.i_c_hat = pi_hat, i_t_hat, i_c_hat
        self.variances, self.warnings = variances, warnings


def build_bundle(outcome: TestingOutcome, mechanism: Mechanism) -> EstimateBundle:
    """Run the full estimation pipeline for one outcome: the biased estimate,
    the corrected one weighted by the mechanism's share vector
    (:meth:`Mechanism.shares`), which under mcar is the biased estimate, the
    information estimate ``log(p_hat / p0_hat)`` and the plug-in variances,
    all from one call of the plug-in stage
    :func:`prevbias.asymptotics._plugin_sums`, which decides which tables are
    kept and where the information is defined.  A positively weighted class
    without tested individuals raises :class:`EmptyStratum`.
    """
    p_h = p_hat(outcome)
    n, n_ts = outcome.n, outcome.n_ts
    rho_hat = mechanism.shares(n, n_ts)
    positives = [row[1] for row in outcome.counts]
    kept, untested, p0_h, ratio, defined, v, degenerate = _plugin_sums(
        n, outcome.n_t, n_ts, positives, rho_hat, p_h, mechanism.kind == MCAR, _choose
    )
    if not kept:
        raise EmptyStratum([s for s, flag in enumerate(untested) if flag])
    i_t, warnings = math.nan, ()
    if defined:
        i_t = math.log(ratio)
    elif ratio == math.inf:
        warnings = (f"active information undefined: p_hat / p0_hat = {p_h!r} / {p0_h!r} overflows",)
    else:
        warnings = ("active information undefined: a prevalence estimate is zero",)
    return EstimateBundle(
        p_hat=p_h,
        p0_hat=p0_h,
        rho_hat=rho_hat,
        p0s_hat=outcome.p0s_hat,
        pi_hat=outcome.n_t / n,
        i_t_hat=i_t,
        i_c_hat=-i_t,
        variances=VarianceEstimates(*v, degenerate=degenerate),
        warnings=warnings,
    )
