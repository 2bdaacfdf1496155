"""Standard errors and confidence intervals from the normal limits.

At population size ``N`` the estimator errors scale like ``N^{-1/2}`` with
variances built from the components ``V1..V4``:

* biased estimate:     ``sigma_p^2   = (V1 + V2) / N``
* corrected estimate:  ``sigma_p0^2  = V3 / N``, or ``sigma_p^2`` under mcar,
  where the corrected estimate is the biased one
* information:         ``sigma_IT^2  = ((V1 + V2)/p^2 + V3/pbar0^2
  - 2 V4/(p*pbar0)) / N``, or 0 under mcar; with ``V2 = 0`` it is the
  standard error given the per-class tested counts, which is never larger.

Two kernels turn them into intervals, :func:`_prevalence_interval` and
:func:`_information_interval`.  Like the plug-in stage :func:`_plugin_sums`,
each runs on Python floats for ``prevbias estimate`` and on numpy columns for
the study engine with the same bits.  Prevalence intervals are built on the
log-odds scale and transformed back, which keeps their endpoints inside
(0, 1).  The information interval is a plain symmetric normal interval.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from statistics import NormalDist

from .errors import InvalidSpec, NegativeVarianceCombination
from .maxent import ordered_sum

_CLIP_TOL = 1e-9
_NEGATIVE_CAUSE = "a symptom class was tested beyond N times its share"
_EXTREME_CAUSE = "a share or an estimate is too close to 0 for float arithmetic"
# logit-interval endpoints are clamped strictly inside (0, 1)
_ABOVE_ZERO = math.nextafter(0.0, 1.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)


@lru_cache(maxsize=64)
def normal_quantile(alpha: float) -> float:
    """Two-sided critical value: the ``1 - alpha/2`` standard normal quantile,
    as ``-inv_cdf(alpha/2)`` below alpha = 0.01, where rounding the level
    ``1 - alpha/2`` would cost digits (all of them from alpha = 2^-53 down).
    alpha = 5e-324 is refused: its half rounds to 0."""
    if not 1e-323 <= alpha <= 1.0:
        raise InvalidSpec(f"alpha must lie in [1e-323, 1], got {alpha!r}")
    return NormalDist().inv_cdf(1.0 - alpha / 2.0) if alpha >= 0.01 else -NormalDist().inv_cdf(alpha / 2.0)


VarianceEstimates = namedtuple("VarianceEstimates", "v1 v2 v3 v4 degenerate", defaults=(False,))
VarianceEstimates.__doc__ = """Plug-in values of the variance components, with a degeneracy flag.
``v[0]``..``v[3]`` are ``V1``..``V4``, as in the plain tuples that the
interval kernels and :func:`sigma_it` also take.

``degenerate`` is set when some class positive rate is exactly 0 or 1,
which zeroes its noise contribution; downstream interval coverage then
tends to be optimistic, so callers may want to count such cases.
"""


def _class_sums(w, w_den, pi, rate, mass) -> tuple:
    """``(p0, v1, v2, v3, v4)`` from the limiting weight ``w``, the share
    ``w_den``, the testing probability ``pi``, the positive rate ``rate`` and
    the testing mass ``mass`` of each class (``w * pi`` for the plug-ins of
    :func:`_plugin_sums`, ``rho_s * pi_s`` in
    :func:`prevbias.population.exact_quantities`); an inactive
    class carries ``(0, 1, 1, 0, 0)`` and adds exact zeros.  Entries are
    floats for one table or numpy columns for a batch, with the same bits:
    only ``+ - * /`` and :func:`ordered_sum`, correctly rounded on both (so
    ``d * d``: Python's float ``**`` calls libm ``pow``, which need not be).
    On floats a zero testing mass raises ``ZeroDivisionError``."""
    d = ordered_sum(mass)
    noise = [r * (1.0 - r) for r in rate]
    spread = [m * (1.0 - p) for m, p in zip(mass, pi)]
    odds = [(1.0 - p) / p for p in pi]
    p_tilde0 = ordered_sum(m * r for m, r in zip(mass, rate)) / d
    p0 = ordered_sum(x * r for x, r in zip(w, rate))
    v1 = ordered_sum(s * e for s, e in zip(spread, noise)) / (d * d)
    v2 = ordered_sum(s * ((r - p_tilde0) * (r - p_tilde0)) for s, r in zip(spread, rate)) / (d * d)
    # w * w / w_den as the general formula has it: with w_den = w, need not round to w
    v3 = ordered_sum(x * x / u * o * e for x, u, o, e in zip(w, w_den, odds, noise))
    v4 = ordered_sum(m / d * x / u * o * e for m, x, u, o, e in zip(mass, w, w_den, odds, noise))
    return p0, v1, v2, v3, v4


def _plugin_sums(n, n_t, n_ts, positives, shares, p_hat, mcar, where) -> tuple:
    """``(kept, untested, p0_hat, ratio, defined, v, degenerate)`` of a count
    table, from ``n``, ``n_t``, the biased estimate ``p_hat`` and, per class,
    the tested count, the positives and the share (weight and share alike):
    the one place for the rules both paths share.  ``kept``: the sample is
    not empty and no class of positive share went untested (``untested``
    flags each).  ``p0_hat`` is ``p_hat`` under ``mcar``, else the ``p0`` of
    :func:`_class_sums` (``v`` is its V1..V4) at the testing probabilities
    ``N_T / N`` under ``mcar``, else ``N_Ts / (N * share)``.  ``ratio`` and
    ``defined`` are :func:`_defined_ratio` of ``p_hat`` and ``p0_hat``.  A
    class with a zero share or no tested individual is inactive,
    ``(0, 1, 1, 0, 0)``; ``degenerate`` flags an active class with a rate of
    0 or 1.  A table that is not kept has a NaN ``p0_hat`` and no flag set.
    Python numbers with ``where`` :func:`_choose`, or numpy columns with
    ``np.where``, give the same bits: ``where`` picks each denominator first,
    and one table that is not kept returns before the class sums, so floats
    never divide by zero."""
    columns, untested, degenerate = [], [], False
    for tested, k, u in zip(n_ts, positives, shares):
        on = (u > 0.0) & (tested > 0)
        untested.append((u > 0.0) & (tested == 0))
        w, w_den = where(on, u, 0.0), where(on, u, 1.0)
        pi = where(on, n_t / n if mcar else tested / (n * w_den), 1.0)
        rate = where(on, k, 0) / where(on, tested, 1)
        degenerate = degenerate | (on & ((rate == 0.0) | (rate == 1.0)))
        columns.append((w, w_den, pi, rate, w * pi))
    kept = (n_t > 0) & (sum(untested) == 0)
    if kept is False:
        return kept, untested, math.nan, math.nan, False, (math.nan,) * 4, False
    p0, *v = _class_sums(*zip(*columns))
    p0 = where(kept, p_hat if mcar else p0, math.nan)
    return kept, untested, p0, *_defined_ratio(p_hat, p0, where), v, kept & degenerate


def _defined_ratio(a, b, where) -> tuple:
    """``(ratio, defined)``: ``defined`` means ``a > 0``, ``b > 0`` and
    ``ratio = a / b < inf``, the rule for an information ``log(a / b)``.
    ``ratio`` divides by ``where(positive, b, 1)``, so it is inf only if that
    last rule fails, and floats never divide by zero."""
    positive = (a > 0.0) & (b > 0.0)
    ratio = a / where(positive, b, 1.0)
    return ratio, positive & (ratio < math.inf)


def _choose(condition: bool, a: float, b: float) -> float:
    """``np.where`` on one float."""
    return a if condition else b


def _logit_endpoints(est, half_width, log, exp, where) -> tuple:
    """``logit^{-1}(logit(est) -/+ half_width)`` inside (0, 1) and around
    ``est`` in (0, 1); ``(est, est)`` for a zero half-width.  The same bits on
    floats (``math.log``, ``math.exp``, :func:`_choose`) as on float64 columns
    (those two by ``map``, ``np.where``): the rest is exact or correctly rounded."""
    center = log(est / (1.0 - est))
    lo, hi = center - half_width, center + half_width
    # the logistic function, split by sign so that exp cannot overflow
    z_lo, z_hi = exp(-abs(lo)), exp(-abs(hi))
    lo = where(lo >= 0.0, 1.0, z_lo) / (1.0 + z_lo)
    hi = where(hi >= 0.0, 1.0, z_hi) / (1.0 + z_hi)
    lo = where(lo < _ABOVE_ZERO, _ABOVE_ZERO, lo)  # expit gives 0 or 1 at huge half-widths
    hi = where(hi > _BELOW_ONE, _BELOW_ONE, hi)
    zero = half_width == 0.0
    return where(zero | (est < lo), est, lo), where(zero | (est > hi), est, hi)


def _refuse(bad, value, n, name, sep, negative) -> None:
    """Raise :class:`NegativeVarianceCombination` if ``bad`` flags the
    variance ``name``, ``value``: negative (``negative`` names the kind,
    and the cause is a class tested beyond N times its share), NaN or
    infinite.  On one float the message reads ``{name}{sep}{value!r} is
    ...``; on a column it counts the flagged replicates and names the
    first."""
    if isinstance(bad, bool):
        if not bad:
            return
        head, at, tail = f"{name}{sep}{value!r}", value, ""
    else:
        if not bad.any():
            return
        first = int(bad.argmax())
        head, at = name, value[first]
        tail = f" in {int(bad.sum())} of {bad.size} replicates at N = {n} (first: replicate {first})"
    kind, cause = (negative, _NEGATIVE_CAUSE) if at < 0.0 else ("not finite", _EXTREME_CAUSE)
    raise NegativeVarianceCombination(f"{head} is {kind}{tail}; {cause}")


def _prevalence_interval(est, v, n, mcar, lam, log, exp, sqrt, where) -> tuple:
    """``(sigma, lo, hi, boundary)`` of the prevalence estimate ``est``, from
    the plug-in ``v`` = V1..V4 at population size ``n`` and the critical
    value ``lam``.

    The variance is ``V3 / N``, or ``(V1 + V2) / N`` under ``mcar``, where
    the correction is the identity: the biased estimate takes ``mcar`` under
    every mechanism.  One that is negative, NaN or infinite raises
    :class:`NegativeVarianceCombination`.  The interval is
    ``logit^{-1}(logit(est) -/+ lam * sigma / (est (1 - est)))``
    (:func:`_logit_endpoints`); an estimate of 0 or 1 sets ``boundary`` and
    has NaN endpoints.  A NaN estimate marks a discarded replicate: it is not
    checked and gives NaN.  Floats (``math.log``, ``math.exp``,
    ``math.sqrt``, :func:`_choose`) give the bits that float64 columns give
    (those two by ``map``, ``np.sqrt``, ``np.where``)."""
    name = "(V1 + V2) / N" if mcar else "V3 / N"
    var = (v[0] + v[1] if mcar else v[2]) / n
    kept = est == est
    _refuse(kept & where(var < math.inf, var < 0.0, True), var, n, name, " = ", "negative")
    sigma = sqrt(where(kept, var, math.nan))
    interior = (0.0 < est) & (est < 1.0)
    e = where(interior, est, 0.5)
    lo, hi = _logit_endpoints(e, lam * sigma / (e * (1.0 - e)), log, exp, where)
    return sigma, where(interior, lo, math.nan), where(interior, hi, math.nan), (est <= 0.0) | (est >= 1.0)


def _information_interval(i_hat, p, p0, v, n, mcar, lam, sqrt, where) -> tuple:
    """``(sigma, lo, hi, undefined)`` of the information estimate ``i_hat``
    of ``log(p / p0)``, from the estimates ``p`` and ``p0``, the plug-in
    ``v`` = V1..V4 at population size ``n`` and the critical value ``lam``.

    ``sigma^2 = ((V1 + V2)/p^2 + V3/p0^2 - 2 V4/(p p0)) / N``, with a bracket
    down to ``-1e-9`` clipped to 0; below that, NaN or infinite (a ``p`` or
    ``p0`` whose square underflows included) it raises
    :class:`NegativeVarianceCombination`.  Under ``mcar`` ``p0`` is ``p``,
    so ``I_T`` is 0 by construction and ``sigma`` is 0.  The interval is
    ``i_hat -/+ lam * sigma``.  Unless both estimates lie in (0, 1) it is
    ``undefined``, with NaN ``sigma`` and endpoints, and not checked.
    Floats (``math.sqrt``, :func:`_choose`) give the bits that float64
    columns give (``np.sqrt``, ``np.where``)."""
    defined = (0.0 < p) & (p < 1.0) & (0.0 < p0) & (p0 < 1.0)
    if mcar:
        bracket = 0.0
    else:
        try:
            bracket = (v[0] + v[1]) / (p * p) + v[2] / (p0 * p0) - 2.0 * v[3] / (p * p0)
        except ZeroDivisionError:  # floats only: columns give inf or NaN
            bracket = math.inf
    bad = defined & where(bracket < math.inf, bracket < -_CLIP_TOL, True)
    _refuse(bad, bracket, n, "variance combination", " ", "negative beyond tolerance")
    sigma = sqrt(where(defined, where(bracket < 0.0, 0.0, bracket), math.nan) / n)
    return sigma, i_hat - lam * sigma, i_hat + lam * sigma, where(defined, False, True)


def sigma_it(v, p: float, p_bar0: float, n: int) -> float:
    """Standard error of the information estimate at population size ``n``:
    :func:`_information_interval` on floats, from ``v`` = V1..V4 at ``p`` and
    ``p_bar0``; NaN unless both lie in (0, 1).  With ``V2 = 0`` it is the
    standard error given the per-class tested counts, which is never larger."""
    return _information_interval(0.0, p, p_bar0, v, n, False, 0.0, math.sqrt, _choose)[0]
