"""Standard errors and confidence intervals from the normal limits.

At population size ``N`` the estimator errors scale like ``N^{-1/2}`` with
variances built from the components ``V1..V4``:

* biased estimate:     ``sigma_p^2   = (V1 + V2) / N``
* corrected estimate:  ``sigma_p0^2  = V3 / N``
* information:         ``sigma_IT^2  = ((V1 + V2)/p^2 + V3/pbar0^2
  - 2 V4/(p*pbar0)) / N``; conditioning on the per-class tested counts drops
  the ``V2`` term and therefore always shortens the interval.

Prevalence intervals are built on the log-odds scale and transformed back,
which keeps their endpoints inside (0, 1).  The information interval is a
plain symmetric normal interval.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from statistics import NormalDist

from .errors import BoundaryEstimate, InvalidSpec, NegativeVarianceCombination
from .maxent import ordered_sum

_CLIP_TOL = 1e-9
_NEGATIVE_CAUSE = "a symptom class was tested beyond N times its share"
_EXTREME_CAUSE = "a share or an estimate is too close to 0 for float arithmetic"
# logit-interval endpoints are clamped strictly inside (0, 1)
_ABOVE_ZERO = math.nextafter(0.0, 1.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)


@lru_cache(maxsize=64)
def normal_quantile(alpha: float) -> float:
    """Two-sided critical value: the ``1 - alpha/2`` standard normal quantile."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidSpec(f"alpha must lie in (0, 1], got {alpha!r}")
    # alpha <= 2^-53 rounds 1 - alpha/2 to 1, whose quantile is infinite
    return NormalDist().inv_cdf(1.0 - alpha / 2.0) if alpha > 2.0**-53 else math.inf


class ConfidenceInterval:
    """Interval endpoints ``lo <= hi``; equal to another interval with the
    same endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if lo > hi:
            raise InvalidSpec(f"interval endpoints out of order: ({lo!r}, {hi!r})")
        self.lo, self.hi = lo, hi

    def __repr__(self):
        return f"ConfidenceInterval(lo={self.lo!r}, hi={self.hi!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


VarianceEstimates = namedtuple("VarianceEstimates", "v1 v2 v3 v4 degenerate", defaults=(False,))
VarianceEstimates.__doc__ = """Plug-in values of the variance components, with a degeneracy flag.
``v[0]``..``v[3]`` are ``V1``..``V4``, as in the plain tuples that
:func:`sigma_p`, :func:`sigma_p0` and :func:`sigma_it` also take.

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


def _plugin_sums(n, n_t, n_ts, positives, shares, mcar, where) -> tuple:
    """``(p0, v1, v2, v3, v4, degenerate)``: :func:`_class_sums` at the
    estimated testing probabilities, from the population size ``n``, the
    tested total ``n_t`` and, per class, the tested count, the positives and
    the share, which is weight and share alike.  The testing probability is
    ``N_T / N`` under ``mcar``, else ``N_Ts / (N * share)``.  A class with a
    zero share or no tested individual is inactive, ``(0, 1, 1, 0, 0)``;
    ``degenerate`` flags an active class with a positive rate of 0 or 1.
    Python numbers with ``where`` :func:`_choose`, or numpy columns with
    ``np.where``, give the same bits; ``where`` picks each denominator
    first, so floats never divide by zero."""
    columns, degenerate = [], False
    for tested, k, u in zip(n_ts, positives, shares):
        on = (u > 0.0) & (tested > 0)
        w, w_den = where(on, u, 0.0), where(on, u, 1.0)
        pi = where(on, n_t / n if mcar else tested / (n * w_den), 1.0)
        rate = where(on, k, 0) / where(on, tested, 1)
        degenerate = degenerate | (on & ((rate == 0.0) | (rate == 1.0)))
        columns.append((w, w_den, pi, rate, w * pi))
    return (*_class_sums(*zip(*columns)), degenerate)


def ci_logit_prevalence(est: float, sigma: float, alpha: float) -> ConfidenceInterval:
    """Back-transformed log-odds interval for a prevalence estimate.

    Endpoints are ``logit^{-1}(logit(est) -/+ lambda * sigma / (est(1-est)))``
    with ``lambda`` the two-sided normal critical value; they always lie
    inside (0, 1), and a zero ``sigma`` gives ``(est, est)`` at every ``alpha``.
    Estimates on the boundary carry no interval.
    """
    if sigma < 0.0:
        raise InvalidSpec(f"sigma must be nonnegative, got {sigma!r}")
    if not 0.0 < est < 1.0:
        raise BoundaryEstimate(f"no logit interval for a boundary estimate {est!r}")
    lam = normal_quantile(alpha)
    half_width = lam * sigma / (est * (1.0 - est)) if sigma else 0.0
    lo, hi = _logit_endpoints(est, half_width, math.log, math.exp, _choose)
    return ConfidenceInterval(lo=lo, hi=hi)


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


def ci_active_info(i_hat: float, sigma_i: float, alpha: float) -> ConfidenceInterval:
    """Symmetric normal interval for an information estimate (untransformed);
    ``(i_hat, i_hat)`` for a zero ``sigma_i`` at every ``alpha``."""
    if sigma_i < 0.0:
        raise InvalidSpec(f"sigma must be nonnegative, got {sigma_i!r}")
    lam = normal_quantile(alpha)
    width = lam * sigma_i if sigma_i else 0.0
    return ConfidenceInterval(lo=i_hat - width, hi=i_hat + width)


def sigma_it(v, p: float, p_bar0: float, n: int, conditional: bool = False) -> float:
    """Standard error of the information estimate at population size ``n``.

    ``conditional=True`` drops the tested-class-proportion noise ``V2``
    (conditioning on the per-class tested counts), which never increases the
    result.  Combinations that come out negative within ``1e-9`` are clipped
    to zero; anything more negative indicates inconsistent inputs and raises,
    as a NaN or infinite one does (a ``p`` or ``p_bar0`` whose square
    underflows to 0 included).
    """
    if not 0.0 < p < 1.0 or not 0.0 < p_bar0 < 1.0:
        raise InvalidSpec(f"p and p_bar0 must lie in (0, 1), got {p!r}, {p_bar0!r}")
    if n < 1:
        raise InvalidSpec("population size must be at least 1")
    top = v[0] if conditional else v[0] + v[1]
    try:
        value = top / (p * p) + v[2] / (p_bar0 * p_bar0) - 2.0 * v[3] / (p * p_bar0)
    except ZeroDivisionError:
        value = math.inf
    if not -_CLIP_TOL <= value < math.inf:
        problem = "negative beyond tolerance" if value < 0.0 else f"not finite; {_EXTREME_CAUSE}"
        raise NegativeVarianceCombination(f"variance combination {value!r} is {problem}")
    return math.sqrt(max(value, 0.0) / n)


def _root(variance: float, name: str) -> float:
    if not 0.0 <= variance < math.inf:
        problem = f"negative; {_NEGATIVE_CAUSE}" if variance < 0.0 else f"not finite; {_EXTREME_CAUSE}"
        raise NegativeVarianceCombination(f"{name} = {variance!r} is {problem}")
    return math.sqrt(variance)


def sigma_p(v, n: int) -> float:
    """Standard error of the biased estimate, ``sqrt((V1 + V2) / N)``;
    :class:`NegativeVarianceCombination` unless it is finite and real."""
    if n < 1:
        raise InvalidSpec("population size must be at least 1")
    return _root((v[0] + v[1]) / n, "(V1 + V2) / N")


def sigma_p0(v, n: int) -> float:
    """Standard error of the corrected estimate, ``sqrt(V3 / N)``;
    :class:`NegativeVarianceCombination` unless it is finite and real."""
    if n < 1:
        raise InvalidSpec("population size must be at least 1")
    return _root(v[2] / n, "V3 / N")
