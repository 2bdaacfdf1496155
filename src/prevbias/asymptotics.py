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
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import NamedTuple

from .errors import (
    BoundaryEstimate,
    EmptyStratum,
    InvalidSpec,
    NegativeVarianceCombination,
)
from .maxent import ordered_sum
from .sampler import TestingOutcome

_CLIP_TOL = 1e-9
_NEGATIVE_CAUSE = "a symptom class was tested beyond N times its share"
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


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidSpec(f"interval endpoints out of order: ({self.lo!r}, {self.hi!r})")

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


class VarianceEstimates(NamedTuple):
    """Plug-in values of the variance components, with a degeneracy flag.
    ``v[0]``..``v[3]`` are ``V1``..``V4``, as in the plain tuples that
    :func:`sigma_p`, :func:`sigma_p0` and :func:`sigma_it` also take.

    ``degenerate`` is set when some class positive rate is exactly 0 or 1,
    which zeroes its noise contribution; downstream interval coverage then
    tends to be optimistic, so callers may want to count such cases.
    """

    v1: float
    v2: float
    v3: float
    v4: float
    degenerate: bool = False


def _class_sums(w, w_den, pi, rate) -> tuple:
    """``(p0, v1, v2, v3, v4)`` from the limiting weight ``w``, the share
    ``w_den``, the testing probability ``pi`` and the positive rate ``rate``
    of each class; an inactive class carries ``(0, 1, 1, 0)`` and adds exact
    zeros.  Entries are floats for one table or numpy columns for a batch,
    with the same bits: only ``+ - * /`` and :func:`ordered_sum`, correctly
    rounded on both (so ``d * d``: Python's float ``**`` calls libm ``pow``,
    which need not be).  On floats a zero testing mass raises
    ``ZeroDivisionError``."""
    mass = [x * p for x, p in zip(w, pi)]
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


def _table_sums(outcome: TestingOutcome, w, pi) -> tuple:
    """:func:`_class_sums` of one table with ``w`` as weight and share, and
    whether a weighted class has a positive rate of 0 or 1; zero-weight
    classes are inactive.  A weighted class must hold tested individuals
    (:class:`EmptyStratum`, checked before ``pi`` is read) and a positive
    ``pi``, and the testing mass must be positive (:class:`InvalidSpec`)."""
    active = [x > 0.0 for x in w]
    missing = [s for s, (on, n) in enumerate(zip(active, outcome.n_ts)) if on and n == 0]
    if missing:
        raise EmptyStratum(missing)
    if any(on and p <= 0.0 for on, p in zip(active, pi)):
        raise InvalidSpec("pi_hat must be positive on positively weighted classes")
    rates = [row[1] / n if on else 0.0 for on, row, n in zip(active, outcome.counts, outcome.n_ts)]
    columns = [(x, x, p, r) if on else (0.0, 1.0, 1.0, 0.0) for on, x, p, r in zip(active, w, pi, rates)]
    try:
        sums = _class_sums(*zip(*columns))
    except ZeroDivisionError:
        raise InvalidSpec("total estimated testing mass must be positive") from None
    return sums, any(on and (r == 0.0 or r == 1.0) for on, r in zip(active, rates))


def ci_logit_prevalence(est: float, sigma: float, alpha: float) -> ConfidenceInterval:
    """Back-transformed log-odds interval for a prevalence estimate.

    Endpoints are ``logit^{-1}(logit(est) -/+ lambda * sigma / (est(1-est)))``
    with ``lambda`` the two-sided normal critical value; they always lie
    inside (0, 1).  Estimates on the boundary carry no interval.
    """
    if sigma < 0.0:
        raise InvalidSpec(f"sigma must be nonnegative, got {sigma!r}")
    if not 0.0 < est < 1.0:
        raise BoundaryEstimate(f"no logit interval for a boundary estimate {est!r}")
    half_width = normal_quantile(alpha) * sigma / (est * (1.0 - est))
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
    """Symmetric normal interval for an information estimate (untransformed)."""
    if sigma_i < 0.0:
        raise InvalidSpec(f"sigma must be nonnegative, got {sigma_i!r}")
    lam = normal_quantile(alpha)
    return ConfidenceInterval(lo=i_hat - lam * sigma_i, hi=i_hat + lam * sigma_i)


def _bracket(v, p: float, p_bar0: float, conditional: bool) -> float:
    v1, v2, v3, v4 = v[0], v[1], v[2], v[3]
    top = v1 if conditional else v1 + v2
    value = top / (p * p) + v3 / (p_bar0 * p_bar0) - 2.0 * v4 / (p * p_bar0)
    if value < -_CLIP_TOL:
        raise NegativeVarianceCombination(
            f"variance combination {value!r} is negative beyond tolerance"
        )
    return max(value, 0.0)


def sigma_it(v, p: float, p_bar0: float, n: int, conditional: bool = False) -> float:
    """Standard error of the information estimate at population size ``n``.

    ``conditional=True`` drops the tested-class-proportion noise ``V2``
    (conditioning on the per-class tested counts), which never increases the
    result.  Combinations that come out negative within ``1e-9`` are clipped
    to zero; anything more negative indicates inconsistent inputs and raises.
    """
    if not 0.0 < p < 1.0 or not 0.0 < p_bar0 < 1.0:
        raise InvalidSpec(f"p and p_bar0 must lie in (0, 1), got {p!r}, {p_bar0!r}")
    if n < 1:
        raise InvalidSpec("population size must be at least 1")
    return math.sqrt(_bracket(v, p, p_bar0, conditional) / n)


def _root(variance: float, name: str) -> float:
    if variance < 0.0:
        raise NegativeVarianceCombination(f"{name} = {variance!r} is negative; {_NEGATIVE_CAUSE}")
    return math.sqrt(variance)


def sigma_p(v, n: int) -> float:
    """Standard error of the biased estimate, ``sqrt((V1 + V2) / N)``;
    :class:`NegativeVarianceCombination` when ``(V1 + V2) / N < 0``."""
    if n < 1:
        raise InvalidSpec("population size must be at least 1")
    return _root((v[0] + v[1]) / n, "(V1 + V2) / N")


def sigma_p0(v, n: int) -> float:
    """Standard error of the corrected estimate, ``sqrt(V3 / N)``;
    :class:`NegativeVarianceCombination` when ``V3 / N < 0``."""
    if n < 1:
        raise InvalidSpec("population size must be at least 1")
    return _root(v[2] / n, "V3 / N")
