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
from .model import MCAR, Mechanism, _floats
from .sampler import TestingOutcome

_CLIP_TOL = 1e-9
_NEGATIVE_CAUSE = "a symptom class was tested beyond N times its share"
# logit-interval endpoints are clamped strictly inside (0, 1), here and in the
# batched engine
_ABOVE_ZERO = math.nextafter(0.0, 1.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)


@lru_cache(maxsize=64)
def normal_quantile(alpha: float) -> float:
    """Two-sided critical value: the ``1 - alpha/2`` standard normal quantile."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidSpec(f"alpha must lie in (0, 1], got {alpha!r}")
    # alpha <= 2^-53 rounds 1 - alpha/2 to 1, whose quantile is infinite
    return NormalDist().inv_cdf(1.0 - alpha / 2.0) if alpha > 2.0**-53 else math.inf


def _expit(x: float) -> float:
    """Logistic function; the sign split keeps ``math.exp`` from overflowing."""
    z = math.exp(-abs(x))
    return 1.0 / (1.0 + z) if x >= 0.0 else z / (1.0 + z)


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


def plugin_variances(outcome: TestingOutcome, pi_hat_s, rho_hat_s) -> VarianceEstimates:
    """Evaluate the variance components at the estimated quantities.

    ``rho_hat_s`` plays the role of both the true class shares and the
    limiting weights, which is the right choice under known shares, where
    both equal ``rho_s``.  Classes with zero weight are ignored; positively
    weighted classes must contain tested individuals and carry a positive
    ``pi_hat``.

    Every sum over classes is :func:`prevbias.maxent.ordered_sum`, and a
    class with zero weight adds exact zeros to it.
    """
    s_count = outcome.s
    pi_hat = _floats(pi_hat_s, s_count, "pi_hat_s")
    rho_hat = _floats(rho_hat_s, s_count, "rho_hat_s")

    active = [w > 0.0 for w in rho_hat]
    n_ts = outcome.n_ts
    missing = [s for s in range(s_count) if active[s] and n_ts[s] == 0]
    if missing:
        raise EmptyStratum(missing)
    if any(on and p <= 0.0 for on, p in zip(active, pi_hat)):
        raise InvalidSpec("pi_hat must be positive on positively weighted classes")

    p0s_hat = [row[1] / n if n else 0.0 for row, n in zip(outcome.counts, n_ts)]
    degenerate = any(on and (p == 0.0 or p == 1.0) for on, p in zip(active, p0s_hat))

    r = [w if on else 0.0 for on, w in zip(active, rho_hat)]
    pi_safe = [p if on else 1.0 for on, p in zip(active, pi_hat)]
    mass = [w * p for w, p in zip(r, pi_safe)]
    d = ordered_sum(mass)
    if d <= 0.0:
        raise InvalidSpec("total estimated testing mass must be positive")

    noise = [p * (1.0 - p) for p in p0s_hat]
    p_tilde0 = ordered_sum(m * p for m, p in zip(mass, p0s_hat)) / d
    spread = [m * (1.0 - p) for m, p in zip(mass, pi_safe)]
    v1 = ordered_sum(m * e for m, e in zip(spread, noise)) / d**2
    v2 = ordered_sum(m * ((p - p_tilde0) * (p - p_tilde0)) for m, p in zip(spread, p0s_hat)) / d**2
    odds = [(1.0 - p) / p for p in pi_safe]
    # the limiting weight times itself over the share, as the general
    # formula has it: w * w / w and w / w need not round to w and 1
    ratio3 = [w * w / w if on else 0.0 for on, w in zip(active, r)]
    ratio4 = [m / d * w / w if on else 0.0 for on, m, w in zip(active, mass, r)]
    v3 = ordered_sum(q * o * e for q, o, e in zip(ratio3, odds, noise))
    v4 = ordered_sum(q * o * e for q, o, e in zip(ratio4, odds, noise))
    return VarianceEstimates(v1=v1, v2=v2, v3=v3, v4=v4, degenerate=degenerate)


def mechanism_plugin_inputs(outcome: TestingOutcome, mechanism: Mechanism) -> tuple[tuple, tuple]:
    """Derive ``(pi_hat_s, rho_hat_s)`` for :func:`plugin_variances`.

    ``rho_hat_s`` is the mechanism's share vector (:meth:`Mechanism.shares`).
    Under mcar the sampling fraction is pooled (``N_T / N``); under mar and
    maxent it is ``pi_hat_s = N_Ts / (N * share_s)`` (NaN for a zero share).
    """
    rho_hat = mechanism.shares(outcome.n, outcome.n_ts)
    if mechanism.kind == MCAR:
        return (outcome.n_t / outcome.n,) * outcome.s, rho_hat
    n = outcome.n
    return tuple(c / (n * w) if w > 0 else math.nan for c, w in zip(outcome.n_ts, rho_hat)), rho_hat


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
    lam = normal_quantile(alpha)
    half_width = lam * sigma / (est * (1.0 - est))
    if half_width == 0.0:
        return ConfidenceInterval(lo=est, hi=est)
    center = math.log(est / (1.0 - est))
    # expit rounds to exactly 0/1 for huge half-widths; keep the endpoints
    # strictly inside the unit interval
    lo = min(max(_expit(center - half_width), _ABOVE_ZERO), est)
    hi = max(min(_expit(center + half_width), _BELOW_ONE), est)
    return ConfidenceInterval(lo=lo, hi=hi)


def ci_active_info(i_hat: float, sigma_i: float, alpha: float) -> ConfidenceInterval:
    """Symmetric normal interval for an information estimate (untransformed)."""
    if sigma_i < 0.0:
        raise InvalidSpec(f"sigma must be nonnegative, got {sigma_i!r}")
    lam = normal_quantile(alpha)
    return ConfidenceInterval(lo=i_hat - lam * sigma_i, hi=i_hat + lam * sigma_i)


def _bracket(v, p: float, p_bar0: float, conditional: bool) -> float:
    v1, v2, v3, v4 = v[0], v[1], v[2], v[3]
    top = v1 if conditional else v1 + v2
    value = top / p**2 + v3 / p_bar0**2 - 2.0 * v4 / (p * p_bar0)
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
