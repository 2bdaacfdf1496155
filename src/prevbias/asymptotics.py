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

import numpy as np

from .errors import (
    BoundaryEstimate,
    EmptyStratum,
    InvalidSpec,
    NegativeVarianceCombination,
)
from .model import MCAR, Mechanism
from .sampler import TestingOutcome

_CLIP_TOL = 1e-9
_NEGATIVE_CAUSE = "a symptom class was tested beyond N times its share"


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
    level: float
    target: str

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidSpec(f"interval endpoints out of order: ({self.lo!r}, {self.hi!r})")

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class VarianceEstimates:
    """Plug-in values of the variance components, with a degeneracy flag.

    ``degenerate`` is set when some class positive rate is exactly 0 or 1,
    which zeroes its noise contribution; downstream interval coverage then
    tends to be optimistic, so callers may want to count such cases.
    """

    v1: float
    v2: float
    v3: float
    v4: float
    degenerate: bool = False

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.v1, self.v2, self.v3, self.v4)


def plugin_variances(
    outcome: TestingOutcome,
    pi_hat_s,
    rho_hat_s,
    rho_bar_hat_s=None,
) -> VarianceEstimates:
    """Evaluate the variance components at the estimated quantities.

    ``rho_hat_s`` plays the role of the true class shares and, unless
    ``rho_bar_hat_s`` is given, also of the limiting weights (which is the
    right choice under known shares, where both equal ``rho_s``).  Classes
    with zero weight are ignored; positively weighted classes must contain
    tested individuals and carry a positive ``pi_hat``.
    """
    pi_hat = np.asarray(pi_hat_s, dtype=float)
    rho_hat = np.asarray(rho_hat_s, dtype=float)
    rho_bar = rho_hat if rho_bar_hat_s is None else np.asarray(rho_bar_hat_s, dtype=float)
    s_count = outcome.s
    for name, vec in (("pi_hat_s", pi_hat), ("rho_hat_s", rho_hat), ("rho_bar_hat_s", rho_bar)):
        if vec.shape != (s_count,):
            raise InvalidSpec(f"{name} must have one entry per symptom class")

    active = rho_hat > 0.0
    n_ts = outcome.n_ts
    missing = [s for s in range(s_count) if active[s] and n_ts[s] == 0]
    if missing:
        raise EmptyStratum(missing)
    if np.any(pi_hat[active] <= 0.0):
        raise InvalidSpec("pi_hat must be positive on positively weighted classes")

    p0s_hat = np.zeros(s_count)
    np.divide(outcome.counts[:, 1], n_ts, out=p0s_hat, where=n_ts > 0)
    degenerate = bool(np.any((p0s_hat[active] == 0.0) | (p0s_hat[active] == 1.0)))

    r = np.where(active, rho_hat, 0.0)
    rb = np.where(active, rho_bar, 0.0)
    pi_safe = np.where(active, pi_hat, 1.0)
    d = float((r * pi_safe).sum())
    if d <= 0.0:
        raise InvalidSpec("total estimated testing mass must be positive")

    noise = p0s_hat * (1.0 - p0s_hat)
    p_tilde0 = float((r * pi_safe * p0s_hat).sum() / d)
    v1 = float((r * pi_safe * (1.0 - pi_safe) * noise).sum() / d**2)
    v2 = float((r * pi_safe * (1.0 - pi_safe) * (p0s_hat - p_tilde0) ** 2).sum() / d**2)
    odds = (1.0 - pi_safe) / pi_safe
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio3 = np.where(active, rb**2 / np.where(active, r, 1.0), 0.0)
        tilde = r * pi_safe / d
        ratio4 = np.where(active, tilde * rb / np.where(active, r, 1.0), 0.0)
    v3 = float((ratio3 * odds * noise).sum())
    v4 = float((ratio4 * odds * noise).sum())
    return VarianceEstimates(v1=v1, v2=v2, v3=v3, v4=v4, degenerate=degenerate)


def mechanism_plugin_inputs(outcome: TestingOutcome, mechanism: Mechanism) -> tuple[np.ndarray, np.ndarray]:
    """Derive ``(pi_hat_s, rho_hat_s)`` for :func:`plugin_variances`.

    ``rho_hat_s`` is the mechanism's share vector (:meth:`Mechanism.shares`).
    Under mcar the sampling fraction is pooled (``N_T / N``); under mar and
    maxent it is ``pi_hat_s = N_Ts / (N * share_s)``.
    """
    rho_hat = mechanism.shares(outcome.n, outcome.n_ts)
    if mechanism.kind == MCAR:
        return np.full(outcome.s, outcome.n_t / outcome.n, dtype=float), rho_hat
    pi_hat = np.full(outcome.s, np.nan)
    np.divide(outcome.n_ts, outcome.n * rho_hat, out=pi_hat, where=rho_hat > 0)
    return pi_hat, rho_hat


def ci_logit_prevalence(
    est: float,
    sigma: float,
    alpha: float,
    target: str = "p0",
) -> ConfidenceInterval:
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
        return ConfidenceInterval(lo=est, hi=est, level=1.0 - alpha, target=target)
    center = math.log(est / (1.0 - est))
    # expit rounds to exactly 0/1 for huge half-widths; keep the endpoints
    # strictly inside the unit interval
    lo = min(max(_expit(center - half_width), math.nextafter(0.0, 1.0)), est)
    hi = max(min(_expit(center + half_width), math.nextafter(1.0, 0.0)), est)
    return ConfidenceInterval(lo=lo, hi=hi, level=1.0 - alpha, target=target)


def ci_active_info(i_hat: float, sigma_i: float, alpha: float) -> ConfidenceInterval:
    """Symmetric normal interval for an information estimate (untransformed)."""
    if sigma_i < 0.0:
        raise InvalidSpec(f"sigma must be nonnegative, got {sigma_i!r}")
    lam = normal_quantile(alpha)
    return ConfidenceInterval(
        lo=i_hat - lam * sigma_i,
        hi=i_hat + lam * sigma_i,
        level=1.0 - alpha,
        target="i_plus_t",
    )


def _bracket(v, p: float, p_bar0: float, conditional: bool) -> float:
    v1, v2, v3, v4 = v.as_tuple() if isinstance(v, VarianceEstimates) else tuple(v)
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
    v1, v2 = (v.v1, v.v2) if isinstance(v, VarianceEstimates) else (v[0], v[1])
    if n < 1:
        raise InvalidSpec("population size must be at least 1")
    return _root((v1 + v2) / n, "(V1 + V2) / N")


def sigma_p0(v, n: int) -> float:
    """Standard error of the corrected estimate, ``sqrt(V3 / N)``;
    :class:`NegativeVarianceCombination` when ``V3 / N < 0``."""
    v3 = v.v3 if isinstance(v, VarianceEstimates) else v[2]
    if n < 1:
        raise InvalidSpec("population size must be at least 1")
    return _root(v3 / n, "V3 / N")
