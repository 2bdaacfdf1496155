"""Maximum-entropy treatment of unknown symptom-class shares.

When the class shares are only known to satisfy ``lower_s <= rho_s <=
upper_s``, the share vector is modelled as uniformly distributed on the
feasible region (the simplex cut by those box bounds), and the corrected
estimator uses its mean, which :func:`mean_shares` computes exactly.

For the two-class convenience-sampling model, where a symptomatic individual
is at least as likely to be tested as an asymptomatic one, the data imply
``N_T1 / N <= rho_1 <= N_T1 / N_T`` and the mean has the closed form of
:func:`covid_shares`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyRegion, InvalidSpec, TooLarge

_SUM_TOL = 1e-12
# mean_shares sums up to 2^k big-integer terms for k free classes; its slowest
# bounds took 0.7 s at k = 13 and 1.6 s at k = 14 on a 2-core x86 host.
MAX_FREE_CLASSES = 13


@dataclass(frozen=True, eq=False)
class SimplexSlab:
    """The set of share vectors with ``lower_s <= rho_s <= upper_s`` summing to 1."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise InvalidSpec("bounds must be two equal-length non-empty vectors")
        if np.any(lower < 0.0) or np.any(upper > 1.0):
            raise InvalidSpec("bounds must lie in [0, 1]")
        if np.any(lower > upper):
            raise InvalidSpec("each lower bound must not exceed its upper bound")
        if float(lower.sum()) > 1.0 + _SUM_TOL or float(upper.sum()) < 1.0 - _SUM_TOL:
            raise EmptyRegion(
                f"no share vector satisfies the bounds: sum(lower)={float(lower.sum())!r}, "
                f"sum(upper)={float(upper.sum())!r}"
            )
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def s(self) -> int:
        return self.lower.size

    @property
    def is_degenerate(self) -> bool:
        """True when the region is the single point ``lower`` (= ``upper``)."""
        return bool(np.array_equal(self.lower, self.upper))

    @classmethod
    def covid(cls, n: int, n_t: int, n_t1: int) -> "SimplexSlab":
        """Two-class bounds implied by convenience sampling of symptomatics."""
        _check_covid_counts(n, n_t, n_t1)
        a1 = n_t1 / n
        b1 = n_t1 / n_t
        return cls(lower=np.array([1.0 - b1, a1]), upper=np.array([1.0 - a1, b1]))


def mean_shares(slab: SimplexSlab) -> np.ndarray:
    """Exact mean of the uniform distribution on the feasible share region.

    Inclusion-exclusion over the violated upper bounds: with ``t = 1 - sum(lower)``
    and ``w = upper - lower``, each subset J of the k classes with ``w > 0`` and
    ``t_J = t - sum_J w > 0`` has weight ``(-1)^|J| t_J^(k-1)`` and centroid
    ``lower + w 1_J + t_J / k``.  The sum is exact, over the bounds' common
    binary denominator: in floats it cancels catastrophically on thin regions.
    Single-point regions return ``lower`` or ``upper``; more than
    ``MAX_FREE_CLASSES`` classes with ``w > 0`` raise :class:`TooLarge`.
    """
    lower = [Fraction(x) for x in slab.lower.tolist()]
    upper = [Fraction(x) for x in slab.upper.tolist()]
    t = 1 - sum(lower)
    if t <= 0:
        return slab.lower.copy()
    if sum(upper) <= 1:
        return slab.upper.copy()
    free = [s for s in range(slab.s) if upper[s] > lower[s]]
    k = len(free)
    if k > MAX_FREE_CLASSES:
        raise TooLarge(f"exact mean shares support at most {MAX_FREE_CLASSES} free classes, got {k}")
    scale = math.lcm(*(x.denominator for x in lower + upper))
    # (t_J, J as a bitmask over free); supersets of a subset with t_J <= 0 drop out too
    terms = [(int(t * scale), 0)]
    for j, s in enumerate(free):
        w = int((upper[s] - lower[s]) * scale)
        terms += [(t_j - w, mask | 1 << j) for t_j, mask in terms if t_j > w]
    weights = [(-1) ** mask.bit_count() * t_j ** (k - 1) for t_j, mask in terms]
    total = sum(weights)
    shift = Fraction(sum(wt * t_j for wt, (t_j, _) in zip(weights, terms)), k * total * scale)
    mean = list(lower)
    for j, s in enumerate(free):
        inside = sum(wt for wt, (_, mask) in zip(weights, terms) if mask >> j & 1)
        mean[s] += (upper[s] - lower[s]) * Fraction(inside, total) + shift
    return np.array([float(x) for x in mean])


def _check_covid_counts(n: int, n_t: int, n_t1: int) -> None:
    if not 0 < n_t <= n:
        raise InvalidSpec(f"need 0 < N_T <= N, got N_T={n_t}, N={n}")
    if not 0 <= n_t1 <= n_t:
        raise InvalidSpec(f"need 0 <= N_T1 <= N_T, got N_T1={n_t1}, N_T={n_t}")


def covid_shares(n: int, n_t: int, n_t1: int) -> np.ndarray:
    """Closed-form mean shares for the two-class convenience-sampling model.

    ``rho1_hat = (N_T1 / (2 N_T)) (N_T / N + 1)``, the midpoint of the
    interval ``(N_T1 / N, N_T1 / N_T)``, and ``rho0_hat = 1 - rho1_hat``.
    """
    _check_covid_counts(n, n_t, n_t1)
    rho1 = (n_t1 / (2.0 * n_t)) * (n_t / n + 1.0)
    return np.array([1.0 - rho1, rho1])
