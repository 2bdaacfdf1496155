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
from fractions import Fraction

from .errors import EmptyRegion, InvalidSpec, TooLarge

_SUM_TOL = 1e-12
# mean_shares sums up to 2^k big-integer terms for k free classes; its slowest
# bounds took 0.7 s at k = 13 and 1.6 s at k = 14 on a 2-core x86 host.
MAX_FREE_CLASSES = 13


def ordered_sum(values) -> float:
    """The float sum of ``values`` added one by one, left to right, from 0.0.

    The one-shot estimators add every sum over symptom classes here, as the
    batched engine adds class by class, so the two agree to the bit.  Below
    eight terms it is also what numpy's ``sum`` gives.  The builtin ``sum``
    is compensated from Python 3.12 on and ``math.fsum`` is exact, so
    neither would do.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class SimplexSlab:
    """The set of share vectors with ``lower_s <= rho_s <= upper_s`` summing to
    1; the bounds are read into tuples of floats."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        try:
            lower = tuple(map(float, lower))
            upper = tuple(map(float, upper))
        except (TypeError, ValueError):
            lower = upper = ()
        if len(lower) != len(upper) or not lower:
            raise InvalidSpec("bounds must be two equal-length non-empty vectors")
        if any(not 0.0 <= x <= 1.0 for x in lower + upper):  # NaN too
            raise InvalidSpec("bounds must lie in [0, 1]")
        if any(lo > hi for lo, hi in zip(lower, upper)):
            raise InvalidSpec("each lower bound must not exceed its upper bound")
        low_sum, high_sum = ordered_sum(lower), ordered_sum(upper)
        if low_sum > 1.0 + _SUM_TOL or high_sum < 1.0 - _SUM_TOL:
            raise EmptyRegion(
                f"no share vector satisfies the bounds: sum(lower)={low_sum!r}, sum(upper)={high_sum!r}"
            )
        self.lower, self.upper = lower, upper

    @property
    def s(self) -> int:
        return len(self.lower)


def mean_shares(slab: SimplexSlab) -> tuple[float, ...]:
    """Exact mean of the uniform distribution on the feasible share region.

    Inclusion-exclusion over the violated upper bounds: with ``t = 1 - sum(lower)``
    and ``w = upper - lower``, each subset J of the k classes with ``w > 0`` and
    ``t_J = t - sum_J w > 0`` has weight ``(-1)^|J| t_J^(k-1)`` and centroid
    ``lower + w 1_J + t_J / k``.  The sum is exact, over the bounds' common
    binary denominator: in floats it cancels catastrophically on thin regions.
    Single-point regions return ``lower`` or ``upper``; more than
    ``MAX_FREE_CLASSES`` classes with ``w > 0`` raise :class:`TooLarge`.
    """
    lower = [Fraction(x) for x in slab.lower]
    upper = [Fraction(x) for x in slab.upper]
    t = 1 - sum(lower)
    if t <= 0:
        return slab.lower
    if sum(upper) <= 1:
        return slab.upper
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
    return tuple(float(x) for x in mean)


def covid_shares(n: int, n_t: int, n_t1: int) -> tuple[float, float]:
    """Closed-form mean shares for the two-class convenience-sampling model.

    ``rho1_hat = (N_T1 / (2 N_T)) (N_T / N + 1)``, the midpoint of the
    interval ``(N_T1 / N, N_T1 / N_T)``, and ``rho0_hat = 1 - rho1_hat``.
    """
    if not 0 < n_t <= n:
        raise InvalidSpec(f"need 0 < N_T <= N, got N_T={n_t}, N={n}")
    if not 0 <= n_t1 <= n_t:
        raise InvalidSpec(f"need 0 <= N_T1 <= N_T, got N_T1={n_t1}, N_T={n_t}")
    rho1 = (n_t1 / (2.0 * n_t)) * (n_t / n + 1.0)
    return (1.0 - rho1, rho1)
