"""Plain-Python reference values the benchmark checks prevbias outputs against.

Nothing here imports prevbias: every expected value is recomputed from the
generated inputs, so a fast path in the program cannot agree with itself.
"""

from __future__ import annotations

import math


def p_hat(counts) -> float:
    """Positives over tested, ``N_T.1 / N_T``."""
    return sum(row[1] for row in counts) / sum(sum(row) for row in counts)


def share_weighted_p0(counts, shares) -> float:
    """``sum_s shares_s * N_Ts1 / N_Ts`` over positively weighted classes."""
    return sum(w * row[1] / sum(row) for w, row in zip(shares, counts) if w > 0.0)


def covid_shares(n: int, counts) -> list[float]:
    """Midpoint of the two-class convenience-sampling bounds on ``rho_1``."""
    n_t = sum(sum(row) for row in counts)
    rho1 = (sum(counts[1]) / (2.0 * n_t)) * (n_t / n + 1.0)
    return [1.0 - rho1, rho1]


def has_empty_weighted_class(counts, shares) -> bool:
    return any(w > 0.0 and sum(row) == 0 for w, row in zip(shares, counts))


def slab_moments(lower, upper) -> tuple[list[float], list[float]]:
    """Exact mean and standard deviation of each share under the uniform law on
    ``{lower <= rho <= upper, sum(rho) = 1}``.

    Inclusion-exclusion over the violated upper bounds: with ``t = 1 - sum(l)``
    and ``w = u - l``, each subset J with ``t_J = t - sum_J w > 0`` contributes
    a simplex of side ``t_J`` shifted by ``w_J``, with weight
    ``(-1)^|J| t_J^(S-1)``.  On a simplex of side T in S coordinates the first
    two moments of a coordinate are ``T/S`` and ``2 T^2 / (S (S+1))``.
    """
    s_count = len(lower)
    t = 1.0 - sum(lower)
    w = [u - l for l, u in zip(lower, upper)]
    total = 0.0
    m1 = [0.0] * s_count
    m2 = [0.0] * s_count
    for mask in range(1 << s_count):
        shift = [w[i] if mask >> i & 1 else 0.0 for i in range(s_count)]
        t_j = t - sum(shift)
        if t_j <= 0.0:
            continue
        weight = (-1) ** bin(mask).count("1") * t_j ** (s_count - 1)
        total += weight
        for i, c in enumerate(shift):
            m1[i] += weight * (c + t_j / s_count)
            m2[i] += weight * (c * c + 2.0 * c * t_j / s_count + 2.0 * t_j * t_j / (s_count * (s_count + 1)))
    mean = [l + a / total for l, a in zip(lower, m1)]
    sd = [math.sqrt(max(b / total - (a / total) ** 2, 0.0)) for a, b in zip(m1, m2)]
    return mean, sd


def class_positive_rates(rho, pi) -> list[float]:
    """Large-N positive-test rate of each symptom class."""
    return [
        r1 * p1 / (r0 * p0 + r1 * p1) for (r0, r1), (p0, p1) in zip(rho, pi)
    ]


def corrected_limit(rho, pi, weights=None) -> float:
    """Large-N limit of the share-weighted corrected estimate (the value of
    ``prevbias.corrected_prevalence_limit``); the true shares by default."""
    weights = [r0 + r1 for r0, r1 in rho] if weights is None else weights
    return sum(w * q for w, q in zip(weights, class_positive_rates(rho, pi)) if w > 0.0)


def testing_prevalence(rho, pi) -> float:
    """Expected positive rate among the tested (the mcar limit)."""
    num = sum(r[1] * p[1] for r, p in zip(rho, pi))
    return num / sum(r[0] * p[0] + r[1] * p[1] for r, p in zip(rho, pi))
