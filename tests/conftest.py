"""Shared fixtures and independent oracles.

The oracle helpers below recompute every closed-form target with exact
rational arithmetic (:mod:`fractions`), separately from the package's float
implementations, so the unit tests compare two independent evaluation paths.
"""

from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest

from prevbias import InvalidSpec, Mechanism, PopulationSpec, PrevBiasError, SimplexSlab
from prevbias.rng import as_generator

# Base two-class population: shares rho[s][i] with s = symptom level,
# i = infection status.  True prevalence 0.05 + 0.15 = 0.20.
BASE_RHO = (("0.75", "0.05"), ("0.05", "0.15"))
BASE_RHO_F = ((F("0.75"), F("0.05")), (F("0.05"), F("0.15")))

PI_MCAR = [[0.6, 0.6], [0.6, 0.6]]
PI_MAR = [[0.1, 0.1], [0.9, 0.9]]
PI_MNAR = [[0.2, 0.3], [0.7, 0.8]]


def base_spec(pi, n=1000):
    return PopulationSpec(n=n, rho=BASE_RHO, pi=pi)


@pytest.fixture
def spec_mcar():
    return base_spec(PI_MCAR)


@pytest.fixture
def spec_mar():
    return base_spec(PI_MAR)


@pytest.fixture
def spec_mnar():
    return base_spec(PI_MNAR)


@pytest.fixture
def mech_mar():
    return Mechanism.mar(("0.8", "0.2"))


def oracle_testing_prevalence(rho, pi):
    """Exact rational p = sum_s rho_s1 pi_s1 / sum_si rho_si pi_si."""
    num = sum(rho[s][1] * pi[s][1] for s in range(len(rho)))
    den = sum(rho[s][i] * pi[s][i] for s in range(len(rho)) for i in range(2))
    return num / den


def oracle_quantities(rho, pi_s, rho_bar=None):
    """Exact rational evaluation of the variance components and limits."""
    s_count = len(rho)
    rho_s = [rho[s][0] + rho[s][1] for s in range(s_count)]
    if rho_bar is None:
        rho_bar = rho_s
    p0s = [rho[s][1] / rho_s[s] for s in range(s_count)]
    d = sum(rho_s[s] * pi_s[s] for s in range(s_count))
    rho_tilde = [rho_s[s] * pi_s[s] / d for s in range(s_count)]
    p_tilde0 = sum(rho_s[s] * pi_s[s] * p0s[s] for s in range(s_count)) / d
    v1 = sum(rho_s[s] * pi_s[s] * (1 - pi_s[s]) * p0s[s] * (1 - p0s[s]) for s in range(s_count)) / d**2
    v2 = sum(rho_s[s] * pi_s[s] * (1 - pi_s[s]) * (p0s[s] - p_tilde0) ** 2 for s in range(s_count)) / d**2
    v3 = sum(rho_bar[s] ** 2 / rho_s[s] * (1 - pi_s[s]) / pi_s[s] * p0s[s] * (1 - p0s[s]) for s in range(s_count))
    v4 = sum(
        rho_tilde[s] * rho_bar[s] / rho_s[s] * (1 - pi_s[s]) / pi_s[s] * p0s[s] * (1 - p0s[s])
        for s in range(s_count)
    )
    return {
        "p0": sum(rho[s][1] for s in range(s_count)),
        "p": sum(rho_tilde[s] * p0s[s] for s in range(s_count)),
        "p0s": p0s,
        "rho_tilde": rho_tilde,
        "p_tilde0": p_tilde0,
        "p_bar0": sum(rho_bar[s] * p0s[s] for s in range(s_count)),
        "v1": v1,
        "v2": v2,
        "v3": v3,
        "v4": v4,
    }


# Exact components for the symptom-dependent (mar) base scenario,
# pi = (0.1, 0.9).  Kept as module constants so the frozen decimal values
# used in tests are traceable to one rational computation.
MAR_ORACLE = oracle_quantities(BASE_RHO_F, (F("0.1"), F("0.9")))
assert MAR_ORACLE["v1"] == F(1215, 10816)
assert MAR_ORACLE["v2"] == F(462825, 1827904)
assert MAR_ORACLE["v3"] == F(409, 960)
assert MAR_ORACLE["v4"] == F(147, 832)
assert MAR_ORACLE["p"] == F(7, 13)


def oracle_corrected_limit(rho, pi):
    """Exact large-N limit of the share-weighted corrected estimator."""
    s_count = len(rho)
    total = F(0)
    for s in range(s_count):
        rho_s = rho[s][0] + rho[s][1]
        mass = rho[s][0] * pi[s][0] + rho[s][1] * pi[s][1]
        total += rho_s * rho[s][1] * pi[s][1] / mass
    return total


def oracle_mcar_mse(n, pi, p0):
    """Exact MSE of ``p_hat`` about ``p0`` under uniform testing, given N_T > 0.

    Every unit is tested with probability ``pi``, so T = N_T ~ Bin(N, pi), and
    given T = t the positives are hypergeometric: ``p_hat`` is unbiased with
    variance p0 (1 - p0) / (N - 1) * (N - t) / t.  The MSE is that variance
    averaged over T given T > 0 (0 < pi < 1).  Exact when ``pi`` and ``p0``
    are Fractions.  The binomial weights are built outward from the mode,
    relative to it, so float evaluation at large N neither overflows nor
    needs normalising; each direction stops once its weights underflow.
    """
    odds = pi / (1 - pi)
    mode = min(n, max(1, int((n + 1) * pi)))
    mass = spread = 0
    w = odds**0  # one, in the arithmetic of the inputs
    for t in range(mode, n + 1):
        mass += w
        spread += w * (n - t) / t
        w = w * odds * (n - t) / (t + 1)
        if not w:
            break
    w = odds**0
    for t in range(mode - 1, 0, -1):
        w = w / odds * (t + 1) / (n - t)
        if not w:
            break
        mass += w
        spread += w * (n - t) / t
    return p0 * (1 - p0) / (n - 1) * spread / mass


def oracle_three_class_centroid(lower, upper):
    """Exact mean of the uniform law on {lower <= rho <= upper, sum(rho) = 1}
    for three classes, as the centroid of a plane polygon.

    Projected onto (rho_0, rho_1), the region is the box [l0, u0] x [l1, u1]
    cut by the half-planes rho_0 + rho_1 <= 1 - l2 and rho_0 + rho_1 >= 1 - u2.
    The projection is linear, so the uniform law maps to the uniform law on
    the polygon.  The box is clipped by each half-plane (Sutherland-Hodgman)
    and the shoelace formula gives the centroid, all in Fractions.  The region
    must have positive area.
    """
    lo = [F(x) for x in lower]
    hi = [F(x) for x in upper]
    poly = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
    for sign, bound in ((1, 1 - lo[2]), (-1, hi[2] - 1)):  # keep sign*(x+y) <= bound
        slack = [bound - sign * (x + y) for x, y in poly]
        clipped = []
        for k, p in enumerate(poly):
            q, f_p, f_q = poly[(k + 1) % len(poly)], slack[k], slack[(k + 1) % len(poly)]
            if f_p >= 0:
                clipped.append(p)
            if f_p * f_q < 0:
                r = f_p / (f_p - f_q)
                clipped.append((p[0] + r * (q[0] - p[0]), p[1] + r * (q[1] - p[1])))
        poly = clipped
    area2 = cx = cy = F(0)
    for k, (x0, y0) in enumerate(poly):
        x1, y1 = poly[(k + 1) % len(poly)]
        cross = x0 * y1 - x1 * y0
        area2 += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    assert area2 != 0, "the region has no area"
    cx /= 3 * area2
    cy /= 3 * area2
    return [cx, cy, 1 - cx - cy]


MNAR_PI_F = ((F("0.2"), F("0.3")), (F("0.7"), F("0.8")))
MNAR_P = oracle_testing_prevalence(BASE_RHO_F, MNAR_PI_F)
MNAR_CORRECTED_LIMIT = oracle_corrected_limit(BASE_RHO_F, MNAR_PI_F)
assert MNAR_P == F(27, 64)
assert MNAR_CORRECTED_LIMIT == F(776, 3410)


# Rejection sampling of the uniform law on a share region: the Monte Carlo
# oracle that maxent.mean_shares (c8, TestMeanShares) is checked against.
MIN_ACCEPTANCE = 1e-6
_PROBE_PROPOSALS = 2_000_000
_MAX_PROPOSALS = 50_000_000


class RejectionStarvation(PrevBiasError):
    """Rejection sampling accepts too small a fraction of proposals to be usable."""


@dataclass(frozen=True, eq=False)
class ShareEstimate:
    """Monte Carlo estimate of the mean shares with per-class standard errors."""

    estimate: np.ndarray
    stderr: np.ndarray
    n_samples: int
    acceptance_rate: float


def expected_shares(slab: SimplexSlab, rng=None, n_samples: int = 4096) -> ShareEstimate:
    """Mean of the uniform distribution on the feasible share region.

    Proposes uniform points on the simplex and keeps those inside the box
    bounds until ``n_samples`` draws are accepted; the accepted points are
    exactly uniform on the region.  A degenerate (single-point) region is
    returned exactly, with zero standard errors and no randomness consumed.

    Raises
    ------
    RejectionStarvation
        If the acceptance rate stays below ``1e-6``, i.e. the region is too
        thin a sliver of the simplex for rejection sampling to be practical.
    """
    if slab.is_degenerate:
        zeros = np.zeros(slab.s)
        return ShareEstimate(
            estimate=slab.lower.copy(), stderr=zeros, n_samples=0, acceptance_rate=1.0
        )
    if rng is None:
        raise InvalidSpec("a non-degenerate region needs an RngStream for integration")
    if n_samples < 1:
        raise InvalidSpec("n_samples must be at least 1")

    gen = as_generator(rng)
    alpha = np.ones(slab.s)
    accepted: list[np.ndarray] = []
    n_accepted = 0
    proposals = 0
    batch = max(8192, int(n_samples))
    while n_accepted < n_samples:
        draws = gen.dirichlet(alpha, size=batch)
        keep = np.all((draws >= slab.lower) & (draws <= slab.upper), axis=1)
        kept = draws[keep]
        if kept.shape[0]:
            accepted.append(kept)
            n_accepted += kept.shape[0]
        proposals += batch
        rate = n_accepted / proposals
        if proposals >= _PROBE_PROPOSALS and rate < MIN_ACCEPTANCE:
            raise RejectionStarvation(
                f"acceptance rate {rate:.2e} below {MIN_ACCEPTANCE:.0e} "
                f"after {proposals} proposals"
            )
        if proposals >= _MAX_PROPOSALS:
            raise RejectionStarvation(
                f"gave up after {proposals} proposals with acceptance rate {rate:.2e}"
            )

    samples = np.concatenate(accepted, axis=0)[:n_samples]
    estimate = samples.mean(axis=0)
    estimate = estimate / estimate.sum()
    if n_samples > 1:
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_samples)
    else:
        stderr = np.full(slab.s, np.nan)
    return ShareEstimate(
        estimate=estimate,
        stderr=stderr,
        n_samples=int(n_samples),
        acceptance_rate=n_accepted / proposals,
    )


def random_integer_spec(rng, n=None, s_count=None, pi_mode="free"):
    """A random valid population built from integer cell sizes."""
    s_count = s_count or int(rng.integers(1, 4))
    n = n or int(rng.integers(s_count * 2, 40))
    cuts = np.sort(rng.integers(0, n + 1, size=2 * s_count - 1))
    sizes = np.diff(np.concatenate(([0], cuts, [n]))).reshape(s_count, 2)
    rho = [[F(int(sizes[s, i]), n) for i in range(2)] for s in range(s_count)]
    if pi_mode == "equal":
        pi = np.full((s_count, 2), float(rng.uniform(0.05, 1.0)))
    elif pi_mode == "mar":
        col = rng.uniform(0.05, 1.0, size=s_count)
        pi = np.column_stack([col, col])
    else:
        pi = rng.uniform(0.05, 1.0, size=(s_count, 2))
    return PopulationSpec(n=n, rho=rho, pi=pi)
