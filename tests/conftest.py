"""Shared fixtures and independent oracles.

The oracle helpers below recompute every closed-form target with exact
rational arithmetic (:mod:`fractions`), separately from the package's float
implementations, so the unit tests compare two independent evaluation paths.
"""

import math
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np
import pytest

from prevbias import (
    EmptyStratum,
    InvalidSpec,
    Mechanism,
    PopulationSpec,
    PrevBiasError,
    SimplexSlab,
    VarianceEstimates,
)

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
    if slab.lower == slab.upper:
        zeros = np.zeros(slab.s)
        return ShareEstimate(
            estimate=np.array(slab.lower), stderr=zeros, n_samples=0, acceptance_rate=1.0
        )
    if rng is None:
        raise InvalidSpec("a non-degenerate region needs an RngStream for integration")
    if n_samples < 1:
        raise InvalidSpec("n_samples must be at least 1")

    gen = rng.generator()
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


# Helpers the package dropped because only tests called them.


def sample_fractions(outcome):
    """Observed class fractions in the sample, ``N_Ts / N_T``."""
    return [n_ts / outcome.n_t for n_ts in outcome.n_ts]


def covid_slab(n, n_t, n_t1):
    """Two-class bounds implied by convenience sampling of symptomatics,
    ``N_T1 / N <= rho_1 <= N_T1 / N_T``; their centroid is ``covid_shares``."""
    a1 = n_t1 / n
    b1 = n_t1 / n_t
    return SimplexSlab(lower=np.array([1.0 - b1, a1]), upper=np.array([1.0 - a1, b1]))


# The numpy plug-in variances that the one-shot estimators used before they
# moved to Python floats: the oracle that the plug-in variances of
# `build_bundle` are held to (bit for bit below eight classes, where numpy
# sums left to right).


def oracle_plugin_variances(outcome, pi_hat_s, rho_hat_s, rho_bar_hat_s=None):
    pi_hat = np.asarray(pi_hat_s, dtype=float)
    rho_hat = np.asarray(rho_hat_s, dtype=float)
    rho_bar = rho_hat if rho_bar_hat_s is None else np.asarray(rho_bar_hat_s, dtype=float)
    s_count = outcome.s
    for name, vec in (("pi_hat_s", pi_hat), ("rho_hat_s", rho_hat), ("rho_bar_hat_s", rho_bar)):
        if vec.shape != (s_count,):
            raise InvalidSpec(f"{name} must have one entry per symptom class")

    active = rho_hat > 0.0
    counts = np.array(outcome.counts, dtype=np.int64)
    n_ts = counts.sum(axis=1)
    missing = [s for s in range(s_count) if active[s] and n_ts[s] == 0]
    if missing:
        raise EmptyStratum(missing)
    if np.any(pi_hat[active] <= 0.0):
        raise InvalidSpec("pi_hat must be positive on positively weighted classes")

    p0s_hat = np.zeros(s_count)
    np.divide(counts[:, 1], n_ts, out=p0s_hat, where=n_ts > 0)
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


def oracle_plugin_inputs(outcome, mechanism):
    n_ts = np.array(outcome.n_ts, dtype=np.int64)
    rho_hat = np.asarray(mechanism.shares(outcome.n, n_ts), dtype=float)
    if mechanism.kind == "mcar":
        return np.full(outcome.s, outcome.n_t / outcome.n, dtype=float), rho_hat
    pi_hat = np.full(outcome.s, np.nan)
    np.divide(n_ts, outcome.n * rho_hat, out=pi_hat, where=rho_hat > 0)
    return pi_hat, rho_hat


# Seeded count tables for `prevbias estimate`, the inputs of the reply
# invariants in tests/test_extreme_inputs.py.

SUBNORMAL_SHARES = (5e-324, 1e-310)


def _shares(rng, s_count, edge):
    """Class shares summing to 1, with one of them 0 or subnormal by ``edge``."""
    w = rng.dirichlet(np.ones(s_count))
    if s_count > 1 and edge in ("zero", "subnormal"):
        k = rng.integers(s_count)
        w[k] = 0.0
        w /= w.sum()
        if edge == "subnormal":
            w[k] = SUBNORMAL_SHARES[rng.integers(len(SUBNORMAL_SHARES))]
    return w.tolist()


def generated_count_table(rng) -> dict:
    """One count-table document: S = 1..4 classes, N log-uniform from 10 to
    1e6, alpha log-uniform from 1e-20 to 1, tested counts drawn from a random
    population of N, and a mechanism of every form (mcar, mar, the closed-form
    maxent, bounded maxent) with shares that may hold a zero or subnormal
    share.  About a quarter of the tables have an empty class, a class
    without positives or without negatives, or an empty sample."""
    s_count = int(rng.integers(1, 5))
    n = int(10.0 ** rng.uniform(1.0, 6.0))
    sizes = rng.multinomial(n, rng.dirichlet(np.ones(2 * s_count))).reshape(s_count, 2)
    counts = rng.binomial(sizes, rng.uniform(0.0, 1.0, size=(s_count, 2)))
    edit = rng.integers(10)
    if edit == 0:
        counts[rng.integers(s_count)] = 0  # an empty class
    elif edit == 1:
        counts[rng.integers(s_count), rng.integers(2)] = 0  # no positives, or only positives
    elif edit == 2 and rng.random() < 0.5:
        counts[:] = 0  # an empty sample
    edge = ("none", "none", "zero", "subnormal")[rng.integers(4)]
    kind = rng.integers(4)
    if kind == 0:
        mechanism = {"type": "mcar"}
    elif kind == 1:
        mechanism = {"type": "mar", "rho_s": _shares(rng, s_count, edge)}
    elif kind == 2:
        mechanism = {"type": "maxent"}  # the closed form, which needs two classes
    else:
        centre = np.array(_shares(rng, s_count, edge))
        spread = rng.uniform(0.0, 0.2, s_count) * (centre > 0.01)  # pinned shares stay pinned
        lower, upper = np.maximum(centre - spread, 0.0), np.minimum(centre + spread, 1.0)
        mechanism = {"type": "maxent", "lower": lower.tolist(), "upper": upper.tolist()}
    alpha = 1.0 if rng.random() < 0.05 else float(10.0 ** rng.uniform(-20.0, 0.0))
    return {"N": n, "counts": counts.tolist(), "mechanism": mechanism, "alpha": alpha}


def generated_count_tables(count: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [generated_count_table(rng) for _ in range(count)]


# The exact finite-N law of the study engine at one population: every count
# table the product-binomial draw can give, weighted by its probability, run
# through `replicate_columns` as the engine runs its draws.


def _cell_pmfs(spec):
    """Binomial pmfs of the cells in C order, in the floats `enumerate_outcomes` uses."""
    pmfs = []
    for size, p in zip(spec.n_si.ravel().tolist(), spec.pi.ravel().tolist()):
        pmfs.append(np.array([math.comb(size, k) * p**k * (1 - p) ** (size - k) for k in range(size + 1)]))
    return pmfs


def exact_count_tables(spec, chunk=1 << 16):
    """Every ``(R, S, 2)`` chunk of the ``prod(N_si + 1)`` count tables, in the
    order of `enumerate_outcomes`, with each table's probability: the product
    of its cells' binomial pmfs, multiplied in the same order."""
    pmfs = _cell_pmfs(spec)
    shape = tuple(len(pmf) for pmf in pmfs)
    total = math.prod(shape)
    for start in range(0, total, chunk):
        cells = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        prob = np.ones(cells[0].size)
        for pmf, k in zip(pmfs, cells):
            prob = prob * pmf[k]
        yield np.stack(cells, axis=1).reshape(-1, spec.s, 2), prob


EXACT_LAW_SUMS = ("total", "kept", "p0_hat", "p0_hat_sq", "cover_p0", "cover_p_bar0", "cover_i_t")


def exact_law(spec, mechanism, alpha):
    """Exact probabilities of what the study engine reports at ``spec``, for a
    mechanism with fixed shares (mar, bounded maxent).

    Returns ``total`` (the probability of all tables, 1 up to rounding),
    ``kept`` (P(kept)), the mean and variance of ``p0_hat`` given a kept
    table, and, given a kept table, the probability that ``ci_p0`` covers
    ``p0`` (``cover_p0``) and the corrected estimator's limit
    `corrected_prevalence_limit` (``cover_p_bar0``), and that the information
    interval ``I_T -/+ lambda sigma_IT`` covers ``log(p / p0)``
    (``cover_i_t``).  Boundary estimates carry no interval and count as
    misses.  ``sigma_IT`` is `sigma_it`'s expression on columns, with V1..V4
    from the engine's plug-in stage `_plugin_sums` on the same columns."""
    from prevbias import corrected_prevalence_limit, normal_quantile, population_prevalence
    from prevbias import testing_prevalence as prevalence_among_tested
    from prevbias.asymptotics import _CLIP_TOL, _plugin_sums
    from prevbias.experiments import replicate_columns

    n = spec.n
    p0, p_bar0 = population_prevalence(spec), corrected_prevalence_limit(spec, mechanism.rho_s)
    i_true = math.log(prevalence_among_tested(spec) / p0)
    lam = normal_quantile(alpha)
    shares = np.asarray(mechanism.rho_s)[:, None]
    sums = dict.fromkeys(EXACT_LAW_SUMS, 0.0)
    for counts, prob in exact_count_tables(spec):
        cols = replicate_columns(counts, spec.n_si, mechanism, p0, alpha)
        ok, p_h, p0_h = cols.ok, cols.p_hat, cols.p0_hat
        n_ts = counts.sum(axis=2).T
        with np.errstate(divide="ignore", invalid="ignore"):
            _, v1, v2, v3, v4, _ = _plugin_sums(
                n, n_ts.sum(axis=0), n_ts, counts[:, :, 1].T, shares, False, np.where
            )
            bracket = (v1 + v2) / (p_h * p_h) + v3 / (p0_h * p0_h) - 2.0 * v4 / (p_h * p0_h)
            sigma_i = np.sqrt(np.maximum(bracket, 0.0) / n)
            i_hat = np.log(p_h / p0_h)
        has_ci_i_t = ok & (0.0 < p_h) & (p_h < 1.0) & (0.0 < p0_h) & (p0_h < 1.0) & (bracket >= -_CLIP_TOL)
        covers_i_t = has_ci_i_t & (i_hat - lam * sigma_i <= i_true) & (i_true <= i_hat + lam * sigma_i)
        sums["total"] += prob.sum()
        sums["kept"] += prob[ok].sum()
        sums["p0_hat"] += prob[ok] @ p0_h[ok]
        sums["p0_hat_sq"] += prob[ok] @ (p0_h[ok] * p0_h[ok])
        sums["cover_p0"] += prob[cols.hit].sum()
        sums["cover_p_bar0"] += prob[(cols.lo <= p_bar0) & (p_bar0 <= cols.hi)].sum()
        sums["cover_i_t"] += prob[covers_i_t].sum()
    kept = sums["kept"]
    mean = sums["p0_hat"] / kept
    return {
        "total": sums["total"],
        "kept": kept,
        "mean_p0_hat": mean,
        "var_p0_hat": sums["p0_hat_sq"] / kept - mean * mean,
        **{key: sums[key] / kept for key in ("cover_p0", "cover_p_bar0", "cover_i_t")},
    }
