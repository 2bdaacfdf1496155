"""Monte Carlo study runner: replicate engine, aggregate rows, and CI fan columns.

A scenario fixes the population shape (shares, testing probabilities), a
correction mechanism, a grid of population sizes, a replicate count, a
confidence level, and a seed.  Replicate ``r`` at grid position ``k`` draws
from the dedicated stream ``(seed, k * replicates + r)``, and aggregation
happens in replicate order, so reports are byte-stable for a given
configuration.

The engine works on one grid position at a time.  It draws every replicate's
counts into one ``(replicates, S, 2)`` array, then computes the estimates,
standard errors and intervals of all replicates at once
(:func:`replicate_columns`), with the same floating-point operations in the
same order as the one-shot functions in :mod:`prevbias.estimators` and
:mod:`prevbias.asymptotics`, which remain its reference.

Aggregation of the information tables averages the probability estimates
across replicates first and takes logarithms of the means.  When the
population violates the per-symptom testing assumption (probabilities that
differ by infection status), the testing-bias term is measured against the
true prevalence instead of the corrected mean, since the corrected mean no
longer converges to the truth; the residual term ``log(mean p0_hat / p0)``
is reported for every mechanism.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .asymptotics import _ABOVE_ZERO, _BELOW_ONE, _NEGATIVE_CAUSE, _expit, normal_quantile
from .errors import InvalidSpec, NegativeVarianceCombination
from .model import (
    MAXENT,
    MCAR,
    Mechanism,
    PopulationSpec,
    _cells,
    _coerce_cell,
    _coerce_matrix,
    _coerce_whole,
    population_prevalence,
)
from .rng import stream_generators


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything needed to reproduce one Monte Carlo experiment.

    Numbers are read as :class:`PopulationSpec` reads them: ``rho`` becomes
    exact Fractions, ``pi`` a read-only float array, and ``n_grid``,
    ``replicates`` and ``seed`` whole numbers.  ``specs`` holds the
    population at each grid size.  ``label`` names the report files, so it
    must be a plain file-name stem.
    """

    rho: tuple[tuple[Fraction, Fraction], ...]
    pi: np.ndarray
    mechanism: Mechanism
    n_grid: tuple[int, ...]
    replicates: int
    alpha: float
    seed: int
    label: str
    specs: tuple[PopulationSpec, ...] = field(init=False, repr=False)

    def __post_init__(self):
        rho = _coerce_matrix(self.rho, "rho")
        cells = _cells(self.n_grid, "n_grid")
        grid = tuple(_coerce_whole(n, f"n_grid[{k}]", low=1) for k, n in enumerate(cells))
        specs = tuple(PopulationSpec(n=n, rho=rho, pi=self.pi) for n in grid)
        alpha = float(_coerce_cell(self.alpha, "alpha"))
        if not 0.0 < alpha <= 1.0:
            raise InvalidSpec(f"alpha must lie in (0, 1], got {alpha!r}")
        label = self.label
        if not isinstance(label, str) or label in ("", ".", "..") or any(c in label for c in "/\\\0"):
            raise InvalidSpec(f"label must be a plain file-name stem, got {label!r}")
        if self.mechanism.kind == MAXENT and self.mechanism.slab is None:
            raise InvalidSpec("scenario maxent mechanisms need explicit share bounds")
        self.mechanism.check_against(specs[0])
        for name, value in (
            ("rho", rho),
            ("pi", specs[0].pi),
            ("n_grid", grid),
            ("replicates", _coerce_whole(self.replicates, "replicates", low=1)),
            ("alpha", alpha),
            ("seed", _coerce_whole(self.seed, "seed", high=2**64 - 1)),
            ("specs", specs),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ReportRow:
    """Aggregates for one population size."""

    n: int
    replicates: int
    kept: int
    discarded: int
    undefined_active_info: int
    mean_p_hat: float
    mean_p0_hat: float
    i_plus_t: float
    i_plus_c: float
    i_plus: float
    rmse_p0: float
    rmse_abs_sd: float
    coverage: float
    boundary_misses: int


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """The aggregates of every grid position, and the interval fan: one
    entry per replicate per position in each of the columns ``n``, ``rep``,
    ``p0_hat``, ``lo``, ``hi`` and ``hit`` (NaN estimate and endpoints when
    the replicate was discarded, NaN endpoints on a boundary estimate)."""

    rows: tuple[ReportRow, ...]
    fan: dict[str, list]


@dataclass(frozen=True, eq=False)
class ReplicateColumns:
    """Per-replicate results at one grid position, one array entry per
    replicate.  ``ok`` is False for discarded replicates (an empty sample or
    an empty positively-weighted class); their floats are NaN and their flags
    False.  Boundary estimates (0 or 1) have NaN endpoints and no hit."""

    ok: np.ndarray
    p_hat: np.ndarray
    p0_hat: np.ndarray
    sigma_p0: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    hit: np.ndarray
    boundary: np.ndarray
    degenerate: np.ndarray
    it_defined: np.ndarray


def _draw_counts(cfg: ScenarioConfig) -> list[np.ndarray]:
    """One ``(replicates, S, 2)`` counts array per grid position, replicate
    ``r`` at position ``k`` from stream ``(seed, k * replicates + r)``.  One
    scalar binomial call per cell in C order draws what
    :func:`prevbias.sampler.draw_outcome`'s array call draws from the same
    stream, and costs less for a handful of cells."""
    reps = cfg.replicates
    generators = stream_generators(cfg.seed, np.arange(len(cfg.specs) * reps, dtype=np.uint64))
    counts = []
    for spec in cfg.specs:
        cells = list(zip(spec.n_si.ravel().tolist(), spec.pi.ravel().tolist()))
        rows = [[gen.binomial(size, p) for size, p in cells] for gen in itertools.islice(generators, reps)]
        counts.append(np.array(rows, dtype=np.int64).reshape(reps, spec.s, 2))
    return counts


def replicate_columns(counts, n_si, mechanism: Mechanism, p0_true: float, alpha: float) -> ReplicateColumns:
    """Estimates, plug-in standard errors and logit intervals of every
    replicate in an ``(R, S, 2)`` counts array at once, weighted by the
    mechanism's share vector (:meth:`Mechanism.shares`).

    Bit for bit what :func:`p_hat`, :func:`share_weighted_p0`,
    :func:`mechanism_plugin_inputs`, :func:`plugin_variances`,
    :func:`sigma_p0` and :func:`ci_logit_prevalence` give replicate by
    replicate (for populations below 2**53): sums over classes run in the
    scalar order, the interval uses the same ``math`` functions, and a
    negative V3 in a kept replicate raises the
    :class:`NegativeVarianceCombination` of :func:`sigma_p0`.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_si = np.asarray(n_si, dtype=np.int64)
    if counts.ndim != 3 or counts.shape[1:] != n_si.shape or n_si.shape[1:] != (2,):
        raise InvalidSpec(f"counts of shape {counts.shape} do not match the strata {n_si.shape}")
    if np.any(counts < 0) or np.any(counts > n_si):
        raise InvalidSpec("tested counts must lie between 0 and their stratum sizes")
    n = int(n_si.sum())
    positives = counts[:, :, 1]
    n_ts = counts.sum(axis=2)
    n_t = n_ts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_h = positives.sum(axis=1) / n_t
        rates = positives / n_ts
        w = np.asarray(mechanism.shares(n, n_ts))  # (R, S) sample fractions under mcar, else (S,)
        rho = np.broadcast_to(w, n_ts.shape)
        ok = (n_t > 0) & ~np.any((rho > 0.0) & (n_ts == 0), axis=1)
        if mechanism.kind == MCAR:
            p0_h = p_h
            pi_hat = np.broadcast_to((n_t / n)[:, None], n_ts.shape)
        else:
            p0_h = np.zeros(len(counts))
            for s in np.flatnonzero(w > 0.0):  # class by class, as the scalar sum
                p0_h = p0_h + w[s] * rates[:, s]
            pi_hat = n_ts / (n * w)

        # plugin_variances with rho_bar = rho_hat, reduced to V3
        active = rho > 0.0
        p0s = np.where(n_ts > 0, rates, 0.0)
        degenerate = ok & np.any(active & ((p0s == 0.0) | (p0s == 1.0)), axis=1)
        r = np.where(active, rho, 0.0)
        pi_safe = np.where(active, pi_hat, 1.0)
        noise = p0s * (1.0 - p0s)
        odds = (1.0 - pi_safe) / pi_safe
        ratio3 = np.where(active, r**2 / np.where(active, r, 1.0), 0.0)
        terms = ratio3 * odds * noise
        v3 = np.zeros(len(counts))
        for s in range(terms.shape[1]):  # class by class, as the scalar ordered_sum
            v3 = v3 + terms[:, s]
        v3 = v3 / n
        negative = np.flatnonzero(ok & (v3 < 0.0))
        if negative.size:
            raise NegativeVarianceCombination(
                f"V3 / N is negative in {negative.size} of {len(counts)} replicates at N = {n} "
                f"(first: replicate {negative[0]}); {_NEGATIVE_CAUSE}"
            )
        sigma = np.sqrt(v3)

        p_h = np.where(ok, p_h, np.nan)
        p0_h = np.where(ok, p0_h, np.nan)
        sigma = np.where(ok, sigma, np.nan)
        interior = ok & (0.0 < p0_h) & (p0_h < 1.0)
        half = normal_quantile(alpha) * sigma / (p0_h * (1.0 - p0_h))
        odds_est = p0_h / (1.0 - p0_h)

    lo = np.full(len(counts), np.nan)
    hi = lo.copy()
    idx = np.flatnonzero(interior)
    lo_l, hi_l = [], []
    for est, hw, ratio in zip(p0_h[idx].tolist(), half[idx].tolist(), odds_est[idx].tolist()):
        if hw == 0.0:
            lo_l.append(est)
            hi_l.append(est)
            continue
        center = math.log(ratio)
        lo_l.append(min(max(_expit(center - hw), _ABOVE_ZERO), est))
        hi_l.append(max(min(_expit(center + hw), _BELOW_ONE), est))
    lo[idx] = lo_l
    hi[idx] = hi_l
    return ReplicateColumns(
        ok=ok,
        p_hat=p_h,
        p0_hat=p0_h,
        sigma_p0=sigma,
        lo=lo,
        hi=hi,
        hit=(lo <= p0_true) & (p0_true <= hi),
        boundary=ok & ~interior,
        degenerate=degenerate,
        it_defined=ok & (p_h > 0.0) & (p0_h > 0.0),
    )


def _log_ratio(numerator: float, denominator: float) -> float:
    if numerator > 0.0 and denominator > 0.0:
        return math.log(numerator / denominator)
    return math.nan


def run_experiment(cfg: ScenarioConfig) -> ExperimentReport:
    """Run the scenario and aggregate every table in one pass; the draws run
    in one thread, in stream order."""
    mar_compatible = cfg.specs[0].is_mar
    rows = []
    fan = {name: [] for name in ("n", "rep", "p0_hat", "lo", "hi", "hit")}
    for n, spec, counts in zip(cfg.n_grid, cfg.specs, _draw_counts(cfg)):
        p0_true = population_prevalence(spec)
        cols = replicate_columns(counts, spec.n_si, cfg.mechanism, p0_true, cfg.alpha)
        kept = int(cols.ok.sum())
        p_hats = cols.p_hat[cols.ok]
        p0_hats = cols.p0_hat[cols.ok]
        mean_p = float(p_hats.mean()) if kept else math.nan
        mean_p0 = float(p0_hats.mean()) if kept else math.nan

        # Probabilities are averaged across replicates before any logarithm.
        if mar_compatible:
            i_t = _log_ratio(mean_p, mean_p0)
        else:
            i_t = _log_ratio(mean_p, p0_true)
        i_c = _log_ratio(mean_p0, mean_p)
        i_plus = _log_ratio(mean_p0, p0_true)

        if kept:
            errors = p0_hats - p0_true
            rmse = float(np.sqrt(np.mean(errors**2)))
            abs_err = np.abs(errors)
            rmse_sd = float(abs_err.std(ddof=1)) if kept > 1 else math.nan
            coverage = float(np.mean(cols.hit[cols.ok]))
        else:
            rmse = rmse_sd = coverage = math.nan

        rows.append(
            ReportRow(
                n=n,
                replicates=cfg.replicates,
                kept=kept,
                discarded=cfg.replicates - kept,
                undefined_active_info=kept - int(cols.it_defined.sum()),
                mean_p_hat=mean_p,
                mean_p0_hat=mean_p0,
                i_plus_t=i_t,
                i_plus_c=i_c,
                i_plus=i_plus,
                rmse_p0=rmse,
                rmse_abs_sd=rmse_sd,
                coverage=coverage,
                boundary_misses=int(cols.boundary.sum()),
            )
        )
        fan["n"] += [n] * cfg.replicates
        fan["rep"] += range(cfg.replicates)
        fan["p0_hat"] += cols.p0_hat.tolist()
        fan["lo"] += cols.lo.tolist()
        fan["hi"] += cols.hi.tolist()
        fan["hit"] += cols.hit.tolist()
    return ExperimentReport(rows=tuple(rows), fan=fan)
