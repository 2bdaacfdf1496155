"""Monte Carlo study runner: replicate engine, tables, and CI fans.

A scenario fixes the population shape (shares, testing probabilities), a
correction mechanism, a grid of population sizes, a replicate count, a
confidence level, and a seed.  Replicate ``r`` at grid position ``k`` draws
from the dedicated stream ``(seed, k * replicates + r)``, so replicates are
independent work items: any thread layout draws the same counts, and
aggregation happens in replicate order.  Reports are therefore byte-stable
for a given configuration.

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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .asymptotics import _expit, normal_quantile
from .errors import InvalidSpec, MechanismMismatch
from .maxent import SimplexSlab, mean_shares
from .model import MAR, MAXENT, MCAR, Mechanism, PopulationSpec, population_prevalence
from .rng import stream_generator

# interval endpoints are clamped strictly inside (0, 1), as in ci_logit_prevalence
_ABOVE_ZERO = math.nextafter(0.0, 1.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _exact_fraction(value, where: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError as exc:
            raise InvalidSpec(f"{where} is not a number: {value!r}") from exc
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        # repr() is the shortest round-tripping decimal, i.e. what the author
        # wrote for literals like 0.05; deliberately non-representable values
        # (e.g. 1/3) still fail the integer-size checks downstream.
        return Fraction(repr(float(value)))
    raise InvalidSpec(f"{where} has unsupported type {type(value).__name__}")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything needed to reproduce one Monte Carlo experiment."""

    rho: tuple[tuple[Fraction, Fraction], ...]
    pi: np.ndarray
    mechanism: Mechanism
    n_grid: tuple[int, ...]
    replicates: int
    alpha: float
    seed: int
    label: str

    def __post_init__(self):
        rho_rows = []
        for s, row in enumerate(self.rho):
            cells = tuple(_exact_fraction(cell, f"rho[{s},{i}]") for i, cell in enumerate(row))
            if len(cells) != 2:
                raise InvalidSpec(f"rho[{s}] must have exactly two entries")
            rho_rows.append(cells)
        rho_exact = tuple(rho_rows)
        total = sum(cell for row in rho_exact for cell in row)
        if total != 1:
            raise InvalidSpec(f"shares must sum to 1 exactly, got {total}")
        object.__setattr__(self, "rho", rho_exact)

        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (len(rho_exact), 2):
            raise InvalidSpec(f"pi must have shape ({len(rho_exact)}, 2), got {pi.shape}")
        if np.any((pi < 0.0) | (pi > 1.0)):
            raise InvalidSpec("testing probabilities must lie in [0, 1]")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

        grid = tuple(int(n) for n in self.n_grid)
        if not grid:
            raise InvalidSpec("n_grid must not be empty")
        if any(n < 1 for n in grid):
            raise InvalidSpec("population sizes must be positive")
        object.__setattr__(self, "n_grid", grid)
        for n in grid:
            for s, row in enumerate(rho_exact):
                for i, cell in enumerate(row):
                    if (cell * n).denominator != 1:
                        raise InvalidSpec(
                            f"stratum (s={s}, i={i}): N*rho = {n}*{cell} is not an integer"
                        )

        if not isinstance(self.replicates, (int, np.integer)) or self.replicates < 1:
            raise InvalidSpec("replicates must be a positive integer")
        object.__setattr__(self, "replicates", int(self.replicates))
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidSpec(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= int(self.seed) < 2**64:
            raise InvalidSpec("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        if not self.label or not isinstance(self.label, str):
            raise InvalidSpec("label must be a non-empty string")

        self.mechanism.check_against(self.spec_for(grid[0]))

    def spec_for(self, n: int) -> PopulationSpec:
        """Materialise the population at one grid size (exact share path)."""
        return PopulationSpec(n=n, rho=self.rho, pi=self.pi)

    @property
    def rho_s(self) -> np.ndarray:
        return np.array([float(row[0] + row[1]) for row in self.rho])


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


@dataclass(frozen=True)
class FanRecord:
    """One replicate's interval for the fan plots (NaN endpoints when the
    replicate was discarded or ended on a boundary estimate)."""

    n: int
    rep: int
    p0_hat: float
    lo: float
    hi: float
    hit: bool


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    label: str
    mechanism: str
    alpha: float
    seed: int
    n_grid: tuple[int, ...]
    replicates: int
    rows: tuple[ReportRow, ...]
    fan: tuple[FanRecord, ...]


def _scenario_shares(cfg: ScenarioConfig) -> np.ndarray | None:
    """Share weights used by the corrected estimator, fixed per scenario."""
    mech = cfg.mechanism
    if mech.kind == MAR:
        return np.asarray(mech.rho_s, dtype=float)
    if mech.kind == MAXENT:
        if mech.lower is None:
            raise InvalidSpec("scenario maxent mechanisms need explicit share bounds")
        return mean_shares(SimplexSlab(mech.lower, mech.upper))
    return None  # mcar reweights by the observed sample fractions


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


def _draw_rows(spec: PopulationSpec, seed: int, base: int, start: int, stop: int) -> list[list[int]]:
    """Flattened counts of replicates ``start..stop-1``, replicate ``r`` from
    stream ``(seed, base + r)``.  One scalar binomial call per cell in C order
    draws what :func:`prevbias.sampler.draw_outcome`'s array call draws from
    the same stream, and costs less for a handful of cells."""
    cells = list(zip(spec.n_si.ravel().tolist(), spec.pi.ravel().tolist()))
    rows = []
    for r in range(start, stop):
        binomial = stream_generator(seed, base + r).binomial
        rows.append([binomial(size, p) for size, p in cells])
    return rows


def _draw_counts(cfg: ScenarioConfig, specs: list[PopulationSpec], threads: int | None) -> list[np.ndarray]:
    """One ``(replicates, S, 2)`` counts array per grid position.  Threads fill
    disjoint replicate slices; every replicate has its own stream, so the
    arrays do not depend on the thread count."""
    workers = threads if threads else (os.cpu_count() or 1)
    reps = cfg.replicates
    chunk = max(1, math.ceil(reps / workers))
    counts = [np.empty((reps, spec.s, 2), dtype=np.int64) for spec in specs]
    tasks = [
        (k, start, min(start + chunk, reps)) for k in range(len(specs)) for start in range(0, reps, chunk)
    ]

    def fill(task):
        k, start, stop = task
        rows = _draw_rows(specs[k], cfg.seed, k * reps, start, stop)
        counts[k][start:stop] = np.array(rows, dtype=np.int64).reshape(stop - start, -1, 2)

    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, tasks))
    else:
        for task in tasks:
            fill(task)
    return counts


def replicate_columns(
    counts, n_si, mechanism: Mechanism, shares, p0_true: float, alpha: float
) -> ReplicateColumns:
    """Estimates, plug-in standard errors and logit intervals of every
    replicate in an ``(R, S, 2)`` counts array at once.

    Bit for bit what :func:`p_hat`, :func:`share_weighted_p0`,
    :func:`mechanism_plugin_inputs`, :func:`plugin_variances`,
    :func:`sigma_p0` and :func:`ci_logit_prevalence` give replicate by
    replicate (for populations below 2**53): sums over classes run in the
    scalar order, the interval uses the same ``math`` functions, and a
    negative V3 raises the ``ValueError`` of :func:`math.sqrt`.  ``shares``
    is the corrected estimator's share vector; it is ignored under mcar.
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
        if mechanism.kind == MCAR:
            ok = n_t > 0
            p0_h = p_h
            rho = n_ts / n_t[:, None]
            pi_hat = np.broadcast_to((n_t / n)[:, None], n_ts.shape)
        else:
            w = np.asarray(shares, dtype=float)
            ok = (n_t > 0) & ~np.any((w > 0.0) & (n_ts == 0), axis=1)
            p0_h = np.zeros(len(counts))
            for s in np.flatnonzero(w > 0.0):  # class by class, as the scalar sum
                p0_h = p0_h + w[s] * rates[:, s]
            rho = np.broadcast_to(w, n_ts.shape)
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
        # numpy sums each contiguous row as it sums the scalar path's 1-D array
        v3 = (ratio3 * odds * noise).sum(axis=1)
        if np.any(v3[ok] < 0.0):
            raise ValueError("math domain error")
        sigma = np.sqrt(v3 / n)

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


def run_experiment(cfg: ScenarioConfig, threads: int | None = None) -> ExperimentReport:
    """Run the scenario and aggregate every table in one pass."""
    shares = _scenario_shares(cfg)
    specs = [cfg.spec_for(n) for n in cfg.n_grid]
    all_counts = _draw_counts(cfg, specs, threads)
    mar_compatible = specs[0].is_mar
    rows = []
    fan = []
    for n, spec, counts in zip(cfg.n_grid, specs, all_counts):
        p0_true = population_prevalence(spec)
        cols = replicate_columns(counts, spec.n_si, cfg.mechanism, shares, p0_true, cfg.alpha)
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
        fan.extend(
            map(FanRecord, itertools.repeat(n), range(cfg.replicates), cols.p0_hat.tolist(),
                cols.lo.tolist(), cols.hi.tolist(), cols.hit.tolist())
        )
    return ExperimentReport(
        label=cfg.label,
        mechanism=cfg.mechanism.kind,
        alpha=cfg.alpha,
        seed=cfg.seed,
        n_grid=cfg.n_grid,
        replicates=cfg.replicates,
        rows=tuple(rows),
        fan=tuple(fan),
    )


def run_coverage_table(cfg: ScenarioConfig, threads: int | None = None) -> ExperimentReport:
    """Empirical interval coverage; defined for known-share (mar) scenarios."""
    if cfg.mechanism.kind != MAR:
        raise MechanismMismatch("coverage tables are defined for mar scenarios")
    return run_experiment(cfg, threads)
