"""Monte Carlo study runner: replicate engine, tables, and CI fans.

A scenario fixes the population shape (shares, testing probabilities), a
correction mechanism, a grid of population sizes, a replicate count, a
confidence level, and a seed.  Replicate ``r`` at grid position ``k`` draws
from the dedicated stream ``(seed, k * replicates + r)``, so replicates are
independent work items: any thread layout produces the same records, and
aggregation happens in replicate order.  Reports are therefore byte-stable
for a given configuration.

Aggregation of the information tables averages the probability estimates
across replicates first and takes logarithms of the means.  When the
population violates the per-symptom testing assumption (probabilities that
differ by infection status), the testing-bias term is measured against the
true prevalence instead of the corrected mean, since the corrected mean no
longer converges to the truth; the residual term ``log(mean p0_hat / p0)``
is reported for every mechanism.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .asymptotics import ci_logit_prevalence, mechanism_plugin_inputs, plugin_variances, sigma_p0
from .errors import (
    BoundaryEstimate,
    EmptySample,
    EmptyStratum,
    InvalidSpec,
    MechanismMismatch,
)
from .estimators import p_hat, share_weighted_p0
from .maxent import SimplexSlab, mean_shares
from .model import MAR, MAXENT, MCAR, Mechanism, PopulationSpec, population_prevalence
from .rng import RngStream
from .sampler import draw_outcome


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


@dataclass(frozen=True, slots=True)
class ReplicateRecord:
    """Per-replicate results; ``ok`` is False for discarded replicates
    (an empty sample or an empty positively-weighted class)."""

    n: int
    rep: int
    ok: bool
    p_hat: float
    p0_hat: float
    sigma_p0: float
    lo: float
    hi: float
    hit: bool
    boundary: bool
    degenerate: bool
    it_defined: bool


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


_DISCARDED = dict(
    ok=False,
    p_hat=math.nan,
    p0_hat=math.nan,
    sigma_p0=math.nan,
    lo=math.nan,
    hi=math.nan,
    hit=False,
    boundary=False,
    degenerate=False,
    it_defined=False,
)


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


def _run_replicate(spec, mechanism, shares, p0_true, alpha, seed, stream, n, rep):
    gen = RngStream(seed, stream).generator()
    outcome = draw_outcome(spec, gen)
    try:
        p_h = p_hat(outcome)
        if mechanism.kind == MCAR:
            p0_h = p_h
        else:
            p0_h = share_weighted_p0(outcome, shares)
    except (EmptySample, EmptyStratum):
        return ReplicateRecord(n=n, rep=rep, **_DISCARDED)

    pi_hat, rho_hat = mechanism_plugin_inputs(outcome, mechanism, shares)
    v = plugin_variances(outcome, pi_hat, rho_hat)
    s_p0 = sigma_p0(v, spec.n)
    try:
        ci = ci_logit_prevalence(p0_h, s_p0, alpha)
        lo, hi, hit, boundary = ci.lo, ci.hi, ci.contains(p0_true), False
    except BoundaryEstimate:
        lo = hi = math.nan
        hit, boundary = False, True
    return ReplicateRecord(
        n=n,
        rep=rep,
        ok=True,
        p_hat=p_h,
        p0_hat=p0_h,
        sigma_p0=s_p0,
        lo=lo,
        hi=hi,
        hit=hit,
        boundary=boundary,
        degenerate=v.degenerate,
        it_defined=p_h > 0.0 and p0_h > 0.0,
    )


def _run_records(cfg: ScenarioConfig, threads: int | None) -> list[list[ReplicateRecord]]:
    workers = threads if threads else (os.cpu_count() or 1)
    shares = _scenario_shares(cfg)
    reps = cfg.replicates
    per_n: list[list[ReplicateRecord]] = []
    tasks = []
    for k, n in enumerate(cfg.n_grid):
        spec = cfg.spec_for(n)
        p0_true = population_prevalence(spec)
        slots: list[ReplicateRecord | None] = [None] * reps
        per_n.append(slots)  # type: ignore[arg-type]
        chunk = max(1, math.ceil(reps / workers))
        for start in range(0, reps, chunk):
            stop = min(start + chunk, reps)
            tasks.append((k, spec, p0_true, start, stop))

    def run_chunk(task):
        k, spec, p0_true, start, stop = task
        base = k * reps
        return k, start, [
            _run_replicate(spec, cfg.mechanism, shares, p0_true, cfg.alpha, cfg.seed, base + r, spec.n, r)
            for r in range(start, stop)
        ]

    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, tasks))
    else:
        results = [run_chunk(t) for t in tasks]
    for k, start, records in results:
        per_n[k][start : start + len(records)] = records
    return per_n


def _log_ratio(numerator: float, denominator: float) -> float:
    if numerator > 0.0 and denominator > 0.0:
        return math.log(numerator / denominator)
    return math.nan


def run_experiment(cfg: ScenarioConfig, threads: int | None = None) -> ExperimentReport:
    """Run the scenario and aggregate every table in one pass."""
    record_lists = _run_records(cfg, threads)
    mar_compatible = cfg.spec_for(cfg.n_grid[0]).is_mar
    rows = []
    fan = []
    for k, n in enumerate(cfg.n_grid):
        records = record_lists[k]
        p0_true = population_prevalence(cfg.spec_for(n))
        kept = [r for r in records if r.ok]
        p_hats = np.array([r.p_hat for r in kept])
        p0_hats = np.array([r.p0_hat for r in kept])
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
            rmse_sd = float(abs_err.std(ddof=1)) if len(kept) > 1 else math.nan
            coverage = float(np.mean([r.hit for r in kept]))
        else:
            rmse = rmse_sd = coverage = math.nan

        rows.append(
            ReportRow(
                n=n,
                replicates=cfg.replicates,
                kept=len(kept),
                discarded=cfg.replicates - len(kept),
                undefined_active_info=sum(1 for r in kept if not r.it_defined),
                mean_p_hat=mean_p,
                mean_p0_hat=mean_p0,
                i_plus_t=i_t,
                i_plus_c=i_c,
                i_plus=i_plus,
                rmse_p0=rmse,
                rmse_abs_sd=rmse_sd,
                coverage=coverage,
                boundary_misses=sum(1 for r in kept if r.boundary),
            )
        )
        fan.extend(
            FanRecord(n=n, rep=r.rep, p0_hat=r.p0_hat, lo=r.lo, hi=r.hi, hit=r.hit)
            for r in records
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
