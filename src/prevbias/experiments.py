"""Monte Carlo study runner: replicate engine, aggregate rows, and CI fan columns.

A scenario fixes the population shape (shares, testing probabilities), a
correction mechanism, a grid of population sizes, a replicate count, a
confidence level, and a seed.  Grid position ``k`` draws from the stream
``(seed, k)``: one binomial call fills its ``(replicates, S, 2)`` counts
array in C order, so replicate ``r`` holds the stream's variates ``2S * r``
to ``2S * (r + 1) - 1``.  The first replicates of a position are therefore
the same for every replicate count, and a position's counts do not depend
on the rest of the grid.  Aggregation happens in replicate order, so reports
are byte-stable for a given configuration.

The engine works on one grid position at a time.  It draws every replicate's
counts, then computes the estimates, standard errors and intervals of all
replicates at once (:func:`replicate_columns`) on numpy columns, through the
plug-in stage ``_plugin_sums``, which decides the kept replicates, ``p0_hat``
and where the information is defined, and the prevalence-interval kernel
``_prevalence_interval``, both of which ``prevbias estimate`` calls on Python
floats; only ``math.log`` and ``math.exp`` run entry by entry.  It forms no
information interval, which no table reports, but keeps its V1..V4 columns.

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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .asymptotics import _plugin_sums, _prevalence_interval, normal_quantile
from .errors import InvalidSpec
from .model import MCAR, Mechanism, _cells, _coerce_alpha, _coerce_matrix, _coerce_whole
from .population import PopulationSpec, population_prevalence
from .rng import RngStream


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything needed to reproduce one Monte Carlo experiment.

    Numbers are read as :class:`PopulationSpec` reads them: ``rho`` becomes
    exact Fractions, ``pi`` a read-only float array, and ``n_grid``,
    ``replicates`` and ``seed`` whole numbers.  ``specs`` holds the
    population at each grid size, each checked against the mechanism.
    ``label`` names the report files, so it must be a plain file-name stem.
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
        alpha = _coerce_alpha(self.alpha)
        label = self.label
        if not isinstance(label, str) or label in ("", ".", "..") or any(c in label for c in "/\\\0"):
            raise InvalidSpec(f"label must be a plain file-name stem, got {label!r}")
        for spec in specs:
            self.mechanism.check_against(spec)
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
    False.  Boundary estimates (0 or 1) have NaN endpoints and no hit.
    ``sigma_p0`` is the standard error of ``p0_hat``, which is ``p_hat``
    under mcar, and ``variances`` holds the plug-in V1..V4 columns, whose
    entries mean nothing where ``ok`` is False."""

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
    variances: tuple


def _draw_counts(cfg: ScenarioConfig) -> list[np.ndarray]:
    """One ``(replicates, S, 2)`` counts array per grid position, position
    ``k`` from one array binomial call on stream ``(seed, k)``.  The call
    draws what scalar calls cell by cell in C order draw from that stream, so
    replicate 0 is :func:`prevbias.sampler.draw_outcome` on the stream."""
    return [
        RngStream(cfg.seed, k).generator().binomial(spec.n_si, spec.pi, size=(cfg.replicates, spec.s, 2))
        for k, spec in enumerate(cfg.specs)
    ]


def _libm(f):
    """``f`` on each entry of a float64 column, as on a Python float."""
    return lambda column: np.fromiter(map(f, column.tolist()), np.float64, column.size)


def replicate_columns(counts, n_si, mechanism: Mechanism, p0_true: float, alpha: float) -> ReplicateColumns:
    """Estimates, plug-in standard errors and logit intervals of every
    replicate in an ``(R, S, 2)`` counts array at once, weighted as
    :meth:`Mechanism.shares` weights: by each replicate's sample fractions
    under mcar, else by the fixed ``rho_s`` of a mechanism that has passed
    :meth:`Mechanism.check_against`.  Those shares are formed here; the
    rest, which replicates are kept and ``it_defined`` too, is the stage's.

    Bit for bit what :func:`build_bundle` and the prevalence-interval kernel
    ``_prevalence_interval`` give replicate by replicate on floats, as
    ``prevbias estimate`` runs them (for populations below 2**53): the same
    :func:`_plugin_sums` and kernel, here on columns.  A variance that is
    negative, NaN or infinite in a kept replicate raises the kernel's
    :class:`NegativeVarianceCombination`, which counts those replicates.
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
    mcar = mechanism.kind == MCAR
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p_h = positives.sum(axis=1) / n_t
        # one row per replicate: its sample fractions under mcar, else the fixed shares
        shares = n_ts / n_t[:, None] if mcar else np.broadcast_to(mechanism.rho_s, n_ts.shape)
        # as build_bundle, on (S, R) columns
        ok, _, p0_h, _, it_defined, v, degenerate = _plugin_sums(
            n, n_t, n_ts.T, positives.T, shares.T, p_h, mcar, np.where
        )
        sigma, lo, hi, boundary = _prevalence_interval(
            p0_h, v, n, mcar, normal_quantile(alpha), _libm(math.log), _libm(math.exp), np.sqrt, np.where
        )
    return ReplicateColumns(
        ok=ok,
        p_hat=np.where(ok, p_h, np.nan),
        p0_hat=p0_h,
        sigma_p0=sigma,
        lo=lo,
        hi=hi,
        hit=(lo <= p0_true) & (p0_true <= hi),
        boundary=boundary,
        degenerate=degenerate,
        it_defined=it_defined,
        variances=tuple(v),
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
