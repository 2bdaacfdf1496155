"""Exact stratified-population model and its closed-form summaries.

A population of ``N`` individuals splits into ``S x 2`` subpopulations indexed
by a symptom level ``s`` (0 = no symptoms, S-1 = strongest symptoms) and an
infection status ``i`` (0 = healthy, 1 = infected).  A share matrix
``rho[s, i]`` fixes the exact subpopulation sizes ``N * rho[s, i]``, and a
matrix ``pi[s, i]`` gives the probability that an individual of class
``(s, i)`` volunteers for testing.

Everything in this module is a deterministic function of that layout:

* ``population_prevalence``   -- the infected fraction of the whole population,
* ``testing_prevalence``      -- the expected infected fraction among tested
  individuals under the biased testing probabilities,
* ``active_info_testing``     -- ``log(p / p0)``, the information (in nats)
  that self-selection into testing carries about infection status,
* ``exact_quantities``        -- the asymptotic variance components ``V1..V4``
  from the plug-ins' class-sum kernel, next to the three limits above that
  the normal approximations use,
* ``corrected_prevalence_limit`` -- the large-N limit of the share-weighted
  corrected estimator, useful as a bias oracle when the weighting assumption
  is wrong (testing probabilities that depend on infection status).

The number parser and :class:`Mechanism` compute on Python numbers, so the
one-shot estimate path loads no numpy.  Only the study engine and the tests
build a :class:`PopulationSpec`; it holds numpy arrays, and it imports numpy
when it runs.

Randomness (one realised testing round) lives in :mod:`prevbias.sampler`;
estimators computed from realised counts live in :mod:`prevbias.estimators`.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real

from .errors import (
    EmptySample,
    EmptyStratum,
    InvalidSpec,
    MechanismMismatch,
    UndefinedActiveInfo,
    ZeroTestingMass,
)
from .maxent import SimplexSlab, covid_shares, mean_shares, ordered_sum

SHARE_SUM_TOL = 1e-12
_INT64_MAX = 2**63 - 1
_FLOAT_MAX = int(sys.float_info.max)  # an integer, so comparing a Fraction with it is exact
# A decimal exponent of 1000 or more is no share, probability or size, and
# Fraction("1e10000000") alone takes seconds to build 10**10000000.
_HUGE_EXPONENT = re.compile(r"e[-+]?[0_]*[1-9](_?\d){3}", re.IGNORECASE)


def _coerce_cell(cell, where: str) -> Fraction:
    """One number as an exact Fraction: the parser behind every share,
    probability and size that :class:`PopulationSpec`, :class:`Mechanism`,
    the scenario config and the JSON inputs read.

    Decimal and fraction strings (``"0.05"``, ``"1/20"``), ints and Fractions
    are exact as given.  A float is read by its shortest round-tripping
    decimal (``repr``), so the literal ``0.05`` is 1/20 and not its binary
    neighbour, and ``float()`` of the result gives the float back.  Bools,
    NaN, infinities, numbers beyond the float range and text that is not a
    number are rejected, so ``float()`` of the result never overflows.
    """
    if isinstance(cell, bool):
        raise InvalidSpec(f"{where} is not a number: {cell!r}")
    if isinstance(cell, Integral):  # numpy integer scalars too
        number = Fraction(int(cell))
    elif isinstance(cell, Fraction):
        number = cell
    else:
        if isinstance(cell, Real):  # floats, numpy float scalars too
            if not math.isfinite(cell):
                raise InvalidSpec(f"{where} is not a finite number: {cell!r}")
            cell = repr(float(cell))
        if not isinstance(cell, str):
            raise InvalidSpec(f"{where} has unsupported type {type(cell).__name__}")
        if _HUGE_EXPONENT.search(cell):
            raise InvalidSpec(f"{where} is out of range: {cell!r}")
        try:
            number = Fraction(cell)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidSpec(f"{where} is not a number: {cell!r}") from exc
    if abs(number) > _FLOAT_MAX:
        raise InvalidSpec(f"{where} is out of range: {cell!r}")
    return number


def _coerce_whole(value, where: str, low: int = 0, high: int = _INT64_MAX) -> int:
    """One whole number in ``[low, high]``, read by :func:`_coerce_cell`:
    ``1000``, ``1000.0`` and ``"1e3"`` agree, and ``1000.5`` is refused."""
    number = _coerce_cell(value, where)
    if number.denominator != 1 or not low <= number.numerator <= high:
        raise InvalidSpec(f"{where} must be a whole number from {low} to {high}, got {value}")
    return int(number)


def _coerce_alpha(value) -> float:
    """The interval level ``alpha`` as a float in ``(0, 1]``, read by
    :func:`_coerce_cell`; the scenario config and the count table share it."""
    alpha = float(_coerce_cell(value, "alpha"))
    if not 0.0 < alpha <= 1.0:
        raise InvalidSpec(f"alpha must lie in (0, 1], got {alpha!r}")
    return alpha


def _cells(values, name: str) -> list:
    """The entries of a non-empty list; a string, a mapping or a scalar is not one."""
    try:
        cells = [] if isinstance(values, (str, dict)) else list(values)
    except TypeError:
        cells = []
    if not cells:
        raise InvalidSpec(f"{name} must be a non-empty list")
    return cells


def _pairs(values, name: str) -> list[list]:
    """The rows of a (S, 2) matrix, one (healthy, infected) pair per symptom
    class, with their entries not yet read."""
    rows = [_cells(row, f"{name}[{s}]") for s, row in enumerate(_cells(values, name))]
    for s, row in enumerate(rows):
        if len(row) != 2:
            raise InvalidSpec(f"{name}[{s}] must have exactly two entries (healthy, infected)")
    return rows


def _coerce_matrix(values, name: str, read=_coerce_cell) -> tuple[tuple, ...]:
    """A (S, 2) matrix with each entry read as ``name[s,i]``: exact values of
    :func:`_coerce_cell`, or whole numbers with ``read=_coerce_whole``."""
    return tuple(
        tuple(read(cell, f"{name}[{s},{i}]") for i, cell in enumerate(row))
        for s, row in enumerate(_pairs(values, name))
    )


def _coerce_vector(values, name: str) -> tuple[float, ...]:
    """A tuple of one or more floats, each parsed by :func:`_coerce_cell`."""
    return tuple(float(_coerce_cell(cell, f"{name}[{s}]")) for s, cell in enumerate(_cells(values, name)))


def _floats(values, size: int, name: str) -> tuple[float, ...]:
    """One float per symptom class, from any sequence of numbers."""
    try:
        floats = tuple(map(float, values))
    except (TypeError, ValueError):
        floats = ()
    if len(floats) != size:
        raise InvalidSpec(f"{name} must have one entry per symptom class")
    return floats


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    """Exact stratified population: size, shares, and testing probabilities.

    Every entry is read by :func:`_coerce_cell`, so shares are exact.

    Parameters
    ----------
    n : int
        Population size, a whole number.
    rho : array-like, shape (S, 2)
        Subpopulation shares ``rho[s, i]``.  Shares must sum to one exactly
        and every ``n * rho[s, i]`` must be a whole number (the model is an
        exact finite population, not a density).
    pi : array-like, shape (S, 2)
        Testing probabilities ``pi[s, i]`` in ``[0, 1]``.
    """

    n: int
    rho: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        import numpy as np

        n = _coerce_whole(self.n, "population size", low=1)
        rho = _coerce_matrix(self.rho, "rho")
        rho_f = np.array(rho, dtype=float)
        pi_f = np.array(_coerce_matrix(self.pi, "pi"), dtype=float)
        if pi_f.shape != rho_f.shape:
            raise InvalidSpec(f"pi shape {pi_f.shape} does not match rho shape {rho_f.shape}")
        if any(not 0 <= share <= 1 for row in rho for share in row):
            raise InvalidSpec("all shares rho[s, i] must lie in [0, 1]")
        if np.any((pi_f < 0.0) | (pi_f > 1.0)):
            raise InvalidSpec("all testing probabilities pi[s, i] must lie in [0, 1]")
        total = sum(share for row in rho for share in row)
        if total != 1:
            raise InvalidSpec(f"shares must sum to 1 exactly, got {total}")
        for s, row in enumerate(rho):
            for i, share in enumerate(row):
                if (share * n).denominator != 1:
                    raise InvalidSpec(
                        f"stratum (s={s}, i={i}): N*rho = {n}*{share} = {share * n} is not an integer"
                    )
        n_si = np.array([[int(share * n) for share in row] for row in rho], dtype=np.int64)

        rho_f.setflags(write=False)
        pi_f.setflags(write=False)
        n_si.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rho", rho_f)
        object.__setattr__(self, "pi", pi_f)
        object.__setattr__(self, "_n_si", n_si)

    @property
    def s(self) -> int:
        """Number of symptom classes."""
        return self.rho.shape[0]

    @property
    def n_si(self) -> np.ndarray:
        """Exact subpopulation sizes ``N * rho[s, i]`` (integers)."""
        return self._n_si

    @property
    def rho_s(self) -> np.ndarray:
        """Symptom-class shares ``rho_s = rho_s0 + rho_s1``."""
        return self.rho.sum(axis=1)

    @property
    def is_mar(self) -> bool:
        """True when testing probabilities depend on the symptom level only."""
        return bool((self.pi[:, 0] == self.pi[:, 1]).all())

    @property
    def pi_s(self) -> np.ndarray:
        """Per-symptom testing probability; defined only when :attr:`is_mar`."""
        if not self.is_mar:
            raise MechanismMismatch("pi[s, i] varies with infection status i")
        return self.pi[:, 0]

    @property
    def p0s(self) -> np.ndarray:
        """Within-class prevalences ``rho_s1 / rho_s`` (NaN for empty classes)."""
        import numpy as np

        rho_s = self.rho_s
        out = np.full(self.s, np.nan)
        np.divide(self.rho[:, 1], rho_s, out=out, where=rho_s > 0)
        return out


MCAR = "mcar"
MAR = "mar"
MAXENT = "maxent"
_KINDS = (MCAR, MAR, MAXENT)


@dataclass(frozen=True, eq=False)
class Mechanism:
    """How the bias correction treats the unknown sampling scheme.

    ``mcar``   assumes one common testing probability (no correction needed),
    ``mar``    assumes per-symptom probabilities with *known* class shares
    ``rho_s``, and ``maxent`` assumes per-symptom probabilities with the class
    shares only known to lie in the region ``slab`` (corrected through the
    mean of the uniform distribution on it).  Build them with :meth:`mcar`,
    :meth:`mar` and :meth:`maxent`.

    The mechanism alone decides which share vector the corrected estimate
    weights by (:meth:`shares`).  ``rho_s`` holds that vector whenever it is
    fixed: the known shares under mar and the exact centroid
    :func:`prevbias.maxent.mean_shares` of ``slab`` under bounded maxent.
    """

    kind: str
    rho_s: tuple[float, ...] | None = None
    slab: SimplexSlab | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSpec(f"mechanism kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == MAR:
            if self.rho_s is None:
                raise InvalidSpec("mar mechanism requires known class shares rho_s")
            shares = _coerce_vector(self.rho_s, "rho_s")
            if any(not 0.0 <= x <= 1.0 for x in shares):
                raise InvalidSpec("rho_s entries must lie in [0, 1]")
            if abs(ordered_sum(shares) - 1.0) > SHARE_SUM_TOL:
                raise InvalidSpec(f"rho_s must sum to 1 within {SHARE_SUM_TOL}")
            object.__setattr__(self, "rho_s", shares)
        elif self.kind == MAXENT and self.slab is not None:
            object.__setattr__(self, "rho_s", mean_shares(self.slab))

    @classmethod
    def mcar(cls) -> "Mechanism":
        return cls(kind=MCAR)

    @classmethod
    def mar(cls, rho_s) -> "Mechanism":
        return cls(kind=MAR, rho_s=rho_s)

    @classmethod
    def maxent(cls, lower=None, upper=None) -> "Mechanism":
        """Bounded-share correction; omit the bounds to derive them from the
        observed counts (two-class convenience-sampling form)."""
        if (lower is None) != (upper is None):
            raise InvalidSpec("provide both maxent bounds or neither")
        if lower is None:
            return cls(kind=MAXENT)
        slab = SimplexSlab(
            _coerce_vector(lower, "maxent lower bounds"), _coerce_vector(upper, "maxent upper bounds")
        )
        return cls(kind=MAXENT, slab=slab)

    def shares(self, n: int, n_ts):
        """The class shares the corrected estimate weights by, given the
        population size ``n`` and the tested counts per class ``n_ts``:
        ``rho_s`` under mar and bounded maxent; the sample fractions
        ``n_ts / n_t`` under mcar (NaN for an empty sample); and under maxent
        without bounds the centroid :func:`prevbias.maxent.covid_shares`,
        which needs two classes, a tested individual and one in each class
        (:class:`InvalidSpec`, :class:`EmptySample`, :class:`EmptyStratum`)."""
        if self.kind == MCAR:
            n_t = sum(n_ts)
            return tuple(count / n_t if n_t else math.nan for count in n_ts)
        if self.rho_s is not None:
            if len(self.rho_s) != len(n_ts):
                raise InvalidSpec("mechanism shares do not match the number of symptom classes")
            return self.rho_s
        if len(n_ts) != 2:
            raise InvalidSpec("the closed form needs exactly two symptom classes")
        n_t = int(n_ts[0] + n_ts[1])
        if n_t == 0:
            raise EmptySample("cannot correct an empty sample")
        empty = [s for s in (0, 1) if n_ts[s] == 0]
        if empty:
            raise EmptyStratum(empty)
        return covid_shares(n, n_t, int(n_ts[1]))

    def check_against(self, spec: PopulationSpec) -> None:
        """Validate mechanism metadata against a concrete population."""
        if self.kind == MAR:
            if len(self.rho_s) != spec.s:
                raise InvalidSpec(f"rho_s has {len(self.rho_s)} classes, population has {spec.s}")
            if max(abs(a - b) for a, b in zip(self.rho_s, spec.rho_s.tolist())) > SHARE_SUM_TOL:
                raise InvalidSpec("mar mechanism shares are inconsistent with the population shares")
        elif self.slab is not None and self.slab.s != spec.s:
            raise InvalidSpec(f"maxent bounds have {self.slab.s} classes, population has {spec.s}")


@dataclass(frozen=True, eq=False)
class AsymptoticQuantities:
    """Deterministic inputs to the normal approximations.

    ``p0``, ``p`` and ``p_bar0`` are the population prevalence, the testing
    prevalence and the probability limit of the corrected estimator, as
    :func:`population_prevalence`, :func:`testing_prevalence` and
    :func:`corrected_prevalence_limit` give them.  ``v1`` captures sampling
    noise of the within-class prevalence estimates inside the biased
    estimator, ``v2`` the noise of the tested-class proportions around their
    expectations, ``v3`` the noise of the corrected estimator given the share
    weights, and ``v4`` the covariance that couples the biased and corrected
    errors.
    """

    p0: float
    p: float
    p_bar0: float
    v1: float
    v2: float
    v3: float
    v4: float


def population_prevalence(spec: PopulationSpec) -> float:
    """Infected fraction of the full population, ``sum_s rho_s1``."""
    return float(spec.rho[:, 1].sum())


def testing_prevalence(spec: PopulationSpec) -> float:
    """Expected infected fraction among tested individuals.

    ``p = sum_s rho_s1 pi_s1 / sum_{s,i} rho_si pi_si``; reduces to the
    population prevalence when all testing probabilities coincide.
    """
    denominator = float((spec.rho * spec.pi).sum())
    if denominator <= 0.0:
        raise ZeroTestingMass("no individual has a positive testing probability")
    numerator = float((spec.rho[:, 1] * spec.pi[:, 1]).sum())
    return numerator / denominator


def active_info_testing(spec: PopulationSpec) -> float:
    """Active information of testing bias, ``log(p / p0)`` in nats."""
    p0 = population_prevalence(spec)
    p = testing_prevalence(spec)
    if p0 <= 0.0 or p <= 0.0:
        raise UndefinedActiveInfo(f"log(p/p0) undefined for p={p!r}, p0={p0!r}")
    return math.log(p / p0)


def corrected_prevalence_limit(spec: PopulationSpec, weights=None) -> float:
    """Large-N limit of the share-weighted corrected estimator.

    Each symptom class contributes its limiting positive-test rate
    ``rho_s1 pi_s1 / (rho_s0 pi_s0 + rho_s1 pi_s1)`` weighted by ``weights``
    (the true class shares by default).  When testing probabilities depend on
    infection status this limit differs from the population prevalence; the
    gap ``|limit - p0|`` is the asymptotic bias floor of the correction.
    """
    w = spec.rho_s if weights is None else _floats(weights, spec.s, "weights")
    total = 0.0
    for s in range(spec.s):
        if w[s] <= 0.0:
            continue
        mass = spec.rho[s, 0] * spec.pi[s, 0] + spec.rho[s, 1] * spec.pi[s, 1]
        if mass <= 0.0:
            raise ZeroTestingMass(f"symptom class {s} has zero testing mass but positive weight")
        total += w[s] * (spec.rho[s, 1] * spec.pi[s, 1] / mass)
    return float(total)


def exact_quantities(spec: PopulationSpec, mech: Mechanism) -> AsymptoticQuantities:
    """Evaluate the closed-form asymptotic quantities for a population.

    Requires per-symptom testing probabilities (``pi[s, i] = pi_s``).  The
    limiting share weights ``rho_bar`` are the true class shares under mcar
    and the mechanism's ``rho_s`` otherwise: the known shares under mar, the
    exact mean shares of the bounds under maxent.  Maxent without explicit
    bounds has no population-level limit and is rejected.

    Returns
    -------
    AsymptoticQuantities
        With ``p0``, ``p`` and ``p_bar0 = corrected_prevalence_limit(spec,
        rho_bar)`` from their closed forms, and the variance components of
        one :func:`prevbias.asymptotics._class_sums` call (testing mass
        ``rho_s pi_s``):

        ``v1 = sum_s rho_s pi_s (1-pi_s) p0s (1-p0s) / (sum_s rho_s pi_s)^2``,
        ``v2 = sum_s rho_s pi_s (1-pi_s) (p0s - p)^2 / (sum_s rho_s pi_s)^2``,
        ``v3 = sum_s rho_bar_s^2 rho_s^{-1} ((1-pi_s)/pi_s) p0s (1-p0s)``,
        ``v4 = sum_s rho_tilde_s rho_bar_s rho_s^{-1} ((1-pi_s)/pi_s) p0s (1-p0s)``,

        where ``rho_tilde_s = rho_s pi_s / sum_s rho_s pi_s``,
        ``p0s = rho_s1 / rho_s`` and ``p = sum_s rho_tilde_s p0s``.
    """
    from .asymptotics import _class_sums  # it imports this module

    if not spec.is_mar:
        raise MechanismMismatch(
            "asymptotic quantities require pi[s, i] = pi_s; "
            "for general populations only p0, p and the testing information are defined"
        )
    rho_s = spec.rho_s
    pi_s = spec.pi_s
    if (rho_s <= 0.0).any():
        raise InvalidSpec("every symptom class must have positive share")
    if (pi_s <= 0.0).any():
        raise ZeroTestingMass("every symptom class must have positive testing probability")

    mech.check_against(spec)
    rb = rho_s if mech.kind == MCAR else mech.rho_s
    if rb is None:
        raise InvalidSpec("maxent limiting shares need explicit share bounds")
    _, *v = _class_sums(rb, rho_s, pi_s, spec.p0s, rho_s * pi_s)
    limits = population_prevalence(spec), testing_prevalence(spec), corrected_prevalence_limit(spec, rb)
    return AsymptoticQuantities(*limits, *map(float, v))
