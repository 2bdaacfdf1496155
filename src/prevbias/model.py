"""The number parser and the correction mechanisms.

Every share, probability and size that a population, a mechanism, a
scenario config or a count table holds is read by :func:`_coerce_cell`.  A
:class:`Mechanism` picks the share vector that the corrected estimate
weights by.  Both compute on Python numbers, so the one-shot estimate path
loads no numpy.  The population ``(N, rho, pi)`` and its closed-form limits,
which only the study engine and the tests use, live in
:mod:`prevbias.population`; estimators computed from realised counts live in
:mod:`prevbias.estimators`.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from numbers import Integral, Real

from .asymptotics import normal_quantile
from .errors import EmptySample, EmptyStratum, InvalidSpec
from .maxent import SimplexSlab, covid_shares, mean_shares, ordered_sum

SHARE_SUM_TOL = 1e-12
_INT64_MAX = 2**63 - 1
_FLOAT_MAX = int(sys.float_info.max)  # an integer, so comparing a Fraction with it is exact
# A decimal exponent of 1000 or more is no share, probability or size, and
# Fraction("1e10000000") alone takes seconds to build 10**10000000.
_HUGE_EXPONENT = re.compile(r"e[-+]?[0_]*[1-9](_?\d){3}", re.IGNORECASE)


def _coerce_cell(cell, where: str) -> Fraction:
    """One number as an exact Fraction: the parser behind every share,
    probability and size that a population, :class:`Mechanism`,
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
    """The interval level ``alpha`` as a float, read by :func:`_coerce_cell`
    and held to the domain of :func:`prevbias.asymptotics.normal_quantile`;
    the scenario config and the count table share it."""
    alpha = float(_coerce_cell(value, "alpha"))
    normal_quantile(alpha)
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


MCAR = "mcar"
MAR = "mar"
MAXENT = "maxent"
_KINDS = (MCAR, MAR, MAXENT)


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

    __slots__ = ("kind", "rho_s", "slab")

    def __init__(self, kind: str, rho_s=None, slab: SimplexSlab | None = None):
        if kind not in _KINDS:
            raise InvalidSpec(f"mechanism kind must be one of {_KINDS}, got {kind!r}")
        if kind == MAR:
            if rho_s is None:
                raise InvalidSpec("mar mechanism requires known class shares rho_s")
            rho_s = _coerce_vector(rho_s, "rho_s")
            if any(not 0.0 <= x <= 1.0 for x in rho_s):
                raise InvalidSpec("rho_s entries must lie in [0, 1]")
            if abs(ordered_sum(rho_s) - 1.0) > SHARE_SUM_TOL:
                raise InvalidSpec(f"rho_s must sum to 1 within {SHARE_SUM_TOL}")
        elif kind == MAXENT and slab is not None:
            rho_s = mean_shares(slab)
        self.kind, self.rho_s, self.slab = kind, rho_s, slab

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

    def check_against(self, spec) -> None:
        """Raise :class:`InvalidSpec` unless this mechanism can weight the
        estimates of the population ``spec``: the one check of that fit.  Any
        mechanism but mcar needs one fixed share per class, and on a class the
        population can test, a positive share that keeps ``N_Ts / (N * share)``
        finite.  A mar share lies within 1e-12 of the population's, relatively
        on a class it can test.  Maxent bounds may miss the population's shares."""
        if self.kind == MCAR:
            return
        if self.rho_s is None:
            raise InvalidSpec("maxent mechanisms need explicit share bounds to weight a population")
        if len(self.rho_s) != spec.s:
            raise InvalidSpec(f"mechanism shares have {len(self.rho_s)} classes, population has {spec.s}")
        reach = (spec.n_si * (spec.pi > 0.0)).sum(axis=1).tolist()  # the most each class can test
        for s, (w, share, most) in enumerate(zip(self.rho_s, spec.rho_s.tolist(), reach)):
            if self.kind == MAR and abs(w - share) > SHARE_SUM_TOL * (share if most else 1.0):
                raise InvalidSpec("mar mechanism shares are inconsistent with the population shares")
            if most and not (w > 0.0 and math.isfinite(most / (spec.n * w))):
                raise InvalidSpec(f"share {w!r} of tested class {s} makes N_Ts / (N * share) infinite at N = {spec.n}")
