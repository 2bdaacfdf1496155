"""Exact stratified population and its closed-form summaries.

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

Only the study engine and the tests build a :class:`PopulationSpec`; it
holds numpy arrays, and it imports numpy when it runs.  ``prevbias
estimate`` never loads this module.  Numbers are read by the parser of
:mod:`prevbias.model`; one realised testing round lives in
:mod:`prevbias.sampler`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import _class_sums
from .errors import InvalidSpec, MechanismMismatch, UndefinedActiveInfo, ZeroTestingMass
from .model import MCAR, Mechanism, _coerce_matrix, _coerce_whole


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

    Every entry is read by :func:`prevbias.model._coerce_cell`, so shares are exact.

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

    Requires per-symptom testing probabilities (``pi[s, i] = pi_s``) and a
    mechanism that passes :meth:`Mechanism.check_against`.  The limiting
    share weights ``rho_bar`` are the known shares under mar, the exact mean
    shares of the bounds under maxent and the true class shares under mcar,
    so there ``v3`` is the known-share variance that criterion c7 and the
    quickstart use, not that of the mcar estimate.

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
    _, *v = _class_sums(rb, rho_s, pi_s, spec.p0s, rho_s * pi_s)
    limits = population_prevalence(spec), testing_prevalence(spec), corrected_prevalence_limit(spec, rb)
    return AsymptoticQuantities(*limits, *map(float, v))
