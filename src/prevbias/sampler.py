"""One simulated testing round, plus exact enumeration of its distribution.

Testing decisions are independent Bernoulli draws per individual, so the
tested count of each subpopulation is binomial: ``N_Tsi ~ Bin(N_si, pi_si)``,
independently across cells.  Draws are made per cell rather than per
individual; the two are the same distribution and the cell-level draw is
O(S) instead of O(N).  The batched study engine draws the same cells from
the same streams, positioning one reused generator on each replicate's
stream: on a shared 2-core x86 host it ran 60,000-76,000 replicates per
second at N = 10^6, so half a million take about 7-8 s, and the scalar
binomial calls and the generator state setter are most of that time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, InvalidSpec, TooLarge
from .model import PopulationSpec
from .rng import as_generator

ENUMERATION_LIMIT = 30


@dataclass(frozen=True, eq=False)
class TestingOutcome:
    """Realised tested counts ``N_Tsi`` for one testing round.

    ``n_si`` (the subpopulation sizes) is known for simulated outcomes and
    enables the realised sampling fractions; it is ``None`` for user-supplied
    count tables where only the population total ``n`` is known.
    """

    counts: np.ndarray
    n: int
    n_si: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != 2 or counts.shape[0] < 1:
            raise InvalidSpec(f"counts must have shape (S, 2), got {counts.shape}")
        if np.any(counts < 0):
            raise InvalidSpec("counts must be nonnegative")
        if not isinstance(self.n, (int, np.integer)) or self.n <= 0:
            raise InvalidSpec("population size must be a positive integer")
        if int(counts.sum()) > int(self.n):
            raise InvalidSpec(
                f"tested count {int(counts.sum())} exceeds the population size {int(self.n)}"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(self.n))
        if self.n_si is not None:
            n_si = np.asarray(self.n_si, dtype=np.int64)
            if n_si.shape != counts.shape:
                raise InvalidSpec("n_si must match the shape of counts")
            bad = np.argwhere(counts > n_si)
            if bad.size:
                s, i = bad[0]
                raise InvalidSpec(
                    f"stratum (s={s}, i={i}): tested count {counts[s, i]} exceeds its size {n_si[s, i]}"
                )
            if int(n_si.sum()) != int(self.n):
                raise InvalidSpec("stratum sizes must sum to the population size")
            n_si.setflags(write=False)
            object.__setattr__(self, "n_si", n_si)

    @property
    def s(self) -> int:
        return self.counts.shape[0]

    @property
    def n_ts(self) -> np.ndarray:
        """Tested individuals per symptom class, ``N_Ts = N_Ts0 + N_Ts1``."""
        return self.counts.sum(axis=1)

    @property
    def n_t(self) -> int:
        """Total tested individuals ``N_T``."""
        return int(self.counts.sum())

    @property
    def n_t1(self) -> int:
        """Tested infected individuals ``N_T.1``."""
        return int(self.counts[:, 1].sum())

    @property
    def rho_ts(self) -> np.ndarray:
        """Observed class fractions in the sample, ``N_Ts / N_T``."""
        n_t = self.n_t
        if n_t == 0:
            raise EmptySample("no tested individuals")
        return self.n_ts / n_t

    @property
    def p0s_hat(self) -> np.ndarray:
        """Positive rates per symptom class (NaN where nobody was tested)."""
        n_ts = self.n_ts
        out = np.full(self.s, np.nan)
        np.divide(self.counts[:, 1], n_ts, out=out, where=n_ts > 0)
        return out

    @property
    def sampling_fractions(self) -> np.ndarray:
        """Realised per-cell fractions ``N_Tsi / N_si`` (NaN for empty cells)."""
        if self.n_si is None:
            raise InvalidSpec("sampling fractions need the subpopulation sizes n_si")
        out = np.full(self.counts.shape, np.nan)
        np.divide(self.counts, self.n_si, out=out, where=self.n_si > 0)
        return out


def draw_outcome(spec: PopulationSpec, rng) -> TestingOutcome:
    """Simulate one testing round: independent ``Bin(N_si, pi_si)`` per cell."""
    gen = as_generator(rng)
    counts = gen.binomial(spec.n_si, spec.pi)
    return TestingOutcome(counts=counts, n=spec.n, n_si=spec.n_si)


def draw_count_matrices(spec: PopulationSpec, rng, size: int) -> np.ndarray:
    """Vectorised bulk variant of :func:`draw_outcome`.

    Returns an ``(size, S, 2)`` array of counts drawn from a single stream;
    intended for moment checks and fuzzing, not for replicate isolation.
    """
    gen = as_generator(rng)
    return gen.binomial(spec.n_si, spec.pi, size=(size, spec.s, 2))


def enumerate_outcomes(spec: PopulationSpec) -> list[tuple[TestingOutcome, float]]:
    """The complete distribution of testing outcomes, with probabilities.

    Enumerates the product of the per-cell binomial laws; probabilities sum
    to one up to float rounding.  Guarded to ``N <= 30`` because the support
    grows as the product of the cell sizes.
    """
    if spec.n > ENUMERATION_LIMIT:
        raise TooLarge(f"exact enumeration supports N <= {ENUMERATION_LIMIT}, got N = {spec.n}")
    cell_pmfs = []
    shape = (spec.s, 2)
    for s in range(spec.s):
        for i in range(2):
            size = int(spec.n_si[s, i])
            p = float(spec.pi[s, i])
            cell_pmfs.append([math.comb(size, k) * p**k * (1 - p) ** (size - k) for k in range(size + 1)])
    outcomes = []
    for combo in itertools.product(*(range(len(pmf)) for pmf in cell_pmfs)):
        prob = 1.0
        for pmf, k in zip(cell_pmfs, combo):
            prob *= pmf[k]
        counts = np.array(combo, dtype=np.int64).reshape(shape)
        outcomes.append((TestingOutcome(counts=counts, n=spec.n, n_si=spec.n_si), float(prob)))
    return outcomes
