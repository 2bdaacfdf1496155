"""One simulated testing round, plus exact enumeration of its distribution.

Testing decisions are independent Bernoulli draws per individual, so the
tested count of each subpopulation is binomial: ``N_Tsi ~ Bin(N_si, pi_si)``,
independently across cells.  Draws are made per cell rather than per
individual; the two are the same distribution and the cell-level draw is
O(S) instead of O(N).  The batched study engine draws the same cells in
one array call per grid position, whose first replicate is what
:func:`draw_outcome` draws from that position's stream.

A :class:`TestingOutcome` holds Python ints, so a count table is estimated
without numpy; a draw uses the numpy generator of the
:class:`prevbias.rng.RngStream` it is given.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidSpec, TooLarge
from .model import PopulationSpec, _coerce_matrix, _coerce_whole

ENUMERATION_LIMIT = 30


@dataclass(frozen=True, eq=False)
class TestingOutcome:
    """Realised tested counts ``N_Tsi`` for one testing round, as a tuple of
    ``(healthy, infected)`` int pairs, one per symptom class.

    ``n_si`` (the subpopulation sizes, in the same layout) is known for
    simulated outcomes and enables the realised sampling fractions; it is
    ``None`` for user-supplied count tables where only the population total
    ``n`` is known.  Each count and size is a whole number read as the JSON
    inputs read it (``3``, ``3.0`` and ``"3"`` agree).  Per-class results are
    tuples.  Ratios of counts are Python ``int / int``, correctly rounded at
    every size.
    """

    counts: tuple[tuple[int, int], ...]
    n: int
    n_si: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        counts = _coerce_matrix(self.counts, "counts", _coerce_whole)
        n = _coerce_whole(self.n, "population size", low=1)
        n_t = sum(healthy + infected for healthy, infected in counts)
        if n_t > n:
            raise InvalidSpec(f"tested count {n_t} exceeds the population size {n}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)
        if self.n_si is not None:
            n_si = _coerce_matrix(self.n_si, "n_si", _coerce_whole)
            if len(n_si) != len(counts):
                raise InvalidSpec("n_si must match the shape of counts")
            for s, (row, sizes) in enumerate(zip(counts, n_si)):
                for i in (0, 1):
                    if row[i] > sizes[i]:
                        raise InvalidSpec(
                            f"stratum (s={s}, i={i}): tested count {row[i]} exceeds its size {sizes[i]}"
                        )
            if sum(a + b for a, b in n_si) != n:
                raise InvalidSpec("stratum sizes must sum to the population size")
            object.__setattr__(self, "n_si", n_si)

    @property
    def s(self) -> int:
        return len(self.counts)

    @property
    def n_ts(self) -> tuple[int, ...]:
        """Tested individuals per symptom class, ``N_Ts = N_Ts0 + N_Ts1``."""
        return tuple(healthy + infected for healthy, infected in self.counts)

    @property
    def n_t(self) -> int:
        """Total tested individuals ``N_T``."""
        return sum(self.n_ts)

    @property
    def n_t1(self) -> int:
        """Tested infected individuals ``N_T.1``."""
        return sum(infected for _, infected in self.counts)

    @property
    def p0s_hat(self) -> tuple[float, ...]:
        """Positive rates per symptom class (NaN where nobody was tested)."""
        return tuple(row[1] / n if n else math.nan for row, n in zip(self.counts, self.n_ts))

    @property
    def sampling_fractions(self) -> tuple[tuple[float, float], ...]:
        """Realised per-cell fractions ``N_Tsi / N_si`` (NaN for empty cells)."""
        if self.n_si is None:
            raise InvalidSpec("sampling fractions need the subpopulation sizes n_si")
        return tuple(
            tuple(c / size if size else math.nan for c, size in zip(row, sizes))
            for row, sizes in zip(self.counts, self.n_si)
        )


def draw_outcome(spec: PopulationSpec, rng) -> TestingOutcome:
    """Simulate one testing round from the :class:`prevbias.rng.RngStream`
    ``rng``: independent ``Bin(N_si, pi_si)`` per cell."""
    counts = rng.generator().binomial(spec.n_si, spec.pi)
    return TestingOutcome(counts=counts, n=spec.n, n_si=spec.n_si)


def enumerate_outcomes(spec: PopulationSpec) -> list[tuple[TestingOutcome, float]]:
    """The complete distribution of testing outcomes, with probabilities.

    Enumerates the product of the per-cell binomial laws; probabilities sum
    to one up to float rounding.  Guarded to ``N <= 30`` because the support
    grows as the product of the cell sizes.
    """
    if spec.n > ENUMERATION_LIMIT:
        raise TooLarge(f"exact enumeration supports N <= {ENUMERATION_LIMIT}, got N = {spec.n}")
    cell_pmfs = []
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
        counts = tuple(zip(combo[::2], combo[1::2]))
        outcomes.append((TestingOutcome(counts=counts, n=spec.n, n_si=spec.n_si), float(prob)))
    return outcomes
