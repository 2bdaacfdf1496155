"""Deterministic random-number streams keyed by (seed, stream id).

Every stochastic routine in the package takes an :class:`RngStream`.  Two
streams with the same ``(seed, stream)`` pair produce bit-identical draws on
every run, because the generator state is derived purely from those two
integers through :class:`numpy.random.SeedSequence`.  Distinct stream ids
give statistically independent streams.  A study gives each grid position
one stream, its index in the grid, and draws all of that position's
replicates from it in one call.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .model import _coerce_whole


@dataclass(frozen=True)
class RngStream:
    """A reproducible, addressable source of randomness.

    Parameters
    ----------
    seed : int
        Master seed in ``[0, 2**64)``.
    stream : int
        Substream id in ``[0, 2**64)``; defaults to 0.

    Both are read as the scenario config reads its seed: ``7``, ``7.0`` and
    ``"7"`` are the same stream, and bools are refused.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            object.__setattr__(self, name, _coerce_whole(getattr(self, name), name, high=2**64 - 1))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the stream origin: what
        ``default_rng`` builds from the same SeedSequence, at a lower cost."""
        return Generator(PCG64(SeedSequence((self.seed, self.stream))))
