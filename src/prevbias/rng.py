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

from .errors import InvalidSpec


@dataclass(frozen=True)
class RngStream:
    """A reproducible, addressable source of randomness.

    Parameters
    ----------
    seed : int
        Master seed in ``[0, 2**64)``.
    stream : int
        Substream id in ``[0, 2**64)``; defaults to 0.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 2**64:
                raise InvalidSpec(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the stream origin: what
        ``default_rng`` builds from the same SeedSequence, at a lower cost."""
        return Generator(PCG64(SeedSequence((int(self.seed), int(self.stream)))))
