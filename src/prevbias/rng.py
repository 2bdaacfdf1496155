"""Deterministic random-number streams keyed by (seed, stream id).

Every stochastic routine in the package takes an :class:`RngStream` (or an
already materialised :class:`numpy.random.Generator`).  Two streams with the
same ``(seed, stream)`` pair produce bit-identical draws on every run and
under any threading layout, because the generator state is derived purely
from those two integers through :class:`numpy.random.SeedSequence`.
Distinct stream ids give statistically independent streams, which is how the
experiment layer parallelises replicates without any sequential RNG coupling.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .errors import InvalidSpec

_U64 = 2**64


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
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < _U64:
                raise InvalidSpec(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        """Materialise a fresh generator positioned at the stream origin."""
        return stream_generator(int(self.seed), int(self.stream))


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """The generator of stream ``(seed, stream)``, unchecked.  It is what
    ``default_rng`` builds from the same SeedSequence, at a lower cost."""
    return Generator(PCG64(SeedSequence((seed, stream))))


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or a ready Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")
