"""Deterministic random-number streams keyed by (seed, stream id).

Every stochastic routine in the package takes an :class:`RngStream` (or an
already materialised :class:`numpy.random.Generator`).  Two streams with the
same ``(seed, stream)`` pair produce bit-identical draws on every run,
because the generator state is derived purely from those two integers through
:class:`numpy.random.SeedSequence`.  Distinct stream ids give statistically
independent streams, so each replicate of a study owns one stream and draws
the same counts whatever else the run draws.

:func:`stream_generator` is the reference construction of a stream.
:func:`stream_generators` reaches the same states for many streams at a
fraction of the cost: it hashes every stream's SeedSequence pool in one
vectorised pass, takes PCG64's two seeding steps in Python integers, and sets
the result on one reused generator.  The tests hold it to the reference, so a
numpy that seeds differently fails them instead of moving outputs.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .errors import InvalidSpec

_U64 = 2**64
_U32_MASK = 0xFFFF_FFFF
_U128_MASK = 2**128 - 1

# SeedSequence's hash constants (O'Neill's seed_seq_fe, as numpy implements it)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_WORDS = 4
# the 128-bit LCG multiplier of PCG64
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` over uint32 arrays, carrying its running
    hash constant from call to call."""

    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal const
        words = words ^ np.uint32(const)
        const = const * mult & _U32_MASK
        words = words * np.uint32(const)
        return words ^ (words >> np.uint32(16))

    return hashmix


def seed_states(seed: int, streams) -> np.ndarray:
    """``SeedSequence((seed, s)).generate_state(4, np.uint64)`` of every
    stream id ``s`` in ``streams``, as one ``(len(streams), 4)`` uint64 array.

    SeedSequence writes each integer as its little-endian 32-bit words (at
    least one) and pads the entropy to a pool of four words with zeros, which
    hash as zero words do.  A seed and a stream below 2**64 fill at most four
    words, so the pool is the seed's words, the stream's low and high words
    (a one-word stream's high word is such a pad) and zeros, and only the
    pool's own mixing pass runs.
    """
    if not 0 <= seed < _U64:
        raise InvalidSpec(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    streams = np.asarray(streams, dtype=np.uint64)
    seed_words = [seed & _U32_MASK] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((_POOL_WORDS, streams.size), dtype=np.uint32)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = streams & np.uint64(_U32_MASK)
    pool[len(seed_words) + 1] = streams >> np.uint64(32)

    hashmix = _hasher(_INIT_A, _MULT_A)
    mixer = [hashmix(words) for words in pool]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * mixer[dst] - np.uint32(_MIX_MULT_R) * hashmix(mixer[src])
                mixer[dst] = mixed ^ (mixed >> np.uint32(16))

    hashmix = _hasher(_INIT_B, _MULT_B)
    words = np.stack([hashmix(mixer[i % _POOL_WORDS]) for i in range(8)], axis=1).astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def stream_generators(seed: int, streams) -> Iterator[np.random.Generator]:
    """One reused generator, positioned in turn at the origin of stream
    ``(seed, s)`` for each ``s`` in ``streams`` (below 2**64): it draws what
    ``stream_generator(seed, s)`` draws.  Each yielded generator is valid
    until the next one is requested.

    PCG64 seeds itself from ``generate_state(4, np.uint64)`` as
    ``initstate, initseq`` (high word first), with ``state = 0; inc =
    2*initseq + 1; step; state += initstate; step``.
    """
    bit_generator = PCG64()
    generator = Generator(bit_generator)
    for s_hi, s_lo, q_hi, q_lo in seed_states(seed, streams).tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _U128_MASK
        # a step is state * _PCG64_MULT + inc, so the first leaves state = inc
        state =((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _U128_MASK
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or a ready Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")
