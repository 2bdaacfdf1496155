"""Vectorised stream seeding against numpy's own SeedSequence and PCG64.

:func:`prevbias.rng.stream_generators` re-implements SeedSequence's pool
hashing and PCG64's seeding steps, so these tests hold it to
:meth:`prevbias.RngStream.generator`, numpy's construction.  A numpy that
seeds differently fails here rather than moving study outputs silently.
"""

import numpy as np
import pytest
from numpy.random import SeedSequence

from prevbias import RngStream, draw_outcome, mar_scenario, mnar_scenario
from prevbias.errors import InvalidSpec
from prevbias.experiments import _draw_counts
from prevbias.rng import seed_states, stream_generators

EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 5, 2**64 - 1]


def _random_words(rng, count: int) -> list[int]:
    """Unsigned 64-bit integers, half of them one 32-bit word long."""
    low = rng.integers(0, 2**32, size=count, dtype=np.uint64)
    high = rng.integers(1, 2**32, size=count, dtype=np.uint64) << np.uint64(32)
    return [int(x) for x in np.where(rng.random(count) < 0.5, low, low | high)]


def _reference_states(seed: int, streams) -> np.ndarray:
    return np.array([SeedSequence((seed, int(s))).generate_state(4, np.uint64) for s in streams])


SEEDS = EDGE_WORDS + _random_words(np.random.default_rng(2015), 12)


@pytest.mark.parametrize("seed", SEEDS)
def test_pool_matches_seed_sequence(seed):
    rng = np.random.default_rng(seed % 2**32)
    streams = np.array(EDGE_WORDS + _random_words(rng, 40), dtype=np.uint64)
    got = seed_states(seed, streams)
    assert got.dtype == np.uint64 and got.shape == (len(streams), 4)
    assert np.array_equal(got, _reference_states(seed, streams))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_pool_matches_seed_sequence_across_the_word_boundary(seed):
    streams = np.arange(2**32 - 64, 2**32 + 64, dtype=np.uint64)
    assert np.array_equal(seed_states(seed, streams), _reference_states(seed, streams))


def test_pool_of_no_streams_is_empty():
    assert seed_states(3, np.array([], dtype=np.uint64)).shape == (0, 4)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(InvalidSpec):
        seed_states(seed, [0])


# n = 0, p in {0, 1}, small n * p (inversion) and n = 1e6 (BTPE), in an
# order that makes the reused generator switch algorithms between calls
CELLS = [
    (0, 0.3),
    (10**6, 0.37),
    (17, 0.2),
    (50, 0.0),
    (50, 1.0),
    (10**6, 0.02),
    (3, 0.9),
    (10**6, 0.999),
    (0, 1.0),
    (1000, 0.5),
]


@pytest.mark.parametrize("seed", [0, 1, 20240101, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_reused_generator_draws_what_each_stream_draws(seed):
    streams = [0, 1, 2, 999, 2**32 - 3, 2**32 - 1, 2**32, 2**32 + 2, 2**64 - 10, 2**64 - 1]
    got = [[gen.binomial(n, p) for n, p in CELLS] for gen in stream_generators(seed, streams)]
    want = []
    for s in streams:
        gen = RngStream(seed, s).generator()
        want.append([gen.binomial(n, p) for n, p in CELLS])
    assert got == want


def test_reused_generator_matches_many_consecutive_streams():
    seed = 20240101
    streams = np.arange(2**32 - 1000, 2**32 + 1000, dtype=np.uint64)
    got = [gen.binomial(10**6, 0.37) for gen in stream_generators(seed, streams)]
    assert got == [RngStream(seed, int(s)).generator().binomial(10**6, 0.37) for s in streams]


@pytest.mark.parametrize("scenario", [mar_scenario, mnar_scenario])
def test_engine_counts_are_each_replicate_streams_draw(scenario):
    cfg = scenario(n_grid=(1000, 10_000), replicates=40, seed=2**40 + 3)
    specs = cfg.specs
    counts = _draw_counts(cfg)
    for k, spec in enumerate(specs):
        stream = k * cfg.replicates
        want = [draw_outcome(spec, RngStream(cfg.seed, stream + r)).counts for r in range(cfg.replicates)]
        assert np.array_equal(counts[k], np.array(want))
