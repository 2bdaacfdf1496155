"""The study engine's stream layout against scalar draws on numpy's generator.

Grid position ``k`` of a study draws its ``(replicates, S, 2)`` counts in one
array binomial call on ``RngStream(seed, k)``.  These tests hold that call to
the slow paths the rest of the suite trusts: scalar ``binomial`` calls, cell
by cell in C order, on the same stream, and :func:`prevbias.draw_outcome`;
and they hold each stream's generator to the words numpy's SeedSequence
hashes from ``(seed, stream)``.  A numpy that seeds differently, or whose
array call draws differently from its scalar calls, fails here rather than
moving study outputs silently.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.random import SeedSequence

from prevbias import RngStream, draw_outcome, mar_scenario, mnar_scenario, run_experiment
from prevbias.config import parse_scenario
from prevbias.errors import InvalidSpec
from prevbias.experiments import _draw_counts

EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 5, 2**64 - 1]


def _random_words(rng, count: int) -> list[int]:
    """Unsigned 64-bit integers, half of them one 32-bit word long."""
    low = rng.integers(0, 2**32, size=count, dtype=np.uint64)
    high = rng.integers(1, 2**32, size=count, dtype=np.uint64) << np.uint64(32)
    return [int(x) for x in np.where(rng.random(count) < 0.5, low, low | high)]


SEEDS = EDGE_WORDS + _random_words(np.random.default_rng(2015), 12)

# PCG64's LCG multiplier: seeding takes two steps of the generator
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seeded_state(seed: int, stream: int) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` seeded, as numpy seeds it, from the four words
    SeedSequence hashes out of the pool ``(seed, stream)``."""
    w = [int(x) for x in SeedSequence((seed, stream)).generate_state(4, np.uint64)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) % 2**128
    return (((inc + (w[0] << 64 | w[1])) * PCG64_MULT) + inc) % 2**128, inc


def _assert_streams_match_seed_sequence(seed: int, streams) -> None:
    states = []
    for s in streams:
        state = RngStream(seed, s).generator().bit_generator.state["state"]
        assert (state["state"], state["inc"]) == _seeded_state(seed, s)
        states.append(state["state"])
    assert len(set(states)) == len(states)


@pytest.mark.parametrize("seed", SEEDS)
def test_pool_matches_seed_sequence(seed):
    rng = np.random.default_rng(seed % 2**32)
    _assert_streams_match_seed_sequence(seed, EDGE_WORDS + _random_words(rng, 40))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_pool_matches_seed_sequence_across_the_word_boundary(seed):
    _assert_streams_match_seed_sequence(seed, range(2**32 - 64, 2**32 + 64))


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
    """One array call over a block of replicates draws what one generator,
    reused for every replicate, draws in scalar calls, on any stream id."""
    streams = [0, 1, 2, 999, 2**32 - 3, 2**32 - 1, 2**32, 2**32 + 2, 2**64 - 10, 2**64 - 1]
    n, p = (np.array(column) for column in zip(*CELLS))
    for s in streams:
        got = RngStream(seed, s).generator().binomial(n, p, size=(4, len(CELLS)))
        gen = RngStream(seed, s).generator()
        assert got.tolist() == [[gen.binomial(n, p) for n, p in CELLS] for _ in range(4)]


def test_reused_generator_matches_many_consecutive_streams():
    seed = 20240101
    for s in range(2**32 - 1000, 2**32 + 1000):
        gen = RngStream(seed, s).generator()
        got = RngStream(seed, s).generator().binomial(10**6, 0.37, size=2)
        assert got.tolist() == [gen.binomial(10**6, 0.37), gen.binomial(10**6, 0.37)]


# Empty cells, p in {0, 1}, small n * p (inversion) and large n * p (BTPE):
# at N = 20, 10**6 and 1000 the generator switches algorithms between cells.
CELLS_DOC = {
    "label": "cells",
    "replicates": 6,
    "alpha": 0.05,
    "n_grid": [20, 10**6, 1000],
    "population": {
        "rho": [["0.3", "0"], ["0.2", "0.1"], ["0.05", "0.35"]],
        "pi": [[0.37, 0.3], [0.0, 1.0], [0.02, 0.999]],
    },
    "mechanism": {"type": "mcar"},
}


def _sequential_draws(cfg, k: int) -> np.ndarray:
    """Position ``k`` drawn the slow way: one scalar call per cell."""
    spec = cfg.specs[k]
    gen = RngStream(cfg.seed, k).generator()
    cells = list(zip(spec.n_si.ravel().tolist(), spec.pi.ravel().tolist()))
    rows = [[gen.binomial(size, p) for size, p in cells] for _ in range(cfg.replicates)]
    return np.array(rows, dtype=np.int64).reshape(cfg.replicates, spec.s, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_draw_equals_sequential_scalar_draws(seed):
    cfg = parse_scenario(dict(CELLS_DOC, seed=seed))
    counts = _draw_counts(cfg)
    assert len(counts) == len(cfg.specs)
    for k in range(len(cfg.specs)):
        assert counts[k].dtype == np.int64
        assert np.array_equal(counts[k], _sequential_draws(cfg, k))


@pytest.mark.parametrize("scenario", [mar_scenario, mnar_scenario])
def test_engine_counts_are_each_positions_sequential_draws(scenario):
    cfg = scenario(n_grid=(1000, 10_000), replicates=40, seed=2**40 + 3)
    for k, counts in enumerate(_draw_counts(cfg)):
        assert np.array_equal(counts, _sequential_draws(cfg, k))


@pytest.mark.parametrize("seed", [0, 1, 20240101, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_replicate_zero_is_draw_outcome(seed):
    for cfg in (mar_scenario(seed=seed, replicates=3), mnar_scenario(seed=seed, replicates=3),
                parse_scenario(dict(CELLS_DOC, seed=seed))):
        for k, (spec, counts) in enumerate(zip(cfg.specs, _draw_counts(cfg))):
            assert np.array_equal(counts[0], np.array(draw_outcome(spec, RngStream(seed, k)).counts))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_first_replicates_do_not_depend_on_the_replicate_count(seed):
    cfg = mnar_scenario(n_grid=(20, 1000, 10**6), replicates=41, seed=seed)
    full = _draw_counts(cfg)
    report = run_experiment(cfg)
    for reps in (1, 5, 40):
        short = replace(cfg, replicates=reps)
        for k, counts in enumerate(_draw_counts(short)):
            assert np.array_equal(counts, full[k][:reps])
        # the fan rows of those replicates carry over byte for byte
        fan = run_experiment(short).fan
        rows = [i for i, rep in enumerate(report.fan["rep"]) if rep < reps]
        for name, column in fan.items():
            assert repr(column) == repr([report.fan[name][i] for i in rows])


def test_appending_a_grid_size_keeps_the_earlier_positions():
    cfg = mar_scenario(n_grid=(100, 1000), replicates=30, seed=9)
    longer = _draw_counts(replace(cfg, n_grid=(100, 1000, 10**5)))
    assert len(longer) == 3
    for before, after in zip(_draw_counts(cfg), longer):
        assert np.array_equal(before, after)


def test_positions_of_one_size_draw_from_distinct_streams():
    counts = _draw_counts(mar_scenario(n_grid=(10**4, 10**4), replicates=20, seed=9))
    assert not np.array_equal(counts[0], counts[1])


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    with pytest.raises(InvalidSpec):
        RngStream(seed)
    with pytest.raises(InvalidSpec):
        RngStream(0, seed)


def test_seed_and_stream_are_read_as_the_config_reads_its_seed():
    draws = RngStream(7, 3).generator().binomial(1000, 0.3, size=8).tolist()
    for seed, stream in ((7.0, 3.0), ("7", "3"), ("7e0", "6/2"), (np.uint64(7), np.int8(3))):
        assert RngStream(seed, stream) == RngStream(7, 3)
        assert RngStream(seed, stream).generator().binomial(1000, 0.3, size=8).tolist() == draws
    for value in (True, False, 7.5, "seven", float("nan")):
        with pytest.raises(InvalidSpec):
            RngStream(value)
        with pytest.raises(InvalidSpec):
            RngStream(0, value)
