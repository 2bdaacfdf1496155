"""The logit-interval kernel on numpy columns against Python floats, bit for bit.

`asymptotics._logit_endpoints` back-transforms ``logit(est) -/+ half_width``.
`ci_logit_prevalence` calls it on one Python float with ``math.log``,
``math.exp`` and `asymptotics._choose`; the study engine calls it on float64
columns with ``math.log`` and ``math.exp`` mapped entry by entry
(`experiments._libm`) and ``np.where``.  Every entry of the columns must be
the float the scalar call gives: on an edge grid of estimates from the
smallest subnormal to ``1 - 2**-53`` against half-widths from 0 to inf and
NaN, and on random pairs.  NaN must appear exactly where the float path
gives NaN, and no numpy warning may escape.  The engine's own call is held
to the one-shot functions by `tests/test_batch_equals_scalar.py`.
"""

import math
import warnings

import numpy as np
import pytest

from prevbias.asymptotics import _ABOVE_ZERO, _BELOW_ONE, _choose, _logit_endpoints
from prevbias.experiments import _libm

EDGE_ESTIMATES = [5e-324, 1e-12, 0.5, 1.0 - 2.0**-53]
EDGE_HALF_WIDTHS = [0.0, 5e-324, 1e-300, 50.0, 1e308, math.inf, math.nan]
RANDOM_PAIRS = 100_000


def _random_pairs(seed=0):
    rng = np.random.default_rng(seed)
    which = rng.integers(0, 3, RANDOM_PAIRS)
    tiny = 10.0 ** rng.uniform(-300.0, 0.0, RANDOM_PAIRS)
    est = np.select([which == 0, which == 1], [rng.uniform(0.0, 1.0, RANDOM_PAIRS), tiny], 1.0 - tiny)
    est = np.clip(est, 5e-324, 1.0 - 2.0**-53)
    half = 10.0 ** rng.uniform(-20.0, 4.0, RANDOM_PAIRS)
    half[rng.random(RANDOM_PAIRS) < 0.05] = 0.0
    return est, half


def _on_floats(est, half):
    pairs = [_logit_endpoints(e, h, math.log, math.exp, _choose) for e, h in zip(est.tolist(), half.tolist())]
    assert all(type(x) is float for pair in pairs for x in pair)
    lo, hi = zip(*pairs)
    return np.array(lo), np.array(hi)


def _on_columns(est, half):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _logit_endpoints(est, half, _libm(math.log), _libm(math.exp), np.where)


def _assert_same_bits(columns, floats):
    nan = np.isnan(floats)
    np.testing.assert_array_equal(np.isnan(columns), nan)
    np.testing.assert_array_equal(columns[~nan].view(np.uint64), floats[~nan].view(np.uint64))


@pytest.mark.parametrize("grid", ["edge", "random"])
def test_columns_give_the_bits_of_floats(grid):
    if grid == "edge":
        est, half = (np.array(x) for x in zip(*[(e, h) for e in EDGE_ESTIMATES for h in EDGE_HALF_WIDTHS]))
    else:
        est, half = _random_pairs()
    lo, hi = _on_columns(est, half)
    float_lo, float_hi = _on_floats(est, half)
    _assert_same_bits(lo, float_lo)
    _assert_same_bits(hi, float_hi)
    # NaN only from a NaN half-width; otherwise strictly inside (0, 1) around est
    np.testing.assert_array_equal(np.isnan(lo), np.isnan(half))
    ok = ~np.isnan(half)
    assert np.all((_ABOVE_ZERO <= lo[ok]) & (lo[ok] <= est[ok]) & (est[ok] <= hi[ok]) & (hi[ok] <= _BELOW_ONE))


def test_edge_endpoints():
    est = np.array(EDGE_ESTIMATES)
    for half, (want_lo, want_hi) in {
        0.0: (est, est),
        math.inf: (_ABOVE_ZERO, _BELOW_ONE),
        1e308: (_ABOVE_ZERO, _BELOW_ONE),
    }.items():
        lo, hi = _on_columns(est, np.full(est.size, half))
        np.testing.assert_array_equal(lo, np.broadcast_to(want_lo, est.shape))
        np.testing.assert_array_equal(hi, np.broadcast_to(want_hi, est.shape))

