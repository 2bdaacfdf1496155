"""The class-sum kernel on numpy columns against the one-shot path, bit for bit.

`asymptotics._class_sums` computes the corrected estimate and V1..V4 from
per-class values.  `build_bundle` calls it once, through the plug-in stage
`_plugin_sums`, on Python floats for one table, and the study engine calls
the same stage on numpy columns for a batch.  Here a
batch of random tables goes through the kernel once, as ``(S, R)`` columns
masked by the inactive-class convention, and each of the five outputs must
equal the one-shot path table by table, to the bit: for
S = 2..9, under mcar, mar and bounded maxent, with zero-share classes, empty
classes and class rates of 0 or 1.  The planted tables are ones whose total
testing mass ``d`` has ``d**2 != d * d`` in Python floats (libm ``pow`` is
not correctly rounded there on glibc 2.36), so a kernel that squares with
``**`` disagrees with itself on them.

The division-by-zero edges are pinned too: on Python floats a stray
``/ 0.0`` raises ``ZeroDivisionError`` where numpy gives inf, so
`_plugin_sums` picks each denominator before it divides, and only the kernel
itself, given a zero testing mass, raises.
"""

import numpy as np
import pytest

from prevbias import (
    EmptyStratum,
    Mechanism,
    TestingOutcome as Outcome,
    build_bundle,
)
from prevbias.asymptotics import _choose, _class_sums, _plugin_sums

from conftest import oracle_plugin_inputs

TABLES = 160  # per mechanism and class count
KINDS = ("mcar", "mar", "maxent")
# (counts, N, mechanism) tables with pow(d, 2) != d * d, where d is the
# plug-in testing mass sum(rho_hat * pi_hat)
POW_TABLES = [
    ([[1, 41], [2, 88]], 328, Mechanism.mcar()),
    ([[10, 40], [43, 95]], 270, Mechanism.mcar()),
    ([[39, 85], [15, 13]], 424, Mechanism.mar([0.6, 0.4])),
    ([[29, 49], [39, 45], [49, 60]], 522, Mechanism.mar([0.5, 0.25, 0.25])),
    ([[30, 58], [76, 6]], 223, Mechanism.maxent([0.3, 0.5], [0.4, 0.7])),
    ([[94, 18], [47, 32], [43, 54]], 651, Mechanism.maxent([0.45, 0.15, 0.05], [0.65, 0.35, 0.25])),
]


def _mechanism(kind: str, s_count: int, rng, zero_share: bool):
    """A mechanism, with one zero-share class if ``zero_share``."""
    if kind == "mcar":
        return Mechanism.mcar()
    zero = rng.integers(s_count) if zero_share else None
    if kind == "mar":
        w = rng.dirichlet(np.ones(s_count))
        if zero is not None:
            w[zero] = 0.0
        return Mechanism.mar(w / w.sum())
    centre = rng.dirichlet(np.ones(s_count))
    lower = np.maximum(centre - rng.uniform(0.0, 0.2, s_count), 0.0)
    upper = np.minimum(centre + rng.uniform(0.0, 0.2, s_count), 1.0)
    if zero is not None:
        lower[zero] = upper[zero] = 0.0
        lower *= 0.5
        upper = np.minimum(upper * 2.0, 1.0)
    if upper.sum() < 1.0:
        upper = np.minimum(upper + (1.0 - upper.sum()), 1.0)
    return Mechanism.maxent(lower, upper)


def _tables(kind: str, s_count: int):
    """(outcome, mechanism) pairs that the scalar path keeps."""
    rng = np.random.default_rng([23, s_count, KINDS.index(kind)])
    tables = []
    for j in range(4):
        mech = _mechanism(kind, s_count, rng, zero_share=j % 2 == 0)
        for k in range(TABLES // 4):
            n_si = rng.integers(1, 10 ** rng.integers(1, 5), size=(s_count, 2))
            counts = rng.binomial(n_si, rng.uniform(0.0, 1.0, size=(s_count, 2)))
            if k % 5 == 1:
                counts[rng.integers(s_count), rng.integers(2)] = 0  # a class rate of 0 or 1
            elif k % 5 == 2:
                counts[rng.integers(s_count)] = 0  # an empty class
            outcome = Outcome(counts=counts, n=int(n_si.sum()))
            weights = outcome.n_ts if mech.rho_s is None else mech.rho_s  # mcar weights by the sample
            if outcome.n_t and all(n or w == 0.0 for n, w in zip(outcome.n_ts, weights)):
                tables.append((outcome, mech))
    return tables


def _scalar(outcome, mech) -> list[float]:
    """p0, V1..V4 of one table through the one-shot path.  Under mcar the
    reply's p0_hat is p_hat, so the kernel's p0 is read from `_plugin_sums`."""
    bundle = build_bundle(outcome, mech)
    p0 = bundle.p0_hat
    if mech.kind == "mcar":
        positives = [row[1] for row in outcome.counts]
        p0 = _plugin_sums(outcome.n, outcome.n_t, outcome.n_ts, positives, bundle.rho_hat, True, _choose)[0]
    return [p0, *bundle.variances[:4]]


def _columns(tables) -> tuple:
    """The kernel's inputs for every table, as ``(S, R)`` columns with
    inactive classes set to ``w = 0``, ``w_den = 1``, ``pi = 1``, ``rate = 0``."""
    pi_hat, rho_hat = np.array([oracle_plugin_inputs(o, m) for o, m in tables]).transpose(1, 2, 0)
    counts = np.array([o.counts for o, _ in tables]).transpose(1, 2, 0)
    active = rho_hat > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(active, counts[:, 1] / counts.sum(axis=1), 0.0)
    return (
        np.where(active, rho_hat, 0.0), np.where(active, rho_hat, 1.0), np.where(active, pi_hat, 1.0), rate
    )


def _assert_columns_equal_scalars(tables):
    with np.errstate(divide="ignore", invalid="ignore"):
        w, w_den, pi, rate = _columns(tables)
        got = np.array(_class_sums(w, w_den, pi, rate, w * pi))
    want = np.array([_scalar(o, m) for o, m in tables]).T
    for name, g, e in zip(("p0", "v1", "v2", "v3", "v4"), got, want):
        np.testing.assert_array_equal(g.view(np.uint64), e.view(np.uint64), err_msg=name)


@pytest.mark.parametrize("s_count", range(2, 10))
@pytest.mark.parametrize("kind", KINDS)
def test_columns_equal_the_scalar_path_bitwise(kind, s_count):
    tables = _tables(kind, s_count)
    assert len(tables) > TABLES // 2
    assert any(0 in o.n_ts for o, _ in tables), "no empty class"
    assert any(sum(c) and c[1] in (0, sum(c)) for o, _ in tables for c in o.counts), "no class rate of 0 or 1"
    if kind != "mcar":
        assert any(0.0 in m.rho_s for _, m in tables), "no zero-share class"
    _assert_columns_equal_scalars(tables)


@pytest.mark.parametrize("counts, n, mech", POW_TABLES)
def test_tables_whose_mass_pow_is_not_correctly_rounded(counts, n, mech):
    outcome = Outcome(counts=counts, n=n)
    _assert_columns_equal_scalars([(outcome, mech)])
    _assert_columns_equal_scalars(_tables(mech.kind, outcome.s)[:5] + [(outcome, mech)])


class TestDivisionByZeroEdges:
    def test_a_subnormal_share_enters_the_estimate(self):
        # pi_hat = 10 / (100 * 5e-324) overflows to inf, and so does the testing mass
        outcome = Outcome(counts=[[0, 10], [10, 0]], n=100)
        assert build_bundle(outcome, Mechanism.mar([5e-324, 1.0])).p0_hat == 5e-324

    def test_an_empty_weighted_class_is_still_an_empty_stratum(self):
        with pytest.raises(EmptyStratum):
            build_bundle(Outcome(counts=[[3, 1], [0, 0]], n=10), Mechanism.mar([0.0, 1.0]))

    @pytest.mark.parametrize(
        "w, pi, rate",
        [(0.0, 1.0, 0.0), (1e-100, 1e-100, 0.5)],  # an inactive class alone; a mass squaring to 0
    )
    def test_floats_raise_where_numpy_columns_give_inf_or_nan(self, w, pi, rate):
        with pytest.raises(ZeroDivisionError):
            _class_sums([w], [w or 1.0], [pi], [rate], [w * pi])
        with np.errstate(divide="ignore", invalid="ignore"):
            v1 = _class_sums(*(np.array([[x]]) for x in (w, w or 1.0, pi, rate, w * pi)))[1]
        assert not np.isfinite(v1[0])
