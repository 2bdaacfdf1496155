"""`prevbias estimate` on generated count tables never crashes and never goes
silent.

About a thousand seeded tables (`conftest.generated_count_tables`: S = 1..4,
every mechanism form, empty, zero-share, subnormal-share and zero-positive
classes, empty samples, N from 10 to 1e6, alpha from 1e-20 to 1) run in
process through `cli.main`.  Each must exit 0 or 2, never 3.  Exit 2 prints
exactly one line on stderr.  In an exit-0 reply each sigma present is a
finite non-negative number, each interval present is two finite numbers in
order around its estimate, and a warning explains every sigma or interval
that is absent or null:

* absent keys: ``standard errors unavailable: ...``;
* a null ``ci_p`` or ``ci_p0``: ``<key> undefined: estimate on the boundary``;
* a null ``sigma_i_t`` and ``ci_i_t``: the boundary warning of ``ci_p`` or
  ``ci_p0``, since the information needs both estimates inside (0, 1);
* a null ``i_t_hat`` or ``i_c_hat``: ``active information undefined: ...``.

Below alpha = 2^-53 the level ``1 - alpha/2`` rounds to 1, and
`normal_quantile` takes the quantile from the lower tail, so those intervals
are finite too, as the golden reply ``mar_alpha_1e-20`` pins.
"""

import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest

from prevbias import (
    InvalidSpec,
    Mechanism,
    NegativeVarianceCombination,
    ScenarioConfig,
    build_bundle,
    run_experiment,
    sigma_p0,
)
from prevbias.cli import main
from prevbias.sampler import TestingOutcome as Outcome

from conftest import generated_count_tables

TABLES = 1000
BOUNDARY = {key: f"{key} undefined: estimate on the boundary" for key in ("ci_p", "ci_p0")}
UNAVAILABLE = "standard errors unavailable: "
UNDEFINED_INFO = "active information undefined: "
# two tables with a subnormal share: pi_hat = N_Ts / (N * 5e-324) overflows
# to inf, so V1..V4 are NaN; the first also has p0_hat = 5e-324, whose
# square underflows to 0
SUBNORMAL_TABLES = [
    {"N": 369, "counts": [[140, 0], [36, 123]], "mechanism": {"type": "mar", "rho_s": [1.0, 5e-324]}},
    {"N": 100, "counts": [[30, 10], [5, 5]], "mechanism": {"type": "mar", "rho_s": [5e-324, 1.0]}},
]


def _estimate(doc, monkeypatch) -> tuple[int, str, str]:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(json.dumps(doc).encode())))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate"])
    return code, out.getvalue(), err.getvalue()


def _problems(doc, monkeypatch) -> list[str]:
    """What breaks the reply invariants on one table; empty when none does."""
    code, out, err = _estimate(doc, monkeypatch)
    if code == 2:
        return [] if out == "" and len(err.splitlines()) == 1 else [f"exit 2 printed {out!r}, {err!r}"]
    if code != 0:
        return [f"exit {code}: {err.splitlines()[-1:]}"]
    reply = json.loads(out)
    warnings = reply["warnings"]
    unavailable = any(w.startswith(UNAVAILABLE) for w in warnings)
    boundary = any(w in warnings for w in BOUNDARY.values())
    problems = []
    if None in (reply["i_t_hat"], reply["i_c_hat"]) and not any(w.startswith(UNDEFINED_INFO) for w in warnings):
        problems.append("i_t_hat or i_c_hat null without a warning")
    for key, estimate in (("sigma_p", None), ("sigma_p0", None), ("sigma_i_t", None),
                          ("ci_p", "p_hat"), ("ci_p0", "p0_hat"), ("ci_i_t", "i_t_hat")):
        if key not in reply:
            if not unavailable:
                problems.append(f"{key} absent without a warning")
            continue
        value = reply[key]
        if value is None:
            if not (BOUNDARY[key] in warnings if key in BOUNDARY else boundary):
                problems.append(f"{key} null without a warning")
        elif estimate is None:
            if not (isinstance(value, float) and math.isfinite(value) and value >= 0.0):
                problems.append(f"{key} = {value!r}")
        elif None in value or not value[0] <= reply[estimate] <= value[1]:
            problems.append(f"{key} = {value!r} around {estimate} = {reply[estimate]!r}")
    return problems


def test_generated_tables_exit_0_or_2_and_explain_every_missing_value(monkeypatch):
    tables = generated_count_tables(TABLES, seed=27)
    failures = []
    for doc in tables:
        problems = _problems(doc, monkeypatch)
        if problems:
            failures.append((doc, problems))
    assert not failures, f"{len(failures)} tables, first: {failures[:3]}"
    # the generator reaches what it is meant to
    kinds = {(doc["mechanism"]["type"], "lower" in doc["mechanism"]) for doc in tables}
    assert kinds == {("mcar", False), ("mar", False), ("maxent", False), ("maxent", True)}
    assert {len(doc["counts"]) for doc in tables} == {1, 2, 3, 4}
    shares = [x for doc in tables for x in doc["mechanism"].get("rho_s", [])]
    assert 0.0 in shares and 5e-324 in shares
    assert any(not any(map(any, doc["counts"])) for doc in tables), "no empty sample"
    assert min(doc["alpha"] for doc in tables) < 1e-19 and 1.0 in {doc["alpha"] for doc in tables}


@pytest.mark.parametrize("doc", SUBNORMAL_TABLES, ids=["p0_hat_subnormal", "pi_hat_overflows"])
def test_subnormal_share_tables_warn_and_leave_the_standard_errors_out(doc, monkeypatch):
    assert _problems(doc, monkeypatch) == []
    code, out, err = _estimate(doc, monkeypatch)
    reply = json.loads(out)
    assert (code, err) == (0, "")
    assert [w for w in reply["warnings"] if w.startswith(UNAVAILABLE)] == [
        UNAVAILABLE + "(V1 + V2) / N = nan is not finite; "
        "a share or an estimate is too close to 0 for float arithmetic"
    ]
    assert not {"sigma_p", "sigma_p0", "sigma_i_t", "ci_p", "ci_p0", "ci_i_t"} & set(reply)


def test_an_overflowing_information_ratio_is_undefined_with_a_warning(monkeypatch):
    # p0_hat = 5e-324, so p_hat / p0_hat overflows to inf, whose log is inf
    code, out, err = _estimate(SUBNORMAL_TABLES[0], monkeypatch)
    reply = json.loads(out)
    assert (code, err, reply["i_t_hat"], reply["i_c_hat"]) == (0, "", None, None)
    assert reply["warnings"][0] == UNDEFINED_INFO + "p_hat / p0_hat = 0.411371237458194 / 5e-324 overflows"


def _subnormal_scenario(rho, mechanism, n_grid):
    return ScenarioConfig(
        rho=rho, pi=[[1.0, 1.0]] + [[0.5, 0.5]] * (len(rho) - 1), mechanism=mechanism, n_grid=n_grid,
        replicates=50, alpha=0.05, seed=3, label="subnormal",
    )


def test_a_mar_share_of_5e_324_weights_only_replicates_that_the_engine_discards():
    # A population share is a multiple of 1/N, and a mar share must lie within
    # 1e-12 of it.  Below N = 10**12 a share of 5e-324 therefore matches only
    # a share of 0, whose class has no individuals: every replicate is
    # discarded, and the engine never forms the overflowing pi_hat above.
    mechanism = Mechanism.mar([5e-324, 1.0])
    cfg = _subnormal_scenario([["0", "0"], ["0.3", "0.7"]], mechanism, (20, 10**6, 10**12 - 10))
    assert [row.kept for row in run_experiment(cfg).rows] == [0, 0, 0]
    with pytest.raises(InvalidSpec, match="inconsistent"):
        _subnormal_scenario([["0.01", "0"], ["0.3", "0.69"]], mechanism, (100,))


@pytest.mark.parametrize(
    "mechanism, n",
    [
        (Mechanism.mar([5e-324, 1.0]), 10**13),  # within 1e-12 of the share 1/N, but not relatively
        (Mechanism.maxent([5e-324, 0.0], [5e-324, 1.0]), 100),  # bounds are not held to the population
    ],
    ids=["mar_beyond_1e12", "bounded_maxent"],
)
def test_a_subnormal_share_of_a_tested_class_raises_in_the_engine_as_in_sigma_p0(mechanism, n):
    # class 0 holds one individual, tested with probability 1, and its share
    # is 5e-324: pi_hat would overflow to inf and V3 be NaN in every
    # replicate, so the config is refused before the engine runs
    rho = [[Fraction(1, n), 0], [Fraction(1, 2) - Fraction(1, n), Fraction(1, 2)]]
    with pytest.raises(InvalidSpec):
        _subnormal_scenario(rho, mechanism, (n,))
    outcome = Outcome(counts=[[1, 0], [20, 30]], n=n)
    with pytest.raises(NegativeVarianceCombination, match=r"V3 / N = nan is not finite"):
        sigma_p0(build_bundle(outcome, mechanism).variances, n)


@pytest.mark.parametrize(
    "mechanism, n",
    [
        ({"type": "mar", "rho_s": [5e-324, 1.0]}, 10**13),
        ({"type": "maxent", "lower": [5e-324, 0.0], "upper": [5e-324, 1.0]}, 100),
    ],
    ids=["mar_beyond_1e12", "bounded_maxent"],
)
def test_a_subnormal_share_of_a_tested_class_exits_2_from_run_and_writes_nothing(mechanism, n, tmp_path, capsys):
    # the configs above as a user writes them: one error line, no out-dir
    rho = [[f"1/{n}", "0"], [str(Fraction(1, 2) - Fraction(1, n)), "1/2"]]
    doc = {
        "label": "subnormal", "seed": 3, "replicates": 50, "alpha": 0.05, "n_grid": [n],
        "population": {"rho": rho, "pi": [[1.0, 1.0], [0.5, 0.5]]}, "mechanism": mechanism,
    }
    config = tmp_path / "subnormal.json"
    config.write_text(json.dumps(doc))
    code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [config]


ALPHA_TABLE = {"N": 10_000, "counts": [[300, 30], [40, 60]], "mechanism": {"type": "mar", "rho_s": ["0.8", "0.2"]}}


def test_tiny_alphas_give_finite_information_intervals_that_widen(monkeypatch):
    widths = []
    for exponent in range(15, 321, 5):
        doc = dict(ALPHA_TABLE, alpha=10.0**-exponent)
        assert _problems(doc, monkeypatch) == []
        code, out, err = _estimate(doc, monkeypatch)
        reply = json.loads(out)
        assert (code, err, reply["warnings"]) == (0, "", [])
        lo, hi = reply["ci_i_t"]
        assert math.isfinite(lo) and math.isfinite(hi) and lo < reply["i_t_hat"] < hi
        widths.append(hi - lo)
    assert widths == sorted(widths) and len(set(widths)) == len(widths)


def test_an_alpha_whose_half_is_0_exits_2(monkeypatch):
    code, out, err = _estimate(dict(ALPHA_TABLE, alpha=5e-324), monkeypatch)
    assert (code, out, err) == (2, "", "error: alpha must lie in [1e-323, 1], got 5e-324\n")
    assert _estimate(dict(ALPHA_TABLE, alpha=1e-323), monkeypatch)[0] == 0
