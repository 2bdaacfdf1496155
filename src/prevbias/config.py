"""JSON input formats for the command line.

A scenario document looks like::

    {
      "label": "mar",
      "seed": 20240101,
      "replicates": 500,
      "alpha": 0.05,
      "n_grid": [1000, 10000, 100000, 1000000],
      "population": {
        "rho": [["0.75", "0.05"], ["0.05", "0.15"]],
        "pi":  [[0.1, 0.1], [0.9, 0.9]]
      },
      "mechanism": {"type": "mar", "rho_s": ["0.8", "0.2"]}
    }

Every number follows one rule.  It may be a JSON number or a decimal or
fraction string (``0.8``, ``"0.8"``, ``"4/5"``); a JSON number is read by
its shortest decimal, so ``0.05`` is exactly 1/20 and the integer
subpopulation-size checks are exact at every grid size.  That holds for
``rho``, ``pi`` (fraction strings included), ``alpha``, the mechanism's
``rho_s`` and the maxent ``lower``/``upper``.  ``n_grid``, ``replicates``,
``seed``, ``N`` and ``counts`` must be whole numbers (``1000``, ``1e3`` and
``"1000"`` agree; ``1000.5`` is refused), and ``seed`` lies in
``[0, 2**64)``.  ``label`` names the report files and must be a plain
file-name stem: no ``/`` or ``\\``, and not ``.`` or ``..``.

A count-table document for one-shot estimation looks like::

    {
      "N": 10000,
      "counts": [[380, 20], [40, 60]],
      "mechanism": {"type": "mar", "rho_s": ["0.8", "0.2"]},
      "alpha": 0.05
    }

with rows ordered by symptom level and columns (healthy, infected).  Other
keys are ignored, ``seed`` and ``n_samples`` among them: bounded-share
mechanisms use the exact mean shares and need neither.
"""

from __future__ import annotations

import json

from .errors import InvalidSpec
from .model import Mechanism, _coerce_alpha, _coerce_whole
from .sampler import TestingOutcome


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{where} must be a JSON object")
    if key not in doc:
        raise InvalidSpec(f"{where} is missing required key {key!r}")
    return doc[key]


def parse_mechanism(doc) -> Mechanism:
    kind = _require(doc, "type", "mechanism")
    if kind == "mcar":
        return Mechanism.mcar()
    if kind == "mar":
        return Mechanism.mar(_require(doc, "rho_s", "mar mechanism"))
    if kind == "maxent":
        return Mechanism.maxent(doc.get("lower"), doc.get("upper"))
    raise InvalidSpec(f"unknown mechanism type {kind!r} (expected mcar, mar, or maxent)")


def parse_scenario(doc: dict):
    """The :class:`prevbias.experiments.ScenarioConfig` of a scenario document;
    the engine, and numpy with it, is imported only here."""
    from .experiments import ScenarioConfig

    population = _require(doc, "population", "config")
    return ScenarioConfig(
        rho=_require(population, "rho", "population"),
        pi=_require(population, "pi", "population"),
        mechanism=parse_mechanism(_require(doc, "mechanism", "config")),
        n_grid=_require(doc, "n_grid", "config"),
        replicates=_require(doc, "replicates", "config"),
        alpha=_require(doc, "alpha", "config"),
        seed=_require(doc, "seed", "config"),
        label=str(_require(doc, "label", "config")),
    )


def read_input(path) -> bytes:
    """The bytes of an input file; a file that cannot be read is invalid input."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise InvalidSpec(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_scenario(path, seed=None):
    """Read a scenario file; returns the parsed config and the raw bytes
    (hashed into the run manifest).  A ``seed`` replaces the file's own in
    the document before it is parsed; the file's seed must still be present
    and valid, and is checked after the rest of the config."""
    raw = read_input(path)
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond the 4300-digit limit
        raise InvalidSpec(f"config is not valid JSON: {exc}") from exc
    if seed is None or not isinstance(doc, dict) or "seed" not in doc:
        return parse_scenario(doc), raw  # a missing seed fails here, override or not
    config = parse_scenario({**doc, "seed": seed})
    _coerce_whole(doc["seed"], "seed", high=2**64 - 1)
    return config, raw


def parse_count_table(doc: dict):
    """Parse a one-shot estimation request.

    Returns ``(outcome, mechanism, alpha)``.
    """
    n = _coerce_whole(_require(doc, "N", "count table"), "N", low=1)
    outcome = TestingOutcome(counts=_require(doc, "counts", "count table"), n=n)
    mechanism = parse_mechanism(_require(doc, "mechanism", "count table"))
    return outcome, mechanism, _coerce_alpha(doc.get("alpha", 0.05))
