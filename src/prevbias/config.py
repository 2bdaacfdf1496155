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

Shares are decimal or fraction strings (``"0.8"``, ``"4/5"``) so that the
integer subpopulation-size checks are exact at every grid size; plain numbers
are accepted but are interpreted through their decimal literal.  The
mechanism's ``rho_s`` and maxent ``lower``/``upper`` take the same forms.

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

import numpy as np

from .errors import InvalidSpec
from .experiments import ScenarioConfig
from .model import Mechanism
from .sampler import TestingOutcome


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise InvalidSpec(f"{where} is missing required key {key!r}")
    return doc[key]


def parse_mechanism(doc) -> Mechanism:
    if not isinstance(doc, dict):
        raise InvalidSpec("mechanism must be an object with a 'type' key")
    kind = _require(doc, "type", "mechanism")
    if kind == "mcar":
        return Mechanism.mcar()
    if kind == "mar":
        return Mechanism.mar(_require(doc, "rho_s", "mar mechanism"))
    if kind == "maxent":
        return Mechanism.maxent(doc.get("lower"), doc.get("upper"))
    raise InvalidSpec(f"unknown mechanism type {kind!r} (expected mcar, mar, or maxent)")


def parse_scenario(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise InvalidSpec("scenario config must be a JSON object")
    population = _require(doc, "population", "config")
    rho = _require(population, "rho", "population")
    pi = _require(population, "pi", "population")
    return ScenarioConfig(
        rho=tuple(tuple(str(cell) for cell in row) for row in rho),
        pi=np.asarray(pi, dtype=float),
        mechanism=parse_mechanism(_require(doc, "mechanism", "config")),
        n_grid=tuple(int(n) for n in _require(doc, "n_grid", "config")),
        replicates=int(_require(doc, "replicates", "config")),
        alpha=float(_require(doc, "alpha", "config")),
        seed=int(_require(doc, "seed", "config")),
        label=str(_require(doc, "label", "config")),
    )


def load_scenario(path) -> tuple[ScenarioConfig, bytes]:
    """Read a scenario file; returns the parsed config and the raw bytes
    (hashed into the run manifest)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"config is not valid JSON: {exc}") from exc
    return parse_scenario(doc), raw


def parse_count_table(doc: dict):
    """Parse a one-shot estimation request.

    Returns ``(outcome, mechanism, alpha)``.
    """
    if not isinstance(doc, dict):
        raise InvalidSpec("count table must be a JSON object")
    n = int(_require(doc, "N", "count table"))
    counts = np.asarray(_require(doc, "counts", "count table"), dtype=np.int64)
    outcome = TestingOutcome(counts=counts, n=n)
    mechanism = parse_mechanism(_require(doc, "mechanism", "count table"))
    if mechanism.kind == "mar" and mechanism.rho_s.shape != (outcome.s,):
        raise InvalidSpec("mechanism rho_s length does not match the count-table classes")
    alpha = float(doc.get("alpha", 0.05))
    if not 0.0 < alpha <= 1.0:
        raise InvalidSpec(f"alpha must lie in (0, 1], got {alpha!r}")
    return outcome, mechanism, alpha
