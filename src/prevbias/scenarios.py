"""Bundled simulation scenarios, one config document each.

``mcar`` tests everyone alike.  ``mar`` tests by symptom level (stronger
symptoms select into testing) and corrects with the known class shares.
``mnar`` tests by infection status too; the known-share correction is
applied anyway, so a persistent bias is expected and the residual
information term quantifies it.  ``coverage1`` and ``coverage2`` stress the
corrected-estimate intervals at a small and a moderate prevalence; their
within-class splits are choices of this package (only the class shares and
the total prevalence are pinned).

``configs/<name>.json`` holds the document of scenario ``name``
(:func:`scenario_document`), and every builder here parses its document with
:func:`prevbias.config.parse_scenario`, so overrides follow the rules of a
config file.
"""

from __future__ import annotations

import copy

from .config import parse_scenario
from .experiments import ScenarioConfig

# name -> (rho, pi, rho_s): the population, and the known class shares of
# the mar correction or None for mcar; scenario_document fills in the grid,
# replicate count, level and seed, which every scenario shares
_SCENARIOS = {
    "mcar": ([["0.75", "0.05"], ["0.05", "0.15"]], [[0.6, 0.6], [0.6, 0.6]], None),
    "mar": ([["0.75", "0.05"], ["0.05", "0.15"]], [[0.1, 0.1], [0.9, 0.9]], ["0.8", "0.2"]),
    "mnar": ([["0.75", "0.05"], ["0.05", "0.15"]], [[0.2, 0.3], [0.7, 0.8]], ["0.8", "0.2"]),
    "coverage1": ([["0.89", "0.01"], ["0.06", "0.04"]], [[0.1, 0.1], [0.9, 0.9]], ["0.9", "0.1"]),
    "coverage2": ([["0.77", "0.03"], ["0.08", "0.12"]], [[0.1, 0.1], [0.9, 0.9]], ["0.8", "0.2"]),
}


def scenario_document(name: str, n_grid=None, replicates=None, alpha=None, seed=None, label=None) -> dict:
    """The config document of the bundled scenario ``name``, with each
    override that is not None in place of its default."""
    rho, pi, rho_s = copy.deepcopy(_SCENARIOS[name])
    doc = {
        "label": name,
        "seed": 20240101,
        "replicates": 500,
        "alpha": 0.05,
        "n_grid": [1000, 10000, 100000, 1000000],
        "population": {"rho": rho, "pi": pi},
        "mechanism": {"type": "mcar"} if rho_s is None else {"type": "mar", "rho_s": rho_s},
    }
    overrides = {"label": label, "seed": seed, "replicates": replicates, "alpha": alpha, "n_grid": n_grid}
    doc.update((key, value) for key, value in overrides.items() if value is not None)
    return doc


def mcar_scenario(n_grid=None, replicates=None, alpha=None, seed=None, label=None) -> ScenarioConfig:
    """Uniform testing, no correction needed."""
    return parse_scenario(scenario_document("mcar", n_grid, replicates, alpha, seed, label))


def mar_scenario(n_grid=None, replicates=None, alpha=None, seed=None, label=None) -> ScenarioConfig:
    """Symptom-dependent testing with the known-share correction."""
    return parse_scenario(scenario_document("mar", n_grid, replicates, alpha, seed, label))


def mnar_scenario(n_grid=None, replicates=None, alpha=None, seed=None, label=None) -> ScenarioConfig:
    """Testing depends on infection status too; the known-share correction is
    applied regardless, so only part of the bias is removed."""
    return parse_scenario(scenario_document("mnar", n_grid, replicates, alpha, seed, label))


def coverage_scenario(
    which: int, n_grid=None, replicates=None, alpha=None, seed=None, label=None
) -> ScenarioConfig:
    """Interval-coverage scenarios: 1 = small prevalence, 2 = moderate."""
    if which not in (1, 2):
        raise ValueError(f"coverage scenario must be 1 or 2, got {which!r}")
    return parse_scenario(scenario_document(f"coverage{int(which)}", n_grid, replicates, alpha, seed, label))
