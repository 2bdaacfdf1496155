"""Biased disease-testing simulation and bias-corrected prevalence estimation.

The package models testing as a missing-data problem over a stratified
population: individuals volunteer for testing with probabilities that depend
on their symptom level (and, in the hardest case, their infection status).
It provides the biased and bias-corrected prevalence estimators, the
active-information decomposition of the bias, asymptotic standard errors and
confidence intervals, and a deterministic Monte Carlo experiment layer that
validates the normal limits empirically.

Every name below is imported from its module on first use (PEP 562), so
``import prevbias`` loads nothing more.  The estimators compute on Python
numbers and load no numpy; the study engine (``experiments``, ``rng``,
``scenarios``) does.
"""

__version__ = "0.2.0"

# module -> the names it exports
_EXPORTS = {
    "asymptotics": (
        "ConfidenceInterval", "VarianceEstimates", "ci_active_info", "ci_logit_prevalence",
        "mechanism_plugin_inputs", "normal_quantile", "plugin_variances", "sigma_it", "sigma_p",
        "sigma_p0",
    ),
    "errors": (
        "BoundaryEstimate", "DivisionByZeroWeight", "EmptyRegion", "EmptySample", "EmptyStratum",
        "InvalidSpec", "MechanismMismatch", "NegativeVarianceCombination", "PrevBiasError",
        "TooLarge", "UndefinedActiveInfo", "ZeroTestingMass",
    ),
    "estimators": (
        "EstimateBundle", "active_info_estimates", "build_bundle", "conditional_targets",
        "p0_hat_general", "p0_hat_mar", "p0_hat_maxent", "p_hat", "share_weighted_p0",
    ),
    "experiments": ("ExperimentReport", "ReportRow", "ScenarioConfig", "run_experiment"),
    "maxent": ("SimplexSlab", "covid_shares", "mean_shares"),
    "model": (
        "AsymptoticQuantities", "Mechanism", "PopulationSpec", "active_info_testing",
        "corrected_prevalence_limit", "exact_quantities", "population_prevalence",
        "testing_prevalence",
    ),
    "rng": ("RngStream",),
    "sampler": ("TestingOutcome", "draw_outcome", "enumerate_outcomes"),
    "scenarios": ("coverage_scenario", "mar_scenario", "mcar_scenario", "mnar_scenario"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    module = _SOURCE.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    return value if module == name else getattr(value, name)
