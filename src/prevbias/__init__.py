"""Biased disease-testing simulation and bias-corrected prevalence estimation.

The package models testing as a missing-data problem over a stratified
population: individuals volunteer for testing with probabilities that depend
on their symptom level (and, in the hardest case, their infection status).
It provides the biased and bias-corrected prevalence estimators, the
active-information decomposition of the bias, asymptotic standard errors and
confidence intervals, and a deterministic Monte Carlo experiment layer that
validates the normal limits empirically.
"""

__version__ = "0.1.0"

from .asymptotics import (
    ConfidenceInterval,
    VarianceEstimates,
    ci_active_info,
    ci_logit_prevalence,
    mechanism_plugin_inputs,
    normal_quantile,
    plugin_variances,
    sigma_it,
    sigma_p,
    sigma_p0,
)
from .errors import (
    BoundaryEstimate,
    DivisionByZeroWeight,
    EmptyRegion,
    EmptySample,
    EmptyStratum,
    InvalidSpec,
    MechanismMismatch,
    NegativeVarianceCombination,
    PrevBiasError,
    RejectionStarvation,
    TooLarge,
    UndefinedActiveInfo,
    ZeroTestingMass,
)
from .estimators import (
    EstimateBundle,
    active_info_estimates,
    build_bundle,
    conditional_targets,
    p0_hat_general,
    p0_hat_mar,
    p0_hat_maxent,
    p0_hat_mcar,
    p_hat,
    share_weighted_p0,
)
from .experiments import (
    ExperimentReport,
    FanRecord,
    ReportRow,
    ScenarioConfig,
    run_coverage_table,
    run_experiment,
)
from .maxent import ShareEstimate, SimplexSlab, covid_shares, expected_shares, mean_shares
from .model import (
    AsymptoticQuantities,
    Mechanism,
    PopulationSpec,
    active_info_testing,
    corrected_prevalence_limit,
    exact_quantities,
    population_prevalence,
    testing_prevalence,
)
from .rng import RngStream
from .sampler import TestingOutcome, draw_count_matrices, draw_outcome, enumerate_outcomes
from .scenarios import (
    coverage_scenario,
    mar_scenario,
    mcar_scenario,
    mnar_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
