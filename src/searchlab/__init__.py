"""Noisy single-target search: simulation, inference, and bounds.

A target occupies one of M = B/delta cells of an interval of width B.
Each probe measures the indicator of a chosen cell subset through
additive Gaussian noise whose variance grows with the probed mass.
The package provides the measurement channel and its capacity, Bayesian
posterior tracking, adaptive and non-adaptive search strategies, sample
complexity bounds, Monte Carlo drivers, and a CLI for sweeps.
"""

from .bounds import (
    BoundReport,
    RegimeRatio,
    adaptive_upper_bound,
    adaptivity_gain_lower_bound,
    asymptotic_ratios,
    feasible_alphas,
    fixed_b_limit_constant,
    fixed_delta_limit_constant,
    general_f_bounds,
    nonadaptive_lower_bound,
)
from .channel import (
    AEtaResult,
    bawgn_capacity,
    binary_entropy,
    gaussian_tail,
    gaussian_tail_inverse,
    optimal_composition,
    psi,
    psi_component,
    solve_a_eta,
)
from .cli import main
from .errors import (
    EtaTooLarge,
    InvalidAlpha,
    InvalidEpsilon,
    InvalidNoiseModel,
    NoFeasibleAlpha,
    NonIntegerLocationCount,
    NonMonotoneNoise,
    NoRootInBracket,
    ParseError,
    ProbeCountOutOfRange,
    QuadratureNonConvergence,
    SearchLabError,
    SizeOne,
    StepLimitExceeded,
    ValidationError,
)
from .model import (
    NoiseModel,
    SearchConfig,
    TrialRecord,
    new_config,
)
from .plan import ExperimentPlan, load_preset, parse_plan, run_plan
from .sim import (
    DriftReport,
    SummaryStats,
    drift_probe,
    run_single_trial,
    run_trials,
    trial_seed_for,
)
from .strategies import (
    EXHAUSTIVE,
    FIXED_COMPOSITION,
    KINDS,
    NOISY_BINARY_FIXED,
    NOISY_BINARY_VARIABLE,
    SORTED_PM,
    TWO_STAGE,
    StrategySpec,
    run_strategy,
)

__version__ = "0.1.0"

__all__ = [
    "AEtaResult",
    "BoundReport",
    "DriftReport",
    "EXHAUSTIVE",
    "EtaTooLarge",
    "ExperimentPlan",
    "FIXED_COMPOSITION",
    "InvalidAlpha",
    "InvalidEpsilon",
    "InvalidNoiseModel",
    "KINDS",
    "NOISY_BINARY_FIXED",
    "NOISY_BINARY_VARIABLE",
    "NoFeasibleAlpha",
    "NoiseModel",
    "NonIntegerLocationCount",
    "NonMonotoneNoise",
    "NoRootInBracket",
    "ParseError",
    "ProbeCountOutOfRange",
    "QuadratureNonConvergence",
    "RegimeRatio",
    "SORTED_PM",
    "SearchConfig",
    "SearchLabError",
    "SizeOne",
    "StepLimitExceeded",
    "StrategySpec",
    "SummaryStats",
    "TWO_STAGE",
    "TrialRecord",
    "ValidationError",
    "adaptive_upper_bound",
    "adaptivity_gain_lower_bound",
    "asymptotic_ratios",
    "bawgn_capacity",
    "binary_entropy",
    "drift_probe",
    "feasible_alphas",
    "fixed_b_limit_constant",
    "fixed_delta_limit_constant",
    "gaussian_tail",
    "gaussian_tail_inverse",
    "general_f_bounds",
    "load_preset",
    "main",
    "new_config",
    "nonadaptive_lower_bound",
    "optimal_composition",
    "parse_plan",
    "psi",
    "psi_component",
    "run_plan",
    "run_single_trial",
    "run_strategy",
    "run_trials",
    "solve_a_eta",
    "trial_seed_for",
]
