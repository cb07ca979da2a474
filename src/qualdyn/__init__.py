"""Best-response dynamics between a threshold institution and strategic
populations deciding whether to invest in qualification."""

import importlib

from .analysis import (
    BetaOfPi,
    EquilibriumRecord,
    GaussianClosedForms,
    GaussianSubsidyCheck,
    ImprovementRecord,
    SubsidyReport,
    UniformClosedForms,
    beta_of_pi,
    find_equilibria_scan,
    gaussian_closed_forms,
    near_realizability_bound,
    subsidy_equilibrium_shift,
    uniform_closed_forms,
)
from .core import (
    EconomyConfig,
    GroupSpec,
    QualificationState,
    balance,
    institutional_utility,
    normalize_groups,
    response_rate,
)
from .costs import (
    BimodalNormal,
    CostModel,
    EmpiricalCdf,
    Scaled,
    Shifted,
    TruncatedNormal,
    Uniform01,
    dominates,
    inverse_cdf,
    subsidize,
)
from .dynamics import (
    DynamicsConfig,
    DynamicsOutcome,
    FixedPoint,
    LimitCycle,
    NonConverged,
    TraceRecord,
    classify_stability,
    cycle_average,
    dynamics_from_config,
    individual_best_response,
    iterate,
    step,
    trace_lines,
)
from .errors import (
    AssumptionError,
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    FitError,
    ParameterError,
    ParseError,
    PreconditionError,
    QualdynError,
    UnsupportedModelError,
)
from .features import (
    BetaScore,
    EmpiricalScore,
    GaussianHalfspace,
    GroupScores,
    ScoreModel,
    UniformThreshold,
    decoupled_best_response,
    institution_best_response,
    normalized_angle,
)

__version__ = "0.1.0"

# The modules imported on first use (PEP 562), and the names that import
# them: few callers fit histograms or run the suites, so `import qualdyn`
# does not pay for them.
_LAZY = {
    **dict.fromkeys(
        (
            "ingest",
            "BetaFit",
            "HistogramSeries",
            "ScoreHistogram",
            "fit_beta",
            "fit_beta_resampled",
            "load_histogram",
            "to_score_model",
        ),
        "ingest",
    ),
    **dict.fromkeys(("verification", "CheckResult", "run_suite"), "verification"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = importlib.import_module(f".{module}", __name__)
    value = submodule if name == module else getattr(submodule, name)
    globals()[name] = value
    return value


__all__ = [
    "AssumptionError",
    "BetaFit",
    "BetaOfPi",
    "BetaScore",
    "BimodalNormal",
    "CheckResult",
    "ConfigurationError",
    "CostModel",
    "DegenerateDataError",
    "DomainError",
    "DynamicsConfig",
    "DynamicsOutcome",
    "EconomyConfig",
    "EmpiricalCdf",
    "EmpiricalScore",
    "EquilibriumRecord",
    "FitError",
    "FixedPoint",
    "GaussianClosedForms",
    "GaussianHalfspace",
    "GaussianSubsidyCheck",
    "GroupScores",
    "GroupSpec",
    "HistogramSeries",
    "ImprovementRecord",
    "LimitCycle",
    "NonConverged",
    "ParameterError",
    "ParseError",
    "PreconditionError",
    "QualdynError",
    "QualificationState",
    "Scaled",
    "ScoreHistogram",
    "ScoreModel",
    "Shifted",
    "SubsidyReport",
    "TraceRecord",
    "TruncatedNormal",
    "Uniform01",
    "UniformClosedForms",
    "UniformThreshold",
    "UnsupportedModelError",
    "balance",
    "beta_of_pi",
    "classify_stability",
    "cycle_average",
    "decoupled_best_response",
    "dominates",
    "dynamics_from_config",
    "find_equilibria_scan",
    "fit_beta",
    "fit_beta_resampled",
    "gaussian_closed_forms",
    "individual_best_response",
    "institution_best_response",
    "institutional_utility",
    "inverse_cdf",
    "iterate",
    "load_histogram",
    "near_realizability_bound",
    "normalize_groups",
    "normalized_angle",
    "response_rate",
    "run_suite",
    "step",
    "subsidize",
    "subsidy_equilibrium_shift",
    "to_score_model",
    "trace_lines",
    "uniform_closed_forms",
]
