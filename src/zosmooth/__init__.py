"""Zeroth-order stochastic optimization with smoothing-based estimators."""

from .decision import (
    KnownDensityOracle,
    RandomFieldOracle,
    RatioBoundError,
    ValueBoundError,
    esgs_dd_known,
    esgs_dd_unknown,
    field_correlation,
)
from .estimators import (
    GradientSample,
    StochasticOracle,
    esgs_estimate,
    gs_estimate,
    second_moment_probe,
    spherical_estimate,
    spsa_estimate,
)
from .optimizer import (
    NonFiniteError,
    RunState,
    Schedule,
    run,
    sample_iterate_index,
    schedule_values,
    step,
    step_sizes,
    weighted_average,
)
from .problems import (
    BenchmarkProblem,
    error_metric,
    market_problem,
    nonconvex_min_problem,
    performative_gap,
    piecewise_linear_problem,
    quad_l1_problem,
)
from .projections import FeasibleSet, contains, project
from .rng import (
    RandomStream,
    sample_correlated_pair,
    sample_exponential,
    sample_gaussian_vector,
)
from .smoothing import (
    smoothed_gradient_quadrature,
    smoothed_value,
)

__all__ = [
    "BenchmarkProblem",
    "FeasibleSet",
    "GradientSample",
    "KnownDensityOracle",
    "NonFiniteError",
    "RandomFieldOracle",
    "RandomStream",
    "RatioBoundError",
    "RunState",
    "Schedule",
    "StochasticOracle",
    "ValueBoundError",
    "contains",
    "error_metric",
    "esgs_dd_known",
    "esgs_dd_unknown",
    "esgs_estimate",
    "field_correlation",
    "gs_estimate",
    "market_problem",
    "nonconvex_min_problem",
    "performative_gap",
    "piecewise_linear_problem",
    "project",
    "quad_l1_problem",
    "run",
    "sample_correlated_pair",
    "sample_exponential",
    "sample_gaussian_vector",
    "sample_iterate_index",
    "schedule_values",
    "second_moment_probe",
    "smoothed_gradient_quadrature",
    "smoothed_value",
    "spherical_estimate",
    "spsa_estimate",
    "step",
    "step_sizes",
    "weighted_average",
]

__version__ = "0.1.0"
