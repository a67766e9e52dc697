"""Sensor placement planning with Gaussian-process beliefs.

The package models a static scalar field as a Gaussian process, scores
candidate sensing locations by the expected information gain of one more
noisy reading, and runs greedy or random measurement episodes so the two
policies can be compared on equal footing.
"""

from .errors import (
    ConfigError,
    DataError,
    FieldDomainError,
    InvalidInputError,
    NumericalDegeneracyError,
    PlacementError,
    PlanningError,
    SensorPlanError,
)
from .gp import (
    GaussianBelief,
    KernelSpec,
    MeanSpec,
    MeasurementLog,
    jittered_cholesky,
    kernel_matrix,
    posterior,
    sample_prior_field,
)
from .infogain import (
    EDGResult,
    UnnormalizedFormResult,
    edg_exact,
    edg_quadrature,
    edg_unnormalized_form,
    kl_gaussian,
)
from .environment import (
    ANALYTIC_CATALOG,
    AnalyticField,
    GridData,
    GridField,
    GroundTruthField,
    PolygonMask,
    RoIMask,
    SampledField,
    field_value,
    load_grid_csv,
    place_scenario,
    sample_field,
    save_grid_csv,
)
from .metrics import (
    METRIC_NAMES,
    aggregate_series,
    intersection_indices,
)
from .planner import (
    PLANNER_KINDS,
    EpisodeTrace,
    ScenarioConfig,
    greedy_select,
    run_episode,
)

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC_CATALOG",
    "AnalyticField",
    "ConfigError",
    "DataError",
    "EDGResult",
    "EpisodeTrace",
    "FieldDomainError",
    "GaussianBelief",
    "GridData",
    "GridField",
    "GroundTruthField",
    "InvalidInputError",
    "KernelSpec",
    "METRIC_NAMES",
    "MeanSpec",
    "MeasurementLog",
    "NumericalDegeneracyError",
    "PLANNER_KINDS",
    "PlacementError",
    "PlanningError",
    "PolygonMask",
    "RoIMask",
    "SampledField",
    "ScenarioConfig",
    "SensorPlanError",
    "UnnormalizedFormResult",
    "aggregate_series",
    "edg_exact",
    "edg_quadrature",
    "edg_unnormalized_form",
    "field_value",
    "greedy_select",
    "intersection_indices",
    "jittered_cholesky",
    "kernel_matrix",
    "kl_gaussian",
    "load_grid_csv",
    "place_scenario",
    "posterior",
    "run_episode",
    "sample_field",
    "sample_prior_field",
    "save_grid_csv",
    "__version__",
]
