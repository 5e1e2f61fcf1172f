"""Stochastic gradient methods for interpolating finite-sum problems.

A numpy library implementing constant step-size SGD and its three-sequence
Nesterov-accelerated variant for objectives whose stochastic gradients
satisfy relative-growth bounds, together with growth-constant estimators,
a margin-controlled synthetic data generator, and a reproducible
experiment harness with rate-fitting diagnostics.
"""

from .data import (
    LibsvmFormatError,
    RbfConfig,
    default_rbf_config,
    generate_margin_data,
    load_libsvm,
    normalize_rows,
    rbf_features,
    save_libsvm,
    subsample,
)
from .growth import (
    GrowthEstimate,
    audit_sgc,
    empirical_sgc_ratio,
    grid_search_rho,
    rho_sgc_margin,
    rho_wgc,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    PerceptronReport,
    RateFit,
    fit_rate,
    perceptron_check,
    reproduce_figure,
    run_experiment,
)
from .numerics import (
    PowerIterationError,
    child_rng,
    gaussian_vector,
    make_rng,
    spectral_norm_gram,
)
from .objectives import Dataset, Objective, smoothness_constants
from .optimizers import (
    AccelSchedule,
    AccelState,
    LineSearchError,
    RunConfig,
    RunError,
    SgdConfig,
    accel_schedule_advance,
    accel_step,
    init_accel_state,
    line_search_accel_step,
    line_search_sgd_step,
    make_schedule,
    run,
    sgd_step,
)
from .problems import PlToyObjective, QuadraticObjective
from .records import CSV_HEADER, LOSS_FLOOR, MetricRow, RunRecord

__version__ = "0.1.0"

__all__ = [
    "AccelSchedule",
    "AccelState",
    "CSV_HEADER",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "GrowthEstimate",
    "LOSS_FLOOR",
    "LibsvmFormatError",
    "LineSearchError",
    "MetricRow",
    "Objective",
    "PerceptronReport",
    "PlToyObjective",
    "PowerIterationError",
    "QuadraticObjective",
    "RateFit",
    "RbfConfig",
    "RunConfig",
    "RunError",
    "RunRecord",
    "SgdConfig",
    "accel_schedule_advance",
    "accel_step",
    "audit_sgc",
    "child_rng",
    "default_rbf_config",
    "empirical_sgc_ratio",
    "fit_rate",
    "gaussian_vector",
    "generate_margin_data",
    "grid_search_rho",
    "init_accel_state",
    "line_search_accel_step",
    "line_search_sgd_step",
    "load_libsvm",
    "make_rng",
    "make_schedule",
    "normalize_rows",
    "perceptron_check",
    "rbf_features",
    "reproduce_figure",
    "rho_sgc_margin",
    "rho_wgc",
    "run",
    "run_experiment",
    "save_libsvm",
    "sgd_step",
    "smoothness_constants",
    "spectral_norm_gram",
    "subsample",
]
