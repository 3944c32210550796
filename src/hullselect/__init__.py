"""Risk-hull penalized variable selection and multiple-testing evaluation.

Public surface: mask/observation types and the sparsity penalty (core), the
preselector/selector pair (selector), signal-level active sets and their
penalty-path decomposition (oracle), confusion proportions and rate
aggregation (metrics), Hamming-ball confidence sets (uq), noise generators
with a tail diagnostic (noise), closed-form risk lower bounds (bounds), and
the seeded Monte-Carlo harness plus CLI (harness, cli).
"""

from ._version import __version__
from .bounds import (
    PHASE_CSV_HEADER,
    BoundQuery,
    LowerBound,
    PhaseRow,
    coordinate_risk,
    hamming_risk_lower_bound,
    phase_row_csv,
    phase_table,
    separation_for_level,
    std_normal_cdf,
)
from .core import (
    DimensionError,
    DomainError,
    ObservationVector,
    Q_DEFAULT,
    SelectionMask,
    hamming_distance,
    sparsity_penalty,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    RepRecord,
    experiment_config_from_dict,
    experiment_config_from_json,
    per_rep_csv_text,
    run_experiment,
    stream_seed,
    write_outputs,
)
from .metrics import (
    ConfusionCounts,
    ProportionSet,
    RateReport,
    aggregate,
    confusion,
    proportions,
)
from .noise import (
    Ar1,
    BoundedUniform,
    IidGaussian,
    MeanOf,
    NoiseModel,
    Rademacher,
    TailDiagnosticReport,
    noise_model_from_spec,
    sample_noise,
    tail_decay_diagnostic,
)
from .oracle import (
    ActiveSetResult,
    SelectionPathEntry,
    active_set,
    active_set_path,
    has_distinct_active_set,
    path_lookup,
    strong_signal_vector,
    variable_selection_path,
)
from .selector import SelectionResult, SelectorConfig, mallows_cp, preselect, select
from .uq import ConfidenceBall, UqConfig, confidence_radius, evaluate_uq_counts

__all__ = [
    "__version__",
    "Q_DEFAULT",
    "DomainError",
    "DimensionError",
    "SelectionMask",
    "ObservationVector",
    "sparsity_penalty",
    "hamming_distance",
    "SelectorConfig",
    "SelectionResult",
    "preselect",
    "select",
    "mallows_cp",
    "ActiveSetResult",
    "SelectionPathEntry",
    "active_set",
    "variable_selection_path",
    "active_set_path",
    "path_lookup",
    "has_distinct_active_set",
    "strong_signal_vector",
    "ConfusionCounts",
    "ProportionSet",
    "RateReport",
    "confusion",
    "proportions",
    "aggregate",
    "ConfidenceBall",
    "UqConfig",
    "confidence_radius",
    "evaluate_uq_counts",
    "NoiseModel",
    "IidGaussian",
    "Ar1",
    "BoundedUniform",
    "Rademacher",
    "MeanOf",
    "TailDiagnosticReport",
    "sample_noise",
    "noise_model_from_spec",
    "tail_decay_diagnostic",
    "BoundQuery",
    "LowerBound",
    "PhaseRow",
    "std_normal_cdf",
    "PHASE_CSV_HEADER",
    "phase_row_csv",
    "coordinate_risk",
    "hamming_risk_lower_bound",
    "separation_for_level",
    "phase_table",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "RepRecord",
    "experiment_config_from_dict",
    "experiment_config_from_json",
    "run_experiment",
    "per_rep_csv_text",
    "stream_seed",
    "write_outputs",
]
