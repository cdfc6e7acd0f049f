"""Rare-event frequency estimation from few climate runs.

Seasonal peaks-over-threshold models with an exponential tail, quantile
level selected by a betting game on top-order-statistic spacings, and
frequency estimates from exact binomial counts with minimal-length Poisson
confidence intervals.
"""

from .ingest import (
    Dataset,
    GridRun,
    OracleFrequency,
    SynthSpec,
    generate_synthetic,
    ground_truth_frequency,
    load_dataset,
    write_dataset,
)
from .reduce import (
    AngularReport,
    ExceedanceSet,
    TargetSpec,
    UnivariateTarget,
    angular_diagnostic,
    count_events,
    empirical_quantile,
    reduce_target,
)
from .potmodel import (
    AdjustedExceedances,
    CyclicScale,
    PotModel,
    QQReport,
    adjust,
    extract_exceedances,
    fit_pot_model,
    fit_seasonal_scale,
    observed_exceedance_values,
    qq_exponential,
    sample_model,
    survival,
)
from .betting import (
    BettingState,
    CalibrationReport,
    GameConfig,
    GameResult,
    LevelSelection,
    fit_levels,
    null_calibration,
    run_rounds,
    select_level,
    top_spacings,
)
from .estimate import (
    EstimateConfig,
    FrequencyEstimate,
    body_event_rate,
    estimate_frequency,
    poisson_interval,
)

__version__ = "0.1.0"
