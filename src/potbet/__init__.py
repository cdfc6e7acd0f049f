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
    sample_top,
)
from .betting import (
    BettingState,
    CalibrationReport,
    GameConfig,
    GameResult,
    LevelSelection,
    fit_levels,
    null_calibration,
    play_game,
    run_rounds,
    select_level,
    top_spacings,
)
from .estimate import (
    EstimateConfig,
    FrequencyEstimate,
    body_event_rate,
    estimate_frequency,
    exceedance_probability,
    poisson_interval,
)

__version__ = "0.1.0"


def __getattr__(name):
    # cli is imported on first use: importing it here would put it in
    # sys.modules before `python -m potbet.cli` runs it as __main__
    if name in ("PipelineConfig", "run_pipeline"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
