"""Event-impact analysis for financial indexes.

Quantifies the effect of a discrete event on a set of market indexes two
ways: the shift in windowed Pearson correlation structure around the
event, and the divergence of realized prices from a counterfactual path
projected by a linear model trained on pre-event data.
"""

from .errors import (
    BarInvariantError,
    CacheError,
    ConfigError,
    DataFormatError,
    EventLensError,
    FitError,
    MetricError,
    PanelError,
    ProviderError,
    StatsError,
)
from .ingest import (
    DailyBar,
    InstrumentId,
    InstrumentKind,
    ProviderConfig,
    RawSeries,
    fetch_daily,
    fetch_universe,
    load_csv,
)
from .metrics import MetricsReport, mae, mape, mse, rmse, score
from .panel import AlignedPanel, BarField, ColumnKey, DateWindow, align
from .regress import (
    FeatureSpec,
    FitDiagnostics,
    RegressionModel,
    fit_ols,
    predict,
)
from .report import ReportBundle, emit, report_to_json_bytes, report_to_json_dict
from .scenario import (
    ProjectionMode,
    ScenarioConfig,
    ScenarioReport,
    TargetResult,
    config_digest,
    config_from_json_dict,
    config_to_json_dict,
    report_from_json_dict,
    run_scenario,
)
from .stats import CorrelationMatrix, correlation_matrix, pearson

__version__ = "0.1.0"

__all__ = [
    "AlignedPanel",
    "BarField",
    "BarInvariantError",
    "CacheError",
    "ColumnKey",
    "ConfigError",
    "CorrelationMatrix",
    "DailyBar",
    "DataFormatError",
    "DateWindow",
    "EventLensError",
    "FeatureSpec",
    "FitDiagnostics",
    "FitError",
    "InstrumentId",
    "InstrumentKind",
    "MetricError",
    "MetricsReport",
    "PanelError",
    "ProjectionMode",
    "ProviderConfig",
    "ProviderError",
    "RawSeries",
    "RegressionModel",
    "ReportBundle",
    "ScenarioConfig",
    "ScenarioReport",
    "StatsError",
    "TargetResult",
    "align",
    "config_digest",
    "config_from_json_dict",
    "config_to_json_dict",
    "correlation_matrix",
    "emit",
    "fetch_daily",
    "fetch_universe",
    "fit_ols",
    "load_csv",
    "mae",
    "mape",
    "mse",
    "pearson",
    "predict",
    "report_from_json_dict",
    "report_to_json_bytes",
    "report_to_json_dict",
    "rmse",
    "run_scenario",
    "score",
]
