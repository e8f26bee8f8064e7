"""The end-to-end event-impact protocol.

A scenario fits one linear model per target on a pre-event training
window, scores it on a held-out test window, then projects a
counterfactual "no event" price path over the projection window and
measures how far realized prices diverged from it. Two correlation
matrices (before/after windows) capture the shift in cross-market
structure around the event.

Counterfactual feature handling is the one place the protocol is genuinely
ambiguous, so both readings are explicit modes:

- ``date_shifted``: feed the pre-event source window's feature rows,
  re-dated onto the projection window's trading dates (cycling the source
  rows when the projection window is longer). No post-event information
  enters the model.
- ``oracle_features``: feed the realized projection-window features. The
  projection then isolates how far the fitted relationship itself drifted.

The protocol runs as named stages: ``universe_series`` (one input series
per universe symbol), ``window_slice`` (a named window's rows, or a
ConfigError naming the uncovered window), ``correlations``,
``fit_target`` and ``project_target``. Each stage slices only the windows
it reads. ``run_scenario`` runs them all; the CLI's correlate, fit and
project subcommands run the stages they need, so their outputs equal the
matching parts of a full run and an uncovered window fails them alike.

Given identical config and input series, a scenario run is fully
deterministic, and its report serializes to byte-identical JSON.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConfigError, EventLensError, PanelError, json_array, json_number, json_object
from .ingest import InstrumentId, InstrumentKind, RawSeries
from .metrics import MetricsReport, score
from .panel import FIELD_ORDER, AlignedPanel, BarField, ColumnKey, DateWindow, align
from .regress import (
    FeatureSpec,
    RegressionModel,
    fit_ols,
    model_from_json_dict,
    predict,
    spec_to_json_dict,
)
# report_to_json_bytes stays importable from here: perfbench and
# tests/test_scenario.py call it as scenario's.
from .report import report_to_json_bytes, report_to_json_dict  # noqa: F401
from .stats import CorrelationMatrix, correlation_matrix, matrix_from_json_dict


class ProjectionMode(str, Enum):
    DATE_SHIFTED = "date_shifted"
    ORACLE_FEATURES = "oracle_features"


PROVENANCE_KEYS = ("config_digest", "data_digests", "projection_mode", "projection_cycles")
_SHA256_HEX = re.compile("[0-9a-f]{64}")

WINDOW_NAMES = (
    "train_window",
    "test_window",
    "correlation_before",
    "correlation_after",
    "source_window",
    "projection_window",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """The full dated experimental protocol.

    ``source_window`` supplies counterfactual feature rows in date_shifted
    mode; ``projection_window`` is where the counterfactual is scored
    against realized prices.
    """

    universe: tuple[InstrumentId, ...]
    feature_specs: tuple[FeatureSpec, ...]
    train_window: DateWindow
    test_window: DateWindow
    correlation_before: DateWindow
    correlation_after: DateWindow
    source_window: DateWindow
    projection_window: DateWindow
    projection_mode: ProjectionMode = ProjectionMode.DATE_SHIFTED

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", tuple(self.universe))
        object.__setattr__(self, "feature_specs", tuple(self.feature_specs))
        if not self.universe:
            raise ConfigError("universe must not be empty")
        symbols = [instrument.symbol for instrument in self.universe]
        if len(set(symbols)) != len(symbols):
            raise ConfigError("universe contains duplicate symbols")
        if not self.feature_specs:
            raise ConfigError("at least one feature spec is required")
        # Identical train/test windows are allowed as an exact-fit diagnostic;
        # the test window must simply not begin before training data does.
        if self.test_window.start < self.train_window.start:
            raise ConfigError(
                f"test window {self.test_window} starts before training window {self.train_window}"
            )
        for name, window in self.named_windows().items():
            if window.start >= window.end:
                raise ConfigError(f"{name} {window} is degenerate")
        known = set(symbols)
        for spec in self.feature_specs:
            for key in (spec.target, *spec.features):
                if key.symbol not in known:
                    raise ConfigError(
                        f"column {key.name} not resolvable from universe {sorted(known)}"
                    )

    def named_windows(self) -> dict[str, DateWindow]:
        return {name: getattr(self, name) for name in WINDOW_NAMES}

    def close_keys(self) -> tuple[ColumnKey, ...]:
        return tuple(ColumnKey(i.symbol, BarField.CLOSE) for i in self.universe)


@dataclass(frozen=True)
class TargetResult:
    """Fit, test score, and counterfactual-vs-realized paths for one target;
    the two paths are finite and share the strictly increasing projection
    dates."""

    model: RegressionModel
    test_metrics: MetricsReport
    projection_dates: tuple[dt.date, ...]
    realized: np.ndarray
    counterfactual: np.ndarray
    divergence_metrics: MetricsReport

    def __post_init__(self) -> None:
        realized = np.array(self.realized, dtype=float)
        counterfactual = np.array(self.counterfactual, dtype=float)
        n = len(self.projection_dates)
        if realized.shape != (n,) or counterfactual.shape != (n,):
            raise ConfigError("realized and counterfactual series must share the projection dates")
        if not (np.isfinite(realized).all() and np.isfinite(counterfactual).all()):
            raise ConfigError("realized and counterfactual series must be finite")
        dates = tuple(self.projection_dates)
        if any(later <= earlier for earlier, later in zip(dates, dates[1:])):
            raise ConfigError("projection dates must be strictly increasing")
        realized.flags.writeable = False
        counterfactual.flags.writeable = False
        object.__setattr__(self, "realized", realized)
        object.__setattr__(self, "counterfactual", counterfactual)
        object.__setattr__(self, "projection_dates", dates)


@dataclass(frozen=True)
class ScenarioReport:
    """Everything a scenario run produced, keyed by target symbol.

    Each target's model predicts that target. ``provenance`` has exactly the
    ``PROVENANCE_KEYS``: SHA-256 hex digests of the config and of each input
    series (keyed by the symbols of the correlation labels, in their order),
    the ``ProjectionMode`` value and the number of projection cycles.
    """

    targets: dict[str, TargetResult]
    correlation_before: CorrelationMatrix
    correlation_after: CorrelationMatrix
    provenance: dict

    def __post_init__(self) -> None:
        for symbol, result in self.targets.items():
            if result.model.spec.target.symbol != symbol:
                raise ConfigError(f"target {symbol} has a model of {result.model.spec.target.name}")
        provenance = self.provenance
        if set(provenance) != set(PROVENANCE_KEYS):
            raise ConfigError(f"provenance keys must be {', '.join(PROVENANCE_KEYS)}")
        digests = provenance["data_digests"]
        if not isinstance(digests, dict) or not all(
            isinstance(digest, str) and _SHA256_HEX.fullmatch(digest)
            for digest in (provenance["config_digest"], *digests.values())
        ):
            raise ConfigError("provenance digests must be 64 lowercase hex characters")
        symbols = [label.symbol for label in self.correlation_before.labels]
        if list(digests) != symbols:
            raise ConfigError(
                f"provenance data_digests must name the universe symbols {symbols} in order,"
                f" got {list(digests)}"
            )
        if provenance["projection_mode"] not in tuple(mode.value for mode in ProjectionMode):
            raise ConfigError(f"unknown projection_mode {provenance['projection_mode']!r}")
        if json_number(provenance["projection_cycles"], "projection_cycles", whole=True) < 1:
            raise ConfigError("projection_cycles must be at least 1")

    @cached_property
    def document(self) -> dict:
        """The report's ``report_to_json_dict``, built once: ``emit`` renders
        the bundle and ``report_to_json_bytes`` the saved report from it."""
        return report_to_json_dict(self)


# --- config (de)serialization -------------------------------------------------

def _iso_date(text: str, what: str = "projection date") -> dt.date:
    """The date ``text`` names in the YYYY-MM-DD form configs and reports are written in."""
    date = dt.date.fromisoformat(text)
    if date.isoformat() != text:
        raise ConfigError(f"{what} {text!r} is not in YYYY-MM-DD form")
    return date


def _window_from_json(document: dict, name: str) -> DateWindow:
    if name not in document:
        raise ConfigError(f"malformed scenario config: missing {name}")
    try:
        window = document[name]
        return DateWindow(*(_iso_date(window[bound], f"{name} {bound}") for bound in ("start", "end")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {name}: {exc}") from exc


def config_to_json_dict(config: ScenarioConfig) -> dict:
    document: dict = {
        "universe": [{"symbol": i.symbol, "kind": i.kind.value} for i in config.universe],
        "feature_specs": [spec_to_json_dict(spec) for spec in config.feature_specs],
    }
    for name, window in config.named_windows().items():
        document[name] = {"start": window.start.isoformat(), "end": window.end.isoformat()}
    document["projection_mode"] = config.projection_mode.value
    return document


def config_from_json_dict(document: dict) -> ScenarioConfig:
    # Specs share most of their column names; each distinct name is parsed once.
    keys: dict[str, ColumnKey] = {}

    def column_key(name: str) -> ColumnKey:
        key = keys.get(name)
        if key is None:
            key = keys[name] = ColumnKey.parse(name)
        return key

    try:
        universe = tuple(
            InstrumentId(entry["symbol"], InstrumentKind(entry["kind"]))
            for entry in json_array(document["universe"], "universe")
        )
        feature_specs = tuple(
            FeatureSpec(
                target=column_key(entry["target"]),
                features=tuple(map(column_key, json_array(entry["features"], "spec features"))),
                include_intercept=entry.get("include_intercept", True),
            )
            for entry in json_array(document["feature_specs"], "feature_specs")
        )
        mode = ProjectionMode(document.get("projection_mode", ProjectionMode.DATE_SHIFTED.value))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario config: {exc}") from exc
    windows = {name: _window_from_json(document, name) for name in WINDOW_NAMES}
    return ScenarioConfig(universe, feature_specs, **windows, projection_mode=mode)


def config_digest(config: ScenarioConfig) -> str:
    """SHA-256 of the canonicalized config document."""
    canonical = json.dumps(config_to_json_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def series_digest(series: RawSeries) -> str:
    """SHA-256 of the series' canonical CSV bytes."""
    return series.digest


# --- execution: the protocol's stages -------------------------------------------

def universe_series(config: ScenarioConfig, data: Iterable[RawSeries]) -> list[RawSeries]:
    """The input series in universe order, exactly one per universe symbol."""
    by_symbol: dict[str, RawSeries] = {}
    for series in data:
        symbol = series.instrument.symbol
        if symbol in by_symbol:
            raise ConfigError(f"duplicate input series for {symbol}")
        by_symbol[symbol] = series
    missing = [i.symbol for i in config.universe if i.symbol not in by_symbol]
    if missing:
        raise ConfigError(f"no input series for universe symbols: {', '.join(missing)}")
    return [by_symbol[i.symbol] for i in config.universe]


def window_slice(panel: AlignedPanel, config: ScenarioConfig, name: str) -> AlignedPanel:
    """The panel rows inside the config's named window (a named_windows() key)."""
    try:
        return panel.slice(getattr(config, name))
    except PanelError as exc:
        raise ConfigError(f"{name} not covered by aligned data: {exc}") from exc


def correlations(
    panel: AlignedPanel, config: ScenarioConfig
) -> tuple[CorrelationMatrix, CorrelationMatrix]:
    """Close-price correlation matrices over the before and after windows."""
    close_keys = config.close_keys()
    return (
        correlation_matrix(window_slice(panel, config, "correlation_before"), close_keys),
        correlation_matrix(window_slice(panel, config, "correlation_after"), close_keys),
    )


def fit_target(panel: AlignedPanel, config: ScenarioConfig, spec: FeatureSpec) -> RegressionModel:
    """The spec's least-squares model, fit on the training window."""
    return fit_ols(window_slice(panel, config, "train_window"), spec)


def project_target(
    panel: AlignedPanel, config: ScenarioConfig, model: RegressionModel
) -> tuple[tuple[dt.date, ...], np.ndarray, np.ndarray]:
    """Projection-window dates, realized target closes, and the model's
    counterfactual closes over those dates."""
    projection = window_slice(panel, config, "projection_window")
    counterfactual = predict(model, projection_features(panel, config, model.spec))
    return projection.dates, projection.column(model.spec.target), counterfactual


def projection_features(
    panel: AlignedPanel, config: ScenarioConfig, spec: FeatureSpec
) -> AlignedPanel:
    """Feature rows for the counterfactual projection, per the config's mode.

    oracle_features returns the projection-window slice verbatim.
    date_shifted re-dates the source-window rows onto the projection
    window's trading dates, cycling the source rows when the projection
    window is longer.
    """
    missing = next((key for key in spec.features if key not in panel.index), None)
    if missing is not None:
        panel.column(missing)  # names the first missing feature
    projection = window_slice(panel, config, "projection_window")
    if config.projection_mode is ProjectionMode.ORACLE_FEATURES:
        return projection
    window_slice(panel, config, "source_window")  # names an uncovered source window
    return panel.slice(config.source_window, onto=config.projection_window)


def projection_cycles(config: ScenarioConfig, panel: AlignedPanel) -> int:
    """Number of passes over the source rows needed to cover the projection
    window (1 means no cycling); always 1 in oracle_features mode."""
    if config.projection_mode is ProjectionMode.ORACLE_FEATURES:
        return 1
    n_source = window_slice(panel, config, "source_window").n_rows
    n_projection = window_slice(panel, config, "projection_window").n_rows
    return -(-n_projection // n_source)


def run_scenario(config: ScenarioConfig, data: Iterable[RawSeries]) -> ScenarioReport:
    """Execute the full protocol and assemble a deterministic report.

    Align the universe, check every window is covered, compute both
    correlation matrices, then per target fit on the training window,
    score on the test window, project the counterfactual path, and measure
    its divergence from realized closes over the projection window.
    """
    ordered = universe_series(config, data)
    data_digests = {series.instrument.symbol: series_digest(series) for series in ordered}
    panel = align(ordered, FIELD_ORDER)
    # Every window is checked before any stage runs, so the first uncovered
    # one in named_windows() order is the error reported.
    slices = {name: window_slice(panel, config, name) for name in config.named_windows()}
    correlation_before, correlation_after = correlations(panel, config)
    cycles = projection_cycles(config, panel)

    test = slices["test_window"]
    targets: dict[str, TargetResult] = {}
    for spec in config.feature_specs:
        symbol = spec.target.symbol
        try:
            model = fit_target(panel, config, spec)
            test_metrics = score(test.column(spec.target), predict(model, test))
            dates, realized, counterfactual = project_target(panel, config, model)
            divergence_metrics = score(realized, counterfactual)
        except EventLensError as exc:
            raise type(exc)(f"target {symbol}: {exc}") from exc
        targets[symbol] = TargetResult(
            model=model,
            test_metrics=test_metrics,
            projection_dates=dates,
            realized=realized,
            counterfactual=counterfactual,
            divergence_metrics=divergence_metrics,
        )

    provenance = {
        "config_digest": config_digest(config),
        "data_digests": data_digests,
        "projection_mode": config.projection_mode.value,
        "projection_cycles": cycles,
    }
    return ScenarioReport(
        targets=targets,
        correlation_before=correlation_before,
        correlation_after=correlation_after,
        provenance=provenance,
    )


# --- report deserialization -------------------------------------------------------

def _json_numbers(entry: dict, name: str) -> list[float]:
    return [json_number(v, name) for v in json_array(entry[name], name)]


def report_from_json_dict(document: dict) -> ScenarioReport:
    """The report of a ``report_to_json_dict`` document. Each object must be
    a JSON object, and any value the report's types refuse (a FitError,
    StatsError or MetricError among them) is a ConfigError."""
    try:
        document = json_object(document, "scenario report")
        targets = {}
        for symbol, entry in json_object(document["targets"], "targets").items():
            entry = json_object(entry, f"target {symbol}")
            targets[symbol] = TargetResult(
                model=model_from_json_dict(entry["model"]),
                test_metrics=MetricsReport.from_json_dict(entry["test_metrics"]),
                projection_dates=tuple(
                    map(_iso_date, json_array(entry["projection_dates"], "projection_dates"))
                ),
                realized=_json_numbers(entry, "realized"),
                counterfactual=_json_numbers(entry, "counterfactual"),
                divergence_metrics=MetricsReport.from_json_dict(entry["divergence_metrics"]),
            )
        return ScenarioReport(
            targets=targets,
            correlation_before=matrix_from_json_dict(document["correlation_before"]),
            correlation_after=matrix_from_json_dict(document["correlation_after"]),
            provenance=json_object(document["provenance"], "provenance"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, EventLensError) as exc:
        raise ConfigError(f"malformed scenario report document: {exc}") from exc
