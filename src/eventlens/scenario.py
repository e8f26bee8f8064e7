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
ConfigError naming the uncovered window), ``correlations`` and
``projection_features`` (a spec's counterfactual feature rows). Each
stage slices only the windows it reads.

``run_scenario`` fits, predicts and scores consecutive specs of one design
shape as numpy stacks (``regress.fit_stack``, ``regress.predict_stack``,
``metrics.score_stack``), fit stacks bounded by FIT_STACK_BYTES. Each
item of a stack gets the LAPACK and BLAS calls one array would get, so
every result equals its one-item form's (``regress.fit_ols``,
``regress.predict``, ``metrics.score``) bit for bit. A stacked fit or
score stops at the first item it refuses and returns that item's error, so
the run names the first error in (spec, stage) order, fit before test score
before divergence score, prefixed with its target's symbol. The CLI's
correlate, fit and project subcommands call the stages and one-item forms
they need, so their outputs equal the matching parts of a full run and an
uncovered window fails them alike.

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
from itertools import filterfalse, groupby
from operator import attrgetter
from typing import Iterable

import numpy as np

from .errors import ConfigError, EventLensError, PanelError, json_array, json_number, json_object
from .ingest import InstrumentId, InstrumentKind, RawSeries
from .metrics import MetricsReport, score_stack
from .panel import FIELD_ORDER, AlignedPanel, BarField, ColumnKey, DateWindow, align
from .regress import (
    FeatureSpec,
    RegressionModel,
    fit_stack,
    model_from_json_dict,
    predict_stack,
    spec_to_json_dict,
)
# report_to_json_bytes stays importable from here: perfbench and
# tests/test_scenario.py call it as scenario's.
from .report import report_to_json_bytes, report_to_json_dict  # noqa: F401
from .stats import CorrelationMatrix, correlation_matrix, matrix_from_json_dict


class ProjectionMode(str, Enum):
    DATE_SHIFTED = "date_shifted"
    ORACLE_FEATURES = "oracle_features"


# The most bytes of training design cells one stacked fit holds; its
# gathered cells, [X | y], QR factors and design grow with it. Measured in
# process on a 2-vCPU AVX-512 host, 128 KiB (3 dense designs of 70 x 59 cells,
# 2 wide ones of 830 x 8) beat stacks of one design in 129 and 122 of two runs
# of 150 alternating run_scenario calls on dense (51.2 -> 48.4 ms) and 136 of
# 150 on wide (11.1 -> 10.1 ms). 512 KiB lost to 128 KiB in 128 of 150 calls
# on dense and 140 of 150 on wide, and took peak_rss_mib from 39.6 to 40.5 MiB
# on dense and from 39.3 to 40.9 on wide; one stack per run of specs took
# dense to 45.1 MiB, past the benchmark's 5% bound.
FIT_STACK_BYTES = 128 * 1024

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
SCENARIO_KEYS = ("universe", "feature_specs", *WINDOW_NAMES, "projection_mode")


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
    the ``ProjectionMode`` value and the number of projection cycles. Both
    matrices have the same labels, and each target is one of their symbols.
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
        if self.correlation_after.labels != self.correlation_before.labels:
            raise ConfigError("correlation_after labels must equal correlation_before labels")
        for symbol in self.targets:
            if symbol not in symbols:
                raise ConfigError(f"target {symbol} is not among the universe symbols {symbols}")

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
    # Specs share most of their column names: each distinct name is parsed
    # once, in document order, and the rest are dictionary lookups.
    parsed: dict[str, ColumnKey] = {}

    def column_keys(names: list) -> tuple[ColumnKey, ...]:
        for name in filterfalse(parsed.__contains__, names):
            parsed[name] = ColumnKey.parse(name)
        return tuple(map(parsed.__getitem__, names))

    try:
        universe = tuple(
            InstrumentId(entry["symbol"], InstrumentKind(entry["kind"]))
            for entry in json_array(document["universe"], "universe")
        )
        feature_specs = tuple(
            FeatureSpec(
                target=column_keys([entry["target"]])[0],
                features=column_keys(json_array(entry["features"], "spec features")),
                include_intercept=entry.get("include_intercept", True),
            )
            for entry in json_array(document["feature_specs"], "feature_specs")
        )
        mode = ProjectionMode(document.get("projection_mode", ProjectionMode.DATE_SHIFTED.value))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario config: {exc}") from exc
    windows = {name: _window_from_json(document, name) for name in WINDOW_NAMES}
    # Keys are checked once every object has been read, so a malformed
    # object is named as such before an unknown key is.
    for entries, keys, what in (
        ([document], SCENARIO_KEYS, "scenario"),
        (document["universe"], ("symbol", "kind"), "universe entry"),
        (document["feature_specs"], ("target", "features", "include_intercept"), "feature spec"),
        *(([document[name]], ("start", "end"), name) for name in WINDOW_NAMES),
    ):
        unknown = [key for entry in entries for key in entry if key not in keys]
        if unknown:
            raise ConfigError(f"unknown {what} key {unknown[0]!r}")
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


def projection_features(
    panel: AlignedPanel, config: ScenarioConfig, spec: FeatureSpec
) -> AlignedPanel:
    """Feature rows for the counterfactual projection, per the config's mode.

    oracle_features returns the projection-window slice verbatim.
    date_shifted re-dates the source-window rows onto the projection
    window's trading dates, cycling the source rows when the projection
    window is longer.
    """
    names = map(attrgetter("name"), spec.features)
    missing = next(filterfalse(panel.by_name.__contains__, names), None)
    if missing is not None:
        raise PanelError(f"unknown column {missing}")
    return _feature_rows(panel, config)


def _feature_rows(panel: AlignedPanel, config: ScenarioConfig) -> AlignedPanel:
    """``projection_features``' panel, which is one panel for every spec."""
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

    results = _targets(panel, config, slices)
    targets = {spec.target.symbol: result for spec, result in zip(config.feature_specs, results)}

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


def _targets(
    panel: AlignedPanel, config: ScenarioConfig, slices: dict[str, AlignedPanel]
) -> list[TargetResult]:
    """Each spec's fit, test score and projection, in spec order, or the
    first error in (spec, stage) order, fit before test score before
    divergence score, prefixed with its target's symbol.

    Consecutive specs of one design shape (feature count and intercept) are
    fit in stacks of at most FIT_STACK_BYTES of training design cells, up to
    the first fit error, then the fitted specs are predicted and scored in
    one stack per window. Each spec's columns are looked up once, by name:
    every window's panel shares ``panel``'s rows.
    """
    names = ("train_window", "test_window", "projection_window")
    train, test, projection = (slices[name] for name in names)
    features = _feature_rows(panel, config)
    results: list[TargetResult] = []
    runs = groupby(config.feature_specs, lambda spec: (len(spec.features), spec.include_intercept))
    for (n_features, include_intercept), group in runs:
        group = tuple(group)
        columns = [key.name for spec in group for key in (spec.target, *spec.features)]
        rows = np.fromiter(map(panel.by_name.__getitem__, columns), np.intp, len(columns))
        rows = rows.reshape(len(group), -1)
        n_coef = include_intercept + n_features
        step = max(1, FIT_STACK_BYTES // (8 * train.n_rows * n_coef))
        models: list[RegressionModel] = []
        for start in range(0, len(group), step):
            stack = slice(start, start + step)
            fitted, fit_error = fit_stack(train.values[rows[stack]], group[stack])
            models += fitted
            if fit_error is not None:
                break
        rows = rows[: len(models)]
        weights = np.array([model.weights for model in models]).reshape(len(models), n_coef)
        predictions = predict_stack(test.values[rows[:, 1:]], weights, include_intercept)
        realized = projection.values[rows[:, 0]]
        counterfactual = predict_stack(features.values[rows[:, 1:]], weights, include_intercept)
        test_scores, test_error = score_stack(test.values[rows[:, 0]], predictions)
        divergences, divergence_error = score_stack(realized, counterfactual)
        stages = ((models, fit_error), (test_scores, test_error), (divergences, divergence_error))
        errors = [(len(done), stage, error) for stage, (done, error) in enumerate(stages) if error]
        if errors:
            index, _, error = min(errors)
            raise type(error)(f"target {group[index].target.symbol}: {error}") from error
        results += [
            TargetResult(model, test_score, projection.dates, real, counter, divergence)
            for model, test_score, real, counter, divergence in zip(
                models, test_scores, realized, counterfactual, divergences
            )
        ]
    return results


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
