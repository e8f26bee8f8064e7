from __future__ import annotations

import dataclasses
import datetime as dt
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventlens import (
    ConfigError,
    EventLensError,
    FitError,
    MetricError,
    RawSeries,
    StatsError,
    align,
    fit_ols,
    pearson,
    predict,
    score,
)
from eventlens import scenario
from eventlens.panel import FIELD_ORDER, AlignedPanel, BarField, ColumnKey, DateWindow
from eventlens.regress import FeatureSpec
from eventlens.scenario import (
    ProjectionMode,
    ScenarioConfig,
    ScenarioReport,
    TargetResult,
    config_digest,
    config_from_json_dict,
    config_to_json_dict,
    projection_cycles,
    projection_features,
    report_from_json_dict,
    report_to_json_bytes,
    run_scenario,
    series_digest,
)
from eventlens.stats import CorrelationMatrix

from conftest import load_fixture_config, load_fixture_data, make_instrument, make_series

D = dt.date


def linear_universe(n_days: int = 30):
    """Two instruments where Y.close is exactly 3 + 2 * X.close."""
    start = D(2022, 1, 1)
    x_closes = [10.0 + 0.5 * i + (i % 3) for i in range(n_days)]
    y_closes = [3.0 + 2.0 * c for c in x_closes]
    return [make_series("X", start, x_closes), make_series("Y", start, y_closes)]


def linear_config(mode: ProjectionMode = ProjectionMode.DATE_SHIFTED, **overrides) -> ScenarioConfig:
    start = D(2022, 1, 1)

    def window(a: int, b: int) -> DateWindow:
        return DateWindow(start + dt.timedelta(a), start + dt.timedelta(b))

    fields = {
        "universe": (make_instrument("X"), make_instrument("Y")),
        "feature_specs": (
            FeatureSpec(
                target=ColumnKey("Y", BarField.CLOSE), features=(ColumnKey("X", BarField.CLOSE),)
            ),
        ),
        "train_window": window(0, 19),
        "test_window": window(0, 19),
        "correlation_before": window(0, 9),
        "correlation_after": window(10, 19),
        "source_window": window(20, 24),
        "projection_window": window(25, 29),
        "projection_mode": mode,
    }
    fields.update(overrides)
    return ScenarioConfig(**fields)


# --- config validation -----------------------------------------------------------


def test_test_window_before_train_is_rejected():
    with pytest.raises(ConfigError, match="starts before training"):
        linear_config(
            train_window=DateWindow(D(2022, 1, 10), D(2022, 1, 20)),
            test_window=DateWindow(D(2022, 1, 1), D(2022, 1, 9)),
        )


def test_identical_train_and_test_windows_are_allowed():
    config = linear_config()
    assert config.train_window == config.test_window


def test_degenerate_window_is_rejected():
    with pytest.raises(ConfigError, match="degenerate"):
        linear_config(source_window=DateWindow(D(2022, 1, 21), D(2022, 1, 21)))


def test_unresolvable_feature_symbol_is_rejected():
    spec = FeatureSpec(
        target=ColumnKey("Y", BarField.CLOSE), features=(ColumnKey("GHOST", BarField.CLOSE),)
    )
    with pytest.raises(ConfigError, match="GHOST.close"):
        linear_config(feature_specs=(spec,))


@pytest.mark.parametrize(
    "section, message",
    [("universe", "universe must not be empty"),
     ("feature_specs", "at least one feature spec is required")],
)
def test_config_from_json_refuses_an_empty_section(section, message):
    document = config_to_json_dict(linear_config())
    document[section] = []
    with pytest.raises(ConfigError) as info:
        config_from_json_dict(document)
    assert str(info.value) == message


def test_duplicate_universe_symbols_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        linear_config(universe=(make_instrument("X"), make_instrument("X")))


def test_config_json_round_trip_and_digest():
    config = linear_config()
    document = config_to_json_dict(config)
    assert config_from_json_dict(document) == config
    digest = config_digest(config)
    assert digest == config_digest(config_from_json_dict(document))
    moved = dataclasses.replace(
        config, projection_window=DateWindow(D(2022, 1, 24), D(2022, 1, 30))
    )
    assert config_digest(moved) != digest


@pytest.mark.parametrize("value", ["false", "true", 0, 1, [], None])
def test_config_from_json_include_intercept_must_be_a_boolean(value):
    document = config_to_json_dict(linear_config())
    document["feature_specs"][0]["include_intercept"] = value
    with pytest.raises(ConfigError, match="include_intercept for Y.close must be true or false"):
        config_from_json_dict(document)


def test_config_from_json_rejects_missing_sections():
    with pytest.raises(ConfigError, match="malformed"):
        config_from_json_dict({"universe": []})


@pytest.mark.parametrize("name", list(linear_config().named_windows()))
def test_config_from_json_names_a_missing_or_malformed_window(name):
    document = config_to_json_dict(linear_config())
    del document[name]
    with pytest.raises(ConfigError) as info:
        config_from_json_dict(document)
    assert str(info.value) == f"malformed scenario config: missing {name}"
    document[name] = ["2022-01-03", "2022-01-10"]
    with pytest.raises(ConfigError, match=f"^malformed {name}: "):
        config_from_json_dict(document)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(bogus=1), "unknown scenario key 'bogus'"),
        (lambda d: d.update(projection_modes="oracle_features"),
         "unknown scenario key 'projection_modes'"),
        (lambda d: d["universe"][1].update(name="X"), "unknown universe entry key 'name'"),
        (lambda d: d["feature_specs"][0].update(intercept=False),
         "unknown feature spec key 'intercept'"),
        (lambda d: d["test_window"].update(middle="2022-01-05"), "unknown test_window key 'middle'"),
    ],
    ids=["scenario", "misspelled-mode", "universe-entry", "spec", "window"],
)
def test_config_from_json_refuses_an_unknown_key(edit, message):
    # A misspelled key would otherwise leave its setting at the default.
    document = config_to_json_dict(linear_config())
    edit(document)
    with pytest.raises(ConfigError) as info:
        config_from_json_dict(document)
    assert str(info.value) == message


def two_spec_document() -> dict:
    """A config document of two specs that share their feature names."""
    document = config_to_json_dict(linear_config(universe=tuple(map(make_instrument, "XYZ"))))
    document["feature_specs"] = [
        {"target": "Y.close", "features": ["X.close", "Z.close", "X.open"]},
        {"target": "Z.close", "features": ["X.close", "Y.close", "X.high"]},
    ]
    return document


@pytest.mark.parametrize(
    "edits, message",
    [
        # The first bad name in document order is named, whichever comes later.
        ([(0, 2, "X.volume"), (1, 1, 7)], "unknown bar field in column name 'X.volume'"),
        ([(0, 1, 7), (1, 2, "X.volume")], "column name must be a string, got 7"),
        ([(1, 0, "X.close"), (1, 2, "Q")], "column name must look like SYMBOL.field, got 'Q'"),
        ([(0, 0, "X.closing"), (0, 1, None)], "unknown bar field in column name 'X.closing'"),
        ([(1, 1, None), (1, 2, "X.bid")], "column name must be a string, got None"),
        # A name that is not hashable fails its lookup, as at the first bad name.
        ([(1, 1, ["X.close"]), (1, 2, "X.bid")], "malformed scenario config: unhashable type: 'list'"),
        ([(0, 1, "X.bid"), (1, 1, ["X.close"])], "unknown bar field in column name 'X.bid'"),
        # A spec's target comes before its features (position None is the target).
        ([(1, 0, 7), (1, None, "Z.bid")], "unknown bar field in column name 'Z.bid'"),
    ],
)
def test_config_from_json_names_the_first_bad_feature_name_in_document_order(edits, message):
    document = two_spec_document()
    for spec, position, name in edits:
        entry = document["feature_specs"][spec]
        if position is None:
            entry["target"] = name
        else:
            entry["features"][position] = name
    with pytest.raises(ConfigError) as info:
        config_from_json_dict(document)
    assert str(info.value) == message


def test_config_from_json_shares_one_key_per_column_name():
    config = config_from_json_dict(two_spec_document())
    first, second = config.feature_specs
    assert first.features[0] is second.features[0]
    assert second.target is first.features[1]
    assert [key.name for key in second.features] == ["X.close", "Y.close", "X.high"]


@pytest.mark.parametrize("bound", ["start", "end"])
@pytest.mark.parametrize("text", ["20220103", "2022-W01-1", "2022W011", "2022-W01"])
def test_config_window_dates_must_be_in_yyyy_mm_dd_form(bound, text):
    # fromisoformat reads each as 2022-01-03, which the config writer would write instead
    document = config_to_json_dict(linear_config())
    document["train_window"][bound] = text
    with pytest.raises(ConfigError) as info:
        config_from_json_dict(document)
    assert str(info.value) == f"train_window {bound} {text!r} is not in YYYY-MM-DD form"


# --- projection_features ------------------------------------------------------------


def test_oracle_features_returns_projection_slice_verbatim():
    data = linear_universe()
    config = linear_config(ProjectionMode.ORACLE_FEATURES)
    panel = align(data)
    produced = projection_features(panel, config, config.feature_specs[0])
    expected = panel.slice(config.projection_window)
    assert produced.dates == expected.dates
    for key in expected.keys:
        np.testing.assert_array_equal(produced.column(key), expected.column(key))


def test_date_shifted_equal_lengths_relabels_source_rows():
    data = linear_universe()
    config = linear_config(ProjectionMode.DATE_SHIFTED)
    panel = align(data)
    produced = projection_features(panel, config, config.feature_specs[0])
    source = panel.slice(config.source_window)
    assert produced.dates == panel.slice(config.projection_window).dates
    for key in panel.keys:
        np.testing.assert_array_equal(produced.column(key), source.column(key))


@pytest.mark.parametrize("mode", list(ProjectionMode))
def test_projection_features_columns_are_contiguous_read_only(mode):
    config = linear_config(mode)
    produced = projection_features(align(linear_universe()), config, config.feature_specs[0])
    for key in produced.keys:
        column = produced.column(key)
        assert column.flags.c_contiguous and not column.flags.writeable


def test_date_shifted_cycles_source_rows():
    data = linear_universe()
    config = linear_config(
        ProjectionMode.DATE_SHIFTED,
        source_window=DateWindow(D(2022, 1, 21), D(2022, 1, 23)),  # 3 rows
    )
    panel = align(data)
    produced = projection_features(panel, config, config.feature_specs[0])
    source = panel.slice(config.source_window)
    key = ColumnKey("X", BarField.CLOSE)
    src = source.column(key)
    np.testing.assert_array_equal(produced.column(key), [src[0], src[1], src[2], src[0], src[1]])


def test_projection_window_not_covered_is_an_error():
    data = linear_universe()
    config = linear_config(
        projection_window=DateWindow(D(2023, 6, 1), D(2023, 6, 30)),
    )
    with pytest.raises(ConfigError, match="projection_window not covered"):
        run_scenario(config, data)


# --- run_scenario ----------------------------------------------------------------------


def test_exact_linear_data_scores_zero_on_identity_test_window():
    report = run_scenario(linear_config(), linear_universe())
    result = report.targets["Y"]
    assert result.test_metrics.mse == pytest.approx(0.0, abs=1e-20)
    assert result.test_metrics.mape == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(result.model.weights, [3.0, 2.0], atol=1e-10)


def test_counterfactual_and_realized_share_projection_dates():
    report = run_scenario(linear_config(), linear_universe())
    result = report.targets["Y"]
    assert len(result.projection_dates) == len(result.realized) == len(result.counterfactual)
    assert result.projection_dates == tuple(sorted(result.projection_dates))


def test_oracle_mode_on_no_event_data_has_zero_divergence():
    report = run_scenario(linear_config(ProjectionMode.ORACLE_FEATURES), linear_universe())
    assert report.targets["Y"].divergence_metrics.mse == pytest.approx(0.0, abs=1e-18)


def test_date_shifted_divergence_reflects_shifted_features():
    report = run_scenario(linear_config(ProjectionMode.DATE_SHIFTED), linear_universe())
    result = report.targets["Y"]
    # counterfactual uses source-window features, realized keeps drifting upward
    assert result.divergence_metrics.mse > 0.0


def test_missing_series_is_an_error():
    config = linear_config()
    with pytest.raises(ConfigError, match="no input series.*Y"):
        run_scenario(config, linear_universe()[:1])


def test_duplicate_series_is_an_error():
    config = linear_config()
    data = linear_universe()
    with pytest.raises(ConfigError, match="duplicate input series"):
        run_scenario(config, data + [data[0]])


def test_errors_are_tagged_with_target_symbol():
    data = linear_universe()
    flat = make_series("X", D(2022, 1, 1), [5.0] * 30)
    with pytest.raises(StatsError, match="zero variance"):
        # flat X makes the correlation phase fail before any target is fit
        run_scenario(linear_config(), [flat, data[1]])
    spec = FeatureSpec(
        target=ColumnKey("Y", BarField.CLOSE),
        features=(ColumnKey("X", BarField.CLOSE), ColumnKey("X", BarField.OPEN)),
    )
    from eventlens import FitError

    with pytest.raises(FitError, match="target Y"):
        # X.open equals X.close in these fixtures, a rank-deficient design
        run_scenario(linear_config(feature_specs=(spec,)), data)


@pytest.mark.parametrize("order", ["rank_deficient_first", "copy_first"])
def test_the_first_error_in_spec_order_is_named_from_inside_one_stack(order):
    # Both specs have two features and an intercept, and two 20-row designs
    # fit in one stack, so the stacked fit sees both failures at once. In
    # these fixtures X.open equals X.close: spec A's design is rank
    # deficient, and spec B's X.open copies its target X.close.
    assert 2 * 8 * 20 * 3 <= scenario.FIT_STACK_BYTES
    x, y = (ColumnKey(symbol, BarField.CLOSE) for symbol in "XY")
    x_open = ColumnKey("X", BarField.OPEN)
    rank_deficient = FeatureSpec(target=y, features=(x, x_open))
    copy = FeatureSpec(target=x, features=(y, x_open))
    if order == "rank_deficient_first":
        specs, message = (rank_deficient, copy), "target Y: rank-deficient design for Y.close: "
    else:
        specs, message = (copy, rank_deficient), (
            "target X: feature X.open is an exact copy of the target values"
        )
    with pytest.raises(FitError) as raised:
        run_scenario(linear_config(feature_specs=specs), linear_universe())
    assert str(raised.value).startswith(message)


def shifted_universe(days, level):
    """``linear_universe`` with Y.close set to ``level(close)`` on ``days``."""
    x, y = linear_universe()
    closes = [float(c) for c in y.quotes[:, 3]]
    for day in days:
        closes[day] = level(closes[day])
    return [x, make_series("Y", D(2022, 1, 1), closes)]


def window_days(a: int, b: int) -> DateWindow:
    return DateWindow(D(2022, 1, 1) + dt.timedelta(a), D(2022, 1, 1) + dt.timedelta(b))


def test_a_clean_level_shift_above_1e4_is_scored():
    # The realized closes sit 60000.17 above the oracle counterfactual; the
    # rounding of rmse once refused the divergence score.
    data = shifted_universe(range(25, 30), lambda close: close + 60000.17)
    report = run_scenario(linear_config(ProjectionMode.ORACLE_FEATURES), data)
    assert report.targets["Y"].divergence_metrics.mae == pytest.approx(60000.17, rel=1e-12)


def test_an_overflowing_fit_is_a_fit_error():
    # Y.close is 1e200 on the later training days, so the residual sum of
    # squares overflows; no correlation window reads those days.
    config = linear_config(
        test_window=window_days(20, 24),
        correlation_before=window_days(20, 24),
        correlation_after=window_days(25, 29),
    )
    data = shifted_universe(range(20), lambda close: 1e200 if close > 40.0 else close)
    with pytest.raises(FitError, match="^target Y: residual_sum_of_squares must be finite"):
        run_scenario(config, data)


def test_a_correlation_past_the_largest_float_goes_on_to_the_fit():
    # Y.close is 1e200 on 3 of the 10 correlation_before days. Its sum of
    # squares is past the largest float unscaled, but its coefficient is
    # computed; the training window holds the same days, so the fit refuses.
    data = shifted_universe((2, 5, 8), lambda close: 1e200)
    with pytest.raises(FitError, match="^target Y: residual_sum_of_squares must be finite"):
        run_scenario(linear_config(), data)


@pytest.mark.parametrize("order", ["overflow_first", "copy_first"])
def test_the_first_error_in_spec_order_is_named_across_stages(order):
    # Both specs share one stack. Spec A fits, then its test score overflows
    # (Y.close is 1e200 over the test window); spec B's X.open copies its
    # target X.close, so its fit is refused. Whichever comes first is named.
    x, y = (ColumnKey(symbol, BarField.CLOSE) for symbol in "XY")
    overflow = FeatureSpec(target=y, features=(x,))
    copy = FeatureSpec(target=x, features=(ColumnKey("X", BarField.OPEN),))
    if order == "overflow_first":
        specs, error, message = (overflow, copy), MetricError, "target Y: mse must be finite"
    else:
        specs, error, message = (copy, overflow), FitError, (
            "target X: feature X.open is an exact copy of the target values"
        )
    config = linear_config(feature_specs=specs, test_window=window_days(20, 24))
    data = shifted_universe(range(20, 25), lambda close: 1e200)
    with pytest.raises(error) as raised:
        run_scenario(config, data)
    assert str(raised.value).startswith(message)


@st.composite
def stacked_scenarios(draw):
    """A config, its series and a fit stack budget. Two to twelve specs take
    their design shapes (one to three features, with or without an
    intercept) from at most three, so runs of one shape are common, and the
    budget holds one to six training designs of one coefficient, so stacks
    split on shape and on the budget. Window lengths of either parity put
    stacked rows on and off 16-byte boundaries. Prices are random walks, so
    designs of their columns are well conditioned; but S0 is sometimes
    close-only (its open, high and low are its close), and then a spec may
    copy its target (S0.close on S0.open) or be rank deficient (on S0.open
    and S0.close), so the run fails on its first such spec."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = [draw(st.integers(lo, hi)) for lo, hi in ((20, 31), (5, 12), (3, 9), (3, 13))]
    n_symbols = draw(st.integers(2, 5))
    symbols = [f"S{i}" for i in range(n_symbols)]
    close_only = draw(st.booleans())
    n_days = sum(lengths)
    dates = [D(2022, 1, 3) + dt.timedelta(days=i) for i in range(n_days)]
    data = []
    for symbol in symbols:
        close = 100.0 + np.cumsum(rng.normal(0.0, 1.0, n_days))
        opens = close + rng.normal(0.0, 0.5, n_days)
        high = np.maximum(opens, close) + rng.uniform(0.1, 1.0, n_days)
        low = np.minimum(opens, close) - rng.uniform(0.1, 1.0, n_days)
        quotes = np.column_stack([opens, high, low, close])
        if close_only and symbol == "S0":
            quotes = np.column_stack([close] * 4)
        data.append(RawSeries(make_instrument(symbol), dates, quotes))

    s0_open, s0_close = (ColumnKey("S0", field) for field in (BarField.OPEN, BarField.CLOSE))
    kinds = ["walk"] * 4 + (["copy", "rank_deficient"] if close_only else [])
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=3))
    specs = []
    for n_features, include_intercept in draw(
        st.lists(st.sampled_from(shapes), min_size=2, max_size=12)
    ):
        kind = draw(st.sampled_from(kinds))
        if kind == "rank_deficient" and n_features < 2:
            kind = "copy"
        target = ColumnKey(draw(st.sampled_from(symbols)), BarField.CLOSE)
        if kind != "walk":
            target = s0_close if kind == "copy" else ColumnKey("S1", BarField.CLOSE)
        planted = {"walk": [], "copy": [s0_open], "rank_deficient": [s0_open, s0_close]}[kind]
        columns = [ColumnKey(s, f) for s in symbols for f in FIELD_ORDER]
        for key in (target, *planted):
            columns.remove(key)
        features = st.lists(
            st.sampled_from(columns),
            min_size=n_features - len(planted),
            max_size=n_features - len(planted),
            unique=True,
        )
        features = st.permutations(planted + draw(features))
        specs.append(FeatureSpec(target, tuple(draw(features)), include_intercept))

    train, test, source, projection = (
        DateWindow(dates[sum(lengths[:i])], dates[sum(lengths[: i + 1]) - 1]) for i in range(4)
    )
    config = ScenarioConfig(
        universe=tuple(series.instrument for series in data),
        feature_specs=tuple(specs),
        train_window=train,
        test_window=test,
        correlation_before=DateWindow(train.start, test.end),
        correlation_after=projection,
        source_window=source,
        projection_window=projection,
        projection_mode=draw(st.sampled_from(list(ProjectionMode))),
    )
    return config, data, draw(st.integers(1, 6)) * 8 * lengths[0]


def per_spec_report(config: ScenarioConfig, data: list[RawSeries]) -> ScenarioReport:
    """The report as perfbench's traced pipeline composes it, each spec
    through ``fit_ols``, ``predict``, ``score`` and ``projection_features``
    alone, with each correlation entry a ``pearson`` of its own; or the
    first error those raise, prefixed with its target's symbol."""
    panel = align(data, FIELD_ORDER)
    slices = {name: panel.slice(window) for name, window in config.named_windows().items()}
    names = ("train_window", "test_window", "projection_window")
    train, test, projection = (slices[name] for name in names)
    targets = {}
    for spec in config.feature_specs:
        try:
            model = fit_ols(train, spec)
            test_metrics = score(test.column(spec.target), predict(model, test))
            counterfactual = predict(model, projection_features(panel, config, spec))
            realized = projection.column(spec.target)
            divergence_metrics = score(realized, counterfactual)
        except EventLensError as exc:
            raise type(exc)(f"target {spec.target.symbol}: {exc}") from exc
        targets[spec.target.symbol] = TargetResult(
            model, test_metrics, projection.dates, realized, counterfactual, divergence_metrics
        )
    keys = config.close_keys()
    before, after = (
        CorrelationMatrix(
            keys,
            [[1.0 if a == b else pearson(part.column(a), part.column(b)) for b in keys]
             for a in keys],
        )
        for part in (slices["correlation_before"], slices["correlation_after"])
    )
    provenance = {
        "config_digest": config_digest(config),
        "data_digests": {series.instrument.symbol: series_digest(series) for series in data},
        "projection_mode": config.projection_mode.value,
        "projection_cycles": projection_cycles(config, panel),
    }
    return ScenarioReport(targets, before, after, provenance)


@settings(deadline=None)
@given(stacked_scenarios())
def test_the_stacked_run_is_the_per_spec_composition_byte_for_byte(drawn):
    config, data, budget = drawn
    try:
        expected = report_to_json_bytes(per_spec_report(config, data))
    except EventLensError as exc:
        with mock.patch.object(scenario, "FIT_STACK_BYTES", budget):
            with pytest.raises(EventLensError) as raised:
                run_scenario(config, data)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    with mock.patch.object(scenario, "FIT_STACK_BYTES", budget):
        stacked = report_to_json_bytes(run_scenario(config, data))
    assert stacked == expected


def test_provenance_carries_digests_and_cycles():
    config = linear_config(
        ProjectionMode.DATE_SHIFTED,
        source_window=DateWindow(D(2022, 1, 21), D(2022, 1, 23)),
    )
    data = linear_universe()
    report = run_scenario(config, data)
    assert report.provenance["config_digest"] == config_digest(config)
    assert report.provenance["projection_cycles"] == 2
    assert report.provenance["data_digests"] == {
        "X": series_digest(data[0]),
        "Y": series_digest(data[1]),
    }


def test_oracle_mode_reports_single_cycle():
    report = run_scenario(linear_config(ProjectionMode.ORACLE_FEATURES), linear_universe())
    assert report.provenance["projection_cycles"] == 1


# --- determinism and serialization -----------------------------------------------------


@pytest.mark.parametrize("config_name", ["scenario_noisy.json", "scenario_noisy_dateshift.json"])
def test_run_builds_each_panel_it_reads_once(monkeypatch, config_name):
    # One align and one slice per distinct window however many stages read
    # it; in date_shifted mode one cycled slice of the source rows, shared by
    # every target.
    built = []
    check = AlignedPanel.__post_init__

    def counted(panel: AlignedPanel) -> None:
        check(panel)
        built.append(panel)

    monkeypatch.setattr(AlignedPanel, "__post_init__", counted)
    _, config = load_fixture_config(config_name)
    assert len(config.feature_specs) > 1
    data = load_fixture_data("noisy", config)
    run_scenario(config, data)
    windows = set(config.named_windows().values())
    cycled = 1 if config.projection_mode is ProjectionMode.DATE_SHIFTED else 0
    assert len(built) == 1 + len(windows) + cycled


def test_identical_inputs_give_byte_identical_reports():
    first = report_to_json_bytes(run_scenario(linear_config(), linear_universe()))
    second = report_to_json_bytes(run_scenario(linear_config(), linear_universe()))
    assert first == second


def test_report_json_round_trip_preserves_bytes():
    report = run_scenario(linear_config(), linear_universe())
    payload = report_to_json_bytes(report)
    rebuilt = report_from_json_dict(json.loads(payload))
    assert report_to_json_bytes(rebuilt) == payload


def test_report_round_trip_rejects_garbage():
    with pytest.raises(ConfigError, match="malformed scenario report"):
        report_from_json_dict({"targets": {"Y": {}}})


def test_every_target_scores_zero_on_exact_multi_target_data():
    # two targets, both exact linear functions of the factor close
    start = D(2022, 1, 1)
    factor = [10.0 + 0.5 * i + (i % 3) for i in range(30)]
    data = [
        make_series("X", start, factor),
        make_series("Y", start, [3.0 + 2.0 * c for c in factor]),
        make_series("Z", start, [50.0 - 0.5 * c for c in factor]),
    ]
    specs = tuple(
        FeatureSpec(target=ColumnKey(sym, BarField.CLOSE), features=(ColumnKey("X", BarField.CLOSE),))
        for sym in ("Y", "Z")
    )
    config = linear_config(
        universe=(make_instrument("X"), make_instrument("Y"), make_instrument("Z")),
        feature_specs=specs,
    )
    report = run_scenario(config, data)
    assert set(report.targets) == {"Y", "Z"}
    for symbol, result in report.targets.items():
        assert result.test_metrics.mse == pytest.approx(0.0, abs=1e-18), symbol
        assert result.test_metrics.mae == pytest.approx(0.0, abs=1e-10), symbol
        assert result.test_metrics.mape == pytest.approx(0.0, abs=1e-10), symbol


# --- fixture-level checks ----------------------------------------------------------------


def test_fixture_divergence_mape_stays_near_test_mape():
    # with oracle features and no structural break, projection error must
    # look like test error; twice the test mape is the sanity ceiling
    document, config = load_fixture_config("scenario_noisy.json")
    report = run_scenario(config, load_fixture_data("noisy", config))
    for symbol, result in report.targets.items():
        assert result.divergence_metrics.mape <= 2.0 * result.test_metrics.mape, symbol


def test_fixture_report_is_deterministic():
    document, config = load_fixture_config("scenario_noisy.json")
    data = load_fixture_data("noisy", config)
    assert report_to_json_bytes(run_scenario(config, data)) == report_to_json_bytes(
        run_scenario(config, data)
    )


def test_fixture_dateshift_cycles_recorded():
    document, config = load_fixture_config("scenario_noisy_dateshift.json")
    report = run_scenario(config, load_fixture_data("noisy", config))
    # 40 source rows cover a 60-row projection window in 2 passes
    assert report.provenance["projection_cycles"] == 2


def test_committed_protocol_config_parses_and_pins_the_dates():
    import pathlib

    document = json.loads((pathlib.Path(__file__).parents[1] / "paper.json").read_text())
    config = config_from_json_dict(document["scenario"])
    assert [i.symbol for i in config.universe] == [
        "USD_IDX",
        "NDAQ",
        "WTI",
        "GOLD",
        "RUBCNY",
        "UAHCNY",
    ]
    assert config.train_window == DateWindow(D(2019, 5, 21), D(2021, 6, 14))
    assert config.test_window == DateWindow(D(2021, 6, 15), D(2021, 12, 31))
    assert config.correlation_before == DateWindow(D(2022, 1, 1), D(2022, 2, 1))
    assert config.correlation_after == DateWindow(D(2022, 2, 1), D(2022, 3, 1))
    assert config.source_window == DateWindow(D(2022, 1, 3), D(2022, 1, 31))
    assert config.projection_window == DateWindow(D(2022, 2, 1), D(2022, 3, 1))
    assert config.projection_mode is ProjectionMode.DATE_SHIFTED
    # the boundary date belongs to both correlation windows
    boundary = D(2022, 2, 1)
    assert config.correlation_before.end == boundary == config.correlation_after.start
    # every target predicts a close from its own open/high/low plus other closes
    for spec in config.feature_specs:
        assert spec.target.field is BarField.CLOSE
        own = [k for k in spec.features if k.symbol == spec.target.symbol]
        assert [k.field.value for k in own] == ["open", "high", "low"]
        assert all(k.field is BarField.CLOSE for k in spec.features if k not in own)
    # one target uses six features, the rest seven
    sizes = sorted(len(spec.features) for spec in config.feature_specs)
    assert sizes == [6, 7, 7, 7]


def test_projection_features_requires_spec_columns():
    data = linear_universe()
    panel = align(data, fields={BarField.CLOSE})
    spec = FeatureSpec(
        target=ColumnKey("Y", BarField.CLOSE), features=(ColumnKey("X", BarField.OPEN),)
    )
    from eventlens import PanelError

    with pytest.raises(PanelError, match="X.open"):
        projection_features(panel, linear_config(), spec)


def test_fixture_report_matches_committed_golden_bytes():
    from conftest import GOLDEN_DIR

    document, config = load_fixture_config("scenario_noisy.json")
    report = run_scenario(config, load_fixture_data("noisy", config))
    golden = (GOLDEN_DIR / "scenario_report.json").read_bytes()
    assert report_to_json_bytes(report) == golden
