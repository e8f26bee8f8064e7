from __future__ import annotations

import dataclasses
import datetime as dt
import json

import numpy as np
import pytest

from eventlens import ConfigError, align
from eventlens.panel import AlignedPanel, BarField, ColumnKey, DateWindow
from eventlens.regress import FeatureSpec
from eventlens.scenario import (
    ProjectionMode,
    ScenarioConfig,
    config_digest,
    config_from_json_dict,
    config_to_json_dict,
    projection_features,
    report_from_json_dict,
    report_to_json_bytes,
    run_scenario,
    series_digest,
)

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
    from eventlens import StatsError

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
