from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from eventlens import DailyBar, cli
from eventlens.regress import model_to_json_dict
from eventlens.report import json_bytes
from eventlens.scenario import report_from_json_dict

from conftest import GOLDEN_DIR, SYNTHETIC_DIR

NOISY_CONFIG = str(SYNTHETIC_DIR / "scenario_noisy.json")


def read_bundle(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


@pytest.fixture(autouse=True)
def stable_terminal(monkeypatch):
    # argparse wraps usage text to the terminal width; pin it for goldens
    monkeypatch.setenv("COLUMNS", "80")


@pytest.fixture
def no_network(monkeypatch):
    calls: list[str] = []

    def recorder(url: str, timeout: float = 30.0) -> bytes:
        calls.append(url)
        raise AssertionError("network touched")

    monkeypatch.setattr("eventlens.ingest._http_get", recorder)
    return calls


# --- happy path ------------------------------------------------------------------


def test_offline_run_writes_bundle(tmp_path, capsys, no_network):
    out = tmp_path / "bundle"
    code = cli.main(["run", "--config", NOISY_CONFIG, "--offline", "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert (out / "metrics.csv").exists()
    assert no_network == []
    assert "bundle written" in capsys.readouterr().out


def test_offline_runs_are_byte_identical(tmp_path, no_network):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(["run", "--config", NOISY_CONFIG, "--offline", "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", NOISY_CONFIG, "--offline", "--out", str(out2)]) == 0
    assert read_bundle(out1) == read_bundle(out2)


def test_offline_run_builds_no_daily_bars(tmp_path, monkeypatch, no_network):
    # Series and panels are columnar; a per-bar object on this path is a regression.
    built = []
    monkeypatch.setattr(DailyBar, "__post_init__", lambda bar: built.append(bar.date))
    argv = ["run", "--config", NOISY_CONFIG, "--offline", "--out", str(tmp_path / "bundle"),
            "--save-report", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert built == []


def test_format_subset_limits_files(tmp_path, no_network):
    out = tmp_path / "bundle"
    code = cli.main(
        ["run", "--config", NOISY_CONFIG, "--offline", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "metrics.csv" in names and "metrics.json" not in names


def test_mode_override_is_recorded(tmp_path, no_network):
    out = tmp_path / "bundle"
    saved = tmp_path / "report.json"
    code = cli.main(
        [
            "run",
            "--config",
            NOISY_CONFIG,
            "--offline",
            "--out",
            str(out),
            "--mode",
            "date_shifted",
            "--save-report",
            str(saved),
        ]
    )
    assert code == 0
    document = json.loads(saved.read_text())
    assert document["provenance"]["projection_mode"] == "date_shifted"
    assert document["provenance"]["projection_cycles"] == 2


def test_report_command_reemits_identical_bundle(tmp_path, no_network):
    out1 = tmp_path / "one"
    saved = tmp_path / "report.json"
    cli.main(
        ["run", "--config", NOISY_CONFIG, "--offline", "--out", str(out1), "--save-report", str(saved)]
    )
    out2 = tmp_path / "two"
    assert cli.main(["report", "--from", str(saved), "--out", str(out2)]) == 0
    assert read_bundle(out1) == read_bundle(out2)


def test_correlate_writes_matrices(tmp_path, capsys, no_network):
    out = tmp_path / "corr"
    code = cli.main(["correlate", "--config", NOISY_CONFIG, "--offline", "--out", str(out)])
    assert code == 0
    assert {p.name for p in out.iterdir()} == {
        "corr_before.csv",
        "corr_before.json",
        "corr_after.csv",
        "corr_after.json",
    }


def test_fit_writes_model_documents(tmp_path, no_network):
    out = tmp_path / "models"
    code = cli.main(["fit", "--config", NOISY_CONFIG, "--offline", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"model_TGT1.json", "model_TGT2.json", "model_TGT3.json"}
    document = json.loads((out / "model_TGT1.json").read_text())
    assert len(document["weights"]) == 7


def test_project_writes_counterfactual_series(tmp_path, no_network):
    out = tmp_path / "proj"
    code = cli.main(["project", "--config", NOISY_CONFIG, "--offline", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "counterfactual_TGT1.csv",
        "counterfactual_TGT1.json",
        "counterfactual_TGT2.csv",
        "counterfactual_TGT2.json",
        "counterfactual_TGT3.csv",
        "counterfactual_TGT3.json",
    }


def test_project_does_not_need_correlation_windows(tmp_path, no_network):
    # the project stage must run even when a correlation window is uncovered
    scenario = json.loads((SYNTHETIC_DIR / "scenario_noisy.json").read_text())["scenario"]
    scenario["correlation_before"] = {"start": "1990-01-01", "end": "1990-02-01"}
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"provider": {"cache_dir": str(SYNTHETIC_DIR / "noisy")}, "scenario": scenario})
    )
    out = tmp_path / "proj"
    assert cli.main(["project", "--config", str(config_path), "--offline", "--out", str(out)]) == 0
    assert (out / "counterfactual_TGT1.csv").exists()
    # while the full run rightly fails on the same config
    assert cli.main(["run", "--config", str(config_path), "--offline", "--out", str(out)]) == 1


@pytest.mark.parametrize("mode", ["date_shifted", "oracle_features"])
def test_subcommand_files_equal_the_run_bundle(tmp_path, no_network, mode):
    common = ["--config", NOISY_CONFIG, "--offline"]
    saved = tmp_path / "report.json"
    run = ["run", *common, "--mode", mode, "--out", str(tmp_path / "run"), "--save-report", str(saved)]
    assert cli.main(run) == 0
    assert cli.main(["correlate", *common, "--out", str(tmp_path / "correlate")]) == 0
    assert cli.main(["fit", *common, "--out", str(tmp_path / "fit")]) == 0
    assert cli.main(["project", *common, "--mode", mode, "--out", str(tmp_path / "project")]) == 0

    bundle = read_bundle(tmp_path / "run")
    assert read_bundle(tmp_path / "correlate") == {
        name: payload for name, payload in bundle.items() if name.startswith("corr_")
    }
    assert read_bundle(tmp_path / "project") == {
        name: payload for name, payload in bundle.items() if name.startswith("counterfactual_")
    }
    report = report_from_json_dict(json.loads(saved.read_text()))
    assert read_bundle(tmp_path / "fit") == {
        f"model_{symbol}.json": json_bytes(model_to_json_dict(result.model))
        for symbol, result in report.targets.items()
    }


def test_fetch_populates_cache(tmp_path, monkeypatch):
    payload = json.dumps(
        {
            "Time Series (Daily)": {
                "2022-01-03": {"open": "1.0", "high": "2.0", "low": "0.5", "close": "1.5"}
            }
        }
    ).encode()
    monkeypatch.setattr("eventlens.ingest._http_get", lambda url, timeout=30.0: payload)
    scenario = json.loads((SYNTHETIC_DIR / "scenario_noisy.json").read_text())["scenario"]
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"provider": {"cache_dir": "cache", "api_key": "k"}, "scenario": scenario})
    )
    code = cli.main(["fetch", "--config", str(config_path), "--symbol", "TGT1"])
    assert code == 0
    assert (tmp_path / "cache" / "TGT1.csv").exists()


# --- usage errors (exit 2) -----------------------------------------------------------


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--config", str(tmp_path / "absent.json")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "config file not found" in err


def test_fetch_offline_is_contradictory(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fetch", "--config", NOISY_CONFIG, "--offline"])
    assert excinfo.value.code == 2
    assert "contradictory" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def _edited_noisy_config(edit) -> str:
    document = json.loads(Path(NOISY_CONFIG).read_text())
    edit(document)
    return json.dumps(document)


UNPARSEABLE_CONFIGS = {
    "not-json": "{not json",
    "top-level-list": "[]",
    "top-level-string": '"x"',
    "no-scenario": '{"provider": {}}',
    "scenario-not-object": '{"scenario": 5}',
    "cache-dir-not-a-path": _edited_noisy_config(lambda d: d.update(provider={"cache_dir": 5})),
    "cache-dir-null": _edited_noisy_config(lambda d: d.update(provider={"cache_dir": None})),
    "provider-not-object": _edited_noisy_config(lambda d: d.update(provider=5)),
    "missing-window": _edited_noisy_config(lambda d: d["scenario"].pop("projection_window")),
    "window-date-basic-format": _edited_noisy_config(
        lambda d: d["scenario"]["train_window"].update(start="20190101")
    ),
    "window-date-week-date": _edited_noisy_config(
        lambda d: d["scenario"]["train_window"].update(start="2019-W01-1")
    ),
    "intercept-string": _edited_noisy_config(
        lambda d: d["scenario"]["feature_specs"][0].update(include_intercept="false")
    ),
    "intercept-zero": _edited_noisy_config(
        lambda d: d["scenario"]["feature_specs"][0].update(include_intercept=0)
    ),
    "intercept-list": _edited_noisy_config(
        lambda d: d["scenario"]["feature_specs"][0].update(include_intercept=[])
    ),
    "feature-name-number": _edited_noisy_config(
        lambda d: d["scenario"]["feature_specs"][0]["features"].insert(0, 5)
    ),
    "feature-name-list": _edited_noisy_config(
        lambda d: d["scenario"]["feature_specs"][0]["features"].insert(0, ["A.close"])
    ),
}


def test_unparseable_config_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for case, text in UNPARSEABLE_CONFIGS.items():
        bad.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "--config", str(bad), "--offline", "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2, case
        err = capsys.readouterr().err
        # the usage line, then exactly one error line and no traceback
        assert len(err.splitlines()) == 2, (case, err)
        assert err.splitlines()[1].startswith(f"eventlens: error: unparseable config {bad}: "), case
    assert not (tmp_path / "out").exists()


def test_unknown_format_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--config", NOISY_CONFIG, "--offline", "--format", "xml"])
    assert excinfo.value.code == 2


# --- data errors (exit 1) ---------------------------------------------------------------


def test_offline_cache_miss_is_a_data_error(tmp_path, capsys, no_network):
    scenario = json.loads((SYNTHETIC_DIR / "scenario_noisy.json").read_text())["scenario"]
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"provider": {"cache_dir": "empty-cache"}, "scenario": scenario})
    )
    code = cli.main(["run", "--config", str(config_path), "--offline", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "eventlens: error: provider-error: offline mode forbids network access\n"


def test_data_error_stream_is_stable_across_runs(tmp_path, capsys, no_network):
    scenario = json.loads((SYNTHETIC_DIR / "scenario_noisy.json").read_text())["scenario"]
    # a projection window past the fixture's last date cannot be covered
    scenario["projection_window"] = {"start": "2031-01-01", "end": "2031-02-01"}
    scenario["correlation_after"] = {"start": "2031-01-01", "end": "2031-02-01"}
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"provider": {"cache_dir": str(SYNTHETIC_DIR / "noisy")}, "scenario": scenario})
    )
    streams = []
    for _ in range(2):
        code = cli.main(["run", "--config", str(config_path), "--offline", "--out", str(tmp_path / "o")])
        assert code == 1
        streams.append(capsys.readouterr().err)
    assert streams[0] == streams[1]
    assert streams[0].startswith("eventlens: error: config-error: correlation_after not covered")
    assert streams[0].count("\n") == 1


@pytest.mark.parametrize(
    "command, window",
    [
        ("correlate", "correlation_before"),
        ("correlate", "correlation_after"),
        ("fit", "train_window"),
        ("project", "train_window"),
        ("project", "source_window"),
        ("project", "projection_window"),
        ("run", "source_window"),
    ],
)
def test_uncovered_window_is_the_same_config_error_for_every_command(
    tmp_path, capsys, no_network, command, window
):
    scenario = json.loads((SYNTHETIC_DIR / "scenario_noisy.json").read_text())["scenario"]
    scenario[window] = {"start": "1990-01-01", "end": "1990-02-01"}
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"provider": {"cache_dir": str(SYNTHETIC_DIR / "noisy")}, "scenario": scenario})
    )
    out = tmp_path / "out"
    argv = [command, "--config", str(config_path), "--offline", "--out", str(out)]
    if command in ("project", "run"):
        argv += ["--mode", "date_shifted"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"eventlens: error: config-error: {window} not covered by aligned data: "
        "window 1990-01-01..1990-02-01 contains no panel dates\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_error_line_is_single_line_and_parseable(tmp_path, capsys, no_network):
    scenario = json.loads((SYNTHETIC_DIR / "scenario_noisy.json").read_text())["scenario"]
    del scenario["universe"][0]  # FAC1 columns become unresolvable
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"provider": {"cache_dir": "x"}, "scenario": scenario}))
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--config", str(config_path), "--offline", "--out", str(tmp_path / "o")])
    # unresolvable universe columns are caught while parsing the config

    assert excinfo.value.code == 2
    assert "FAC1.close" in capsys.readouterr().err


# A saved report is re-emitted only if every value decodes as it was written:
# (id, path into the golden report, replacement, error text after "config-error: ").
DELETED = object()  # the replacement that removes the key instead
SAVED_REPORT_FAULTS = [
    ("realized-nan", ("targets", "TGT1", "realized", 0), math.nan,
     "realized and counterfactual series must be finite"),
    ("counterfactual-infinity", ("targets", "TGT2", "counterfactual", 3), math.inf,
     "realized and counterfactual series must be finite"),
    ("counterfactual-minus-infinity", ("targets", "TGT3", "counterfactual", 0), -math.inf,
     "realized and counterfactual series must be finite"),
    ("n-fraction", ("targets", "TGT1", "test_metrics", "n"), 150.9,
     "n must be an integer, got 150.9"),
    ("n-float", ("targets", "TGT1", "divergence_metrics", "n"), 20.0,
     "n must be an integer, got 20.0"),
    ("mse-string", ("targets", "TGT2", "test_metrics", "mse"), "0.0022",
     "mse must be a number, got '0.0022'"),
    ("n-string", ("targets", "TGT3", "test_metrics", "n"), "150",
     "n must be an integer, got '150'"),
    ("mae-list", ("targets", "TGT3", "test_metrics", "mae"), [0.01],
     "mae must be a number, got [0.01]"),
    ("mape-null", ("targets", "TGT2", "divergence_metrics", "mape"), None,
     "mape must be a number, got None"),
    ("training-rows-true", ("targets", "TGT1", "model", "diagnostics", "training_rows"), True,
     "training_rows must be an integer, got True"),
    ("rss-string", ("targets", "TGT1", "model", "diagnostics", "residual_sum_of_squares"), "1",
     "residual_sum_of_squares must be a number, got '1'"),
    ("weight-string", ("targets", "TGT3", "model", "weights", 1), "0.5",
     "weight must be a number, got '0.5'"),
    ("weight-false", ("targets", "TGT3", "model", "weights", 0), False,
     "weight must be a number, got False"),
    ("realized-string", ("targets", "TGT1", "realized", 2), "100.0",
     "realized must be a number, got '100.0'"),
    ("counterfactual-true", ("targets", "TGT1", "counterfactual", 2), True,
     "counterfactual must be a number, got True"),
    ("correlation-string", ("correlation_before", "values", 0, 1), "0.5",
     "correlation value must be a number, got '0.5'"),
    ("correlation-diagonal-true", ("correlation_after", "values", 1, 1), True,
     "correlation value must be a number, got True"),
    ("projection-dates-descending", ("targets", "TGT1", "projection_dates", 0), "2021-06-17",
     "projection dates must be strictly increasing"),
    ("projection-date-basic-format", ("targets", "TGT2", "projection_dates", 0), "20210615",
     "projection date '20210615' is not in YYYY-MM-DD form"),
    ("model-of-another-target", ("targets", "TGT1", "model", "spec", "target"), "TGT2.close",
     "target TGT1 has a model of TGT2.close"),
    ("provenance-without-config-digest", ("provenance", "config_digest"), DELETED,
     "provenance keys must be config_digest, data_digests, projection_mode, projection_cycles"),
    ("provenance-extra-key", ("provenance", "comment"), "hand-edited",
     "provenance keys must be config_digest, data_digests, projection_mode, projection_cycles"),
    ("config-digest-number", ("provenance", "config_digest"), 5,
     "provenance digests must be 64 lowercase hex characters"),
    ("data-digest-uppercase", ("provenance", "data_digests", "TGT1"), "9822FC3C" * 8,
     "provenance digests must be 64 lowercase hex characters"),
    ("projection-mode-unknown", ("provenance", "projection_mode"), "sideways",
     "unknown projection_mode 'sideways'"),
    ("projection-cycles-zero", ("provenance", "projection_cycles"), 0,
     "projection_cycles must be at least 1"),
]


@pytest.mark.parametrize(
    "path, value, message",
    [case[1:] for case in SAVED_REPORT_FAULTS],
    ids=[case[0] for case in SAVED_REPORT_FAULTS],
)
def test_report_rejects_a_saved_value_it_would_not_write(tmp_path, capsys, path, value, message):
    document = json.loads((GOLDEN_DIR / "scenario_report.json").read_text())
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    saved = tmp_path / "report.json"
    saved.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert cli.main(["report", "--from", str(saved), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"eventlens: error: config-error: {message}\n"
    assert captured.out == ""
    assert not out.exists()
