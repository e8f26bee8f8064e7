from __future__ import annotations

import datetime as dt
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eventlens import DailyBar, cli, errors
from eventlens.ingest import series_to_csv_bytes
from eventlens.regress import model_to_json_dict
from eventlens.report import json_bytes
from eventlens.scenario import report_from_json_dict

from conftest import GOLDEN_DIR, SYNTHETIC_DIR, make_series

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

    def recorder(url: str) -> bytes:
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


def test_readme_sequence_into_one_out_leaves_each_file_as_its_command_alone(tmp_path, no_network):
    # README's CLI sequence shares one --out; each command's files must be
    # the bytes it writes on its own, and run's manifest lists only its bundle.
    common = ["--config", NOISY_CONFIG, "--offline"]
    commands = ("correlate", "fit", "project", "run")
    alone = {}
    for command in commands:
        assert cli.main([command, *common, "--out", str(tmp_path / command)]) == 0
        alone[command] = read_bundle(tmp_path / command)
    shared = tmp_path / "shared"
    for command in commands:
        assert cli.main([command, *common, "--out", str(shared)]) == 0
    files = read_bundle(shared)
    assert set(files) == set().union(*alone.values())
    for written in alone.values():
        assert {name: files[name] for name in written} == written
    manifest = json.loads(files["manifest.json"])
    bundle_files = sorted(alone["run"].keys() - {"manifest.json"})
    assert [entry["file"] for entry in manifest["files"]] == bundle_files


def test_a_re_run_keeps_a_foreign_file_and_a_saved_report_in_out(tmp_path, no_network):
    out = tmp_path / "out"
    run = ["run", "--config", NOISY_CONFIG, "--offline", "--out", str(out)]
    assert cli.main([*run, "--save-report", str(out / "report.json")]) == 0
    (out / "notes.txt").write_bytes(b"kept by hand\n")
    first = read_bundle(out)
    assert cli.main([*run, "--save-report", str(out / "report.json")]) == 0
    assert read_bundle(out) == first
    assert cli.main([*run, "--format", "csv"]) == 0
    files = read_bundle(out)
    assert {name: files[name] for name in ("notes.txt", "report.json")} == {
        name: first[name] for name in ("notes.txt", "report.json")
    }
    assert {name for name in files if name.endswith(".json")} == {"manifest.json", "report.json"}
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


def test_an_out_holding_a_subdirectory_is_refused_with_one_error_line(
    tmp_path, capsys, no_network, monkeypatch
):
    (tmp_path / "sub").mkdir()
    (tmp_path / "notes.txt").write_bytes(b"kept\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", NOISY_CONFIG, "--offline", "--out", "."]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "eventlens: error: config-error: output directory '.' must be named by its own path;"
        " a bundle replaces its whole directory\n"
    )
    assert captured.out == ""
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "sub").mkdir()
    assert cli.main(["run", "--config", NOISY_CONFIG, "--offline", "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "eventlens: error: config-error: output directory 'out' holds the subdirectory 'sub';"
        " a bundle replaces its whole directory\n"
    )
    assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")) == [
        "notes.txt", "out", "out/sub", "sub"
    ]


def test_fetch_populates_cache(tmp_path, monkeypatch):
    payload = json.dumps(
        {
            "Time Series (Daily)": {
                "2022-01-03": {"open": "1.0", "high": "2.0", "low": "0.5", "close": "1.5"}
            }
        }
    ).encode()
    monkeypatch.setattr("eventlens.ingest._http_get", lambda url: payload)
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
    "provider-pairs": _edited_noisy_config(lambda d: d.update(provider=[["cache_dir", "noisy"]])),
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
    # An object's keys are not an array's items.
    "universe-object": _edited_noisy_config(
        lambda d: d["scenario"].update(universe={"FAC1": "commodity"})
    ),
    "feature-specs-object": _edited_noisy_config(
        lambda d: d["scenario"].update(feature_specs={"TGT1.close": ["FAC1.close"]})
    ),
    "spec-features-object": _edited_noisy_config(
        lambda d: d["scenario"]["feature_specs"][0].update(
            features=dict.fromkeys(d["scenario"]["feature_specs"][0]["features"])
        )
    ),
    # A key the config or its scenario does not read is refused, not ignored.
    "top-level-unknown-key": _edited_noisy_config(
        lambda d: d.update(scenari0={"projection_mode": "oracle_features"})
    ),
    "scenario-unknown-key": _edited_noisy_config(lambda d: d["scenario"].update(bogus=1)),
    "projection-mode-misspelled": _edited_noisy_config(
        lambda d: d["scenario"].update(projection_modes="oracle_features")
    ),
    "universe-entry-unknown-key": _edited_noisy_config(
        lambda d: d["scenario"]["universe"][0].update(name="Factor 1")
    ),
    "intercept-misspelled": _edited_noisy_config(
        lambda d: d["scenario"]["feature_specs"][0].update(include_intercepts=False)
    ),
    "window-unknown-key": _edited_noisy_config(
        lambda d: d["scenario"]["train_window"].update(event="2020-03-01")
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


def test_a_misspelled_section_is_named_as_an_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(UNPARSEABLE_CONFIGS["top-level-unknown-key"])
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--config", str(bad), "--offline", "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[1] == (
        f"eventlens: error: unparseable config {bad}: unknown config key 'scenari0'"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fetch", "--config", NOISY_CONFIG, "--symbol", "NOPE", "--symbol", "FAC1"],
         "symbols not in universe: NOPE"),
        (["report", "--from", "{tmp}/absent.json"], "report file not found: {tmp}/absent.json"),
        (["report", "--from", "{tmp}/bad.json"],
         "unparseable report {tmp}/bad.json: Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["fetch-unknown-symbol", "report-missing", "report-unparseable"],
)
def test_a_bad_symbol_or_saved_report_is_one_usage_error_line(tmp_path, capsys, argv, message):
    (tmp_path / "bad.json").write_text("not json")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--out", str(tmp_path / "out")] if argv[0] == "report" else argv)
    assert excinfo.value.code == 2
    # the usage line, then exactly one error line and no traceback
    assert capsys.readouterr().err.splitlines()[1:] == [
        "eventlens: error: " + message.replace("{tmp}", str(tmp_path))
    ]
    assert not (tmp_path / "out").exists()


def test_unknown_format_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--config", NOISY_CONFIG, "--offline", "--format", "xml"])
    assert excinfo.value.code == 2


def test_fit_takes_no_format_flag(tmp_path, capsys):
    # fit writes one JSON document per model, so a --format would be ignored.
    out = tmp_path / "models"
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fit", "--config", NOISY_CONFIG, "--offline", "--out", str(out), "--format", "json"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "eventlens: error: unrecognized arguments: --format json"
    )
    assert not out.exists()


@pytest.mark.parametrize("symbol", ["sub/dir", "/abs/TGT1", "sub\\dir", "TGT\u00001"])
def test_a_symbol_that_names_a_path_is_a_usage_error(tmp_path, capsys, monkeypatch, symbol):
    # The symbol stands in for TGT1 throughout the config, so only the
    # symbol rule can refuse it; a fetch would find a payload and a key.
    payload = json.dumps(
        {"Time Series (Daily)": {"2022-01-03": {"open": "1", "high": "2", "low": "1", "close": "1"}}}
    )
    monkeypatch.setattr("eventlens.ingest._http_get", lambda url: payload.encode())
    document = json.loads(Path(NOISY_CONFIG).read_text().replace("TGT1", json.dumps(symbol)[1:-1]))
    document["provider"]["api_key"] = "k"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    rule = "'.', ',', '/' or '\\'" if symbol.isprintable() else "non-printable characters"
    out = tmp_path / "out"
    for command in ("fetch", "run"):
        argv = [command, "--config", str(config)] + (["--out", str(out)] if command == "run" else [])
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"eventlens: error: unparseable config {config}: instrument symbol {symbol!r} "
            f"may not contain {rule}"
        ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_an_offline_run_does_not_load_the_http_stack(tmp_path):
    # A fresh interpreter: the test session itself may have loaded urllib.request.
    argv = ["run", "--offline", "--config", NOISY_CONFIG, "--out", str(tmp_path / "out")]
    script = (
        "import sys\nfrom eventlens import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "assert 'urllib.request' not in sys.modules, 'the run loaded urllib.request'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "out" / "manifest.json").exists()


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


def run_in_a_fresh_interpreter(tmp_path, overflowing_days) -> tuple[int, str]:
    """``eventlens run``'s exit code and stderr over 30 days where Y.close
    is 3 + 2 * X.close, but 1e200 on ``overflowing_days``. A fresh
    interpreter prints any warning as a user sees it."""
    start = dt.date(2022, 1, 1)
    x = [10.0 + 0.5 * i + (i % 3) for i in range(30)]
    y = [1e200 if i in overflowing_days else 3.0 + 2.0 * close for i, close in enumerate(x)]
    cache = tmp_path / "cache"
    cache.mkdir()
    for symbol, closes in (("X", x), ("Y", y)):
        series = make_series(symbol, start, closes)
        (cache / f"{symbol}.csv").write_bytes(series_to_csv_bytes(series))

    def window(a: int, b: int) -> dict:
        days = (start + dt.timedelta(a), start + dt.timedelta(b))
        return {"start": days[0].isoformat(), "end": days[1].isoformat()}

    scenario = {
        "universe": [{"symbol": symbol, "kind": "equity"} for symbol in "XY"],
        "feature_specs": [{"target": "Y.close", "features": ["X.close"]}],
        "train_window": window(0, 19),
        "test_window": window(20, 24),
        "correlation_before": window(0, 9),
        "correlation_after": window(10, 19),
        "source_window": window(20, 24),
        "projection_window": window(25, 29),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"provider": {"cache_dir": "cache"}, "scenario": scenario}))
    argv = ["run", "--offline", "--config", str(config_path), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "eventlens.cli", *argv], env=env, capture_output=True, text=True
    )
    return result.returncode, result.stderr


def test_an_overflowing_score_prints_one_error_line(tmp_path):
    # Y.close is 1e200 over the test window, so its squared test errors overflow.
    assert run_in_a_fresh_interpreter(tmp_path, range(20, 25)) == (
        1, "eventlens: error: metric-error: target Y: mse must be finite and non-negative, got inf\n"
    )


def test_a_correlation_past_the_largest_float_prints_the_fit_error_line(tmp_path):
    # Y.close is 1e200 on 3 of the 10 correlation_before days; the
    # correlations are computed, and the training window's fit is refused.
    assert run_in_a_fresh_interpreter(tmp_path, (2, 5, 8)) == (
        1,
        "eventlens: error: fit-error: target Y: residual_sum_of_squares must be finite and "
        "non-negative, got inf\n",
    )


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


# The category of every exception class the CLI prints: its EventLensError
# classes and the OSErrors of reading and writing files.
ERROR_CATEGORIES = {
    errors.EventLensError: "event-lens-error",
    errors.ProviderError: "provider-error",
    errors.CacheError: "cache-error",
    errors.DataFormatError: "data-format-error",
    errors.BarInvariantError: "bar-invariant-error",
    errors.PanelError: "panel-error",
    errors.StatsError: "stats-error",
    errors.FitError: "fit-error",
    errors.MetricError: "metric-error",
    errors.ConfigError: "config-error",
    FileNotFoundError: "file-not-found-error",
    PermissionError: "permission-error",
    IsADirectoryError: "is-a-directory-error",
    NotADirectoryError: "not-a-directory-error",
    OSError: "oserror",
}


def test_each_error_class_the_cli_prints_has_its_pinned_category(capsys):
    classes, pending = set(), [errors.EventLensError]
    while pending:
        classes.add(cls := pending.pop())
        pending.extend(cls.__subclasses__())
    assert classes <= ERROR_CATEGORIES.keys()
    for cls, category in ERROR_CATEGORIES.items():
        assert cli._fail(cls("two\nlines")) == 1
        assert capsys.readouterr().err == f"eventlens: error: {category}: two lines\n"


def test_an_out_that_is_a_file_is_a_not_a_directory_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"a file\n")
    argv = ["report", "--from", str(GOLDEN_DIR / "scenario_report.json"), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"eventlens: error: not-a-directory-error: [Errno 20] Not a directory: '{out}'\n"
    )
    assert out.read_bytes() == b"a file\n"


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
AS_OBJECT = object()  # the replacement that turns the array into an object keyed by its items
_GOLDEN_REPORT = json.loads((GOLDEN_DIR / "scenario_report.json").read_text())
_AFTER = _GOLDEN_REPORT["correlation_after"]
# The after-matrix with its labels, rows and columns reversed: a valid matrix.
_REVERSED_AFTER = {
    "labels": _AFTER["labels"][::-1],
    "values": [row[::-1] for row in _AFTER["values"][::-1]],
}
# TGT1's result, filed as the result of a symbol outside the universe.
_GHOST_TARGET = json.loads(
    json.dumps(_GOLDEN_REPORT["targets"]["TGT1"]).replace('"TGT1.close"', '"GHOST.close"')
)
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
    ("data-digests-empty", ("provenance", "data_digests"), {},
     "provenance data_digests must name the universe symbols "
     "['FAC1', 'FAC2', 'FAC3', 'TGT1', 'TGT2', 'TGT3'] in order, got []"),
    ("data-digests-extra-key", ("provenance", "data_digests", "sub/dir\u0000"), "0" * 64,
     "provenance data_digests must name the universe symbols "
     "['FAC1', 'FAC2', 'FAC3', 'TGT1', 'TGT2', 'TGT3'] in order, "
     "got ['FAC1', 'FAC2', 'FAC3', 'TGT1', 'TGT2', 'TGT3', 'sub/dir\\x00']"),
    # Both matrices have the run's labels, and each target is a universe symbol.
    ("correlation-after-reversed", ("correlation_after",), _REVERSED_AFTER,
     "correlation_after labels must equal correlation_before labels"),
    ("correlation-after-other-label", ("correlation_after", "labels", 0), "FAC1.open",
     "correlation_after labels must equal correlation_before labels"),
    ("target-outside-the-universe", ("targets", "GHOST"), _GHOST_TARGET,
     "target GHOST is not among the universe symbols "
     "['FAC1', 'FAC2', 'FAC3', 'TGT1', 'TGT2', 'TGT3']"),
    # Every object of the document must be a JSON object.
    ("targets-array", ("targets",), [], "targets must be an object, got list"),
    ("targets-string", ("targets",), "TGT1", "targets must be an object, got str"),
    ("target-array", ("targets", "TGT2"), [], "target TGT2 must be an object, got list"),
    ("provenance-pairs", ("provenance",),
     [["config_digest", "0" * 64], ["data_digests", {}], ["projection_mode", "date_shifted"],
      ["projection_cycles", 1]],
     "provenance must be an object, got list"),
    ("model-spec-array", ("targets", "TGT1", "model", "spec"), ["TGT1.close"],
     "model spec must be an object, got list"),
    ("diagnostics-array", ("targets", "TGT1", "model", "diagnostics"), [1.0, 450, 1.0],
     "model diagnostics must be an object, got list"),
    ("metrics-string", ("targets", "TGT3", "divergence_metrics"), "none",
     "metrics must be an object, got str"),
    ("correlation-matrix-array", ("correlation_after",), [[1.0]],
     "correlation matrix must be an object, got list"),
    # Every array of the document must be a JSON array.
    ("labels-object", ("correlation_before", "labels"), AS_OBJECT,
     "correlation labels must be an array, got dict"),
    ("values-object", ("correlation_after", "values"), AS_OBJECT,
     "correlation values must be an array, got dict"),
    ("correlation-row-object", ("correlation_before", "values", 2), AS_OBJECT,
     "correlation row must be an array, got dict"),
    ("projection-dates-object", ("targets", "TGT1", "projection_dates"), AS_OBJECT,
     "projection_dates must be an array, got dict"),
    ("realized-object", ("targets", "TGT2", "realized"), AS_OBJECT,
     "realized must be an array, got dict"),
    ("counterfactual-object", ("targets", "TGT3", "counterfactual"), AS_OBJECT,
     "counterfactual must be an array, got dict"),
    ("weights-object", ("targets", "TGT1", "model", "weights"), AS_OBJECT,
     "model weights must be an array, got dict"),
    ("spec-features-object", ("targets", "TGT2", "model", "spec", "features"), AS_OBJECT,
     "model spec features must be an array, got dict"),
    # A column's symbol follows the instrument symbol rule.
    ("target-names-a-path", ("targets", "TGT1", "model", "spec", "target"), "sub/dir.close",
     "instrument symbol 'sub/dir' may not contain '.', ',', '/' or '\\'"),
    # A value the report's own types refuse is a malformed document too.
    ("weight-nan", ("targets", "TGT3", "model", "weights", 0), math.nan,
     "malformed scenario report document: model weights must be finite"),
    ("correlation-asymmetric", ("correlation_before", "values", 0, 1), 0.5,
     "malformed scenario report document: correlation matrix is not symmetric"),
    ("mse-negative", ("targets", "TGT2", "test_metrics", "mse"), -1.0,
     "malformed scenario report document: mse must be finite and non-negative, got -1.0"),
    ("rss-negative", ("targets", "TGT1", "model", "diagnostics", "residual_sum_of_squares"), -5,
     "malformed scenario report document: "
     "residual_sum_of_squares must be finite and non-negative, got -5.0"),
    ("training-rows-negative", ("targets", "TGT1", "model", "diagnostics", "training_rows"), -3,
     "malformed scenario report document: training_rows must be an integer of at least 1, got -3"),
    ("training-rows-below-coefficients",
     ("targets", "TGT1", "model", "diagnostics", "training_rows"), 6,
     "malformed scenario report document: too few rows: 6 rows for 7 coefficients"),
    ("condition-nan", ("targets", "TGT2", "model", "diagnostics", "condition_estimate"), math.nan,
     "malformed scenario report document: condition_estimate must be between 1 and 1e+12, got nan"),
    ("condition-below-one", ("targets", "TGT2", "model", "diagnostics", "condition_estimate"), 0.5,
     "malformed scenario report document: condition_estimate must be between 1 and 1e+12, got 0.5"),
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
    elif value is AS_OBJECT:
        parent[path[-1]] = dict.fromkeys(map(str, parent[path[-1]]))
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


@pytest.mark.parametrize(
    "limit,message",
    [
        (2.5, "rate limit must be an integer, got 2.5"),
        (True, "rate limit must be an integer, got True"),
        (float("inf"), "rate limit must be an integer, got inf"),  # the config reads Infinity
        ("5", "rate limit must be an integer, got '5'"),
        (0, "rate limit must be >= 1, got 0"),
    ],
)
def test_bad_rate_limit_is_a_usage_error(tmp_path, capsys, limit, message):
    config = tmp_path / "config.json"
    config.write_text(_edited_noisy_config(lambda d: d["provider"].update(rate_limit=limit)))
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--config", str(config), "--offline", "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[1:] == [
        f"eventlens: error: bad provider section in {config}: {message}"
    ]
    assert not (tmp_path / "out").exists()
