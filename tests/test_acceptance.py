"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion. The live-data criterion is network-gated and skips unless
EVENTLENS_LIVE_TEST=1 and an API key are present; it is non-blocking.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from eventlens import cli, rmse, score
from eventlens.panel import BarField, ColumnKey
from eventlens.regress import fit_ols
from eventlens.report import emit
from eventlens.scenario import ProjectionMode, run_scenario
from eventlens.stats import correlation_matrix, pearson

from conftest import (
    GOLDEN_DIR,
    SYNTHETIC_DIR,
    load_fixture_config,
    load_fixture_data,
    random_series,
)
from test_regress import Y, column_stack_design, normal_equations, random_instance


def passed(line: str) -> None:
    print(f"[PASS] {line}")


# --- criterion 1: published-table internal consistency ---------------------------------


def test_published_error_table_internal_consistency():
    # WTI row: mse 0.39943 must imply rmse 0.632008 under the raw definitions
    wti_pair = ([1.0], [1.0 + math.sqrt(0.39943)])
    assert rmse(*wti_pair) == pytest.approx(0.632008, abs=1e-3)
    # Gold row: mse 0.016860 must imply rmse 0.12984
    gold_pair = ([1.0], [1.0 + math.sqrt(0.016860)])
    assert rmse(*gold_pair) == pytest.approx(0.12984, abs=1e-3)
    # The NDAQ row of the same published table is internally inconsistent
    # (sqrt(0.40524) is 0.6366, which shows up in its MAPE column instead);
    # it is documented as such and excluded from these anchors.
    assert abs(math.sqrt(0.40524) - 0.03114) > 0.5
    assert math.sqrt(0.40524) == pytest.approx(0.63658, abs=1e-4)
    passed("metrics reproduce the consistent WTI and Gold rows within 1e-3; NDAQ row excluded")


# --- criterion 2: OLS oracle equivalence --------------------------------------------------


def test_ols_matches_brute_force_normal_equations():
    rng = np.random.default_rng(1861)
    worst_weight_gap = 0.0
    worst_orthogonality = 0.0
    for _ in range(200):
        panel, spec = random_instance(rng, max_rows=50, max_features=8)
        model = fit_ols(panel, spec)
        X = column_stack_design(panel, spec)
        y = panel.column(Y)

        oracle = normal_equations(X, y)
        gap = np.max(np.abs(model.weights - oracle)) / max(np.max(np.abs(oracle)), 1.0)
        worst_weight_gap = max(worst_weight_gap, gap)
        assert gap <= 1e-9

        residual = y - X @ model.weights
        scale = np.linalg.norm(X, np.inf) * max(np.linalg.norm(y, np.inf), 1.0)
        orthogonality = np.max(np.abs(X.T @ residual)) / scale
        worst_orthogonality = max(worst_orthogonality, orthogonality)
        assert orthogonality <= 1e-8
    passed(
        "200 random fits match normal equations (worst relative gap "
        f"{worst_weight_gap:.2e}) with residual orthogonality {worst_orthogonality:.2e}"
    )


# --- criterion 3: metrics properties -------------------------------------------------------


def test_metrics_properties_and_hand_derived_vector():
    report = score([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert report.mse == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert report.rmse == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-9)
    assert report.mae == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert report.mape == pytest.approx(100.0 / 9.0, abs=1e-9)

    rng = np.random.default_rng(52)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        t = rng.uniform(0.5, 10.0, size=n)
        p = t + rng.normal(0.0, 1.0, size=n)
        r = score(t, p)
        assert r.rmse == pytest.approx(math.sqrt(r.mse), abs=1e-12)
        assert r.mae <= r.rmse + 1e-12
        assert r.rmse <= math.sqrt(n) * r.mae + 1e-12
        c = float(rng.uniform(0.5, 4.0))
        scaled = score(c * t, c * p)
        assert scaled.mse == pytest.approx(c * c * r.mse, rel=1e-9)
        assert scaled.rmse == pytest.approx(c * r.rmse, rel=1e-9)
        assert scaled.mae == pytest.approx(c * r.mae, rel=1e-9)
        assert scaled.mape == pytest.approx(r.mape, rel=1e-9)
    passed("metrics: rmse=sqrt(mse), power-mean bounds, scaling laws, hand-derived vector")


# --- criterion 4: correlation properties -----------------------------------------------------


def test_correlation_properties():
    assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        r = pearson(x, y)
        assert r == pearson(y, x)
        assert abs(r) <= 1.0
        a = float(rng.uniform(0.1, 4.0))
        b = float(rng.uniform(-5.0, 5.0))
        assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-12)
        assert pearson(x, a * x + b) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, -a * x + b) == pytest.approx(-1.0, abs=1e-12)

    panel_rng = np.random.default_rng(11)
    for _ in range(10):
        panel_series = [random_series(f"S{i}", 30, panel_rng) for i in range(4)]
        from eventlens import align

        panel = align(panel_series)
        keys = [ColumnKey(f"S{i}", BarField.CLOSE) for i in range(4)]
        matrix = correlation_matrix(panel, keys)
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.all(matrix.values.diagonal() == 1.0)
        assert np.all(np.abs(matrix.values) <= 1.0 + 1e-12)
    passed("correlation: symmetry, unit diagonal, bounds, affine invariance, r=0.5 case")


# --- criterion 5: synthetic end-to-end recovery ------------------------------------------------


def test_synthetic_recovery_and_golden_bundle(tmp_path, truth):
    # noise-free variant: generating weights recovered within 1e-6
    _, clean_config = load_fixture_config("scenario_clean.json")
    clean_report = run_scenario(clean_config, load_fixture_data("clean", clean_config))
    worst = 0.0
    for spec in clean_config.feature_specs:
        symbol = spec.target.symbol
        entry = truth["targets"][symbol]
        expected = np.array([entry["intercept"]] + list(entry["weights"].values()))
        gap = float(np.max(np.abs(clean_report.targets[symbol].model.weights - expected)))
        worst = max(worst, gap)
        assert gap <= 1e-6, symbol
    passed(f"noise-free fixture recovers generating weights (worst gap {worst:.2e} <= 1e-6)")

    # noisy variant: weights within 3 sigma-scaled standard errors
    _, noisy_config = load_fixture_config("scenario_noisy.json")
    noisy_data = load_fixture_data("noisy", noisy_config)
    noisy_report = run_scenario(noisy_config, noisy_data)
    from eventlens import align

    train = align(noisy_data).slice(noisy_config.train_window)
    sigma = truth["sigma"]
    for spec in noisy_config.feature_specs:
        symbol = spec.target.symbol
        entry = truth["targets"][symbol]
        expected = np.array([entry["intercept"]] + list(entry["weights"].values()))
        X = column_stack_design(train, spec)
        standard_errors = sigma * np.sqrt(np.diag(np.linalg.inv(X.T @ X)))
        deviations = np.abs(noisy_report.targets[symbol].model.weights - expected)
        assert np.all(deviations <= 3.0 * standard_errors), symbol
    passed("noisy fixture recovers generating weights within 3-sigma standard errors")

    # emitted bundle must match the committed golden byte for byte
    out_dir = tmp_path / "bundle"
    emit(noisy_report, out_dir, formats=("csv", "json"))
    golden_dir = GOLDEN_DIR / "bundle"
    golden_files = {p.name: p.read_bytes() for p in sorted(golden_dir.iterdir())}
    emitted_files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert emitted_files == golden_files
    passed("emitted bundle is byte-identical to the committed golden bundle")


def test_pipeline_agrees_with_independent_brute_force_derivation():
    # tools/derive_golden.py recomputes the fixture results with exact
    # rational arithmetic over the normal equations; nothing here shares
    # code with the pipeline's QR route
    derived = json.loads((GOLDEN_DIR / "derived_expectations.json").read_text())
    for config_name, expectations in derived.items():
        _, config = load_fixture_config(config_name)
        variant = "clean" if "clean" in config_name else "noisy"
        report = run_scenario(config, load_fixture_data(variant, config))
        assert report.provenance["projection_cycles"] == expectations["projection_cycles"]

        for side in ("correlation_before", "correlation_after"):
            expected = np.array(expectations[side]["values"])
            produced = getattr(report, side).values
            assert np.max(np.abs(produced - expected)) <= 1e-9

        for symbol, expected_target in expectations["targets"].items():
            result = report.targets[symbol]
            expected_weights = np.array(expected_target["weights"])
            weight_scale = float(np.max(np.abs(expected_weights)))
            assert (
                np.max(np.abs(result.model.weights - expected_weights))
                <= 1e-9 * max(weight_scale, 1.0)
            )
            for phase, produced_metrics in (
                ("test_metrics", result.test_metrics),
                ("divergence_metrics", result.divergence_metrics),
            ):
                for field in ("mse", "rmse", "mae", "mape"):
                    a = getattr(produced_metrics, field)
                    b = expected_target[phase][field]
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (symbol, phase, field)
            produced_cf = result.counterfactual
            expected_cf = np.array(expected_target["counterfactual"])
            assert np.max(np.abs(produced_cf - expected_cf)) <= 1e-9 * max(
                1.0, float(np.max(np.abs(expected_cf)))
            )
            assert [d.isoformat() for d in result.projection_dates] == expected_target[
                "projection_dates"
            ]
    passed("pipeline matches the exact-rational brute-force derivation within 1e-9")


# --- criterion 6: determinism -----------------------------------------------------------------


def test_two_offline_runs_are_byte_identical(tmp_path, monkeypatch):
    def no_network(url):
        raise AssertionError("offline run touched the network")

    monkeypatch.setattr("eventlens.ingest._http_get", no_network)
    config_path = str(SYNTHETIC_DIR / "scenario_noisy.json")
    bundles = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli.main(["run", "--config", config_path, "--offline", "--out", str(out)]) == 0
        bundles.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert bundles[0] == bundles[1]
    assert "manifest.json" in bundles[0]
    passed("two offline runs produce byte-identical bundles including the manifest")


# --- criterion 7: live directional reproduction (network-gated, non-blocking) ------------------


LIVE_ENABLED = os.environ.get("EVENTLENS_LIVE_TEST") == "1" and bool(
    os.environ.get("EVENTLENS_API_KEY")
)


@pytest.mark.skipif(
    not LIVE_ENABLED,
    reason="live provider check; set EVENTLENS_LIVE_TEST=1 and EVENTLENS_API_KEY to run",
)
def test_live_paper_protocol_directions(tmp_path):
    from eventlens import ProviderConfig, fetch_daily
    from eventlens.scenario import config_from_json_dict

    document = json.loads((Path(__file__).parents[1] / "paper.json").read_text())
    config = dataclasses.replace(
        config_from_json_dict(document["scenario"]),
        projection_mode=ProjectionMode.ORACLE_FEATURES,
    )
    provider = ProviderConfig(cache_dir=tmp_path / "cache", rate_limit=5)
    data = [fetch_daily(instrument, provider) for instrument in config.universe]
    for series in data:
        assert series.bars[0].date <= config.train_window.start
        assert series.bars[-1].date >= config.projection_window.end
    report = run_scenario(config, data)

    def mean_difference(symbol: str) -> float:
        result = report.targets[symbol]
        return float(np.mean(result.counterfactual - result.realized))

    # counterfactual sits above realized for the dollar index and NDAQ,
    # below for WTI and gold
    assert mean_difference("USD_IDX") > 0
    assert mean_difference("NDAQ") > 0
    assert mean_difference("WTI") < 0
    assert mean_difference("GOLD") < 0

    labels = report.correlation_before.labels
    rub = labels.index(ColumnKey("RUBCNY", BarField.CLOSE))
    wti = labels.index(ColumnKey("WTI", BarField.CLOSE))
    before = report.correlation_before.values[rub, wti]
    after = report.correlation_after.values[rub, wti]
    assert before < 0
    assert after < before
    passed("live paper protocol reproduces the published directional claims")
