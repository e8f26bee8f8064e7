from __future__ import annotations

import dataclasses
import json
import math

import pytest

from eventlens import MetricError, MetricsReport, mae, mape, mse, rmse, score


# --- hand-derived anchor values --------------------------------------------------

TRUE = [1.0, 2.0, 3.0]
PRED = [1.0, 2.0, 4.0]


def test_mse_examples():
    assert mse(TRUE, TRUE) == 0.0
    assert mse(TRUE, PRED) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert mse([0.0], [2.0]) == 4.0


def test_rmse_examples():
    assert rmse(TRUE, TRUE) == 0.0
    assert rmse(TRUE, PRED) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)


def test_mae_examples():
    assert mae(TRUE, TRUE) == 0.0
    assert mae(TRUE, PRED) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert mae([-1.0, 1.0], [1.0, -1.0]) == 2.0


def test_mape_examples():
    assert mape(TRUE, TRUE) == 0.0
    # per-point ratios 0, 0, 1/3 average to 1/9, so 100/9 percent
    assert mape(TRUE, PRED) == pytest.approx(100.0 / 9.0, abs=1e-12)


def test_mape_zero_true_value_is_an_error():
    with pytest.raises(MetricError, match="zero"):
        mape([1.0, 0.0, 3.0], [1.0, 1.0, 3.0])


def test_mape_uses_absolute_denominator():
    assert mape([-2.0], [-1.0]) == pytest.approx(50.0, abs=1e-12)


def test_score_bundles_all_four():
    report = score(TRUE, PRED)
    assert report.mse == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert report.rmse == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)
    assert report.mae == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert report.mape == pytest.approx(100.0 / 9.0, abs=1e-12)
    assert report.n == 3


def test_score_perfect_predictions():
    report = score(TRUE, TRUE)
    assert (report.mse, report.rmse, report.mae, report.mape) == (0.0, 0.0, 0.0, 0.0)


# --- input validation -------------------------------------------------------------


@pytest.mark.parametrize("fn", [mse, rmse, mae, mape, score])
def test_length_mismatch(fn):
    with pytest.raises(MetricError, match="length mismatch"):
        fn([1.0, 2.0], [1.0])


@pytest.mark.parametrize("fn", [mse, rmse, mae, mape, score])
def test_inputs_must_be_1_d(fn):
    with pytest.raises(MetricError, match="^metrics expect 1-D inputs$"):
        fn([[1.0, 2.0]], [1.0, 2.0])


@pytest.mark.parametrize("fn", [mse, rmse, mae, mape, score])
def test_empty_inputs(fn):
    with pytest.raises(MetricError, match="at least one point"):
        fn([], [])


def test_non_finite_inputs_rejected():
    with pytest.raises(MetricError, match="finite"):
        mse([1.0, float("nan")], [1.0, 2.0])


# --- properties ---------------------------------------------------------------------


def test_score_is_the_four_functions_bit_for_bit(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        t = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        p = t + rng.normal(size=n)
        report = score(t, p)
        assert (report.mse, report.rmse, report.mae, report.mape, report.n) == (
            mse(t, p), rmse(t, p), mae(t, p), mape(t, p), n
        )


def test_rmse_is_sqrt_of_mse(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        t = rng.normal(size=n)
        p = rng.normal(size=n)
        assert rmse(t, p) == pytest.approx(math.sqrt(mse(t, p)), abs=1e-15)


def test_power_mean_bounds(rng):
    for _ in range(50):
        n = int(rng.integers(1, 40))
        t = rng.normal(size=n)
        p = rng.normal(size=n)
        a, r = mae(t, p), rmse(t, p)
        assert a <= r + 1e-12
        assert r <= math.sqrt(n) * a + 1e-12


def test_translation_leaves_absolute_metrics_unchanged(rng):
    t = rng.uniform(1.0, 5.0, size=20)
    p = t + rng.normal(0.0, 0.2, size=20)
    c = 7.5
    assert mse(t + c, p + c) == pytest.approx(mse(t, p), rel=1e-12)
    assert rmse(t + c, p + c) == pytest.approx(rmse(t, p), rel=1e-12)
    assert mae(t + c, p + c) == pytest.approx(mae(t, p), rel=1e-12)
    assert mape(t + c, p + c) != pytest.approx(mape(t, p), rel=1e-6)


def test_joint_scaling_laws(rng):
    t = rng.uniform(1.0, 5.0, size=20)
    p = t + rng.normal(0.0, 0.2, size=20)
    c = 3.25
    assert mse(c * t, c * p) == pytest.approx(c * c * mse(t, p), rel=1e-12)
    assert rmse(c * t, c * p) == pytest.approx(c * rmse(t, p), rel=1e-12)
    assert mae(c * t, c * p) == pytest.approx(c * mae(t, p), rel=1e-12)
    assert mape(c * t, c * p) == pytest.approx(mape(t, p), rel=1e-12)


def test_negative_scaling_uses_absolute_value(rng):
    t = rng.uniform(1.0, 5.0, size=20)
    p = t + rng.normal(0.0, 0.2, size=20)
    assert rmse(-2.0 * t, -2.0 * p) == pytest.approx(2.0 * rmse(t, p), rel=1e-12)


# --- MetricsReport invariants ---------------------------------------------------------


def test_report_rejects_inconsistent_rmse():
    with pytest.raises(MetricError, match="rmse"):
        MetricsReport(mse=4.0, rmse=1.0, mae=0.5, mape=1.0, n=3)


def test_report_rejects_mae_above_rmse():
    with pytest.raises(MetricError, match="mae"):
        MetricsReport(mse=1.0, rmse=1.0, mae=1.5, mape=1.0, n=3)


def test_a_constant_error_above_1e4_is_scored():
    # sqrt(60000.17**2) rounds to 60000.16999999999: mae exceeds rmse by one
    # ulp, a rounding of sqrt, not an inconsistent report.
    report = score([100.0] * 5, [100.0 + 60000.17] * 5)
    assert report.mae == 60000.17
    assert report.rmse == math.sqrt(report.mse)


def test_report_rejects_bad_counts_and_negatives():
    with pytest.raises(MetricError):
        MetricsReport(mse=1.0, rmse=1.0, mae=0.5, mape=1.0, n=0)
    with pytest.raises(MetricError):
        MetricsReport(mse=1.0, rmse=1.0, mae=-0.5, mape=1.0, n=3)


def test_report_json_key_order_is_fixed():
    report = score(TRUE, PRED)
    payload = json.dumps(dataclasses.asdict(report))
    assert payload.index('"mse"') < payload.index('"rmse"') < payload.index('"mae"')
    assert payload.index('"mae"') < payload.index('"mape"') < payload.index('"n"')
    assert MetricsReport.from_json_dict(dataclasses.asdict(report)) == report
