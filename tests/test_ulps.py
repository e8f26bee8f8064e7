"""tools/ulps.py: the largest ulp distance per quantity between two saved reports."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def up(x: float, steps: int) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def saved_report(weights, rss, condition, correlation, counterfactual, mape) -> dict:
    """A saved report's layout, cut to one target and what the tool reads."""
    matrix = {"labels": ["A.close", "B.close"], "values": [[1.0, correlation], [correlation, 1.0]]}
    metrics = {"mse": 0.25, "rmse": 0.5, "mae": 0.5, "mape": mape, "n": 4}
    model = {
        "spec": {"target": "T.close", "features": ["A.close"], "include_intercept": True},
        "weights": weights,
        "diagnostics": {
            "residual_sum_of_squares": rss, "training_rows": 4, "condition_estimate": condition,
        },
    }
    return {
        "provenance": {},
        "correlation_before": matrix,
        "correlation_after": matrix,
        "targets": {
            "T": {
                "model": model,
                "test_metrics": metrics,
                "projection_dates": ["2022-03-01", "2022-03-02"],
                "realized": [3.0, 4.0],
                "counterfactual": counterfactual,
                "divergence_metrics": metrics,
            }
        },
    }


def ulps(tmp_path: Path, a: dict, b: dict) -> tuple[int, str, str]:
    paths = []
    for name, report in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(report), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ulps.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


BASE = saved_report([0.5, -2.0], 0.0, 1e4, -0.5, [3.0, 1.0], 5e-324)


def test_identical_reports_are_zero_ulp_apart_on_every_quantity(tmp_path):
    code, out, err = ulps(tmp_path, BASE, BASE)
    assert (code, err) == (0, "")
    assert [line.split() for line in out.splitlines()] == [
        [name, "0", "ulp"]
        for name in ("weights", "rss", "condition", "correlations", "counterfactual", "metrics")
    ]


def test_each_quantity_reads_its_largest_distance_in_doubles(tmp_path):
    # Adjacent doubles are 1 apart on either side of 0, -0.0 is 0.0, and the
    # smallest subnormals of either sign are 2 apart.
    moved = saved_report(
        [0.5, up(-2.0, 3)], -0.0, up(1e4, 1), up(-0.5, 7), [up(3.0, 2), 1.0], -5e-324
    )
    code, out, err = ulps(tmp_path, BASE, moved)
    assert (code, err) == (1, "")
    assert [line.split() for line in out.splitlines()] == [
        ["weights", "3", "ulp"],
        ["rss", "0", "ulp"],
        ["condition", "1", "ulp"],
        ["correlations", "7", "ulp"],
        ["counterfactual", "2", "ulp"],
        ["metrics", "2", "ulp"],
    ]


def test_reports_of_different_shapes_are_one_error_line(tmp_path):
    longer = saved_report([0.5, -2.0, 1.0], 0.0, 1e4, -0.5, [3.0, 1.0], 5e-324)
    code, out, err = ulps(tmp_path, BASE, longer)
    assert (code, out) == (2, "")
    assert err == "ulps: error: ValueError: weights: 2 numbers against 3\n"
