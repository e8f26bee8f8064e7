"""Regression error measures.

Metrics:
- mean squared error (mse)
- root mean squared error (rmse)
- mean absolute error (mae)
- mean absolute percentage error (mape, in percent)

MAPE averages the per-point ratios |true_i - pred_i| / |true_i|; a zero
true value is a hard error rather than a silently skipped point, because
dropping points would misstate n.

``score_stack`` scores the row pairs of two (k, n) stacks up to the first
pair it refuses and returns that pair's MetricError beside the reports
before it; ``score`` is its stack of one and raises that error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import MetricError, json_number, json_object

Vector = Sequence[float] | np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """The four error measures plus the number of scored points."""

    mse: float
    rmse: float
    mae: float
    mape: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise MetricError(f"metrics need at least one point, got n={self.n}")
        for name in ("mse", "rmse", "mae", "mape"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise MetricError(f"{name} must be finite and non-negative, got {value}")
        if abs(self.rmse * self.rmse - self.mse) > 1e-12 * max(self.mse, 1e-300):
            raise MetricError(f"rmse^2 != mse: {self.rmse}^2 vs {self.mse}")
        if self.mae > self.rmse + 1e-12 * max(self.rmse, 1.0):
            raise MetricError(f"mae {self.mae} exceeds rmse {self.rmse}")

    @classmethod
    def from_json_dict(cls, document: dict) -> "MetricsReport":
        """The report saved as ``dataclasses.asdict(report)``, numbers checked."""
        document = json_object(document, "metrics")
        return cls(*(json_number(document[f.name], f.name, f.name == "n") for f in fields(cls)))


def _paired(true: Vector, pred: Vector) -> tuple[np.ndarray, np.ndarray]:
    """The checked arrays every measure is computed on."""
    t = np.asarray(true, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.ndim != 1 or p.ndim != 1:
        raise MetricError("metrics expect 1-D inputs")
    if t.shape[0] != p.shape[0]:
        raise MetricError(f"length mismatch: {t.shape[0]} true vs {p.shape[0]} predicted")
    if t.shape[0] == 0:
        raise MetricError("metrics need at least one point")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise MetricError("metrics inputs must be finite")
    return t, p


def _mse(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.mean((t - p) ** 2, axis=-1)


def _mae(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.mean(np.abs(t - p), axis=-1)


def _mape(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    zeros = np.flatnonzero(t == 0.0)
    if zeros.size:
        raise MetricError(f"true value of zero at index {int(zeros[0])}; percentage undefined")
    return np.mean(np.abs(t - p) / np.abs(t), axis=-1) * 100.0


def mse(true: Vector, pred: Vector) -> float:
    """Mean of squared differences."""
    return float(_mse(*_paired(true, pred)))


def rmse(true: Vector, pred: Vector) -> float:
    """Square root of the mean squared error."""
    return math.sqrt(mse(true, pred))


def mae(true: Vector, pred: Vector) -> float:
    """Mean of absolute differences."""
    return float(_mae(*_paired(true, pred)))


def mape(true: Vector, pred: Vector) -> float:
    """Mean of per-point |error| / |true|, in percent. Zero true values are an error."""
    return float(_mape(*_paired(true, pred)))


def score(true: Vector, pred: Vector) -> MetricsReport:
    """All four metrics from one check of the inputs, as ``score_stack`` of
    one; rmse is sqrt(mse) by construction, as ``rmse`` computes it."""
    t, p = _paired(true, pred)
    reports, error = score_stack(t[None], p[None])
    if error is not None:
        raise error
    return reports[0]


def score_stack(
    true: np.ndarray, pred: np.ndarray
) -> tuple[list[MetricsReport], MetricError | None]:
    """``score`` of each row pair of the (k, n) stacks ``true`` and ``pred``,
    up to the first row pair it refuses. That row's MetricError is returned
    beside the reports of the rows before it, or None when every row is
    scored.

    A mean over a contiguous last axis sums each row as the mean of that row
    alone does, so each report's bits do not depend on its stack. Overflow
    warnings are off: a report's checks name a measure that is not finite.
    """
    undefined = ~(np.isfinite(true).all(1) & np.isfinite(pred).all(1)) | (true == 0.0).any(1)
    scored = int(np.argmax(undefined)) if undefined.any() else len(true)
    t, p = true[:scored], pred[:scored]
    with np.errstate(over="ignore", invalid="ignore"):
        measures = (_mse(t, p).tolist(), _mae(t, p).tolist(), _mape(t, p).tolist())
    reports: list[MetricsReport] = []
    try:
        for s, a, m in zip(*measures):
            reports.append(MetricsReport(s, math.sqrt(s), a, m, true.shape[1]))
        if scored < len(true):
            _mape(*_paired(true[scored], pred[scored]))  # raises that row's error
    except MetricError as exc:
        return reports, exc
    return reports, None
