"""Pearson correlation of panel columns and full correlation matrices.

Correlations are computed on close-price levels, matching the regression
features; that choice is a known econometric caveat (levels of trending
series correlate strongly) and is documented rather than hidden behind a
returns transform.

In a report bundle a matrix is one table: a header of labels and one
labelled row per label, with ``matrix_to_json_dict``'s document as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import StatsError, json_array, json_number, json_object
from .panel import AlignedPanel, ColumnKey

ENTRY_SLACK = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of pairwise Pearson coefficients with unit diagonal."""

    labels: tuple[ColumnKey, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        n = len(self.labels)
        if values.shape != (n, n):
            raise StatsError(f"matrix shape {values.shape} does not match {n} labels")
        if not np.all(np.isfinite(values)):
            raise StatsError("correlation matrix contains non-finite entries")
        if np.any(np.abs(values) > 1.0 + ENTRY_SLACK):
            raise StatsError("correlation entry outside [-1, 1]")
        # Bit for bit, so 0.0 does not mirror -0.0 and a bundle writes each
        # entry's text once for both places.
        bits = values.view(np.uint64)
        if not np.array_equal(bits, bits.T):
            raise StatsError("correlation matrix is not symmetric")
        if not np.all(values.diagonal() == 1.0):
            raise StatsError("correlation matrix diagonal is not exactly 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Sample Pearson r = cov(x, y) / (sigma_x * sigma_y).

    The normalization constant cancels between numerator and denominator,
    so the sums are used directly. The result is clamped to [-1, 1] only
    to absorb last-ulp overshoot.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise StatsError("pearson expects 1-D inputs")
    if xa.shape[0] != ya.shape[0]:
        raise StatsError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise StatsError("pearson requires at least 2 points")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0:
        raise StatsError("zero variance in first input")
    if syy == 0.0:
        raise StatsError("zero variance in second input")
    return float(_coefficients(xc @ yc, sxx, syy))


def _coefficients(products, sxx, syy):
    """r of each pair from its centered columns' dot product and their sums
    of squares, clamped to [-1, 1] only to absorb last-ulp overshoot; takes
    scalars or arrays alike."""
    return np.fmin(1.0, np.fmax(-1.0, products / np.sqrt(sxx * syy)))


def correlation_matrix(panel: AlignedPanel, keys: Iterable[ColumnKey]) -> CorrelationMatrix:
    """Pairwise Pearson matrix over the selected panel columns.

    The columns are centered in one stack and every pair's dot product is
    one item of one stacked ``matmul``, the rows broadcast against each
    other: numpy takes each item's product with the ddot that ``pearson``'s
    ``xc @ yc`` calls, where a matrix product (gemm) would round otherwise.
    ``_coefficients`` then runs once over all pairs, so every entry equals
    ``pearson`` of its two columns exactly. The diagonal is exactly 1;
    failures name the offending column.
    """
    labels = tuple(keys)
    if not labels:
        raise StatsError("correlation_matrix requires at least one column key")
    if panel.n_rows < 2:
        raise StatsError("correlation_matrix requires at least 2 panel rows")
    columns = np.array([panel.column(key) for key in labels])
    # Each row starts 16-byte aligned, as ``pearson``'s fresh arrays do:
    # OpenBLAS's SSE2 (Prescott) ddot rounds by its operands' alignment.
    n_rows = panel.n_rows
    centered = np.empty((len(labels), n_rows + n_rows % 2))[:, :n_rows]
    np.subtract(columns, columns.mean(axis=1, keepdims=True), out=centered)
    products = (centered[:, None, None, :] @ centered[None, :, :, None])[..., 0, 0]
    squares = products.diagonal()
    for key, square in zip(labels, squares):
        if square == 0.0:
            raise StatsError(f"column {key.name} has zero variance")

    n = len(labels)
    first, second = np.triu_indices(n, 1)
    values = np.ones((n, n), dtype=float)
    values[first, second] = values[second, first] = _coefficients(
        products[first, second], squares[first], squares[second]
    )
    return CorrelationMatrix(labels, values)


def matrix_to_json_dict(matrix: CorrelationMatrix) -> dict:
    return {"labels": [label.name for label in matrix.labels], "values": matrix.values.tolist()}


def matrix_from_json_dict(document: dict) -> CorrelationMatrix:
    """The matrix of a ``matrix_to_json_dict`` document; every value is checked."""
    document = json_object(document, "correlation matrix")
    labels = tuple(map(ColumnKey.parse, json_array(document["labels"], "correlation labels")))
    values = [
        [json_number(v, "correlation value") for v in json_array(row, "correlation row")]
        for row in json_array(document["values"], "correlation values")
    ]
    return CorrelationMatrix(labels, values)
