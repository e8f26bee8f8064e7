"""Pearson correlation of panel columns and full correlation matrices.

Correlations are computed on close-price levels, matching the regression
features; that choice is a known econometric caveat (levels of trending
series correlate strongly) and is documented rather than hidden behind a
returns transform.

``pearson`` and ``correlation_matrix`` share one kernel,
``_correlations``, so every matrix entry is ``pearson`` of its two columns
bit for bit. It scales each column by an exact power of two first, so it
is right on every finite input; it refuses only a column holding a
non-finite value and a column of zero variance.

In a report bundle a matrix is one table: a header of labels and one
labelled row per label, with ``matrix_to_json_dict``'s document as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import StatsError, json_array, json_number, json_object
from .panel import AlignedPanel, ColumnKey, aligned_rows

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
    """Sample Pearson r = cov(x, y) / (sigma_x * sigma_y): the off-diagonal
    entry of ``_correlations`` of the stack [x, y]."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise StatsError("pearson expects 1-D inputs")
    if xa.shape[0] != ya.shape[0]:
        raise StatsError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise StatsError("pearson requires at least 2 points")
    values = _correlations(np.array([xa, ya]), ("first", "second"), "{what} in {label} input")
    return float(values[0, 1])


def correlation_matrix(panel: AlignedPanel, keys: Iterable[ColumnKey]) -> CorrelationMatrix:
    """Pairwise Pearson matrix over the selected panel columns: the
    ``_correlations`` of their stack, so every entry equals ``pearson`` of
    its two columns exactly. Failures name the offending column."""
    labels = tuple(keys)
    if not labels:
        raise StatsError("correlation_matrix requires at least one column key")
    if panel.n_rows < 2:
        raise StatsError("correlation_matrix requires at least 2 panel rows")
    columns = np.array([panel.column(key) for key in labels])
    values = _correlations(columns, labels, "column {label.name} has {what}")
    return CorrelationMatrix(labels, values)


def _correlations(columns: np.ndarray, labels: Sequence, refusal: str) -> np.ndarray:
    """The Pearson matrix of the rows of ``columns`` (k, n): exactly 1 on
    the diagonal, and each entry below it the bits of its mirror.

    Each row is scaled by 2^-e, e the binary exponent of its largest
    |value|: exact, so a step that stays in the normal floats keeps its bits,
    and no finite row's sums then leave them. The rows are centered into
    ``aligned_rows``, and every pair's dot product is one item of one
    stacked ``matmul``, the rows broadcast against each other: numpy takes
    each item's product with ddot, where a matrix product (gemm) would
    round otherwise, and OpenBLAS's SSE2 (Prescott) ddot rounds by its
    operands' alignment. The normalization constant cancels, so r is a
    pair's product over the root of the product of its two sums of squares,
    clamped to [-1, 1] only to absorb last-ulp overshoot. A row holding a
    non-finite value, or of zero variance, is refused with
    ``refusal.format(label=labels[row], what=...)``.
    """
    k, n = columns.shape
    peaks = np.abs(columns).max(axis=1)
    _refuse_first(~np.isfinite(peaks), labels, refusal, "a non-finite value")
    centered = aligned_rows(k, n)
    np.ldexp(columns, -np.frexp(peaks)[1][:, None], out=centered)
    centered -= centered.mean(axis=1, keepdims=True)
    products = (centered[:, None, None, :] @ centered[None, :, :, None])[..., 0, 0]
    squares = products.diagonal()
    _refuse_first(squares == 0.0, labels, refusal, "zero variance")
    values = np.fmin(1.0, np.fmax(-1.0, products / np.sqrt(np.multiply.outer(squares, squares))))
    lower = np.tri(k, k=-1, dtype=bool)
    values[lower] = values.T[lower]
    np.fill_diagonal(values, 1.0)
    return values


def _refuse_first(refused: np.ndarray, labels: Sequence, refusal: str, what: str) -> None:
    if refused.any():
        raise StatsError(refusal.format(label=labels[int(np.argmax(refused))], what=what))


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
