"""Ordinary least squares on panel columns.

The model is close = w0 + w1*x1 + ... + wN*xN fit by minimizing the sum
of squared residuals. The solve goes through a Householder QR of the
design X with the target y as its last column, rather than the normal
equations, which would square the condition number; the normal-equations
route is reserved for test oracles. R of [X | y] holds X's triangular
factor and z = Qᵀy, and the weights solve R w = z. The condition estimate
is the ratio of the extreme singular values of that factor, which are X's.
Rank deficiency is a hard error, never silently regularized.

A fit or a prediction resolves its spec's column names to panel rows once
(``AlignedPanel.by_name``) and gathers them in one fancy-index take; the
design handed to ``@`` is the C-contiguous (n_rows, n_coef) array
``np.column_stack`` would build, because BLAS rounds strided operands
differently.

Each formula and each check is written once, for a stack of designs:
``fit_stack`` and ``predict_stack`` fit and predict same-shape specs in one
call each, and ``fit_ols`` and ``predict`` are those calls on a stack of
one. ``fit_stack`` fits up to the first spec it refuses and returns that
spec's FitError beside the models before it; ``fit_ols`` raises it. The
QR, solve and singular-value gufuncs call LAPACK's geqrf, gesv and gesdd
once per design, on a copy of their own, and ``matmul`` picks gemv or ddot
for each item from its shape and strides, as for one array. The vectors
of ddot and transposed gemv also start 16-byte aligned in every item
(``panel.aligned_rows``), as in a fresh array, because OpenBLAS's SSE2
kernels round by that alignment. So each result's bits do not depend on
its stack.

Features are not standardized. OLS predictions are affine-equivariant, so
scaling is cosmetic, and raw weights stay comparable to quote units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import ConfigError, FitError, json_array, json_number, json_object
from .panel import AlignedPanel, BarField, ColumnKey, aligned_rows

CONDITION_LIMIT = 1e12
_name = attrgetter("name")


@dataclass(frozen=True)
class FeatureSpec:
    """A prediction target plus the ordered feature columns used for it.

    Its checks compare column names, which are as unique as the keys: a
    symbol holds no ".". A name is a ``str``, hashed and compared in C.
    """

    target: ColumnKey
    features: tuple[ColumnKey, ...]
    include_intercept: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        if not isinstance(self.include_intercept, bool):
            raise ConfigError(
                f"include_intercept for {self.target.name} must be true or false, "
                f"got {self.include_intercept!r}"
            )
        if not self.features:
            raise ConfigError(f"feature list for {self.target.name} is empty")
        if self.target.field is not BarField.CLOSE:
            raise ConfigError(f"target must be a close column, got {self.target.name}")
        names = list(map(_name, self.features))
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate feature columns for {self.target.name}")
        if self.target.name in names:
            raise ConfigError(f"target {self.target.name} may not be its own feature")

    @property
    def n_coefficients(self) -> int:
        return len(self.features) + (1 if self.include_intercept else 0)


@dataclass(frozen=True)
class FitDiagnostics:
    """How a fit behaved, as ``fit_ols`` can report it."""

    residual_sum_of_squares: float
    training_rows: int
    condition_estimate: float

    def __post_init__(self) -> None:
        rss, rows = self.residual_sum_of_squares, self.training_rows
        condition = self.condition_estimate
        if not 0.0 <= rss < math.inf:
            raise FitError(f"residual_sum_of_squares must be finite and non-negative, got {rss}")
        if type(rows) is not int or rows < 1:
            raise FitError(f"training_rows must be an integer of at least 1, got {rows!r}")
        if not 1.0 <= condition <= CONDITION_LIMIT:
            raise FitError(
                f"condition_estimate must be between 1 and {CONDITION_LIMIT:.0e}, got {condition}"
            )


@dataclass(frozen=True)
class RegressionModel:
    """Fitted weights for a FeatureSpec; the intercept, if any, is stored first."""

    spec: FeatureSpec
    weights: np.ndarray
    diagnostics: FitDiagnostics

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (self.spec.n_coefficients,):
            raise FitError(
                f"expected {self.spec.n_coefficients} weights, got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise FitError("model weights must be finite")
        rows = self.diagnostics.training_rows
        if rows < self.spec.n_coefficients:
            raise FitError(f"too few rows: {rows} rows for {self.spec.n_coefficients} coefficients")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)


def _gather(panel: AlignedPanel, keys: tuple[ColumnKey, ...]) -> np.ndarray:
    """The cells of ``keys``' columns, one row per key in order, in one
    fancy-index take; the first key missing from the panel is named."""
    try:
        rows = np.fromiter(map(panel.by_name.__getitem__, map(_name, keys)), np.intp, len(keys))
    except KeyError as exc:
        raise FitError(f"unknown column {exc.args[0]}") from None
    return panel.values[rows]


def _design(columns: np.ndarray, include_intercept: bool) -> np.ndarray:
    """``columns`` (one row per feature, in a stack of any depth) as the
    columns of C-contiguous (n_rows, n_coef) arrays, after a constant-1
    column when ``include_intercept``: the layout ``np.column_stack`` gives."""
    *stack, n_features, n_rows = columns.shape
    X = np.empty((*stack, n_rows, include_intercept + n_features))
    if include_intercept:
        X[..., 0] = 1.0
    X[..., include_intercept:] = columns.swapaxes(-1, -2)
    return X


def _factor(Xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R of the QR factorization of each [X | y] in the stack Xy (k, n_rows,
    n_coef + 1), n_rows >= n_coef, and the condition estimate s[0] / s[-1]
    of each X, where s are the singular values of R's leading n_coef x
    n_coef block; the estimate is inf where s[-1] is 0 or the block is not
    finite (quotes near the largest float can overflow the reflections)."""
    k, n_coef = len(Xy), Xy.shape[2] - 1
    R = np.linalg.qr(Xy, mode="r")
    square = R[:, :n_coef, :n_coef]
    finite = np.isfinite(square).all(axis=(1, 2))
    s = np.zeros((k, n_coef))
    s[finite] = np.linalg.svd(square[finite], compute_uv=False)
    condition = np.full(k, np.inf)
    np.divide(s[:, 0], s[:, -1], out=condition, where=s[:, -1] > 0.0)
    return R, condition


def _solve(X: np.ndarray, y: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights and the residual sum of squares of each design in the
    stack X (k, n_rows, n_coef) against its row of y, from R of [X | y]:
    the weights solve R w = z, R's leading block against the head of its
    last column (LU with partial pivoting swaps no row of a triangular R,
    so this is back substitution), and the sum is the dot product of the
    explicit residual y - X @ w with itself."""
    n_coef = X.shape[-1]
    weights = np.linalg.solve(R[:, :n_coef, :n_coef], R[:, :n_coef, n_coef:])[..., 0]
    target = aligned_rows(*y.shape)
    target[...] = y
    residual = np.subtract(target, (X @ weights[..., None])[..., 0], out=aligned_rows(*y.shape))
    return weights, (residual[:, None, :] @ residual[..., None])[:, 0, 0]


def fit_ols(panel: AlignedPanel, spec: FeatureSpec) -> RegressionModel:
    """Fit the spec on the panel by least squares: ``fit_stack`` of one.

    Raises FitError when a column is missing from the panel, or with the
    error ``fit_stack`` names.
    """
    models, error = fit_stack(_gather(panel, (spec.target, *spec.features))[None], (spec,))
    if error is not None:
        raise error
    return models[0]


def fit_stack(
    cells: np.ndarray, specs: tuple[FeatureSpec, ...]
) -> tuple[list[RegressionModel], FitError | None]:
    """The models of the same-shape ``specs`` from ``cells`` (k, 1 +
    n_features, n_rows): each spec's target row, then its feature rows.

    Fitting stops at the first spec it refuses. That spec's FitError is
    returned beside the models of the specs before it, or None when every
    spec is fit. A spec is refused when a feature column exactly duplicates
    the target values (the first such feature in spec order is named), when
    rows are fewer than coefficients, when the design's condition estimate
    exceeds CONDITION_LIMIT, or when its weights or residual sum of squares
    are not finite. Overflow warnings are off: the diagnostics' checks name
    a residual sum of squares that overflowed.
    """
    y, features = cells[:, 0], cells[:, 1:]
    copies = (features == y[:, None]).all(axis=2)
    include_intercept = specs[0].include_intercept
    n_rows, n_coef = cells.shape[2], include_intercept + features.shape[1]
    condition = np.full(len(specs), np.inf)
    if n_rows >= n_coef:
        # [X | y] is the design of the cells with the target row moved last.
        R, condition = _factor(_design(np.roll(cells, -1, axis=1), include_intercept))
    refused = copies.any(axis=1) | ~(condition <= CONDITION_LIMIT)
    fit = int(np.argmax(refused)) if refused.any() else len(specs)
    models: list[RegressionModel] = []
    if fit:
        X = _design(features[:fit], include_intercept)
        with np.errstate(over="ignore", invalid="ignore"):
            weights, rss = _solve(X, y[:fit], R[:fit])
        try:
            for spec, w, r, c in zip(specs, weights, rss, condition):
                diagnostics = FitDiagnostics(float(r), n_rows, float(c))
                models.append(RegressionModel(spec, w, diagnostics))
        except FitError as exc:
            return models, exc
    if fit == len(specs):
        return models, None
    spec = specs[fit]
    if copies[fit].any():
        key = spec.features[int(np.argmax(copies[fit]))]
        return models, FitError(f"feature {key.name} is an exact copy of the target values")
    if n_rows < n_coef:
        return models, FitError(f"too few rows: {n_rows} rows for {n_coef} coefficients")
    return models, FitError(
        f"rank-deficient design for {spec.target.name}: "
        f"condition estimate {float(condition[fit]):.6e} exceeds {CONDITION_LIMIT:.0e}"
    )


def predict_stack(features: np.ndarray, weights: np.ndarray, include_intercept: bool) -> np.ndarray:
    """One point prediction per column of ``features`` (k, n_features,
    n_rows) from its row of ``weights`` (k, n_coef, intercept first when
    ``include_intercept``): intercept + dot(weights, features). Overflow
    warnings are off: a score's checks name a prediction that is not finite."""
    X = _design(features, False)
    with np.errstate(over="ignore", invalid="ignore"):
        if include_intercept:
            return (X @ weights[:, 1:, None])[..., 0] + weights[:, :1]
        return (X @ weights[..., None])[..., 0]


def predict(model: RegressionModel, panel: AlignedPanel) -> np.ndarray:
    """One point prediction per panel row: intercept + dot(weights, features)."""
    features = _gather(panel, model.spec.features)
    return predict_stack(features[None], model.weights[None], model.spec.include_intercept)[0]


def spec_to_json_dict(spec: FeatureSpec) -> dict:
    return {
        "target": spec.target.name,
        "features": [key.name for key in spec.features],
        "include_intercept": spec.include_intercept,
    }


def model_to_json_dict(model: RegressionModel) -> dict:
    return {
        "spec": spec_to_json_dict(model.spec),
        "weights": model.weights.tolist(),
        # Its flat fields, as dataclasses.asdict gives them without the deep copy.
        "diagnostics": dict(vars(model.diagnostics)),
    }


def model_from_json_dict(document: dict) -> RegressionModel:
    """The model of a ``model_to_json_dict`` document; every number is checked."""
    try:
        document = json_object(document, "model")
        saved = json_object(document["spec"], "model spec")
        features = json_array(saved["features"], "model spec features")
        spec = FeatureSpec(
            target=ColumnKey.parse(saved["target"]),
            features=tuple(map(ColumnKey.parse, features)),
            include_intercept=saved["include_intercept"],
        )
        saved = json_object(document["diagnostics"], "model diagnostics")
        diagnostics = FitDiagnostics(
            json_number(saved["residual_sum_of_squares"], "residual_sum_of_squares"),
            json_number(saved["training_rows"], "training_rows", whole=True),
            json_number(saved["condition_estimate"], "condition_estimate"),
        )
        weights = json_array(document["weights"], "model weights")
        return RegressionModel(spec, [json_number(w, "weight") for w in weights], diagnostics)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed model document: {exc}") from exc
