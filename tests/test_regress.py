from __future__ import annotations

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventlens import ConfigError, FitError, fit_ols, predict
from eventlens.panel import AlignedPanel, BarField, ColumnKey
from eventlens.regress import (
    CONDITION_LIMIT,
    FeatureSpec,
    FitDiagnostics,
    RegressionModel,
    fit_stack,
    model_from_json_dict,
    model_to_json_dict,
    predict_stack,
)

from conftest import panel_of

D = dt.date
Y = ColumnKey("Y", BarField.CLOSE)
X1 = ColumnKey("X1", BarField.CLOSE)
X2 = ColumnKey("X2", BarField.CLOSE)
X3 = ColumnKey("X3", BarField.CLOSE)
X4 = ColumnKey("X4", BarField.CLOSE)


def panel_from(columns: dict[ColumnKey, list[float]]) -> AlignedPanel:
    n = len(next(iter(columns.values())))
    dates = [D(2022, 1, 3) + dt.timedelta(days=i) for i in range(n)]
    return panel_of(dates, columns)


def column_stack_design(panel: AlignedPanel, spec: FeatureSpec) -> np.ndarray:
    """The spec's feature columns in order, after a constant-1 column when it
    has an intercept, stacked by ``np.column_stack``."""
    columns = [panel.column(key) for key in spec.features]
    if spec.include_intercept:
        columns.insert(0, np.ones(panel.n_rows))
    return np.column_stack(columns)


def normal_equations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Brute-force oracle: solve X'Xw = X'y directly."""
    return np.linalg.solve(X.T @ X, X.T @ y)


def random_instance(rng, max_rows: int = 50, max_features: int = 8):
    n_features = int(rng.integers(1, max_features + 1))
    n_rows = int(rng.integers(n_features + 2, max_rows + 1))
    keys = [ColumnKey(f"F{i}", BarField.CLOSE) for i in range(n_features)]
    columns = {key: rng.normal(size=n_rows) * rng.uniform(0.5, 3.0) for key in keys}
    true_w = rng.normal(size=n_features + 1)
    y = true_w[0] + sum(true_w[1 + i] * columns[key] for i, key in enumerate(keys))
    y = y + rng.normal(0.0, 0.3, size=n_rows)
    columns[Y] = y
    panel = panel_from({k: list(v) for k, v in columns.items()})
    return panel, FeatureSpec(target=Y, features=tuple(keys))


# --- FeatureSpec validation -----------------------------------------------------


def test_spec_requires_features():
    with pytest.raises(ConfigError, match="empty"):
        FeatureSpec(target=Y, features=())


def test_spec_rejects_duplicate_features():
    with pytest.raises(ConfigError, match="duplicate"):
        FeatureSpec(target=Y, features=(X1, X1))


def test_spec_rejects_target_as_feature():
    with pytest.raises(ConfigError, match="own feature"):
        FeatureSpec(target=Y, features=(X1, Y))


@pytest.mark.parametrize(
    "target, features, message",
    [
        (Y, (X1, X2, X1), "duplicate feature columns for Y.close"),
        # Same symbol, other field: a name differs where a key does.
        (Y, (ColumnKey("Y", BarField.OPEN), X1), None),
        (Y, (X1, Y), "target Y.close may not be its own feature"),
        # Both faults: the duplicate is named first.
        (Y, (Y, X1, Y), "duplicate feature columns for Y.close"),
        # Equal keys built apart are one column.
        (Y, (X1, ColumnKey("X1", BarField.CLOSE)), "duplicate feature columns for Y.close"),
        (Y, (X1, ColumnKey("Y", BarField.CLOSE)), "target Y.close may not be its own feature"),
    ],
)
def test_spec_names_duplicate_features_before_the_target_as_a_feature(target, features, message):
    if message is None:
        assert FeatureSpec(target=target, features=features).features == features
        return
    with pytest.raises(ConfigError) as info:
        FeatureSpec(target=target, features=features)
    assert str(info.value) == message


def test_spec_requires_close_target():
    with pytest.raises(ConfigError, match="close"):
        FeatureSpec(target=ColumnKey("Y", BarField.HIGH), features=(X1,))


# --- fit_ols ----------------------------------------------------------------------


def test_exact_fit_recovers_slope_two():
    panel = panel_from({X1: [1.0, 2.0, 3.0], Y: [2.0, 4.0, 6.0]})
    model = fit_ols(panel, FeatureSpec(target=Y, features=(X1,)))
    np.testing.assert_allclose(model.weights, [0.0, 2.0], atol=1e-12)
    assert model.diagnostics.residual_sum_of_squares == pytest.approx(0.0, abs=1e-24)
    assert model.diagnostics.training_rows == 3


def test_hand_derived_normal_equations_solution():
    # X'X = [[3, 3], [3, 5]], X'y = [5, 6]; solving gives (7/6, 1/2)
    panel = panel_from({X1: [0.0, 1.0, 2.0], Y: [1.0, 2.0, 2.0]})
    model = fit_ols(panel, FeatureSpec(target=Y, features=(X1,)))
    np.testing.assert_allclose(model.weights, [7.0 / 6.0, 0.5], atol=1e-12)


def test_duplicated_feature_values_are_rank_deficient():
    panel = panel_from(
        {X1: [1.0, 2.0, 3.0, 4.0], X2: [1.0, 2.0, 3.0, 4.0], Y: [1.0, 2.0, 2.0, 5.0]}
    )
    with pytest.raises(FitError, match="rank-deficient"):
        fit_ols(panel, FeatureSpec(target=Y, features=(X1, X2)))


def test_exact_copy_of_target_is_rejected():
    panel = panel_from({X1: [1.0, 2.0, 2.0], Y: [1.0, 2.0, 2.0]})
    with pytest.raises(FitError, match="exact copy of the target"):
        fit_ols(panel, FeatureSpec(target=Y, features=(X1,)))


def test_first_feature_copying_the_target_in_spec_order_is_named():
    # X2 and X3 both copy Y; the spec lists X3 2nd and X2 4th, against panel order
    panel = panel_from(
        {X1: [1.0, 5.0, 2.0], X2: [1.0, 2.0, 3.0], X3: [1.0, 2.0, 3.0], X4: [0.0, 5.0, 1.0],
         Y: [1.0, 2.0, 3.0]}
    )
    with pytest.raises(FitError, match="^feature X3.close is an exact copy of the target values$"):
        fit_ols(panel, FeatureSpec(target=Y, features=(X1, X3, X4, X2)))


def test_too_few_rows():
    panel = panel_from({X1: [1.0], Y: [2.0]})
    with pytest.raises(FitError, match="too few rows"):
        fit_ols(panel, FeatureSpec(target=Y, features=(X1,)))


def test_missing_column_is_a_fit_error():
    panel = panel_from({X1: [1.0, 2.0, 3.0], Y: [2.0, 4.0, 6.0]})
    with pytest.raises(FitError, match="X2.close"):
        fit_ols(panel, FeatureSpec(target=Y, features=(X1, X2)))


def test_fit_without_intercept():
    panel = panel_from({X1: [1.0, 2.0, 3.0], Y: [3.0, 6.0, 9.0]})
    model = fit_ols(panel, FeatureSpec(target=Y, features=(X1,), include_intercept=False))
    np.testing.assert_allclose(model.weights, [3.0], atol=1e-12)


# --- predict -----------------------------------------------------------------------


def test_predict_simple_dot_product():
    train = panel_from({X1: [1.0, 2.0, 3.0], Y: [2.0, 4.0, 6.0]})
    model = fit_ols(train, FeatureSpec(target=Y, features=(X1,)))
    hold_out = panel_from({X1: [5.0], Y: [0.0]})
    np.testing.assert_allclose(predict(model, hold_out), [10.0], atol=1e-12)


def test_predict_training_panel_of_exact_fit_reproduces_targets():
    panel = panel_from({X1: [1.0, 2.0, 3.0], Y: [2.0, 4.0, 6.0]})
    model = fit_ols(panel, FeatureSpec(target=Y, features=(X1,)))
    np.testing.assert_allclose(predict(model, panel), panel.column(Y), atol=1e-12)


def test_predict_hand_derived_model_at_zero():
    panel = panel_from({X1: [0.0, 1.0, 2.0], Y: [1.0, 2.0, 2.0]})
    model = fit_ols(panel, FeatureSpec(target=Y, features=(X1,)))
    at_zero = panel_from({X1: [0.0], Y: [0.0]})
    np.testing.assert_allclose(predict(model, at_zero), [7.0 / 6.0], atol=1e-12)


@pytest.mark.parametrize(
    "spec, missing",
    [
        (FeatureSpec(target=Y, features=(X1, X3, X4)), "X3.close"),
        (FeatureSpec(target=ColumnKey("Z", BarField.CLOSE), features=(X3, X1)), "Z.close"),
        (FeatureSpec(target=Y, features=(ColumnKey("X1", BarField.OPEN), X1)), "X1.open"),
    ],
    ids=["first-missing-feature", "target-before-features", "other-field"],
)
def test_fit_ols_names_the_first_unknown_column_target_first(spec, missing):
    panel = panel_from({X1: [1.0, 2.0, 4.0], X2: [1.0, 0.0, 2.0], Y: [2.0, 4.0, 6.0]})
    with pytest.raises(FitError) as info:
        fit_ols(panel, spec)
    assert str(info.value) == f"unknown column {missing}"


def test_predict_missing_feature_column():
    train = panel_from({X1: [1.0, 2.0, 3.0], Y: [2.0, 4.0, 6.0]})
    model = fit_ols(train, FeatureSpec(target=Y, features=(X1,)))
    with pytest.raises(FitError, match="X1.close"):
        predict(model, panel_from({X2: [1.0], Y: [1.0]}))


# --- numerical properties -------------------------------------------------------------


@pytest.mark.parametrize("include_intercept", [True, False])
def test_fit_is_the_qr_formula_on_the_column_stack_bit_for_bit(rng, include_intercept):
    # LAPACK and BLAS round strided or reordered operands differently, so the
    # one-take design that fit_ols and predict use must be np.column_stack's
    # array exactly, in its layout: the formula on that array gives each bit.
    for _ in range(10):
        panel, spec = random_instance(rng)
        features = spec.features[::-1][::2] + spec.features[::-1][1::2]
        spec = dataclasses.replace(spec, features=features, include_intercept=include_intercept)
        X = column_stack_design(panel, spec)
        y = panel.column(Y)
        n_coef = X.shape[1]
        R = np.linalg.qr(np.column_stack([X, y]), mode="r")
        weights = np.linalg.solve(R[:n_coef, :n_coef], R[:n_coef, n_coef])
        s = np.linalg.svd(R[:n_coef, :n_coef], compute_uv=False)
        residual = y - X @ weights
        model = fit_ols(panel, spec)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.diagnostics == FitDiagnostics(
            float(residual @ residual), X.shape[0], float(s[0] / s[-1])
        )
        if include_intercept:
            predicted = X[:, 1:] @ weights[1:] + weights[0]
        else:
            predicted = X @ weights
        assert predict(model, panel).tobytes() == predicted.tobytes()


@settings(deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 7), st.booleans(), st.integers(0, 40), st.integers(0, 2**32 - 1)
)
def test_a_stacked_fit_and_prediction_are_fit_ols_and_predict_bit_for_bit(
    k, n_features, include_intercept, extra_rows, seed
):
    # Rows and coefficients of either parity put stacked vectors on and off
    # 16-byte boundaries; each item must still get one array's bits.
    rng = np.random.default_rng(seed)
    n_rows = n_features + include_intercept + extra_rows
    keys = [ColumnKey(f"S{i}", BarField.CLOSE) for i in range(n_features + 3)]
    panel = panel_from({key: rng.normal(size=n_rows) * rng.uniform(0.5, 3.0) for key in keys})
    specs = []
    for _ in range(k):
        target, *features = rng.permutation(len(keys))[: n_features + 1]
        specs.append(FeatureSpec(keys[target], tuple(keys[f] for f in features), include_intercept))
    rows = np.array([[panel.index[key] for key in (s.target, *s.features)] for s in specs])
    models, error = fit_stack(panel.values[rows], tuple(specs))
    assert error is None
    assert [model.spec for model in models] == specs
    weights = np.array([model.weights for model in models])
    predictions = predict_stack(panel.values[rows[:, 1:]], weights, include_intercept)
    for model, predicted in zip(models, predictions):
        alone = fit_ols(panel, model.spec)
        assert model.weights.tobytes() == alone.weights.tobytes()
        assert model.diagnostics == alone.diagnostics
        assert predicted.tobytes() == predict(alone, panel).tobytes()


def test_matches_normal_equations_oracle(rng):
    for _ in range(40):
        panel, spec = random_instance(rng)
        model = fit_ols(panel, spec)
        X = column_stack_design(panel, spec)
        oracle = normal_equations(X, panel.column(Y))
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(model.weights - oracle)) <= 1e-9 * max(scale, 1.0)


def test_residual_orthogonality(rng):
    for _ in range(40):
        panel, spec = random_instance(rng)
        model = fit_ols(panel, spec)
        X = column_stack_design(panel, spec)
        y = panel.column(Y)
        residual = y - X @ model.weights
        scale = np.linalg.norm(X, np.inf) * max(np.linalg.norm(y, np.inf), 1.0)
        assert np.max(np.abs(X.T @ residual)) <= 1e-8 * scale


def test_target_scaling_equivariance(rng):
    panel, spec = random_instance(rng)
    base = fit_ols(panel, spec)
    c = 12.5
    scaled_columns = {key: panel.column(key) for key in spec.features}
    scaled_columns[Y] = panel.column(Y) * c
    scaled_panel = panel_of(panel.dates, scaled_columns)
    scaled = fit_ols(scaled_panel, spec)
    np.testing.assert_allclose(scaled.weights, c * base.weights, rtol=1e-12)
    np.testing.assert_allclose(
        predict(scaled, scaled_panel), c * predict(base, panel), rtol=1e-12
    )


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_features=st.integers(1, 4),
    extra_rows=st.integers(1, 30),
    shift=st.floats(0.0, 1e3),
)
def test_predictions_are_invariant_under_an_affine_map_of_the_features(
    seed, n_features, extra_rows, shift
):
    # With an intercept, X -> XA + b (A invertible) spans the same column
    # space, so the fitted values and every prediction stay the same.
    rng = np.random.default_rng(seed)
    keys = (X1, X2, X3, X4)[:n_features]
    n_rows = n_features + 1 + extra_rows
    X = rng.normal(size=(n_rows + 10, n_features))
    y = X[:n_rows] @ rng.normal(size=n_features) + rng.normal(size=n_rows)
    Q, _ = np.linalg.qr(rng.normal(size=(n_features, n_features)))
    A = Q * rng.uniform(0.5, 2.0, size=n_features)
    b = shift * rng.normal(size=n_features)
    spec = FeatureSpec(target=Y, features=keys)

    def fit_and_predict(features):
        train = panel_from({**dict(zip(keys, features[:n_rows].T)), Y: y})
        held_out = panel_from(dict(zip(keys, features[n_rows:].T)))
        model = fit_ols(train, spec)
        return np.concatenate([predict(model, train), predict(model, held_out)])

    np.testing.assert_allclose(
        fit_and_predict(X @ A + b), fit_and_predict(X), rtol=1e-9, atol=1e-9 * np.abs(y).max()
    )


def test_rank_deficiency_reports_condition_estimate():
    panel = panel_from(
        {X1: [1.0, 2.0, 3.0, 4.0], X2: [2.0, 4.0, 6.0, 8.0], Y: [1.0, 2.0, 2.0, 5.0]}
    )
    with pytest.raises(FitError, match="condition estimate"):
        fit_ols(panel, FeatureSpec(target=Y, features=(X1, X2)))


def near_copy_panel(rng, epsilon: float) -> AlignedPanel:
    """30 rows where X2 is X1 plus ``epsilon`` times unit noise and Y is a
    noisy line in X1."""
    x1 = rng.normal(size=30)
    return panel_from(
        {X1: x1, X2: x1 + epsilon * rng.normal(size=30), Y: 2.0 * x1 + rng.normal(size=30)}
    )


def true_condition(panel: AlignedPanel, spec: FeatureSpec) -> float:
    s = np.linalg.svd(column_stack_design(panel, spec), compute_uv=False)
    return float(s[0] / s[-1])


def test_a_near_copy_of_a_feature_past_the_condition_limit_is_refused(rng):
    panel = near_copy_panel(rng, 1e-14)
    spec = FeatureSpec(target=Y, features=(X1, X2))
    assert true_condition(panel, spec) > 100 * CONDITION_LIMIT
    with pytest.raises(FitError, match=r"^rank-deficient design for Y\.close: condition estimate "):
        fit_ols(panel, spec)


def test_a_near_copy_of_a_feature_well_inside_the_condition_limit_is_fit(rng):
    panel = near_copy_panel(rng, 1e-8)
    spec = FeatureSpec(target=Y, features=(X1, X2))
    condition = true_condition(panel, spec)
    assert 1e7 < condition < 1e9
    model = fit_ols(panel, spec)
    assert model.diagnostics.condition_estimate == pytest.approx(condition, rel=1e-6)


def test_a_design_too_large_to_factor_is_refused_with_an_infinite_condition(rng):
    # Columns near 5e307 are well conditioned, but their norms and products
    # overflow: the estimate is inf, never a LAPACK error or a warning.
    x1, x2 = (rng.uniform(0.5, 1.7, size=30) * 5e307 for _ in range(2))
    panel = panel_from({X1: x1, X2: x2, Y: rng.uniform(1.0, 2.0, size=30)})
    with pytest.raises(FitError, match=r"condition estimate inf exceeds 1e\+12$"):
        fit_ols(panel, FeatureSpec(target=Y, features=(X1, X2), include_intercept=False))


@settings(deadline=None)
@given(st.integers(1, 8), st.booleans(), st.integers(3, 40), st.integers(0, 2**32 - 1))
def test_the_condition_estimate_is_the_design_singular_value_ratio(
    n_features, include_intercept, extra_rows, seed
):
    # Gaussian columns with at least 3 more rows than coefficients are well
    # conditioned, so every route to s[0] / s[-1] agrees to about 1e-14.
    rng = np.random.default_rng(seed)
    keys = [ColumnKey(f"F{i}", BarField.CLOSE) for i in range(n_features)]
    n_rows = n_features + include_intercept + extra_rows
    columns = {key: rng.normal(size=n_rows) * rng.uniform(0.5, 3.0) for key in keys}
    panel = panel_from({**columns, Y: rng.normal(size=n_rows)})
    spec = FeatureSpec(target=Y, features=tuple(keys), include_intercept=include_intercept)
    model = fit_ols(panel, spec)
    assert model.diagnostics.condition_estimate == pytest.approx(
        true_condition(panel, spec), rel=1e-10
    )


# --- serialization ----------------------------------------------------------------------


def test_model_json_round_trip():
    panel = panel_from({X1: [0.0, 1.0, 2.0], Y: [1.0, 2.0, 2.0]})
    model = fit_ols(panel, FeatureSpec(target=Y, features=(X1,)))
    document = model_to_json_dict(model)
    rebuilt = model_from_json_dict(document)
    assert rebuilt.spec == model.spec
    np.testing.assert_array_equal(rebuilt.weights, model.weights)
    assert model_to_json_dict(rebuilt) == document


@pytest.mark.parametrize("value", ["false", 0, 1, [], None])
def test_model_json_include_intercept_must_be_a_boolean(value):
    panel = panel_from({X1: [0.0, 1.0, 2.0], Y: [1.0, 2.0, 2.0]})
    document = model_to_json_dict(fit_ols(panel, FeatureSpec(target=Y, features=(X1,))))
    document["spec"]["include_intercept"] = value
    with pytest.raises(ConfigError, match="include_intercept for Y.close must be true or false"):
        model_from_json_dict(document)


@pytest.mark.parametrize(
    "rss, rows, condition, message",
    [
        (-5.0, 3, 1.0, "residual_sum_of_squares must be finite and non-negative, got -5.0"),
        (float("nan"), 3, 1.0, "residual_sum_of_squares must be finite and non-negative"),
        (float("inf"), 3, 1.0, "residual_sum_of_squares must be finite and non-negative"),
        (0.0, -3, 1.0, "training_rows must be an integer of at least 1, got -3"),
        (0.0, 0, 1.0, "training_rows must be an integer of at least 1, got 0"),
        (0.0, 3.0, 1.0, "training_rows must be an integer of at least 1, got 3.0"),
        (0.0, True, 1.0, "training_rows must be an integer of at least 1, got True"),
        (0.0, 3, float("nan"), "condition_estimate must be between 1 and 1e\\+12, got nan"),
        (0.0, 3, 0.999, "condition_estimate must be between 1 and 1e\\+12, got 0.999"),
        (0.0, 3, CONDITION_LIMIT * 2, "condition_estimate must be between 1 and 1e\\+12"),
    ],
)
def test_fit_diagnostics_reject_what_a_fit_cannot_report(rss, rows, condition, message):
    with pytest.raises(FitError, match=message):
        FitDiagnostics(rss, rows, condition)


def test_fit_diagnostics_accept_their_bounds():
    FitDiagnostics(0.0, 1, 1.0)
    FitDiagnostics(1e300, 10**9, CONDITION_LIMIT)


def test_a_model_needs_as_many_training_rows_as_coefficients():
    spec = FeatureSpec(target=Y, features=(X1, X2))
    with pytest.raises(FitError, match="too few rows: 2 rows for 3 coefficients"):
        RegressionModel(spec, [0.0, 1.0, 2.0], FitDiagnostics(0.0, 2, 1.0))
    assert RegressionModel(spec, [0.0, 1.0, 2.0], FitDiagnostics(0.0, 3, 1.0)).weights.size == 3


def test_model_json_rejects_garbage():
    with pytest.raises(ConfigError, match="malformed model"):
        model_from_json_dict({"weights": [1.0]})
