from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventlens import StatsError, align, correlation_matrix, pearson
from eventlens.panel import BarField, ColumnKey
from eventlens.stats import CorrelationMatrix, matrix_from_json_dict, matrix_to_json_dict

from conftest import make_series, panel_of, random_series

D = dt.date


def key(symbol: str) -> ColumnKey:
    return ColumnKey(symbol, BarField.CLOSE)


# --- pearson ---------------------------------------------------------------------


def test_exact_linear_dependence_is_one():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0


def test_exact_anti_dependence_is_minus_one():
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0


def test_hand_derived_half():
    # means are 2 and 2; sum of centered products is 1; each centered
    # sum of squares is 2, so r = 1 / sqrt(2 * 2) = 0.5
    assert pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5, abs=1e-12)


def test_length_mismatch():
    with pytest.raises(StatsError, match="length mismatch"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_too_short():
    with pytest.raises(StatsError, match="at least 2"):
        pearson([1.0], [2.0])


def test_zero_variance_either_side():
    with pytest.raises(StatsError, match="first"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(StatsError, match="second"):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_an_overflowing_sum_of_squares_is_refused_either_side():
    # The true r is about 0.98, but a sum of squares past the largest float
    # leaves only the covariance over inf, a finite but wrong 0.0.
    with pytest.raises(StatsError, match="^an overflowing sum of squares in first input$"):
        pearson([1e200, 2e200, 3e200], [1.0, 2.0, 4.0])
    with pytest.raises(StatsError, match="^an overflowing sum of squares in second input$"):
        pearson([1.0, 2.0, 4.0], [1e200, 2e200, 3e200])


@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_sums_of_squares_whose_product_leaves_the_normal_floats(scale):
    # Each sum of squares is a normal float, but their product overflows or
    # underflows; r is scale-free all the same.
    x, y = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    scaled = pearson([scale * v for v in x], [scale * v for v in y])
    assert scaled == pytest.approx(pearson(x, y), rel=1e-14)


def test_symmetry_is_exact(rng):
    for _ in range(50):
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert pearson(x, y) == pearson(y, x)


def test_affine_transform_of_x_gives_unit_correlation(rng):
    for _ in range(50):
        x = rng.normal(size=15)
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-10.0, 10.0)
        assert pearson(x, a * x + b) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, -a * x + b) == pytest.approx(-1.0, abs=1e-12)


def test_affine_invariance_of_arguments(rng):
    for _ in range(50):
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-10.0, 10.0)
        base = pearson(x, y)
        assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, a * y + b) == pytest.approx(base, abs=1e-12)


def test_result_is_clamped(rng):
    for _ in range(200):
        x = rng.normal(size=8)
        assert abs(pearson(x, x * rng.uniform(0.5, 2.0))) <= 1.0


# --- correlation_matrix --------------------------------------------------------------


def test_single_key_gives_unit_matrix():
    panel = align([make_series("A", D(2022, 1, 3), [1.0, 2.0, 3.0])])
    matrix = correlation_matrix(panel, [key("A")])
    assert matrix.values.shape == (1, 1)
    assert matrix.values[0, 0] == 1.0


def test_identical_columns_give_all_ones():
    a = make_series("A", D(2022, 1, 3), [1.0, 2.0, 3.0])
    b = make_series("B", D(2022, 1, 3), [1.0, 2.0, 3.0])
    matrix = correlation_matrix(align([a, b]), [key("A"), key("B")])
    np.testing.assert_array_equal(matrix.values, np.ones((2, 2)))


@settings(deadline=None)
@given(st.integers(2, 60), st.integers(2, 80), st.integers(0, 2**32 - 1))
def test_matrix_entries_match_pairwise_pearson(n_cols, n_rows, seed):
    # Up to 1,770 pairs of one stacked product, each equal to pearson's own.
    rng = np.random.default_rng(seed)
    panel = align([random_series(f"S{i}", n_rows, rng) for i in range(n_cols)])
    keys = [key(f"S{i}") for i in range(n_cols)]
    matrix = correlation_matrix(panel, keys)
    for i in range(n_cols):
        for j in range(n_cols):
            expected = 1.0 if i == j else pearson(panel.column(keys[i]), panel.column(keys[j]))
            assert matrix.values[i, j] == expected


def test_matrix_invariants_on_random_panels(rng):
    for _ in range(20):
        n_cols = int(rng.integers(2, 6))
        n_rows = int(rng.integers(3, 50))
        panel = align([random_series(f"S{i}", n_rows, rng) for i in range(n_cols)])
        matrix = correlation_matrix(panel, [key(f"S{i}") for i in range(n_cols)])
        values = matrix.values
        assert np.array_equal(values, values.T)
        assert np.all(values.diagonal() == 1.0)
        assert np.all(np.abs(values) <= 1.0 + 1e-12)
        assert np.all(np.isfinite(values))


@st.composite
def close_columns(draw):
    """Two to six non-constant columns of positive prices over one set of dates."""
    n_rows = draw(st.integers(2, 30))
    n_cols = draw(st.integers(2, 6))
    prices = st.lists(st.floats(1.0, 1e6), min_size=n_rows, max_size=n_rows)
    return [draw(prices.filter(lambda cells: min(cells) < max(cells))) for _ in range(n_cols)]


@settings(deadline=None)
@given(close_columns())
def test_every_matrix_entry_is_exactly_pearson_of_its_columns(columns):
    keys = [key(f"S{i}") for i in range(len(columns))]
    dates = [D(2022, 1, 3) + dt.timedelta(days=i) for i in range(len(columns[0]))]
    panel = panel_of(dates, dict(zip(keys, columns)))
    matrix = correlation_matrix(panel, keys)
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            if i != j:
                assert matrix.values[i, j] == pearson(panel.column(a), panel.column(b))


def test_zero_variance_column_is_named():
    a = make_series("A", D(2022, 1, 3), [1.0, 2.0, 3.0])
    flat = make_series("FLAT", D(2022, 1, 3), [5.0, 5.0, 5.0])
    with pytest.raises(StatsError, match="FLAT.close"):
        correlation_matrix(align([a, flat]), [key("A"), key("FLAT")])


def test_requires_two_rows():
    panel = align([make_series("A", D(2022, 1, 3), [1.0])])
    with pytest.raises(StatsError, match="2 panel rows"):
        correlation_matrix(panel, [key("A")])


def test_missing_key_propagates():
    panel = align([make_series("A", D(2022, 1, 3), [1.0, 2.0])])
    from eventlens import PanelError

    with pytest.raises(PanelError, match="B.close"):
        correlation_matrix(panel, [key("A"), key("B")])


def test_constructor_rejects_asymmetric_matrix():
    with pytest.raises(StatsError, match="symmetric"):
        CorrelationMatrix((key("A"), key("B")), np.array([[1.0, 0.5], [0.4, 1.0]]))
    # Symmetric bit for bit: 0.0 does not mirror -0.0, though the two compare equal.
    with pytest.raises(StatsError, match="symmetric"):
        CorrelationMatrix((key("A"), key("B")), np.array([[1.0, 0.0], [-0.0, 1.0]]))


def test_constructor_rejects_out_of_range_entries():
    with pytest.raises(StatsError, match="outside"):
        CorrelationMatrix((key("A"), key("B")), np.array([[1.0, 1.5], [1.5, 1.0]]))


# --- exports ----------------------------------------------------------------------


def test_json_round_trip(small_matrix):
    rebuilt = matrix_from_json_dict(matrix_to_json_dict(small_matrix))
    assert rebuilt.labels == small_matrix.labels
    np.testing.assert_array_equal(rebuilt.values, small_matrix.values)
