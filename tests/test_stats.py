from __future__ import annotations

import datetime as dt
import math
from fractions import Fraction

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


# r of [1, 2, 3] against [1, 2, 4], from an exact-rational oracle: 3 / sqrt(2 * 14/3).
R_123_124 = 0.98198050606196571


def test_a_sum_of_squares_past_the_largest_float_gives_the_exact_r_either_side():
    # Unscaled, the sum of squares of [1e200, 2e200, 3e200] overflows.
    large = ([1e200, 2e200, 3e200], [1.0, 2.0, 4.0]), ([1.0, 2.0, 3.0], [1e200, 2e200, 4e200])
    for x, y in large:
        assert abs(pearson(x, y) - R_123_124) <= math.ulp(R_123_124)
        assert abs(pearson(y, x) - R_123_124) <= math.ulp(R_123_124)


@pytest.mark.parametrize("s", [1e-300, 1e-162, 1e-160, 1.0, 1e200, 1e300])
def test_a_scaled_column_gets_the_exact_r_at_every_magnitude(s):
    # Unscaled, the sum of squares underflows below 1e-154 (once "zero
    # variance" at 1e-162) and overflows above 1e154. Each s is within 1 ulp
    # under OpenBLAS's AVX-512 ddot; its SSE2 and AVX2 ddots round one s
    # each to 2 ulps.
    assert abs(pearson([s, 2 * s, 3 * s], [1.0, 2.0, 4.0]) - R_123_124) <= 2 * math.ulp(R_123_124)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_value_is_refused_either_side(bad):
    with pytest.raises(StatsError, match="^a non-finite value in first input$"):
        pearson([1.0, bad, 3.0], [1.0, 2.0, 4.0])
    with pytest.raises(StatsError, match="^a non-finite value in second input$"):
        pearson([1.0, 2.0, 3.0], [bad, 2.0, 4.0])


def test_pearson_refuses_inputs_that_are_not_1_d():
    with pytest.raises(StatsError, match="^pearson expects 1-D inputs$"):
        pearson([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])


@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_sums_of_squares_whose_product_leaves_the_normal_floats(scale):
    # Each sum of squares is a normal float, but their product overflows or
    # underflows; r is scale-free all the same.
    x, y = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    scaled = pearson([scale * v for v in x], [scale * v for v in y])
    assert scaled == pytest.approx(pearson(x, y), rel=1e-14)


def exact_r(x, y) -> float:
    """Pearson r of the floats ``x`` and ``y`` from exact rationals, its
    root floored to 2^-120 before the one rounding to a float."""
    fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    cov = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    r2 = cov * cov / (sum((a - mx) ** 2 for a in fx) * sum((b - my) ** 2 for b in fy))
    root = math.isqrt(r2.numerator * 4**120 // r2.denominator) / 2**120
    return -root if cov < 0 else root


@st.composite
def scaled_pairs(draw):
    """Two lists of 2 to 20 integers in [-1000, 2000], each times its own
    scale in [1e-300, 1e300]. One integer is another plus 1 to 1000, so no
    list is constant, and no filter is needed."""
    n = draw(st.integers(2, 20))

    def scaled() -> list[float]:
        ints = draw(st.lists(st.integers(-1000, 1000), min_size=n - 1, max_size=n - 1))
        ints.insert(draw(st.integers(0, n - 1)), ints[0] + draw(st.integers(1, 1000)))
        scale = draw(st.floats(1e-300, 1e300))
        return [i * scale for i in ints]

    return scaled(), scaled()


@settings(deadline=None)
@given(scaled_pairs())
def test_pearson_is_within_a_few_ulps_of_the_exact_r(pair):
    # The bound is absolute, in ulps of 1.0: an r near 0 inherits the
    # rounding of a covariance that cancels.
    assert abs(pearson(*pair) - exact_r(*pair)) <= 4 * math.ulp(1.0)


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


@settings(deadline=None)
@given(close_columns(), st.data())
def test_scaling_a_column_by_a_power_of_two_keeps_every_bit(columns, data):
    # k keeps every cell of the scaled column a normal float, where 2^k
    # scales exactly. Without the kernel's own row scaling, the column's sum
    # of squares would reach past 1e600 and below 1e-600 over this range.
    keys = [key(f"S{i}") for i in range(len(columns))]
    dates = [D(2022, 1, 3) + dt.timedelta(days=i) for i in range(len(columns[0]))]
    row = data.draw(st.integers(0, len(columns) - 1))
    exponents = np.frexp(columns[row])[1]
    k = data.draw(st.integers(-1021 - int(exponents.min()), 1024 - int(exponents.max())))
    scaled = [np.ldexp(cells, k) if i == row else cells for i, cells in enumerate(columns)]
    matrix = correlation_matrix(panel_of(dates, dict(zip(keys, columns))), keys)
    rescaled = correlation_matrix(panel_of(dates, dict(zip(keys, scaled))), keys)
    assert np.array_equal(matrix.values.view(np.uint64), rescaled.values.view(np.uint64))


def test_zero_variance_column_is_named():
    a = make_series("A", D(2022, 1, 3), [1.0, 2.0, 3.0])
    flat = make_series("FLAT", D(2022, 1, 3), [5.0, 5.0, 5.0])
    with pytest.raises(StatsError, match="FLAT.close"):
        correlation_matrix(align([a, flat]), [key("A"), key("FLAT")])


def test_requires_a_column_key():
    panel = align([make_series("A", D(2022, 1, 3), [1.0, 2.0])])
    with pytest.raises(StatsError, match="^correlation_matrix requires at least one column key$"):
        correlation_matrix(panel, [])


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
