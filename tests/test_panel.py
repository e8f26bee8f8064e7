from __future__ import annotations

import ast
import datetime as dt
import re
from collections import Counter
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlens
from eventlens import ConfigError, DailyBar, PanelError
from eventlens.panel import FIELD_ORDER, AlignedPanel, BarField, ColumnKey, DateWindow, align

from conftest import make_instrument, make_series, panel_of, random_series, series_of

D = dt.date


def closes(symbol: str) -> ColumnKey:
    return ColumnKey(symbol, BarField.CLOSE)


# --- DateWindow ----------------------------------------------------------------


def test_window_rejects_reversed_bounds():
    with pytest.raises(ConfigError):
        DateWindow(D(2022, 2, 1), D(2022, 1, 1))


# --- ColumnKey -------------------------------------------------------------------


def test_column_key_name_and_parse_round_trip():
    key = ColumnKey("GOLD", BarField.CLOSE)
    assert key.name == "GOLD.close"
    assert ColumnKey.parse("GOLD.close") == key


def test_column_key_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        ColumnKey.parse("GOLD")
    with pytest.raises(ConfigError):
        ColumnKey.parse("GOLD.volume")
    # A column's symbol follows the instrument symbol rule.
    with pytest.raises(ConfigError, match=r"'sub/dir' may not contain '\.', ',', '/' or"):
        ColumnKey.parse("sub/dir.close")
    with pytest.raises(ConfigError, match=r"'A\\x00B' may not contain non-printable characters"):
        ColumnKey.parse("A\u0000B.close")


@pytest.mark.parametrize("field", ["close", 5, None])
def test_column_key_takes_only_a_bar_field(field):
    # A string is not read as the field it spells; ColumnKey.parse reads names.
    with pytest.raises(ConfigError, match=f"^column field must be a BarField, got {field!r}$"):
        ColumnKey("A", field)


# --- align -----------------------------------------------------------------------


def test_align_intersects_dates():
    a = make_series("A", D(2022, 1, 3), [1.0, 2.0, 3.0])  # d1..d3
    b = make_series("B", D(2022, 1, 4), [5.0, 6.0, 7.0])  # d2..d4
    panel = align([a, b], fields={BarField.CLOSE})
    assert panel.dates == (D(2022, 1, 4), D(2022, 1, 5))
    np.testing.assert_array_equal(panel.column(closes("A")), [2.0, 3.0])
    np.testing.assert_array_equal(panel.column(closes("B")), [5.0, 6.0])


def test_align_single_series_identity():
    series = make_series("A", D(2022, 1, 3), [1.0, 2.0, 3.0])
    panel = align([series], fields={BarField.CLOSE})
    assert panel.keys == (closes("A"),)
    np.testing.assert_array_equal(panel.column(closes("A")), [1.0, 2.0, 3.0])


def test_align_disjoint_dates_is_an_error():
    a = make_series("A", D(2022, 1, 3), [1.0])
    b = make_series("B", D(2022, 2, 3), [2.0])
    with pytest.raises(PanelError, match="no common dates"):
        align([a, b])


def test_align_duplicate_symbols_rejected():
    a = make_series("A", D(2022, 1, 3), [1.0, 2.0])
    also_a = make_series("A", D(2022, 1, 3), [3.0, 4.0])
    with pytest.raises(PanelError, match="duplicate instrument symbol A"):
        align([a, also_a])


def test_align_rejects_empty_inputs():
    with pytest.raises(PanelError):
        align([])
    with pytest.raises(PanelError, match="empty"):
        align([series_of(make_instrument("A"), ())])


def test_align_is_order_insensitive(rng):
    series = [random_series(f"S{i}", 30, rng) for i in range(4)]
    forward = align(series)
    backward = align(list(reversed(series)))
    assert forward.dates == backward.dates
    assert forward.keys == backward.keys
    for key in forward.keys:
        np.testing.assert_array_equal(forward.column(key), backward.column(key))


def reference_align(series_list, fields):
    """The set-based inner join: dates every series has, cells looked up by date."""
    common = set.intersection(*({bar.date for bar in series.bars} for series in series_list))
    dates = tuple(sorted(common))
    columns = {}
    for series in series_list:
        by_date = {bar.date: bar for bar in series.bars}
        for field in FIELD_ORDER:
            if field in fields:
                key = ColumnKey(series.instrument.symbol, field)
                columns[key] = [getattr(by_date[d], field.value) for d in dates]
    return dates, columns


@st.composite
def overlapping_series(draw):
    """A few series over one short stretch of days, so their dates overlap in part."""
    symbols = draw(st.lists(st.sampled_from("ABCDEFG"), min_size=1, max_size=5, unique=True))
    series_list = []
    for symbol in symbols:
        offsets = draw(st.lists(st.integers(0, 30), min_size=1, max_size=31, unique=True))
        bars = []
        for offset in sorted(offsets):
            close = draw(st.floats(1.0, 1e6))
            spread = draw(st.floats(0.0, 0.5))
            bars.append(DailyBar(D(2022, 1, 1) + dt.timedelta(offset), close, close + spread,
                                 close - spread, close))
        series_list.append(series_of(make_instrument(symbol), bars))
    return series_list


@settings(deadline=None)
@given(overlapping_series(), st.sets(st.sampled_from(FIELD_ORDER), min_size=1), st.randoms())
def test_align_matches_set_based_join_in_any_input_order(series_list, fields, random):
    dates, columns = reference_align(series_list, fields)
    shuffled = list(series_list)
    random.shuffle(shuffled)
    if not dates:
        with pytest.raises(PanelError, match="no common dates"):
            align(shuffled, fields)
        return
    panel = align(shuffled, fields)
    assert panel.dates == dates
    canonical = sorted(columns, key=lambda key: (key.symbol, FIELD_ORDER.index(key.field)))
    assert panel.keys == tuple(canonical)
    for key, expected in columns.items():
        np.testing.assert_array_equal(panel.column(key), expected)


def test_align_field_subset_keeps_canonical_order():
    series = make_series("A", D(2022, 1, 3), [1.0, 2.0])
    panel = align([series], fields={BarField.CLOSE, BarField.OPEN})
    assert panel.keys == (ColumnKey("A", BarField.OPEN), ColumnKey("A", BarField.CLOSE))


def test_align_copies_cells_verbatim():
    series = make_series("A", D(2022, 1, 3), [1.25, 2.5])
    panel = align([series])
    np.testing.assert_array_equal(panel.column(ColumnKey("A", BarField.OPEN)), [1.25, 2.5])
    np.testing.assert_array_equal(panel.column(ColumnKey("A", BarField.HIGH)), [2.25, 3.5])


# --- slice -------------------------------------------------------------------------


@pytest.fixture
def week_panel():
    return align([make_series("A", D(2022, 1, 3), [1.0, 2.0, 3.0, 4.0, 5.0])])


def test_slice_full_window_is_identity(week_panel):
    window = DateWindow(D(2022, 1, 1), D(2022, 1, 10))
    sliced = week_panel.slice(window)
    assert sliced.dates == week_panel.dates
    for key in week_panel.keys:
        np.testing.assert_array_equal(sliced.column(key), week_panel.column(key))


def test_slice_single_date(week_panel):
    sliced = week_panel.slice(DateWindow(D(2022, 1, 4), D(2022, 1, 4)))
    assert sliced.dates == (D(2022, 1, 4),)
    np.testing.assert_array_equal(sliced.column(closes("A")), [2.0])


def test_slice_window_before_first_date_errors(week_panel):
    with pytest.raises(PanelError, match="no panel dates"):
        week_panel.slice(DateWindow(D(2021, 1, 1), D(2021, 12, 31)))


def test_slice_bounds_are_inclusive(week_panel):
    sliced = week_panel.slice(DateWindow(D(2022, 1, 4), D(2022, 1, 6)))
    assert sliced.dates == (D(2022, 1, 4), D(2022, 1, 5), D(2022, 1, 6))


def test_slice_composition_equals_intersection(rng):
    panel = align([random_series("A", 60, rng), random_series("B", 60, rng)])
    first, last = panel.dates[0], panel.dates[-1]
    for _ in range(25):
        offsets = rng.integers(-10, 80, size=4)
        a, b = sorted(int(v) for v in offsets[:2])
        c, d = sorted(int(v) for v in offsets[2:])
        w1 = DateWindow(first + dt.timedelta(a), first + dt.timedelta(b))
        w2 = DateWindow(first + dt.timedelta(c), first + dt.timedelta(d))
        start, end = max(w1.start, w2.start), min(w1.end, w2.end)
        try:
            nested = panel.slice(w1).slice(w2)
        except PanelError:
            continue
        assert start <= end
        direct = panel.slice(DateWindow(start, end))
        assert nested.dates == direct.dates
        for key in panel.keys:
            np.testing.assert_array_equal(nested.column(key), direct.column(key))
        assert last >= nested.dates[-1]


# --- column / construction ------------------------------------------------------------


def test_column_unknown_key_names_it(week_panel):
    with pytest.raises(PanelError, match="B.close"):
        week_panel.column(closes("B"))


def test_column_matches_source_bars():
    series = make_series("A", D(2022, 1, 3), [10.0, 20.0, 30.0])
    panel = align([series])
    np.testing.assert_array_equal(
        panel.column(closes("A")), [bar.close for bar in series.bars]
    )


def test_columns_are_read_only(week_panel):
    with pytest.raises(ValueError):
        week_panel.column(closes("A"))[0] = 99.0


def assert_columns_contiguous_read_only(panel):
    for key in panel.keys:
        column = panel.column(key)
        assert column.flags.c_contiguous and not column.flags.writeable, key.name


def test_columns_are_contiguous_read_only_views(rng):
    panel = align([random_series("A", 60, rng), random_series("B", 60, rng)])
    assert_columns_contiguous_read_only(panel)
    sliced = panel.slice(DateWindow(panel.dates[5], panel.dates[40]))
    assert_columns_contiguous_read_only(sliced)
    assert_columns_contiguous_read_only(sliced.slice(DateWindow(panel.dates[10], panel.dates[20])))
    cycled = panel.slice(
        DateWindow(panel.dates[5], panel.dates[7]), onto=DateWindow(panel.dates[50], panel.dates[57])
    )
    assert_columns_contiguous_read_only(cycled)
    built = panel_of(panel.dates, {key: list(panel.column(key)) for key in panel.keys})
    assert_columns_contiguous_read_only(built)


def test_cycled_slice_redates_the_window_rows_onto_another_window(week_panel):
    source, onto = DateWindow(D(2022, 1, 3), D(2022, 1, 4)), DateWindow(D(2022, 1, 5), D(2022, 1, 9))
    cycled = week_panel.slice(source, onto=onto)
    assert cycled.dates == week_panel.slice(onto).dates
    np.testing.assert_array_equal(cycled.column(closes("A")), [1.0, 2.0, 1.0])
    with pytest.raises(PanelError, match="window 2022-01-08..2022-01-09 contains no panel dates"):
        week_panel.slice(source, onto=DateWindow(D(2022, 1, 8), D(2022, 1, 9)))


@pytest.mark.parametrize("n_onto", [7, 3, 2], ids=["longer", "equal", "shorter"])
def test_cycled_slice_matches_a_take_of_the_cycled_rows(rng, n_onto):
    panel = align([random_series("A", 30, rng), random_series("B", 30, rng)])
    window = DateWindow(panel.dates[2], panel.dates[4])
    onto = DateWindow(panel.dates[20], panel.dates[19 + n_onto])
    cycled = panel.slice(window, onto=onto)
    source = panel.slice(window)
    expected = np.take(source.values, np.arange(n_onto) % source.n_rows, axis=1)
    np.testing.assert_array_equal(cycled.values, expected)
    assert cycled.dates == panel.slice(onto).dates
    assert cycled.index is panel.index
    assert_columns_contiguous_read_only(cycled)
    assert panel.slice(window, onto=onto) is cycled


def test_every_column_length_matches_dates(rng):
    for _ in range(10):
        n = int(rng.integers(2, 40))
        panel = align([random_series("A", n, rng), random_series("B", n, rng)])
        for key in panel.keys:
            assert panel.column(key).shape == (panel.n_rows,)


def test_constructor_rejects_length_mismatch():
    with pytest.raises(PanelError, match=r"\(1, 1\) values for 1 columns and 2 dates"):
        panel_of([D(2022, 1, 3), D(2022, 1, 4)], {closes("A"): [1.0]})


def test_constructor_rejects_non_finite_cells():
    with pytest.raises(PanelError, match="non-finite"):
        panel_of([D(2022, 1, 3)], {closes("A"): [float("nan")]})
    # the first column with a non-finite cell is named
    columns = {closes("A"): [1.0, 2.0], closes("B"): [3.0, np.nan], closes("C"): [np.inf, 6.0]}
    with pytest.raises(PanelError, match="column B.close contains non-finite cells"):
        panel_of([D(2022, 1, 3), D(2022, 1, 4)], columns)


def test_constructor_rejects_unordered_dates():
    with pytest.raises(PanelError, match="strictly increasing"):
        panel_of([D(2022, 1, 4), D(2022, 1, 3)], {closes("A"): [1.0, 2.0]})
    with pytest.raises(PanelError, match="NaT"):
        panel_of([D(2022, 1, 3), None], {closes("A"): [1.0, 2.0]})


def test_constructor_rejects_index_that_misnumbers_rows():
    days = [D(2022, 1, 3), D(2022, 1, 4)]
    with pytest.raises(PanelError, match="in order"):
        AlignedPanel(days, [[1.0, 2.0], [3.0, 4.0]], {closes("A"): 1, closes("B"): 0})


def test_constructor_rejects_strided_rows():
    # BLAS dot products round strided vectors differently, so a
    # Fortran-order array must not become a panel, writeable or not.
    days = np.array([D(2022, 1, 3), D(2022, 1, 4), D(2022, 1, 5)], dtype="datetime64[D]")
    index = {closes("A"): 0, closes("B"): 1}
    values = np.asfortranarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(PanelError, match="not contiguous"):
        AlignedPanel(days, values, index)
    values.flags.writeable = False
    with pytest.raises(PanelError, match="not contiguous"):
        AlignedPanel(days, values, index)


def test_constructor_copies_writeable_input():
    days = np.array([D(2022, 1, 3), D(2022, 1, 4)], dtype="datetime64[D]")
    values = np.array([[1.0, 2.0]])
    index = {closes("A"): 0}
    panel = AlignedPanel(days, values, index)
    days[1] = np.datetime64("2030-01-01")
    values[0, 0] = 99.0
    index[closes("B")] = 1
    assert panel.dates == (D(2022, 1, 3), D(2022, 1, 4))
    np.testing.assert_array_equal(panel.column(closes("A")), [1.0, 2.0])
    assert panel.keys == (closes("A"),)
    assert_columns_contiguous_read_only(panel)
    # a read-only view does not protect the memory it views
    view = values.view()
    view.flags.writeable = False
    viewing = AlignedPanel(days, view, {closes("A"): 0})
    values[0, 1] = 77.0
    np.testing.assert_array_equal(viewing.column(closes("A")), [99.0, 2.0])


def test_slices_are_views_and_cycled_slices_are_copies(week_panel):
    # align hands over the array it built, read-only, so it is not copied
    assert not week_panel.values.flags.owndata
    window = DateWindow(D(2022, 1, 4), D(2022, 1, 6))
    sliced = week_panel.slice(window)
    assert week_panel.slice(DateWindow(D(2022, 1, 4), D(2022, 1, 6))) is sliced
    assert np.shares_memory(sliced.values, week_panel.values)
    assert np.shares_memory(sliced.days, week_panel.days)
    assert sliced.index is week_panel.index
    # the cycled rows are a copy, dated by the onto window's own slice
    cycled = week_panel.slice(DateWindow(D(2022, 1, 3), D(2022, 1, 4)), onto=window)
    assert not np.shares_memory(cycled.values, week_panel.values)
    assert cycled.days is sliced.days


def new_calls(source: str) -> list[str]:
    """The callee of every ``__new__`` call in source."""
    return [
        ast.unparse(node.func)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "__new__"
    ]


def test_no_type_is_built_around_its_constructor():
    # ``object.__new__`` plus hand-set fields skips the checks in a type's
    # one constructor; no module may build an instance that way.
    assert new_calls("object.__new__(cls)\nsuper().__new__(cls)\nnew(cls)") == [
        "object.__new__", "super().__new__"
    ]
    sources = Path(eventlens.__file__).parent.glob("*.py")
    sites = {path.name: new_calls(path.read_text(encoding="utf-8")) for path in sources}
    assert not any(sites.values()), sites


ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eventlens"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(tree: ast.AST, methods: bool = False) -> Counter:
    """How often ``tree`` names each name, as a name, an attribute or an
    import; only as an attribute if ``methods``, the way a method is named."""
    named: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.Name) and not methods:
            named[node.id] += 1
        elif isinstance(node, ast.alias) and not methods:
            named[node.name.rpartition(".")[2]] += 1
    return named


def public_definitions(tree: ast.Module):
    """(qualified name, node, is a method) of each public top-level function
    and class, and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITIONS[:2]) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member, True


def unnamed_definitions(modules: dict[str, str], elsewhere: list[str], documented: set[str]):
    """``module.name`` of each public definition in ``modules`` (stem ->
    source) that no source names outside the definition itself, and that
    ``documented`` does not hold."""
    trees = {stem: ast.parse(source) for stem, source in modules.items()}
    every = [*trees.values(), *map(ast.parse, elsewhere)]
    named = {methods: sum((names_in(tree, methods) for tree in every), Counter())
             for methods in (False, True)}
    return [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name, node, method in public_definitions(tree)
        if node.name not in documented
        and named[method][node.name] <= names_in(node, method)[node.name]
    ]


def library_names() -> set[str]:
    """Every identifier in the code of README's Library section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```.*?```|`[^`\n]+`", section, re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_public_definition_is_named_outside_the_tests():
    # The detector first: a definition named only inside itself, or a method
    # named only as a plain name, counts as unnamed.
    snippet = (
        "def unused():\n    return unused()\n"
        "def documented():\n    pass\n"
        "class Kept:\n"
        "    def called(self):\n        pass\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    def _private(self):\n        pass\n"
        "class Unused:\n    pass\n"
    )
    user = "from snippet import Kept\nrecursive = Kept().called()\n"
    assert unnamed_definitions({"snippet": snippet}, [user], {"documented"}) == [
        "snippet.unused", "snippet.Kept.recursive", "snippet.Unused"
    ]
    # What keeps a definition is a name in the package (not its __init__,
    # which only re-exports), the demos, the tools, the benchmark or
    # README's Library section; a name in a test alone does not.
    modules = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    elsewhere = [
        path.read_text(encoding="utf-8")
        for folder in ("demos", "tools", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    assert unnamed_definitions(modules, elsewhere, library_names()) == []


def public_bindings(source: str) -> set[str]:
    """The public names a module's top level binds by import, assignment or definition."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_the_package_exports_exactly_what_readme_documents():
    source = "from .a import b, _c\nimport d.e\nf = 1\n_g: int = 2\ndef h():\n    i = 3\n"
    assert public_bindings(source) == {"b", "d", "f", "h"}
    exported = eventlens.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) == public_bindings((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    documented = {
        name
        for name in library_names()
        if not name.startswith("_")
        and not isinstance(getattr(eventlens, name, eventlens), ModuleType)
    }
    assert set(exported) == documented
