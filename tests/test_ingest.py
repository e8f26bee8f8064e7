from __future__ import annotations

import ast
import datetime as dt
import hashlib
import json
import os
import re
import stat
import sys
import tracemalloc
from contextlib import suppress
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eventlens import (
    BarInvariantError,
    ConfigError,
    DailyBar,
    DataFormatError,
    EventLensError,
    InstrumentId,
    InstrumentKind,
    ProviderConfig,
    ProviderError,
    RawSeries,
    fetch_daily,
    load_csv,
)
import eventlens
from eventlens.ingest import (
    RateLimiter,
    _walk_rows,
    parse_provider_payload,
    provider_url,
    replace_directory,
    series_to_csv_bytes,
    write_atomic,
    write_csv,
)

from conftest import make_bar, make_series, random_series, series_of

GOLD = InstrumentId("GOLD", InstrumentKind.COMMODITY)
RUBCNY = InstrumentId("RUBCNY", InstrumentKind.FX_PAIR)


def payload_bytes(entries: dict, series_key: str = "Time Series (Daily)") -> bytes:
    return json.dumps({"Meta Data": {"2. Symbol": "X"}, series_key: entries}).encode()


# --- DailyBar / RawSeries invariants -----------------------------------------


def test_daily_bar_accepts_valid_quotes():
    bar = DailyBar(dt.date(2022, 1, 3), open=1.0, high=2.0, low=0.5, close=1.5)
    assert bar.close == 1.5


INVALID_BARS = [
    (1.0, 0.5, 2.0, 1.5),  # high < low
    (3.0, 2.0, 0.5, 1.5),  # open above high
    (1.0, 2.0, 0.5, 2.5),  # close above high
    (0.4, 2.0, 0.5, 1.5),  # open below low
    (-1.0, 2.0, 0.5, 1.5),  # non-positive
    (float("nan"), 2.0, 0.5, 1.5),  # non-finite
]


@pytest.mark.parametrize("open_,high,low,close", INVALID_BARS)
def test_daily_bar_rejects_invalid_quotes(open_, high, low, close):
    with pytest.raises(BarInvariantError, match="2022-01-03"):
        DailyBar(dt.date(2022, 1, 3), open_, high, low, close)


@pytest.mark.parametrize(
    "bar",
    [
        *INVALID_BARS,
        (0.0, 0.0, 0.0, 0.0),
        (1.0, 2.0, -0.5, 1.5),
        (1.0, float("inf"), 0.5, 1.5),
        (float("-inf"), 2.0, float("-inf"), 1.5),
        (1.0, 2.0, float("nan"), 1.5),
    ],
)
def test_raw_series_names_its_first_invalid_bar_as_the_bar_check_does(bar):
    dates = np.array(["2022-01-03", "2022-01-04", "2022-01-05"], dtype="datetime64[D]")
    with pytest.raises(BarInvariantError) as columns:
        RawSeries(GOLD, dates, [[1.0, 2.0, 0.5, 1.5], bar, bar])
    with pytest.raises(BarInvariantError) as row:
        eventlens.ingest._check_bar("2022-01-04", *bar)
    assert str(columns.value) == str(row.value)


def test_raw_series_rejects_unordered_dates():
    bars = (make_bar(dt.date(2022, 1, 4), 2.0), make_bar(dt.date(2022, 1, 3), 2.0))
    with pytest.raises(DataFormatError, match="strictly increasing"):
        series_of(GOLD, bars)


def test_raw_series_rejects_duplicate_dates():
    bars = (make_bar(dt.date(2022, 1, 3), 2.0), make_bar(dt.date(2022, 1, 3), 2.0))
    with pytest.raises(DataFormatError):
        series_of(GOLD, bars)


def test_raw_series_is_frozen_and_its_columns_read_only():
    series = make_series("GOLD", dt.date(2022, 1, 3), [1.5, 2.5])
    with pytest.raises(AttributeError):
        series.dates = series.dates[:1]
    with pytest.raises(ValueError):
        series.quotes[0, 0] = 9.0
    with pytest.raises(ValueError):
        series.dates[0] = series.dates[1]


def test_raw_series_copies_its_columns_and_rejects_missing_dates():
    dates = np.array(["2022-01-03", "2022-01-04"], dtype="datetime64[D]")
    quotes = np.array([[1.0, 2.0, 0.5, 1.5], [1.5, 2.5, 1.0, 2.0]])
    series = RawSeries(GOLD, dates, quotes)
    quotes[0, 0] = 9.0
    assert series.quotes[0, 0] == 1.0 and dates.flags.writeable and quotes.flags.writeable
    with pytest.raises(DataFormatError, match="series GOLD: missing date"):
        RawSeries(GOLD, ["NaT"], [[1.0, 2.0, 0.5, 1.5]])


def test_raw_series_columns_match_bars():
    series = make_series("GOLD", dt.date(2022, 1, 3), [1.5, 2.5])
    assert series.dates.dtype == "datetime64[D]"
    assert series.dates.tolist() == [bar.date for bar in series.bars]
    assert series.quotes.shape == (2, 4)
    assert series.quotes.tolist() == [[b.open, b.high, b.low, b.close] for b in series.bars]


def test_instrument_symbol_validation():
    with pytest.raises(ConfigError):
        InstrumentId("", InstrumentKind.EQUITY)
    with pytest.raises(ConfigError):
        InstrumentId("A.B", InstrumentKind.EQUITY)
    for symbol in (None, 5, ["GOLD"]):
        with pytest.raises(ConfigError, match="instrument symbol must be a non-empty string, got"):
            InstrumentId(symbol, InstrumentKind.EQUITY)


@pytest.mark.parametrize(
    "symbol", ["sub/dir", "/abs/GOLD", "sub\\dir", "C:\\GOLD", "A\u0000B", "A\nB"]
)
def test_a_symbol_cannot_name_a_path(symbol):
    # A symbol names its cache file and bundle files; a separator in it
    # would put them in another directory, a NUL cannot be in a path and a
    # newline would split the one-line error that names it.
    rule = "'.', ',', '/' or '\\'" if symbol.isprintable() else "non-printable characters"
    with pytest.raises(ConfigError, match=re.escape(f"{symbol!r} may not contain {rule}")):
        InstrumentId(symbol, InstrumentKind.EQUITY)


# --- provider payload parsing --------------------------------------------------


def test_parse_single_well_formed_entry():
    body = payload_bytes({"2022-01-03": {"open": "1.0", "high": "2.0", "low": "0.5", "close": "1.5"}})
    series = parse_provider_payload(body, GOLD)
    assert len(series) == 1
    bar = series.bars[0]
    assert (bar.open, bar.high, bar.low, bar.close) == (1.0, 2.0, 0.5, 1.5)
    assert not series.synthetic_ohlc


def test_parse_numbered_provider_keys():
    body = payload_bytes(
        {"2022-01-03": {"1. open": "1.0", "2. high": "2.0", "3. low": "0.5", "4. close": "1.5"}}
    )
    series = parse_provider_payload(body, GOLD)
    assert series.bars[0].high == 2.0


def test_parse_ignores_adjusted_close_variants():
    body = payload_bytes(
        {
            "2022-01-03": {
                "1. open": "1.0",
                "2. high": "2.0",
                "3. low": "0.5",
                "4. close": "1.5",
                "5. adjusted close": "9.9",
            }
        }
    )
    assert parse_provider_payload(body, GOLD).bars[0].close == 1.5


def test_parse_rejects_ohlc_violation_naming_date():
    body = payload_bytes({"2022-01-03": {"open": "1.0", "high": "0.4", "low": "0.5", "close": "0.45"}})
    with pytest.raises(BarInvariantError, match="2022-01-03"):
        parse_provider_payload(body, GOLD)


def test_parse_emits_sorted_bars_for_unordered_document():
    body = payload_bytes(
        {
            "2022-01-04": {"open": "1.0", "high": "2.0", "low": "0.5", "close": "1.6"},
            "2022-01-03": {"open": "1.0", "high": "2.0", "low": "0.5", "close": "1.5"},
        }
    )
    series = parse_provider_payload(body, GOLD)
    assert [bar.date.isoformat() for bar in series.bars] == ["2022-01-03", "2022-01-04"]


def test_parse_surfaces_provider_error_message():
    body = json.dumps({"Error Message": "Invalid API call for WTI"}).encode()
    with pytest.raises(ProviderError, match="Invalid API call for WTI"):
        parse_provider_payload(body, GOLD)


def test_parse_surfaces_quota_note():
    body = json.dumps({"Note": "API call frequency exceeded"}).encode()
    with pytest.raises(ProviderError, match="frequency exceeded"):
        parse_provider_payload(body, GOLD)


def test_parse_rejects_non_json():
    with pytest.raises(DataFormatError, match="not valid JSON"):
        parse_provider_payload(b"<html>oops</html>", GOLD)


def test_parse_rejects_json_array_payload():
    with pytest.raises(DataFormatError, match="not a JSON object"):
        parse_provider_payload(b"[1, 2, 3]", GOLD)


def test_parse_rejects_missing_series_map():
    with pytest.raises(DataFormatError, match="no daily series map"):
        parse_provider_payload(json.dumps({"Meta Data": {}}).encode(), GOLD)


def test_parse_rejects_unparseable_decimal():
    body = payload_bytes({"2022-01-03": {"open": "1.0", "high": "2.0", "low": "0.5", "close": "n/a"}})
    with pytest.raises(DataFormatError, match="2022-01-03"):
        parse_provider_payload(body, GOLD)


def test_parse_synthesizes_close_only_entries():
    body = payload_bytes({"2022-01-03": {"close": "1.5"}, "2022-01-04": {"close": "1.6"}})
    series = parse_provider_payload(body, RUBCNY)
    assert series.synthetic_ohlc
    bar = series.bars[0]
    assert bar.open == bar.high == bar.low == bar.close == 1.5


def test_parse_rejects_partial_ohlc():
    body = payload_bytes({"2022-01-03": {"open": "1.0", "close": "1.5"}})
    with pytest.raises(DataFormatError, match="partial"):
        parse_provider_payload(body, GOLD)


# --- CSV fixture / cache format -------------------------------------------------


def test_load_csv_three_rows(tmp_path):
    path = tmp_path / "GOLD.csv"
    path.write_text(
        "date,open,high,low,close\n"
        "2022-01-03,1.0,2.0,0.5,1.5\n"
        "2022-01-04,1.1,2.1,0.6,1.6\n"
        "2022-01-05,1.2,2.2,0.7,1.7\n"
    )
    series = load_csv(path, GOLD)
    assert len(series) == 3
    assert [b.date.day for b in series.bars] == [3, 4, 5]


def test_load_csv_duplicate_date(tmp_path):
    path = tmp_path / "GOLD.csv"
    path.write_text(
        "date,open,high,low,close\n2022-01-03,1.0,2.0,0.5,1.5\n2022-01-03,1.0,2.0,0.5,1.5\n"
    )
    with pytest.raises(DataFormatError, match="duplicate date 2022-01-03"):
        load_csv(path, GOLD)


def test_load_csv_empty_body_is_valid(tmp_path):
    path = tmp_path / "GOLD.csv"
    path.write_text("date,open,high,low,close\n")
    assert len(load_csv(path, GOLD)) == 0


def test_load_csv_bad_header(tmp_path):
    path = tmp_path / "GOLD.csv"
    path.write_text("date,o,h,l,c\n2022-01-03,1.0,2.0,0.5,1.5\n")
    with pytest.raises(DataFormatError, match="header"):
        load_csv(path, GOLD)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", GOLD)


def test_load_csv_rejects_unsorted_rows(tmp_path):
    path = tmp_path / "GOLD.csv"
    path.write_text(
        "date,open,high,low,close\n2022-01-04,1.0,2.0,0.5,1.6\n2022-01-03,1.0,2.0,0.5,1.5\n"
    )
    with pytest.raises(DataFormatError) as info:
        load_csv(path, GOLD)
    assert str(info.value) == f"{path}:3: out-of-order date 2022-01-03"


def test_load_csv_rejects_a_missing_final_newline(tmp_path):
    path = tmp_path / "GOLD.csv"
    path.write_text("date,open,high,low,close\n2022-01-03,1.0,2.0,0.5,1.5")
    with pytest.raises(DataFormatError) as info:
        load_csv(path, GOLD)
    assert str(info.value) == (
        f"{path}:2: not canonical: '2022-01-03,1.0,2.0,0.5,1.5' is written "
        "'2022-01-03,1.0,2.0,0.5,1.5\\n'"
    )
    path.write_text("date,open,high,low,close")
    with pytest.raises(DataFormatError, match=":1: not canonical: "):
        load_csv(path, GOLD)


def test_csv_bytes_format_is_exact():
    series = make_series("GOLD", dt.date(2022, 1, 3), [1.5])
    expected = b"date,open,high,low,close\n2022-01-03,1.5,2.5,0.5,1.5\n"
    assert series_to_csv_bytes(series) == expected


def test_csv_round_trip_reproduces_series(tmp_path, rng):
    for i in range(5):
        series = random_series(f"SYM{i}", 50, rng)
        path = tmp_path / f"SYM{i}.csv"
        write_csv(series, path)
        assert load_csv(path, series.instrument) == series
        # second write is byte-identical
        payload = path.read_bytes()
        write_csv(series, path)
        assert path.read_bytes() == payload


def test_csv_round_trip_empty_series(tmp_path):
    series = series_of(GOLD, ())
    write_csv(series, tmp_path / "GOLD.csv")
    assert load_csv(tmp_path / "GOLD.csv", GOLD) == series


# --- atomic writer -----------------------------------------------------------------


def test_failed_replace_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "GOLD.csv"
    path.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_atomic(path, b"new")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["GOLD.csv"]


def test_stray_temp_file_is_neither_read_nor_clobbered(tmp_path, rng):
    series = random_series("GOLD", 20, rng)
    path = tmp_path / "GOLD.csv"
    stray = tmp_path / "GOLD.csv.tmp"
    stray.write_bytes(b"left by a crashed writer")
    write_csv(series, path)
    assert load_csv(path, series.instrument) == series
    assert stray.read_bytes() == b"left by a crashed writer"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["GOLD.csv", "GOLD.csv.tmp"]


def test_write_into_a_missing_directory_makes_it(tmp_path):
    path = tmp_path / "out" / "nested" / "GOLD.csv"
    write_atomic(path, b"x")
    assert path.read_bytes() == b"x"
    assert [p.name for p in path.parent.iterdir()] == ["GOLD.csv"]
    assert list(tmp_path.rglob("*.tmp")) == []


def test_replace_directory_links_each_unchanged_file_and_creates_each_changed_one(tmp_path):
    out = tmp_path / "out"
    replace_directory(out, {"a.csv": b"a\n", "b.csv": b"b\n", "c.csv": b"c\n"}, ())
    before = {p.name: p.stat().st_ino for p in out.iterdir()}
    replace_directory(out, {"a.csv": b"a\n", "b.csv": b"B\n", "c.csv": b"c\n"}, ())
    after = {p.name: p.stat().st_ino for p in out.iterdir()}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {"a.csv": b"a\n", "b.csv": b"B\n", "c.csv": b"c\n"}
    assert after["b.csv"] != before["b.csv"]
    assert after["c.csv"] == before["c.csv"]
    assert (out / "c.csv").stat().st_nlink == 1
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_replace_directory_creates_a_file_over_a_same_named_symlink(tmp_path):
    # The target holds its own path, so the link's size and the target's
    # bytes both equal the payload: only the file type tells them apart.
    target = tmp_path / "target.csv"
    payload = str(target).encode()
    target.write_bytes(payload)
    out = tmp_path / "out"
    replace_directory(out, {"a.csv": b"a\n", "b.csv": payload}, ())
    (out / "b.csv").unlink()
    (out / "b.csv").symlink_to(target)
    assert (out / "b.csv").lstat().st_size == len(payload)
    inode = target.stat().st_ino
    replace_directory(out, {"a.csv": b"a\n", "b.csv": payload}, ())
    assert not (out / "b.csv").is_symlink()
    assert (out / "b.csv").read_bytes() == payload
    assert (out / "b.csv").stat().st_ino != inode
    assert target.read_bytes() == payload
    assert (target.stat().st_ino, target.stat().st_nlink) == (inode, 1)


def test_replace_directory_creates_a_file_that_has_a_second_hard_link(tmp_path):
    out = tmp_path / "out"
    replace_directory(out, {"a.csv": b"a\n", "b.csv": b"b\n"}, ())
    elsewhere = tmp_path / "elsewhere.csv"
    os.link(out / "b.csv", elsewhere)
    replace_directory(out, {"a.csv": b"a\n", "b.csv": b"b\n"}, ())
    assert (out / "b.csv").read_bytes() == b"b\n"
    assert (out / "b.csv").stat().st_ino != elsewhere.stat().st_ino
    assert elsewhere.stat().st_nlink == 1


@pytest.mark.skipif(os.geteuid() != 0, reason="chown needs root")
def test_replace_directory_creates_a_file_another_user_owns(tmp_path):
    out = tmp_path / "out"
    replace_directory(out, {"a.csv": b"a\n", "b.csv": b"b\n"}, ())
    os.chown(out / "b.csv", 12345, 12345)
    inode = (out / "b.csv").stat().st_ino
    replace_directory(out, {"a.csv": b"a\n", "b.csv": b"b\n"}, ())
    assert (out / "b.csv").stat().st_ino != inode
    assert (out / "b.csv").stat().st_uid == os.geteuid()


def test_write_under_a_regular_file_fails_and_leaves_nothing(tmp_path):
    blocker = tmp_path / "out"
    blocker.write_bytes(b"not a directory")
    for path in (blocker / "GOLD.csv", blocker / "nested" / "GOLD.csv"):
        with pytest.raises(OSError):
            write_atomic(path, b"x")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert blocker.read_bytes() == b"not a directory"


def test_written_file_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_atomic(tmp_path / "GOLD.csv", b"x")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "GOLD.csv").stat().st_mode) == 0o640


def test_concurrent_writers_to_one_path_never_tear_it(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    path = tmp_path / "GOLD.csv"
    payloads = [bytes([65 + i]) * (4096 * (i + 1)) for i in range(8)]
    write_atomic(path, payloads[0])
    seen: set[bytes] = set()

    def writer(payload: bytes) -> None:
        for _ in range(50):
            write_atomic(path, payload)

    def reader() -> None:
        for _ in range(400):
            seen.add(path.read_bytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(payloads) + 1) as pool:
            futures = [pool.submit(writer, p) for p in payloads] + [pool.submit(reader)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert seen <= set(payloads)
    assert path.read_bytes() in payloads
    assert [p.name for p in tmp_path.iterdir()] == ["GOLD.csv"]


def _writes_files(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
    if name in ("write_bytes", "write_text", "mkdir", "makedirs"):
        return True
    if owner == "os" and name in ("replace", "rename", "link", "open", "fdopen"):
        return True
    if name != "open":
        return False
    # open(file, mode) and io.open(file, mode), but Path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if owner in (None, "io") else call.args[:1]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or set(mode.value) & set("wax+")
        for mode in modes
    )


def file_write_sites(source: str, module: str) -> list[tuple[str, str]]:
    """(enclosing function, callee) for each call in source that writes a file."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _writes_files(child):
                sites.append((scope, ast.unparse(child.func)))
            visit(child, scope)

    visit(ast.parse(source), module)
    return sites


def test_file_write_detector_flags_every_writer_form():
    source = """
def f(path, fd):
    path.write_bytes(b"")
    path.write_text("")
    open(path, "w")
    open(path, mode="ab")
    path.open("x")
    os.fdopen(fd, "wb")
    os.replace(path, path)
    os.rename(path, path)
    os.link(path, path)
    path.mkdir()
    os.makedirs(path)
    open(path)
    path.open()
    path.read_bytes()
"""
    callees = [callee for _, callee in file_write_sites(source, "m")]
    assert callees == [
        "path.write_bytes", "path.write_text", "open", "open", "path.open", "os.fdopen", "os.replace",
        "os.rename", "os.link", "path.mkdir", "os.makedirs",
    ]


def test_write_atomic_is_the_only_file_writer():
    # A second writer (a bare write_bytes, its own temp-and-rename, its own
    # mkdir) would bypass the atomicity and unique temp names every output
    # relies on, or decide a second way how an output directory is made.
    # The one directory swap renames and hard-links whole files, each of
    # them written by write_atomic into the staged directory.
    sites = [
        site
        for path in sorted(Path(eventlens.__file__).parent.glob("*.py"))
        for site in file_write_sites(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert {scope for scope, _ in sites} == {"ingest.write_atomic", "ingest.replace_directory"}, sites
    assert [callee for _, callee in sites].count("os.replace") == 1
    swap = sorted({callee for scope, callee in sites if scope == "ingest.replace_directory"})
    assert swap == ["os.link", "os.rename"], sites


def names_used(source: str) -> set[str]:
    """Every name and attribute in source, and every name it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_only_ingest_knows_the_csv_format():
    # Data digests come from RawSeries.digest; a module serializing a
    # series itself would be a second place that knows the CSV layout.
    users = {
        path.stem
        for path in Path(eventlens.__file__).parent.glob("*.py")
        if "series_to_csv_bytes" in names_used(path.read_text())
    }
    assert users == {"ingest"}


# --- fetch + cache ---------------------------------------------------------------


def make_config(tmp_path, **kwargs) -> ProviderConfig:
    kwargs.setdefault("api_key", "test-key")
    return ProviderConfig(cache_dir=tmp_path / "cache", **kwargs)


def live_payload() -> bytes:
    return payload_bytes(
        {
            "2022-01-03": {"open": "1.0", "high": "2.0", "low": "0.5", "close": "1.5"},
            "2022-01-04": {"open": "1.1", "high": "2.1", "low": "0.6", "close": "1.6"},
        }
    )


def test_fetch_cold_then_warm_cache(tmp_path):
    config = make_config(tmp_path)
    calls = []

    def transport(url: str) -> bytes:
        calls.append(url)
        return live_payload()

    first = fetch_daily(GOLD, config, transport)
    assert len(calls) == 1
    assert (config.cache_dir / "GOLD.csv").exists()

    second = fetch_daily(GOLD, config, transport)
    assert len(calls) == 1, "warm cache must perform zero network operations"
    assert series_to_csv_bytes(second) == series_to_csv_bytes(first)


@pytest.mark.parametrize(
    "high,verbatim", [("1923.45", True), ("1923.4500", True), ("1.92345e3", False)]
)
def test_fetch_writes_the_series_csv_from_the_payload_text_if_short_decimals(
    tmp_path, monkeypatch, high, verbatim
):
    encode = eventlens.ingest.series_to_csv_bytes
    calls = []

    def counted(series):
        calls.append(series)
        return encode(series)

    monkeypatch.setattr(eventlens.ingest, "series_to_csv_bytes", counted)
    body = payload_bytes({"2022-01-04": entry(high=high), "2022-01-03": entry()})
    series = fetch_daily(GOLD, make_config(tmp_path), lambda url: body)
    written = (tmp_path / "cache" / "GOLD.csv").read_bytes()
    assert written == encode(series)
    assert written.splitlines()[2] == b"2022-01-04,1.0,1923.45,0.5,1.5"
    assert len(calls) == (0 if verbatim else 1)


def test_fetch_propagates_provider_error(tmp_path):
    config = make_config(tmp_path)

    def transport(url: str) -> bytes:
        return json.dumps({"Error Message": "bad symbol WTI"}).encode()

    with pytest.raises(ProviderError, match="bad symbol WTI"):
        fetch_daily(InstrumentId("WTI", InstrumentKind.COMMODITY), config, transport)
    assert not (config.cache_dir / "WTI.csv").exists()


def test_fetch_cache_write_failure(tmp_path):
    from eventlens import CacheError

    config = make_config(tmp_path)
    config.cache_dir.parent.mkdir(parents=True, exist_ok=True)
    config.cache_dir.touch()  # a file where the cache directory should be
    with pytest.raises(CacheError, match="cannot write cache file"):
        fetch_daily(GOLD, config, lambda url: live_payload())


def test_load_csv_rejects_crlf_line_endings(tmp_path):
    path = tmp_path / "GOLD.csv"
    path.write_bytes(b"date,open,high,low,close\r\n2022-01-03,1.0,2.0,0.5,1.5\r\n")
    with pytest.raises(DataFormatError, match=r"GOLD\.csv:1: carriage return found"):
        load_csv(path, GOLD)
    path.write_bytes(b"date,open,high,low,close\n2022-01-03,1.0,2.0,0.5,1.5\r\n")
    with pytest.raises(DataFormatError, match=r"GOLD\.csv:2: carriage return found"):
        load_csv(path, GOLD)


def test_fetch_wraps_transport_failure(tmp_path):
    config = make_config(tmp_path)

    def transport(url: str) -> bytes:
        raise OSError("connection refused")

    with pytest.raises(ProviderError, match="unreachable"):
        fetch_daily(GOLD, config, transport)


def test_fetch_requires_api_key_for_default_transport(tmp_path, monkeypatch):
    monkeypatch.delenv("EVENTLENS_API_KEY", raising=False)

    def no_network(url):
        raise AssertionError("network must not be touched without an api key")

    monkeypatch.setattr("eventlens.ingest._http_get", no_network)
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    with pytest.raises(ConfigError, match="api key"):
        fetch_daily(GOLD, config)


def test_injected_transport_needs_no_api_key(tmp_path, monkeypatch):
    monkeypatch.delenv("EVENTLENS_API_KEY", raising=False)
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    series = fetch_daily(GOLD, config, lambda url: live_payload())
    assert len(series) == 2


def test_fetch_reads_api_key_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("EVENTLENS_API_KEY", "env-key")
    config = ProviderConfig(cache_dir=tmp_path / "cache")
    seen = []

    def transport(url: str) -> bytes:
        seen.append(url)
        return live_payload()

    fetch_daily(GOLD, config, transport)
    assert "apikey=env-key" in seen[0]


def test_fetch_universe_round_trips_all_symbols(tmp_path):
    from eventlens import fetch_universe

    config = make_config(tmp_path)
    instruments = [InstrumentId(s, InstrumentKind.EQUITY) for s in ("AAA", "BBB")]
    series_list = fetch_universe(instruments, config, lambda url: live_payload())
    assert [s.instrument.symbol for s in series_list] == ["AAA", "BBB"]
    assert all((config.cache_dir / f"{s}.csv").exists() for s in ("AAA", "BBB"))


def test_concurrent_fetches_share_cache_and_limiter(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    config = make_config(tmp_path, rate_limit=100)
    symbols = [InstrumentId(f"SYM{i}", InstrumentKind.EQUITY) for i in range(8)]

    def transport(url: str) -> bytes:
        return live_payload()

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda i: fetch_daily(i, config, transport), symbols))
    assert all(len(series) == 2 for series in results)
    assert sorted(p.name for p in config.cache_dir.iterdir()) == [
        f"SYM{i}.csv" for i in range(8)
    ]


def test_provider_url_routing():
    config = ProviderConfig(cache_dir="unused", api_key="k")
    equity_url = provider_url(GOLD, config)
    assert "function=TIME_SERIES_DAILY" in equity_url and "symbol=GOLD" in equity_url
    fx_url = provider_url(RUBCNY, config)
    assert "function=FX_DAILY" in fx_url
    assert "from_symbol=RUB" in fx_url and "to_symbol=CNY" in fx_url


def test_fx_symbol_must_be_six_letters():
    config = ProviderConfig(cache_dir="unused", api_key="k")
    with pytest.raises(ConfigError, match="6 letters"):
        provider_url(InstrumentId("RUB", InstrumentKind.FX_PAIR), config)


# --- rate limiter -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0
        self.sleeps.append(seconds)
        self.now += seconds


def test_rate_limiter_allows_burst_up_to_limit():
    fake = FakeClock()
    liminer = RateLimiter(3, clock=fake.clock, sleep=fake.sleep)
    for _ in range(3):
        liminer.acquire()
    assert fake.sleeps == []


def test_rate_limiter_never_exceeds_limit_in_any_window():
    fake = FakeClock()
    limit = 4
    limiter = RateLimiter(limit, clock=fake.clock, sleep=fake.sleep)
    stamps = []
    for _ in range(25):
        limiter.acquire()
        stamps.append(fake.now)
        fake.now += 2.0  # caller issues requests every 2 simulated seconds
    for i in range(len(stamps)):
        in_window = [s for s in stamps if stamps[i] <= s < stamps[i] + 60.0]
        assert len(in_window) <= limit
    assert fake.sleeps, "limiter should have throttled a 25-request burst"


def test_rate_limiter_rejects_nonpositive_limit():
    with pytest.raises(ConfigError):
        RateLimiter(0)


def test_provider_config_rejects_bad_rate_limit(tmp_path):
    with pytest.raises(ConfigError):
        ProviderConfig(cache_dir=tmp_path, rate_limit=0)


# --- edge cases: the exception and message the row-by-row parser gives ----------
# Recorded from the row-by-row implementation. numpy's datetime64 parser
# accepts several of these dates ("NaT", year 0, five-digit years, "today"),
# so a vectorized parser must not let them through.


def row(date: str, open_="1.0", high="2.0", low="0.5", close="1.5") -> str:
    return ",".join((date, open_, high, low, close))


BAD_OHLC_ROW = row("2022-01-04", high="0.4", close="0.45")
OHLC_ERROR = "OHLC ordering violated on {date}: open=1.0 high=0.4 low=0.5 close=0.45"
DATA, BAR = DataFormatError, BarInvariantError

CSV_EDGE_CASES = {
    "nat": ([row("NaT")], DATA, "{path}:2: bad date 'NaT'"),
    # U+0663 (ARABIC-INDIC DIGIT THREE) is written as the UTF-8 bytes d9 a3, at byte 34
    "non_ascii_date": (
        [row("2022-01-0\u0663")],
        DATA,
        "{path}: not ASCII: 'ascii' codec can't decode byte 0xd9 in position 34: "
        "ordinal not in range(128)",
    ),
    "year_zero": ([row("0000-01-03")], DATA, "{path}:2: bad date '0000-01-03'"),
    "year_five_digits": ([row("10000-01-03")], DATA, "{path}:2: bad date '10000-01-03'"),
    "year_negative": ([row("-0001-01-03")], DATA, "{path}:2: bad date '-0001-01-03'"),
    "today": ([row("2022-01-05"), row("today")], DATA, "{path}:3: bad date 'today'"),
    "now": ([row("now")], DATA, "{path}:2: bad date 'now'"),
    "year_month": ([row("2022-01")], DATA, "{path}:2: bad date '2022-01'"),
    "date_time": ([row("2022-01-03T00")], DATA, "{path}:2: bad date '2022-01-03T00'"),
    "padded_date": ([row(" 2022-01-03")], DATA, "{path}:2: bad date ' 2022-01-03'"),
    "day_out_of_range": ([row("2022-02-30")], DATA, "{path}:2: bad date '2022-02-30'"),
    "inf_quote": (
        [row("2022-01-05"), row("2022-01-06", high="inf")],
        BAR,
        "{path}:3: non-finite quote on 2022-01-06",
    ),
    "nan_quote": (
        [row("2022-01-06", close="nan")], BAR, "{path}:2: non-finite quote on 2022-01-06"
    ),
    "zero_quote": (
        [row("2022-01-03", "0.0", low="0.0")], BAR, "{path}:2: non-positive quote on 2022-01-03"
    ),
    "unparseable_quote": (
        [row("2022-01-06", low="n/a")], DATA, "{path}:2: unparseable low quote 'n/a' for 2022-01-06"
    ),
    # five fields per row on average, but not in any one row
    "six_then_four_fields": (
        [row("2022-01-03") + ",9", "2022-01-04,1.0,2.0,0.5"],
        DATA,
        "{path}:2: expected 5 fields, got 6",
    ),
    "blank_line_inside": (
        [row("2022-01-03"), "", row("2022-01-04")], DATA, "{path}:3: expected 5 fields, got 1"
    ),
    # the first offending row in file order names the error
    "bad_ohlc_then_duplicate": (
        [row("2022-01-03"), BAD_OHLC_ROW, row("2022-01-03")],
        BAR,
        "{path}:3: " + OHLC_ERROR.format(date="2022-01-04"),
    ),
    "duplicate_then_bad_ohlc": (
        [row("2022-01-03"), row("2022-01-03"), BAD_OHLC_ROW],
        DATA,
        "{path}:3: duplicate date 2022-01-03",
    ),
    "unsorted_bad_rows": (
        [BAD_OHLC_ROW, row("2022-01-03", "-1.0")],
        BAR,
        "{path}:2: " + OHLC_ERROR.format(date="2022-01-04"),
    ),
    "bad_quote_then_bad_date": (
        [row("2022-01-03", low="x"), row("NaT")],
        DATA,
        "{path}:2: unparseable low quote 'x' for 2022-01-03",
    ),
    # two rows on one line, joined by a cell where the "\n" belongs: eleven
    # cells that would split like two rows but for the line-end check
    "two_rows_on_one_line": (
        [row("2022-01-03") + ",x," + row("2022-01-04")],
        DATA,
        "{path}:2: expected 5 fields, got 11",
    ),
}

def not_canonical(lineno: int, found: str, written: str) -> str:
    """The error text for a line that differs from the one the writer writes."""
    found, written = found + "\n", written + "\n"
    return f"{{path}}:{lineno}: not canonical: {found!r} is written {written!r}"


# Lenient forms Python's date and float parsers read, which eventlens never
# writes: each is rejected, naming its line, and is accepted only in the
# form it is written in.
CSV_ACCEPTED = {
    "basic_date": (
        [row("2022-01-04"), row("20220103")],
        [row("2022-01-03"), row("2022-01-04")],
        "{path}:3: out-of-order date 2022-01-03",
    ),
    "week_date": (
        [row("2022-W01-1")],
        [row("2022-01-03")],
        not_canonical(2, row("2022-W01-1"), row("2022-01-03")),
    ),
    "underscore_quote": (
        [row("2022-01-03", "1_0", "20.0")],
        [row("2022-01-03", "10.0", "20.0")],
        not_canonical(2, row("2022-01-03", "1_0", "20.0"), row("2022-01-03", "10.0", "20.0")),
    ),
    "padded_quote": (
        [row("2022-01-03", " 1.0")],
        [row("2022-01-03")],
        not_canonical(2, row("2022-01-03", " 1.0"), row("2022-01-03")),
    ),
    "unsorted_rows": (
        [row("2022-01-05"), row("2022-01-03"), row("2022-01-04", "1.1")],
        [row("2022-01-03"), row("2022-01-04", "1.1"), row("2022-01-05")],
        "{path}:3: out-of-order date 2022-01-03",
    ),
}


def write_rows(tmp_path, rows: list[str]):
    path = tmp_path / "GOLD.csv"
    text = "date,open,high,low,close\n" + "".join(row + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "rows,error,message", CSV_EDGE_CASES.values(), ids=CSV_EDGE_CASES.keys()
)
def test_load_csv_edge_case_errors(tmp_path, rows, error, message):
    path = write_rows(tmp_path, rows)
    with pytest.raises(EventLensError) as info:
        load_csv(path, GOLD)
    assert type(info.value) is error
    assert str(info.value) == message.replace("{path}", str(path))


@pytest.mark.parametrize("rows,loaded,message", CSV_ACCEPTED.values(), ids=CSV_ACCEPTED.keys())
def test_load_csv_edge_case_accepted(tmp_path, rows, loaded, message):
    path = write_rows(tmp_path, rows)
    with pytest.raises(DataFormatError) as info:
        load_csv(path, GOLD)
    assert str(info.value) == message.replace("{path}", str(path))
    path = write_rows(tmp_path, loaded)
    assert series_to_csv_bytes(load_csv(path, GOLD)) == path.read_bytes()


def entry(open_="1.0", high="2.0", low="0.5", close="1.5") -> dict:
    return {"open": open_, "high": high, "low": low, "close": close}


BAD_OHLC_ENTRY = entry(high="0.4", close="0.45")

PAYLOAD_EDGE_CASES = {
    "year_zero_key": ({"0000-01-03": {"close": "1.5"}}, DATA, "bad date key '0000-01-03'"),
    "day_out_of_range_key": ({"2022-02-30": {"close": "1.5"}}, DATA, "bad date key '2022-02-30'"),
    "inf_quote": ({"2022-01-03": entry(high="inf")}, BAR, "non-finite quote on 2022-01-03"),
    "nan_close_only": ({"2022-01-03": {"close": "nan"}}, BAR, "non-finite quote on 2022-01-03"),
    "later_bad_bar": (
        {"2022-01-03": {"close": "1.5"}, "2022-01-04": {"close": "-1.5"}},
        BAR,
        "non-positive quote on 2022-01-04",
    ),
    # entries are checked in date order: an earlier broken bar wins
    "bad_bar_then_unparseable": (
        {"2022-01-03": BAD_OHLC_ENTRY, "2022-01-04": entry(low="x")},
        BAR,
        OHLC_ERROR.format(date="2022-01-03"),
    ),
    "unparseable_then_bad_bar": (
        {"2022-01-04": BAD_OHLC_ENTRY, "2022-01-03": entry(low="x")},
        DATA,
        "unparseable low quote 'x' for 2022-01-03",
    ),
    "bad_bar_then_partial": (
        {"2022-01-03": BAD_OHLC_ENTRY, "2022-01-04": {"open": "1.0", "close": "1.5"}},
        BAR,
        OHLC_ERROR.format(date="2022-01-03"),
    ),
    "bad_bar_then_bad_key": (
        {"2022-01-03": BAD_OHLC_ENTRY, "2022-02-30": {"close": "1.5"}},
        BAR,
        OHLC_ERROR.format(date="2022-01-03"),
    ),
    "bad_bar_then_no_close": (
        {"2022-01-03": BAD_OHLC_ENTRY, "2022-01-04": {"open": "1.0"}},
        BAR,
        OHLC_ERROR.format(date="2022-01-03"),
    ),
    # quotes are decimal text: only ASCII strings parse
    "boolean_quote": (
        {"2022-01-03": {"close": True}}, DATA, "unparseable close quote True for 2022-01-03"
    ),
    "number_quote": (
        {"2022-01-03": entry(high=2.0)}, DATA, "unparseable high quote 2.0 for 2022-01-03"
    ),
    "null_quote": (
        {"2022-01-03": entry(low=None)}, DATA, "unparseable low quote None for 2022-01-03"
    ),
    "arabic_indic_digits": (
        {"2022-01-03": {"close": "\u0661.\u0665"}},
        DATA,
        "unparseable close quote '\u0661.\u0665' for 2022-01-03",
    ),
    "fullwidth_digits": (
        {"2022-01-03": entry(open_="\uff11.0")},
        DATA,
        "unparseable open quote '\uff11.0' for 2022-01-03",
    ),
    "two_closes": (
        {"2022-01-03": {"1. close": "1.5", "2. close": "1.6"}},
        DATA,
        "entry 2022-01-03 has two close quotes",
    ),
    "bad_bar_then_two_closes": (
        {"2022-01-03": BAD_OHLC_ENTRY, "2022-01-04": {"close": "1.5", "4. close": "1.6"}},
        BAR,
        OHLC_ERROR.format(date="2022-01-03"),
    ),
}


@pytest.mark.parametrize(
    "entries,error,message", PAYLOAD_EDGE_CASES.values(), ids=PAYLOAD_EDGE_CASES.keys()
)
def test_parse_payload_edge_case_errors(entries, error, message):
    with pytest.raises(EventLensError) as info:
        parse_provider_payload(payload_bytes(entries), GOLD)
    assert type(info.value) is error
    assert str(info.value) == f"GOLD: {message}"


def test_parse_payload_accepts_underscore_decimal():
    body = payload_bytes({"2022-01-03": entry(open_="1_0", high="20")})
    series = parse_provider_payload(body, GOLD)
    expected = b"date,open,high,low,close\n2022-01-03,10.0,20.0,0.5,1.5\n"
    assert series_to_csv_bytes(series) == expected


# Date keys that the series-map check reads as one joined text: one holding
# the "\n" it joins with, and one of full-width digits, which \d takes and
# the date parse rejects.
SERIES_MAP_EDGE_CASES = {
    "separator_in_key": (
        {"2022-01-05": entry(), "2022-01-03\n2022-01-04": entry()},
        DATA,
        "GOLD: payload has no daily series map",
    ),
    "fullwidth_digit_key": (
        {"\uff12\uff10\uff12\uff12-01-03": entry()},
        DATA,
        "GOLD: bad date key '\uff12\uff10\uff12\uff12-01-03'",
    ),
}


@pytest.mark.parametrize(
    "entries,error,message", SERIES_MAP_EDGE_CASES.values(), ids=SERIES_MAP_EDGE_CASES.keys()
)
def test_parse_payload_series_map_edge_case_errors(entries, error, message):
    with pytest.raises(EventLensError) as info:
        parse_provider_payload(payload_bytes(entries), GOLD)
    assert (type(info.value), str(info.value)) == (error, message)


# --- properties -------------------------------------------------------------------

positive_quotes = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def raw_series(draw, symbol: str = "GOLD", quotes=positive_quotes) -> RawSeries:
    ordinals = draw(
        st.lists(
            st.integers(dt.date.min.toordinal(), dt.date.max.toordinal()), unique=True, max_size=25
        )
    )
    bars = []
    for ordinal in sorted(ordinals):
        low, a, b, high = sorted(draw(st.lists(quotes, min_size=4, max_size=4)))
        open_, close = draw(st.permutations([a, b]))
        bars.append(DailyBar(dt.date.fromordinal(ordinal), open_, high, low, close))
    return series_of(InstrumentId(symbol, InstrumentKind.COMMODITY), bars)


def reference_csv_bytes(series: RawSeries) -> bytes:
    lines = ["date,open,high,low,close"]
    for bar in series.bars:
        lines.append(f"{bar.date.isoformat()},{bar.open!r},{bar.high!r},{bar.low!r},{bar.close!r}")
    return ("\n".join(lines) + "\n").encode("ascii")


@settings(deadline=None)
@given(raw_series())
def test_csv_bytes_match_per_bar_reference(series):
    assert series_to_csv_bytes(series) == reference_csv_bytes(series)


@settings(deadline=None)
@given(series=raw_series())
def test_load_csv_inverts_write_csv(tmp_path_factory, series):
    path = tmp_path_factory.mktemp("roundtrip") / "GOLD.csv"
    write_csv(series, path)
    loaded = load_csv(path, series.instrument)
    assert loaded == series
    assert loaded.digest == series.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert loaded.bars == series.bars
    assert series_of(series.instrument, loaded.bars) == series


@given(series=raw_series().filter(len))
def test_parse_payload_inverts_a_payload_written_from_the_series(series):
    # Newest day first, with numbered field keys, as the provider writes them.
    fields = ("1. open", "2. high", "3. low", "4. close")
    days = reversed(list(zip(series.dates.tolist(), series.quotes.tolist())))
    entries = {day.isoformat(): dict(zip(fields, map(repr, quotes))) for day, quotes in days}
    parsed = parse_provider_payload(payload_bytes(entries), series.instrument)
    assert parsed == series
    assert not parsed.synthetic_ohlc


# --- the constructor decides, the walk names the error ------------------------------

CSV_FAULTS = ("broken_bar", "repeated_date", "out_of_order", "malformed_cell")
any_cell = st.text(alphabet="0123456789.,-+eE_ :TWnaif", max_size=12)


@st.composite
def csv_text_with_one_fault(draw) -> str:
    """The CSV text of a valid series with one injected fault, which may or
    may not end up making the text invalid."""
    rows = series_to_csv_bytes(draw(raw_series())).decode("ascii").split("\n")[1:-1]
    fault = draw(st.sampled_from(CSV_FAULTS))
    if rows and fault == "broken_bar":
        i, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(1, 4))
        cells = rows[i].split(",")
        cells[column] = repr(draw(st.floats()))
        rows[i] = ",".join(cells)
    elif rows and fault == "repeated_date":
        i, at = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows)))
        rows.insert(at, rows[i])
    elif fault == "out_of_order":
        rows = draw(st.permutations(rows))
    elif rows:
        i, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 4))
        cells = rows[i].split(",")
        cells[column] = draw(any_cell)
        rows[i] = ",".join(cells)
    return "".join(f"{line}\n" for line in ["date,open,high,low,close", *rows])


def outcome(build):
    """What ``build()`` gives: its series' exact CSV bytes, or its error's type and text."""
    try:
        return series_to_csv_bytes(build())
    except EventLensError as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(text=csv_text_with_one_fault())
def test_load_csv_fails_as_the_row_walk_or_loads_only_the_written_bytes(tmp_path_factory, text):
    # The walk's error, else its series if the text is exactly that series'
    # bytes, else the first line that differs from them.
    path = tmp_path_factory.mktemp("walk") / "GOLD.csv"
    path.write_text(text)
    expected = outcome(lambda: RawSeries(GOLD, *_walk_rows(path, text)))
    if isinstance(expected, bytes) and expected != text.encode("ascii"):
        lines = zip(text.split("\n"), expected.decode("ascii").split("\n"))
        lineno, (found, written) = next((i, p) for i, p in enumerate(lines, 1) if p[0] != p[1])
        message = not_canonical(lineno, found, written).replace("{path}", str(path))
        expected = DataFormatError, message
    assert outcome(lambda: load_csv(path, GOLD)) == expected
    if isinstance(expected, bytes):
        # An accepted load's digest, seeded from the bytes read, is also the
        # hash of the bytes its series writes.
        digest = load_csv(path, GOLD).digest
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == hashlib.sha256(expected).hexdigest()


@settings(deadline=None)
@given(text=csv_text_with_one_fault())
def test_every_load_csv_error_starts_with_the_file_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("named") / "GOLD.csv"
    path.write_text(text)
    try:
        load_csv(path, GOLD)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}:")


def trailing_zero(cell: str) -> str:
    significand, e, exponent = cell.partition("e")
    return significand + ("0" if "." in significand else ".0") + e + exponent


# Edits that keep a quote's value but not its written text.
QUOTE_EDITS = {
    "trailing_zero": trailing_zero,
    "as_integer": lambda cell: str(int(float(cell))),  # for integral quotes only
    "padded": lambda cell: f" {cell}",
}
positive_or_integral_quotes = st.one_of(positive_quotes, st.integers(1, 10**20).map(float))


@settings(deadline=None)
@given(
    series=raw_series(quotes=positive_or_integral_quotes).filter(len),
    edit=st.sampled_from([*QUOTE_EDITS, "basic_date", "swapped_rows"]),
    data=st.data(),
)
def test_load_csv_names_the_line_of_a_non_canonical_edit(tmp_path_factory, series, edit, data):
    path = tmp_path_factory.mktemp("edit") / "GOLD.csv"
    lines = series_to_csv_bytes(series).decode("ascii").split("\n")
    i = data.draw(st.integers(1, len(series)), label="edited line index")
    cells = lines[i].split(",")
    if edit == "swapped_rows":
        assume(len(series) > 1)
        j = data.draw(st.integers(1, len(series)).filter(lambda j: j != i), label="swapped with")
        i, j = sorted((i, j))
        lines[i], lines[j] = lines[j], lines[i]
        i += 1  # the first row now dated before the row above it
    elif edit == "basic_date":
        lines[i] = ",".join([cells[0].replace("-", ""), *cells[1:]])
    else:
        columns = [c for c in range(1, 5) if edit != "as_integer" or float(cells[c]).is_integer()]
        assume(columns)
        column = data.draw(st.sampled_from(columns), label="edited column")
        cells[column] = QUOTE_EDITS[edit](cells[column])
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(DataFormatError) as info:
        load_csv(path, GOLD)
    assert str(info.value).startswith(f"{path}:{i + 1}: ")


def reference_error(instrument, dates, rows):
    """Row by row, a DailyBar per row and then a strict order check: the
    first error's type and text, or None."""
    try:
        for date, quotes in zip(dates, rows):
            DailyBar(date, *quotes)
        for earlier, date in zip(dates, dates[1:]):
            if date <= earlier:
                raise DataFormatError(
                    f"series {instrument.symbol}: dates not strictly increasing at {date}"
                )
    except EventLensError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def bar_rows(draw, n: int) -> list[tuple[float, ...]]:
    """``n`` open/high/low/close rows, all valid but for up to two rows of any four floats."""
    rows = []
    for _ in range(n):
        low, a, b, high = sorted(draw(st.lists(positive_quotes, min_size=4, max_size=4)))
        open_, close = draw(st.permutations([a, b]))
        rows.append((open_, high, low, close))
    for broken in draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else ():
        rows[broken] = tuple(draw(st.lists(st.floats(), min_size=4, max_size=4)))
    return rows


@st.composite
def date_and_quote_columns(draw):
    days = st.one_of(st.dates(), st.dates(dt.date(2022, 1, 3), dt.date(2022, 1, 12)))
    dates = draw(st.lists(days, max_size=8))
    if draw(st.booleans()):
        dates = sorted(set(dates))
    return dates, draw(bar_rows(len(dates)))


@settings(deadline=None)
@given(columns=date_and_quote_columns())
def test_constructor_raises_exactly_as_the_row_by_row_reference(columns):
    dates, rows = columns
    expected = reference_error(GOLD, dates, rows)
    if expected is None:
        series = RawSeries(GOLD, dates, rows)
        assert series.dates.tolist() == dates
        assert series.quotes.tolist() == [list(quotes) for quotes in rows]
    else:
        with pytest.raises(EventLensError) as info:
            RawSeries(GOLD, dates, rows)
        assert (type(info.value), str(info.value)) == expected


# --- the payload scan against json.loads and the entry walk -------------------------

from eventlens.ingest import (  # noqa: E402
    _is_series_map,
    _parse_payload,
    _scan_payload,
    _walk_entries,
)

EXTRA_KEYS = ("5. volume", "5. adjusted close", "7. dividend amount")
NOT_QUOTE_TEXT = (
    "n/a", "", " ", "1_0", " 2.5 ", "1e999", "-0.0", "١.٥", "１.0", "1.5 ", "1.5\n", "\n2.5"
)
BAD_DATE_KEYS = ("2022-02-30", "0000-01-03", "2022-13-01")
# How a payload may write a float: as repr does, as a provider quotes (four
# decimals, from 1e-4 to 1e9, which keeps a bar's order), or with a trailing
# zero that repr never writes.
QUOTE_TEXT = (repr, lambda q: f"{min(max(q, 1e-4), 1e9):.4f}", lambda q: f"{q!r}0")


@st.composite
def field_key(draw, name: str) -> str:
    """``name`` as the provider may spell it: bare or numbered, any case, padded."""
    prefix = draw(st.sampled_from(["", "1. ", "4. ", "2a. ", "3."]))
    spelled = draw(st.sampled_from([name, name.upper(), name.title()]))
    return draw(st.sampled_from(["", " "])) + prefix + spelled


@st.composite
def quote_cells(draw, text) -> list:
    """Open, high, low and close as the payload holds them: a valid bar or any
    four floats, written by ``text``, with up to one cell swapped for a
    non-decimal value."""
    if draw(st.sampled_from([True] * 4 + [False])):
        low, a, b, high = sorted(draw(st.lists(positive_quotes, min_size=4, max_size=4)))
        open_, close = draw(st.permutations([a, b]))
        cells = [text(q) for q in (open_, high, low, close)]
    else:
        cells = [text(q) for q in draw(st.lists(st.floats(), min_size=4, max_size=4))]
    if draw(st.sampled_from([False] * 5 + [True])):
        cells[draw(st.integers(0, 3))] = draw(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-5, 5),
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(NOT_QUOTE_TEXT),
                st.text(max_size=3),
            )
        )
    return cells


@st.composite
def provider_entry(draw, layouts: list, text) -> dict:
    """One day's entry. Its key layout is usually one drawn for the payload:
    full OHLC or close-only, with extra keys, in any order. Rarely it is
    partial, has no close, or names a field twice."""
    cells = draw(quote_cells(text))
    keys = draw(st.sampled_from(layouts))
    fault = draw(st.sampled_from([None] * 9 + ["partial", "no_close", "duplicate"]))
    if fault:
        keys = dict(keys)
        if fault == "partial":
            names = draw(st.sampled_from([("open", "close"), ("high", "low", "close")]))
            keys = {name: keys.get(name) or name for name in names}
        elif fault == "no_close":
            keys.pop("close", None)
        else:
            name = draw(st.sampled_from(sorted(keys)))
            keys[f"{name}#2"] = draw(field_key(name).filter(lambda key: key != keys[name]))
    index = dict(zip(("open", "high", "low", "close"), range(4)))
    entry = {key: cells[index[name.partition("#")[0]]] for name, key in keys.items()}
    for extra in draw(st.lists(st.sampled_from(EXTRA_KEYS), unique=True, max_size=2)):
        entry[extra] = draw(st.sampled_from(["100", "1.5", None]))
    order = draw(st.permutations(list(entry)))
    return {key: entry[key] for key in order}


@st.composite
def provider_entries(draw) -> dict:
    """A daily-series map of one to six entries in any date order, mixing
    one or two key layouts, now and then with a bad date key. Its quotes are
    written in one ``QUOTE_TEXT`` form."""
    layouts = []
    for _ in range(draw(st.integers(1, 2))):
        names = draw(st.sampled_from([("open", "high", "low", "close"), ("close",)]))
        layouts.append({name: draw(field_key(name)) for name in names})
    days = st.dates(dt.date(2022, 1, 1), dt.date(2022, 1, 20))
    days = draw(st.lists(days, min_size=1, max_size=6, unique=True))
    keys = [day.isoformat() for day in days]
    bad_key = draw(st.sampled_from([None] * 12 + list(BAD_DATE_KEYS)))
    if bad_key:
        keys[draw(st.integers(0, len(keys) - 1))] = bad_key
    keys = list(dict.fromkeys(keys))
    text = draw(st.sampled_from(QUOTE_TEXT))
    return {key: draw(provider_entry(layouts, text)) for key in draw(st.permutations(keys))}


def parsed(build):
    """What ``build()`` gives: its series' columns and synthesized flag, or its
    error's type and text."""
    try:
        series = build()
    except EventLensError as exc:
        return type(exc), str(exc)
    return series.dates.tolist(), series.quotes.tolist(), series.synthetic_ohlc


def named(outcome):
    """``outcome`` as ``parse_provider_payload`` gives it: an error's text
    after the symbol."""
    return (outcome[0], f"GOLD: {outcome[1]}") if len(outcome) == 2 else outcome


def json_walk(body: bytes):
    """What the parse gives with the scan refusing every payload: ``json.loads``
    plus the entry walk, the reference the scan is held to."""
    with mock.patch.object(eventlens.ingest, "_scan_payload", return_value=None):
        return parsed(lambda: parse_provider_payload(body, GOLD))


class Members(list):
    """A JSON object as its (key, value) members in order, so a key may repeat."""


# Payload text layouts as (indent, item separator, key separator), the way
# json.dumps writes them: compact, one line, 2 and 4 spaces, and a tab.
LAYOUTS = (
    (None, ",", ":"), (None, ", ", ": "), ("  ", ",", ": "), ("    ", ",", ": "), ("\t", ",", ": ")
)
PAYLOAD_FAULTS = (
    "repeated_date", "repeated_member", "nested_map", "second_map", "error_key", "escape",
    "non_ascii", "control_character",
)
# A series map whose entry is no scan's first entry: a number quote, or none.
SKIPPED_MAPS = ({"2022-01-07": {"close": 1.5}}, {"2022-01-07": {}})


def json_text(value, layout=LAYOUTS[2], ascii_only: bool = True, depth: int = 0) -> str:
    """``value`` as JSON text in ``layout``; a dict or Members is an object."""
    if not isinstance(value, (dict, Members)):
        return json.dumps(value, ensure_ascii=ascii_only)
    members = list(value.items()) if isinstance(value, dict) else value
    if not members:
        return "{}"
    indent, comma, colon = layout
    inner = "" if indent is None else "\n" + indent * (depth + 1)
    outer = "" if indent is None else "\n" + indent * depth
    items = (
        json.dumps(key, ensure_ascii=ascii_only)
        + colon
        + json_text(item, layout, ascii_only, depth + 1)
        for key, item in members
    )
    return "{" + inner + (comma + inner).join(items) + outer + "}"


def provider_document(entries, series_first: bool = False, **meta) -> Members:
    """The provider's document of a metadata object and the series map ``entries``."""
    members = [
        ("Meta Data", {"1. Information": "Daily Prices", "2. Symbol": "GOLD", **meta}),
        ("Time Series (Daily)", entries),
    ]
    return Members(members[::-1] if series_first else members)


@st.composite
def plain_entries(draw) -> dict:
    """Entries as a provider writes them: one key layout in one key order, and
    valid bars whose quotes are all written in one ``QUOTE_TEXT`` form."""
    names = draw(st.sampled_from([("open", "high", "low", "close"), ("close",)]))
    keys = {name: draw(field_key(name)) for name in names}
    extras = draw(st.lists(st.sampled_from(EXTRA_KEYS), unique=True, max_size=2))
    order = draw(st.permutations([*keys.values(), *extras]))
    text = draw(st.sampled_from(QUOTE_TEXT))
    days = st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31))
    entries = {}
    for day in draw(st.lists(days, min_size=1, max_size=8, unique=True)):
        low, a, b, high = sorted(draw(st.lists(st.floats(1e-3, 1e6), min_size=4, max_size=4)))
        open_, close = draw(st.permutations([a, b]))
        cells = dict(zip(("open", "high", "low", "close"), map(text, (open_, high, low, close))))
        values = {keys[name]: cells[name] for name in names}
        values |= {extra: draw(st.sampled_from(["100", "1.5", ""])) for extra in extras}
        entries[day.isoformat()] = {key: values[key] for key in order}
    return entries


@st.composite
def provider_payloads(draw) -> bytes:
    """``provider_entries`` or ``plain_entries`` as payload text: in any layout,
    the series map before or after the metadata, its entries in the drawn
    order, oldest first or newest first, often with one key order for every
    entry as a provider writes them. Now and then it has one fault: a repeated
    date or member, a nested or second series map, an error key, an escape,
    raw non-ASCII text or a control character."""
    entries = draw(st.one_of(provider_entries(), plain_entries()))
    if draw(st.booleans()):
        rank = {key: i for i, key in enumerate(next(iter(entries.values())))}
        entries = {
            day: dict(sorted(entry.items(), key=lambda item: rank.get(item[0], len(rank))))
            for day, entry in entries.items()
        }
    newest_first = draw(st.sampled_from([None, False, True]))
    if newest_first is not None:
        entries = dict(sorted(entries.items(), reverse=newest_first))
    series = Members(entries.items())
    document = provider_document(series, draw(st.booleans()))
    fault = draw(st.sampled_from([None] * 10 + list(PAYLOAD_FAULTS)))
    if fault == "repeated_date":
        day = draw(st.sampled_from(list(entries)))
        series.insert(draw(st.integers(0, len(series))), (day, draw(st.sampled_from(series))[1]))
    elif fault == "repeated_member":
        member = draw(st.sampled_from(["Meta Data", "Time Series (Daily)"]))
        value = {} if member == "Meta Data" else Members(series[:1])
        document.insert(draw(st.integers(0, 2)), (member, value))
    elif fault == "nested_map":
        meta = Members([("2. Symbol", "GOLD"), ("Time Series (Daily)", series)])
        document = Members([("Meta Data", meta)])
    elif fault == "second_map":
        weekly = draw(st.sampled_from([Members(series[-1:]), *SKIPPED_MAPS]))
        document.insert(draw(st.integers(0, 2)), ("Weekly Time Series", weekly))
    elif fault == "error_key":
        key = draw(st.sampled_from(["Error Message", "Note", "Information"]))
        document.insert(draw(st.integers(0, 2)), (key, "Thank you for using the API"))
    elif fault in ("escape", "non_ascii"):
        document.append(("Source", draw(st.sampled_from(['"quoted"', "a\\b", "café", "☃"]))))
    text = json_text(document, draw(st.sampled_from(LAYOUTS)), fault != "non_ascii")
    if fault == "control_character":
        # In place of a space or line break, or just inside or after a string.
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c in ' \n"']))
        control = draw(st.sampled_from("\x00\x0b\x0c\x1c\x1f"))
        text = text[:at] + control + text[at + (text[at] != '"') :]
    return text.encode()


@settings(deadline=None)
@given(body=provider_payloads())
@example(body=payload_bytes({"2022-01-04": entry(high="2.50"), "2022-01-03": entry()}))
def test_payload_scan_agrees_with_the_json_walk(body):
    expected = json_walk(body)
    assert parsed(lambda: parse_provider_payload(body, GOLD)) == expected
    scanned = _scan_payload(body, GOLD)
    if scanned is None:
        return
    series, data = scanned
    # What the scan accepts is the walk's series, flag and cache bytes.
    assert named(parsed(lambda: series)) == expected
    assert data == series_to_csv_bytes(series)


@settings(deadline=None)
@given(body=provider_payloads())
def test_every_payload_error_names_the_symbol_once(body):
    try:
        parse_provider_payload(body, GOLD)
    except ProviderError:
        return  # its text is the provider's own, after the symbol
    except DataFormatError as exc:
        assert str(exc).count("GOLD") == 1, str(exc)


@pytest.mark.parametrize(
    "entries,error,message", PAYLOAD_EDGE_CASES.values(), ids=PAYLOAD_EDGE_CASES.keys()
)
def test_entry_walk_names_each_payload_edge_case(entries, error, message):
    series_map = json.loads(payload_bytes(entries))["Time Series (Daily)"]
    with pytest.raises(EventLensError) as info:
        _walk_entries(GOLD, series_map)
    assert (type(info.value), str(info.value)) == (error, message)


def test_bulk_payload_parse_resolves_each_key_layout_once(monkeypatch):
    first = dt.date(2020, 1, 1)
    full = {
        (first + dt.timedelta(days=i)).isoformat(): {
            "1. open": "1.0",
            "2. high": "2.0",
            "3. low": "0.5",
            "4. close": repr(1 + i % 7 / 10),
            "5. volume": str(1000 + i),
        }
        for i in range(800)
    }
    mixed = {
        day: entry if i % 3 else {"close": entry["4. close"]}
        for i, (day, entry) in enumerate(full.items())
    }
    resolve = eventlens.ingest._match_fields
    calls = []

    def counted(keys, date_str):
        calls.append(tuple(keys))
        return resolve(keys, date_str)

    monkeypatch.setattr(eventlens.ingest, "_match_fields", counted)
    # The scan resolves the one layout once, from the first entry.
    series = parse_provider_payload(payload_bytes(full), GOLD)
    assert (len(series), series.synthetic_ohlc, calls) == (800, False, [tuple(full["2020-01-01"])])
    # It refuses two layouts after resolving the first, and the walk reads them.
    calls.clear()
    assert _scan_payload(payload_bytes(mixed), GOLD) is None
    assert calls == [("close",)]
    series = parse_provider_payload(payload_bytes(mixed), GOLD)
    monkeypatch.undo()
    walked = _walk_entries(GOLD, json.loads(payload_bytes(mixed))["Time Series (Daily)"])
    assert series == walked and series.synthetic_ohlc and walked.synthetic_ohlc
    assert series.quotes[:2].tolist() == [[1.0] * 4, [1.0, 2.0, 0.5, 1.1]]


# Three days, newest first as the provider writes them.
DAYS3 = {"2022-01-05": entry(high="2.25"), "2022-01-04": entry(), "2022-01-03": entry(open_="1.25")}
PROVIDER_KEYS = ("1. open", "2. high", "3. low", "4. close")


def document_text(entries, layout=LAYOUTS[2], **meta) -> str:
    """The provider's document of ``entries`` as JSON text in ``layout``."""
    return json_text(provider_document(entries, **meta), layout)


def numbered_entries(rows: dict) -> dict:
    """Entries with the provider's numbered keys and a volume, from day -> OHLC text."""
    return {
        day: {**dict(zip(PROVIDER_KEYS, cells)), "5. volume": "12345"}
        for day, cells in rows.items()
    }


FOUR_DECIMAL_ROWS = {
    "2022-01-04": ("1923.4500", "1930.0000", "1900.1000", "1925.0000"),
    "2022-01-03": ("1910.0000", "1924.3000", "1905.0000", "1923.4500"),
}
# 16 and 17 significant digits, each what repr writes for its float.
SEVENTEEN_DIGIT_ROWS = {
    "2022-01-04": (
        "1.2345678901234567", "2.0000000000000004", "0.5000000000000001", "1.5000000000000002"
    ),
    "2022-01-03": ("9.401870698993836", "9.401870698993836", "8.397381398802226", "9.000000000000002"),
}
# Each reads as the float of the same cell above, which repr writes instead.
NOT_REPR_ROWS = {
    "2022-01-04": (
        "1.2345678901234567", "2.0000000000000004", "0.50000000000000011", "1.5000000000000002"
    ),
    "2022-01-03": (
        "9.4018706989938357", "9.4018706989938357", "8.397381398802227", "9.0000000000000018"
    ),
}
SCAN_ACCEPTED = {
    **{
        name: document_text(DAYS3, layout)
        for name, layout in zip(("compact", "one_line", "indent_2", "indent_4", "tab"), LAYOUTS)
    },
    "crlf": document_text(DAYS3).replace("\n", "\r\n"),
    "oldest_first": document_text(dict(reversed(DAYS3.items()))),
    "one_entry": document_text({"2022-01-03": entry()}),
    "series_map_before_metadata": document_text(DAYS3, series_first=True),
    "four_decimal": document_text(numbered_entries(FOUR_DECIMAL_ROWS), LAYOUTS[3]),
    "seventeen_digit": document_text(numbered_entries(SEVENTEEN_DIGIT_ROWS)),
    "close_only": document_text(
        {"2022-01-04": {"4. close": "1.5"}, "2022-01-03": {"4. close": "1.25"}}
    ),
}


@pytest.mark.parametrize("text", SCAN_ACCEPTED.values(), ids=SCAN_ACCEPTED.keys())
def test_the_scan_reads_each_plain_payload(text):
    body = text.encode()
    assert _scan_payload(body, GOLD) is not None
    series, data = _parse_payload(body, GOLD)
    assert parsed(lambda: series) == json_walk(body)
    assert data == series_to_csv_bytes(series)


D3, D4, D5, D7 = (dt.date(2022, 1, day) for day in (3, 4, 5, 7))
BAR = [1.0, 2.0, 0.5, 1.5]
ONE_DAY = {"2022-01-03": entry()}
ONE_DAY_PARSED = ([D3], [BAR], False)
NO_MAP = (DataFormatError, "GOLD: payload has no daily series map")
NOT_JSON = "GOLD: payload is not valid JSON: "
TWO_DAYS = {"2022-01-04": entry(), "2022-01-03": entry()}
WEEKLY = ("Weekly", {"2022-01-07": entry()})
# Payloads the scan refuses, each with what the parse gives, as it gave it
# before the scan: the series' columns and flag, or the error's type and text.
SCAN_REFUSED = {
    "escaped_metadata": (document_text(ONE_DAY, Source='"quoted"'), ONE_DAY_PARSED),
    "non_ascii_metadata": (
        json_text(provider_document(ONE_DAY, Source="café"), ascii_only=False), ONE_DAY_PARSED
    ),
    "dates_out_of_order": (
        document_text({"2022-01-04": entry(), "2022-01-03": entry(), "2022-01-05": entry()}),
        ([D3, D4, D5], [BAR] * 3, False),
    ),
    "repeated_date": (
        document_text(Members([("2022-01-03", entry()), ("2022-01-03", entry(close="1.25"))])),
        ([D3], [[1.0, 2.0, 0.5, 1.25]], False),
    ),
    "repeated_series_member": (
        json_text(Members([*provider_document(ONE_DAY), ("Time Series (Daily)", TWO_DAYS)])),
        ([D3, D4], [BAR] * 2, False),
    ),
    "nested_series_map": (
        json_text({"Meta Data": {"2. Symbol": "GOLD", "Time Series (Daily)": ONE_DAY}}), NO_MAP
    ),
    "series_map_in_an_array": (
        json_text({"Meta Data": {}, "Time Series (Daily)": [ONE_DAY]}), NO_MAP
    ),
    "earlier_second_series_map": (
        json_text(Members([WEEKLY, *provider_document(ONE_DAY)])), ([D7], [BAR], False)
    ),
    "earlier_series_map_the_scan_skips": (
        json_text(Members([("Weekly", SKIPPED_MAPS[0]), *provider_document(ONE_DAY)])),
        (DataFormatError, "GOLD: unparseable close quote 1.5 for 2022-01-07"),
    ),
    "later_second_series_map": (
        json_text(Members([*provider_document(ONE_DAY), WEEKLY])), ONE_DAY_PARSED
    ),
    "error_key": (
        json_text(Members([("Note", "Thank you for using the API"), *provider_document(ONE_DAY)])),
        (ProviderError, "provider error for GOLD: Thank you for using the API"),
    ),
    "exponent_quote": (document_text({"2022-01-03": entry(open_="1e0")}), ONE_DAY_PARSED),
    "digits_repr_does_not_write": (
        document_text(numbered_entries(NOT_REPR_ROWS)),
        (
            [D3, D4],
            [list(map(float, NOT_REPR_ROWS[day])) for day in ("2022-01-03", "2022-01-04")],
            False,
        ),
    ),
    "no_point_quote": (document_text({"2022-01-03": entry(high="2")}), ONE_DAY_PARSED),
    "leading_zero_quote": (document_text({"2022-01-03": entry(open_="01.0")}), ONE_DAY_PARSED),
    "quote_below_1e_4": (
        document_text({"2022-01-03": entry(low="0.00005")}), ([D3], [[1.0, 2.0, 5e-05, 1.5]], False)
    ),
    "padded_quote": (document_text({"2022-01-03": entry(close=" 1.5")}), ONE_DAY_PARSED),
    "leading_point_quote": (document_text({"2022-01-03": entry(low=".5")}), ONE_DAY_PARSED),
    "inf_quote": (
        document_text({"2022-01-03": entry(high="inf")}),
        (BarInvariantError, "GOLD: non-finite quote on 2022-01-03"),
    ),
    "number_volume": (
        document_text({"2022-01-03": {**entry(), "volume": 100}}), ONE_DAY_PARSED
    ),
    "two_layouts": (
        document_text({"2022-01-04": entry(), "2022-01-03": {"close": "1.25"}}),
        ([D3, D4], [[1.25] * 4, BAR], True),
    ),
    "two_key_orders": (
        document_text({"2022-01-04": entry(), "2022-01-03": dict(reversed(entry().items()))}),
        ([D3, D4], [BAR] * 2, False),
    ),
    # Read in the first entry's key order, the second would still be a valid
    # bar, with its open and close swapped.
    "two_key_orders_each_a_valid_bar": (
        document_text(
            {"2022-01-04": entry(), "2022-01-03": {"close": "1.25", "high": "2.0", "low": "0.5", "open": "1.0"}}
        ),
        ([D3, D4], [[1.0, 2.0, 0.5, 1.25], BAR], False),
    ),
    "bad_date_key": (
        document_text({"2022-02-30": entry()}), (DataFormatError, "GOLD: bad date key '2022-02-30'")
    ),
    # numpy would read "0000002022" as 2022-01-01, and the first ten bytes of
    # "2022-01-033" as a day.
    "later_date_key_of_ten_digits": (document_text({"2022-01-04": entry(), "0000002022": entry()}), NO_MAP),
    "later_date_key_of_eleven_bytes": (document_text({"2022-01-04": entry(), "2022-01-033": entry()}), NO_MAP),
    "partial_ohlc": (
        document_text({"2022-01-03": {"open": "1.0", "close": "1.5"}}),
        (DataFormatError, "GOLD: entry 2022-01-03 has a partial OHLC set"),
    ),
    "two_closes": (
        document_text({"2022-01-03": {"close": "1.5", "4. close": "1.5"}}),
        (DataFormatError, "GOLD: entry 2022-01-03 has two close quotes"),
    ),
    "empty_entry": (
        document_text({"2022-01-04": entry(), "2022-01-03": {}}),
        (DataFormatError, "GOLD: entry 2022-01-03 has no close quote"),
    ),
    "form_feed_in_each_entry": (
        document_text(DAYS3).replace('": {\n      "open"', '":\x0c{\n      "open"'),
        (DataFormatError, NOT_JSON + "Expecting value: line 7 column 18 (char 130)"),
    ),
    "form_feed_between_entries": (
        document_text(DAYS3).replace('},\n    "2022', '},\x0c"2022'),
        (
            DataFormatError,
            NOT_JSON
            + "Expecting property name enclosed in double quotes: line 12 column 7 (char 223)",
        ),
    ),
    "control_character_in_a_later_volume": (
        document_text(
            {"2022-01-04": {**entry(), "volume": "1"}, "2022-01-03": {**entry(), "volume": "1\x1f"}}
        ).replace("\\u001f", "\x1f"),
        (DataFormatError, NOT_JSON + "Invalid control character at: line 19 column 19 (char 366)"),
    ),
    "control_character_in_a_volume": (
        document_text({"2022-01-03": {**entry(), "volume": "1\x1f"}}).replace("\\u001f", "\x1f"),
        (DataFormatError, NOT_JSON + "Invalid control character at: line 12 column 19 (char 235)"),
    ),
    "not_an_object": (
        f"[{json_text(ONE_DAY)}]", (DataFormatError, "GOLD: payload is not a JSON object")
    ),
    "missing_comma": (
        document_text(TWO_DAYS, LAYOUTS[0]).replace('},"2022', '}"2022'),
        (DataFormatError, NOT_JSON + "Expecting ',' delimiter: line 1 column 156 (char 155)"),
    ),
    "missing_comma_after_the_second_entry": (
        document_text(DAYS3, LAYOUTS[0]).replace('},"2022-01-03"', '}"2022-01-03"'),
        (DataFormatError, NOT_JSON + "Expecting ',' delimiter: line 1 column 224 (char 223)"),
    ),
    "text_after_the_object": (
        document_text(ONE_DAY, LAYOUTS[0]) + " x",
        (DataFormatError, NOT_JSON + "Extra data: line 1 column 159 (char 158)"),
    ),
}


@pytest.mark.parametrize("text,expected", SCAN_REFUSED.values(), ids=SCAN_REFUSED.keys())
def test_the_scan_refuses_and_the_parse_gives_what_it_gave_before(text, expected):
    body = text.encode()
    assert _scan_payload(body, GOLD) is None
    assert parsed(lambda: parse_provider_payload(body, GOLD)) == expected


def test_entries_that_stop_repeating_early_are_refused_before_any_json_parse():
    # The second entry lists its keys in another order, so the scanned rows
    # end before the map does: the scan refuses without parsing the rest.
    days = {"2022-01-05": entry(), "2022-01-04": dict(reversed(entry().items())), "2022-01-03": entry()}
    body = document_text(days).encode()
    with mock.patch.object(eventlens.ingest.json, "loads", side_effect=AssertionError) as loads:
        assert _scan_payload(body, GOLD) is None
    assert not loads.called


@pytest.mark.parametrize("limit", [True, False, 2.5, 1.0, float("inf"), float("nan"), "5", None])
def test_rate_limit_must_be_an_integer(tmp_path, limit):
    with pytest.raises(ConfigError, match="rate limit must be an integer, got "):
        RateLimiter(limit)
    with pytest.raises(ConfigError, match="rate limit must be an integer, got "):
        ProviderConfig(cache_dir=tmp_path, rate_limit=limit)


# --- short decimal quote text, the fetch-to-load round trip and the series-map check ---

DIGITS = "0123456789"
# Each cell that is a short decimal, and the text repr writes for its float.
SHORT_DECIMALS = {
    "0.0001": "0.0001",
    "1.23456789012345": "1.23456789012345",
    "98765432109876.5": "98765432109876.5",
    "0.12345678901234": "0.12345678901234",
    "123.0": "123.0",
    "1923.4500": "1923.45",
    "123.0000": "123.0",
    "0.00010": "0.0001",
    "0.940": "0.94",
    "1.50": "1.5",
    "100.5": "100.5",
    "99999999999.9999": "99999999999.9999",
}
# Cells outside the short decimals of 15 significant digits in 16 characters.
NOT_SHORT_DECIMALS = (
    "0.00001",  # repr writes 1e-05
    "0.000010",
    "8.397381398802227",  # 16 significant digits; repr writes 8.397381398802226
    "9.4018706989938357",  # 17 significant digits; repr writes 9.401870698993836
    "1.2345678901234567",  # 17 significant digits that happen to round-trip
    "0.1234567890123456",
    "123456789012345.0",
    "1.2345678901234500",  # 15 significant digits, but 18 characters
    "1.",
    "1900",
    "01.5",
    "+1.5",
    "1_0",
    "1e3",
    "\u0661.\u0665",
    "1.\u0665",
    "1\u0665.5",
    "0.0",
    "0.0000",
    ".5",
)


def less_trailing_zeros(cell: str) -> str:
    """A decimal ``cell`` less the zeros that end it, but the digit after its point."""
    whole, _, fraction = cell.partition(".")
    return f"{whole}.{fraction.rstrip('0') or '0'}"


def its_own_repr(cell: str) -> bool:
    """Whether ``cell`` is a positive quote with digits on each side of its
    point that, less its trailing zeros, is what repr writes for its float."""
    if not re.fullmatch(r"[0-9]+\.[0-9]+", cell):
        return False
    return float(cell) > 0 and less_trailing_zeros(cell) == repr(float(cell))


def short_decimal(cell: str) -> bool:
    """Whether ``cell`` is a decimal from 1e-4 below 1e16 in repr's fixed
    layout with at most 15 significant digits, which a binary64 float
    round-trips (C's DBL_DIG): less its trailing zeros, what repr writes.
    An integer from 2**53 is left out: the proof leaves "I.0" undecided there."""
    if not re.fullmatch(r"(?:0|[1-9][0-9]*)\.[0-9]+", cell):
        return False
    value = Decimal(cell)
    if value >= 2**53 and value == value.to_integral_value():
        return False
    return Decimal("1e-4") <= value < Decimal("1e16") and len(value.normalize().as_tuple().digits) <= 15


def one_day(cell: str) -> bytes:
    """A payload of one day quoting ``cell`` for each of its four quotes."""
    return payload_bytes({"2022-01-03": entry(cell, cell, cell, cell)})


def fetch_and_load(directory: Path, body: bytes) -> None:
    """Fetch ``body`` into the cache ``directory`` and load the file back.

    The fetch gives what the JSON walk gives and writes its series' bytes,
    and ``load_csv`` returns that series with the same digest, through the
    proof (no row walk) when the scan read the payload."""
    expected = json_walk(body)
    config = ProviderConfig(cache_dir=directory, rate_limit=1)
    path = directory / "GOLD.csv"
    try:
        fetched = fetch_daily(GOLD, config, lambda url: body)
    except EventLensError as exc:
        assert (type(exc), str(exc)) == expected
        assert not path.exists()
        return
    assert parsed(lambda: fetched) == expected
    with mock.patch.object(eventlens.ingest, "_scan_payload", return_value=None):
        walked = parse_provider_payload(body, GOLD)
    assert path.read_bytes() == series_to_csv_bytes(walked)
    with mock.patch.object(eventlens.ingest, "_walk_rows", wraps=_walk_rows) as walk:
        loaded = load_csv(path, GOLD)
    assert loaded == walked
    assert loaded.digest == fetched.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    if _scan_payload(body, GOLD) is not None:
        assert not walk.called


@st.composite
def decimal_text(draw) -> str:
    """Text near the short decimal grammar: digit runs around a point, with
    leading zeros, trailing zeros and 15 to 17 digits all common."""
    if draw(st.booleans()):
        digits = str(draw(st.integers(10**14, 10**17 - 1)))
        point = draw(st.integers(1, len(digits) - 1))
        return f"{digits[:point]}.{digits[point:]}"
    whole = draw(st.one_of(st.just("0"), st.text(DIGITS, min_size=1, max_size=17)))
    zeros = "0" * draw(st.integers(0, 5))
    return f"{whole}.{zeros}{draw(st.text(DIGITS, max_size=17))}{'0' * draw(st.integers(0, 3))}"


cell_texts = st.one_of(
    decimal_text(),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.builds(round, st.floats(0.0, 1e6), st.integers(0, 15)).map(repr),
    st.floats(0.0, 1e12).map("{:.4f}".format),
    st.text(DIGITS + ".+-_e\u0661\uff11", max_size=18),
)


@settings(max_examples=1000)
@given(cell=cell_texts)
@example(cell="9549425271142520.0")
def test_a_short_decimal_less_its_trailing_zeros_is_its_own_repr(cell):
    # The scan reads every short decimal, and no cell but one that, less its
    # trailing zeros, is repr's; the file it writes holds that text.
    scanned = _scan_payload(one_day(cell), GOLD)
    assert scanned is not None or not short_decimal(cell)
    if scanned is not None:
        assert its_own_repr(cell)
        assert scanned[1] == csv_bytes((CSV_HEADER,), [[DAY, *[less_trailing_zeros(cell)] * 4]])


@settings(max_examples=1000)
@given(cell=cell_texts)
def test_a_cell_of_at_most_16_bytes_is_read_from_its_digits_as_float_reads_it(cell):
    # Digits around one point, no leading "0" but in "0.", from 1e-4 up and
    # at most 16 bytes: the scan reads such a cell itself, and only such a
    # cell, without the file proof; any cell it reads is float's.
    with mock.patch.object(eventlens.ingest, "_proved_columns", wraps=_proved_columns) as proof:
        scanned = _scan_payload(one_day(cell), GOLD)
    digits = re.fullmatch(r"(?:0|[1-9][0-9]*)\.[0-9]+", cell) and len(cell) <= 16
    assert (scanned is not None and not proof.called) == bool(digits and float(cell) >= 1e-4)
    if scanned is not None:
        assert scanned[0].quotes.ravel().tolist() == [float(cell)] * 4


@given(quote=st.floats(1e-4, 1e10))
def test_every_four_decimal_quote_from_1e_4_to_1e10_is_a_short_decimal(quote):
    # The provider's own dialect, so a fetch of it never walks the entries.
    cell = f"{quote:.4f}"
    assert short_decimal(cell)
    assert _scan_payload(one_day(cell), GOLD) is not None


@pytest.mark.parametrize("cell", [*SHORT_DECIMALS, *NOT_SHORT_DECIMALS])
def test_short_decimal_boundaries(tmp_path, cell):
    scanned = _scan_payload(one_day(cell), GOLD)
    assert (scanned is not None) == its_own_repr(cell)
    if cell in SHORT_DECIMALS:
        assert scanned[1] == csv_bytes((CSV_HEADER,), [[DAY, *[SHORT_DECIMALS[cell]] * 4]])
    fetch_and_load(tmp_path, one_day(cell))


@st.composite
def four_decimal_payloads(draw) -> bytes:
    """A payload as the provider writes it: valid bars quoted to four
    decimals, newest first, with numbered keys and a volume; now and then
    every quote below one."""
    scale = draw(st.sampled_from([1.0, 1.0, 1 / 4000]))
    days = draw(st.lists(st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31)), min_size=1, max_size=8, unique=True))
    rows = {}
    for day in sorted(days, reverse=True):
        low, a, b, high = sorted(draw(st.lists(st.floats(1.0, 3000.0), min_size=4, max_size=4)))
        rows[day.isoformat()] = tuple(f"{q * scale:.4f}" for q in (a, high, low, b))
    return document_text(numbered_entries(rows), draw(st.sampled_from(LAYOUTS))).encode()


@settings(deadline=None)
@given(body=st.one_of(provider_payloads(), four_decimal_payloads()))
def test_a_fetched_cache_file_is_the_walks_and_loads_back_through_the_proof(tmp_path_factory, body):
    fetch_and_load(tmp_path_factory.mktemp("cache"), body)


def quoted_days(text, days: int, seed: int) -> dict:
    """``days`` entries of valid bars from 1 up, newest first, each quote written by ``text``."""
    rng = np.random.default_rng(seed)
    first = dt.date(2019, 1, 1)
    rows = {}
    for i in range(days):
        low, a, b, high = np.sort(rng.uniform(1.0, 3000.0, 4)).tolist()
        day = (first + dt.timedelta(days=i)).isoformat()
        rows[day] = tuple(map(text, (a, high, low, b)))
    return dict(reversed(rows.items()))


def test_a_fetch_of_provider_or_generator_text_never_walks_the_entries(tmp_path, monkeypatch):
    walk = mock.Mock(wraps=_walk_entries)
    monkeypatch.setattr(eventlens.ingest, "_walk_entries", walk)
    dialects = {
        "provider": (lambda q: f"{q:.4f}", LAYOUTS[3]),
        "generator": (lambda q: repr(round(q, 4)), LAYOUTS[2]),
        "below_one": (lambda q: f"{q / 4000:.4f}", LAYOUTS[3]),
    }
    for name, (text, layout) in dialects.items():
        body = document_text(numbered_entries(quoted_days(text, 300, seed=7)), layout).encode()
        config = ProviderConfig(cache_dir=tmp_path / name, rate_limit=1)
        series = fetch_daily(GOLD, config, lambda url: body)
        assert (tmp_path / name / "GOLD.csv").read_bytes() == series_to_csv_bytes(series)
    assert not walk.called


def test_a_fetched_and_a_loaded_series_carry_the_digest_of_their_bytes(tmp_path):
    # The scan reads "1923.4500" and seeds the digest; it refuses the
    # exponent, and the walk's series computes its digest.
    for name, high in (("scanned", "1923.4500"), ("walked", "1.92345e3")):
        body = payload_bytes({"2022-01-04": entry(high=high), "2022-01-03": entry()})
        fetched = fetch_daily(GOLD, ProviderConfig(cache_dir=tmp_path / name), lambda url: body)
        loaded = load_csv(tmp_path / name / "GOLD.csv", GOLD)
        for series in (fetched, loaded):
            assert series.digest == hashlib.sha256(series_to_csv_bytes(series)).hexdigest(), name


def test_no_module_writes_an_attribute_through_vars_or_dict():
    # A digest is seeded only by RawSeries.from_csv_bytes, after the proof.
    package = Path(eventlens.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
                assert not (isinstance(target, ast.Call) and getattr(target.func, "id", "") == "vars"), path
                assert not (isinstance(target, ast.Attribute) and target.attr == "__dict__"), path


date_keys = st.one_of(
    st.dates().map(dt.date.isoformat),
    st.sampled_from(["2022-01-03\n2022-01-04", "2022-01-03\n", "\uff12\uff10\uff12\uff12-01-03"]),
    st.text(DIGITS + "-\n\uff12", max_size=12),
)


@given(
    value=st.one_of(
        st.dictionaries(date_keys, st.sampled_from([{}, {"close": "1.5"}, "1.5", None]), max_size=4),
        st.sampled_from([[], "2022-01-03", None]),
    )
)
def test_series_map_check_agrees_with_a_per_key_match(value):
    per_key = (
        isinstance(value, dict)
        and bool(value)
        and all(re.fullmatch(r"\d{4}-\d{2}-\d{2}", key) for key in value)
        and all(isinstance(entry, dict) for entry in value.values())
    )
    assert _is_series_map(value) == per_key


# --- load_csv's byte-level proof that each quote cell is repr of its float --------------

import math  # noqa: E402
import warnings  # noqa: E402
from decimal import (  # noqa: E402
    ROUND_DOWN,
    ROUND_HALF_EVEN,
    ROUND_HALF_UP,
    ROUND_UP,
    Context,
    Decimal,
)

from eventlens.ingest import CSV_HEADER, _proved_columns, csv_bytes  # noqa: E402

from conftest import SYNTHETIC_DIR  # noqa: E402

# 1258664062291215.25 is a float, halfway between the two shortest decimals
# that read back as it: repr writes the even one, 1258664062291215.2.
TIE = 1258664062291215.25
DAY = "2022-01-03"


def csv_file(cells: list[str], dates: list[str] | None = None) -> bytes:
    """A CSV file of ``cells`` four a row, the last row padded with "1.5",
    each row after a cell of ``dates`` (by default ``DAY``)."""
    cells = cells + ["1.5"] * (-len(cells) % 4)
    dates = dates or [DAY] * (len(cells) // 4)
    rows = [[date, *cells[4 * i : 4 * i + 4]] for i, date in enumerate(dates)]
    return csv_bytes((CSV_HEADER,), rows)


def proved(data: bytes):
    """``_proved_columns(data)``, with numpy's warnings as errors: a warning
    would reach a CLI user's stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _proved_columns(data)


# The proof drops each temporary after its last use. Before it did, a file of
# 100 to 3,000 such rows peaked at 15.4 to 15.7 bytes per byte of text; it now
# peaks near 9.4, and the bound leaves 4 bytes per byte of margin below 15.
PROOF_PEAK_PER_BYTE = 11


@pytest.mark.parametrize("rows", [100, 1000])
def test_the_proof_peaks_at_a_bounded_multiple_of_its_text(rows):
    data = series_to_csv_bytes(random_series("PEAK", rows, np.random.default_rng(rows)))
    assert _proved_columns(data) is not None
    tracemalloc.start()
    try:
        _proved_columns(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PROOF_PEAK_PER_BYTE * len(data)


@st.composite
def repr_like_cells(draw) -> str:
    """A float inside or outside [1e-4, 1e16), or a neighbour of one, written
    by repr or to 15, 16 or 17 significant digits, then maybe edited: the last
    digit set, a digit appended or dropped, a trailing or a leading "0"."""
    x = draw(
        st.one_of(st.floats(1e-4, 1e16), st.floats(), st.floats(1e-6, 1e-3), st.floats(1e14, 1e18))
    )
    x = draw(st.sampled_from([x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]))
    text = draw(st.sampled_from(["{!r}", "{:.15g}", "{:.16g}", "{:.17g}"])).format(x)
    digit = draw(st.sampled_from(DIGITS))
    at = draw(st.integers(0, len(text) - 1))
    edits = [text[:-1] + digit, text + digit, text[:at] + text[at + 1 :], text + "0", "0" + text]
    return draw(st.sampled_from([text, *edits]))


def cut_decimal(x: float, digits: int, rounding: str) -> str:
    """The exact decimal of ``x`` rounded to ``digits`` fraction digits: a
    tie's two candidates when its exact decimal ends in 5 just past them."""
    return f"{Decimal(x).quantize(Decimal(10) ** -digits, rounding, Context(prec=80)):f}"


proof_cells = st.one_of(
    repr_like_cells(),
    st.builds(
        cut_decimal,
        st.floats(1e-7, 1e16),
        st.integers(1, 25),
        st.sampled_from([ROUND_HALF_EVEN, ROUND_HALF_UP, ROUND_DOWN, ROUND_UP]),
    ),
    # Exact ties from 2**50, where floats step by 0.25.
    st.builds("{}.{}".format, st.integers(2**50, 2**51 - 1), st.sampled_from("2378")),
    st.integers(2**53, 10**17).map("{}.0".format),
)
date_cells = st.one_of(
    st.dates().map(dt.date.isoformat),
    st.sampled_from(["2019-02-30", "2019-02-29", "0000-01-01", "2019-13-01", "2019-00-10"]),
    st.sampled_from(["2019-1-01", "2019-01-1", "20190-1-01", "2019/01/01", "+019-01-01"]),
    st.text(DIGITS + "-", min_size=8, max_size=12),
)


def iso_date(cell: str) -> bool:
    with suppress(ValueError):
        return dt.date.fromisoformat(cell).isoformat() == cell
    return False


@settings(deadline=None)
@given(
    cells=st.lists(proof_cells, min_size=1, max_size=16),
    dates=st.lists(date_cells, min_size=4, max_size=4),
)
@example(cells=[cut_decimal(TIE, 1, ROUND_HALF_EVEN)], dates=[DAY] * 4)
@example(cells=[cut_decimal(TIE, 1, ROUND_HALF_UP)], dates=[DAY] * 4)
@example(cells=["9007199254740993.0", "1.5"], dates=[DAY] * 4)
@example(cells=["0.00001"], dates=[DAY] * 4)
@example(cells=["01.5"], dates=[DAY] * 4)
@example(cells=["1_0.5"], dates=[DAY] * 4)
@example(cells=["1234567890123456789012.5"], dates=[DAY] * 4)
@example(cells=["0.29999999999999999"], dates=[DAY] * 4)  # repr writes "0.3"
@example(cells=["1.50"], dates=[DAY] * 4)
@example(cells=["0.00012345678901234567"], dates=["0000-01-01"] * 4)
@example(cells=["1.5"], dates=["2022-01-031"] * 4)
@example(cells=["1.5"], dates=["20220-01-03"] * 4)
@example(cells=["0.00012345678901234567"], dates=["2019-02-30"] * 4)
def test_the_repr_proof_accepts_no_cell_repr_writes_otherwise(cells, dates):
    rows = -(-len(cells) // 4)
    data = csv_file(cells, dates[:rows])
    try:
        columns = proved(data)
    except ValueError:
        # Only a date naming no day is refused so, and only one in the shape.
        assert not all(map(iso_date, dates[:rows]))
        return
    if columns is not None:
        days, quotes = columns
        assert np.datetime_as_string(days).tolist() == dates[:rows]
        assert all(map(iso_date, dates[:rows]))
        cells = data.decode("ascii").replace("\n", ",").split(",")[5:-1]
        del cells[::5]
        x = quotes.ravel().tolist()
        assert [float(c).hex() for c in cells] == [v.hex() for v in x]
        assert list(map(repr, x)) == cells


@settings(deadline=None)
@given(
    x=st.one_of(
        st.floats(1e-4, 1e16, exclude_max=True),
        st.floats(1e-4, 1e-1),  # leading zeros in the fraction
        st.floats(1e14, 1e16, exclude_max=True),  # ties are common here
        st.builds(float, st.integers(1, 2**53)),
        st.integers(2**50, 2**51 - 1).map(lambda i: i + 0.25),  # an exact tie
    )
)
@example(x=TIE)
@example(x=0.00012345678901234567)
@example(x=2.0**53 - 1)
@example(x=1e-4)
@example(x=9999999999999998.0)
def test_the_repr_proof_decides_every_repr_from_1e_4_to_1e16(x):
    columns = proved(csv_file([repr(x)]))
    assert columns is not None or (repr(x).endswith(".0") and x >= 2**53)
    assert columns is None or columns[1][0, 0] == x


@given(
    cell=st.one_of(
        decimal_text(),
        st.builds(round, st.floats(0.0, 1e6), st.integers(0, 15)).map(repr),
        st.floats(0.0, 1e12).map("{:.4f}".format),
    )
)
def test_the_repr_proof_decides_every_short_decimal(cell):
    # So a cache file a fetch writes from four-decimal text loads without repr.
    if short_decimal(cell):
        assert proved(csv_file([less_trailing_zeros(cell)])) is not None


def test_the_byte_proof_reads_each_cell_as_float_does():
    cells = ["0.5", "10.25", "123.0", "0.0001", "0.00012345678901234567", "1.2345678901234567"]
    cells += ["9007199254740991.0", "1234567890123456.8", "0.1", "99.99999999999999"]
    days, quotes = proved(csv_file(cells, ["0001-01-01", "2020-02-29", "9999-12-31"]))
    assert np.datetime_as_string(days).tolist() == ["0001-01-01", "2020-02-29", "9999-12-31"]
    assert quotes.ravel().tolist()[: len(cells)] == list(map(float, cells))


@pytest.mark.parametrize(
    "cells",
    [
        ["15", "1-5.5"],  # no point in one cell, a sign in the other
        ["1_0.5"],
        ["1.5e00"],
        ["01.5"],
        ["00.5"],
        [".5"],
        ["5."],
        ["1..5"],
        ["1.5.5"],
        ["1.5", ""],
        [" 1.5"],
        ["1.5 "],
        ["+1.5"],
        ["-1.5"],
        ["1." + "1" * 23],
    ],
)
def test_the_decimal_layout_refuses_every_other_cell(cells):
    assert proved(csv_file(cells)) is None


@pytest.mark.parametrize(
    "text",
    [
        "2022-01-03,1.5,1.5,1.5,1.5",  # no newline at the end
        "2022-01-03,1.5,1.5,1.5\n",
        "2022-01-03,1.5,1.5,1.5,1.5,1.5\n",
        "2022-01-03,1.5,1.5,1.5,1.5\n\n",
        "2022-1-03,1.5,1.5,1.5,1.5\n",
        "2022-01-031,1.5,1.5,1.5\n",
        "2022-01-031,1.5,1.5,1.5,1.5\n",
        "2022-001-03,1.5,1.5,1.5,1.5\n",
        "20220-01-03,1.5,1.5,1.5,1.5\n",
        "2022-01-03,1.5,1.5,1.5,1.5\n5",
        "20220-1-03,1.5,1.5,1.5,1.5\n",
        "2022/01/03,1.5,1.5,1.5,1.5\n",
        "0000-01-03,1.5,1.5,1.5,1.5\n",
        "2022-01-03,1.5,1.5,1.5,1.5\n2022-01-04,1.5,1.5,1.5\n",
        "2022-01-03,1.5,1.5,1.5,1.5\r\n",
        "2022-01-03,1.5,1.5,1.5,1.5\n 2022-01-04,1.5,1.5,1.5,1.5\n",
        "2022-01-03,123456789012345678.0,1.5,1.5,1.5\n",  # C >= 10**17
        "2022-01-03,0.00000000000000000000005,1.5,1.5,1.5\n",  # k > 22
    ],
)
def test_the_byte_proof_refuses_every_other_line(text):
    assert proved(f"{CSV_HEADER}\n{text}".encode("ascii")) is None


@pytest.mark.parametrize("day", ["2019-02-30", "2019-02-29", "2019-13-01", "2019-00-10", "2019-01-00"])
def test_a_date_naming_no_day_is_a_value_error(day):
    with pytest.raises(ValueError):
        _proved_columns(csv_file(["1.5"], [day]))


def test_every_synthetic_fixture_quote_is_proved_without_repr(monkeypatch):
    def refused(value):
        raise AssertionError(f"called on {value!r}")

    monkeypatch.setattr(eventlens.ingest, "float", refused, raising=False)
    monkeypatch.setattr(eventlens.ingest, "repr", refused, raising=False)
    paths = sorted(SYNTHETIC_DIR.glob("*/*.csv"))
    assert len(paths) == 12
    for path in paths:
        digest = load_csv(path, InstrumentId(path.stem, InstrumentKind.EQUITY)).digest
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_canonical_file_holding_a_tie_is_proved(tmp_path, monkeypatch):
    series = make_series("GOLD", dt.date(2022, 1, 3), [1.5, TIE, 2.25])
    path = tmp_path / "GOLD.csv"
    write_csv(series, path)
    assert b",1258664062291215.2," in path.read_bytes()
    assert proved(path.read_bytes())[1].tolist() == series.quotes.tolist()
    monkeypatch.setattr(eventlens.ingest, "repr", None, raising=False)
    loaded = load_csv(path, series.instrument)
    assert loaded == series
    assert loaded.digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("close", [5e-05, 2.0**53 + 2, 1e16, 0.5e-4])
def test_a_canonical_file_the_proof_leaves_undecided_loads_through_the_walk(tmp_path, close):
    # Below 1e-4 and from 1e16 repr writes an exponent; from 2**53 an "I.0"
    # cell is left undecided. The row walk reads such a file and its rewrite.
    series = make_series("GOLD", dt.date(2022, 1, 3), [1.5, close, 2.25])
    path = tmp_path / "GOLD.csv"
    write_csv(series, path)
    assert proved(path.read_bytes()) is None
    loaded = load_csv(path, series.instrument)
    assert loaded == series
    assert loaded.digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_cell_of_18_significant_digits_is_refused_as_the_walk_refuses_it(tmp_path):
    path = tmp_path / "GOLD.csv"
    path.write_bytes(csv_file(["1.23456789012345678", "2.5", "1.0", "1.5"]))
    assert proved(path.read_bytes()) is None
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:2: not canonical: "):
        load_csv(path, GOLD)


# --- batched cache loads ---------------------------------------------------------

from eventlens import fetch_universe  # noqa: E402
from eventlens.cli import _offline_transport  # noqa: E402

# Cache files of every kind ``fetch_universe`` meets: ones the proof accepts,
# a header with no rows, and ones that reach ``load_csv`` file by file: a
# quote below 1e-4 the proof cannot decide, a malformed row, a date naming no
# day, a broken bar or an unordered file the proof accepts, a non-ASCII or
# CRLF file, a header of the right length but the wrong text, and a miss the
# offline transport refuses.
CACHE_FILES = (
    *["proved"] * 4,
    "one_row",
    "header_only",
    "below_1e_4",
    "malformed_row",
    "impossible_date",
    "broken_bar",
    "out_of_order",
    "non_ascii",
    "crlf",
    "wrong_header",
    "missing",
)
IMPOSSIBLE_DAYS = ("2019-02-29", "2021-02-30", "2022-04-31", "2022-13-01", "2022-00-10")


@st.composite
def cache_file(draw, kind: str) -> bytes | None:
    """The bytes of one cache file of ``kind``; None for a missing one."""
    if kind == "missing":
        return None
    series = draw(raw_series(quotes=st.floats(min_value=1e-3, max_value=1e9)).filter(len))
    lines = series_to_csv_bytes(series).decode("ascii").split("\n")[1:-1]
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(",")
    if kind == "header_only":
        lines = []
    elif kind == "one_row":
        lines = [lines[i]]
    elif kind == "below_1e_4":
        tiny = draw(st.floats(min_value=1e-9, max_value=1e-4, exclude_max=True))
        lines[i] = ",".join([cells[0], *[repr(tiny)] * 4])
    elif kind == "malformed_row":
        lines[i] = ",".join(cells[: draw(st.integers(1, 4))])
    elif kind == "impossible_date":
        lines[i] = ",".join([draw(st.sampled_from(IMPOSSIBLE_DAYS)), *cells[1:]])
    elif kind == "broken_bar":
        lines[i] = ",".join([cells[0], cells[1], cells[3], cells[2], cells[4]])
    elif kind == "out_of_order":
        lines.reverse()
    elif kind == "non_ascii":
        lines[i] = lines[i].replace("-", "\u2212", 1)
    header = CSV_HEADER.upper() if kind == "wrong_header" else CSV_HEADER
    text = "".join(f"{line}\n" for line in [header, *lines])
    return text.replace("\n", "\r\n" if kind == "crlf" else "\n").encode("utf-8")


def universe_outcome(build):
    """Each series' instrument, columns' bits, digest and close-only flag, or
    the error's type and text."""
    try:
        return [
            (s.instrument, s.dates.tobytes(), s.quotes.tobytes(), s.digest, s.synthetic_ohlc)
            for s in build()
        ]
    except EventLensError as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(
    files=st.lists(st.sampled_from(CACHE_FILES).flatmap(cache_file), min_size=1, max_size=8),
    budget=st.integers(0, 4000),
)
def test_a_batched_universe_load_is_the_fetch_daily_loop(tmp_path_factory, files, budget):
    # The batch bound cut down to a few rows puts batch edges everywhere.
    config = ProviderConfig(cache_dir=tmp_path_factory.mktemp("universe"), rate_limit=100)
    instruments = [InstrumentId(f"S{i}", InstrumentKind.EQUITY) for i in range(len(files))]
    for instrument, data in zip(instruments, files):
        if data is not None:
            (config.cache_dir / f"{instrument.symbol}.csv").write_bytes(data)
    expected = universe_outcome(
        lambda: [fetch_daily(instrument, config, _offline_transport) for instrument in instruments]
    )
    with mock.patch.object(eventlens.ingest, "LOAD_BATCH_BYTES", budget):
        batched = universe_outcome(lambda: fetch_universe(instruments, config, _offline_transport))
    assert batched == expected


def test_files_of_one_size_are_proved_in_batches_up_to_the_bound_and_never_loaded_alone(
    tmp_path, monkeypatch
):
    config = make_config(tmp_path)
    instruments = [InstrumentId(f"S{i}", InstrumentKind.EQUITY) for i in range(7)]
    for i, instrument in enumerate(instruments):
        series = make_series(instrument.symbol, dt.date(2022, 1, 3), [1.5 + i, 2.5])
        write_csv(series, config.cache_dir / f"{instrument.symbol}.csv")
    expected = universe_outcome(lambda: [fetch_daily(i, config) for i in instruments])
    size = (config.cache_dir / "S0.csv").stat().st_size
    batches = []

    def proof(data):
        batches.append(data.count(b"\n") - 1)
        return _proved_columns(data)

    def refused(*args):
        raise AssertionError("a proved file is loaded alone")

    monkeypatch.setattr(eventlens.ingest, "_proved_columns", proof)
    monkeypatch.setattr(eventlens.ingest, "load_csv", refused)
    # Three files fill the bound exactly: a fourth of their size would pass it.
    monkeypatch.setattr(eventlens.ingest, "LOAD_BATCH_BYTES", 3 * size)
    assert universe_outcome(lambda: fetch_universe(instruments, config)) == expected
    assert batches == [6, 6, 2]
