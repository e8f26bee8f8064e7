from __future__ import annotations

import ast
import datetime as dt
import hashlib
import json
import os
import re
import stat
import sys
from contextlib import suppress
from pathlib import Path

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
    RateLimiter,
    RawSeries,
    fetch_daily,
    load_csv,
    parse_provider_payload,
    series_to_csv_bytes,
    write_csv,
)
import eventlens
from eventlens.ingest import _walk_rows, provider_url, write_atomic

from conftest import make_bar, make_series, random_series, series_of

GOLD = InstrumentId("GOLD", InstrumentKind.COMMODITY)
RUBCNY = InstrumentId("RUBCNY", InstrumentKind.FX_PAIR)


def payload_bytes(entries: dict, series_key: str = "Time Series (Daily)") -> bytes:
    return json.dumps({"Meta Data": {"2. Symbol": "X"}, series_key: entries}).encode()


# --- DailyBar / RawSeries invariants -----------------------------------------


def test_daily_bar_accepts_valid_quotes():
    bar = DailyBar(dt.date(2022, 1, 3), open=1.0, high=2.0, low=0.5, close=1.5)
    assert bar.close == 1.5


@pytest.mark.parametrize(
    "open_,high,low,close",
    [
        (1.0, 0.5, 2.0, 1.5),  # high < low
        (3.0, 2.0, 0.5, 1.5),  # open above high
        (1.0, 2.0, 0.5, 2.5),  # close above high
        (0.4, 2.0, 0.5, 1.5),  # open below low
        (-1.0, 2.0, 0.5, 1.5),  # non-positive
        (float("nan"), 2.0, 0.5, 1.5),  # non-finite
    ],
)
def test_daily_bar_rejects_invalid_quotes(open_, high, low, close):
    with pytest.raises(BarInvariantError, match="2022-01-03"):
        DailyBar(dt.date(2022, 1, 3), open_, high, low, close)


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
    if name in ("write_bytes", "write_text"):
        return True
    if owner == "os" and name in ("replace", "rename", "open", "fdopen"):
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
    open(path)
    path.open()
    path.read_bytes()
"""
    callees = [callee for _, callee in file_write_sites(source, "m")]
    assert callees == [
        "path.write_bytes", "path.write_text", "open", "open", "path.open", "os.fdopen", "os.replace"
    ]


def test_write_atomic_is_the_only_file_writer():
    # A second writer (a bare write_bytes, its own temp-and-rename) would
    # bypass the atomicity and unique temp names every output relies on.
    sites = [
        site
        for path in sorted(Path(eventlens.__file__).parent.glob("*.py"))
        for site in file_write_sites(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert {scope for scope, _ in sites} == {"ingest.write_atomic"}, sites
    assert [callee for _, callee in sites].count("os.replace") == 1


def names_used(source: str, imports: bool = True) -> set[str]:
    """Every name and attribute in source, and every name it imports if ``imports``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and imports:
            names.add(node.asname or node.name)
    return names


def test_only_ingest_knows_the_csv_format():
    # Data digests come from RawSeries.digest; a module serializing a
    # series itself would be a second place that knows the CSV layout.
    # The package's __init__ may import it to re-export it, and nothing more.
    users = {
        path.stem
        for path in Path(eventlens.__file__).parent.glob("*.py")
        if "series_to_csv_bytes" in names_used(path.read_text(), imports=path.stem != "__init__")
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

    def no_network(url, timeout=30.0):
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
        [row("2022-01-05"), row("2022-01-06", high="inf")], BAR, "non-finite quote on 2022-01-06"
    ),
    "nan_quote": ([row("2022-01-06", close="nan")], BAR, "non-finite quote on 2022-01-06"),
    "zero_quote": ([row("2022-01-03", "0.0", low="0.0")], BAR, "non-positive quote on 2022-01-03"),
    "unparseable_quote": (
        [row("2022-01-06", low="n/a")], DATA, "unparseable low quote 'n/a' for 2022-01-06"
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
        OHLC_ERROR.format(date="2022-01-04"),
    ),
    "duplicate_then_bad_ohlc": (
        [row("2022-01-03"), row("2022-01-03"), BAD_OHLC_ROW],
        DATA,
        "{path}:3: duplicate date 2022-01-03",
    ),
    "unsorted_bad_rows": (
        [BAD_OHLC_ROW, row("2022-01-03", "-1.0")], BAR, OHLC_ERROR.format(date="2022-01-04")
    ),
    "bad_quote_then_bad_date": (
        [row("2022-01-03", low="x"), row("NaT")], DATA, "unparseable low quote 'x' for 2022-01-03"
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
    path.write_text("date,open,high,low,close\n" + "".join(row + "\n" for row in rows))
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
    assert str(info.value) == message


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
        "payload for GOLD has no daily series map",
    ),
    "fullwidth_digit_key": (
        {"\uff12\uff10\uff12\uff12-01-03": entry()},
        DATA,
        "bad date key '\uff12\uff10\uff12\uff12-01-03'",
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


# --- the bulk payload decode against the entry walk ----------------------------------

from eventlens.ingest import (  # noqa: E402
    _SHORT_DECIMALS,
    _TRAILING_ZEROS,
    _decode_entries,
    _fetched_csv_bytes,
    _is_series_map,
    _parse_payload,
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


@settings(deadline=None, max_examples=300)
@given(entries=provider_entries())
@example(entries={"2022-01-04": entry(high="2.50"), "2022-01-03": entry()})
def test_bulk_payload_parse_agrees_with_the_entry_walk(entries):
    body = payload_bytes(entries)
    series_map = json.loads(body)["Time Series (Daily)"]
    expected = parsed(lambda: _walk_entries(GOLD, series_map))
    assert parsed(lambda: parse_provider_payload(body, GOLD)) == expected
    # A cache file built from the payload's own text is the series' CSV.
    with suppress(EventLensError):
        series, dates, text = _parse_payload(body, GOLD)
        assert _fetched_csv_bytes(series, dates, text) == series_to_csv_bytes(series)
    # The bulk decode alone never accepts what the walk rejects.
    try:
        decoded = _decode_entries(series_map)
    except (DataFormatError, KeyError, TypeError, ValueError):
        return
    assert parsed(lambda: RawSeries(GOLD, *decoded[:3])) == expected


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
    series = parse_provider_payload(payload_bytes(full), GOLD)
    assert (len(series), series.synthetic_ohlc, calls) == (800, False, [tuple(full["2020-01-01"])])
    calls.clear()
    series = parse_provider_payload(payload_bytes(mixed), GOLD)
    assert sorted(calls) == [("1. open", "2. high", "3. low", "4. close", "5. volume"), ("close",)]
    monkeypatch.undo()
    walked = _walk_entries(GOLD, json.loads(payload_bytes(mixed))["Time Series (Daily)"])
    assert series == walked and series.synthetic_ohlc and walked.synthetic_ohlc
    assert series.quotes[:2].tolist() == [[1.0] * 4, [1.0, 2.0, 0.5, 1.1]]


@pytest.mark.parametrize("limit", [True, False, 2.5, 1.0, float("inf"), float("nan"), "5", None])
def test_rate_limit_must_be_an_integer(tmp_path, limit):
    with pytest.raises(ConfigError, match="rate limit must be an integer, got "):
        RateLimiter(limit)
    with pytest.raises(ConfigError, match="rate limit must be an integer, got "):
        ProviderConfig(cache_dir=tmp_path, rate_limit=limit)


# --- short decimal quote text and the series-map check ------------------------------

DIGITS = "0123456789"
# Each accepted cell, and the text repr writes for its float.
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


@settings(max_examples=1000)
@given(
    cell=st.one_of(
        decimal_text(),
        st.floats(min_value=0.0, allow_infinity=False).map(repr),
        st.builds(round, st.floats(0.0, 1e6), st.integers(0, 15)).map(repr),
        st.floats(0.0, 1e12).map("{:.4f}".format),
        st.text(DIGITS + ".+-_e\u0661\uff11", max_size=18),
    )
)
def test_a_short_decimal_less_its_trailing_zeros_is_its_own_repr(cell):
    if _SHORT_DECIMALS.fullmatch(cell + "\n"):
        assert _TRAILING_ZEROS.sub("", cell + "\n") == repr(float(cell)) + "\n"


@given(quote=st.floats(1e-4, 1e10))
def test_every_four_decimal_quote_from_1e_4_to_1e10_is_a_short_decimal(quote):
    # The provider's own dialect, so a fetch of it skips repr.
    assert _SHORT_DECIMALS.fullmatch(f"{quote:.4f}\n")


@pytest.mark.parametrize("cell", [*SHORT_DECIMALS, *NOT_SHORT_DECIMALS])
def test_short_decimal_boundaries(cell):
    accepted = _SHORT_DECIMALS.fullmatch(cell + "\n") is not None
    assert accepted == (cell in SHORT_DECIMALS)
    # A text of cells is accepted only if each of them is.
    text = f"1.5\n{cell}\n2.250\n"
    assert (_SHORT_DECIMALS.fullmatch(text) is not None) == accepted
    if accepted:
        assert _TRAILING_ZEROS.sub("", text) == f"1.5\n{SHORT_DECIMALS[cell]}\n2.25\n"


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
