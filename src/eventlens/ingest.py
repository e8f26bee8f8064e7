"""Daily OHLC acquisition from a quote provider or local CSV files.

The provider speaks a JSON daily-series dialect: a metadata object plus a
map of "YYYY-MM-DD" keys to per-day objects whose open/high/low/close
values are quoted as ASCII strings that ``float()`` reads (key names may
carry numeric prefixes such as "1. open", but no field may be named twice).
Fetched series are cached one CSV file per symbol, in the same layout the
test fixtures use, so a warm cache directory doubles as an offline dataset
and every downstream step is reproducible without network access.

A series is stored as columns: a datetime64[D] date array and an (n, 4)
float64 open/high/low/close array. ``RawSeries(instrument, dates, quotes)``
is its one constructor, and it checks the bar invariants and the strict
date order on whole arrays. The parsers only decode: they collect plain
day ordinals and floats and hand the columns over. ``DailyBar`` is the row
type of ``RawSeries.bars``, a view built only when a caller reads it.

A provider payload is read by one scan (``_scan_payload``) when its entries
repeat the first one's text with a plain decimal for each quote, in date
order or its reverse, and ``json.loads`` of the rest proves them the one
series map. Any other payload is parsed by ``json.loads`` and walked entry
by entry (``_walk_entries``), the reference the scan is held to; the error
names the first offending entry in date order, an earlier broken bar first.

A fetched series' cache file is built from the payload's own quote text when
one regex (``_SHORT_DECIMALS``) proves every cell a decimal of at most 15
significant digits in ``repr``'s fixed layout, such as the provider's
four-decimal ``"1923.4500"``. Every such decimal survives a round trip
through a binary64 float (C's ``DBL_DIG``), so the cell less its trailing
zeros (``"1923.45"``) is what ``repr`` writes for its float. Any other
cell sends the series through ``series_to_csv_bytes``. The bytes are the
same either way.

Every CSV the package writes, a cache file or a report table, comes from
``csv_bytes``: a header line, then one line of comma-joined cells per row.
Every file is written by ``write_atomic``; ``replace_directory`` swaps a
whole directory of them in with one rename.

Parse failures are fatal for the whole series rather than row-skipping:
a silently dropped day would corrupt date alignment downstream. A CSV file
loads only if it holds exactly the bytes ``write_csv`` writes for the
series it decodes, so ``RawSeries.digest`` is the SHA-256 of the file.
Any other file is walked row by row, and the error names the first
offending row in file order, else the first line unlike the writer's.
"""

from __future__ import annotations

import datetime as dt
import errno
import hashlib
import json
import math
import os
import re
import shutil
import threading
import time
import urllib.parse
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Collection, Iterable

import numpy as np

from .errors import (
    BarInvariantError,
    CacheError,
    ConfigError,
    DataFormatError,
    EventLensError,
    ProviderError,
    json_number,
)

API_KEY_ENV = "EVENTLENS_API_KEY"
DEFAULT_BASE_URL = "https://www.alphavantage.co/query"
_OHLC = ("open", "high", "low", "close")
CSV_HEADER = ",".join(("date", *_OHLC))
_HTTP_TIMEOUT_S = 30.0
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()

Transport = Callable[[str], bytes]


class InstrumentKind(str, Enum):
    CURRENCY_INDEX = "currency_index"
    EQUITY = "equity"
    COMMODITY = "commodity"
    FX_PAIR = "fx_pair"


@dataclass(frozen=True)
class InstrumentId:
    """A quoted instrument: unique symbol plus its asset kind."""

    symbol: str
    kind: InstrumentKind

    def __post_init__(self) -> None:
        check_symbol(self.symbol)


def check_symbol(symbol: str) -> None:
    """Raise ConfigError unless ``symbol`` may name an instrument. A symbol
    names its cache file and bundle files and is the SYMBOL of a
    ``SYMBOL.field`` column, so it holds no separator and no character that
    a path or a line of output cannot carry."""
    if type(symbol) is not str or not symbol:
        raise ConfigError(f"instrument symbol must be a non-empty string, got {symbol!r}")
    if any(c in symbol for c in ".,/\\"):
        raise ConfigError(f"instrument symbol {symbol!r} may not contain '.', ',', '/' or '\\'")
    if not symbol.isprintable():
        raise ConfigError(f"instrument symbol {symbol!r} may not contain non-printable characters")


def _check_bar(day: str, open_: float, high: float, low: float, close: float) -> None:
    """Raise BarInvariantError naming ``day`` if the quotes break a bar invariant."""
    values = (open_, high, low, close)
    if not all(math.isfinite(v) for v in values):
        raise BarInvariantError(f"non-finite quote on {day}")
    if not all(v > 0.0 for v in values):
        raise BarInvariantError(f"non-positive quote on {day}")
    if not (low <= min(open_, close) and max(open_, close) <= high):
        raise BarInvariantError(
            f"OHLC ordering violated on {day}: "
            f"open={open_} high={high} low={low} close={close}"
        )


def _check_bars(dates: np.ndarray, quotes: np.ndarray) -> None:
    """Vectorized ``_check_bar`` over rows in order; the first bad row names the error."""
    open_, high, low, close = quotes.T
    valid = (
        np.isfinite(quotes).all(axis=1)
        & (quotes > 0.0).all(axis=1)
        & (low <= np.minimum(open_, close))
        & (np.maximum(open_, close) <= high)
    )
    if not valid.all():
        row = int(np.argmin(valid))
        _check_bar(str(dates[row]), *quotes[row].tolist())


@dataclass(frozen=True)
class DailyBar:
    """One trading day's open/high/low/close quote: the row type of ``RawSeries.bars``.

    All four quotes must be finite and positive, with
    low <= open <= high and low <= close <= high.
    """

    date: dt.date
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self) -> None:
        _check_bar(self.date.isoformat(), self.open, self.high, self.low, self.close)


@dataclass(frozen=True, eq=False)
class RawSeries:
    """An instrument's daily bars, strictly ascending by date, stored as columns.

    The constructor copies ``dates`` into a read-only datetime64[D] array and
    ``quotes`` into a read-only (n, 4) float64 array of open/high/low/close,
    one row per date, and checks every bar invariant (the first bad row
    names the error) and the strict date order. ``bars`` is the same data
    as a tuple of DailyBar row views, built on first access; the pipeline
    itself only reads the columns and ``digest``.

    ``synthetic_ohlc`` flags series whose source quoted only a close, with
    open=high=low=close synthesized. The CSV wire format cannot carry the
    flag, so it is provenance metadata excluded from equality.
    """

    instrument: InstrumentId
    dates: np.ndarray
    quotes: np.ndarray
    synthetic_ohlc: bool = False

    def __post_init__(self) -> None:
        dates = np.array(self.dates, dtype="datetime64[D]")
        quotes = np.array(self.quotes, dtype=float).reshape(len(dates), 4)
        _check_bars(dates, quotes)
        if np.isnat(dates).any():
            raise DataFormatError(f"series {self.instrument.symbol}: missing date (NaT)")
        later = dates[1:] <= dates[:-1]
        if later.any():
            raise DataFormatError(
                f"series {self.instrument.symbol}: dates not strictly increasing "
                f"at {dates[int(np.argmax(later)) + 1]}"
            )
        dates.flags.writeable = False
        quotes.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "quotes", quotes)

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the series' CSV bytes, as ``write_csv`` writes them."""
        return hashlib.sha256(series_to_csv_bytes(self)).hexdigest()

    @cached_property
    def bars(self) -> tuple[DailyBar, ...]:
        return tuple(map(DailyBar, self.dates.tolist(), *self.quotes.T.tolist()))

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RawSeries):
            return NotImplemented
        return (
            self.instrument == other.instrument
            and np.array_equal(self.dates, other.dates)
            and np.array_equal(self.quotes, other.quotes)
        )

    def __hash__(self) -> int:
        return hash((self.instrument, self.dates.tobytes(), self.quotes.tobytes()))

    def __repr__(self) -> str:
        return (
            f"RawSeries(instrument={self.instrument!r}, {len(self)} bars, "
            f"synthetic_ohlc={self.synthetic_ohlc})"
        )


@dataclass
class ProviderConfig:
    """Connection settings for the quote provider plus the local cache root.

    ``api_key`` falls back to the EVENTLENS_API_KEY environment variable.
    ``rate_limit``, an int >= 1, is the maximum number of requests in any
    sliding 60-second window, kept by ``limiter`` for all fetches made
    through this config.
    """

    cache_dir: Path
    base_url: str = DEFAULT_BASE_URL
    api_key: str = ""
    rate_limit: int = 5

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)
        if not self.api_key:
            self.api_key = os.environ.get(API_KEY_ENV, "")
        self.limiter = RateLimiter(self.rate_limit)


class RateLimiter:
    """Sliding-window limiter: at most ``max_per_minute`` (an int >= 1, not a
    bool) acquisitions in any 60 s span.

    ``clock`` and ``sleep`` are injectable so tests can drive a fake clock.
    """

    WINDOW_SECONDS = 60.0

    def __init__(
        self,
        max_per_minute: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if json_number(max_per_minute, "rate limit", whole=True) < 1:
            raise ConfigError(f"rate limit must be >= 1, got {max_per_minute}")
        self._max = max_per_minute
        self._clock = clock
        self._sleep = sleep
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        """Block until another request is allowed, then record it."""
        with self._lock:
            while True:
                now = self._clock()
                while self._stamps and now - self._stamps[0] >= self.WINDOW_SECONDS:
                    self._stamps.popleft()
                if len(self._stamps) < self._max:
                    self._stamps.append(now)
                    return
                self._sleep(self.WINDOW_SECONDS - (now - self._stamps[0]))


# --- provider wire format ---------------------------------------------------

_PROVIDER_ERROR_KEYS = ("Error Message", "Note", "Information")
# ``\d``, not [0-9]: a key of other Unicode digits still picks the map, and
# the decode names it a bad date.
_DATE_KEY = re.compile(r"\d{4}-\d{2}-\d{2}")
# Quote cells joined by "\n", each followed by one, all decimals in the fixed
# layout ``repr`` uses from 1e-4 up, with at most 16 characters and so at most
# 15 significant digits, which a binary64 float round-trips (DBL_DIG). Less
# its trailing zeros (``_TRAILING_ZEROS``) such a cell is ``repr(float(cell))``.
# [0-9], never \d: float() reads any Unicode digit.
_SHORT_DECIMALS = re.compile(
    r"(?:(?=[^\n]{1,16}+\n)(?:[1-9][0-9]*+\.[0-9]++|0\.0{0,3}+[1-9][0-9]*+)\n)*+"
)
# The zeros ending a cell after a digit, which keeps the "0" of "123.0". In
# cells ``_SHORT_DECIMALS`` accepts they all follow the point.
_TRAILING_ZEROS = re.compile(r"0(?<=[0-9]0)0*+(?=\n)")
# The scan's tokens: JSON whitespace (``\s`` also takes \f and \v), a comma
# in it, a string's text with no control character, and a first entry.
_WS = r"[ \t\n\r]*"
_SEPARATOR = re.compile(f"{_WS},{_WS}")
_CHARS = r'[^"\x00-\x1f]*'
_PAIR = f'"{_CHARS}"{_WS}:{_WS}"{_CHARS}"'
_FIRST_ENTRY = re.compile(
    rf'"[0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}}"{_WS}:{_WS}\{{{_WS}{_PAIR}(?:{_WS},{_WS}{_PAIR})*{_WS}\}}'
)
# Accepts bare field names and numbered variants like "1. open"; deliberately
# rejects derived fields such as "5. adjusted close".
_FIELD_KEY = re.compile(rf"(?:\d+[a-z]?\.\s*)?({'|'.join(_OHLC)})$")


def provider_url(instrument: InstrumentId, config: ProviderConfig) -> str:
    """Build the provider GET URL for one instrument: an FX_DAILY query for
    an fx pair, else a TIME_SERIES_DAILY one."""
    symbol = instrument.symbol
    if instrument.kind is not InstrumentKind.FX_PAIR:
        params = {"function": "TIME_SERIES_DAILY", "symbol": symbol}
    elif len(symbol) == 6 and symbol.isalpha():
        params = {"function": "FX_DAILY", "from_symbol": symbol[:3], "to_symbol": symbol[3:]}
    else:
        raise ConfigError(f"fx_pair symbol must be 6 letters like RUBCNY, got {symbol!r}")
    params |= {"outputsize": "full", "apikey": config.api_key}
    return f"{config.base_url}?{urllib.parse.urlencode(params)}"


def _http_get(url: str) -> bytes:
    import urllib.request  # loaded only by a fetch that goes to the network

    with urllib.request.urlopen(url, timeout=_HTTP_TIMEOUT_S) as response:
        return response.read()


def _match_fields(keys: Iterable, date_str: str) -> list:
    """The keys of an entry's open, high, low and close quotes, None for a
    field it lacks; a field named twice is an error naming ``date_str``."""
    found: dict[str, object] = {}
    for key in keys:
        match = _FIELD_KEY.fullmatch(str(key).strip().lower())
        if match:
            if match[1] in found:
                raise DataFormatError(f"entry {date_str} has two {match[1]} quotes")
            found[match[1]] = key
    return [found.get(name) for name in _OHLC]


def _parse_quote(raw: object, date_str: str, field_name: str) -> float:
    """A quote from its decimal text; only ASCII strings are quote text."""
    if isinstance(raw, str) and raw.isascii():
        try:
            return float(raw)
        except ValueError:
            pass
    raise DataFormatError(f"unparseable {field_name} quote {raw!r} for {date_str}")


def parse_provider_payload(body: bytes, instrument: InstrumentId) -> RawSeries:
    """Parse the provider's daily-series JSON document into a RawSeries.

    The instrument identity comes from the caller: the wire metadata block
    is provider-variant and not trusted for routing. Entries quoting only a
    close get open=high=low=close synthesized and the series flagged. A
    regular payload is scanned; any other is walked, which names the error.
    """
    return _parse_payload(body, instrument)[0]


def _parse_payload(
    body: bytes, instrument: InstrumentId
) -> tuple[RawSeries, list[str] | None, str | None]:
    """The payload's series, and if the scan read it, its sorted date keys and
    its quote cells' text, each cell followed by "\n" (else None and None)."""
    if (scanned := _scan_payload(body)) is not None:
        *columns, dates, text = scanned
        return RawSeries(instrument, *columns), dates, text
    try:
        document = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise DataFormatError("payload is not a JSON object")

    for key in _PROVIDER_ERROR_KEYS:
        if key in document:
            raise ProviderError(f"provider error for {instrument.symbol}: {document[key]}")

    series_map = next(filter(_is_series_map, document.values()), None)
    if series_map is None:
        raise DataFormatError(f"payload for {instrument.symbol} has no daily series map")
    return _walk_entries(instrument, series_map), None, None


def _is_series_map(value: object) -> bool:
    """Whether ``value`` is a non-empty object of "YYYY-MM-DD" keys to objects."""
    return (
        type(value) is dict
        and bool(value)
        and all(map(_DATE_KEY.fullmatch, value))
        and set(map(type, value.values())) == {dict}
    )


def _scan_payload(body: bytes) -> tuple[np.ndarray, np.ndarray, bool, list[str], str] | None:
    """``RawSeries`` arguments, the sorted dates and the quote cells ending in "\n",
    split out by the first entry's own text; None unless the JSON path agrees."""
    if not body.isascii() or b"\\" in body:
        return None
    text = body.decode("ascii")
    if not (first := _FIRST_ENTRY.search(text)):
        return None
    # Split at quotes: punctuation, the date, then each key and its value.
    parts = first[0].split('"')
    keys = parts[3::4]
    try:
        fields = _match_fields(keys, "")
    except DataFormatError:
        return None
    close_only = fields[:3] == [None] * 3
    fields = fields[3:] * 4 if close_only else fields
    if None in fields:
        return None
    pieces = list(map(re.escape, parts))
    pieces[1] = "([0-9]{4}-[0-9]{2}-[0-9]{2})"
    pieces[5::4] = [r"([0-9]++(?:\.[0-9]++)?+)" if key in fields else _CHARS for key in keys]
    cells = re.split('"'.join(pieces), text[first.start() :])
    groups = [key for key in keys if key in fields]
    stride = 2 + len(groups)
    separators = set(cells[stride:-1:stride]) or {","}
    if cells[0] or len(separators) > 1 or not _SEPARATOR.fullmatch(*separators):
        return None
    # Entries newest first, as the provider writes them, are read backwards.
    start, step = (-1 - stride, -stride) if cells[1] > cells[-stride] else (0, stride)
    dates = cells[start + 1 :: step]
    if any(map(str.__ge__, dates, dates[1:])):
        return None
    # With a marker for the entries, the rest must be an object holding just the
    # marker as a direct member; a later member of the same key drops it.
    try:
        rest = json.loads(f'{text[: first.start()]}"\\\\": 0{cells[-1]}')
        days = list(map(dt.date.toordinal, map(dt.date.fromisoformat, dates)))
    except ValueError:
        return None
    if type(rest) is not dict or {"\\": 0} not in rest.values():
        return None
    if any(map(rest.__contains__, _PROVIDER_ERROR_KEYS)) or any(map(_is_series_map, rest.values())):
        return None
    columns = [cells[start + 2 + groups.index(key) :: step] for key in fields]
    cells = list(chain.from_iterable(zip(*columns)))
    quotes = np.fromiter(map(float, cells), dtype=float, count=len(cells)).reshape(-1, 4)
    return _dates(days), quotes, close_only, dates, "\n".join(cells) + "\n"


def _walk_entries(instrument: InstrumentId, series_map: dict) -> RawSeries:
    """The entry-by-entry reference parse: the series, or an error naming the
    first offending entry in date order (an earlier broken bar wins)."""
    days: list[int] = []
    rows: list[list[float]] = []
    synthesized = False
    try:
        for date_str in sorted(series_map):
            try:
                date = dt.date.fromisoformat(date_str)
            except ValueError as exc:
                raise DataFormatError(f"bad date key {date_str!r}") from exc
            entry = series_map[date_str]
            *others, close = keys = _match_fields(entry, date_str)
            if close is None:
                raise DataFormatError(f"entry {date_str} has no close quote")
            _parse_quote(entry[close], date_str, "close")  # named before a partial set
            if others == [None, None, None]:
                keys, synthesized = [close] * 4, True
            elif None in others:
                raise DataFormatError(f"entry {date_str} has a partial OHLC set")
            rows.append([_parse_quote(entry[k], date_str, name) for k, name in zip(keys, _OHLC)])
            days.append(date.toordinal())
    except DataFormatError:
        RawSeries(instrument, _dates(days), rows)
        raise
    return RawSeries(instrument, _dates(days), rows, synthetic_ohlc=synthesized)


def _dates(ordinals) -> np.ndarray:
    """datetime64[D] dates from proleptic Gregorian day ordinals."""
    return (np.asarray(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")


# --- CSV fixture / cache format ----------------------------------------------

def csv_bytes(header: Iterable[str], rows: Iterable[Iterable[str]]) -> bytes:
    """The package's one CSV layout: the header line, then one line per row,
    each its cells joined by commas and ended by an LF; ASCII."""
    return "\n".join([",".join(header), *map(",".join, rows), ""]).encode("ascii")


def series_to_csv_bytes(series: RawSeries) -> bytes:
    """Serialize to the bit-exact CSV format: ISO dates and shortest
    round-trip decimals in ``csv_bytes``' layout."""
    dates = np.datetime_as_string(series.dates).tolist()
    return _cells_csv(dates, list(map(repr, series.quotes.ravel().tolist())))


def _cells_csv(dates: list[str], cells: list[str]) -> bytes:
    """The cache file of ISO ``dates`` and their quote ``cells``, four a date."""
    return csv_bytes((CSV_HEADER,), zip(dates, cells[0::4], cells[1::4], cells[2::4], cells[3::4]))


def _fetched_csv_bytes(series: RawSeries, dates: list[str] | None, text: str | None) -> bytes:
    """``series_to_csv_bytes(series)``, built from the payload's sorted date
    keys and ``text``, its quote cells each followed by "\n", when
    ``_SHORT_DECIMALS`` accepts every cell: less its trailing zeros, each is
    then what ``repr`` writes for its float."""
    if text is None or not _SHORT_DECIMALS.fullmatch(text):
        return series_to_csv_bytes(series)
    return _cells_csv(dates, _TRAILING_ZEROS.sub("", text).splitlines())


def write_atomic(path: Path, payload: bytes, fresh: bool = False) -> None:
    """Replace the file at ``path`` with ``payload`` in one rename.

    Readers see the old file or the new one, never a partial write. The
    payload first goes to a temp file in the same directory whose random
    name no other writer (or a stray file left by a crash) shares; it is
    created with ``O_EXCL`` and mode 0o666 less the umask, like a plain
    open, and removed if anything fails before the rename. A ``fresh`` path,
    in a directory no reader sees, is created so with no temp name. A missing
    directory is made, and the open retried once, only when the first open
    fails for it. This is the package's only file and directory writer.
    """
    tmp = path if fresh else path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(payload)
        if not fresh:
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def replace_directory(path: Path, files: dict[str, bytes], superseded: Collection[str]) -> None:
    """Replace the directory at ``path`` with one holding ``files``, swapped in
    with one rename.

    Each file, in the dict's order, is created ``fresh`` by ``write_atomic``
    in a new sibling ``<name>.<16 hex>.tmp``. Then each file of the current
    directory that ``files`` does not hold and ``superseded`` does not name is
    hard-linked into it, so files the new directory does not replace survive.
    The current directory is renamed to ``<name>.<16 hex>.old``, the new one
    to ``path``, and the old one is removed: a reader sees the old directory,
    none, or the new one, never a mix. Should another writer's directory land
    at ``path`` between the two renames, it is moved aside too, so the last
    writer's directory wins whole. A failure before the swap removes the new
    directory and leaves ``path`` as it was. A ``path`` that is a symlink, is
    no directory or holds a subdirectory is refused with a ConfigError before
    anything is written. ``files`` holds at least one file.
    """
    whole = "a bundle replaces its whole directory"
    if path.name in ("", ".."):
        raise ConfigError(f"output directory {str(path)!r} must be named by its own path; {whole}")
    if path.is_symlink():
        raise ConfigError(f"output directory {str(path)!r} is a symlink; {whole}")
    try:
        entries = list(os.scandir(path))
    except FileNotFoundError:
        entries = []
    for entry in entries:
        if entry.is_dir(follow_symlinks=False):
            raise ConfigError(
                f"output directory {str(path)!r} holds the subdirectory {entry.name!r}; {whole}"
            )
    kept = [e.name for e in entries if e.name not in files and e.name not in superseded]
    token = os.urandom(8).hex()
    staged = path.with_name(f"{path.name}.{token}.tmp")
    old = path.with_name(f"{path.name}.{token}.old")
    try:
        for name, payload in files.items():
            write_atomic(staged / name, payload, fresh=True)
        for name in kept:
            os.link(path / name, staged / name, follow_symlinks=False)
        while True:
            with suppress(FileNotFoundError):
                os.rename(path, old)
            try:
                os.rename(staged, path)
                break
            except OSError as exc:
                if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                    raise
            # Another writer's directory landed at path: it is superseded too.
            shutil.rmtree(old, ignore_errors=True)
    except BaseException:
        shutil.rmtree(staged, ignore_errors=True)
        if not path.exists():
            with suppress(OSError):
                os.rename(old, path)
        raise
    with suppress(FileNotFoundError):
        shutil.rmtree(old)


def write_csv(series: RawSeries, path: Path) -> None:
    """Write a series in the CSV cache format, atomically."""
    write_atomic(Path(path), series_to_csv_bytes(series))


def load_csv(path: Path, instrument: InstrumentId) -> RawSeries:
    """Load a CSV fixture or cache file holding exactly what ``write_csv`` writes.

    The series loads only if its ``digest`` is the SHA-256 of the bytes read.
    Otherwise the error names the first malformed row, date not after the
    row before it, or broken bar in file order, else the first line that
    differs from the writer's. A header with no rows is an empty series.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not ASCII: {exc}") from exc
    if "\r" in text:
        lineno = text.count("\n", 0, text.index("\r")) + 1
        raise DataFormatError(f"{path}:{lineno}: carriage return found; the format is LF-only")
    if text != CSV_HEADER and not text.startswith(CSV_HEADER + "\n"):
        raise DataFormatError(f"{path}: expected header {CSV_HEADER!r}")

    with suppress(ValueError, DataFormatError):
        series = RawSeries(instrument, *_parse_rows(text[len(CSV_HEADER) + 1 :].removesuffix("\n")))
        if series.digest == hashlib.sha256(data).hexdigest():
            return series
    series = RawSeries(instrument, *_walk_rows(path, text))
    written = series_to_csv_bytes(series).decode("ascii")
    for lineno, (found, line) in enumerate(zip(text.splitlines(True), written.splitlines(True)), 1):
        if found != line:
            raise DataFormatError(f"{path}:{lineno}: not canonical: {found!r} is written {line!r}")
    return series


def _parse_rows(body: str) -> tuple[np.ndarray, np.ndarray]:
    """Dates and quotes of a CSV body read five cells a row; raises ValueError
    for a date or quote cell that does not parse."""
    cells = body.replace("\n", ",").split(",")
    n = len(cells) // 5
    days = np.fromiter(
        map(dt.date.toordinal, map(dt.date.fromisoformat, cells[::5])), dtype=np.int64, count=n
    )
    del cells[::5]
    return _dates(days), np.fromiter(map(float, cells), dtype=float, count=4 * n)


def _walk_rows(path: Path, text: str) -> tuple[np.ndarray, list[list[float]]]:
    """The row-by-row reference parse: the columns, or an error naming the first
    offending row in file order (a date not after the row before it offends)."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    days: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise DataFormatError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        try:
            date = dt.date.fromisoformat(parts[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad date {parts[0]!r}") from exc
        if days and date.toordinal() <= days[-1]:
            order = "duplicate" if date.toordinal() == days[-1] else "out-of-order"
            raise DataFormatError(f"{path}:{lineno}: {order} date {date.isoformat()}")
        quotes = [_parse_quote(raw, date.isoformat(), name) for raw, name in zip(parts[1:], _OHLC)]
        _check_bar(date.isoformat(), *quotes)
        days.append(date.toordinal())
        rows.append(quotes)
    return _dates(days), rows


def fetch_daily(
    instrument: InstrumentId,
    config: ProviderConfig,
    transport: Transport | None = None,
) -> RawSeries:
    """Return the instrument's full daily history, cache-first.

    A warm cache entry is returned without touching the network. On a cache
    miss the provider is queried (through ``transport``, injectable for
    tests), the response parsed, and the cache file written atomically.

    Args:
        instrument: what to fetch.
        config: provider endpoint, key, rate limit, and cache root.
        transport: callable mapping a URL to response bytes; defaults to
            an HTTP GET.
    """
    cache_path = config.cache_dir / f"{instrument.symbol}.csv"
    if cache_path.exists():
        return load_csv(cache_path, instrument)

    if transport is None and not config.api_key:
        raise ConfigError(
            f"api key required to fetch {instrument.symbol}; "
            f"set {API_KEY_ENV} or ProviderConfig.api_key"
        )
    send = transport if transport is not None else _http_get
    config.limiter.acquire()
    url = provider_url(instrument, config)
    try:
        body = send(url)
    except EventLensError:
        raise
    except Exception as exc:
        raise ProviderError(f"provider unreachable for {instrument.symbol}: {exc}") from exc

    series, dates, text = _parse_payload(body, instrument)
    payload = _fetched_csv_bytes(series, dates, text)
    try:
        write_atomic(cache_path, payload)
    except OSError as exc:
        raise CacheError(f"cannot write cache file {cache_path}: {exc}") from exc
    return series


def fetch_universe(
    instruments: Iterable[InstrumentId],
    config: ProviderConfig,
    transport: Transport | None = None,
) -> list[RawSeries]:
    """Fetch several instruments through one shared rate limiter."""
    return [fetch_daily(instrument, config, transport) for instrument in instruments]
