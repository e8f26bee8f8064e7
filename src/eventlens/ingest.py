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
Either way a DataFormatError's text starts with the instrument's symbol.

A scanned series' cache file is built from the scan's own quote columns
when every cell is a decimal of at most 15 significant digits in ``repr``'s
fixed layout, such as the provider's four-decimal ``"1923.4500"``. Every
such decimal survives a round trip through a binary64 float (C's
``DBL_DIG``), so the cell less its trailing zeros (``"1923.45"``) is what
``repr`` writes for its float. ``_repr_cells`` proves a column so with
string methods: one point a cell, none longer than 16 characters, none
starting with "0". Only a column with a cell that starts with "0" runs the
regex ``_SHORT_DECIMALS``, the reference, and only one holding ``"0\n"``
has its trailing zeros stripped. Any other cell sends the series through
``series_to_csv_bytes``. The bytes are the same either way.

Every CSV the package writes, a cache file or a report table, comes from
``csv_bytes``: a header line, then one line of comma-joined cells per row.
Every file is written by ``write_atomic``; ``replace_directory`` swaps a
whole directory of them in with one rename, linking in each unchanged file.

Parse failures are fatal for the whole series rather than row-skipping:
a silently dropped day would corrupt date alignment downstream. A CSV file
loads only if it holds exactly the bytes ``write_csv`` writes for the
series it decodes, so ``RawSeries.digest`` is the SHA-256 of the file.
``_proved_columns`` shows that from the file's bytes in one numpy pass,
with no ``float`` call, no split and no second serialization: each line is
a ``YYYY-MM-DD`` date and four quote cells of digits around a point, each
cell's digits are read as one exact integer, and exact float arithmetic
proves the cell both what ``float`` reads and what ``repr`` writes for the
float it returns. A file it proves is loaded with its digest seeded, in
``load_csv`` alone, as the hash of the bytes read. Any other file, one it
cannot decide (a quote below 1e-4 or from 1e16, an integer from 2**53, a
cell at a rounding margin) among them, is walked row by row and loads only
if the series it decodes writes it back byte for byte. The error names the
first offending row in file order, else the first line unlike the
writer's; its text starts with the file's path and the line's number.
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
import stat
import threading
import time
import urllib.parse
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Collection, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        quotes = np.array(self.quotes, dtype=np.float64).reshape(len(dates), 4)
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
# [0-9], never \d: float() reads any Unicode digit. The reference for
# ``_repr_cells``, which runs it only on a column with a cell starting "0".
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


def _parse_date(raw: str, name: str) -> dt.date:
    """A date from its ISO text; the error calls ``raw`` a bad ``name``."""
    try:
        return dt.date.fromisoformat(raw)
    except ValueError as exc:
        raise DataFormatError(f"bad {name} {raw!r}") from exc


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
) -> tuple[RawSeries, list[str] | None, list[list[str]] | None]:
    """The payload's series, and if the scan read it, its sorted date keys and
    its open, high, low and close columns of quote cells (else None and None).
    A DataFormatError's text starts with the instrument's symbol."""
    try:
        if (scanned := _scan_payload(body)) is not None:
            *arguments, dates, columns = scanned
            return RawSeries(instrument, *arguments), dates, columns
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
            raise DataFormatError("payload has no daily series map")
        return _walk_entries(instrument, series_map), None, None
    except DataFormatError as exc:
        raise type(exc)(f"{instrument.symbol}: {exc}") from exc


def _is_series_map(value: object) -> bool:
    """Whether ``value`` is a non-empty object of "YYYY-MM-DD" keys to objects."""
    return (
        type(value) is dict
        and bool(value)
        and all(map(_DATE_KEY.fullmatch, value))
        and set(map(type, value.values())) == {dict}
    )


def _scan_payload(
    body: bytes,
) -> tuple[np.ndarray, np.ndarray, bool, list[str], list[list[str]]] | None:
    """``RawSeries`` arguments, the sorted dates and the open, high, low and close
    columns of quote cells, oldest first, split out by the first entry's own
    text; None unless the JSON path agrees."""
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
    # One column per distinct field, so a close-only payload parses its closes once.
    columns = [cells[start + 2 + groups.index(key) :: step] for key in dict.fromkeys(fields)]
    quotes = np.column_stack(
        [np.fromiter(map(float, column), dtype=float, count=len(dates)) for column in columns]
    )
    if close_only:
        quotes, columns = np.repeat(quotes, 4, axis=1), columns * 4
    return _dates(days), quotes, close_only, dates, columns


def _walk_entries(instrument: InstrumentId, series_map: dict) -> RawSeries:
    """The entry-by-entry reference parse: the series, or an error naming the
    first offending entry in date order (each bar is checked as it is decoded,
    so an earlier broken bar wins)."""
    days: list[int] = []
    rows: list[list[float]] = []
    synthesized = False
    for date_str in sorted(series_map):
        date = _parse_date(date_str, "date key")
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
        _check_bar(date_str, *rows[-1])
        days.append(date.toordinal())
    return RawSeries(instrument, _dates(days), rows, synthetic_ohlc=synthesized)


def _dates(ordinals) -> np.ndarray:
    """datetime64[D] dates from proleptic Gregorian day ordinals."""
    return (np.asarray(ordinals, dtype=np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")


# --- CSV fixture / cache format ----------------------------------------------

# Veltkamp's splitter, 2**27 + 1: it splits a float into two halves whose
# products are exact, so x * y is hi + lo exactly (Dekker's product).
_SPLITTER = 134217729.0


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a`` as high + low exactly, each of at most 26 bits."""
    split = a * _SPLITTER
    high = split - (split - a)
    return high, a - high


# 10**k for k = 0..22, each a binary64 float exactly, and its two halves.
_TENS = np.array([float(10**k) for k in range(23)])
_TENS_TABLE = np.array([_TENS, *_halves(_TENS)])
_CSV_HEAD = f"{CSV_HEADER}\n".encode("ascii")
# The bytes below "0" of a written row: the date's dashes, each quote's
# comma and point, and the newline; and the least distance from each to the
# one before it, the first three exact: the dashes 4 and 7 bytes into the
# line and the comma 10, then a digit between any two.
_ROW_MARKS = np.frombuffer(b"--,.,.,.,.\n", dtype=np.uint8)
_MARK_GAPS = np.array([5, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2])
_FIRST_DAY = np.datetime64("0001-01-01")
# A quote cell holds at most 23 digits ("0." and 22 fraction digits), read
# in a window of whole pairs. ANDed with row j of the masks (j zeros, then
# 0x0F), a window of ASCII keeps only the cell's digit values; the weights
# read its last 7 pairs and the 5 before them as integers below 10**14.
_MAX_DIGITS = 23
_DIGIT_MASKS = np.array([[0] * j + [0x0F] * (24 - j) for j in range(24)], dtype=np.uint8)
_PAIR_WEIGHTS = np.zeros((2, 12))
_PAIR_WEIGHTS[0, :5], _PAIR_WEIGHTS[1, 5:] = _TENS[8::-2], _TENS[12::-2]


def csv_bytes(header: Iterable[str], rows: Iterable[Iterable[str]]) -> bytes:
    """The package's one CSV layout: the header line, then one line per row,
    each its cells joined by commas and ended by an LF; ASCII."""
    return "\n".join([",".join(header), *map(",".join, rows), ""]).encode("ascii")


def series_to_csv_bytes(series: RawSeries) -> bytes:
    """Serialize to the bit-exact CSV format: ISO dates and shortest
    round-trip decimals in ``csv_bytes``' layout."""
    dates = np.datetime_as_string(series.dates).tolist()
    cells = list(map(repr, series.quotes.ravel().tolist()))
    return csv_bytes((CSV_HEADER,), zip(dates, cells[0::4], cells[1::4], cells[2::4], cells[3::4]))


def _repr_cells(column: list[str]) -> list[str] | None:
    """The cells of a scanned ``column`` (ASCII digit runs, each with at most
    one point) as ``repr`` writes their floats, or None unless
    ``_SHORT_DECIMALS`` accepts every cell.

    One point a cell, at most 16 characters and no leading "0" put every
    cell in its first branch; only a column holding a leading "0" runs it."""
    if max(map(len, column)) > 16:
        return None
    text = "\n".join(column) + "\n"
    if text.count(".") != len(column):
        return None
    if (text[0] == "0" or "\n0" in text) and not _SHORT_DECIMALS.fullmatch(text):
        return None
    return _TRAILING_ZEROS.sub("", text).split("\n")[:-1] if "0\n" in text else column


def _fetched_csv_bytes(
    series: RawSeries, dates: list[str] | None, columns: list[list[str]] | None
) -> bytes:
    """``series_to_csv_bytes(series)``, built from the payload's sorted date
    keys and its quote ``columns`` when every cell is a short decimal: less
    its trailing zeros, each is then what ``repr`` writes for its float."""
    if columns is None:
        return series_to_csv_bytes(series)
    cells = []
    for column in columns:
        if (short := _repr_cells(column)) is None:
            return series_to_csv_bytes(series)
        cells.append(short)
    return csv_bytes((CSV_HEADER,), zip(dates, *cells))


def write_atomic(path: Path, payload: bytes) -> None:
    """Replace the file at ``path`` with ``payload`` in one rename.

    Readers see the old file or the new one, never a partial write. The
    payload first goes to a temp file in the same directory whose random
    name no other writer (or a stray file left by a crash) shares; it is
    created with ``O_EXCL`` and mode 0o666 less the umask, like a plain
    open, and removed if anything fails before the rename. A missing
    directory is made, and the open retried once, only when the first open
    fails for it. This is the package's only file and directory writer.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def replace_directory(path: Path, files: dict[str, bytes], superseded: Collection[str]) -> None:
    """Replace the directory at ``path`` with one holding ``files``, swapped in
    with one rename.

    Each file, in the dict's order, goes into a new sibling
    ``<name>.<16 hex>.tmp``. The current directory's same-named file of the
    payload's size is hard-linked in, and kept if it is a regular file the
    effective user owns with no other link that reads back equal to the
    payload (keeping its inode, mode, owner and mtime). Any other file is
    written by ``write_atomic``, whose rename replaces a rejected link, as is
    one whose link fails (the first: no directory yet). Then each file of the
    current directory that ``files`` does not hold and ``superseded`` does
    not name is hard-linked into it, so files the new directory does not
    replace survive. The current directory is renamed to
    ``<name>.<16 hex>.old``, the new one to ``path``, and the old one is
    removed: a reader sees the old directory, none, or the new one, never a
    mix. Should another writer's directory land at ``path`` between the two
    renames, it is moved aside too, so the last writer's directory wins
    whole. A failure before the swap removes the new directory and leaves
    ``path`` as it was. A ``path`` that is a symlink, names no directory of
    its own (``.``, ``..``) or holds a subdirectory is refused with a
    ConfigError, and one that is a file with ``os.scandir``'s
    NotADirectoryError, before anything is written. ``files`` holds at least
    one file.
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
    present = {e.name: e for e in entries}
    kept = [e.name for e in entries if e.name not in files and e.name not in superseded]
    token = os.urandom(8).hex()
    staged = path.with_name(f"{path.name}.{token}.tmp")
    old = path.with_name(f"{path.name}.{token}.old")
    try:
        for name, payload in files.items():
            target, entry = staged / name, present.get(name)
            with suppress(OSError):
                # A file of another size cannot read back equal: it is not linked.
                if entry and entry.stat(follow_symlinks=False).st_size == len(payload):
                    os.link(entry.path, target, follow_symlinks=False)
                    st = os.lstat(target)
                    ours = stat.S_ISREG(st.st_mode) and (st.st_uid, st.st_nlink) == (os.geteuid(), 2)
                    if ours and target.read_bytes() == payload:
                        continue
            write_atomic(target, payload)
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

    A file ``_proved_columns`` proves to be in the writer's layout from its
    bytes loads with its ``digest`` seeded as the SHA-256 of the bytes read:
    by the proof those bytes are ``series_to_csv_bytes`` of the series. Any
    other file, one the proof leaves undecided among them, is walked row by
    row, and loads only if it is written as read. The error names the first
    malformed row, date not after the row before it, or broken bar in file
    order, else the first line that differs from the writer's. A header with
    no rows is an empty series.
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
        columns = _proved_columns(data)
        if columns is not None:
            series = RawSeries(instrument, *columns)
            # By the proof the bytes read are the series' written bytes. This
            # is the one place a digest is seeded rather than computed.
            vars(series)["digest"] = hashlib.sha256(data).hexdigest()
            return series
    series = RawSeries(instrument, *_walk_rows(path, text))
    written = series_to_csv_bytes(series).decode("ascii")
    for lineno, (found, line) in enumerate(zip(text.splitlines(True), written.splitlines(True)), 1):
        if found != line:
            raise DataFormatError(f"{path}:{lineno}: not canonical: {found!r} is written {line!r}")
    return series


def _proved_columns(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The datetime64[D] dates and (n, 4) quotes of the CSV file ``data``,
    read from its bytes when exact float arithmetic proves it laid out as
    ``series_to_csv_bytes`` writes it; None when it cannot, and ValueError
    for a date that names no day.

    - *Layout*: after the header line, each line's bytes below "0" are
      ``--,.,.,.,.\n``, the dashes 4 and 7 bytes in and the comma 10, no two
      adjacent, and no byte is above "9". So a date is ``YYYY-MM-DD``, from
      year 0001, which datetime64[D] parses back to its own ``isoformat``,
      and a quote cell "I.F" has digits on each side of its point; I has no
      leading "0" unless it is "0".
    - *Digits*: with the points deleted, each cell's digits, at most 23,
      are its integer C, read in a window of whole digit pairs by two dot
      products with powers of ten: of its last 14 digits and of the 10
      before them. Every partial sum is an integer below 2**53, so each is
      exact in any order. C must be below 10**17, and k = len(F) is at most
      22, so 10**k is a float exactly. C is c + c_error, c = fl(C).
    - *Float*: q = fl(c / 10**k) is correctly rounded where C = c
      (Clinger); its residual q * 10**k - C, from Dekker's product, moves it
      to x, whose residual r is summed from exact parts. Then ``float``
      reads the cell as x when |r| is below half the spacing on the cell's
      side of x times 10**k, less a relative 1e-9. C is the integer nearest
      x * 10**k when |r| < 0.5 - 1e-9, or when r is exactly +-0.5 and C is
      even, the digit ``repr`` keeps between two nearest. No shorter
      decimal reads back as x when every multiple of 10 is farther from
      x * 10**k than half the spacing above x times 10**k, plus 1e-8, which
      also refuses a trailing "0"; a cell "I.0" instead needs x < 2**53, so
      that x is the integer I. With 1e-4 <= x < 1e16, where ``repr`` writes
      a point, the cell is then the shortest decimal that reads back as x
      and the nearest such: what ``repr`` writes (Steele and White's rule).

    Values out of range, integers from 2**53 and cells at a margin are left
    undecided. Every step is an elementwise IEEE operation or a sum of
    integers below 2**53, so the answer depends on no BLAS or SIMD kernel."""
    if not data.startswith(_CSV_HEAD) or not data.endswith(b"\n"):
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    # From the header's newline on; each row adds 11 marks.
    marks = np.flatnonzero(text < ord("0"))[len(_OHLC) :]
    n = len(marks) // len(_ROW_MARKS)
    if n == 0 or len(marks) != 1 + n * len(_ROW_MARKS):
        return None
    rows, gaps = marks[1:].reshape(n, -1), np.diff(marks).reshape(n, -1)
    if (
        text[len(_CSV_HEAD) :].max() > ord("9")
        or (text[rows] != _ROW_MARKS).any()
        or (gaps < _MARK_GAPS).any()
        or (gaps[:, :3] != _MARK_GAPS[:3]).any()
        or ((text[rows[:, 2:-1:2] + 1] == ord("0")) & (gaps[:, 3::2] > 2)).any()
    ):
        return None
    dates = text[rows[:, :1] + np.arange(-4, 6)].view("S10").ravel().astype("datetime64[D]")
    k = (gaps[:, 4::2] - 1).ravel()
    lengths = k + (gaps[:, 3::2] - 1).ravel()
    width = lengths.max()
    if dates.min() < _FIRST_DAY or width > _MAX_DIGITS:
        return None
    width += width % 2
    # Each cell's last ``width`` bytes, the point deleted, read as digits;
    # the header keeps the first window inside the file.
    ends = rows[:, 4::2].ravel() - np.arange(1, 4 * n + 1)
    windows = sliding_window_view(np.delete(text, rows[:, 3::2].ravel()), width)[ends - width]
    windows &= _DIGIT_MASKS[width - lengths, :width]
    pairs = (windows[:, ::2] * 10 + windows[:, 1::2]).astype(np.float64)
    high, low = pairs @ _PAIR_WEIGHTS[0, -width // 2 :], pairs @ _PAIR_WEIGHTS[1, -width // 2 :]
    if high.max() >= 1000:  # C >= 10**17
        return None
    high *= _TENS[14]
    c = high + low
    c_error = low - (c - high)  # C - fl(C), exactly (Fast2Sum)
    tens = _TENS_TABLE.take(k, axis=1)
    q = c / tens[0]
    hi, lo = _product(q, tens)
    x = q - ((hi - c) - c_error + lo) / tens[0]
    hi, lo = _product(x, tens)
    part = (hi - c) - c_error  # exact: Sterbenz's lemma, then integers
    r = part + lo  # x * 10**k - C
    last = windows[:, -1]
    mantissa, exponent = np.frexp(x)
    # x = m * 2**e with 0.5 <= m < 1 is ulp(x) = 2**(e - 53) below the float
    # above it, and twice as far from the float below when m is 0.5.
    half_gap = np.ldexp(tens[0] * 2.0**-54, exponent)
    below = np.where((r > 0) & (mantissa == 0.5), half_gap / 2, half_gap)
    near = np.abs(r) < below * (1 - 1e-9)
    nearest = np.abs(r) < 0.5 - 1e-9
    if not nearest.all():
        # r is part + lo exactly when both differences give the other back:
        # one of them is exact (the Fast2Sum lemma).
        exact = (r - part == lo) & (r - lo == part)
        nearest |= (np.abs(r) == 0.5) & exact & (last % 2 == 0)
    offset = last + r  # from the multiple of 10 at or below C
    shortest = np.minimum(np.abs(offset), 10 - offset) > half_gap + 1e-8
    if not shortest.all():
        shortest |= (k == 1) & (last == 0) & (x < 2.0**53)
    if not ((x >= 1e-4) & (x < 1e16) & near & nearest & shortest).all():
        return None
    return dates, x.reshape(n, 4)


def _product(x: np.ndarray, tens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**k as hi + lo exactly, where hi is the rounded product and
    ``tens`` holds 10**k and its halves: Dekker's product of Veltkamp's
    halves."""
    scale, scale_high, scale_low = tens
    hi = x * scale
    high, low = _halves(x)
    return hi, high * scale_high - hi + high * scale_low + low * scale_high + low * scale_low


def _walk_rows(path: Path, text: str) -> tuple[np.ndarray, list[list[float]]]:
    """The row-by-row reference parse: the columns, or an error naming the first
    offending row in file order (a date not after the row before it offends),
    its text after the row's ``path:line``."""
    lines = text.removesuffix("\n").split("\n")
    days: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            parts = line.split(",")
            if len(parts) != 5:
                raise DataFormatError(f"expected 5 fields, got {len(parts)}")
            date = _parse_date(parts[0], "date")
            day = date.isoformat()
            if days and date.toordinal() <= days[-1]:
                order = "duplicate" if date.toordinal() == days[-1] else "out-of-order"
                raise DataFormatError(f"{order} date {day}")
            quotes = [_parse_quote(raw, day, name) for raw, name in zip(parts[1:], _OHLC)]
            _check_bar(day, *quotes)
        except DataFormatError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
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
