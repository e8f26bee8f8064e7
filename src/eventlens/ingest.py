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

A provider payload is read by one byte-level scan (``_scan_payload``) when
its entries repeat the first one's text: one row of quote positions per
entry, each entry's fixed text (its keys and the punctuation around them,
and the gap before it) held to the first's byte for byte, and ``json.loads``
of the rest, with the entries left out, proving them the one series map.
The dates and the open, high, low and close cells are gathered, oldest
first and each cell less its trailing zeros but the digit after its point,
into the cache file's bytes in one take. ``_short_columns`` reads the
dates and, when every quote is a short decimal (at most 16 bytes, digits
around one point, from 1e-4 up), the quotes from their own digits, eight a
u64 lane by the fold both readers share (``_eight_digits``): such a cell
less its trailing zeros is what ``repr`` writes, so the file is the
series' own. A payload with a longer cell has its bytes proved instead by
``_proved_columns``, as ``load_csv`` proves a file. Either way
``RawSeries.from_csv_bytes`` returns the series carrying the file's
SHA-256. Any other payload, or one with a cell neither decides (no point,
a leading zero, a quote below 1e-4, digits ``repr`` would not write) or
dates out of order, is parsed by ``json.loads`` and walked entry by entry
(``_walk_entries``), the reference the scan is held to; its series is
written out by ``series_to_csv_bytes``, and the error names the first
offending entry in date order, an earlier broken bar first. Either way a
DataFormatError's text starts with the instrument's symbol.

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
cell's digits are read in place as one exact integer, eight a u64 lane,
and exact float arithmetic proves the cell both what ``float`` reads and
what ``repr`` writes for the float it returns; a file of short decimals
(every integer below 10**15) needs only Clinger's fast path.
``RawSeries.from_csv_bytes`` loads a file it proves with its digest seeded
as the hash of the bytes, the one way a digest is seeded rather than
computed. Any other file, one it cannot decide (a quote below
1e-4 or from 1e16, an integer from 2**53, a cell at a rounding margin)
among them, is walked row by row and loads only if the series it decodes
writes it back byte for byte. The error names the
first offending row in file order, else the first line unlike the
writer's; its text starts with the file's path and the line's number.
``fetch_universe`` proves the cache files of a universe in batches, one
call on the rows of several files, and loads each file a batch leaves
unproved through ``load_csv``.
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
from itertools import accumulate
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

    @classmethod
    def from_csv_bytes(
        cls,
        instrument: InstrumentId,
        data: bytes,
        synthetic_ohlc: bool = False,
        *,
        columns: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> RawSeries | None:
        """The series of the CSV file ``data`` when it is proved what
        ``write_csv`` writes for that series, with its ``digest`` seeded as
        the SHA-256 of ``data``; None when the proof cannot decide, a date
        names no day, or the columns break a bar invariant or the date order.
        The proof is ``_proved_columns(data)``, or, when ``columns`` are
        given, the one that read them: the payload scan's ``_short_columns``
        on the text ``data`` was gathered from, or ``fetch_universe``'s
        ``_proved_columns`` on a batch of files, ``data``'s rows among them,
        sliced to its own. The one way a digest is seeded rather than
        computed."""
        with suppress(ValueError, DataFormatError):
            if (columns := columns or _proved_columns(data)) is not None:
                series = cls(instrument, *columns, synthetic_ohlc)
                object.__setattr__(series, "digest", hashlib.sha256(data).hexdigest())
                return series
        return None

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
# The scan's tokens: JSON whitespace (``\s`` also takes \f and \v), a
# string's text with no control character, and a first entry.
_WS = rb"[ \t\n\r]*"
_CHARS = rb'[^"\x00-\x1f]*'
_PAIR = rb'"%b"%b:%b"%b"' % (_CHARS, _WS, _WS, _CHARS)
_FIRST_ENTRY = re.compile(
    rb'"[0-9]{4}-[0-9]{2}-[0-9]{2}"%b:%b\{%b%b(?:%b,%b%b)*%b\}' % (_WS, _WS, _WS, _PAIR, _WS, _WS, _PAIR, _WS)
)
# What stands in for a scanned payload's entries when ``json.loads`` checks
# the rest: a member no payload holds (a payload with a backslash is not
# scanned), ending in a string as the last entry does; and the series map it
# leaves when the entries were the map's only members.
_MARKER = b'"\\\\": {"": ""'
_MARKED = {"\\": {"": ""}}
_CLOSING = re.compile(rb"%b\}%b\}" % (_WS, _WS))
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


def _parse_payload(body: bytes, instrument: InstrumentId) -> tuple[RawSeries, bytes | None]:
    """The payload's series and, if the scan read it, its cache file's bytes
    (else None). A DataFormatError's text starts with the instrument's symbol."""
    try:
        if (scanned := _scan_payload(body, instrument)) is not None:
            return scanned
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
        return _walk_entries(instrument, series_map), None
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


def _scan_payload(body: bytes, instrument: InstrumentId) -> tuple[RawSeries, bytes] | None:
    """The series and its cache file's bytes, gathered from the entries that
    repeat the first one's text and read by ``_short_columns`` or proved by
    ``_proved_columns``; None unless the JSON path agrees."""
    if not body.isascii() or b"\\" in body or len(body) >= 2**31:
        return None
    if not (first := _FIRST_ENTRY.search(body)):
        return None
    # Split at quotes: punctuation, the date, then each key and its value.
    parts = first[0].decode("ascii").split('"')
    keys = parts[3::4]
    try:
        fields = _match_fields(keys, "")
    except DataFormatError:
        return None
    close_only = fields[:3] == [None] * 3
    fields = fields[3:] * 4 if close_only else fields
    if None in fields:
        return None
    # One row of quote positions per entry, as many as the first one holds.
    text = np.frombuffer(body, dtype=np.uint8)
    quotes = np.flatnonzero(text == ord('"'))
    quotes = quotes[np.searchsorted(quotes, first.start()) :]
    width = len(parts) - 1
    rows = quotes[: len(quotes) // width * width].reshape(-1, width)
    # The entries run on while each repeats the first's fixed text, quotes
    # included: from the date and each value to the next value, and the gap
    # from the entry before, which must be a "},". The dates and the quote
    # cells between are the proof's to check.
    gap = body[rows[0, -1] : rows[1, 0] + 1] if len(rows) > 1 else b""
    if gap.translate(None, b" \t\n\r") == b'"},"':
        runs = [(rows[:-1, -1], gap)]
        runs += [(rows[1:, j], body[rows[0, j] : rows[0, j + 3] + 1]) for j in range(1, width - 1, 4)]
        rows = rows[: 1 + min(_rows_holding(body, *run) for run in runs)]
    else:
        rows = rows[:1]
    # The fixed text holds every control character of the entries, so no
    # value holds one.
    in_entry = np.count_nonzero(text[rows[0, 0] : rows[0, -1]] < 0x20)
    in_gap = np.count_nonzero(text[rows[0, -1] : rows[0, -1] + len(gap)] < 0x20)
    in_all = np.count_nonzero(text[rows[0, 0] : rows[-1, -1]] < 0x20)
    if in_all != len(rows) * in_entry + (len(rows) - 1) * in_gap:
        return None
    # With the marker for the entries, the rest must be an object holding the
    # marker's map as a direct member; a later member of the same key drops it.
    # The map can hold the marker alone only if it closes after the entries.
    if not _CLOSING.match(body, rows[-1, -1] + 1):
        return None
    try:
        rest = json.loads(body[: first.start()] + _MARKER + body[rows[-1, -1] + 1 :])
    except ValueError:
        return None
    if type(rest) is not dict or _MARKED not in rest.values():
        return None
    if any(map(rest.__contains__, _PROVIDER_ERROR_KEYS)) or any(map(_is_series_map, rest.values())):
        return None
    # Entries newest first, as the provider writes them, are read backwards.
    if body[rows[0, 0] : rows[0, 1]] > body[rows[-1, 0] : rows[-1, 1]]:
        rows = rows[::-1]
    # Each row's date, then its open, high, low and close cells, from their
    # first byte to the quote after them.
    columns = np.array([0, *(4 + 4 * keys.index(key) for key in fields)])
    starts, ends = rows[:, columns] + 1, rows[:, columns + 1]
    short = _short_columns(text, starts, ends)
    # Less its trailing zeros but the digit after its point, a cell is what
    # repr writes for its float, if any is. A cell ending in more zeros than
    # the proof reads digits is refused either way.
    cells = ends[:, 1:]
    for _ in range(_MAX_DIGITS):
        zeros = (text[cells - 1] == ord("0")) & (text[cells - 2] != ord("."))
        if not zeros.any():
            break
        cells -= zeros
    # The file in one ragged take of each field and the byte after it, which
    # then becomes the comma or the newline: the index steps by one in a
    # field and jumps from the byte after one field to the next one's start.
    sizes = (ends - starts + 1).ravel()
    offsets = np.cumsum(sizes)
    index = np.ones(offsets[-1], dtype=np.int32)
    index[offsets - sizes] = starts.ravel() - np.append(0, ends.ravel()[:-1])
    lines = text[np.cumsum(index, out=index)]
    lines[offsets.reshape(-1, 5) - 1] = _FIELD_ENDS
    data = _CSV_HEAD + lines.tobytes()
    series = RawSeries.from_csv_bytes(instrument, data, close_only, columns=short)
    return None if series is None else (series, data)


def _short_columns(
    text: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The datetime64[D] dates and (n, 4) quotes of a scan's (n, 5) cells,
    ``text[starts:ends]``, when each date is ``YYYY-MM-DD`` from year 0001
    and each quote a short decimal; else None.

    A short decimal has at most 16 bytes, digits on each side of one point,
    no leading "0" unless it is "0.", and is from 1e-4 up. So it has at most
    15 significant digits, which a binary64 float round-trips (C's
    ``DBL_DIG``): less its trailing zeros, it is the shortest decimal that
    reads back as its float, what ``repr`` writes. Its digits are an integer
    C below 10**15, read as two u64 lanes of eight digits by the fold
    ``_proved_columns`` shares (``_eight_digits``), and its fraction's
    length k at most 14, so C and 10**k are floats exactly and fl(C / 10**k)
    is the float it reads (Clinger's fast path). ``_proved_columns``
    decides the cells this leaves."""
    days = text[starts[:, :1] + _RAMP]
    if (ends[:, 0] - starts[:, 0] != 10).any() or ((days - _DAY_ZERO) > _DAY_LIMITS).any():
        return None
    try:
        dates = days.view("S10").ravel().astype("datetime64[D]")
    except ValueError:
        return None
    cell_ends = ends[:, 1:].ravel()
    lengths = cell_ends - starts[:, 1:].ravel()
    if dates.min() < _FIRST_DAY or lengths.min() < 3 or lengths.max() > 16:
        return None
    # Each cell's last 16 bytes (a date and a key come first, so they are in
    # the payload), its first byte ``lead`` into them, and its point the last
    # in them; with the point and the bytes before the cell zeroed, any byte
    # but a digit is above 9.
    windows = sliding_window_view(text, 16)[cell_ends - 16]
    lead = 16 - lengths
    point = 15 - np.argmax(windows[:, ::-1] == ord("."), axis=1)
    digits = (windows - ord("0")) & _CELL_MASKS[lead]
    cells = np.arange(len(lead))
    digits[cells, point] = 0
    if (digits > 9).any() or (point <= lead).any() or (point == 15).any():
        return None
    if ((windows[cells, lead] == ord("0")) & (point > lead + 1)).any():
        return None
    # Each half of 8 digits as an integer. The point read as a 0 sits 10**k
    # up; C is the digits with it deleted.
    halves = _eight_digits(digits.view("<u8"))
    whole = halves[:, 0] * 10**8 + halves[:, 1]
    k = 15 - point
    scale = _POWERS[k]
    quotes = (whole // (scale * 10) * scale + whole % scale).astype(np.float64) / _TENS[k]
    if not (quotes >= 1e-4).all():
        return None
    return dates, quotes.reshape(-1, 4)


def _eight_digits(lanes: np.ndarray) -> np.ndarray:
    """Each u64 lane of eight digit values, its first digit in the lowest
    byte, as the integer they write. Each step multiplies a lane by a
    neighbour's place plus one and shifts, so every other slot holds digit
    pairs, then pairs of pairs, then the lane: SWAR, no carries between
    slots, and what wraps past 64 bits is above the slots kept (Lemire 2021,
    *Number parsing at a gigabyte per second*)."""
    lanes = (lanes * (10 << 8 | 1)) >> 8
    lanes = ((lanes & 0x00FF00FF00FF00FF) * (100 << 16 | 1)) >> 16
    return ((lanes & 0x0000FFFF0000FFFF) * (10000 << 32 | 1)) >> 32


def _rows_holding(data: bytes, starts: np.ndarray, run: bytes) -> int:
    """How many of ``starts``, from the first, ``data`` holds ``run`` at. A
    start too near the end reads the last window, which ends as ``data``
    does: a payload ``json.loads`` takes ends in "}" or white space, and no
    run of fixed text ends so."""
    last = len(data) - len(run)
    windows = np.ndarray((last + 1,), f"V{len(run)}", data, strides=(1,))
    found, runs = windows[np.minimum(starts, last)].tobytes(), run * len(starts)
    if found == runs:
        return len(starts)
    return np.argmax(np.frombuffer(found, np.uint8) != np.frombuffer(runs, np.uint8)) // len(run)


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
_FIELD_ENDS = np.frombuffer(b",,,,\n", dtype=np.uint8)
_MARK_GAPS = np.array([5, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2])
_FIRST_DAY = np.datetime64("0001-01-01")
# A scanned date's bytes less "0000-00-00" are digits but for its two dashes.
_DAY_ZERO = np.frombuffer(b"0000-00-00", dtype=np.uint8)
_DAY_LIMITS = np.array([9, 9, 9, 9, 0, 9, 9, 0, 9, 9], dtype=np.uint8)
_RAMP = np.arange(10)
# A quote cell holds at most 23 digits ("0." and 22 fraction digits), read
# in the 24 bytes that end it as three u64 lanes. ANDed with row (d, k) of
# the masks, the window of a cell of d digits and k after its point keeps
# each digit's value and zeroes the point and the bytes before the cell.
_MAX_DIGITS = 23
_LANE_MASKS = [[[15 * (23 - d <= j != 23 - k) for j in range(24)] for k in range(23)] for d in range(24)]
_LANE_MASKS = np.array(_LANE_MASKS, dtype=np.uint8).view("<u8").reshape(-1, 3)
# Row j keeps the last 16 - j bytes of a 16-byte window; 10**k as integers,
# the exponent capped at 18.
_CELL_MASKS = np.array([[0] * j + [0xFF] * (16 - j) for j in range(17)], dtype=np.uint8)
_POWERS = (10 ** np.minimum(np.arange(_MAX_DIGITS), 18)).astype(np.uint64)


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
    bytes loads through ``RawSeries.from_csv_bytes``, its ``digest`` the
    SHA-256 of the bytes read: by the proof those bytes are
    ``series_to_csv_bytes`` of the series. Any other file, one the proof
    leaves undecided among them, is walked row by row, and loads only if it
    is written as read. The error names the first
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

    if (series := RawSeries.from_csv_bytes(instrument, data)) is not None:
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
    - *Digits*: each cell's last 24 bytes, its digits, at most 23, and its
      point read as a 0, are three u64 lanes, each folded to the integer
      below 10**8 its eight digits write (``_eight_digits``). W = l0 * 10**16
      + l1 * 10**8 + l2 = I * 10**(k + 1) + F must be below 10**18 (l0 <
      100), where k = len(F) is at most 22, so 10**k is a float exactly.
      Then C = I * 10**k + F is (W + 9 * (W % 10**k)) / 10, exactly in u64;
      10**k is capped at 10**18, above W, since I is 0 from k = 17 on.
      W < 10**18 is C < 10**17 but where I is 0 and k is from 18; such a C
      from 10**17 has 18 significant digits, which ``repr`` never writes,
      and the shortest test below refuses it, half the spacing times 10**k
      being above 5. C is c + c_error, c = fl(C), and c_error = C - c is
      exact in int64.
    - *Short decimals*: when every C is below 10**15, each cell has at most
      15 significant digits. Then c / 10**k is the float x it reads
      (Clinger's fast path), and no other decimal of at most 15 significant
      digits reads back as x (``DBL_DIG``). So with x >= 1e-4, a cell that
      ends in no "0", but as "I.0", is what ``repr`` writes; the steps below
      are skipped.
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
    undecided. Every step is an elementwise IEEE operation or exact integer
    arithmetic, so the answer depends on no BLAS or SIMD kernel."""
    if not data.startswith(_CSV_HEAD) or not data.endswith(b"\n"):
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    # From the header's newline on; each row adds 11 marks.
    marks = np.flatnonzero(text < ord("0"))[len(_OHLC) :]
    n = len(marks) // len(_ROW_MARKS)
    if n == 0 or len(marks) != 1 + n * len(_ROW_MARKS):
        return None
    rows, gaps = marks[1:].reshape(n, -1), np.diff(marks).reshape(n, -1)
    del marks  # each intermediate is dropped after its last use, which keeps the peak low
    if (
        text[len(_CSV_HEAD) :].max() > ord("9")
        or (text[rows] != _ROW_MARKS).any()
        or (gaps < _MARK_GAPS).any()
        or (gaps[:, :3] != _MARK_GAPS[:3]).any()
        or ((text[rows[:, 2:-1:2] + 1] == ord("0")) & (gaps[:, 3::2] > 2)).any()
    ):
        return None
    dates = np.ndarray((len(data) - 9,), "S10", data, strides=(1,))[rows[:, 0] - 4].astype("datetime64[D]")
    k = (gaps[:, 4::2] - 1).ravel()
    lengths = k + (gaps[:, 3::2] - 1).ravel()
    del gaps
    if dates.min() < _FIRST_DAY or lengths.max() > _MAX_DIGITS:
        return None
    # Each cell's last 24 bytes as three u64 lanes, masked to its digits'
    # values with the point read as a 0; the header keeps the first window
    # inside the file.
    lanes = np.ndarray((len(data) - 23,), "V24", data, strides=(1,))[rows[:, 4::2].ravel() - 24]
    lanes = lanes.view("<u8").reshape(-1, 3)
    lanes &= _LANE_MASKS.take(lengths * _MAX_DIGITS + k, axis=0)
    del rows, lengths
    lanes = _eight_digits(lanes)
    if lanes[:, 0].max() >= 100:  # W >= 10**18
        return None
    whole = lanes[:, 0] * 10**16 + lanes[:, 1] * 10**8 + lanes[:, 2]
    digits = ((whole + whole % _POWERS[k] * 9) // 10).view(np.int64)  # C, the point's 0 deleted
    del lanes, whole
    c, last = digits.astype(np.float64), digits % 10
    if digits.max() < 10**15:
        x = c / _TENS[k]
        return (dates, x.reshape(n, 4)) if ((x >= 1e-4) & ((last != 0) | (k == 1))).all() else None
    c_error = (digits - c.astype(np.int64)).astype(np.float64)  # C - fl(C), exactly
    del digits
    tens = _TENS_TABLE.take(k, axis=1)
    q = c / tens[0]
    hi, lo = _product(q, tens)
    x = q - ((hi - c) - c_error + lo) / tens[0]
    hi, lo = _product(x, tens)
    part = (hi - c) - c_error  # exact: Sterbenz's lemma, then integers
    r = part + lo  # x * 10**k - C
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

    series, data = _parse_payload(body, instrument)
    try:
        write_atomic(cache_path, series_to_csv_bytes(series) if data is None else data)
    except OSError as exc:
        raise CacheError(f"cannot write cache file {cache_path}: {exc}") from exc
    return series


def fetch_universe(
    instruments: Iterable[InstrumentId],
    config: ProviderConfig,
    transport: Transport | None = None,
) -> list[RawSeries]:
    """Fetch several instruments through one shared rate limiter: the
    series, the requests and the first error of a ``fetch_daily`` loop.

    The cache files are read first, in order. Those that start with the
    header line, end in a newline, are ASCII and hold no CR are proved in
    batches of consecutive files: one ``_proved_columns`` call on their rows
    after one header, split by each file's row count, and each series built
    by ``RawSeries.from_csv_bytes`` from the file's own bytes. A batch is
    proved once one more file the size of its last would take it past
    LOAD_BATCH_BYTES. Then every instrument without a proved series goes
    through ``fetch_daily``, in the order given: a miss is fetched through
    the limiter, and a file that is unreadable, not in that layout, in a
    batch the proof refuses or raises ValueError on, or whose columns break
    a bar or the date order is loaded by ``load_csv``. A proved file raises
    nothing, so the first error is the first in universe order, as in the
    loop.
    """
    instruments = list(instruments)
    proved = _proved_cache_files(instruments, config.cache_dir)
    return [
        fetch_daily(instrument, config, transport) if series is None else series
        for instrument, series in zip(instruments, proved)
    ]


# The most bytes of cache files ``fetch_universe`` proves in one call, when
# the files are of one size. Each call costs 55-90 us however few rows it
# proves, and holds 8-16 bytes of temporaries a byte of text (tracemalloc;
# the fewer digits a cell, the more). On the benchmark's files (82-85 bytes
# a row) 64 KiB is 700-790 rows and peaks near 0.47 MB, below the 0.67 MB
# of one 989-row wide file, and 700-row paper files and wide's are still
# proved one per call. Measured in process on a 2-vCPU AVX-512 host (medians
# of 31 alternating rounds), dense's 56 files of 100 rows (seed 41) are
# proved in 12.0 ms one per call, 6.9 ms at 48 KiB, 6.4 ms at 64 KiB and
# 6.1 ms at 96 KiB, whose batches peak above one wide file.
LOAD_BATCH_BYTES = 64 * 1024


def _proved_cache_files(instruments: list[InstrumentId], cache_dir: Path) -> list[RawSeries | None]:
    """Each instrument's series if its cache file is proved in a batch, else None."""
    proved: list[RawSeries | None] = [None] * len(instruments)
    batch: list[tuple[int, bytes]] = []
    size = 0
    for index, instrument in enumerate(instruments):
        try:
            data = (cache_dir / f"{instrument.symbol}.csv").read_bytes()
        except OSError:
            continue
        if data.startswith(_CSV_HEAD) and data.endswith(b"\n") and data.isascii() and b"\r" not in data:
            batch.append((index, data))
            size += len(data)
            # Proved before the next file is read, so that no file's bytes
            # stay alive through another batch's proof.
            if size + len(data) > LOAD_BATCH_BYTES:
                _prove_batch(instruments, batch, proved)
                batch, size = [], 0
    if batch:
        _prove_batch(instruments, batch, proved)
    return proved


def _prove_batch(instruments: list[InstrumentId], batch: list[tuple[int, bytes]], proved: list) -> None:
    """Set ``proved[index]`` for each (index, bytes) file of ``batch`` when
    ``_proved_columns`` proves all their rows after one header."""
    skip = len(_CSV_HEAD)
    # A file alone is proved from its own bytes, as ``load_csv`` proves it:
    # wide's files loaded slower from a copy.
    text = batch[0][1]
    if len(batch) > 1:
        text = b"".join([_CSV_HEAD, *(memoryview(data)[skip:] for _, data in batch)])
    with suppress(ValueError):
        columns = _proved_columns(text)
        if columns is not None:
            # The last file's rows end the batch's, so only the others are counted.
            stops = [*accumulate(data.count(b"\n", skip) for _, data in batch[:-1]), len(columns[0])]
            for (index, data), start, stop in zip(batch, [0, *stops], stops):
                part = (columns[0][start:stop], columns[1][start:stop])
                proved[index] = RawSeries.from_csv_bytes(instruments[index], data, columns=part)
