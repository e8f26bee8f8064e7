"""Date-aligned, fully dense panels built from raw daily series.

Alignment is an inner join on dates: any day absent from any input series
is dropped for all of them. Forward-filling is deliberately not offered
because it would manufacture flat quotes around exactly the dates an event
study cares about. The join intersects the series' date arrays and looks
each one's rows up by binary search. A panel is one read-only
(n_columns, n_rows) array, and slicing it by a date window returns views,
so panels are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, PanelError
from .ingest import RawSeries


class BarField(str, Enum):
    OPEN = "open"
    HIGH = "high"
    LOW = "low"
    CLOSE = "close"


FIELD_ORDER: tuple[BarField, ...] = (BarField.OPEN, BarField.HIGH, BarField.LOW, BarField.CLOSE)


@dataclass(frozen=True)
class ColumnKey:
    """Identifies one panel column: an instrument symbol plus a bar field."""

    symbol: str
    field: BarField

    def __post_init__(self) -> None:
        if not self.symbol or "." in self.symbol or "," in self.symbol:
            raise ConfigError(f"bad column symbol {self.symbol!r}")
        if not isinstance(self.field, BarField):
            try:
                object.__setattr__(self, "field", BarField(self.field))
            except ValueError:
                raise ConfigError(f"unknown bar field {self.field!r}") from None

    @property
    def name(self) -> str:
        return f"{self.symbol}.{self.field.value}"

    @classmethod
    def parse(cls, name: str) -> "ColumnKey":
        symbol, sep, field = name.rpartition(".")
        if not sep or not symbol:
            raise ConfigError(f"column name must look like SYMBOL.field, got {name!r}")
        try:
            return cls(symbol, BarField(field))
        except ValueError:
            raise ConfigError(f"unknown bar field in column name {name!r}") from None

    def sort_key(self) -> tuple[str, int]:
        return (self.symbol, FIELD_ORDER.index(self.field))


@dataclass(frozen=True)
class DateWindow:
    """A closed calendar interval, inclusive on both ends."""

    start: dt.date
    end: dt.date

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ConfigError(f"window start {self.start} after end {self.end}")

    def contains(self, date: dt.date) -> bool:
        return self.start <= date <= self.end

    def intersect(self, other: "DateWindow") -> "DateWindow | None":
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        return DateWindow(start, end) if start <= end else None

    def __str__(self) -> str:
        return f"{self.start.isoformat()}..{self.end.isoformat()}"


class AlignedPanel:
    """A date-indexed matrix of named columns with no missing cells.

    Cells live in one read-only (n_columns, n_rows) C-order float array with
    a key->row index, columns in canonical (symbol, field) order, so every
    column is a contiguous read-only view exactly as long as the date
    index. Keep it so: BLAS dot products round strided vectors differently.
    Slices share the array and index of the panel they come from.
    """

    __slots__ = ("_days", "_values", "_index", "_dates")

    def __init__(
        self,
        dates: Sequence[dt.date],
        columns: Mapping[ColumnKey, Sequence[float] | np.ndarray],
    ) -> None:
        days = np.array(dates, dtype="datetime64[D]")
        if not days.size:
            raise PanelError("panel requires at least one date")
        later = days[1:] <= days[:-1]
        if later.any():
            cur = days[int(np.argmax(later)) + 1]
            raise PanelError(f"panel dates not strictly increasing at {cur}")
        if not columns:
            raise PanelError("panel requires at least one column")

        keys = sorted(columns, key=ColumnKey.sort_key)
        values = np.empty((len(keys), days.size))
        for row, key in enumerate(keys):
            array = np.asarray(columns[key], dtype=float)
            if array.shape != (days.size,):
                raise PanelError(
                    f"column {key.name} has {array.shape} values for {days.size} dates"
                )
            if not np.all(np.isfinite(array)):
                raise PanelError(f"column {key.name} contains non-finite cells")
            values[row] = array
        self._set(days, values, {key: row for row, key in enumerate(keys)})

    @classmethod
    def _of(
        cls, days: np.ndarray, values: np.ndarray, index: dict[ColumnKey, int]
    ) -> "AlignedPanel":
        """A panel over arrays that already hold a panel's invariants."""
        panel = object.__new__(cls)
        panel._set(days, values, index)
        return panel

    def _set(self, days: np.ndarray, values: np.ndarray, index: dict[ColumnKey, int]) -> None:
        days.flags.writeable = False
        values.flags.writeable = False
        self._days = days
        self._values = values
        self._index = index
        self._dates = None

    @property
    def dates(self) -> tuple[dt.date, ...]:
        if self._dates is None:
            self._dates = tuple(self._days.tolist())
        return self._dates

    @property
    def keys(self) -> tuple[ColumnKey, ...]:
        return tuple(self._index)

    @property
    def n_rows(self) -> int:
        return self._days.size

    def column(self, key: ColumnKey) -> np.ndarray:
        try:
            return self._values[self._index[key]]
        except KeyError:
            raise PanelError(f"unknown column {key.name}") from None

    def slice(self, window: DateWindow) -> "AlignedPanel":
        """Rows with window.start <= date <= window.end, all columns alike,
        as views of this panel's arrays."""
        lo = int(np.searchsorted(self._days, np.datetime64(window.start, "D"), "left"))
        hi = int(np.searchsorted(self._days, np.datetime64(window.end, "D"), "right"))
        if lo >= hi:
            raise PanelError(f"window {window} contains no panel dates")
        return AlignedPanel._of(self._days[lo:hi], self._values[:, lo:hi], self._index)

    def take(self, rows: Sequence[int] | np.ndarray, onto: "AlignedPanel") -> "AlignedPanel":
        """Rows ``rows`` of every column, in that order, re-dated onto the
        dates of ``onto``, which has exactly one date per requested row."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape != (onto.n_rows,):
            raise PanelError(f"{rows.size} rows requested for {onto.n_rows} dates")
        return AlignedPanel._of(onto._days, np.take(self._values, rows, axis=1), self._index)


def align(series_set: Iterable[RawSeries], fields: Iterable[BarField] = FIELD_ORDER) -> AlignedPanel:
    """Inner-join a set of raw series into one dense panel.

    The panel's dates are the sorted intersection of every input's dates;
    one column is produced per (instrument, requested field). Input order
    does not matter: columns come out in canonical order either way.
    """
    series_list = list(series_set)
    if not series_list:
        raise PanelError("align requires at least one series")
    wanted = set(fields)
    field_list = tuple(f for f in FIELD_ORDER if f in wanted)
    if not field_list:
        raise PanelError("align requires at least one bar field")

    seen: set[str] = set()
    for series in series_list:
        symbol = series.instrument.symbol
        if symbol in seen:
            raise PanelError(f"duplicate instrument symbol {symbol}")
        seen.add(symbol)
        if not len(series):
            raise PanelError(f"series {symbol} is empty")

    days = series_list[0].dates
    for series in series_list[1:]:
        days = np.intersect1d(days, series.dates, assume_unique=True)
    if not days.size:
        raise PanelError("series share no common dates")

    # Series hold finite, strictly dated quotes, so the panel needs no checks.
    quote_columns = [FIELD_ORDER.index(f) for f in field_list]
    ordered = sorted(series_list, key=lambda series: series.instrument.symbol)
    values = np.empty((len(ordered), len(field_list), days.size))
    index: dict[ColumnKey, int] = {}
    for i, series in enumerate(ordered):
        values[i] = series.quotes[np.searchsorted(series.dates, days)].T[quote_columns]
        for j, field in enumerate(field_list):
            index[ColumnKey(series.instrument.symbol, field)] = len(index)
    return AlignedPanel._of(days, values.reshape(len(index), days.size), index)
