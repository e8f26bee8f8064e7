"""Date-aligned, fully dense panels built from raw daily series.

Alignment is an inner join on dates: any day absent from any input series
is dropped for all of them. Forward-filling is deliberately not offered
because it would manufacture flat quotes around exactly the dates an event
study cares about. The join intersects the series' date arrays and looks
each one's rows up by binary search. A panel is one read-only
(n_columns, n_rows) array with a key->row index; ``align`` and ``slice``
build it through its one checked constructor, so a window slice is a view
and panels are immutable and safe to share across threads.

``slice(window, onto=other)`` copies the window's rows, cycled and re-dated
onto window ``other``'s rows. A panel keeps every slice it built, next to
its ``dates``, so the protocol's stages can each ask for the windows they
read and each panel a run reads is built and checked once. The memo needs
no lock: two threads that slice one window at once build equal panels, and
storing either in the dict is atomic.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

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

    @cached_property
    def name(self) -> str:
        return f"{self.symbol}.{self.field.value}"

    @classmethod
    def parse(cls, name: str) -> "ColumnKey":
        if not isinstance(name, str):
            raise ConfigError(f"column name must be a string, got {name!r}")
        symbol, sep, field = name.rpartition(".")
        if not sep or not symbol:
            raise ConfigError(f"column name must look like SYMBOL.field, got {name!r}")
        try:
            return cls(symbol, BarField(field))
        except ValueError:
            raise ConfigError(f"unknown bar field in column name {name!r}") from None


@dataclass(frozen=True)
class DateWindow:
    """A closed calendar interval, inclusive on both ends."""

    start: dt.date
    end: dt.date

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ConfigError(f"window start {self.start} after end {self.end}")

    def __str__(self) -> str:
        return f"{self.start.isoformat()}..{self.end.isoformat()}"


@dataclass(frozen=True, eq=False)
class AlignedPanel:
    """A date-indexed matrix of named columns with no missing cells.

    ``days`` are the strictly increasing dates, ``values`` holds one
    contiguous row of cells per column (BLAS dot products round strided
    vectors differently) and ``index`` maps each column key to its row.
    Read-only arrays (over read-only memory) and index are kept, so slices
    share their parent's; writeable ones are replaced by read-only copies.
    """

    days: np.ndarray
    values: np.ndarray
    index: Mapping[ColumnKey, int]

    def __post_init__(self) -> None:
        days = _read_only(self.days, np.dtype("datetime64[D]"))
        values = _read_only(self.values, np.dtype(float))
        index = self.index
        if not isinstance(index, MappingProxyType):
            index = MappingProxyType(dict(index))
        if not days.size:
            raise PanelError("panel requires at least one date")
        if np.isnat(days).any():
            raise PanelError("panel dates include a missing date (NaT)")
        later = days[1:] <= days[:-1]
        if later.any():
            cur = days[int(np.argmax(later)) + 1]
            raise PanelError(f"panel dates not strictly increasing at {cur}")
        if not index:
            raise PanelError("panel requires at least one column")
        if list(index.values()) != list(range(len(index))):
            raise PanelError("panel index must number its columns 0, 1, ... in order")
        if values.shape != (len(index), days.size):
            raise PanelError(f"{values.shape} values for {len(index)} columns and {days.size} dates")
        if not np.isfinite(values).all():
            key = list(index)[int(np.argmin(np.isfinite(values).all(axis=1)))]
            raise PanelError(f"column {key.name} contains non-finite cells")
        if not values[0].flags.c_contiguous:
            raise PanelError("panel rows are not contiguous")
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index", index)

    @cached_property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(self.days.tolist())

    @cached_property
    def _slices(self) -> dict[tuple[DateWindow, DateWindow | None], "AlignedPanel"]:
        return {}

    @property
    def keys(self) -> tuple[ColumnKey, ...]:
        return tuple(self.index)

    @property
    def n_rows(self) -> int:
        return self.days.size

    def column(self, key: ColumnKey) -> np.ndarray:
        try:
            return self.values[self.index[key]]
        except KeyError:
            raise PanelError(f"unknown column {key.name}") from None

    def slice(self, window: DateWindow, onto: DateWindow | None = None) -> "AlignedPanel":
        """Rows with window.start <= date <= window.end, all columns alike, as
        views of this panel's arrays; given ``onto``, a copy of those rows cycled
        in order and re-dated onto the rows of window ``onto``. Built once each."""
        sliced = self._slices.get((window, onto))
        if sliced is None:
            if onto is not None:
                rows, onto_rows = self.slice(window), self.slice(onto)
                cycled = np.take(rows.values, np.arange(onto_rows.n_rows) % rows.n_rows, axis=1)
                sliced = AlignedPanel(onto_rows.days, _frozen(cycled), self.index)
            else:
                lo = int(np.searchsorted(self.days, np.datetime64(window.start, "D"), "left"))
                hi = int(np.searchsorted(self.days, np.datetime64(window.end, "D"), "right"))
                if lo >= hi:
                    raise PanelError(f"window {window} contains no panel dates")
                sliced = AlignedPanel(self.days[lo:hi], self.values[:, lo:hi], self.index)
            self._slices[window, onto] = sliced
        return sliced


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _read_only(array: object, dtype: np.dtype) -> np.ndarray:
    """``array`` if it is ``dtype`` and no one can write its memory, else a read-only copy."""
    if isinstance(array, np.ndarray) and array.dtype == dtype and not array.flags.writeable:
        base = array.base
        if base is None or isinstance(base, np.ndarray) and not base.flags.writeable:
            return array
    return _frozen(np.array(array, dtype=dtype))


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

    quote_columns = [FIELD_ORDER.index(f) for f in field_list]
    ordered = sorted(series_list, key=lambda series: series.instrument.symbol)
    values = np.empty((len(ordered), len(field_list), days.size))
    index: dict[ColumnKey, int] = {}
    for i, series in enumerate(ordered):
        values[i] = series.quotes[np.searchsorted(series.dates, days)].T[quote_columns]
        for j, field in enumerate(field_list):
            index[ColumnKey(series.instrument.symbol, field)] = len(index)
    return AlignedPanel(_frozen(days), _frozen(values).reshape(len(index), days.size), index)
