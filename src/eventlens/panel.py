"""Date-aligned, fully dense panels built from raw daily series.

Alignment is an inner join on dates: any day absent from any input series
is dropped for all of them. Forward-filling is deliberately not offered
because it would manufacture flat quotes around exactly the dates an event
study cares about. The join is one membership pass: every series' dates
are searched for the shortest series' dates, and the positions found are
the rows each series' quotes are taken from. A panel is one read-only
(n_columns, n_rows) array with a key->row index, and ``by_name`` keys the
same rows by column name; ``align`` and ``slice`` build it through its one
checked constructor, so a window slice is a view and panels are immutable
and safe to share across threads.

``slice(window, onto=other)`` copies the window's rows, cycled and re-dated
onto window ``other``'s rows. A panel keeps every slice it built, next to
its ``dates``, so the protocol's stages can each ask for the windows they
read and each panel a run reads is built and checked once. The memo needs
no lock: two threads that slice one window at once build equal panels, and
storing either in the dict is atomic.

``aligned_rows`` allocates the scratch stacks ``regress`` and ``stats``
hand to BLAS, each row 16-byte aligned as a fresh array is.
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
from .ingest import RawSeries, check_symbol


class BarField(str, Enum):
    OPEN = "open"
    HIGH = "high"
    LOW = "low"
    CLOSE = "close"


FIELD_ORDER: tuple[BarField, ...] = tuple(BarField)


@dataclass(frozen=True)
class ColumnKey:
    """Identifies one panel column: an instrument symbol, held to the
    instrument symbol rule (``ingest.check_symbol``), plus a bar field."""

    symbol: str
    field: BarField

    def __post_init__(self) -> None:
        check_symbol(self.symbol)
        if not isinstance(self.field, BarField):
            raise ConfigError(f"column field must be a BarField, got {self.field!r}")

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
        index = index if isinstance(index, MappingProxyType) else MappingProxyType(dict(index))
        if not days.size:
            raise PanelError("panel requires at least one date")
        if np.isnat(days).any():
            raise PanelError("panel dates include a missing date (NaT)")
        if (later := days[1:] <= days[:-1]).any():
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
    def by_name(self) -> dict[str, int]:
        """``index`` keyed by column name, which names one key: a symbol holds no "."."""
        return {key.name: row for key, row in self.index.items()}

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


def aligned_rows(k: int, m: int) -> np.ndarray:
    """An empty (k, m) stack whose rows each start 16-byte aligned, as one
    fresh array does: OpenBLAS's SSE2 (Prescott) kernels round ddot, and
    transposed gemv, by the alignment of their vector operands."""
    return np.empty((k, m + m % 2))[:, :m]


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

    The panel's dates are the sorted intersection of every input's dates,
    found in one pass: the shortest input's dates that every input holds.
    One column is produced per (instrument, requested field). Input order
    does not matter: columns come out in canonical order either way.
    """
    series_list = list(series_set)
    if not series_list:
        raise PanelError("align requires at least one series")
    field_list = tuple(filter(set(fields).__contains__, FIELD_ORDER))
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

    ordered = sorted(series_list, key=lambda series: series.instrument.symbol)
    # Each series' position of each of the shortest series' dates; a date is
    # kept where every series holds it there.
    shortest = min(ordered, key=len).dates
    found = [np.searchsorted(series.dates, shortest) for series in ordered]
    kept = np.all([s.dates.take(at, mode="clip") == shortest for s, at in zip(ordered, found)], 0)
    days = shortest[kept]
    if not days.size:
        raise PanelError("series share no common dates")

    quote_columns = [FIELD_ORDER.index(f) for f in field_list]
    values = np.empty((len(ordered), len(field_list), days.size))
    for i, (series, at) in enumerate(zip(ordered, found)):
        values[i] = series.quotes[at[kept]].T[quote_columns]
    keys = [ColumnKey(series.instrument.symbol, field) for series in ordered for field in field_list]
    index = dict(zip(keys, range(len(keys))))
    return AlignedPanel(_frozen(days), _frozen(values).reshape(len(index), days.size), index)
