from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from eventlens import DailyBar, InstrumentId, InstrumentKind, RawSeries, align, load_csv
from eventlens.panel import FIELD_ORDER, AlignedPanel, BarField, ColumnKey
from eventlens.scenario import ScenarioConfig, config_from_json_dict
from eventlens.stats import CorrelationMatrix, correlation_matrix

FIXTURE_DIR = Path(__file__).parent / "fixtures"
SYNTHETIC_DIR = FIXTURE_DIR / "synthetic"
GOLDEN_DIR = FIXTURE_DIR / "golden"

# A long run of a property, picked with --hypothesis-profile=thorough; Tier-1
# runs each property at its own or hypothesis' default example count.
settings.register_profile("thorough", max_examples=1000)


def make_instrument(symbol: str, kind: InstrumentKind = InstrumentKind.EQUITY) -> InstrumentId:
    return InstrumentId(symbol, kind)


def make_bar(date: dt.date, close: float, spread: float = 1.0) -> DailyBar:
    return DailyBar(date=date, open=close, high=close + spread, low=max(close - spread, 1e-6), close=close)


def series_of(instrument: InstrumentId, bars) -> RawSeries:
    """The RawSeries holding ``bars`` in the given order, through its one constructor."""
    bars = tuple(bars)
    dates = [bar.date for bar in bars]
    quotes = [(bar.open, bar.high, bar.low, bar.close) for bar in bars]
    return RawSeries(instrument, dates, quotes)


def panel_of(dates, columns) -> AlignedPanel:
    """The AlignedPanel over ``dates`` holding ``columns`` (key -> cells), in
    canonical (symbol, field) order, through its one constructor."""
    keys = sorted(columns, key=lambda key: (key.symbol, FIELD_ORDER.index(key.field)))
    values = [np.asarray(columns[key], dtype=float) for key in keys]
    return AlignedPanel(dates, values, {key: row for row, key in enumerate(keys)})


def make_series(symbol: str, start: dt.date, closes) -> RawSeries:
    bars = tuple(
        make_bar(start + dt.timedelta(days=i), float(c)) for i, c in enumerate(closes)
    )
    return series_of(make_instrument(symbol), bars)


def random_series(symbol: str, n: int, rng: np.random.Generator, level: float = 100.0) -> RawSeries:
    closes = level + np.cumsum(rng.normal(0.0, 0.5, n))
    closes = np.maximum(closes, 1.0)
    start = dt.date(2020, 1, 1)
    return make_series(symbol, start, closes)


def load_fixture_config(name: str) -> tuple[dict, ScenarioConfig]:
    document = json.loads((SYNTHETIC_DIR / name).read_text())
    return document, config_from_json_dict(document["scenario"])


def load_fixture_data(variant: str, config: ScenarioConfig) -> list[RawSeries]:
    return [
        load_csv(SYNTHETIC_DIR / variant / f"{instrument.symbol}.csv", instrument)
        for instrument in config.universe
    ]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20220224)


@pytest.fixture
def small_matrix(rng) -> CorrelationMatrix:
    """The correlation matrix of two random close columns, A and B."""
    panel = align([random_series("A", 20, rng), random_series("B", 20, rng)])
    return correlation_matrix(panel, [ColumnKey(s, BarField.CLOSE) for s in ("A", "B")])


@pytest.fixture(scope="session")
def truth() -> dict:
    return json.loads((SYNTHETIC_DIR / "truth.json").read_text())
