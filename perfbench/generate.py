"""Seeded inputs for the generated workloads: wide, dense and cold_fetch.

Bars are built with the construction in tools/make_synthetic_fixture.py
(loaded read-only from the checkout): factor symbols follow mean-reverting
walks, and every target's close is a noise-free linear combination of its
own open/high/low and the factor closes, so the generating weights are
known exactly and a fit must recover them. The open/high/low loadings are
convex and bounded away from 0, which keeps every close inside its bar's
low/high band; every bar is still checked before it is written.

Nothing here imports eventlens: the inputs and the expected outputs are
built independently of the program under test.
"""

from __future__ import annotations

import datetime as dt
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_TOOL = ROOT / "tools" / "make_synthetic_fixture.py"


@dataclass(frozen=True)
class Shape:
    symbols: int
    days: int
    factors: int
    holiday_calendars: int = 0
    holiday_rate: float = 0.0
    # Window lengths in trading days, counted back from the last date the way
    # paper.json lays them out: test, source and projection windows after a
    # training window that takes the remaining days.
    test_days: int = 120
    source_days: int = 20
    projection_days: int = 20


# Sizes keep one warm op near 0.4 s at the seed, so a run holds enough ops
# for a median and a tail (see README.md).
WIDE = Shape(symbols=20, days=1000, factors=4, holiday_calendars=3, holiday_rate=0.01)
# Dense needs many columns per spec more than many days; the short windows
# leave the training window 70 rows for 59 coefficients.
DENSE = Shape(symbols=56, days=100, factors=4, test_days=10, source_days=10, projection_days=10)
COLD_FETCH = Shape(symbols=30, days=800, factors=4)


def load_fixture_tool():
    spec = importlib.util.spec_from_file_location("make_synthetic_fixture", FIXTURE_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_bar(symbol: str, date: dt.date, o: float, h: float, l: float, c: float) -> None:
    if not (0.0 < l <= min(o, c) and max(o, c) <= h):
        raise RuntimeError(f"generated bar violates OHLC invariants: {symbol} {date}")


@dataclass
class Universe:
    dates: list[dt.date]
    bars: dict[str, np.ndarray]  # symbol -> (days, 4) open/high/low/close
    factors: list[str]
    truth: dict[str, dict]  # target -> {"intercept": w0, "weights": {column: w}}


def build_universe(seed: int, shape: Shape) -> Universe:
    tool = load_fixture_tool()
    rng = np.random.default_rng(seed)
    dates = tool.trading_dates(shape.days)
    bars: dict[str, np.ndarray] = {}

    factors = [f"FAC{i + 1}" for i in range(shape.factors)]
    levels = {}
    for symbol in factors:
        levels[symbol] = float(rng.uniform(80.0, 120.0))
        closes = tool.mean_reverting_walk(rng, shape.days, levels[symbol], 0.02, 0.7)
        fb = tool.factor_bars(rng, closes)
        bars[symbol] = np.column_stack([fb["open"], fb["high"], fb["low"], fb["close"]])

    truth = {}
    for i in range(shape.symbols - shape.factors):
        symbol = f"TGT{i + 1}"
        level = float(rng.uniform(50.0, 150.0))
        opens = tool.mean_reverting_walk(rng, shape.days, level, 0.03, 0.9)
        highs = opens + rng.uniform(1.0, 2.0, shape.days)
        lows = opens - rng.uniform(1.0, 2.0, shape.days)
        # Convex loadings, each at least 0.2: the close stays 0.6 or more
        # inside a band whose sides are 1 to 2 wide.
        wo, wh, wl = (0.2 + 0.4 * rng.dirichlet((4.0, 4.0, 4.0))).tolist()
        factor_weights = {f: float(rng.uniform(-0.0015, 0.0015)) for f in factors}
        # Centre the factor terms on their levels so they move the close by
        # cents, not dollars, and cannot push it outside the bar's band.
        centre = sum(w * levels[f] for f, w in factor_weights.items())
        intercept = float(rng.uniform(-0.1, 0.1)) - centre
        close = intercept + wo * opens + wh * highs + wl * lows
        for factor, weight in factor_weights.items():
            close = close + weight * bars[factor][:, 3]
        bars[symbol] = np.column_stack([opens, highs, lows, close])
        weights = {f"{symbol}.open": wo, f"{symbol}.high": wh, f"{symbol}.low": wl}
        weights.update({f"{f}.close": w for f, w in factor_weights.items()})
        truth[symbol] = {"intercept": intercept, "weights": weights}
    return Universe(dates, bars, factors, truth)


def holidays(seed: int, shape: Shape, dates: list[dt.date]) -> list[set[dt.date]]:
    """One seeded set of closed days per calendar; the first and last days
    always trade so every window keeps its edges."""
    rng = np.random.default_rng([seed, 1])
    calendars = []
    for _ in range(shape.holiday_calendars):
        closed = rng.random(len(dates)) < shape.holiday_rate
        closed[0] = closed[-1] = False
        calendars.append({d for d, c in zip(dates, closed) if c})
    return calendars


def window(dates: list[dt.date], first: int, last: int) -> dict[str, str]:
    return {"start": dates[first].isoformat(), "end": dates[last].isoformat()}


def scenario_document(universe: Universe, shape: Shape, specs: list[dict]) -> dict:
    dates = universe.dates
    n = len(dates)
    projection = (n - shape.projection_days, n - 1)
    source = (projection[0] - shape.source_days, projection[0] - 1)
    test = (source[0] - shape.test_days, source[0] - 1)
    train = (0, test[0] - 1)
    return {
        "universe": [{"symbol": s, "kind": "equity"} for s in universe.bars],
        "feature_specs": specs,
        "train_window": window(dates, *train),
        "test_window": window(dates, *test),
        "correlation_before": window(dates, *source),
        "correlation_after": window(dates, *projection),
        "source_window": window(dates, *source),
        "projection_window": window(dates, *projection),
        "projection_mode": "date_shifted",
    }


def write_run_inputs(out_dir: Path, seed: int, shape: Shape, all_closes: bool) -> None:
    """Cache CSVs, config.json and truth.json for a run workload.

    With ``all_closes`` every target regresses on its own open/high/low plus
    every other symbol's close (true weight 0 on other targets); otherwise on
    its own open/high/low plus the factor closes.
    """
    universe = build_universe(seed, shape)
    calendars = holidays(seed, shape, universe.dates)
    cache = out_dir / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    for index, (symbol, rows) in enumerate(universe.bars.items()):
        closed = calendars[index % len(calendars)] if calendars else set()
        lines = ["date,open,high,low,close"]
        for date, (o, h, l, c) in zip(universe.dates, rows.tolist()):
            check_bar(symbol, date, o, h, l, c)
            if date not in closed:
                lines.append(f"{date.isoformat()},{o!r},{h!r},{l!r},{c!r}")
        (cache / f"{symbol}.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    closes = [f"{s}.close" for s in universe.bars]
    specs = []
    for target in universe.truth:
        others = [c for c in closes if c != f"{target}.close"] if all_closes else [
            f"{f}.close" for f in universe.factors
        ]
        specs.append(
            {
                "target": f"{target}.close",
                "features": [f"{target}.open", f"{target}.high", f"{target}.low", *others],
                "include_intercept": True,
            }
        )
    document = {
        "provider": {"cache_dir": "cache"},
        "scenario": scenario_document(universe, shape, specs),
    }
    (out_dir / "config.json").write_text(json.dumps(document, indent=2) + "\n", encoding="ascii")
    truth = json.dumps(universe.truth, indent=2) + "\n"
    (out_dir / "truth.json").write_text(truth, encoding="ascii")


def provider_payload(symbol: str, dates: list[dt.date], rows: np.ndarray, volumes) -> bytes:
    """A daily-series document in the provider's dialect: newest day first,
    four-decimal quote strings, numbered field keys and a volume field the
    parser must ignore."""
    series = {}
    for date, (o, h, l, c), v in zip(reversed(dates), rows[::-1].tolist(), volumes[::-1].tolist()):
        o, h, l, c = (round(x, 4) for x in (o, h, l, c))
        check_bar(symbol, date, o, h, l, c)
        series[date.isoformat()] = {
            "1. open": repr(o),
            "2. high": repr(h),
            "3. low": repr(l),
            "4. close": repr(c),
            "5. volume": str(v),
        }
    document = {
        "Meta Data": {"1. Information": "Daily Prices", "2. Symbol": symbol},
        "Time Series (Daily)": series,
    }
    return json.dumps(document, indent=2).encode("ascii")


def write_fetch_inputs(out_dir: Path, seed: int, shape: Shape) -> None:
    """One provider payload per symbol under payloads/."""
    universe = build_universe(seed, shape)
    rng = np.random.default_rng([seed, 2])
    payloads = out_dir / "payloads"
    payloads.mkdir(parents=True, exist_ok=True)
    for symbol, rows in universe.bars.items():
        volumes = rng.integers(10_000, 5_000_000, len(universe.dates))
        body = provider_payload(symbol, universe.dates, rows, volumes)
        (payloads / f"{symbol}.json").write_bytes(body)


def expected_cache_csv(payload: bytes) -> bytes:
    """The cache file a fetch must write: the payload's own decimal strings,
    oldest day first, in the five-column CSV layout."""
    series = json.loads(payload)["Time Series (Daily)"]
    lines = ["date,open,high,low,close"]
    for date in sorted(series):
        entry = series[date]
        quotes = (entry[key] for key in ("1. open", "2. high", "3. low", "4. close"))
        lines.append(",".join((date, *quotes)))
    return ("\n".join(lines) + "\n").encode("ascii")
