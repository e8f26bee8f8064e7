"""Serialize scenario outputs into plot-ready tables with a digest manifest.

No figures are rendered; the bundle holds the data behind them. The
bundle's file sets are built by ``correlation_files`` (corr_before,
corr_after), ``counterfactual_files`` (one per target) and the metrics
tables, all encoded with ``json_bytes`` or as CSV; the CLI's correlate,
fit and project subcommands write the same bytes. Every file goes through
``ingest.write_atomic``, the package's one writer, and the manifest goes
last, so a bundle with a manifest is complete by construction. Emission is
deterministic: re-emitting the same report yields byte-identical files.

``json_bytes`` writes the bytes ``json.dumps(document, indent=2)`` writes,
ASCII with a trailing newline, through its own encoder: CPython's C encoder
does not indent, and its pure-Python one spends most of a large report on
per-float calls. A list of floats is joined from ``float.__repr__`` in one
pass, strings go through json's ``encode_basestring_ascii``, and ``NaN``
and ``Infinity`` are spelled as json spells them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import ConfigError
from .ingest import write_atomic
from .stats import CorrelationMatrix, matrix_to_csv_bytes, matrix_to_json_dict

if TYPE_CHECKING:
    from .scenario import ScenarioReport

MANIFEST_NAME = "manifest.json"
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ReportBundle:
    directory: Path
    manifest: dict


def _metrics_rows(report: ScenarioReport) -> list[dict]:
    rows = []
    for symbol, result in report.targets.items():
        for phase, metrics in (
            ("test", result.test_metrics),
            ("divergence", result.divergence_metrics),
        ):
            rows.append({"symbol": symbol, "phase": phase, **metrics.to_json_dict()})
    return rows


def _metrics_csv(report: ScenarioReport) -> bytes:
    lines = ["symbol,phase,mse,rmse,mae,mape,n"]
    for row in _metrics_rows(report):
        lines.append(
            f"{row['symbol']},{row['phase']},{row['mse']!r},{row['rmse']!r},"
            f"{row['mae']!r},{row['mape']!r},{row['n']}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def json_bytes(document) -> bytes:
    """The bundle's JSON encoding: two-space indent, ASCII, trailing newline.

    Equal to ``(json.dumps(document, indent=2) + "\\n").encode("ascii")`` for
    documents of str-keyed dicts, lists, tuples, str, int, float, bool and
    None; any other value or key type raises TypeError.
    """
    out: list[str] = []
    _encode(document, "\n", out)
    out.append("\n")
    return "".join(out).encode("ascii")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _joined(items, separator: str) -> str | None:
    """``items``' texts joined by ``separator`` in one pass when all of them
    are floats or all are strings, else None."""
    try:
        text = separator.join(map(float.__repr__, items))
    except TypeError:
        try:
            return separator.join(map(encode_basestring_ascii, items))
        except TypeError:
            return None
    # A finite float's repr has no "n"; "nan" and "inf" do.
    return separator.join(map(_float, items)) if "n" in text else text


def _encode(value, newline: str, out: list[str]) -> None:
    """Append ``value``'s text to ``out``; ``newline`` is a line break plus
    the indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        text = _joined(value, separator)
        if text is None:
            out.append("[")
            for position, item in enumerate(value):
                out.append(separator if position else inner)
                _encode(item, inner, out)
        else:
            out.append("[" + inner + text)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("{")
        for position, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append((separator if position else inner) + encode_basestring_ascii(key) + ": ")
            _encode(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _formats(formats: Iterable[str]) -> list[str]:
    wanted = sorted(set(formats))
    unknown = [fmt for fmt in wanted if fmt not in FORMATS]
    if unknown:
        raise ConfigError(f"unknown report formats: {', '.join(unknown)}")
    return wanted


def correlation_files(
    before: CorrelationMatrix, after: CorrelationMatrix, formats: Iterable[str]
) -> dict[str, bytes]:
    """corr_before and corr_after in each requested format."""
    files: dict[str, bytes] = {}
    for fmt in _formats(formats):
        for name, matrix in (("corr_before", before), ("corr_after", after)):
            if fmt == "csv":
                files[f"{name}.csv"] = matrix_to_csv_bytes(matrix)
            else:
                files[f"{name}.json"] = json_bytes(matrix_to_json_dict(matrix))
    return files


def counterfactual_files(
    symbol: str, dates, realized, counterfactual, formats: Iterable[str]
) -> dict[str, bytes]:
    """counterfactual_<symbol>: realized and counterfactual closes per
    projection date, in each requested format."""
    rows = [
        (date.isoformat(), float(r), float(c))
        for date, r, c in zip(dates, realized, counterfactual)
    ]
    files: dict[str, bytes] = {}
    for fmt in _formats(formats):
        if fmt == "csv":
            lines = ["date,realized,counterfactual", *(f"{d},{r!r},{c!r}" for d, r, c in rows)]
            files[f"counterfactual_{symbol}.csv"] = ("\n".join(lines) + "\n").encode("ascii")
        else:
            files[f"counterfactual_{symbol}.json"] = json_bytes(
                [{"date": d, "realized": r, "counterfactual": c} for d, r, c in rows]
            )
    return files


def render_files(report: ScenarioReport, formats: Iterable[str]) -> dict[str, bytes]:
    """File name -> content for the requested formats, manifest excluded."""
    files = correlation_files(report.correlation_before, report.correlation_after, formats)
    for symbol, result in report.targets.items():
        files.update(
            counterfactual_files(
                symbol, result.projection_dates, result.realized, result.counterfactual, formats
            )
        )
    for fmt in _formats(formats):
        if fmt == "csv":
            files["metrics.csv"] = _metrics_csv(report)
        else:
            files["metrics.json"] = json_bytes(_metrics_rows(report))
    return files


def emit(
    report: ScenarioReport, out_dir: Path, formats: Iterable[str] = FORMATS
) -> ReportBundle:
    """Write the bundle into out_dir and finish with the manifest.

    The manifest records every emitted file with its size and SHA-256
    digest plus the scenario's config digest. An empty format set yields a
    manifest-only bundle.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    files = render_files(report, formats)
    entries = []
    for name in sorted(files):
        payload = files[name]
        write_atomic(out_dir / name, payload)
        entries.append(
            {
                "file": name,
                "bytes": len(payload),
                "digest": hashlib.sha256(payload).hexdigest(),
            }
        )

    manifest = {"config_digest": report.provenance.get("config_digest"), "files": entries}
    write_atomic(out_dir / MANIFEST_NAME, json_bytes(manifest))
    return ReportBundle(directory=out_dir, manifest=manifest)
