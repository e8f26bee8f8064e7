"""Serialize scenario outputs into plot-ready tables with a digest manifest.

No figures are rendered; the bundle holds the data behind them. Each
table (corr_before, corr_after, counterfactual_<symbol> per target,
metrics) is one header plus rows, and ``_files`` writes it as a CSV/JSON
pair: the CSV through ``ingest.csv_bytes``, the JSON as one object per row
keyed by the header (a correlation matrix's is its own document), so the
two cannot disagree. The CLI's correlate and project subcommands write the
same bytes, and its fit subcommand writes ``model_files``. Every output
file goes through ``write_files``, and so through ``ingest.write_atomic``,
which makes a missing directory. An emit writes the manifest last, so a
bundle with a manifest is complete by construction; re-emitting a report
yields byte-identical files.

``json_bytes`` writes the bytes ``json.dumps(document, indent=2)`` writes,
ASCII with a trailing newline, through its own encoder: CPython's C encoder
does not indent, and its pure-Python one spends most of a large report on
per-float calls. A list of floats is joined from ``float.__repr__`` in one
pass, strings go through json's ``encode_basestring_ascii``, and ``NaN``
and ``Infinity`` are spelled as json spells them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import ConfigError
from .ingest import csv_bytes, write_atomic
from .metrics import MetricsReport
from .regress import RegressionModel, model_to_json_dict
from .stats import CorrelationMatrix, matrix_to_json_dict

if TYPE_CHECKING:
    from .scenario import ScenarioReport

MANIFEST_NAME = "manifest.json"
FORMATS = ("csv", "json")
COUNTERFACTUAL_HEADER = ("date", "realized", "counterfactual")
METRICS_HEADER = ("symbol", "phase", *(field.name for field in fields(MetricsReport)))
_metric_values = attrgetter(*METRICS_HEADER[2:])


@dataclass(frozen=True)
class ReportBundle:
    directory: Path
    manifest: dict


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


def _files(formats: Iterable[str], *tables: tuple) -> dict[str, bytes]:
    """``<stem>.csv`` and ``<stem>.json`` of each ``(stem, header, rows,
    document)`` table, for the requested formats, which are checked once.

    A CSV cell is its value's ``str``, which is ``repr`` for a float. The
    JSON is ``document``, or when that is None one object per row keyed by
    the header.
    """
    wanted = set(formats)
    unknown = sorted(wanted - set(FORMATS))
    if unknown:
        raise ConfigError(f"unknown report formats: {', '.join(unknown)}")
    files = {}
    for stem, header, rows, document in tables:
        if "csv" in wanted:
            files[f"{stem}.csv"] = csv_bytes(header, (map(str, row) for row in rows))
        if "json" in wanted:
            if document is None:
                document = [dict(zip(header, row)) for row in rows]
            files[f"{stem}.json"] = json_bytes(document)
    return files


def _correlation_tables(before: CorrelationMatrix, after: CorrelationMatrix) -> list[tuple]:
    """corr_before and corr_after: a header of labels and one labelled row
    per label; the JSON is the matrix's ``{labels, values}`` document."""
    tables = []
    for stem, matrix in (("corr_before", before), ("corr_after", after)):
        document = matrix_to_json_dict(matrix)
        labels = document["labels"]
        rows = [[label, *values] for label, values in zip(labels, document["values"])]
        tables.append((stem, ["", *labels], rows, document))
    return tables


def _counterfactual_table(symbol: str, dates, realized, counterfactual) -> tuple:
    rows = list(zip([d.isoformat() for d in dates], realized.tolist(), counterfactual.tolist()))
    return f"counterfactual_{symbol}", COUNTERFACTUAL_HEADER, rows, None


def correlation_files(
    before: CorrelationMatrix, after: CorrelationMatrix, formats: Iterable[str]
) -> dict[str, bytes]:
    """corr_before and corr_after in each requested format."""
    return _files(formats, *_correlation_tables(before, after))


def counterfactual_files(
    symbol: str, dates, realized, counterfactual, formats: Iterable[str]
) -> dict[str, bytes]:
    """counterfactual_<symbol>: realized and counterfactual closes per
    projection date, in each requested format."""
    return _files(formats, _counterfactual_table(symbol, dates, realized, counterfactual))


def model_files(models: Iterable[RegressionModel]) -> dict[str, bytes]:
    """model_<SYMBOL>.json per fitted model: the model as a saved report holds it."""
    return {
        f"model_{model.spec.target.symbol}.json": json_bytes(model_to_json_dict(model))
        for model in models
    }


def render_files(report: ScenarioReport, formats: Iterable[str]) -> dict[str, bytes]:
    """File name -> content for the requested formats, manifest excluded."""
    tables = _correlation_tables(report.correlation_before, report.correlation_after)
    metrics = []
    for symbol, result in report.targets.items():
        paths = result.projection_dates, result.realized, result.counterfactual
        tables.append(_counterfactual_table(symbol, *paths))
        metrics.append((symbol, "test", *_metric_values(result.test_metrics)))
        metrics.append((symbol, "divergence", *_metric_values(result.divergence_metrics)))
    return _files(formats, *tables, ("metrics", METRICS_HEADER, metrics, None))


def write_files(out_dir: Path, files: dict[str, bytes]) -> list[dict]:
    """Write each file into out_dir in name order; return the manifest
    entry (name, size and SHA-256 digest) of each."""
    entries = []
    for name in sorted(files):
        payload = files[name]
        write_atomic(out_dir / name, payload)
        entries.append(
            {"file": name, "bytes": len(payload), "digest": hashlib.sha256(payload).hexdigest()}
        )
    return entries


def emit(
    report: ScenarioReport, out_dir: Path, formats: Iterable[str] = FORMATS
) -> ReportBundle:
    """Write the bundle into out_dir and finish with the manifest.

    The manifest records every emitted file with its size and SHA-256
    digest plus the scenario's config digest. An empty format set yields a
    manifest-only bundle.
    """
    out_dir = Path(out_dir)
    entries = write_files(out_dir, render_files(report, formats))
    manifest = {"config_digest": report.provenance["config_digest"], "files": entries}
    write_atomic(out_dir / MANIFEST_NAME, json_bytes(manifest))
    return ReportBundle(directory=out_dir, manifest=manifest)
