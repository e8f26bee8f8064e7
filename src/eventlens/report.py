"""Serialize scenario outputs into plot-ready tables with a digest manifest.

No figures are rendered; the bundle holds the data behind them. Each
table (corr_before, corr_after, counterfactual_<symbol> per target,
metrics) is one header plus rows, and ``_files`` writes it as a CSV/JSON
pair: the CSV through ``ingest.csv_bytes``, the JSON as one object per row
keyed by the header (a correlation matrix's is its own document), so the
two cannot disagree. The CLI's correlate and project subcommands write the
same bytes, and its fit subcommand writes ``model_files``.

A report is turned into text in one pass: its ``document`` is its
``report_to_json_dict``, built once, in which each float array is a
``Floats`` and each metrics record a ``Record``. They carry each number's
``repr``, made once, and the bundle's CSV cells, its JSON and the saved
report all join those texts. ``emit`` and ``report_to_json_bytes``, the
only writers of the bundle and the saved report, both read that document.

``emit`` stages the bundle, manifest last, in a fresh sibling directory
and swaps it in with ``ingest.replace_directory``. That hard-links in each
file the current bundle holds with the same bytes, checked by reading it
back, and creates the rest through ``ingest.write_atomic``. A reader sees
the old bundle, no directory, or the new one, never a mix, and re-emitting
a report yields byte-identical files. The subcommands' ``write_files``
writes file by file into a directory they may share.

``json_bytes`` writes the bytes ``json.dumps(document, indent=2)`` writes,
ASCII with a trailing newline, through its own encoder: CPython's C encoder
does not indent, and its pure-Python one spends most of a large report on
per-float calls. The encoder looks a value's exact type up first and falls
back to isinstance for a subclass. A list's first item picks the one
one-pass join that is tried: floats joined from ``float.__repr__``,
strings through json's ``encode_basestring_ascii``, or ``Record``s, each
from its texts; a list none of them fits is encoded item by item, and no
exception is raised to find that out. A ``Floats`` brings its joined text,
and ``NaN`` and ``Infinity`` are spelled as json spells them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .ingest import csv_bytes, replace_directory, write_atomic
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


class Floats(list):
    """Floats that carry ``text``: their ``float.__repr__`` texts, made once
    and joined by commas (a repr holds none).

    A bundle CSV takes ``text`` as its cells, and ``json_bytes`` puts its own
    separator between the texts, while ``json.dumps`` and ``==`` read the
    floats as a plain list's. One string per array, not one per float, keeps
    a report's texts small.
    """

    __slots__ = ("text",)

    def __init__(self, values: Iterable[float], text: str | None = None) -> None:
        super().__init__(values)
        self.text = ",".join(map(float.__repr__, self)) if text is None else text


class Record(dict):
    """A str-keyed object whose values carry their JSON texts, made once;
    ``json_bytes`` joins the texts, ``json.dumps`` reads the values."""

    __slots__ = ("texts",)

    def __init__(self, keys: Iterable[str], values: Iterable, texts: Sequence[str]) -> None:
        super().__init__(zip(keys, values))
        self.texts = texts


def json_bytes(document) -> bytes:
    """The bundle's JSON encoding: two-space indent, ASCII, trailing newline.

    Equal to ``(json.dumps(document, indent=2) + "\\n").encode("ascii")`` for
    documents of str-keyed dicts, lists, tuples, str, int, float, bool and
    None; any other value or key type raises TypeError.
    """
    out: list[str] = []
    _encode(document, "\n", out)
    return ("".join(out) + "\n").encode("ascii")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# Each scalar type's text; a subclass of str, int or float takes its base's.
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float}
_SCALARS.update(dict.fromkeys((bool, type(None)), {True: "true", False: "false", None: "null"}.get))


def _record(record: Record, newline: str) -> str:
    """``record``'s text from its keys and value texts, starting on a line
    whose break and indent are ``newline``; any empty dict's is "{}"."""
    if not record:
        return "{}"
    inner = newline + "  "
    pairs = map("{}: {}".format, map(encode_basestring_ascii, record), record.texts)
    return "{" + inner + ("," + inner).join(pairs) + newline + "}"


def _joined(items, inner: str) -> str | None:
    """The texts of the non-empty ``items``, each after ``inner``'s line
    break and indent and joined by commas, in one pass when all of them are
    floats (a ``Floats`` brings its texts), strings or ``Record``s, else
    None. The first item's type picks the one join that is tried."""
    separator, first = "," + inner, type(items[0])
    if type(items) is Floats or issubclass(first, float):
        try:
            text = (items if type(items) is Floats else Floats(items)).text
        except TypeError:
            return None
        # A finite float's repr has no "n"; "nan" and "inf" do.
        if "n" in text:
            text = ",".join(_NON_FINITE.get(t, t) for t in text.split(","))
        return text.replace(",", separator)
    if issubclass(first, str):
        try:
            return separator.join(map(encode_basestring_ascii, items))
        except TypeError:
            return None
    if first is Record and set(map(type, items)) == {Record}:
        return separator.join(map(_record, items, repeat(inner)))
    return None


def _encode(value, newline: str, out: list[str]) -> None:
    """Append ``value``'s text to ``out``; ``newline`` is a line break plus
    the indent of the line ``value`` starts on. The exact type is looked up
    first. No value is an instance of two of json's types, so the isinstance
    checks after it can come in any order."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif type(value) is Record or not value and isinstance(value, dict):
        out.append(_record(value, newline))
    elif isinstance(value, dict):
        inner = newline + "  "
        out.append("{")
        for position, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(("," + inner if position else inner) + encode_basestring_ascii(key) + ": ")
            _encode(item, inner, out)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        text = _joined(value, inner)
        if text is None:
            out.append("[")
            for position, item in enumerate(value):
                out.append("," + inner if position else inner)
                _encode(item, inner, out)
        else:
            out.append("[" + inner + text)
        out.append(newline + "]")
    elif (scalar := next(filter(None, map(_SCALARS.get, type(value).__mro__)), None)) is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    else:
        out.append(scalar(value))


def _files(formats: Iterable[str], *tables: tuple) -> dict[str, bytes]:
    """``<stem>.csv`` and ``<stem>.json`` of each ``(stem, header, rows,
    document)`` table, for the requested formats, which are checked once.

    The CSV is ``header`` and ``rows``, each row a sequence of texts of one
    or more comma-joined cells; the JSON is ``document``.
    """
    wanted = set(formats)
    unknown = sorted(wanted - set(FORMATS))
    if unknown:
        raise ConfigError(f"unknown report formats: {', '.join(unknown)}")
    files = {}
    for stem, header, rows, document in tables:
        if "csv" in wanted:
            files[f"{stem}.csv"] = csv_bytes(header, rows)
        if "json" in wanted:
            files[f"{stem}.json"] = json_bytes(document)
    return files


def _matrix_document(matrix: CorrelationMatrix) -> dict:
    """``matrix_to_json_dict`` with ``Floats`` rows. The matrix is symmetric
    bit for bit, so each entry on and above the diagonal is turned into text
    once, and its mirror shares the text."""
    document = matrix_to_json_dict(matrix)
    upper = np.triu_indices(len(matrix.labels))
    texts = np.empty(matrix.values.shape, dtype=object)
    texts[upper] = texts.T[upper] = list(map(float.__repr__, matrix.values[upper].tolist()))
    document["values"] = list(map(Floats, document["values"], map(",".join, texts.tolist())))
    return document


def _matrix_table(stem: str, document: dict) -> tuple:
    """A header of labels and one labelled row per label; the JSON is the
    matrix's ``{labels, values}`` document."""
    labels = document["labels"]
    rows = [(label, values.text) for label, values in zip(labels, document["values"])]
    return stem, ["", *labels], rows, document


def _counterfactual_table(
    symbol: str, dates: list[str], realized: Floats, counterfactual: Floats
) -> tuple:
    rows = list(zip(dates, realized.text.split(","), counterfactual.text.split(",")))
    document = [
        Record(COUNTERFACTUAL_HEADER, values, (encode_basestring_ascii(date), *cells))
        for values, (date, *cells) in zip(zip(dates, realized, counterfactual), rows)
    ]
    return f"counterfactual_{symbol}", COUNTERFACTUAL_HEADER, rows, document


def _metrics_record(metrics: MetricsReport) -> Record:
    values = _metric_values(metrics)
    return Record(METRICS_HEADER[2:], values, list(map(repr, values)))


def correlation_files(
    before: CorrelationMatrix, after: CorrelationMatrix, formats: Iterable[str]
) -> dict[str, bytes]:
    """corr_before and corr_after in each requested format."""
    return _files(
        formats,
        _matrix_table("corr_before", _matrix_document(before)),
        _matrix_table("corr_after", _matrix_document(after)),
    )


def counterfactual_files(
    symbol: str, dates, realized, counterfactual, formats: Iterable[str]
) -> dict[str, bytes]:
    """counterfactual_<symbol>: realized and counterfactual closes per
    projection date, in each requested format."""
    isodates = [d.isoformat() for d in dates]
    paths = Floats(realized.tolist()), Floats(counterfactual.tolist())
    return _files(formats, _counterfactual_table(symbol, isodates, *paths))


def model_files(models: Iterable[RegressionModel]) -> dict[str, bytes]:
    """model_<SYMBOL>.json per fitted model: the model as a saved report holds it."""
    return {
        f"model_{model.spec.target.symbol}.json": json_bytes(model_to_json_dict(model))
        for model in models
    }


def report_to_json_dict(report: ScenarioReport) -> dict:
    """The saved report's document, read back by ``scenario.report_from_json_dict``.

    Its numbers are JSON numbers, and each float array and metrics record
    carries its texts (``Floats``, ``Record``). Each call builds a fresh
    document; the report's ``document`` is the one the saved report and
    every bundle file share.
    """
    targets = {}
    for symbol, result in report.targets.items():
        model = model_to_json_dict(result.model)
        model["weights"] = Floats(model["weights"])
        targets[symbol] = {
            "model": model,
            "test_metrics": _metrics_record(result.test_metrics),
            "projection_dates": [d.isoformat() for d in result.projection_dates],
            "realized": Floats(result.realized.tolist()),
            "counterfactual": Floats(result.counterfactual.tolist()),
            "divergence_metrics": _metrics_record(result.divergence_metrics),
        }
    return {
        "provenance": report.provenance,
        "correlation_before": _matrix_document(report.correlation_before),
        "correlation_after": _matrix_document(report.correlation_after),
        "targets": targets,
    }


def report_to_json_bytes(report: ScenarioReport) -> bytes:
    return json_bytes(report.document)


def render_files(report: ScenarioReport, formats: Iterable[str]) -> dict[str, bytes]:
    """File name -> content of the report's bundle, rendered from its
    ``document``, for the requested formats, manifest excluded."""
    document = report.document
    tables = [
        _matrix_table("corr_before", document["correlation_before"]),
        _matrix_table("corr_after", document["correlation_after"]),
    ]
    rows, records = [], []
    for symbol, target in document["targets"].items():
        paths = target["projection_dates"], target["realized"], target["counterfactual"]
        tables.append(_counterfactual_table(symbol, *paths))
        for phase in ("test", "divergence"):
            record = target[f"{phase}_metrics"]
            rows.append([symbol, phase, *record.texts])
            texts = *map(encode_basestring_ascii, (symbol, phase)), *record.texts
            records.append(Record(METRICS_HEADER, (symbol, phase, *record.values()), texts))
    return _files(formats, *tables, ("metrics", METRICS_HEADER, rows, records))


def write_files(out_dir: Path, files: dict[str, bytes]) -> None:
    """Write each file into out_dir in name order, one ``write_atomic`` each,
    beside whatever out_dir already holds."""
    for name in sorted(files):
        write_atomic(out_dir / name, files[name])


def _manifest_files(out_dir: Path) -> set[str]:
    """The file names the manifest in out_dir lists; none without a manifest
    in the layout ``emit`` writes."""
    try:
        manifest = json.loads((out_dir / MANIFEST_NAME).read_bytes())
        return {entry["file"] for entry in manifest["files"]}
    except (OSError, ValueError, LookupError, TypeError):
        return set()


def emit(report: ScenarioReport, out_dir: Path, formats: Iterable[str] = FORMATS) -> ReportBundle:
    """Stage the report's bundle as out_dir, manifest last, linking in each
    file out_dir already holds with the same bytes, and swap it in whole.

    The manifest records every emitted file with its size and SHA-256
    digest plus the scenario's config digest. An empty format set yields a
    manifest-only bundle. A file out_dir already holds survives when the
    bundle does not write it and out_dir's manifest does not list it.
    """
    out_dir = Path(out_dir)
    files = render_files(report, formats)
    staged = {name: files[name] for name in sorted(files)}
    entries = [
        {"file": name, "bytes": len(payload), "digest": hashlib.sha256(payload).hexdigest()}
        for name, payload in staged.items()
    ]
    manifest = {"config_digest": report.provenance["config_digest"], "files": entries}
    staged[MANIFEST_NAME] = json_bytes(manifest)
    replace_directory(out_dir, staged, _manifest_files(out_dir))
    return ReportBundle(directory=out_dir, manifest=manifest)
