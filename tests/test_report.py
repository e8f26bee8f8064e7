from __future__ import annotations

import ast
import datetime as dt
import hashlib
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eventlens
import eventlens.cli
import eventlens.ingest
import eventlens.scenario
from eventlens import ConfigError, report_to_json_bytes, report_to_json_dict, run_scenario
from eventlens.report import (
    FORMATS,
    MANIFEST_NAME,
    Floats,
    Record,
    correlation_files,
    emit,
    json_bytes,
    render_files,
)

from conftest import SYNTHETIC_DIR, make_series
from test_scenario import linear_config, linear_universe


@pytest.fixture(scope="module")
def report():
    return run_scenario(linear_config(), linear_universe())


@pytest.fixture(scope="module")
def noisy_report():
    """The linear scenario with Y off its line by 0 or 1: every bundle file differs from report's."""
    x_closes = [10.0 + 0.5 * i + (i % 3) for i in range(30)]
    y_closes = [3.0 + 2.0 * c + (i % 2) for i, c in enumerate(x_closes)]
    start = dt.date(2022, 1, 1)
    return run_scenario(linear_config(), [make_series("X", start, x_closes), make_series("Y", start, y_closes)])


def read_bundle(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def inodes(directory) -> dict[str, int]:
    return {path.name: path.stat().st_ino for path in directory.iterdir()}


def test_emit_writes_expected_file_set(report, tmp_path):
    bundle = emit(report, tmp_path / "out", formats=("csv", "json"))
    names = {entry["file"] for entry in bundle.manifest["files"]}
    assert names == {
        "metrics.csv",
        "metrics.json",
        "corr_before.csv",
        "corr_before.json",
        "corr_after.csv",
        "corr_after.json",
        "counterfactual_Y.csv",
        "counterfactual_Y.json",
    }
    on_disk = read_bundle(tmp_path / "out")
    assert set(on_disk) == names | {MANIFEST_NAME}


def test_manifest_digests_match_files(report, tmp_path):
    bundle = emit(report, tmp_path / "out", formats=("csv", "json"))
    for entry in bundle.manifest["files"]:
        payload = (tmp_path / "out" / entry["file"]).read_bytes()
        assert len(payload) == entry["bytes"]
        assert hashlib.sha256(payload).hexdigest() == entry["digest"]
    assert bundle.manifest["config_digest"] == report.provenance["config_digest"]


def test_empty_format_set_gives_manifest_only_bundle(report, tmp_path):
    bundle = emit(report, tmp_path / "out", formats=())
    assert bundle.manifest["files"] == []
    assert read_bundle(tmp_path / "out").keys() == {MANIFEST_NAME}


def test_reemission_is_byte_identical(report, tmp_path):
    emit(report, tmp_path / "out", formats=("csv", "json"))
    first = read_bundle(tmp_path / "out")
    emit(report, tmp_path / "out", formats=("csv", "json"))
    assert read_bundle(tmp_path / "out") == first


def test_unknown_format_is_rejected(report, tmp_path):
    with pytest.raises(ConfigError, match="xml"):
        emit(report, tmp_path / "out", formats=("xml",))
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_leaves_the_previous_bundle_and_no_sibling(report, noisy_report, tmp_path, monkeypatch):
    # No file of the previous bundle holds report's bytes, so none is linked
    # in and each staged file, the 5th too, goes through write_atomic.
    emit(noisy_report, tmp_path / "out", formats=("csv", "json"))
    before = read_bundle(tmp_path / "out")
    write_atomic = eventlens.ingest.write_atomic
    calls = []

    def fifth_write_fails(path, payload):
        calls.append(path)
        if len(calls) == 5:
            raise OSError("disk full")
        write_atomic(path, payload)

    monkeypatch.setattr(eventlens.ingest, "write_atomic", fifth_write_fails)
    with pytest.raises(OSError, match="disk full"):
        emit(report, tmp_path / "out", formats=("csv", "json"))
    assert len(calls) == 5
    assert read_bundle(tmp_path / "out") == before
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


def test_a_failed_write_after_linked_files_leaves_the_previous_bundle_and_no_sibling(report, tmp_path, monkeypatch):
    # The 2nd to 4th staged files are linked in, so each has two links until
    # the 5th, edited in place to bytes of the same length, fails its write.
    out = tmp_path / "out"
    emit(report, out, formats=("csv", "json"))
    edited = (out / "counterfactual_Y.csv").read_bytes().replace(b"2022-01-26", b"2022-01-27")
    with open(out / "counterfactual_Y.csv", "r+b") as handle:
        handle.write(edited)
    before = read_bundle(out)
    write_atomic = eventlens.ingest.write_atomic
    calls = []

    def edited_write_fails(path, payload):
        calls.append(path.name)
        if path.name == "counterfactual_Y.csv":
            raise OSError("disk full")
        write_atomic(path, payload)

    monkeypatch.setattr(eventlens.ingest, "write_atomic", edited_write_fails)
    with pytest.raises(OSError, match="disk full"):
        emit(report, out, formats=("csv", "json"))
    assert len(calls) == 2 and calls[1] == "counterfactual_Y.csv"
    assert read_bundle(out) == before
    assert all(path.stat().st_nlink == 1 for path in out.iterdir())
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


def test_an_equal_re_emit_creates_at_most_one_new_inode(report, tmp_path):
    out = tmp_path / "out"
    emit(report, out, formats=("csv", "json"))
    first, before = read_bundle(out), inodes(out)
    emit(report, out, formats=("csv", "json"))
    after = inodes(out)
    assert read_bundle(out) == first
    assert after.keys() == before.keys()
    assert sum(after[name] != before[name] for name in before) <= 1


def test_a_re_emit_of_changed_numbers_creates_every_file_anew(report, noisy_report, tmp_path):
    out = tmp_path / "out"
    emit(noisy_report, out, formats=("csv", "json"))
    before = inodes(out)
    bundle = emit(report, out, formats=("csv", "json"))
    after = inodes(out)
    assert all(after[name] != before[name] for name in before)
    expected = {**render_files(report, ("csv", "json")), MANIFEST_NAME: json_bytes(bundle.manifest)}
    assert read_bundle(out) == expected


def test_a_bundle_file_edited_in_place_is_not_carried_over(report, tmp_path):
    out = tmp_path / "out"
    bundle = emit(report, out, formats=("csv", "json"))
    first = read_bundle(out)
    edited = first["counterfactual_Y.csv"].replace(b"2022-01-26", b"2022-01-27")
    assert edited != first["counterfactual_Y.csv"] and len(edited) == len(first["counterfactual_Y.csv"])
    with open(out / "counterfactual_Y.csv", "r+b") as handle:
        handle.write(edited)
    assert emit(report, out, formats=("csv", "json")).manifest == bundle.manifest
    files = read_bundle(out)
    assert files == first
    manifest = json.loads(files.pop(MANIFEST_NAME))
    assert {entry["file"]: entry["digest"] for entry in manifest["files"]} == {
        name: hashlib.sha256(payload).hexdigest() for name, payload in files.items()
    }


def test_a_csv_only_emit_over_a_full_bundle_leaves_no_json(report, tmp_path):
    emit(report, tmp_path / "out", formats=("csv", "json"))
    bundle = emit(report, tmp_path / "out", formats=("csv",))
    names = set(read_bundle(tmp_path / "out"))
    assert {name for name in names if name.endswith(".json")} == {MANIFEST_NAME}
    assert names == {entry["file"] for entry in bundle.manifest["files"]} | {MANIFEST_NAME}
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


def test_a_re_emit_keeps_the_files_the_manifest_does_not_list(report, tmp_path):
    out = tmp_path / "out"
    emit(report, out, formats=("csv", "json"))
    (out / "model_Y.json").write_bytes(b"{}\n")
    (out / "notes.txt").write_bytes(b"mine\n")
    first = read_bundle(out)
    emit(report, out, formats=("csv", "json"))
    assert read_bundle(out) == first


@pytest.mark.parametrize("make", ["subdirectory", "symlink", "file"])
def test_an_out_a_bundle_cannot_replace_is_refused_before_anything_changes(
    report, tmp_path, make
):
    out = tmp_path / "out"
    if make == "subdirectory":
        emit(report, out, formats=("csv",))
        (out / "sub").mkdir()
        error = ConfigError
    elif make == "symlink":
        emit(report, tmp_path / "target", formats=("csv",))
        out.symlink_to(tmp_path / "target")
        error = ConfigError
    else:
        out.write_bytes(b"not a directory\n")
        error = NotADirectoryError
    listing = sorted(path.name for path in tmp_path.rglob("*"))
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(error):
        emit(report, out, formats=("csv", "json"))
    assert sorted(path.name for path in tmp_path.rglob("*")) == listing
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_two_threads_emitting_into_one_out_end_with_one_complete_bundle(report, tmp_path):
    out = tmp_path / "out"
    errors = []

    def emit_many() -> None:
        try:
            for _ in range(15):
                emit(report, out, formats=("csv", "json"))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=emit_many) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    files = read_bundle(out)
    manifest = json.loads(files.pop(MANIFEST_NAME))
    assert {entry["file"]: entry["digest"] for entry in manifest["files"]} == {
        name: hashlib.sha256(payload).hexdigest() for name, payload in files.items()
    }
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


def test_a_bundle_landing_between_the_two_renames_is_superseded_whole(report, tmp_path, monkeypatch):
    # Once, just before the staged directory is renamed in, another writer's
    # complete CSV-only bundle lands at out: the rename meets a full
    # directory, and emit moves that one aside too and tries again.
    out, other = tmp_path / "out", tmp_path / "other"
    emit(report, out, formats=("csv", "json"))
    emit(report, other, formats=("csv",))
    expected = read_bundle(out)
    rename, landed = os.rename, []

    def another_writer_first(src, dst):
        if not landed and Path(src).suffix == ".tmp" and Path(dst) == out:
            landed.append(dst)
            rename(other, out)
        rename(src, dst)

    monkeypatch.setattr(os, "rename", another_writer_first)
    emit(report, out, formats=("csv", "json"))
    assert landed == [out]
    files = read_bundle(out)
    assert files == expected
    manifest = json.loads(files.pop(MANIFEST_NAME))
    assert {entry["file"]: entry["digest"] for entry in manifest["files"]} == {
        name: hashlib.sha256(payload).hexdigest() for name, payload in files.items()
    }
    assert [path.name for path in tmp_path.iterdir()] == ["out"]


def test_the_saved_report_is_the_json_of_its_dict_of_json_numbers(report):
    document = report_to_json_dict(report)
    # The report keeps one document; report_to_json_dict builds a fresh one.
    assert report.document == document and report.document is not document
    assert report.document is report.document
    assert report_to_json_bytes(report) == json_bytes(report.document) == json_bytes(document)
    assert json.loads(json_bytes(document)) == document

    def leaves(value):
        if isinstance(value, dict):
            return [leaf for item in value.values() for leaf in leaves(item)]
        if isinstance(value, list):
            return [leaf for item in value for leaf in leaves(item)]
        return [value]

    assert {type(leaf) for leaf in leaves(document)} == {str, int, float, bool}
    target = document["targets"]["Y"]
    assert type(target["realized"]) is Floats and type(target["test_metrics"]) is Record
    assert target["realized"].text == ",".join(map(repr, report.targets["Y"].realized.tolist()))


def test_a_report_builds_its_document_once(tmp_path, monkeypatch):
    builds = []
    build = report_to_json_dict

    def counting(report):
        builds.append(report)
        return build(report)

    # One counter for both names: a report's document is built through
    # scenario's, and a caller could build one through report's.
    for module in (eventlens.report, eventlens.scenario):
        monkeypatch.setattr(module, "report_to_json_dict", counting)
    report = run_scenario(linear_config(), linear_universe())
    emit(report, tmp_path / "out")
    report_to_json_bytes(report)
    render_files(report, FORMATS)
    assert len(builds) == 1 and builds[0] is report

    builds.clear()
    config = str(SYNTHETIC_DIR / "scenario_noisy.json")
    argv = ["run", "--offline", "--config", config, "--out", str(tmp_path / "bundle"),
            "--save-report", str(tmp_path / "report.json")]
    assert eventlens.cli.main(argv) == 0
    assert len(builds) == 1


def test_csv_and_json_metrics_agree(report, tmp_path):
    files = render_files(report, ("csv", "json"))
    json_rows = json.loads(files["metrics.json"])
    csv_lines = files["metrics.csv"].decode().splitlines()
    header = csv_lines[0].split(",")
    assert header == ["symbol", "phase", "mse", "rmse", "mae", "mape", "n"]
    assert len(csv_lines) - 1 == len(json_rows)
    for line, row in zip(csv_lines[1:], json_rows):
        cells = line.split(",")
        assert cells[0] == row["symbol"] and cells[1] == row["phase"]
        for cell, field in zip(cells[2:6], ("mse", "rmse", "mae", "mape")):
            assert float(cell) == row[field]
        assert int(cells[6]) == row["n"]


def test_csv_and_json_counterfactuals_agree(report):
    files = render_files(report, ("csv", "json"))
    rows = json.loads(files["counterfactual_Y.json"])
    lines = files["counterfactual_Y.csv"].decode().splitlines()
    assert lines[0] == "date,realized,counterfactual"
    assert len(lines) - 1 == len(rows)
    for line, row in zip(lines[1:], rows):
        date, realized, counterfactual = line.split(",")
        assert date == row["date"]
        assert float(realized) == row["realized"]
        assert float(counterfactual) == row["counterfactual"]


def test_csv_and_json_correlations_agree(report):
    files = render_files(report, ("csv", "json"))
    document = json.loads(files["corr_before.json"])
    lines = files["corr_before.csv"].decode().splitlines()
    assert lines[0] == "," + ",".join(document["labels"])
    for line, values in zip(lines[1:], document["values"]):
        cells = line.split(",")[1:]
        assert [float(c) for c in cells] == values


def test_csv_export_has_label_header_and_column(small_matrix):
    csv = correlation_files(small_matrix, small_matrix, ("csv",))["corr_before.csv"]
    lines = csv.decode().splitlines()
    assert lines[0] == ",A.close,B.close"
    assert lines[1].startswith("A.close,1.0,")
    assert lines[2].startswith("B.close,")


def test_counterfactual_dates_match_projection_window(report, tmp_path):
    files = render_files(report, ("json",))
    rows = json.loads(files["counterfactual_Y.json"])
    result = report.targets["Y"]
    assert [row["date"] for row in rows] == [d.isoformat() for d in result.projection_dates]


# --- json_bytes -------------------------------------------------------------------

FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
# Any code point, control characters and lone surrogates included.
TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = st.none() | st.booleans() | st.integers(-(2**200), 2**200) | FLOATS | TEXT
# Arrays and objects that carry their texts, as a report's document holds them.
CARRIED = st.lists(FLOATS).map(Floats) | st.dictionaries(TEXT, SCALARS).map(
    lambda d: Record(d, d.values(), [json.dumps(value) for value in d.values()])
)
DOCUMENTS = st.recursive(
    SCALARS | st.lists(FLOATS) | st.lists(TEXT) | CARRIED,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(TEXT, children),
    max_leaves=30,
)


@settings(deadline=None)
@given(DOCUMENTS)
def test_json_bytes_equals_indented_json_dumps(document):
    assert json_bytes(document) == (json.dumps(document, indent=2) + "\n").encode("ascii")


# What the encoder joins in one pass, or rejects by a list's first item:
# Record lists, empty Records among them, mixed with other values; lists
# whose first item is a float or a str and whose later items are not; and
# np.float64 and bool items, which json.dumps reads as a float and a bool.
RECORDS = st.dictionaries(TEXT, SCALARS, max_size=4).map(
    lambda d: Record(d, d.values(), [json.dumps(value) for value in d.values()])
)
ITEMS = SCALARS | FLOATS.map(np.float64) | RECORDS | CARRIED | st.lists(SCALARS, max_size=3)
ONE_PASS_LISTS = (
    st.lists(RECORDS, min_size=1)
    | st.lists(RECORDS | ITEMS, min_size=1)
    | st.tuples(FLOATS | FLOATS.map(np.float64) | TEXT, st.lists(ITEMS)).map(
        lambda pair: [pair[0], *pair[1]]
    )
    | st.lists(FLOATS | FLOATS.map(np.float64) | st.booleans(), min_size=1)
)


@settings(deadline=None)
@given(ONE_PASS_LISTS | st.dictionaries(TEXT, ONE_PASS_LISTS, max_size=3))
def test_json_bytes_equals_json_dumps_on_one_pass_lists(document):
    assert json_bytes(document) == (json.dumps(document, indent=2) + "\n").encode("ascii")


@pytest.mark.parametrize(
    "document", [np.int64(1), {1: 2.0}, [1.0, {"a": {2.0}}], b"x", [np.float32(1.0)]]
)
def test_json_bytes_rejects_what_json_does_not_encode(document):
    with pytest.raises(TypeError):
        json_bytes(document)


def indented_dumps_calls(source: str) -> list[str]:
    """Every ``dumps(..., indent=...)`` call in source."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "dumps"
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]


def test_no_module_encodes_indented_json_with_json_dumps():
    # json.dumps with an indent runs json's pure-Python encoder; json_bytes
    # writes the same bytes and is the program's one indented encoding.
    assert indented_dumps_calls("json.dumps(d, indent=2)\ndumps(d, indent=None)\njson.dumps(d)") == [
        "json.dumps(d, indent=2)", "dumps(d, indent=None)"
    ]
    sources = Path(eventlens.__file__).parent.glob("*.py")
    sites = {path.name: indented_dumps_calls(path.read_text(encoding="utf-8")) for path in sources}
    assert not any(sites.values()), sites
