"""Fast self-check of the benchmark harness.

    python3 -m pytest -q perfbench

Runs the harness briefly on ``paper`` (untraced and traced) and
``cold_fetch`` (traced), and once in a directory that holds only the
benchmark, where it must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import generate  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def bench(
    *args: str, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def traced(workload: str) -> dict:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    metrics = result_line(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert (BENCH_DIR / "out" / f"trace-{workload}-seed7.jsonl").is_file()
    return metrics


def test_paper_end_to_end_metrics_are_all_reported_and_nonzero():
    proc = bench("--workload", "paper", "--seed", "7", "--seconds", "3", "--trace", "0")
    metrics = result_line(proc)["metrics"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(m["value"] > 0 for m in metrics.values())


def test_every_per_layer_metric_is_exercised_by_some_workload():
    paper, cold_fetch = traced("paper"), traced("cold_fetch")
    silent = [name for name in paper if paper[name]["value"] == cold_fetch[name]["value"] == 0]
    assert silent == []
    assert paper["ingest.bars"]["value"] == 4200
    assert 0.5 < paper["trace.coverage"]["value"] < 1.5


def test_refuses_to_run_without_the_program():
    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        skip = shutil.ignore_patterns(".work", "out", "__pycache__")
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=skip)
        script = bare / "perfbench" / "run.py"
        proc = bench("--workload", "paper", "--seed", "1", "--seconds", "1", cwd=bare, script=script)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(1, 101)])
    assert (value, percentile) == (90.0, 90.0)
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 10)


def test_generated_bars_are_checked():
    with pytest.raises(RuntimeError):
        generate.check_bar("X", None, o=1.0, h=0.9, l=0.8, c=0.85)
