#!/usr/bin/env python3
"""eventlens benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Generates the workload's inputs from the seed, then starts fresh
single-threaded worker processes (perfbench/worker.py) that call eventlens's
public API and CLI entry point from this checkout's ``src/``. With
``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` a single worker alternates untraced ops with traced
ones and it reports the per-layer metrics. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every op passed its output check.

Workloads, metrics and the layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import generate
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = ROOT / "tests" / "fixtures"
WORK_ROOT = BENCH_DIR / ".work"
TRACE_ROOT = BENCH_DIR / "out"

# Fresh workers per --trace 0 run: setup_s is their median, and the
# measuring window is split evenly between them.
SETUP_LAUNCHES = 5
# Every run ends within this many seconds, workers included.
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10
# Workers use one BLAS thread, and a fixed string-hash seed so set and dict
# layouts (dates included) are the same in every worker.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def count_rows(csv_dir: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) - 1 for p in csv_dir.glob("*.csv"))


def prepare_paper(work: Path, seed: int) -> tuple[dict, int]:
    config = FIXTURES / "synthetic" / "scenario_noisy.json"
    golden = FIXTURES / "golden"
    spec = {
        "kind": "run",
        "config": str(config),
        "golden": {
            "bundle": str(golden / "bundle"),
            "report": str(golden / "scenario_report.json"),
        },
    }
    return spec, count_rows(FIXTURES / "synthetic" / "noisy")


def prepare_generated(shape: generate.Shape, all_closes: bool):
    def prepare(work: Path, seed: int) -> tuple[dict, int]:
        inputs = work / "inputs"
        generate.write_run_inputs(inputs, seed, shape, all_closes)
        spec = {
            "kind": "run",
            "config": str(inputs / "config.json"),
            "truth": str(inputs / "truth.json"),
        }
        return spec, count_rows(inputs / "cache")

    return prepare


def prepare_cold_fetch(work: Path, seed: int) -> tuple[dict, int]:
    inputs = work / "inputs"
    generate.write_fetch_inputs(inputs, seed, generate.COLD_FETCH)
    spec = {"kind": "fetch", "payloads": str(inputs / "payloads")}
    return spec, generate.COLD_FETCH.symbols * generate.COLD_FETCH.days


WORKLOADS = {
    "paper": prepare_paper,
    "wide": prepare_generated(generate.WIDE, all_closes=False),
    "dense": prepare_generated(generate.DENSE, all_closes=True),
    "cold_fetch": prepare_cold_fetch,
}


def check_checkout() -> None:
    """Refuse to run outside a full checkout, before generating anything."""
    needed = [
        ROOT / "BENCHMARK.json",
        ROOT / "src" / "eventlens" / "__init__.py",
        ROOT / "tools" / "make_synthetic_fixture.py",
        FIXTURES / "synthetic" / "scenario_noisy.json",
        FIXTURES / "golden" / "bundle" / "manifest.json",
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not an eventlens checkout; missing {', '.join(missing)}")


def read_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(spec: dict, work: Path, index: int, deadline: float) -> dict:
    spec = {
        **spec,
        "work": str(work / f"worker{index}"),
        "result": str(work / f"result{index}.json"),
    }
    Path(spec["work"]).mkdir(parents=True)
    spec_path = work / f"spec{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="ascii")
    stderr_path = work / f"stderr{index}.txt"
    env = {**os.environ, **WORKER_ENV}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    with open(stderr_path, "wb") as stderr:
        launched = time.monotonic()
        try:
            code = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), repr(launched)],
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                env=env,
                timeout=remaining,
            ).returncode
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {index} passed the run deadline") from exc
    if code != 0:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"worker {index} exited with {code}:\n{tail}")
    return json.loads(Path(spec["result"]).read_text(encoding="ascii"))


def warm_up(deadline: float) -> None:
    """Compile bytecode and fill the page cache once, outside the samples."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import eventlens.cli"
    try:
        subprocess.run(
            [sys.executable, "-c", code], check=True, env={**os.environ, **WORKER_ENV},
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"cannot import eventlens.cli from src/: {exc}") from exc


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    and that percentile."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} latency samples; a tail needs more than {TAIL_BEYOND}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(results: list[dict], bars_per_op: int) -> tuple[dict, str]:
    """Timings scaled to the reference machine speed (see speed.py)."""
    def scaled(seconds: float, kernel: float) -> float:
        return seconds * speed.REFERENCE_S / kernel

    latencies = [scaled(t, k) for r in results for t, k in zip(r["latencies"], r["kernels"])]
    tail_value, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(scaled(r["setup_s"], r["setup_kernel_s"]) for r in results),
        "latency_s_p50": statistics.median(latencies),
        "latency_s_tail": tail_value,
        "bars_per_s": bars_per_op * len(latencies) / sum(latencies),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
    }
    raw_p50 = statistics.median(t for r in results for t in r["latencies"])
    raw_setup = statistics.median(r["setup_s"] for r in results)
    kernel = statistics.median(k for r in results for k in r["kernels"])
    note = (
        f"latency_s_tail is p{tail_pct:.1f} of {len(latencies)} warm ops; "
        f"{bars_per_op} bars per op\n"
        f"unscaled: latency p50 {raw_p50:.6g} s, setup {raw_setup:.6g} s; "
        f"speed kernel median {kernel:.6g} s against {speed.REFERENCE_S} s"
    )
    return values, note


def per_layer(result: dict, declared: list[dict]) -> tuple[dict, str]:
    """Medians over traced ops; a layer the workload never calls reads 0."""
    layers = result["layers"]
    values = {m["name"]: statistics.median(layers.get(m["name"]) or [0.0]) for m in declared}
    return values, f"per-layer medians over {len(layers['trace.pipeline_s'])} traced ops"


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: list[dict]) -> dict:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    try:
        spec, bars_per_op = WORKLOADS[name](work, seed)
        spec.update(root=str(ROOT), workload=name, mode="trace" if trace else "measure")
        warm_up(deadline)
        if trace:
            TRACE_ROOT.mkdir(exist_ok=True)
            trace_out = TRACE_ROOT / f"trace-{name}-seed{seed}.jsonl"
            spec.update(seconds=seconds, trace_out=str(trace_out))
            results = [run_worker(spec, work, 0, deadline)]
        else:
            spec.update(seconds=seconds / SETUP_LAUNCHES)
            results = [run_worker(spec, work, i, deadline) for i in range(SETUP_LAUNCHES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for error in r["errors"]:
            print(f"{name:<10} FAILED {error}", file=sys.stderr)
    values, note = per_layer(results[0], declared) if trace else end_to_end(results, bars_per_op)
    env = {
        **results[0]["env"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": read_commit(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
    print("env " + json.dumps(env))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for metric_name, metric in metrics.items():
        print(f"{name:<10} {metric_name:<36} {metric['value']:.6g} {metric['unit']}")
    for line in note.splitlines():
        print(f"{name:<10} {line}")
    print(f"{name:<10} error_ratio {failed}/{attempted} ops failed their output check")
    print(f"{name:<10} wall {time.monotonic() - started:.1f} s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
        declared = benchmark["per_layer" if args.trace else "end_to_end"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        outcomes = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), declared)
            for name in names
        }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(outcomes) == 1:
        final = outcomes[args.workload]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{w}.{m}": v for w, o in outcomes.items() for m, v in o["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
