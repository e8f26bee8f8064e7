"""One benchmark worker: a fresh, single-threaded interpreter that runs one
workload's ops and writes its samples to a JSON file.

Usage (the harness in run.py starts it; stdout is discarded):

    python3 perfbench/worker.py SPEC.json LAUNCHED_MONOTONIC

The worker imports eventlens from the checkout's ``src/`` and refuses to
run if another copy would be measured. An op is one warm
``cli.main(["run", "--offline", ...])`` call for the run workloads, or one
``fetch_universe`` into an empty cache directory for cold_fetch. Every op
is checked after its timing ends; an op fails if it raises, returns
non-zero, or fails its check.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from urllib.parse import parse_qs, urlsplit

import numpy

import generate
from speed import calibrate
from spans import PIPELINE, PROBE, Tracer, traced_fetch, traced_run

MODULES = ("cli", "ingest", "panel", "regress", "metrics", "stats", "scenario", "report")
# Generated targets are noise-free, so a fit recovers the generating weights
# up to rounding in the solve.
WEIGHT_TOLERANCE = 1e-6


class CheckFailed(Exception):
    pass


class RunWorkload:
    """``eventlens run --offline`` on a config, checked against either the
    golden bundle (paper) or the generating weights (wide, dense)."""

    def __init__(self, spec: dict, el) -> None:
        self.el = el
        work = Path(spec["work"])
        self.out, self.report = work / "bundle", work / "report.json"
        self.traced_out, self.traced_report = work / "traced_bundle", work / "traced_report.json"
        config = spec["config"]
        self.argv = self._argv(config, self.out, self.report)
        self.traced_argv = self._argv(config, self.traced_out, self.traced_report)
        self.golden = spec.get("golden")
        self.truth_path = spec.get("truth")
        self.expected: dict | None = None
        self.manifest: bytes | None = None
        self.traced_result = None

    @staticmethod
    def _argv(config: str, out: Path, report: Path) -> list[str]:
        return [
            "run", "--offline", "--config", config, "--out", str(out), "--save-report", str(report)
        ]

    def prepare(self) -> None:
        pass

    def op(self) -> None:
        code = self.el.cli.main(self.argv)
        if code != 0:
            raise CheckFailed(f"cli.main returned {code}")

    def check(self) -> None:
        if self.golden is not None:
            self._check_golden()
        else:
            self._check_weights()

    def _check_golden(self) -> None:
        if self.expected is None:
            bundle = Path(self.golden["bundle"])
            self.expected = {
                "files": {p.name: p.read_bytes() for p in bundle.iterdir()},
                "report": Path(self.golden["report"]).read_bytes(),
            }
        files = {p.name: p.read_bytes() for p in self.out.iterdir()}
        if files != self.expected["files"]:
            raise CheckFailed("bundle differs from the golden bundle")
        if self.report.read_bytes() != self.expected["report"]:
            raise CheckFailed("saved report differs from the golden scenario report")

    def _check_weights(self) -> None:
        if self.expected is None:
            self.expected = json.loads(Path(self.truth_path).read_text(encoding="ascii"))
        manifest = (self.out / "manifest.json").read_bytes()
        if self.manifest is None:
            self.manifest = manifest
        elif manifest != self.manifest:
            raise CheckFailed("manifest differs from the first op's")
        targets = json.loads(self.report.read_text(encoding="ascii"))["targets"]
        if set(targets) != set(self.expected):
            raise CheckFailed("report targets differ from the generated targets")
        for symbol, truth in self.expected.items():
            model = targets[symbol]["model"]
            fitted = dict(zip(model["spec"]["features"], model["weights"][1:]))
            fitted["intercept"] = model["weights"][0]
            wanted = {name: truth["weights"].get(name, 0.0) for name in model["spec"]["features"]}
            wanted["intercept"] = truth["intercept"]
            worst = max(abs(fitted[k] - wanted[k]) / max(1.0, abs(wanted[k])) for k in wanted)
            if worst > WEIGHT_TOLERANCE:
                raise CheckFailed(f"{symbol}: fitted weights miss the generating ones by {worst:.3e}")

    def traced(self, tracer: Tracer) -> None:
        result, formats, payload = traced_run(tracer, self.el, self.traced_argv)
        if payload != self.report.read_bytes():
            raise CheckFailed("traced pipeline's report differs from run_scenario's")
        self.traced_result = (result, formats)

    def probe(self, tracer: Tracer) -> None:
        """Layer calls that the pipeline makes only inside another call."""
        result, formats = self.traced_result
        with tracer.span("report.render_files"):
            self.el.report.render_files(result, formats)


class FetchWorkload:
    """``fetch_universe`` into a fresh cache directory through an in-memory
    transport, checked against CSV text built straight from the payloads."""

    def __init__(self, spec: dict, el) -> None:
        self.el = el
        self.work = Path(spec["work"])
        payloads = sorted(Path(spec["payloads"]).glob("*.json"))
        self.payloads = {p.stem: p.read_bytes() for p in payloads}
        kind = el.ingest.InstrumentKind.EQUITY
        self.instruments = [el.ingest.InstrumentId(symbol, kind) for symbol in self.payloads]
        self.expected: dict[str, bytes] | None = None
        self.ops = 0
        self.provider = None

    def transport(self, url: str) -> bytes:
        return self.payloads[parse_qs(urlsplit(url).query)["symbol"][0]]

    def prepare(self) -> None:
        # A fresh config per op: its limiter counts requests over 60 s, and
        # rate_limit equal to the symbol count means it never sleeps.
        self.ops += 1
        self.provider = self.el.ingest.ProviderConfig(
            cache_dir=self.work / f"cache{self.ops}", rate_limit=len(self.instruments)
        )

    def op(self) -> None:
        self.el.ingest.fetch_universe(self.instruments, self.provider, self.transport)

    def check(self) -> None:
        if self.expected is None:
            self.expected = {
                f"{symbol}.csv": generate.expected_cache_csv(body)
                for symbol, body in self.payloads.items()
            }
        cache = self.provider.cache_dir
        try:
            files = {p.name: p.read_bytes() for p in cache.iterdir()}
            if files != self.expected:
                raise CheckFailed("cache files differ from the payloads' CSV text")
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def traced(self, tracer: Tracer) -> None:
        traced_fetch(tracer, self.el, self.instruments, self.provider, self.transport)

    def probe(self, tracer: Tracer) -> None:
        pass


def import_eventlens(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("eventlens")
    location = Path(package.__file__).resolve()
    if src not in location.parents:
        raise SystemExit(f"perfbench: refusing to measure eventlens at {location}, not under {src}")
    for name in MODULES:
        importlib.import_module(f"eventlens.{name}")
    return package


def environment(el) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "eventlens": str(Path(el.__file__).resolve().parent),
    }


def peak_rss_mib() -> float:
    """High-water resident set of this process (VmHWM, which exec resets)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="ascii"))
    launched = float(sys.argv[2])
    el = import_eventlens(Path(spec["root"]))
    workload = (FetchWorkload if spec["kind"] == "fetch" else RunWorkload)(spec, el)
    tracing = spec["mode"] == "trace"
    tracer = Tracer()
    traced_walls: list[float] = []
    errors: list[str] = []
    attempted = 0

    def attempt(call) -> float | None:
        """Time one op and check it; None if it raised. A completed op that
        fails its check keeps its time and counts as failed."""
        nonlocal attempted
        attempted += 1
        # Each op starts from a collected heap, as a fresh CLI process
        # would, so the checks' garbage is not collected inside the next op.
        gc.collect()
        try:
            workload.prepare()
            start = perf_counter()
            call()
            elapsed = perf_counter() - start
        except Exception:
            errors.append(traceback.format_exc(limit=3))
            return None
        try:
            workload.check()
        except Exception:
            errors.append(traceback.format_exc(limit=3))
        return elapsed

    attempt(workload.op)
    setup_s = time.monotonic() - launched
    # kernel_s[j]: the speed kernel's time right after untraced attempt j
    # (0 is the cold op). Warm op j runs between kernel_s[j - 1] and
    # kernel_s[j] and is scaled by the median of the four samples around
    # it, which follows the host's speed over seconds but not one blip.
    kernel_s = [statistics.median(calibrate() for _ in range(3))]
    warm: list[tuple[int, float]] = []
    deadline = perf_counter() + spec["seconds"]
    while perf_counter() < deadline:
        elapsed = attempt(workload.op)
        kernel_s.append(calibrate())
        if elapsed is not None:
            warm.append((len(kernel_s) - 1, elapsed))
        if tracing:
            tracer.op += 1

            def pipeline() -> None:
                with tracer.span(PIPELINE):
                    workload.traced(tracer)

            elapsed = attempt(pipeline)
            if elapsed is not None:
                traced_walls.append(elapsed)
                with tracer.span(PROBE):
                    workload.probe(tracer)

    latencies = [elapsed for _, elapsed in warm]
    result = {
        "setup_s": setup_s,
        "setup_kernel_s": kernel_s[0],
        "latencies": latencies,
        "kernels": [statistics.median(kernel_s[max(0, j - 2) : j + 2]) for j, _ in warm],
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:3],
        "peak_rss_mib": peak_rss_mib(),
        "env": environment(el),
    }
    if tracing:
        result["layers"] = layer_samples(tracer, traced_walls, latencies)
        tracer.write(Path(spec["trace_out"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="ascii")
    return 0


def layer_samples(tracer: Tracer, traced_walls: list[float], latencies: list[float]) -> dict:
    """Per traced op: ``<span>_s`` seconds for each span name and every
    counter, as lists over ops, plus the trace's own figures."""
    totals = tracer.op_totals()
    ops = sorted(op for op in totals if PIPELINE in totals[op])
    spans = {name for op in ops for name in totals[op]}
    counters = {name for op in ops for name in tracer.counters[op]}
    samples = {f"{name}_s": [totals[op].get(name, 0.0) for op in ops] for name in spans}
    samples.update({name: [tracer.counters[op].get(name, 0) for op in ops] for name in counters})
    op_median = statistics.median(latencies) if latencies else float("nan")
    samples["trace.op_s"] = latencies
    samples["trace.pipeline_s"] = traced_walls
    samples["trace.coverage"] = [totals[op][PIPELINE + ".layers"] / op_median for op in ops]
    return samples


if __name__ == "__main__":
    sys.exit(main())
