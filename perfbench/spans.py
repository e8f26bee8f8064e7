"""In-memory span recorder and the traced pipelines.

The traced pipelines call eventlens's public layer functions in the order
``cli.cmd_run`` + ``scenario.run_scenario`` (or ``ingest.fetch_daily``)
call them, wrapping each call in a span. Spans are recorded from this
benchmark's own code, around the calls into each layer; nothing inside
the program is instrumented. A traced run must produce the same report
bytes as the real pipeline, which the worker checks on every traced op.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

PIPELINE = "pipeline"
PROBE = "probe"


class Tracer:
    """Spans as [name, start, end, parent index, op id], kept in memory,
    plus per-op counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(dict)
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counters[self.op][name] = self.counters[self.op].get(name, 0) + value

    def op_totals(self) -> dict[int, dict[str, float]]:
        """Per op: seconds summed by span name, plus ``PIPELINE + ".layers"``,
        the summed children of the op's pipeline span."""
        layers = PIPELINE + ".layers"
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, op in self.spans:
            totals[op][name] += end - start
            if parent is not None and self.spans[parent][0] == PIPELINE:
                totals[op][layers] += end - start
        return totals

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, op in self.spans:
                record = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op,
                }
                handle.write(json.dumps(record) + "\n")


def _offline(url: str) -> bytes:
    raise OSError("offline: the benchmark never reaches a provider on a run op")


def traced_run(tracer: Tracer, el, argv: list[str]):
    """Mirror of ``eventlens run --offline --save-report``; returns the
    report, the formats emitted and the saved report bytes."""
    cli, ingest, panel, regress, metrics, stats, scenario, report = (
        el.cli, el.ingest, el.panel, el.regress, el.metrics, el.stats, el.scenario, el.report
    )
    with tracer.span("cli.parse_args"):
        args = cli.build_parser().parse_args(argv)
        formats = {part.strip() for part in args.format.split(",") if part.strip()}
    with tracer.span("cli.load_config"):
        config_path = Path(args.config)
        document = json.loads(config_path.read_text(encoding="utf-8"))
        section = dict(document.get("provider", {}))
        cache_dir = config_path.parent / section.pop("cache_dir", "cache")
        provider = ingest.ProviderConfig(cache_dir=cache_dir, **section)
    with tracer.span("scenario.config"):
        config = scenario.config_from_json_dict(document["scenario"])

    series = []
    for instrument in config.universe:
        with tracer.span("ingest.load_csv"):
            series.append(ingest.fetch_daily(instrument, provider, _offline))
    bars = sum(len(s) for s in series)
    tracer.count("ingest.bars", bars)
    files = [cache_dir / f"{s.instrument.symbol}.csv" for s in series]
    tracer.count("ingest.bytes_read", sum(path.stat().st_size for path in files))

    digests = {}
    for s in series:
        with tracer.span("scenario.series_digest"):
            digests[s.instrument.symbol] = scenario.series_digest(s)
    with tracer.span("panel.align"):
        aligned = panel.align(series, panel.FIELD_ORDER)
    dates_in = set().union(*({bar.date for bar in s.bars} for s in series))
    tracer.count("panel.dates_in", len(dates_in))
    tracer.count("panel.dates_kept", aligned.n_rows)
    tracer.count("panel.join_keep_ratio", aligned.n_rows * len(series) / bars)

    slices = {}
    for name, window in config.named_windows().items():
        with tracer.span("panel.slice"):
            slices[name] = aligned.slice(window)
        tracer.count("panel.slice_calls", 1)

    close_keys = config.close_keys()
    with tracer.span("stats.correlation_matrix"):
        correlation_before = stats.correlation_matrix(slices["correlation_before"], close_keys)
    with tracer.span("stats.correlation_matrix"):
        correlation_after = stats.correlation_matrix(slices["correlation_after"], close_keys)
    tracer.count("stats.pairs", len(close_keys) * (len(close_keys) - 1))
    with tracer.span("scenario.projection_cycles"):
        cycles = scenario.projection_cycles(config, aligned)

    train, test = slices["train_window"], slices["test_window"]
    realized_slice = slices["projection_window"]
    targets = {}
    for spec in config.feature_specs:
        with tracer.span("regress.fit_ols"):
            model = regress.fit_ols(train, spec)
        tracer.count("regress.fits", 1)
        tracer.count("regress.design_cells", train.n_rows * spec.n_coefficients)
        with tracer.span("regress.predict"):
            test_prediction = regress.predict(model, test)
        with tracer.span("metrics.score"):
            test_metrics = metrics.score(test.column(spec.target), test_prediction)
        with tracer.span("scenario.projection_features"):
            features = scenario.projection_features(aligned, config, spec)
        tracer.count("scenario.projection_features_calls", 1)
        with tracer.span("regress.predict"):
            counterfactual = regress.predict(model, features)
        realized = realized_slice.column(spec.target)
        with tracer.span("metrics.score"):
            divergence_metrics = metrics.score(realized, counterfactual)
        tracer.count("metrics.points", test.n_rows + realized_slice.n_rows)
        targets[spec.target.symbol] = scenario.TargetResult(
            model=model,
            test_metrics=test_metrics,
            projection_dates=realized_slice.dates,
            realized=realized,
            counterfactual=counterfactual,
            divergence_metrics=divergence_metrics,
        )

    with tracer.span("scenario.config"):
        config_digest = scenario.config_digest(config)
    result = scenario.ScenarioReport(
        targets=targets,
        correlation_before=correlation_before,
        correlation_after=correlation_after,
        provenance={
            "config_digest": config_digest,
            "data_digests": digests,
            "projection_mode": config.projection_mode.value,
            "projection_cycles": cycles,
        },
    )
    out_dir = Path(args.out)
    with tracer.span("report.emit"):
        bundle = report.emit(result, out_dir, formats)
    tracer.count("report.files", len(bundle.manifest["files"]) + 1)
    tracer.count(
        "report.bytes_written",
        sum(entry["bytes"] for entry in bundle.manifest["files"])
        + (out_dir / report.MANIFEST_NAME).stat().st_size,
    )
    with tracer.span("scenario.report_json"):
        payload = scenario.report_to_json_bytes(result)
    Path(args.save_report).write_bytes(payload)
    return result, formats, payload


def traced_fetch(tracer: Tracer, el, instruments, provider, transport) -> list:
    """Mirror of ``ingest.fetch_universe`` into an empty cache directory;
    like it, keeps every series alive until the end."""
    ingest = el.ingest
    fetched = []
    for instrument in instruments:
        cache_path = provider.cache_dir / f"{instrument.symbol}.csv"
        if cache_path.exists():
            raise RuntimeError(f"cache not empty at {cache_path}")
        provider.limiter.acquire()
        body = transport(ingest.provider_url(instrument, provider))
        with tracer.span("ingest.parse_payload"):
            series = ingest.parse_provider_payload(body, instrument)
        with tracer.span("ingest.write_csv"):
            ingest.write_csv(series, cache_path)
        tracer.count("ingest.bars", len(series))
        tracer.count("ingest.bytes_written", cache_path.stat().st_size)
        fetched.append(series)
    return fetched
