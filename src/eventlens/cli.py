"""Operator-facing command surface.

Subcommands: fetch (populate the cache), correlate / fit / project (run
some of the protocol's stages against the cache), run (full scenario to a
report bundle), and report (re-emit a bundle from a saved scenario report).

correlate, fit and project call the same ``scenario`` stages as
``run_scenario`` (``correlations``, ``fit_target``, ``project_target``)
and name, encode and write their files with the same ``report`` functions,
so each file they write is byte-equal to the same-named file of a ``run``
bundle (a fit model to its model in the saved report). run and report
write the bundle with ``report.emit`` and run the ``--save-report``
document with ``report.report_to_json_bytes``, its only writers. Every
file is written through ``ingest.write_atomic``, which makes a missing
directory; run and report stage their bundle beside ``--out`` and swap
it in whole.

Exit codes: 0 success, 1 data/model errors, 2 usage errors. Failures are
written to stderr as a single machine-parseable line.

The config file is a JSON document with two sections::

    {"provider": {"cache_dir": "cache", "rate_limit": 5, ...},
     "scenario": {...}}

Relative provider paths are resolved against the config file's directory.
The API key comes from the provider section or EVENTLENS_API_KEY.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

from . import report as report_mod
from . import scenario as scenario_mod
from .errors import EventLensError, ProviderError, json_object
from .ingest import InstrumentId, ProviderConfig, RawSeries, fetch_daily, fetch_universe, write_atomic
from .panel import FIELD_ORDER, AlignedPanel, align
from .scenario import ProjectionMode, ScenarioConfig

PROG = "eventlens"


def _offline_transport(url: str) -> bytes:
    raise ProviderError("offline mode forbids network access")


def _error_category(exc: BaseException) -> str:
    name = type(exc).__name__
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "-", name).lower()


def _fail(exc: BaseException) -> int:
    message = " ".join(str(exc).split())
    print(f"{PROG}: error: {_error_category(exc)}: {message}", file=sys.stderr)
    return 1


def _parse_formats(raw: str, parser: argparse.ArgumentParser) -> set[str]:
    formats = {part.strip() for part in raw.split(",") if part.strip()}
    unknown = formats - set(report_mod.FORMATS)
    if unknown:
        parser.error(f"unknown formats: {', '.join(sorted(unknown))}")
    return formats


def _load_config(path_str: str, parser: argparse.ArgumentParser) -> tuple[ProviderConfig, ScenarioConfig]:
    path = Path(path_str)
    if not path.is_file():
        parser.error(f"config file not found: {path}")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(document, dict):
            raise TypeError(f"top-level JSON is {type(document).__name__}, not an object")
        provider_section = json_object(document.get("provider", {}), "provider")
        cache_dir = Path(provider_section.pop("cache_dir", "cache"))
        scenario_config = scenario_mod.config_from_json_dict(document["scenario"])
    except (ValueError, KeyError, TypeError, EventLensError) as exc:
        parser.error(f"unparseable config {path}: {exc}")
    if not cache_dir.is_absolute():
        cache_dir = path.parent / cache_dir
    try:
        provider_config = ProviderConfig(cache_dir=cache_dir, **provider_section)
    except (TypeError, EventLensError) as exc:
        parser.error(f"bad provider section in {path}: {exc}")
    return provider_config, scenario_config


def _series(config: ScenarioConfig, provider: ProviderConfig, offline: bool) -> list[RawSeries]:
    transport = _offline_transport if offline else None
    return fetch_universe(config.universe, provider, transport)


def _panel(config: ScenarioConfig, provider: ProviderConfig, offline: bool) -> AlignedPanel:
    series = _series(config, provider, offline)
    return align(scenario_mod.universe_series(config, series), FIELD_ORDER)


def _apply_mode(config: ScenarioConfig, mode: str | None) -> ScenarioConfig:
    if mode is None:
        return config
    return dataclasses.replace(config, projection_mode=ProjectionMode(mode))


def cmd_fetch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    provider, config = _load_config(args.config, parser)
    instruments: list[InstrumentId] = list(config.universe)
    if args.symbol:
        wanted = set(args.symbol)
        by_symbol = {i.symbol: i for i in instruments}
        missing = wanted - set(by_symbol)
        if missing:
            parser.error(f"symbols not in universe: {', '.join(sorted(missing))}")
        instruments = [by_symbol[s] for s in args.symbol]
    for instrument in instruments:
        series = fetch_daily(instrument, provider)
        print(f"{instrument.symbol}: {len(series)} bars cached")
    return 0


def cmd_correlate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    provider, config = _load_config(args.config, parser)
    formats = _parse_formats(args.format, parser)
    before, after = scenario_mod.correlations(_panel(config, provider, args.offline), config)
    report_mod.write_files(Path(args.out), report_mod.correlation_files(before, after, formats))
    for name, matrix in (("corr_before", before), ("corr_after", after)):
        print(f"{name}: {len(matrix.labels)}x{len(matrix.labels)} matrix written")
    return 0


def cmd_fit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    provider, config = _load_config(args.config, parser)
    panel = _panel(config, provider, args.offline)
    models = [scenario_mod.fit_target(panel, config, spec) for spec in config.feature_specs]
    report_mod.write_files(Path(args.out), report_mod.model_files(models))
    for model in models:
        symbol, rss = model.spec.target.symbol, model.diagnostics.residual_sum_of_squares
        print(f"{symbol}: fit on {model.diagnostics.training_rows} rows, rss={rss:.6g}")
    return 0


def cmd_project(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    provider, config = _load_config(args.config, parser)
    config = _apply_mode(config, args.mode)
    formats = _parse_formats(args.format, parser)
    panel = _panel(config, provider, args.offline)
    files: dict[str, bytes] = {}
    for spec in config.feature_specs:
        model = scenario_mod.fit_target(panel, config, spec)
        projection = scenario_mod.project_target(panel, config, model)
        files.update(report_mod.counterfactual_files(spec.target.symbol, *projection, formats))
    report_mod.write_files(Path(args.out), files)
    for spec in config.feature_specs:
        print(f"counterfactual_{spec.target.symbol} written")
    return 0


def cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    provider, config = _load_config(args.config, parser)
    config = _apply_mode(config, args.mode)
    formats = _parse_formats(args.format, parser)
    report = scenario_mod.run_scenario(config, _series(config, provider, args.offline))
    bundle = report_mod.emit(report, Path(args.out), formats)
    if args.save_report:
        write_atomic(Path(args.save_report), report_mod.report_to_json_bytes(report))
    print(f"bundle written to {bundle.directory} ({len(bundle.manifest['files'])} files)")
    return 0


def cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    source = Path(args.from_report)
    if not source.is_file():
        parser.error(f"report file not found: {source}")
    formats = _parse_formats(args.format, parser)
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except ValueError as exc:
        parser.error(f"unparseable report {source}: {exc}")
    report = scenario_mod.report_from_json_dict(document)
    bundle = report_mod.emit(report, Path(args.out), formats)
    print(f"bundle written to {bundle.directory} ({len(bundle.manifest['files'])} files)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Quantify a discrete event's impact on financial indexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(
        name: str, handler, help_text: str,
        config: bool = True, out: bool = True, formats: bool = True, mode: bool = False,
    ) -> argparse.ArgumentParser:
        """A subcommand and its common flags; ``formats`` applies only with ``out``."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if config:
            p.add_argument("--config", required=True, help="path to the JSON config document")
            p.add_argument("--offline", action="store_true", help="forbid all network access")
        if out:
            p.add_argument("--out", default="out", help="output directory (default: out)")
        if out and formats:
            p.add_argument("--format", default="csv,json", help="comma list of csv,json")
        if mode:
            modes = [m.value for m in ProjectionMode]
            p.add_argument("--mode", choices=modes, help="override the config's projection mode")
        return p

    fetch = add("fetch", cmd_fetch, "populate the local cache", out=False)
    fetch.add_argument("--symbol", action="append", help="restrict to this symbol (repeatable)")
    add("correlate", cmd_correlate, "write before/after correlation matrices")
    add("fit", cmd_fit, "fit per-target models on the training window", formats=False)
    add("project", cmd_project, "write counterfactual-vs-realized series", mode=True)
    run = add("run", cmd_run, "full scenario to a report bundle", mode=True)
    run.add_argument("--save-report", help="also save the full scenario report JSON here")
    report = add("report", cmd_report, "re-emit a bundle from a saved scenario report", config=False)
    report.add_argument("--from", dest="from_report", required=True, help="saved report JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fetch" and args.offline:
        parser.error("fetch --offline is contradictory: fetching requires network access")
    try:
        return args.handler(args, parser)
    except (EventLensError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    raise SystemExit(main())
