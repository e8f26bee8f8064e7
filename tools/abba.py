#!/usr/bin/env python3
"""Benchmark this checkout against a parent commit in ABBA pairs.

    python tools/abba.py --parent REV --label NAME --change TEXT \\
        [--claim WORKLOAD.METRIC] [--seeds 3,41]

Checks REV out into a ``git worktree`` in a temporary directory (removed
afterwards) and runs ``perfbench/run.py`` there and in this checkout, for
``run_seconds`` from BENCHMARK.json, over ten pairs. Pair k runs every
BENCHMARK.json workload in turn, the parent first in odd pairs and the
change first in even ones; the pairs fall into equal blocks, one per seed,
in the order the seeds are given.

It writes ``BENCH_<label>.json`` at the root of the checkout: every run's
last-line JSON and environment record, and per workload and end-to-end
metric the medians and quartiles of each side, the pairs the change wins
and each pair's values. It computes the verdicts:

- the claim, if one is named: the change wins at least 9 in 10 pairs, and
  the medians differ in its favour by more than the parent's quartile
  distance;
- every end-to-end metric of every workload: the change's median is not
  worse than the parent's by more than the metric's bound (a fraction of
  the parent's median), and the runs resolve it (the parent's quartile
  distance is within the bound, or every run of the change reads better);
- every workload: no larger share of the change's ops fails.

Exits 0 when every verdict holds, 1 when one does not, and 2 when a run
gives no result, in which case no file is written. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
CLAIM_RULE = (
    "the change wins at least 9 of 10 pairs and the medians differ by more than "
    "the parent's quartile distance"
)


class AbbaError(Exception):
    pass


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise AbbaError(f"git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout.strip()


@contextmanager
def worktree(rev: str):
    """A detached worktree of ``rev`` in a temporary directory, removed on exit."""
    temp = Path(tempfile.mkdtemp(prefix="abba-"))
    tree = temp / "parent"
    try:
        git("worktree", "add", "--detach", str(tree), rev)
        yield tree
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
            capture_output=True,
        )
        shutil.rmtree(temp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)


def schedule(pairs: int, seeds: list[int], workloads: list[str]) -> list[tuple]:
    """Every run in order: (pair, seed, workload, side, order)."""
    runs = []
    for pair in range(1, pairs + 1):
        seed = seeds[(pair - 1) * len(seeds) // pairs]
        sides = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for side, order in zip(sides, ("first", "second")):
                runs.append((pair, seed, workload, side, order))
    return runs


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its exit code, environment record and last-line JSON."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None:
        sys.stderr.write(done.stderr[-2000:])
    return {"exit": done.returncode, "env": env, "result": result}


def spread(values: list[float]) -> dict:
    """The median and quartiles (inclusive method) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: its runs and ops, and per metric each side's spread, the
    pairs the change wins and each pair's [parent, change] values."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        entry = summary[workload] = {
            "runs": len(mine),
            "ops_attempted": sum(run["result"]["attempted"] for run in mine),
            "ops_failed": sum(run["result"]["failed"] for run in mine),
        }
        pairs: dict[int, dict] = {}
        for run in mine:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            per_pair = [[pairs[k][side][name]["value"] for side in SIDES] for k in sorted(pairs)]
            entry[name] = {
                "parent": spread([parent for parent, _ in per_pair]),
                "change": spread([change for _, change in per_pair]),
                "change_wins": sum((c < p) if lower else (c > p) for p, c in per_pair),
                "pairs": len(per_pair),
                "per_pair": [[round(p, 6), round(c, 6)] for p, c in per_pair],
            }
    return summary


def claim_verdict(entry: dict, metric: dict) -> dict:
    """The claim rule on ``metric``'s summary entry."""
    parent, change = entry["parent"], entry["change"]
    gain = parent["median"] - change["median"]
    if metric["better"] != "lower":
        gain = -gain
    quartile_distance = parent["q3"] - parent["q1"]
    needed = math.ceil(0.9 * entry["pairs"])
    return {
        "change_wins": entry["change_wins"],
        "wins_needed": needed,
        "median_gain": gain,
        "parent_quartile_distance": quartile_distance,
        "holds": entry["change_wins"] >= needed and gain > quartile_distance,
    }


def bound_verdict(entry: dict, metric: dict) -> dict:
    """Whether the change's median is worse than the parent's by at most
    ``metric``'s bound, a fraction of the parent's median, and whether the
    runs can tell: the parent's quartile distance is within the bound too,
    or every run of the change reads better than every run of the parent."""
    parent, change = entry["parent"], entry["change"]
    lower = metric["better"] == "lower"
    worse_by = (change["median"] - parent["median"]) / parent["median"] * (1 if lower else -1)
    parent_spread = (parent["q3"] - parent["q1"]) / parent["median"]
    parents, changes = zip(*entry["per_pair"])
    apart = max(changes) < min(parents) if lower else min(changes) > max(parents)
    resolved = parent_spread <= metric["bound"] or apart
    return {
        "worse_by": worse_by,
        "bound": metric["bound"],
        "parent_spread": parent_spread,
        "resolved": resolved,
        "holds": worse_by <= metric["bound"] and resolved,
    }


def failed_share(runs: list[dict], workload: str, side: str) -> float:
    """The share of one side's ops on ``workload`` that failed their output check."""
    results = [r["result"] for r in runs if (r["workload"], r["side"]) == (workload, side)]
    attempted = sum(result["attempted"] for result in results)
    return sum(result["failed"] for result in results) / attempted if attempted else 1.0


def verdicts(summary: dict, runs: list[dict], metrics: list[dict], claim: tuple | None) -> dict:
    """The claim's verdict (if one is named), every workload's metric and op
    verdicts, and whether they all hold."""
    by_name = {metric["name"]: metric for metric in metrics}
    result: dict = {"bounds": {}, "ops": {}}
    for workload, entry in summary.items():
        result["bounds"][workload] = {
            name: bound_verdict(entry[name], metric) for name, metric in by_name.items()
        }
        shares = {side: failed_share(runs, workload, side) for side in SIDES}
        holds = shares["change"] <= shares["parent"] and shares["change"] < 1.0
        result["ops"][workload] = {"failed_share": shares, "holds": holds}
    if claim is not None:
        workload, name = claim
        result["claim"] = claim_verdict(summary[workload][name], by_name[name])
    checks = [v for bounds in result["bounds"].values() for v in bounds.values()]
    checks += [*result["ops"].values(), result.get("claim", {"holds": True})]
    result["holds"] = all(check["holds"] for check in checks)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--claim", help="WORKLOAD.METRIC the change claims to improve")
    parser.add_argument("--seeds", default="3,41", help=f"up to {PAIRS} seeds, comma-separated")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]
    seeds = [int(seed) for seed in args.seeds.split(",")]
    claim = tuple(args.claim.split(".", 1)) if args.claim else None
    if len(seeds) > PAIRS:
        parser.error(f"--seeds names more seeds than there are pairs ({PAIRS})")
    if claim and (claim[0] not in workloads or claim[1] not in {m["name"] for m in metrics}):
        parser.error("--claim must name a BENCHMARK.json workload and end-to-end metric")
    seconds = float(benchmark["run_seconds"])
    runs = []
    # A terminated run still removes its worktree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        parent = git("rev-parse", "--short", args.parent)
        change = git("rev-parse", "--short", "HEAD")
        if git("status", "--porcelain"):
            change += " with uncommitted changes"
        with worktree(parent) as parent_tree:
            trees = {"parent": parent_tree, "change": ROOT}
            for pair, seed, workload, side, order in schedule(PAIRS, seeds, workloads):
                print(f"pair {pair} seed {seed} {workload} {side}", file=sys.stderr, flush=True)
                run = run_once(trees[side], workload, seed, seconds)
                if run["result"] is None:
                    raise AbbaError(f"pair {pair}: the {side}'s {workload} run gave no result")
                where = {"workload": workload, "seed": seed, "pair": pair, "side": side}
                runs.append({**where, "order": order, **run})
    except AbbaError as exc:
        print(f"abba: {exc}", file=sys.stderr)
        return 2

    summary = summarize(runs, metrics)
    bytecode = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    document = {
        "label": args.label,
        "change": args.change,
        "parent": parent,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
        f"--seconds {seconds:g}",
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "protocol": (
            f"tools/abba.py; run_seconds {seconds:g}, as BENCHMARK.json sets it; {PAIRS} "
            f"ABBA pairs per workload, the workloads interleaved pair by pair "
            f"({', '.join(workloads)}); odd pairs run the parent first, even pairs the change "
            f"first; the pairs fall into equal blocks by seed ({', '.join(map(str, seeds))}). "
            f"The parent ran from a git worktree of {parent}, the change from the checkout "
            f"({change}). "
            f"PYTHONDONTWRITEBYTECODE was {bytecode} for both sides. Quartiles are "
            "statistics.quantiles(n=4, method='inclusive') over a side's runs; per_pair lists "
            "[parent, change] by pair. A bound compares the medians."
        ),
        "claim": {"workload": claim[0], "metric": claim[1], "rule": CLAIM_RULE} if claim else None,
        "verdicts": verdicts(summary, runs, metrics, claim),
        "summary": summary,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}; every verdict holds: {document['verdicts']['holds']}", file=sys.stderr)
    return 0 if document["verdicts"]["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
