"""tools/abba.py: the ABBA order and the verdicts it computes from runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("abba", ROOT / "tools" / "abba.py")
abba = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abba)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
BY_NAME = {metric["name"]: metric for metric in METRICS}


def verdict_on(per_pair, claim=None, failed=(0, 0)) -> dict:
    runs = runs_of(per_pair, failed=failed)
    return abba.verdicts(abba.summarize(runs, METRICS), runs, METRICS, claim)


def latency(per_pair) -> dict:
    return abba.summarize(runs_of(per_pair), METRICS)["wide"]["latency_s_p50"]


def runs_of(per_pair: list[tuple[float, float]], failed=(0, 0)) -> list[dict]:
    """``wide`` runs whose every end-to-end metric reads the pair's parent or
    change value, with ``failed`` ops of 100 on the parent and change side."""
    runs = []
    for pair, values in enumerate(per_pair, 1):
        for side, value, bad in zip(abba.SIDES, values, failed):
            metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in METRICS}
            result = {"correct": not bad, "attempted": 100, "failed": bad, "metrics": metrics}
            runs.append({"workload": "wide", "pair": pair, "side": side, "result": result})
    return runs


def test_the_schedule_alternates_which_side_runs_first_and_blocks_the_seeds():
    runs = abba.schedule(4, [3, 41], ["paper", "wide"])
    assert [(pair, seed) for pair, seed, *_ in runs[::4]] == [(1, 3), (2, 3), (3, 41), (4, 41)]
    assert [side for *_, side, _ in runs[:4]] == ["parent", "change"] * 2
    assert [side for *_, side, _ in runs[4:8]] == ["change", "parent"] * 2
    assert {order for *_, order in runs[::2]} == {"first"}


def test_a_claim_holds_on_nine_wins_in_ten_beyond_the_parents_quartile_distance():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    nine_wins = [(p, p - 0.1) for p in parent[:9]] + [(parent[9], 2.0)]
    summary = abba.summarize(runs_of(nine_wins), METRICS)["wide"]
    assert (summary["latency_s_p50"]["change_wins"], summary["latency_s_p50"]["pairs"]) == (9, 10)
    verdict = abba.claim_verdict(summary["latency_s_p50"], BY_NAME["latency_s_p50"])
    assert verdict["wins_needed"] == 9 and verdict["holds"]
    # bars_per_s is better higher: the same values lose it.
    assert not abba.claim_verdict(summary["bars_per_s"], BY_NAME["bars_per_s"])["holds"]
    eight_wins = nine_wins[:8] + [(parent[8], 2.0), (parent[9], 2.0)]
    assert not abba.claim_verdict(latency(eight_wins), BY_NAME["latency_s_p50"])["holds"]
    # Ten wins whose medians differ by less than the parent's quartile distance.
    small = [(p, p - 0.001) for p in parent]
    verdict = abba.claim_verdict(latency(small), BY_NAME["latency_s_p50"])
    assert verdict["change_wins"] == 10
    assert verdict["median_gain"] < verdict["parent_quartile_distance"]
    assert not verdict["holds"]


@pytest.mark.parametrize(
    "name,parent,change,holds",
    [
        ("latency_s_p50", 1.0, 1.2, True),
        ("latency_s_p50", 1.0, 1.21, False),
        ("bars_per_s", 100.0, 75.0, True),
        ("bars_per_s", 100.0, 74.0, False),
        ("peak_rss_mib", 40.0, 41.9, True),
        ("peak_rss_mib", 40.0, 42.1, False),
    ],
)
def test_a_metric_holds_while_the_change_is_no_worse_than_its_bound(name, parent, change, holds):
    entry = abba.summarize(runs_of([(parent, change)] * 3), METRICS)["wide"][name]
    verdict = abba.bound_verdict(entry, BY_NAME[name])
    assert verdict["resolved"] and verdict["holds"] is holds


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_runs_are_apart():
    # peak_rss_mib's bound is 5%; these parents' quartiles lie 10% apart.
    parents = [36.0, 38.0, 40.0, 42.0, 44.0]
    same = abba.summarize(runs_of([(p, p) for p in parents]), METRICS)["wide"]["peak_rss_mib"]
    verdict = abba.bound_verdict(same, BY_NAME["peak_rss_mib"])
    assert verdict["worse_by"] == 0.0 and verdict["parent_spread"] == pytest.approx(0.1)
    assert not verdict["resolved"] and not verdict["holds"]
    apart = abba.summarize(runs_of([(p, 30.0) for p in parents]), METRICS)["wide"]["peak_rss_mib"]
    assert abba.bound_verdict(apart, BY_NAME["peak_rss_mib"])["holds"]


def test_every_verdict_must_hold_and_no_larger_share_of_ops_may_fail():
    pairs = [(1.0, 1.0), (1.0, 1.0)]
    assert verdict_on(pairs)["holds"]
    failing = verdict_on(pairs, failed=(0, 1))
    assert failing["ops"]["wide"]["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert not failing["holds"]
    # An unchanged metric does not carry a claim.
    claimed = verdict_on(pairs, claim=("wide", "latency_s_p50"))
    assert not claimed["claim"]["holds"] and not claimed["holds"]
    worse = verdict_on([(1.0, 1.3), (1.0, 1.3)])
    assert not worse["bounds"]["wide"]["latency_s_p50"]["holds"] and not worse["holds"]
