#!/usr/bin/env python3
"""Print how far apart two saved reports' numbers are, in units in the last place.

    python tools/ulps.py A B

A and B are saved reports (``eventlens run --save-report``) of one
scenario. For each quantity it prints the largest distance between a
number of A and the number in the same place in B, counted in doubles:
adjacent doubles are 1 apart, and 0.0 and -0.0 are 0 apart. The
quantities are the model weights, the residual sums of squares (rss), the
condition estimates, both correlation matrices, the counterfactual
projections and the test and divergence metrics.

Exits 0 when every distance is 0, 1 when one is not, and 2 when a report
cannot be read or the two do not hold the same numbers in the same places.
Standard library only.
"""

from __future__ import annotations

import json
import struct
import sys

QUANTITIES = ("weights", "rss", "condition", "correlations", "counterfactual", "metrics")
METRICS = ("mse", "rmse", "mae", "mape")


def numbers(report: dict) -> dict[str, list]:
    """Each quantity's numbers in ``report``, in one fixed order of places."""
    found: dict[str, list] = {name: [] for name in QUANTITIES}
    for matrix in ("correlation_before", "correlation_after"):
        for row in report[matrix]["values"]:
            found["correlations"] += row
    for symbol in sorted(report["targets"]):
        target = report["targets"][symbol]
        diagnostics = target["model"]["diagnostics"]
        found["weights"] += target["model"]["weights"]
        found["rss"].append(diagnostics["residual_sum_of_squares"])
        found["condition"].append(diagnostics["condition_estimate"])
        found["counterfactual"] += target["counterfactual"]
        for record in (target["test_metrics"], target["divergence_metrics"]):
            found["metrics"] += [record[name] for name in METRICS]
    return found


def ordered(x: float) -> int:
    """The place of the double ``x`` in the order of all doubles."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def largest_distances(a: dict, b: dict) -> dict[str, int]:
    """Per quantity, the largest ulp distance between ``a`` and ``b``; raises
    ValueError when they do not hold the same places."""
    if sorted(a["targets"]) != sorted(b["targets"]):
        raise ValueError("the reports' targets differ")
    left, right = numbers(a), numbers(b)
    distances = {}
    for name in QUANTITIES:
        xs, ys = left[name], right[name]
        if len(xs) != len(ys):
            raise ValueError(f"{name}: {len(xs)} numbers against {len(ys)}")
        distances[name] = max((abs(ordered(x) - ordered(y)) for x, y in zip(xs, ys)), default=0)
    return distances


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/ulps.py A B", file=sys.stderr)
        return 2
    try:
        reports = []
        for path in argv:
            with open(path, encoding="utf-8") as handle:
                reports.append(json.load(handle))
        distances = largest_distances(*reports)
    except (OSError, ValueError, KeyError, TypeError, struct.error) as exc:
        print(f"ulps: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for name, distance in distances.items():
        print(f"{name:<15}{distance:>20} ulp")
    return 1 if any(distances.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
