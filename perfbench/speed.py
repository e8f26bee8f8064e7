"""Machine-speed calibration for the end-to-end timings.

The benchmark shares a small, noisy host: a core's speed moves by 20 to 60
percent over seconds as other tenants come and go, which no amount of
repetition inside a 20-second run averages away. So each worker times a
fixed kernel between ops, and the harness reports an op's time scaled by
``REFERENCE_S`` over the median kernel time around it: seconds on a
machine where the kernel takes ``REFERENCE_S``. The kernel never changes
and never calls eventlens, so a change to eventlens moves the scaled times
as much as it moves the raw ones. The raw figures are printed beside them.

The kernel is shaped like eventlens's own work: split and parse CSV-like
rows into per-row objects, re-serialize and hash them, and solve a small
least-squares problem. The garbage collector is off while it runs, so its
time depends on the machine and not on the heap the op left behind.
"""

from __future__ import annotations

import datetime as dt
import gc
import hashlib
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010

_ROWS = "\n".join(
    f"{dt.date(2000, 1, 1) + dt.timedelta(days=i)},{100 + i % 97 * 0.37!r},{101 + i % 89 * 0.41!r},"
    f"{99 + i % 83 * 0.29!r},{100 + i % 79 * 0.33!r}"
    for i in range(2000)
)


def calibrate() -> float:
    """Seconds the fixed kernel takes now."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        rows = []
        for line in _ROWS.split("\n"):
            date, *quotes = line.split(",")
            rows.append((dt.date.fromisoformat(date), *map(float, quotes)))
        text = "\n".join(f"{d.isoformat()},{o!r},{h!r},{l!r},{c!r}" for d, o, h, l, c in rows)
        hashlib.sha256(text.encode("ascii")).hexdigest()
        quotes = np.array([row[1:] for row in rows])
        np.linalg.lstsq(quotes[:, :3], quotes[:, 3], rcond=None)
        return perf_counter() - start
    finally:
        gc.enable()
