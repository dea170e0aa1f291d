"""How fast this host runs Python right now, from a fixed reference workload.

On a shared host the speed of allocation-heavy Python drifts by tens of
percent over seconds to minutes, because other tenants load the caches and
memory.  A run's median cannot average that away.  The reference workload
does the kind of work domcalc does (exact fractions, small objects, dicts,
JSON) and never changes, so timing it twice just before a measurement, in
the same process, gives the host's current speed.  Dividing the measured
time by

    factor = reference time / NOMINAL_S

gives the time on a host where the reference takes ``NOMINAL_S``.  A change
to domcalc cannot move the reference, so it still moves the scaled time in
full.  The reference is not timed after a pass: the heap a pass leaves
behind slows it, and a run-wide factor tracked the host worse.  On a
2-vCPU 2.0 GHz VM, scaling each ``aircraft_long`` pass cut the spread of
run medians over eleven seeds from 0.20 to 0.06 (interquartile range over
median).
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.2  # the reference's median on the host where the benchmark was defined


def reference_seconds() -> float:
    """Time one run of the reference workload."""
    start = time.perf_counter()
    held = {}
    for i in range(20_000):
        value = Fraction(i, 7) * Fraction(3, 11) + 1
        held[i % 97] = json.dumps({"value": str(value), "step": i})
    return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """Host slowness relative to nominal, from reference timings taken just
    before one measurement."""
    return statistics.median(samples) / NOMINAL_S
