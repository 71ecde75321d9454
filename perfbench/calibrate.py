"""Host-speed calibration for every timed interval of the benchmark.

The benchmark is built for small shared hosts (2 vCPUs) whose speed for
one thread drifts by up to ~1.8x over minutes as neighbours come and go.
Raw wall times from runs a few minutes apart then spread by 20-35%
(IQR over median), more than any regression the benchmark should catch.

So every timed interval is bracketed by a reference probe: a fixed
stdlib-only loop that lives here, so no change to the program under test
can move it.  The interval is reported in *reference seconds*: its wall
time scaled by ``REFERENCE_S`` over the probe's mean time around it,
i.e. the time it would take on a host where the probe takes
``REFERENCE_S``.  Over 25-second windows on such a host this cut the
spread of the three workloads' throughputs from 23-33% to 4-10%.  Raw
wall times are kept beside the scaled ones in every record.
"""

from __future__ import annotations

import statistics
import time

#: Probe time on the reference host, seconds (a quiet 2-vCPU x86 VM,
#: Python 3.11).  Fixed forever: changing it rescales every metric.
REFERENCE_S = 0.0085
#: Probe runs per reading; their median is the reading.
REPEATS = 3


def _probe() -> float:
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - start


def probe_s() -> float:
    """One reading of the host's current speed: the probe's median time."""
    return statistics.median(_probe() for _ in range(REPEATS))


def timed(fn, *args):
    """``(fn(*args), raw wall seconds, scale)``.

    ``raw * scale`` is the interval in reference seconds.
    """
    before = probe_s()
    start = time.perf_counter()
    out = fn(*args)
    raw = time.perf_counter() - start
    return out, raw, scale(before, probe_s())


def scale(before_s: float, after_s: float) -> float:
    """Raw-to-reference factor for an interval between two probe readings."""
    return 2 * REFERENCE_S / (before_s + after_s)
