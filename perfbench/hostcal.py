"""Host-speed probe: a fixed kernel timed between ops, to scale op times.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes (CPU time tracks wall time, so the vCPU is not
descheduled: it runs slower).  A run cannot average such drift away, but it
can measure it.  ``probe`` times one fixed kernel that uses none of the
library: degree-6 polynomial roots through numpy (as ``solve_fk`` does),
small-array numpy arithmetic (as the per-``Pose`` geometry does) and a
heap-and-dict loop (as the planner's grid search does), in about equal
parts.  run.py spends ``PROBE_SHARE`` of a timed run on it, spread over the
run, and scales the median op time by ``REF_PROBE_S`` over the median probe
time; it scales set-up time by probes run just before each set-up
interpreter.  A change to the library moves the op time but not the probe.
"""
import heapq
import time

import numpy as np
from numpy.polynomial import polynomial as npoly

# Share of a timed run spent probing.
PROBE_SHARE = 0.05
# Median probe time on the 2-vCPU Xeon VM the benchmark was written on; op
# times are reported scaled to a host on which the probe takes this long.
REF_PROBE_S = 0.014

_rng = np.random.default_rng(12345)
_POLYS = _rng.normal(size=(64, 7))
_POINTS = _rng.normal(size=(3, 2))


def _roots() -> None:
    for c in _POLYS:
        npoly.polyroots(c)


def _small_arrays() -> float:
    a = _POINTS
    s = 0.0
    for i in range(250):
        b = np.column_stack([a[:, 0] * 0.5 + i, a[:, 1] - 0.25])
        s += float(np.max(np.abs(np.hypot(b[:, 0], b[:, 1]))))
    return s


def _heap_search() -> int:
    heap = [(0.0, 0)]
    seen = {}
    while heap and len(seen) < 3000:
        d, v = heapq.heappop(heap)
        if v in seen:
            continue
        seen[v] = d
        for w in ((v * 7 + 1) % 5003, (v * 13 + 5) % 5003):
            if w not in seen:
                heapq.heappush(heap, (d + (w % 17) * 0.1, w))
    return len(seen)


def probe() -> float:
    """Wall time of one pass over the three kernels, in seconds."""
    t0 = time.perf_counter()
    _roots()
    _small_arrays()
    _heap_search()
    return time.perf_counter() - t0
