"""How fast the host runs right now, from a fixed probe.

A shared host drifts: from one stretch of seconds to the next, the same
work takes up to 60% longer or shorter, depending on what other tenants
run, and a whole run can fall in a slow stretch.  No statistic taken
over the program's own times removes that.  So a pass of a workload
interleaves short probes with its requests, about ``PROBES_PER_S`` per
second of requests, and scales each time by the host's slowdown around
it: the median time of the ``NEAREST`` probes over ``REFERENCE_PROBE_S``.
A scaled time reads as the time on a host that runs the probe in
``REFERENCE_PROBE_S``.

Probes must run between requests, not in bursts before or after a pass:
a probe right after idle time runs in a different speed regime than
sustained work does.  The window is short because the host's speed
changes within a second: over ten recorded runs per workload, the
nearest 3 probes tracked every workload better than the nearest 9 or
15 (README.md gives the spreads).

The probe is fixed benchmark code and calls nothing under ``src/``.
Between requests the program is idle, so a change to it can slow the
probe only by leaving work running.  ``http_concurrent`` runs no
probes: its server is busy the whole pass, so a probe there would time
its contention with the program.  The probe does the two kinds of work the
program does, in about equal shares: small complex linear algebra, as a
GRAPE iteration does (Hermitian ``eigh`` of 4x4 matrices, exponentiated
spectra, chained products), and interpreted bookkeeping (building and
summing a dict of small lists, as the service, pipeline and scheduler
do).  The collector is paused while it runs, so the program's leftover
heap cannot slow it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

#: About the median probe time on the 2-CPU host the baseline was
#: recorded on.  Only the scale of the reported times depends on it.
REFERENCE_PROBE_S = 0.005
#: Probes per second of requests; at 3-5 ms each, under 5% of a pass.
PROBES_PER_S = 10.0
#: Probes, nearest in time, that a time is scaled by: about 0.15 s of
#: the run on either side.
NEAREST = 3

_RNG = np.random.default_rng(20191012)
_A = _RNG.standard_normal((8, 4, 4)) + 1j * _RNG.standard_normal((8, 4, 4))
_H = _A + np.conj(np.transpose(_A, (0, 2, 1)))


def probe() -> tuple:
    """``(when, seconds)``: the ``perf_counter`` time one fixed piece of
    work started at, and how long it took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = np.eye(4, dtype=complex)
        for _ in range(30):
            w, v = np.linalg.eigh(_H)
            unitaries = (v * np.exp(-0.1j * w)[:, None, :]) @ np.conj(np.transpose(v, (0, 2, 1)))
            for unitary in unitaries:
                acc = unitary @ acc
        table = {}
        for i in range(4000):
            table[(i, i % 7)] = [i * 0.5, str(i)]
        sum(entry[0] for entry in table.values())
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(probes: list) -> float:
    """How much slower than the reference host this host ran ``probes``;
    1 for a pass without probes, whose times are taken as measured."""
    if not probes:
        return 1.0
    return statistics.median(seconds for _, seconds in probes) / REFERENCE_PROBE_S


def slowdown_at(probes: list, when: float) -> float:
    """The slowdown of the ``NEAREST`` of ``probes`` (in time order) to
    ``when``."""
    times = [start for start, _ in probes]
    at = bisect.bisect_left(times, when)
    lo = max(0, min(at - NEAREST // 2, len(probes) - NEAREST))
    return slowdown(probes[lo:lo + NEAREST])
