"""Thread-safe timer/counter registry backing the perf harness.

Every speedup claim in this repository should be checkable, which needs
two things: lightweight instrumentation that the production code paths can
afford to leave on (this module), and a benchmark runner that turns the
numbers into machine-readable artifacts (``benchmarks/run_benchmarks.py``).

A :class:`PerfRegistry` holds named monotonic counters and named timer
statistics (count / total / min / max seconds).  Instrumented subsystems —
the block executors, the compilation pipeline's stage loop — record into
the process-global registry from :func:`get_perf_registry`; tests and the
benchmark harness snapshot or reset it around the region they measure.
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class TimerStats:
    """Accumulated wall-time statistics for one named timer."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-ready summary (used by ``BENCH_*.json`` artifacts)."""
        return {
            "count": self.count,
            "total_s": round(self.total_s, 9),
            "mean_s": round(self.mean_s, 9),
            "min_s": round(self.min_s, 9) if self.count else None,
            "max_s": round(self.max_s, 9),
        }


class PerfRegistry:
    """Named counters and timers, safe under the thread block executor."""

    def __init__(self, name: str = "default"):
        self.name = name
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._timers: dict = {}

    # -- counters ----------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name`` and return the new value."""
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
            return value

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- timers ------------------------------------------------------------
    def record_seconds(self, name: str, seconds: float) -> None:
        """Fold one measured duration into timer ``name``."""
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:
                stats = self._timers[name] = TimerStats()
            stats.record(seconds)

    @contextmanager
    def timer(self, name: str):
        """Context manager timing its body into timer ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record_seconds(name, time.perf_counter() - start)

    def timer_stats(self, name: str) -> TimerStats | None:
        """The accumulated stats for timer ``name`` (``None`` if unused)."""
        with self._lock:
            return self._timers.get(name)

    # -- lifecycle ---------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready copy of every counter and timer."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timers": {k: v.as_dict() for k, v in self._timers.items()},
            }

    def reset(self) -> None:
        """Clear all counters and timers (benchmark/test isolation)."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()


_global_registry = PerfRegistry("global")


def _reinit_lock_in_child() -> None:
    # A forked child (a search worker) has one thread; a lock some other
    # parent thread held at fork time would otherwise never be released.
    _global_registry._lock = threading.Lock()


os.register_at_fork(after_in_child=_reinit_lock_in_child)


def get_perf_registry() -> PerfRegistry:
    """The process-global registry instrumented subsystems record into."""
    return _global_registry
