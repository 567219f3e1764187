"""Lightweight wall-clock instrumentation for the hot paths.

The deploy/DAG layers report counters and timings here so benchmarks
(``benchmarks/bench_p1_scale.py``) can attribute wall-clock cost to
individual mechanisms (dispatch selection, topological sorts, skip
propagation) without a profiler run.

Instrumentation is off by default and costs one attribute check per
probe site when disabled. Enable explicitly with :func:`enable` or by
setting the ``REPRO_PERF`` environment variable.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator


#: canonical probe names subsystems register here, so benchmarks and
#: campaign reports can assert on stable spellings instead of grepping
#: call sites. The service tier's ``service.*`` family is the contract
#: the tenant-storm chaos scenario checks in its ``CampaignReport``.
KNOWN_PROBES: Dict[str, str] = {
    # -- persistence (PR 3/4) ---------------------------------------------
    "persist.journal_appends": "count: delta appends to a journal store",
    "persist.compactions": "count: journal foldings into a keyframe",
    "persist.torn_tail_recoveries": "count: torn journal tails truncated",
    "persist.keyframe_fallbacks": "count: keyframe reads served by .bak",
    # -- incremental re-planning ------------------------------------------
    "incremental.dirty_nodes_replanned": (
        "count: instances in the impact scope an IncrementalSession "
        "patch re-plans"
    ),
    # -- multi-tenant service tier (PR 10) --------------------------------
    "service.admitted": "count: requests accepted past the admission tier",
    "service.shed": "count: requests rejected with a typed shed",
    "service.queued_ms": (
        "timer: milliseconds a dispatched request waited in the "
        "admission queue (observe() takes ms here, not seconds)"
    ),
    "service.active_tenants": "gauge: tenants with an open session",
    "service.fairness_ratio": (
        "gauge: max/min per-tenant goodput among tenants that "
        "completed at least one request"
    ),
}


class PerfRegistry:
    """Counters, accumulated timers, gauges, and per-event maxima.

    Four probe kinds:

    * ``count(name)`` -- how many times something happened.
    * ``observe(name, seconds)`` -- accumulate a duration; tracks the
      sum, the event count, and the maximum single observation (the
      "peak dispatch cost" the scale benchmark reports).
    * ``timed(name)`` -- context manager sugar over ``observe``.
    * ``gauge(name, value)`` -- a last-value-wins level (queue depth,
      active tenants, a fairness ratio).
    """

    __slots__ = (
        "enabled",
        "counters",
        "timer_total",
        "timer_count",
        "timer_max",
        "gauges",
    )

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        self.timer_total: Dict[str, float] = {}
        self.timer_count: Dict[str, int] = {}
        self.timer_max: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    # -- switches ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.counters.clear()
        self.timer_total.clear()
        self.timer_count.clear()
        self.timer_max.clear()
        self.gauges.clear()

    # -- probes ------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, seconds: float) -> None:
        if not self.enabled:
            return
        self.timer_total[name] = self.timer_total.get(name, 0.0) + seconds
        self.timer_count[name] = self.timer_count.get(name, 0) + 1
        if seconds > self.timer_max.get(name, 0.0):
            self.timer_max[name] = seconds

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly dump of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "timers": {
                name: {
                    "total_s": self.timer_total[name],
                    "count": self.timer_count.get(name, 0),
                    "max_s": self.timer_max.get(name, 0.0),
                }
                for name in self.timer_total
            },
            "gauges": dict(self.gauges),
        }


#: process-wide default registry; hot-path probe sites use this.
PERF = PerfRegistry(enabled=bool(os.environ.get("REPRO_PERF")))


def enable() -> None:
    PERF.enable()


def disable() -> None:
    PERF.disable()


def reset() -> None:
    PERF.reset()


def snapshot() -> Dict[str, Any]:
    return PERF.snapshot()
