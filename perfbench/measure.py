"""Statistics and per-layer aggregation for the benchmark."""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import LAYER_OF, Span, self_times

#: candidate tail percentiles, lowest first
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, samples)`` for the highest candidate
    percentile with at least MIN_BEYOND samples beyond it, or None."""
    best = None
    for q in TAIL_PERCENTILES:
        if beyond(len(values), q) >= MIN_BEYOND:
            best = (q, percentile(values, q), len(values))
    return best


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: what the reference loop takes at nominal speed (on the 2-cpu machine
#: the benchmark was defined on); it only fixes the unit of adjusted times
REFERENCE_NOMINAL_S = 0.002


def reference_s(repeats: int = 3) -> float:
    """The machine's speed now: the median time of a fixed integer loop.
    Ints are not tracked by the cyclic collector, so the loop never
    triggers a collection of the program's heap; only the machine can
    slow it."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        x = 1
        for _ in range(10000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class SpeedAdjust:
    """Adjusts measured times for the machine's speed around them.

    On a shared machine, the same work runs up to twice as slow for
    seconds at a time. The reference loop is timed just before and just
    after a measurement, and the measured time is scaled by
    ``REFERENCE_NOMINAL_S`` over their mean: seconds at nominal speed.
    A change to the program does not change the reference, so it moves
    adjusted times as much as raw ones."""

    def __init__(self, reference: Callable[[], float] = reference_s):
        self.reference = reference
        self.factors: List[float] = []

    @contextlib.contextmanager
    def around(self):
        """Yields a list that holds both reference times once the block ends."""
        samples = [self.reference()]
        try:
            yield samples
        finally:
            samples.append(self.reference())

    def factor(self, samples: Sequence[float]) -> float:
        """The scale for a measurement the samples were taken around."""
        factor = REFERENCE_NOMINAL_S / statistics.fmean(samples)
        self.factors.append(factor)
        return factor


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer figures from one traced run's spans.

    Times are self times: a span's duration minus what its children
    cover, so a layer is charged only for its own work."""
    own = self_times(spans)
    by_name: Dict[str, float] = {}
    count: Dict[str, int] = {}
    attr_sum: Dict[Tuple[str, str], float] = {}
    bytes_max = 0
    duration: Dict[str, float] = {}
    for span, s in zip(spans, own):
        by_name[span.name] = by_name.get(span.name, 0.0) + s
        duration[span.name] = duration.get(span.name, 0.0) + span.duration
        count[span.name] = count.get(span.name, 0) + 1
        for key, value in span.attrs.items():
            if key == "bytes" and span.name == "persist.save":
                bytes_max = max(bytes_max, value)
                continue
            attr_sum[(span.name, key)] = attr_sum.get((span.name, key), 0) + value

    def t(*names: str) -> float:
        return sum(by_name.get(n, 0.0) for n in names)

    def a(name: str, key: str) -> float:
        return attr_sum.get((name, key), 0)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    loads = count.get("compilecache.load", 0)
    out = {
        "lang.parse_s": t("lang.parse"),
        "lang.bytes_per_s": frac(a("lang.parse", "bytes"), duration.get("lang.parse", 0)),
        "validate.s": t("validate"),
        "validate.calls": count.get("validate", 0),
        "graph.build_s": t("graph.build"),
        "graph.plan_s": t("graph.plan"),
        "graph.render_s": t("graph.render"),
        "graph.changed_frac": frac(a("graph.plan", "changed"), a("graph.plan", "nodes")),
        "compilecache.load_s": t("compilecache.load"),
        "compilecache.store_s": t("compilecache.store"),
        "compilecache.materialize_s": t("compilecache.materialize"),
        "compilecache.hit_frac": frac(a("compilecache.load", "hit"), loads),
        # getting a compiled configuration and graph, whichever way:
        # parse and build, or cache load and materialize (plus store)
        "compile.s": t(
            "lang.parse",
            "graph.build",
            "compilecache.load",
            "compilecache.store",
            "compilecache.materialize",
        ),
        "deploy.dispatch_self_s": t("deploy.apply"),
        "deploy.ops": a("deploy.apply", "ops"),
        "deploy.retries": a("deploy.apply", "retries"),
        "deploy.wal_s": t("deploy.wal"),
        "deploy.sim_makespan_s": a("deploy.apply", "makespan"),
        "cloud.api_calls": count.get("cloud.submit", 0),
        "cloud.api_s": t("cloud.submit", "cloud.resolve"),
        "state.checkpoint_s": t("state.checkpoint"),
        "state.to_json_s": t("state.to_json"),
        "state.store_write_s": t("state.store_write"),
        "persist.load_s": t("persist.load"),
        "persist.save_s": t("persist.save"),
        "persist.s": t("persist.load", "persist.save"),
        "persist.world_mb": bytes_max / 1e6,
        "drift.cycle_s": t("drift.cycle", "drift.poll"),
        "drift.api_calls": a("drift.cycle", "api_calls") + a("drift.poll", "api_calls"),
        "drift.findings": a("drift.cycle", "findings") + a("drift.poll", "findings"),
        "drift.reconcile_s": t("drift.reconcile"),
        "core.engine_self_s": t("core.plan", "core.apply", "core.watch"),
        "service.execute_self_s": t("service.execute"),
    }
    layered = sum(s for span, s in zip(spans, own) if span.name in LAYER_OF)
    roots = sum(span.duration for span in spans if span.parent is None)
    out["trace.layer_s"] = layered
    out["trace.root_s"] = roots
    return out
