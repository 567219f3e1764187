"""Spans recorded from outside the program, around each layer's entry points.

``Tracer.install()`` wraps the public entry points of every layer (and
restores them on ``uninstall()``). Each wrapped call becomes a
:class:`Span` with a name, start, end, parent and correlation id. Span
stacks are kept per thread, because the service runs engine work on
pool threads that do not inherit context variables; a pool thread's
outermost span is parented explicitly to its request (see
``Tracer.adopt``).

Spans are recorded only beneath a root (a CLI command or a service
request), so the benchmark's own untimed bookkeeping between commands
never lands in a layer.

Functions are patched where their callers look them up: ``load_world``
and ``save_world`` are imported by name into ``repro.cli`` and
``repro.service.tenants``, and ``build_graph`` into
``repro.core.engine``.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> layer. Roots (``cmd.*``, ``request``) belong to no layer.
LAYER_OF = {
    "lang.parse": "lang",
    "validate": "validate",
    "graph.build": "graph",
    "graph.plan": "graph",
    "graph.render": "graph",
    "compilecache.load": "compilecache",
    "compilecache.store": "compilecache",
    "compilecache.materialize": "compilecache",
    "deploy.apply": "deploy",
    "deploy.wal": "deploy",
    "cloud.submit": "cloud",
    "cloud.resolve": "cloud",
    "state.checkpoint": "state",
    "state.to_json": "state",
    "state.store_write": "state",
    "persist.load": "persist",
    "persist.save": "persist",
    "drift.cycle": "drift",
    "drift.poll": "drift",
    "drift.reconcile": "drift",
    "core.plan": "core",
    "core.apply": "core",
    "core.watch": "core",
    "service.execute": "service",
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    corr: Any
    thread: int
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may run on other threads and overlap one another; the
    union of their intervals is subtracted, never their sum."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(service future) -> (root span index, corr id)
        self._adoptable: Dict[int, Tuple[int, Any]] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span: Span) -> int:
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def root(self, name: str, corr: Any) -> "_Open":
        """Open a root span on this thread (a command or request)."""
        return _Open(self, name, corr, root=True)

    def reserve_root(self, name: str, start: float, corr: Any, key: int) -> int:
        """A request root whose end is filled in later; pool-thread work
        for the request (looked up by ``key``) is parented to it."""
        index = self._append(Span(name, start, start, None, corr, 0))
        with self._lock:
            self._adoptable[key] = (index, corr)
        return index

    def close_root(self, index: int, end: float) -> None:
        self.spans[index].end = end

    def adopt(self, key: int) -> Optional[Tuple[int, Any]]:
        with self._lock:
            return self._adoptable.get(key)

    def span(
        self,
        name: str,
        parent: Optional[Tuple[int, Any]] = None,
    ) -> "_Open":
        return _Open(self, name, None, root=False, parent=parent)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_method(
        self,
        owner: Any,
        attr: str,
        name: str,
        note: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
    ) -> None:
        raw = owner.__dict__[attr]
        kind = type(raw)
        func = raw.__func__ if kind in (classmethod, staticmethod) else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = func(*args, **kwargs)
                if span is not None and note is not None:
                    note(span, args, kwargs, result)
                return result

        self._patch(
            owner, attr, kind(wrapper) if kind in (classmethod, staticmethod) else wrapper
        )

    def wrap_property(self, owner: Any, attr: str, name: str) -> None:
        prop = owner.__dict__[attr]
        tracer = self

        def getter(obj):
            with tracer.span(name):
                return prop.fget(obj)

        self._patch(owner, attr, property(getter))

    def wrap_function(
        self,
        modules: List[Any],
        attr: str,
        name: str,
        note: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
    ) -> None:
        """Wrap a module-level function in every module that imported it."""
        func = modules[0].__dict__[attr]
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = func(*args, **kwargs)
                if span is not None and note is not None:
                    note(span, args, kwargs, result)
                return result

        for module in modules:
            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer's entry points (see LAYER_OF)."""
        from repro import cli, persist
        from repro.cloud.base import ControlPlane, PendingOperation
        from repro.compilecache.store import CacheLookup, CompileCache
        from repro.core import engine
        from repro.deploy.executor import PlanExecutor
        from repro.deploy.wal import IntentJournal
        from repro.drift.detector import LogWatchDetector
        from repro.drift.reconcile import Reconciler
        from repro.drift.watcher import DriftWatcher
        from repro.graph.plan import Plan, Planner
        from repro.lang.config import Configuration
        from repro.service import core as service_core
        from repro.service import tenants
        from repro.state.document import StateDocument
        from repro.state.snapshots import SnapshotHistory
        from repro.state.store import JournalStateStore
        from repro.validate.pipeline import ValidationPipeline

        def note_parse(span, args, kwargs, result):
            texts = args[1] if len(args) > 1 else kwargs.get("sources", {})
            span.attrs["bytes"] = sum(len(t) for t in dict(texts).values())

        def note_plan(span, args, kwargs, result):
            span.attrs["nodes"] = len(result.changes)
            span.attrs["changed"] = len(result.actionable())

        def note_apply(span, args, kwargs, result):
            span.attrs["ops"] = len(result.operations)
            span.attrs["retries"] = sum(
                1 for op in result.operations if op.attempt > 1
            )
            span.attrs["makespan"] = result.makespan_s

        def note_load(span, args, kwargs, result):
            span.attrs["hit"] = result is not None and result.exact

        def note_save(span, args, kwargs, result):
            span.attrs["bytes"] = os.path.getsize(args[1])

        def note_cycle(span, args, kwargs, result):
            calls = result.run.api_calls
            if result.report is not None:
                calls += result.report.api_calls
            span.attrs["api_calls"] = calls
            span.attrs["findings"] = len(result.findings)

        def note_poll(span, args, kwargs, result):
            span.attrs["api_calls"] = result.api_calls
            span.attrs["findings"] = len(result.findings)

        self.wrap_method(
            Configuration, "parse_streaming", "lang.parse", note_parse
        )
        self.wrap_method(ValidationPipeline, "validate", "validate")
        self.wrap_function([engine], "build_graph", "graph.build")
        self.wrap_method(Planner, "plan", "graph.plan", note_plan)
        self.wrap_method(Plan, "render", "graph.render")
        self.wrap_method(CompileCache, "load", "compilecache.load", note_load)
        self.wrap_method(CompileCache, "store", "compilecache.store")
        for attr in ("config", "graph", "plan"):
            self.wrap_property(CacheLookup, attr, "compilecache.materialize")
        self.wrap_method(PlanExecutor, "apply", "deploy.apply", note_apply)
        self.wrap_method(IntentJournal, "log_intent", "deploy.wal")
        self.wrap_method(IntentJournal, "log_commit", "deploy.wal")
        # every API call funnels through the plane: CloudGateway.submit,
        # the resilience wrapper and synchronous execute() alike
        self.wrap_method(ControlPlane, "submit", "cloud.submit")
        self.wrap_method(PendingOperation, "resolve", "cloud.resolve")
        self.wrap_method(SnapshotHistory, "checkpoint", "state.checkpoint")
        self.wrap_method(StateDocument, "to_json", "state.to_json")
        self.wrap_method(JournalStateStore, "write", "state.store_write")
        self.wrap_function([persist, cli, tenants], "load_world", "persist.load")
        self.wrap_function(
            [persist, cli, tenants], "save_world", "persist.save", note_save
        )
        self.wrap_method(DriftWatcher, "cycle", "drift.cycle", note_cycle)
        self.wrap_method(LogWatchDetector, "poll", "drift.poll", note_poll)
        self.wrap_method(Reconciler, "reconcile", "drift.reconcile")
        self.wrap_method(Reconciler, "reconcile_one", "drift.reconcile")
        engine_cls = engine.CloudlessEngine
        self.wrap_method(engine_cls, "plan", "core.plan")
        self.wrap_method(engine_cls, "apply", "core.apply")
        self.wrap_method(engine_cls, "watch_continuously", "core.watch")
        self.wrap_method(engine_cls, "watch", "core.watch")
        self._wrap_service_execute(service_core.ControlPlaneService)

    def _wrap_service_execute(self, service_cls: Any) -> None:
        """The pool-thread entry point of one service request: parent
        its span to the request root reserved by the traffic generator."""
        func = service_cls.__dict__["_execute"]
        tracer = self

        @functools.wraps(func)
        def wrapper(service, request):
            parent = tracer.adopt(id(request.future))
            with tracer.span("service.execute", parent=parent):
                return func(service, request)

        self._patch(service_cls, "_execute", wrapper)


class _Open:
    """Context manager for one span; yields the Span or None when the
    thread has no root to hang it under."""

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        corr: Any,
        root: bool,
        parent: Optional[Tuple[int, Any]] = None,
    ):
        self.tracer = tracer
        self.name = name
        self.corr = corr
        self.is_root = root
        self.parent = parent
        self.span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        tracer = self.tracer
        stack = tracer._stack()
        if self.is_root:
            parent, corr = None, self.corr
        elif stack:
            parent = stack[-1]
            corr = tracer.spans[parent].corr
        elif self.parent is not None:
            parent, corr = self.parent
        else:
            return None
        self.span = Span(
            self.name, tracer.clock(), 0.0, parent, corr, threading.get_ident()
        )
        stack.append(tracer._append(self.span))
        return self.span

    def __exit__(self, *exc) -> bool:
        if self.span is not None:
            self.span.end = self.tracer.clock()
            self.tracer._stack().pop()
        return False
