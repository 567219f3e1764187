"""Frozen pre-optimization executor (the scheduling-equivalence oracle),
kept as a test oracle for :mod:`repro.deploy.executor`.

This module preserves, verbatim apart from its imports, the original list-based discrete-event
apply loop that :mod:`repro.deploy.executor` shipped with before the
scale optimization pass:

* ``ready`` is a plain list -- ``pick_next`` scans it (O(n)) and
  ``ready.remove`` compacts it (O(n)), so dispatch is O(n^2) overall;
* failure skips walk ``dag.descendants`` (a full BFS) per failed node;
* the rate-aware critical-path pick recomputes ``plane_for`` +
  ``available_at`` per candidate per dispatch.

It exists so that ``tests/test_executor_equivalence.py``,
``tests/golden/generate_golden.py`` and ``benchmarks/bench_p1_scale.py``
can prove
two things forever: (1) the optimized executors make *identical
scheduling decisions* (same succeeded order, same operation log, same
sim-time makespan), and (2) how much wall-clock the optimization buys.

Do not "fix" or speed this code up -- its slowness is the baseline.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.cloud.base import CloudAPIError
from repro.cloud.clock import EventQueue
from repro.graph.plan import Plan
from repro.deploy.executor import (
    ApplyResult,
    BestEffortExecutor,
    CriticalPathExecutor,
    OperationRecord,
    PlanExecutor,
    SequentialExecutor,
    _Running,
    _STEPS,
    _UnresolvedValueError,
)


class ReferenceApplyMixin:
    """Overrides ``apply`` with the original pre-optimization loop.

    Scheduling order comes from ``self.pick_next(ready)`` exactly as it
    did pre-optimization; the operation submission/commit helpers are
    inherited from the live executor classes (they are not part of the
    hot path under test).
    """

    def apply(self, plan: Plan) -> ApplyResult:
        """Execute the plan; mutates ``plan.state`` as the new state."""
        clock = self.gateway.clock
        started = clock.now
        calls_before = self.gateway.total_api_calls()
        result = ApplyResult(started_at=started, finished_at=started)
        state = plan.state

        dag = plan.execution_dag()
        self.prepare(plan, dag)

        indeg: Dict[str, int] = {n: dag.in_degree(n) for n in dag.nodes}
        ready: List[str] = sorted([n for n, d in indeg.items() if d == 0])
        running: Dict[str, _Running] = {}
        done: Set[str] = set()
        dead: Set[str] = set()  # failed or skipped
        events = EventQueue(clock)

        def finish_change(cid: str, ok: bool, error: str = "") -> None:
            running.pop(cid, None)
            if ok:
                done.add(cid)
                result.succeeded.append(cid)
                for succ in sorted(dag.successors(cid)):
                    indeg[succ] -= 1
                    if indeg[succ] == 0 and succ not in dead:
                        ready.append(succ)
            else:
                dead.add(cid)
                result.failed[cid] = error
                for desc in dag.descendants(cid):
                    if desc not in dead and desc not in done:
                        dead.add(desc)
                        result.skipped.append(desc)

        def start(cid: str) -> None:
            change = plan.changes[cid]
            steps = list(_STEPS[change.action])
            rc = _Running(change=change, steps=steps)
            if not steps:  # READ: value already resolved at plan time
                result.operations.append(
                    OperationRecord(cid, "read", clock.now, clock.now, True)
                )
                done.add(cid)
                result.succeeded.append(cid)
                for succ in sorted(dag.successors(cid)):
                    indeg[succ] -= 1
                    if indeg[succ] == 0 and succ not in dead:
                        ready.append(succ)
                return
            running[cid] = rc
            submit_step(cid, rc)

        def submit_step(cid: str, rc: _Running) -> None:
            rc.attempts += 1
            try:
                pending = self._submit_operation(plan, rc, state)
            except CloudAPIError as exc:
                result.operations.append(
                    OperationRecord(
                        cid, rc.steps[rc.step_idx], clock.now, clock.now,
                        False, exc.code, rc.attempts,
                    )
                )
                finish_change(cid, False, str(exc))
                return
            except _UnresolvedValueError as exc:
                result.operations.append(
                    OperationRecord(
                        cid, rc.steps[rc.step_idx], clock.now, clock.now,
                        False, "UnresolvedValue", rc.attempts,
                    )
                )
                finish_change(cid, False, str(exc))
                return
            rc.pending = pending
            events.schedule(pending.t_complete, ("complete", cid))

        def on_complete(cid: str) -> None:
            rc = running.get(cid)
            if rc is None or rc.pending is None:
                return
            op_name = rc.steps[rc.step_idx]
            try:
                response = rc.pending.resolve()
            except CloudAPIError as exc:
                result.operations.append(
                    OperationRecord(
                        cid, op_name, rc.pending.t_submit, clock.now,
                        False, exc.code, rc.attempts,
                    )
                )
                if exc.transient and rc.attempts < self.retry.max_attempts:
                    delay = self.retry.backoff(rc.attempts)
                    events.schedule(clock.now + delay, ("retry", cid))
                else:
                    finish_change(cid, False, str(exc))
                return
            result.operations.append(
                OperationRecord(
                    cid, op_name, rc.pending.t_submit, clock.now, True,
                    "", rc.attempts,
                )
            )
            self._commit_step(plan, rc, state, op_name, response, clock.now)
            rc.step_idx += 1
            rc.attempts = 0
            if rc.step_idx < len(rc.steps):
                submit_step(cid, rc)
            else:
                finish_change(cid, True)

        # drive the event loop
        while True:
            while ready and len(running) < self.concurrency:
                ready_sorted = ready  # subclasses reorder through pick_next
                cid = self.pick_next(ready_sorted)
                ready.remove(cid)
                if cid in dead:
                    continue
                start(cid)
            if not running:
                if not ready:
                    break
                continue
            popped = events.pop()
            if popped is None:
                break
            _, (kind, cid) = popped
            if kind == "complete":
                on_complete(cid)
            elif kind == "retry":
                rc = running.get(cid)
                if rc is not None:
                    submit_step(cid, rc)

        result.finished_at = clock.now
        result.state = state
        result.api_calls = self.gateway.total_api_calls() - calls_before
        state.bump()
        return result


class ReferenceSequentialExecutor(ReferenceApplyMixin, SequentialExecutor):
    name = "sequential-reference"


class ReferenceBestEffortExecutor(ReferenceApplyMixin, BestEffortExecutor):
    name = "best-effort-reference"


class ReferenceCriticalPathExecutor(ReferenceApplyMixin, CriticalPathExecutor):
    name = "critical-path-reference"


#: optimized executor class -> its frozen pre-optimization twin
REFERENCE_FOR = {
    SequentialExecutor: ReferenceSequentialExecutor,
    BestEffortExecutor: ReferenceBestEffortExecutor,
    CriticalPathExecutor: ReferenceCriticalPathExecutor,
    PlanExecutor: ReferenceBestEffortExecutor,
}
