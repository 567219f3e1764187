"""Self-tests for the benchmark's own machinery.

Run from the repository root with either of::

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs as gen  # noqa: E402
from measure import REFERENCE_NOMINAL_S, SpeedAdjust, beyond, percentile, tail  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        spans = [
            Span("cmd.apply", 0.0, 10.0, None, 1, 1),
            Span("core.apply", 1.0, 9.0, 0, 1, 1),
            Span("deploy.apply", 2.0, 6.0, 1, 1, 1),
            Span("cloud.submit", 3.0, 4.0, 2, 1, 1),
            Span("persist.save", 7.0, 8.5, 1, 1, 1),
        ]
        self.assertEqual(self_times(spans), [2.0, 2.5, 3.0, 1.0, 1.5])

    def test_concurrent_children_count_once(self):
        # a request whose work ran on two pool threads at overlapping
        # times: the overlap is subtracted once, not twice
        spans = [
            Span("request", 0.0, 10.0, None, 7, 0),
            Span("service.execute", 2.0, 6.0, 0, 7, 101),
            Span("service.execute", 4.0, 8.0, 0, 7, 102),
        ]
        self.assertAlmostEqual(self_times(spans)[0], 4.0)

    def test_children_outside_the_parent_are_clipped(self):
        self.assertAlmostEqual(covered([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0), 2.0)
        self.assertEqual(covered([], 0.0, 1.0), 0.0)

    def test_stacks_are_per_thread(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(corr):
            with tracer.root("cmd.plan", corr):
                barrier.wait(timeout=5)
                with tracer.span("graph.plan"):
                    barrier.wait(timeout=5)

        threads = [threading.Thread(target=work, args=(c,)) for c in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
        children = [s for s in tracer.spans if s.name == "graph.plan"]
        self.assertEqual(len(children), 2)
        for child in children:
            parent = tracer.spans[child.parent]
            self.assertEqual(parent.name, "cmd.plan")
            self.assertEqual(parent.thread, child.thread)
            self.assertEqual(parent.corr, child.corr)

    def test_pool_thread_work_is_adopted_by_its_request(self):
        tracer = Tracer()
        root = tracer.reserve_root("request", time.perf_counter(), 3, key=42)
        with ThreadPoolExecutor(max_workers=1) as pool:
            def execute():
                with tracer.span("service.execute", parent=tracer.adopt(42)):
                    with tracer.span("persist.save"):
                        pass
            pool.submit(execute).result(timeout=10)
        tracer.close_root(root, time.perf_counter())
        names = {s.name: s for s in tracer.spans}
        self.assertEqual(names["service.execute"].parent, root)
        self.assertEqual(names["service.execute"].corr, 3)
        self.assertEqual(names["persist.save"].corr, 3)

    def test_spans_without_a_root_are_dropped(self):
        tracer = Tracer()
        with tracer.span("persist.load") as span:
            self.assertIsNone(span)
        self.assertEqual(tracer.spans, [])

    def test_install_restores_every_entry_point(self):
        from repro import cli
        from repro.state.document import StateDocument

        before = (cli.load_world, StateDocument.__dict__["to_json"])
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(cli.load_world, before[0])
        tracer.uninstall()
        self.assertIs(cli.load_world, before[0])
        self.assertIs(StateDocument.__dict__["to_json"], before[1])


class TailRuleTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(tail(list(range(19))))  # p50 has 9 beyond
        q, value, n = tail([float(i) for i in range(20)])
        self.assertEqual((q, n), (50.0, 20))
        self.assertEqual(value, 9.0)

    def test_picks_the_highest_qualifying_percentile(self):
        values = [float(i) for i in range(1, 1001)]
        q, value, n = tail(values)
        self.assertEqual(q, 99.0)  # p99.9 has only one sample beyond
        self.assertEqual(value, 990.0)
        self.assertEqual(beyond(1000, 99.0), 10)
        self.assertEqual(tail(values[:199])[0], 90.0)
        self.assertEqual(tail(values[:200])[0], 95.0)

    def test_nearest_rank(self):
        self.assertEqual(percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(percentile([5.0], 99.9), 5.0)


class _Response:
    ok = True
    status = 200
    reason = None


class _FakeService:
    """Answers each request SERVICE_S after it is submitted; the first
    submit blocks the caller for STALL_S, as a GIL-bound stall would."""

    SERVICE_S = 0.02
    STALL_S = 0.15

    def __init__(self):
        self.calls = 0

    async def submit(self, tenant, op, payload=None):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.STALL_S)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        loop.call_later(self.SERVICE_S, future.set_result, _Response())
        return future


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        from workloads import Traffic, _latencies

        schedule = [
            gen.Arrival(0.00, "t00", "stats"),
            gen.Arrival(0.05, "t00", "stats"),
            gen.Arrival(0.30, "t00", "stats"),
        ]
        traffic = Traffic(_FakeService(), {"t00": [{}, {}, {}]})
        records = asyncio.run(traffic.open_loop(schedule))
        lateness = [r.sent - r.due for r in records]
        latency = _latencies(records)
        # the stall in the first send makes the second one ~0.1s late;
        # its latency includes that wait, not just the service time
        self.assertGreater(lateness[1], 0.08)
        self.assertGreater(latency[1], lateness[1] + 0.015)
        self.assertLess(lateness[2], 0.03)
        self.assertLess(latency[2], 0.1)
        self.assertEqual([r.order for r in records], [0, 1, 2])

    def test_applies_rotate_and_plans_preview(self):
        from workloads import Traffic

        ops = ["apply", "plan", "apply", "apply", "stats"]
        schedule = [gen.Arrival(0.001 * i, "t00", op) for i, op in enumerate(ops)]
        service = _FakeService()
        service.STALL_S = 0.0
        traffic = Traffic(service, {"t00": [{"v": 0}, {"v": 1}, {"v": 2}]})
        records = asyncio.run(traffic.closed_loop(schedule))
        self.assertEqual([r.variant for r in records][:4], [1, 2, 2, 0])

    def test_refused_requests_never_meet_a_limit(self):
        from workloads import Sent, _latencies

        refused = Sent(gen.Arrival(0.0, "t00", "apply"), 1.0, 1.0, 1, 1.2)
        refused.response = type("R", (), {"ok": False})()
        self.assertEqual(_latencies([refused]), [float("inf")])


class SpeedAdjustTest(unittest.TestCase):
    def test_time_is_scaled_by_the_reference_around_it(self):
        """A machine running at half speed around a measurement (the
        reference takes twice its nominal time) halves the time."""
        refs = iter([REFERENCE_NOMINAL_S * 1.5, REFERENCE_NOMINAL_S * 2.5])
        speed = SpeedAdjust(reference=lambda: next(refs))
        with speed.around() as samples:
            pass
        self.assertEqual(len(samples), 2)
        self.assertAlmostEqual(3.0 * speed.factor(samples), 1.5)
        self.assertEqual(speed.factors, [0.5])


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a, _ = gen.edit_inputs(5)
        b, _ = gen.edit_inputs(5 + gen.VARIANTS)
        self.assertEqual(gen.edit_script_digest(a), gen.edit_script_digest(b))
        self.assertNotEqual(
            gen.edit_script_digest(a), gen.edit_script_digest(gen.edit_inputs(6)[0])
        )

    def test_edit_expectations_follow_from_the_estates(self):
        """Each edit's expected plan line, derived independently from
        the address sets of consecutive estates."""
        for seed in range(gen.VARIANTS):
            script, _ = gen.edit_inputs(seed)
            kinds = [s.kind for s in script.steps if isinstance(s, gen.Edit)]
            self.assertEqual(set(kinds), {gen.EDIT_TAG, gen.EDIT_ADD, gen.EDIT_REMOVE})
            self.assertEqual(len(kinds), gen.EDITS_PER_ROUND)
            drift = [s for s in script.steps if isinstance(s, gen.DriftBatch)]
            self.assertEqual(len(drift), gen.EDITS_PER_ROUND // gen.DRIFT_EVERY)
            final = set(script.final.addresses())
            for batch in drift:
                self.assertNotEqual(batch.resize_vm, batch.delete_dns)
            n_add = kinds.count(gen.EDIT_ADD) - kinds.count(gen.EDIT_REMOVE)
            self.assertEqual(
                len(final),
                len(script.initial.addresses()) + gen.RESOURCES_PER_SERVICE * n_add,
            )

    def test_probe_cycles_give_every_tenant_each_op_once(self):
        tenant_inputs, _ = gen.tenant_inputs(3)
        probe = gen.probe_sequence(3, tenant_inputs)
        for k in (0, 1):
            cycle = probe[k * gen.PROBE_CYCLE : (k + 1) * gen.PROBE_CYCLE]
            self.assertEqual(
                sorted((a.tenant, a.op) for a in cycle),
                sorted((t, op) for t in tenant_inputs.tenants for op in gen.PROBE_OPS),
            )

    def test_schedule_is_poisson_at_the_rate(self):
        tenant_inputs, _ = gen.tenant_inputs(3)
        schedule = gen.arrival_schedule(3, "light", 50.0, 20.0, tenant_inputs)
        self.assertTrue(900 < len(schedule) < 1100)
        self.assertEqual(schedule, sorted(schedule, key=lambda a: a.t))


if __name__ == "__main__":
    unittest.main()
