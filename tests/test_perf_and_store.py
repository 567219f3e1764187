"""Unit tests for the perf registry and the indexed RecordStore."""

import ipaddress
import sys
import threading

import pytest

from repro.cloud.base import RecordStore, ResourceRecord, parse_network
from repro.perf import PerfRegistry


def record(rid, rtype="aws_vm", region="us-east-1", name=None, **attrs):
    if name is not None:
        attrs["name"] = name
    return ResourceRecord(
        id=rid,
        type=rtype,
        region=region,
        attrs=attrs,
        created_at=0.0,
        updated_at=0.0,
    )


class TestPerfRegistry:
    def test_disabled_probes_are_noops(self):
        perf = PerfRegistry()
        perf.count("x")
        perf.observe("y", 1.0)
        with perf.timed("z"):
            pass
        perf.gauge("g", 3.0)
        snap = perf.snapshot()
        assert snap == {"counters": {}, "timers": {}, "gauges": {}}

    def test_counters_and_timers(self):
        perf = PerfRegistry(enabled=True)
        perf.count("dispatch")
        perf.count("dispatch", 2)
        perf.observe("pick", 0.5)
        perf.observe("pick", 2.0)
        perf.observe("pick", 1.0)
        snap = perf.snapshot()
        assert snap["counters"]["dispatch"] == 3
        timer = snap["timers"]["pick"]
        assert timer["total_s"] == pytest.approx(3.5)
        assert timer["count"] == 3
        assert timer["max_s"] == pytest.approx(2.0)

    def test_timed_context_manager(self):
        perf = PerfRegistry(enabled=True)
        with perf.timed("work"):
            pass
        snap = perf.snapshot()
        assert snap["timers"]["work"]["count"] == 1
        assert snap["timers"]["work"]["total_s"] >= 0.0

    def test_reset(self):
        perf = PerfRegistry(enabled=True)
        perf.count("a")
        perf.observe("b", 1.0)
        perf.gauge("g", 2.0)
        perf.reset()
        assert perf.snapshot() == {"counters": {}, "timers": {}, "gauges": {}}
        assert perf.enabled  # reset clears data, not the switch


    def test_threaded_updates_are_not_lost(self):
        # the service's apply threads share one registry; a tiny switch
        # interval makes an unlocked read-modify-write lose updates
        perf = PerfRegistry(enabled=True)
        threads, calls = 8, 50_000

        def work():
            for _ in range(calls):
                perf.count("hits")
                perf.observe("spent", 1.0)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(worker.is_alive() for worker in workers)
        snap = perf.snapshot()
        assert snap["counters"]["hits"] == threads * calls
        assert snap["timers"]["spent"]["count"] == threads * calls
        assert snap["timers"]["spent"]["total_s"] == threads * calls


class TestParseNetwork:
    def test_parses_and_caches(self):
        first = parse_network("10.0.0.0/16")
        again = parse_network("10.0.0.0/16")
        assert first is again  # memoized
        assert first == ipaddress.ip_network("10.0.0.0/16")

    def test_strict_and_non_strict_are_separate_entries(self):
        loose = parse_network("10.0.0.1/16", strict=False)
        assert loose == ipaddress.ip_network("10.0.0.1/16", strict=False)
        with pytest.raises(ValueError):
            parse_network("10.0.0.1/16")

    def test_failures_not_cached(self):
        with pytest.raises(ValueError):
            parse_network("not-a-network")
        with pytest.raises(ValueError):
            parse_network("not-a-network")


class TestRecordStore:
    def test_type_and_region_indexes_follow_mutations(self):
        store = RecordStore()
        store["vm-1"] = record("vm-1", name="web")
        store["vm-2"] = record("vm-2", name="app")
        store["sub-1"] = record("sub-1", rtype="aws_subnet", name="net")
        assert store.ids_of_type("aws_vm") == {"vm-1", "vm-2"}
        assert store.count_in_region("aws_vm", "us-east-1") == 2
        assert store.has_name("aws_vm", "us-east-1", "web")
        assert not store.has_name("aws_vm", "eu-west-1", "web")

        del store["vm-1"]
        assert store.ids_of_type("aws_vm") == {"vm-2"}
        assert not store.has_name("aws_vm", "us-east-1", "web")

    def test_overwrite_reindexes(self):
        store = RecordStore()
        store["x"] = record("x", name="old")
        store["x"] = record("x", rtype="aws_disk", name="new")
        assert store.ids_of_type("aws_vm") == frozenset()
        assert store.ids_of_type("aws_disk") == {"x"}
        assert not store.has_name("aws_vm", "us-east-1", "old")
        assert store.has_name("aws_disk", "us-east-1", "new")

    def test_duplicate_names_tracked_by_count(self):
        store = RecordStore()
        store["a"] = record("a", name="dup")
        store["b"] = record("b", name="dup")
        del store["a"]
        assert store.has_name("aws_vm", "us-east-1", "dup")
        del store["b"]
        assert not store.has_name("aws_vm", "us-east-1", "dup")

    def test_note_renamed(self):
        store = RecordStore()
        rec = record("vm-1", name="before")
        store["vm-1"] = rec
        old = rec.attrs.get("name")
        rec.attrs["name"] = "after"
        store.note_renamed(rec, old)
        assert store.has_name("aws_vm", "us-east-1", "after")
        assert not store.has_name("aws_vm", "us-east-1", "before")

    def test_pop_and_clear(self):
        store = RecordStore()
        store["a"] = record("a")
        store["b"] = record("b")
        store.pop("a")
        assert store.pop("ghost", None) is None
        assert store.ids_of_type("aws_vm") == {"b"}
        store.clear()
        assert len(store) == 0
        assert store.ids_of_type("aws_vm") == frozenset()

    def test_update_and_setdefault_reindex(self):
        store = RecordStore()
        store.update({"a": record("a", name="one")})
        store.setdefault("b", record("b", name="two"))
        store.setdefault("b", record("b", name="three"))  # no-op: key exists
        assert store.has_name("aws_vm", "us-east-1", "one")
        assert store.has_name("aws_vm", "us-east-1", "two")
        assert not store.has_name("aws_vm", "us-east-1", "three")

    def test_is_a_real_dict(self):
        store = RecordStore()
        store["a"] = record("a")
        assert isinstance(store, dict)
        assert dict(store) == {"a": store["a"]}
