"""World persistence round trips."""

import json

import pytest

from repro.core import CloudlessEngine
from repro.persist import (
    engine_from_dict,
    engine_to_dict,
    load_world,
    save_world,
)
from repro.workloads import web_tier


def deployed_engine():
    engine = CloudlessEngine(seed=77)
    assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
    return engine


class TestRoundTrip:
    def test_state_survives(self, tmp_path):
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        assert len(restored.state) == len(engine.state)
        assert {str(a) for a in restored.state.addresses()} == {
            str(a) for a in engine.state.addresses()
        }

    def test_cloud_records_survive(self, tmp_path):
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        original = {r.id: r.attrs for r in engine.gateway.all_records()}
        roundtrip = {r.id: r.attrs for r in restored.gateway.all_records()}
        assert roundtrip == original

    def test_clock_and_history_survive(self, tmp_path):
        engine = deployed_engine()
        engine.apply(web_tier(web_vms=3, app_vms=1))
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        assert restored.clock.now == pytest.approx(engine.clock.now)
        assert restored.history.versions() == engine.history.versions()
        snap = restored.history.get(1)
        assert len(snap.state) == len(engine.history.get(1).state)

    def test_replan_after_restore_is_noop(self, tmp_path):
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        plan = restored.plan(web_tier(web_vms=2, app_vms=1))
        assert plan.is_empty

    def test_id_counter_survives(self, tmp_path):
        """New resources after restore must not collide with old ids."""
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        old_ids = {r.id for r in restored.gateway.all_records()}
        result = restored.apply(web_tier(web_vms=3, app_vms=1))
        assert result.ok
        new_ids = {r.id for r in restored.gateway.all_records()} - old_ids
        assert new_ids and not (new_ids & old_ids)

    def test_activity_log_cursor_consistency(self, tmp_path):
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        # the watcher on a restored world sees only NEW external events
        run1 = restored.watch()
        assert run1.findings == []
        vm = next(
            e
            for e in restored.state.resources()
            if e.address.type == "aws_virtual_machine"
        )
        restored.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="x"
        )
        run2 = restored.watch()
        assert len(run2.findings) == 1

    def test_rollback_after_restore(self, tmp_path):
        engine = deployed_engine()
        v1 = engine.history.versions()[-1]
        engine.apply(web_tier(web_vms=4, app_vms=1))
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        result = restored.rollback(v1)
        assert result.ok
        assert (
            restored.gateway.planes["aws"].count("aws_virtual_machine") == 3
        )

    def test_format_version_checked(self):
        with pytest.raises(ValueError):
            engine_from_dict({"format": 999})

    def test_dict_round_trip_stable(self):
        engine = deployed_engine()
        once = engine_to_dict(engine)
        twice = engine_to_dict(engine_from_dict(once))
        assert once == twice

    def test_sharded_world_applies_as_critical_path(self, tmp_path):
        # the removed sharded executor's interleaved mode made
        # critical-path's scheduling decisions; worlds that stored it
        # reload onto critical-path and apply identically
        source = web_tier(web_vms=2, app_vms=1)
        data = engine_to_dict(CloudlessEngine(seed=19))
        data["executor"] = "sharded"
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        restored = load_world(str(path))
        assert restored.executor_name == "critical-path"
        result = restored.apply(source)
        base = CloudlessEngine(seed=19)
        base_result = base.apply(source)
        assert result.ok and base_result.ok
        assert result.apply.makespan_s == base_result.apply.makespan_s
        assert restored.state.to_json() == base.state.to_json()
