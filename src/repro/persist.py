"""World persistence for the CLI.

A *world file* captures everything that makes a simulated session:
the control planes' resource stores, activity logs, clock, quotas, and
id counters, plus the engine's golden state, outputs, and snapshot
history. This is what lets ``python -m repro apply`` behave like a real
CLI across invocations -- the simulated cloud survives between runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional

from .cloud.activitylog import ActivityEvent
from .cloud.base import ControlPlane, ResourceRecord
from .cloud.gateway import CloudGateway
from .core.engine import CloudlessEngine
from .state.document import StateDocument
from .state.snapshots import SnapshotHistory

#: current world format: snapshot history persisted as deltas +
#: periodic keyframes (O(changed) per version) instead of one full
#: state document per version. Format 1 worlds (full documents) are
#: still readable.
FORMAT_VERSION = 2
SUPPORTED_FORMATS = (1, 2)


# -- control planes ------------------------------------------------------------


def plane_to_dict(plane: ControlPlane) -> Dict[str, Any]:
    return {
        "seed": plane.seed,
        "records": [
            {
                "id": r.id,
                "type": r.type,
                "region": r.region,
                "attrs": r.attrs,
                "created_at": r.created_at,
                "updated_at": r.updated_at,
                "state": r.state,
            }
            for r in sorted(plane.records.values(), key=lambda r: r.id)
        ],
        "log": [
            {
                "sequence": e.sequence,
                "timestamp": e.timestamp,
                "operation": e.operation,
                "resource_type": e.resource_type,
                "resource_id": e.resource_id,
                "resource_name": e.resource_name,
                "region": e.region,
                "actor": e.actor,
                "changed_attrs": list(e.changed_attrs),
            }
            for e in plane.log.all_events()
        ],
        # durable sequence watermark: correct cursor math even when the
        # retained event window starts above sequence 0 (compaction)
        "log_next_seq": plane.log.next_cursor,
        "id_counter": plane._next_id,
        # identity-keyed generation counters: without them a reloaded
        # world would re-mint generation-0 ids for recreated names
        "id_gens": [
            {"rtype": t, "region": r, "name": n, "gen": g}
            for (t, r, n), g in sorted(plane._id_gens.items())
        ],
        "quotas": [
            {"rtype": rtype, "region": region, "limit": limit}
            for (rtype, region), limit in sorted(plane.quotas.items())
        ],
        "api_calls": dict(plane.api_calls),
        # idempotency-token index: lets a resumed apply deduplicate
        # creates against resources a crashed run already provisioned
        "tokens": {k: v for k, v in sorted(plane._tokens.items())},
    }


def plane_from_dict(plane: ControlPlane, data: Dict[str, Any]) -> None:
    """Restore a freshly-constructed plane's mutable state in place."""
    plane.seed = data.get("seed", plane.seed)
    plane.records.clear()
    for rec in data.get("records", []):
        plane.records[rec["id"]] = ResourceRecord(
            id=rec["id"],
            type=rec["type"],
            region=rec["region"],
            attrs=dict(rec["attrs"]),
            created_at=rec.get("created_at", 0.0),
            updated_at=rec.get("updated_at", 0.0),
            state=rec.get("state", "active"),
        )
    events = data.get("log", [])
    plane.log.restore(
        [
            ActivityEvent(
                sequence=e["sequence"],
                timestamp=e["timestamp"],
                provider=plane.provider,
                operation=e["operation"],
                resource_type=e["resource_type"],
                resource_id=e["resource_id"],
                resource_name=e["resource_name"],
                region=e["region"],
                actor=e["actor"],
                changed_attrs=tuple(e.get("changed_attrs", [])),
            )
            for e in events
        ],
        next_sequence=data.get("log_next_seq"),
    )
    plane._next_id = data.get("id_counter", 1)
    plane._id_gens = {
        (g["rtype"], g["region"], g["name"]): g["gen"]
        for g in data.get("id_gens", [])
    }
    plane.quotas = {
        (q["rtype"], q["region"]): q["limit"] for q in data.get("quotas", [])
    }
    plane.api_calls = dict(data.get("api_calls", {"read": 0, "write": 0}))
    plane._tokens = dict(data.get("tokens", {}))


# -- history -----------------------------------------------------------------------


def history_to_dict(history: SnapshotHistory) -> list:
    """Delta-journal serialisation: keyframes carry full documents,
    every other version carries only what changed against its parent."""
    return history.export_records()


def history_from_dict(data: list) -> SnapshotHistory:
    """Rebuild a history from :func:`history_to_dict` output.

    Accepts both the delta form (format 2) and the historical
    full-document-per-version form (format 1).
    """
    history = SnapshotHistory.import_records(data)
    for item, version in zip(data, history.versions()):
        assert version == item["version"], "history must be contiguous"
    return history


# -- whole worlds -------------------------------------------------------------------


def engine_to_dict(engine: CloudlessEngine) -> Dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "seed": getattr(engine, "seed", 0),
        "clock": engine.clock.now,
        "planes": {
            name: plane_to_dict(plane)
            for name, plane in sorted(engine.gateway.planes.items())
        },
        "state": json.loads(engine.state.to_json()),
        "history": history_to_dict(engine.history),
        "last_sources": engine.last_sources,
        "last_variables": engine.last_variables,
        "executor": engine.executor_name,
        "validation_level": engine.validation.level,
        # per-provider log-watch cursors (event sequences): a reloaded
        # world resumes tailing where it stopped instead of replaying
        # the whole activity log
        "watch_cursors": engine.watcher.cursors,
    }


def engine_from_dict(data: Dict[str, Any]) -> CloudlessEngine:
    if data.get("format") not in SUPPORTED_FORMATS:
        raise ValueError(
            f"unsupported world format {data.get('format')!r} "
            f"(expected one of {SUPPORTED_FORMATS})"
        )
    executor = data.get("executor", "critical-path")
    if executor == "sharded":
        # worlds applied with the removed sharded executor: its
        # interleaved mode made critical-path's scheduling decisions
        executor = "critical-path"
    engine = CloudlessEngine(
        seed=data.get("seed", 0),
        executor=executor,
        validation_level=data.get("validation_level", "rules"),
    )
    engine.clock.advance_to(data.get("clock", 0.0))
    for name, plane_data in data.get("planes", {}).items():
        plane = engine.gateway.planes.get(name)
        if plane is not None:
            plane_from_dict(plane, plane_data)
    engine.state = StateDocument.from_json(json.dumps(data.get("state", {})))
    engine.history = history_from_dict(data.get("history", []))
    engine.last_sources = dict(data.get("last_sources", {}))
    engine.last_variables = dict(data.get("last_variables", {}))
    engine.watcher.restore_cursors(data.get("watch_cursors", {}))
    return engine


def save_world(engine: CloudlessEngine, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(engine_to_dict(engine), handle, indent=1, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_world(path: str) -> CloudlessEngine:
    with open(path, "r", encoding="utf-8") as handle:
        return engine_from_dict(json.load(handle))
