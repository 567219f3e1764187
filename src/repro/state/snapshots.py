"""State snapshot history -- the "time machine" (3.4).

Every apply/update checkpoints the state document together with the
configuration source that produced it, so rollback planning can pair
"the config I want to return to" with "the state the world was in".

Storage is **O(changed) per checkpoint**: each version records a delta
against its parent (entries set, addresses removed, outputs when they
changed), with a full keyframe every ``keyframe_interval`` versions so
reconstruction never replays an unbounded chain. Because the document
layer is copy-on-write with sealed entries, a delta holds *references*
to the entries -- no serialisation, no deep copies -- and computing it
is an identity-fast pointer scan: entries shared with the parent are
skipped with one ``is`` check.

``get()``/``checkout()``/``diff()`` reconstruct documents on demand
(nearest keyframe plus forward delta replay) and memoise the result;
the latest version is always available without reconstruction.
``Snapshot.state`` must be treated as read-only -- use
:meth:`SnapshotHistory.checkout` for a mutable working copy.

This checkpoint/delta/replay shape is deliberately the same one a
training stack uses for model checkpointing: cheap incremental saves,
periodic full keyframes, deterministic replay.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Optional

from ..addressing import ResourceAddress
from ..perf import PERF
from .document import StateDocument, deep_value_copy


@dataclasses.dataclass
class Snapshot:
    """One checkpoint of (configuration, state) at a point in time."""

    version: int
    timestamp: float
    state: StateDocument
    config_sources: Dict[str, str]
    description: str = ""

    @property
    def config_hash(self) -> str:
        digest = hashlib.sha256()
        for fname in sorted(self.config_sources):
            digest.update(fname.encode())
            digest.update(self.config_sources[fname].encode())
        return digest.hexdigest()[:12]


@dataclasses.dataclass
class SnapshotDiff:
    added: List[str]
    removed: List[str]
    changed: List[str]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)


@dataclasses.dataclass
class _Record:
    """Internal storage for one version: a keyframe or a delta."""

    version: int
    timestamp: float
    config_sources: Dict[str, str]
    description: str
    #: full document (an O(1) COW copy) -- set for keyframes only
    keyframe: Optional[StateDocument] = None
    #: address -> entry set/overwritten since the parent version
    delta_set: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: addresses removed since the parent version
    delta_removed: List[str] = dataclasses.field(default_factory=list)
    serial: int = 0
    lineage: str = "root"
    #: outputs at this version, or None when unchanged from the parent
    outputs: Optional[Dict[str, Any]] = None

    @property
    def is_keyframe(self) -> bool:
        return self.keyframe is not None


class SnapshotHistory:
    """Append-only version history with diff and checkout."""

    def __init__(self, keyframe_interval: int = 16) -> None:
        self.keyframe_interval = max(1, keyframe_interval)
        self._records: List[_Record] = []
        self._docs: Dict[int, StateDocument] = {}  # materialised versions
        self._last_keyframe = 0

    def checkpoint(
        self,
        state: StateDocument,
        config_sources: Dict[str, str],
        timestamp: float,
        description: str = "",
    ) -> Snapshot:
        doc = state.copy()  # O(1): shares the entry map
        version = len(self._records) + 1
        parent = self._docs.get(version - 1)
        record = _Record(
            version=version,
            timestamp=timestamp,
            config_sources=dict(config_sources),
            description=description,
            serial=doc.serial,
            lineage=doc.lineage,
        )
        make_keyframe = (
            parent is None
            or version - self._last_keyframe >= self.keyframe_interval
        )
        if not make_keyframe:
            assert parent is not None
            delta_set, delta_removed = _map_delta(
                parent.entries_map(), doc.entries_map()
            )
            # a delta touching most of the estate is a keyframe in denial
            if len(delta_set) + len(delta_removed) > max(8, len(doc)) // 2:
                make_keyframe = True
            else:
                record.delta_set = delta_set
                record.delta_removed = delta_removed
                if parent.outputs != doc.outputs:
                    record.outputs = deep_value_copy(doc.outputs)
                PERF.count("snapshot.deltas")
                PERF.count(
                    "snapshot.delta_entries",
                    len(delta_set) + len(delta_removed),
                )
                if PERF.enabled:
                    PERF.count(
                        "snapshot.delta_bytes", len(_delta_json(record))
                    )
        if make_keyframe:
            record.keyframe = doc
            record.outputs = deep_value_copy(doc.outputs)
            self._last_keyframe = version
            PERF.count("snapshot.keyframes")
        self._records.append(record)
        self._docs[version] = doc
        PERF.count("snapshot.checkpoints")
        return Snapshot(
            version=version,
            timestamp=timestamp,
            state=doc,
            config_sources=record.config_sources,
            description=description,
        )

    # -- access ------------------------------------------------------------

    def latest(self) -> Optional[Snapshot]:
        return self.get(len(self._records)) if self._records else None

    def get(self, version: int) -> Snapshot:
        if not 1 <= version <= len(self._records):
            raise KeyError(f"no snapshot version {version}")
        record = self._records[version - 1]
        return Snapshot(
            version=record.version,
            timestamp=record.timestamp,
            state=self._materialize(version),
            config_sources=record.config_sources,
            description=record.description,
        )

    def checkout(self, version: int) -> StateDocument:
        """A mutable working copy of the state at ``version`` (O(1))."""
        return self._materialize(version).copy()

    def versions(self) -> List[int]:
        return [r.version for r in self._records]

    def __len__(self) -> int:
        return len(self._records)

    def _materialize(self, version: int) -> StateDocument:
        if not 1 <= version <= len(self._records):
            raise KeyError(f"no snapshot version {version}")
        doc = self._docs.get(version)
        if doc is not None:
            return doc
        # walk back to the nearest materialised-or-keyframe ancestor
        base = version
        while base >= 1 and base not in self._docs:
            if self._records[base - 1].is_keyframe:
                self._docs[base] = self._records[base - 1].keyframe
                break
            base -= 1
        for v in range(base + 1, version + 1):
            record = self._records[v - 1]
            if record.is_keyframe:
                self._docs[v] = record.keyframe
                continue
            parent = self._docs[v - 1]
            doc = parent.copy()
            for entry in record.delta_set.values():
                doc.set(entry)
            for key in record.delta_removed:
                doc.remove(ResourceAddress.parse(key))
            doc.serial = record.serial
            doc.lineage = record.lineage
            if record.outputs is not None:
                doc.outputs = deep_value_copy(record.outputs)
            self._docs[v] = doc
            PERF.count("snapshot.reconstructions")
        return self._docs[version]

    # -- diff ----------------------------------------------------------------

    def diff(self, old_version: int, new_version: int) -> SnapshotDiff:
        """Addresses added/removed/changed between two checkpoints.

        ``changed`` considers the cloud identity as well as the attrs: a
        delete->create replacement that lands identical attrs under a
        new ``resource_id`` is a change, not a no-op.
        """
        old = self._materialize(old_version)
        new = self._materialize(new_version)
        old_map = old.entries_map()
        new_map = new.entries_map()
        if old_map is new_map:
            return SnapshotDiff(added=[], removed=[], changed=[])
        added = sorted(k for k in new_map if k not in old_map)
        removed = sorted(k for k in old_map if k not in new_map)
        changed = []
        for key, new_entry in new_map.items():
            old_entry = old_map.get(key)
            if old_entry is None or old_entry is new_entry:
                continue
            if (
                old_entry.attrs != new_entry.attrs
                or old_entry.resource_id != new_entry.resource_id
            ):
                changed.append(key)
        changed.sort()
        return SnapshotDiff(added=added, removed=removed, changed=changed)

    # -- persistence -------------------------------------------------------

    def export_records(self) -> List[Dict[str, Any]]:
        """Delta-journal form for persistence: O(changed) per version."""
        out: List[Dict[str, Any]] = []
        for record in self._records:
            item: Dict[str, Any] = {
                "version": record.version,
                "timestamp": record.timestamp,
                "config_sources": record.config_sources,
                "description": record.description,
            }
            if record.is_keyframe:
                assert record.keyframe is not None
                item["state"] = record.keyframe.to_dict()
            else:
                item["delta"] = _delta_dict(record)
            out.append(item)
        return out

    @classmethod
    def import_records(
        cls, data: List[Dict[str, Any]], keyframe_interval: int = 16
    ) -> "SnapshotHistory":
        """Rebuild a history from :meth:`export_records` output.

        Also accepts the historical full-state-per-version form (every
        item carrying ``state``); such items simply all become
        keyframes.
        """
        from .document import ResourceState

        history = cls(keyframe_interval=keyframe_interval)
        for item in data:
            version = item["version"]
            record = _Record(
                version=version,
                timestamp=item.get("timestamp", 0.0),
                config_sources=dict(item.get("config_sources", {})),
                description=item.get("description", ""),
            )
            if "state" in item:
                doc = StateDocument.from_dict(item["state"])
                record.keyframe = doc
                record.serial = doc.serial
                record.lineage = doc.lineage
                record.outputs = deep_value_copy(doc.outputs)
                history._last_keyframe = version
                history._records.append(record)
                history._docs[version] = doc
                continue
            delta = item["delta"]
            parent = history._docs.get(version - 1)
            if parent is None:
                raise ValueError(
                    f"snapshot delta v{version} has no parent to apply to"
                )
            record.delta_set = {
                e["address"]: ResourceState.from_dict(e).seal()
                for e in delta.get("set", [])
            }
            record.delta_removed = list(delta.get("removed", []))
            record.serial = delta.get("serial", parent.serial)
            record.lineage = delta.get("lineage", parent.lineage)
            if "outputs" in delta:
                record.outputs = deep_value_copy(delta["outputs"])
            history._records.append(record)
            history._materialize(version)
        return history


def _map_delta(old_map, new_map):
    """(set, removed) between two entry maps, identity-fast."""
    if old_map is new_map:
        return {}, []
    delta_set = {}
    for key, entry in new_map.items():
        prev = old_map.get(key)
        if prev is entry:
            continue  # structurally shared: unchanged by construction
        if prev is None or prev != entry:
            delta_set[key] = entry
    delta_removed = [k for k in old_map if k not in new_map]
    return delta_set, delta_removed


def _delta_dict(record: _Record) -> Dict[str, Any]:
    delta: Dict[str, Any] = {
        "set": [
            record.delta_set[k].to_dict() for k in sorted(record.delta_set)
        ],
        "removed": sorted(record.delta_removed),
        "serial": record.serial,
        "lineage": record.lineage,
    }
    if record.outputs is not None:
        delta["outputs"] = record.outputs
    return delta


def _delta_json(record: _Record) -> str:
    return json.dumps(_delta_dict(record), sort_keys=True)
