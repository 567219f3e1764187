"""Frozen deep-copy reference for the golden-state layer.

This module preserves the pre-COW (PR 1 era) ``StateDocument`` /
``SnapshotHistory`` implementation verbatim apart from its imports,
kept as a test oracle for :mod:`repro.state`: ``copy()`` round-trips
every resource through ``json.loads(json.dumps(...))``, ``checkpoint``
deep-copies the whole estate, ``by_resource_id`` is an O(n) linear
scan. It exists for two reasons:

* the golden equivalence tests (``tests/golden/test_state_golden.py``)
  drive identical mutation sequences through this reference and the
  copy-on-write document in :mod:`repro.state.document` and assert
  byte-identical ``to_json()`` plus equal snapshot ``diff``/``checkout``
  results at every step;
* the state benchmark (``benchmarks/bench_p3_state.py``) reports the
  COW speedup against this implementation.

The only intentional divergence from the historical code is
``ReferenceSnapshotHistory.diff``, which carries the same
replaced-resource fix as the live implementation (a delete->create
replacement that lands identical attrs under a new ``resource_id``
must surface in ``changed``); without it the two diffs would disagree
on replacement sequences for the wrong reason.

Do not "improve" this module; it is a measuring stick.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterator, List, Optional

from repro.addressing import ResourceAddress


@dataclasses.dataclass
class ReferenceResourceState:
    """State entry for one deployed resource instance (mutable)."""

    address: ResourceAddress
    resource_id: str
    provider: str
    attrs: Dict[str, Any]
    region: str = ""
    created_at: float = 0.0
    updated_at: float = 0.0
    dependencies: List[str] = dataclasses.field(default_factory=list)

    @property
    def type(self) -> str:
        return self.address.type

    def to_dict(self) -> Dict[str, Any]:
        return {
            "address": str(self.address),
            "resource_id": self.resource_id,
            "provider": self.provider,
            "attrs": self.attrs,
            "region": self.region,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "dependencies": list(self.dependencies),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReferenceResourceState":
        return cls(
            address=ResourceAddress.parse(data["address"]),
            resource_id=data["resource_id"],
            provider=data["provider"],
            attrs=dict(data["attrs"]),
            region=data.get("region", ""),
            created_at=data.get("created_at", 0.0),
            updated_at=data.get("updated_at", 0.0),
            dependencies=list(data.get("dependencies", [])),
        )

    def copy(self) -> "ReferenceResourceState":
        return ReferenceResourceState(
            address=self.address,
            resource_id=self.resource_id,
            provider=self.provider,
            attrs=json.loads(json.dumps(self.attrs)),
            region=self.region,
            created_at=self.created_at,
            updated_at=self.updated_at,
            dependencies=list(self.dependencies),
        )


class ReferenceStateDocument:
    """The historical full-deep-copy state document."""

    def __init__(self, serial: int = 0, lineage: str = "root"):
        self.serial = serial
        self.lineage = lineage
        self._resources: Dict[str, ReferenceResourceState] = {}
        self.outputs: Dict[str, Any] = {}

    # -- resource access --------------------------------------------------

    def get(self, address: ResourceAddress) -> Optional[ReferenceResourceState]:
        return self._resources.get(str(address))

    def set(self, entry: ReferenceResourceState) -> None:
        self._resources[str(entry.address)] = entry

    def remove(self, address: ResourceAddress) -> Optional[ReferenceResourceState]:
        return self._resources.pop(str(address), None)

    def addresses(self) -> List[ResourceAddress]:
        return sorted(r.address for r in self._resources.values())

    def resources(self) -> List[ReferenceResourceState]:
        return [self._resources[str(a)] for a in self.addresses()]

    def instances_of(
        self, rtype: str, name: str, module_path: tuple = (), mode: str = "managed"
    ) -> List[ReferenceResourceState]:
        out = [
            r
            for r in self._resources.values()
            if r.address.type == rtype
            and r.address.name == name
            and r.address.module_path == module_path
            and r.address.mode == mode
        ]
        return sorted(out, key=lambda r: r.address)

    def by_resource_id(self, resource_id: str) -> Optional[ReferenceResourceState]:
        for entry in self._resources.values():
            if entry.resource_id == resource_id:
                return entry
        return None

    def __len__(self) -> int:
        return len(self._resources)

    def __contains__(self, address: ResourceAddress) -> bool:
        return str(address) in self._resources

    def __iter__(self) -> Iterator[ReferenceResourceState]:
        return iter(self.resources())

    # -- lifecycle ----------------------------------------------------------

    def bump(self) -> None:
        self.serial += 1

    def copy(self) -> "ReferenceStateDocument":
        out = ReferenceStateDocument(serial=self.serial, lineage=self.lineage)
        for entry in self._resources.values():
            out.set(entry.copy())
        out.outputs = json.loads(json.dumps(self.outputs))
        return out

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "serial": self.serial,
                "lineage": self.lineage,
                "outputs": self.outputs,
                "resources": [r.to_dict() for r in self.resources()],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReferenceStateDocument":
        data = json.loads(text)
        doc = cls(serial=data.get("serial", 0), lineage=data.get("lineage", "root"))
        doc.outputs = dict(data.get("outputs", {}))
        for entry in data.get("resources", []):
            doc.set(ReferenceResourceState.from_dict(entry))
        return doc


@dataclasses.dataclass
class ReferenceSnapshot:
    version: int
    timestamp: float
    state: ReferenceStateDocument
    config_sources: Dict[str, str]
    description: str = ""


@dataclasses.dataclass
class ReferenceSnapshotDiff:
    added: List[str]
    removed: List[str]
    changed: List[str]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)


class ReferenceSnapshotHistory:
    """Full-document-per-version history (deep copy on every checkpoint)."""

    def __init__(self) -> None:
        self._snapshots: List[ReferenceSnapshot] = []

    def checkpoint(
        self,
        state: ReferenceStateDocument,
        config_sources: Dict[str, str],
        timestamp: float,
        description: str = "",
    ) -> ReferenceSnapshot:
        snap = ReferenceSnapshot(
            version=len(self._snapshots) + 1,
            timestamp=timestamp,
            state=state.copy(),
            config_sources=dict(config_sources),
            description=description,
        )
        self._snapshots.append(snap)
        return snap

    def latest(self) -> Optional[ReferenceSnapshot]:
        return self._snapshots[-1] if self._snapshots else None

    def get(self, version: int) -> ReferenceSnapshot:
        if not 1 <= version <= len(self._snapshots):
            raise KeyError(f"no snapshot version {version}")
        return self._snapshots[version - 1]

    def checkout(self, version: int) -> ReferenceStateDocument:
        return self.get(version).state.copy()

    def versions(self) -> List[int]:
        return [s.version for s in self._snapshots]

    def __len__(self) -> int:
        return len(self._snapshots)

    def diff(self, old_version: int, new_version: int) -> ReferenceSnapshotDiff:
        old = self.get(old_version).state
        new = self.get(new_version).state
        old_addrs = {str(a) for a in old.addresses()}
        new_addrs = {str(a) for a in new.addresses()}
        added = sorted(new_addrs - old_addrs)
        removed = sorted(old_addrs - new_addrs)
        changed = []
        for addr in sorted(old_addrs & new_addrs):
            old_entry = old.get(ResourceAddress.parse(addr))
            new_entry = new.get(ResourceAddress.parse(addr))
            assert old_entry is not None and new_entry is not None
            if (
                old_entry.attrs != new_entry.attrs
                or old_entry.resource_id != new_entry.resource_id
            ):
                changed.append(addr)
        return ReferenceSnapshotDiff(added=added, removed=removed, changed=changed)
