"""State refresh and incremental update planning (3.3).

Baseline behaviour ("treat deltas like a deployment from scratch"):
refresh *every* resource in state through the rate-limited cloud API,
then re-plan the whole graph. Cloudless behaviour: diff the two config
versions, compute the impact scope on the dependency graph, refresh and
re-plan only that subgraph.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from ..addressing import DATA, MANAGED, ResourceAddress
from ..cloud.clock import EventQueue
from ..cloud.gateway import CloudGateway
from ..graph.builder import (
    GraphBuildError,
    ResourceGraph,
    ResourceNode,
    build_graph,
)
from ..graph.impact import (
    ConfigDelta,
    ImpactAnalyzer,
    _decl_fingerprint,
    diff_configurations,
)
from ..graph.plan import Plan, Planner
from ..lang.config import Configuration, ResourceDecl
from ..lang.module_loader import ModuleLoader
from ..lang.values import Unknown, values_equal
from ..perf import PERF
from ..state.document import StateDocument


@dataclasses.dataclass
class RefreshResult:
    """Outcome of a state refresh pass."""

    refreshed: List[str]
    drifted: List[str]
    missing: List[str]
    api_calls: int
    duration_s: float


def refresh_state(
    gateway: CloudGateway,
    state: StateDocument,
    addresses: Optional[Set[str]] = None,
    concurrency: int = 10,
) -> RefreshResult:
    """Re-read resources from the cloud, updating ``state`` in place.

    ``addresses=None`` refreshes everything (the baseline); a set
    restricts the pass to the impact scope (the cloudless optimization).
    """
    clock = gateway.clock
    started = clock.now
    calls_before = gateway.total_api_calls()
    entries = [
        e
        for e in state.resources()
        if addresses is None or str(e.address) in addresses
    ]
    refreshed: List[str] = []
    drifted: List[str] = []
    missing: List[str] = []

    events = EventQueue(clock)
    queue = list(entries)
    inflight: Dict[int, Any] = {}
    token = 0
    while queue or inflight:
        while queue and len(inflight) < concurrency:
            entry = queue.pop(0)
            pending = gateway.submit(
                "read", entry.address.type, resource_id=entry.resource_id
            )
            inflight[token] = (entry, pending)
            events.schedule(pending.t_complete, token)
            token += 1
        popped = events.pop()
        if popped is None:
            break
        _, tok = popped
        entry, pending = inflight.pop(tok)
        snapshot = pending.resolve()
        addr_text = str(entry.address)
        refreshed.append(addr_text)
        if snapshot is None:
            missing.append(addr_text)
            state.remove(entry.address)
            continue
        if not values_equal(entry.attrs, snapshot):
            drifted.append(addr_text)
            state.set(
                entry.replace(attrs=dict(snapshot), updated_at=clock.now)
            )
    return RefreshResult(
        refreshed=refreshed,
        drifted=drifted,
        missing=missing,
        api_calls=gateway.total_api_calls() - calls_before,
        duration_s=clock.now - started,
    )


@dataclasses.dataclass
class UpdatePlanResult:
    """A planned update, with the bookkeeping the E2 benchmark reports."""

    plan: Plan
    graph: ResourceGraph
    delta: Optional[ConfigDelta]
    scope: Optional[Set[str]]
    refresh: RefreshResult
    plan_duration_s: float

    @property
    def turnaround_s(self) -> float:
        return self.refresh.duration_s + self.plan_duration_s

    @property
    def scope_size(self) -> int:
        return len(self.scope) if self.scope is not None else len(self.graph)


class UpdatePipeline:
    """Plans configuration updates, full-refresh or impact-scoped."""

    def __init__(
        self,
        gateway: CloudGateway,
        incremental: bool = True,
        refresh_concurrency: int = 10,
    ):
        self.gateway = gateway
        self.incremental = incremental
        self.refresh_concurrency = refresh_concurrency
        self.planner = Planner(
            spec_lookup=gateway.try_spec,
            region_lookup=gateway.region_for,
            provider_lookup=gateway.provider_of,
        )

    def plan_update(
        self,
        old_config: Configuration,
        new_config: Configuration,
        state: StateDocument,
        variables: Optional[Dict[str, Any]] = None,
        loader: Optional[ModuleLoader] = None,
    ) -> UpdatePlanResult:
        graph = build_graph(new_config, variables=variables, loader=loader)
        data_values = read_data_sources(self.gateway, graph, state)
        plan_started = self.gateway.clock.now

        if not self.incremental:
            refresh = refresh_state(
                self.gateway, state, None, self.refresh_concurrency
            )
            plan_started = self.gateway.clock.now
            plan = self.planner.plan(graph, state, data_values=data_values)
            return UpdatePlanResult(
                plan=plan,
                graph=graph,
                delta=None,
                scope=None,
                refresh=refresh,
                plan_duration_s=self.gateway.clock.now - plan_started,
            )

        delta = diff_configurations(old_config, new_config)
        seeds = ImpactAnalyzer(graph).seeds_from_delta(delta, old_config)
        # declarations removed/renamed: their instances live only in state
        for mode, rtype, name in delta.changed_resources:
            for entry in state.instances_of(rtype, name, (), mode):
                seeds.add(str(entry.address))
        scope = ImpactAnalyzer(graph).impact_scope(seeds)
        refresh = refresh_state(
            self.gateway, state, scope, self.refresh_concurrency
        )
        plan_started = self.gateway.clock.now
        plan = self.planner.plan(
            graph, state, data_values=data_values, limit_to=scope
        )
        return UpdatePlanResult(
            plan=plan,
            graph=graph,
            delta=delta,
            scope=scope,
            refresh=refresh,
            plan_duration_s=self.gateway.clock.now - plan_started,
        )


def read_data_sources(
    gateway: CloudGateway,
    graph: ResourceGraph,
    state: StateDocument,
) -> Dict[str, Dict[str, Any]]:
    """Evaluate and read every data source in the graph (plan phase).

    Reads run in dependency order because one data source's query may
    reference another's result.
    """
    from ..graph.plan import ValueResolver
    from ..lang.context import DeferredResolver

    resolver = ValueResolver(graph, state)
    slot = graph.binding_resolver
    if isinstance(slot, DeferredResolver):
        previous = slot.target
        slot.target = resolver
    else:
        previous = None

    values: Dict[str, Dict[str, Any]] = {}
    try:
        for nid in graph.dag.topological_order():
            node = graph.nodes.get(nid)
            if node is None or node.address.mode != "data":
                continue
            attrs = node.evaluate_attrs()
            region = ""
            location = attrs.get("location") or attrs.get("region")
            if isinstance(location, str):
                region = location
            result = gateway.read_data(node.address.type, attrs, region)
            values[nid] = result
            resolver.set_override(nid, result)
    finally:
        if isinstance(slot, DeferredResolver):
            slot.target = previous
    return values


# -- decl-level incremental re-planning ---------------------------------------


class IncrementalPatchError(RuntimeError):
    """A patch cannot be applied in place; the session falls back to a
    full graph rebuild (recorded in ``IncrementalSession.rebuilds``)."""


@dataclasses.dataclass
class IncrementalPlanResult:
    """One re-plan pass over a long-lived estate session."""

    plan: Plan
    #: instance addresses re-diffed this pass (None = full plan)
    scope: Optional[Set[str]]
    #: ``(mode, type, name)`` decl keys the patch actually changed
    dirty: List[Tuple[str, str, str]]
    #: "incremental" when the graph was patched in place, "rebuild"
    #: when the session fell back to parse-and-rebuild
    mode: str
    wall_s: float

    @property
    def scope_size(self) -> int:
        return len(self.scope) if self.scope is not None else len(self.plan.graph)


class IncrementalSession:
    """A long-lived estate whose plan survives between edits.

    ``UpdatePipeline`` re-parses and re-builds the whole configuration
    on every update, so its turnaround is O(estate) even when one
    declaration changed. This session keeps the parsed config, the
    expanded graph, and per-declaration fingerprints resident; an edit
    arrives as a *patch* -- a source snippet holding only the touched
    root-module resource declarations -- and only the dirty subgraph is
    re-expanded and re-diffed:

    * fingerprint the patch decls against the resident config; no-op
      decls are dropped (``incremental.dirty_nodes_replanned``
      counts what survives);
    * swap the dirty declarations into the resident graph O(dirty +
      dependents): old instances out, re-expanded instances in,
      dependency edges rewired from the new expressions;
    * re-plan with ``limit_to`` = the impact scope of the dirty
      instances (seeds + descendants), everything else NOOP.

    Edits the patch path cannot express in place -- locals, variables,
    outputs, module calls, non-root declarations, references the local
    resolver cannot trace -- raise :class:`IncrementalPatchError`
    internally and fall back to a full rebuild, preserving behaviour at
    the cost of the O(estate) walk (``rebuilds`` counts these).
    """

    def __init__(
        self,
        gateway: CloudGateway,
        source: Optional[str] = None,
        config: Optional[Configuration] = None,
        variables: Optional[Dict[str, Any]] = None,
        compile_cache: Optional[Any] = None,
    ):
        if (source is None) == (config is None):
            raise ValueError("pass exactly one of source/config")
        self.gateway = gateway
        # streaming parse: chunk ASTs stay resident on the config, so
        # replan patches that repeat unchanged text skip re-lexing it
        self.config = (
            config
            if config is not None
            else Configuration.parse_streaming(source)
        )
        self.variables = variables
        #: callbacks fired when the session falls back to a full
        #: rebuild -- the compiled-artifact cache registers one so a
        #: graph it journaled before the rebuild is never served again
        self.on_rebuild: List[Any] = []
        if compile_cache is not None:
            self.on_rebuild.append(lambda _session: compile_cache.clear())
        self.planner = Planner(
            spec_lookup=gateway.try_spec,
            region_lookup=gateway.region_for,
            provider_lookup=gateway.provider_of,
        )
        self.graph = build_graph(self.config, variables=variables)
        self.rebuilds = 0
        self._fingerprints: Dict[Tuple[str, str, str], tuple] = {
            (k[0], k[1], k[2]): _decl_fingerprint(d)
            for k, d in self.config.resources.items()
        }
        self._data_values: Dict[str, Dict[str, Any]] = {}

    # -- full plan ---------------------------------------------------------

    def plan(self, state: StateDocument) -> IncrementalPlanResult:
        """Full plan of the resident graph (initial converge)."""
        started = time.perf_counter()
        self._data_values = read_data_sources(self.gateway, self.graph, state)
        plan = self.planner.plan(
            self.graph, state, data_values=self._data_values
        )
        return IncrementalPlanResult(
            plan=plan,
            scope=None,
            dirty=[],
            mode="full",
            wall_s=time.perf_counter() - started,
        )

    # -- incremental re-plan ----------------------------------------------

    def replan(
        self,
        patch_source: str,
        state: StateDocument,
        remove: Tuple[str, ...] = (),
    ) -> IncrementalPlanResult:
        """Apply a decl-level patch and re-plan the dirty subgraph.

        ``patch_source`` holds replacement/new root-module resource
        declarations; ``remove`` names declarations to drop, as
        ``"type.name"`` (managed) or ``"data.type.name"``.
        """
        started = time.perf_counter()
        patch = Configuration.parse_streaming(patch_source, reuse=self.config)
        if patch.diagnostics.has_errors():
            first = patch.diagnostics.errors[0]
            raise GraphBuildError(f"patch has errors: {first.message}")
        try:
            result = self._replan_patched(patch, state, remove)
        except IncrementalPatchError:
            result = self._replan_rebuilt(patch, state, remove)
        result.wall_s = time.perf_counter() - started
        return result

    def _parse_remove_keys(
        self, remove: Tuple[str, ...]
    ) -> List[Tuple[str, str, str]]:
        keys = []
        for text in remove:
            parts = text.split(".")
            if len(parts) == 3 and parts[0] == "data":
                keys.append((DATA, parts[1], parts[2]))
            elif len(parts) == 2:
                keys.append((MANAGED, parts[0], parts[1]))
            else:
                raise ValueError(f"bad remove address {text!r}")
        return keys

    def _replan_patched(
        self,
        patch: Configuration,
        state: StateDocument,
        remove: Tuple[str, ...],
    ) -> IncrementalPlanResult:
        if patch.locals or patch.variables or patch.outputs or patch.module_calls:
            raise IncrementalPatchError(
                "patch touches locals/variables/outputs/modules"
            )
        remove_keys = self._parse_remove_keys(remove)
        dirty: List[Tuple[Tuple[str, str, str], ResourceDecl]] = []
        for key, decl in patch.resources.items():
            fp = _decl_fingerprint(decl)
            if self._fingerprints.get(key) != fp:
                dirty.append((key, decl))
        for key in remove_keys:
            if key not in self.config.resources:
                raise IncrementalPatchError(f"remove of undeclared {key}")
        if not dirty and not remove_keys:
            plan = self.planner.plan(
                self.graph, state, data_values=self._data_values, limit_to=set()
            )
            return IncrementalPlanResult(
                plan=plan, scope=set(), dirty=[], mode="incremental", wall_s=0.0
            )

        graph = self.graph
        ctx = graph.root_context
        seeds: Set[str] = set()

        # 1. removals: nodes out, decls out; their state entries seed
        # DELETE planning and their dependents re-diff
        for mode, rtype, name in remove_keys:
            old_ids = graph.decl_instances.pop(((), mode, rtype, name), [])
            for nid in old_ids:
                seeds |= graph.dag.successors(nid)
                graph.dag.remove_node(nid)
                graph.nodes.pop(nid, None)
                seeds.add(nid)
            del self.config.resources[(mode, rtype, name)]
            self._fingerprints.pop((mode, rtype, name), None)

        # 2. dirty decls: drop old instances (keeping downstream edge
        # targets), re-expand, rewire
        downstream: Dict[Tuple[str, str, str], Set[str]] = {}
        for key, decl in dirty:
            old_ids = graph.decl_instances.get(((), key[0], key[1], key[2]), [])
            succs: Set[str] = set()
            old_set = set(old_ids)
            for nid in old_ids:
                succs |= graph.dag.successors(nid) - old_set
                seeds.add(nid)
            downstream[key] = succs
            for nid in old_ids:
                graph.dag.remove_node(nid)
                graph.nodes.pop(nid, None)
        for key, decl in dirty:
            self.config.resources[key] = decl
            new_ids: List[str] = []
            for ikey in self._expand_keys(decl):
                address = ResourceAddress(
                    type=decl.type,
                    name=decl.name,
                    module_path=(),
                    mode=decl.mode,
                    instance_key=ikey,
                )
                node = ResourceNode(
                    address=address, decl=decl, context=ctx, instance_key=ikey
                )
                nid = node.id
                graph.nodes[nid] = node
                graph.dag.add_node(nid)
                new_ids.append(nid)
                seeds.add(nid)
            graph.decl_instances[((), key[0], key[1], key[2])] = new_ids
            self._fingerprints[key] = _decl_fingerprint(decl)

        # 3. edges: dependents of the decl keep depending on every new
        # instance; the new expressions decide the incoming edges
        for key, decl in dirty:
            new_ids = graph.decl_instances[((), key[0], key[1], key[2])]
            for succ in sorted(downstream[key]):
                if succ not in graph.dag:
                    continue  # dependent was itself replaced this pass
                for nid in new_ids:
                    graph.dag.add_edge(nid, succ)
            dep_addrs: Set[str] = set()
            for ref in sorted(decl.references()):
                dep_addrs |= self._deps_of_reference(ref)
            for dep in sorted(dep_addrs):
                for nid in new_ids:
                    if dep != nid:
                        graph.dag.add_edge(dep, nid)
        try:
            graph.dag.validate_acyclic()
        except Exception as exc:
            raise GraphBuildError(str(exc))

        # 4. stale evaluation caches: the root context memoizes the
        # managed-name maps and lazily-evaluated locals
        ctx._managed_names_by_type = None
        ctx._managed_maps.clear()
        ctx._locals._cache.clear()

        # 5. impact scope + deleted addresses still in state
        scope = ImpactAnalyzer(graph).impact_scope(seeds)
        for entry in state.resources():
            addr_text = str(entry.address)
            if addr_text in seeds and addr_text not in graph.nodes:
                scope.add(addr_text)
        PERF.count("incremental.dirty_nodes_replanned", len(scope))

        data_values = self._refresh_data_values(state, scope)
        plan = self.planner.plan(
            self.graph, state, data_values=data_values, limit_to=scope
        )
        return IncrementalPlanResult(
            plan=plan,
            scope=scope,
            dirty=[k for k, _ in dirty] + self._parse_remove_keys(remove),
            mode="incremental",
            wall_s=0.0,
        )

    def _replan_rebuilt(
        self,
        patch: Configuration,
        state: StateDocument,
        remove: Tuple[str, ...],
    ) -> IncrementalPlanResult:
        """Fallback: merge the patch into the resident config and do
        the full parse-free rebuild (still cheaper than re-parsing the
        estate, but O(estate) to expand and diff)."""
        self.rebuilds += 1
        # the resident graph is about to be replaced wholesale; anything
        # journaled from the old graph (compiled-artifact cache) is
        # stale the moment this rebuild lands
        for hook in self.on_rebuild:
            hook(self)
        dirty: List[Tuple[str, str, str]] = []
        for key, decl in patch.resources.items():
            if self._fingerprints.get(key) != _decl_fingerprint(decl):
                dirty.append(key)
            self.config.resources[key] = decl
        for key in self._parse_remove_keys(remove):
            self.config.resources.pop(key, None)
            self._fingerprints.pop(key, None)
            dirty.append(key)
        self.config.locals.update(patch.locals)
        self.config.variables.update(patch.variables)
        self.config.outputs.update(patch.outputs)
        self.config.module_calls.update(patch.module_calls)
        self.graph = build_graph(self.config, variables=self.variables)
        self._fingerprints = {
            (k[0], k[1], k[2]): _decl_fingerprint(d)
            for k, d in self.config.resources.items()
        }
        self._data_values = read_data_sources(self.gateway, self.graph, state)
        plan = self.planner.plan(
            self.graph, state, data_values=self._data_values
        )
        return IncrementalPlanResult(
            plan=plan, scope=None, dirty=dirty, mode="rebuild", wall_s=0.0
        )

    # -- patch-path helpers ------------------------------------------------

    def _expand_keys(self, decl: ResourceDecl) -> List[Any]:
        """Root-module mirror of ``GraphBuilder._expand_keys``."""
        from ..lang.evaluator import Evaluator

        ctx = self.graph.root_context
        evaluator = Evaluator(ctx.scope())
        if decl.count is not None:
            value = evaluator.evaluate(decl.count)
            if isinstance(value, Unknown):
                raise IncrementalPatchError(f"{decl.address}: count unknown")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise GraphBuildError(f"{decl.address}: 'count' must be a number")
            count = int(value)
            if count < 0:
                raise GraphBuildError(f"{decl.address}: 'count' must be >= 0")
            return list(range(count))
        if decl.for_each is not None:
            value = evaluator.evaluate(decl.for_each)
            if isinstance(value, Unknown):
                raise IncrementalPatchError(f"{decl.address}: for_each unknown")
            if isinstance(value, dict):
                return sorted(value.keys())
            if isinstance(value, list):
                keys: List[Any] = []
                for item in value:
                    if not isinstance(item, str) or item in keys:
                        raise IncrementalPatchError(
                            f"{decl.address}: for_each needs unique strings"
                        )
                    keys.append(item)
                return sorted(keys)
            raise GraphBuildError(f"{decl.address}: 'for_each' must be map or set")
        return [None]

    def _deps_of_reference(self, ref: Any) -> Set[str]:
        """Root-module mirror of ``GraphBuilder._deps_of_reference``;
        anything it cannot trace locally forces a rebuild."""
        from ..lang.references import extract_references

        if ref.kind in ("resource", "data"):
            mode = MANAGED if ref.kind == "resource" else DATA
            ids = self.graph.decl_instances.get(((), mode, ref.type, ref.name))
            if ids is None:
                raise IncrementalPatchError(f"reference to undeclared {ref}")
            return set(ids)
        if ref.kind == "local":
            attr = self.config.locals.get(ref.name)
            if attr is None:
                raise IncrementalPatchError(
                    f"reference to undeclared local.{ref.name}"
                )
            deps: Set[str] = set()
            for sub in sorted(extract_references(attr.expr)):
                deps |= self._deps_of_reference(sub)
            return deps
        if ref.kind == "var":
            return set()  # root module: variables carry no graph edges
        raise IncrementalPatchError(f"cannot trace {ref.kind} reference")

    def _refresh_data_values(
        self, state: StateDocument, scope: Set[str]
    ) -> Dict[str, Dict[str, Any]]:
        """Re-read only the data sources inside the impact scope; the
        rest keep their values from the previous pass."""
        stale = [
            nid
            for nid in self.graph.data_ids()
            if nid in scope or nid not in self._data_values
        ]
        if stale:
            fresh = read_data_sources(self.gateway, self.graph, state)
            for nid in stale:
                if nid in fresh:
                    self._data_values[nid] = fresh[nid]
        # drop values for data sources that left the graph
        live = set(self.graph.data_ids())
        self._data_values = {
            k: v for k, v in self._data_values.items() if k in live
        }
        return self._data_values
