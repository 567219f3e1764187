"""The cloudless engine: the whole lifecycle behind one facade.

Figure 1(b) of the paper: Developing -> Validating -> Deploying ->
Updating -> Diagnosing, policed throughout by the infrastructure
controller. :class:`CloudlessEngine` wires every subsystem together and
exposes the lifecycle verbs: ``validate``, ``plan``, ``apply``,
``watch``, ``reconcile``, ``rollback``, ``import_estate``, ``destroy``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Union

from ..cloud.gateway import CloudGateway
from ..cloud.resilience import BreakerPolicy, HealthMonitor, ResilientGateway
from ..debug.correlate import Diagnosis, IaCDebugger
from ..deploy.executor import (
    ApplyResult,
    BestEffortExecutor,
    CriticalPathExecutor,
    PlanExecutor,
    RetryPolicy,
    SequentialExecutor,
)
from ..deploy.incremental import read_data_sources
from ..deploy.recovery import CrashRecovery, RecoveryReport
from ..deploy.wal import IntentJournal
from ..drift.detector import DetectionRun, DriftFinding, LogWatchDetector
from ..drift.reconcile import Reconciler, ReconcileReport
from ..drift.watcher import DriftWatcher, WatchCycle
from ..graph.builder import ResourceGraph, build_graph
from ..graph.plan import Plan, Planner
from ..lang.config import Configuration
from ..lang.module_loader import ModuleLoader
from ..policy.controller import AdmissionDecision, InfrastructureController
from ..policy.cost import CostEstimator
from ..porting.importer import PortedProject, StructuredImporter
from ..state.document import StateDocument
from ..state.snapshots import Snapshot, SnapshotHistory
from ..types.schema import SchemaRegistry
from ..update.rollback import ReversibilityAwareRollback, RollbackResult
from ..validate.pipeline import (
    LEVEL_RULES,
    ValidationPipeline,
    ValidationReport,
)

EXECUTORS = {
    "sequential": SequentialExecutor,
    "best-effort": BestEffortExecutor,
    "critical-path": CriticalPathExecutor,
}

Sources = Union[str, Dict[str, str], Configuration]


def _fingerprint_json(blob: str) -> str:
    import hashlib

    return hashlib.sha256(blob.encode()).hexdigest()


def _fingerprint_data(data_values: Dict[str, Any]) -> str:
    import hashlib
    import json

    blob = json.dumps(data_values, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


#: fingerprint of an empty data-read set. A cached plan carrying this
#: fingerprint was computed against a graph with no data sources, so a
#: warm exact hit can skip ``read_data_sources`` (which would need the
#: materialized graph) entirely.
_EMPTY_DATA_FP = _fingerprint_data({})


class EngineError(RuntimeError):
    """Lifecycle-level failures (validation denied, admission denied)."""


@dataclasses.dataclass
class _CacheContext:
    """Ties a coerced Configuration back to its artifact lookup."""

    config: Configuration
    texts: Dict[str, str]
    variables_fp: str
    schema_fp: str
    lookup: Optional[Any]  # compilecache.CacheLookup, None on miss


class _LazyConfiguration(Configuration):
    """A Configuration served from an exact artifact hit, materialized
    on first attribute access.

    The warm plan path never touches the parsed AST -- the expanded
    graph and plan are journaled alongside it -- so an unchanged
    re-run should not pay the O(estate) unpickle just to carry a
    Configuration-shaped token through the call graph. Any real use
    (validate iterating resources, a partial reuse reading the
    chunk-AST table) falls through ``__getattribute__`` and unpickles
    the payload once.
    """

    def __init__(self, lookup: Any):
        object.__setattr__(self, "_clc_lookup", lookup)

    def _clc_materialize(self) -> Configuration:
        return object.__getattribute__(self, "_clc_lookup").config

    def __getattribute__(self, name: str):
        if name.startswith("_clc_") or name.startswith("__"):
            return object.__getattribute__(self, name)
        return getattr(
            object.__getattribute__(self, "_clc_materialize")(), name
        )

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._clc_materialize(), name, value)


class _LazyArtifactPlan(Plan):
    """A Plan served from an exact artifact hit whose state/data
    fingerprints matched.

    ``render()`` replays the journaled plan text (byte-identical to
    the cold run) straight from the artifact meta; everything else --
    ``changes``, ``execution_dag()``, the executors' node access --
    materializes the payload's object web on first touch. The plan
    verb therefore costs O(changed) == O(1) on an unchanged estate,
    while apply still gets the full plan for free semantics.
    """

    def __init__(self, lookup: Any):
        object.__setattr__(self, "_clc_lookup", lookup)

    def _clc_materialize(self) -> Plan:
        return object.__getattribute__(self, "_clc_lookup").plan

    def render(self) -> str:
        text = object.__getattribute__(self, "_clc_lookup").plan_render
        if text is not None:
            return text
        return object.__getattribute__(self, "_clc_materialize")().render()

    def __getattribute__(self, name: str):
        if (
            name.startswith("_clc_")
            or name.startswith("__")
            or name == "render"
        ):
            return object.__getattribute__(self, name)
        return getattr(
            object.__getattribute__(self, "_clc_materialize")(), name
        )

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._clc_materialize(), name, value)


@dataclasses.dataclass
class EngineApplyResult:
    """Everything one ``apply`` produced."""

    validation: Optional[ValidationReport]
    admission: Optional[AdmissionDecision]
    plan: Optional[Plan]
    apply: Optional[ApplyResult]
    diagnoses: List[Diagnosis]
    snapshot_version: Optional[int] = None

    @property
    def ok(self) -> bool:
        if self.validation is not None and not self.validation.ok:
            return False
        if self.admission is not None and not self.admission.allowed:
            return False
        return self.apply is not None and self.apply.ok

    @property
    def partial(self) -> bool:
        """Degraded-mode completion: the reachable subgraph converged
        and the rest is quarantined behind unreachable partitions."""
        return self.apply is not None and self.apply.partial

    @property
    def quarantined(self) -> Dict[str, Any]:
        return self.apply.quarantined if self.apply is not None else {}


@dataclasses.dataclass
class EngineResumeResult:
    """Outcome of a crash-recovery resume: repairs + the continued apply."""

    recovery: Optional[RecoveryReport]
    result: EngineApplyResult

    @property
    def ok(self) -> bool:
        return self.result.ok


class CloudlessEngine:
    """One tenant's cloudless control plane."""

    def __init__(
        self,
        gateway: Optional[CloudGateway] = None,
        registry: Optional[SchemaRegistry] = None,
        loader: Optional[ModuleLoader] = None,
        executor: str = "critical-path",
        validation_level: str = LEVEL_RULES,
        concurrency: int = 10,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        wal_path: Optional[str] = None,
        health: Optional[HealthMonitor] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        cache_dir: Optional[str] = None,
    ):
        self.seed = seed
        #: when set, every apply journals its intents here and
        #: :meth:`resume` can recover a crashed run from it
        self.wal_path = wal_path
        self.gateway = gateway or CloudGateway.simulated(seed=seed)
        #: one partition-health ledger shared by every layer: the
        #: executors gate dispatch on it, the resilient wrapper fails
        #: fast on it, and drift detection skips partitions it marks
        #: unreachable
        self.health = health or HealthMonitor(policy=breaker_policy)
        # one shared resilience wrapper for the synchronous lifecycle
        # verbs (watch/reconcile/rollback/import/data reads); the deploy
        # executors keep the raw gateway -- their event-loop retry must
        # stay byte-identical to the golden reference
        self.resilient = ResilientGateway.wrap(self.gateway, health=self.health)
        self.registry = registry or SchemaRegistry.default()
        self.loader = loader
        self.executor_name = executor
        self.concurrency = concurrency
        self.retry = retry
        self.state = StateDocument()
        self.history = SnapshotHistory()
        self.controller = InfrastructureController()
        self.cost = CostEstimator()
        self.debugger = IaCDebugger(self.registry)
        self.watcher = LogWatchDetector(self.resilient)
        #: lazily-built continuous-reconciliation loop (see
        #: :meth:`watch_continuously`); shares ``self.watcher``'s cursors
        self.continuous_watcher: Optional[DriftWatcher] = None
        self.validation = ValidationPipeline(
            registry=self.registry, level=validation_level
        )
        self.planner = Planner(
            spec_lookup=self.gateway.try_spec,
            region_lookup=self.gateway.region_for,
            provider_lookup=self.gateway.provider_of,
        )
        self.last_sources: Dict[str, str] = {}
        self.last_variables: Dict[str, Any] = {}
        #: persistent compiled-artifact cache (``cache_dir=None`` keeps
        #: every compile cold); see :mod:`repro.compilecache`
        self.compile_cache = None
        if cache_dir:
            from ..compilecache import CompileCache

            self.compile_cache = CompileCache(cache_dir)
        # cache context for the most recent _coerce_sources call, so
        # plan() can tell whether the Configuration it received came
        # from an exact artifact hit (graph reusable) or a fresh parse
        self._cache_ctx: Optional[_CacheContext] = None

    # -- helpers ------------------------------------------------------------

    @property
    def clock(self):
        return self.gateway.clock

    def _coerce_sources(
        self, sources: Sources, variables: Optional[Dict[str, Any]] = None
    ) -> tuple:
        if isinstance(sources, Configuration):
            if isinstance(sources, _LazyConfiguration):
                # do not touch attributes: listing files would
                # materialize the payload the lazy hit is avoiding
                return sources, {}
            return sources, {
                f.filename: "" for f in sources.files
            }  # originals unavailable
        if isinstance(sources, str):
            sources = {"main.clc": sources}
        texts = dict(sources)
        cache = self.compile_cache
        if cache is None:
            return Configuration.parse_streaming(texts), texts
        from ..compilecache import schema_fingerprint, variables_fingerprint

        vfp = variables_fingerprint(variables)
        sfp = schema_fingerprint(self.gateway)
        lookup = cache.load(texts, vfp, sfp)
        if lookup is not None and lookup.exact:
            # serve a lazy facade: if the plan fingerprints also match,
            # the whole warm run finishes without unpickling the
            # artifact's object web (O(changed), not O(estate))
            config = _LazyConfiguration(lookup)
        else:
            # partial hit: unchanged chunks skip lex+parse via the
            # artifact's resident chunk-AST table
            config = Configuration.parse_streaming(
                texts, reuse=lookup.config if lookup is not None else None
            )
        self._cache_ctx = _CacheContext(
            config=config, texts=texts, variables_fp=vfp, schema_fp=sfp,
            lookup=lookup,
        )
        return config, texts

    def _executor(self) -> PlanExecutor:
        cls = EXECUTORS.get(self.executor_name)
        if cls is None:
            raise EngineError(f"unknown executor {self.executor_name!r}")
        if cls is SequentialExecutor:
            return cls(self.gateway, retry=self.retry, health=self.health)
        return cls(
            self.gateway,
            concurrency=self.concurrency,
            retry=self.retry,
            health=self.health,
        )

    # -- lifecycle verbs ---------------------------------------------------------

    def validate(
        self, sources: Sources, variables: Optional[Dict[str, Any]] = None
    ) -> ValidationReport:
        config, _ = self._coerce_sources(sources, variables)
        return self.validation.validate(
            config, variables=variables, loader=self.loader
        )

    def plan(
        self,
        sources: Sources,
        variables: Optional[Dict[str, Any]] = None,
        state: Optional[StateDocument] = None,
    ) -> Plan:
        from ..graph.builder import GraphBuildError
        from ..lang.diagnostics import CLCError

        config, _ = self._coerce_sources(sources, variables)
        ctx = self._cache_ctx
        if ctx is None or ctx.config is not config:
            ctx = None
        lookup = ctx.lookup if ctx is not None else None
        exact = lookup is not None and lookup.exact
        working = (state if state is not None else self.state).copy()
        if exact:
            # the cached Plan is only as good as the state and data
            # reads it was computed against; fingerprint both before
            # serving it. A plan journaled with the empty-data
            # fingerprint was computed against a graph with no data
            # sources, so nothing about it can have moved -- serve the
            # lazy facade without materializing graph or plan at all.
            state_fp = _fingerprint_json(working.to_json())
            if (
                lookup.plan_render is not None
                and lookup.plan_state_fp == state_fp
                and lookup.plan_data_fp == _EMPTY_DATA_FP
            ):
                return _LazyArtifactPlan(lookup)
            # exact artifact hit: the expanded graph replays as-is
            graph = lookup.graph
        else:
            try:
                graph = build_graph(
                    config, variables=variables, loader=self.loader
                )
            except (GraphBuildError, CLCError) as exc:
                raise EngineError(str(exc))
        data_values = read_data_sources(self.resilient, graph, working)
        if ctx is None:
            return self.planner.plan(graph, working, data_values=data_values)
        state_fp = _fingerprint_json(working.to_json())
        data_fp = _fingerprint_data(data_values)
        if (
            exact
            and lookup.plan is not None
            and lookup.plan_state_fp == state_fp
            and lookup.plan_data_fp == data_fp
        ):
            return lookup.plan
        plan = self.planner.plan(graph, working, data_values=data_values)
        assert self.compile_cache is not None
        self.compile_cache.store(
            ctx.texts,
            ctx.variables_fp,
            ctx.schema_fp,
            lookup.config if exact else config,
            graph,
            plan=plan,
            plan_state_fp=state_fp,
            plan_data_fp=data_fp,
        )
        return plan

    def apply(
        self,
        sources: Sources,
        variables: Optional[Dict[str, Any]] = None,
        validate_first: bool = True,
        admit: bool = True,
        checkpoint: bool = True,
        crash_hook: Optional[Any] = None,
        _journal: Optional[IntentJournal] = None,
    ) -> EngineApplyResult:
        config, source_texts = self._coerce_sources(sources, variables)
        validation: Optional[ValidationReport] = None
        if validate_first:
            validation = self.validation.validate(
                config, variables=variables, loader=self.loader
            )
            if not validation.ok:
                return EngineApplyResult(
                    validation=validation,
                    admission=None,
                    plan=None,
                    apply=None,
                    diagnoses=[],
                )
        plan = self.plan(config, variables=variables)
        admission: Optional[AdmissionDecision] = None
        if admit:
            admission = self.controller.admit(
                plan, self.state, cost_estimator=self.cost, variables=variables
            )
            if not admission.allowed:
                return EngineApplyResult(
                    validation=validation,
                    admission=admission,
                    plan=plan,
                    apply=None,
                    diagnoses=[],
                )
        journal = _journal
        if journal is None and self.wal_path:
            journal = IntentJournal(self.wal_path)
            journal.begin_run()
        if journal is not None or crash_hook is not None:
            result = self._executor().apply(
                plan, wal=journal, crash_hook=crash_hook
            )
        else:
            # no WAL, no crash hook: the historical call, byte-identical
            # scheduling to the golden reference
            result = self._executor().apply(plan)
        if journal is not None and result.ok:
            journal.mark_clean()
            journal.close()
        elif journal is not None and result.partial:
            # degraded-mode completion: keep the journal's contents (the
            # quarantined intents are the resume's work list) but close
            # the handle so an in-process resume re-reads a flushed file
            journal.close()
        assert result.state is not None
        self.state = result.state
        self._store_outputs(plan, result)
        self.last_sources = source_texts
        self.last_variables = dict(variables or {})
        diagnoses = (
            self.debugger.diagnose_apply(plan, result) if result.failed else []
        )
        snapshot_version: Optional[int] = None
        if checkpoint and result.ok:
            snap = self.history.checkpoint(
                self.state,
                source_texts,
                timestamp=self.clock.now,
                description=f"apply ({plan.summary()})",
            )
            snapshot_version = snap.version
        return EngineApplyResult(
            validation=validation,
            admission=admission,
            plan=plan,
            apply=result,
            diagnoses=diagnoses,
            snapshot_version=snapshot_version,
        )

    def _store_outputs(self, plan: Plan, result: ApplyResult) -> None:
        """Evaluate root-module outputs post-apply into state.outputs."""
        if not result.ok or plan.graph.root_context is None:
            return
        try:
            outputs = plan.graph.root_context.output_values()
        except Exception:
            return
        from ..lang.values import is_unknown

        self.state.outputs = {
            name: value
            for name, value in outputs.items()
            if not is_unknown(value)
        }

    def destroy(self) -> EngineApplyResult:
        """Tear down everything the state manages."""
        return self.apply("", validate_first=False, admit=False, checkpoint=False)

    # -- crash recovery -----------------------------------------------------

    def resume(
        self,
        sources: Optional[Sources] = None,
        variables: Optional[Dict[str, Any]] = None,
        validate_first: bool = True,
        admit: bool = True,
        checkpoint: bool = True,
    ) -> "EngineResumeResult":
        """Recover a crashed apply from the intent journal and continue.

        Replays the WAL at ``wal_path``, classifies every intent against
        the live control planes (adopting orphaned creates and noting
        landed deletes -- see :mod:`repro.deploy.recovery`), then
        re-plans and applies the same configuration. The continued apply
        reuses the crashed run's journal and run id, so re-sent creates
        carry the *same* idempotency tokens and cannot duplicate
        resources the crashed run already provisioned.
        """
        if not self.wal_path:
            raise EngineError("resume requires an engine wal_path")
        journal = IntentJournal.resume(self.wal_path)
        recovery: Optional[RecoveryReport] = None
        if journal.run_id is not None and journal.records():
            recovery = CrashRecovery(self.gateway, journal).recover(self.state)
        if sources is None:
            sources = self.last_sources
        if variables is None:
            variables = dict(self.last_variables)
        result = self.apply(
            sources,
            variables=variables,
            validate_first=validate_first,
            admit=admit,
            checkpoint=checkpoint,
            _journal=journal if journal.run_id is not None else None,
        )
        if result.plan is not None:
            self._refresh_dependencies(result.plan)
        return EngineResumeResult(recovery=recovery, result=result)

    def _refresh_dependencies(self, plan: Plan) -> None:
        """Backfill state dependencies for adopted (recovered) entries.

        ``_commit_step`` records each entry's managed predecessors at
        commit time; entries adopted by crash recovery never ran a
        commit, so they carry empty dependency lists. Recompute them
        from the plan graph with the same rule so a recovered state
        document matches an uninterrupted run's byte for byte.
        """
        changed = False
        for cid, node in plan.graph.nodes.items():
            if node is None or node.address.mode != "managed":
                continue
            entry = self.state.get(node.address)
            if entry is None:
                continue
            deps = sorted(
                p
                for p in plan.graph.dag.predecessors(cid)
                if plan.graph.nodes.get(p) is not None
                and plan.graph.nodes[p].address.mode == "managed"
            )
            if deps and list(entry.dependencies) != deps:
                self.state.set(entry.replace(dependencies=deps))
                changed = True
        if changed:
            self.state.bump()

    # -- observe / repair -------------------------------------------------------------

    def watch(self) -> DetectionRun:
        """One drift-detection poll over the activity logs."""
        run = self.watcher.poll(self.state)
        if run.findings:
            self.controller.evaluate_drift(run.findings, self.state, self.clock.now)
        return run

    def watch_continuously(
        self,
        cycles: int = 1,
        interval_s: float = 60.0,
        policy: Optional[Dict[str, str]] = None,
        cursor_path: Optional[str] = None,
        max_lag_s: float = 900.0,
        auto_reconcile: bool = True,
    ) -> List[WatchCycle]:
        """Event-driven continuous reconciliation (see
        :class:`~repro.drift.watcher.DriftWatcher`).

        The watcher is cached across calls so deferred/pending repairs
        survive between invocations; it shares the engine's
        :class:`LogWatchDetector` (one set of cursors, whether you
        ``watch`` once or watch continuously) and partition-health
        ledger."""
        watcher = self.continuous_watcher
        if watcher is None:
            watcher = self.continuous_watcher = DriftWatcher(
                self.resilient,
                health=self.health,
                policy=policy,
                cursor_path=cursor_path,
                max_lag_s=max_lag_s,
                auto_reconcile=auto_reconcile,
                detector=self.watcher,
            )
        else:
            watcher.max_lag_s = max_lag_s
            watcher.auto_reconcile = auto_reconcile
            if policy:
                watcher.reconciler.policy.update(policy)
        out = watcher.run(self.state, cycles=cycles, interval_s=interval_s)
        for cycle in out:
            if cycle.run.findings:
                self.controller.evaluate_drift(
                    cycle.run.findings, self.state, self.clock.now
                )
        return out

    def reconcile(
        self,
        findings: List[DriftFinding],
        policy: Optional[Dict[str, str]] = None,
    ) -> ReconcileReport:
        reconciler = Reconciler(self.resilient, policy=policy)
        return reconciler.reconcile(findings, self.state)

    def rollback(self, version: int) -> RollbackResult:
        """Reversibility-aware rollback to a snapshot version."""
        snapshot = self.history.get(version)
        planner = ReversibilityAwareRollback(self.resilient)
        plan = planner.plan(snapshot, self.state)
        result = planner.execute(plan, self.state)
        self.last_sources = dict(snapshot.config_sources)
        self.history.checkpoint(
            self.state,
            snapshot.config_sources,
            timestamp=self.clock.now,
            description=f"rollback to v{version}",
        )
        return result

    def learn_validation_rules(self, min_support: int = 3) -> int:
        """Mine validation rules from this engine's own deploy history.

        3.2's knowledge-base loop closed: every checkpointed (healthy)
        configuration is a specification-mining example; invariants that
        held across all of them become compile-time checks on future
        changes. Returns how many rules were added.
        """
        from ..validate.mining import DeploymentExample, SpecificationMiner

        examples = []
        for version in self.history.versions():
            snap = self.history.get(version)
            sources = {k: v for k, v in snap.config_sources.items() if v}
            if not sources:
                continue
            try:
                config = Configuration.parse(sources)
                if config.diagnostics.has_errors():
                    continue
                examples.append(
                    DeploymentExample.from_config(config, self.registry)
                )
            except Exception:
                continue
        if not examples:
            return 0
        rules = SpecificationMiner(min_support=min_support).mine(examples)
        existing = {r.info.rule_id for r in self.validation.engine.rules}
        added = 0
        for rule in rules:
            if rule.info.rule_id not in existing:
                self.validation.engine.rules.append(rule)
                added += 1
        return added

    # -- develop ------------------------------------------------------------------------

    def import_estate(
        self, adopt: bool = True, via_api: bool = False
    ) -> PortedProject:
        """Port the live (non-IaC) estate into a structured program.

        ``via_api=True`` enumerates the estate through the paginated
        list API behind the resilience layer instead of the in-memory
        shortcut."""
        project = StructuredImporter(self.registry).import_estate(
            self.resilient, via_api=via_api
        )
        if adopt:
            self.state = project.state.copy()
            self.last_sources = dict(project.sources)
            self.history.checkpoint(
                self.state,
                project.sources,
                timestamp=self.clock.now,
                description="imported existing estate",
            )
        return project

    # -- state surgery (refactor support) ------------------------------------

    def state_move(self, src: str, dst: str) -> None:
        """Rename a resource's address in state without touching the
        cloud -- what lets a config refactor (rename, move into a
        module, adopt count) proceed without destroy/recreate."""
        from ..addressing import ResourceAddress

        src_addr = ResourceAddress.parse(src)
        dst_addr = ResourceAddress.parse(dst)
        entry = self.state.get(src_addr)
        if entry is None:
            raise EngineError(f"no state entry at {src}")
        if self.state.get(dst_addr) is not None:
            raise EngineError(f"destination {dst} already exists in state")
        self.state.remove(src_addr)
        self.state.set(entry.replace(address=dst_addr))
        for other in self.state.resources():
            if src in other.dependencies:
                self.state.set(
                    other.replace(
                        dependencies=[
                            dst if dep == src else dep
                            for dep in other.dependencies
                        ]
                    )
                )
        self.state.bump()

    def state_forget(self, address: str) -> bool:
        """Drop a resource from state (the cloud resource survives,
        unmanaged). Returns whether anything was removed."""
        from ..addressing import ResourceAddress

        removed = self.state.remove(ResourceAddress.parse(address))
        if removed is not None:
            self.state.bump()
        return removed is not None

    def regenerate_config(self, adopt: bool = True) -> PortedProject:
        """Regenerate the program from the managed estate's live values.

        The other half of 3.5's reconciliation: after drift is adopted
        (or repairs landed out of band), re-emit a program that matches
        what is actually deployed, so config and cloud agree again.
        Only resources the state already manages are included.
        """
        managed_ids = {entry.resource_id for entry in self.state.resources()}
        project = StructuredImporter(self.registry).import_estate(
            self.resilient, only_ids=managed_ids
        )
        if adopt:
            self.state = project.state.copy()
            self.last_sources = dict(project.sources)
            self.history.checkpoint(
                self.state,
                project.sources,
                timestamp=self.clock.now,
                description="regenerated program from live estate",
            )
        return project
