"""Incremental update pipeline, impact analysis and incremental
re-planning sessions (E2 machinery)."""

import re

import pytest

from repro import perf
from repro.cloud import CloudGateway
from repro.deploy import (
    CriticalPathExecutor,
    IncrementalSession,
    UpdatePipeline,
    refresh_state,
)
from repro.deploy.incremental import read_data_sources
from repro.graph import ImpactAnalyzer, Planner, build_graph, diff_configurations
from repro.graph.critical_path import clear_analysis_cache
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import microservices, scale_estate


def deploy(gateway, source):
    graph = build_graph(Configuration.parse(source))
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    state = StateDocument()
    data = read_data_sources(gateway, graph, state)
    plan = planner.plan(graph, state, data_values=data)
    result = CriticalPathExecutor(gateway).apply(plan)
    assert result.ok
    return result.state


class TestConfigDelta:
    def test_no_change(self):
        src = microservices(services=2)
        delta = diff_configurations(
            Configuration.parse(src), Configuration.parse(src)
        )
        assert delta.is_empty

    def test_attribute_change_detected(self):
        old = microservices(services=2)
        new = old.replace('zone  = "example.sim"', 'zone  = "other.sim"')
        delta = diff_configurations(
            Configuration.parse(old), Configuration.parse(new)
        )
        assert not delta.is_empty
        changed_types = {key[1] for key in delta.changed_resources}
        assert changed_types == {"aws_dns_record"}

    def test_added_and_removed_decls(self):
        old = 'resource "aws_s3_bucket" "a" { name = "a" }\n'
        new = 'resource "aws_s3_bucket" "b" { name = "b" }\n'
        delta = diff_configurations(
            Configuration.parse(old), Configuration.parse(new)
        )
        names = {key[2] for key in delta.changed_resources}
        assert names == {"a", "b"}

    def test_variable_and_local_changes(self):
        old = 'variable "n" { default = 1 }\nlocals { x = 1 }\n'
        new = 'variable "n" { default = 2 }\nlocals { x = 2 }\n'
        delta = diff_configurations(
            Configuration.parse(old), Configuration.parse(new)
        )
        assert delta.changed_variables == {"n"}
        assert delta.changed_locals == {"x"}


class TestImpactAnalyzer:
    def test_scope_is_descendants(self):
        src = microservices(services=3, vms_per_service=1)
        graph = build_graph(Configuration.parse(src))
        analyzer = ImpactAnalyzer(graph)
        seeds = {"aws_subnet.svc_0"}
        scope = analyzer.impact_scope(seeds)
        assert "aws_subnet.svc_0" in scope
        assert "aws_virtual_machine.svc_0_vm[0]" in scope
        # service 1 untouched
        assert not any("svc_1" in s for s in scope)

    def test_scope_fraction_small_for_leaf(self):
        src = microservices(services=6, vms_per_service=2)
        graph = build_graph(Configuration.parse(src))
        analyzer = ImpactAnalyzer(graph)
        fraction = analyzer.scope_fraction({"aws_dns_record.svc_0_dns"})
        assert fraction < 0.1

    def test_root_change_taints_all_dependents(self):
        src = microservices(services=3, vms_per_service=1)
        graph = build_graph(Configuration.parse(src))
        analyzer = ImpactAnalyzer(graph)
        scope = analyzer.impact_scope({"aws_vpc.svc"})
        # everything except the independent IAM role flows from the VPC
        assert scope == set(graph.nodes) - {"aws_iam_role.svc_role"}


class TestRefresh:
    def test_full_refresh_reads_everything(self):
        gateway = CloudGateway.simulated(seed=20)
        state = deploy(gateway, microservices(services=2, vms_per_service=1))
        before = gateway.total_api_calls()
        result = refresh_state(gateway, state)
        assert len(result.refreshed) == len(state)
        assert result.api_calls == len(state)
        assert gateway.total_api_calls() - before == len(state)

    def test_scoped_refresh_reads_subset(self):
        gateway = CloudGateway.simulated(seed=20)
        state = deploy(gateway, microservices(services=2, vms_per_service=1))
        subset = {str(state.resources()[0].address)}
        result = refresh_state(gateway, state, addresses=subset)
        assert result.api_calls == 1

    def test_refresh_pulls_in_drift(self):
        gateway = CloudGateway.simulated(seed=20)
        state = deploy(gateway, microservices(services=1, vms_per_service=1))
        vm = next(
            e for e in state.resources() if e.address.type == "aws_virtual_machine"
        )
        gateway.planes["aws"].external_update(vm.resource_id, {"size": "large"})
        result = refresh_state(gateway, state)
        assert str(vm.address) in result.drifted
        # entries are immutable: the refreshed values live in a
        # successor entry in state, not in the stale reference
        assert state.get(vm.address).attrs["size"] == "large"

    def test_refresh_drops_missing(self):
        gateway = CloudGateway.simulated(seed=20)
        state = deploy(gateway, 'resource "aws_s3_bucket" "b" { name = "b" }\n')
        rid = state.resources()[0].resource_id
        gateway.planes["aws"].external_delete(rid)
        result = refresh_state(gateway, state)
        assert result.missing == ["aws_s3_bucket.b"]
        assert len(state) == 0


class TestUpdatePipeline:
    def run_both(self, delta_fn):
        outcomes = {}
        for incremental in (False, True):
            gateway = CloudGateway.simulated(seed=21)
            old_src = microservices(services=4, vms_per_service=2)
            state = deploy(gateway, old_src)
            new_src = delta_fn(old_src)
            pipeline = UpdatePipeline(gateway, incremental=incremental)
            outcomes[incremental] = pipeline.plan_update(
                Configuration.parse(old_src),
                Configuration.parse(new_src),
                state,
            )
        return outcomes[False], outcomes[True]

    def test_small_delta_small_scope(self):
        full, scoped = self.run_both(
            lambda s: s.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )
        assert scoped.scope_size < scoped.plan.graph if False else True
        assert scoped.scope_size < len(scoped.graph)
        # both plans agree on what changes
        assert full.plan.summary()["update"] == scoped.plan.summary()["update"]

    def test_incremental_uses_fewer_api_calls(self):
        full, scoped = self.run_both(
            lambda s: s.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )
        assert scoped.refresh.api_calls < full.refresh.api_calls / 2

    def test_incremental_faster_turnaround(self):
        full, scoped = self.run_both(
            lambda s: s.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )
        assert scoped.turnaround_s < full.turnaround_s

    def test_plans_equivalent_on_scoped_change(self):
        full, scoped = self.run_both(
            lambda s: s.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )
        full_actions = {
            cid: c.action.value
            for cid, c in full.plan.changes.items()
            if c.action.value not in ("noop", "read")
        }
        scoped_actions = {
            cid: c.action.value
            for cid, c in scoped.plan.changes.items()
            if c.action.value not in ("noop", "read")
        }
        assert full_actions == scoped_actions


# -- incremental re-planning sessions -----------------------------------------


def make_plan(source, seed=0):
    clear_analysis_cache()
    gateway = CloudGateway.simulated(seed=seed)
    graph = build_graph(Configuration.parse(source))
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    state = StateDocument()
    data = read_data_sources(gateway, graph, state)
    return gateway, planner.plan(graph, state, data_values=data)


def _decl_block(source, rtype, name):
    """Extract one resource block from generated source text."""
    pattern = re.compile(
        r'resource "%s" "%s" \{.*?\n\}' % (re.escape(rtype), re.escape(name)),
        re.S,
    )
    match = pattern.search(source)
    assert match, f"{rtype}.{name} not in source"
    return match.group(0)


class TestIncrementalSession:
    def converge(self, source, seed=21):
        gateway, plan = make_plan(source, seed=seed)
        result = CriticalPathExecutor(gateway).apply(plan)
        assert result.ok
        return gateway, result.state

    def test_noop_patch_plans_nothing(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        session = IncrementalSession(gateway, source=source)
        patch = _decl_block(source, "aws_vpc", "scale_g0")
        result = session.replan(patch, state)
        assert result.mode == "incremental"
        assert result.dirty == []
        assert result.scope == set()
        assert not result.plan.actionable()

    def test_attr_edit_replans_impact_scope_only(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        session = IncrementalSession(gateway, source=source)
        block = _decl_block(source, "aws_virtual_machine", "scale_3_vm")
        patch = block.replace('service = "scale-3"', 'service = "scale-3b"')
        assert patch != block
        result = session.replan(patch, state)
        assert result.mode == "incremental"
        assert result.dirty == [("managed", "aws_virtual_machine", "scale_3_vm")]
        assert result.scope is not None
        assert 0 < result.scope_size < len(session.graph.dag.nodes)
        actions = {
            c.id: c.action.name
            for c in result.plan.actionable()
        }
        assert actions and all(
            "scale_3" in cid or "scale-3" in cid for cid in actions
        )

    def test_incremental_plan_matches_full_pipeline(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        block = _decl_block(source, "aws_virtual_machine", "scale_3_vm")
        edited_block = block.replace(
            'service = "scale-3"', 'service = "scale-3b"'
        )
        session = IncrementalSession(gateway, source=source)
        inc = session.replan(edited_block, state)

        full_source = source.replace(block, edited_block)
        graph = build_graph(Configuration.parse(full_source))
        planner = session.planner
        data = read_data_sources(gateway, graph, state)
        full = planner.plan(graph, state.copy(), data_values=data)

        def plan_signature(plan):
            return sorted(
                (c.id, c.action.name, sorted(d.name for d in c.diffs))
                for c in plan.actionable()
            )

        assert plan_signature(inc.plan) == plan_signature(full)

    def test_add_and_remove_decls(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        session = IncrementalSession(gateway, source=source)
        patch = """
resource "aws_dns_record" "extra" {
  name  = "extra"
  zone  = "scale.example.com"
  value = aws_load_balancer.scale_2_lb.dns_name
  ttl   = 60
}
"""
        result = session.replan(patch, state)
        assert result.mode == "incremental"
        creates = [
            c for c in result.plan.actionable()
            if c.action.name == "CREATE"
        ]
        assert [c.id for c in creates] == ["aws_dns_record.extra"]

        removal = session.replan(
            "",
            state,
            remove=(
                "aws_dns_record.scale_4_dns",
                "aws_load_balancer.scale_4_lb",
            ),
        )
        assert removal.mode == "incremental"
        deletes = sorted(
            c.id
            for c in removal.plan.actionable()
            if c.action.name == "DELETE"
        )
        assert deletes == [
            "aws_dns_record.scale_4_dns",
            "aws_load_balancer.scale_4_lb",
        ]

    def test_unsupported_patch_falls_back_to_rebuild(self):
        source = scale_estate(70)
        gateway, state = self.converge(source)
        session = IncrementalSession(gateway, source=source)
        patch = """
locals {
  extra_tag = "x"
}
"""
        result = session.replan(patch, state)
        assert result.mode == "rebuild"
        assert session.rebuilds == 1
        # the session still plans correctly after the rebuild
        follow_up = session.replan(
            _decl_block(source, "aws_vpc", "scale_g0"), state
        )
        assert follow_up.mode == "incremental"

    def test_incremental_replan_counts_dirty_nodes(self):
        perf.PERF.enable()
        perf.PERF.reset()
        try:
            source = scale_estate(70)
            clear_analysis_cache()
            gateway = CloudGateway.simulated(seed=21)
            session = IncrementalSession(gateway, source=source)
            state = StateDocument()
            block = _decl_block(source, "aws_virtual_machine", "scale_3_vm")
            patch = block.replace(
                'service = "scale-3"', 'service = "scale-3b"'
            )
            result = session.replan(patch, state)
            counters = perf.PERF.snapshot()["counters"]
            assert (
                counters["incremental.dirty_nodes_replanned"]
                == result.scope_size
            )
        finally:
            perf.PERF.reset()
            perf.PERF.disable()
