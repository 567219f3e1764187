"""End-to-end lifecycle through the CloudlessEngine facade (Figure 1b)."""

import pytest

from repro.core import CloudlessEngine, EngineError
from repro.graph.plan import Action
from repro.policy import budget_policy
from repro.porting import verify_fidelity
from repro.workloads import hub_spoke, vpn_site, web_tier


class TestApplyLifecycle:
    def test_validate_plan_apply(self, engine, figure2_source):
        report = engine.validate(figure2_source)
        assert report.ok
        plan = engine.plan(figure2_source)
        assert plan.summary()["create"] == 4
        result = engine.apply(figure2_source)
        assert result.ok
        assert len(engine.state) == 4
        assert result.snapshot_version == 1

    def test_invalid_config_never_reaches_cloud(self, engine):
        bad = 'resource "azure_virtual_machine" "vm" {\n  name = "v"\n}\n'
        result = engine.apply(bad)
        assert not result.ok
        assert result.validation is not None and not result.validation.ok
        assert result.apply is None
        assert engine.gateway.total_api_calls() == 0

    def test_idempotent_reapply(self, engine):
        source = web_tier(web_vms=2, app_vms=1)
        first = engine.apply(source)
        calls_after_first = engine.gateway.total_api_calls()
        second = engine.apply(source)
        assert second.ok
        assert second.plan.is_empty
        # the no-op re-apply issued zero additional write calls
        assert engine.gateway.total_api_calls() == calls_after_first

    def test_grow_and_shrink(self, engine):
        engine.apply(web_tier(web_vms=2))
        grow = engine.apply(web_tier(web_vms=5))
        assert grow.ok
        assert grow.plan.summary()["create"] == 6  # 3 VMs + 3 NICs
        shrink = engine.apply(web_tier(web_vms=1))
        assert shrink.ok
        assert shrink.plan.summary()["delete"] == 8

    def test_destroy(self, engine):
        engine.apply(web_tier())
        result = engine.destroy()
        assert result.ok
        assert len(engine.state) == 0
        assert engine.gateway.planes["aws"].count() == 0

    def test_multi_cloud_apply(self, engine):
        result = engine.apply(web_tier(web_vms=1, app_vms=1) + hub_spoke(spokes=1, with_gateway=False))
        assert result.ok
        assert engine.gateway.planes["aws"].count() > 0
        assert engine.gateway.planes["azure"].count() > 0

    def test_variables_flow_through(self, engine):
        result = engine.apply(vpn_site(), variables={"tunnel_count": 3})
        assert result.ok
        assert engine.gateway.planes["aws"].count("aws_vpn_tunnel") == 3

    def test_executor_selection(self):
        for name in ("sequential", "best-effort", "critical-path"):
            engine = CloudlessEngine(seed=90, executor=name)
            assert engine.apply(web_tier(web_vms=1, app_vms=0, with_lb=False, with_db=False)).ok
        with pytest.raises(EngineError):
            CloudlessEngine(seed=90, executor="quantum").apply(web_tier())


class TestLifecycleIntegration:
    def test_full_story(self):
        """develop -> validate -> deploy -> drift -> repair -> rollback."""
        engine = CloudlessEngine(seed=91)
        engine.controller.register(budget_policy(max_monthly_usd=1e6))

        # deploy v1
        v1 = engine.apply(web_tier(web_vms=2))
        assert v1.ok

        # out-of-band change appears in the watch loop
        vm = next(
            e
            for e in engine.state.resources()
            if e.address.type == "aws_virtual_machine"
        )
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "xlarge"}, actor="intern"
        )
        run = engine.watch()
        assert [f.kind for f in run.findings] == ["modified"]

        # reconcile back to golden state
        report = engine.reconcile(run.findings)
        assert all(a.ok for a in report.actions)

        # scale up, then roll back via the time machine
        v2 = engine.apply(web_tier(web_vms=4))
        assert v2.ok
        rollback = engine.rollback(v1.snapshot_version)
        assert rollback.ok
        assert (
            engine.gateway.planes["aws"].count("aws_virtual_machine") == 4
        )  # 2 web + 2 app (web_tier's default app tier)

    def test_import_then_manage(self):
        """The 3.1 porting path: ClickOps estate adopted into IaC."""
        engine = CloudlessEngine(seed=92)
        plane = engine.gateway.planes["aws"]
        vpc_id = plane.external_create(
            "aws_vpc", {"name": "legacy", "cidr_block": "10.0.0.0/16"}, "us-east-1"
        )
        for i in range(3):
            plane.external_create(
                "aws_subnet",
                {
                    "name": f"legacy-{i}",
                    "vpc_id": vpc_id,
                    "cidr_block": f"10.0.{i}.0/24",
                },
                "us-east-1",
            )
        project = engine.import_estate(adopt=True)
        assert len(engine.state) == 4
        assert verify_fidelity(project).ok
        # the imported program plans clean against the adopted state
        plan = engine.plan(project.sources)
        assert plan.is_empty

    def test_failure_produces_diagnoses(self):
        engine = CloudlessEngine(seed=93)
        bad = (
            'resource "azure_resource_group" "rg" {\n'
            '  name = "rg"\n  location = "eastus"\n}\n'
            'resource "azure_virtual_network" "v" {\n'
            '  name = "v"\n'
            "  resource_group_id = azure_resource_group.rg.id\n"
            '  location = "eastus"\n'
            '  address_spaces = ["10.0.0.0/16"]\n'
            "}\n"
            'resource "azure_subnet" "s" {\n'
            '  name = "s"\n'
            "  vnet_id = azure_virtual_network.v.id\n"
            '  address_prefix = "10.0.1.0/24"\n'
            "}\n"
            'resource "azure_network_interface" "n" {\n'
            '  name = "n"\n'
            "  subnet_id = azure_subnet.s.id\n"
            '  location = "westeurope"\n'
            "}\n"
            'resource "azure_virtual_machine" "vm" {\n'
            '  name = "vm"\n'
            '  location = "eastus"\n'
            "  nic_ids = [azure_network_interface.n.id]\n"
            "}\n"
        )
        result = engine.apply(bad, validate_first=False)
        assert not result.ok
        assert result.diagnoses
        assert result.diagnoses[0].confidence > 0.5

    def test_history_accumulates(self):
        engine = CloudlessEngine(seed=94)
        engine.apply(web_tier(web_vms=1))
        engine.apply(web_tier(web_vms=2))
        engine.apply(web_tier(web_vms=3))
        assert engine.history.versions() == [1, 2, 3]
        diff = engine.history.diff(1, 3)
        assert len(diff.added) == 4  # 2 VMs + 2 NICs


class TestCompileOnce:
    VPC = 'resource "aws_vpc" "main" {\n  name = "c1-vpc"\n  cidr_block = "10.0.0.0/16"\n}\n'
    SUBNETS = (
        'locals {\n  vpc = aws_vpc.main.id\n}\n'
        'resource "aws_subnet" "s" {\n  name = "c1-subnet"\n'
        '  vpc_id = local.vpc\n  cidr_block = "10.0.1.0/24"\n}\n'
    )

    def test_validate_and_plan_share_one_graph(self, monkeypatch):
        from repro.graph import builder

        builds = []
        original = builder.GraphBuilder.build
        monkeypatch.setattr(
            builder.GraphBuilder,
            "build",
            lambda self: builds.append(1) or original(self),
        )
        engine = CloudlessEngine(seed=5)
        compiled = engine.compile(web_tier(web_vms=2, app_vms=1))
        assert engine.validate(compiled).ok
        assert engine.plan(compiled).summary()["create"] > 0
        assert len(builds) == 1

    def test_shared_graph_plans_state_backed_locals(self):
        # validation evaluates local.vpc before the plan binds the graph
        # to state; the plan must still see the deployed VPC's id
        engine = CloudlessEngine(seed=5)
        assert engine.apply(self.VPC).ok
        vpc_id = engine.state.resources()[0].resource_id
        source = self.VPC + self.SUBNETS
        compiled = engine.compile(source)
        assert engine.validate(compiled).ok
        shared = engine.plan(compiled).render()
        assert repr(vpc_id) in shared
        assert shared == engine.plan(source).render()

    def test_one_shot_apply_reads_a_resource_id_through_a_local(self):
        # planning memoizes nothing Unknown, so apply evaluates local.vpc
        # again once the VPC exists
        engine = CloudlessEngine(seed=5)
        assert engine.apply(self.VPC + self.SUBNETS).ok
        by_address = {str(e.address): e for e in engine.state.resources()}
        vpc = by_address["aws_vpc.main"]
        assert by_address["aws_subnet.s"].attrs["vpc_id"] == vpc.resource_id

    def test_syntax_error_is_a_syntax_diagnostic(self):
        engine = CloudlessEngine(seed=5)
        source = 'resource "aws_vpc" "v" {\n  name = "\\q"\n}\n'
        report = engine.validate(source)
        assert [d.code for d in report.errors] == ["SYNTAX"]
        assert "main.clc:2:12" in str(report)
        result = engine.apply(source)
        assert result.validation is not None and not result.validation.ok
        assert result.apply is None
        with pytest.raises(EngineError, match="main.clc:2:12"):
            engine.plan(source)
