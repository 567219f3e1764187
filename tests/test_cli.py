"""CLI end-to-end tests (in tmp project directories)."""

import os

import pytest

from repro.cli import build_parser, main

PROGRAM = """
variable "vm_count" {
  type    = number
  default = 2
}

resource "aws_vpc" "main" {
  name       = "cli-vpc"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  name       = "cli-subnet"
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 0)
}

resource "aws_virtual_machine" "web" {
  count   = var.vm_count
  name    = "cli-web-${count.index}"
  nic_ids = [aws_network_interface.nic[count.index].id]
}

resource "aws_network_interface" "nic" {
  count     = var.vm_count
  name      = "cli-nic-${count.index}"
  subnet_id = aws_subnet.s.id
}

output "vm_names" { value = aws_virtual_machine.web[*].name }
"""


@pytest.fixture
def project(tmp_path):
    path = tmp_path / "proj"
    path.mkdir()
    (path / "main.clc").write_text(PROGRAM)
    return str(path)


def run(project, *argv):
    return main(["--chdir", project, *argv])


class TestCliLifecycle:
    def test_init_creates_world(self, project, capsys):
        assert run(project, "init") == 0
        assert os.path.exists(os.path.join(project, "cloudless.world"))
        assert "aws, azure" in capsys.readouterr().out

    def test_init_refuses_overwrite(self, project):
        assert run(project, "init") == 0
        assert run(project, "init") == 1
        assert run(project, "init", "--force") == 0

    def test_validate_plan_apply_show(self, project, capsys):
        run(project, "init")
        assert run(project, "validate") == 0
        assert run(project, "plan") == 0
        out = capsys.readouterr().out
        assert "6 to add" in out
        assert run(project, "apply") == 0
        out = capsys.readouterr().out
        assert "apply complete" in out
        assert "vm_names" in out
        assert run(project, "show") == 0
        out = capsys.readouterr().out
        assert "aws_vpc.main" in out

    def test_apply_persists_between_invocations(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        capsys.readouterr()
        assert run(project, "plan") == 0
        out = capsys.readouterr().out
        assert "0 to add, 0 to change, 0 to destroy" in out

    def test_vars_flow(self, project, capsys):
        run(project, "init")
        assert run(project, "apply", "--var", "vm_count=3") == 0
        out = capsys.readouterr().out
        assert "cli-web-2" in out

    def test_validation_gate_blocks_apply(self, project, capsys):
        run(project, "init")
        broken = PROGRAM.replace(
            "nic_ids = [aws_network_interface.nic[count.index].id]",
            "nic_ids = [aws_subnet.s.id]",
        )
        with open(os.path.join(project, "main.clc"), "w") as handle:
            handle.write(broken)
        assert run(project, "apply") == 1
        out = capsys.readouterr().out
        assert "TYPE009" in out

    def test_history_and_rollback(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        run(project, "apply", "--var", "vm_count=4")
        capsys.readouterr()
        assert run(project, "history") == 0
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out
        assert run(project, "rollback", "1") == 0
        capsys.readouterr()
        run(project, "show")
        out = capsys.readouterr().out
        assert "web[3]" not in out

    def test_watch_detects_and_reconciles(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        capsys.readouterr()
        assert run(project, "watch") == 0
        assert "no drift" in capsys.readouterr().out
        # drift out of band, through the persisted world
        from repro.persist import load_world, save_world

        world = os.path.join(project, "cloudless.world")
        engine = load_world(world)
        vm = next(
            e
            for e in engine.state.resources()
            if e.address.type == "aws_virtual_machine"
        )
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "xlarge"}, actor="cron"
        )
        save_world(engine, world)
        assert run(project, "watch", "--reconcile") == 0
        out = capsys.readouterr().out
        assert "modified" in out
        assert "reset cloud attributes" in out

    def test_destroy(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        assert run(project, "destroy") == 0
        capsys.readouterr()
        run(project, "show")
        assert "state is empty" in capsys.readouterr().out

    def test_import_writes_files(self, tmp_path, capsys):
        project = str(tmp_path / "legacy")
        os.mkdir(project)
        assert run(project, "init") == 0
        from repro.persist import load_world, save_world

        world = os.path.join(project, "cloudless.world")
        engine = load_world(world)
        engine.gateway.planes["aws"].external_create(
            "aws_s3_bucket", {"name": "clickops-bucket"}, "us-east-1"
        )
        save_world(engine, world)
        assert run(project, "import") == 0
        main_clc = os.path.join(project, "main.clc")
        assert os.path.exists(main_clc)
        with open(main_clc) as handle:
            assert "clickops-bucket" in handle.read()
        capsys.readouterr()
        assert run(project, "plan") == 0
        assert "0 to add" in capsys.readouterr().out

    def test_missing_world_is_friendly(self, project, capsys):
        assert run(project, "plan") == 1
        assert "init" in capsys.readouterr().err

    def test_bad_var_syntax(self, project):
        run(project, "init")
        assert run(project, "apply", "--var", "oops") == 1


class TestCliExtras:
    def test_providers_lists_catalog(self, project, capsys):
        run(project, "init")
        assert run(project, "providers") == 0
        out = capsys.readouterr().out
        assert "aws_virtual_machine" in out
        assert "azure_vpn_gateway" in out
        assert "us-east-1" in out

    def test_graph_emits_dot(self, project, capsys):
        run(project, "init")
        capsys.readouterr()
        assert run(project, "graph") == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "plan"')
        assert "aws_vpc.main" in out

    def test_outputs_command(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        capsys.readouterr()
        assert run(project, "outputs") == 0
        assert "vm_names" in capsys.readouterr().out

    def test_engine_error_is_friendly(self, project, capsys):
        run(project, "init")
        # a variable validation failure surfaces as a clean CLI error
        with open(os.path.join(project, "main.clc"), "a") as handle:
            handle.write(
                'variable "guard" {\n'
                "  default = 1\n"
                "  validation {\n"
                "    condition     = var.guard > 5\n"
                '    error_message = "guard too small"\n'
                "  }\n"
                "}\n"
            )
        assert run(project, "plan") == 1
        # the validation pipeline reports it with the offending line
        out = capsys.readouterr().out
        assert "guard too small" in out and "main.clc" in out

    def test_apply_rejects_removed_shard_flags(self, capsys):
        for flags in (["--shards", "4"], ["--shard-workers", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["apply", *flags])
        assert "unrecognized arguments" in capsys.readouterr().err
