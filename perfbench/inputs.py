"""Seeded input generators for the benchmark.

Everything the program under test receives -- CLC sources, the edit
script, out-of-band drift batches, tenant estates and the open-loop
arrival schedule -- is generated here from the benchmark's own seed
with its own ``random.Random``. Nothing comes from ``repro.workloads``,
so a change to the program's own generators cannot move the load.

Seeds map onto a family of ``VARIANTS`` input variants
(``variant = seed % VARIANTS``). Every variant's inputs and expected
final state are recorded in ``golden.json``, so each run can be checked
against values taken from the recorded commit, whatever seed it gets.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Tuple

VARIANTS = 16

COLD_RESOURCES = 5000
EDIT_RESOURCES = 1000
SERVICES_PER_VPC = 32
RESOURCES_PER_SERVICE = 7

TENANTS = 12
TENANT_SERVICES = 3
TENANT_APPLY_VARIANTS = 3
#: op mix offered to the service (fractions of arrivals). Assumed, not
#: measured: no public trace of IaC control-plane traffic gives these
#: shares, and the repository records none (its own service benchmark
#: offers applies only). Mutations lead because the service exists to
#: apply; the bounded per-op latencies do not depend on the shares
OP_MIX = (("apply", 0.40), ("plan", 0.25), ("drift", 0.20), ("stats", 0.15))


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def sha256_json(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- estates -------------------------------------------------------------------


@dataclasses.dataclass
class Service:
    """One service stack: subnet, 2 nics, 2 vms, lb, dns (7 resources)."""

    sid: int
    group: int
    slot: int
    size: str
    rev: int = 0


@dataclasses.dataclass
class Estate:
    """A multi-VPC aws estate the benchmark can render and edit."""

    name: str
    groups: List[int]
    services: Dict[int, Service]
    next_sid: int

    def copy(self) -> "Estate":
        return Estate(
            self.name,
            list(self.groups),
            {k: dataclasses.replace(v) for k, v in self.services.items()},
            self.next_sid,
        )

    @property
    def resource_count(self) -> int:
        return len(self.groups) + RESOURCES_PER_SERVICE * len(self.services)

    def addresses(self) -> List[str]:
        n = self.name
        out = [f"aws_vpc.{n}_g{g}" for g in self.groups]
        for s in self.services.values():
            base = f"{n}_{s.sid}"
            out += [
                f"aws_subnet.{base}",
                f"aws_network_interface.{base}_nic[0]",
                f"aws_network_interface.{base}_nic[1]",
                f"aws_virtual_machine.{base}_vm[0]",
                f"aws_virtual_machine.{base}_vm[1]",
                f"aws_load_balancer.{base}_lb",
                f"aws_dns_record.{base}_dns",
            ]
        return sorted(out)

    def sources(self) -> Dict[str, str]:
        """One ``.clc`` file per VPC group."""
        files: Dict[str, List[str]] = {
            f"group_{g:03d}.clc": [_vpc_block(self.name, g)] for g in self.groups
        }
        for s in sorted(self.services.values(), key=lambda s: s.sid):
            files[f"group_{s.group:03d}.clc"].append(_service_block(self.name, s))
        return {fname: "\n".join(parts) for fname, parts in files.items()}

    def free_slot(self, group: int) -> int:
        used = {s.slot for s in self.services.values() if s.group == group}
        return min(set(range(256)) - used)

    def group_size(self, group: int) -> int:
        return sum(1 for s in self.services.values() if s.group == group)


def _vpc_block(name: str, g: int) -> str:
    return f'''
resource "aws_vpc" "{name}_g{g}" {{
  name       = "{name}-g{g}"
  cidr_block = "10.{g}.0.0/16"
}}
'''


def _service_block(name: str, s: Service) -> str:
    base = f"{name}_{s.sid}"
    label = f"{name}-{s.sid}"
    vpc = f"aws_vpc.{name}_g{s.group}"
    return f'''
resource "aws_subnet" "{base}" {{
  name       = "{label}"
  vpc_id     = {vpc}.id
  cidr_block = cidrsubnet({vpc}.cidr_block, 8, {s.slot})
  tags       = {{ service = "{label}", rev = "{s.rev}" }}
}}

resource "aws_network_interface" "{base}_nic" {{
  count     = 2
  name      = "{label}-nic-${{count.index}}"
  subnet_id = aws_subnet.{base}.id
}}

resource "aws_virtual_machine" "{base}_vm" {{
  count   = 2
  name    = "{label}-vm-${{count.index}}"
  size    = "{s.size}"
  nic_ids = [aws_network_interface.{base}_nic[count.index].id]
  tags    = {{ service = "{label}" }}
}}

resource "aws_load_balancer" "{base}_lb" {{
  name          = "{label}-lb"
  subnet_ids    = [aws_subnet.{base}.id]
  target_vm_ids = aws_virtual_machine.{base}_vm[*].id
}}

resource "aws_dns_record" "{base}_dns" {{
  name  = "{label}-dns"
  zone  = "example.sim"
  value = aws_load_balancer.{base}_lb.dns_name
}}
'''


def make_estate(resources: int, rng: random.Random, name: str) -> Estate:
    """About ``resources`` resources in VPC groups of ~SERVICES_PER_VPC."""
    per_group = RESOURCES_PER_SERVICE * SERVICES_PER_VPC + 1
    n_groups = max(1, round(resources / per_group))
    n_services = max(1, (resources - n_groups) // RESOURCES_PER_SERVICE)
    services: Dict[int, Service] = {}
    for sid in range(n_services):
        group = sid % n_groups
        services[sid] = Service(
            sid=sid,
            group=group,
            slot=sid // n_groups,
            size=rng.choice(("small", "small", "medium", "large")),
            rev=rng.randrange(3),
        )
    return Estate(name, list(range(n_groups)), services, n_services)


# -- cold-estate ---------------------------------------------------------------


def cold_inputs(seed: int) -> Tuple[Estate, Dict]:
    variant = variant_of(seed)
    rng = random.Random(f"cold|{variant}")
    estate = make_estate(COLD_RESOURCES, rng, "cold")
    return estate, {"variant": variant, "world_seed": variant}


# -- edit-loop -----------------------------------------------------------------

EDIT_TAG = "tag"  # in-place tag change: 1 update
EDIT_ADD = "add"  # one new service: 7 creates
EDIT_REMOVE = "remove"  # one service removed: 7 deletes
EXPECTED_SUMMARY = {
    EDIT_TAG: (0, 1, 0),
    EDIT_ADD: (RESOURCES_PER_SERVICE, 0, 0),
    EDIT_REMOVE: (0, 0, RESOURCES_PER_SERVICE),
}
#: one round of the edit loop: EDITS_PER_ROUND edits, a drift batch
#: after every DRIFT_EVERY of them
EDITS_PER_ROUND = 4
DRIFT_EVERY = 2


@dataclasses.dataclass
class Edit:
    kind: str
    sources: Dict[str, str]
    expected: Tuple[int, int, int]  # (add, change, destroy) in the plan line


@dataclasses.dataclass
class DriftBatch:
    """Out-of-band mutations, by IaC address: a vm resize, a dns delete
    and a rogue (unmanaged) bucket."""

    resize_vm: str
    resize_to: str
    delete_dns: str
    rogue_bucket: str


@dataclasses.dataclass
class EditScript:
    initial: Estate
    final: Estate
    steps: List[object]  # Edit | DriftBatch, in order


def edit_inputs(seed: int) -> Tuple[EditScript, Dict]:
    variant = variant_of(seed)
    rng = random.Random(f"edit|{variant}")
    estate = make_estate(EDIT_RESOURCES, rng, "edit")
    initial = estate.copy()
    kinds = [EDIT_TAG, EDIT_ADD, EDIT_REMOVE]
    while len(kinds) < EDITS_PER_ROUND:
        kinds.append(rng.choice(kinds))
    rng.shuffle(kinds)
    steps: List[object] = []
    for index, kind in enumerate(kinds):
        if kind == EDIT_TAG:
            sid = rng.choice(sorted(estate.services))
            estate.services[sid].rev += 1
        elif kind == EDIT_ADD:
            group = rng.choice(estate.groups)
            sid = estate.next_sid
            estate.next_sid += 1
            estate.services[sid] = Service(
                sid, group, estate.free_slot(group), rng.choice(("small", "medium"))
            )
        else:
            # never empty a group: its VPC would then have no services
            candidates = [
                sid
                for sid, s in sorted(estate.services.items())
                if estate.group_size(s.group) > 1
            ]
            del estate.services[rng.choice(candidates)]
        steps.append(Edit(kind, estate.sources(), EXPECTED_SUMMARY[kind]))
        if (index + 1) % DRIFT_EVERY == 0:
            sids = sorted(estate.services)
            vm_sid, dns_sid = rng.sample(sids, 2)
            size = estate.services[vm_sid].size
            steps.append(
                DriftBatch(
                    resize_vm=f"aws_virtual_machine.edit_{vm_sid}_vm[{rng.randrange(2)}]",
                    resize_to="xlarge" if size != "xlarge" else "small",
                    delete_dns=f"aws_dns_record.edit_{dns_sid}_dns",
                    rogue_bucket=f"rogue-{variant}-{index}",
                )
            )
    script = EditScript(initial=initial, final=estate, steps=steps)
    return script, {"variant": variant, "world_seed": variant}


def edit_script_digest(script: EditScript) -> str:
    return sha256_json(
        {
            "initial": script.initial.sources(),
            "steps": [dataclasses.asdict(step) for step in script.steps],
        }
    )


# -- tenant-traffic ------------------------------------------------------------


@dataclasses.dataclass
class Arrival:
    t: float  # due time, seconds from phase start
    tenant: str
    op: str


@dataclasses.dataclass
class TenantInputs:
    tenants: List[str]
    weights: List[float]
    #: tenant -> TENANT_APPLY_VARIANTS source variants
    variants: Dict[str, List[Dict[str, str]]]
    resources: Dict[str, int]


def tenant_inputs(seed: int) -> Tuple[TenantInputs, Dict]:
    variant = variant_of(seed)
    rng = random.Random(f"tenant|{variant}")
    tenants = [f"t{i:02d}" for i in range(TENANTS)]
    # Zipf-skewed traffic shares (weight 1/rank): a few busy tenants.
    # The exponent is assumed, not measured. Estates are all the same
    # small size, so per-op cost does not depend on which tenant a
    # request hits and latency medians stay unimodal
    weights = [1.0 / (rank + 1) for rank in range(TENANTS)]
    rng.shuffle(weights)
    variants: Dict[str, List[Dict[str, str]]] = {}
    resources: Dict[str, int] = {}
    for tenant in tenants:
        estate = make_estate(RESOURCES_PER_SERVICE * TENANT_SERVICES + 1, rng, tenant)
        out = []
        for v in range(TENANT_APPLY_VARIANTS):
            for s in estate.services.values():
                s.rev = v
            out.append(estate.sources())
        variants[tenant] = out
        resources[tenant] = estate.resource_count
    return TenantInputs(tenants, weights, variants, resources), {"variant": variant}


def arrival_schedule(
    seed: int, phase: str, rate_rps: float, duration_s: float, inputs: TenantInputs
) -> List[Arrival]:
    """Poisson arrivals at ``rate_rps`` over ``duration_s`` seconds,
    stratified by second: each second holds exactly its share of the
    rate, placed uniformly at random, so every seed offers the same
    load while arrivals still bunch within a second."""
    rng = random.Random(f"arrivals|{variant_of(seed)}|{phase}")
    ops = [op for op, _ in OP_MIX]
    op_weights = [w for _, w in OP_MIX]
    out: List[Arrival] = []
    for second in range(int(duration_s)):
        count = int(rate_rps * (second + 1)) - int(rate_rps * second)
        for t in sorted(second + rng.random() for _ in range(count)):
            tenant = rng.choices(inputs.tenants, weights=inputs.weights)[0]
            op = rng.choices(ops, weights=op_weights)[0]
            out.append(Arrival(round(t, 6), tenant, op))
    return out


def schedule_digest(schedule: List[Arrival]) -> str:
    return sha256_json([dataclasses.astuple(a) for a in schedule])


#: offered load as multiples of the measured closed-loop capacity
LIGHT_X = 0.4
OVERLOAD_X = 2.0

#: the closed-loop probe sends cycles in which every tenant gets each
#: probe op once, in a seeded order. So after k cycles every tenant has
#: had exactly k applies, whatever the seed, and the probe depends on
#: neither OP_MIX nor the tenant weights
PROBE_OPS = ("apply", "plan", "drift", "stats")
PROBE_CYCLE = TENANTS * len(PROBE_OPS)
PROBE_CYCLES = 80


def probe_sequence(seed: int, inputs: TenantInputs) -> List[Arrival]:
    rng = random.Random(f"arrivals|{variant_of(seed)}|probe")
    cycle = [(tenant, op) for tenant in inputs.tenants for op in PROBE_OPS]
    out: List[Arrival] = []
    for _ in range(PROBE_CYCLES):
        rng.shuffle(cycle)
        for tenant, op in cycle:
            out.append(Arrival(float(len(out)), tenant, op))
    return out


def tenant_schedules(
    seed: int, inputs: TenantInputs, calibration: Dict, horizon_s: float
) -> Dict[str, List[Arrival]]:
    schedules = {
        phase: arrival_schedule(seed, phase, calibration[f"{phase}_rps"], horizon_s, inputs)
        for phase in ("light", "overload")
    }
    schedules["probe"] = probe_sequence(seed, inputs)
    return schedules


def tenant_input_digest(inputs: TenantInputs, schedules: Dict[str, List[Arrival]]) -> str:
    return sha256_json(
        {
            "variants": inputs.variants,
            "schedules": {p: schedule_digest(s) for p, s in schedules.items()},
        }
    )
