"""The three benchmark workloads and their output checks.

Each workload returns a :class:`Result`: the end-to-end slots named in
``BENCHMARK.json``, the same figures under their workload-specific
names with units, the output checks that failed, and -- for a traced
run -- the per-layer figures of its traced part.

Workload-specific figures map onto the shared end-to-end slots so that
every workload reports every slot:

=============  ================  ==================  =====================
slot           cold-estate       edit-loop           tenant-traffic
=============  ================  ==================  =====================
plan_s         cold_plan_s       edit_plan_p50_s     idle plan-request p50
apply_s        cold_apply_s      edit_apply_p50_s    idle apply-request p50
repair_s       first watch       drift_repair_s      idle drift-request p50
goodput_per_s  resources/s       edits/s             idle requests/s
ok_frac        1 - error_rate    1 - error_rate      1 - error_rate
=============  ================  ==================  =====================

"Idle" requests come from one closed-loop caller before the open-loop
phases. The light-phase latencies (``req_p50_s`` and the tail) and the
overload goodput (``goodput_rps``) are in the report line.

Every time in a slot is adjusted for the machine's speed around it
(:class:`measure.SpeedAdjust`); the open-loop figures are raw.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import math
import os
import re
import resource
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

import inputs as gen
from measure import SpeedAdjust, layer_metrics, median, tail
from spans import Tracer

from repro import persist
from repro.chaos.invariants import canonical_state
from repro.cli import main as clc_main
from repro.core.engine import CloudlessEngine
from repro.drift.detector import FullScanDetector
from repro.service import ControlPlaneService
from repro.service.admission import STATUS_OF

#: service-layer counts for workloads that run no service
NO_SERVICE = {
    "service.shed_total": 0,
    "service.mode_transitions": 0,
    **{f"service.shed.{reason}": 0 for reason in STATUS_OF},
}

_PLAN_LINE = re.compile(r"Plan: (\d+) to add, (\d+) to change, (\d+) to destroy\.")
_APPLY_LINE = re.compile(r"apply complete in ([\d.]+) simulated seconds")


@dataclasses.dataclass
class Result:
    slots: Dict[str, float] = dataclasses.field(default_factory=dict)
    named: Dict[str, Any] = dataclasses.field(default_factory=dict)
    failures: List[str] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    info: Dict[str, Any] = dataclasses.field(default_factory=dict)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clc:
    """Runs ``clc`` commands in-process, as a user's shell would, and
    times each one adjusted for the machine's speed around it."""

    def __init__(self, result: Result):
        self.result = result
        self.tracer: Optional[Tracer] = None
        self.commands = 0
        self.speed = SpeedAdjust()

    def __call__(self, workdir: str, *argv: str) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        self.commands += 1
        self.result.attempted += 1
        root = (
            self.tracer.root(f"cmd.{argv[0]}", corr=self.commands)
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        with self.speed.around() as samples:
            started = time.perf_counter()
            with root, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = clc_main(["--chdir", workdir, *argv])
            elapsed = time.perf_counter() - started
        elapsed *= self.speed.factor(samples)
        if rc != 0:
            self.result.failed += 1
            self.result.failures.append(
                f"`clc {' '.join(argv)}` exited {rc}: {err.getvalue()[-300:]}"
            )
        return rc, out.getvalue(), elapsed


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _write_sources(workdir: str, sources: Dict[str, str]) -> None:
    for name in os.listdir(workdir):
        if name.endswith(".clc") and name not in sources:
            os.unlink(os.path.join(workdir, name))
    for name, text in sources.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def _plan_counts(text: str) -> Optional[tuple]:
    found = _PLAN_LINE.findall(text)
    return tuple(int(x) for x in found[-1]) if found else None


@contextlib.contextmanager
def _tracing(tracer: Optional[Tracer], clc: Optional[Clc] = None):
    """Wrap every layer's entry points while the block runs; no-op
    without a tracer."""
    if tracer is None:
        yield
        return
    tracer.install()
    if clc is not None:
        clc.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        if clc is not None:
            clc.tracer = None


def _cli_layers(tracer: Tracer, untraced_s: float, traced_s: float) -> Dict[str, float]:
    """Layer figures of a CLI workload's traced round."""
    layers = layer_metrics(tracer.spans)
    layers["trace.attributed_frac"] = layers["trace.layer_s"] / layers["trace.root_s"]
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    layers.update(NO_SERVICE)
    return layers


def _keep_going(started: float, seconds: float, done: int, last: float, least: int) -> bool:
    """Another round fits in the time budget (or the minimum is unmet)."""
    if done < least:
        return True
    return time.perf_counter() - started + last <= seconds


def _check_world(
    result: Result,
    world: str,
    expected_addresses: List[str],
    golden: Dict,
    key: tuple,
    label: str,
    rogue: List[str] = (),
) -> str:
    """Independent checks on a persisted world: the managed addresses
    are exactly the generated ones, state and clouds hold the same ids
    (apart from the ``rogue`` resources made out of band), and the
    content hash matches the one recorded for these inputs. An empty
    ``golden`` means the hashes are being recorded."""
    engine = persist.load_world(world)
    entries = list(engine.state.resources())
    addresses = sorted(str(e.address) for e in entries)
    result.check(
        addresses == expected_addresses,
        f"{label}: state holds {len(addresses)} addresses, inputs declare "
        f"{len(expected_addresses)}",
    )
    state_ids = {e.resource_id for e in entries}
    live_ids = {r.id for r in engine.gateway.all_records()} - set(rogue)
    result.check(
        state_ids == live_ids,
        f"{label}: {len(state_ids - live_ids)} state ids not live, "
        f"{len(live_ids - state_ids)} live ids not in state",
    )
    digest = engine.state.content_hash()
    if golden:
        workload, variant = key
        recorded = golden["content_hash"][workload].get(variant)
        result.check(
            digest == recorded,
            f"{label}: content hash {digest[:12]} != recorded {str(recorded)[:12]}",
        )
    return digest


# -- cold-estate -----------------------------------------------------------------


#: init takes milliseconds, so one window of inits samples the
#: machine's speed at one instant; time this many before the first
#: round and after every round, and report the median of them all
INITS_PER_BATCH = 20


def cold_estate(seed, seconds, trace, work, golden, least=2) -> Result:
    result = Result()
    clc = Clc(result)
    estate, meta = gen.cold_inputs(seed)
    sources = estate.sources()
    expected = estate.addresses()
    variant = str(meta["variant"])
    result.info["inputs_sha256"] = gen.sha256_json(sources)
    result.info["estate_resources"] = estate.resource_count
    result.info["variant"] = meta["variant"]
    init = ["init", "--seed", str(meta["world_seed"])]
    setups: List[float] = []

    def time_inits():
        for k in range(INITS_PER_BATCH):
            setups.append(clc(_fresh(os.path.join(work, f"cold-init-{k}")), *init)[2])

    time_inits()
    rounds: List[Dict[str, float]] = []
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, seconds, len(rounds), last, least):
        round_start = time.perf_counter()
        traced = trace and len(rounds) == 1
        workdir = _fresh(os.path.join(work, f"cold-{len(rounds)}"))
        clc(workdir, *init)
        _write_sources(workdir, sources)
        with _tracing(tracer if traced else None, clc):
            rc, out, plan_s = clc(workdir, "plan")
            result.check(
                _plan_counts(out) == (estate.resource_count, 0, 0),
                f"cold plan summary {_plan_counts(out)}",
            )
            rc, out, apply_s = clc(workdir, "apply")
            result.check(
                _plan_counts(out) == (estate.resource_count, 0, 0),
                f"cold apply summary {_plan_counts(out)}",
            )
            makespan = _APPLY_LINE.search(out)
            rc, out, watch_s = clc(workdir, "watch", "--reconcile")
            result.check("no drift detected" in out, "first watch after deploy found drift")
        rounds.append(
            {
                "plan": plan_s,
                "apply": apply_s,
                "watch": watch_s,
                "makespan": float(makespan.group(1)) if makespan else 0.0,
            }
        )
        digest = _check_world(
            result,
            os.path.join(workdir, "cloudless.world"),
            expected,
            golden,
            ("cold-estate", variant),
            f"cold round {len(rounds)}",
        )
        result.info["content_hash"] = digest
        time_inits()
        last = time.perf_counter() - round_start

    result.info["rounds"] = rounds
    result.info["speed_factor_p50"] = median(clc.speed.factors)
    # a traced run traces its second round; the rest give the e2e figures
    measured = [r for k, r in enumerate(rounds) if not (trace and k == 1)]
    plan_s = median([r["plan"] for r in measured])
    apply_s = median([r["apply"] for r in measured])
    watch_s = median([r["watch"] for r in measured])
    result.slots = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - result.failed / result.attempted,
        "plan_s": plan_s,
        "apply_s": apply_s,
        "repair_s": watch_s,
        "goodput_per_s": estate.resource_count / (plan_s + apply_s),
    }
    result.named = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (result.slots["peak_rss_mb"], "MB"),
        "error_rate": (result.failed / result.attempted, "frac"),
        "cold_plan_s": (plan_s, "s"),
        "cold_apply_s": (apply_s, "s"),
        "sim_makespan_s": (rounds[-1]["makespan"], "sim_s"),
        "first_watch_s": (watch_s, "s"),
        "rounds": (len(rounds), "count"),
    }
    if trace:
        result.layers = _cli_layers(
            tracer,
            sum(rounds[0][k] for k in ("plan", "apply", "watch")),
            sum(rounds[1][k] for k in ("plan", "apply", "watch")),
        )
    return result


# -- edit-loop -------------------------------------------------------------------


def _inject_drift(world: str, batch: gen.DriftBatch) -> str:
    """Untimed: write one batch of out-of-band changes into the world."""
    engine = persist.load_world(world)
    by_address = {str(e.address): e.resource_id for e in engine.state.resources()}
    aws = engine.gateway.planes["aws"]
    aws.external_update(by_address[batch.resize_vm], {"size": batch.resize_to}, actor="console")
    aws.external_delete(by_address[batch.delete_dns], actor="console")
    rogue = aws.external_create(
        "aws_s3_bucket", {"name": batch.rogue_bucket}, region=aws.regions[0], actor="console"
    )
    persist.save_world(engine, world)
    return rogue


def _full_scan_drift(world: str, rogue: List[str]) -> List[str]:
    """Drift a full list-and-diff scan still sees, apart from the rogue
    buckets (unmanaged resources are only reported, never removed)."""
    engine = persist.load_world(world)
    run = FullScanDetector(engine.gateway).scan(engine.state)
    seen_rogue = {f.resource_id for f in run.findings if f.kind == "unmanaged"}
    out = [
        f"{f.kind} {f.address or f.resource_id}"
        for f in run.findings
        if not (f.kind == "unmanaged" and f.resource_id in rogue)
    ]
    out += [f"rogue bucket {r} not reported" for r in rogue if r not in seen_rogue]
    return out


def edit_loop(seed, seconds, trace, work, golden, least=2) -> Result:
    result = Result()
    clc = Clc(result)
    script, meta = gen.edit_inputs(seed)
    variant = str(meta["variant"])
    result.info["inputs_sha256"] = gen.edit_script_digest(script)
    result.info["estate_resources"] = script.initial.resource_count
    result.info["variant"] = meta["variant"]
    result.info["edits_per_round"] = sum(isinstance(s, gen.Edit) for s in script.steps)
    setups: List[float] = []
    rounds: List[Dict[str, List[float]]] = []
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, seconds, len(rounds), last, least):
        round_start = time.perf_counter()
        traced = trace and len(rounds) == 1
        workdir = _fresh(os.path.join(work, f"edit-{len(rounds)}"))
        world = os.path.join(workdir, "cloudless.world")
        _write_sources(workdir, script.initial.sources())
        setup = clc(workdir, "init", "--seed", str(meta["world_seed"]))[2]
        rc, out, deploy_s = clc(workdir, "apply")
        setups.append(setup + deploy_s)
        result.check(
            _plan_counts(out) == (script.initial.resource_count, 0, 0),
            f"edit-loop deploy summary {_plan_counts(out)}",
        )
        times: Dict[str, List[float]] = {"plan": [], "apply": [], "repair": []}
        rogue: List[str] = []
        for step in script.steps:
            if isinstance(step, gen.DriftBatch):
                rogue.append(_inject_drift(world, step))
            else:
                _write_sources(workdir, step.sources)
            with _tracing(tracer if traced else None, clc):
                if isinstance(step, gen.DriftBatch):
                    rc, out, repair_s = clc(workdir, "watch", "--reconcile")
                    times["repair"].append(repair_s)
                else:
                    rc, out, plan_s = clc(workdir, "plan")
                    times["plan"].append(plan_s)
                    result.check(
                        _plan_counts(out) == step.expected,
                        f"{step.kind} edit planned {_plan_counts(out)}, script implies {step.expected}",
                    )
                    rc, out, apply_s = clc(workdir, "apply")
                    times["apply"].append(apply_s)
                    result.check(
                        _plan_counts(out) == step.expected,
                        f"{step.kind} edit applied {_plan_counts(out)}, script implies {step.expected}",
                    )
            if isinstance(step, gen.DriftBatch):
                left = _full_scan_drift(world, rogue)
                result.check(not left, f"drift left after repair: {left[:3]}")
        rounds.append(times)
        digest = _check_world(
            result,
            world,
            script.final.addresses(),
            golden,
            ("edit-loop", variant),
            f"edit round {len(rounds)}",
            rogue,
        )
        result.info["content_hash"] = digest
        last = time.perf_counter() - round_start

    result.info["rounds"] = rounds
    result.info["speed_factor_p50"] = median(clc.speed.factors)
    # a traced run traces its second round; the rest give the e2e figures
    measured = [r for k, r in enumerate(rounds) if not (trace and k == 1)]
    plans = [t for r in measured for t in r["plan"]]
    applies = [t for r in measured for t in r["apply"]]
    repairs = [t for r in measured for t in r["repair"]]
    edits = len(plans)
    result.slots = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - result.failed / result.attempted,
        "plan_s": median(plans),
        "apply_s": median(applies),
        "repair_s": median(repairs),
        "goodput_per_s": edits / (sum(plans) + sum(applies)),
    }
    result.named = {
        "setup_s": (result.slots["setup_s"], "s"),
        "peak_rss_mb": (result.slots["peak_rss_mb"], "MB"),
        "error_rate": (result.failed / result.attempted, "frac"),
        "edit_plan_p50_s": (result.slots["plan_s"], "s"),
        "edit_apply_p50_s": (result.slots["apply_s"], "s"),
        "drift_repair_s": (result.slots["repair_s"], "s"),
        "edits": (edits, "count"),
        "repairs": (len(repairs), "count"),
    }
    if trace:
        result.layers = _cli_layers(
            tracer,
            sum(sum(v) for v in rounds[0].values()),
            sum(sum(v) for v in rounds[1].values()),
        )
    return result


# -- tenant-traffic --------------------------------------------------------------

#: shares of the run: closed-loop probe of an idle service, then the
#: light and overload open-loop phases. The probe feeds the bounded
#: slots, so it gets most of the run
PROBE_SHARE = 0.6
LIGHT_SHARE = 0.2
#: the probe is a fixed amount of work, not a time window: each apply
#: lengthens its tenant's history and later applies cost more, so a
#: timed window would make a faster program report slower applies.
#: The probe sends this many cycles of PROBE_CYCLE requests per second
#: of its share: 29 cycles, about 16 s of a 35 s run on 2 cpus
PROBE_CYCLES_PER_S = 1.4
#: arrival schedules are generated for this long and cut to the phase
SCHEDULE_HORIZON_S = 30.0
SETUPS = 7


@dataclasses.dataclass
class Sent:
    arrival: gen.Arrival
    due: float
    sent: float
    variant: int = 0
    done: float = 0.0
    order: int = -1
    response: Any = None
    #: speed adjustment of a probe request (open-loop times stay raw)
    factor: float = 1.0


class Traffic:
    """Sends requests to the service and keeps what every tenant's
    applies rotate through: each apply deploys the tenant's next
    source variant, so an apply always changes something, and a plan
    previews the next apply. The estates start at variant 0."""

    def __init__(self, service, variants: Dict[str, List[Dict[str, str]]], tracer=None):
        self.service = service
        self.variants = variants
        self.tracer = tracer
        self.next_variant = {tenant: 1 for tenant in variants}
        self.completed = 0

    async def send(self, arrival: gen.Arrival, due: float) -> "tuple":
        tenant, op = arrival.tenant, arrival.op
        variant = self.next_variant[tenant]
        if op == "apply":
            self.next_variant[tenant] = (variant + 1) % gen.TENANT_APPLY_VARIANTS
        payload = (
            {"sources": self.variants[tenant][variant]} if op in ("apply", "plan") else {}
        )
        record = Sent(arrival, due, time.perf_counter(), variant)
        future = await self.service.submit(tenant, op, payload=payload)
        root = None
        if self.tracer is not None:
            root = self.tracer.reserve_root("request", due, id(record), id(future))

        def finished(fut, record=record, root=root):
            record.done = time.perf_counter()
            record.order = self.completed
            self.completed += 1
            record.response = fut.result()
            if root is not None:
                self.tracer.close_root(root, record.done)

        future.add_done_callback(finished)
        return record, future

    async def open_loop(self, schedule: List[gen.Arrival]) -> List[Sent]:
        """Send each arrival when due, from one generator; time each
        request from its due time, so a stall also delays the requests
        behind it."""
        records, futures = [], []
        start = time.perf_counter() + 0.01
        for arrival in schedule:
            due = start + arrival.t
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record, future = await self.send(arrival, due)
            records.append(record)
            futures.append(future)
        await asyncio.gather(*futures)
        return records

    async def closed_loop(self, schedule: List[gen.Arrival]) -> List[Sent]:
        """One caller, next request only after the previous answer."""
        records = []
        for arrival in schedule:
            record, future = await self.send(arrival, time.perf_counter())
            await future
            records.append(record)
        return records


def _latencies(records: List[Sent], op: Optional[str] = None) -> List[float]:
    """Due-to-response times; a refused request never met any limit."""
    return [
        (r.done - r.due) * r.factor if r.response.ok else float("inf")
        for r in records
        if op is None or r.arrival.op == op
    ]


def tenant_traffic(seed, seconds, trace, work, golden) -> Result:
    return asyncio.run(_tenant_traffic(seed, seconds, trace, work, golden))


async def _tenant_traffic(seed, seconds, trace, work, golden) -> Result:
    result = Result()
    inputs, meta = gen.tenant_inputs(seed)
    calibration = golden["calibration"]
    schedules = gen.tenant_schedules(seed, inputs, calibration, SCHEDULE_HORIZON_S)
    result.info["inputs_sha256"] = gen.tenant_input_digest(inputs, schedules)
    result.info["variant"] = meta["variant"]
    result.info["tenants"] = len(inputs.tenants)
    result.info["estate_resources"] = inputs.resources
    cycles = min(gen.PROBE_CYCLES, max(2, round(seconds * PROBE_SHARE * PROBE_CYCLES_PER_S)))
    light_s = seconds * LIGHT_SHARE
    overload_s = seconds * (1.0 - PROBE_SHARE - LIGHT_SHARE)

    # set-up: a fresh service root with every tenant's estate deployed
    speed = SpeedAdjust()
    setups: List[float] = []
    service = None
    for k in range(SETUPS):
        if service is not None:
            await service.stop()
        with speed.around() as samples:
            began = time.perf_counter()
            service = ControlPlaneService(_fresh(os.path.join(work, f"svc-{k}")))
            await service.start()
            for tenant in inputs.tenants:
                response = await service.request(
                    tenant, "apply", payload={"sources": inputs.variants[tenant][0]}
                )
                result.check(response.ok, f"set-up apply for {tenant}: {response.reason}")
            elapsed = time.perf_counter() - began
        setups.append(elapsed * speed.factor(samples))

    def cut(phase, length):
        return [a for a in schedules[phase] if a.t < length]

    tracer = Tracer() if trace else None
    traffic = Traffic(service, inputs.variants)
    phases: Dict[str, List[Sent]] = {}
    probe = [
        schedules["probe"][k * gen.PROBE_CYCLE : (k + 1) * gen.PROBE_CYCLE]
        for k in range(cycles)
    ]

    async def probe_cycle(cycle: List[gen.Arrival]) -> List[Sent]:
        # a cycle takes under a second: one speed adjustment for all of it
        with speed.around() as samples:
            records = await traffic.closed_loop(cycle)
        factor = speed.factor(samples)
        for record in records:
            record.factor = factor
        return records

    phases["probe"] = []
    if trace:
        # alternate untraced and traced probe cycles, so both halves
        # meet the same tenant histories and their ratio is the overhead
        phases["probe-traced"] = []
        for k, cycle in enumerate(probe):
            if k % 2 == 0:
                phases["probe"] += await probe_cycle(cycle)
                continue
            traffic.tracer = tracer
            with _tracing(tracer):
                phases["probe-traced"] += await probe_cycle(cycle)
            traffic.tracer = None
        traffic.tracer = tracer
        with _tracing(tracer):
            phases["light"] = await traffic.open_loop(cut("light", light_s))
            overload_start = time.perf_counter()
            phases["overload"] = await traffic.open_loop(cut("overload", overload_s))
    else:
        for cycle in probe:
            phases["probe"] += await probe_cycle(cycle)
        phases["light"] = await traffic.open_loop(cut("light", light_s))
        overload_start = time.perf_counter()
        phases["overload"] = await traffic.open_loop(cut("overload", overload_s))

    records = [r for rs in phases.values() for r in rs]
    result.attempted = len(records)
    # a refusal carries its typed reason; a 500 is typed but failed
    untyped = [r for r in records if not r.response.ok and not r.response.reason]
    errors = [r for r in records if r.response.status == 500]
    result.failed = len(set(map(id, untyped + errors)))
    result.check(not untyped, f"{len(untyped)} untyped responses")
    result.check(
        not errors,
        f"{len(errors)} requests failed: {errors[0].response.reason if errors else ''}",
    )

    # every tenant's estate equals a fresh single-tenant baseline built
    # from the last apply that succeeded for it
    last_variant = {t: 0 for t in inputs.tenants}
    for r in sorted(records, key=lambda r: r.order):
        if r.arrival.op == "apply" and r.response.ok:
            last_variant[r.arrival.tenant] = r.variant
    for tenant in inputs.tenants:
        engine = service.sessions[tenant].engine
        baseline = CloudlessEngine(seed=engine.seed)
        applied = baseline.apply(inputs.variants[tenant][last_variant[tenant]])
        result.check(
            applied.ok and canonical_state(engine) == canonical_state(baseline),
            f"tenant {tenant} estate differs from its single-tenant baseline",
        )
    stats = service.stats()
    await service.stop()

    probe_done = phases["probe"]
    light = phases["light"]
    overload = phases["overload"]
    ok_overload = [r for r in overload if r.response.ok]
    goodput = len(ok_overload) / (max(r.done for r in overload) - overload_start)
    probe_ok = sum(1 for r in probe_done if r.response.ok)
    # one caller: requests per second of the time it spent waiting on them
    probe_rps = probe_ok / sum((r.done - r.sent) * r.factor for r in probe_done)
    ok = sum(1 for r in records if r.response.ok)
    light_lat = _latencies(light)
    light_tail = tail(light_lat)
    lateness = [r.sent - r.due for rs in (light, overload) for r in rs]
    lag_tail = tail(lateness)
    dispatched = [r.response.queued_s for r in records if r.response.ok]
    wait_tail = tail(dispatched)
    result.slots = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": ok / len(records),
        "plan_s": median(_latencies(probe_done, "plan")),
        "apply_s": median(_latencies(probe_done, "apply")),
        "repair_s": median(_latencies(probe_done, "drift")),
        "goodput_per_s": probe_rps,
    }
    result.named = {
        "setup_s": (result.slots["setup_s"], "s"),
        "peak_rss_mb": (result.slots["peak_rss_mb"], "MB"),
        "error_rate": (1.0 - ok / len(records), "frac"),
        "idle_plan_p50_s": (result.slots["plan_s"], "s"),
        "idle_apply_p50_s": (result.slots["apply_s"], "s"),
        "idle_drift_p50_s": (result.slots["repair_s"], "s"),
        "idle_goodput_rps": (probe_rps, "1/s"),
        "probe_samples": (len(probe_done), "count"),
        "req_p50_s": (median(light_lat), "s"),
        "req_tail_s": (light_tail[1] if light_tail else None, "s"),
        "req_tail_percentile": (light_tail[0] if light_tail else None, "pct"),
        "req_light_samples": (len(light_lat), "count"),
        "goodput_rps": (goodput, "1/s"),
        "offered_light_rps": (calibration["light_rps"], "1/s"),
        "offered_overload_rps": (calibration["overload_rps"], "1/s"),
        "overload_samples": (len(overload), "count"),
    }
    fairness = stats["fairness_ratio"]
    service_layer = {
        "service.queue_wait_p50_s": median(dispatched) if dispatched else 0.0,
        "service.queue_wait_tail_s": wait_tail[1] if wait_tail else 0.0,
        "service.queue_wait_tail_pct": wait_tail[0] if wait_tail else 0.0,
        "service.service_p50_s": median(
            [r.response.service_s for r in records if r.response.ok]
        ),
        "service.shed_total": sum(stats["shed"].values()),
        "service.mode_transitions": stats["mode_transitions"],
        # a starved tenant makes the ratio infinite; -1 marks that
        "service.fairness_ratio": fairness if math.isfinite(fairness) else -1.0,
        "service.gen_lag_s": lag_tail[1] if lag_tail else max(lateness),
    }
    for reason in sorted(STATUS_OF):
        service_layer[f"service.shed.{reason}"] = stats["shed"].get(reason, 0)
    result.info["service"] = service_layer
    result.info["speed_factor_p50"] = median(speed.factors)
    if trace:
        traced = phases["probe-traced"] + light + overload
        layers = layer_metrics(tracer.spans)
        queued = sum(r.response.queued_s for r in traced)
        layers["trace.attributed_frac"] = (
            (layers["trace.layer_s"] + queued) / layers["trace.root_s"]
        )
        untraced = statistics.fmean(_latencies(phases["probe"]))
        traced_s = statistics.fmean(_latencies(phases["probe-traced"]))
        layers["trace.overhead_frac"] = traced_s / untraced - 1.0
        layers.update(service_layer)
        result.layers = layers
    return result


WORKLOADS: Dict[str, Callable[..., Result]] = {
    "cold-estate": cold_estate,
    "edit-loop": edit_loop,
    "tenant-traffic": tenant_traffic,
}
