"""The ``cloudless`` command-line interface.

A terraform-shaped CLI over the cloudless engine. Configuration lives
in ``*.clc`` files in the working directory; the simulated clouds, the
golden state, and the snapshot history persist in ``cloudless.world``
between invocations, so the workflow feels real::

    python -m repro init
    python -m repro validate
    python -m repro plan
    python -m repro apply
    python -m repro show
    python -m repro watch          # one drift poll
    python -m repro history
    python -m repro rollback 1
    python -m repro import         # adopt a hand-built estate
    python -m repro destroy

``--var name=value`` passes input variables (repeatable); ``--chdir``
selects the project directory; ``--world`` the world file.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Dict, List, Optional

from .core.engine import CloudlessEngine, EngineError
from .persist import load_world, save_world

WORLD_FILE = "cloudless.world"


class CliError(RuntimeError):
    """User-facing CLI failure (exit code 1)."""


def _world_path(args) -> str:
    return os.path.join(args.chdir, args.world)


def _load_engine(args) -> CloudlessEngine:
    path = _world_path(args)
    if not os.path.exists(path):
        raise CliError(
            f"no world file at {path}; run `python -m repro init` first"
        )
    return load_world(path)


def _save_engine(args, engine: CloudlessEngine) -> None:
    # the cache context pins the whole compiled graph; never let it
    # (or the cache handle's counters) ride along in the world pickle
    engine._cache_ctx = None
    engine.compile_cache = None
    save_world(engine, _world_path(args))


def _attach_cache(args, engine: CloudlessEngine) -> None:
    """Wire the compiled-artifact cache onto a (possibly old) world.

    Worlds persisted by earlier versions predate ``compile_cache``;
    set the attributes unconditionally rather than trusting the
    pickle. ``--no-cache`` forces every compile cold."""
    engine._cache_ctx = None
    if getattr(args, "no_cache", False):
        engine.compile_cache = None
        return
    from .compilecache import CompileCache

    cache_dir = getattr(args, "cache_dir", None) or os.path.join(
        args.chdir, ".clc-cache"
    )
    engine.compile_cache = CompileCache(cache_dir)


def _read_sources(args) -> Dict[str, str]:
    pattern = os.path.join(args.chdir, "*.clc")
    files = sorted(glob.glob(pattern))
    if not files:
        raise CliError(f"no *.clc files in {args.chdir}")
    out: Dict[str, str] = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            out[os.path.basename(path)] = handle.read()
    return out


def _parse_vars(pairs: List[str]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"--var wants name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        try:
            out[name] = json.loads(raw)
        except json.JSONDecodeError:
            out[name] = raw
    return out


def _print_quarantine(result) -> None:
    """Summarize a degraded-mode (partial) apply: what converged, what
    was parked, and when the dark partitions are expected back."""
    apply_result = result.apply
    print(
        f"\napply DEGRADED: {len(apply_result.succeeded)} resource(s) "
        f"converged, {len(apply_result.quarantined)} parked behind "
        f"unreachable partitions"
    )
    for part in apply_result.quarantined_partitions():
        held = sorted(
            cid
            for cid, q in apply_result.quarantined.items()
            if q.partition == part
        )
        print(f"  partition {part} unreachable:")
        for cid in held:
            print(f"    quarantined: {cid}")
    print(
        "run `python -m repro resume` once the partition recovers to "
        "drain the quarantined work"
    )


# -- subcommands ------------------------------------------------------------------


def cmd_init(args) -> int:
    path = _world_path(args)
    if os.path.exists(path) and not args.force:
        raise CliError(f"{path} already exists (use --force to reset)")
    engine = CloudlessEngine(seed=args.seed)
    save_world(engine, path)
    print(f"initialized simulated multi-cloud world at {path}")
    print(f"providers: {', '.join(sorted(engine.gateway.planes))}")
    return 0


def cmd_validate(args) -> int:
    engine = _load_engine(args)
    _attach_cache(args, engine)
    report = engine.validate(_read_sources(args), variables=_parse_vars(args.var))
    print(report)
    return 0 if report.ok else 1


def cmd_plan(args) -> int:
    engine = _load_engine(args)
    _attach_cache(args, engine)
    sources = _read_sources(args)
    report = engine.validate(sources, variables=_parse_vars(args.var))
    if not report.ok:
        print(report)
        return 1
    plan = engine.plan(sources, variables=_parse_vars(args.var))
    print(plan.render())
    return 0


def cmd_apply(args) -> int:
    engine = _load_engine(args)
    _attach_cache(args, engine)
    engine.wal_path = _world_path(args) + ".wal"
    sources = _read_sources(args)
    try:
        result = engine.apply(sources, variables=_parse_vars(args.var))
    except BaseException:
        # the apply died mid-run (Ctrl-C, crash hook, hard error). The
        # clouds outlive the client: settle the operations they already
        # accepted, then persist the world so `python -m repro resume`
        # can replay the intent journal and adopt the orphans.
        engine.gateway.settle_inflight()
        _save_engine(args, engine)
        raise
    if result.validation is not None and not result.validation.ok:
        print(result.validation)
        return 1
    if result.admission is not None and not result.admission.allowed:
        print(result.admission)
        return 1
    assert result.plan is not None and result.apply is not None
    print(result.plan.render())
    _save_engine(args, engine)
    if result.apply.partial:
        _print_quarantine(result)
        return 2
    if not result.apply.ok:
        print("\napply FAILED:")
        for diagnosis in result.diagnoses:
            print(diagnosis.render())
        return 1
    print(
        f"\napply complete in {result.apply.makespan_s:.1f} simulated "
        f"seconds ({result.apply.api_calls} API calls); snapshot "
        f"v{result.snapshot_version}"
    )
    if engine.state.outputs:
        print("outputs:")
        for name, value in sorted(engine.state.outputs.items()):
            print(f"  {name} = {value!r}")
    return 0


def cmd_resume(args) -> int:
    engine = _load_engine(args)
    engine.wal_path = _world_path(args) + ".wal"
    # the crashed run's cloud-side operations may still be unresolved
    # in the persisted world; settle them before probing
    engine.gateway.settle_inflight()
    try:
        sources: Any = _read_sources(args)
    except CliError:
        sources = None  # fall back to the sources of the crashed apply
    variables = _parse_vars(args.var) if args.var else None
    outcome = engine.resume(sources, variables=variables)
    if outcome.recovery is not None:
        summary = outcome.recovery.summary()
        print(
            f"recovered run {outcome.recovery.run_id}: "
            + ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        )
        for address in outcome.recovery.adopted:
            print(f"  adopted orphan: {address}")
        for address in outcome.recovery.removed:
            print(f"  delete had landed: {address}")
    else:
        print("journal clean: nothing to recover; applying normally")
    result = outcome.result
    if result.validation is not None and not result.validation.ok:
        print(result.validation)
        return 1
    if result.admission is not None and not result.admission.allowed:
        print(result.admission)
        return 1
    _save_engine(args, engine)
    if result.apply is not None and result.apply.partial:
        _print_quarantine(result)
        return 2
    if result.apply is None or not result.apply.ok:
        print("\nresume FAILED:")
        for diagnosis in result.diagnoses:
            print(diagnosis.render())
        return 1
    print(
        f"\nresume complete in {result.apply.makespan_s:.1f} simulated "
        f"seconds ({result.apply.api_calls} API calls)"
    )
    return 0


def cmd_destroy(args) -> int:
    engine = _load_engine(args)
    result = engine.destroy()
    _save_engine(args, engine)
    if result.apply is None or not result.apply.ok:
        print("destroy failed")
        return 1
    print(f"destroyed; {len(engine.state)} resources remain in state")
    return 0


def cmd_show(args) -> int:
    engine = _load_engine(args)
    if not len(engine.state):
        print("state is empty")
        return 0
    print(f"state serial {engine.state.serial}, {len(engine.state)} resources:")
    for entry in engine.state.resources():
        print(
            f"  {str(entry.address):45s} {entry.resource_id:16s} "
            f"{entry.region}"
        )
    if engine.state.outputs:
        print("outputs:")
        for name, value in sorted(engine.state.outputs.items()):
            print(f"  {name} = {value!r}")
    return 0


def cmd_watch(args) -> int:
    """Event-driven drift watch. Exit codes mirror ``apply``:

    0 -- every partition observed, every actionable finding repaired
         (or merely observed, without ``--reconcile``);
    2 -- DEGRADED: dark/stale partitions, deferred repairs, or
         interrupted-but-resumable repairs (re-run to converge);
    1 -- a repair failed terminally.
    """
    engine = _load_engine(args)
    cycles = engine.watch_continuously(
        cycles=max(1, args.cycles),
        interval_s=args.interval,
        cursor_path=_world_path(args) + ".cursors",
        max_lag_s=args.max_lag,
        auto_reconcile=args.reconcile,
    )
    _save_engine(args, engine)
    total = 0
    for index, cycle in enumerate(cycles):
        if args.cycles > 1:
            print(
                f"cycle {index + 1}/{args.cycles} "
                f"t={cycle.run.finished_at:.1f}: "
                f"{len(cycle.findings)} finding(s)"
            )
        total += len(cycle.findings)
        by_key = {id(d.finding): d for d in cycle.decisions}
        for finding in cycle.findings:
            where = (
                str(finding.address) if finding.address else finding.resource_id
            )
            attrs = (
                f" ({', '.join(finding.changed_attrs)})"
                if finding.changed_attrs
                else ""
            )
            burst = (
                f" [{finding.event_count} events]"
                if finding.event_count > 1
                else ""
            )
            print(f"  [{finding.kind}] {where}{attrs} by {finding.actor}{burst}")
            decision = by_key.get(id(finding))
            if decision is None:
                continue
            if decision.action is not None:
                print(
                    f"  -> {decision.action.policy}: "
                    f"{decision.action.performed}"
                )
            else:
                print(f"  -> {decision.decision}: {decision.reason}")
        for provider in cycle.stale:
            print(
                f"  stale partition: {provider} unobserved for "
                f"{cycle.lag_s[provider]:.0f}s (bound {args.max_lag:.0f}s)"
            )
    last = cycles[-1]
    if total == 0:
        print("no drift detected")
    if any(c.hard_failed for c in cycles):
        print("watch FAILED: a repair failed terminally")
        return 1
    if last.degraded:
        parked = last.pending
        labels = ", ".join(
            sorted(set(last.run.unreachable) | set(last.stale))
        ) or "none"
        print(
            f"watch DEGRADED: {parked} repair(s) parked, "
            f"unreachable/stale partitions: {labels}; re-run to converge"
        )
        return 2
    return 0


def cmd_history(args) -> int:
    engine = _load_engine(args)
    if not len(engine.history):
        print("no snapshots yet")
        return 0
    for version in engine.history.versions():
        snap = engine.history.get(version)
        print(
            f"  v{snap.version}  t={snap.timestamp:10.1f}  "
            f"{len(snap.state):3d} resources  {snap.description}"
        )
    return 0


def cmd_rollback(args) -> int:
    engine = _load_engine(args)
    result = engine.rollback(args.version)
    _save_engine(args, engine)
    print(
        f"rollback to v{args.version}: {len(result.plan)} actions, "
        f"{result.plan.redeployments} redeployments, "
        f"{len(result.errors)} errors"
    )
    for error in result.errors:
        print(f"  error: {error}")
    return 0 if not result.errors else 1


def cmd_import(args) -> int:
    engine = _load_engine(args)
    project = engine.import_estate(adopt=True)
    _save_engine(args, engine)
    for fname, text in sorted(project.sources.items()):
        path = os.path.join(args.chdir, fname)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")
    for source, files in sorted(project.module_sources.items()):
        directory = os.path.join(args.chdir, source)
        os.makedirs(directory, exist_ok=True)
        for fname, text in sorted(files.items()):
            path = os.path.join(directory, fname)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {path}")
    print(f"adopted {len(engine.state)} resources into state")
    return 0


def cmd_outputs(args) -> int:
    engine = _load_engine(args)
    for name, value in sorted(engine.state.outputs.items()):
        print(f"{name} = {value!r}")
    return 0


def cmd_providers(args) -> int:
    engine = _load_engine(args)
    for name, plane in sorted(engine.gateway.planes.items()):
        print(f"{name} (regions: {', '.join(plane.regions)})")
        for rtype in sorted(plane.specs):
            spec = plane.specs[rtype]
            required = ", ".join(
                a.name for a in spec.required_attrs() if not a.computed
            )
            print(f"  {rtype:32s} create~{spec.latency.create_s:6.0f}s  "
                  f"required: {required}")
    return 0


def cmd_graph(args) -> int:
    engine = _load_engine(args)
    sources = _read_sources(args)
    plan = engine.plan(sources, variables=_parse_vars(args.var))
    print(plan.to_dot())
    return 0


def cmd_state_mv(args) -> int:
    from .core.engine import EngineError

    engine = _load_engine(args)
    try:
        engine.state_move(args.src, args.dst)
    except (EngineError, ValueError) as exc:
        raise CliError(str(exc))
    _save_engine(args, engine)
    print(f"moved {args.src} -> {args.dst}")
    return 0


def cmd_state_rm(args) -> int:
    engine = _load_engine(args)
    try:
        removed = engine.state_forget(args.address)
    except ValueError as exc:
        raise CliError(str(exc))
    if not removed:
        raise CliError(f"no state entry at {args.address}")
    _save_engine(args, engine)
    print(f"forgot {args.address} (the cloud resource still exists)")
    return 0


def cmd_chaos(args) -> int:
    """Run (or list) chaos campaigns. Standalone: campaigns build their
    own simulated worlds, so no ``cloudless.world`` file is involved.

    Exit codes: 0 -- every trial converged and coverage holds; 1 -- an
    invariant was violated, a trial failed, or coverage regressed below
    the baseline.
    """
    from .chaos import CampaignRunner, CampaignSpec, SpecValidationError
    from .chaos.library import library as chaos_library

    specs = chaos_library()
    if args.list:
        print(f"{len(specs)} scenario(s) in the library:")
        coverage: Dict[str, List[str]] = {}
        for name, spec in sorted(specs.items()):
            classes = spec.defect_classes()
            print(f"  {name:32s} {spec.description}")
            print(f"  {'':32s} covers: {', '.join(classes)}")
            for cls in classes:
                coverage.setdefault(cls, []).append(name)
        print(f"\ndefect-taxonomy coverage ({len(coverage)} classes):")
        for cls, names in sorted(coverage.items()):
            print(f"  {cls:36s} {len(names)} scenario(s)")
        return 0

    if args.campaign:
        try:
            with open(os.path.join(args.chdir, args.campaign)) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read campaign file: {exc}")
        try:
            campaign = CampaignSpec.from_dict(data, library=specs)
        except SpecValidationError as exc:
            raise CliError(f"invalid campaign: {exc}")
    elif args.scenario:
        try:
            chosen = []
            for name in args.scenario:
                if name not in specs:
                    raise CliError(
                        f"unknown scenario {name!r} (see `chaos --list`)"
                    )
                chosen.append(specs[name])
            campaign = CampaignSpec(name="adhoc", scenarios=chosen)
        except SpecValidationError as exc:
            raise CliError(f"invalid campaign: {exc}")
    else:
        raise CliError(
            "nothing to do: pass --campaign <file>, --scenario <name>, "
            "or --list"
        )
    if args.trials is not None:
        campaign = CampaignSpec(
            name=campaign.name,
            description=campaign.description,
            scenarios=campaign.scenarios,
            trials=args.trials,
        )

    report = CampaignRunner(campaign).run()
    trials = sum(len(s.trials) for s in report.results)
    coverage = report.coverage()
    print(
        f"campaign {report.campaign}: {len(report.results)} scenario(s), "
        f"{trials} trial(s), pass rate {report.pass_rate:.0%}, "
        f"{len(coverage)} defect class(es) covered"
    )
    for result in report.results:
        ok = all(t.passed for t in result.trials)
        print(f"  [{'ok' if ok else 'FAIL'}] {result.name}")
        for trial in result.trials:
            for violation in trial.violations:
                print(f"        trial {trial.trial}: {violation}")

    if args.report:
        out = os.path.join(args.chdir, args.report)
        with open(out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"report written to {out}")

    failed = not report.passed
    if args.baseline:
        try:
            with open(os.path.join(args.chdir, args.baseline)) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read coverage baseline: {exc}")
        missing_classes = sorted(
            set(baseline.get("classes", [])) - set(coverage)
        )
        ran = {r.name for r in report.results}
        missing_scenarios = sorted(
            set(baseline.get("scenarios", [])) - ran
        )
        for cls in missing_classes:
            print(f"coverage REGRESSION: defect class {cls} no longer covered")
        for name in missing_scenarios:
            print(f"coverage REGRESSION: scenario {name} no longer ran")
        if missing_classes or missing_scenarios:
            failed = True
        else:
            print(
                f"coverage holds: >={len(baseline.get('classes', []))} "
                f"classes, >={len(baseline.get('scenarios', []))} scenarios"
            )

    if failed:
        print("chaos campaign FAILED")
        return 1
    print("chaos campaign PASSED")
    return 0


def cmd_serve(args) -> int:
    """Run the multi-tenant control-plane service.

    Default mode binds the HTTP front end and serves until interrupted.
    ``--selftest`` instead drives a seeded synthetic tenant mix through
    the service in-process and gates on the typed-response contract:
    exit 0 when every request got a typed answer and no steady tenant
    was starved, 1 otherwise.
    """
    import asyncio

    from .service import ControlPlaneService, ServiceHTTPD, ServicePolicy

    root = os.path.join(args.chdir, args.root)
    policy = ServicePolicy(
        apply_pool=args.apply_pool, max_queue_depth=args.max_queue
    )
    service = ControlPlaneService(root, instance=args.instance, policy=policy)

    if args.selftest:
        return asyncio.run(_serve_selftest(service, args))

    async def _serve() -> int:
        await service.start()
        httpd = ServiceHTTPD(service, host=args.host, port=args.port)
        await httpd.start()
        host, port = httpd.address
        print(f"serving {args.root} on http://{host}:{port} (ctrl-c to stop)")
        try:
            while True:
                await asyncio.sleep(3600)
        except asyncio.CancelledError:
            pass
        finally:
            await httpd.stop()
            await service.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0


async def _serve_selftest(service, args) -> int:
    """A seeded one-process load test: steady tenants plus one noisy."""
    import asyncio

    from .workloads import mixed_arrivals, tenant_mix, web_tier

    profiles = tenant_mix(
        steady=3, noisy=1, base_rate_rps=6.0, noisy_factor=8.0, seed=7
    )
    schedule = mixed_arrivals(profiles, duration_s=args.duration, seed=7)
    sources = web_tier(web_vms=1, app_vms=0, with_lb=False, with_db=False)
    await service.start()
    started = service.clock()
    futures = []
    for arrival in schedule:
        delay = arrival.t - (service.clock() - started)
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(
            await service.submit(
                arrival.tenant,
                arrival.op,
                payload={"sources": sources},
                priority=arrival.priority,
            )
        )
    responses = await asyncio.gather(*futures)
    stats = service.stats()
    await service.stop()
    print(json.dumps(stats, indent=1, sort_keys=True))
    untyped = sum(1 for r in responses if r.status not in (200,) and not r.reason)
    answered = len(responses) == len(schedule)
    steady = [p.tenant for p in profiles if p.kind == "steady"]
    starved = [t for t in steady if stats["goodput"].get(t, 0) == 0]
    ok = answered and untyped == 0 and not starved
    print(
        f"selftest: {len(responses)}/{len(schedule)} answered, "
        f"{untyped} untyped, starved steady tenants: {starved or 'none'}"
    )
    print(f"selftest {'PASSED' if ok else 'FAILED'}")
    return 0 if ok else 1


# -- wiring -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudless",
        description="Cloudless Computing: IaC lifecycle over simulated clouds",
    )
    parser.add_argument(
        "--chdir", default=".", help="project directory (default: cwd)"
    )
    parser.add_argument(
        "--world", default=WORLD_FILE, help=f"world file (default: {WORLD_FILE})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a fresh simulated world")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_init)

    for name, fn, with_vars in (
        ("validate", cmd_validate, True),
        ("plan", cmd_plan, True),
        ("apply", cmd_apply, True),
    ):
        p = sub.add_parser(name, help=f"{name} the *.clc configuration")
        if with_vars:
            p.add_argument("--var", action="append", default=[])
        p.add_argument(
            "--cache-dir",
            default=None,
            dest="cache_dir",
            help="compiled-artifact cache directory "
            "(default: <chdir>/.clc-cache)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            dest="no_cache",
            help="skip the compiled-artifact cache (every compile cold)",
        )
        p.set_defaults(fn=fn)

    p = sub.add_parser(
        "resume", help="recover a crashed apply from the intent journal"
    )
    p.add_argument("--var", action="append", default=[])
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("destroy", help="tear down everything in state")
    p.set_defaults(fn=cmd_destroy)

    p = sub.add_parser("show", help="list state")
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("watch", help="tail the activity logs for drift")
    p.add_argument(
        "--reconcile",
        action="store_true",
        help="auto-repair findings (enforce/adopt/notify/defer-dark)",
    )
    p.add_argument(
        "--cycles",
        type=int,
        default=1,
        help="watcher cycles to run (default 1)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=60.0,
        help="simulated seconds between cycles (default 60)",
    )
    p.add_argument(
        "--max-lag",
        type=float,
        default=900.0,
        help="staleness bound per partition in seconds (default 900)",
    )
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser("history", help="list snapshots (the time machine)")
    p.set_defaults(fn=cmd_history)

    p = sub.add_parser("rollback", help="roll back to a snapshot version")
    p.add_argument("version", type=int)
    p.set_defaults(fn=cmd_rollback)

    p = sub.add_parser("import", help="adopt the live estate into IaC")
    p.set_defaults(fn=cmd_import)

    p = sub.add_parser("outputs", help="print stored outputs")
    p.set_defaults(fn=cmd_outputs)

    p = sub.add_parser("providers", help="list simulated resource types")
    p.set_defaults(fn=cmd_providers)

    p = sub.add_parser("graph", help="emit the plan's dependency graph as DOT")
    p.add_argument("--var", action="append", default=[])
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("state", help="state surgery (mv/rm)")
    state_sub = p.add_subparsers(dest="state_command", required=True)
    mv = state_sub.add_parser("mv", help="rename an address in state")
    mv.add_argument("src")
    mv.add_argument("dst")
    mv.set_defaults(fn=cmd_state_mv)
    rm = state_sub.add_parser(
        "rm", help="forget a resource (cloud resource survives)"
    )
    rm.add_argument("address")
    rm.set_defaults(fn=cmd_state_rm)

    p = sub.add_parser(
        "chaos", help="run chaos campaigns against simulated estates"
    )
    p.add_argument(
        "--campaign",
        default=None,
        help="campaign file (JSON; scenario entries may name library "
        "scenarios)",
    )
    p.add_argument(
        "--scenario",
        action="append",
        default=[],
        help="run a library scenario ad hoc (repeatable)",
    )
    p.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the trial count for every scenario",
    )
    p.add_argument(
        "--report",
        default=None,
        help="write the structured campaign report (JSON) here",
    )
    p.add_argument(
        "--baseline",
        default=None,
        help="coverage baseline file (JSON with 'classes'/'scenarios'); "
        "regressions fail the run",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="print the scenario catalog and its taxonomy coverage",
    )
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant control-plane service (HTTP front end)",
    )
    p.add_argument(
        "--root",
        default="service-root",
        help="directory holding per-tenant estates (default: service-root)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8787, help="bind port")
    p.add_argument(
        "--instance",
        default="svc-0",
        help="service instance id (session-lease holder name)",
    )
    p.add_argument(
        "--apply-pool",
        type=int,
        default=4,
        help="concurrent engine executions (worker slots)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="global admission-queue bound",
    )
    p.add_argument(
        "--selftest",
        action="store_true",
        help="drive a seeded synthetic tenant mix in-process and exit "
        "0/1 on the typed-response and no-starvation gates",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=1.5,
        help="selftest traffic duration in seconds",
    )
    p.set_defaults(fn=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`); exit quietly
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - module runner
    sys.exit(main())
