"""The repository benchmark: one command per workload, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-estate --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload edit-loop --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --calibrate   # measure service capacity, fix the rates
    python3 perfbench/run.py --record      # record input digests and final hashes

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it is a report with provenance, the
workload's metrics under their own names and units, and any failed
output check. The exit code is 1 when an output check fails or the
program under test cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(ROOT, ".perfbench_work")


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over every file under src/, for checkouts without git."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, golden) -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration": golden.get("calibration"),
    }


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args) -> int:
    import inputs as gen
    from workloads import WORKLOADS

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    golden = load_json(GOLDEN)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), WORK, golden
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    variant = str(gen.variant_of(args.seed))
    pinned = golden.get("inputs", {}).get(args.workload, {}).get(variant)
    result.check(
        pinned == result.info["inputs_sha256"],
        f"generated inputs {result.info['inputs_sha256'][:12]} do not match "
        f"the pinned digest {str(pinned)[:12]}",
    )
    values = {**result.slots, **result.layers}
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[group]:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            result.failures.append(f"metric {metric['name']} measured as {value}")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    report = {
        "workload": args.workload,
        "provenance": provenance(args, golden),
        "info": result.info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.named.items()},
        "failures": result.failures,
    }
    if args.trace:
        report["layers"] = result.layers
    print(json.dumps({"report": report}, sort_keys=True))
    correct = not result.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def calibrate(args) -> int:
    """Closed-loop saturation of the service at its real pool width.

    Run once, on the commit the benchmark is defined against; the
    light and overload rates it fixes are never recalibrated."""
    from calibrate import measure_capacity

    golden = load_json(GOLDEN) if os.path.exists(GOLDEN) else {}
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        golden["calibration"] = measure_capacity(WORK, provenance(args, golden))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    _write_golden(golden)
    print(json.dumps(golden["calibration"], indent=1, sort_keys=True))
    return 0


def record(args) -> int:
    """Record every variant's input digests and final content hashes."""
    import inputs as gen
    from workloads import WORKLOADS

    golden = load_json(GOLDEN)
    golden["inputs"] = {name: {} for name in WORKLOADS}
    golden["content_hash"] = {"cold-estate": {}, "edit-loop": {}}
    golden["recorded"] = {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
    }
    for variant in range(gen.VARIANTS):
        key = str(variant)
        for name, workload in WORKLOADS.items():
            if name in golden["content_hash"]:
                shutil.rmtree(WORK, ignore_errors=True)
                try:
                    result = workload(variant, 0, False, WORK, {}, least=1)
                finally:
                    shutil.rmtree(WORK, ignore_errors=True)
                if result.failures:
                    sys.exit(f"recording {name} variant {variant} failed: {result.failures}")
                golden["content_hash"][name][key] = result.info["content_hash"]
                golden["inputs"][name][key] = result.info["inputs_sha256"]
            else:
                golden["inputs"][name][key] = _tenant_digest(variant, golden)
            print(f"recorded {name} variant {variant}", flush=True)
    _write_golden(golden)
    return 0


def _tenant_digest(variant: int, golden: dict) -> str:
    import inputs as gen
    from workloads import SCHEDULE_HORIZON_S

    tenant_inputs, _ = gen.tenant_inputs(variant)
    schedules = gen.tenant_schedules(
        variant, tenant_inputs, golden["calibration"], SCHEDULE_HORIZON_S
    )
    return gen.tenant_input_digest(tenant_inputs, schedules)


def _write_golden(golden: dict) -> None:
    tmp = GOLDEN + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, GOLDEN)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("cold-estate", "edit-loop", "tenant-traffic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.calibrate or args.record):
        parser.error("give --workload, --calibrate or --record")
    _import_program()
    if args.calibrate:
        return calibrate(args)
    if args.record:
        return record(args)
    return run_workload(args)


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"perfbench: {time.perf_counter() - started:.1f}s wall", file=sys.stderr)
    sys.exit(code)
