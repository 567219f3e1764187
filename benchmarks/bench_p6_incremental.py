"""P6 `incremental` -- incremental re-planning at estate scale.

One claim, gated: a 1%-dirty decl patch through
``IncrementalSession.replan`` must beat what a non-incremental pipeline
does after the same edit (reparse, rebuild and re-plan the whole
estate) by ``--min-incremental-speedup`` (default 10x).

CI runs the smoke tier::

    python benchmarks/bench_p6_incremental.py --sizes 1000 --providers 4 \
        --out /tmp/BENCH_incremental.json

The checked-in ``BENCH_incremental.json`` is the full run
(``--sizes 10000,100000``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cloud import CloudGateway
from repro.deploy import IncrementalSession
from repro.deploy.incremental import read_data_sources
from repro.graph import Planner, build_graph
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import scale_estate_sharded


def bench_incremental(
    source: str, seed: int, synthetic: int, dirty_frac: float
) -> Dict[str, Any]:
    """1%-dirty session re-plan vs what a non-incremental pipeline must
    do after the same edit: reparse the full source, rebuild the graph,
    and re-plan from scratch."""
    gateway = CloudGateway.simulated(seed=seed, synthetic=synthetic)
    state = StateDocument()
    session = IncrementalSession(gateway, source=source)
    session.plan(state)  # initial converge; not part of either arm

    vm_blocks = re.findall(
        r'resource "syn\d+_virtual_machine" "[^"]+" \{.*?\n\}', source, re.S
    )
    n_dirty = max(1, int(len(vm_blocks) * dirty_frac))
    step = max(1, len(vm_blocks) // n_dirty)
    dirty_blocks = vm_blocks[::step][:n_dirty]
    patch = "\n\n".join(
        block.replace('service = "', 'service = "edited-')
        for block in dirty_blocks
    )

    edited = source
    for block in dirty_blocks:
        edited = edited.replace(
            block, block.replace('service = "', 'service = "edited-')
        )
    t0 = time.perf_counter()
    graph = build_graph(Configuration.parse(edited))
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    data = read_data_sources(gateway, graph, state)
    planner.plan(graph, state.copy(), data_values=data)
    full_s = time.perf_counter() - t0

    inc = session.replan(patch, state)
    assert inc.mode == "incremental", f"patch fell back to {inc.mode}"
    assert len(inc.dirty) == n_dirty
    return {
        "decls_total": len(vm_blocks),
        "decls_dirty": n_dirty,
        "scope_nodes": inc.scope_size,
        "full_replan_s": round(full_s, 4),
        "incremental_replan_s": round(inc.wall_s, 4),
        "speedup": round(full_s / max(inc.wall_s, 1e-9), 1),
    }


def bench(args: argparse.Namespace) -> Dict[str, Any]:
    incremental: List[Dict[str, Any]] = []
    failures: List[str] = []
    for size in args.sizes:
        source = scale_estate_sharded(
            size,
            providers=args.providers,
            cross_link_every=args.cross_link_every,
        )
        inc = bench_incremental(
            source, args.seed, args.providers, args.dirty_frac
        )
        inc["size"] = size
        incremental.append(inc)
        if (
            args.min_incremental_speedup
            and inc["speedup"] < args.min_incremental_speedup
        ):
            failures.append(
                f"{size}: incremental re-plan speedup {inc['speedup']}x "
                f"< gate {args.min_incremental_speedup}x"
            )
        print(
            f"size={size}: dirty={inc['decls_dirty']}/{inc['decls_total']} "
            f"full={inc['full_replan_s']:.2f}s "
            f"inc={inc['incremental_replan_s']:.3f}s "
            f"speedup={inc['speedup']}x",
            file=sys.stderr,
        )

    return {
        "benchmark": "p6_incremental",
        "workload": "scale_estate_sharded",
        "seed": args.seed,
        "providers": args.providers,
        "cpus": os.cpu_count() or 1,
        "sizes": args.sizes,
        "incremental": incremental,
        "failures": failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10000,100000")
    parser.add_argument("--providers", type=int, default=4)
    parser.add_argument(
        "--cross-link-every",
        type=int,
        default=5,
        help="every k-th service depends on the previous provider's lb",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-incremental-speedup", type=float, default=10.0)
    parser.add_argument(
        "--dirty-frac",
        type=float,
        default=0.01,
        help="fraction of vm decls patched in the incremental arm",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "BENCH_incremental.json"
        ),
    )
    args = parser.parse_args(argv)
    args.sizes = [int(s) for s in str(args.sizes).split(",") if s]

    report = bench(args)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if report["failures"]:
        for line in report["failures"]:
            print(f"GATE FAILED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
