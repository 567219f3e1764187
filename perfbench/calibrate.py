"""Closed-loop capacity of the control-plane service.

The tenant-traffic workload offers load at fixed absolute rates, taken
once as multiples of the capacity measured here and recorded in
``golden.json``. They are never recalibrated per run: a slower program
must see the same offered load, not a gentler one.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from typing import Dict, List

import inputs as gen

from repro.service import ControlPlaneService

#: closed-loop callers drawing from the offered mix: twice the default
#: apply pool, so a worker rarely idles while requests are waiting
CLIENTS = 8
WINDOW_S = 8.0
WARMUP_S = 1.0
REPEATS = 3


async def _saturate(root: str, seed: int, clients: int) -> float:
    from workloads import Traffic

    tenant_inputs, _ = gen.tenant_inputs(seed)
    service = ControlPlaneService(root)
    await service.start()
    for tenant in tenant_inputs.tenants:
        response = await service.request(
            tenant, "apply", payload={"sources": tenant_inputs.variants[tenant][0]}
        )
        if not response.ok:
            raise RuntimeError(f"set-up apply for {tenant}: {response.reason}")
    # the offered mix, drawn in order by all callers together
    mix = iter(gen.arrival_schedule(seed, "calibrate", 100.0, 60.0, tenant_inputs))
    traffic = Traffic(service, tenant_inputs.variants)
    begin = time.perf_counter() + WARMUP_S
    end = begin + WINDOW_S
    done: List[float] = []

    async def client() -> None:
        while time.perf_counter() < end:
            record, future = await traffic.send(next(mix), time.perf_counter())
            if (await future).ok:
                done.append(time.perf_counter())

    await asyncio.gather(*(client() for _ in range(clients)))
    await service.stop()
    return sum(1 for t in done if begin <= t < end) / WINDOW_S


def measure_capacity(work: str, provenance: Dict) -> Dict:
    runs = []
    for repeat in range(REPEATS):
        root = os.path.join(work, f"calibrate-{repeat}")
        os.makedirs(root)
        runs.append(asyncio.run(_saturate(root, repeat, CLIENTS)))
    capacity = statistics.median(runs)
    return {
        "capacity_rps": capacity,
        "capacity_runs_rps": runs,
        "clients": CLIENTS,
        "window_s": WINDOW_S,
        "light_x": gen.LIGHT_X,
        "overload_x": gen.OVERLOAD_X,
        "light_rps": round(gen.LIGHT_X * capacity, 2),
        "overload_rps": round(gen.OVERLOAD_X * capacity, 2),
        "measured": {
            k: provenance[k] for k in ("cpus", "python", "platform", "git_sha", "src_sha256")
        },
    }
