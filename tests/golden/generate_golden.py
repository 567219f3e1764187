"""Regenerate tests/golden/random_dag_1k.json.

Runs the frozen *reference* executors (reference_executor.py, next to
this script) over the seeded 1k-node random DAG and records their
scheduling fingerprints. The optimized executors must reproduce these byte-for-byte
(tests/test_executor_equivalence.py::TestGoldenRandomDag).

Usage::

    PYTHONPATH=src python tests/golden/generate_golden.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, os.path.join(HERE, ".."))
sys.path.insert(1, os.path.join(HERE, "..", ".."))  # for tests.golden

from repro.workloads.topologies import random_dag_estate  # noqa: E402
from tests.golden.reference_executor import REFERENCE_FOR  # noqa: E402

from test_executor_equivalence import (  # noqa: E402
    GOLDEN_CASES,
    GOLDEN_NODES,
    GOLDEN_SEED,
    result_fingerprint,
    run_apply,
)


def main() -> None:
    source = random_dag_estate(GOLDEN_NODES, seed=GOLDEN_SEED)
    executors = {}
    for name, cls, kwargs in GOLDEN_CASES:
        ref_cls = REFERENCE_FOR[cls]
        _, result = run_apply(
            lambda gw: ref_cls(gw, **kwargs), source, seed=GOLDEN_SEED
        )
        assert result.ok, f"{name}: {result.failed}"
        executors[name] = {
            "n_succeeded": len(result.succeeded),
            "makespan_s": round(result.makespan_s, 6),
            "succeeded_head": result.succeeded[:10],
            "fingerprint": result_fingerprint(result),
        }
        print(f"{name:22s} makespan={result.makespan_s:.3f}s "
              f"fp={executors[name]['fingerprint'][:16]}...")
    out = os.path.join(HERE, "random_dag_1k.json")
    with open(out, "w") as handle:
        json.dump(
            {
                "workload": "random_dag_estate",
                "nodes": GOLDEN_NODES,
                "seed": GOLDEN_SEED,
                "generated_by": "reference executors (tests.golden.reference_executor)",
                "executors": executors,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
