"""Rewrite ``expected_peaks.json``: the default seed's exact peaks.

    python3 perfbench/make_expected.py

The table is computed without the paths the benchmark measures: cold
cells by an estimator with stage caching off (a plain replay, no
closed-form peak), sweep cells by a plain capacity-bounded replay of each
cell.  Run it only when a change is meant to move the estimator's
numbers, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cold_table(seed: int) -> dict:
    from perfbench.cells import cold_cells
    from repro.core.estimator import XMemEstimator

    table = {}
    for cell in cold_cells(seed):
        result = XMemEstimator(curve=False, stage_cache=False).estimate(
            cell.workload, cell.device
        )
        reserved = result.peak_bytes
        table[cell.label] = [
            reserved,
            result.detail["peak_allocated_bytes"],
            reserved > cell.device.job_budget(),
        ]
    return table


def sweep_table(seed: int) -> dict:
    from perfbench.cells import sweep_cells
    from repro.core.pipeline import EstimationPipeline
    from repro.core.simulator import MemorySimulator

    pipeline = EstimationPipeline()
    sequences = {}
    table = {}
    for cell in sweep_cells(seed):
        workload = cell.workload
        if workload not in sequences:
            sequences[workload] = pipeline.orchestrate(
                pipeline.analyze(pipeline.profile(workload))
            )
        sim = MemorySimulator(
            capacity_bytes=cell.device.job_budget(),
            allocator_config=cell.variant.config,
            two_level=cell.variant.two_level,
        ).replay(sequences[workload], record_timeline=False)
        table[cell.label] = [
            sim.peak_reserved_bytes,
            sim.peak_allocated_bytes,
            sim.oom,
        ]
    return table


def main() -> int:
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.cells import DEFAULT_SEED
    from perfbench.workloads import EXPECTED_PATH

    table = {
        "seed": DEFAULT_SEED,
        "cold-zoo": cold_table(DEFAULT_SEED),
        "sweep-delta": sweep_table(DEFAULT_SEED),
    }
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(
        f"REWROTE {EXPECTED_PATH}: {len(table['cold-zoo'])} cold-zoo and "
        f"{len(table['sweep-delta'])} sweep-delta cells",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
