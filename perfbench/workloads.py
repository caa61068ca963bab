"""The four workloads: their set-up, one operation each, and its checks.

Every workload is driven by :func:`perfbench.loadgen.run_ops` from one
thread with one operation outstanding (a closed loop with one caller).
An operation is one cold estimate (``cold-zoo``), one cell of the
ablation grid (``sweep-delta``) or one request (``warm-inproc``,
``warm-tcp``).  ``op`` returns whether the operation's output was
correct; an exception, a shed or a rejection also counts as a failure.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional

from repro.core.estimator import XMemEstimator
from repro.core.pipeline import EstimationPipeline, PipelineCache
from repro.core.simulator import MemorySimulator
from repro.service.aio import AsyncServiceGateway
from repro.service.gateway import ServiceGateway
from repro.service.tcp import TcpServerThread, TcpServiceClient
from repro.workload import RTX_3060, WorkloadConfig

from . import cells as cellgen
from .cells import DEFAULT_SEED, Cell
from .loadgen import peak_rss_mb

EXPECTED_PATH = Path(__file__).with_name("expected_peaks.json")

#: warm workloads: the gateway shard count and the request stream length
#: (the stream wraps around if a run outlasts it)
NUM_SHARDS = 4
REQUEST_STREAM = 1 << 18
#: seconds a warm response may take before it counts as failed
RESULT_TIMEOUT = 30.0

#: the cell run once per set-up so lazy imports and first-call costs are
#: paid before timing (users pay them once per process)
WARMUP_CELL = ("VGG16", "sgd", 8)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class PeakCheck:
    """Checks one cell's peaks against the checked-in table and invariants.

    For the default seed, each cell's reserved and allocated peaks and its
    OOM verdict must equal the table.  For any seed: allocated <= reserved,
    and the verdict agrees with the device's job budget.
    """

    def __init__(self, table: Optional[dict]):
        self.table = table

    def __call__(
        self, cell: Cell, reserved: int, allocated: int, oom: bool
    ) -> bool:
        if allocated > reserved:
            return False
        if not oom and reserved > cell.device.job_budget():
            return False
        if self.table is not None:
            return self.table.get(cell.label) == [reserved, allocated, oom]
        return True


def _table(workload: str, seed: int) -> Optional[dict]:
    if seed != DEFAULT_SEED:
        return None
    return load_expected()[workload]


class Workload:
    """What the load generator and the runner ask of every workload."""

    name = ""
    #: operations per pass for workloads that run whole passes, else None
    pass_size: Optional[int] = None
    #: nanoseconds the caller spent blocked on response futures
    wait_ns = 0
    #: the most client connections the load generator held open at once
    max_connections = 0
    #: workloads whose resident memory grows with every operation read
    #: their peak after this many operations rather than at the run's end,
    #: so the figure does not move with throughput; None = at the end
    rss_ops: Optional[int] = None
    #: the peak resident set (MB) once ``rss_ops`` operations had run
    rss_at_ops: Optional[float] = None

    def setup(self):
        """Build and warm what the operations run against; returns it."""
        raise NotImplementedError

    def close(self, state) -> None:
        pass

    def begin_pass(self, state) -> None:
        pass

    def op(self, state, index: int) -> bool:
        """Run operation ``index``; True when its output is correct."""
        raise NotImplementedError

    def cache_counts(self, state) -> Optional[tuple[int, int]]:
        """Result-cache (hits, misses) so far, where there is one."""
        return None

    def stage_stats(self, state) -> Optional[dict]:
        """Stage-store counters so far, where one cache serves every op."""
        return None


class ColdZoo(Workload):
    """One-shot estimates of distinct zoo cells, each by a fresh estimator."""

    name = "cold-zoo"

    def __init__(self, seed: int):
        self.cells = cellgen.cold_cells(seed)
        self.pass_size = len(self.cells)
        self.check = PeakCheck(_table(self.name, seed))

    def setup(self):
        model, optimizer, batch = WARMUP_CELL
        warm = WorkloadConfig(model, optimizer, batch)
        XMemEstimator(curve=False).estimate(warm, RTX_3060)
        return None

    def estimate(self, cell: Cell):
        return XMemEstimator(curve=False).estimate(cell.workload, cell.device)

    def op(self, state, index: int) -> bool:
        cell = self.cells[index % self.pass_size]
        result = self.estimate(cell)
        reserved = result.peak_bytes
        allocated = result.detail["peak_allocated_bytes"]
        oom = reserved > cell.device.job_budget()
        return self.check(cell, reserved, allocated, oom)


class SweepDelta(Workload):
    """The ablation grid over one shared stage cache.

    Set-up profiles, analyzes and orchestrates every workload once; each
    measured pass starts with an empty simulate store, so a pass pays one
    peak-profile replay per (workload, variant) and answers the other
    devices from it, falling back to a bounded replay when over capacity.
    """

    name = "sweep-delta"

    def __init__(self, seed: int):
        self.cells = cellgen.sweep_cells(seed)
        self.workloads = cellgen.sweep_workloads(seed)
        self.pass_size = len(self.cells)
        self.check = PeakCheck(_table(self.name, seed))
        self.unbounded = self._oracle()

    def _oracle(self) -> dict:
        """(workload, variant) -> peaks of a plain unbounded replay.

        Built once, before set-up and untimed, with stage caching off and
        the simple replay loop rather than the closed form under test: a
        cell that fits must report exactly these peaks, and a cell goes
        over capacity iff its reserved peak here exceeds the job budget.
        """
        pipeline = EstimationPipeline()
        peaks = {}
        for workload in self.workloads:
            sequence = pipeline.orchestrate(
                pipeline.analyze(pipeline.profile(workload))
            )
            for variant in cellgen.SWEEP_VARIANTS:
                sim = MemorySimulator(
                    allocator_config=variant.config,
                    two_level=variant.two_level,
                ).replay(sequence, record_timeline=False)
                peaks[workload, variant.name] = (
                    sim.peak_reserved_bytes,
                    sim.peak_allocated_bytes,
                )
        return peaks

    def setup(self):
        pipeline = EstimationPipeline(cache=PipelineCache())
        for workload in self.workloads:
            pipeline.orchestrate(pipeline.analyze(pipeline.profile(workload)))
        return pipeline

    def begin_pass(self, pipeline) -> None:
        pipeline.cache.simulations.clear()

    def stage_stats(self, pipeline) -> dict:
        return pipeline.cache.stats()

    def op(self, pipeline, index: int) -> bool:
        cell = self.cells[index % self.pass_size]
        variant = cell.variant
        capacity = cell.device.job_budget()
        sim = pipeline.run(
            cell.workload,
            allocator_config=variant.config,
            two_level=variant.two_level,
            capacity_bytes=capacity,
            curve=False,
        ).simulation
        reserved, allocated = self.unbounded[cell.workload, variant.name]
        if sim.oom != (reserved > capacity):
            return False
        if not sim.oom and (
            sim.peak_reserved_bytes,
            sim.peak_allocated_bytes,
        ) != (reserved, allocated):
            return False
        return self.check(
            cell, sim.peak_reserved_bytes, sim.peak_allocated_bytes, sim.oom
        )


class _Warm(Workload):
    """Shared by both warm workloads: a zipf stream over a warmed catalog."""

    def __init__(self, seed: int, catalog: Optional[list[Cell]] = None):
        self.catalog = catalog if catalog is not None else cellgen.warm_catalog(seed)
        self.requests = cellgen.zipf_requests(
            seed, len(self.catalog), REQUEST_STREAM
        )
        #: client connections the load generator holds open
        self.connections = 0

    def estimator_factory(self):
        shared = PipelineCache()
        return lambda: XMemEstimator(curve=False, stage_cache=shared)

    def cache_counts(self, state) -> tuple[int, int]:
        """Summed over the gateway's shards."""
        cache = state[0].stats()["aggregate"]["cache"]
        return cache["hits"], cache["misses"]

    def warm(self, submit) -> list[int]:
        """Estimate every catalog entry once; its peak is the answer."""
        return [
            submit(cell.workload, cell.device).result(RESULT_TIMEOUT).peak_bytes
            for cell in self.catalog
        ]

    def op(self, state, index: int) -> bool:
        if index == self.rss_ops:
            self.rss_at_ops = peak_rss_mb()
        target, expected = state[0], state[-1]
        entry = self.requests[index % REQUEST_STREAM]
        cell = self.catalog[entry]
        future = target.submit(cell.workload, cell.device)
        started = time.perf_counter_ns()
        result = future.result(RESULT_TIMEOUT)
        self.wait_ns += time.perf_counter_ns() - started
        return result.peak_bytes == expected[entry]


class WarmInproc(_Warm):
    """Result-cache hits through a 4-shard thread gateway, no socket."""

    name = "warm-inproc"
    rss_ops = 50_000

    def setup(self):
        gateway = ServiceGateway(
            num_shards=NUM_SHARDS, estimator_factory=self.estimator_factory()
        )
        return gateway, self.warm(gateway.submit)

    def close(self, state) -> None:
        state[0].close()


class WarmTcp(_Warm):
    """The same catalog through TCP to a 4-shard asyncio gateway."""

    name = "warm-tcp"
    rss_ops = 10_000

    def setup(self):
        factory = self.estimator_factory()
        server = TcpServerThread(
            lambda: AsyncServiceGateway(
                num_shards=NUM_SHARDS, estimator_factory=factory
            )
        )
        host, port = server.start()
        try:
            client = TcpServiceClient(host, port, timeout=RESULT_TIMEOUT)
        except OSError:
            server.stop()
            raise
        self.connections += 1
        self.max_connections = max(self.max_connections, self.connections)
        return client, server, self.warm(client.submit)

    def close(self, state) -> None:
        client, server = state[0], state[1]
        client.close()
        self.connections -= 1
        server.stop()


WORKLOADS = {
    workload.name: workload
    for workload in (ColdZoo, SweepDelta, WarmInproc, WarmTcp)
}
