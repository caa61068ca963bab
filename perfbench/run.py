"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload cold-zoo --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the workload, seed, ``nproc`` and Python version.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer breakdown, and the spans are written as JSON lines to
``.perfbench_out/``.  The program is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench_out")

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: layer self times must add up to the traced end-to-end time within this
#: share of it (anything more means spans were double counted)
SUM_TOLERANCE = 0.05
#: frames kept per tracemalloc trace: enough to reach a repro frame from
#: most standard-library calls, few enough to keep the memory phase short
#: (tracing costs 5x per frame kept at 1, 27x at 8 on a cold estimate)
TRACEMALLOC_FRAMES = 8
WORKLOAD_NAMES = ("cold-zoo", "sweep-delta", "warm-inproc", "warm-tcp")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p90", "us"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    from perfbench.layers import BUCKETS, LAYERS, TCP_TRANSPORT

    metrics = [(f"{layer}.self_us", "us") for layer in LAYERS]
    metrics += [
        ("core.simulator.self_us", "us"),
        (f"{TCP_TRANSPORT}_us", "us"),
        ("unattributed.self_us", "us"),
        ("traced_op_us", "us"),
        ("rss_growth_mb", "MB"),
        ("tracing_overhead_pct", "%"),
        ("future.wait_us", "us"),
        ("cache.hit_ratio", "ratio"),
        ("trace.memory_events", "count"),
        ("analyze.spans", "count"),
        ("analyze.blocks", "count"),
        ("simulate.events", "count"),
        ("simulate.bounded_replays", "count"),
        ("simulate.cache_hit_ratio", "ratio"),
    ]
    metrics += [
        (f"stage_store.{stage}.hit_ratio", "ratio")
        for stage in ("profile", "analyze", "orchestrate", "simulate")
    ]
    metrics += [(f"retained_b_per_op.{bucket}", "B") for bucket in BUCKETS]
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _metrics(values: dict, units: list[tuple[str, str]]) -> dict:
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units
    }


def run_untraced(workload, seconds: float):
    from perfbench.loadgen import peak_rss_mb, run_ops

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            workload.close(state)
    try:
        outcome = run_ops(workload, state, seconds=seconds)
    finally:
        workload.close(state)
    deciles = statistics.quantiles(outcome.latencies_ns, n=10)
    if workload.rss_ops is not None and workload.rss_at_ops is None:
        print(
            f"perfbench: the run ended before {workload.rss_ops} operations; "
            "peak_rss_mb is read at its end",
            file=sys.stderr,
        )
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": outcome.attempted / outcome.elapsed_s,
        "op_us_p50": deciles[4] / 1e3,
        "op_us_p90": deciles[8] / 1e3,
        "peak_rss_mb": workload.rss_at_ops or peak_rss_mb(),
    }
    return [outcome], values, END_TO_END, True


def _bucket_of(traceback, repro_dir: str, bench_dir: str) -> str:
    from perfbench.layers import MODULE_BUCKETS, PACKAGE_BUCKETS

    for frame in reversed(traceback):  # most recent call first
        filename = frame.filename
        if filename.startswith(repro_dir):
            module = "repro." + filename[len(repro_dir):-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            if module in MODULE_BUCKETS:
                return module
            package = ".".join(module.split(".")[:2])
            return package if package in PACKAGE_BUCKETS else "repro.other"
        if filename.startswith(bench_dir):
            return "perfbench"
    return "external"


def retained_by_bucket(before, after) -> dict[str, int]:
    """Bytes allocated between two snapshots and still live, by bucket."""
    import repro

    repro_dir = str(Path(repro.__file__).parent) + os.sep
    bench_dir = str(Path(__file__).parent) + os.sep
    totals: dict[str, int] = defaultdict(int)
    for stat in after.compare_to(before, "traceback"):
        totals[_bucket_of(stat.traceback, repro_dir, bench_dir)] += stat.size_diff
    return totals


def run_traced(workload, seconds: float, seed: int):
    """Untraced, traced and memory phases over one set-up.

    The traced phase replays exactly the operations the untraced phase ran,
    so the two are compared on the same cells or requests.
    """
    from perfbench.layers import LAYERS, TARGETS, TCP_TRANSPORT
    from perfbench.loadgen import rss_mb, run_ops
    from perfbench.tracing import OP, Recorder, breakdown, installed

    phase = seconds / 3
    state = workload.setup()
    try:
        rss_before = rss_mb()
        base = run_ops(workload, state, seconds=phase)
        rss_growth = rss_mb() - rss_before
        ops = base.attempted
        stores_before = workload.stage_stats(state)
        cache_before = workload.cache_counts(state)
        wait_before = workload.wait_ns
        recorder = Recorder()
        with installed(recorder, TARGETS):
            traced = run_ops(workload, state, count=ops, recorder=recorder)
        wait_ns = workload.wait_ns - wait_before
        cache_after = workload.cache_counts(state)
        stores_after = workload.stage_stats(state)

        gc.collect()
        tracemalloc.start(TRACEMALLOC_FRAMES)
        before = tracemalloc.take_snapshot()
        memory = run_ops(workload, state, seconds=phase, whole_passes=False)
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
    finally:
        workload.close(state)

    OUT_DIR.mkdir(exist_ok=True)
    recorder.write_jsonl(OUT_DIR / f"spans-{workload.name}-{seed}.jsonl")

    split = breakdown(recorder.spans)
    per_op = 1e3 * ops  # ns totals -> us per operation
    values = {
        f"{layer}.self_us": split.self_ns.get(layer, 0) / per_op
        for layer in LAYERS
    }
    values["core.simulator.self_us"] = (
        values["core.simulator.replay.self_us"]
        + values["core.simulator.query.self_us"]
    )
    transport = split.self_ns[OP] if workload.name == "warm-tcp" else 0
    values[f"{TCP_TRANSPORT}_us"] = transport / per_op
    e2e = sum(traced.latencies_ns)
    named = sum(split.self_ns.get(layer, 0) for layer in LAYERS) + transport
    values["unattributed.self_us"] = (e2e - named) / per_op
    values["traced_op_us"] = e2e / per_op
    values["rss_growth_mb"] = rss_growth
    untraced_mean = sum(base.latencies_ns) / ops
    values["tracing_overhead_pct"] = 100 * (e2e / ops - untraced_mean) / untraced_mean
    values["future.wait_us"] = wait_ns / per_op
    if cache_before is not None:
        values["cache.hit_ratio"] = _ratio(
            cache_after[0] - cache_before[0],
            sum(cache_after) - sum(cache_before),
        )
    for name, number in recorder.counts.items():
        values[name] = number / ops
    if stores_before is not None:
        replays = (
            recorder.counts["simulate.peak_profiles"]
            + recorder.counts["simulate.bounded_replays"]
        )
        values["simulate.cache_hit_ratio"] = 1 - replays / ops
        for stage, store in (
            ("profile", "traces"),
            ("analyze", "analyses"),
            ("orchestrate", "sequences"),
            ("simulate", "simulations"),
        ):
            hits = stores_after[store]["hits"] - stores_before[store]["hits"]
            misses = stores_after[store]["misses"] - stores_before[store]["misses"]
            values[f"stage_store.{stage}.hit_ratio"] = _ratio(hits, hits + misses)
    for bucket, size in retained_by_bucket(before, after).items():
        values[f"retained_b_per_op.{bucket}"] = size / memory.attempted

    # the self times of every span, the root's included, must add up to
    # what the load generator timed: more means overlapping spans were
    # counted twice, less means the arithmetic lost an interval
    accounted = sum(split.self_ns.values())
    consistent = split.ops == ops and abs(accounted - e2e) <= SUM_TOLERANCE * e2e
    if not consistent:
        print(
            f"perfbench: layer self times sum to {accounted} ns over "
            f"{split.ops} ops, traced end-to-end is {e2e} ns over {ops}",
            file=sys.stderr,
        )
    return [base, traced, memory], values, per_layer_metrics(), consistent


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # one CPU for every thread: a hand-off between the client, the server
    # loop and the reader thread then costs a context switch, instead of a
    # cross-CPU wake-up whose latency on a shared VM varied 2-4x from run
    # to run (warm-tcp p50 0.46-1.3 ms unpinned)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # import the program from this checkout's src/, and this package by name
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        print(
            f"perfbench: cannot import the program from {ROOT / 'src'}: {error}",
            file=sys.stderr,
        )
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(
            f"perfbench: imported the program from {repro.__file__}, "
            f"not from {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    from perfbench.loadgen import report_errors
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        outcomes, values, units, consistent = run_traced(
            workload, args.seconds, args.seed
        )
    else:
        outcomes, values, units, consistent = run_untraced(workload, args.seconds)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    for outcome in outcomes:
        report_errors(outcome)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "nproc": nproc,
                "cpu": cpu,
                "python": platform.python_version(),
                "load_threads": len(set().union(*(o.threads for o in outcomes))),
                "connections": workload.max_connections,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0 and consistent,
                "attempted": attempted,
                "failed": failed,
                "metrics": _metrics(values, units),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
