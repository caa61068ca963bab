"""The closed-loop load generator (one thread, one operation outstanding)
and the process measurements it reports."""

from __future__ import annotations

import os
import resource
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from .tracing import Recorder


@dataclass
class Outcome:
    latencies_ns: list[int] = field(default_factory=list)
    failed: int = 0
    elapsed_s: float = 0.0
    #: exception type name -> count, for the diagnostics on stderr
    errors: Counter = field(default_factory=Counter)
    #: threads that issued operations
    threads: set[int] = field(default_factory=set)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)


def run_ops(
    workload,
    state,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    whole_passes: bool = True,
) -> Outcome:
    """Run operations until ``seconds`` pass or ``count`` are done.

    Workloads with a ``pass_size`` run whole passes unless told otherwise,
    so every run covers the same cells however fast the machine is; the
    next operation is sent only after the previous one completed.
    """
    if (seconds is None) == (count is None):
        raise ValueError("give exactly one of seconds and count")
    outcome = Outcome()
    pass_size = workload.pass_size
    clock = time.perf_counter_ns
    outcome.threads.add(threading.get_ident())
    started = time.perf_counter()
    index = 0
    while True:
        at_boundary = pass_size is None or index % pass_size == 0
        if count is not None:
            if index >= count:
                break
        elif (
            index
            and (at_boundary or not whole_passes)
            and time.perf_counter() - started >= seconds
        ):
            break
        if pass_size is not None and at_boundary:
            workload.begin_pass(state)
        window = recorder.op(index) if recorder is not None else nullcontext()
        begin = clock()
        try:
            with window:
                ok = workload.op(state, index)
        except Exception as error:  # a failed operation, not a failed run
            outcome.errors[type(error).__name__] += 1
            ok = False
        outcome.latencies_ns.append(clock() - begin)
        outcome.failed += not ok
        index += 1
    outcome.elapsed_s = time.perf_counter() - started
    return outcome


def peak_rss_mb() -> float:
    """The most the process has ever had resident."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_mb() -> float:
    """The process's current resident set (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def report_errors(outcome: Outcome) -> None:
    for name, number in sorted(outcome.errors.items()):
        print(f"perfbench: {number} operations raised {name}", file=sys.stderr)
