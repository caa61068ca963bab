"""Span recording from outside the program, and self-time arithmetic.

The traced run replaces each layer's entry points with a shim that
records a span around the original call.  A shim goes on the attribute
the caller looks the function up from: a module-level function imported
by name (``from .lifecycle import reconstruct_lifecycles``) is looked up
in the *importing* module, a method on its class.  Shims are installed
only for the traced phase and removed afterwards, so the untraced run
executes the program unchanged.

Spans carry name, start, end, parent and request id.  The load generator
keeps one request (or cell) outstanding at a time and stamps its id on
the recorder while it is open, so every span that starts inside that
window - on any thread, including the TCP server's event loop and the
client's reader thread - belongs to it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Optional

#: name of the load generator's root span around one request or cell
OP = "op"


class Span(NamedTuple):
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    request: Optional[int]
    thread: int


class Recorder:
    """Keeps spans in memory; written out once, when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        #: counts the probes took from traced calls' return values
        self.counts: Counter = Counter()
        self.request: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(
        self, name: str, fn: Callable, probe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``probe``, when given, maps the return value to counts that are
        added to :attr:`counts` (outside the span).
        """
        spans = self.spans
        counts = self.counts
        ids = self._ids
        clock = time.perf_counter_ns
        stack_of = self._stack
        get_ident = threading.get_ident

        def shim(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            request = self.request
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, name, start, end, parent, request, get_ident())
                )
            if probe is not None and request is not None:
                counts.update(probe(result))
            return result

        shim.__wrapped__ = fn
        return shim

    @contextmanager
    def op(self, request: int):
        """The root span of one request: opens its window on the recorder."""
        span_id = next(self._ids)
        self.request = request
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.request = None
            self.spans.append(
                Span(span_id, OP, start, end, None, request, threading.get_ident())
            )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


@contextmanager
def installed(recorder: Recorder, targets: Iterable[tuple]):
    """Shim every ``(owner, attribute, span name, probe)`` for the block's
    extent, then put the originals back."""
    saved = []
    try:
        for owner, attribute, name, probe in targets:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, probe))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that children cover.

    A span's children are the spans naming it as parent.  A request's
    root span (``OP``) also adopts every parentless span of the same
    request, which is how work on other threads (server loop, client
    reader) is taken out of the round trip.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    roots: dict[int, int] = {}
    for span in spans:
        if span.name == OP:
            roots[span.request] = span.span_id
    for span in spans:
        parent = span.parent
        if parent is None and span.name != OP:
            parent = roots.get(span.request)
        if parent is not None:
            children[parent].append((span.start_ns, span.end_ns))
    return {
        span.span_id: span.end_ns
        - span.start_ns
        - covered_ns(span.start_ns, span.end_ns, children[span.span_id])
        for span in spans
    }


class Breakdown(NamedTuple):
    """Per-layer self time summed over the requests that were traced."""

    self_ns: dict[str, int]  # span name -> summed self time
    ops: int  # root spans, one per traced request


def breakdown(spans: Iterable[Span]) -> Breakdown:
    """Fold the spans of every traced request into per-name self times.

    Spans that started outside every request window (no request id) are
    left out: no request waited for them.
    """
    spans = [span for span in spans if span.request is not None]
    selfs = self_times(spans)
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span.name] += selfs[span.span_id]
    ops = sum(span.name == OP for span in spans)
    return Breakdown(dict(totals), ops)
