"""The layers of the program, named by module, and where each is entered.

Each target is ``(owner, attribute, span name, probe)``: the shim goes on
``owner.attribute``, the attribute the caller looks the function up
from, and ``probe`` (or None) turns the call's return value into counts.
"""

from __future__ import annotations

import repro.core.analyzer as analyzer_module
import repro.core.pipeline as pipeline_module
import repro.service.aio as aio_module
import repro.service.engine as engine_module
import repro.service.tcp as tcp_module
from repro.core.analyzer import Analyzer
from repro.core.orchestrator import MemoryOrchestrator
from repro.core.pipeline import EstimationPipeline
from repro.core.simulator import MemorySimulator, PeakProfile
from repro.service.aio import AsyncServiceGateway
from repro.service.cache import EstimateCache
from repro.service.core import GatewayCore, ServiceCore
from repro.service.gateway import SyncGatewayShell
from repro.service.middleware import MiddlewareChain
from repro.service.wire import FrameDecoder

#: the remainder of a warm-tcp round trip once every server-side and codec
#: span is taken out: syscalls and thread <-> event-loop hops
TCP_TRANSPORT = "service.tcp.transport"


def _analysis_counts(analyzed) -> dict:
    return {
        "trace.memory_events": len(analyzed.trace.memory_events),
        "analyze.spans": len(analyzed.trace.spans),
        "analyze.blocks": len(analyzed.blocks),
    }


def _profile_counts(profile) -> dict:
    return {"simulate.events": profile.result.num_events, "simulate.peak_profiles": 1}


def _replay_counts(result) -> dict:
    return {"simulate.events": result.num_events, "simulate.bounded_replays": 1}


TARGETS = (
    (pipeline_module, "profile_on_cpu", "runtime", None),
    (analyzer_module, "reconstruct_lifecycles", "core.lifecycle", None),
    (analyzer_module, "attribute_blocks", "core.attribution", None),
    (analyzer_module, "operator_filter", "core.attribution", None),
    (Analyzer, "analyze", "core.analyzer", _analysis_counts),
    (MemoryOrchestrator, "orchestrate", "core.orchestrator", None),
    (
        MemorySimulator,
        "replay_peak_profile",
        "core.simulator.replay",
        _profile_counts,
    ),
    (MemorySimulator, "replay", "core.simulator.replay", _replay_counts),
    (PeakProfile, "query", "core.simulator.query", None),
    (EstimationPipeline, "run", "core.pipeline", None),
    (engine_module, "compute_fingerprint", "service.fingerprint", None),
    (aio_module, "compute_fingerprint", "service.fingerprint", None),
    (GatewayCore, "route", "service.core", None),
    (GatewayCore, "admit", "service.core", None),
    (GatewayCore, "settle", "service.core", None),
    (ServiceCore, "open_request", "service.core", None),
    (ServiceCore, "run_request_hooks", "service.core", None),
    (MiddlewareChain, "run_request", "service.middleware", None),
    (MiddlewareChain, "run_result", "service.middleware", None),
    (EstimateCache, "get", "service.cache", None),
    (SyncGatewayShell, "submit", "service.gateway", None),
    (AsyncServiceGateway, "submit", "service.aio", None),
    (tcp_module, "encode_frame", "service.wire.encode", None),
    (FrameDecoder, "feed", "service.wire.decode", None),
    (tcp_module, "result_to_wire", "service.wire.result_codec", None),
    (tcp_module, "result_from_wire", "service.wire.result_codec", None),
)

#: span names in report order (one ``<name>.self_us`` metric each)
LAYERS = tuple(dict.fromkeys(target[2] for target in TARGETS))

#: tracemalloc buckets: retained bytes are charged to the innermost frame
#: in the ``repro`` package, by module for the estimator core and the
#: service, by subpackage for the rest
MODULE_BUCKETS = (
    "repro.service.aio",
    "repro.service.cache",
    "repro.service.context",
    "repro.service.core",
    "repro.service.engine",
    "repro.service.fingerprint",
    "repro.service.gateway",
    "repro.service.metrics",
    "repro.service.middleware",
    "repro.service.routing",
    "repro.service.tcp",
    "repro.service.wire",
    "repro.service.telemetry.spans",
    "repro.service.telemetry.ledger",
    "repro.core.analyzer",
    "repro.core.attribution",
    "repro.core.estimator",
    "repro.core.lifecycle",
    "repro.core.orchestrator",
    "repro.core.pipeline",
    "repro.core.result",
    "repro.core.simulator",
)
PACKAGE_BUCKETS = (
    "repro.allocator",
    "repro.framework",
    "repro.models",
    "repro.runtime",
    "repro.trace",
)
#: repro code outside the buckets above; the benchmark's own frames; the
#: standard library with no repro or benchmark frame above it
OTHER_BUCKETS = ("repro.other", "perfbench", "external")
BUCKETS = MODULE_BUCKETS + PACKAGE_BUCKETS + OTHER_BUCKETS
