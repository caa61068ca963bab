"""Tests of the benchmark itself: inputs, span arithmetic, checks, load."""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from perfbench import cells, layers, run, tracing
from perfbench.loadgen import run_ops
from perfbench.tracing import OP, Span
from perfbench.workloads import (
    WORKLOADS,
    ColdZoo,
    PeakCheck,
    WarmInproc,
    WarmTcp,
)
from repro.workload import RTX_3060, RTX_4060, WorkloadConfig

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


# -- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize(
    "generate", [cells.cold_cells, cells.sweep_cells, cells.warm_catalog]
)
def test_same_seed_same_cells_other_seed_other_cells(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_same_seed_same_requests_other_seed_other_requests():
    assert cells.zipf_requests(3, 16, 500) == cells.zipf_requests(3, 16, 500)
    assert cells.zipf_requests(3, 16, 500) != cells.zipf_requests(4, 16, 500)


def test_cold_zoo_is_about_half_cnn_half_transformer_and_distinct():
    zoo = cells.cold_cells(0)
    models = [cell.workload.model for cell in zoo]
    assert len(set(models)) == len(models) == 13
    cnns = {name for name, _, _ in cells.COLD_CNNS}
    assert sum(model in cnns for model in models) == 6


def test_sweep_grid_shape():
    grid = cells.sweep_cells(0)
    assert len(grid) == 6 * 5 * 3
    assert len(set(grid)) == len(grid)


def test_warm_catalog_is_8_workloads_on_2_devices():
    catalog = cells.warm_catalog(0)
    assert len({cell.workload for cell in catalog}) == 8
    assert {cell.device for cell in catalog} == {RTX_3060, RTX_4060}
    assert len(set(catalog)) == 16


# -- self-time arithmetic ----------------------------------------------------


def _span(span_id, name, start, end, parent=None, request=0, thread=1):
    return Span(span_id, name, start, end, parent, request, thread)


def test_nested_self_times():
    spans = [
        _span(0, OP, 0, 100),
        _span(1, "a", 10, 90),
        _span(2, "b", 20, 40, parent=1),
        _span(3, "c", 50, 70, parent=1),
        _span(4, "d", 55, 60, parent=3),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 20, 1: 40, 2: 20, 3: 15, 4: 5}
    assert sum(selfs.values()) == 100


def test_overlapping_children_are_covered_once():
    # two children of one span overlap (e.g. recorded on two threads)
    spans = [
        _span(0, OP, 0, 100),
        _span(1, "a", 0, 100),
        _span(2, "b", 10, 50, parent=1),
        _span(3, "c", 30, 70, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 100 - 60
    assert selfs[0] == 0


def test_child_reaching_past_its_parent_is_clipped():
    spans = [_span(0, OP, 0, 50), _span(1, "a", 40, 80)]
    assert tracing.self_times(spans)[0] == 40


def test_parentless_spans_on_other_threads_are_taken_out_of_the_op():
    spans = [
        _span(0, OP, 0, 100, thread=1),
        _span(1, "encode", 5, 15, thread=1),
        _span(2, "server", 30, 60, thread=2),
        _span(3, "core", 35, 45, parent=2, thread=2),
        _span(4, "decode", 80, 90, thread=3),
        _span(5, "other-request", 40, 50, request=1, thread=2),
    ]
    split = tracing.breakdown(spans)
    assert split.self_ns[OP] == 100 - 10 - 30 - 10
    assert split.self_ns["server"] == 20
    assert split.ops == 1
    assert sum(split.self_ns.values()) == 100 + 10  # the other request


def test_spans_outside_every_request_window_are_left_out():
    spans = [_span(0, OP, 0, 10), _span(1, "late", 20, 30, request=None)]
    split = tracing.breakdown(spans)
    assert "late" not in split.self_ns


class _Owner:
    def work(self, x):
        return x * 2


def test_shims_record_spans_with_counts_and_are_removed():
    original = _Owner.__dict__["work"]
    recorder = tracing.Recorder()
    probe = lambda result: {"calls": 1}  # noqa: E731
    with tracing.installed(recorder, [(_Owner, "work", "w", probe)]):
        with recorder.op(0):
            assert _Owner().work(3) == 6
        _Owner().work(1)  # outside every request window: no counts
    assert _Owner.__dict__["work"] is original
    assert [span.name for span in recorder.spans] == ["w", OP, "w"]
    assert recorder.spans[0].request == 0
    assert recorder.counts == {"calls": 1}


def test_every_layer_target_exists_where_callers_look_it_up():
    for owner, attribute, _, _ in layers.TARGETS:
        assert callable(owner.__dict__[attribute])


# -- output checks -----------------------------------------------------------


def test_wrong_peak_fails_the_table_check():
    cell = cells.cold_cells(0)[0]
    check = PeakCheck({cell.label: [100, 90, False]})
    assert check(cell, 100, 90, False)
    assert not check(cell, 101, 90, False)
    assert not check(cell, 100, 90, True)


def test_invariants_hold_for_any_seed():
    cell = cells.cold_cells(5)[0]
    check = PeakCheck(None)
    assert not check(cell, 100, 101, False)  # allocated above reserved
    too_big = cell.device.job_budget() + 1
    assert not check(cell, too_big, 1, False)  # fits, yet over budget


def test_default_seed_table_covers_every_cell():
    table = json.loads(
        (run.ROOT / "perfbench" / "expected_peaks.json").read_text()
    )
    assert table["seed"] == cells.DEFAULT_SEED
    assert set(table["cold-zoo"]) == {
        c.label for c in cells.cold_cells(cells.DEFAULT_SEED)
    }
    assert set(table["sweep-delta"]) == {
        c.label for c in cells.sweep_cells(cells.DEFAULT_SEED)
    }


def _done(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def test_a_wrong_warm_peak_counts_as_a_failed_operation():
    workload = WarmInproc(0)
    served = {"peak": 10}
    target = SimpleNamespace(
        submit=lambda w, d: _done(SimpleNamespace(peak_bytes=served["peak"]))
    )
    expected = [10] * len(workload.catalog)
    outcome = run_ops(workload, (target, expected), count=3)
    assert (outcome.attempted, outcome.failed) == (3, 0)
    served["peak"] = 11
    outcome = run_ops(workload, (target, expected), count=3)
    assert outcome.failed == 3


def test_an_exception_counts_as_a_failed_operation():
    workload = WarmInproc(0)

    def submit(w, d):
        raise RuntimeError("shed")

    outcome = run_ops(workload, (SimpleNamespace(submit=submit), []), count=2)
    assert outcome.failed == 2
    assert outcome.errors["RuntimeError"] == 2


def test_cold_zoo_wrong_peak_counts_as_a_failed_operation(monkeypatch):
    workload = ColdZoo(cells.DEFAULT_SEED)
    result = SimpleNamespace(peak_bytes=1, detail={"peak_allocated_bytes": 1})
    monkeypatch.setattr(workload, "estimate", lambda cell: result)
    outcome = run_ops(workload, None, count=2)
    assert outcome.failed == 2


# -- load generator ----------------------------------------------------------

TINY = [
    cells.Cell(WorkloadConfig("VGG16", "sgd", 8), RTX_3060),
    cells.Cell(WorkloadConfig("VGG16", "sgd", 8), RTX_4060),
]


@pytest.mark.parametrize("kind", [WarmInproc, WarmTcp])
def test_load_generator_threads_and_connections_within_nproc(kind):
    nproc = len(os.sched_getaffinity(0))
    workload = kind(0, catalog=TINY)
    state = workload.setup()
    try:
        outcome = run_ops(workload, state, seconds=0.2)
    finally:
        workload.close(state)
    assert outcome.failed == 0 and outcome.attempted > 0
    assert outcome.threads == {threading.get_ident()}
    assert len(outcome.threads) <= nproc
    assert workload.max_connections <= min(1, nproc)
    assert workload.connections == 0


# -- the benchmark's description ---------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.per_layer_metrics()
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
