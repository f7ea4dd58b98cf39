"""Window-kernel micro-benchmark: 2-layer window latency vs tiles touched.

Measures the per-query wall time of 2-layer window queries over the
packed CSR base (:mod:`repro.grid.storage`) as a function of *tiles
touched* (window area sweep).  The window kernel costs one vectorised
pass per grid row of the range, so latency should grow far slower than
the number of tiles a query touches.

The same windows are also timed on a *dirty* index — 100 deletes and
100 inserts, not compacted — as the record-only ``dirty_latency_us``
series: tombstones and overlay rows ride on the same kernel, so this
should stay close to the clean latency.

Two more record-only series time the other query shapes over the same
sweep on the clean index: ``within_latency_us`` (the same windows,
containment predicate) and ``disk_latency_us`` (disks whose area equals
the window's, through the §IV-E range kernel).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.bench import (
    BEST_GRANULARITY,
    print_table,
    throughput,
    tiger_dataset,
    disk_workload,
    window_workload,
)
from repro.core import TwoLayerGrid
from repro.stats import QueryStats

from _shared import emit_bench_record
from conftest import report

#: window area sweep (% of the domain) — larger windows touch more tiles.
_AREAS = (0.05, 0.1, 0.5, 1.0)
_DATASET = "ROADS"

#: deletes and inserts applied (without compacting) to the dirty index.
_DIRTY_UPDATES = 100

_LATENCY: dict[str, float] = {}  # area label -> µs
_DIRTY_LATENCY: dict[str, float] = {}  # area label -> µs, dirty index
_WITHIN_LATENCY: dict[str, float] = {}  # area label -> µs, "within"
_DISK_LATENCY: dict[str, float] = {}  # area label -> µs, equal-area disks
_TILES: dict[str, float] = {}  # area label -> mean tiles touched


@functools.cache
def _index() -> TwoLayerGrid:
    return TwoLayerGrid.build(
        tiger_dataset(_DATASET), partitions_per_dim=BEST_GRANULARITY
    )


@functools.cache
def _dirty_index() -> TwoLayerGrid:
    """The same index after deletes and inserts, left uncompacted."""
    data = tiger_dataset(_DATASET)
    index = TwoLayerGrid.build(data, partitions_per_dim=BEST_GRANULARITY)
    rng = np.random.default_rng(13)
    picks = rng.choice(len(data), size=2 * _DIRTY_UPDATES, replace=False)
    for obj_id in picks[:_DIRTY_UPDATES]:
        index.delete(data.rect(int(obj_id)), int(obj_id))
    for k, obj_id in enumerate(picks[_DIRTY_UPDATES:]):
        index.insert(data.rect(int(obj_id)), len(data) + k)
    return index


def _label(area: float) -> str:
    return f"{area}pct"


@pytest.mark.parametrize("area", _AREAS)
def test_kernels_window_latency(benchmark, area):
    index = _index()
    queries = window_workload(_DATASET, area)

    def run():
        for w in queries:
            index.window_query(w)

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    timed = throughput(index.window_query, queries, repeats=3)
    _LATENCY[_label(area)] = 1e6 / timed.qps
    stats = QueryStats()
    for w in queries:
        index.window_query(w, stats)
    _TILES[_label(area)] = stats.partitions_visited / len(queries)
    dirty = _dirty_index()
    timed = throughput(dirty.window_query, queries, repeats=3)
    _DIRTY_LATENCY[_label(area)] = 1e6 / timed.qps
    timed = throughput(index.window_query_within, queries, repeats=3)
    _WITHIN_LATENCY[_label(area)] = 1e6 / timed.qps
    timed = throughput(index.disk_query, disk_workload(_DATASET, area), repeats=3)
    _DISK_LATENCY[_label(area)] = 1e6 / timed.qps


def test_kernels_report(benchmark):
    """Assemble the latency-vs-tiles table and register the record."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        [
            _label(a),
            _TILES[_label(a)],
            _LATENCY[_label(a)],
            _DIRTY_LATENCY[_label(a)],
            _WITHIN_LATENCY[_label(a)],
            _DISK_LATENCY[_label(a)],
        ]
        for a in _AREAS
    ]
    report(
        lambda: print_table(
            "Window kernel — per-query latency [µs] vs tiles touched "
            f"(2-layer, {_DATASET}, window area sweep)",
            ["area", "tiles", "packed µs", "dirty µs", "within µs", "disk µs"],
            rows,
        )
    )
    # The who-wins ordering inside the series (bigger windows are
    # slower) is scale-stable, so the regression gate never trips on
    # smoke-scale CI runs.  dirty_latency_us, within_latency_us and
    # disk_latency_us have no committed baseline, so they are recorded
    # but not gated.
    emit_bench_record(
        "kernels",
        {
            "dataset": _DATASET,
            "granularity": BEST_GRANULARITY,
            "window_area_pct": list(_AREAS),
        },
        {
            "packed_latency_us": dict(_LATENCY),
            "dirty_latency_us": dict(_DIRTY_LATENCY),
            "within_latency_us": dict(_WITHIN_LATENCY),
            "disk_latency_us": dict(_DISK_LATENCY),
            "tiles_touched": dict(_TILES),
        },
    )
