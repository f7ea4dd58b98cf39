"""Fused-kernel micro-benchmark: 2-layer window latency vs tiles touched.

Measures the per-query wall time of 2-layer window queries over the
packed CSR base (:mod:`repro.grid.storage`) as a function of *tiles
touched* (window area sweep).  The fused region kernels cost O(regions)
vectorised passes, so latency should grow far slower than the number of
tiles a query touches.
"""

from __future__ import annotations

import functools

import pytest

from repro.bench import (
    BEST_GRANULARITY,
    print_table,
    throughput,
    tiger_dataset,
    window_workload,
)
from repro.core import TwoLayerGrid
from repro.stats import QueryStats

from _shared import emit_bench_record
from conftest import report

#: window area sweep (% of the domain) — larger windows touch more tiles.
_AREAS = (0.05, 0.1, 0.5, 1.0)
_DATASET = "ROADS"

_LATENCY: dict[str, float] = {}  # area label -> µs
_TILES: dict[str, float] = {}  # area label -> mean tiles touched


@functools.cache
def _index() -> TwoLayerGrid:
    return TwoLayerGrid.build(
        tiger_dataset(_DATASET), partitions_per_dim=BEST_GRANULARITY
    )


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


def test_kernels_report(benchmark):
    """Assemble the latency-vs-tiles table and register the record."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [[_label(a), _TILES[_label(a)], _LATENCY[_label(a)]] for a in _AREAS]
    report(
        lambda: print_table(
            "Fused kernels — per-query latency [µs] vs tiles touched "
            f"(2-layer, {_DATASET}, window area sweep)",
            ["area", "tiles", "packed µs"],
            rows,
        )
    )
    # The who-wins ordering inside the series (bigger windows are
    # slower) is scale-stable, so the regression gate never trips on
    # smoke-scale CI runs.
    emit_bench_record(
        "kernels",
        {
            "dataset": _DATASET,
            "granularity": BEST_GRANULARITY,
            "window_area_pct": list(_AREAS),
        },
        {
            "packed_latency_us": dict(_LATENCY),
            "tiles_touched": dict(_TILES),
        },
    )
