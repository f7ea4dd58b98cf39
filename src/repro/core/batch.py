"""Batch query processing — Section VI.

Two strategies for evaluating a large batch of window queries:

* **queries-based** — evaluate every query independently, in submission
  order.  Simple, but cache-agnostic: each query touches many tiles
  scattered across memory.
* **tiles-based** — two steps: (1) for every query, accumulate one
  *subtask* per overlapped non-empty tile; (2) sweep the tiles once, at
  each tile executing all of its subtasks back-to-back.  The tile's
  secondary partitions stay hot in cache while every query that needs
  them is served, which is what makes this strategy scale with data/query
  density (Fig. 10) and with parallelism (Fig. 11).

Both return per-query results and are exactly equivalent in output.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.datasets.queries import DiskQuery
from repro.geometry.mbr import Rect
from repro.core.selection import plan_tile
from repro.core.two_layer import TwoLayerGrid
from repro.stats import QueryStats

__all__ = [
    "evaluate_queries_based",
    "evaluate_tiles_based",
    "evaluate_disk_queries_based",
    "evaluate_disk_tiles_based",
    "BATCH_METHODS",
]

BATCH_METHODS = ("queries", "tiles")

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def evaluate_queries_based(
    index: Any,
    windows: Sequence[Rect],
    stats: "QueryStats | None" = None,
) -> list[np.ndarray]:
    """Evaluate a batch query-by-query (works with any index)."""
    return [index.window_query(w, stats) for w in windows]


def evaluate_tiles_based(
    index: TwoLayerGrid,
    windows: Sequence[Rect],
    stats: "QueryStats | None" = None,
) -> list[np.ndarray]:
    """Evaluate a batch tile-by-tile over a two-layer grid.

    Step 1 computes each query's tile range (O(1) each) and appends the
    query to every overlapped *non-empty* tile's subtask list.  Step 2
    visits the tiles once, in id order, draining each tile's subtasks
    with :meth:`TwoLayerGrid._scan_tile_window`.
    """
    grid = index.grid
    ranges = [grid.tile_range_for_window(w) for w in windows]
    subtasks: dict[int, list[int]] = {}
    for qi, (ix0, ix1, iy0, iy1) in enumerate(ranges):
        for iy in range(iy0, iy1 + 1):
            base = iy * grid.nx
            for ix in range(ix0, ix1 + 1):
                tile_id = base + ix
                if tile_id in subtasks or index._tile_has_rows(tile_id):
                    subtasks.setdefault(tile_id, []).append(qi)

    pieces: list[list[np.ndarray]] = [[] for _ in windows]
    for tile_id in sorted(subtasks):
        ix, iy = grid.tile_coords(tile_id)
        for qi in subtasks[tile_id]:
            ix0, ix1, iy0, iy1 = ranges[qi]
            plan = plan_tile(ix, iy, ix0, ix1, iy0, iy1)
            index._scan_tile_window(tile_id, windows[qi], plan, pieces[qi], stats)
    return [
        np.concatenate(parts) if parts else _EMPTY_IDS for parts in pieces
    ]


def evaluate_disk_queries_based(
    index: Any,
    queries: Sequence[DiskQuery],
    stats: "QueryStats | None" = None,
) -> list[np.ndarray]:
    """Evaluate a disk-query batch query-by-query (any index)."""
    return [index.disk_query(q, stats) for q in queries]


def evaluate_disk_tiles_based(
    index: TwoLayerGrid,
    queries: Sequence[DiskQuery],
    stats: "QueryStats | None" = None,
) -> list[np.ndarray]:
    """Evaluate a disk-query batch tile-by-tile over a two-layer grid.

    Step 1 computes each query's §IV-E plan (per-row spans and covered
    runs, :meth:`TwoLayerGrid._range_plan`); step 2 sweeps the tiles in
    id order, draining every query's subtask for that tile with
    :meth:`TwoLayerGrid._scan_tile_range` while its secondary partitions
    are hot.  Any convex range of :mod:`repro.core.ranges` works too.
    """
    plans = [index._range_plan(q) for q in queries]
    subtasks: dict[int, list[int]] = {}
    for qi, plan in enumerate(plans):
        if plan is None:
            continue
        for tile_id in plan.tile_ids():
            if tile_id in subtasks or index._tile_has_rows(tile_id):
                subtasks.setdefault(tile_id, []).append(qi)

    pieces: list[list[np.ndarray]] = [[] for _ in queries]
    for tile_id in sorted(subtasks):
        for qi in subtasks[tile_id]:
            index._scan_tile_range(
                tile_id, queries[qi], plans[qi], pieces[qi], stats
            )
    return [
        np.concatenate(parts) if parts else _EMPTY_IDS for parts in pieces
    ]
