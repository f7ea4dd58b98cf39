"""Correctness and regression tests for the packed CSR storage.

Every index keeps its bulk-loaded rows in a
:class:`repro.grid.storage.PackedStore` queried by fused kernels, with a
per-tile delta overlay for inserts and tombstones for deletes.  These
tests check it against two independent references:

* result ids against a numpy brute-force scan of the live dataset
  columns — for every query kind, under interleaved inserts and deletes,
  after compaction, and across persistence round-trips;
* :class:`~repro.stats.QueryStats` accounting of the fused 2-layer
  kernels against the per-tile path on the same index
  (``window_query`` vs :func:`~repro.core.batch.evaluate_tiles_based`,
  ``disk_query`` vs :func:`~repro.core.batch.evaluate_disk_tiles_based`,
  convex ranges vs a walk of ``_scan_tile_range`` over the plan's
  tiles, ``window_query_within`` vs a walk of ``_scan_tile_within``),
  and of the 1-layer window kernel against a per-tile walk of
  ``_scan_tile_window`` with the same dedup technique — on clean
  indexes and under pending overlay rows and tombstones.

The serving layer's copy-on-write snapshots are covered too.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ids_set

from repro.core import (
    ConvexPolygonRange,
    TwoLayerGrid,
    TwoLayerPlusGrid,
    convex_range_query,
    knn_query,
)
from repro.core.batch import evaluate_disk_tiles_based, evaluate_tiles_based
from repro.core.persistence import load_index, save_index
from repro.datasets import DiskQuery, RectDataset, generate_uniform_rects
from repro.geometry import Rect
from repro.grid import ActiveBorder, OneLayerGrid
from repro.grid.storage import PackedStore, TileTable, ranges_to_rows, slab_runs
from repro.obs.explain import ExplainStats, explain_disk, explain_window
from repro.server.snapshot import SnapshotStore
from repro.stats import QueryStats

GRID = 16


@pytest.fixture(scope="module")
def data() -> RectDataset:
    return generate_uniform_rects(1500, area=1e-3, seed=7)


@pytest.fixture(scope="module")
def index(data):
    return TwoLayerGrid.build(data, partitions_per_dim=GRID)


def windows(n: int, seed: int, lo: float = 0.02, hi: float = 0.35):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        w = rng.uniform(lo, hi)
        h = rng.uniform(lo, hi)
        x = rng.uniform(0.0, 1.0 - w)
        y = rng.uniform(0.0, 1.0 - h)
        out.append(Rect(x, y, x + w, y + h))
    return out


def disks(n: int, seed: int, lo: float = 0.01, hi: float = 0.3):
    rng = np.random.default_rng(seed)
    return [
        DiskQuery(
            float(rng.uniform(0, 1)),
            float(rng.uniform(0, 1)),
            float(rng.uniform(lo, hi)),
        )
        for _ in range(n)
    ]


# -- brute-force oracle over the dataset columns ----------------------------


def live_mask(data: RectDataset, live=None) -> np.ndarray:
    if live is None:
        return np.ones(len(data), dtype=bool)
    mask = np.zeros(len(data), dtype=bool)
    mask[list(live)] = True
    return mask


def brute_window(data: RectDataset, w: Rect, live=None) -> np.ndarray:
    hit = (
        (data.xl <= w.xu)
        & (data.xu >= w.xl)
        & (data.yl <= w.yu)
        & (data.yu >= w.yl)
    )
    return np.flatnonzero(hit & live_mask(data, live))


def brute_within(data: RectDataset, w: Rect, live=None) -> np.ndarray:
    inside = (
        (data.xl >= w.xl)
        & (data.xu <= w.xu)
        & (data.yl >= w.yl)
        & (data.yu <= w.yu)
    )
    return np.flatnonzero(inside & live_mask(data, live))


def brute_polygon(data: RectDataset, poly: ConvexPolygonRange, live=None) -> np.ndarray:
    """Per-object exact polygon test (``Polygon.intersects_rect``)."""
    box = poly.bounding_box()
    near = np.flatnonzero(
        (data.xl <= box.xu)
        & (data.xu >= box.xl)
        & (data.yl <= box.yu)
        & (data.yu >= box.yl)
        & live_mask(data, live)
    )
    hit = [int(i) for i in near if poly.polygon.intersects_rect(data.rect(int(i)))]
    return np.asarray(hit, dtype=np.int64)


def brute_disk(data: RectDataset, q: DiskQuery, live=None) -> np.ndarray:
    dx = np.maximum(np.maximum(data.xl - q.cx, 0.0), q.cx - data.xu)
    dy = np.maximum(np.maximum(data.yl - q.cy, 0.0), q.cy - data.yu)
    hit = dx * dx + dy * dy <= q.radius * q.radius
    return np.flatnonzero(hit & live_mask(data, live))


def assert_ids(got: np.ndarray, expected: np.ndarray, label="") -> None:
    """Exactly the expected ids, each reported once."""
    got = np.sort(np.asarray(got, dtype=np.int64))
    assert np.unique(got).shape[0] == got.shape[0], f"{label}: duplicates"
    assert np.array_equal(got, expected), label


def tile_spans(grid, data: RectDataset):
    """Per-object ``(ix0, ix1, iy0, iy1)`` tile ranges."""
    return (
        grid.tile_ix_array(data.xl),
        grid.tile_ix_array(data.xu),
        grid.tile_iy_array(data.yl),
        grid.tile_iy_array(data.yu),
    )


# -- fused vs per-tile accounting on one index ------------------------------


def assert_window_stats_match(index: TwoLayerGrid, w: Rect, label="") -> None:
    """Fused ``window_query`` and the per-tile tiles-based path agree."""
    fused, per_tile = ExplainStats(), ExplainStats()
    got_f = index.window_query(w, fused)
    (got_t,) = evaluate_tiles_based(index, [w], per_tile)
    assert ids_set(got_f) == ids_set(got_t), label
    assert fused.as_dict() == per_tile.as_dict(), label
    assert fused.class_scans == per_tile.class_scans, label


def one_layer_tile_walk(
    index: OneLayerGrid, w: Rect, stats: QueryStats
) -> np.ndarray:
    """Per-tile reference for a 1-layer window query.

    ``_scan_tile_window`` over every tile of the range in row-major
    order (the active-border sweep's walk), then hash's terminal
    duplicate elimination.
    """
    ix0, ix1, iy0, iy1 = index.grid.tile_range_for_window(w)
    border = ActiveBorder() if index.dedup == "active_border" else None
    pieces: list[np.ndarray] = []
    for iy in range(iy0, iy1 + 1):
        if border is not None:
            border.start_row(iy)
        for ix in range(ix0, ix1 + 1):
            index._scan_tile_window(
                index.grid.tile_id(ix, iy), w, ix0, ix1, iy0, iy1, pieces,
                stats, border,
            )
    out = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    if index.dedup == "hash":
        deduped = np.unique(out)
        stats.dedup_checks += out.shape[0]
        stats.duplicates_generated += out.shape[0] - deduped.shape[0]
        out = deduped
    return out


def assert_one_layer_stats_match(index: OneLayerGrid, w: Rect, label="") -> None:
    """``window_query`` and :func:`one_layer_tile_walk` agree."""
    kernel, per_tile = ExplainStats(), ExplainStats()
    got_k = index.window_query(w, kernel)
    got_t = one_layer_tile_walk(index, w, per_tile)
    assert ids_set(got_k) == ids_set(got_t), label
    assert kernel.as_dict() == per_tile.as_dict(), label
    assert kernel.class_scans == per_tile.class_scans, label


def range_tile_walk(index: TwoLayerGrid, q, stats: QueryStats) -> np.ndarray:
    """Per-tile reference for a range query: ``_scan_tile_range`` over
    every span tile of the range's plan, in row-major order."""
    plan = index._range_plan(q)
    pieces: list[np.ndarray] = []
    for tile_id in plan.tile_ids() if plan is not None else ():
        index._scan_tile_range(tile_id, q, plan, pieces, stats)
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


def within_tile_walk(index: TwoLayerGrid, w: Rect, stats: QueryStats) -> np.ndarray:
    """Per-tile reference for a "within" query: ``_scan_tile_within``
    over every tile of the range, in row-major order."""
    ix0, ix1, iy0, iy1 = index.grid.tile_range_for_window(w)
    pieces: list[np.ndarray] = []
    for iy in range(iy0, iy1 + 1):
        for ix in range(ix0, ix1 + 1):
            index._scan_tile_within(
                index.grid.tile_id(ix, iy), w, ix == ix0, iy == iy0, pieces, stats
            )
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


def assert_walk_stats_match(run, walk, label="") -> None:
    """A kernel call and its per-tile walk agree on ids and accounting."""
    kernel, per_tile = ExplainStats(), ExplainStats()
    got_k = run(kernel)
    got_t = walk(per_tile)
    assert ids_set(got_k) == ids_set(got_t), label
    assert kernel.as_dict() == per_tile.as_dict(), label
    assert kernel.class_scans == per_tile.class_scans, label


def assert_disk_stats_match(index: TwoLayerGrid, q: DiskQuery, label="") -> None:
    fused, per_tile = ExplainStats(), ExplainStats()
    got_f = index.disk_query(q, fused)
    (got_t,) = evaluate_disk_tiles_based(index, [q], per_tile)
    assert ids_set(got_f) == ids_set(got_t), label
    assert fused.as_dict() == per_tile.as_dict(), label
    assert fused.class_scans == per_tile.class_scans, label


class TestTwoLayerParity:
    def test_window_query(self, index, data):
        for i, w in enumerate(windows(40, seed=11)):
            assert_ids(index.window_query(w), brute_window(data, w), f"window {i}")
            assert_window_stats_match(index, w, f"window {i}")

    def test_window_query_boundary_aligned(self, index, data):
        # Windows snapped to tile borders — the adversarial case for the
        # region decomposition (single-row/column ranges, shared edges).
        t = 1.0 / GRID
        cases = [
            Rect(2 * t, 3 * t, 5 * t, 5 * t),
            Rect(0.0, 0.0, t, t),
            Rect(3 * t, 0.0, 3 * t, 1.0),  # degenerate vertical line
            Rect(0.0, 7 * t, 1.0, 7 * t),  # degenerate horizontal line
            Rect(0.0, 0.0, 1.0, 1.0),  # whole domain
        ]
        for w in cases:
            assert_ids(index.window_query(w), brute_window(data, w), repr(w))
            assert_window_stats_match(index, w, repr(w))

    def test_window_query_within(self, index, data):
        for w in windows(25, seed=13, lo=0.1, hi=0.5):
            assert_ids(
                index.window_query_within(w, QueryStats()),
                brute_within(data, w),
                repr(w),
            )
            assert_walk_stats_match(
                lambda s: index.window_query_within(w, s),
                lambda s: within_tile_walk(index, w, s),
                repr(w),
            )

    def test_count_window(self, index, data):
        for w in windows(25, seed=17):
            assert index.count_window(w) == brute_window(data, w).shape[0]

    def test_disk_query(self, index, data):
        for q in disks(30, seed=19):
            assert_ids(index.disk_query(q), brute_disk(data, q), repr(q))
            assert_disk_stats_match(index, q, repr(q))

    def test_knn_query(self, index, data):
        rng = np.random.default_rng(23)
        for _ in range(10):
            cx, cy = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            k = int(rng.integers(1, 40))
            dx = np.maximum(np.maximum(data.xl - cx, 0.0), cx - data.xu)
            dy = np.maximum(np.maximum(data.yl - cy, 0.0), cy - data.yu)
            ids = np.arange(len(data))
            expected = ids[np.lexsort((ids, np.hypot(dx, dy)))][:k]
            got = knn_query(index, data, cx, cy, k, QueryStats())
            assert np.array_equal(got, expected)  # ties broken by id

    def test_convex_range_query(self, index, data):
        poly = ConvexPolygonRange(
            [(0.2, 0.1), (0.8, 0.3), (0.7, 0.9), (0.25, 0.7)]
        )
        expected = brute_polygon(data, poly)
        assert_ids(convex_range_query(index, poly, QueryStats()), expected)
        assert_walk_stats_match(
            lambda s: convex_range_query(index, poly, s),
            lambda s: range_tile_walk(index, poly, s),
        )

    def test_batch_evaluators(self, index, data):
        ws = windows(12, seed=29)
        for w, got in zip(ws, evaluate_tiles_based(index, ws)):
            assert_ids(got, brute_window(data, w), repr(w))
        qs = [DiskQuery(0.3, 0.4, 0.15), DiskQuery(0.7, 0.2, 0.08)]
        for q, got in zip(qs, evaluate_disk_tiles_based(index, qs)):
            assert_ids(got, brute_disk(data, q), repr(q))

    def test_introspection(self, index, data):
        ix0, ix1, iy0, iy1 = tile_spans(index.grid, data)
        span_x = ix1 - ix0
        span_y = iy1 - iy0
        assert index.replica_count == int(((span_x + 1) * (span_y + 1)).sum())
        assert index.class_counts() == {
            "A": len(data),
            "B": int(span_y.sum()),
            "C": int(span_x.sum()),
            "D": int((span_x * span_y).sum()),
        }
        nx = index.grid.nx
        starts = np.bincount(iy0 * nx + ix0)
        assert index._class_a_counts() == {
            int(t): int(starts[t]) for t in np.flatnonzero(starts)
        }
        covered = {
            int(y) * nx + int(x)
            for k in range(len(data))
            for y in range(iy0[k], iy1[k] + 1)
            for x in range(ix0[k], ix1[k] + 1)
        }
        assert index.nonempty_tiles == len(covered)


class TestTwoLayerPlusParity:
    def test_window_query(self, data):
        plus = TwoLayerPlusGrid.build(data, partitions_per_dim=GRID)
        for w in windows(25, seed=31):
            assert_ids(plus.window_query(w), brute_window(data, w), repr(w))
            assert_ids(
                plus.window_query(w, QueryStats()), brute_window(data, w), repr(w)
            )


class TestOneLayerParity:
    @pytest.fixture(scope="class")
    def by_dedup(self, data):
        return {
            dedup: OneLayerGrid.build(data, partitions_per_dim=GRID, dedup=dedup)
            for dedup in ("refpoint", "hash", "active_border")
        }

    @pytest.mark.parametrize("dedup", ["refpoint", "hash", "active_border"])
    def test_window_query(self, data, by_dedup, dedup):
        index = by_dedup[dedup]
        # active_border scans tile by tile; refpoint/hash run the fused
        # region kernel.  The scan itself is dedup-independent.
        reference = by_dedup["active_border"]
        scan_counters = ("partitions_visited", "rects_scanned", "comparisons")
        dedup_counters = ("dedup_checks", "duplicates_generated")
        for w in windows(40, seed=37):
            expected = brute_window(data, w)
            assert_ids(index.window_query(w), expected, dedup)
            got, ref = QueryStats(), QueryStats()
            assert_ids(index.window_query(w, got), expected, dedup)
            reference.window_query(w, ref)
            for name in scan_counters:
                assert getattr(got, name) == getattr(ref, name), (dedup, name)
            # The dedup counters depend on the technique: check them
            # against a per-tile walk with the same one.
            walked = QueryStats()
            assert_ids(one_layer_tile_walk(index, w, walked), expected, dedup)
            for name in scan_counters + dedup_counters:
                assert getattr(got, name) == getattr(walked, name), (dedup, name)

    def test_disk_query(self, data, by_dedup):
        index = by_dedup["refpoint"]
        for q in disks(15, seed=41, lo=0.02, hi=0.25):
            assert_ids(index.disk_query(q), brute_disk(data, q), repr(q))


class TestMaintenanceParity:
    """Interleaved inserts and deletes against the brute-force oracle."""

    @pytest.mark.parametrize("cls", [TwoLayerGrid, OneLayerGrid])
    def test_interleaved_insert_delete(self, cls):
        rng = np.random.default_rng(43)
        base = generate_uniform_rects(400, area=1e-3, seed=47)
        index = cls.build(base, partitions_per_dim=8)
        rects = [base.rect(i) for i in range(len(base))]
        live = set(range(len(base)))
        probe = windows(6, seed=53)
        disk_probe = disks(3, seed=59)
        poly_probe = [
            ConvexPolygonRange([(0.1, 0.2), (0.6, 0.05), (0.8, 0.6), (0.3, 0.9)]),
            ConvexPolygonRange([(0.55, 0.5), (0.95, 0.55), (0.7, 0.95)]),
        ]
        for round_no in range(6):
            for _ in range(20):  # inserts land in the delta overlay
                w = float(rng.uniform(0.005, 0.1))
                h = float(rng.uniform(0.005, 0.1))
                x = float(rng.uniform(0, 1.0 - w))
                y = float(rng.uniform(0, 1.0 - h))
                rect = Rect(x, y, x + w, y + h)
                assert index.insert(rect, len(rects)) == len(rects)
                live.add(len(rects))
                rects.append(rect)
            for _ in range(15):  # deletes tombstone the base
                victim = int(rng.choice(sorted(live)))
                live.discard(victim)
                assert index.delete(rects[victim], victim)
            current = RectDataset.from_rects(rects)
            ix0, ix1, iy0, iy1 = tile_spans(index.grid, current)
            alive = live_mask(current, live)
            assert index.replica_count == int(
                ((ix1 - ix0 + 1) * (iy1 - iy0 + 1))[alive].sum()
            )
            label = f"round {round_no}"
            for w in probe:
                expected = brute_window(current, w, live)
                assert_ids(index.window_query(w), expected, label)
                assert_ids(index.window_query(w, QueryStats()), expected, label)
                if cls is TwoLayerGrid:
                    assert_window_stats_match(index, w, label)
                else:
                    assert_one_layer_stats_match(index, w, label)
            for q in disk_probe:
                assert_ids(index.disk_query(q), brute_disk(current, q, live), label)
                # The 1-layer disk query has one (per-tile) path only.
                if cls is TwoLayerGrid:
                    assert_disk_stats_match(index, q, label)
            if cls is TwoLayerGrid:  # within and convex ranges: 2-layer only
                for w in probe:
                    assert_ids(
                        index.window_query_within(w),
                        brute_within(current, w, live),
                        label,
                    )
                    assert_walk_stats_match(
                        lambda s: index.window_query_within(w, s),
                        lambda s: within_tile_walk(index, w, s),
                        label,
                    )
                for poly in poly_probe:
                    assert_ids(
                        convex_range_query(index, poly),
                        brute_polygon(current, poly, live),
                        label,
                    )
                    assert_walk_stats_match(
                        lambda s: convex_range_query(index, poly, s),
                        lambda s: range_tile_walk(index, poly, s),
                        label,
                    )
            if round_no == 3:
                # Folding the overlay + tombstones must not change results.
                index.compact()
                assert not index._tiles
                assert index._store.n_dead == 0
        # Deleting an id that is not indexed reports False.
        assert not index.delete(Rect(0.4, 0.4, 0.41, 0.41), 10**6)

    @pytest.mark.parametrize("cls", [TwoLayerGrid, OneLayerGrid])
    def test_result_owns_its_memory(self, cls):
        # The only result rows come from an overlay tile the query
        # covers, where no comparison is needed: the caller must still
        # get a fresh array, not a view of the stored ids.
        base = RectDataset.from_rects([Rect(0.9, 0.9, 0.95, 0.95)])
        index = cls.build(base, partitions_per_dim=4)
        index.insert(Rect(0.3, 0.3, 0.4, 0.4), 1)
        w = Rect(0.2, 0.2, 0.7, 0.7)
        queries = [
            index.window_query,
            lambda _: index.disk_query(DiskQuery(0.35, 0.35, 0.4)),
        ]
        if cls is TwoLayerGrid:
            queries.append(index.window_query_within)
        for query in queries:
            out = query(w)
            out[:] = -1
            assert query(w).tolist() == [1]


class TestExplainParity:
    """EXPLAIN accounting matches the per-tile path and the oracle."""

    # The hand-built 4x4 grid of tests/test_explain.py.
    HAND_RECTS = [
        Rect(0.05, 0.05, 0.10, 0.10),
        Rect(0.20, 0.05, 0.30, 0.10),
        Rect(0.05, 0.20, 0.10, 0.30),
        Rect(0.30, 0.30, 0.60, 0.60),
        Rect(0.80, 0.80, 0.85, 0.85),
        Rect(0.26, 0.26, 0.45, 0.45),
    ]
    WINDOWS = [
        Rect(0.26, 0.26, 0.62, 0.62),  # interior: class A only
        Rect(0.30, 0.05, 0.60, 0.30),  # first column: scans C
        Rect(0.05, 0.30, 0.30, 0.60),  # first row: scans B
        Rect(0.0, 0.0, 1.0, 1.0),  # whole domain
    ]

    @pytest.fixture(scope="class")
    def hand(self):
        data = RectDataset.from_rects(self.HAND_RECTS)
        index = TwoLayerGrid.build(
            data, partitions_per_dim=4, domain=Rect(0.0, 0.0, 1.0, 1.0)
        )
        return index, data

    def test_window_plans_match(self, hand):
        index, data = hand
        for w in self.WINDOWS:
            plan = explain_window(index, w)
            plan.check()
            per_tile = ExplainStats()
            evaluate_tiles_based(index, [w], per_tile)
            assert plan.stats == per_tile.as_dict()
            assert plan.tiles_by_class == per_tile.class_scans
            assert plan.primary_partitions == per_tile.partitions_visited
            assert plan.comparisons == per_tile.comparisons
            assert_ids(plan.result, brute_window(data, w), repr(w))

    def test_interior_window_scans_class_a_only(self, hand):
        index, _ = hand
        plan = explain_window(index, self.WINDOWS[0])
        assert plan.tiles_by_class == {"A": 1}
        assert plan.duplicates_avoided == 3

    def test_disk_plans_match(self, hand):
        index, data = hand
        q = DiskQuery(0.45, 0.45, 0.3)
        plan = explain_disk(index, q)
        per_tile = ExplainStats()
        evaluate_disk_tiles_based(index, [q], per_tile)
        assert plan.stats == per_tile.as_dict()
        assert plan.tiles_by_class == per_tile.class_scans
        assert_ids(plan.result, brute_disk(data, q))


class TestPersistenceParity:
    def test_roundtrip(self, tmp_path, index, data):
        path = tmp_path / "idx.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.replica_count == index.replica_count
        for w in windows(8, seed=59):
            got, ref = QueryStats(), QueryStats()
            assert_ids(loaded.window_query(w, got), brute_window(data, w))
            index.window_query(w, ref)
            assert got.as_dict() == ref.as_dict()
            assert_ids(loaded.window_query_within(w), brute_within(data, w))
        for q in disks(6, seed=61):
            assert_ids(loaded.disk_query(q), brute_disk(data, q))
        poly = ConvexPolygonRange([(0.15, 0.3), (0.6, 0.1), (0.85, 0.7)])
        assert_ids(convex_range_query(loaded, poly), brute_polygon(data, poly))

    def test_packed_save_after_updates(self, tmp_path):
        base = generate_uniform_rects(300, area=1e-3, seed=61)
        index = TwoLayerGrid.build(base, partitions_per_dim=8)
        index.insert(Rect(0.1, 0.1, 0.3, 0.2), 300)
        assert index.delete(base.rect(5), 5)
        path = tmp_path / "idx.npz"
        save_index(index, path)  # delta rows + tombstones flattened out
        loaded = load_index(path)
        assert loaded.replica_count == index.replica_count
        current = RectDataset.from_rects(
            [base.rect(i) for i in range(300)] + [Rect(0.1, 0.1, 0.3, 0.2)]
        )
        live = set(range(301)) - {5}
        w = Rect(0.0, 0.0, 1.0, 1.0)
        assert_ids(loaded.window_query(w), brute_window(current, w, live))


class TestSnapshotPackedBase:
    def test_base_shared_by_reference_across_versions(self):
        data = generate_uniform_rects(500, area=1e-3, seed=67)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = SnapshotStore(index, data)
        base = store.current.index._store
        for k in range(10):
            store.insert(Rect(0.2, 0.2, 0.25, 0.25))
        # Ten published versions, zero base copies.
        assert store.current.index._store is base

    def test_cow_delete_forks_tombstones_only(self):
        data = generate_uniform_rects(500, area=1e-3, seed=71)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = SnapshotStore(index, data)
        old = store.current
        w = Rect(0.0, 0.0, 1.0, 1.0)
        victim = int(old.index.window_query(w)[0])
        found, version = store.delete(victim)
        assert found and version == old.version + 1
        new = store.current
        # The column arrays are shared; only the dead bitmap was copied.
        assert new.index._store is not old.index._store
        assert new.index._store.xl is old.index._store.xl
        assert new.index._store.ids is old.index._store.ids
        # Snapshot isolation: the old version still sees the object.
        assert victim in ids_set(old.index.window_query(w))
        assert victim not in ids_set(new.index.window_query(w))

    def test_delete_of_delta_insert(self):
        data = generate_uniform_rects(200, area=1e-3, seed=73)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = SnapshotStore(index, data)
        obj_id, _ = store.insert(Rect(0.5, 0.5, 0.55, 0.55))
        found, _ = store.delete(obj_id)
        assert found
        w = Rect(0.45, 0.45, 0.6, 0.6)
        assert obj_id not in ids_set(store.current.index.window_query(w))


class TestTileTableRegressions:
    def test_nbytes_does_not_mutate(self):
        """Regression: nbytes used to fold the pending tail as a side
        effect, breaking the published-snapshot purity invariant."""
        t = TileTable()
        t.append(0.1, 0.1, 0.2, 0.2, 0)
        t.append(0.3, 0.3, 0.4, 0.4, 1)
        before = t.nbytes
        assert len(t._pending) == 2  # still pending — no fold happened
        t._compact()
        assert t.nbytes == before  # pending tail was costed at folded size

    def test_delete_on_empty_reports_zero_without_compacting(self):
        t = TileTable()
        assert t.delete(42) == 0
        assert len(t) == 0
        t.append(0.1, 0.1, 0.2, 0.2, 7)
        assert t.delete(42) == 0  # id not present
        assert t.delete(7) == 1
        assert t.delete(7) == 0  # now empty again

    def test_tombstone_delete_never_rebuilds_base(self):
        data = generate_uniform_rects(300, area=1e-3, seed=79)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        store = index._store
        xl = store.xl
        assert index.delete(data.rect(10), 10)
        assert index._store is store  # same object, no rebuild
        assert store.xl is xl  # columns untouched
        assert store.n_dead >= 1
        assert index.delete(data.rect(10), 10) is False  # already gone


class TestPackedStoreUnit:
    def test_ranges_to_rows(self):
        starts = np.array([0, 5, 5, 9], dtype=np.int64)
        ends = np.array([2, 8, 5, 10], dtype=np.int64)
        got = ranges_to_rows(starts, ends)
        assert got.tolist() == [0, 1, 5, 6, 7, 9]
        assert ranges_to_rows(starts[:0], ends[:0]).shape == (0,)

    def test_slab_runs(self):
        # A 4x3 grid of tiles with 0..3 rows each; block = columns 1..3
        # of grid rows 0..2, skipping tiles 2 (mid-row) and 7 (row end).
        rng = np.random.default_rng(61)
        sizes = rng.integers(0, 4, size=12)
        bounds = [0] + np.cumsum(sizes).tolist()
        skip = [2, 7]
        block = [t for iy in range(3) for t in range(iy * 4 + 1, iy * 4 + 4)]
        for lo, hi in [(0, bounds[-1]), (bounds[3], bounds[9])]:
            runs = slab_runs(bounds, 1, 3, 3, 4, skip, lo, hi)
            got = [r for s0, s1 in runs for r in range(s0, s1)]
            expected = [
                r
                for t in block
                if t not in skip
                for r in range(bounds[t], bounds[t + 1])
                if lo <= r < hi
            ]
            assert got == expected
            assert all(s0 < s1 for s0, s1 in runs)

    def test_from_rows_presorted_is_zero_copy(self):
        keys = np.array([0, 0, 2, 5, 5, 5], dtype=np.int64)
        cols = [np.arange(6, dtype=np.float64) for _ in range(4)]
        ids = np.arange(6, dtype=np.int64)
        store = PackedStore.from_rows(8, 1, keys, *cols, ids)
        assert store.ids is ids  # adopted, not re-sorted
        assert store.offsets.tolist() == [0, 2, 2, 3, 3, 3, 6, 6, 6]
        assert store.group_columns(1) is None
        assert store.group_columns(0)[4].tolist() == [0, 1]

    def test_from_rows_unsorted_sorts_stably(self):
        keys = np.array([3, 1, 3, 0], dtype=np.int64)
        cols = [np.array([30.0, 10.0, 31.0, 0.0]) for _ in range(4)]
        ids = np.array([30, 10, 31, 0], dtype=np.int64)
        store = PackedStore.from_rows(4, 1, keys, *cols, ids)
        assert store.ids.tolist() == [0, 10, 30, 31]
        assert store.group_counts().tolist() == [1, 1, 0, 2]

    def test_mark_dead_dedups(self):
        keys = np.zeros(4, dtype=np.int64)
        cols = [np.zeros(4) for _ in range(4)]
        store = PackedStore.from_rows(1, 1, keys, *cols, np.arange(4))
        assert store.mark_dead(np.array([1, 2])) == 2
        assert store.mark_dead(np.array([2, 3])) == 1  # 2 already dead
        assert store.n_live == 1
        assert store.group_counts().tolist() == [1]
