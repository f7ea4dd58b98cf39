"""The 1-layer grid baseline: SOP grid + duplicate *elimination*.

This is the paper's ``1-layer`` competitor (Table V): a regular grid with
the identical primary partitioning as the two-layer index, evaluating
window queries with the comparison-reduction optimisation of Section IV-B
(only the boundary tiles of a query need coordinate comparisons) and
eliminating duplicate results with the reference-point technique of
Dittrich & Seeger [9] — or, for ablation, naive hashing or the
active-border method of Aref & Samet [2].

Comparing this index against :class:`repro.core.two_layer.TwoLayerGrid`
isolates exactly the contribution of the paper's secondary partitioning.
Storage mirrors it: a packed CSR base with one group per tile, plus a
per-tile :class:`~repro.grid.storage.TileTable` delta overlay for inserts
(see :mod:`repro.grid.storage`).  So does the window path: one kernel,
:meth:`OneLayerGrid._window_kernel`, scans each grid row of the query
range as one CSR slab with the reference-point test folded into the
same broadcast comparison, masks tombstones, scans overlay tiles one by
one, and derives ``QueryStats`` from the CSR group sizes when asked.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import IndexStateError, InvalidGridError
from repro.geometry.mbr import Rect, max_dist_point_rect
from repro.grid.base import GridPartitioner, axis_segments, replicate
from repro.grid.dedup import ActiveBorder, reference_point_keep_mask
from repro.grid.storage import (
    PackedStore,
    TileTable,
    overlay_tiles_in_range,
    slab_runs,
)
from repro.obs.tracing import active as tracing_active, span as trace_span
from repro.stats import QueryStats

__all__ = ["OneLayerGrid", "DEDUP_METHODS"]

DEDUP_METHODS = ("refpoint", "hash", "active_border")

_EMPTY_IDS = np.empty(0, dtype=np.int64)


class OneLayerGrid:
    """In-memory regular grid with duplicate elimination (the baseline)."""

    @property
    def dedup_strategy(self) -> str:
        """EXPLAIN accounting mode: duplicates are generated then
        eliminated by the configured technique."""
        return self.dedup

    def __init__(
        self,
        grid: GridPartitioner,
        dedup: str = "refpoint",
    ):
        if dedup not in DEDUP_METHODS:
            raise InvalidGridError(
                f"unknown dedup method {dedup!r}; expected one of {DEDUP_METHODS}"
            )
        self.grid = grid
        self.dedup = dedup
        #: the CSR base (one group per tile; None until bulk load or
        #: compact).
        self._store: "PackedStore | None" = None
        #: the delta overlay: tile id -> inserted rows.
        self._tiles: dict[int, TileTable] = {}
        self._n_objects = 0
        # Lazy per-row query matrix + per-tile row extents (packed base
        # only); rebuilt after compact().
        self._fast_q: "np.ndarray | None" = None
        self._tile_row_bounds: "list[int] | None" = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: RectDataset,
        partitions_per_dim: int = 128,
        domain: "Rect | None" = None,
        dedup: str = "refpoint",
    ) -> "OneLayerGrid":
        """Bulk-load the grid from a dataset.

        ``partitions_per_dim`` is the paper's grid granularity knob
        (Fig. 7); the grid is square (N x N) like the paper's.
        """
        grid = GridPartitioner(
            partitions_per_dim,
            partitions_per_dim,
            domain if domain is not None else Rect(0.0, 0.0, 1.0, 1.0),
        )
        index = cls(grid, dedup=dedup)
        index._bulk_load(data)
        return index

    def _bulk_load(self, data: RectDataset) -> None:
        rep = replicate(data, self.grid)
        obj = rep.obj_ids
        self._store = PackedStore.from_rows(
            self.grid.nx * self.grid.ny,
            1,
            rep.tile_ids,
            data.xl[obj],
            data.yl[obj],
            data.xu[obj],
            data.yu[obj],
            obj.astype(np.int64, copy=False),
        )
        self._n_objects = len(data)

    def insert(self, rect: Rect, obj_id: "int | None" = None) -> int:
        """Insert one object; returns its id.  O(tiles overlapped)."""
        if obj_id is None:
            obj_id = self._n_objects
        self._n_objects = max(self._n_objects, obj_id + 1)
        ix0 = self.grid.tile_ix(rect.xl)
        ix1 = self.grid.tile_ix(rect.xu)
        iy0 = self.grid.tile_iy(rect.yl)
        iy1 = self.grid.tile_iy(rect.yu)
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                table = self._tiles.get(base + ix)
                if table is None:
                    table = TileTable()
                    self._tiles[base + ix] = table
                table.append(rect.xl, rect.yl, rect.xu, rect.yu, obj_id)
        return obj_id

    def delete(self, rect: Rect, obj_id: int) -> bool:
        """Remove object ``obj_id`` whose MBR is ``rect``; True if found.

        The caller supplies the MBR (the paper's storage scheme keeps
        exact object data outside the tiles, addressed by id), which
        pinpoints the tiles holding the replicas.
        """
        ix0 = self.grid.tile_ix(rect.xl)
        ix1 = self.grid.tile_ix(rect.xu)
        iy0 = self.grid.tile_iy(rect.yl)
        iy1 = self.grid.tile_iy(rect.yu)
        removed = 0
        store = self._store
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                table = self._tiles.get(base + ix)
                if table is not None:
                    removed += table.delete(obj_id)
                    if len(table) == 0:
                        del self._tiles[base + ix]
                if store is not None:
                    removed += store.mark_dead(store.find_rows(base + ix, obj_id))
        return removed > 0

    # -- storage accessors -------------------------------------------------

    def _tile_columns(self, tile_id: int) -> "tuple[np.ndarray, ...] | None":
        """Live ``(xl, yl, xu, yu, ids)`` of one tile (base + overlay)."""
        base = None
        if self._store is not None:
            base = self._store.group_columns(tile_id)
        table = self._tiles.get(tile_id)
        delta = (
            table.columns() if table is not None and len(table) else None
        )
        if base is None:
            return delta
        if delta is None:
            return base
        return tuple(np.concatenate([b, d]) for b, d in zip(base, delta))

    def compact(self) -> None:
        """Fold the delta overlay and tombstones into a fresh packed base.

        Explicit only, mirroring :meth:`TwoLayerGrid.compact`.
        """
        parts_keys: list[np.ndarray] = []
        parts_cols: list[tuple[np.ndarray, ...]] = []
        if self._store is not None:
            keys, xl, yl, xu, yu, ids = self._store.flat_live_rows()
            parts_keys.append(keys)
            parts_cols.append((xl, yl, xu, yu, ids))
        for tile_id, table in self._tiles.items():
            if len(table) == 0:
                continue
            cols = table.columns()
            parts_keys.append(
                np.full(cols[4].shape[0], tile_id, dtype=np.int64)
            )
            parts_cols.append(cols)
        if parts_keys:
            keys = np.concatenate(parts_keys)
            cols = [
                np.concatenate([p[c] for p in parts_cols]) for c in range(5)
            ]
        else:
            keys = np.empty(0, dtype=np.int64)
            cols = [np.empty(0, dtype=np.float64)] * 4 + [keys]
        self._store = PackedStore.from_rows(
            self.grid.nx * self.grid.ny, 1, keys, *cols
        )
        self._tiles = {}
        self._fast_q = None
        self._tile_row_bounds = None

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._n_objects

    @property
    def replica_count(self) -> int:
        """Total stored entries (object replicas) — the Fig. 7 size metric."""
        total = sum(len(t) for t in self._tiles.values())
        if self._store is not None:
            total += self._store.n_live
        return total

    @property
    def nbytes(self) -> int:
        total = sum(t.nbytes for t in self._tiles.values())
        if self._store is not None:
            total += self._store.nbytes
        return total

    @property
    def nonempty_tiles(self) -> int:
        if self._store is None:
            return len(self._tiles)
        counts = self._store.group_counts()
        n = int(np.count_nonzero(counts))
        n += sum(1 for tile_id in self._tiles if counts[tile_id] == 0)
        return n

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(grid={self.grid.nx}x{self.grid.ny}, "
            f"objects={self._n_objects}, replicas={self.replica_count}, "
            f"dedup={self.dedup!r})"
        )

    # -- window queries -----------------------------------------------------

    def window_query(
        self, window: Rect, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs intersecting ``window`` (no duplicates).

        Every candidate in every overlapped tile is compared against the
        window (with the Section IV-B reduction: no comparisons in covered
        dimensions) and duplicates are then eliminated with the configured
        technique — this is exactly the generate-then-eliminate paradigm
        the two-layer index avoids.
        """
        if self._n_objects == 0:
            return _EMPTY_IDS
        if tracing_active() is None:
            ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
            out = self._window_kernel(window, ix0, ix1, iy0, iy1, stats)
        else:
            with trace_span("query.window"):
                with trace_span("filter.lookup"):
                    ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
                with trace_span("filter.scan"):
                    out = self._window_kernel(window, ix0, ix1, iy0, iy1, stats)
                # Every technique eliminates inside the kernel (its work
                # is counted by dedup_checks); the phase is kept so span
                # trees line up across index families.
                with trace_span("dedup"):
                    pass
        if _sanitize.enabled():
            _sanitize.on_window_query(self, window, out)
        return out

    def _build_fast_q(self) -> np.ndarray:
        """Precompute the per-row query matrix over the packed base.

        Eight conditions per row, condition-major so each per-slab
        reduction is a handful of contiguous vectorised passes: four
        window-intersection thresholds plus four that encode the
        reference-point test of Dittrich & Seeger as ``>=`` comparisons.
        A row in tile ``(tx, ty)`` is the reporting replica iff
        ``tx == max(ref_ix, ix0)`` (same in y), where ``ref_ix`` is the
        tile of its own lower-left corner.  Rows stored in their own tile
        (``tx == ref_ix``) pass vacuously — the slab guarantees
        ``tx >= ix0`` — so their dedup columns are ``+inf``; replicated
        rows must see ``ref_ix < ix0`` and ``tx == ix0``, i.e.
        ``-ref_ix >= -(ix0 - 1)`` and ``-tx >= -ix0``.
        """
        store = self._store
        grid = self.grid
        nx = grid.nx
        counts = np.diff(store.offsets)
        tiles = np.repeat(
            np.arange(store.offsets.shape[0] - 1, dtype=np.int64), counts
        )
        tx = tiles % nx
        ty = tiles // nx
        ref_ix = grid.tile_ix_array(store.xl)
        ref_iy = grid.tile_iy_array(store.yl)
        q = np.empty((8, store.n_rows), dtype=np.float64)
        q[0] = store.xu
        q[1] = -store.xl
        q[2] = store.yu
        q[3] = -store.yl
        own_x = tx == ref_ix
        own_y = ty == ref_iy
        q[4] = np.where(own_x, np.inf, -ref_ix)
        q[5] = np.where(own_x, np.inf, -tx)
        q[6] = np.where(own_y, np.inf, -ref_iy)
        q[7] = np.where(own_y, np.inf, -ty)
        self._fast_q = q
        # One group per tile, so the CSR offsets are the row extents
        # directly; a Python list hands back plain ints cheaper than
        # NumPy scalar extraction.
        self._tile_row_bounds = store.offsets.tolist()
        return q

    def _scan_tile_window(
        self,
        tile_id: int,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        pieces: list[np.ndarray],
        stats: "QueryStats | None",
        border: "ActiveBorder | None" = None,
    ) -> None:
        """Scan one tile for one window, dedup included.

        The per-tile path of :meth:`_window_kernel`: every tile of the
        active-border sweep (which passes its ``border``), and the
        overlay tiles of the slab kernel.
        """
        cols = self._tile_columns(tile_id)
        if cols is None:
            return
        xl, yl, xu, yu, ids = cols
        ix = tile_id % self.grid.nx
        iy = tile_id // self.grid.nx
        if stats is not None:
            stats.partitions_visited += 1
            stats.rects_scanned += ids.shape[0]
            stats.visit_class("tile")
            # 1-layer scans every row of every visited tile, so
            # scanned == present (nothing is class-pruned).
            stats.visit_tile(tile_id, ids.shape[0], ids.shape[0])
        mask = self._window_mask(
            xl, yl, xu, yu, window, ix, ix0, ix1, iy, iy0, iy1, stats
        )
        cand = slice(None) if mask is None else mask
        cand_ids = ids[cand]
        if cand_ids.shape[0] == 0:
            return
        if self.dedup == "refpoint":
            keep = reference_point_keep_mask(
                xl[cand], yl[cand], window, self.grid, ix, iy
            )
            if stats is not None:
                stats.dedup_checks += cand_ids.shape[0]
                stats.duplicates_generated += int(
                    cand_ids.shape[0] - keep.sum()
                )
            pieces.append(cand_ids[keep])
        elif self.dedup == "hash":
            pieces.append(cand_ids)
        else:  # active_border
            assert border is not None
            last_rows = np.minimum(self.grid.tile_iy_array(yu[cand]), iy1)
            last_cols = np.minimum(self.grid.tile_ix_array(xu[cand]), ix1)
            kept = []
            for k in range(cand_ids.shape[0]):
                extends = last_rows[k] > iy or last_cols[k] > ix
                if stats is not None:
                    stats.dedup_checks += 1
                if border.report(int(cand_ids[k]), int(last_rows[k]), extends):
                    kept.append(cand_ids[k])
                elif stats is not None:
                    stats.duplicates_generated += 1
            pieces.append(np.asarray(kept, dtype=np.int64))

    def _window_kernel(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None" = None,
    ) -> np.ndarray:
        """The window kernel: one comparison pass per CSR slab, dedup included.

        Each grid row of the query range is one CSR slab; the matrix
        folds intersection and reference-point dedup into one broadcast
        ``>=``.  With ``stats`` the two halves reduce separately so the
        dropped duplicates can be counted.  Hash skips the dedup columns
        and squashes duplicates terminally; the active-border sweep is
        sequential in row-major tile order, so it scans tile by tile.
        Tombstones are masked out; overlay tiles are cut out of the
        slabs and scanned (and counted) by :meth:`_scan_tile_window`.
        """
        pieces: list[np.ndarray] = []
        if self.dedup == "active_border":
            border = ActiveBorder()
            for iy in range(iy0, iy1 + 1):
                border.start_row(iy)
                base = iy * self.grid.nx
                for ix in range(ix0, ix1 + 1):
                    self._scan_tile_window(
                        base + ix, window, ix0, ix1, iy0, iy1, pieces, stats,
                        border,
                    )
            return np.concatenate(pieces) if pieces else _EMPTY_IDS
        refpoint = self.dedup == "refpoint"
        delta = overlay_tiles_in_range(
            self._tiles, self.grid.nx, ix0, ix1, iy0, iy1
        )
        store = self._store
        if store is not None:
            if stats is not None:
                self._window_stats(ix0, ix1, iy0, iy1, delta, stats)
            q = self._fast_q
            if q is None:
                q = self._build_fast_q()
            tb = self._tile_row_bounds
            if tb is None:
                # Memmap-loaded indexes defer this materialisation so
                # loading touches no slab bytes; derive it on first use.
                tb = self._tile_row_bounds = store.offsets.tolist()
            ids = store.ids
            dead = store.dead if store.n_dead else None
            ge = np.greater_equal
            band = np.logical_and.reduce
            bounds = np.array(
                [
                    window.xl,
                    -window.xu,
                    window.yl,
                    -window.yu,
                    float(-(ix0 - 1)),
                    float(-ix0),
                    float(-(iy0 - 1)),
                    float(-iy0),
                ]
            ).reshape(8, 1)
            # Fold the dedup columns into the one reduction unless they
            # must be counted apart; hash only filters.
            fold = refpoint and stats is None
            q_hit = q if fold else q[:4]
            b_hit = bounds if fold else bounds[:4]
            nx = self.grid.nx
            for s0, s1 in slab_runs(
                tb, iy0 * nx + ix0, ix1 - ix0 + 1, iy1 - iy0 + 1, nx,
                delta, 0, store.n_rows,
            ):
                keep = band(ge(q_hit[:, s0:s1], b_hit), axis=0)
                if dead is not None:
                    # keep &= ~dead, without the temporary: on booleans
                    # a > b is a and not b.
                    np.greater(keep, dead[s0:s1], out=keep)
                if refpoint and stats is not None:
                    hits = int(np.count_nonzero(keep))
                    keep &= band(ge(q[4:, s0:s1], bounds[4:]), axis=0)
                    stats.dedup_checks += hits
                    stats.duplicates_generated += hits - int(
                        np.count_nonzero(keep)
                    )
                pieces.append(ids[s0:s1][keep])
        for tile_id in delta:
            self._scan_tile_window(
                tile_id, window, ix0, ix1, iy0, iy1, pieces, stats
            )
        if not pieces:
            return _EMPTY_IDS
        out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        if refpoint:
            return out
        deduped = np.unique(out)
        if stats is not None:
            stats.dedup_checks += out.shape[0]
            stats.duplicates_generated += int(out.shape[0] - deduped.shape[0])
        return deduped

    def _window_stats(
        self,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        delta: list[int],
        stats: QueryStats,
    ) -> None:
        """§IV-B scan accounting of a window query's base rows.

        A tile's comparisons depend only on whether it is a first/last
        tile of the range per dimension, so the up-to-nine uniform regions
        plus the live tile sizes give the counters without reading a
        row.  ``delta`` tiles are counted by their scan.
        """
        store = self._store
        nx = self.grid.nx
        delta_arr = np.asarray(delta, dtype=np.int64) if delta else None
        for ay, by, at_y0, at_y1 in axis_segments(iy0, iy1):
            for ax, bx, at_x0, at_x1 in axis_segments(ix0, ix1):
                tids = (
                    np.arange(ay, by + 1, dtype=np.int64)[:, None] * nx
                    + np.arange(ax, bx + 1, dtype=np.int64)[None, :]
                ).ravel()
                if delta_arr is not None:
                    tids = tids[~np.isin(tids, delta_arr)]
                counts = store.live_counts_for(tids)
                total = int(counts.sum())
                if total == 0:
                    continue
                n_comparisons = int(at_x0) + int(at_x1) + int(at_y0) + int(at_y1)
                visited = int(np.count_nonzero(counts))
                stats.partitions_visited += visited
                stats.rects_scanned += total
                stats.comparisons += n_comparisons * total
                for _ in range(visited):
                    stats.visit_class("tile")
                stats.visit_tiles(tids, counts, counts)

    @staticmethod
    def _window_mask(
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        yu: np.ndarray,
        window: Rect,
        ix: int,
        ix0: int,
        ix1: int,
        iy: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None",
    ) -> "np.ndarray | None":
        """Intersection mask with only the comparisons Section IV-B requires.

        A tile strictly between the query's first and last tile in a
        dimension is covered by the window there, so no comparison is
        needed in that dimension.  Returns ``None`` when the tile is
        covered in both dimensions (every rectangle qualifies).
        """
        mask: "np.ndarray | None" = None
        n_comparisons = 0
        if ix == ix0:
            mask = xu >= window.xl
            n_comparisons += 1
        if ix == ix1:
            m = xl <= window.xu
            mask = m if mask is None else mask & m
            n_comparisons += 1
        if iy == iy0:
            m = yu >= window.yl
            mask = m if mask is None else mask & m
            n_comparisons += 1
        if iy == iy1:
            m = yl <= window.yu
            mask = m if mask is None else mask & m
            n_comparisons += 1
        if stats is not None:
            stats.comparisons += n_comparisons * xl.shape[0]
        return mask

    # -- disk queries ---------------------------------------------------------

    def disk_query(
        self, query: DiskQuery, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs within ``query.radius`` of the centre.

        Implemented as the paper prescribes for the 1-layer baseline: run a
        window query with the disk's MBR (reference-point deduplication
        against that window), report results in fully-covered tiles
        directly and distance-verify the rest (Section VII, "Disk range
        queries").
        """
        if self._n_objects == 0:
            return _EMPTY_IDS
        with trace_span("query.disk"):
            with trace_span("filter.lookup"):
                window = query.mbr()
                ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
            with trace_span("filter.scan"):
                pieces = self._scan_disk_tiles(query, window, ix0, ix1, iy0, iy1, stats)
            with trace_span("dedup"):
                pass  # reference-point test runs per tile inside the scan
            if not pieces:
                return _EMPTY_IDS
            return np.concatenate(pieces)

    def _scan_disk_tiles(
        self,
        query: DiskQuery,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None",
    ) -> list[np.ndarray]:
        """Per-tile disk-candidate scan with in-scan refpoint dedup."""
        radius = query.radius
        pieces: list[np.ndarray] = []
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                # NOTE: tiles of the MBR that do not intersect the disk are
                # still visited — a candidate's reference point may fall in
                # them, and this extra work is precisely the 1-layer
                # baseline's handicap on disk queries.
                cols = self._tile_columns(base + ix)
                if cols is None:
                    continue
                xl, yl, xu, yu, ids = cols
                if stats is not None:
                    stats.partitions_visited += 1
                    stats.rects_scanned += ids.shape[0]
                    stats.visit_class("tile")
                    stats.visit_tile(base + ix, ids.shape[0], ids.shape[0])
                mask = self._window_mask(
                    xl, yl, xu, yu, window, ix, ix0, ix1, iy, iy0, iy1, stats
                )
                if mask is None:
                    cand_xl, cand_yl, cand_xu, cand_yu, cand_ids = xl, yl, xu, yu, ids
                else:
                    cand_xl = xl[mask]
                    cand_yl = yl[mask]
                    cand_xu = xu[mask]
                    cand_yu = yu[mask]
                    cand_ids = ids[mask]
                if cand_ids.shape[0] == 0:
                    continue
                keep = reference_point_keep_mask(
                    cand_xl, cand_yl, window, self.grid, ix, iy
                )
                if stats is not None:
                    stats.dedup_checks += cand_ids.shape[0]
                    stats.duplicates_generated += int(cand_ids.shape[0] - keep.sum())
                tile_rect = self.grid.tile_rect(ix, iy)
                covered = max_dist_point_rect(query.cx, query.cy, tile_rect) <= radius
                if covered:
                    pieces.append(cand_ids[keep])
                    continue
                dx = np.maximum(
                    np.maximum(cand_xl[keep] - query.cx, 0.0),
                    query.cx - cand_xu[keep],
                )
                dy = np.maximum(
                    np.maximum(cand_yl[keep] - query.cy, 0.0),
                    query.cy - cand_yu[keep],
                )
                within = dx * dx + dy * dy <= radius * radius
                pieces.append(cand_ids[keep][within])
        return pieces

    # -- helpers for tests ------------------------------------------------------

    def tile_table(self, ix: int, iy: int) -> "TileTable | None":
        """The raw tile storage (testing / inspection only).

        The returned table is a merged read-only view of base + overlay;
        mutate through :meth:`insert`/:meth:`delete`.
        """
        if not (0 <= ix < self.grid.nx and 0 <= iy < self.grid.ny):
            raise IndexStateError(f"tile ({ix}, {iy}) outside the grid")
        cols = self._tile_columns(self.grid.tile_id(ix, iy))
        return None if cols is None else TileTable(*cols)

    def explain_partitions(
        self, window: Rect
    ) -> list[tuple[Rect, np.ndarray]]:
        """EXPLAIN introspection: ``(tile rect, stored ids)`` for every
        non-empty tile a window scan of ``window`` touches."""
        if self._n_objects == 0:
            return []
        out: list[tuple[Rect, np.ndarray]] = []
        ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                cols = self._tile_columns(base + ix)
                if cols is None or cols[4].shape[0] == 0:
                    continue
                out.append((self.grid.tile_rect(ix, iy), cols[4]))
        return out
