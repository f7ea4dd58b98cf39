"""The 2-layer grid index — the paper's primary contribution (Section III).

Each grid tile's (MBR, id) pairs are physically divided into four
secondary partitions by *class* (A/B/C/D, see :mod:`repro.grid.base`).
Window queries then scan, per tile, only the classes that cannot produce
duplicate results (Lemmas 1-2) with only the comparisons that are not
already guaranteed (Lemmas 3-4, Section IV-B) — duplicates are *avoided*,
never generated, so no deduplication step exists at all (Algorithm 1).

Disk queries (Section IV-E) skip classes based on whether the previous
tile per dimension also intersects the disk, report fully-covered tiles
without distance tests, and resolve the residual boundary-arc duplicates
of classes B/D with a constant-time canonical-tile test.

Storage
-------

The bulk-loaded base lives in one CSR
:class:`~repro.grid.storage.PackedStore` keyed by fused ``(tile, class)``
(see :mod:`repro.grid.storage`).  Window queries have one kernel,
:meth:`TwoLayerGrid._window_kernel`: per grid row of the query range
the tiles form one contiguous row slab, answered by one broadcast
comparison against a precomputed per-row query matrix that encodes
the intersection test and the Lemma 1-2 class rule together — no
Python-per-tile loop.  ``QueryStats`` accounting is an optional output
of the same call, derived from the plan-uniform regions
(:func:`~repro.core.selection.window_regions`) and the CSR group sizes
alone.  The within, disk and chunk kernels walk those regions with one
offsets walk + one vectorised comparison per class.

Inserts land in a per-tile *delta overlay* of
:class:`~repro.grid.storage.TileTable` (O(1), Table VI) that the
kernels scan tile by tile; deletes tombstone base rows in place, and
the kernels mask them out; :meth:`compact` folds both back into a
fresh base.  Compaction is always explicit — queries never trigger it,
so published snapshots can share the base by reference.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import IndexStateError
from repro.geometry.mbr import Rect, max_dist_point_rect, min_dist_point_rect
from repro.grid.base import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    CLASS_NAMES,
    GridPartitioner,
    replicate,
)
from repro.grid.storage import (
    PackedStore,
    TileTable,
    overlay_tiles_in_range,
    slab_runs,
)
from repro.core.selection import ClassPlan, TilePlan, plan_tile, window_regions
from repro.obs.tracing import active as tracing_active, span as trace_span
from repro.stats import QueryStats

__all__ = ["TwoLayerGrid"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


# Pure mask helper; every caller owns the QueryStats accounting for the
# rows this mask qualifies, hence the REP004 waiver.
def _window_class_mask(  # repro-lint: disable=REP004
    cp: ClassPlan,
    window: Rect,
    xl: np.ndarray,
    yl: np.ndarray,
    xu: np.ndarray,
    yu: np.ndarray,
) -> "np.ndarray | None":
    """Qualification mask for one class's rows (``None`` = all qualify)."""
    mask: "np.ndarray | None" = None
    if cp.xu_ge:
        mask = xu >= window.xl
    if cp.xl_le:
        m = xl <= window.xu
        mask = m if mask is None else mask & m
    if cp.yu_ge:
        m = yu >= window.yl
        mask = m if mask is None else mask & m
    if cp.yl_le:
        m = yl <= window.yu
        mask = m if mask is None else mask & m
    return mask


class TwoLayerGrid:
    """In-memory regular grid with secondary (class) partitioning."""

    #: how duplicate results are handled: avoided up front (Lemmas 1-2),
    #: never generated.  EXPLAIN uses this to pick its accounting mode.
    dedup_strategy = "avoid"

    def __init__(self, grid: GridPartitioner):
        self.grid = grid
        #: the immutable CSR base (None until bulk load or compact).
        self._store: "PackedStore | None" = None
        #: tile id -> [table or None] indexed by class code: the mutable
        #: delta overlay on top of the packed base.
        self._tiles: dict[int, list["TileTable | None"]] = {}
        self._n_objects = 0
        #: lazy per-row query matrix + per-tile row extents for the
        #: single-comparison window kernel (rebuilt after :meth:`compact`,
        #: shared by reference across snapshot forks).
        self._fast_q: "np.ndarray | None" = None
        self._tile_row_bounds: "list[int] | None" = None

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        data: RectDataset,
        partitions_per_dim: int = 128,
        domain: "Rect | None" = None,
    ) -> "TwoLayerGrid":
        """Bulk-load from a dataset (square N x N grid, like the paper)."""
        grid = GridPartitioner(
            partitions_per_dim,
            partitions_per_dim,
            domain if domain is not None else Rect(0.0, 0.0, 1.0, 1.0),
        )
        index = cls(grid)
        index._bulk_load(data)
        return index

    def _bulk_load(self, data: RectDataset) -> None:
        rep = replicate(data, self.grid)
        # Fuse tile id and class code into one sort key; group once.
        keys = rep.tile_ids * 4 + rep.class_codes
        obj = rep.obj_ids
        self._store = PackedStore.from_rows(
            4 * self.grid.nx * self.grid.ny,
            4,
            keys,
            data.xl[obj],
            data.yl[obj],
            data.xu[obj],
            data.yu[obj],
            obj.astype(np.int64, copy=False),
        )
        self._n_objects = len(data)

    def insert(self, rect: Rect, obj_id: "int | None" = None) -> int:
        """Insert one object; its class is determined per overlapped tile.

        O(1) per replica: the packed base is never rebuilt — new entries
        go to the delta overlay until :meth:`compact`.
        """
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
                code = 2 * (ix > ix0) + (iy > iy0)
                tables = self._tiles.get(base + ix)
                if tables is None:
                    tables = [None, None, None, None]
                    self._tiles[base + ix] = tables
                table = tables[code]
                if table is None:
                    table = TileTable()
                    tables[code] = table
                table.append(rect.xl, rect.yl, rect.xu, rect.yu, obj_id)
        return obj_id

    def delete(self, rect: Rect, obj_id: int) -> bool:
        """Remove object ``obj_id`` whose MBR is ``rect``; True if found.

        The replica class per tile is recomputed from the MBR, so only
        the exact secondary partitions holding the object are touched.
        Base entries are tombstoned (no rebuild); delta entries are
        filtered out of their overlay tables.
        """
        ix0 = self.grid.tile_ix(rect.xl)
        ix1 = self.grid.tile_ix(rect.xu)
        iy0 = self.grid.tile_iy(rect.yl)
        iy1 = self.grid.tile_iy(rect.yu)
        store = self._store
        removed = 0
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                code = 2 * (ix > ix0) + (iy > iy0)
                tile_id = base + ix
                tables = self._tiles.get(tile_id)
                if tables is not None:
                    table = tables[code]
                    if table is not None:
                        removed += table.delete(obj_id)
                        if len(table) == 0:
                            tables[code] = None
                    if all(t is None for t in tables):
                        del self._tiles[tile_id]
                if store is not None:
                    removed += store.mark_dead(
                        store.find_rows(tile_id * 4 + code, obj_id)
                    )
        return removed > 0

    def compact(self) -> None:
        """Fold the delta overlay and tombstones into a fresh packed base.

        Explicitly invoked only — queries and updates never compact, so a
        published snapshot's base is safe to share across threads.  Until
        compaction, query cost degrades gracefully: delta tiles are
        scanned tile by tile.
        """
        parts_keys: list[np.ndarray] = []
        parts_cols: list[tuple[np.ndarray, ...]] = []
        if self._store is not None:
            keys, xl, yl, xu, yu, ids = self._store.flat_live_rows()
            parts_keys.append(keys)
            parts_cols.append((xl, yl, xu, yu, ids))
        for tile_id, tables in self._tiles.items():
            for code, table in enumerate(tables):
                if table is None or len(table) == 0:
                    continue
                cols = table.columns()
                parts_keys.append(
                    np.full(cols[4].shape[0], tile_id * 4 + code, dtype=np.int64)
                )
                parts_cols.append(cols)
        if parts_keys:
            keys = np.concatenate(parts_keys)
            cols = [
                np.concatenate([p[c] for p in parts_cols]) for c in range(5)
            ]
        else:
            keys = _EMPTY_IDS
            cols = [_EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_IDS]
        self._store = PackedStore.from_rows(
            4 * self.grid.nx * self.grid.ny, 4, keys, *cols
        )
        self._tiles = {}
        self._fast_q = None
        self._tile_row_bounds = None

    # -- storage accessors -------------------------------------------------

    def _partition_columns(
        self, tile_id: int, code: int
    ) -> "tuple[np.ndarray, ...] | None":
        """Live ``(xl, yl, xu, yu, ids)`` of one secondary partition.

        Merges the packed base group with the delta overlay; ``None``
        when the partition holds no live rows.  Zero-copy (views of the
        base) whenever the partition has no delta and no tombstones.
        """
        base = None
        if self._store is not None:
            base = self._store.group_columns(tile_id * 4 + code)
        delta = None
        tables = self._tiles.get(tile_id)
        if tables is not None:
            table = tables[code]
            if table is not None and len(table):
                delta = table.columns()
        if base is None:
            return delta
        if delta is None:
            return base
        return tuple(np.concatenate([b, d]) for b, d in zip(base, delta))

    def _tile_has_rows(self, tile_id: int) -> bool:
        """Does any secondary partition of the tile hold a live row?"""
        if tile_id in self._tiles:
            return True  # overlay tables are pruned when emptied
        store = self._store
        if store is None:
            return False
        n = int(store.offsets[tile_id * 4 + 4] - store.offsets[tile_id * 4])
        if n and store.n_dead:
            n -= int(store.dead_per_group[tile_id * 4 : tile_id * 4 + 4].sum())
        return n > 0

    def _tile_live_counts(self, tids: np.ndarray) -> np.ndarray:
        """Live rows per tile (all four classes) in the packed base."""
        store = self._store
        tot = store.offsets[tids * 4 + 4] - store.offsets[tids * 4]
        if store.n_dead:
            dpg = store.dead_per_group
            tot = tot - (
                dpg[tids * 4]
                + dpg[tids * 4 + 1]
                + dpg[tids * 4 + 2]
                + dpg[tids * 4 + 3]
            )
        return tot

    def _tile_live_rows(self, tile_id: int) -> int:
        """Live rows in one tile across the base and overlay tables."""
        n = 0
        store = self._store
        if store is not None:
            n = int(store.offsets[tile_id * 4 + 4] - store.offsets[tile_id * 4])
            if n and store.n_dead:
                n -= int(
                    store.dead_per_group[tile_id * 4 : tile_id * 4 + 4].sum()
                )
        tables = self._tiles.get(tile_id)
        if tables is not None:
            n += sum(len(t) for t in tables if t is not None)
        return n

    def _region_tids(self, ax: int, bx: int, ay: int, by: int) -> np.ndarray:
        """Row-major tile ids of one rectangular region of the grid.

        The single tile-enumeration point of every fused kernel — banded
        subclasses (:mod:`repro.shard`) override this to drop tiles
        outside their owned contiguous range, which bands the window,
        within and chunk kernels at once (the per-class offsets walks
        simply never see foreign tiles).
        """
        nx = self.grid.nx
        return (
            np.arange(ay, by + 1, dtype=np.int64)[:, None] * nx
            + np.arange(ax, bx + 1, dtype=np.int64)[None, :]
        ).ravel()

    def _row_slab(self) -> tuple[int, int]:
        """Base rows ``[row_lo, row_hi)`` the window kernel reads.

        The whole store; banded subclasses narrow it to their band's
        contiguous CSR slab (a tile band is one run of rows).
        """
        return 0, self._store.n_rows

    def _base_regions(
        self, ix0: int, ix1: int, iy0: int, iy1: int
    ) -> list[tuple[int, int, int, int, TilePlan]]:
        """Plan-uniform regions the kernels and accounting walk over the base.

        Empty without a base: an index grown by inserts alone keeps every
        live row in the delta overlay, which the kernels scan per tile.
        """
        if self._store is None:
            return []
        return window_regions(ix0, ix1, iy0, iy1)

    def _on_window_result(self, window: Rect, out: np.ndarray) -> None:
        """Post-query hook: sampled sanitizer cross-check of a result.

        Banded subclasses override this with a no-op — a band's partial
        result would falsely fail the *global* naive reference, and a
        banded naive scan is not well-defined (replicas whose canonical
        class lives in another band).  The shard router re-checks the
        merged result against a full local index instead.
        """
        if _sanitize.enabled():
            _sanitize.on_window_query(self, window, out)

    def _fork_shell(self) -> "TwoLayerGrid":
        """An empty index shell of the same concrete type over this grid.

        Snapshot forks (:mod:`repro.server.snapshot`) populate the shell
        by reference; subclasses override so forks keep their type (and
        any extra state such as a shard band).
        """
        return type(self)(self.grid)

    def _delta_tiles_in_range(
        self, ix0: int, ix1: int, iy0: int, iy1: int
    ) -> list[int]:
        """Sorted overlay tile ids inside a tile range (a band hook)."""
        return overlay_tiles_in_range(
            self._tiles, self.grid.nx, ix0, ix1, iy0, iy1
        )

    def _class_a_counts(self) -> dict[int, int]:
        """Per-tile live class-A counts (the selectivity histogram)."""
        counts: dict[int, int] = {}
        if self._store is not None:
            a = self._store.group_counts()[0::4]
            for tid in np.flatnonzero(a):
                counts[int(tid)] = int(a[tid])
        for tile_id, tables in self._tiles.items():
            table = tables[CLASS_A]
            if table is not None and len(table):
                counts[tile_id] = counts.get(tile_id, 0) + len(table)
        return counts

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self._n_objects

    @property
    def replica_count(self) -> int:
        """Total stored entries — identical to the 1-layer grid's by design."""
        total = sum(
            len(t) for tables in self._tiles.values() for t in tables if t is not None
        )
        if self._store is not None:
            total += self._store.n_live
        return total

    @property
    def nbytes(self) -> int:
        total = sum(
            t.nbytes for tables in self._tiles.values() for t in tables if t is not None
        )
        if self._store is not None:
            total += self._store.nbytes
        return total

    @property
    def nonempty_tiles(self) -> int:
        if self._store is None:
            return len(self._tiles)
        counts = self._store.tile_counts()
        n = int(np.count_nonzero(counts))
        n += sum(1 for tile_id in self._tiles if counts[tile_id] == 0)
        return n

    def class_counts(self) -> dict[str, int]:
        """Stored entries per class — A holds exactly one entry per object."""
        names = ("A", "B", "C", "D")
        counts = dict.fromkeys(names, 0)
        if self._store is not None:
            per_code = self._store.group_counts().reshape(-1, 4).sum(axis=0)
            for code in range(4):
                counts[names[code]] += int(per_code[code])
        for tables in self._tiles.values():
            for code, t in enumerate(tables):
                if t is not None:
                    counts[names[code]] += len(t)
        return counts

    def __repr__(self) -> str:
        return (
            f"TwoLayerGrid(grid={self.grid.nx}x{self.grid.ny}, "
            f"objects={self._n_objects}, replicas={self.replica_count})"
        )

    def tile_class_table(self, ix: int, iy: int, code: int) -> "TileTable | None":
        """Raw secondary-partition storage (testing / inspection only).

        The returned table is a merged *read-only view* of base + delta;
        mutate the index through :meth:`insert`/:meth:`delete`, never
        through this table.
        """
        if not (0 <= ix < self.grid.nx and 0 <= iy < self.grid.ny):
            raise IndexStateError(f"tile ({ix}, {iy}) outside the grid")
        if code not in (CLASS_A, CLASS_B, CLASS_C, CLASS_D):
            raise IndexStateError(f"invalid class code {code}")
        cols = self._partition_columns(self.grid.tile_id(ix, iy), code)
        return None if cols is None else TileTable(*cols)

    def explain_partitions(
        self, window: Rect
    ) -> list[tuple[Rect, np.ndarray]]:
        """EXPLAIN introspection: ``(tile rect, stored ids)`` for every
        non-empty tile a 1-layer scan of ``window`` would touch.

        All four class tables of a tile are pooled — the returned lists
        describe *storage* (where replicas live), not the class-pruned
        query path, which is exactly what the duplicates-avoided and
        replication-factor figures of a :class:`~repro.obs.explain.QueryPlan`
        need.
        """
        if self._n_objects == 0:
            return []
        out: list[tuple[Rect, np.ndarray]] = []
        ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
        for iy in range(iy0, iy1 + 1):
            base = iy * self.grid.nx
            for ix in range(ix0, ix1 + 1):
                ids = [
                    cols[4]
                    for code in (CLASS_A, CLASS_B, CLASS_C, CLASS_D)
                    for cols in (self._partition_columns(base + ix, code),)
                    if cols is not None
                ]
                if not ids:
                    continue
                out.append((self.grid.tile_rect(ix, iy), np.concatenate(ids)))
        return out

    # -- window queries ---------------------------------------------------------

    def window_query(
        self, window: Rect, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs intersecting ``window``.

        Duplicate-free by construction: each result is produced exactly
        once, in the tile where its reporting class survives Lemmas 1-2.
        No deduplication of any kind is performed (Algorithm 1).
        """
        if self._n_objects == 0:
            return _EMPTY_IDS
        if tracing_active() is None:
            # The span/context plumbing alone costs as much as the kernel
            # at typical selectivities, so untraced calls skip it.
            ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
            out = self._window_kernel(window, ix0, ix1, iy0, iy1, stats)
        else:
            with trace_span("query.window"):
                with trace_span("filter.lookup"):
                    ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
                with trace_span("filter.scan"):
                    out = self._window_kernel(window, ix0, ix1, iy0, iy1, stats)
                with trace_span("dedup"):
                    pass  # duplicate-free by construction (Lemmas 1-2)
        self._on_window_result(window, out)
        return out

    def _window_kernel(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None" = None,
    ) -> np.ndarray:
        """The window kernel: one broadcast comparison per CSR slab.

        Per grid row the tiles ``ix0..ix1`` occupy one contiguous CSR
        slab, answered by one broadcast ``>=`` against the
        :meth:`_build_fast_q` matrix — class selection and intersection
        test at once.  The comparisons §IV-B proves redundant are
        tautologies there, so results match the per-class scan.  Slabs
        are clamped to :meth:`_row_slab` and tombstones masked out;
        overlay tiles are cut out of the slabs and scanned (and counted)
        by :meth:`_scan_tile_window`.  The base's accounting comes from
        :meth:`_window_stats`.
        """
        pieces: list[np.ndarray] = []
        delta = self._delta_tiles_in_range(ix0, ix1, iy0, iy1)
        store = self._store
        if store is not None:
            if stats is not None:
                self._window_stats(ix0, ix1, iy0, iy1, delta, stats)
            q = self._fast_q
            if q is None:
                q = self._build_fast_q()
            tb = self._tile_row_bounds
            if tb is None:
                # A memmap-loaded index ships its query matrix but derives
                # the scalar row extents lazily (keeps load from paging
                # the offsets slab in before the first query).
                tb = self._tile_row_bounds = store.offsets[::4].tolist()
            ids = store.ids
            dead = store.dead if store.n_dead else None
            row_lo, row_hi = self._row_slab()
            ge = np.greater_equal
            band = np.logical_and.reduce
            bounds = np.array(
                [window.xl, -window.xu, window.yl, -window.yu,
                 float(-ix0), float(-iy0)]
            ).reshape(6, 1)
            nx = self.grid.nx
            for s0, s1 in slab_runs(
                tb, iy0 * nx + ix0, ix1 - ix0 + 1, iy1 - iy0 + 1, nx,
                delta, row_lo, row_hi,
            ):
                keep = band(ge(q[:, s0:s1], bounds), axis=0)
                if dead is not None:
                    # keep &= ~dead, without the temporary: on booleans
                    # a > b is a and not b.
                    np.greater(keep, dead[s0:s1], out=keep)
                pieces.append(ids[s0:s1][keep])
        for tile_id in delta:
            plan = plan_tile(
                tile_id % self.grid.nx, tile_id // self.grid.nx,
                ix0, ix1, iy0, iy1,
            )
            self._scan_tile_window(tile_id, window, plan, pieces, stats)
        if not pieces:
            return _EMPTY_IDS
        if len(pieces) == 1 and not delta:
            return pieces[0]  # a fresh array; overlay pieces may be views
        return np.concatenate(pieces)

    def _window_stats(
        self,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        delta: list[int],
        stats: QueryStats,
    ) -> None:
        """§IV-B accounting of a window query's base rows.

        The classes a tile scans and the comparisons each needs depend
        only on the tile's position in the range (Lemmas 1-4), so the
        plan-uniform regions plus the live group sizes give every counter
        without reading a row.  ``delta`` tiles are counted by their scan.
        """
        store = self._store
        delta_arr = np.asarray(delta, dtype=np.int64) if delta else None
        for ax, bx, ay, by, plan in self._base_regions(ix0, ix1, iy0, iy1):
            tids = self._region_tids(ax, bx, ay, by)
            if delta_arr is not None:
                tids = tids[~np.isin(tids, delta_arr)]
            if tids.shape[0] == 0:
                continue
            tile_tot = self._tile_live_counts(tids)
            stats.partitions_visited += int(np.count_nonzero(tile_tot))
            scanned = np.zeros(tids.shape[0], dtype=np.int64)
            for cp in plan.classes:
                counts = store.live_counts_for(tids * 4 + cp.code)
                total = int(counts.sum())
                if total == 0:
                    continue
                stats.rects_scanned += total
                stats.comparisons += cp.n_comparisons * total
                scanned += counts
                name = CLASS_NAMES[cp.code]
                for _ in range(int(np.count_nonzero(counts))):
                    stats.visit_class(name)
            stats.visit_tiles(tids, scanned, tile_tot)

    def _build_fast_q(self) -> np.ndarray:
        """Materialise the per-row query matrix of :meth:`_window_kernel`.

        Row ``r`` gets six float64 columns ``[xu, -xl, yu, -yl, cx, by]``
        where ``cx`` is ``-tile_ix`` for class C/D rows (``+inf``
        otherwise) and ``by`` is ``-tile_iy`` for class B/D rows.  A
        window query then reduces to one broadcast comparison against
        ``[w.xl, -w.xu, w.yl, -w.yu, -ix0, -iy0]``: the first four
        columns are the intersection test, the last two encode the
        Lemma 1-2 class-scanning rule (a C/D row only counts in the
        window's first column, ``tile_ix == ix0``; a B/D row only in its
        first row) — ``+inf`` rows pass those conditions vacuously.
        """
        store = self._store
        nx = self.grid.nx
        counts = np.diff(store.offsets)
        keys = np.repeat(
            np.arange(store.offsets.shape[0] - 1, dtype=np.int64), counts
        )
        tiles = keys >> 2
        # Condition-major layout: each condition is one contiguous row,
        # so the per-slab reduction is six vectorised passes (reducing
        # the short axis of a row-major matrix would strided-loop).
        q = np.empty((6, store.n_rows), dtype=np.float64)
        q[0] = store.xu
        q[1] = -store.xl
        q[2] = store.yu
        q[3] = -store.yl
        q[4] = np.where(keys & 2, -(tiles % nx), np.inf)
        q[5] = np.where(keys & 1, -(tiles // nx), np.inf)
        self._fast_q = q
        # offsets[4t] per tile (plus the terminal bound): tile t's rows —
        # all four class groups — are the contiguous run
        # [bounds[t], bounds[t+1]).  Kept as a Python list: the kernel
        # reads two scalars per slab, and list indexing returns plain
        # ints at half the cost of NumPy scalar extraction.
        self._tile_row_bounds = store.offsets[::4].tolist()
        return q

    def _scan_tile_window(
        self,
        tile_id: int,
        window: Rect,
        plan: TilePlan,
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Scan one tile's relevant secondary partitions for one window.

        Appends the qualifying id arrays to ``pieces``.  Shared by the
        overlay-tile path of :meth:`_window_kernel` and the tiles-based
        batch evaluator (:mod:`repro.core.batch`), whose subtasks are
        exactly calls of this method.
        """
        if stats is not None:
            if not self._tile_has_rows(tile_id):
                return
            stats.partitions_visited += 1
        scanned = 0
        for cp in plan.classes:
            cols = self._partition_columns(tile_id, cp.code)
            if cols is None:
                continue
            xl, yl, xu, yu, ids = cols
            if ids.shape[0] == 0:
                continue
            if stats is not None:
                stats.rects_scanned += ids.shape[0]
                stats.comparisons += cp.n_comparisons * ids.shape[0]
                stats.visit_class(CLASS_NAMES[cp.code])
                scanned += ids.shape[0]
            mask = _window_class_mask(cp, window, xl, yl, xu, yu)
            pieces.append(ids if mask is None else ids[mask])
        if stats is not None:
            stats.visit_tile(tile_id, scanned, self._tile_live_rows(tile_id))

    def _window_chunks(
        self, window: Rect, stats: "QueryStats | None" = None
    ) -> Iterator[
        tuple[TilePlan, ClassPlan, tuple[np.ndarray, ...], "np.ndarray | None", np.ndarray]
    ]:
        """Yield candidate chunks of a window query.

        Each item is ``(tile_plan, class_plan, columns, mask, ids)`` where
        ``mask`` is the boolean qualification mask over the chunk
        (``None`` means *all* rectangles qualify — the covered case).
        A base chunk is a whole (region, class) of the fused kernel; an
        overlay chunk is one (tile, class).  The refinement machinery
        consumes the full tuples; plain filtering only uses
        ``mask``/``ids``.
        """
        if self._n_objects == 0:
            return
        ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
        store = self._store
        nx = self.grid.nx
        delta = self._delta_tiles_in_range(ix0, ix1, iy0, iy1)
        if stats is not None and store is not None:
            self._window_stats(ix0, ix1, iy0, iy1, delta, stats)
        delta_arr = np.asarray(delta, dtype=np.int64) if delta else None
        for ax, bx, ay, by, plan in self._base_regions(ix0, ix1, iy0, iy1):
            tids = self._region_tids(ax, bx, ay, by)
            if delta_arr is not None:
                tids = tids[~np.isin(tids, delta_arr)]
            if tids.shape[0] == 0:
                continue
            for cp in plan.classes:
                keys = tids * 4 + cp.code
                rows = store.gather(keys)
                if rows.shape[0] == 0:
                    continue
                cols = (
                    store.xl[rows],
                    store.yl[rows],
                    store.xu[rows],
                    store.yu[rows],
                    store.ids[rows],
                )
                mask = _window_class_mask(cp, window, *cols[:4])
                yield plan, cp, cols, mask, cols[4]
        for tile_id in delta:
            plan = plan_tile(tile_id % nx, tile_id // nx, ix0, ix1, iy0, iy1)
            yield from self._tile_chunks(tile_id, window, plan, stats)

    def _tile_chunks(
        self,
        tile_id: int,
        window: Rect,
        plan: TilePlan,
        stats: "QueryStats | None" = None,
    ) -> Iterator[
        tuple[TilePlan, ClassPlan, tuple[np.ndarray, ...], "np.ndarray | None", np.ndarray]
    ]:
        """Per-tile chunk generator behind :meth:`_window_chunks`."""
        if stats is not None:
            if not self._tile_has_rows(tile_id):
                return
            stats.partitions_visited += 1
        for cp in plan.classes:
            cols = self._partition_columns(tile_id, cp.code)
            if cols is None:
                continue
            xl, yl, xu, yu, ids = cols
            if ids.shape[0] == 0:
                continue
            if stats is not None:
                stats.rects_scanned += ids.shape[0]
                stats.comparisons += cp.n_comparisons * ids.shape[0]
                stats.visit_class(CLASS_NAMES[cp.code])
            mask = _window_class_mask(cp, window, xl, yl, xu, yu)
            yield plan, cp, cols, mask, ids

    def window_query_within(
        self, window: Rect, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all MBRs **fully contained** in ``window`` (a "within"
        predicate, the other standard range semantics).

        Duplicate avoidance is even cheaper than for intersection: an
        object inside ``W`` has its start point inside ``W``, so its
        (unique) class-A replica lives in a tile of the query range —
        scanning *only* class A everywhere yields each candidate exactly
        once.  Comparisons: the start-side tests are automatic except in
        the query's first tile per dimension; the end-side tests are
        always required (an object may leave its start tile).
        """
        if self._n_objects == 0:
            return _EMPTY_IDS
        with trace_span("query.window"):
            with trace_span("filter.lookup"):
                ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
            pieces: list[np.ndarray] = []
            with trace_span("filter.scan"):
                self._fused_within(window, ix0, ix1, iy0, iy1, pieces, stats)
            with trace_span("dedup"):
                pass  # class A only — each object appears once
            if not pieces:
                return _EMPTY_IDS
            return np.concatenate(pieces)

    def _fused_within(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """The "within" kernel: class A per plan-uniform base region."""
        store = self._store
        nx = self.grid.nx
        delta = self._delta_tiles_in_range(ix0, ix1, iy0, iy1)
        delta_arr = np.asarray(delta, dtype=np.int64) if delta else None
        for ax, bx, ay, by, plan in self._base_regions(ix0, ix1, iy0, iy1):
            tids = self._region_tids(ax, bx, ay, by)
            if delta_arr is not None:
                tids = tids[~np.isin(tids, delta_arr)]
            if tids.shape[0] == 0:
                continue
            keys = tids * 4  # class A groups
            counts = store.live_counts_for(keys)
            total = int(counts.sum())
            if total == 0:
                continue
            n_comparisons = 2 + int(plan.at_x0) + int(plan.at_y0)
            if stats is not None:
                stats.partitions_visited += int(np.count_nonzero(counts))
                stats.rects_scanned += total
                stats.comparisons += n_comparisons * total
                for _ in range(int(np.count_nonzero(counts))):
                    stats.visit_class("A")
                stats.visit_tiles(tids, counts, self._tile_live_counts(tids))
            rows = store.gather(keys)
            mask = (store.xu[rows] <= window.xu) & (store.yu[rows] <= window.yu)
            if plan.at_x0:
                mask &= store.xl[rows] >= window.xl
            if plan.at_y0:
                mask &= store.yl[rows] >= window.yl
            pieces.append(store.ids[rows][mask])
        for tile_id in delta:
            self._scan_tile_within(
                tile_id,
                window,
                tile_id % nx == ix0,
                tile_id // nx == iy0,
                pieces,
                stats,
            )

    def _scan_tile_within(
        self,
        tile_id: int,
        window: Rect,
        at_x0: bool,
        at_y0: bool,
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Per-tile class-A scan for the "within" predicate."""
        cols = self._partition_columns(tile_id, CLASS_A)
        if cols is None:
            return
        xl, yl, xu, yu, ids = cols
        if ids.shape[0] == 0:
            return
        if stats is not None:
            stats.partitions_visited += 1
            stats.rects_scanned += ids.shape[0]
            stats.visit_class("A")
            stats.visit_tile(
                tile_id, ids.shape[0], self._tile_live_rows(tile_id)
            )
        mask = (xu <= window.xu) & (yu <= window.yu)
        n_comparisons = 2
        if at_x0:
            mask &= xl >= window.xl
            n_comparisons += 1
        if at_y0:
            mask &= yl >= window.yl
            n_comparisons += 1
        if stats is not None:
            stats.comparisons += n_comparisons * ids.shape[0]
        pieces.append(ids[mask])

    def count_window(self, window: Rect) -> int:
        """Number of results of a window query (shares the window kernel)."""
        return int(self.window_query(window).shape[0])

    # -- disk queries -------------------------------------------------------------

    def disk_query(
        self, query: DiskQuery, stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs whose distance to the centre is <= radius.

        Section IV-E: only tiles intersecting the disk are visited; a class
        is skipped when the previous tile in its "starts before" dimension
        also intersects the disk (the result would be a duplicate of that
        tile's).  Tiles fully covered by the disk are reported without
        distance computations.  Classes B and D additionally pass a
        canonical-tile test that removes the duplicates arising along the
        disk's boundary arc (the paper's diagonal rule; see Fig. 5).
        """
        if self._n_objects == 0:
            return _EMPTY_IDS
        with trace_span("query.disk"):
            with trace_span("filter.lookup"):
                row_span, tile_jobs = self._disk_plan(query)
            pieces: list[np.ndarray] = []
            with trace_span("filter.scan"):
                self._fused_disk(query, row_span, tile_jobs, pieces, stats)
            with trace_span("dedup"):
                pass  # residual B/D duplicates removed in-scan (canonical tile)
            if not pieces:
                return _EMPTY_IDS
            return np.concatenate(pieces)

    def _disk_plan(
        self, query: DiskQuery
    ) -> tuple[
        dict[int, tuple[int, int]],
        list[tuple[int, tuple[int, ...], bool, int]],
    ]:
        """The §IV-E evaluation plan for one disk query.

        Returns the per-row contiguous tile spans (disk convexity) and a
        flat job list ``(tile_id, scanned class codes, fully_covered,
        row)`` — everything a per-tile scan needs, so the tiles-based
        batch evaluator (:mod:`repro.core.batch`) can group jobs by tile.
        """
        window = query.mbr()
        ix0, ix1, iy0, iy1 = self.grid.tile_range_for_window(window)
        radius = query.radius
        cx, cy = query.cx, query.cy

        row_span: dict[int, tuple[int, int]] = {}
        for iy in range(iy0, iy1 + 1):
            lo = None
            hi = None
            for ix in range(ix0, ix1 + 1):
                if min_dist_point_rect(cx, cy, self.grid.tile_rect(ix, iy)) <= radius:
                    if lo is None:
                        lo = ix
                    hi = ix
            if lo is not None:
                row_span[iy] = (lo, hi)  # type: ignore[assignment]

        jobs: list[tuple[int, tuple[int, ...], bool, int]] = []
        for iy, (lx, rx) in row_span.items():
            base = iy * self.grid.nx
            prev_row = row_span.get(iy - 1)
            for ix in range(lx, rx + 1):
                prev_x_in = ix > lx
                prev_y_in = prev_row is not None and prev_row[0] <= ix <= prev_row[1]
                codes = [CLASS_A]
                if not prev_y_in:
                    codes.append(CLASS_B)
                if not prev_x_in:
                    codes.append(CLASS_C)
                if not prev_x_in and not prev_y_in:
                    codes.append(CLASS_D)
                covered = (
                    max_dist_point_rect(cx, cy, self.grid.tile_rect(ix, iy)) <= radius
                )
                jobs.append((base + ix, tuple(codes), covered, iy))
        return row_span, jobs

    def _fused_disk(
        self,
        query: DiskQuery,
        row_span: dict[int, tuple[int, int]],
        tile_jobs: list[tuple[int, tuple[int, ...], bool, int]],
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Disk kernel: jobs batched by (class, coverage).

        All tiles scanning the same class with the same coverage status
        are gathered and distance-tested in one vectorised pass; the
        canonical-tile test for classes B/D runs on the stitched rows
        with per-row tile-row indices.  Overlay tiles fall back to the
        per-tile scan.
        """
        store = self._store
        radius = query.radius
        cx, cy = query.cx, query.cy
        fused_jobs = []
        delta_jobs = []
        for job in tile_jobs:
            (delta_jobs if job[0] in self._tiles else fused_jobs).append(job)
        if store is not None and fused_jobs:
            if stats is not None:
                tids_all = np.asarray([j[0] for j in fused_jobs], dtype=np.int64)
                tile_tot = self._tile_live_counts(tids_all)
                stats.partitions_visited += int(np.count_nonzero(tile_tot))
                tid_pos = {int(t): i for i, t in enumerate(tids_all)}
                scanned_all = np.zeros(tids_all.shape[0], dtype=np.int64)
            for code in (CLASS_A, CLASS_B, CLASS_C, CLASS_D):
                for want_covered in (False, True):
                    batch = [
                        j
                        for j in fused_jobs
                        if j[2] is want_covered and code in j[1]
                    ]
                    if not batch:
                        continue
                    tids = np.asarray([j[0] for j in batch], dtype=np.int64)
                    keys = tids * 4 + code
                    counts = store.live_counts_for(keys)
                    total = int(counts.sum())
                    if total == 0:
                        continue
                    if stats is not None:
                        stats.rects_scanned += total
                        scanned_all[
                            np.fromiter(
                                (tid_pos[int(t)] for t in tids),
                                dtype=np.int64,
                                count=tids.shape[0],
                            )
                        ] += counts
                        name = CLASS_NAMES[code]
                        for _ in range(int(np.count_nonzero(counts))):
                            stats.visit_class(name)
                    rows = store.gather(keys)
                    if want_covered:
                        qual = np.ones(total, dtype=bool)
                    else:
                        dx = np.maximum(
                            np.maximum(store.xl[rows] - cx, 0.0),
                            cx - store.xu[rows],
                        )
                        dy = np.maximum(
                            np.maximum(store.yl[rows] - cy, 0.0),
                            cy - store.yu[rows],
                        )
                        qual = dx * dx + dy * dy <= radius * radius
                        if stats is not None:
                            stats.comparisons += 2 * total
                    if code in (CLASS_B, CLASS_D):
                        iys = np.repeat(
                            np.asarray([j[3] for j in batch], dtype=np.int64),
                            counts,
                        )
                        qual &= self._canonical_keep_rows(
                            store.xl[rows],
                            store.yl[rows],
                            store.xu[rows],
                            iys,
                            row_span,
                            stats,
                        )
                    pieces.append(store.ids[rows][qual])
            if stats is not None:
                stats.visit_tiles(tids_all, scanned_all, tile_tot)
        for tile_id, codes, covered, iy in delta_jobs:
            self._scan_tile_disk(
                tile_id, query, codes, covered, iy, row_span, pieces, stats
            )

    def _scan_tile_disk(
        self,
        tile_id: int,
        query: DiskQuery,
        codes: tuple[int, ...],
        covered: bool,
        iy: int,
        row_span: dict[int, tuple[int, int]],
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Scan one tile's relevant classes for one disk query."""
        radius = query.radius
        cx, cy = query.cx, query.cy
        if stats is not None:
            if not self._tile_has_rows(tile_id):
                return
            stats.partitions_visited += 1
        scanned = 0
        for code in codes:
            cols = self._partition_columns(tile_id, code)
            if cols is None:
                continue
            xl, yl, xu, yu, ids = cols
            if ids.shape[0] == 0:
                continue
            if stats is not None:
                stats.rects_scanned += ids.shape[0]
                stats.visit_class(CLASS_NAMES[code])
                scanned += ids.shape[0]
            if covered:
                qual = np.ones(ids.shape[0], dtype=bool)
            else:
                dx = np.maximum(np.maximum(xl - cx, 0.0), cx - xu)
                dy = np.maximum(np.maximum(yl - cy, 0.0), cy - yu)
                qual = dx * dx + dy * dy <= radius * radius
                if stats is not None:
                    stats.comparisons += 2 * ids.shape[0]
            if code in (CLASS_B, CLASS_D):
                qual &= self._canonical_keep(xl, yl, xu, iy, row_span, stats)
            pieces.append(ids[qual])
        if stats is not None:
            stats.visit_tile(tile_id, scanned, self._tile_live_rows(tile_id))

    def _canonical_keep(
        self,
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        iy: int,
        row_span: dict[int, tuple[int, int]],
        stats: "QueryStats | None",
    ) -> np.ndarray:
        """Keep mask for class-B/D rectangles of one tile (scalar row)."""
        iys = np.full(xl.shape[0], iy, dtype=np.int64)
        return self._canonical_keep_rows(xl, yl, xu, iys, row_span, stats)

    def _canonical_keep_rows(
        self,
        xl: np.ndarray,
        yl: np.ndarray,
        xu: np.ndarray,
        iys: np.ndarray,
        row_span: dict[int, tuple[int, int]],
        stats: "QueryStats | None",
    ) -> np.ndarray:
        """Keep mask for class-B/D rectangles: is this their canonical tile?

        A rectangle's canonical reporting tile is the first tile (in
        row-major order) among the disk-intersecting tiles its MBR covers.
        Class-B/D rectangles start above their scan row (``iys[k]``), so
        the test scans the rows between the rectangle's start row and the
        scan row for an overlap with the rectangle's column span; any
        overlap means the rectangle was already reported there.
        """
        n = xl.shape[0]
        keep = np.ones(n, dtype=bool)
        start_rows = self.grid.tile_iy_array(yl)
        start_cols = self.grid.tile_ix_array(xl)
        end_cols = self.grid.tile_ix_array(xu)
        for k in range(n):
            for j in range(int(start_rows[k]), int(iys[k])):
                span = row_span.get(j)
                if span is None:
                    continue
                if max(int(start_cols[k]), span[0]) <= min(int(end_cols[k]), span[1]):
                    keep[k] = False
                    break
            if stats is not None:
                stats.dedup_checks += 1
        return keep
