"""The 2-layer grid index — the paper's primary contribution (Section III).

Each grid tile's (MBR, id) pairs are physically divided into four
secondary partitions by *class* (A/B/C/D, see :mod:`repro.grid.base`).
Window queries then scan, per tile, only the classes that cannot produce
duplicate results (Lemmas 1-2) with only the comparisons that are not
already guaranteed (Lemmas 3-4, Section IV-B) — duplicates are *avoided*,
never generated, so no deduplication step exists at all (Algorithm 1).

Disk queries — and any convex range (Section IV-E) — skip classes based
on whether the previous tile per dimension also intersects the range,
report fully-covered tiles without tests, and resolve the residual
boundary duplicates of classes B/D with a canonical-tile test.

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
alone.  The within kernel is the same slab loop restricted to class A
with containment bounds, and :meth:`TwoLayerGrid._range_kernel` serves
disks and every convex range with one plan (:class:`RangePlan`: per-row
tile spans and covered runs) and the same per-row slabs.

Inserts land in a per-tile *delta overlay* of
:class:`~repro.grid.storage.TileTable` (O(1), Table VI) that the
kernels scan tile by tile; deletes tombstone base rows in place, and
the kernels mask them out; :meth:`compact` folds both back into a
fresh base.  Compaction is always explicit — queries never trigger it,
so published snapshots can share the base by reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.analysis import sanitize as _sanitize
from repro.datasets.dataset import RectDataset
from repro.datasets.queries import DiskQuery
from repro.errors import IndexStateError
from repro.geometry.mbr import Rect
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
    ranges_to_rows,
    slab_runs,
)
from repro.core.selection import ClassPlan, TilePlan, plan_tile, window_regions
from repro.obs.tracing import active as tracing_active, span as trace_span
from repro.stats import QueryStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.ranges import ConvexRange

__all__ = ["RangePlan", "TwoLayerGrid"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)
_all = np.logical_and.reduce


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
        return self._tile_live_rows(tile_id) > 0

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

        Only the tiles this index answers for (:meth:`_owned`).
        """
        nx = self.grid.nx
        tids = (
            np.arange(ay, by + 1, dtype=np.int64)[:, None] * nx
            + np.arange(ax, bx + 1, dtype=np.int64)[None, :]
        ).ravel()
        owned = self._owned(tids)
        return tids if owned is None else tids[owned]

    def _owned(self, tids: np.ndarray) -> "np.ndarray | None":
        """Mask of the tiles this index answers for (``None``: all); the
        band hook of :mod:`repro.shard`."""
        return None

    def _row_slab(self) -> tuple[int, int]:
        """Base rows ``[row_lo, row_hi)`` the slab kernels read.

        The whole store; banded subclasses narrow it to their band's
        contiguous CSR slab (a tile band is one run of rows).
        """
        return 0, self._store.n_rows

    def _on_query_result(
        self, kind: str, query: object, out: np.ndarray
    ) -> None:
        """Post-query hook: sampled sanitizer cross-check of a ``"window"``,
        ``"within"`` or ``"range"`` (disk, convex range) result.

        Banded subclasses override this with a no-op — a band's partial
        result would falsely fail the *global* naive reference, and a
        banded naive scan is not well-defined (replicas whose canonical
        class lives in another band).  The shard router re-checks the
        merged result against a full local index instead.
        """
        if _sanitize.enabled():
            _sanitize.on_query(self, kind, query, out)

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
        """Sorted overlay tile ids inside a tile range (owned ones only)."""
        nx = self.grid.nx
        tiles = overlay_tiles_in_range(self._tiles, nx, ix0, ix1, iy0, iy1)
        owned = self._owned(np.asarray(tiles, dtype=np.int64)) if tiles else None
        return tiles if owned is None else [t for t, o in zip(tiles, owned) if o]

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
        self._on_query_result("window", window, out)
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
        if self._store is not None:
            if stats is not None:
                self._window_stats(ix0, ix1, iy0, iy1, delta, stats)
            bounds = np.array(
                [window.xl, -window.xu, window.yl, -window.yu,
                 float(-ix0), float(-iy0)]
            ).reshape(6, 1)
            pieces = self._slab_ids(
                ix0, ix1, iy0, iy1, delta,
                lambda q: _all(np.greater_equal(q, bounds), axis=0),
            )
        nx = self.grid.nx
        for tile_id in delta:
            plan = plan_tile(tile_id % nx, tile_id // nx, ix0, ix1, iy0, iy1)
            self._scan_tile_window(tile_id, window, plan, pieces, stats)
        return _join(pieces, not delta)

    def _slab_ids(
        self,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        delta: list[int],
        keep: "Callable[[np.ndarray], np.ndarray]",
    ) -> list[np.ndarray]:
        """Ids of the base rows of a tile range that ``keep`` admits: per
        grid row one CSR slab of the :meth:`_build_fast_q` matrix, clamped
        to :meth:`_row_slab`, ``delta`` tiles cut out, tombstones masked."""
        q, tb = self._query_matrix()
        store = self._store
        ids = store.ids
        dead = store.dead if store.n_dead else None
        row_lo, row_hi = self._row_slab()
        nx = self.grid.nx
        pieces = []
        for s0, s1 in slab_runs(
            tb, iy0 * nx + ix0, ix1 - ix0 + 1, iy1 - iy0 + 1, nx,
            delta, row_lo, row_hi,
        ):
            mask = keep(q[:, s0:s1])
            if dead is not None:
                # mask &= ~dead, without the temporary: on booleans a > b
                # is a and not b.
                np.greater(mask, dead[s0:s1], out=mask)
            pieces.append(ids[s0:s1][mask])
        return pieces

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
        for ax, bx, ay, by, plan in window_regions(ix0, ix1, iy0, iy1):
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

    def _query_matrix(self) -> tuple[np.ndarray, list[int]]:
        """The :meth:`_build_fast_q` matrix and the per-tile row bounds."""
        q = self._fast_q
        if q is None:
            q = self._build_fast_q()
        tb = self._tile_row_bounds
        if tb is None:
            # Derived lazily: a memmap-loaded index ships the matrix, and
            # load must not page the offsets slab in before a query.
            tb = self._tile_row_bounds = self._store.offsets[::4].tolist()
        return q, tb

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
        regions = window_regions(ix0, ix1, iy0, iy1) if store is not None else []
        for ax, bx, ay, by, plan in regions:
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
            with trace_span("filter.scan"):
                out = self._within_kernel(window, ix0, ix1, iy0, iy1, stats)
            with trace_span("dedup"):
                pass  # class A only — each object appears once
        self._on_query_result("within", window, out)
        return out

    def _within_kernel(
        self,
        window: Rect,
        ix0: int,
        ix1: int,
        iy0: int,
        iy1: int,
        stats: "QueryStats | None" = None,
    ) -> np.ndarray:
        """The "within" kernel: the window kernel's slabs, class A (the
        rows with ``+inf`` in both class columns) within containment
        bounds; past the first tile the start-side tests hold anyway."""
        pieces: list[np.ndarray] = []
        delta = self._delta_tiles_in_range(ix0, ix1, iy0, iy1)
        nx = self.grid.nx
        if self._store is not None and stats is not None:
            # Live class-A rows, two comparisons each plus one per
            # dimension in which the tile is the query's first.
            tids = self._region_tids(ix0, ix1, iy0, iy1)
            tids = tids[~np.isin(tids, np.asarray(delta, dtype=np.int64))]
            counts = self._store.live_counts_for(tids * 4)
            n_cmp = 2 + (tids % nx == ix0) + (tids // nx == iy0)
            visited = int(np.count_nonzero(counts))
            stats.partitions_visited += visited
            stats.rects_scanned += int(counts.sum())
            stats.comparisons += int((n_cmp * counts).sum())
            for _ in range(visited):
                stats.visit_class("A")
            stats.visit_tiles(tids, counts, self._tile_live_counts(tids))
        if self._store is not None:
            box = np.array([window.xu, -window.xl, window.yu, -window.yl])
            pieces = self._slab_ids(
                ix0, ix1, iy0, iy1, delta,
                lambda q: _all(np.less_equal(q[:4], box[:, None]), axis=0)
                & _all(q[4:] == np.inf, axis=0),
            )
        for tile_id in delta:
            self._scan_tile_within(
                tile_id, window, tile_id % nx == ix0, tile_id // nx == iy0,
                pieces, stats,
            )
        return _join(pieces, not delta)

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
        if cols is None or cols[4].shape[0] == 0:
            return
        xl, yl, xu, yu, ids = cols
        mask = (xu <= window.xu) & (yu <= window.yu)
        if at_x0:
            mask &= xl >= window.xl
        if at_y0:
            mask &= yl >= window.yl
        if stats is not None:
            n = ids.shape[0]
            stats.partitions_visited += 1
            stats.rects_scanned += n
            stats.comparisons += (2 + at_x0 + at_y0) * n
            stats.visit_class("A")
            stats.visit_tile(tile_id, n, self._tile_live_rows(tile_id))
        pieces.append(ids[mask])

    def count_window(self, window: Rect) -> int:
        """Number of results of a window query (shares the window kernel)."""
        return int(self.window_query(window).shape[0])

    # -- disk and convex range queries (§IV-E) --------------------------------

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
        disk's boundary arc (the paper's diagonal rule; see Fig. 5).  The
        disk is one convex range of :meth:`range_query`.
        """
        return self.range_query(query, stats)

    def range_query(
        self, query: "ConvexRange", stats: "QueryStats | None" = None
    ) -> np.ndarray:
        """Ids of all indexed MBRs intersecting a convex range (§IV-E): a
        disk or any shape of :mod:`repro.core.ranges`, one plan
        (:meth:`_range_plan`) and one kernel (:meth:`_range_kernel`)."""
        if self._n_objects == 0:
            return _EMPTY_IDS
        kind = "disk" if isinstance(query, DiskQuery) else "range"
        with trace_span(f"query.{kind}"):
            with trace_span("filter.lookup"):
                plan = self._range_plan(query)
            with trace_span("filter.scan"):
                out = self._range_kernel(query, plan, stats)
            with trace_span("dedup"):
                pass  # residual B/D duplicates removed in-scan (canonical tile)
        self._on_query_result("range", query, out)
        return out

    def _range_plan(self, query: "ConvexRange") -> "RangePlan | None":
        """The §IV-E plan of a convex range (``None``: it meets no tile)
        from one ``classify`` of the tiles under its bounding box, tile
        columns as a row vector and tile rows as a column vector."""
        grid = self.grid
        ix0, ix1, iy0, iy1 = grid.tile_range_for_window(query.bounding_box())
        xl, yl, xu, yu = grid.tile_bounds
        cols, rows = slice(ix0, ix1 + 1), slice(iy0, iy1 + 1)
        kind = query.classify(
            xl[None, cols], yl[rows, None], xu[None, cols], yu[rows, None]
        )
        # Per row, for "meets" then "covers": the first column, the last
        # one counted from the right, and the number of tiles.
        flags = np.stack((kind >= 0, kind > 0))
        first = flags.argmax(axis=2).tolist()
        last = flags[:, :, ::-1].argmax(axis=2).tolist()
        count = flags.sum(axis=2).tolist()
        met = [r for r, n in enumerate(count[0]) if n]
        if not met:
            return None
        spans = []
        for r in range(met[0], met[-1] + 1):
            span = [ix0 + first[0][r], ix1 - last[0][r]]
            if not count[0][r]:
                span = [ix1 + 1, ix1]
            # A covered run is used only when contiguous, which convexity
            # guarantees up to floating-point rounding.
            run = [ix0 + first[1][r], ix1 - last[1][r]]
            if not count[1][r] or run[1] - run[0] + 1 != count[1][r]:
                run = [ix1 + 1, ix1]
            spans.append(span + run)
        return RangePlan(grid, iy0 + met[0], spans)

    def _range_kernel(
        self,
        query: "ConvexRange",
        plan: "RangePlan | None",
        stats: "QueryStats | None" = None,
    ) -> np.ndarray:
        """The §IV-E kernel: each plan row's span is one CSR slab.

        The :meth:`_build_fast_q` class columns skip classes: C/D rows
        pass only in the span's first tile (``-tile_ix >= -lo``), B/D
        rows fail (``-tile_iy > -iy``) where the previous row's span
        holds the tile.  ``intersects_rects`` verifies the slab in one
        call — a covered tile's rows pass it anyway, so only the
        accounting and the per-tile path skip them — and B/D rows past
        the previous span pass :meth:`RangePlan.canonical`.  Clamping, tombstones, overlay tiles
        (:meth:`_scan_tile_range`) and accounting (:meth:`_range_stats`)
        work as in the window kernel.
        """
        if plan is None:
            return _EMPTY_IDS
        nx = self.grid.nx
        spans = plan.spans
        delta = [
            t
            for t in self._delta_tiles_in_range(0, nx - 1, plan.iy0, plan.iy1)
            for lo, hi, _, _ in (spans[t // nx - plan.iy0],)
            if lo <= t % nx <= hi
        ]
        pieces: list[np.ndarray] = []
        store = self._store
        if store is not None:
            if stats is not None:
                self._range_stats(query, plan, delta, stats)
            q, tb = self._query_matrix()
            xl, yl, xu, yu = store.xl, store.yl, store.xu, store.yu
            dead = store.dead if store.n_dead else None
            row_lo, row_hi = self._row_slab()

            def at(ix: int) -> int:
                """Offset of tile column ``ix``'s first row in the slab."""
                return min(max(tb[t0 + ix], s0), s1) - s0

            prev = (nx, -1)
            for iy, (lo, hi, _, _) in enumerate(spans, plan.iy0):
                t0 = iy * nx
                s0 = max(tb[t0 + lo], row_lo)
                s1 = min(tb[t0 + hi + 1], row_hi)
                a, b = max(lo, prev[0]), min(hi, prev[1])
                prev = (lo, hi)
                if lo > hi or s0 >= s1:
                    continue
                keep = q[4, s0:s1] >= -lo
                if a <= b:
                    m0, m1 = at(a), at(b + 1)
                    keep[m0:m1] &= q[5, s0 + m0 : s0 + m1] > -iy
                keep &= query.intersects_rects(
                    xl[s0:s1], yl[s0:s1], xu[s0:s1], yu[s0:s1]
                )
                if dead is not None:
                    np.greater(keep, dead[s0:s1], out=keep)
                if iy > plan.iy0 and (a > lo or b < hi):
                    bd = np.flatnonzero(keep & (q[5, s0:s1] < np.inf))
                    if bd.shape[0]:
                        rows = bd + s0
                        keep[bd] = plan.canonical(xl[rows], yl[rows], xu[rows], iy)
                skip = [t for t in delta if t0 <= t < t0 + nx]
                for u0, u1 in slab_runs(
                    tb, t0 + lo, hi - lo + 1, 1, nx, skip, s0, s1
                ):
                    pieces.append(store.ids[u0:u1][keep[u0 - s0 : u1 - s0]])
        for tile_id in delta:
            self._scan_tile_range(tile_id, query, plan, pieces, stats)
        return _join(pieces, not delta)

    def _range_stats(
        self,
        query: "ConvexRange",
        plan: "RangePlan",
        delta: list[int],
        stats: QueryStats,
    ) -> None:
        """§IV-E accounting of a range query's base rows, from the offsets:
        the classes a span tile scans, and whether it verifies them, follow
        from its place in the plan, as in :meth:`_scan_tile_range`.
        ``delta`` tiles are counted by their scan."""
        lo, hi, clo, chi = plan.table
        row = np.repeat(np.arange(lo.shape[0]), np.maximum(hi - lo + 1, 0))
        ix = ranges_to_rows(lo, hi + 1)
        tids = (plan.iy0 + row) * self.grid.nx + ix
        first = ix == lo[row]
        prev_in = (row > 0) & (ix >= lo[row - 1]) & (ix <= hi[row - 1])
        covered = (ix >= clo[row]) & (ix <= chi[row])
        mask = ~np.isin(tids, np.asarray(delta, dtype=np.int64))
        owned = self._owned(tids)
        if owned is not None:
            mask &= owned
        tids, first, prev_in, covered = (
            tids[mask], first[mask], prev_in[mask], covered[mask]
        )
        tile_tot = self._tile_live_counts(tids)
        stats.partitions_visited += int(np.count_nonzero(tile_tot))
        counts = self._store.live_counts_for(tids[:, None] * 4 + np.arange(4))
        counts[:, CLASS_B] *= ~prev_in
        counts[:, CLASS_C] *= first
        counts[:, CLASS_D] *= first & ~prev_in
        scanned = counts.sum(axis=1)
        stats.rects_scanned += int(scanned.sum())
        stats.comparisons += query.comparisons_per_rect * int(
            scanned[~covered].sum()
        )
        stats.dedup_checks += int(counts[:, [CLASS_B, CLASS_D]].sum())
        for code in (CLASS_A, CLASS_B, CLASS_C, CLASS_D):
            for _ in range(int(np.count_nonzero(counts[:, code]))):
                stats.visit_class(CLASS_NAMES[code])
        stats.visit_tiles(tids, scanned, tile_tot)

    def _scan_tile_range(
        self,
        tile_id: int,
        query: "ConvexRange",
        plan: "RangePlan",
        pieces: list[np.ndarray],
        stats: "QueryStats | None" = None,
    ) -> None:
        """Scan one span tile's classes for one range query (§IV-E).

        The overlay-tile path of :meth:`_range_kernel` and the subtask of
        :func:`~repro.core.batch.evaluate_disk_tiles_based`.
        """
        iy = tile_id // self.grid.nx
        codes, covered = plan.tile(tile_id % self.grid.nx, iy)
        if stats is not None:
            if not self._tile_has_rows(tile_id):
                return
            stats.partitions_visited += 1
        scanned = 0
        for code in codes:
            cols = self._partition_columns(tile_id, code)
            if cols is None or cols[4].shape[0] == 0:
                continue
            xl, yl, xu, yu, ids = cols
            n = ids.shape[0]
            b_or_d = code in (CLASS_B, CLASS_D)
            if stats is not None:
                stats.rects_scanned += n
                stats.visit_class(CLASS_NAMES[code])
                scanned += n
                stats.comparisons += 0 if covered else query.comparisons_per_rect * n
                stats.dedup_checks += n if b_or_d else 0
            qual = None if covered else query.intersects_rects(xl, yl, xu, yu)
            if b_or_d:
                keep = plan.canonical(xl, yl, xu, iy)
                qual = keep if qual is None else qual & keep
            pieces.append(ids if qual is None else ids[qual])
        if stats is not None:
            stats.visit_tile(tile_id, scanned, self._tile_live_rows(tile_id))


#: §IV-E class skipping: the classes a span tile scans, by (the previous
#: row's span holds the tile, the tile opens its row's span).
_RANGE_CODES = {
    (False, False): (CLASS_A, CLASS_B),
    (False, True): (CLASS_A, CLASS_B, CLASS_C, CLASS_D),
    (True, False): (CLASS_A,),
    (True, True): (CLASS_A, CLASS_C),
}


class RangePlan:
    """The §IV-E plan of one convex range over a grid.

    ``spans[r] = [lo, hi, clo, chi]`` for grid row ``iy0 + r``: the tile
    columns ``lo..hi`` meeting the range (convexity makes them
    contiguous; none when ``lo > hi``) and the run ``clo..chi`` it
    covers (none when ``clo > chi``).
    """

    __slots__ = ("grid", "iy0", "iy1", "spans", "table")

    def __init__(
        self, grid: GridPartitioner, iy0: int, spans: "list[list[int]]"
    ):
        self.grid = grid
        self.iy0 = iy0
        self.iy1 = iy0 + len(spans) - 1
        self.spans = spans
        #: ``spans`` transposed into four int64 rows (lo, hi, clo, chi).
        self.table = np.array(spans, dtype=np.int64).T

    def tile_ids(self) -> list[int]:
        """Every span tile, row-major."""
        nx = self.grid.nx
        return [
            iy * nx + ix
            for iy, (lo, hi, _, _) in enumerate(self.spans, self.iy0)
            for ix in range(lo, hi + 1)
        ]

    def tile(self, ix: int, iy: int) -> tuple[tuple[int, ...], bool]:
        """Scanned class codes and coverage of span tile ``(ix, iy)``."""
        lo, _, clo, chi = self.spans[iy - self.iy0]
        prev = self.spans[iy - self.iy0 - 1] if iy > self.iy0 else (1, 0)
        return _RANGE_CODES[prev[0] <= ix <= prev[1], ix == lo], clo <= ix <= chi

    def canonical(
        self, xl: np.ndarray, yl: np.ndarray, xu: np.ndarray, iy: int
    ) -> np.ndarray:
        """Keep mask for class-B/D rectangles scanned in grid row ``iy``:
        each is reported in the first span tile (row-major) its MBR
        covers, so it is a duplicate iff an earlier row's span, from its
        start row on, meets its columns — one broadcast over rows."""
        n_prev = iy - self.iy0
        grid = self.grid
        lo, hi = self.table[:2, :n_prev]
        seen = (grid.tile_iy_array(yl)[:, None] <= np.arange(self.iy0, iy)) & (
            np.maximum(grid.tile_ix_array(xl)[:, None], lo)
            <= np.minimum(grid.tile_ix_array(xu)[:, None], hi)
        )
        return ~seen.any(axis=1)


def _join(pieces: list[np.ndarray], fresh: bool) -> np.ndarray:
    """One result that owns its memory; ``fresh``: no piece is a view."""
    if not pieces:
        return _EMPTY_IDS
    if len(pieces) == 1 and fresh:
        return pieces[0]
    return np.concatenate(pieces)
