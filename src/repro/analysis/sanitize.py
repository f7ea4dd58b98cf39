"""Runtime sanitizer for the packed/concurrent core (``REPRO_SANITIZE=1``).

When enabled, the storage and serving layers call into this module at
their invariant boundaries:

* **build/compact** — :func:`check_packed_store` validates the CSR base:
  offsets monotone, ``offsets[0] == 0``, ``offsets[-1] == n_rows``, all
  five columns equally long, and the tombstone state (bitmap length,
  per-group counts, total) internally consistent.
* **publish** — :func:`check_snapshot` re-validates the published base,
  checks the delta overlay is disjoint from live base rows
  (:func:`check_delta_disjoint`), and freezes the base columns so a
  stray in-place write raises immediately.
* **query** — :func:`on_query` cross-checks a *sample* of window,
  "within", disk and convex-range results (every
  ``REPRO_SANITIZE_SAMPLE``-th query, default 16) against a brute-force
  scan of the live rows, catching dedup or kernel regressions the
  moment they produce a wrong id set.

Every violation raises :class:`SanitizerError` carrying the failed check
name and a structured detail mapping — grep-able in logs, assertable in
tests.  With ``REPRO_SANITIZE`` unset the hooks are a single cached
env-read and branch.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.grid.storage import PackedStore

__all__ = [
    "SanitizerError",
    "enabled",
    "check_packed_store",
    "check_delta_disjoint",
    "check_snapshot",
    "freeze_array",
    "live_rows",
    "naive_ids",
    "naive_window_ids",
    "on_query",
    "on_window_query",
    "verify_result",
    "verify_window_result",
]


class SanitizerError(ReproError):
    """A runtime invariant violation caught by the sanitizer."""

    def __init__(self, check: str, where: str, details: "Mapping[str, Any]"):
        self.check = check
        self.where = where
        self.details = dict(details)
        detail_str = ", ".join(f"{k}={v!r}" for k, v in self.details.items())
        super().__init__(f"sanitizer: {check} failed at {where} ({detail_str})")


def enabled() -> bool:
    """Whether the sanitizer is on (``REPRO_SANITIZE`` set and not 0)."""
    return os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")


def _sample_every() -> int:
    raw = os.environ.get("REPRO_SANITIZE_SAMPLE", "16")
    try:
        return max(1, int(raw))
    except ValueError:
        return 16


def _fail(check: str, where: str, **details: Any) -> None:
    raise SanitizerError(check, where, details)


# -- PackedStore invariants ------------------------------------------------


def check_packed_store(store: "PackedStore", where: str) -> None:
    """Validate the CSR invariants of one packed base."""
    offsets = store.offsets
    n_rows = store.ids.shape[0]
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        _fail("offsets_shape", where, shape=offsets.shape)
    if int(offsets[0]) != 0:
        _fail("offsets_origin", where, first=int(offsets[0]))
    if np.any(np.diff(offsets) < 0):
        bad = int(np.flatnonzero(np.diff(offsets) < 0)[0])
        _fail(
            "offsets_monotone",
            where,
            group=bad,
            at=int(offsets[bad]),
            next=int(offsets[bad + 1]),
        )
    if int(offsets[-1]) != n_rows:
        _fail("offsets_cover_rows", where, tail=int(offsets[-1]), n_rows=n_rows)
    n_groups = offsets.shape[0] - 1
    if n_groups % max(store.n_classes, 1) != 0:
        _fail(
            "groups_divisible_by_classes",
            where,
            n_groups=n_groups,
            n_classes=store.n_classes,
        )
    for name in ("xl", "yl", "xu", "yu"):
        col = getattr(store, name)
        if col.shape[0] != n_rows:
            _fail("column_length", where, column=name, length=col.shape[0], n_rows=n_rows)
    if store.dead is None:
        if store.n_dead != 0:
            _fail("dead_count_without_bitmap", where, n_dead=store.n_dead)
        return
    if store.dead.shape[0] != n_rows:
        _fail(
            "tombstone_bitmap_bounds",
            where,
            bitmap=store.dead.shape[0],
            n_rows=n_rows,
        )
    if store.dead_per_group is None or store.dead_per_group.shape[0] != n_groups:
        _fail(
            "tombstone_group_counts_shape",
            where,
            groups=n_groups,
            counts=None
            if store.dead_per_group is None
            else store.dead_per_group.shape[0],
        )
    total = int(store.dead.sum())
    if total != store.n_dead:
        _fail("tombstone_total", where, bitmap_total=total, n_dead=store.n_dead)
    dead_rows = np.flatnonzero(store.dead)
    groups = np.searchsorted(offsets, dead_rows, side="right") - 1
    per_group = np.bincount(groups, minlength=n_groups)
    if not np.array_equal(per_group, store.dead_per_group):
        bad = int(np.flatnonzero(per_group != store.dead_per_group)[0])
        _fail(
            "tombstone_group_counts",
            where,
            group=bad,
            actual=int(per_group[bad]),
            recorded=int(store.dead_per_group[bad]),
        )


def check_delta_disjoint(
    store: "PackedStore",
    tiles: "Mapping[int, Any]",
    where: str,
    n_classes: "int | None" = None,
) -> None:
    """The delta overlay must never duplicate a live base row's id.

    ``tiles`` maps tile id to either one TileTable (1-layer) or a list of
    per-class tables (2-layer); a delta id that is also live in the same
    tile's base rows would be returned twice by every query.
    """
    n_classes = store.n_classes if n_classes is None else n_classes
    for tile_id, entry in tiles.items():
        tables = entry if isinstance(entry, (list, tuple)) else [entry]
        for code, table in enumerate(tables):
            if table is None:
                continue
            _, _, _, _, delta_ids = table.columns()
            if delta_ids.shape[0] == 0:
                continue
            for base_code in range(n_classes):
                cols = store.group_columns(tile_id * n_classes + base_code)
                if cols is None:
                    continue
                overlap = np.intersect1d(delta_ids, cols[4])
                if overlap.shape[0]:
                    _fail(
                        "delta_base_disjoint",
                        where,
                        tile=tile_id,
                        delta_class=code,
                        base_class=base_code,
                        ids=overlap[:8].tolist(),
                    )


# -- snapshot immutability -------------------------------------------------


def freeze_array(array: "np.ndarray | None") -> None:
    """Mark one array read-only (no-op for None / already-frozen)."""
    if array is not None:
        array.flags.writeable = False


def freeze_arrays(arrays: "Iterable[np.ndarray | None]") -> None:
    for array in arrays:
        freeze_array(array)


def check_snapshot(index: Any, where: str) -> None:
    """Publish-time validation of a (possibly forked) grid index."""
    store = getattr(index, "_store", None)
    if store is None:
        return
    check_packed_store(store, where)
    check_delta_disjoint(store, getattr(index, "_tiles", {}), where)
    freeze_arrays((store.offsets, store.xl, store.yl, store.xu, store.yu, store.ids))


# -- query cross-checking --------------------------------------------------


def live_rows(grid: Any) -> tuple[np.ndarray, ...]:
    """``(xl, yl, xu, yu, ids)`` of every live row of a grid index: the
    packed base past its tombstones plus every delta-overlay table (an
    object appears once per replica)."""
    parts = []
    store = getattr(grid, "_store", None)
    if store is not None:
        parts.append(store.flat_live_rows()[1:])
    for entry in getattr(grid, "_tiles", {}).values():
        tables = entry if isinstance(entry, (list, tuple)) else [entry]
        parts.extend(t.columns() for t in tables if t is not None and len(t))
    if not parts:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty, empty, empty, np.empty(0, dtype=np.int64)
    return tuple(np.concatenate([p[c] for p in parts]) for c in range(5))


def naive_ids(grid: Any, kind: str, query: Any) -> np.ndarray:
    """Reference result: a brute-force scan of the live rows, deduplicated.

    ``kind`` ``"window"`` tests intersection with the window ``query``,
    ``"within"`` containment in it, and any other kind the range's own
    ``intersects_rects`` (disks, :mod:`repro.core.ranges` shapes) — no
    tile, plan, slab or class of the kernels under check is read.
    """
    xl, yl, xu, yu, ids = live_rows(grid)
    if kind == "window":
        mask = (xl <= query.xu) & (xu >= query.xl) & (yl <= query.yu) & (yu >= query.yl)
    elif kind == "within":
        mask = (xl >= query.xl) & (xu <= query.xu) & (yl >= query.yl) & (yu <= query.yu)
    else:
        mask = query.intersects_rects(xl, yl, xu, yu)
    return np.unique(ids[mask])


def naive_window_ids(grid: Any, window: Any) -> np.ndarray:
    """:func:`naive_ids` of a window query."""
    return naive_ids(grid, "window", window)


def verify_result(kind: str, expected: np.ndarray, ids: np.ndarray) -> None:
    """Raise unless ``ids`` is ``expected`` (sorted), each id once."""
    got = np.sort(np.asarray(ids, dtype=np.int64))
    if np.unique(got).shape[0] != got.shape[0]:
        dupes, counts = np.unique(got, return_counts=True)
        _fail(
            f"{kind}_dedup",
            f"{kind}_query",
            duplicate_ids=dupes[counts > 1][:8].tolist(),
        )
    if not np.array_equal(got, expected):
        missing = np.setdiff1d(expected, got)
        extra = np.setdiff1d(got, expected)
        _fail(
            f"{kind}_result_parity",
            f"{kind}_query",
            missing=missing[:8].tolist(),
            extra=extra[:8].tolist(),
            expected=int(expected.shape[0]),
            got=int(got.shape[0]),
        )


def verify_window_result(grid: Any, window: Any, ids: np.ndarray) -> None:
    """Raise unless ``ids`` matches the brute-force reference scan."""
    verify_result("window", naive_window_ids(grid, window), ids)


_query_counter = 0


def on_query(grid: Any, kind: str, query: Any, ids: np.ndarray) -> None:
    """Sampled post-query hook: every Nth call runs the full cross-check.

    ``kind`` is ``"window"``, ``"within"`` or ``"range"``.
    """
    global _query_counter
    _query_counter += 1
    if _query_counter % _sample_every():
        return
    store = getattr(grid, "_store", None)
    if store is not None:
        check_packed_store(store, f"{kind}_query")
    verify_result(kind, naive_ids(grid, kind, query), ids)


def on_window_query(grid: Any, window: Any, ids: np.ndarray) -> None:
    """:func:`on_query` for a window result."""
    on_query(grid, "window", window, ids)
