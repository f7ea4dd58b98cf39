"""Tile-space shard planning: contiguous tile-id bands over the CSR base.

Tile ids are row-major, and the packed base sorts rows by the fused
``(tile, class)`` key, so a contiguous tile range ``[t_lo, t_hi)`` is
exactly one contiguous row slab ``[offsets[4*t_lo], offsets[4*t_hi))``.
A shard *is* such a band: workers map the shared columns read-only and
never touch rows outside their slab, and the router can decide which
shards a query footprint reaches with a constant-time per-band overlap
test (no per-tile enumeration).

Bands are planned by balancing *base rows* (replicas), not tiles — the
replica histogram is what actually drives scan cost — using one
``searchsorted`` over the per-tile row bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IndexStateError

__all__ = ["ShardBand", "bands_for_range", "plan_bands", "shard_for_tile"]


@dataclass(frozen=True)
class ShardBand:
    """One shard's ownership: tiles ``[t_lo, t_hi)``, rows ``[row_lo, row_hi)``."""

    shard: int
    t_lo: int
    t_hi: int
    row_lo: int
    row_hi: int

    @property
    def n_tiles(self) -> int:
        return self.t_hi - self.t_lo

    @property
    def n_rows(self) -> int:
        return self.row_hi - self.row_lo

    def owns_tile(self, tile_id: int) -> bool:
        return self.t_lo <= tile_id < self.t_hi

    def to_tuple(self) -> tuple[int, int, int, int, int]:
        """Plain-tuple form for the spawn-pickled shm manifest."""
        return (self.shard, self.t_lo, self.t_hi, self.row_lo, self.row_hi)

    @classmethod
    def from_tuple(cls, t: "tuple[int, int, int, int, int]") -> "ShardBand":
        return cls(int(t[0]), int(t[1]), int(t[2]), int(t[3]), int(t[4]))


def plan_bands(tile_row_bounds: np.ndarray, shards: int) -> list[ShardBand]:
    """Split ``n_tiles`` tiles into ``shards`` row-balanced bands.

    ``tile_row_bounds`` is the per-tile cumulative row table
    ``offsets[::4]`` (length ``n_tiles + 1``): tile ``t``'s rows — all
    four class groups — are ``[bounds[t], bounds[t+1])``.  Cut points
    aim at equal row counts per band via ``searchsorted``; with heavily
    skewed data a band may end up empty (``t_lo == t_hi``), which the
    router and workers both tolerate.
    """
    if shards < 1:
        raise IndexStateError(f"shards must be >= 1, got {shards}")
    bounds = np.asarray(tile_row_bounds, dtype=np.int64)
    n_tiles = bounds.shape[0] - 1
    if n_tiles < 1:
        raise IndexStateError("cannot shard an empty grid")
    total = int(bounds[-1])
    cuts = [0]
    for k in range(1, shards):
        target = (total * k) // shards
        cut = int(np.searchsorted(bounds, target, side="left"))
        # searchsorted lands just past a hot tile; cutting on the near
        # side of it can balance better (tile 0..6 = 7 rows, tile 7 =
        # 1000 rows wants the cut *before* tile 7, not after).
        if (
            cut > 0
            and cut <= n_tiles
            and target - int(bounds[cut - 1]) < int(bounds[cut]) - target
        ):
            cut -= 1
        cut = max(cuts[-1], min(cut, n_tiles))
        cuts.append(cut)
    cuts.append(n_tiles)
    return [
        ShardBand(
            k,
            cuts[k],
            cuts[k + 1],
            int(bounds[cuts[k]]),
            int(bounds[cuts[k + 1]]),
        )
        for k in range(shards)
    ]


def _band_intersects_range(
    band: ShardBand, nx: int, ix0: int, ix1: int, iy0: int, iy1: int
) -> bool:
    """Does the band own any tile of the rectangular footprint?

    Constant time: the band's tiles form a row-major run, so every grid
    row strictly inside the run is fully owned (columns ``0..nx-1``);
    only the run's first and last rows have partial column spans.
    """
    if band.t_lo >= band.t_hi:
        return False
    first = band.t_lo // nx
    last = (band.t_hi - 1) // nx
    lo = max(first, iy0)
    hi = min(last, iy1)
    if lo > hi:
        return False
    # Any fully-owned row inside the footprint intersects it outright.
    if max(lo, first + 1) <= min(hi, last - 1):
        return True
    if first >= lo and first <= hi:
        cl = band.t_lo % nx
        cu = (band.t_hi - 1) % nx if first == last else nx - 1
        if max(cl, ix0) <= min(cu, ix1):
            return True
    if last != first and last >= lo and last <= hi:
        cu = (band.t_hi - 1) % nx
        if max(0, ix0) <= min(cu, ix1):
            return True
    return False


def bands_for_range(
    bands: list[ShardBand], nx: int, ix0: int, ix1: int, iy0: int, iy1: int
) -> list[int]:
    """Shard ids whose band intersects tile range ``[ix0..ix1] x [iy0..iy1]``.

    Ascending shard order — which is ascending tile order, so merging
    per-shard results in this order preserves the global CSR row order
    of a clean index's window results.
    """
    return [
        band.shard
        for band in bands
        if _band_intersects_range(band, nx, ix0, ix1, iy0, iy1)
    ]


def shard_for_tile(bands: list[ShardBand], tile_id: int) -> int:
    """The shard owning ``tile_id`` (bands partition the tile space)."""
    for band in bands:
        if band.owns_tile(tile_id):
            return band.shard
    raise IndexStateError(
        f"tile {tile_id} outside every band (n={len(bands)})"
    )
