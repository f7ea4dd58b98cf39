"""A TwoLayerGrid whose kernels are clamped to one contiguous tile band.

Each shard worker holds the *full* index state — the whole packed base
mapped from shared memory, the whole delta overlay replicated by the
write broadcast — but answers queries only for the tiles its band owns.
Clamping (rather than physically slicing the columns) keeps every global
invariant intact:

* plans stay global — region decomposition, class scanning rules and
  the §IV-E range plan's row spans (which the canonical-tile test
  reads) are computed over the full grid, so each replica's *reporting*
  tile is the same tile it would report from in a single-process index;
* tile ownership partitions the tile space, and the two-layer scheme
  emits every result in exactly one tile (Lemmas 1-2 / §IV-E), so the
  union of band results over all shards equals the global result with
  no duplicates and no misses — the scatter-gather merge is pure
  concatenation;
* a band is a contiguous CSR row slab, so the window, within and range
  kernels band by clamping each per-grid-row slab to ``[row_lo,
  row_hi)`` — still one broadcast comparison per slab.

The clamp rides on parent hooks: :meth:`~repro.core.two_layer
.TwoLayerGrid._owned` (the accounting walks and the overlay filter),
:meth:`~repro.core.two_layer.TwoLayerGrid._row_slab` (the kernels'
slabs), :meth:`~repro.core.two_layer.TwoLayerGrid._tile_has_rows`
(per-tile paths and the tiles-based batch evaluators) and
:meth:`~repro.core.two_layer.TwoLayerGrid._fork_shell` (snapshot forks
keep the band).  kNN is *not* banded — its radius-doubling search is
routed to a single worker which runs it on :meth:`global_view`.
"""

from __future__ import annotations

import numpy as np

from repro.core.two_layer import TwoLayerGrid
from repro.grid.base import GridPartitioner
from repro.shard.partition import ShardBand

__all__ = ["BandedTwoLayerGrid"]


class BandedTwoLayerGrid(TwoLayerGrid):
    """Full-state two-layer grid answering only for an owned tile band."""

    def __init__(self, grid: GridPartitioner, band: ShardBand):
        super().__init__(grid)
        self.band = band

    def _fork_shell(self) -> "BandedTwoLayerGrid":
        return BandedTwoLayerGrid(self.grid, self.band)

    # -- band clamps --------------------------------------------------------

    def _owned(self, tids: np.ndarray) -> np.ndarray:
        return (tids >= self.band.t_lo) & (tids < self.band.t_hi)

    def _row_slab(self) -> tuple[int, int]:
        # Owned tiles of any grid row's slab are one contiguous sub-slab.
        return self.band.row_lo, self.band.row_hi

    def _tile_has_rows(self, tile_id: int) -> bool:
        if not self.band.owns_tile(tile_id):
            return False
        return super()._tile_has_rows(tile_id)

    def _on_query_result(self, kind: str, query: object, out: np.ndarray) -> None:
        # A band's partial result would falsely fail the global naive
        # reference; the router cross-checks the *merged* result.
        return None

    # -- escape hatch -------------------------------------------------------

    def global_view(self) -> TwoLayerGrid:
        """A plain (unbanded) twin sharing every column by reference.

        Used for kNN: the radius-doubling search needs global visibility
        (the k-th distance bound is a global property), so the router
        sends each knn to one worker, which answers from this view.
        Cheap enough to build per call — six attribute copies.
        """
        twin = TwoLayerGrid(self.grid)
        twin._store = self._store
        twin._tiles = self._tiles
        twin._fast_q = self._fast_q
        twin._tile_row_bounds = self._tile_row_bounds
        twin._n_objects = self._n_objects
        return twin
