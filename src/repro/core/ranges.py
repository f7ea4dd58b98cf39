"""Convex query ranges for the two-layer grid's §IV-E engine.

The paper generalises disk queries to *any* query range: find the tiles
intersecting the range, skip the classes that would produce duplicates
(based on whether the previous tile per dimension also intersects the
range), report fully-covered tiles without verification and verify
rectangles in partially-covered tiles.  :meth:`TwoLayerGrid.range_query
<repro.core.two_layer.TwoLayerGrid.range_query>` is that engine, one
plan and one CSR slab scan for every range shape, disks included.

This module supplies the shapes.  Convexity guarantees the per-row tile
intervals are contiguous, which both the class-skipping rule and the
canonical-tile test for classes B/D rely on.  Every range answers two
array-in questions — :meth:`~ConvexRange.classify` (tiles) and
:meth:`~ConvexRange.intersects_rects` (rows) — over broadcastable
coordinate arrays:

* :class:`~repro.datasets.queries.DiskQuery` — a disk;
* :class:`ConvexPolygonRange` — a convex polygon query region;
* :class:`HalfPlaneStripRange` — the intersection of half-planes
  (e.g. "everything north-west of this line within the map"), a common
  analytic region shape, cut into a convex polygon once.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.errors import InvalidQueryError
from repro.geometry.mbr import Rect
from repro.geometry.polygon import Polygon
from repro.core.two_layer import TwoLayerGrid
from repro.stats import QueryStats

__all__ = [
    "ConvexRange",
    "ConvexPolygonRange",
    "HalfPlaneStripRange",
    "convex_range_query",
]


class ConvexRange(Protocol):
    """What the §IV-E engine needs from a convex query range.

    Coordinate arguments are arrays that broadcast against each other
    (the engine passes tile columns as a row vector and tile rows as a
    column vector, so per-axis terms are computed once per column/row).
    """

    #: comparisons one verified rectangle costs (QueryStats accounting).
    comparisons_per_rect: int

    def bounding_box(self) -> Rect:
        """A rectangle containing the whole range."""

    def classify(
        self, xl: np.ndarray, yl: np.ndarray, xu: np.ndarray, yu: np.ndarray
    ) -> np.ndarray:
        """Per rectangle: -1 if disjoint from the range, 1 if fully
        covered by it, 0 if partially overlapping (used per tile)."""

    def intersects_rects(
        self, xl: np.ndarray, yl: np.ndarray, xu: np.ndarray, yu: np.ndarray
    ) -> np.ndarray:
        """Boolean mask: which of the given MBRs intersect the range."""


class _ConvexRegion:
    """A convex region given by its vertex ring, tested by separating axes.

    Two convex sets are disjoint iff a line through an edge of one of
    them separates them, so a rectangle misses the region iff the
    bounding boxes miss or the rectangle lies wholly outside one region
    edge.  A degenerate ring (a segment or a point) still gets the exact
    test and covers nothing; an empty ring meets nothing.
    """

    def __init__(self, ring: "Sequence[tuple[float, float]]"):
        pts = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
        xs, ys = pts[:, 0], pts[:, 1]
        # Counter-clockwise, so each edge's outward normal is (dy, -dx).
        area2 = float(np.sum(xs * np.roll(ys, -1) - np.roll(xs, -1) * ys))
        if area2 < 0:
            xs, ys = xs[::-1], ys[::-1]
        self.has_area = area2 != 0
        nx = np.roll(ys, -1) - ys
        ny = xs - np.roll(xs, -1)
        edge = (nx != 0) | (ny != 0)
        #: ``a * x + b * y <= c`` inside every edge.
        self.edges = [
            (float(a), float(b), float(a * x + b * y))
            for a, b, x, y in zip(nx[edge], ny[edge], xs[edge], ys[edge])
        ]
        self.box = (0.0, 0.0, 0.0, 0.0)
        if pts.shape[0]:
            self.box = tuple(float(v) for v in (xs.min(), ys.min(), xs.max(), ys.max()))
        else:
            self.edges = [(0.0, 0.0, -1.0)]  # unsatisfiable
        self.comparisons_per_rect = 4 + len(self.edges)

    def bounding_box(self) -> Rect:
        return Rect(*self.box)

    def classify(
        self, xl: np.ndarray, yl: np.ndarray, xu: np.ndarray, yu: np.ndarray
    ) -> np.ndarray:
        bxl, byl, bxu, byu = self.box
        hit = (xl <= bxu) & (xu >= bxl) & (yl <= byu) & (yu >= byl)
        cover = np.full(hit.shape, self.has_area)
        for a, b, c in self.edges:
            # The rectangle's lowest and highest projection on the normal.
            low = (a * xl if a >= 0 else a * xu) + (b * yl if b >= 0 else b * yu)
            high = (a * xu if a >= 0 else a * xl) + (b * yu if b >= 0 else b * yl)
            hit &= low <= c
            cover &= high <= c
        return np.add(hit, cover, dtype=np.int8) - 1

    def intersects_rects(
        self, xl: np.ndarray, yl: np.ndarray, xu: np.ndarray, yu: np.ndarray
    ) -> np.ndarray:
        bxl, byl, bxu, byu = self.box
        hit = (xl <= bxu) & (xu >= bxl) & (yl <= byu) & (yu >= byl)
        for a, b, c in self.edges:
            hit &= (a * xl if a >= 0 else a * xu) + (b * yl if b >= 0 else b * yu) <= c
        return hit


class ConvexPolygonRange(_ConvexRegion):
    """A convex-polygon query range.

    Vertices may be given in either orientation; convexity is validated
    (the two-layer evaluation relies on it for duplicate avoidance).
    """

    def __init__(self, vertices: "Sequence[tuple[float, float]]"):
        self.polygon = Polygon(vertices)
        pts = np.asarray(self.polygon.vertices)
        edge = np.roll(pts, -1, axis=0) - pts
        after = np.roll(edge, -1, axis=0)
        turn = edge[:, 0] * after[:, 1] - edge[:, 1] * after[:, 0]
        turn = turn[np.abs(turn) >= 1e-15]
        if not ((turn > 0).all() or (turn < 0).all()):
            raise InvalidQueryError(
                "ConvexPolygonRange requires a convex polygon; use multiple "
                "convex pieces for concave regions"
            )
        super().__init__(pts)


class HalfPlaneStripRange(_ConvexRegion):
    """Intersection of half-planes ``a*x + b*y <= c``, clipped to a box.

    A flexible convex region for analytic queries ("south of this road,
    west of this meridian").  The clip box bounds the otherwise unbounded
    intersection; the box is cut by each half-plane once, at
    construction, into the convex polygon every test runs against.
    """

    def __init__(
        self,
        half_planes: "Iterable[tuple[float, float, float]]",
        clip: "Rect | None" = None,
    ):
        self.half_planes = [(float(a), float(b), float(c)) for a, b, c in half_planes]
        if not self.half_planes:
            raise InvalidQueryError("need at least one half-plane")
        self.clip = clip if clip is not None else Rect(0.0, 0.0, 1.0, 1.0)
        ring = list(self.clip.corners())
        for a, b, c in self.half_planes:
            ring = _cut(ring, a, b, c)
        super().__init__(ring)


def _cut(
    ring: "list[tuple[float, float]]", a: float, b: float, c: float
) -> "list[tuple[float, float]]":
    """The part of a convex ring with ``a*x + b*y <= c`` (Sutherland-Hodgman)."""
    out: list[tuple[float, float]] = []
    for i, (px, py) in enumerate(ring):
        qx, qy = ring[(i + 1) % len(ring)]
        fp = a * px + b * py - c
        fq = a * qx + b * qy - c
        if fp <= 0:
            out.append((px, py))
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    # Drop repeated vertices (a cut through a vertex emits it twice).
    return [p for i, p in enumerate(out) if p != out[i - 1]] or out[:1]


def convex_range_query(
    index: TwoLayerGrid,
    query: ConvexRange,
    stats: "QueryStats | None" = None,
) -> np.ndarray:
    """Ids of all indexed MBRs intersecting a convex range — no duplicates.

    The §IV-E engine of :meth:`TwoLayerGrid.range_query`.
    """
    return index.range_query(query, stats)
