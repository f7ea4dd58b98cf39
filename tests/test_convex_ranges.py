"""Tests for generalised convex range queries (Section IV-E extension).

The oracles are independent of the code under test: polygons use the
per-object exact :meth:`Polygon.intersects_rect`, half-plane regions a
vertex enumeration over each object's own rectangle (the range itself
cuts the clip box into a polygon and tests rectangles by separating
axes).
"""

import itertools
import math

import numpy as np
import pytest

from repro.datasets import RectDataset, generate_uniform_rects, generate_zipf_rects
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.core import (
    ConvexPolygonRange,
    HalfPlaneStripRange,
    TwoLayerGrid,
    convex_range_query,
)
from repro.stats import QueryStats

from conftest import ids_set


@pytest.fixture(scope="module")
def data():
    return generate_uniform_rects(3000, area=1e-4, seed=121)


@pytest.fixture(scope="module")
def index(data):
    return TwoLayerGrid.build(data, partitions_per_dim=16)


def brute(data, q) -> set[int]:
    """Ids whose MBR meets the range, by an oracle independent of ``q``."""
    if isinstance(q, HalfPlaneStripRange):
        return half_plane_oracle(data, q.half_planes, q.clip)
    box = q.polygon.mbr()
    near = np.flatnonzero(
        (data.xl <= box.xu) & (data.xu >= box.xl)
        & (data.yl <= box.yu) & (data.yu >= box.yl)
    )
    return {int(i) for i in near if q.polygon.intersects_rect(data.rect(int(i)))}


def half_plane_oracle(data, half_planes, clip) -> set[int]:
    """Ids whose MBR, clipped to ``clip``, meets every half-plane at once.

    A nonempty bounded intersection of half-planes has a vertex where two
    of its boundary lines cross, so each undecided rectangle is tested by
    enumerating those crossings.  The vectorised pre-pass only settles
    the obvious cases: a rectangle wholly outside one half-plane misses,
    one whose four corners are inside every half-plane hits.
    """
    xl = np.maximum(data.xl, clip.xl)
    yl = np.maximum(data.yl, clip.yl)
    xu = np.minimum(data.xu, clip.xu)
    yu = np.minimum(data.yu, clip.yu)
    alive = (xl <= xu) & (yl <= yu)
    inside = alive.copy()
    for a, b, c in half_planes:
        corners = [a * x + b * y for x in (xl, xu) for y in (yl, yu)]
        alive &= np.minimum.reduce(corners) <= c
        inside &= np.maximum.reduce(corners) <= c
    hits = set(np.flatnonzero(inside).tolist())
    for i in np.flatnonzero(alive & ~inside):
        lines = [
            (1.0, 0.0, xu[i]), (-1.0, 0.0, -xl[i]),
            (0.0, 1.0, yu[i]), (0.0, -1.0, -yl[i]),
        ] + list(half_planes)
        for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-15:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if all(a * x + b * y <= c + 1e-9 for a, b, c in lines):
                hits.add(int(i))
                break
    return hits


def regular_polygon(cx, cy, r, k, phase=0.0):
    return [
        (cx + r * math.cos(phase + 2 * math.pi * i / k),
         cy + r * math.sin(phase + 2 * math.pi * i / k))
        for i in range(k)
    ]


class TestConvexPolygonRange:
    def test_rejects_concave(self):
        with pytest.raises(InvalidQueryError):
            ConvexPolygonRange([(0, 0), (1, 0), (0.2, 0.2), (0, 1)])

    def test_accepts_triangle(self):
        q = ConvexPolygonRange([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9)])
        assert q.bounding_box() == Rect(0.1, 0.1, 0.9, 0.9)

    def test_classify_rect(self):
        q = ConvexPolygonRange(regular_polygon(0.5, 0.5, 0.4, 8))
        rects = [
            Rect(0.45, 0.45, 0.55, 0.55),  # inside
            Rect(0.0, 0.0, 0.05, 0.05),  # outside
            Rect(0.0, 0.4, 0.5, 0.6),  # partial
        ]
        xl, yl, xu, yu = (np.array(c) for c in zip(*(r.as_tuple() for r in rects)))
        assert q.classify(xl, yl, xu, yu).tolist() == [1, -1, 0]

    def test_intersects_rects_matches_exact_predicate(self):
        rng = np.random.default_rng(125)
        data = generate_uniform_rects(4000, area=2e-3, seed=126)
        for k in (3, 5, 7):
            q = ConvexPolygonRange(
                regular_polygon(0.5, 0.5, rng.uniform(0.1, 0.35), k, rng.uniform(0, 6))
            )
            mask = q.intersects_rects(data.xl, data.yl, data.xu, data.yu)
            assert set(np.flatnonzero(mask).tolist()) == brute(data, q)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
    def test_matches_brute_force(self, data, index, k):
        rng = np.random.default_rng(k)
        for _ in range(8):
            cx, cy = rng.uniform(0.25, 0.75, 2)
            q = ConvexPolygonRange(
                regular_polygon(cx, cy, rng.uniform(0.05, 0.3), k, rng.uniform(0, 6))
            )
            got = convex_range_query(index, q)
            assert len(got) == len(ids_set(got)), f"duplicates (k={k})"
            assert ids_set(got) == brute(data, q)

    def test_zipf_data(self):
        data = generate_zipf_rects(2000, area=1e-4, seed=122)
        index = TwoLayerGrid.build(data, partitions_per_dim=16)
        q = ConvexPolygonRange(regular_polygon(0.15, 0.15, 0.12, 6))
        got = convex_range_query(index, q)
        assert len(got) == len(ids_set(got))
        assert ids_set(got) == brute(data, q)

    def test_rectangle_as_polygon_equals_window_query(self, data, index):
        w = Rect(0.3, 0.3, 0.6, 0.55)
        q = ConvexPolygonRange([(w.xl, w.yl), (w.xu, w.yl), (w.xu, w.yu), (w.xl, w.yu)])
        got = convex_range_query(index, q)
        assert ids_set(got) == ids_set(index.window_query(w))

    def test_big_objects_boundary_dedup(self):
        # Large objects stress the class-B/D canonical-tile rule.
        data = generate_uniform_rects(600, area=5e-2, seed=123)
        index = TwoLayerGrid.build(data, partitions_per_dim=12)
        q = ConvexPolygonRange(regular_polygon(0.5, 0.5, 0.35, 5, phase=0.7))
        got = convex_range_query(index, q)
        assert len(got) == len(ids_set(got)), "boundary duplicate leaked"
        assert ids_set(got) == brute(data, q)

    def test_scans_fewer_rects_than_full_grid(self, data, index):
        q = ConvexPolygonRange(regular_polygon(0.5, 0.5, 0.2, 6))
        stats = QueryStats()
        convex_range_query(index, q, stats)
        assert 0 < stats.rects_scanned < index.replica_count


class TestHalfPlaneStripRange:
    def test_needs_half_planes(self):
        with pytest.raises(InvalidQueryError):
            HalfPlaneStripRange([])

    def test_single_half_plane(self, data, index):
        # Everything left of x = 0.4: half-plane 1*x + 0*y <= 0.4.
        q = HalfPlaneStripRange([(1.0, 0.0, 0.4)])
        got = convex_range_query(index, q)
        assert len(got) == len(ids_set(got))
        assert ids_set(got) == brute(data, q)
        assert ids_set(got) == ids_set(
            data.brute_force_window(Rect(0.0, 0.0, 0.4, 1.0))
        )

    def test_diagonal_strip(self, data, index):
        # A diagonal band: x + y <= 1.2 and -(x + y) <= -0.8.
        q = HalfPlaneStripRange([(1.0, 1.0, 1.2), (-1.0, -1.0, -0.8)])
        got = convex_range_query(index, q)
        assert len(got) == len(ids_set(got))
        assert ids_set(got) == brute(data, q)

    def test_random_strips_match_brute_force(self, data, index):
        rng = np.random.default_rng(124)
        for _ in range(15):
            hp = []
            for _ in range(int(rng.integers(1, 4))):
                a, b = rng.normal(size=2)
                x0, y0 = rng.uniform(0.2, 0.8, 2)
                hp.append((a, b, a * x0 + b * y0))
            q = HalfPlaneStripRange(hp)
            got = convex_range_query(index, q)
            assert len(got) == len(ids_set(got))
            assert ids_set(got) == brute(data, q)

    def test_wedge_has_no_false_positive(self):
        # y <= x and y <= 1 - x: a wedge with its apex at (0.5, 0.5).  The
        # rectangle passes each half-plane alone but lies above the apex.
        rects = [Rect(0.3, 0.6, 0.7, 0.7), Rect(0.45, 0.3, 0.55, 0.35)]
        data = RectDataset.from_rects(rects)
        index = TwoLayerGrid.build(data, partitions_per_dim=8)
        q = HalfPlaneStripRange([(-1.0, 1.0, 0.0), (1.0, 1.0, 1.0)])
        assert brute(data, q) == {1}
        assert ids_set(convex_range_query(index, q)) == {1}
        assert q.intersects_rects(data.xl, data.yl, data.xu, data.yu).tolist() == [
            False,
            True,
        ]

    def test_degenerate_line_region(self, data, index):
        # x <= 0.5 and x >= 0.5: the vertical segment x = 0.5 of the box.
        q = HalfPlaneStripRange([(1.0, 0.0, 0.5), (-1.0, 0.0, -0.5)])
        got = convex_range_query(index, q)
        assert len(got) == len(ids_set(got))
        expected = set(np.flatnonzero((data.xl <= 0.5) & (data.xu >= 0.5)).tolist())
        assert ids_set(got) == expected == brute(data, q)

    def test_empty_region(self, data, index):
        q = HalfPlaneStripRange([(1.0, 0.0, -5.0)])  # x <= -5: nothing
        assert convex_range_query(index, q).shape[0] == 0

    def test_whole_domain(self, data, index):
        q = HalfPlaneStripRange([(1.0, 0.0, 10.0)])
        assert ids_set(convex_range_query(index, q)) == set(range(len(data)))
