"""Unit tests for the grid substrate: tile math and replication."""

import numpy as np
import pytest

from repro.datasets import RectDataset, generate_uniform_rects
from repro.errors import InvalidGridError
from repro.geometry import Rect
from repro.grid import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    GridPartitioner,
    TileTable,
    group_rows,
    replicate,
)


class TestGridPartitioner:
    def test_rejects_zero_partitions(self):
        with pytest.raises(InvalidGridError):
            GridPartitioner(0, 4)

    def test_rejects_degenerate_domain(self):
        with pytest.raises(InvalidGridError):
            GridPartitioner(4, 4, domain=Rect(0, 0, 0, 1))

    def test_tile_sizes(self):
        g = GridPartitioner(4, 8)
        assert g.tile_w == pytest.approx(0.25)
        assert g.tile_h == pytest.approx(0.125)
        assert g.tile_count == 32

    def test_tile_ix_basic(self):
        g = GridPartitioner(4, 4)
        assert g.tile_ix(0.0) == 0
        assert g.tile_ix(0.24) == 0
        assert g.tile_ix(0.25) == 1  # half-open boundary
        assert g.tile_ix(0.999) == 3

    def test_tile_ix_clamping(self):
        g = GridPartitioner(4, 4)
        assert g.tile_ix(-5.0) == 0
        assert g.tile_ix(1.0) == 3  # domain max clamps to the last tile
        assert g.tile_ix(7.0) == 3

    def test_tile_id_roundtrip(self):
        g = GridPartitioner(5, 7)
        for iy in range(7):
            for ix in range(5):
                assert g.tile_coords(g.tile_id(ix, iy)) == (ix, iy)

    def test_tile_rect(self):
        g = GridPartitioner(4, 4)
        assert g.tile_rect(1, 2) == Rect(0.25, 0.5, 0.5, 0.75)

    def test_last_tile_rect_reaches_domain_edge(self):
        # 1/6 is not exact in binary: 6 * (1/6) rounds to just under 1.0,
        # which used to exclude boundary points from the last tile.
        g = GridPartitioner(6, 6)
        last = g.tile_rect(5, 5)
        assert last.xu == 1.0
        assert last.yu == 1.0

    def test_radius_zero_disk_at_domain_corner(self):
        # Regression: a radius-0 disk at (1.0, 0.0) must find the rect
        # touching that corner (the 1-ulp tile_rect gap dropped it).
        from repro.core import TwoLayerGrid
        from repro.datasets.dataset import RectDataset
        from repro.datasets.queries import DiskQuery

        data = RectDataset(
            np.array([0.9]), np.array([0.0]), np.array([1.0]), np.array([0.1])
        )
        index = TwoLayerGrid.build(data, partitions_per_dim=6)
        assert index.disk_query(DiskQuery(1.0, 0.0, 0.0)).tolist() == [0]

    def test_tile_range_for_window(self):
        g = GridPartitioner(4, 4)
        assert g.tile_range_for_window(Rect(0.1, 0.1, 0.6, 0.3)) == (0, 2, 0, 1)
        # The inlined clamp must agree with tile_ix/tile_iy everywhere:
        # out of the domain, on tile borders and for degenerate windows.
        t = 1.0 / 3
        cases = {
            GridPartitioner(4, 4): [
                Rect(-2.0, -2.0, -1.0, -1.0),  # wholly below the domain
                Rect(1.5, 1.5, 3.0, 3.0),  # wholly above it
                Rect(-0.5, 0.3, 0.2, 1.7),  # straddles two edges
                Rect(0.25, 0.5, 0.75, 0.75),  # exactly on tile borders
                Rect(0.0, 0.0, 1.0, 1.0),  # the domain itself
                Rect(0.5, 0.5, 0.5, 0.5),  # a point on a tile corner
                Rect(0.3, 0.0, 0.3, 1.0),  # a vertical line
                Rect(0.0, 0.6, 1.0, 0.6),  # a horizontal line
            ],
            GridPartitioner(3, 5, domain=Rect(-1.0, 2.0, 0.0, 7.0)): [
                Rect(-1.0 + t, 3.0, -1.0 + 2 * t, 4.0),  # inexact borders
                Rect(-5.0, 1.0, 5.0, 9.0),
                Rect(-0.5, 7.0, -0.5, 7.0),  # point on the top edge
                Rect(0.0, 2.0, 0.0, 2.0),  # domain corners
            ],
        }
        # Point windows on every tile border of an inexact grid and on
        # the borders' float neighbours.
        g = GridPartitioner(7, 3, domain=Rect(0.1, -0.3, 0.8, 0.4))
        borders_x = g.domain.xl + np.arange(g.nx + 1) * g.tile_w
        borders_y = g.domain.yl + np.arange(g.ny + 1) * g.tile_h
        xs = np.concatenate([np.nextafter(borders_x, -1.0), borders_x,
                             np.nextafter(borders_x, 2.0)])
        ys = np.concatenate([np.nextafter(borders_y, -1.0), borders_y,
                             np.nextafter(borders_y, 2.0)])
        cases[g] = [
            Rect(float(x), float(y), float(x), float(y)) for x in xs for y in ys
        ]
        for g, windows in cases.items():
            for w in windows:
                expected = (
                    g.tile_ix(w.xl),
                    g.tile_ix(w.xu),
                    g.tile_iy(w.yl),
                    g.tile_iy(w.yu),
                )
                assert g.tile_range_for_window(w) == expected, repr(w)

    def test_tile_range_single_tile(self):
        g = GridPartitioner(4, 4)
        assert g.tile_range_for_window(Rect(0.3, 0.3, 0.4, 0.4)) == (1, 1, 1, 1)

    def test_tile_range_clamps_outside_window(self):
        g = GridPartitioner(4, 4)
        assert g.tile_range_for_window(Rect(-1, -1, 2, 2)) == (0, 3, 0, 3)

    def test_vectorised_matches_scalar(self):
        g = GridPartitioner(13, 13)
        xs = np.linspace(-0.2, 1.2, 101)
        vec = g.tile_ix_array(xs)
        for x, got in zip(xs, vec):
            assert got == g.tile_ix(float(x))

    def test_custom_domain(self):
        g = GridPartitioner(2, 2, domain=Rect(10, 20, 30, 40))
        assert g.tile_ix(19.9) == 0
        assert g.tile_ix(20.0) == 1
        assert g.tile_rect(1, 1) == Rect(20, 30, 30, 40)


class TestReplication:
    def test_single_tile_object(self):
        data = RectDataset.from_rects([Rect(0.1, 0.1, 0.2, 0.2)])
        rep = replicate(data, GridPartitioner(4, 4))
        assert rep.total == 1
        assert rep.class_codes[0] == CLASS_A

    def test_x_spanning_object(self):
        data = RectDataset.from_rects([Rect(0.1, 0.1, 0.3, 0.2)])
        rep = replicate(data, GridPartitioner(4, 4))
        assert rep.total == 2
        codes = sorted(rep.class_codes.tolist())
        assert codes == [CLASS_A, CLASS_C]

    def test_y_spanning_object(self):
        data = RectDataset.from_rects([Rect(0.1, 0.1, 0.2, 0.3)])
        rep = replicate(data, GridPartitioner(4, 4))
        assert sorted(rep.class_codes.tolist()) == [CLASS_A, CLASS_B]

    def test_quad_spanning_object(self):
        data = RectDataset.from_rects([Rect(0.2, 0.2, 0.3, 0.3)])
        rep = replicate(data, GridPartitioner(4, 4))
        assert rep.total == 4
        assert sorted(rep.class_codes.tolist()) == [CLASS_A, CLASS_B, CLASS_C, CLASS_D]

    def test_exactly_one_class_a_per_object(self):
        data = generate_uniform_rects(500, area=1e-2, seed=8)
        rep = replicate(data, GridPartitioner(8, 8))
        a_objs = rep.obj_ids[rep.class_codes == CLASS_A]
        assert sorted(a_objs.tolist()) == list(range(500))

    def test_replica_covers_all_intersecting_tiles(self):
        data = generate_uniform_rects(100, area=1e-2, seed=9)
        g = GridPartitioner(6, 6)
        rep = replicate(data, g)
        for i in range(len(data)):
            r = data.rect(i)
            tiles = set(rep.tile_ids[rep.obj_ids == i].tolist())
            expected = set()
            for iy in range(g.tile_iy(r.yl), g.tile_iy(r.yu) + 1):
                for ix in range(g.tile_ix(r.xl), g.tile_ix(r.xu) + 1):
                    expected.add(g.tile_id(ix, iy))
            assert tiles == expected

    def test_class_matches_start_tile(self):
        data = generate_uniform_rects(200, area=1e-2, seed=10)
        g = GridPartitioner(5, 5)
        rep = replicate(data, g)
        for k in range(rep.total):
            obj = int(rep.obj_ids[k])
            ix, iy = g.tile_coords(int(rep.tile_ids[k]))
            start_ix = g.tile_ix(float(data.xl[obj]))
            start_iy = g.tile_iy(float(data.yl[obj]))
            expected = 2 * (ix > start_ix) + (iy > start_iy)
            assert rep.class_codes[k] == expected

    def test_empty_dataset(self):
        empty = RectDataset(np.empty(0), np.empty(0), np.empty(0), np.empty(0))
        rep = replicate(empty, GridPartitioner(4, 4))
        assert rep.total == 0

    def test_replication_ratio(self):
        data = RectDataset.from_rects([Rect(0.2, 0.2, 0.3, 0.3)])
        rep = replicate(data, GridPartitioner(4, 4))
        assert rep.replication_ratio(1) == 4.0

    def test_boundary_object_on_tile_edge(self):
        # Object ending exactly on a tile border is also assigned to the
        # next tile (closed-rect intersection semantics).
        data = RectDataset.from_rects([Rect(0.1, 0.1, 0.25, 0.2)])
        rep = replicate(data, GridPartitioner(4, 4))
        assert rep.total == 2


class TestTileTable:
    def test_empty(self):
        t = TileTable()
        assert len(t) == 0
        xl, yl, xu, yu, ids = t.columns()
        assert ids.shape == (0,)

    def test_append_then_columns(self):
        t = TileTable()
        t.append(0.1, 0.2, 0.3, 0.4, 7)
        t.append(0.5, 0.6, 0.7, 0.8, 9)
        xl, yl, xu, yu, ids = t.columns()
        assert ids.tolist() == [7, 9]
        assert xl.tolist() == [0.1, 0.5]

    def test_append_after_compact(self):
        t = TileTable(
            np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([1.0]),
            np.array([0], dtype=np.int64),
        )
        t.append(0.2, 0.2, 0.4, 0.4, 1)
        assert len(t) == 2
        assert t.columns()[4].tolist() == [0, 1]

    def test_nbytes_positive(self):
        t = TileTable()
        t.append(0, 0, 1, 1, 0)
        assert t.nbytes > 0


class TestGroupRows:
    def test_grouping(self):
        keys = np.array([3, 1, 3, 2, 1, 1], dtype=np.int64)
        groups = {k: rows.tolist() for k, rows in group_rows(keys)}
        assert set(groups) == {1, 2, 3}
        assert sorted(groups[1]) == [1, 4, 5]
        assert groups[2] == [3]

    def test_empty(self):
        assert list(group_rows(np.empty(0, dtype=np.int64))) == []
