"""Brute-force answers over the dataset columns, the benchmark's oracle.

Every check here scans plain numpy columns; none calls into ``repro``,
so a defect in the index cannot hide in its own reference answer.
Window and disk predicates are the closed MBR tests the index answers
(``xu >= wxl`` and so on; MBR-to-centre distance ``<= radius``).  kNN
answers are compared by distance, so ties at the k-th distance never
count as errors.
"""

from __future__ import annotations

import numpy as np

#: absolute slack when comparing kNN distances (coordinates are in the
#: unit square, so this is far below any real distance gap).
KNN_ATOL = 1e-12


class Columns:
    """MBR columns of the dataset, row ``i`` holding object id ``i``."""

    def __init__(self, xl, yl, xu, yu):
        self.xl = np.asarray(xl, dtype=np.float64)
        self.yl = np.asarray(yl, dtype=np.float64)
        self.xu = np.asarray(xu, dtype=np.float64)
        self.yu = np.asarray(yu, dtype=np.float64)

    def __len__(self) -> int:
        return self.xl.shape[0]

    def window_mask(self, xl, yl, xu, yu) -> np.ndarray:
        return (
            (self.xu >= xl)
            & (self.xl <= xu)
            & (self.yu >= yl)
            & (self.yl <= yu)
        )

    def dists(self, cx, cy) -> np.ndarray:
        dx = np.maximum(np.maximum(self.xl - cx, 0.0), cx - self.xu)
        dy = np.maximum(np.maximum(self.yl - cy, 0.0), cy - self.yu)
        return np.hypot(dx, dy)

    def disk_mask(self, cx, cy, radius) -> np.ndarray:
        dx = np.maximum(np.maximum(self.xl - cx, 0.0), cx - self.xu)
        dy = np.maximum(np.maximum(self.yl - cy, 0.0), cy - self.yu)
        return dx * dx + dy * dy <= radius * radius

    def answer(self, verb: str, args: dict):
        """The exact answer to one read: sorted ids, or a count."""
        if verb == "count":
            return int(self.window_mask(*_window(args)).sum())
        if verb == "window":
            return np.flatnonzero(self.window_mask(*_window(args)))
        if verb == "disk":
            return np.flatnonzero(
                self.disk_mask(args["cx"], args["cy"], args["radius"])
            )
        raise ValueError(f"no brute-force answer for {verb!r}")


def _window(args: dict):
    return args["xl"], args["yl"], args["xu"], args["yu"]


def same_ids(got, expected: np.ndarray) -> bool:
    """``got`` holds exactly the ids of ``expected``, each once."""
    got = np.asarray(got, dtype=np.int64)
    if got.shape[0] != expected.shape[0]:
        return False
    return bool(np.array_equal(np.sort(got), expected))


def knn_ok(got, cols: Columns, cx: float, cy: float, k: int) -> bool:
    """``got`` is a valid k-nearest answer: ``k`` distinct ids whose
    sorted distances equal the ``k`` smallest."""
    got = np.asarray(got, dtype=np.int64)
    want = min(k, len(cols))
    if got.shape[0] != want or np.unique(got).shape[0] != want:
        return False
    if got.size and (got.min() < 0 or got.max() >= len(cols)):
        return False
    d = cols.dists(cx, cy)
    expected = np.sort(np.partition(d, want - 1)[:want])
    return bool(np.allclose(np.sort(d[got]), expected, rtol=0.0, atol=KNN_ATOL))


def check_read(verb: str, args: dict, result, cols: Columns) -> bool:
    """One read's result (``ids`` list or ``count``) against the oracle."""
    if verb == "knn":
        return knn_ok(result, cols, args["cx"], args["cy"], args["k"])
    expected = cols.answer(verb, args)
    if verb == "count":
        return int(result) == expected
    return same_ids(result, expected)


class Segments:
    """Flat segment columns of linestring geometries, for exact tests."""

    def __init__(self, geometries):
        xs, ys, starts = [], [], [0]
        for g in geometries:
            verts = g.vertices
            xs.append(np.array([v[0] for v in verts]))
            ys.append(np.array([v[1] for v in verts]))
            starts.append(starts[-1] + len(verts))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        starts = np.asarray(starts, dtype=np.int64)
        # segment j joins vertex j and j+1 of one geometry
        last = np.zeros(x.shape[0], dtype=bool)
        last[starts[1:] - 1] = True
        keep = ~last
        self.x0, self.y0 = x[:-1][keep[:-1]], y[:-1][keep[:-1]]
        self.x1, self.y1 = x[1:][keep[:-1]], y[1:][keep[:-1]]
        counts = np.diff(starts) - 1
        self.owner = np.repeat(np.arange(counts.shape[0]), counts)
        self.first = np.concatenate([[0], np.cumsum(counts)])

    def intersecting(self, candidates: np.ndarray, xl, yl, xu, yu) -> np.ndarray:
        """The candidate ids whose polyline meets the closed window."""
        lo, hi = self.first[candidates], self.first[candidates + 1]
        lengths = hi - lo
        seg = np.repeat(lo - np.cumsum(lengths) + lengths, lengths) + np.arange(
            lengths.sum()
        )
        x0, y0 = self.x0[seg], self.y0[seg]
        dx, dy = self.x1[seg] - x0, self.y1[seg] - y0
        # Liang-Barsky clip of each segment against the window.
        t0 = np.zeros(seg.shape[0])
        t1 = np.ones(seg.shape[0])
        ok = np.ones(seg.shape[0], dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for p, q in (
                (-dx, x0 - xl),
                (dx, xu - x0),
                (-dy, y0 - yl),
                (dy, yu - y0),
            ):
                flat = p == 0
                ok &= ~(flat & (q < 0))
                r = q / p
                t0 = np.where(~flat & (p < 0), np.maximum(t0, r), t0)
                t1 = np.where(~flat & (p > 0), np.minimum(t1, r), t1)
        hit = ok & (t0 <= t1)
        return np.unique(self.owner[seg[hit]])


def exact_window_ok(result, cols: Columns, segs: Segments, args) -> bool:
    """An exact (refined) window answer against the polyline oracle."""
    w = _window(args)
    candidates = np.flatnonzero(cols.window_mask(*w))
    return same_ids(result, segs.intersecting(candidates, *w))
