"""Query-workload generation (Section VII, "Queries").

The paper generates window and disk queries that (i) apply on non-empty
areas of the map, i.e. always return results, and (ii) follow the spatial
distribution of the data.  Both properties are obtained here by centring
each query on the centre of a randomly drawn data object.  Query size is
controlled by the *relative area*: the query area as a percentage of the
entire (unit-square) data space, swept over {0.01, 0.05, 0.1, 0.5, 1}%
with a default of 0.1%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.datasets.dataset import RectDataset
from repro.errors import InvalidQueryError
from repro.geometry.mbr import Rect

__all__ = [
    "DiskQuery",
    "RELATIVE_AREAS_PERCENT",
    "DEFAULT_RELATIVE_AREA_PERCENT",
    "generate_window_queries",
    "generate_disk_queries",
]

#: query relative areas (percent of the map) swept in Figs. 8-10.
RELATIVE_AREAS_PERCENT = (0.01, 0.05, 0.1, 0.5, 1.0)

#: default query relative area (percent of the map).
DEFAULT_RELATIVE_AREA_PERCENT = 0.1


@dataclass(frozen=True, slots=True)
class DiskQuery:
    """A disk (distance) range query: centre point and radius."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.cx)
            and math.isfinite(self.cy)
            and math.isfinite(self.radius)
        ):
            raise InvalidQueryError(f"non-finite disk query: {self}")
        if self.radius < 0:
            raise InvalidQueryError(f"negative disk radius: {self.radius}")

    #: a verified rectangle costs one distance term per axis.
    comparisons_per_rect = 2

    def mbr(self) -> Rect:
        return Rect(
            self.cx - self.radius,
            self.cy - self.radius,
            self.cx + self.radius,
            self.cy + self.radius,
        )

    # -- the convex-range interface of the §IV-E engine -------------------

    bounding_box = mbr

    def classify(
        self, xl: np.ndarray, yl: np.ndarray, xu: np.ndarray, yu: np.ndarray
    ) -> np.ndarray:
        """-1 / 0 / 1 per rectangle: disjoint, partial, covered.

        Per axis, with ``a = lo - c`` and ``b = c - hi``, the nearest
        offset is ``max(a, b, 0)`` (as in :meth:`intersects_rects`) and
        the farthest ``|min(a, b)|``, so column and row vectors broadcast
        into a tile matrix at one pass per axis.
        """
        a, b = xl - self.cx, self.cx - xu
        c, d = yl - self.cy, self.cy - yu
        near = (
            np.maximum(np.maximum(a, b), 0.0) ** 2
            + np.maximum(np.maximum(c, d), 0.0) ** 2
        )
        far = np.minimum(a, b) ** 2 + np.minimum(c, d) ** 2
        r2 = self.radius * self.radius
        return np.add(near <= r2, far <= r2, dtype=np.int8) - 1

    def intersects_rects(
        self, xl: np.ndarray, yl: np.ndarray, xu: np.ndarray, yu: np.ndarray
    ) -> np.ndarray:
        """Which MBRs lie within ``radius`` of the centre (closed test)."""
        cx, cy = self.cx, self.cy
        dx = np.maximum(np.maximum(xl - cx, 0.0), cx - xu)
        dy = np.maximum(np.maximum(yl - cy, 0.0), cy - yu)
        return dx * dx + dy * dy <= self.radius * self.radius

    @property
    def relative_area(self) -> float:
        """Disk area as a fraction of the unit map."""
        return math.pi * self.radius * self.radius


def _query_centres(
    data: RectDataset, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Query centres drawn from the data distribution (object centres)."""
    if len(data) == 0:
        raise InvalidQueryError("cannot generate queries over an empty dataset")
    picks = rng.integers(0, len(data), size=n)
    cx = (data.xl[picks] + data.xu[picks]) / 2.0
    cy = (data.yl[picks] + data.yu[picks]) / 2.0
    return cx, cy


def generate_window_queries(
    data: RectDataset,
    n: int,
    relative_area_percent: float = DEFAULT_RELATIVE_AREA_PERCENT,
    seed: "int | None" = None,
) -> list[Rect]:
    """``n`` square window queries of the given relative area.

    Each window is centred on the centre of a random data object, so every
    query hits a non-empty region, and the query workload inherits the data
    distribution — both Section VII requirements.  Windows are clamped into
    the unit square without shrinking.
    """
    if n < 0:
        raise InvalidQueryError(f"query count must be >= 0, got {n}")
    if relative_area_percent <= 0 or relative_area_percent > 100:
        raise InvalidQueryError(
            f"relative area must be in (0, 100] percent, got {relative_area_percent}"
        )
    rng = np.random.default_rng(seed)
    side = math.sqrt(relative_area_percent / 100.0)
    half = side / 2.0
    cx, cy = _query_centres(data, n, rng)
    cx = np.clip(cx, half, 1.0 - half)
    cy = np.clip(cy, half, 1.0 - half)
    return [
        Rect(float(x - half), float(y - half), float(x + half), float(y + half))
        for x, y in zip(cx, cy)
    ]


def generate_disk_queries(
    data: RectDataset,
    n: int,
    relative_area_percent: float = DEFAULT_RELATIVE_AREA_PERCENT,
    seed: "int | None" = None,
) -> list[DiskQuery]:
    """``n`` disk queries whose disk area is the given fraction of the map.

    The radius solves ``pi * r**2 = relative_area``; centres follow the
    data distribution like window queries.
    """
    if n < 0:
        raise InvalidQueryError(f"query count must be >= 0, got {n}")
    if relative_area_percent <= 0 or relative_area_percent > 100:
        raise InvalidQueryError(
            f"relative area must be in (0, 100] percent, got {relative_area_percent}"
        )
    rng = np.random.default_rng(seed)
    radius = math.sqrt(relative_area_percent / 100.0 / math.pi)
    cx, cy = _query_centres(data, n, rng)
    cx = np.clip(cx, radius, 1.0 - radius)
    cy = np.clip(cy, radius, 1.0 - radius)
    return [DiskQuery(float(x), float(y), radius) for x, y in zip(cx, cy)]
