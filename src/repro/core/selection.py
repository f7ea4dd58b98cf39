"""Class selection and comparison minimisation (Sections IV-A and IV-B).

Given a window query ``W`` and a tile ``T`` at grid position ``(ix, iy)``
inside the query's tile range ``[ix0, ix1] x [iy0, iy1]``, this module
answers two questions *per secondary partition* (class A/B/C/D):

1. **Should the class be scanned at all?**  Lemma 1: if ``W`` starts
   before ``T`` in x (``ix > ix0``), classes C and D can only produce
   duplicates and are skipped.  Lemma 2 is the y-symmetric statement for
   classes B and D.  Consequently class A is always scanned, B only in the
   query's first tile row, C only in its first tile column and D only in
   the single tile containing the query's start corner.

2. **Which comparisons does a scanned rectangle need?**  A tile strictly
   between the query's first and last tile in a dimension is covered by
   ``W`` there — no comparison (Section IV-B).  In the first tile of a
   dimension, ``r.du >= W.dl`` is required (Lemma 4); in the last tile,
   ``r.dl <= W.du`` is required (Lemma 3) *but only for classes that start
   inside the tile in that dimension* — a class-C/D rectangle satisfies
   ``r.xl < T.xl <= W.xl <= W.xu`` automatically, which is an extra saving
   the secondary partitioning unlocks on top of Section IV-B.

Corollary 1 falls out: when the query spans more than one tile per
dimension, every scanned rectangle needs at most one comparison per
dimension, i.e. at most two comparisons in total.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grid.base import CLASS_A, CLASS_B, CLASS_C, CLASS_D, axis_segments

__all__ = ["ClassPlan", "TilePlan", "plan_tile", "window_regions"]

#: classes whose rectangles start inside their tile in x (relevant to Lemma 3).
_STARTS_INSIDE_X = (CLASS_A, CLASS_B)
#: classes whose rectangles start inside their tile in y.
_STARTS_INSIDE_Y = (CLASS_A, CLASS_C)


@dataclass(frozen=True, slots=True)
class ClassPlan:
    """The comparisons one scanned class needs in one tile.

    Each flag names a comparison against the query window ``W``:
    ``xu_ge`` means ``r.xu >= W.xl`` must be verified, etc.  Flags that are
    False are *guaranteed satisfied* for every rectangle of the class in
    the tile — no comparison is executed.
    """

    code: int
    xu_ge: bool  # r.xu >= W.xl   (Lemma 4, first tile column)
    xl_le: bool  # r.xl <= W.xu   (Lemma 3, last tile column)
    yu_ge: bool  # r.yu >= W.yl   (Lemma 4, first tile row)
    yl_le: bool  # r.yl <= W.yu   (Lemma 3, last tile row)

    @property
    def n_comparisons(self) -> int:
        return int(self.xu_ge) + int(self.xl_le) + int(self.yu_ge) + int(self.yl_le)


@dataclass(frozen=True, slots=True)
class TilePlan:
    """Scanned classes (with their comparison plans) for one tile.

    Plans depend only on the four boundary flags, so all sixteen possible
    plans are precomputed at import time and :func:`plan_tile` is a table
    lookup — tile planning costs nothing on the query hot path.
    """

    at_x0: bool  # query starts in this tile column
    at_x1: bool  # query ends in this tile column
    at_y0: bool
    at_y1: bool
    classes: tuple[ClassPlan, ...]


def _build_plan(at_x0: bool, at_x1: bool, at_y0: bool, at_y1: bool) -> TilePlan:
    codes = [CLASS_A]
    if at_y0:
        codes.append(CLASS_B)  # Lemma 2 lets B survive only in the first row
    if at_x0:
        codes.append(CLASS_C)  # Lemma 1 lets C survive only in the first column
    if at_x0 and at_y0:
        codes.append(CLASS_D)  # D survives only in the query's start tile

    plans = tuple(
        ClassPlan(
            code=code,
            xu_ge=at_x0,
            xl_le=at_x1 and code in _STARTS_INSIDE_X,
            yu_ge=at_y0,
            yl_le=at_y1 and code in _STARTS_INSIDE_Y,
        )
        for code in sorted(codes)
    )
    return TilePlan(at_x0, at_x1, at_y0, at_y1, plans)


_PLANS: tuple[TilePlan, ...] = tuple(
    _build_plan(bool(key & 8), bool(key & 4), bool(key & 2), bool(key & 1))
    for key in range(16)
)


def plan_tile(ix: int, iy: int, ix0: int, ix1: int, iy0: int, iy1: int) -> TilePlan:
    """Evaluation plan for tile ``(ix, iy)`` of a window query.

    ``[ix0, ix1] x [iy0, iy1]`` is the query's tile range; the tile must
    lie inside it.  O(1): a lookup into the sixteen precomputed plans.
    """
    key = (
        (8 if ix == ix0 else 0)
        | (4 if ix == ix1 else 0)
        | (2 if iy == iy0 else 0)
        | (1 if iy == iy1 else 0)
    )
    return _PLANS[key]


def window_regions(
    ix0: int, ix1: int, iy0: int, iy1: int
) -> list[tuple[int, int, int, int, TilePlan]]:
    """Decompose a query's tile range into plan-uniform rectangles.

    Every tile of a region ``(ax, bx, ay, by)`` (inclusive bounds) shares
    the same :class:`TilePlan`, so a fused kernel can evaluate the whole
    region with one comparison pass instead of planning tile by tile.  At
    most 9 regions exist (3 x-segments × 3 y-segments: first column /
    interior / last column crossed with the row equivalents), fewer when
    the range is thin.
    """
    out = []
    for ay, by, at_y0, at_y1 in axis_segments(iy0, iy1):
        for ax, bx, at_x0, at_x1 in axis_segments(ix0, ix1):
            key = (
                (8 if at_x0 else 0)
                | (4 if at_x1 else 0)
                | (2 if at_y0 else 0)
                | (1 if at_y1 else 0)
            )
            out.append((ax, bx, ay, by, _PLANS[key]))
    return out


def plan_for_region(
    window_xl: float,
    window_yl: float,
    window_xu: float,
    window_yu: float,
    region_xl: float,
    region_yl: float,
    region_xu: float,
    region_yu: float,
) -> TilePlan:
    """Evaluation plan for an arbitrary half-open SOP partition.

    The secondary partitioning applies to *any* space-oriented partition,
    not just grid tiles (footnote 1 / Table V: the quad-tree benefits
    too).  For a partition with the given bounds that is known to
    intersect the window, the grid flags generalise to:

    * ``at_x0`` — the window starts at/inside the partition in x
      (``W.xl >= region.xl``); otherwise Lemma 1 skips classes C/D.
    * ``at_x1`` — the window ends inside the partition in x
      (``W.xu < region.xu``); otherwise the partition is covered to the
      right and ``r.xl <= W.xu`` is automatic.

    and symmetrically for y.
    """
    key = (
        (8 if window_xl >= region_xl else 0)
        | (4 if window_xu < region_xu else 0)
        | (2 if window_yl >= region_yl else 0)
        | (1 if window_yu < region_yu else 0)
    )
    return _PLANS[key]
