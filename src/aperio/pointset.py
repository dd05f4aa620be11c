"""Finite patches of point sets in R^d with separation and denseness statistics.

A :class:`PointPatch` is the exact intersection of an (implicitly infinite)
point set with a compact axis-aligned box.  Window statistics computed from a
patch are certified only on the box shrunk by the window size, because the
patch cannot witness points outside its box; every stats object records the
certified sub-box.

Windows are axis-aligned sup-norm boxes throughout: counting windows are
*open* boxes described by their side length ``u_radius``, denseness windows
are *closed* boxes ``[-k, k]^d`` described by their half-width ``k_radius``.
One slab counter, ``_window_extremum``, gives every window statistic exactly
in every dimension: the patch is cut into slabs along its first axis
(``searchsorted`` on the sorted coordinate), each slab is solved on the
remaining axes, and a 1-d sweep finishes the recursion.  It gives ``ell``
(windows anywhere, with an open lower face), denseness and the covering
radius, and ``density`` its exact extrema, in every dimension.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CoverageError, DimensionMismatchError, EmptyPatchError, WindowTooLargeError

Box = tuple[tuple[float, float], ...]

BLOCK_ELEMENTS = 1 << 20  # element budget of one block in window counting and kernel assembly
BOX_TOL = 1e-12  # slack of box containment, for boxes built from rounded sums
GRID_LIMIT = 100_000_000  # hard cap on positions in one evaluation grid (wiener_amalgam_norm: on one axis)
# the faces _window_extremum takes for the region (-inf, inf) on one axis, written out since inf - inf is nan
UNBOUNDED_FACES = (-math.inf, -math.inf, -math.inf, math.inf, math.inf)


def as_box(box, dim: int | None = None) -> Box:
    """Normalize a box given as an iterable of (lo, hi) pairs, one per axis of ``dim`` if given.

    With :func:`as_rows`, the one check of an input's dimension.
    """
    out = tuple((float(lo), float(hi)) for lo, hi in box)
    if dim is not None and len(out) != dim:
        raise DimensionMismatchError(f"box has {len(out)} interval(s), expected {dim}")
    for lo, hi in out:
        if not lo < hi:
            raise ValueError(f"degenerate box interval [{lo}, {hi}]")
    return out


def as_rows(x, dim: int) -> np.ndarray:
    """``x`` as a float ``(n, dim)`` array, not copied if it is one: a 2-d ``x`` must have ``dim``
    columns, a flat one is cut into rows of ``dim``, and more axes are refused."""
    rows = np.asarray(x, dtype=np.float64)
    if dim < 1 or rows.ndim > 2 or rows.shape[1:] not in ((), (dim,)) or rows.size % dim:
        raise DimensionMismatchError(f"values of shape {rows.shape} do not form rows of {dim} coordinates")
    return rows.reshape(-1, dim)


def shrink_box(box: Box, margin: float) -> Box:
    return tuple((lo + margin, hi - margin) for lo, hi in box)


def box_volume(box: Box) -> float:
    vol = 1.0
    for lo, hi in box:
        vol *= hi - lo
    return vol


def points_in_box(points: np.ndarray, box: Box) -> np.ndarray:
    """Boolean mask of rows lying in the closed box."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return np.all((points >= lo) & (points <= hi), axis=1)


def _sorted_checked(pts: np.ndarray, owner: np.ndarray, box: Box) -> np.ndarray:
    """``pts`` sorted by ``owner``, then lexicographically: a read-only copy.

    The invariant check of :class:`PointPatch` for the patches whose rows are
    tagged by ``owner``, all in one box: each patch's rows are pairwise
    distinct and inside ``box``.  The first failing owner raises the
    ``ValueError`` its patch alone would raise.
    """
    order = np.lexsort((*pts.T[::-1], owner))
    pts, owner = pts.take(order, axis=0), owner[order]
    none = np.iinfo(owner.dtype).max  # past every owner
    repeated = owner[1:][(owner[1:] == owner[:-1]) & (pts[1:] == pts[:-1]).all(axis=1)].min(initial=none)
    outside = owner[~points_in_box(pts, box)].min(initial=none)
    if repeated < none and repeated <= outside:
        raise ValueError("points must be pairwise distinct")
    if outside < none:
        raise ValueError("all points must lie inside the patch box")
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True, eq=False)
class PointPatch:
    """Finite point list known to be the full intersection of a set with ``box``.

    Points are stored as a read-only ``(n, dim)`` float array, sorted
    lexicographically (first coordinate major) and pairwise distinct under
    exact coordinate comparison.  Instances are immutable values.
    """

    dim: int
    box: Box
    points: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        box = as_box(self.box, self.dim)
        pts = as_rows(self.points, self.dim)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "points", _sorted_checked(pts, np.zeros(len(pts), dtype=np.intp), box))

    @classmethod
    def _of_checked(cls, box: Box, points: np.ndarray) -> "PointPatch":
        """A patch of rows that :func:`_sorted_checked` returned for ``box``, not checked again."""
        patch = object.__new__(cls)
        object.__setattr__(patch, "dim", len(box))
        object.__setattr__(patch, "box", box)
        object.__setattr__(patch, "points", points)
        return patch

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def is_empty(self) -> bool:
        return len(self.points) == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointPatch):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.box == other.box
            and np.array_equal(self.points, other.points)
        )

    def __repr__(self) -> str:
        return f"PointPatch(dim={self.dim}, n={self.n_points}, box={self.box})"


@dataclass(frozen=True)
class SeparationStats:
    """Window-count statistics of a patch.

    ``u_radius`` is the side length of the open counting window
    ``U = (-u/2, u/2)^d``; ``ell`` is the exact maximum of
    ``|patch  ^ (x + U)|`` over window positions, from the slab counter with
    windows ``u - w < x <= u`` per axis whose upper faces lie on point
    coordinates.  ``min_gap`` is the smallest pairwise
    sup-norm distance (``inf`` for a single point).  ``max_gap_radius`` is the
    smallest double ``r`` for which :func:`is_relatively_dense` holds, i.e.
    the patch is ``[-r, r]^d``-dense inside the box shrunk by ``r`` (``inf``
    if no feasible radius works).  Counts are certified only on
    ``certified_box``.
    """

    ell: int
    u_radius: float
    min_gap: float
    max_gap_radius: float
    certified_box: Box


def _require_nonempty(patch: PointPatch):
    if patch.is_empty:
        raise EmptyPatchError(f"empty patch: no points in box {list(patch.box)}")


def _max_window_size(patch: PointPatch) -> float:
    """Half the shortest edge of the patch box: the largest window size the patch can certify."""
    return min(hi - lo for lo, hi in patch.box) / 2.0


def _require_window_fits(patch: PointPatch, size: float):
    feasible = _max_window_size(patch)
    if size > feasible:
        raise WindowTooLargeError(f"window exceeds patch at size {size}; max feasible n is {feasible}")


def _row_blocks(n_rows: int, row_elements: int):
    """Consecutive row slices of at most ``BLOCK_ELEMENTS`` elements each (one row at least)."""
    step = max(1, BLOCK_ELEMENTS // max(1, row_elements))
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def _pairwise_min_gap(pts: np.ndarray) -> float:
    """Smallest sup-norm distance between two rows of ``pts``, which is sorted by its first coordinate.

    A sort-and-sweep closest pair (Hinrichs, Nievergelt & Schorn 1988): the
    pairs ``(i, i + k)`` for k = 1, 2, ...  The first-axis gaps at shift k
    only grow with k, so once the smallest of them reaches the best distance
    no later pair can be closer.
    """
    best = math.inf
    for k in range(1, len(pts)):
        if (pts[k:, 0] - pts[:-k, 0]).min() >= best:
            break
        best = min(best, float(np.abs(pts[k:] - pts[:-k]).max(axis=1).min()))
    return best


def _check_grid_size(sizes) -> None:
    """Refuse a grid with more than ``GRID_LIMIT`` positions; ``sizes`` are per axis."""
    total = math.prod(sizes)
    if not total <= GRID_LIMIT:
        shown = math.inf if total > sys.float_info.max else float(total)  # an int past every double
        raise ArgumentError(f"grid of {shown:.6g} positions exceeds the limit")


def _sum_down(v, t):
    """The largest double at or below the exact sum ``v + t``; ``-_sum_down(-v, -t)`` is the smallest at or above.

    Knuth's TwoSum gives the rounding error of ``s = v + t`` exactly, so a
    coordinate compares with either bound as it would with the exact sum.
    """
    s = v + t
    r = s - v
    err = (v - (s - r)) + (t - r)
    return np.nextafter(s, np.where(err < 0, -np.inf, s))


def _closed_window_extremum(pts: np.ndarray, region: Box, n: float, largest: bool) -> int:
    """Max (``largest``) or min over centres ``c`` in ``region`` of ``|{p : |p - c| <= n}|``, sup-norm.

    ``pts`` is sorted by its first coordinate.  Along that axis the slab
    ``|x - c| <= n`` is largest where the upper face meets a point
    (``c = x_j - n``) and smallest on the open cell just after a point
    leaves (``c`` just past ``x_i + n``); the closed window at the region
    start is a candidate of both.  Each distinct ``x`` gives one slab.  A
    slab is solved on the remaining axes: largest first for the max, stopping
    once no slab can beat the best, and smallest first for the min, stopping
    at 0.  Slab bounds are exact: a face is a point itself or an exact sum
    rounded inward by ``_sum_down``.
    """
    a, b = np.array(region, dtype=np.float64).T
    # per axis: ceil(a - n), floor(a + n), ceil(a + n), floor(b + n), ceil(b - n) of the exact sums
    faces = np.stack([-_sum_down(-a, n), _sum_down(a, n), -_sum_down(-a, -n), _sum_down(b, n), -_sum_down(-b, n)], 1)
    return _window_extremum(pts, faces.tolist(), 2.0 * n, largest)


def _window_extremum(pts: np.ndarray, faces: list, width: float, largest: bool, open_lower: bool = False) -> int:
    # open_lower: the windows anchored at an upper face u hold u - width < x <= u, not u - width <= x <= u
    x = pts[:, 0]
    if len(x) == 0:
        return 0
    ends = np.append(np.flatnonzero(x[1:] != x[:-1]) + 1, len(x))  # one past each run of equal x
    u = x[ends - 1]
    start_lo, start_hi, upper_lo, upper_hi, leave_hi = faces[0]  # the window at a comes first
    if largest:  # upper face on u_j, for a <= u_j - n <= b
        j = slice(u.searchsorted(upper_lo, "left"), u.searchsorted(upper_hi, "right"))
        if open_lower:  # first x > u_j - width
            below = x.searchsorted(_sum_down(u[j], -width), "right")
        else:  # first x >= u_j - width
            below = x.searchsorted(-_sum_down(-u[j], width), "left")
        lo = np.append(x.searchsorted(start_lo, "left"), below)
        hi = np.append(x.searchsorted(start_hi, "right"), ends[j])
    else:  # u_i has just left, for a <= u_i + n < b
        j = slice(u.searchsorted(start_lo, "left"), u.searchsorted(leave_hi, "left"))
        lo = np.append(x.searchsorted(start_lo, "left"), ends[j])
        hi = x.searchsorted(np.append(start_hi, _sum_down(u[j], width)), "right")
    sizes = hi - lo
    if pts.shape[1] == 1:
        return int(sizes.max() if largest else sizes.min())
    best = 0 if largest else len(x)
    for i in np.argsort(-sizes if largest else sizes):
        if (sizes[i] <= best) if largest else (best == 0):
            break
        slab = pts[lo[i] : hi[i], 1:]
        count = _window_extremum(slab[np.argsort(slab[:, 0])], faces[1:], width, largest, open_lower)
        best = max(best, count) if largest else min(best, count)
    return best


def _dense(patch: PointPatch, k: float) -> bool:
    """Every closed window ``x + [-k, k]^d`` with ``x`` in the box shrunk by ``k`` holds a point."""
    return _closed_window_extremum(patch.points, shrink_box(patch.box, k), k, largest=False) >= 1


def is_relatively_dense(patch: PointPatch, k_radius: float) -> bool:
    """True iff every window ``x + [-k, k]^d`` with ``x`` in the shrunk box holds a point.

    Exact in every dimension: the least count of such a window is at least 1.
    """
    _require_nonempty(patch)
    if not k_radius > 0:
        raise ArgumentError("k_radius must be positive")
    k = float(k_radius)
    _require_window_fits(patch, k)
    return _dense(patch, k)


def _max_gap_radius(patch: PointPatch) -> float:
    # bisect until the midpoint rounds to an end: hi is the smallest passing double
    lo, hi = 0.0, _max_window_size(patch)
    if not _dense(patch, hi):
        return math.inf
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if _dense(patch, mid):
            hi = mid
        else:
            lo = mid
    return hi


def rel_separation(patch: PointPatch, u_radius: float) -> SeparationStats:
    """Exact maximum window count and gap statistics for the open window of side ``u_radius``."""
    _require_nonempty(patch)
    if not u_radius > 0:
        raise ArgumentError("u_radius must be positive")
    w = float(u_radius)
    _require_window_fits(patch, w)
    return SeparationStats(
        ell=_window_extremum(patch.points, [UNBOUNDED_FACES] * patch.dim, w, largest=True, open_lower=True),
        u_radius=w,
        min_gap=_pairwise_min_gap(patch.points),
        max_gap_radius=_max_gap_radius(patch),
        certified_box=shrink_box(patch.box, w),
    )


def translate(patch: PointPatch, shift) -> PointPatch:
    """Shift every point and the box by ``shift``, one row of ``patch.dim`` coordinates; canonical order is restored."""
    rows = as_rows(shift, patch.dim)
    if len(rows) != 1:
        raise DimensionMismatchError(f"shift of shape {np.shape(shift)} is not one row of {patch.dim} coordinates")
    vec = rows[0]
    new_box = tuple((lo + v, hi + v) for (lo, hi), v in zip(patch.box, vec))
    return PointPatch(dim=patch.dim, box=new_box, points=patch.points + vec)


def restrict(patch: PointPatch, box) -> PointPatch:
    """Intersect a patch with a closed sub-box (the result's box is the intersection)."""
    sub = as_box(box, patch.dim)
    new_box = tuple(
        (max(lo, slo), min(hi, shi)) for (lo, hi), (slo, shi) in zip(patch.box, sub)
    )
    for lo, hi in new_box:
        if not lo < hi:
            raise CoverageError("restriction box does not overlap the patch box")
    mask = points_in_box(patch.points, new_box)
    return PointPatch(dim=patch.dim, box=new_box, points=patch.points[mask])
