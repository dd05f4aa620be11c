"""Finite patches of point sets in R^d with separation and denseness statistics.

A :class:`PointPatch` is the exact intersection of an (implicitly infinite)
point set with a compact axis-aligned box.  Window statistics computed from a
patch are certified only on the box shrunk by the window size, because the
patch cannot witness points outside its box; every stats object records the
certified sub-box.

Windows are axis-aligned sup-norm boxes throughout: counting windows are
*open* boxes described by their side length ``u_radius``, denseness windows
are *closed* boxes ``[-k, k]^d`` described by their half-width ``k_radius``.
Window counts over a product grid of positions are separable
(``_grid_count_extrema``); ``GRID_LIMIT`` caps a grid before any array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.spatial is imported inside the functions that query a k-d tree: it costs
# about 0.45 s and 35 MB to import, and the 1-d paths never need it.

from .errors import EmptyPatchError, WindowTooLargeError

Box = tuple[tuple[float, float], ...]

BLOCK_ELEMENTS = 1 << 20  # element budget of one block in window counting and kernel assembly
GRID_LIMIT = 100_000_000  # hard cap on window positions in one count grid


def as_box(box) -> Box:
    """Normalize a box given as an iterable of (lo, hi) pairs."""
    out = tuple((float(lo), float(hi)) for lo, hi in box)
    for lo, hi in out:
        if not lo < hi:
            raise ValueError(f"degenerate box interval [{lo}, {hi}]")
    return out


def shrink_box(box: Box, margin: float) -> Box:
    return tuple((lo + margin, hi - margin) for lo, hi in box)


def inflate_box(box: Box, margin: float) -> Box:
    return tuple((lo - margin, hi + margin) for lo, hi in box)


def box_volume(box: Box) -> float:
    vol = 1.0
    for lo, hi in box:
        vol *= hi - lo
    return vol


def box_contains_box(outer: Box, inner: Box, tol: float = 1e-12) -> bool:
    return all(ol <= il + tol and ih <= oh + tol for (ol, oh), (il, ih) in zip(outer, inner))


def box_edge_lengths(box: Box) -> tuple[float, ...]:
    return tuple(hi - lo for lo, hi in box)


def points_in_box(points: np.ndarray, box: Box) -> np.ndarray:
    """Boolean mask of rows lying in the closed box."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return np.all((points >= lo) & (points <= hi), axis=1)


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
        box = as_box(self.box)
        if len(box) != self.dim:
            raise ValueError("box dimension mismatch")
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, self.dim)
        if pts.size:
            order = np.lexsort(pts.T[::-1])
            pts = pts[order]
            if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
                raise ValueError("points must be pairwise distinct")
            if not bool(points_in_box(pts, box).all()):
                raise ValueError("all points must lie inside the patch box")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, dim: int, box, points, merge_eps: float = 0.0) -> "PointPatch":
        """Build a patch, optionally merging points closer than ``merge_eps``.

        ``merge_eps`` (sup-norm) is meant for imported data with rounding
        noise; the default 0 requires exactly distinct coordinates.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, dim)
        if merge_eps > 0 and len(pts) > 1:
            order = np.lexsort(pts.T[::-1])
            pts = pts[order]
            keep = np.ones(len(pts), dtype=bool)
            from scipy.spatial import cKDTree

            pairs = cKDTree(pts).query_pairs(merge_eps, p=np.inf, output_type="ndarray")
            for i, j in pairs[np.lexsort(pairs.T[::-1])]:
                if keep[i] and keep[j]:
                    keep[max(i, j)] = False
            pts = pts[keep]
        return cls(dim=dim, box=as_box(box), points=pts)

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
    ``|patch  ^ (x + U)|`` over window positions, realized by sweeping windows
    anchored at point coordinates.  ``min_gap`` is the smallest pairwise
    sup-norm distance (``inf`` for a single point).  ``max_gap_radius`` is the
    smallest half-width ``r`` making the patch ``[-r, r]^d``-dense inside the
    shrunk box (``inf`` if no feasible radius works).  Counts are certified
    only on ``certified_box``.
    """

    ell: int
    u_radius: float
    min_gap: float
    max_gap_radius: float
    certified_box: Box


def _require_nonempty(patch: PointPatch):
    if patch.is_empty:
        raise EmptyPatchError("empty")


def _require_window_fits(patch: PointPatch, size: float):
    half_edge = min(box_edge_lengths(patch.box)) / 2.0
    if size > half_edge:
        raise WindowTooLargeError("window exceeds patch")


def _max_window_count_1d(x: np.ndarray, width: float) -> int:
    # anchors at each point: window [x_i, x_i + width) realizes every local max
    hi = np.searchsorted(x, x + width, side="left")
    return int((hi - np.arange(len(x))).max())


def _max_window_count_nd(pts: np.ndarray, width: float) -> int:
    # anchor grid = product of per-dimension coordinate values; the minimal
    # corner of an extremal window is a point coordinate in every dimension
    anchors = [np.unique(pts[:, k]) for k in range(pts.shape[1])]
    _check_grid_size([len(a) for a in anchors])
    members = [
        (a[:, None] <= pts[None, :, k]) & (pts[None, :, k] < a[:, None] + width)
        for k, a in enumerate(anchors)
    ]
    return _grid_count_extrema(members)[1]


def _row_blocks(n_rows: int, row_elements: int):
    """Consecutive row slices of at most ``BLOCK_ELEMENTS`` elements each (one row at least)."""
    step = max(1, BLOCK_ELEMENTS // max(1, row_elements))
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def _check_grid_size(sizes) -> None:
    """Refuse a count grid with more than ``GRID_LIMIT`` positions; ``sizes`` are per axis."""
    total = math.prod(sizes)
    if total > GRID_LIMIT:
        raise ValueError(f"count grid of {total:.6g} window positions exceeds the limit")


def _grid_count_extrema(members: list[np.ndarray]) -> tuple[int, int]:
    """Min and max point count over the product grid of per-axis window positions.

    ``members[k][i, p]``: point ``p`` lies in the axis-``k`` slab of position
    ``i``.  Leading axes are flattened and contracted against the last in row
    blocks; float64 counts are integers below 2^53, exact in any sum order.
    """
    *lead, last = members
    last_t = last.T.astype(np.float64)
    shape = [len(m) for m in lead]
    lo, hi = math.inf, -math.inf
    for blk in _row_blocks(math.prod(shape), max(last_t.shape)):
        idx = np.unravel_index(np.arange(blk.start, blk.stop), shape)
        joint = np.logical_and.reduce([m[i] for m, i in zip(lead, idx)])
        counts = joint.astype(np.float64) @ last_t
        lo, hi = min(lo, counts.min()), max(hi, counts.max())
    return int(lo), int(hi)


def _pairwise_min_gap(pts: np.ndarray) -> float:
    if len(pts) < 2:
        return math.inf
    if pts.shape[1] == 1:
        x = pts[:, 0]
        return float(np.diff(x).min())
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(pts).query(pts, k=2, p=np.inf)
    return float(dist[:, 1].min())


def _dense_1d(x: np.ndarray, box: Box, k: float) -> bool:
    lo, hi = box[0]
    a, b = lo + k, hi - k
    if a > b:
        return True  # empty certified region: vacuously dense
    cands = [a, b]
    if len(x) > 1:
        mids = (x[1:] + x[:-1]) / 2.0
        cands.extend(np.clip(mids, a, b))
    cands = np.asarray(cands)
    idx = np.searchsorted(x, cands)
    dist = np.full(len(cands), np.inf)
    left_ok = idx > 0
    dist[left_ok] = cands[left_ok] - x[idx[left_ok] - 1]
    right_ok = idx < len(x)
    dist[right_ok] = np.minimum(dist[right_ok], x[idx[right_ok]] - cands[right_ok])
    return bool((dist <= k).all())


def _dense_nd(pts: np.ndarray, box: Box, k: float, grid_div: int = 8) -> bool:
    axes = []
    step = k / grid_div
    for lo, hi in box:
        a, b = lo + k, hi - k
        if a > b:
            return True
        n = max(2, int(math.ceil((b - a) / step)) + 1)
        axes.append(np.linspace(a, b, n))
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(pts).query(centers, k=1, p=np.inf)
    return bool((dist <= k).all())


def is_relatively_dense(patch: PointPatch, k_radius: float) -> bool:
    """True iff every window ``x + [-k, k]^d`` with ``x`` in the shrunk box holds a point.

    Exact in d = 1 via gap analysis; for d >= 2 the empty-window search runs
    on a candidate grid at resolution ``k_radius / 8`` and is approximate.
    """
    _require_nonempty(patch)
    if k_radius <= 0:
        raise ValueError("k_radius must be positive")
    _require_window_fits(patch, float(k_radius))
    return _dense_check(patch, float(k_radius))


def _dense_check(patch: PointPatch, k: float) -> bool:
    if patch.dim == 1:
        return _dense_1d(patch.points[:, 0], patch.box, k)
    return _dense_nd(patch.points, patch.box, k)


def _max_gap_radius(patch: PointPatch) -> float:
    r_hi = min(box_edge_lengths(patch.box)) / 2.0
    if not _dense_check(patch, r_hi):
        return math.inf
    lo, hi = 0.0, r_hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if mid <= 0:
            break
        if _dense_check(patch, mid):
            hi = mid
        else:
            lo = mid
    return hi


def rel_separation(patch: PointPatch, u_radius: float) -> SeparationStats:
    """Exact maximum window count and gap statistics for the open window of side ``u_radius``."""
    _require_nonempty(patch)
    if u_radius <= 0:
        raise ValueError("u_radius must be positive")
    w = float(u_radius)
    _require_window_fits(patch, w)
    if patch.dim == 1:
        ell = _max_window_count_1d(patch.points[:, 0], w)
    else:
        ell = _max_window_count_nd(patch.points, w)
    return SeparationStats(
        ell=ell,
        u_radius=w,
        min_gap=_pairwise_min_gap(patch.points),
        max_gap_radius=_max_gap_radius(patch),
        certified_box=shrink_box(patch.box, w),
    )


def window_count_bound(ell: int, u_radius: float, k_box: Box) -> float:
    """Counting bound ``ell * vol(K + U) / vol(U)`` for sub-boxes of the certified region.

    ``K + U`` is the Minkowski sum, i.e. ``k_box`` inflated by ``u_radius/2``
    per side; ``U`` is the open box of side ``u_radius``.
    """
    dim = len(k_box)
    num = box_volume(inflate_box(k_box, u_radius / 2.0))
    return ell * num / (u_radius**dim)


def translate(patch: PointPatch, shift) -> PointPatch:
    """Shift every point and the box by ``shift``; canonical order is restored."""
    vec = np.asarray(shift, dtype=np.float64).reshape(patch.dim)
    new_box = tuple((lo + v, hi + v) for (lo, hi), v in zip(patch.box, vec))
    return PointPatch(dim=patch.dim, box=new_box, points=patch.points + vec)


def restrict(patch: PointPatch, box) -> PointPatch:
    """Intersect a patch with a closed sub-box (the result's box is the intersection)."""
    sub = as_box(box)
    new_box = tuple(
        (max(lo, slo), min(hi, shi)) for (lo, hi), (slo, shi) in zip(patch.box, sub)
    )
    for lo, hi in new_box:
        if not lo < hi:
            raise ValueError("restriction box does not overlap the patch box")
    if patch.is_empty:
        return PointPatch(dim=patch.dim, box=new_box, points=patch.points)
    mask = points_in_box(patch.points, new_box)
    return PointPatch(dim=patch.dim, box=new_box, points=patch.points[mask])
