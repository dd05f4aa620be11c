"""Finite-window Chabauty-Fell machinery.

The hull of a point set (a compact space of closed sets) is never
materialized; everything here works on finite windows, so all hull-level
conclusions drawn from these helpers are finite-window evidence only.
Neighborhood membership, cluster partitions of approximating patches, and
translate-orbit sampling of the transversal are exact finite checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy.spatial is imported inside the functions that query a k-d tree: it costs
# about 0.45 s and 35 MB to import, and the orbit-sampling paths never need it.

from .errors import ClusterError, CoverageError
from .pointset import BOX_TOL, Box, PointPatch, _row_blocks, as_box, box_contains_box, inflate_box, points_in_box


@dataclass(frozen=True)
class CFNeighborhoodSpec:
    """Compact window ``k_box`` and open matching box of half-width ``v_radius``."""

    k_box: Box
    v_radius: float

    def __post_init__(self):
        object.__setattr__(self, "k_box", as_box(self.k_box))
        if self.v_radius <= 0:
            raise ValueError("v_radius must be positive")


@dataclass(frozen=True)
class ClusterPartition:
    """Partition of an approximating patch over anchors of a limit patch.

    ``clusters[j]`` collects the approximating points assigned to
    ``anchors[j]``; clusters are disjoint, their union is the approximating
    patch restricted to the window, and ``1 <= sizes[j] <= ell``.
    """

    anchors: np.ndarray
    clusters: tuple[np.ndarray, ...]
    sizes: tuple[int, ...]
    assign_radius: float


def _require_coverage(patch: PointPatch, needed: Box, what: str):
    if not box_contains_box(patch.box, needed):
        raise CoverageError(f"box too small: {what} needs {needed}")


def cf_within(c: PointPatch, d_patch: PointPatch, spec: CFNeighborhoodSpec) -> bool:
    """Exact check that the two patches match on ``k_box`` up to the open ``v_radius`` box.

    True iff every point of ``d_patch`` in ``k_box`` lies within sup-distance
    strictly below ``v_radius`` of some point of ``c``, and symmetrically.
    """
    needed = inflate_box(spec.k_box, spec.v_radius)
    _require_coverage(c, needed, "first patch")
    _require_coverage(d_patch, needed, "second patch")
    return _one_sided(d_patch, c, spec) and _one_sided(c, d_patch, spec)


def _one_sided(inner: PointPatch, cover: PointPatch, spec: CFNeighborhoodSpec) -> bool:
    if inner.is_empty:
        return True
    sel = inner.points[points_in_box(inner.points, spec.k_box)]
    if len(sel) == 0:
        return True
    if cover.is_empty:
        return False
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(cover.points).query(sel, k=1, p=np.inf)
    return bool((dist < spec.v_radius).all())


def cluster_partition(
    limit: PointPatch,
    approx: PointPatch,
    k_box,
    assign_radius: float,
    ell: int,
) -> ClusterPartition:
    """Assign every approximating point in ``k_box`` to its unique nearby anchor.

    Anchors are the limit-patch points in ``k_box`` and must be pairwise more
    than ``2 * assign_radius`` apart so clusters are unambiguous.  Fails when a
    point has no anchor within ``assign_radius`` ("unassigned point"), when a
    cluster exceeds ``ell`` ("cluster overflow"), or when an anchor receives
    no point at all.
    """
    k_box = as_box(k_box)
    if assign_radius <= 0:
        raise ValueError("assign_radius must be positive")
    _require_coverage(approx, k_box, "approximating patch")
    anchors = limit.points[points_in_box(limit.points, k_box)]
    if len(anchors) == 0:
        raise ClusterError("no anchors inside the window")
    # anchor neighborhoods must sit inside the window, else cluster members
    # near the window face are cut off and the partition cannot be exact
    inner = tuple((lo + assign_radius, hi - assign_radius) for lo, hi in k_box)
    if not bool(points_in_box(anchors, inner).all()):
        raise ClusterError("anchor too close to the window boundary")
    from scipy.spatial import cKDTree

    if len(anchors) > 1:
        dist, _ = cKDTree(anchors).query(anchors, k=2, p=np.inf)
        if dist[:, 1].min() <= 2 * assign_radius:
            raise ClusterError("ambiguous anchors")
    members = approx.points[points_in_box(approx.points, k_box)]
    clusters: list[list[np.ndarray]] = [[] for _ in anchors]
    if len(members):
        dist, idx = cKDTree(anchors).query(members, k=1, p=np.inf)
        if (dist > assign_radius).any():
            raise ClusterError("unassigned point")
        for p, j in zip(members, idx):
            clusters[j].append(p)
    sizes = tuple(len(cl) for cl in clusters)
    if any(s == 0 for s in sizes):
        raise ClusterError("empty cluster: an anchor received no point")
    if any(s > ell for s in sizes):
        raise ClusterError("cluster overflow")
    return ClusterPartition(
        anchors=anchors,
        clusters=tuple(np.array(cl) for cl in clusters),
        sizes=sizes,
        assign_radius=float(assign_radius),
    )


def orbit_sample(patch: PointPatch, translates, k_box) -> list[PointPatch]:
    """Windows ``(-x + patch) ^ k_box`` for each translate ``x``.

    With translates equal to the patch's own points this samples the
    transversal: every returned patch contains the origin.  Each window's
    candidate rows are cut from the sorted patch by a binary search on the
    first coordinate, so the cost follows the samples returned (in d >= 2,
    the first-axis slabs they are cut from), not the patch size.  A
    translate whose window leaves the patch box raises ``CoverageError``
    after the windows of the translates before it are built.
    """
    k_box = as_box(k_box)
    xs = np.asarray(translates, dtype=np.float64).reshape(-1, patch.dim)
    k_lo, k_hi = (np.array(side) for side in zip(*k_box))
    p_lo, p_hi = (np.array(side) for side in zip(*patch.box))
    covered = np.all((p_lo <= k_lo + xs + BOX_TOL) & (k_hi + xs <= p_hi + BOX_TOL), axis=1)
    n_ok = len(xs) if covered.all() else int(np.argmin(covered))
    x0, first = xs[:n_ok, 0], patch.points[:, 0]
    # fl(p - x) rounds by at most 2^-53 of its size, and so does each sum below:
    # a slack of 2^-50 of |x| + |k| keeps every row the predicate accepts inside the cut
    slack = (np.abs(x0) + np.abs(k_box[0]).max()) * 2.0**-50
    start = np.searchsorted(first, k_lo[0] + x0 - slack, side="left")
    counts = np.searchsorted(first, k_hi[0] + x0 + slack, side="right") - start
    samples = []
    for blk in _row_blocks(n_ok, int(counts.max(initial=0)) * patch.dim):
        c = counts[blk]
        owner = np.repeat(np.arange(len(c)), c)  # rows start[i] .. start[i] + c[i] - 1 belong to translate i
        rows = np.arange(c.sum()) + np.repeat(start[blk] - (np.cumsum(c) - c), c)
        shifted = patch.points[rows] - xs[blk][owner]
        keep = points_in_box(shifted, k_box)
        sizes = np.bincount(owner[keep], minlength=len(c))
        for sel in np.split(shifted[keep], np.cumsum(sizes)[:-1]):
            samples.append(PointPatch(dim=patch.dim, box=k_box, points=sel))
    if n_ok < len(xs):
        x = xs[n_ok]
        needed = tuple((lo + v, hi + v) for (lo, hi), v in zip(k_box, x))
        _require_coverage(patch, needed, f"translate {x.tolist()}")
    return samples


def transversal_translates(patch: PointPatch, k_box) -> np.ndarray:
    """The patch's own points usable as orbit translates for the given window."""
    k_box = as_box(k_box)
    lo = np.array([b[0] for b in patch.box]) - np.array([b[0] for b in k_box])
    hi = np.array([b[1] for b in patch.box]) - np.array([b[1] for b in k_box])
    ok = np.all((patch.points >= lo) & (patch.points <= hi), axis=1)
    return patch.points[ok]


def grid_translates(patch: PointPatch, k_box, step: float) -> np.ndarray:
    """Uniform grid of admissible translates at the given spacing."""
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step}")
    k_box = as_box(k_box)
    axes = []
    for (plo, phi), (klo, khi) in zip(patch.box, k_box):
        lo, hi = plo - klo, phi - khi
        if lo > hi:
            return np.empty((0, patch.dim))
        n = max(1, int(np.floor((hi - lo) / step)) + 1)
        axes.append(lo + step * np.arange(n))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
