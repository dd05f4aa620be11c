"""Translate-orbit sampling of the hull, on finite windows.

The hull of a point set (a compact space of closed sets) is never
materialized; everything here works on finite windows, so all hull-level
conclusions drawn from these helpers are finite-window evidence only.
Translate-orbit sampling of the transversal is an exact finite computation.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, CoverageError
from .pointset import BOX_TOL, PointPatch, _check_grid_size, _row_blocks, _sorted_checked, _sum_down, as_box, as_rows, points_in_box


def orbit_sample(patch: PointPatch, translates, k_box) -> list[PointPatch]:
    """Windows ``(-x + patch) ^ k_box`` for each translate ``x``.

    With translates equal to the patch's own points this samples the
    transversal: every returned patch contains the origin.  Each window's
    candidate rows are cut from the sorted patch by a binary search on the
    first coordinate, so the cost follows the samples returned (in d >= 2,
    the first-axis slabs they are cut from), not the patch size.  The
    windows of a block of translates are checked as patches in one batch (one
    sort of their rows keyed by translate, one test of adjacent rows), so a
    window that rounding leaves with two equal points raises the
    ``ValueError`` of ``PointPatch``, for the first such translate.  A
    translate whose window leaves the patch box raises ``CoverageError``
    after the windows of the translates before it are built.
    """
    k_box = as_box(k_box, patch.dim)
    xs = as_rows(translates, patch.dim)
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
        owner = owner[keep]
        pts = _sorted_checked(shifted[keep], owner, k_box)
        ends = np.cumsum(np.bincount(owner, minlength=len(c))).tolist()
        samples += [PointPatch._of_checked(k_box, pts[a:b]) for a, b in zip([0, *ends], ends)]
    if n_ok < len(xs):
        x = xs[n_ok].tolist()
        needed = tuple((lo + v, hi + v) for (lo, hi), v in zip(k_box, x))
        raise CoverageError(f"box too small: translate {x} needs {needed}")
    return samples


def _spans(patch: PointPatch, k_box) -> list:
    """Per axis, the interval of translates ``x`` with ``x + k_box`` inside the patch box, its ends rounded inward."""
    return [(-_sum_down(-plo, klo), _sum_down(phi, -khi)) for (plo, phi), (klo, khi) in zip(patch.box, as_box(k_box, patch.dim))]


def transversal_translates(patch: PointPatch, k_box) -> np.ndarray:
    """The patch's own points usable as orbit translates for the given window."""
    return patch.points[points_in_box(patch.points, _spans(patch, k_box))]


def grid_translates(patch: PointPatch, k_box, step: float, limit: int | None = None) -> np.ndarray:
    """Uniform grid of admissible translates at the given spacing, the first axis slowest.

    Only the first ``limit`` translates are built, if given; a grid past
    ``pointset.GRID_LIMIT`` positions is refused before any is built.
    """
    if not step > 0:
        raise ArgumentError(f"grid step must be positive, got {step}")
    spans = _spans(patch, k_box)
    if any(lo > hi for lo, hi in spans):
        return np.empty((0, patch.dim))
    _check_grid_size([(hi - lo) / step + 1.0 for lo, hi in spans])
    shape = [max(1, int(np.floor((hi - lo) / step)) + 1) for lo, hi in spans]
    total = int(np.prod(shape))
    index = np.unravel_index(np.arange(total if limit is None else min(limit, total)), shape)
    return np.stack([lo + step * i for (lo, _), i in zip(spans, index)], axis=1)
