"""Beurling and hull Beurling densities along Folner boxes, covolume estimators.

Folner windows are centered boxes ``[-n, n]^d``.  The inf/sup over window
positions is exact in d <= 2 for the points as stored, from one counter,
``pointset._closed_window_extremum``: it cuts the patch into slabs where a
window face meets a point, with exact slab bounds, and solves each slab on
the next axis.  In d >= 3 a translate grid is used and the
estimates are grid-certified only.  Grid counts are separable: per axis, a
0/1 matrix records which points lie within ``n`` of each grid coordinate,
and the product of these matrices counts every grid window at once
(``_grid_count_extrema``).  A grid with more than ``pointset.GRID_LIMIT``
centres is refused before any array is built.
Extrapolation to the density limit is last-value-with-spread; no rate model
is fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutproject import CutProjectScheme, _lattice_points
from .errors import CoverageError, PatchSizeError
from .pointset import (
    BOX_TOL,
    Box,
    PointPatch,
    as_box,
    box_volume,
    shrink_box,
    _check_grid_size,
    _closed_window_extremum,
    _max_window_size,
    _pairwise_min_gap,
    _row_blocks,
    _sum_down,
)

DEFAULT_GRID_STEP = 0.1


@dataclass(frozen=True)
class FolnerSpec:
    """Increasing centered-box sizes and the translate grid step (d >= 3)."""

    sizes: tuple[float, ...]
    translate_grid_step: float | None = None

    def __post_init__(self):
        sizes = tuple(float(n) for n in self.sizes)
        if not sizes:
            raise ValueError("need at least one Folner size")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("Folner sizes must be strictly increasing")
        if not all(math.isfinite(n) for n in sizes):
            raise ValueError("Folner sizes must be finite")
        if any(n <= 0 for n in sizes):
            raise ValueError("Folner sizes must be positive")
        step = self.translate_grid_step
        if step is not None and not (math.isfinite(step) and step > 0):
            raise ValueError("translate_grid_step must be positive and finite")
        object.__setattr__(self, "sizes", sizes)


@dataclass(frozen=True)
class DensityReport:
    """Per-size inf/sup density estimates with a last-value extrapolation.

    ``lower``/``upper`` hold ``(n, estimate)`` pairs; ``uncertainty`` is the
    spread between the last two sizes, and the extrapolated values are the
    last-size estimates.  ``method`` records per-size provenance tags.
    """

    lower: tuple[tuple[float, float], ...]
    upper: tuple[tuple[float, float], ...]
    extrapolated_lower: float
    extrapolated_upper: float
    uncertainty: float
    certified_region_note: str
    method: tuple[str, ...]
    extras_used_lower: bool = False
    extras_used_upper: bool = False
    covolume_bounds: tuple[float, float] | None = None

    @property
    def sizes(self) -> tuple[float, ...]:
        return tuple(n for n, _ in self.lower)


def _check_sizes(patch: PointPatch, sizes):
    feasible = _max_window_size(patch)
    bad = [n for n in sizes if n > feasible]
    if bad:
        raise PatchSizeError(
            f"patch too small for Folner size {max(bad)}; max feasible n is {feasible}"
        )


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


def _grid_centers(region: Box, step: float) -> list[np.ndarray]:
    spans = [(hi - lo) / step for lo, hi in region]
    _check_grid_size([s + 1.0 for s in spans])
    counts = [max(1, int(math.floor(s + 1e-9)) + 1) for s in spans]
    return [lo + step * np.arange(count) for (lo, _), count in zip(region, counts)]


def _extrema_grid(pts: np.ndarray, n: float, region: Box, step: float) -> tuple[float, float]:
    """Grid inf/sup of normalized window counts; overcounts inf, undercounts sup."""
    axes = _grid_centers(region, step)
    members = [np.abs(pts[None, :, k] - c[:, None]) <= n for k, c in enumerate(axes)]
    lo, hi = _grid_count_extrema(members)
    vol = (2.0 * n) ** pts.shape[1]
    return float(lo / vol), float(hi / vol)


def _patch_extrema(patch: PointPatch, n: float, step: float | None) -> tuple[float, float, str]:
    region = shrink_box(patch.box, n)
    if patch.dim <= 2:
        lo, hi = (_closed_window_extremum(patch.points, region, n, largest) for largest in (False, True))
        vol = (2.0 * n) ** patch.dim
        return lo / vol, hi / vol, "exact"
    if step is None:
        gap = _pairwise_min_gap(patch.points)
        step = min(DEFAULT_GRID_STEP, gap / 2.0) if np.isfinite(gap) else DEFAULT_GRID_STEP
    lo, hi = _extrema_grid(patch.points, n, region, step)
    return lo, hi, f"grid(step={step})"


def _assemble_report(
    patches: list[PointPatch],
    spec: FolnerSpec,
    note: str,
) -> DensityReport:
    """inf/sup per size over every supplied patch (first = base, rest = extras)."""
    for p in patches:
        if p.is_empty:
            raise PatchSizeError("cannot estimate density of an empty patch")
        _check_sizes(p, spec.sizes)
    lower, upper, methods = [], [], []
    extras_lo = extras_hi = False
    for n in spec.sizes:
        infs, sups = [], []
        tags = []
        for p in patches:
            lo, hi, tag = _patch_extrema(p, n, spec.translate_grid_step)
            infs.append(lo)
            sups.append(hi)
            tags.append(tag)
        j_lo = int(np.argmin(infs))
        j_hi = int(np.argmax(sups))
        extras_lo |= j_lo > 0
        extras_hi |= j_hi > 0
        lower.append((n, infs[j_lo]))
        upper.append((n, sups[j_hi]))
        methods.append(tags[0])
    if len(spec.sizes) >= 2:
        unc = max(
            abs(lower[-1][1] - lower[-2][1]),
            abs(upper[-1][1] - upper[-2][1]),
        )
    else:
        unc = abs(upper[-1][1] - lower[-1][1])
    return DensityReport(
        lower=tuple(lower),
        upper=tuple(upper),
        extrapolated_lower=lower[-1][1],
        extrapolated_upper=upper[-1][1],
        uncertainty=float(unc),
        certified_region_note=note,
        method=tuple(methods),
        extras_used_lower=extras_lo,
        extras_used_upper=extras_hi,
    )


def beurling_density(patch: PointPatch, spec: FolnerSpec) -> DensityReport:
    """Translate inf/sup of ``|patch ^ (x + [-n,n]^d)| / (2n)^d`` per Folner size.

    Centers range over the patch box shrunk by ``n`` (the certified region);
    the extrapolated values estimate the lower/upper Beurling densities.
    """
    note = (
        f"centers certified on the box shrunk by each Folner size; "
        f"max feasible n = {_max_window_size(patch)}"
    )
    return _assemble_report([patch], spec, note)


def hull_beurling_density(
    patch: PointPatch,
    spec: FolnerSpec,
    extra_limit_patches=(),
) -> DensityReport:
    """Density estimates where inf/sup additionally range over supplied limit patches.

    The extra patches are finite stand-ins for orbit-closure limits that
    translate sampling alone cannot reach.  For separated sets the sup side
    needs no extras; the report records which sides actually used them.
    """
    patches = [patch, *extra_limit_patches]
    note = (
        "hull estimate over base patch plus "
        f"{len(patches) - 1} injected limit patch(es); "
        "finite-window evidence only"
    )
    return _assemble_report(patches, spec, note)


@dataclass(frozen=True)
class CovolumeBounds:
    """Certified covolume bounds derived from a density report.

    ``covol_minus`` lies in ``[covol_minus_lo, covol_minus_hi]`` and
    ``covol_plus <= covol_plus_hi``; the latter holds with equality when the
    set was verified relatively dense (``covol_plus_exact``).
    """

    covol_minus_lo: float
    covol_minus_hi: float
    covol_plus_hi: float
    covol_plus_exact: bool


def covolume_bounds_from_density(
    report: DensityReport,
    ell: int,
    relatively_dense: bool = False,
) -> CovolumeBounds:
    """Covolume bounds certified by the density-covolume comparison.

    Uses the extrapolated hull densities ``D--``/``D++``: the upper covolume
    is at most ``1 / D--`` (equality recorded when relative denseness was
    verified), and the lower covolume lies in ``[1/D++, ell/D++]``.  Zero
    densities yield unbounded covolumes (``inf``).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    d_minus = report.extrapolated_lower
    d_plus = report.extrapolated_upper
    plus_hi = (1.0 / d_minus) if d_minus > 0 else math.inf
    minus_lo = (1.0 / d_plus) if d_plus > 0 else math.inf
    minus_hi = (ell / d_plus) if d_plus > 0 else math.inf
    return CovolumeBounds(
        covol_minus_lo=minus_lo,
        covol_minus_hi=minus_hi,
        covol_plus_hi=plus_hi,
        covol_plus_exact=bool(relatively_dense),
    )


@dataclass(frozen=True)
class ErgodicEstimate:
    """Covolume estimate from orbit averages; valid only under unique ergodicity."""

    covolume: float
    n_translates: int
    s_box: Box
    provenance: str = "assumes-unique-ergodicity"


def covolume_ergodic_estimate(patch: PointPatch, s_box, translates) -> ErgodicEstimate:
    """Reciprocal of the average windowed density over the supplied translates.

    Counts use half-open windows: a point ``p`` counts at translate ``v`` iff
    ``v + lo <= p < v + hi`` per axis for the exact sums, in every dimension,
    so lattice estimates are exact whenever the window side is a multiple of
    the lattice spacing.  The average over an orbit sample estimates the
    covolume only when the hull carries a unique invariant measure; the
    result is tagged accordingly.
    """
    s_box = as_box(s_box)
    vecs = np.asarray(translates, dtype=np.float64).reshape(-1, patch.dim)
    if len(vecs) == 0:
        raise ValueError("need at least one translate")
    lo = np.array([b[0] for b in s_box])
    hi = np.array([b[1] for b in s_box])
    plo = np.array([b[0] for b in patch.box])
    phi = np.array([b[1] for b in patch.box])
    if np.any(lo + vecs.min(axis=0) < plo - BOX_TOL) or np.any(hi + vecs.max(axis=0) > phi + BOX_TOL):
        raise CoverageError("box too small: some translate window exceeds the patch box")
    # ceil(v + lo) <= p < ceil(v + hi) holds iff v + lo <= p < v + hi exactly
    face_lo, face_hi = -_sum_down(-vecs, -lo), -_sum_down(-vecs, -hi)
    if patch.dim == 1:
        x = patch.points[:, 0]
        counts = (x.searchsorted(face_hi[:, 0], "left") - x.searchsorted(face_lo[:, 0], "left")).astype(np.float64)
    else:
        counts = np.zeros(len(vecs))
        for blk in _row_blocks(len(vecs), patch.n_points):
            inside = np.ones((blk.stop - blk.start, patch.n_points), dtype=bool)
            for k in range(patch.dim):
                p = patch.points[None, :, k]
                inside &= (face_lo[blk, k, None] <= p) & (p < face_hi[blk, k, None])
            counts[blk] = inside.sum(axis=1)
    vol = box_volume(s_box)
    mean_density = float(np.sort(counts).sum() / len(counts) / vol)
    if mean_density <= 0:
        raise ValueError("orbit average density is zero; covolume estimate unbounded")
    return ErgodicEstimate(
        covolume=1.0 / mean_density,
        n_translates=len(vecs),
        s_box=s_box,
    )


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported test function with an exact integral, for the lattice check.

    ``triangle``: product of 1-d hat functions supported on ``[-1, 1]``.
    ``gaussian``: ``exp(-|x|^2)`` truncated to ``[-trunc, trunc]^d``.
    """

    kind: str
    trunc: float = 8.0

    def __post_init__(self):
        if self.kind not in ("triangle", "gaussian"):
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if not self.trunc > 0:
            raise ValueError(f"trunc must be positive, got {self.trunc}")

    @property
    def support_radius(self) -> float:
        return 1.0 if self.kind == "triangle" else self.trunc

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "triangle":
            return np.prod(np.maximum(0.0, 1.0 - np.abs(x)), axis=-1)
        inside = np.abs(x).max(axis=-1) <= self.trunc
        return np.where(inside, np.exp(-(x**2).sum(axis=-1)), 0.0)

    def exact_integral(self, dim: int) -> float:
        if self.kind == "triangle":
            return 1.0
        one_dim = math.sqrt(math.pi) * math.erf(self.trunc)
        return one_dim**dim


def weil_check(scheme: CutProjectScheme, f: TestFunction, quadrature_n: int) -> float:
    """Relative residual of the lattice periodization identity.

    Compares the exact integral of ``f`` against the quadrature of the
    lattice-periodized ``f`` over a fundamental domain ``basis * [0,1)^d``.
    The identity is exact for lattices, so the residual measures only
    quadrature error.  Requires an ``m = 0`` scheme.
    """
    if scheme.m != 0:
        raise ValueError("Weil check requires lattice (m = 0 scheme)")
    if quadrature_n < 1:
        raise ValueError("quadrature_n must be positive")
    d = scheme.d
    per_dim = max(1, int(round(quadrature_n ** (1.0 / d))))
    axes = [(np.arange(per_dim) + 0.5) / per_dim] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    unit_nodes = np.stack([m.ravel() for m in mesh], axis=1)
    nodes = unit_nodes @ scheme.basis.T
    # translates g with nodes + g meeting the support [-r, r]^d of f; all others add exactly 0
    r = f.support_radius
    region = tuple((-r - hi, r - lo) for lo, hi in zip(nodes.min(axis=0), nodes.max(axis=0)))
    gammas = _lattice_points(scheme.basis, region)
    total = np.zeros(len(nodes))
    for g in gammas:
        total += f(nodes + g)
    rhs = scheme.abs_det * float(total.mean())
    lhs = f.exact_integral(d)
    return abs(lhs - rhs) / abs(lhs)
