"""Shared corpus fixtures: lattices, the Fibonacci model set, and the
non-separated integers-with-satellites set used across the suite.
"""

import contextlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from aperio import PointPatch, generate_model_set
from aperio.cutproject import CutProjectScheme, lattice_scheme
from aperio.errors import CoverageError
from aperio import framekit
from aperio.framekit import (
    ANCHOR_DENSITY_BOOST,
    ANCHOR_DENSITY_CAP,
    RANK_TOL,
    FrameReport,
    _gram_eigvalsh,
    _orbits,
    _reflected_eigvalsh,
    _symmetries,
    frame_trend_report,
)
from aperio.io_json import fstr
from aperio.pointset import BOX_TOL, _dense, _max_window_size, as_box, box_volume, points_in_box, shrink_box
from aperio.rkhs import _floor_underflow, kernel_matrix

TAU = (1 + math.sqrt(5)) / 2
TAU_CONJ = (1 - math.sqrt(5)) / 2
SQRT5 = math.sqrt(5)


def make_lattice_patch(spacing: float, half_width: float, dim: int = 1) -> PointPatch:
    basis = np.diag([spacing] * dim) if dim > 1 else [[spacing]]
    box = [(-half_width, half_width)] * dim
    return generate_model_set(lattice_scheme(basis), box)


def make_fibonacci_scheme(window_halfwidth: float = 0.5) -> CutProjectScheme:
    return CutProjectScheme(
        d=1,
        m=1,
        basis=[[1.0, TAU], [1.0, TAU_CONJ]],
        window=((-window_halfwidth, window_halfwidth),),
    )


def make_satellites_patch(half_width: float) -> PointPatch:
    """Integers plus a satellite at distance 1/k from each integer k != 0.

    Not separated: satellite gaps shrink like 1/k.  The integer lattice is a
    translation-orbit limit of this set.
    """
    vals = {float(k) for k in range(-int(half_width), int(half_width) + 1)}
    k = 1
    while k <= half_width:
        for s in (k + 1.0 / k, -k - 1.0 / k):
            if abs(s) <= half_width:
                vals.add(s)
        k += 1
    pts = np.array(sorted(vals))[:, None]
    return PointPatch(dim=1, box=[(-half_width, half_width)], points=pts)


@pytest.fixture(scope="session")
def z_patch():
    return make_lattice_patch(1.0, 200.0)


@pytest.fixture(scope="session")
def fibonacci_scheme():
    return make_fibonacci_scheme()


@pytest.fixture(scope="session")
def fibonacci_patch(fibonacci_scheme):
    return generate_model_set(fibonacci_scheme, [(-500, 500)])


@pytest.fixture(scope="session")
def satellites_patch():
    return make_satellites_patch(400.0)


def brute_force_window_max(points: np.ndarray, width: float, sweep_step: float) -> int:
    """Independent oracle: slide an open 1-d window densely and take the max count.

    Scans centers on a fine grid plus all point-anchored positions; intended
    for cross-checking the production sweep on small patches.
    """
    x = np.sort(points.ravel())
    centers = np.concatenate(
        [
            np.arange(x[0], x[-1] + sweep_step, sweep_step),
            x + width / 2 - 1e-12,
            x - width / 2 + 1e-12,
            x,
        ]
    )
    half = width / 2
    best = 0
    for c in centers:
        best = max(best, int(np.sum((x > c - half) & (x < c + half))))
    return best


def fibonacci_enumeration_oracle(half_width: float, window_halfwidth: float = 0.5) -> np.ndarray:
    """Independent brute-force enumeration of the Fibonacci model set.

    Solves the integer ranges directly from the two linear forms rather than
    going through the inverse-basis corner box used by the generator.
    """
    out = []
    b_max = int((half_width + window_halfwidth) / SQRT5) + 2
    for b in range(-b_max, b_max + 1):
        # x = a + b*tau in [-L, L]  =>  a in [-L - b*tau, L - b*tau]
        a_lo = int(math.floor(-half_width - b * TAU)) - 1
        a_hi = int(math.ceil(half_width - b * TAU)) + 1
        for a in range(a_lo, a_hi + 1):
            x = a + b * TAU
            y = a + b * TAU_CONJ
            if -half_width <= x <= half_width and -window_halfwidth <= y < window_halfwidth:
                out.append(x)
    return np.sort(np.array(out))


def make_product_fibonacci_scheme(angle: float = 0.5) -> CutProjectScheme:
    """The product of two Fibonacci chains, rotated by ``angle`` in physical space (d = m = 2)."""
    c, s = math.cos(angle), math.sin(angle)
    phys = np.array([[1.0, TAU, 0.0, 0.0], [0.0, 0.0, 1.0, TAU]])
    rot = np.array([[c, -s], [s, c]]) @ phys
    internal = [[1.0, TAU_CONJ, 0.0, 0.0], [0.0, 0.0, 1.0, TAU_CONJ]]
    return CutProjectScheme(d=2, m=2, basis=np.vstack([rot, internal]), window=((-0.5, 0.5), (-0.5, 0.5)))


def product_fibonacci_oracle(box, angle: float = 0.5) -> np.ndarray:
    """Independent brute force for ``make_product_fibonacci_scheme``: rotate pairs of chain points.

    Every pair of points of the 1-d chain within the box's circumradius is
    rotated and kept when it lands in the closed box; rows are sorted
    lexicographically.
    """
    reach = math.hypot(*(max(abs(lo), abs(hi)) for lo, hi in box))
    chain = fibonacci_enumeration_oracle(reach + 1.0)
    c, s = math.cos(angle), math.sin(angle)
    out = []
    for u in chain:
        for v in chain:
            x, y = c * u - s * v, s * u + c * v
            if box[0][0] <= x <= box[0][1] and box[1][0] <= y <= box[1][1]:
                out.append((x, y))
    pts = np.array(out).reshape(-1, 2)
    return pts[np.lexsort(pts.T[::-1])]


def extrema_grid_oracle(pts: np.ndarray, n: float, region, step: float) -> tuple[float, float]:
    """Brute-force translate-grid inf/sup: one boolean window mask per grid centre.

    Materializes every centre of the grid and its ``|p - c| <= n`` mask over
    all points, independently of the slab counter in ``pointset``.
    """
    axes = []
    for lo, hi in region:
        count = max(1, int(math.floor((hi - lo) / step + 1e-9)) + 1)
        axes.append(lo + step * np.arange(count))
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    inside = np.ones((len(centers), len(pts)), dtype=bool)
    for k in range(pts.shape[1]):
        inside &= np.abs(pts[None, :, k] - centers[:, k, None]) <= n
    counts = inside.sum(axis=1)
    vol = (2.0 * n) ** pts.shape[1]
    return float(counts.min() / vol), float(counts.max() / vol)


def max_window_count_oracle(pts: np.ndarray, width: float) -> int:
    """Brute-force maximum count of a half-open window ``[a, a + width)^d``, in exact arithmetic.

    Tries every corner ``a`` whose coordinates are point coordinates, one
    window at a time, comparing each point with the exact rational
    ``a + width``.  The best such window holds as many points as the best
    open window of side ``width``.
    """
    rows = [[Fraction(float(v)) for v in row] for row in pts]
    w = Fraction(width)
    best = 0
    for a in itertools.product(*({row[k] for row in rows} for k in range(pts.shape[1]))):
        best = max(best, sum(all(ak <= p < ak + w for ak, p in zip(a, row)) for row in rows))
    return best


def orbit_average_covolume(patch: PointPatch, half: float, translates) -> float:
    """``2 half`` over the mean count of the windows ``v - half <= x < v + half`` of a 1-d patch, one per translate."""
    x, v = patch.points[:, 0], np.asarray(translates, dtype=np.float64).reshape(-1)
    return 2 * half / (x.searchsorted(v + half, "left") - x.searchsorted(v - half, "left")).mean()


def max_gap_radius_oracle(patch: PointPatch) -> float:
    """The smallest double ``r`` on ``(0, edge / 2]`` with ``_dense(patch, r)``, or ``inf``, by bisecting every double.

    The midpoint of ``(lo, hi]`` is decided until it rounds to an end, about
    60 exact decisions whatever the patch; ``hi`` passes throughout.
    """
    lo, hi = 0.0, _max_window_size(patch)
    if not _dense(patch, hi):
        return math.inf
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if _dense(patch, mid):
            hi = mid
        else:
            lo = mid
    return hi


def dense_oracle(pts: np.ndarray, box, k: float) -> bool:
    """Brute-force relative denseness: mark the centres each point covers on a 1/16 grid.

    The grid runs over ``box`` shrunk by ``k``; each point marks the centres
    within sup-distance ``k`` of it.  The search is exhaustive when
    coordinates and box ends are quarter-integers and ``k`` is a multiple of
    1/8: every cell of the arrangement ``{p +- k}`` then has its ends and
    midpoint on the grid.
    """
    a = np.array([lo + k for lo, _ in box])
    b = np.array([hi - k for _, hi in box])
    if np.any(a > b):
        return True
    covered = np.zeros(tuple(np.rint((b - a) * 16).astype(int) + 1), dtype=bool)
    for p in pts:
        first = np.maximum(np.ceil((p - k - a) * 16), 0).astype(int)
        stop = np.maximum(np.floor((p + k - a) * 16) + 1, 0).astype(int)
        covered[tuple(slice(i, j) for i, j in zip(first, stop))] = True
    return bool(covered.all())


def dense_rational(pts, box, k) -> bool:
    """Exact relative denseness in rational arithmetic, for any coordinates.

    Every centre of ``box`` shrunk by ``k`` must have a point within
    sup-distance ``k``.  Along the first axis the slab ``|x - c| <= k`` is
    constant on the open cells of ``{x +- k}``, so the cell ends and
    midpoints inside the region decide; each slab recurses on the remaining
    axes.
    """
    k = Fraction(k)
    pts = [tuple(map(Fraction, p)) for p in pts]
    (lo, hi), rest = box[0], box[1:]
    a, b = Fraction(lo) + k, Fraction(hi) - k
    if a > b:
        return True
    ends = sorted({e for p in pts for e in (p[0] - k, p[0] + k) if a <= e <= b} | {a, b})
    for c in ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])]:
        slab = [p[1:] for p in pts if abs(p[0] - c) <= k]
        if not slab or (rest and not dense_rational(slab, rest, k)):
            return False
    return True


def extrema_rational(pts, n, region) -> tuple[int, int]:
    """Exact least and greatest count of a closed window ``c + [-n, n]^d``, ``c`` in ``region``.

    Along axis ``k`` the test ``|p_k - c_k| <= n`` is constant on the open
    cells of ``{p_k +- n}``, so in rational arithmetic the cell ends and
    midpoints inside the region, with the region ends, decide that axis.  The
    count is constant on products of cells, so the product of the per-axis
    candidates visits every case.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = Fraction(n)
    inside = []  # per axis: candidate centre x point
    for k, (lo, hi) in enumerate(region):
        coords, idx = np.unique(pts[:, k], return_inverse=True)
        xs = [Fraction(x) for x in coords.tolist()]
        a, b = Fraction(lo), Fraction(hi)
        ends = sorted({e for x in xs for e in (x - n, x + n) if a <= e <= b} | {a, b})
        cands = ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])]
        near = np.array([[abs(x - c) <= n for x in xs] for c in cands], dtype=bool)
        inside.append(near[:, idx])
    *lead, last = inside
    joint = np.ones((1, len(pts)), dtype=bool)
    for near in lead:
        joint = (joint[:, None, :] & near[None, :, :]).reshape(-1, len(pts))
    counts = joint.astype(np.int64) @ last.T.astype(np.int64)
    return int(counts.min()), int(counts.max())


def closest_pair_oracle(pts: np.ndarray) -> float:
    """Smallest sup-norm distance between two rows, one pair at a time (``inf`` below two rows)."""
    best = math.inf
    for i, j in itertools.combinations(range(len(pts)), 2):
        best = min(best, float(np.abs(pts[i] - pts[j]).max()))
    return best


def heisenberg_phase(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The cocycle ``sigma((x, w), (x', w')) = exp(-2 pi i x' . w)`` of ``rkhs``'s convention, on rows of R^(2n)."""
    n = p.shape[-1] // 2
    return np.exp(-2j * np.pi * np.sum(q[..., :n] * p[..., n:], axis=-1))


def local_max_oracle(values: np.ndarray, reach: int) -> np.ndarray:
    """Max over the box of cells within ``reach`` of each cell, one cell at a time, cut at the array ends.

    Cutting the box at the ends takes the same max as repeating the end cells
    (``scipy.ndimage.maximum_filter(..., mode="nearest")``).
    """
    out = np.empty_like(values)
    for idx in np.ndindex(values.shape):
        out[idx] = values[tuple(slice(max(0, i - reach), i + reach + 1) for i in idx)].max()
    return out


def amalgam_grid_oracle(spec, q_radius: float, trunc_radius: float, grid_step: float) -> float:
    """``rkhs.wiener_amalgam_norm`` on the whole grid of ``count^dim`` positions, with no factoring.

    ``|k_e|`` at every grid position by ``kernel_matrix``, its sliding-box max
    by ``local_max_oracle``, and the Riemann sum of its squares over the inner
    positions times ``step^dim``.
    """
    dim = spec.space_dim
    half = trunc_radius + q_radius
    count = int(np.ceil(2 * half / grid_step)) + 1
    axis = np.linspace(-half, half, count)
    step = axis[1] - axis[0]
    pts = np.stack([g.ravel() for g in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1)
    mag = np.abs(kernel_matrix(spec, pts, np.zeros((1, dim)))[:, 0]).reshape((count,) * dim)
    local = local_max_oracle(mag, int(round(q_radius / step)))
    inner = np.abs(axis) <= trunc_radius + 1e-12
    return math.sqrt(float((local[np.ix_(*[inner] * dim)] ** 2).sum() * step**dim))


def patch_to_jsonable(patch: PointPatch) -> dict:
    """A patch as the JSON object ``io_json.patch_dumps`` writes, built with ``fstr`` per cell and box end."""
    return {
        "dim": patch.dim,
        "box": [[fstr(lo), fstr(hi)] for lo, hi in patch.box],
        "points": [[fstr(c) for c in row] for row in patch.points.tolist()],
    }


def orbit_sample_oracle(patch: PointPatch, translates, k_box) -> list[PointPatch]:
    """``hull.orbit_sample`` one translate at a time: shift every point, then test the window.

    Checks each translate's coverage just before its window, so the first
    translate that fails (coverage, or a patch that cannot be built) raises.
    """
    k_box = as_box(k_box)
    out = []
    for x in np.asarray(translates, dtype=np.float64).reshape(-1, patch.dim).tolist():
        needed = tuple((lo + v, hi + v) for (lo, hi), v in zip(k_box, x))
        if not all(pl <= nl + BOX_TOL and nh <= ph + BOX_TOL for (pl, ph), (nl, nh) in zip(patch.box, needed)):
            raise CoverageError(f"box too small: translate {x} needs {needed}")
        shifted = patch.points - x
        sel = shifted[points_in_box(shifted, k_box)]
        out.append(PointPatch(dim=patch.dim, box=k_box, points=sel))
    return out


def broadcast_gabor_matrix(spec, P, Q):
    """Gaussian time-frequency matrix from full-size (n, m, d) pair arrays, ``np.sum`` over each pair.

    Unfloored: every entry is the full ``exp``, however small.
    """
    n = spec.n
    xp, wp = P[:, None, :n], P[:, None, n:]
    xq, wq = Q[None, :, :n], Q[None, :, n:]
    expo = np.sum((xq - xp) * (wp + wq), axis=-1)
    dist_sq = np.sum((P[:, None, :] - Q[None, :, :]) ** 2, axis=-1)
    return np.exp(1j * np.pi * expo - np.pi * dist_sq / 2.0)


def broadcast_pw_matrix(spec, X, Y):
    """Paley-Wiener matrix from one full-size (n, m, d) difference array, ``kernel_matrix``'s formula unblocked.

    The real product over the axes of ``sin(pi w u) * (1 / (pi u))``, with
    the limit ``w`` at ``u = 0``, times ``exp(i pi theta)`` for ``theta =
    sum_k (lo_k + hi_k) u_k`` (a left fold) if some band is off 0.
    """
    diff = X[:, None, :] - Y[None, :, :]
    out = np.ones(diff.shape[:2])
    for k, (lo, hi) in enumerate(spec.band):
        u = diff[..., k]
        small = np.abs(u) < 1e-308
        us = np.where(small, 1.0, u)
        factor = np.sin(np.pi * (hi - lo) * us) * (1.0 / (np.pi * us))
        factor[small] = hi - lo
        out = out * factor
    shifts = [lo + hi for lo, hi in spec.band]
    if any(shifts):
        out = out * np.exp(1j * np.pi * sum(s * diff[..., k] for k, s in enumerate(shifts)))
    return out


def per_axis_pw_matrix(spec, X, Y):
    """Paley-Wiener matrix in complex arithmetic, one modulated factor per axis.

    Each axis' factor is ``exp(i pi (lo + hi) u) sin(pi w u) / (pi u)``, with
    the limit ``w`` at ``u = 0``: the band's integral taken axis by axis.
    """
    diff = X[:, None, :] - Y[None, :, :]
    out = np.ones(diff.shape[:2], dtype=np.complex128)
    for k, (lo, hi) in enumerate(spec.band):
        u = diff[..., k]
        small = np.abs(u) < 1e-308
        us = np.where(small, 1.0, u)
        factor = np.exp(1j * np.pi * (lo + hi) * u) * np.sin(np.pi * (hi - lo) * us) / (np.pi * us)
        factor[small] = hi - lo
        out *= factor
    return out


def unfloored_kernel_matrix(kernel, xs, ys) -> np.ndarray:
    """``kernel_matrix`` without the underflow floor: ``broadcast_gabor_matrix`` for Gaussian kernels."""
    if kernel.kind == "gabor_gaussian":
        return broadcast_gabor_matrix(kernel, xs, ys)
    return kernel_matrix(kernel, xs, ys)


def interior_box_of(patch: PointPatch, margin: float | None) -> list:
    """A patch's box shrunk by ``margin``, by default 25% of its smallest half-width, as ``sampling_bounds`` does."""
    if margin is None:
        margin = 0.25 * min(hi - lo for lo, hi in patch.box) / 2.0
    return shrink_box(patch.box, margin)


def anchor_kernel_block(kernel, patch: PointPatch, margin: float | None = None) -> np.ndarray:
    """The unfloored patch-by-anchor block ``K[p, j] = k(x_p, g_j)`` on the anchors of ``box_anchor_grid``, whole.

    ``sampling_bounds`` builds only its rows at the patch's orbit
    representatives, with the same entries up to the kernel's covariance.
    """
    anchors = box_anchor_grid(kernel, interior_box_of(patch, margin), patch.points)
    return unfloored_kernel_matrix(kernel, patch.points, anchors)


def sampling_bounds_oracle(
    kernel, patch: PointPatch, margin: float | None = None, at_points: bool = False
) -> tuple[float, float]:
    """``framekit.sampling_bounds`` with every kernel entry, however small, and no floor after any sum.

    The same orbit-basis path runs with ``unfloored_kernel_matrix`` in place
    of ``kernel_matrix`` and with ``_floor_underflow`` doing nothing, so it
    checks that the kernel's zeros below the underflow floor, and the floors
    of the anchor blocks and the quotient matrices, change no bit of either
    bound.  With ``at_points`` the anchors are the interior patch points
    themselves, in place of the grid, with a centre of 0, so neither they
    nor the patch move; for an orthonormal sampling basis the quotient then
    reproduces the Riesz bounds exactly.
    """

    def points_as_anchors(kernel, interior_box, n_interior_points):
        return patch.points[points_in_box(patch.points, interior_box)], np.zeros(patch.dim)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(framekit, "kernel_matrix", unfloored_kernel_matrix))
        stack.enter_context(mock.patch.object(framekit, "_floor_underflow", lambda mat: None))
        if at_points:
            stack.enter_context(mock.patch.object(framekit, "_anchor_grid", points_as_anchors))
        return framekit.sampling_bounds(kernel, patch, margin)[:2]


def projected_inverse_sqrt(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen data of a Hermitian PSD matrix restricted to its nonzero spectrum, from one full ``eigh``."""
    eigs, vecs = np.linalg.eigh(mat)
    keep = eigs > RANK_TOL * max(eigs[-1], 0.0)
    if not keep.any():
        raise ValueError("spectrum is numerically zero")
    return eigs[keep], vecs[:, keep]


def paired_about_zero(kernel, points: np.ndarray) -> bool:
    """Whether one of the kernel's generators ``T^-1 x = signs * x[perm]`` maps the points onto themselves exactly."""
    have = {tuple(p) for p in points.tolist()}
    return any({tuple(p) for p in (points[:, list(perm)] * signs).tolist()} == have for perm, signs, _ in kernel.symmetries)


def box_anchor_grid(kernel, interior_box, points: np.ndarray) -> np.ndarray:
    """The anchor grid of ``sampling_bounds`` where it lies: ``start + h j`` per axis, centred on 0 or on the box.

    ``h`` and the count ``k`` per axis come from the number of ``points``
    in the box, at a grid density capped at the critical one for a
    Paley-Wiener patch below it and at 0.95 of it otherwise.  The grid is
    centred on 0 when the kernel's symmetries pair the points about 0
    (``paired_about_zero``) and every axis' half-extent ``(k - 1) h / 2``
    fits between 0 and both box ends; otherwise on the box's centre.  The
    same points as ``framekit._anchor_grid``'s grid, moved in the second
    case by the box's centre, in exact arithmetic; in doubles they differ by
    rounding.
    """
    crit = kernel.norm_sq_ke
    n_interior = int(points_in_box(points, interior_box).sum())
    density = n_interior / box_volume(interior_box)
    cap = 1.0 if kernel.kind == "paley_wiener" and density < crit else ANCHOR_DENSITY_CAP  # the Shannon grid
    rho = min(cap * crit, ANCHOR_DENSITY_BOOST * density)
    scale = (crit / rho) ** (1.0 / kernel.space_dim)
    steps = []
    for (lo, hi), w in zip(interior_box, kernel.widths):
        h = scale / w
        steps.append((h, max(1, int(math.floor((hi - lo) / h)) + 1)))
    at_zero = paired_about_zero(kernel, points) and all(
        (k - 1) * h / 2.0 <= min(-lo, hi) for (h, k), (lo, hi) in zip(steps, interior_box)
    )
    axes = [
        (0.0 if at_zero else (lo + hi) / 2.0) - (k - 1) * h / 2.0 + h * np.arange(k)
        for (h, k), (lo, hi) in zip(steps, interior_box)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def full_eigh_sampling_bounds(kernel, patch: PointPatch, margin: float | None = None) -> tuple[float, float, int]:
    """``framekit.sampling_bounds`` on the anchors of ``box_anchor_grid``, dense, with no orbit code.

    Nothing is moved and nothing is reflected or turned: ``M`` and ``K`` are
    the (floored) ``kernel_matrix`` of the grid where it lies and of the
    whole patch as it is, ``M``'s nonzero spectrum comes from one full
    ``eigh`` (``projected_inverse_sqrt``), and the quotients are the
    eigenvalues of ``C^H C`` for the whole ``C = K W``, averaged with its
    conjugate transpose.  The covariance of the kernel, the symmetric solves
    and the order of the products change its bounds by rounding only.
    """
    anchors = box_anchor_grid(kernel, interior_box_of(patch, margin), patch.points)
    s, vecs = projected_inverse_sqrt(kernel_matrix(kernel, anchors, anchors))
    C = kernel_matrix(kernel, patch.points, anchors) @ (vecs * (1.0 / np.sqrt(s))[None, :])
    B = C.conj().T @ C
    eigs = np.linalg.eigvalsh((B + B.conj().T) / 2.0)
    return float(eigs[0]), float(eigs[-1]), len(eigs)


def full_eigh_frame_report(kernel, patch: PointPatch, truncations) -> FrameReport:
    """``frame_trend_report`` with every sampling stage taken by ``full_eigh_sampling_bounds``."""
    with mock.patch.object(framekit, "sampling_bounds", full_eigh_sampling_bounds):
        return frame_trend_report(kernel, patch, truncations)


def complex_cast_frame_report(kernel, patch: PointPatch, truncations) -> FrameReport:
    """``frame_trend_report`` with every kernel matrix cast to ``complex128``.

    For a real kernel (a Paley-Wiener band symmetric about 0) the entries are
    the same, and every eigensolve and product runs the complex LAPACK and
    BLAS routines, as they did before real kernels got ``float64`` matrices.
    """
    real_kernel_matrix = framekit.kernel_matrix
    with mock.patch.object(framekit, "kernel_matrix", lambda *args: real_kernel_matrix(*args).astype(np.complex128)):
        return frame_trend_report(kernel, patch, truncations)


def full_solve_frame_report(kernel, patch: PointPatch, truncations) -> FrameReport:
    """``frame_trend_report`` with every truncation's Gram built whole and solved by one ``eigvalsh``.

    Never from representative rows, never as smaller blocks.  The sampling
    stages are left as they are.
    """

    def solve(kernel, points):
        return np.linalg.eigvalsh(kernel_matrix(kernel, points, points).T)

    with mock.patch.object(framekit, "_gram_eigvalsh", solve):
        return frame_trend_report(kernel, patch, truncations)


def full_matrix_frame_report(kernel, patch: PointPatch, truncations) -> FrameReport:
    """``full_solve_frame_report`` with every sampling stage taken by ``full_eigh_sampling_bounds`` too."""
    with mock.patch.object(framekit, "sampling_bounds", full_eigh_sampling_bounds):
        return full_solve_frame_report(kernel, patch, truncations)


def split_eigvalsh(entries: np.ndarray, pairing: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix that commutes with the exchange ``i <-> pairing[i]``.

    The even and odd split of the point reflection alone (Cantoni & Butler
    1976), written out on its own.  One representative per pair: the
    self-paired index first, if any, then the smaller index of each pair.
    With ``A = G[P, P]`` and ``B = G[P, N]`` (``N`` the representatives'
    partners) the even block is ``A + B``, its self-paired row and column
    scaled by ``1 / sqrt 2``, and the odd block is ``A - B`` without the
    self-paired index.  Each block's entries below the floor are set to 0.
    """
    idx = np.arange(len(pairing))
    centre = idx[pairing == idx]
    reps = np.concatenate([centre, idx[pairing > idx]])
    spectra = []
    for rows, combine in ((reps, np.add), (reps[len(centre) :], np.subtract)):
        if not len(rows):
            continue
        block = entries[np.ix_(rows, rows)]
        combine(block, entries[np.ix_(rows, pairing[rows])], out=block)
        if combine is np.add and len(centre):
            block[0] *= math.sqrt(0.5)
            block[:, 0] *= math.sqrt(0.5)
        _floor_underflow(block)
        spectra.append(np.linalg.eigvalsh(block))
    return np.sort(np.concatenate(spectra))


def point_split_frame_report(kernel, patch: PointPatch, truncations) -> FrameReport:
    """``frame_trend_report`` with every point-symmetric Gram built whole and solved by ``split_eigvalsh``.

    Only for a kernel whose one symmetry is the point reflection: each Gram's
    generators must be ``P`` alone.
    """

    def solve(kernel, points):
        (p_map, key, _), = _symmetries(kernel, points)
        assert key == (2, 0)
        return split_eigvalsh(kernel_matrix(kernel, points, points).T, p_map)

    with mock.patch.object(framekit, "_gram_eigvalsh", solve):
        return frame_trend_report(kernel, patch, truncations)


def solver_inputs(fn, *args) -> list[np.ndarray]:
    """Every matrix ``np.linalg.eigvalsh`` receives while ``fn(*args)`` runs, copied, in call order."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *rest, **kwargs):
        seen.append(np.array(a))
        return eigvalsh(a, *rest, **kwargs)

    with mock.patch.object(np.linalg, "eigvalsh", recorded):
        fn(*args)
    return seen


def canonical_parseval_oracle(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical Parseval form of a Gram system: the projector onto its nonzero spectrum, and the transform.

    The transform is the inverse square root of the Gram on that span.  The
    projector is formed directly: ``T G T`` would carry the discarded
    eigenvalues' noise, amplified by up to ``1 / RANK_TOL``.
    """
    s, vecs = projected_inverse_sqrt(entries)
    transform = (vecs * (1.0 / np.sqrt(s))[None, :]) @ vecs.conj().T
    projector = vecs @ vecs.conj().T
    return (projector + projector.conj().T) / 2.0, transform


def kernel_value(spec, x, y) -> complex:
    """Kernel value ``k(x, y)`` of one point each: the one entry of ``kernel_matrix(spec, [x], [y])``."""
    return complex(kernel_matrix(spec, [x], [y])[0, 0])


def gram_entries(kernel, patch: PointPatch) -> np.ndarray:
    """The whole Gram ``G[i, j] = k(x_j, x_i)`` of a patch, which ``framekit`` builds only at representative rows."""
    return kernel_matrix(kernel, patch.points, patch.points).T


def gram_eigenvalues(kernel, patch: PointPatch) -> np.ndarray:
    """Ascending Gram eigenvalues of a whole patch, as the Gram stage of ``frame_trend_report`` takes them."""
    return _gram_eigvalsh(kernel, patch.points)


def entries_eigenvalues(entries: np.ndarray, gens: list = ()) -> np.ndarray:
    """Ascending eigenvalues of a hand-fed Hermitian matrix through ``framekit``'s reflected solve.

    Its rows at the representatives of the group of ``gens`` (generators as
    ``_symmetries`` gives them) stand in for the kernel rows
    ``_gram_eigvalsh`` builds; only those rows are read, so the matrix must
    be Hermitian.
    """
    return _reflected_eigvalsh(*matrix_rep_rows(entries, gens))


def matrix_rep_rows(entries: np.ndarray, gens: list) -> tuple[np.ndarray, framekit._Orbits]:
    """A hand-fed matrix's rows at the representatives of ``gens``, stored as ``framekit._gram_eigvalsh`` stores a Gram's.

    ``store[j, a] = entries[reps[a], j]``, with the orbits of the group of
    ``gens`` (generators as ``_symmetries`` gives them).
    """
    orbits = _orbits(list(gens), len(entries))
    return entries[orbits.reps].T, orbits
