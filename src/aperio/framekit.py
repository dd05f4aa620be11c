"""Gram systems over patches: spectral frame/Riesz bounds, truncation trends
and necessary-density verdicts.

Finite truncations can only give *evidence* about infinite systems, so every
trend report covers at least three nested truncations and the verdict enum
requires a monotone trend.  Eigenproblems use the dense Hermitian solver (no
iterative methods), real symmetric for a real kernel.  Its rounding depends on
the BLAS build and thread count, so reports write spectra as brackets at the
solver's resolution (``io_json.SolverGrid``).

A kernel names two reflections (``KernelSpec.fixing_axes`` and
``conjugating_axes``): ``P`` with ``k(Px, Py) = k(x, y)``, and ``R`` with
``k(Rx, Ry) = conj k(x, y)``.  For the Gaussian kernel ``P`` negates every
axis and ``R`` the time axes.  A Gram over a patch that either maps onto
itself has its eigenvalues taken from smaller blocks, one per character of
the group the two generate: each parity of ``P`` is a block (Cantoni &
Butler 1976), and the two signs of ``R`` are its halves, which make it real
symmetric (A. Lee 1980).  Lattices and model sets with symmetric windows,
truncated to centred boxes, are such patches.  A block's entries are sums
over the group of the rows of orbit representatives (about n / 4 of n
points under both reflections), so only those are built (``_gram_eigvalsh``),
Hermitian as ``kernel_matrix`` keeps them bit for bit; without a reflection
every point is one.
``sampling_bounds`` never leaves this orbit basis: its anchor grid, centred
at 0 where both reflections map it onto itself, is solved as such blocks,
and each quotient block is formed from the rows of the patch's own
representatives (one block without a reflection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import CovolumeBounds, DensityReport, covolume_bounds_from_density
from .errors import ArgumentError, CoverageError, EmptyPatchError, GramSizeError
from .pointset import PointPatch, _require_nonempty, as_rows, box_volume, points_in_box, restrict, shrink_box
from .rkhs import KernelSpec, _floor_underflow, check_reach, kernel_matrix

MAX_GRAM_POINTS = 4000
RANK_TOL = 1e-10  # eigenvalues below RANK_TOL * lambda_max count as zero

# trend classification: a bound is "stable" when its last value clears the
# floor and successive truncations lose less than 40%; it "decays" when every
# doubling at least halves it (or it collapses outright).
STABILITY_FLOOR = 0.05
STABLE_RATIO = 0.6
DECAY_RATIO = 0.55
COLLAPSE = 1e-6


def _nonzero_min(eigs: np.ndarray) -> float:
    """Smallest of a Gram's ascending eigenvalues above ``RANK_TOL`` times the largest (``>= norm_sq_ke > 0``)."""
    return float(eigs[eigs > RANK_TOL * eigs[-1]][0])


def _axis_pairing(points: np.ndarray, axes: tuple[int, ...]) -> np.ndarray | None:
    """The index of each point's image with ``axes`` negated, or ``None`` if the sorted images are not the points.

    ``points`` are distinct and in lexicographic order, as a patch's rows and
    the anchor grid are (other rows give ``None``, and a whole Gram solve).
    Images are compared with the points as exact doubles: the ``lexsort`` of
    the images pairs them.
    """
    images = points.copy()
    images[:, list(axes)] *= -1.0
    order = np.lexsort(images.T[::-1])
    return order if np.array_equal(points, images[order]) else None


def _reflections(kernel: KernelSpec, points: np.ndarray) -> tuple | None:
    """The point maps ``(P, R)`` of the kernel's reflections that hold exactly on the points, or ``None``.

    ``P`` negates ``kernel.fixing_axes`` and ``R`` negates
    ``kernel.conjugating_axes``; a reflection with no axes, or whose image of
    some point is not a point, is ``None``.
    """
    maps = tuple(
        _axis_pairing(points, axes) if axes else None for axes in (kernel.fixing_axes, kernel.conjugating_axes)
    )
    return None if maps[0] is None and maps[1] is None else maps


class _Orbits(NamedTuple):
    pairing: tuple  # (P, R), either None
    group: list  # per element, in the order id, P, R, PR: its index map, its number of P and its number of R
    reps: np.ndarray  # per orbit its smallest index, by stabiliser size, the largest first
    stab: np.ndarray  # per representative: the number of group elements fixing it
    blocks: list  # per P-parity p: p, and the indices into reps of its R-sign +1 and -1 halves (None without R)


def _orbits(pairing: tuple | None, n: int) -> _Orbits:
    """The orbits on ``range(n)`` of the group of the commuting involutions ``pairing = (P, R)`` (``_reflections``).

    Each orbit is represented by its smallest index; without a map every
    index is its own orbit.  Each half of a block has the character ``chi``
    that is ``p`` per ``P`` and the half's sign per ``R`` in ``g``, and holds
    the representatives ``a`` that no ``g`` with ``chi(g) = -1`` fixes: those
    whose orbit vector ``sum_g chi(g) e_(g a)`` is nonzero.  A block with no
    representative is dropped.
    """
    p_map, r_map = pairing or (None, None)
    idx = np.arange(n)
    group = [(idx, 0, 0)] + [(m, n_p, 1 - n_p) for m, n_p in ((p_map, 1), (r_map, 0)) if m is not None]
    if len(group) == 3:
        group.append((p_map[r_map], 1, 1))
    reps = idx[np.array([idx <= m for m, _, _ in group]).all(axis=0)]
    fixed = np.array([m[reps] == reps for m, _, _ in group])
    order = np.argsort(-fixed.sum(axis=0), kind="stable")
    reps, fixed = reps[order], fixed[:, order]

    def half(p: int, s: int) -> np.ndarray:
        return np.flatnonzero(~fixed[[p**n_p * s**n_r < 0 for _, n_p, n_r in group]].any(axis=0))

    blocks = [(p, half(p, 1), half(p, -1) if r_map is not None else None) for p in (1, -1)[: 1 + (p_map is not None)]]
    blocks = [(p, plus, minus) for p, plus, minus in blocks if len(plus) or (minus is not None and len(minus))]
    return _Orbits((p_map, r_map), group, reps, fixed.sum(axis=0), blocks)


def _rep_rows(kernel: KernelSpec, points: np.ndarray) -> tuple[np.ndarray, _Orbits]:
    """The rows of the Gram ``G[i, j] = k(x_j, x_i)`` at the representatives of the kernel's orbits on ``points``.

    Returns them as every reader of a store takes them, ``store[j, a] =
    k(x_j, x_reps[a]) = G[reps[a], j]`` (``n r`` entries, ``r`` about ``n /
    4`` under both reflections and ``n`` under none), and the orbits.
    """
    orbits = _orbits(_reflections(kernel, points), len(points))
    return kernel_matrix(kernel, points, points[orbits.reps]), orbits


def _orbit_sums(store: np.ndarray, orbits: _Orbits, p: int, s: int, half: np.ndarray) -> np.ndarray:
    """``sum_g chi(g) store[g reps[half]]``, for the character ``chi`` that is ``p`` per ``P`` and ``s`` per ``R`` in ``g``.

    ``store[j, a]`` is ``G[reps[a], j]`` (``_rep_rows``), so entry ``[b,
    a]`` is ``Z[reps[a], reps[half[b]]]`` for ``Z[a, b] = sum_g chi(g) G[a,
    g b]``.  Each term gathers whole rows of ``store``, 64 at a time, into
    one new array, in the group's order; ``store`` may be rectangular.
    """
    cols = orbits.reps[half]
    out = store[cols]
    for m, n_p, n_r in orbits.group[1:]:
        add = np.add if p**n_p * s**n_r > 0 else np.subtract
        for i in range(0, len(cols), 64):  # a temporary of 64 rows, not of len(cols)
            add(out[i : i + 64], store[m[cols[i : i + 64]]], out=out[i : i + 64])
    return out


def _reflected_blocks(store: np.ndarray, orbits: _Orbits):
    """Yield the blocks of a Hermitian ``G`` with ``G[Pi, Pj] = G[i, j]`` and ``G[Ri, Rj] = conj G[i, j]``.

    ``orbits`` (from ``_orbits``) holds the maps ``(P, R)`` on ``G``'s
    indices, either of them ``None``, and ``store[j, a]`` is ``G[reps[a],
    j]``: only the rows of representatives are read, and ``G`` is never
    built.  Each block of ``orbits.blocks`` has a ``P``-parity ``p`` and
    halves ``plus`` and ``minus`` of ``R``-sign ``+1`` and ``-1``, whose
    characters and orbit sums ``Z+`` and ``Z-`` over representatives are
    those of ``_orbit_sums``.  Without ``R`` the block is ``Z+``, complex as
    ``G`` is (Cantoni & Butler 1976).  With ``R`` it is the real symmetric
    ``[[Re Z+, -Im Z-], [Im Z+, Re Z-]]`` over ``plus`` then ``minus``: a
    Hermitian matrix with a conjugating symmetry is unitarily similar to a
    real one (A. Lee 1980).  Rows and columns are scaled by ``1 / sqrt s``
    for a stabiliser of ``s`` maps: ``sqrt 1/2`` on an axis or at the origin
    of one reflection, ``1/2`` at the origin of both.

    The block is filled one half's columns at a time, from that half's sums,
    released before the other half's are built; then its entries below the
    floor are set to 0, as the Gaussian kernel's are.  The generator drops
    the block before it builds the next, so a caller that also drops it
    keeps one half's sums and the block, or the block and the solver's copy
    of it, alive besides ``store``.  A ``G`` without a reflection, all of
    whose rows are stored, is ``store``'s transposed view.  Without ``R``
    the blocks are those of the point reflection's even and odd split, bit
    for bit.

    With each block come ``p``, ``plus`` and ``minus`` (``None`` without
    ``R``).  The block's row of a representative ``a`` stands for the unit
    orbit vector whose entry at ``g a`` is ``chi(g) / sqrt(orbit size)``,
    times ``i`` in the ``minus`` half.
    """
    if len(orbits.group) == 1:
        yield store.T, orbits.blocks[0]  # the whole store in order, with no sums to floor: G itself, not copied
        return
    weight = np.sqrt(1.0 / orbits.stab)
    for p, plus, minus in orbits.blocks:
        if minus is None:
            block, wts = _orbit_sums(store, orbits, p, 1, plus)[:, plus].T, weight[plus]
        else:
            k = len(plus)
            block = np.empty((k + len(minus),) * 2)
            for s, unit, half, cols in ((1, 1, plus, block[:, :k]), (-1, 1j, minus, block[:, k:])):
                z = _orbit_sums(store, orbits, p, s, half)
                z *= unit  # i Z- has the parts -Im Z- and Re Z-
                cols[:k], cols[k:] = z.real[:, plus].T, z.imag[:, minus].T
                del z
            wts = weight[np.concatenate([plus, minus])]
        scaled = np.flatnonzero(wts != 1.0)
        block[scaled] *= wts[scaled, None]
        block[:, scaled] *= wts[scaled]
        _floor_underflow(block)  # its temporaries are no larger than the solver's copy of the block
        yield block, (p, plus, minus)
        del block  # before the next block is built


def _reflected_eigvalsh(store: np.ndarray, orbits: _Orbits) -> np.ndarray:
    """Ascending eigenvalues of the ``G`` of ``_reflected_blocks``: the sorted union of its blocks' spectra."""
    spectra = []
    for block, _ in _reflected_blocks(store, orbits):
        spectra.append(np.linalg.eigvalsh(block))
        del block
    return np.sort(np.concatenate(spectra))


def _gram_eigvalsh(kernel: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Gram ``G[i, j] = k(x_j, x_i)`` of ``points``.

    Too many points, or points of another dimension, are refused before any
    kernel entry is built.  Then ``G``'s rows at its orbit representatives
    (``_rep_rows``) are built and solved as the blocks of its reflections
    (``_reflected_eigvalsh``); they are released on return.
    """
    if len(points) > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {len(points)} points; dense limit is {MAX_GRAM_POINTS}")
    return _reflected_eigvalsh(*_rep_rows(kernel, as_rows(points, kernel.space_dim)))


def _anchor_eigh(store: np.ndarray, orbits: _Orbits) -> list:
    """Each block's eigenpairs (``eigh``) above ``RANK_TOL`` times the largest of all blocks, and its half."""
    solved = []
    for block, half in _reflected_blocks(store, orbits):
        solved.append((*np.linalg.eigh(block), half))
        del block
    cut = RANK_TOL * max(s[-1] for s, _, _ in solved)
    return [(s[s > cut], x[:, s > cut], half) for s, x, half in solved]


# anchor grid design for the sampling test class: the grid density is the
# smaller of (slightly below) the kernel's critical density and (slightly
# above) the patch's interior density.  Denser grids make the interior Gram
# numerically singular and the lower bound collapses to eigensolver noise at
# every truncation; sparser grids cannot express the aliasing combinations
# that witness undersampling, so the bound would stay flat for any lattice.
ANCHOR_DENSITY_CAP = 0.95
ANCHOR_DENSITY_BOOST = 1.05


def _anchor_grid(kernel: KernelSpec, interior_box, n_interior_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The anchor grid of ``sampling_bounds`` for a box, centred at 0, and the box's centre.

    Each axis is ``h (j - (k - 1) / 2)`` for ``j < k``: the ``k`` points of
    spacing ``h`` that fit the box, centred on it, moved by minus its centre
    (0 alone if ``k = 1``, as where ``h`` overflows or the box's volume does,
    which makes the patch density 0 and ``h`` infinite).  Its coordinates are
    exact negatives of each other, so negating any axes maps the grid onto
    itself bit for bit.  A grid past the kernel's finite range
    (``rkhs.check_reach``) is refused here, naming the box it spans.
    """
    dim = kernel.space_dim
    crit = kernel.norm_sq_ke
    patch_density = n_interior_points / box_volume(interior_box)
    rho = min(ANCHOR_DENSITY_CAP * crit, ANCHOR_DENSITY_BOOST * patch_density)
    scale = (crit / rho) ** (1.0 / dim) if rho > 0 else math.inf
    axes = []
    for (lo, hi), w in zip(interior_box, kernel.widths):
        h = scale / w
        k = max(1, int(math.floor((hi - lo) / h)) + 1) if h < math.inf else 1
        axes.append(h * (np.arange(k) - (k - 1) / 2.0) if k > 1 else np.zeros(1))
    check_reach(kernel, max(axis[-1] for axis in axes), f"the anchor grid of the interior box {list(interior_box)} reaches")
    mesh = np.meshgrid(*axes, indexing="ij")
    centre = np.array([(lo + hi) / 2.0 for lo, hi in interior_box])
    return np.stack([m.ravel() for m in mesh], axis=1), centre


def sampling_bounds(
    kernel: KernelSpec,
    patch: PointPatch,
    margin: float | None = None,
) -> tuple[float, float, int]:
    """Extreme Rayleigh quotients ``sum_patch |f(p)|^2 / ||f||^2`` over interior test functions.

    Returns the smallest and largest quotient and the size of the quotient
    matrix whose eigenvalues they are (the anchors kept above the rank cut).

    Test functions are finite combinations of kernel functions (for the
    time-frequency kernel: coherent states) anchored inside the box shrunk by
    ``margin``, by default 25% of its smallest half-width.  The anchors form a
    uniform grid whose density follows the adaptive rule documented above;
    this exposes undersampling as a collapsing lower bound while staying
    numerically well conditioned.

    The grid is built centred at 0 (``_anchor_grid``).  It stays there when
    the kernel's reflections pair the patch's points about 0 (``_reflections``)
    and it fits the interior box, so the same points give the same bounds in
    any box that leaves it room.  Otherwise the patch is moved by minus the
    interior box's centre: the kernels are translation covariant, so the
    quotient matrix is that of the grid centred on the box up to a diagonal
    unitary similarity.

    The grid maps onto itself under both of the kernel's reflections, so its
    anchor Gram ``M[i, j] = k(g_i, g_j)`` is solved as the blocks of
    ``_reflected_blocks`` (``_anchor_eigh``) from its rows at the grid's
    representatives: the conjugate of the Gram rows of ``_rep_rows``, as
    ``k(y, x) = conj k(x, y)`` bit for bit but for the sign of a zero
    imaginary part, which the blocks' floor clears.  The kept eigenvectors
    ``x``, scaled by ``s^-1/2``, are an orthonormal basis of the test
    functions, and the quotients are the eigenvalues of ``C^H C`` for ``C``
    their values at the patch's points (Fuhr, Grochenig, Haimi, Klotz &
    Romero 2017).  A block's row ``a`` stands for the orbit vector with entry
    ``chi(g) / sqrt(orbit size)`` at ``g a``, so its column of ``C`` before
    ``x`` is the sum over the group of ``chi(g) K[:, g a]``, for ``K[p, j] =
    k(x_p, g_j)``, over the stabiliser's size (each anchor counts once) and
    ``sqrt(orbit size)``: a rectangular ``_orbit_sums``, times ``i`` in the
    ``-1`` half.  ``K`` is built at the patch's representatives only, as
    ``C[Pp] = chi(P) C[p]`` and ``C[Rp] = conj C[p]``: ``C^H C`` is ``C^H
    diag(orbit sizes) C`` over them, real with ``R`` on the patch, and with
    ``P`` on it the two parities' blocks are orthogonal, each a quotient
    matrix of its own.  Without any reflection ``C`` is ``K W``, for ``W``
    the scaled eigenvectors of ``M``.

    ``M`` and ``K`` come from ``kernel_matrix``, whose Gaussian entries below
    ``rkhs.UNDERFLOW_FLOOR`` (2^-511) are exact zeros; each block of ``M``
    and each quotient matrix is floored again after its sums.  In every case
    checked, the bounds equal those of the unfloored kernel bit for bit.
    """
    if margin is None:
        margin = 0.25 * min(hi - lo for lo, hi in patch.box) / 2.0
    if not margin > 0:
        raise ArgumentError("margin must be positive")
    _require_nonempty(patch)
    interior_box = shrink_box(patch.box, margin)
    for lo, hi in interior_box:
        if lo >= hi:
            raise CoverageError("margin too large: no interior region remains")
    interior_pts = patch.points[points_in_box(patch.points, interior_box)]
    if len(interior_pts) == 0:
        raise CoverageError("margin too large: no interior points")
    if patch.n_points > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {patch.n_points} points; dense limit is {MAX_GRAM_POINTS}")
    grid, centre = _anchor_grid(kernel, interior_box, len(interior_pts))
    rows, orbits = _rep_rows(kernel, grid)
    np.conjugate(rows, out=rows)  # M's rows, as M[i, j] = k(g_i, g_j) is the conjugate of the Gram's
    solved = _anchor_eigh(rows, orbits)
    del rows
    pairing, (lo, hi) = _reflections(kernel, patch.points), np.array(interior_box).T
    centred = pairing is not None and bool((np.abs(grid).max(axis=0) <= np.minimum(-lo, hi)).all())
    p_orbits = _orbits(pairing if centred else None, patch.n_points)
    points = patch.points if centred else patch.points - centre
    store = kernel_matrix(kernel, points[p_orbits.reps], grid).T  # store[j, q] = K[reps[q], j]
    scale = np.sqrt(1.0 / (orbits.stab * len(orbits.group)))
    values, complex_c = [], np.iscomplexobj(store)  # per block C^T, a complex entry as its two parts side by side
    for s, x, (p, plus, minus) in solved:
        halves = [(1, 1, plus), (-1, 1j, minus)][: 1 + (minus is not None)]
        sums = np.vstack([unit * _orbit_sums(store, orbits, p, sign, half) for sign, unit, half in halves])
        x = x * (np.concatenate([scale[half] for _, _, half in halves])[:, None] / np.sqrt(s))
        values.append(x.T @ sums.view(np.float64))
    del store, sums
    sizes, spectra = len(p_orbits.group) // p_orbits.stab, []
    for v in [np.vstack(values)] if p_orbits.pairing[0] is None else values:
        v *= np.sqrt(np.repeat(sizes, v.shape[1] // len(sizes)))  # C's row at a representative, times sqrt(orbit size)
        c = v.view(np.complex128) if complex_c and p_orbits.pairing[1] is None else v
        q = c.conj() @ c.T  # C^H diag(orbit sizes) C, or from the real view its real part, with R on the patch
        _floor_underflow(q)
        spectra.append(np.linalg.eigvalsh(q))
    eigs = np.concatenate(spectra)
    return float(eigs.min()), float(eigs.max()), len(eigs)


@dataclass(frozen=True)
class FrameReport:
    """Spectral bounds across nested truncations with a trend verdict.

    ``verdict`` is one of ``frame_evidence`` (sampling lower bound stable),
    ``riesz_evidence`` (raw Riesz lower bound stable while the frame trend is
    not), ``neither`` (both decay geometrically) or ``inconclusive``.  The
    per-property statuses record which trends supported or refuted each
    property.  ``riesz_n`` and ``sampling_n`` are the sizes of the matrices
    the Riesz and the sampling bounds of each truncation are eigenvalues of:
    the truncation's Gram and its sampling quotient matrix.
    """

    truncations: tuple[float, ...]
    riesz_lower: tuple[float, ...]
    riesz_lower_raw: tuple[float, ...]
    riesz_upper: tuple[float, ...]
    riesz_n: tuple[int, ...]
    sampling_lower: tuple[float, ...]
    sampling_upper: tuple[float, ...]
    sampling_n: tuple[int, ...]
    boundary_margin: float
    frame_status: str
    riesz_status: str
    verdict: str
    final_eigenvalues: np.ndarray
    notes: str


def _trend_status(values) -> str:
    vals = [max(v, 0.0) for v in values]
    last = vals[-1]
    if last < COLLAPSE:
        return "refuted"
    ratios = [b / a if a > 0 else math.inf for a, b in zip(vals, vals[1:])]
    if last >= STABILITY_FLOOR and all(r >= STABLE_RATIO for r in ratios):
        return "supported"
    if all(r <= DECAY_RATIO for r in ratios):
        return "refuted"
    return "inconclusive"


def frame_trend_report(
    kernel: KernelSpec,
    patch: PointPatch,
    truncations,
    margin_frac: float = 0.25,
) -> FrameReport:
    """Riesz and sampling bounds across nested centered truncations of a patch.

    ``truncations`` are positive increasing half-widths ``t``; each stage
    restricts the patch to ``[-t, t]^d`` and takes the sampling bounds with
    margin ``margin_frac * t``, ``0 < margin_frac < 1``.  Both are checked
    before any Gram work; then the smallest truncation must hold a point
    (``EmptyPatchError``), and so every one does.  At least three stages are
    required for a non-inconclusive verdict.

    One pass per truncation, the largest first: if it is past the dense
    limit, it is refused before any kernel entry is built.  Each pass takes
    the truncation's Riesz bounds from its own Gram (``_gram_eigvalsh``: its
    rows at its orbit representatives, about a quarter of its n x n Gram on
    a lattice; tags and brackets keep the full Gram's n), releases the rows
    and then takes its sampling bounds, with no Gram alive.
    """
    truncs = tuple(float(t) for t in truncations)
    if not truncs or not truncs[0] > 0:
        raise ArgumentError(f"truncations must be non-empty and positive, got {truncs}")
    if any(not b > a for a, b in zip(truncs, truncs[1:])):
        raise ArgumentError(f"truncations must be strictly increasing, got {truncs}")
    if not 0 < margin_frac < 1:
        raise ArgumentError(f"margin_frac must lie strictly between 0 and 1, got {margin_frac}")
    if not points_in_box(patch.points, [(-truncs[0], truncs[0])] * patch.dim).any():
        raise EmptyPatchError(f"truncation {truncs[0]} holds no point of the patch")
    stages = []  # per truncation, the largest first: its Riesz bounds, its sampling bounds and its Gram spectrum
    for t in reversed(truncs):
        sub = restrict(patch, [(-t, t)] * patch.dim)
        eigs = _gram_eigvalsh(kernel, sub.points)
        sa, sb, sn = sampling_bounds(kernel, sub, margin=margin_frac * t)
        stages.append((_nonzero_min(eigs), float(eigs[0]), float(eigs[-1]), len(eigs), sa, sb, sn, eigs))
    r_lo, r_lo_raw, r_hi, r_n, s_lo, s_hi, s_n, spectra = (column[::-1] for column in zip(*stages))
    if len(truncs) >= 3:
        frame_status = _trend_status(s_lo)
        riesz_status = _trend_status(r_lo_raw)
    else:
        frame_status = riesz_status = "inconclusive"
    if frame_status == "supported":
        overall = "frame_evidence"
    elif riesz_status == "supported":
        overall = "riesz_evidence"
    elif frame_status == "refuted" and riesz_status == "refuted":
        overall = "neither"
    else:
        overall = "inconclusive"
    notes = (
        f"trend over truncations {truncs}; frame {frame_status}, riesz {riesz_status}; "
        "finite-window evidence only"
    )
    return FrameReport(
        truncations=truncs,
        riesz_lower=r_lo,
        riesz_lower_raw=r_lo_raw,
        riesz_upper=r_hi,
        riesz_n=r_n,
        sampling_lower=s_lo,
        sampling_upper=s_hi,
        sampling_n=s_n,
        boundary_margin=margin_frac * truncs[-1],
        frame_status=frame_status,
        riesz_status=riesz_status,
        verdict=overall,
        final_eigenvalues=spectra[-1],
        notes=notes,
    )


@dataclass(frozen=True)
class VerdictReport:
    """Necessary-condition checks for sampling/interpolation at the kernel's critical density.

    ``necessary_sampling_ok`` / ``necessary_interpolation_ok`` report whether
    the density-form inequalities are satisfiable; ``False`` means the
    corresponding property is ruled out.  The covolume-form booleans use the
    covolume bounds of the same extrapolated densities, so every verdict is
    trend evidence, as the reports tag it; none is certified.
    """

    critical_density: float
    d_minus: float
    d_plus: float
    tol: float
    ell: int
    covol_bounds: CovolumeBounds
    necessary_sampling_ok: bool
    necessary_interpolation_ok: bool
    sampling_covol_ok: bool
    interpolation_covol_ok: bool
    ruled_out: tuple[str, ...]
    notes: str


def verdict(
    kernel: KernelSpec,
    density: DensityReport,
    ell: int,
    tol: float | None = None,
    relatively_dense: bool = False,
) -> VerdictReport:
    """Rule out sampling/interpolation from density estimates where the theory permits.

    Sampling demands lower density at least the critical density; interpolation
    demands upper density at most the critical density.  ``tol`` (at least 0 and finite)
    defaults to twice the report's extrapolation uncertainty; ``ell`` is at least 1.
    Inconclusive (both pass) is a valid outcome; necessity can never certify a property,
    only rule it out.  With ``crit`` positive and finite (``KernelSpec``), an infinite
    covolume bound fails the sampling form and passes the interpolation form.
    """
    crit = kernel.norm_sq_ke
    if tol is None:
        tol = 2.0 * density.uncertainty
    if not 0 <= tol < math.inf:
        raise ArgumentError(f"tol must be >= 0 and finite, got {tol}")
    d_minus = density.extrapolated_lower
    d_plus = density.extrapolated_upper
    bounds = covolume_bounds_from_density(density, ell, relatively_dense=relatively_dense)
    sampling_ok = d_minus >= crit - tol
    interpolation_ok = d_plus <= crit + tol
    # covolume form: crit * covol_+ <= 1 must hold for sampling, checked via
    # covol_+ <= 1/D--; crit * covol_- >= 1 must hold for interpolation,
    # checked via covol_- <= ell/D++.
    samp_covol = crit * bounds.covol_plus_hi <= 1.0 + tol
    interp_covol = crit * bounds.covol_minus_hi >= 1.0 - tol
    ruled = []
    if not sampling_ok:
        ruled.append("sampling (lower density below critical density)")
    if not interpolation_ok:
        ruled.append("interpolation (upper density above critical density)")
    if not samp_covol and sampling_ok:
        ruled.append("sampling (covolume form)")
    if not interp_covol and interpolation_ok:
        ruled.append("interpolation (covolume form)")
    notes = (
        f"critical density {crit}; D- = {d_minus}, D+ = {d_plus}, tol = {tol}; "
        + ("ruled out: " + "; ".join(ruled) if ruled else "inconclusive: no property ruled out")
    )
    return VerdictReport(
        critical_density=crit,
        d_minus=d_minus,
        d_plus=d_plus,
        tol=float(tol),
        ell=int(ell),
        covol_bounds=bounds,
        necessary_sampling_ok=bool(sampling_ok),
        necessary_interpolation_ok=bool(interpolation_ok),
        sampling_covol_ok=bool(samp_covol),
        interpolation_covol_ok=bool(interp_covol),
        ruled_out=tuple(ruled),
        notes=notes,
    )
