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
itself has its eigenvalues taken from smaller blocks: the point reflection
splits it into an even and an odd block (Cantoni & Butler 1976), and the
conjugating one makes each of them real symmetric (A. Lee 1980).
Lattices and model sets with symmetric windows, truncated to centred boxes,
are such patches.  The blocks read only the rows of orbit representatives
(about n / 4 of n points under both reflections), so only those are built
and checked (``_gram_eigvalsh``); without a reflection every point is one.
``sampling_bounds`` solves its anchor Gram so too, eigenvectors included:
its grid is centred at 0, where both reflections map it onto itself, and
the patch is moved by minus the centre of its interior box, which the
kernels' translation covariance allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import CovolumeBounds, DensityReport, covolume_bounds_from_density
from .errors import ArgumentError, CoverageError, EmptyPatchError, GramSizeError
from .pointset import PointPatch, _require_nonempty, _row_blocks, as_rows, box_volume, points_in_box, restrict, shrink_box
from .rkhs import KernelSpec, _floor_underflow, kernel_matrix

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
    """The index of each point's image with ``axes`` negated, or ``None`` if an image is not a point.

    Images are compared with the points as exact doubles: one ``lexsort`` of
    the points and one of their images pair them.
    """
    images = points.copy()
    images[:, list(axes)] *= -1.0
    order = np.lexsort(points.T[::-1])
    image_order = np.lexsort(images.T[::-1])
    if not np.array_equal(points[order], images[image_order]):
        return None
    pairing = np.empty(len(points), dtype=np.intp)
    pairing[order] = image_order
    return pairing


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
    group: list  # per element of the group: its index map, its number of P and its number of R
    reps: np.ndarray  # one representative per orbit
    bounds: np.ndarray  # where each rank of representatives starts in reps, and its end
    weight: np.ndarray  # per representative: 1 / sqrt(the number of maps fixing it)


def _orbits(pairing: tuple | None, n: int) -> _Orbits:
    """The orbits on ``range(n)`` of the group of the commuting involutions ``pairing = (P, R)`` (``_reflections``).

    Each orbit is represented by its smallest index.  ``P`` fixes no index
    but the origin's (it negates every axis), so with the representatives
    ranked as the origin, those fixed by ``R`` alone, those fixed by nothing
    and those fixed by ``PR`` alone, each half of ``_reflected_blocks`` is a
    slice of them.  Without a map every index is its own orbit.
    """
    p_map, r_map = pairing or (None, None)
    idx = np.arange(n)
    group = [(idx, 0, 0)] + [(m, n_p, 1 - n_p) for m, n_p in ((p_map, 1), (r_map, 0)) if m is not None]
    if len(group) == 3:
        group.append((p_map[r_map], 1, 1))
    maps = [m for m, _, _ in group[1:]]
    reps = idx[np.array([idx <= m for m in maps]).reshape(len(maps), n).all(axis=0)]
    fixed = np.array([m[reps] == reps for m in maps]).reshape(len(maps), len(reps))
    rank = np.full(len(reps), 2)
    if len(maps) == 3:
        rank[fixed[1]] = 1  # fixed by R
        rank[fixed[2]] = 3  # fixed by PR
    rank[fixed.all(axis=0)] = 0  # the origin, fixed by every map
    order = np.argsort(rank, kind="stable")
    reps, rank = reps[order], rank[order]
    weight = np.sqrt(1.0 / (1 + fixed[:, order].sum(axis=0)))
    return _Orbits((p_map, r_map), group, reps, np.searchsorted(rank, range(5)), weight)


def _rep_rows(kernel: KernelSpec, points: np.ndarray) -> tuple[np.ndarray, _Orbits]:
    """The rows of the Gram ``G[i, j] = k(x_j, x_i)`` at the representatives of the kernel's orbits on ``points``.

    Returns them as every reader of a store takes them, ``store[j, a] =
    k(x_j, x_reps[a]) = G[reps[a], j]`` (``n r`` entries, ``r`` about ``n /
    4`` under both reflections and ``n`` under none), and the orbits.
    """
    orbits = _orbits(_reflections(kernel, points), len(points))
    return kernel_matrix(kernel, points, points[orbits.reps]), orbits


def _gather(store: np.ndarray, span: slice, cols, p_map, p: int) -> np.ndarray:
    """``G[rows, cols] + p G[rows, P cols]``, or ``G[rows, cols]`` without ``P``, as a transposed view of one new array.

    ``rows`` are the representatives ``reps[span]``: ``store``'s columns
    are the rows of ``G`` at the representatives in rank order, so
    ``G[reps[a], j]`` is ``store[j, a]`` and each term is a row gather of a
    column slice.
    """
    out = store[cols, span]
    if p_map is not None:
        (np.add if p > 0 else np.subtract)(out, store[p_map[cols], span], out=out)
    return out.T


def _reflected_blocks(store: np.ndarray, orbits: _Orbits):
    """Yield the blocks of a Hermitian ``G`` with ``G[Pi, Pj] = G[i, j]`` and ``G[Ri, Rj] = conj G[i, j]``.

    ``orbits`` (from ``_orbits``) holds the maps ``(P, R)`` on ``G``'s
    indices, either of them ``None``.  ``store[j, a]`` is ``G[reps[a], j]``
    (see ``_gather``); only the rows of representatives are read, and ``G``
    is never built.  Over representatives ``a`` and ``b`` let ``X1 .. X4 =
    G[a, b], G[a, Pb], G[a, Rb], G[a, PRb]``, a term of a missing map left
    out, and for each ``P``-parity ``p`` let ``Z+ = X1 + p X2 + X3 + p X4``
    and ``Z- = X1 + p X2 - X3 - p X4``.  Without ``R``
    the block of parity ``p`` is ``X1 + p X2``, complex as ``G`` is (Cantoni
    & Butler 1976).  With ``R`` it is the real symmetric ``[[Re Z+, -Im Z-],
    [Im Z+, Re Z-]]``: a Hermitian matrix with a conjugating symmetry is
    unitarily similar to a real one (A. Lee 1980).  A representative's row
    and column count in a half only where its orbit vector is nonzero, and
    are scaled by ``1 / sqrt s`` for a stabiliser of ``s`` maps: ``sqrt
    1/2`` on an axis or at the origin of one reflection, ``1/2`` at the
    origin of both.

    Each parity gathers its own ``X`` from ``store``, adds the ``P`` terms
    at once, and builds its block; the block's entries below the floor are
    set to 0, as the Gaussian kernel's are.  The generator drops the block
    before it gathers the next parity, so a caller that also drops it keeps
    one parity's gathered arrays and block, or the block and the solver's
    copy of it, alive besides ``store``.  A ``G`` without a reflection, all
    of whose rows are stored, is ``store``'s transposed view.  Without ``R``
    the blocks are those of the point reflection's even and odd split, bit
    for bit.

    With each block come its parity ``p`` and the slices ``plus`` and
    ``minus`` of ``reps`` whose rows are its ``Re Z+`` and ``Re Z-`` halves
    (``minus`` is ``None`` without ``R``).  The block's row of a
    representative ``a`` stands for the unit orbit vector whose entry at
    ``g a`` (``g`` in the group) is ``chi(g) / sqrt(orbit size)``, where the
    character ``chi`` is ``p`` per ``P`` in ``g`` for the ``Re Z+`` half and
    ``i`` times that, and ``-1`` per ``R`` in ``g``, for the ``Re Z-`` half.
    """
    (p_map, r_map), reps, weight, b = orbits.pairing, orbits.reps, orbits.weight, orbits.bounds
    # per parity, the representatives whose orbit vector of R-parity +1 and of -1 is nonzero
    halves = {1: (slice(b[0], b[4]), slice(b[2], b[3])), -1: (slice(b[1], b[3]), slice(b[2], b[4]))}
    for p in (1, -1) if p_map is not None else (1,):
        plus, minus = halves[p][0], halves[p][1] if r_map is not None else None
        span = plus if minus is None else slice(plus.start, max(plus.stop, minus.stop))
        rows = reps[span]
        if not len(rows):
            continue
        if len(orbits.group) == 1:
            yield store.T, (p, plus, minus)  # the whole store in order, with no sums to floor: G itself, not copied
            return
        y = _gather(store, span, rows, p_map, p)
        if minus is None:
            block, wts = y, weight[plus]
        else:
            w = _gather(store, span, r_map[rows], p_map, p)
            k = plus.stop - plus.start
            u = slice(plus.start - span.start, plus.stop - span.start)
            v = slice(minus.start - span.start, minus.stop - span.start)
            block = np.empty((k + v.stop - v.start,) * 2)
            np.add(y.real[u, u], w.real[u, u], out=block[:k, :k])
            np.subtract(w.imag[u, v], y.imag[u, v], out=block[:k, k:])
            np.add(y.imag[v, u], w.imag[v, u], out=block[k:, :k])
            np.subtract(y.real[v, v], w.real[v, v], out=block[k:, k:])
            wts = np.concatenate([weight[plus], weight[minus]])
            del w
        del y
        scaled = np.flatnonzero(wts != 1.0)
        block[scaled] *= wts[scaled, None]
        block[:, scaled] *= wts[scaled]
        _floor_underflow(block)  # its temporaries are no larger than the solver's copy of the block
        yield block, (p, plus, minus)
        del block  # before the next block is gathered


def _reflected_eigvalsh(store: np.ndarray, orbits: _Orbits) -> np.ndarray:
    """Ascending eigenvalues of the ``G`` of ``_reflected_blocks``: the sorted union of its blocks' spectra."""
    spectra = []
    for block, _ in _reflected_blocks(store, orbits):
        spectra.append(np.linalg.eigvalsh(block))
        del block
    return np.sort(np.concatenate(spectra))


def _check_hermitian(store: np.ndarray, orbits: _Orbits) -> None:
    """Refuse the representative rows ``store[j, a] = G[reps[a], j]`` of a ``G`` that is not Hermitian.

    Every index is ``g reps[b]`` for a group element ``g``, so the rows ``T
    = store[g reps]`` hold ``T[b, a] = G[reps[a], g reps[b]]``, whose
    partner ``conj G[g reps[b], reps[a]]`` is ``conj T[a, b]``, or ``T[a,
    b]`` when ``g`` holds ``R``.  One ``g`` and one row block of ``T`` of
    ``pointset.BLOCK_ELEMENTS / 4`` entries at a time, so the three
    temporaries stay under ``BLOCK_ELEMENTS`` complex numbers; the first
    defect not ``<= 1e-10`` (NaN and inf included) is refused.
    """
    for m, _, n_r in orbits.group:
        rows = m[orbits.reps]
        for blk in _row_blocks(len(rows), 4 * len(rows)):
            diff = store[rows[blk]]
            partner = store[rows, blk].T
            if not n_r:
                np.conjugate(partner, out=partner)
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is refused
                np.subtract(diff, partner, out=diff)
                herm_defect = np.abs(diff).max()
            if not herm_defect <= 1e-10:
                raise ValueError(f"Gram entries are not Hermitian (defect {herm_defect:.2e})")


def _gram_eigvalsh(kernel: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Gram ``G[i, j] = k(x_j, x_i)`` of ``points``.

    Too many points, or points of another dimension, are refused before any
    kernel entry is built.  Then ``G``'s rows at its orbit representatives
    (``_rep_rows``) are built, checked (``_check_hermitian``) and solved as
    the blocks of its reflections (``_reflected_eigvalsh``); they are
    released on return.
    """
    if len(points) > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {len(points)} points; dense limit is {MAX_GRAM_POINTS}")
    store, orbits = _rep_rows(kernel, as_rows(points, kernel.space_dim))
    _check_hermitian(store, orbits)
    return _reflected_eigvalsh(store, orbits)


def _projected_eigh(store: np.ndarray, orbits: _Orbits) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian PSD ``G`` with the reflections of ``orbits``, restricted to its nonzero spectrum.

    ``store[j, a] = G[reps[a], j]``.  Each block of ``_reflected_blocks`` is
    solved by ``eigh``; an eigenpair is kept when its eigenvalue exceeds
    ``RANK_TOL`` times the largest over all blocks.  Each kept eigenvector
    ``x`` of a block is mapped to ``G``'s index space (complex with ``R``)
    orbit by orbit: for each group element ``g``, its ``Re Z+`` rows times
    ``chi(g) / sqrt(orbit size)`` go to the real part at ``g reps[plus]``,
    and with ``R`` its ``Re Z-`` rows to the imaginary part at ``g
    reps[minus]``.  Every ``g`` that fixes a representative writes the same
    value there.  These are orthonormal eigenvectors of ``G``.  The largest
    eigenvalue, at least ``G``'s diagonal ``KernelSpec.norm_sq_ke > 0``, is kept.
    """
    n, reps = len(store), orbits.reps
    solved = []
    for block, half in _reflected_blocks(store, orbits):
        solved.append((*np.linalg.eigh(block), half))
        del block
    cut = RANK_TOL * max(s[-1] for s, _, _ in solved)
    solved = [(s[s > cut], x[:, s > cut], half) for s, x, half in solved]
    eigs = np.concatenate([s for s, _, _ in solved])
    vecs = np.zeros((n, len(eigs)), dtype=store.dtype if orbits.pairing[1] is None else np.complex128)
    modulus = 1.0 / (orbits.weight * math.sqrt(len(orbits.group)))  # 1 / sqrt(orbit size)
    start = 0
    for s, x, (p, plus, minus) in solved:
        cols, k = slice(start, start + len(s)), plus.stop - plus.start
        start += len(s)
        for m, n_p, n_r in orbits.group:
            chi = modulus * float(p) ** n_p
            if minus is None:
                vecs[m[reps[plus]], cols] = x * chi[plus, None]
            else:
                vecs.real[m[reps[plus]], cols] = x[:k] * chi[plus, None]
                vecs.imag[m[reps[minus]], cols] = x[k:] * (chi[minus] * (-1.0) ** n_r)[:, None]
    return eigs, vecs


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
    spacing ``h`` that fit the box, centred on it, moved by minus its centre.
    Its coordinates are exact negatives of each other, so negating any axes
    maps the grid onto itself bit for bit.
    """
    dim = kernel.space_dim
    crit = kernel.norm_sq_ke
    patch_density = n_interior_points / box_volume(interior_box)
    rho = min(ANCHOR_DENSITY_CAP * crit, ANCHOR_DENSITY_BOOST * patch_density)
    scale = (crit / rho) ** (1.0 / dim)
    axes = []
    for (lo, hi), w in zip(interior_box, kernel.widths):
        h = scale / w
        k = max(1, int(math.floor((hi - lo) / h)) + 1)
        axes.append(h * (np.arange(k) - (k - 1) / 2.0))
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
    ``margin``; the quotients reduce to generalized eigenvalues of the
    anchor-vs-full Gram blocks.  The anchors form a uniform grid whose density
    follows the adaptive rule documented above; this exposes undersampling as
    a collapsing lower bound while staying numerically well conditioned.

    Default margin is 25% of the smallest box half-width.

    The grid is built centred at 0 (``_anchor_grid``) and the patch is moved
    by minus the interior box's centre ``c`` instead.  Both kernels are
    translation covariant: moving every point by ``c`` multiplies a Gaussian
    entry ``k(x, y)`` by a unimodular factor of ``x`` times the conjugate
    factor of ``y``, and leaves a Paley-Wiener entry as it is.  So the
    quotient matrix is that of the grid centred on the box up to a diagonal
    unitary similarity, and its eigenvalues move by rounding only; with
    ``c = 0`` (every box centred on 0) no point moves.  The centred grid maps
    onto itself under both of the kernel's reflections, so its anchor Gram
    ``M[i, j] = k(g_i, g_j)`` is solved as the blocks of ``_projected_eigh``
    (for the Gaussian kernel two real ones of half the size) from its rows
    at the grid's representatives: the conjugate of the Gram rows of
    ``_rep_rows``, as ``k(y, x) = conj k(x, y)`` bit for bit but for the
    sign of a zero imaginary part, which the blocks' floor clears.

    The anchor Gram ``M`` and the patch-by-anchor kernel block ``K`` come
    from ``kernel_matrix``, whose Gaussian entries below
    ``rkhs.UNDERFLOW_FLOOR`` (2^-511) are exact zeros; each block of ``M`` is
    floored again after its sums.  In every case checked, the bounds equal
    those of the unfloored kernel bit for bit.

    The scaled eigenvectors ``W`` are an orthonormal basis of the test
    functions, so ``K W`` is the sampling operator on that basis and the
    quotients are the eigenvalues of the one product ``(K W)^H (K W)``
    (Fuhr, Grochenig, Haimi, Klotz & Romero 2017).
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
    s, W = _projected_eigh(rows, orbits)
    del rows
    W *= (1.0 / np.sqrt(s))[None, :]
    KW = kernel_matrix(kernel, patch.points - centre, grid) @ W
    del W
    eigs = np.linalg.eigvalsh(KW.conj().T @ KW)
    return float(eigs[0]), float(eigs[-1]), len(eigs)


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
