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
``build_gram`` and every truncation of ``frame_trend_report`` do so.
Lattices and model sets with symmetric windows, truncated to centred boxes,
are such patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import CovolumeBounds, DensityReport, covolume_bounds_from_density
from .errors import ArgumentError, CoverageError, GramSizeError, NotAFrameError
from .pointset import PointPatch, _row_blocks, box_volume, points_in_box, restrict, shrink_box
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


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian kernel Gram over a patch with its (ascending) eigenvalues.

    ``entries[i][j] = kernel_value(points[j], points[i])``.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1]) if self.n else 0.0

    @property
    def lambda_min(self) -> float:
        """Smallest raw eigenvalue (may sit in the numerical null space)."""
        return float(self.eigenvalues[0]) if self.n else 0.0

    @property
    def nonzero_min(self) -> float:
        """Smallest eigenvalue of the nonzero spectrum (above the rank tolerance)."""
        above = self.eigenvalues[self.eigenvalues > RANK_TOL * self.lambda_max]
        return float(above[0]) if len(above) else 0.0


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


def _gather(entries: np.ndarray, rows: np.ndarray, cols: np.ndarray, p_map, p: int) -> np.ndarray:
    """``G[rows, cols] + p G[rows, P cols]``, or ``G[rows, cols]`` without ``P``, in one new array."""
    out = entries[np.ix_(rows, cols)]
    if p_map is not None:
        (np.add if p > 0 else np.subtract)(out, entries[np.ix_(rows, p_map[cols])], out=out)
    return out


def _reflected_eigvalsh(entries: np.ndarray, pairing: tuple) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian ``G`` with ``G[Pi, Pj] = G[i, j]`` and ``G[Ri, Rj] = conj G[i, j]``.

    ``pairing`` is ``(P, R)``, commuting involutions of the indices, either
    of them ``None``.  Each orbit of ``{1, P, R, PR}`` is represented by its
    smallest index.  Over representatives ``a`` and ``b`` let ``X1 .. X4 =
    G[a, b], G[a, Pb], G[a, Rb], G[a, PRb]``, a term of a missing map left
    out, and for each ``P``-parity ``p`` let ``Z+ = X1 + p X2 + X3 + p X4``
    and ``Z- = X1 + p X2 - X3 - p X4``.  Without ``R`` the block of parity
    ``p`` is ``X1 + p X2``, complex as ``G`` is (Cantoni & Butler 1976).
    With ``R`` it is the real symmetric ``[[Re Z+, -Im Z-], [Im Z+, Re Z-]]``:
    a Hermitian matrix with a conjugating symmetry is unitarily similar to a
    real one (A. Lee 1980).  A representative's row and column count in a
    half only where its orbit vector is nonzero, and are scaled by
    ``1 / sqrt s`` for a stabiliser of ``s`` maps: ``sqrt 1/2`` on an axis or
    at the origin of one reflection, ``1/2`` at the origin of both.  ``P``
    fixes no index but the origin's (it negates every axis), so with the
    representatives ordered as the origin, those fixed by ``R`` alone, those
    fixed by nothing and those fixed by ``PR`` alone, every half is a slice.

    Each parity gathers its own ``X`` from ``entries``, adds the ``P`` terms
    at once, and builds its block; the block's entries below the floor are
    set to 0, as the Gaussian kernel's are, and it is released before the
    next parity is gathered.  So besides ``entries`` only one parity's
    gathered arrays and block, or the block and the solver's copy of it, are
    alive.  Without ``R`` the blocks are those of the point reflection's even
    and odd split, bit for bit.
    """
    p_map, r_map = pairing
    maps = [m for m in (p_map, r_map) if m is not None]
    if len(maps) == 2:
        maps.append(p_map[r_map])
    idx = np.arange(len(entries))
    reps = idx[np.logical_and.reduce([idx <= m for m in maps])]
    fixed = np.array([m[reps] == reps for m in maps])
    rank = np.full(len(reps), 2)
    if len(maps) == 3:
        rank[fixed[1]] = 1  # fixed by R
        rank[fixed[2]] = 3  # fixed by PR
    rank[fixed.all(axis=0)] = 0  # the origin, fixed by every map
    order = np.argsort(rank, kind="stable")
    reps, rank = reps[order], rank[order]
    weight = np.sqrt(1.0 / (1 + fixed[:, order].sum(axis=0)))
    b = np.searchsorted(rank, range(5))
    # per parity, the representatives whose orbit vector of R-parity +1 and of -1 is nonzero
    halves = {1: (slice(b[0], b[4]), slice(b[2], b[3])), -1: (slice(b[1], b[3]), slice(b[2], b[4]))}
    spectra = []
    for p in (1, -1) if p_map is not None else (1,):
        plus, minus = halves[p]
        span = plus if r_map is None else slice(plus.start, max(plus.stop, minus.stop))
        rows = reps[span]
        if not len(rows):
            continue
        y = _gather(entries, rows, rows, p_map, p)
        if r_map is None:
            block, wts = y, weight[plus]
        else:
            w = _gather(entries, rows, r_map[rows], p_map, p)
            u = slice(plus.start - span.start, plus.stop - span.start)
            v = slice(minus.start - span.start, minus.stop - span.start)
            k = u.stop - u.start
            block = np.empty((k + v.stop - v.start,) * 2)
            np.add(y.real[u, u], w.real[u, u], out=block[:k, :k])
            np.subtract(w.imag[u, v], y.imag[u, v], out=block[:k, k:])
            np.add(y.imag[v, u], w.imag[v, u], out=block[k:, :k])
            np.subtract(y.real[v, v], w.real[v, v], out=block[k:, k:])
            wts = np.concatenate([weight[plus], weight[minus]])
            del y, w
        scaled = np.flatnonzero(wts != 1.0)
        block[scaled] *= wts[scaled, None]
        block[:, scaled] *= wts[scaled]
        _floor_underflow(block)  # its temporaries are no larger than the solver's copy of the block
        spectra.append(np.linalg.eigvalsh(block))
        del block  # before the next block is gathered
    return np.sort(np.concatenate(spectra))


def gram_from_entries(entries: np.ndarray, pairing: tuple | None = None) -> GramMatrix:
    """Wrap a square Hermitian matrix with its ascending eigenvalues.

    The Hermitian defect ``|e[i, j] - conj(e[j, i])|`` is checked one row
    block of ``pointset.BLOCK_ELEMENTS / 4`` entries at a time, so its three
    temporaries (the conjugate, the difference and its modulus) stay under
    ``BLOCK_ELEMENTS`` complex numbers; the first block whose defect is not
    ``<= 1e-10`` (NaN and inf included) is refused.

    ``pairing`` (from ``_reflections``) is a pair ``(P, R)`` of index maps,
    either ``None``: the entries are unchanged by ``P`` on rows and columns
    and conjugated by ``R``.  Then the eigenvalues are the sorted union of
    those of smaller blocks (``_reflected_eigvalsh``): with ``P`` alone an
    even and an odd block of half the size, about a quarter of the full
    solve's work; with ``R`` as well, two real symmetric blocks of half the
    size, which take about a quarter of that again; with ``R`` alone one real
    symmetric matrix of the full size.  Any eigenvalue moves from the full
    solve's by rounding only, within the solver's resolution.  Without it,
    one ``eigvalsh`` of the whole matrix.  ``entries`` stays the full matrix
    either way.
    """
    entries = np.asarray(entries)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"Gram entries must form a square matrix, got shape {entries.shape}")
    for blk in _row_blocks(len(entries), 4 * len(entries)):
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is refused
            herm_defect = np.abs(entries[blk] - entries[:, blk].conj().T).max()
        if not herm_defect <= 1e-10:
            raise ValueError(f"Gram entries are not Hermitian (defect {herm_defect:.2e})")
    if not entries.size:
        eigs = np.empty(0)
    elif pairing is None:
        eigs = np.linalg.eigvalsh(entries)
    else:
        eigs = _reflected_eigvalsh(entries, pairing)
    return GramMatrix(entries=entries, eigenvalues=eigs)


def build_gram(kernel: KernelSpec, patch: PointPatch) -> GramMatrix:
    """Assemble the Hermitian Gram of the kernel family over the patch points.

    A patch symmetric under the kernel's reflections (``_reflections``) has
    its eigenvalues from the smaller blocks of ``gram_from_entries``.
    """
    if patch.n_points > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {patch.n_points} points; dense limit is {MAX_GRAM_POINTS}")
    km = kernel_matrix(kernel, patch.points, patch.points)
    return gram_from_entries(km.T, _reflections(kernel, patch.points))


def _projected_inverse_sqrt(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen data of a Hermitian PSD matrix restricted to its nonzero spectrum."""
    eigs, vecs = np.linalg.eigh(mat)
    keep = eigs > RANK_TOL * max(eigs[-1], 0.0)
    if not keep.any():
        raise NotAFrameError("not a frame at this truncation: spectrum is numerically zero")
    return eigs[keep], vecs[:, keep]


# anchor grid design for the sampling test class: the grid density is the
# smaller of (slightly below) the kernel's critical density and (slightly
# above) the patch's interior density.  Denser grids make the interior Gram
# numerically singular and the lower bound collapses to eigensolver noise at
# every truncation; sparser grids cannot express the aliasing combinations
# that witness undersampling, so the bound would stay flat for any lattice.
ANCHOR_DENSITY_CAP = 0.95
ANCHOR_DENSITY_BOOST = 1.05


def _anchor_grid(kernel: KernelSpec, interior_box, n_interior_points: int) -> np.ndarray:
    dim = kernel.space_dim
    crit = kernel.norm_sq_ke
    patch_density = n_interior_points / box_volume(interior_box)
    rho = min(ANCHOR_DENSITY_CAP * crit, ANCHOR_DENSITY_BOOST * patch_density)
    scale = (crit / rho) ** (1.0 / dim)
    axes = []
    for (lo, hi), w in zip(interior_box, kernel.widths):
        h = scale / w
        k = max(1, int(math.floor((hi - lo) / h)) + 1)
        start = lo + ((hi - lo) - (k - 1) * h) / 2.0
        axes.append(start + h * np.arange(k))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


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

    The anchor Gram ``M`` and the patch-by-anchor kernel block ``K`` come
    from ``kernel_matrix``, whose Gaussian entries below
    ``rkhs.UNDERFLOW_FLOOR`` (2^-511) are exact zeros, so no product in
    ``K^H K`` underflows.  The terms the floor drops vanish in the rounding of
    the quotient matrix and its eigenvalues: in every case checked, the
    bounds equal those of the unfloored kernel bit for bit.

    Each matrix is released as soon as the next product has used it.  The
    anchor Gram ``M`` dies in its eigensolve, and the kept eigenvectors are
    scaled in place into ``W``.  The kernel block ``K`` dies once ``K^H K``
    exists, ``K^H K`` once ``W^H K^H K`` exists, and ``W`` once that is
    multiplied by ``W``; the result is symmetrized in place.  So one
    anchor-sized product is alive at a time besides its operands.  The
    products and their association are those of ``W^H (K^H K) W``, so no
    bit moves.  For a real kernel (``rkhs.kernel_matrix`` of a symmetric
    band) every matrix is real and ``conj()`` returns the matrix itself, so
    no conjugate copy is made.
    """
    if margin is None:
        margin = 0.25 * min(hi - lo for lo, hi in patch.box) / 2.0
    if not margin > 0:
        raise ArgumentError("margin must be positive")
    interior_box = shrink_box(patch.box, margin)
    for lo, hi in interior_box:
        if lo >= hi:
            raise CoverageError("margin too large: no interior region remains")
    interior_pts = patch.points[points_in_box(patch.points, interior_box)]
    if len(interior_pts) == 0:
        raise CoverageError("margin too large: no interior points")
    if patch.n_points > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {patch.n_points} points; dense limit is {MAX_GRAM_POINTS}")
    anchors = _anchor_grid(kernel, interior_box, len(interior_pts))
    s, W = _projected_inverse_sqrt(kernel_matrix(kernel, anchors, anchors))
    W *= (1.0 / np.sqrt(s))[None, :]
    K = kernel_matrix(kernel, patch.points, anchors)
    KK = K.conj().T @ K
    del K
    B = W.conj().T @ KK
    del KK
    B = B @ W
    del W
    B += B.conj().T
    B /= 2.0
    eigs = np.linalg.eigvalsh(B)
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
    before any Gram work.  At least three stages are required for a
    non-inconclusive verdict.

    The stages run in two phases, so at most one n x n Gram (n the points of
    the largest stage) is alive at any time.  First the Gram stage of every
    truncation: the Gram of the largest stage is built once, every smaller
    stage's Gram is its principal submatrix, and each gives its Riesz
    bounds.  A stage whose points are symmetric under the kernel's
    reflections is solved as smaller blocks (``gram_from_entries`` with the
    stage's own ``_reflections``); its tags and brackets keep the full Gram's
    n.
    Then the Grams are released and the sampling bounds of every truncation
    are taken, with no Gram alive.
    """
    truncs = tuple(float(t) for t in truncations)
    if not truncs or not truncs[0] > 0:
        raise ArgumentError(f"truncations must be non-empty and positive, got {truncs}")
    if any(not b > a for a, b in zip(truncs, truncs[1:])):
        raise ArgumentError(f"truncations must be strictly increasing, got {truncs}")
    if not 0 < margin_frac < 1:
        raise ArgumentError(f"margin_frac must lie strictly between 0 and 1, got {margin_frac}")
    r_lo, r_lo_raw, r_hi, r_n, s_lo, s_hi, s_n = [], [], [], [], [], [], []
    margin = margin_frac * truncs[-1]
    subs = [restrict(patch, [(-t, t)] * patch.dim) for t in truncs]
    top_patch = subs[-1]
    top = build_gram(kernel, top_patch)
    for sub in subs:
        keep = points_in_box(top_patch.points, sub.box)
        if keep.all():
            gram = top
        else:
            pairing = _reflections(kernel, top_patch.points[keep])
            gram = gram_from_entries(top.entries[np.ix_(keep, keep)], pairing)
        r_lo.append(gram.nonzero_min)
        r_lo_raw.append(gram.lambda_min)
        r_hi.append(gram.lambda_max)
        r_n.append(gram.n)
    final_eigs = gram.eigenvalues
    del top, gram  # release the Grams before the sampling stages build their own blocks
    for t, sub in zip(truncs, subs):
        sa, sb, sn = sampling_bounds(kernel, sub, margin=margin_frac * t)
        s_lo.append(sa)
        s_hi.append(sb)
        s_n.append(sn)
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
        riesz_lower=tuple(r_lo),
        riesz_lower_raw=tuple(r_lo_raw),
        riesz_upper=tuple(r_hi),
        riesz_n=tuple(r_n),
        sampling_lower=tuple(s_lo),
        sampling_upper=tuple(s_hi),
        sampling_n=tuple(s_n),
        boundary_margin=margin,
        frame_status=frame_status,
        riesz_status=riesz_status,
        verdict=overall,
        final_eigenvalues=final_eigs,
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
    demands upper density at most the critical density.  ``tol`` (at least 0) defaults
    to twice the report's extrapolation uncertainty; ``ell`` is at least 1.  Inconclusive
    (both pass) is a valid outcome; necessity can never certify a property, only rule it out.
    """
    crit = kernel.norm_sq_ke
    if tol is None:
        tol = 2.0 * density.uncertainty
    elif not tol >= 0:
        raise ArgumentError(f"tol must be >= 0, got {tol}")
    d_minus = density.extrapolated_lower
    d_plus = density.extrapolated_upper
    bounds = covolume_bounds_from_density(density, ell, relatively_dense=relatively_dense)
    sampling_ok = d_minus >= crit - tol
    interpolation_ok = d_plus <= crit + tol
    # covolume form: crit * covol_+ <= 1 must hold for sampling, checked via
    # covol_+ <= 1/D--; crit * covol_- >= 1 must hold for interpolation,
    # checked via covol_- <= ell/D++.
    samp_covol = (
        crit * bounds.covol_plus_hi <= 1.0 + tol if math.isfinite(bounds.covol_plus_hi) else False
    )
    interp_covol = (
        crit * bounds.covol_minus_hi >= 1.0 - tol
        if math.isfinite(bounds.covol_minus_hi)
        else True
    )
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
