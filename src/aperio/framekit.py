"""Gram systems over patches: spectral frame/Riesz bounds, truncation trends
and necessary-density verdicts.

Finite truncations can only give *evidence* about infinite systems, so every
trend report covers at least three nested truncations and the verdict enum
requires a monotone trend.  Eigenproblems use the dense Hermitian solver (no
iterative methods), real symmetric for a real kernel.  Its rounding depends on
the BLAS build and thread count, so reports write spectra as brackets at the
solver's resolution (``io_json.SolverGrid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import CovolumeBounds, DensityReport, covolume_bounds_from_density
from .errors import ArgumentError, CoverageError, GramSizeError, NotAFrameError
from .pointset import PointPatch, _row_blocks, box_volume, points_in_box, restrict, shrink_box
from .rkhs import KernelSpec, kernel_matrix

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


def gram_from_entries(entries: np.ndarray) -> GramMatrix:
    """Wrap a square Hermitian matrix with its ascending eigenvalues.

    The Hermitian defect ``|e[i, j] - conj(e[j, i])|`` is checked one row
    block at a time, so the check needs no n x n temporary; the first block
    whose defect is not ``<= 1e-10`` (NaN and inf included) is refused.
    """
    entries = np.asarray(entries)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"Gram entries must form a square matrix, got shape {entries.shape}")
    for blk in _row_blocks(len(entries), len(entries)):
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is refused
            herm_defect = np.abs(entries[blk] - entries[:, blk].conj().T).max()
        if not herm_defect <= 1e-10:
            raise ValueError(f"Gram entries are not Hermitian (defect {herm_defect:.2e})")
    eigs = np.linalg.eigvalsh(entries) if entries.size else np.empty(0)
    return GramMatrix(entries=entries, eigenvalues=eigs)


def build_gram(kernel: KernelSpec, patch: PointPatch) -> GramMatrix:
    """Assemble the Hermitian Gram of the kernel family over the patch points."""
    if patch.n_points > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {patch.n_points} points; dense limit is {MAX_GRAM_POINTS}")
    km = kernel_matrix(kernel, patch.points, patch.points)
    return gram_from_entries(km.T)


def _projected_inverse_sqrt(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen data of a Hermitian PSD matrix restricted to its nonzero spectrum."""
    eigs, vecs = np.linalg.eigh(mat)
    keep = eigs > RANK_TOL * max(eigs[-1], 0.0) if len(eigs) else np.zeros(0, bool)
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
    bounds.  Then the Grams are released and the sampling bounds of every
    truncation are taken, with no Gram alive.
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
    top_patch = restrict(patch, [(-truncs[-1], truncs[-1])] * patch.dim)
    top = build_gram(kernel, top_patch)
    subs = []
    for t in truncs:
        sub = restrict(patch, [(-t, t)] * patch.dim)
        keep = points_in_box(top_patch.points, sub.box)
        gram = top if keep.all() else gram_from_entries(top.entries[np.ix_(keep, keep)])
        r_lo.append(gram.nonzero_min)
        r_lo_raw.append(gram.lambda_min)
        r_hi.append(gram.lambda_max)
        r_n.append(gram.n)
        subs.append(sub)
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
