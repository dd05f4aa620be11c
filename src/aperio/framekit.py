"""Gram systems over patches: spectral frame/Riesz bounds, Parseval
canonicalization, truncation trends and necessary-density verdicts.

Finite truncations can only give *evidence* about infinite systems, so every
trend report covers at least three nested truncations and the verdict enum
requires a monotone trend.  Eigenproblems use the dense Hermitian solver for
deterministic, reproducible spectra (no iterative methods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import CovolumeBounds, DensityReport, covolume_bounds_from_density
from .errors import CoverageError, GramSizeError, NotAFrameError
from .pointset import PointPatch, points_in_box, restrict, shrink_box, translate
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
    kernel: KernelSpec | None = None
    patch: PointPatch | None = None

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
    def rank(self) -> int:
        return int((self.eigenvalues > RANK_TOL * self.lambda_max).sum())

    @property
    def nonzero_min(self) -> float:
        """Smallest eigenvalue of the nonzero spectrum (above the rank tolerance)."""
        above = self.eigenvalues[self.eigenvalues > RANK_TOL * self.lambda_max]
        return float(above[0]) if len(above) else 0.0


def gram_from_entries(entries: np.ndarray, **refs) -> GramMatrix:
    entries = np.asarray(entries)
    herm_defect = np.abs(entries - entries.conj().T).max() if entries.size else 0.0
    if herm_defect > 1e-10:
        raise ValueError(f"Gram entries are not Hermitian (defect {herm_defect:.2e})")
    eigs = np.linalg.eigvalsh(entries) if entries.size else np.empty(0)
    return GramMatrix(entries=entries, eigenvalues=eigs, **refs)


def build_gram(kernel: KernelSpec, patch: PointPatch) -> GramMatrix:
    """Assemble the Hermitian Gram of the kernel family over the patch points."""
    if patch.dim != kernel.space_dim:
        raise ValueError(
            f"patch dimension {patch.dim} does not match kernel space dimension {kernel.space_dim}"
        )
    if patch.n_points > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {patch.n_points} points; dense limit is {MAX_GRAM_POINTS}")
    km = kernel_matrix(kernel, patch.points, patch.points)
    return gram_from_entries(km.T, kernel=kernel, patch=patch)


def riesz_bounds(gram: GramMatrix) -> tuple[float, float]:
    """Riesz bounds (min nonzero-spectrum eigenvalue, max eigenvalue) of the finite system.

    Exact for the finite system; evidence about the infinite one comes from
    the trend mechanism.  The raw smallest eigenvalue is available as
    ``gram.lambda_min``.
    """
    return gram.nonzero_min, gram.lambda_max


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

# the square root of the smallest normal double: once sampling_bounds zeroes
# the kernel entries below it, no product of two kept entries can underflow
# (on x86 every underflowing product takes a slow microcode assist).
UNDERFLOW_FLOOR = 2.0**-511


def _nyquist_profile(kernel: KernelSpec) -> np.ndarray:
    """Per-dimension reciprocal spacing at the kernel's critical density."""
    if kernel.kind == "paley_wiener":
        return np.array([hi - lo for lo, hi in kernel.band])
    return np.ones(kernel.space_dim)


def _anchor_grid(kernel: KernelSpec, interior_box, n_interior_points: int) -> np.ndarray:
    dim = kernel.space_dim
    vol = 1.0
    for lo, hi in interior_box:
        vol *= hi - lo
    crit = kernel.norm_sq_ke
    patch_density = n_interior_points / vol
    rho = min(ANCHOR_DENSITY_CAP * crit, ANCHOR_DENSITY_BOOST * patch_density)
    scale = (crit / rho) ** (1.0 / dim)
    widths = _nyquist_profile(kernel)
    axes = []
    for (lo, hi), w in zip(interior_box, widths):
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
) -> tuple[float, float]:
    """Extreme Rayleigh quotients ``sum_patch |f(p)|^2 / ||f||^2`` over interior test functions.

    Test functions are finite combinations of kernel functions (for the
    time-frequency kernel: coherent states) anchored inside the box shrunk by
    ``margin``; the quotients reduce to generalized eigenvalues of the
    anchor-vs-full Gram blocks.  The anchors form a uniform grid whose density
    follows the adaptive rule documented above; this exposes undersampling as
    a collapsing lower bound while staying numerically well conditioned.

    Default margin is 25% of the smallest box half-width.

    Entries of the patch-by-anchor kernel block below ``UNDERFLOW_FLOOR``
    (2^-511) are set to 0 before its Gram ``K^H K`` is formed.  Gaussian
    time-frequency kernels have many such entries and their pairwise products
    underflow, which is slow.  The terms this drops vanish in the rounding of
    the quotient matrix and its eigenvalues: in every case checked, the
    bounds equal those of the unfloored product bit for bit.
    """
    if margin is None:
        margin = 0.25 * min(hi - lo for lo, hi in patch.box) / 2.0
    if margin <= 0:
        raise ValueError("margin must be positive")
    interior_box = shrink_box(patch.box, margin)
    for lo, hi in interior_box:
        if lo >= hi:
            raise ValueError("margin too large: no interior region remains")
    interior_pts = patch.points[points_in_box(patch.points, interior_box)]
    if len(interior_pts) == 0:
        raise ValueError("margin too large: no interior points")
    if patch.n_points > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {patch.n_points} points; dense limit is {MAX_GRAM_POINTS}")
    anchors = _anchor_grid(kernel, interior_box, len(interior_pts))
    M = kernel_matrix(kernel, anchors, anchors)
    K = kernel_matrix(kernel, patch.points, anchors)
    K[np.abs(K) < UNDERFLOW_FLOOR] = 0.0
    s, vecs = _projected_inverse_sqrt(M)
    W = vecs * (1.0 / np.sqrt(s))[None, :]
    B = W.conj().T @ (K.conj().T @ K) @ W
    eigs = np.linalg.eigvalsh((B + B.conj().T) / 2.0)
    return float(eigs[0]), float(eigs[-1])


def canonical_parseval(
    gram: GramMatrix,
    min_nonzero: float | None = None,
) -> tuple[GramMatrix, np.ndarray]:
    """Canonical Parseval transformation of a Gram system.

    Computes the inverse square root of the frame operator on the span
    (eigenvalues above the rank tolerance) and returns the transformed Gram,
    which is an orthogonal projection (spectrum in {0, 1}), together with the
    coefficient-space transform matrix.  The output Gram is assembled from
    the spectral projector directly; forming T G T explicitly would amplify
    discarded-eigenvalue noise by 1 / RANK_TOL past the 1e-8 contract.
    """
    if gram.n == 0:
        raise NotAFrameError("not a frame at this truncation: empty system")
    s, vecs = _projected_inverse_sqrt(np.asarray(gram.entries))
    if min_nonzero is not None and s[0] < min_nonzero:
        raise NotAFrameError(
            f"not a frame at this truncation: lower bound {s[0]:.3e} < {min_nonzero:.3e}"
        )
    transform = (vecs * (1.0 / np.sqrt(s))[None, :]) @ vecs.conj().T
    projector = vecs @ vecs.conj().T
    projector = (projector + projector.conj().T) / 2.0
    out = gram_from_entries(projector, kernel=gram.kernel, patch=gram.patch)
    return out, transform


def translation_spectrum_invariance(kernel: KernelSpec, patch: PointPatch, shifts) -> float:
    """Max sup-distance between the base Gram spectrum and translated-patch spectra.

    Kernel magnitudes are translation invariant and phases act as diagonal
    unitaries, so the deviation is eigensolver noise.
    """
    base = build_gram(kernel, patch).eigenvalues
    worst = 0.0
    for s in np.asarray(shifts, dtype=np.float64).reshape(-1, patch.dim):
        eigs = build_gram(kernel, translate(patch, s)).eigenvalues
        worst = max(worst, float(np.abs(eigs - base).max()))
    return worst


@dataclass(frozen=True)
class FrameReport:
    """Spectral bounds across nested truncations with a trend verdict.

    ``verdict`` is one of ``frame_evidence`` (sampling lower bound stable),
    ``riesz_evidence`` (raw Riesz lower bound stable while the frame trend is
    not), ``neither`` (both decay geometrically) or ``inconclusive``.  The
    per-property statuses record which trends supported or refuted each
    property.
    """

    truncations: tuple[float, ...]
    riesz_lower: tuple[float, ...]
    riesz_lower_raw: tuple[float, ...]
    riesz_upper: tuple[float, ...]
    sampling_lower: tuple[float, ...]
    sampling_upper: tuple[float, ...]
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
    non-inconclusive verdict.  The Gram of the largest stage is built once;
    every smaller stage's Gram is its principal submatrix.
    """
    truncs = tuple(float(t) for t in truncations)
    if not truncs or not truncs[0] > 0:
        raise ValueError(f"truncations must be non-empty and positive, got {truncs}")
    if any(b <= a for a, b in zip(truncs, truncs[1:])):
        raise ValueError(f"truncations must be strictly increasing, got {truncs}")
    if not 0 < margin_frac < 1:
        raise ValueError(f"margin_frac must lie strictly between 0 and 1, got {margin_frac}")
    r_lo, r_lo_raw, r_hi, s_lo, s_hi = [], [], [], [], []
    margin = margin_frac * truncs[-1]
    top = build_gram(kernel, restrict(patch, [(-truncs[-1], truncs[-1])] * patch.dim))
    for t in truncs:
        sub = restrict(patch, [(-t, t)] * patch.dim)
        keep = points_in_box(top.patch.points, sub.box)
        gram = top if keep.all() else gram_from_entries(top.entries[np.ix_(keep, keep)])
        a, b = riesz_bounds(gram)
        r_lo.append(a)
        r_lo_raw.append(gram.lambda_min)
        r_hi.append(b)
        try:
            sa, sb = sampling_bounds(kernel, sub, margin=margin_frac * t)
        except ValueError as exc:  # the arguments are valid, so the patch is too small or sparse
            raise CoverageError(str(exc)) from exc
        s_lo.append(sa)
        s_hi.append(sb)
        final_eigs = gram.eigenvalues
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
        sampling_lower=tuple(s_lo),
        sampling_upper=tuple(s_hi),
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
    certified covolume bounds and only rule out when certain.
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
    demands upper density at most the critical density.  ``tol`` defaults to
    twice the report's extrapolation uncertainty.  Inconclusive (both pass) is
    a valid outcome; necessity can never certify a property, only rule it out.
    """
    crit = kernel.norm_sq_ke
    if tol is None:
        tol = 2.0 * density.uncertainty
    d_minus = density.extrapolated_lower
    d_plus = density.extrapolated_upper
    bounds = covolume_bounds_from_density(density, ell, relatively_dense=relatively_dense)
    sampling_ok = d_minus >= crit - tol
    interpolation_ok = d_plus <= crit + tol
    # covolume form: crit * covol_+ <= 1 must hold for sampling, certified via
    # covol_+ <= 1/D--; crit * covol_- >= 1 must hold for interpolation,
    # certified via covol_- <= ell/D++.
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
