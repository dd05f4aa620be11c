"""Beurling and hull Beurling densities along Folner boxes, covolume bounds, the lattice Weil check.

One function, ``beurling_density``, gives both densities: the hull density
is the inf/sup over the base patch and any supplied limit patches, and the
plain density is that over the base patch alone.  Its patches pass
pointset's checks (non-empty, the largest window fits).
Folner windows are centered boxes ``[-n, n]^d``.  The inf/sup over window
positions is exact in every dimension for the points as stored, from one
counter, ``pointset._closed_window_extremum``: it cuts the patch into slabs
where a window face meets a point, with exact slab bounds, and solves each
slab on the next axis.
Extrapolation to the density limit is last-value-with-spread; no rate model
is fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutproject import CutProjectScheme, _lattice_points, model_set_covolume
from .errors import ArgumentError, ConfigError, DimensionMismatchError
from .pointset import PointPatch, shrink_box, _check_grid_size, _closed_window_extremum, _max_window_size
from .pointset import _require_nonempty, _require_window_fits


@dataclass(frozen=True)
class FolnerSpec:
    """Increasing centered-box sizes."""

    sizes: tuple[float, ...]

    def __post_init__(self):
        sizes = tuple(float(n) for n in self.sizes)
        if not sizes:
            raise ArgumentError("need at least one Folner size")
        if not all(math.isfinite(n) for n in sizes):
            raise ArgumentError("Folner sizes must be finite")
        if any(not b > a for a, b in zip(sizes, sizes[1:])):
            raise ArgumentError("Folner sizes must be strictly increasing")
        if any(not n > 0 for n in sizes):
            raise ArgumentError("Folner sizes must be positive")
        object.__setattr__(self, "sizes", sizes)


@dataclass(frozen=True)
class DensityReport:
    """Per-size inf/sup density estimates with a last-value extrapolation.

    ``lower``/``upper`` hold ``(n, estimate)`` pairs; ``uncertainty`` is the
    spread between the last two sizes, and the extrapolated values are the
    last-size estimates.  No covolume is stored: a written report's covolume
    block is computed at write time by ``covolume_bounds_from_density``.
    Every estimate, per size and extrapolated, and the uncertainty must be
    finite and at least 0.
    """

    lower: tuple[tuple[float, float], ...]
    upper: tuple[tuple[float, float], ...]
    extrapolated_lower: float
    extrapolated_upper: float
    uncertainty: float
    certified_region_note: str
    extras_used_lower: bool = False
    extras_used_upper: bool = False

    def __post_init__(self):
        values = [self.extrapolated_lower, self.extrapolated_upper, self.uncertainty]
        if not all(0 <= v < math.inf for v in values + [v for _, v in (*self.lower, *self.upper)]):
            raise ConfigError("density report estimates must be finite and at least 0")


def _patch_extrema(patch: PointPatch, n: float) -> tuple[float, float]:
    region = shrink_box(patch.box, n)
    lo, hi = (_closed_window_extremum(patch.points, region, n, largest) for largest in (False, True))
    vol = (2.0 * n) ** patch.dim
    return lo / vol, hi / vol


def beurling_density(patch: PointPatch, spec: FolnerSpec, extras=()) -> DensityReport:
    """Translate inf/sup of ``|p ^ (x + [-n,n]^d)| / (2n)^d`` per Folner size, over ``patch`` and ``extras``.

    Centers range over each patch box shrunk by ``n`` (the certified region);
    the extrapolated values estimate the lower/upper Beurling densities.  The
    extra patches, all of the base patch's dimension, are finite stand-ins
    for orbit-closure limits that translate sampling alone cannot reach, so
    with them the inf/sup estimate the hull densities.  For separated sets
    the sup side needs no extras; the report records which sides used them.
    """
    patches = [patch, *extras]
    for p in patches:
        if p.dim != patch.dim:
            raise DimensionMismatchError(f"limit patch has dimension {p.dim}, the base patch {patch.dim}")
        _require_nonempty(p)
        _require_window_fits(p, spec.sizes[-1])  # the sizes increase
    if n_extras := len(patches) - 1:
        note = f"hull estimate over base patch plus {n_extras} injected limit patch(es); finite-window evidence only"
    else:
        note = f"centers certified on the box shrunk by each Folner size; max feasible n = {_max_window_size(patch)}"
    lower, upper = [], []
    extras_lo = extras_hi = False
    for n in spec.sizes:
        infs, sups = zip(*(_patch_extrema(p, n) for p in patches))
        j_lo = int(np.argmin(infs))
        j_hi = int(np.argmax(sups))
        extras_lo |= j_lo > 0
        extras_hi |= j_hi > 0
        lower.append((n, infs[j_lo]))
        upper.append((n, sups[j_hi]))
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
        extras_used_lower=extras_lo,
        extras_used_upper=extras_hi,
    )


@dataclass(frozen=True)
class CovolumeBounds:
    """Covolume bounds derived from a density report's extrapolated densities.

    If those densities are the limits, ``covol_minus`` lies in
    ``[covol_minus_lo, covol_minus_hi]`` and ``covol_plus <= covol_plus_hi``,
    with equality when the set was verified relatively dense
    (``covol_plus_exact``).  The densities are finite-window trends, so the
    bounds are trend evidence, not certificates.
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
    """Covolume bounds from the density-covolume comparison.

    Uses the extrapolated hull densities ``D--``/``D++``: the upper covolume
    is at most ``1 / D--`` (equality recorded when relative denseness was
    verified), and the lower covolume lies in ``[1/D++, ell/D++]``.  Zero
    densities yield unbounded covolumes (``inf``).  The densities are
    finite-window trends, and every report tags the bounds as trends.
    """
    if not ell >= 1:
        raise ArgumentError("ell must be >= 1")
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
class TestFunction:
    """Compactly supported test function with an exact integral, for the lattice check.

    ``triangle``: product of 1-d hat functions supported on ``[-1, 1]``.
    ``gaussian``: ``exp(-|x|^2)`` truncated to ``[-trunc, trunc]^d``.
    """

    kind: str
    trunc: float = 8.0

    def __post_init__(self):
        if self.kind not in ("triangle", "gaussian"):
            raise ArgumentError(f"unknown test function kind {self.kind!r}")
        if not self.trunc > 0:
            raise ArgumentError(f"trunc must be positive, got {self.trunc}")

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
        raise ArgumentError("Weil check requires lattice (m = 0 scheme)")
    if not quadrature_n >= 1:
        raise ArgumentError("quadrature_n must be positive")
    _check_grid_size([quadrature_n])
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
    rhs = model_set_covolume(scheme) * float(total.mean())
    lhs = f.exact_integral(d)
    return abs(lhs - rhs) / abs(lhs)
