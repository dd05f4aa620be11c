"""Cut-and-project schemes: model sets in R^d from lattices in R^(d+m).

A scheme is a lattice basis in R^(d+m) together with a window in the internal
space R^m.  The generated set is the physical projection of the lattice points
whose internal projection falls in the window.  ``m = 0`` is allowed and means
the set is the (projected) lattice itself, with covolume ``|det basis|``; this
is the calibration case for every density test downstream.

Windows are finite unions of disjoint half-open boxes ``[lo, hi)``.  Half-open
faces make covolumes exact under tilings and dodge boundary double-counting;
window membership is tested with an exactness epsilon of 0, so users wanting
robustness against borderline windows should place window faces away from
internal lattice coordinates.

Every lattice-point search (generation and the translates of the lattice
periodization check) goes through one enumerator, ``_lattice_points``, whose
work follows the output: about ``L`` integer candidates, not ``L^2``, for a
Fibonacci box of length ``L``.  One cap, ``_ENUM_LIMIT``, bounds the integer
prefixes and the candidates; a request past it raises ``ArgumentError`` before
the array it bounds is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateBasisError, EmptyWindowError
from .pointset import Box, PointPatch, as_box, as_rows, box_volume, points_in_box

_ENUM_LIMIT = 200_000_000  # hard cap on integer prefixes, and on candidates, per enumeration
INJECTIVITY_RADIUS = 3  # integer coefficients in [-3, 3] are checked for a vanishing projection
INJECTIVITY_TOL = 1e-9  # relative to the largest physical basis entry


@dataclass(frozen=True)
class Window:
    """Finite union of pairwise disjoint half-open boxes in R^m."""

    m: int
    boxes: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("window dimension must be >= 1")
        boxes = tuple(as_box(b, self.m) for b in self.boxes)
        for b1, b2 in itertools.combinations(boxes, 2):
            if all(lo1 < hi2 and lo2 < hi1 for (lo1, hi1), (lo2, hi2) in zip(b1, b2)):
                raise ValueError("window boxes must be pairwise disjoint")
        object.__setattr__(self, "boxes", boxes)

    @property
    def volume(self) -> float:
        return sum(map(box_volume, self.boxes), 0.0)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def bounding_box(self) -> Box:
        if self.is_empty:
            raise EmptyWindowError("empty window")
        lo = [min(b[k][0] for b in self.boxes) for k in range(self.m)]
        hi = [max(b[k][1] for b in self.boxes) for k in range(self.m)]
        return tuple(zip(lo, hi))

    def contains(self, y: np.ndarray) -> np.ndarray:
        """Half-open membership mask for sample rows ``y`` of shape (n, m)."""
        y = as_rows(y, self.m)
        mask = np.zeros(len(y), dtype=bool)
        for b in self.boxes:
            lo = np.array([iv[0] for iv in b])
            hi = np.array([iv[1] for iv in b])
            mask |= np.all((y >= lo) & (y < hi), axis=1)
        return mask


@dataclass(frozen=True, eq=False)
class CutProjectScheme:
    """Lattice basis in R^(d+m) plus an internal window; ``window=None`` iff ``m=0``.

    The basis columns generate the lattice.  Construction runs a finite
    injectivity check: no nonzero integer combination with coordinates up to
    ``INJECTIVITY_RADIUS`` may have (numerically) vanishing physical part.
    This is a necessary-condition check, not a proof.  It and the singularity
    test are relative to the basis' scale, which ``2^k`` scaling never moves.
    """

    d: int
    m: int
    basis: np.ndarray
    window: Window | None = None

    def __post_init__(self):
        if self.d < 1 or self.m < 0:
            raise ValueError("need d >= 1 and m >= 0")
        n = self.d + self.m
        basis = np.asarray(self.basis, dtype=np.float64).reshape(n, n)
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        det = np.linalg.det(basis)
        if not 1e-12 * np.prod(np.linalg.norm(basis, axis=1)) < abs(det) < math.inf:
            raise DegenerateBasisError("lattice basis is singular")
        if self.m == 0:
            if self.window is not None:
                raise ValueError("m = 0 schemes take window=None")
        else:
            if self.window is None or self.window.m != self.m:
                raise ValueError("window dimension must equal m")
        if self.m > 0:
            self._check_injectivity()

    def _check_injectivity(self):
        r = INJECTIVITY_RADIUS
        axes = [np.arange(-r, r + 1)] * (self.d + self.m)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.d + self.m)
        grid = grid[np.any(grid != 0, axis=1)]
        phys = grid @ self.basis.T[:, : self.d]
        scale = np.abs(self.basis[: self.d]).max()
        if (np.abs(phys).max(axis=1) < INJECTIVITY_TOL * scale).any():
            raise ValueError(
                "projection to physical space is not injective on the lattice "
                f"(nonzero vector with |p_G| < {INJECTIVITY_TOL} times the largest physical basis entry)"
            )

    @property
    def abs_det(self) -> float:
        return float(abs(np.linalg.det(self.basis)))


def lattice_scheme(basis) -> CutProjectScheme:
    """Scheme with m = 0: the generated set is the lattice spanned by ``basis``."""
    basis = np.asarray(basis, dtype=np.float64)
    return CutProjectScheme(d=len(basis), m=0, basis=basis, window=None)


def _lattice_points(basis: np.ndarray, region: Box) -> np.ndarray:
    """Every lattice vector ``basis @ z`` in the closed box ``region``, lexicographic in ``z``.

    The interval step of Fincke & Pohst (1985): the integer prefixes
    ``z[:-1]`` range over the inverse-basis bounding box of ``region``
    (inflated by 1 against rounding).  For each prefix the admissible interval
    of the last coordinate is solved in closed form against the region faces
    moved out by a rounding bound on ``basis @ z``, widened by 1, and only
    those candidates get the exact closed-box test.  The rounding bound keeps
    face points when a basis entry is tiny next to the others (``cos(pi/2)``).
    ``_ENUM_LIMIT`` caps the prefix count and the candidate count, each before
    the array it sizes is built.
    """
    region_lo, region_hi = np.array(region, dtype=np.float64).T
    pre = np.array(list(itertools.product(*region))) @ np.linalg.inv(basis).T
    # integer bounds stay doubles until both caps pass: a region past 2^63 would wrap in int64
    z_lo = np.floor(pre.min(axis=0)) - 1
    z_hi = np.ceil(pre.max(axis=0)) + 1
    n_prefixes = math.prod((z_hi[:-1] - z_lo[:-1] + 1).tolist())
    if not n_prefixes <= _ENUM_LIMIT:
        raise ArgumentError(f"enumeration of {n_prefixes:.17g} integer prefixes exceeds the limit")
    shape = tuple(int(k) for k in z_hi[:-1] - z_lo[:-1] + 1)
    prefixes = np.indices(shape).reshape(len(shape), int(n_prefixes)).T + z_lo[:-1]
    # last coordinate t: region_lo <= prefixes @ basis[:, :-1].T + t * basis[:, -1] <= region_hi,
    # up to the rounding of the dot products (a generous multiple of n * eps * sum |basis z|)
    slack = 4 * len(basis) * np.finfo(np.float64).eps * (np.abs(basis) @ np.maximum(-z_lo, z_hi))
    offset = prefixes @ basis[:, :-1].T
    col = basis[:, -1]
    free = col == 0
    step = np.where(free, 1.0, col)
    with np.errstate(over="ignore"):  # a tiny entry of the last column overflows to +-inf, then clips
        t_a = (region_lo - slack - offset) / step
        t_b = (region_hi + slack - offset) / step
    t_lo = np.where(free, -np.inf, np.minimum(t_a, t_b)).max(axis=1)
    t_hi = np.where(free, np.inf, np.maximum(t_a, t_b)).min(axis=1)
    first = np.clip(np.ceil(t_lo) - 1, z_lo[-1], z_hi[-1] + 1)
    last = np.clip(np.floor(t_hi) + 1, z_lo[-1] - 1, z_hi[-1])
    with np.errstate(over="ignore"):  # a count past every double is inf, refused below
        counts = np.maximum(last - first + 1, 0)
    total = counts.sum()
    if not total <= _ENUM_LIMIT:
        raise ArgumentError(f"enumeration of {total:.17g} integer candidates exceeds the limit")
    counts = counts.astype(np.int64)
    starts = np.cumsum(counts) - counts
    t = np.arange(int(total)) - np.repeat(starts - first, counts)
    ints = np.concatenate([np.repeat(prefixes, counts, axis=0), t[:, None]], axis=1)
    gamma = ints @ basis.T
    return gamma[points_in_box(gamma, region)]


def generate_model_set(scheme: CutProjectScheme, box) -> PointPatch:
    """All points ``p_G(gamma)`` with ``p_H(gamma)`` in the window and ``p_G(gamma)`` in ``box``.

    Enumeration is complete: every lattice point in ``box x bbox(window)`` is
    visited, so no qualifying point is missed.  An empty window yields an
    empty patch.
    """
    box = as_box(box, scheme.d)
    if scheme.m > 0 and scheme.window.is_empty:
        return PointPatch(dim=scheme.d, box=box, points=np.empty((0, scheme.d)))
    region = box if scheme.m == 0 else box + scheme.window.bounding_box()
    gamma = _lattice_points(scheme.basis, region)
    if scheme.m > 0:
        gamma = gamma[scheme.window.contains(gamma[:, scheme.d :])]
    try:
        return PointPatch(dim=scheme.d, box=box, points=gamma[:, : scheme.d])
    except ValueError as exc:  # every point lies in the box, so two distinct lattice points coincide
        mag = max(abs(v) for side in box for v in side)
        # for m = 0 only rounding can merge two lattice points; for m > 0 a non-injective projection can too
        if scheme.m == 0:
            cause = ", too coarse to resolve the lattice"
        else:
            cause = "; if that resolves the lattice, the scheme's projection is not injective"
        raise ValueError(
            f"{exc}: at the box's coordinates (magnitude {mag:.3g}) adjacent doubles are {np.spacing(mag):.3g} apart{cause}"
        ) from exc


def model_set_covolume(scheme: CutProjectScheme) -> float:
    """``|det basis| / vol(window)``; for m = 0 the lattice covolume ``|det basis|``."""
    if scheme.m == 0:
        return scheme.abs_det
    vol = scheme.window.volume
    if vol <= 0:
        raise EmptyWindowError("empty window")
    return scheme.abs_det / vol
