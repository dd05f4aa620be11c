"""Cut-and-project schemes: model sets in R^d from lattices in R^(d+m).

A scheme is a lattice basis in R^(d+m) together with a window in the internal
space R^m.  The generated set is the physical projection of the lattice points
whose internal projection falls in the window.  ``m = 0`` is allowed: the
window is then the empty box ``()``, whose volume is the empty product 1, and
the set is the lattice itself, with covolume ``|det basis|``; this is the
calibration case for every density test downstream.

A window is one half-open box ``[lo, hi)``, a ``Box`` of ``m`` pairs.  Half-open
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

from .errors import ArgumentError, DegenerateBasisError
from .pointset import GRID_LIMIT, Box, PointPatch, _row_blocks, as_box, box_volume, points_in_box

_ENUM_LIMIT = 200_000_000  # hard cap on integer prefixes, and on candidates, per enumeration
INJECTIVITY_RADIUS = 3  # integer coefficients in [-3, 3] are checked for a vanishing projection
INJECTIVITY_TOL = 1e-9  # relative to the largest physical basis entry


@dataclass(frozen=True, eq=False)
class CutProjectScheme:
    """Lattice basis in R^(d+m) plus an internal window box of ``m`` intervals (``()`` when ``m = 0``).

    The basis columns generate the lattice.  For ``m > 0`` construction runs
    a finite injectivity check: no nonzero integer combination with
    coordinates up to ``INJECTIVITY_RADIUS`` may have (numerically) vanishing
    physical part.  This is a necessary-condition check, not a proof; a search
    of more than ``pointset.GRID_LIMIT`` vectors is refused.  It and the
    singularity test are relative to the basis' scale, which ``2^k`` scaling
    never moves.  For ``m = 0`` the projection is the identity, and no check runs.
    """

    d: int
    m: int
    basis: np.ndarray
    window: Box = ()

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
        object.__setattr__(self, "window", as_box(self.window, self.m))
        if not 0 < (vol := box_volume(self.window)) < math.inf:  # a product of widths can underflow or overflow
            raise ValueError(f"window {self.window} has volume {vol}, not a positive finite number")
        if self.m:
            self._check_injectivity()

    def _check_injectivity(self):
        """Refuse a nonzero vector of ``[-r, r]^(d+m)`` with a vanishing physical part, one block at a time."""
        n = self.d + self.m
        side = 2 * INJECTIVITY_RADIUS + 1
        total = side**n
        if not total <= GRID_LIMIT:
            raise ArgumentError(f"injectivity search over {total} integer vectors at d + m = {n} exceeds the limit")
        phys_basis = self.basis.T[:, : self.d]
        bound = INJECTIVITY_TOL * np.abs(self.basis[: self.d]).max()
        for blk in _row_blocks(total, n):
            flat = np.arange(blk.start, blk.stop)
            grid = np.stack(np.unravel_index(flat, (side,) * n), axis=1) - INJECTIVITY_RADIUS
            # the zero vector, every digit r, is the middle flat index
            if ((np.abs(grid @ phys_basis).max(axis=1) < bound) & (flat != total // 2)).any():
                raise ValueError(
                    "projection to physical space is not injective on the lattice "
                    f"(nonzero vector with |p_G| < {INJECTIVITY_TOL} times the largest physical basis entry)"
                )


def lattice_scheme(basis) -> CutProjectScheme:
    """Scheme with m = 0: the generated set is the lattice spanned by ``basis``."""
    basis = np.asarray(basis, dtype=np.float64)
    return CutProjectScheme(d=len(basis), m=0, basis=basis)


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

    Enumeration is complete: every lattice point in ``box x window`` is
    visited, so no qualifying point is missed.  The window is half-open: an
    internal part ``y`` is kept iff ``lo <= y < hi`` on every axis.  For
    ``m = 0`` the window ``()`` has no axis, and every lattice point is kept.
    """
    box = as_box(box, scheme.d)
    gamma = _lattice_points(scheme.basis, box + scheme.window)
    lo, hi = np.array(scheme.window).reshape(scheme.m, 2).T
    y = gamma[:, scheme.d :]
    gamma = gamma[np.all((y >= lo) & (y < hi), axis=1)]
    try:
        return PointPatch(dim=scheme.d, box=box, points=gamma[:, : scheme.d])
    except ValueError as exc:  # every point lies in the box, so two distinct lattice points coincide
        mag = max(abs(v) for side in box for v in side)
        # rounding can merge two lattice points; for m > 0 a non-injective projection can too
        raise ValueError(
            f"{exc}: at the box's coordinates (magnitude {mag:.3g}) adjacent doubles are {np.spacing(mag):.3g} apart; "
            "if that resolves the lattice, the scheme's projection is not injective"
        ) from exc


def model_set_covolume(scheme: CutProjectScheme) -> float:
    """``|det basis| / vol(window)``: the lattice covolume ``|det basis|`` for m = 0, where ``vol(()) = 1``."""
    return float(abs(np.linalg.det(scheme.basis))) / box_volume(scheme.window)
