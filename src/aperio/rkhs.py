"""Translation-covariant reproducing kernels on R^d.

Two concrete kernels are provided:

* ``paley_wiener``: band limitation to a frequency box; the kernel is a
  real product of sinc factors, one per coordinate, times one phase for a
  band off 0, and the critical density equals the band volume.
* ``gabor_gaussian``: matrix coefficients of time-frequency shifts of the
  L2-normalized Gaussian window on R^(2n).  The shift convention is
  ``pi(x, w) f(t) = exp(2 pi i w t) f(t - x)`` with Heisenberg cocycle
  ``sigma((x, w), (x', w')) = exp(-2 pi i x' . w)``; any other cocycle
  convention yields unitarily equivalent Gram spectra, which is all the frame
  diagnostics consume.  With Lebesgue measure on R^(2n) the critical density
  is 1.  The inequalities checked downstream are products of critical density
  and covolume and therefore do not depend on this normalization choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, GridTooCoarseError
from .pointset import _check_grid_size, _row_blocks, as_box, as_rows

Band = tuple[tuple[float, float], ...]

# the square root of the smallest normal double: a Gaussian kernel entry below
# it is an exact 0, so no product of two entries can underflow (on x86 every
# underflowing product takes a slow microcode assist).
UNDERFLOW_FLOOR = 2.0**-511
# a real exponent below this gives |exp| < UNDERFLOW_FLOOR / e, floored without calling exp
_EXP_CUTOFF = math.log(UNDERFLOW_FLOOR) - 1.0
# the largest coordinate times the kernel's scale (kernel_matrix) that keeps every intermediate finite
COORDINATE_LIMIT = 2.0**500


@dataclass(frozen=True)
class KernelSpec:
    """A reproducing kernel: ``paley_wiener`` with a band box, or ``gabor_gaussian``.

    ``norm_sq_ke`` (the squared norm of the kernel at the identity) is the
    critical density separating sampling from interpolation: the product of
    ``widths``, and each Gram's diagonal.  A kernel is refused (``ArgumentError``)
    unless ``0 < c * c < inf`` for ``c = norm_sq_ke``; ``c ** 2`` raises past 1.3e154.
    """

    kind: str
    band: Band | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind == "paley_wiener":
            if not self.band:
                raise ValueError("paley_wiener kernel needs a band box")
            object.__setattr__(self, "band", as_box(self.band))
        elif self.kind == "gabor_gaussian":
            if not self.n or self.n < 1:
                raise ValueError("gabor_gaussian kernel needs n >= 1")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not 0 < (c := self.norm_sq_ke) * c < math.inf:
            raise ArgumentError(f"kernel critical density {c} must be positive and its square finite")

    @property
    def widths(self) -> tuple[float, ...]:
        """Per-axis reciprocal spacing at the critical density: the band widths, or 1 on R^(2n)."""
        if self.kind == "paley_wiener":
            return tuple(hi - lo for lo, hi in self.band)
        return (1.0,) * (2 * self.n)

    @property
    def space_dim(self) -> int:
        """Dimension of the space the points live in."""
        return len(self.widths)

    @property
    def norm_sq_ke(self) -> float:
        return math.prod(self.widths)

    @property
    def fixing_axes(self) -> tuple[int, ...]:
        """The axes of a reflection ``P`` with ``k(Px, Py) == k(x, y)`` bit for bit: every axis, or none.

        Negating every axis keeps ``x - y`` up to sign, the Gaussian kernel's phase and distance,
        and each factor of a band symmetric about 0.  A band with ``lo + hi != 0`` has
        ``k(-x, -y) = conj k(x, y)``, so its kernel gets no such reflection (``()``).
        """
        if self.kind == "paley_wiener" and any(lo + hi != 0 for lo, hi in self.band):
            return ()
        return tuple(range(self.space_dim))

    @property
    def conjugating_axes(self) -> tuple[int, ...]:
        """The axes of a reflection ``R`` with ``k(Rx, Ry) == conj k(x, y)`` bit for bit.

        For the Gaussian kernel the n time axes: the phase ``(x_q - x_p) . (w_p + w_q)`` changes
        sign and ``|p - q|`` does not.  For a Paley-Wiener kernel with a band not symmetric about 0,
        every axis.  Empty for a band symmetric about 0 on every axis, whose kernel is real.
        """
        if self.kind == "gabor_gaussian":
            return tuple(range(self.n))
        return () if self.fixing_axes else tuple(range(self.space_dim))


def paley_wiener(band) -> KernelSpec:
    """Band-limited kernel; ``band`` is a list of (lo, hi) frequency intervals."""
    return KernelSpec(kind="paley_wiener", band=tuple((lo, hi) for lo, hi in band))


def gabor_gaussian(n: int) -> KernelSpec:
    """Gaussian time-frequency kernel on R^(2n)."""
    return KernelSpec(kind="gabor_gaussian", n=n)


def _sinc_factor(u: np.ndarray, width: float) -> np.ndarray:
    """``sin(pi w u) * (1 / (pi u))`` for ``w = width``, with the limit ``w`` at ``u = 0``, in place in two arrays.

    The integral of ``exp(2 pi i v u)`` over ``[-w/2, w/2]``: one axis' factor
    of the kernel of a band centred at 0.  It is odd over odd in ``u``.
    """
    small = np.abs(u) < 1e-308
    us = np.where(small, 1.0, u)
    out = np.multiply(np.pi * width, us)
    np.sin(out, out=out)
    us *= np.pi
    np.divide(1.0, us, out=us)
    out *= us
    out[small] = width
    return out


def _pw_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    shifts = [lo + hi for lo, hi in spec.band]
    real = not any(shifts)  # every band symmetric about 0: a real kernel
    out = np.ones((len(X), len(Y)), dtype=np.float64 if real else np.complex128)
    for blk in _row_blocks(len(X), 16 * len(Y)):
        diff = X[blk, None, :] - Y[None, :, :]
        for k, (lo, hi) in enumerate(spec.band):
            out[blk] *= _sinc_factor(diff[..., k], hi - lo)
        if not real:  # a band off 0 modulates once: theta = sum_k (lo_k + hi_k) u_k, a left fold from 0
            theta = sum(shift * diff[..., k] for k, shift in enumerate(shifts))
            out[blk] *= np.exp(1j * np.pi * theta)
    return out


def _gabor_matrix(spec: KernelSpec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    n = spec.n
    out = np.empty((len(P), len(Q)), dtype=np.complex128)
    for blk in _row_blocks(len(P), 16 * len(Q)):
        p = P[blk]
        # phase exponent (x_q - x_p).(w_p + w_q), in units of pi*i, and |p - q|^2,
        # each a left fold from 0.0: the order np.sum takes for fewer than 8 terms
        expo = dist_sq = 0.0
        for k in range(n):
            expo = expo + (Q[:, k] - p[:, k, None]) * (p[:, n + k, None] + Q[:, n + k])
        for k in range(2 * n):
            dist_sq = dist_sq + (p[:, k, None] - Q[:, k]) ** 2
        rows = out[blk]
        rows.real = -(np.pi * dist_sq / 2.0)
        rows.imag = np.pi * expo
        small = rows.real < _EXP_CUTOFF
        np.exp(rows, out=rows, where=~small)
        np.copyto(rows, 0.0, where=small)
        _floor_underflow(rows)
    return out


def _floor_underflow(mat: np.ndarray) -> None:
    """Set every entry of magnitude below ``UNDERFLOW_FLOOR`` to an exact 0, in place."""
    np.copyto(mat, 0.0, where=np.abs(mat) < UNDERFLOW_FLOOR)


def check_reach(spec: KernelSpec, reach: float, what: str) -> None:
    """Refuse (``ValueError``, saying ``what`` reach) a largest ``|coordinate|`` past ``kernel_matrix``'s range."""
    scale = max(1.0, float(np.abs(spec.band).max())) if spec.kind == "paley_wiener" else math.sqrt(spec.space_dim)
    if not reach * scale <= COORDINATE_LIMIT:
        raise ValueError(f"{what} {reach:.3g}, past the kernel's finite range {COORDINATE_LIMIT / scale:.3g}")


def kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Matrix ``K[i, j] = k(xs[i], ys[j])`` of the kernel, one entry per pair of rows.

    A Paley-Wiener entry is the real product of ``_sinc_factor`` over the
    axes, times ``exp(i pi theta)``, ``theta = sum_k (lo_k + hi_k) u_k``, if
    some band has ``lo + hi != 0``.  Without that phase its matrix is
    ``float64``, so Grams, anchor Grams and quotient matrices run the real
    LAPACK and BLAS routines.  Every other kernel gives ``complex128``.

    Rows are filled in blocks of ``pointset.BLOCK_ELEMENTS / (16 len(ys))``
    rows.  In space dimensions up to 8 an entry holds fewer than 16 doubles
    of temporaries at once (its coordinate differences, and one axis' factor
    or ``theta`` and its phase), so a block's temporaries stay under
    ``BLOCK_ELEMENTS`` doubles and the call allocates little beyond its
    output.  Every entry is computed on its own, so the block size moves no
    bit.

    A Gaussian time-frequency entry with ``|k| < UNDERFLOW_FLOOR`` (2^-511)
    is an exact 0, bit for bit the floored full ``exp``; ``exp`` is skipped
    where the real exponent alone puts ``|k|`` below the floor.  So Grams,
    ``sampling_bounds``' anchor blocks and ``wiener_amalgam_norm`` all see
    the floored kernel.  An n x n Gram loses at most ``n 2^-511`` in norm,
    far below an eigensolver's own backward error ``n eps ||G||``; its
    eigenvalues stay bit for bit on lattices and may move by rounding
    elsewhere.  Paley-Wiener entries are not floored.

    Points are refused (``ValueError``) unless ``M s <= COORDINATE_LIMIT``
    (2^500), for ``M`` the largest ``|coordinate|`` in ``xs`` and ``ys`` and
    ``s`` the kernel's scale: ``max(1, E)`` for band edges at most ``E`` in
    modulus, ``sqrt(2n)`` on R^(2n).  Then every intermediate is finite: a
    difference ``u`` is at most ``2M``, ``pi (hi - lo) u`` at most ``4 pi E
    M < 2^504``, ``pi theta`` at most ``d`` times that, ``1 / (pi u)`` below
    2^1022 (``|u| >= 1e-308``), and the Gaussian phase and squared distance
    (``n`` and ``2n`` terms of at most ``4 M^2``) below 2^1002.  Both formulas
    are symmetric term by term (the phases ``theta`` and ``(x_q - x_p) . (w_p
    + w_q)``, each folded left, negate under a swap, the sinc factor is odd
    over odd), so ``kernel_matrix(X, X)`` equals its conjugate transpose bit
    for bit, signed zeros aside; no Gram is checked for it.
    """
    X, Y = as_rows(xs, spec.space_dim), as_rows(ys, spec.space_dim)
    check_reach(spec, float(max(np.abs(X).max(initial=0.0), np.abs(Y).max(initial=0.0))), "coordinates reach")
    if spec.kind == "paley_wiener":
        return _pw_matrix(spec, X, Y)
    return _gabor_matrix(spec, X, Y)


def _local_max(values: np.ndarray, reach: int) -> np.ndarray:
    """Max over the cells within ``reach`` of each cell of a 1-d array, clamped at its ends.

    A running max: a step takes the max of the previous result ``b`` and of
    ``b`` shifted by ``s`` cells either way, its end cells repeated.  If ``b``
    holds the maxima within ``w`` cells and ``s <= 2 w + 1``, the three
    windows join into the one within ``w + s`` cells, so the reach roughly
    triples per step.  A max is exact in any order, so this gives the same
    doubles as the full window.
    """
    out = values.copy()
    n = len(values)
    w = 0
    while w < reach:
        s = min(2 * w + 1, reach - w)
        m = min(s, n)  # a shift past the far end reads only the end cell
        b = out.copy()
        np.maximum(out[m:], b[: n - m], out=out[m:])  # b[i - s]
        np.maximum(out[: n - m], b[m:], out=out[: n - m])  # b[i + s]
        np.maximum(out[:m], b[0], out=out[:m])  # b[0] where i - s < 0
        np.maximum(out[n - m :], b[n - 1], out=out[n - m :])  # b[n - 1] where i + s >= n
        w += s
    return out


def wiener_amalgam_norm(
    spec: KernelSpec,
    q_radius: float,
    trunc_radius: float,
    grid_step: float,
) -> float:
    """Truncated L2 norm of the local maximum function of ``k_e``.

    The local maximum function takes the sup of ``|k_e|`` over sliding boxes
    of half-width ``q_radius``; a finite value is evidence that the kernel
    satisfies the localization (Wiener-amalgam) assumption.  Evaluation is a
    grid sup plus a Riemann sum over ``[-trunc_radius, trunc_radius]^dim``,
    one axis at a time.  Every kernel here is a product over its axes in
    modulus: ``|k_e(x)| = c prod_i f_i(x_i)`` for ``c = norm_sq_ke`` and
    ``f_i(t) = |k_e(t e_i)| / c``, which peaks at ``f_i(0) = 1``.  So the sup
    over a box and the sum over the product grid both factor: the norm is ``c
    sqrt(prod_i S_i * step^dim)``, with ``S_i`` the sum of squares of
    ``f_i``'s running max (clamped at the grid ends) over one axis' inner
    positions.  Each ``S_i`` lies between about 1 and the positions on an
    axis, so no sum overflows or underflows, whatever the band widths; the
    squares of ``|k_e|`` itself are subnormal where ``c`` is below 1e-154.
    A grid of more than ``pointset.GRID_LIMIT`` positions on one axis is
    refused before it is built.

    A Gaussian entry below ``UNDERFLOW_FLOOR`` (2^-511) is an exact 0 (see
    ``kernel_matrix``).  A factor below the floor puts the product below it
    too, so the per-axis form differs from the grid of entries only where
    every factor lies above the floor and their product below it: there it
    keeps a squared term below 2^-1022 where the grid has 0.  The terms near
    the origin are about 1, so even 10^8 such terms stay far below one ulp of
    the sum.
    """
    if not grid_step > 0:
        raise ArgumentError(f"grid_step must be positive, got {grid_step}")
    if not q_radius > 0:
        raise ArgumentError(f"q_radius must be positive, got {q_radius}")
    if not grid_step < q_radius:
        raise GridTooCoarseError("grid too coarse: need grid_step < q_radius")
    if not trunc_radius > q_radius:
        raise ArgumentError("trunc_radius must exceed q_radius")
    dim = spec.space_dim
    half = trunc_radius + q_radius
    span = np.ceil(2 * half / grid_step)  # inf for a tiny step, refused before int() sees it
    _check_grid_size([span + 1.0])
    count = int(span) + 1
    axis = np.linspace(-half, half, count)
    step = axis[1] - axis[0]
    reach = int(round(q_radius / step))
    inner = np.abs(axis) <= trunc_radius + 1e-12
    c = spec.norm_sq_ke
    sums = []
    for i in range(dim):
        pts = np.zeros((count, dim))
        pts[:, i] = axis
        f = np.abs(kernel_matrix(spec, pts, np.zeros((1, dim)))[:, 0]) / c
        sums.append(float((_local_max(f, reach)[inner] ** 2).sum()))
    return c * math.sqrt(math.prod(sums) * step**dim)
