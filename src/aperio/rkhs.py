"""Translation-covariant reproducing kernels on R^d.

Two concrete kernels are provided:

* ``paley_wiener``: band limitation to a frequency box; the kernel factorizes
  into modulated sinc factors per coordinate and the critical density equals
  the band volume.
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


def _sinc_factor(u: np.ndarray, lo: float, hi: float, real: bool) -> np.ndarray:
    """Integral of exp(2 pi i w u) over [lo, hi]; diagonal limit hi - lo.

    Complex, ``exp(i pi (lo + hi) u) sin(pi w u) / (pi u)`` with ``w = hi -
    lo``.  With ``real`` (for a band symmetric about 0) the modulation
    factor is 1, and the factor is the real ``sin(pi w u) * (1 / (pi u))``,
    computed in place in two arrays.  That is the real part of the complex
    form bit for bit, since numpy divides a complex number by a real one as
    the product with its reciprocal; its imaginary part is exactly 0.
    """
    width = hi - lo
    small = np.abs(u) < 1e-308
    us = np.where(small, 1.0, u)
    if real:
        out = np.multiply(np.pi * width, us)
        np.sin(out, out=out)
        us *= np.pi
        np.divide(1.0, us, out=us)
        out *= us
    else:
        out = np.exp(1j * np.pi * (lo + hi) * u) * np.sin(np.pi * width * us) / (np.pi * us)
    out[small] = width
    return out


def _pw_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    real = not spec.conjugating_axes  # every band symmetric about 0: a real kernel
    out = np.ones((len(X), len(Y)), dtype=np.float64 if real else np.complex128)
    for blk in _row_blocks(len(X), 16 * len(Y)):
        diff = X[blk, None, :] - Y[None, :, :]
        for k, (lo, hi) in enumerate(spec.band):
            out[blk] *= _sinc_factor(diff[..., k], lo, hi, real)
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


def kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Matrix ``K[i, j] = k(xs[i], ys[j])`` of the kernel, one entry per pair of rows.

    A Paley-Wiener kernel whose every band is symmetric about 0 is real, and
    its matrix is ``float64``: each entry equals the real part of the complex
    form bit for bit (see ``_sinc_factor``), and the imaginary part it drops
    is exactly 0.  So Grams, anchor Grams and quotient matrices of such a
    kernel run the real LAPACK and BLAS routines.  Every other kernel gives a
    ``complex128`` matrix.

    Rows are filled in blocks of ``pointset.BLOCK_ELEMENTS / (16 len(ys))``
    rows.  In space dimensions up to 8 an entry holds fewer than 16 doubles
    of temporaries at once (its coordinate differences and one axis'
    factor, complex or real), so a block's temporaries stay under
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
    """
    X, Y = as_rows(xs, spec.space_dim), as_rows(ys, spec.space_dim)
    if spec.kind == "paley_wiener":
        return _pw_matrix(spec, X, Y)
    return _gabor_matrix(spec, X, Y)


def _local_max(values: np.ndarray, reach: int) -> np.ndarray:
    """Max over the cells within ``reach`` of each cell on every axis, the array clamped at its ends.

    A running max per axis, written into one output array with one scratch
    copy.  A step takes the max of the previous result ``b`` and of ``b``
    shifted by ``s`` cells either way, its end cells repeated: if ``b`` holds
    the maxima within ``w`` cells and ``s <= 2 w + 1``, the three windows join
    into the one within ``w + s`` cells, so the reach roughly triples per
    step.  A max is exact in any order, so this gives the same doubles as the
    full box.
    """
    out = values.copy()
    scratch = np.empty_like(values)
    for ax in range(values.ndim):
        n = values.shape[ax]

        def cut(start, stop):
            return (slice(None),) * ax + (slice(start, stop),)

        w = 0
        while w < reach:
            s = min(2 * w + 1, reach - w)
            m = min(s, n)  # a shift past the far end reads only the end cell
            np.copyto(scratch, out)
            for dst, src in (
                (cut(m, None), cut(None, n - m)),  # b[i - s]
                (cut(None, n - m), cut(m, None)),  # b[i + s]
                (cut(None, m), cut(None, 1)),  # b[0] where i - s < 0
                (cut(n - m, None), cut(n - 1, None)),  # b[n - 1] where i + s >= n
            ):
                np.maximum(out[dst], scratch[src], out=out[dst])
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
    grid sup (a running max per axis, clamped at the grid ends) plus a
    Riemann sum over ``[-trunc_radius, trunc_radius]^dim``.  A grid of more
    than ``pointset.GRID_LIMIT`` positions is refused before it is built;
    the kernel magnitudes are filled in row blocks of the flattened grid, so
    no array of all its points is ever built.
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
    _check_grid_size([float(span) + 1.0] * dim)  # Python floats overflow to inf without a warning
    count = int(span) + 1
    axis = np.linspace(-half, half, count)
    step = axis[1] - axis[0]
    shape = (count,) * dim
    origin = np.zeros((1, dim))
    mag = np.empty(count**dim)
    # a block's grid indices, coordinates and point rows hold about four values
    # per coordinate of a position, so a block of BLOCK_ELEMENTS / (4 dim)
    # positions stays within the budget; kernel_matrix bounds its own temporaries
    for blk in _row_blocks(len(mag), 4 * dim):
        pts = np.stack([axis[c] for c in np.unravel_index(np.arange(blk.start, blk.stop), shape)], axis=1)
        mag[blk] = np.abs(kernel_matrix(spec, pts, origin)[:, 0])
    del pts
    mag = mag.reshape(shape)
    local_max = _local_max(mag, int(round(q_radius / step)))
    inner = np.abs(axis) <= trunc_radius + 1e-12
    sl = tuple(np.ix_(*([np.where(inner)[0]] * dim)))
    norm_sq = float((local_max[sl] ** 2).sum() * step**dim)
    return math.sqrt(norm_sq)
