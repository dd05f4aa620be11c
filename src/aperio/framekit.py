"""Gram systems over patches: spectral frame/Riesz bounds, truncation trends
and necessary-density verdicts.

Finite truncations can only give *evidence* about infinite systems, so every
trend report covers at least three nested truncations and the verdict enum
requires a monotone trend.  Eigenproblems use the dense Hermitian solver (no
iterative methods), real symmetric for a real kernel.  Its rounding depends on
the BLAS build and thread count, so reports write spectra as brackets at the
solver's resolution (``io_json.SolverGrid``).

A kernel names its symmetries once, as generators that permute and negate
axes (``KernelSpec.symmetries``): ``P`` with ``k(Px, Py) = k(x, y)``, ``R``
with ``k(Rx, Ry) = conj k(x, y)``, and for the Gaussian kernel the
quarter-turn ``J(x, w) = (-w, x)``, with ``k(Jx, Jy) = d(x) k(x, y) conj
d(y)``, ``J^2 = P`` and ``R J R = J^-1``.  A Gram over a patch that
some of them map onto itself has its eigenvalues taken from smaller blocks,
one per character of the rotations ``J`` or ``P`` generate (Cantoni &
Butler 1976), each made real symmetric by ``R`` (A. Lee 1980).  Lattices and
model sets with symmetric windows, truncated to centred boxes, are such
patches; a square lattice in a centred square box has all three, and four
real blocks of about n / 4.  A block's entries are sums over the group of
the rows of orbit representatives (about n / 8 of n points under all
three), so only those are built (``_gram_eigvalsh``); without a symmetry
every point is one.
``sampling_bounds`` never leaves this orbit basis: its anchor grid, centred
at 0, is solved as such blocks, and each quotient block is formed from the
rows of the patch's own representatives (one block without a symmetry).
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


def _pairing(points: np.ndarray, images: np.ndarray) -> np.ndarray | None:
    """The index map ``T x_i = x_map[i]`` of a point map ``T``, from the images ``T^-1 x``, or ``None`` if they are no match.

    ``points`` are distinct and in lexicographic order, as a patch's rows and
    the anchor grid are (other rows give ``None``, and a whole Gram solve).
    Images are compared with the points as exact doubles: their ``lexsort``
    pairs them.
    """
    order = np.lexsort(images.T[::-1])
    return order if np.array_equal(points, images[order]) else None


def _symmetries(kernel: KernelSpec, points: np.ndarray) -> list:
    """The kernel's symmetries that hold exactly on the points: generators ``(map, (e, m), phase)`` of ``_orbits``.

    Each of ``kernel.symmetries``, ``T^-1 x = signs * x[perm]``, is kept
    where those images are the points themselves, as the index map
    ``_pairing`` gives.  A generator with an odd ``e`` (``J``) carries the
    phase ``kernel.turn_phase``, ``conj d`` at each point, so the Gram
    ``G[i, j] = k(x_j, x_i)`` has ``G[Ji, Jj] = conj d_i G[i, j] d_j``.
    """
    gens = []
    for perm, signs, key in kernel.symmetries:
        if (pairing := _pairing(points, points[:, list(perm)] * signs)) is not None:
            gens.append((pairing, key, kernel.turn_phase(points) if key[0] % 2 else None))
    return gens


class _Orbits(NamedTuple):
    group: list  # per element J^e R^m, the identity first: its index map, (e, m) and its phase (None for even e)
    reps: np.ndarray  # per orbit its smallest index, by stabiliser size, the largest first
    stab: np.ndarray  # per representative: the number of group elements fixing it
    blocks: list  # per character k: k and its halves, each (R-sign s, indices into reps, |orbit vector|^2 of each)


def _character(k: int, s: int, key: tuple) -> complex:
    """``chi(J^e R^m) = i^(k e) s^m`` for ``key = (e, m)``: ``1`` or ``-1`` for an even ``e``, as ints."""
    return (1, 1j, -1, -1j)[(k * key[0] + 2 * (s < 0) * key[1]) % 4]


def _orbits(gens: list, n: int) -> _Orbits:
    """The orbits on ``range(n)`` of the group closed from the generators ``gens`` (``_symmetries``).

    An element ``J^e R^m`` acts as ``T e_j = phi(j) e_(g j)`` for its index
    map ``g`` and phase ``phi``, antilinearly with ``R``; products follow ``R
    J = J^-1 R``, and ``T_h T_g`` has the phase ``phi_h(g j) phi_g(j)``,
    ``phi_g`` conjugated if ``h`` holds ``R``.  An even ``e`` has phase 1
    (``J^2 = P``).  Without a generator every index is its own orbit.  A
    block has a character ``i^k`` of the rotations (``chi(P) = (-1)^k``) and
    a half per sign ``s`` of ``R``.  The orbit vector of ``a`` in a half is
    ``u = sum_g chi(g) T_g e_a`` (``_character``); its entry at ``a`` is
    ``sigma``, the sum of ``chi(g) phi_g(a)`` over the ``g`` fixing ``a``, and
    ``|u|^2 = |sigma|^2 |orbit|``.  A half holds the representatives with
    ``sigma != 0``, but where an element with ``R`` fixes ``a``, the ``u`` of
    one half and ``i u`` of the other span one real line: the larger
    ``|sigma|`` keeps ``a``.  A block with no representative is dropped.
    """
    idx = np.arange(n)
    group, todo = {(0, 0): (idx, None)}, [(0, 0)]
    for e, m in todo:  # grows as elements are found
        g, phase = group[e, m]
        for h, (he, hm), h_phase in gens:
            if (key := ((he - e if hm else he + e) % 4, (hm + m) % 2)) not in group:
                phi = (1 if h_phase is None else h_phase[g]) * (1 if phase is None else phase.conj() if hm else phase)
                group[key] = (h[g], phi if key[0] % 2 else None)
                todo.append(key)
    group = [(g, key, phase) for key, (g, phase) in group.items()]
    reps = idx[np.array([idx <= g for g, _, _ in group]).all(axis=0)]
    fixed = np.array([g[reps] == reps for g, _, _ in group])
    order = np.argsort(-fixed.sum(axis=0), kind="stable")
    reps, fixed = reps[order], fixed[:, order]
    stab = fixed.sum(axis=0)
    at = np.array([np.where(f, 1 if phase is None else phase[reps], 0) for f, (_, _, phase) in zip(fixed, group)])
    by_r = fixed[[key[1] == 1 for _, key, _ in group]].any(axis=0)
    signs, blocks = (1, -1)[: 1 + any(key[1] for _, key, _ in group)], []
    for k in range(sum(1 for _, key, _ in group if not key[1])):
        sigma = [np.abs(np.array([_character(k, s, key) for _, key, _ in group]) @ at) for s in signs]
        first = sigma[0] >= sigma[-1]
        halves = [np.flatnonzero((a > 0) & (~by_r | (first if s > 0 else ~first))) for s, a in zip(signs, sigma)]
        if any(len(half) for half in halves):
            blocks.append((k, [(s, h, a[h] ** 2 * (len(group) // stab[h])) for s, h, a in zip(signs, halves, sigma)]))
    return _Orbits(group, reps, stab, blocks)


def _orbit_sums(store: np.ndarray, orbits: _Orbits, k: int, s: int, half: np.ndarray) -> np.ndarray:
    """``sum_g chi(g) phi_g(b) store[g b]`` over the representatives ``b`` of ``half``, for the character ``(k, s)``.

    ``store[j, a]`` is ``G[reps[a], j]``, the rows of ``G`` at the
    representatives (``n r`` entries, ``r`` about ``n / 8`` under ``P``,
    ``R`` and ``J``), so entry ``[b, a]`` is ``Z[reps[a], reps[half[b]]]``
    for ``Z = G u``, ``u`` the orbit vector of ``b`` (``_orbits``).  Each term
    gathers whole rows of ``store``, 64 at a time, into one new array, in
    the group's order, and adds or subtracts them, or with ``J``'s phase
    adds them times ``chi(g) phi_g``; ``store`` may be rectangular.
    """
    cols = orbits.reps[half]
    out = store[cols]
    for g, key, phase in orbits.group[1:]:
        unit = _character(k, s, key)
        for i in range(0, len(cols), 64):  # a temporary of 64 rows, not of len(cols)
            rows, gathered = out[i : i + 64], store[g[cols[i : i + 64]]]
            if phase is None:
                (np.add if unit > 0 else np.subtract)(rows, gathered, out=rows)
            else:
                gathered *= (unit * phase[cols[i : i + 64]])[:, None]
                rows += gathered
    return out


def _reflected_blocks(store: np.ndarray, orbits: _Orbits):
    """Yield the blocks of a Hermitian ``G`` that the group of ``orbits`` keeps, from ``store`` of ``_orbit_sums``.

    That is ``G[Pi, Pj] = G[i, j]``, ``G[Ri, Rj] = conj G[i, j]`` and
    ``G[Ji, Jj] = conj d_i G[i, j] d_j`` (``_symmetries``); only the rows of
    representatives are read, and ``G`` is never built.  Per block of
    ``orbits.blocks``, its halves' orbit sums are ``Z+`` and ``Z-``.  Without
    ``R`` the block is ``Z+``, complex as ``G`` is (Cantoni & Butler 1976).
    With ``R`` it is the real symmetric ``[[Re Z+, -Im Z-], [Im Z+, Re
    Z-]]``: ``R J R = J^-1``, so ``R`` keeps the block, and a Hermitian
    matrix with a conjugating symmetry is unitarily similar to a real one (A.
    Lee 1980).  Rows and columns are scaled by ``sqrt(|group| / |u|^2)``:
    ``1 / sqrt s`` for ``s`` maps fixing a representative off the diagonals,
    ``sqrt 1/2`` on an axis, ``1 / sqrt 8`` at the origin of all eight.

    The block is filled one half's columns at a time, from that half's sums,
    released before the other half's are built; then, with ``J`` in the
    group, it is averaged with its conjugate transpose, as ``J``'s phase
    holds to rounding only (without it the block is exactly Hermitian), and
    its entries below the floor are set to 0, as the Gaussian kernel's are.  The generator drops the block before
    it builds the next, so a caller that also drops it keeps one half's sums
    and the block, or the block and the solver's copy of it, alive besides
    ``store``.  A ``G`` without a symmetry, all of whose rows are stored, is
    ``store``'s transposed view.  Under ``P`` alone the blocks are those of
    the point reflection's even and odd split, bit for bit.

    With each block come ``k`` and its halves.  The block's row of a
    representative stands for its unit orbit vector, times ``i`` in the
    ``-1`` half.
    """
    if len(orbits.group) == 1:
        yield store.T, orbits.blocks[0]  # the whole store in order, with no sums to floor: G itself, not copied
        return
    for k, halves in orbits.blocks:
        if len(halves) == 1:
            block = _orbit_sums(store, orbits, k, 1, halves[0][1])[:, halves[0][1]].T
        else:
            (_, plus, _), (_, minus, _) = halves
            block = np.empty((len(plus) + len(minus),) * 2)
            for (s, half, _), unit, cols in zip(halves, (1, 1j), (block[:, : len(plus)], block[:, len(plus) :])):
                z = _orbit_sums(store, orbits, k, s, half)
                z *= unit  # i Z- has the parts -Im Z- and Re Z-
                cols[: len(plus)], cols[len(plus) :] = z.real[:, plus].T, z.imag[:, minus].T
                del z
        wts = np.sqrt(len(orbits.group) / np.concatenate([norms for _, _, norms in halves]))
        scaled = np.flatnonzero(wts != 1.0)
        block[scaled] *= wts[scaled, None]
        block[:, scaled] *= wts[scaled]
        if any(phase is not None for _, _, phase in orbits.group):
            block += block.conj().T
            block *= 0.5
        _floor_underflow(block)  # its temporaries are no larger than the solver's copy of the block
        yield block, (k, halves)
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
    kernel entry is built.  Then ``G``'s rows at its orbit representatives,
    ``store[j, a] = k(x_j, x_reps[a])``, are built and solved as the blocks of
    its symmetries (``_reflected_eigvalsh``); they are released on return.
    """
    if len(points) > MAX_GRAM_POINTS:
        raise GramSizeError(f"patch has {len(points)} points; dense limit is {MAX_GRAM_POINTS}")
    points = as_rows(points, kernel.space_dim)
    orbits = _orbits(_symmetries(kernel, points), len(points))
    return _reflected_eigvalsh(kernel_matrix(kernel, points, points[orbits.reps]), orbits)


def _anchor_eigh(store: np.ndarray, orbits: _Orbits) -> list:
    """Each block's eigenpairs (``eigh``) above ``RANK_TOL`` times the largest of all blocks, and its half."""
    solved = []
    for block, half in _reflected_blocks(store, orbits):
        solved.append((*np.linalg.eigh(block), half))
        del block
    cut = RANK_TOL * max(s[-1] for s, _, _ in solved)
    return [(s[s > cut], x[:, s > cut], half) for s, x, half in solved]


# anchor grid design for the sampling test class: the grid density is the
# smaller of (slightly above) the patch's interior density and (slightly
# below) the kernel's critical density, or the critical density itself for a
# patch below it where the critical grid is an orthogonal basis, perfectly
# conditioned (``KernelSpec.critical_basis``: Paley-Wiener).  Denser grids
# make the interior Gram numerically singular and the lower bound collapses
# to eigensolver noise at every truncation; sparser grids cannot express the
# aliasing combinations that witness undersampling, so the bound would stay
# flat for any lattice, or for a Paley-Wiener set just below the Nyquist one.
ANCHOR_DENSITY_CAP = 0.95
ANCHOR_DENSITY_BOOST = 1.05


def _anchor_grid(kernel: KernelSpec, interior_box, n_interior_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The anchor grid of ``sampling_bounds`` for a box, centred at 0, and the box's centre.

    Its density follows the rule above ``ANCHOR_DENSITY_CAP``.  Each axis is
    ``h (j - (k - 1) / 2)`` for ``j < k``: the ``k`` points of spacing ``h``
    that fit the box, centred on it, moved by minus its centre (0 alone if
    ``k = 1``, as where ``h`` overflows or the box's volume does, which makes
    the patch density 0 and ``h`` infinite).  Its coordinates are exact
    negatives of each other, so negating any axes maps the grid onto itself
    bit for bit, and so does a quarter-turn where two axes have the same
    ``h`` and ``k``.  A grid past the kernel's finite range
    (``rkhs.check_reach``) is refused here, naming the box it spans.
    """
    dim = kernel.space_dim
    crit = kernel.norm_sq_ke
    patch_density = n_interior_points / box_volume(interior_box)
    cap = 1.0 if kernel.critical_basis and patch_density < crit else ANCHOR_DENSITY_CAP
    rho = min(cap * crit, ANCHOR_DENSITY_BOOST * patch_density)
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
    the kernel's symmetries pair the patch's points about 0 (``_symmetries``)
    and it fits the interior box, so the same points give the same bounds in
    any box that leaves it room.  Otherwise the patch is moved by minus the
    interior box's centre: the kernels are translation covariant, so the
    quotient matrix is that of the grid centred on the box up to a diagonal
    unitary similarity.

    The grid maps onto itself under ``P`` and ``R``, and under ``J`` where it
    is square; ``J`` is used only where it maps the patch onto itself too, as
    otherwise the quotient blocks of its characters would not be orthogonal.
    The grid's Gram, the conjugate of the anchor Gram ``M[i, j] = k(g_i,
    g_j)``, is solved as the blocks of ``_reflected_blocks`` (``_anchor_eigh``)
    from its rows at the grid's representatives.  Its kept eigenvectors
    ``x``, scaled by ``s^-1/2`` and conjugated, are an orthonormal basis of
    the test functions, and the quotients are the eigenvalues of ``C^H C``
    for ``C`` their values at the patch's points (Fuhr, Grochenig, Haimi,
    Klotz & Romero 2017), or of its conjugate, which is formed.  A block's
    row ``a`` stands for the unit orbit vector ``u`` of ``a``, so its column
    of ``conj C`` before ``x`` is ``sum_g chi(g) phi_g(a) conj K[:, g a] /
    |u|`` for ``K[p, j] = k(x_p, g_j)``: a rectangular ``_orbit_sums`` of
    ``conj K[p, j] = k(g_j, x_p)``, times ``i`` in the ``-1`` half.  ``K`` is
    built at the patch's representatives only, as each ``C[g p]`` is ``C[p]``
    times a unit, conjugated with ``R``: ``C^H C`` is ``C^H diag(orbit sizes)
    C`` over them, real with ``R`` on the patch, and with ``P`` on it the
    blocks of different characters are orthogonal, each a quotient matrix of
    its own.  Without any symmetry ``C`` is ``K W``, for ``W`` the scaled
    eigenvectors of ``M``.

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
    a_gens, p_gens, (lo, hi) = _symmetries(kernel, grid), _symmetries(kernel, patch.points), np.array(interior_box).T
    p_gens = p_gens if (np.abs(grid).max(axis=0) <= np.minimum(-lo, hi)).all() else []  # centred on 0, or moved
    if not all(any(key == (1, 0) for _, key, _ in gens) for gens in (a_gens, p_gens)):  # J on both sides, or on neither
        a_gens, p_gens = ([gen for gen in gens if gen[1] != (1, 0)] for gens in (a_gens, p_gens))
    orbits = _orbits(a_gens, len(grid))
    solved = _anchor_eigh(kernel_matrix(kernel, grid, grid[orbits.reps]), orbits)  # the grid's Gram, rows at reps
    p_orbits = _orbits(p_gens, patch.n_points)
    points = patch.points if p_gens else patch.points - centre  # dropping J leaves P
    store = kernel_matrix(kernel, grid, points[p_orbits.reps])  # store[j, q] = conj K[reps[q], j]
    values, complex_c = [], np.iscomplexobj(store)  # per block conj C^T, a complex entry as its two parts side by side
    for s, x, (k, halves) in solved:
        sums = np.vstack([unit * _orbit_sums(store, orbits, k, sign, half) for (sign, half, _), unit in zip(halves, (1, 1j))])
        x = x * (np.sqrt(1.0 / np.concatenate([norms for _, _, norms in halves]))[:, None] / np.sqrt(s))
        values.append(x.T @ sums.view(np.float64))
    del store, sums
    sizes, spectra = len(p_orbits.group) // p_orbits.stab, []
    linear, real = (any(key[1] == m for _, key, _ in p_gens) for m in (0, 1))  # P or J, and R, on the patch
    for v in values if linear else [np.vstack(values)]:
        v *= np.sqrt(np.repeat(sizes, v.shape[1] // len(sizes)))  # C's row at a representative, times sqrt(orbit size)
        c = v.view(np.complex128) if complex_c and not real else v
        q = c.conj() @ c.T  # C^H diag(orbit sizes) C, conjugated, or from the real view its real part, with R on the patch
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
