import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import (
    PointPatch,
    beurling_density,
    frame_trend_report,
    generate_model_set,
    sampling_bounds,
    translate,
    verdict,
)
from aperio.cutproject import lattice_scheme
from aperio.density import DensityReport, FolnerSpec
from aperio import framekit, pointset
from aperio.errors import CoverageError, EmptyPatchError, GramSizeError
from aperio.framekit import MAX_GRAM_POINTS, _check_hermitian, _nonzero_min, _orbits, _reflections
from aperio.io_json import frame_report_to_jsonable
from aperio.pointset import points_in_box, restrict
from aperio.rkhs import UNDERFLOW_FLOOR, gabor_gaussian, kernel_matrix, paley_wiener

from conftest import (
    anchor_kernel_block,
    canonical_parseval_oracle,
    entries_eigenvalues,
    full_eigh_frame_report,
    full_eigh_sampling_bounds,
    full_matrix_frame_report,
    full_solve_frame_report,
    gram_eigenvalues,
    gram_entries,
    hermitian_defect_oracle,
    kernel_value,
    make_fibonacci_scheme,
    make_lattice_patch,
    make_product_fibonacci_scheme,
    matrix_rep_rows,
    point_split_frame_report,
    sampling_bounds_oracle,
    solver_inputs,
    unfloored_kernel_matrix,
)


PW = paley_wiener([(-0.5, 0.5)])
GG = gabor_gaussian(1)


def pw_patch(spacing, half_width):
    return make_lattice_patch(spacing, half_width)


class TestGram:
    def test_integer_lattice_gram_is_identity(self):
        patch = pw_patch(1.0, 20.0)
        assert np.abs(gram_entries(PW, patch) - np.eye(41)).max() < 1e-12
        assert np.abs(gram_eigenvalues(PW, patch) - 1.0).max() < 1e-12

    def test_even_lattice_gram_is_identity(self):
        patch = pw_patch(2.0, 20.0)
        assert np.abs(gram_entries(PW, patch) - np.eye(21)).max() < 1e-12
        assert np.abs(gram_eigenvalues(PW, patch) - 1.0).max() < 1e-12

    def test_two_point_gabor_gram(self):
        a = 0.8
        patch = PointPatch(dim=2, box=[(-2, 2), (-2, 2)], points=[[0.0, 0.0], [a, 0.0]])
        entries = gram_entries(GG, patch)
        expected = math.exp(-math.pi * a * a / 2)
        assert abs(entries[0, 1]) == pytest.approx(expected, abs=1e-12)
        assert entries[0, 0] == pytest.approx(1.0)
        assert gram_eigenvalues(GG, patch) == pytest.approx([1 - expected, 1 + expected], abs=1e-12)

    def test_entry_convention(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, size=(4, 2))
        patch = PointPatch(dim=2, box=[(-2, 2), (-2, 2)], points=pts)
        entries = gram_entries(GG, patch)
        for i in range(4):
            for j in range(4):
                assert entries[i, j] == pytest.approx(kernel_value(GG, patch.points[j], patch.points[i]), abs=1e-14)

    def test_eigenvalues_ascending(self):
        assert np.all(np.diff(gram_eigenvalues(PW, pw_patch(0.5, 10.0))) >= -1e-14)

    def test_patch_past_dense_limit_raises_before_any_kernel_entry(self, monkeypatch):
        patch = pw_patch(1.0, 2000.0)
        assert patch.n_points == MAX_GRAM_POINTS + 1

        def no_kernel_entries(*args):
            raise AssertionError("kernel entries built for a patch past the dense limit")

        monkeypatch.setattr(framekit, "kernel_matrix", no_kernel_entries)
        with pytest.raises(GramSizeError, match="dense limit is 4000"):
            frame_trend_report(PW, patch, (1000.0, 1500.0, 2000.0))
        with pytest.raises(GramSizeError, match="dense limit is 4000"):
            sampling_bounds(PW, patch)


class TestHermitianCheck:
    @pytest.mark.parametrize(
        "where, value",
        [((0, 1), math.nan), ((2, 0), math.nan), ((1, 2), math.inf), ((1, 1), math.inf), ((0, 0), 1 + 1j)],
        ids=["nan-upper", "nan-lower", "inf-upper", "inf-diagonal", "non-real-diagonal"],
    )
    def test_non_finite_or_non_hermitian_entry_refused(self, where, value):
        # eigvalsh reads only the lower triangle, so an upper NaN alone would pass unseen
        e = np.eye(3, dtype=complex)
        e[where] = value
        with pytest.raises(ValueError, match="not Hermitian"):
            entries_eigenvalues(e)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_blockwise_defect_matches_whole_matrix_oracle(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        block_rows = data.draw(st.integers(1, n), label="block_rows")  # one block to n blocks
        spare = data.draw(st.integers(0, n - 1), label="spare")  # budgets between whole rows too
        is_complex = data.draw(st.booleans(), label="complex")
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        a = rng.standard_normal((n, n)) * scale
        if is_complex:
            a = a + 1j * rng.standard_normal((n, n)) * scale
        e = (a + a.conj().T) / 2  # exactly Hermitian
        i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), label="entry")
        delta = data.draw(
            st.sampled_from([0.0, 1e-11, 1e-10, 1.0000001e-10, 1e-9, 1.0, math.nan, math.inf, -math.inf])
            | st.floats(-1e-8, 1e-8),
            label="delta",
        )
        if is_complex and data.draw(st.booleans(), label="imaginary"):
            delta = delta * 1j
        e[i, j] += delta
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pointset, "BLOCK_ELEMENTS", block_rows * n + spare)
            if hermitian_defect_oracle(e) <= 1e-10:
                assert np.array_equal(entries_eigenvalues(e), np.linalg.eigvalsh(e))
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    entries_eigenvalues(e)

    def test_defect_check_allocates_a_fraction_of_the_matrix(self, monkeypatch):
        # a whole-matrix check allocates two n x n complex temporaries (2.05x the matrix)
        monkeypatch.setattr(pointset, "BLOCK_ELEMENTS", 1 << 14)
        a = np.random.default_rng(3).standard_normal((400, 800)).view(complex)
        e = (a + a.conj().T) / 2
        orbits = _orbits(None, len(e))
        tracemalloc.start()
        try:
            _check_hermitian(e.T, orbits)  # without a reflection every row of G is stored, as a column
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * e.nbytes

    @pytest.mark.parametrize(
        "kernel, patch, n_reps, truncations",
        [
            (GG, make_lattice_patch(1.0, 6.0, dim=2), 49, (2.0, 4.0, 6.0)),  # P and R: 169 points
            (PW, pw_patch(0.5, 10.0), 21, (2.5, 5.0, 10.0)),  # P only, a real kernel: 41 points
            (paley_wiener([(-0.25, 0.75)]), pw_patch(0.5, 10.0), 21, (2.5, 5.0, 10.0)),  # R only
        ],
        ids=["gabor", "pw-symmetric", "pw-asymmetric"],
    )
    @pytest.mark.parametrize(
        "column, delta",
        [("representative", 2e-10), ("other", 2e-10 * 1j), ("other", math.nan)],
        ids=["defect-at-representative-column", "defect-at-other-column", "nan-at-other-column"],
    )
    def test_mutated_kernel_refused(self, monkeypatch, kernel, patch, n_reps, truncations, column, delta):
        # only the representatives' rows of G are built; an entry G[reps[3], j] of a column j that
        # represents no orbit has its Hermitian partner G[j, reps[3]] in another orbit's row
        orbits = _orbits(_reflections(kernel, patch.points), patch.n_points)
        assert len(orbits.reps) == n_reps
        j = orbits.reps[5] if column == "representative" else np.setdiff1d(np.arange(patch.n_points), orbits.reps)[7]
        assert all(m[orbits.reps[3]] != j for m, _, _ in orbits.group)  # the partner is another stored entry
        kernel_matrix_shapes = []

        def mutated(*args):
            out = kernel_matrix(*args)
            if not kernel_matrix_shapes:
                out[j, 3] += delta if np.iscomplexobj(out) else abs(delta)  # a real kernel: real defects only
            kernel_matrix_shapes.append(out.shape)
            return out

        monkeypatch.setattr(framekit, "kernel_matrix", mutated)
        with pytest.raises(ValueError, match="not Hermitian"):
            frame_trend_report(kernel, patch, truncations)
        assert kernel_matrix_shapes == [(patch.n_points, n_reps)]


class TestRieszBounds:
    def test_identity_gram(self):
        eigs = gram_eigenvalues(PW, pw_patch(1.0, 20.0))
        assert _nonzero_min(eigs) == pytest.approx(1.0, abs=1e-12)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_with_off_diagonal(self):
        for r in (0.2, 0.5, 0.9):
            eigs = entries_eigenvalues(np.array([[1.0, r], [r, 1.0]]))
            assert _nonzero_min(eigs) == pytest.approx(1 - r, abs=1e-12)
            assert eigs[-1] == pytest.approx(1 + r, abs=1e-12)

    def test_near_degenerate_added_half_integer(self):
        pts = np.sort(np.concatenate([np.arange(-20.0, 21), [0.5]]))[:, None]
        patch = PointPatch(dim=1, box=[(-20, 20)], points=pts)
        # 0.5 lies in the closed span of the integer samples
        assert gram_eigenvalues(PW, patch)[0] < 0.05

    def test_removing_a_point_interlaces(self):
        rng = np.random.default_rng(7)
        pts = np.sort(rng.uniform(-10, 10, size=24))[:, None]
        patch = PointPatch(dim=1, box=[(-10, 10)], points=pts)
        full = gram_eigenvalues(PW, patch)
        for drop in rng.choice(24, size=6, replace=False):
            keep = np.delete(np.arange(24), drop)
            sub = PointPatch(dim=1, box=[(-10, 10)], points=pts[keep])
            eigs = gram_eigenvalues(PW, sub)
            assert eigs[-1] <= full[-1] + 1e-10
            assert eigs[0] >= full[0] - 1e-10

    def test_bessel_bound_grows_with_clustering(self):
        # ell grows by duplicating the lattice at shrinking offsets; the upper
        # Riesz (Bessel) bound must grow without bound alongside
        previous = None
        for copies in (2, 4, 8):
            offsets = np.arange(copies) / (copies * 10.0)
            pts = np.sort((np.arange(-12.0, 13)[:, None] + offsets[None, :]).ravel())
            patch = PointPatch(dim=1, box=[(-12, 12.5)], points=pts[:, None])
            b = gram_eigenvalues(PW, patch)[-1]
            if previous is not None:
                assert b > previous
            previous = b


SAMPLING_KERNELS = {
    "gabor": (GG, 7),
    "gabor2": (gabor_gaussian(2), 2),
    "pw-symmetric-1d": (PW, 30),
    "pw-symmetric-2d": (paley_wiener([(-0.5, 0.5), (-0.75, 0.75)]), 6),
    "pw-asymmetric-1d": (paley_wiener([(-0.25, 0.75)]), 30),
    "pw-asymmetric-2d": (paley_wiener([(-0.5, 0.5), (0.0, 0.5)]), 6),
}


def lattice_spacing(kernel, density: float) -> float:
    return (1.0 / density) / kernel.norm_sq_ke ** (1.0 / kernel.space_dim)


def offset_patch(kernel, spacing: float, jitter: float, cells: int, shift: float, seed: int) -> PointPatch:
    """Lattice points of ``[-cells, cells]^d`` moved by up to ``jitter spacing`` on each axis, in a box not
    centred on 0: its ends are ``(-cells - 0.5) spacing`` and ``(cells + 0.5 - shift (2 cells + 1)) spacing``."""
    dim = kernel.space_dim
    axis = spacing * np.arange(-cells, cells + 1)
    grid = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1)
    pts = grid + np.random.default_rng(seed).uniform(-jitter, jitter, grid.shape) * spacing
    box = [(-(cells + 0.5) * spacing, (cells + 0.5 - shift * (2 * cells + 1)) * spacing)] * dim
    return PointPatch(dim=dim, box=box, points=pts[points_in_box(pts, box)])


class TestSamplingBounds:
    def test_empty_patch_is_refused_as_empty(self):
        patch = PointPatch(dim=1, box=[(-10.0, 10.0)], points=np.zeros((0, 1)))
        with pytest.raises(EmptyPatchError, match="empty patch"):
            sampling_bounds(PW, patch)

    def test_oversampled_lattice_near_two(self):
        a, b, n = sampling_bounds(PW, pw_patch(0.5, 40.0), margin=10)
        assert n == 58  # every anchor of [-30, 30] at spacing 1 / 0.95 is kept
        assert 1.8 <= a <= 2.2
        assert b == pytest.approx(2.0, abs=0.05)

    def test_critical_lattice_exact_duality(self):
        # with kernels anchored at the interior patch points the quotient is
        # exactly the Riesz spectrum of an orthonormal basis
        patch = pw_patch(1.0, 40.0)
        a, b = sampling_bounds_oracle(PW, patch, margin=10, at_points=True)
        eigs = gram_eigenvalues(PW, patch)
        ra, rb = _nonzero_min(eigs), eigs[-1]
        assert a == pytest.approx(1.0, abs=1e-6)
        assert b == pytest.approx(1.0, abs=1e-6)
        assert ra == pytest.approx(1.0, abs=1e-6)
        assert rb == pytest.approx(1.0, abs=1e-6)

    def test_undersampled_lattice_collapses(self):
        values = [
            sampling_bounds(PW, pw_patch(1.25, t), margin=0.25 * t)[0]
            for t in (40.0, 80.0, 160.0)
        ]
        assert values[0] < 0.1
        assert values[1] <= 0.5 * values[0]
        assert values[2] <= 0.5 * values[1]

    def test_margin_too_large(self):
        with pytest.raises(CoverageError, match="margin"):
            sampling_bounds(PW, pw_patch(1.0, 10.0), margin=11.0)

    def test_one_anchor_sized_product_alive_at_a_time(self):
        # 403 points, 319 anchors; keeping M, K and every product alive to the end peaked at 5.96x K
        patch = generate_model_set(make_fibonacci_scheme(), [(-450, 450)])
        k_bytes = anchor_kernel_block(PW, patch)[1].nbytes
        tracemalloc.start()
        try:
            sampling_bounds(PW, patch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * k_bytes

    def test_quotient_matrix_is_one_product_of_the_sampling_operator(self):
        # K W, its conjugate copy and the quotient matrix B set the peak, 7.8 MiB; forming K^H K first,
        # with a conjugate copy of K beside K, peaks at 9.4 MiB
        patch = make_lattice_patch(1.0, 12.0, dim=2)
        n_kept = sampling_bounds(GG, patch)[2]  # warm: numpy and LAPACK set up outside the trace
        assert (patch.n_points, n_kept) == (625, 324)
        kw_bytes, b_bytes = 16 * patch.n_points * n_kept, 16 * n_kept**2
        tracemalloc.start()
        try:
            sampling_bounds(GG, patch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * kw_bytes + 1.5 * b_bytes

    @pytest.mark.parametrize("case", list(SAMPLING_KERNELS))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        density=st.floats(0.6, 1.6),
        jitter=st.floats(0.0, 0.45),
        shift=st.floats(0.1, 0.4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_off_centre_patch_within_solver_resolution_of_full_eigh(self, case, density, jitter, shift, seed):
        # the anchor grid is centred at 0 and the patch moved instead, then M is solved as reflected blocks;
        # the full eigh of M on the box's own grid gives the same bounds up to rounding
        kernel, cells = SAMPLING_KERNELS[case]
        patch = offset_patch(kernel, lattice_spacing(kernel, density), jitter, cells, shift, seed)
        a, b, n = sampling_bounds(kernel, patch)
        want_a, want_b, want_n = full_eigh_sampling_bounds(kernel, patch)
        assert n == want_n
        delta = n * np.finfo(float).eps * want_b
        assert abs(a - want_a) <= delta
        assert abs(b - want_b) <= delta

    @pytest.mark.parametrize(
        "kernel, patch, truncations",
        [
            (GG, generate_model_set(lattice_scheme(np.diag([math.sqrt(0.8)] * 2)), [(-8, 7.1), (-7.4, 8)]), (4, 6, 8)),
            (
                gabor_gaussian(2),
                generate_model_set(lattice_scheme(np.eye(4)), [(-5, 4.5)] + [(-1.5, 1.7)] * 3),
                (1.5, 3.0, 5.0),
            ),
            (PW, generate_model_set(make_fibonacci_scheme(), [(-330, 290)]), (80, 160, 330)),
            (paley_wiener([(-0.25, 0.75)]), generate_model_set(make_fibonacci_scheme(), [(-90, 120)]), (30, 60, 120)),
        ],
        ids=["gabor-lattice", "gabor2-4d-lattice", "pw-fibonacci", "pw-asymmetric-fibonacci"],
    )
    def test_reports_equal_full_eigh_oracle(self, kernel, patch, truncations):
        # the top truncation keeps the patch box, which is not centred on 0
        assert all(lo + hi != 0 for lo, hi in restrict(patch, [(-truncations[-1], truncations[-1])] * patch.dim).box)
        got = frame_report_to_jsonable(frame_trend_report(kernel, patch, truncations))
        assert got == frame_report_to_jsonable(full_eigh_frame_report(kernel, patch, truncations))


FLOOR_PATCHES = {
    "gabor-lattice": (GG, generate_model_set(lattice_scheme(np.diag([math.sqrt(0.8)] * 2)), [(-12, 12)] * 2)),
    "gabor-product-fibonacci": (GG, generate_model_set(make_product_fibonacci_scheme(), [(-25, 25)] * 2)),
    "gabor2-4d-lattice": (
        gabor_gaussian(2),
        generate_model_set(lattice_scheme(np.eye(4)), [(-10, 10)] + [(-1.5, 1.5)] * 3),
    ),
    "pw-fibonacci": (PW, generate_model_set(make_fibonacci_scheme(), [(-100, 100)])),
}


def floor_cases(*ids):
    return pytest.mark.parametrize("kernel, patch", [FLOOR_PATCHES[i] for i in ids], ids=ids)


def gram_spectra(kernel, patch):
    """The Gram stage's eigenvalues and those of the unfloored oracle Gram, after checking the floor bites.

    The oracle Gram goes through the same solve: the smaller blocks of the
    patch's reflections, one ``eigvalsh`` for a patch without them.
    """
    entries = unfloored_kernel_matrix(kernel, patch.points, patch.points).T
    if kernel.kind == "gabor_gaussian":
        mag = np.abs(entries)
        assert ((mag > 0) & (mag < UNDERFLOW_FLOOR)).any()
    return gram_eigenvalues(kernel, patch), entries_eigenvalues(entries, _reflections(kernel, patch.points))


class TestUnderflowFloor:
    @floor_cases(*FLOOR_PATCHES)
    def test_bounds_match_unfloored_oracle_bit_for_bit(self, kernel, patch):
        if kernel.kind == "gabor_gaussian":
            mag = np.abs(anchor_kernel_block(kernel, patch)[1])
            assert ((mag > 0) & (mag < UNDERFLOW_FLOOR)).any()
        got = sampling_bounds(kernel, patch)[:2]
        want = sampling_bounds_oracle(kernel, patch)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @floor_cases("gabor-lattice", "gabor2-4d-lattice", "pw-fibonacci")
    def test_gram_spectrum_matches_unfloored_oracle_bit_for_bit(self, kernel, patch):
        # the Riesz bounds and the printed spectrum come from these eigenvalues
        got, want = gram_spectra(kernel, patch)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @floor_cases("gabor-product-fibonacci")
    def test_gram_spectrum_within_eigensolver_rounding_of_unfloored_oracle(self, kernel, patch):
        # solved whole, the floor moved 452 of 497 eigenvalues, by at most 3.7e-15 lambda_max:
        # LAPACK's Householder steps round differently, far inside n eps ||G||.  The patch is
        # point-symmetric, and its half-size blocks happen to give the same bits
        got, want = gram_spectra(kernel, patch)
        assert np.abs(got - want).max() <= len(got) * np.finfo(float).eps * want[-1]

    def test_no_solver_sees_an_entry_below_the_floor(self, monkeypatch):
        # unfloored, 112,036 of the 625-point Gram's 390,625 entries lay in (0, 2^-511)
        seen = []

        def checked(solver):
            def wrapped(a, *args, **kwargs):
                mag = np.abs(a)
                seen.append(int(((mag > 0) & (mag < UNDERFLOW_FLOOR)).sum()))
                return solver(a, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "eigvalsh", checked(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", checked(np.linalg.eigh))
        patch = make_lattice_patch(1.0, 12.0, dim=2)
        assert patch.n_points == 625
        frame_trend_report(GG, patch, (6.0, 9.0, 12.0))
        # an even and an odd block per Gram stage, then per sampling stage the anchor Gram's two real
        # blocks and the quotient
        assert len(seen) == 15
        assert seen == [0] * 15


def symmetric_patch(dim: int, spacing: float, jitter: float, cells: int, origin: bool, seed: int) -> PointPatch:
    """Jittered lattice points in the half-space before the origin (lexicographically), their negations, and
    the origin if ``origin``; each point moves by up to ``jitter spacing`` on every axis."""
    axis = spacing * np.arange(-cells, cells + 1)
    grid = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1)
    half = grid[: len(grid) // 2]  # the rows before the origin, which is the middle row
    half = half + np.random.default_rng(seed).uniform(-jitter, jitter, half.shape) * spacing
    pts = np.concatenate([half, -half] + ([np.zeros((1, dim))] if origin else []))
    edge = (cells + 0.5) * spacing
    return PointPatch(dim=dim, box=[(-edge, edge)] * dim, points=pts)


def reflected_patch(
    dim: int, reflections, spacing: float, jitter: float, cells: int, origin: bool, seed: int
) -> PointPatch:
    """A patch that each reflection (a tuple of axes to negate) maps onto itself.

    One lattice point per orbit of the group the reflections generate is
    jittered by up to ``jitter spacing`` on each axis where it is not 0, so
    points on an axis stay on it, and is reflected into every copy of its
    orbit.  The origin is in the patch if ``origin``.
    """
    group = {(1.0,) * dim}
    for axes in reflections:
        flip = tuple(-1.0 if k in axes else 1.0 for k in range(dim))
        group |= {tuple(a * b for a, b in zip(g, flip)) for g in group}
    signs = np.array(sorted(group))
    axis = np.arange(-cells, cells + 1)
    grid = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1)
    reps = np.array([z for z in grid if tuple(z) == min(tuple(s * z) for s in signs)])
    if not origin:
        reps = reps[np.any(reps != 0, axis=1)]
    moved = reps + np.random.default_rng(seed).uniform(-jitter, jitter, reps.shape) * (reps != 0)
    # a point on an axis is its own image under some reflections; + 0.0 turns -0.0 into 0.0
    pts = np.unique(np.concatenate([spacing * moved * s for s in signs]) + 0.0, axis=0)
    edge = (cells + 0.5) * spacing
    return PointPatch(dim=dim, box=[(-edge, edge)] * dim, points=pts)


SPLIT_KERNELS = {
    "pw-symmetric-1d": (paley_wiener([(-0.5, 0.5)]), 40, None),
    "pw-symmetric-2d": (paley_wiener([(-0.5, 0.5), (-0.75, 0.75)]), 6, None),
    "pw-asymmetric-1d": (paley_wiener([(-0.25, 0.75)]), 40, None),
    "pw-asymmetric-2d": (paley_wiener([(-0.5, 0.5), (0.0, 0.5)]), 6, None),
    "gabor": (GG, 6, None),
    # symmetric under the point reflection and the time reflection, with points on both axes
    "gabor-time-symmetric": (GG, 6, ((0, 1), (0,))),
}


class TestReflectionSplit:
    @pytest.mark.parametrize("case", list(SPLIT_KERNELS))
    # fixed examples: the report comparison flips an endpoint when the two solves straddle a grid
    # point, with odds of about 1e-4 per report
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        origin=st.booleans(),
        density=st.floats(0.6, 1.6),
        jitter=st.floats(0.0, 0.45),
        seed=st.integers(0, 2**32 - 1),
        drop=st.integers(0, 2**32 - 1),
    )
    def test_split_matches_the_full_solve(self, case, origin, density, jitter, seed, drop):
        kernel, cells, reflections = SPLIT_KERNELS[case]
        dim, spacing = kernel.space_dim, lattice_spacing(kernel, density)
        if reflections is None:
            patch = symmetric_patch(dim, spacing, jitter, cells, origin, seed)
        else:
            patch = reflected_patch(dim, reflections, spacing, jitter, cells, origin, seed)
            assert (patch.points == 0.0).any(axis=1).sum() > origin  # degenerate orbits on the axes
        p_map, r_map = _reflections(kernel, patch.points)
        # an asymmetric band gives k(-x, -y) = conj k(x, y): the point reflection is its conjugating one
        assert (p_map is None) == ("asymmetric" in case)
        if case != "gabor":  # a jittered point-symmetric patch is time-symmetric only without jitter
            assert (r_map is None) == case.startswith("pw-symmetric")
        full = np.linalg.eigvalsh(gram_entries(kernel, patch))
        got = gram_eigenvalues(kernel, patch)
        assert np.abs(got - full).max() <= len(full) * np.finfo(float).eps * np.abs(full).max()
        edge = patch.box[0][1]
        truncations = (edge / 3, 2 * edge / 3, edge)
        report = frame_report_to_jsonable(frame_trend_report(kernel, patch, truncations))
        assert report == frame_report_to_jsonable(full_solve_frame_report(kernel, patch, truncations))
        # without one point off every axis the patch has no reflection, and the solve is the plain one
        off_axes = np.flatnonzero(np.all(patch.points != 0.0, axis=1))
        keep = np.ones(patch.n_points, dtype=bool)
        keep[off_axes[drop % len(off_axes)]] = False
        lopsided = PointPatch(dim=dim, box=patch.box, points=patch.points[keep])
        assert _reflections(kernel, lopsided.points) is None
        want = np.linalg.eigvalsh(gram_entries(kernel, lopsided))
        assert np.array_equal(gram_eigenvalues(kernel, lopsided), want)

    @pytest.mark.parametrize("case", ["pw-symmetric-1d", "pw-symmetric-2d"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        origin=st.booleans(),
        density=st.floats(0.6, 1.6),
        jitter=st.floats(0.0, 0.45),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_kernel_solver_inputs_are_the_point_split_blocks(self, case, origin, density, jitter, seed):
        # a band symmetric about 0 has no conjugating reflection, so every Gram is solved as the even and
        # odd blocks of the point reflection alone, bit for bit: its reports cannot move
        kernel, cells, _ = SPLIT_KERNELS[case]
        patch = symmetric_patch(kernel.space_dim, lattice_spacing(kernel, density), jitter, cells, origin, seed)
        edge = patch.box[0][1]
        truncations = (edge / 3, 2 * edge / 3, edge)
        got = solver_inputs(frame_trend_report, kernel, patch, truncations)
        want = solver_inputs(point_split_frame_report, kernel, patch, truncations)
        assert len(got) == len(want) >= 9  # per truncation an even and an odd block, then its sampling quotient
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)

    def test_symmetric_truncations_are_solved_as_half_size_blocks(self):
        patch = make_lattice_patch(1.0, 12.0, dim=2)
        assert patch.n_points == 625
        truncations = (6.0, 9.0, 12.0)
        assert frame_trend_report(GG, patch, truncations).riesz_n == (169, 361, 625)  # the full Gram's n
        inputs = solver_inputs(frame_trend_report, GG, patch, truncations)
        # the truncations in turn, the largest first: its two blocks (the even one holds the origin), each
        # from its own representative rows, then its sampling quotient; the lattice is time-symmetric too,
        # so each block is real
        assert len(inputs) == 9
        blocks = [a for i, a in enumerate(inputs) if i % 3 < 2]
        assert [len(a) for a in blocks] == [313, 312, 181, 180, 85, 84]
        for a in blocks:
            assert a.dtype == np.float64
            # eigvalsh reads one triangle; the Gram is exactly Hermitian, so the block is exactly symmetric
            assert np.array_equal(a, a.T)


class TestRepresentativeRows:
    @pytest.mark.parametrize("case", list(SAMPLING_KERNELS))
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(density=st.floats(0.6, 1.6), shift=st.just(0.0) | st.floats(0.15, 0.4))
    def test_reports_equal_full_matrix_oracles(self, case, density, shift):
        # a lattice in a box cut off-centre by shift: the top truncation maps onto itself under no reflection, so
        # its store holds every row and its one block is the whole Gram, while the smallest truncation is centred
        # and has every reflection of the kernel, solved from its own representative rows; shift 0 gives a symmetric top
        kernel, cells = SAMPLING_KERNELS[case]
        spacing = lattice_spacing(kernel, density)
        patch = offset_patch(kernel, spacing, 0.0, cells, shift, 0)
        top = (cells + 0.5) * spacing
        truncations = (0.15 * top, 0.5 * top, top)
        inner = restrict(patch, [(-truncations[0], truncations[0])] * patch.dim).points
        assert _reflections(kernel, inner) is not None
        assert (_reflections(kernel, patch.points) is None) == (shift > 0)
        report = frame_trend_report(kernel, patch, truncations)
        oracle = full_matrix_frame_report(kernel, patch, truncations)
        assert frame_report_to_jsonable(report) == frame_report_to_jsonable(oracle)
        got, want = report.final_eigenvalues, oracle.final_eigenvalues
        if shift > 0:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= len(want) * np.finfo(float).eps * want[-1]

    def test_gram_stage_holds_the_stored_rows_and_less_than_half_a_gram(self):
        # 625 points, 169 representatives: the stored rows take 27% of the 6.25 MB complex Gram that used to be
        # built whole; besides them one parity's gathered arrays and block are alive (3.7 MB in all).  A margin
        # of 3/4 of the truncation keeps the sampling stages' patch-by-anchor kernel blocks, 625 x 36 at the top,
        # below that
        patch = make_lattice_patch(1.0, 12.0, dim=2)
        assert patch.n_points == 625
        gram_bytes = patch.n_points**2 * 16
        stored_bytes = patch.n_points * 169 * 16
        tracemalloc.start()
        try:
            frame_trend_report(GG, patch, (6.0, 9.0, 12.0), margin_frac=0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stored_bytes + 0.5 * gram_bytes < gram_bytes


class TestReflectedEigh:
    @pytest.mark.parametrize(
        "case, maps",
        [
            ("gabor", "PR"),
            ("gabor2", "PR"),
            ("pw-symmetric-1d", "P"),
            ("pw-symmetric-2d", "P"),
            ("pw-asymmetric-1d", "R"),
            ("pw-asymmetric-2d", "R"),
        ],
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_eigenpairs_of_centred_anchor_grams(self, case, maps, data):
        kernel, _ = SAMPLING_KERNELS[case]
        dim = kernel.space_dim
        reach = {1: 60.0, 2: 8.0, 4: 2.5}[dim]  # at most a few hundred anchors
        box = []
        for k in range(dim):
            lo = data.draw(st.floats(-reach, reach), label=f"lo{k}")
            box.append((lo, lo + data.draw(st.floats(0.3, reach), label=f"width{k}")))
        density = data.draw(st.floats(0.2, 2.0), label="density")
        grid, _ = framekit._anchor_grid(kernel, box, max(1, round(density * framekit.box_volume(box))))
        p_map, r_map = _reflections(kernel, grid)
        assert (p_map is not None, r_map is not None) == ("P" in maps, "R" in maps)
        M = kernel_matrix(kernel, grid, grid)
        s, V = framekit._projected_eigh(*matrix_rep_rows(M, (p_map, r_map)))
        a, eps, norm = len(M), np.finfo(float).eps, np.linalg.norm(M, 2)
        assert np.linalg.norm(V.conj().T @ V - np.eye(len(s)), 2) <= 10 * a * eps
        assert np.linalg.norm(M @ V - V * s, 2) <= 10 * a * eps * norm
        # every eigenvalue above the rank cut is found
        full = np.linalg.eigvalsh(M)
        full = full[full > framekit.RANK_TOL * full[-1]]
        assert len(s) == len(full)
        assert np.abs(np.sort(s) - full).max() <= 10 * a * eps * norm


class TestCanonicalParseval:
    def test_identity_is_fixed_point(self):
        entries = gram_entries(PW, pw_patch(1.0, 15.0))
        out, transform = canonical_parseval_oracle(entries)
        assert np.abs(out - np.eye(len(entries))).max() < 1e-10
        assert np.abs(transform - np.eye(len(entries))).max() < 1e-10

    def test_two_point_system_becomes_orthonormal(self):
        out, _ = canonical_parseval_oracle(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(entries_eigenvalues(out), [1.0, 1.0], atol=1e-12)

    def test_rank_deficient_three_point_system(self):
        # three nearly collinear kernel directions: rank 2 after tolerance
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-14]])
        out, _ = canonical_parseval_oracle(v @ v.T)
        assert np.allclose(entries_eigenvalues(out), [0.0, 1.0, 1.0], atol=1e-8)

    def test_output_is_projection(self):
        rng = np.random.default_rng(3)
        pts = np.sort(rng.uniform(-15, 15, size=60))[:, None]
        patch = PointPatch(dim=1, box=[(-15, 15)], points=pts)
        P, _ = canonical_parseval_oracle(gram_entries(PW, patch))
        assert np.linalg.norm(P @ P - P, 2) < 1e-8
        eigs = entries_eigenvalues(P)
        assert np.abs(eigs - np.round(eigs)).max() < 1e-8

    def test_zero_gram_rejected(self):
        with pytest.raises(ValueError, match="numerically zero"):
            canonical_parseval_oracle(np.zeros((3, 3)))


class TestSpectrumInvariance:
    def test_zero_shift_is_exact(self):
        patch = pw_patch(1.0, 10.0)
        assert np.array_equal(gram_eigenvalues(PW, translate(patch, [0.0])), gram_eigenvalues(PW, patch))

    def test_pw_shifts(self):
        rng = np.random.default_rng(9)
        pts = np.sort(rng.uniform(-8, 8, size=30))[:, None]
        patch = PointPatch(dim=1, box=[(-8, 8)], points=pts)
        base = gram_eigenvalues(PW, patch)
        for s in ([0.3], [1.7]):
            assert np.abs(gram_eigenvalues(PW, translate(patch, s)) - base).max() < 1e-10

    def test_gabor_shifts(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-3, 3, size=(25, 2))
        patch = PointPatch(dim=2, box=[(-3, 3), (-3, 3)], points=pts)
        base = gram_eigenvalues(GG, patch)
        for s in rng.uniform(-2, 2, size=(5, 2)):
            assert np.abs(gram_eigenvalues(GG, translate(patch, s)) - base).max() < 1e-8

    def test_phase_convention_change_preserves_spectra(self):
        # multiply by the diagonal unitary that converts to the symmetric
        # time-frequency convention; spectra must be unchanged
        rng = np.random.default_rng(12)
        pts = rng.uniform(-2, 2, size=(12, 2))
        patch = PointPatch(dim=2, box=[(-2, 2), (-2, 2)], points=pts)
        phases = np.exp(1j * np.pi * pts[:, 0] * pts[:, 1])
        alt = phases[:, None] * gram_entries(GG, patch) * np.conj(phases)[None, :]
        alt_eigs = np.linalg.eigvalsh((alt + alt.conj().T) / 2)
        assert np.abs(alt_eigs - gram_eigenvalues(GG, patch)).max() < 1e-8

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-3, 3, size=(10, 2))
        patch = PointPatch(dim=2, box=[(-3, 3), (-3, 3)], points=pts)
        perm = rng.permutation(10)
        permuted = gram_entries(GG, patch)[np.ix_(perm, perm)]
        eigs = np.linalg.eigvalsh((permuted + permuted.conj().T) / 2)
        assert np.abs(eigs - gram_eigenvalues(GG, patch)).max() < 1e-10


class TestFrameTrend:
    def test_oversampled_pw_gives_frame_evidence(self):
        report = frame_trend_report(PW, pw_patch(0.5, 160.0), [40, 80, 160])
        assert report.verdict == "frame_evidence"
        assert all(1.8 <= a <= 2.2 for a in report.sampling_lower)

    def test_undersampled_pw_gives_riesz_evidence(self):
        report = frame_trend_report(PW, pw_patch(1.25, 160.0), [40, 80, 160])
        assert report.frame_status == "refuted"
        assert report.riesz_status == "supported"
        assert report.verdict == "riesz_evidence"

    @pytest.mark.parametrize(
        "kernel, patch, truncations",
        [
            (
                GG,
                generate_model_set(lattice_scheme(np.diag([math.sqrt(0.8)] * 2)), [(-8, 8), (-8, 8)]),
                (4.0, 6.0, 8.0),
            ),
            (PW, generate_model_set(make_fibonacci_scheme(), [(-330, 330)]), (80.0, 160.0, 330.0)),
        ],
        ids=["gabor-lattice", "pw-fibonacci"],
    )
    def test_sliced_gram_matches_per_truncation_builds(self, kernel, patch, truncations):
        report = frame_trend_report(kernel, patch, truncations)
        r_lo, r_lo_raw, r_hi, r_n, s_lo, s_hi, s_n = [], [], [], [], [], [], []
        for t in truncations:
            sub = restrict(patch, tuple((-t, t) for _ in range(patch.dim)))
            eigs = gram_eigenvalues(kernel, sub)
            r_lo.append(_nonzero_min(eigs))
            r_lo_raw.append(eigs[0])
            r_hi.append(eigs[-1])
            r_n.append(len(eigs))
            sa, sb, sn = sampling_bounds(kernel, sub, margin=0.25 * t)
            s_lo.append(sa)
            s_hi.append(sb)
            s_n.append(sn)
        assert report.riesz_lower == tuple(r_lo)
        assert report.riesz_lower_raw == tuple(r_lo_raw)
        assert report.riesz_upper == tuple(r_hi)
        assert report.riesz_n == tuple(r_n)
        assert report.sampling_lower == tuple(s_lo)
        assert report.sampling_upper == tuple(s_hi)
        assert report.sampling_n == tuple(s_n)
        assert np.array_equal(report.final_eigenvalues, eigs)

    def test_top_gram_released_before_sampling(self, monkeypatch):
        refs = []

        def keep_ref(*args):
            rows = kernel_matrix(*args)
            refs.append(weakref.ref(rows))
            return rows

        def checked_sampling_bounds(*args, **kwargs):
            gram_calls.append(len(refs))
            assert all(r() is None for r in refs), "a Gram is alive during a sampling stage"
            return sampling_bounds(*args, **kwargs)

        gram_calls = []
        monkeypatch.setattr(framekit, "kernel_matrix", keep_ref)
        monkeypatch.setattr(framekit, "sampling_bounds", checked_sampling_bounds)
        report = frame_trend_report(PW, pw_patch(0.5, 160.0), [40, 80, 160])
        assert gram_calls[0] == 1  # the top Gram's rows; each smaller truncation builds its own after this stage
        assert len(report.sampling_lower) == 3

    def test_two_truncations_are_inconclusive(self):
        report = frame_trend_report(PW, pw_patch(1.0, 80.0), [40, 80])
        assert report.verdict in ("inconclusive", "frame_evidence")
        assert report.frame_status == "inconclusive"

    @pytest.mark.parametrize(
        "kernel, edge, truncations",
        [(PW, 10.0, (0.4, 5.0, 10.0)), (GG, 6.0, (0.4, 3.0, 6.0))],
        ids=["pw-1d", "gabor-2d"],
    )
    def test_empty_smallest_truncation_is_refused_before_any_kernel_entry(self, monkeypatch, kernel, edge, truncations):
        # the half-integer lattice (Z + 1/2)^d has no point in [-0.4, 0.4]^d, though the larger truncations have
        dim = kernel.space_dim
        axis = np.arange(-edge, edge) + 0.5
        points = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1)
        patch = PointPatch(dim=dim, box=[(-edge, edge)] * dim, points=points)
        calls = []
        monkeypatch.setattr(framekit, "_gram_eigvalsh", lambda *args: calls.append("gram"))
        monkeypatch.setattr(framekit, "kernel_matrix", lambda *args: calls.append("kernel_matrix"))
        with pytest.raises(EmptyPatchError, match=r"truncation 0\.4 holds no point"):
            frame_trend_report(kernel, patch, truncations)
        assert calls == []


class TestLargestEigenvalue:
    """A Gram's largest eigenvalue is at least its diagonal ``norm_sq_ke``, so no spectrum is empty or all zero."""

    @settings(max_examples=40, deadline=None)
    @given(
        kernel=st.sampled_from([PW, paley_wiener([(-0.25, 0.75)]), GG]),
        symmetric=st.booleans(),
        n=st.integers(1, 25),
        shift=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_at_least_half_the_diagonal(self, kernel, symmetric, n, shift, seed):
        # distinct points of the quarter grid in [-3, 3]^d, inside every sampling stage's interior box
        dim = kernel.space_dim
        cells = np.stack(np.meshgrid(*[np.arange(-12, 13)] * dim, indexing="ij"), axis=-1).reshape(-1, dim) / 4.0
        pts = cells[np.random.default_rng(seed).choice(len(cells), size=n, replace=False)]
        if symmetric:
            pts, shift = np.unique(np.vstack([pts, -pts]), axis=0), 0.0
        patch = PointPatch(dim=dim, box=[(-5.0 + shift, 5.0 + shift)] * dim, points=pts + shift)
        crit = kernel.norm_sq_ke
        assert framekit._gram_eigvalsh(kernel, patch.points)[-1] >= crit / 2
        largest, projected_eigh = [], framekit._projected_eigh

        def recorded(store, orbits):
            s, vecs = projected_eigh(store, orbits)
            largest.append(s.max())
            return s, vecs

        with mock.patch.object(framekit, "_projected_eigh", recorded):
            sampling_bounds(kernel, patch)
        assert largest[0] >= crit / 2


class TestVerdict:
    @staticmethod
    def density_for(spacing):
        patch = make_lattice_patch(spacing, 200.0)
        return beurling_density(patch, FolnerSpec(sizes=(10, 20, 40)))

    def test_undersampled_rules_out_sampling(self):
        v = verdict(PW, self.density_for(1.25), ell=1)
        assert not v.necessary_sampling_ok
        assert v.necessary_interpolation_ok
        assert any("sampling" in r for r in v.ruled_out)

    def test_oversampled_rules_out_interpolation(self):
        v = verdict(PW, self.density_for(0.8), ell=1)
        assert v.necessary_sampling_ok
        assert not v.necessary_interpolation_ok
        assert any("interpolation" in r for r in v.ruled_out)

    def test_critical_density_is_inconclusive(self):
        v = verdict(PW, self.density_for(1.0), ell=1)
        assert v.necessary_sampling_ok
        assert v.necessary_interpolation_ok
        assert v.ruled_out == ()
        assert "inconclusive" in v.notes

    def test_gabor_unit_lattice_inconclusive(self):
        patch = make_lattice_patch(1.0, 30.0, dim=2)
        report = beurling_density(patch, FolnerSpec(sizes=(5, 10)))
        v = verdict(GG, report, ell=1)
        assert v.necessary_sampling_ok
        assert v.necessary_interpolation_ok

    @pytest.mark.parametrize(
        "lower, upper, tol, ruled",
        [
            (0.0, 1.0, 0.0, "sampling (lower density below critical density)"),
            (0.0, 1.0, 1.5, "sampling (covolume form)"),  # a tol past the critical density passes the density form
            (0.0, 0.0, 0.0, "sampling (lower density below critical density)"),
            (0.0, 0.0, 1.5, "sampling (covolume form)"),
        ],
    )
    def test_zero_density_gives_an_infinite_covolume_bound(self, lower, upper, tol, ruled):
        # an infinite upper covolume fails the sampling form, and an infinite lower one passes the interpolation form
        report = DensityReport(((10.0, lower),), ((10.0, upper),), lower, upper, 0.0, "")
        v = verdict(PW, report, ell=1, tol=tol)
        assert v.covol_bounds.covol_plus_hi == math.inf
        assert (v.covol_bounds.covol_minus_hi == math.inf) == (upper == 0.0)
        assert not v.sampling_covol_ok and v.interpolation_covol_ok
        assert v.ruled_out == (ruled,)

    def test_covolume_form_consistency(self):
        v = verdict(PW, self.density_for(1.25), ell=1)
        # covolume form: crit * covol_- >= 1 fails since covol_- = 0.8
        assert not v.interpolation_covol_ok or not v.necessary_sampling_ok
