import math
import random
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
from aperio import framekit
from aperio.errors import CoverageError, EmptyPatchError, GramSizeError
from aperio.framekit import MAX_GRAM_POINTS, _character, _nonzero_min, _symmetries
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
    interior_box_of,
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

    def test_points_past_the_kernel_range_are_refused(self):
        # their anchor Gram was NaN and kept no eigenvalue, which gave a bare IndexError at eigs[0]
        patch = PointPatch(dim=1, box=[(-1.1e301, 1.1e301)], points=[[-1e301], [0.0], [1e301]])
        with pytest.raises(ValueError, match="past the kernel's finite range 3.27e"):
            sampling_bounds(paley_wiener([(-1e8, 1e8)]), patch)

    def test_one_anchor_sized_product_alive_at_a_time(self):
        # 403 points, 319 anchors; keeping M, K and every product alive to the end peaked at 5.96x K
        patch = generate_model_set(make_fibonacci_scheme(), [(-450, 450)])
        k_bytes = anchor_kernel_block(PW, patch).nbytes
        tracemalloc.start()
        try:
            sampling_bounds(PW, patch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * k_bytes

    def test_quotient_matrix_is_one_product_of_the_sampling_operator(self):
        # the sampling operator stays in the orbit basis, one P-parity block at a time over the patch's 169
        # representatives: the peak is 3.6 MiB.  Expanded into the grid's index space, the complex n x a K and
        # K W, its conjugate copy and the quotient matrix B set it at 7.8 MiB
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
        assert peak < kw_bytes + b_bytes

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

    @pytest.mark.parametrize("case", list(SAMPLING_KERNELS))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        origin=st.booleans(),
        density=st.floats(0.6, 1.6),
        jitter=st.floats(0.0, 0.45),
        grow=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_symmetric_patch_in_off_centre_box_within_solver_resolution_of_full_eigh(
        self, case, origin, density, jitter, grow, seed
    ):
        # points paired about 0 in a box grown by different amounts on its two sides: the grid stays at 0 where it
        # fits the interior box and moves to the box's centre where not; the full eigh on the grid where it lies,
        # with the whole patch-by-anchor block, gives the same bounds up to rounding
        kernel, cells = SAMPLING_KERNELS[case]
        spacing = lattice_spacing(kernel, density)
        paired = symmetric_patch(kernel.space_dim, spacing, jitter, cells, origin, seed)
        box = [(lo - grow[0] * spacing, hi + grow[1] * spacing) for lo, hi in paired.box]
        patch = PointPatch(dim=paired.dim, box=box, points=paired.points)
        assert _symmetries(kernel, patch.points)
        a, b, n = sampling_bounds(kernel, patch)
        want_a, want_b, want_n = full_eigh_sampling_bounds(kernel, patch)
        assert n == want_n
        delta = n * np.finfo(float).eps * want_b
        assert abs(a - want_a) <= delta
        assert abs(b - want_b) <= delta

    def test_same_points_give_the_same_bounds_in_every_seeded_box(self):
        # the box offsets of the gabor2d benchmark workload at seeds 1-3 (perfbench/workloads.py) are below a
        # quarter spacing, so its top truncation holds the same 1,521 lattice points in three boxes off-centre by
        # different amounts; with the anchors on the points' symmetry centre, its bounds are the same bits
        spacing = math.sqrt(0.8)
        results = []
        for seed in (1, 2, 3):
            rng = random.Random(f"gabor2d:{seed}")
            box = [(-17.5 + off, 17.5 + off) for off in [rng.uniform(0.0, spacing / 4.0) for _ in range(2)]]
            patch = restrict(generate_model_set(lattice_scheme(np.diag([spacing] * 2)), box), [(-17.5, 17.5)] * 2)
            assert patch.n_points == 1521 and all(lo + hi > 0 for lo, hi in patch.box)
            results.append((patch.points, sampling_bounds(GG, patch, margin=0.25 * 17.5)))
        (points, (a, b, n)), *others = results
        assert n == 676
        assert a == pytest.approx(0.72005354135045, rel=1e-12) and b == pytest.approx(1.71062477138821, rel=1e-12)
        for other_points, other in others:
            assert np.array_equal(other_points, points)
            assert [v.hex() for v in other[:2]] == [a.hex(), b.hex()] and other[2] == n

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
    return gram_eigenvalues(kernel, patch), entries_eigenvalues(entries, _symmetries(kernel, patch.points))


class TestUnderflowFloor:
    @floor_cases(*FLOOR_PATCHES)
    def test_bounds_match_unfloored_oracle_bit_for_bit(self, kernel, patch):
        if kernel.kind == "gabor_gaussian":
            mag = np.abs(anchor_kernel_block(kernel, patch))
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
        # four blocks per Gram stage, one per character of the quarter-turn, then per sampling stage the anchor
        # Gram's four real blocks and the four real quotient blocks of the lattice's characters
        assert len(seen) == 36
        assert seen == [0] * 36


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
        keys = {key for _, key, _ in _symmetries(kernel, patch.points)}
        # an asymmetric band gives k(-x, -y) = conj k(x, y): the point reflection is its conjugating one
        assert ((2, 0) not in keys) == ("asymmetric" in case)
        if case != "gabor":  # a jittered point-symmetric patch is time-symmetric only without jitter
            assert ((0, 1) not in keys) == case.startswith("pw-symmetric")
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
        assert _symmetries(kernel, lopsided.points) == []
        want = np.linalg.eigvalsh(gram_entries(kernel, lopsided))
        assert np.array_equal(gram_eigenvalues(kernel, lopsided), want)

    @pytest.mark.parametrize("case", ["pw-symmetric-2d", "pw-asymmetric-2d", "gabor-time-symmetric"])
    def test_unsorted_rows_are_solved_whole(self, case):
        # the pairing reads the rows as sorted, as a patch's and the anchor grid's are: the same points in
        # another order get no reflection, and their Gram is solved whole
        kernel, cells, reflections = SPLIT_KERNELS[case]
        spacing = lattice_spacing(kernel, 1.2)
        if reflections is None:
            patch = symmetric_patch(kernel.space_dim, spacing, 0.3, cells, True, 5)
        else:
            patch = reflected_patch(kernel.space_dim, reflections, spacing, 0.3, cells, True, 5)
        assert _symmetries(kernel, patch.points)
        rows = patch.points[::-1]
        assert _symmetries(kernel, rows) == []
        want = np.linalg.eigvalsh(kernel_matrix(kernel, rows, rows).T)
        assert np.array_equal(framekit._gram_eigvalsh(kernel, rows), want)

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

    def test_symmetric_truncations_are_solved_as_quarter_size_blocks(self):
        patch = make_lattice_patch(1.0, 12.0, dim=2)
        assert patch.n_points == 625
        truncations = (6.0, 9.0, 12.0)
        report = frame_trend_report(GG, patch, truncations)
        assert report.riesz_n == (169, 361, 625)  # the full Gram's n
        inputs = solver_inputs(frame_trend_report, GG, patch, truncations)
        # the truncations in turn, the largest first: its four blocks, one per character of the quarter-turn (the
        # first holds the origin), each from its own representative rows, then its sampling quotient as one block
        # per character of the anchors; the lattice is time-symmetric too, so each block is real
        assert len(inputs) == 24
        blocks = [a for i, a in enumerate(inputs) if i % 8 < 4]
        quotients = [a for i, a in enumerate(inputs) if i % 8 >= 4]
        for n, n_sampling, gram, quotient in zip((625, 361, 169), report.sampling_n[::-1], *(
            [arrays[i : i + 4] for i in range(0, 12, 4)] for arrays in (blocks, quotients)
        )):
            assert sum(len(a) for a in gram) == n and all(abs(len(a) - n / 4) <= 1 for a in gram)
            assert sum(len(a) for a in quotient) == n_sampling and all(abs(len(a) - n_sampling / 4) <= 1 for a in quotient)
        for a in blocks + quotients:
            assert a.dtype == np.float64
            # eigvalsh reads one triangle; a Gram block is averaged with its transpose, as the quarter-turn's phase
            # holds to rounding only, and a quotient block is a matrix times its own transpose
            assert np.array_equal(a, a.T)


def symmetric_keys(points: np.ndarray, n: int) -> set:
    """The generators ``_symmetries`` should find for the Gaussian kernel on R^(2n), by comparing point sets."""
    have, keys = {tuple(p) for p in (points + 0.0).tolist()}, set()
    for key, images in (
        ((2, 0), -points),
        ((0, 1), points * ([-1.0] * n + [1.0] * n)),
        ((1, 0), np.concatenate([-points[:, n:], points[:, :n]], axis=1)),
    ):
        if {tuple(p) for p in (images + 0.0).tolist()} == have:
            keys.add(key)
    return keys


class TestQuarterTurn:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([1, 2]),
        spacing=st.floats(0.7, 1.3),
        ratio=st.just(1.0) | st.floats(0.8, 1.25),  # frequency over time spacing: 1 is a square lattice
        data=st.data(),
    )
    def test_block_spectra_within_solver_rounding_of_the_dense_gram(self, n, spacing, ratio, data):
        # a lattice in a box moved off 0 on each axis: by less than half a spacing it keeps the same symmetric
        # points, and the quarter-turn on a square lattice; by more it adds a row on one side and breaks every
        # symmetry.  A rectangular lattice keeps P and R but has no quarter-turn
        cells = data.draw(st.integers(2, 6) if n == 1 else st.integers(1, 2), label="cells")
        steps = [spacing] * n + [spacing * ratio] * n
        box = []
        for k, a in enumerate(steps):
            offset = data.draw(st.floats(-0.45, 0.45) | st.floats(0.55, 0.9), label=f"offset{k}")
            box.append((-(cells + 0.5 - offset) * a, (cells + 0.5 + offset) * a))
        patch = generate_model_set(lattice_scheme(np.diag(steps)), box)
        kernel = gabor_gaussian(n)
        keys = {key for _, key, _ in _symmetries(kernel, patch.points)}
        assert keys == symmetric_keys(patch.points, n)
        if ratio != 1.0:
            assert (1, 0) not in keys
        G = gram_entries(kernel, patch)
        full = np.linalg.eigvalsh(G)
        got = framekit._gram_eigvalsh(kernel, patch.points)
        assert np.abs(got - full).max() <= len(full) * np.finfo(float).eps * full[-1]

    @pytest.mark.parametrize("rows", [14, 10], ids=["square", "rectangular-truncation"])
    def test_sampling_bounds_within_1e_12_of_the_dense_oracle(self, rows):
        # gabor2d's middle truncation, 841 points: its anchor grid and its points map onto themselves under the
        # quarter-turn, so the anchor Gram and the quotient come in four blocks.  Cut to |w| <= 10 spacings in the
        # same square box, its 609 points lose the quarter-turn but its grid keeps it; both sides then use P and R
        spacing = math.sqrt(0.8)
        lattice = generate_model_set(lattice_scheme(np.diag([spacing] * 2)), [(-13.125, 13.125)] * 2)
        patch = restrict(lattice, [(-13.125, 13.125), (-(rows + 0.5) * spacing, (rows + 0.5) * spacing)])
        patch = PointPatch(dim=2, box=lattice.box, points=patch.points)
        assert patch.n_points == 29 * (2 * rows + 1)
        interior = interior_box_of(patch, None)
        grid, _ = framekit._anchor_grid(GG, interior, int(points_in_box(patch.points, interior).sum()))
        assert (1, 0) in {key for _, key, _ in _symmetries(GG, grid)}
        square = rows == 14
        assert ((1, 0) in {key for _, key, _ in _symmetries(GG, patch.points)}) == square
        a, b, n = sampling_bounds(GG, patch)
        want_a, want_b, want_n = full_eigh_sampling_bounds(GG, patch)
        assert n == want_n
        # relative to the quotient's norm: the truncation, undersampled outside |w| <= 10, has a lower bound of 3.5e-5
        assert abs(a - want_a) <= 1e-12 * want_b and abs(b - want_b) <= 1e-12 * want_b
        assert len(solver_inputs(sampling_bounds, GG, patch)) == (4 if square else 2)


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
        assert _symmetries(kernel, inner)
        assert (not _symmetries(kernel, patch.points)) == (shift > 0)
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


def orbit_vectors(orbits, n: int, k: int, halves) -> np.ndarray:
    """The unit orbit vectors that a block's rows stand for (``_reflected_blocks``), as the columns of an n x k matrix.

    The row of a representative ``a`` in the half of ``R``-sign ``s`` is
    ``sum_g chi(g) phi_g(a) e_(g a)`` for the character ``(k, s)``, times
    ``i`` in the ``-1`` half.  Each vector is normalised by its own norm,
    whose square must be the one its half records.
    """
    columns = []
    for (s, half, norms), unit in zip(halves, (1.0, 1j)):
        for a, norm_sq in zip(orbits.reps[half], norms):
            u = np.zeros(n, dtype=np.complex128)
            for g, key, phase in orbits.group:
                u[g[a]] += unit * _character(k, s, key) * (1.0 if phase is None else phase[a])
            assert np.linalg.norm(u) ** 2 == pytest.approx(norm_sq, rel=1e-12)
            columns.append(u / np.linalg.norm(u))
    return np.array(columns).reshape(-1, n).T


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
        # the grid's Gram, which sampling_bounds solves: its eigenvectors are those of M = k(g_i, g_j) conjugated
        kernel, _ = SAMPLING_KERNELS[case]
        dim = kernel.space_dim
        reach = {1: 60.0, 2: 8.0, 4: 2.5}[dim]  # at most a few hundred anchors
        square = data.draw(st.booleans(), label="square")  # as many anchors on every axis: J on a Gabor grid
        box, width = [], data.draw(st.floats(0.3, reach), label="width")
        for k in range(dim):
            lo = data.draw(st.floats(-reach, reach), label=f"lo{k}")
            box.append((lo, lo + (width if square else data.draw(st.floats(0.3, reach), label=f"width{k}"))))
        density = data.draw(st.floats(0.2, 2.0), label="density")
        grid, _ = framekit._anchor_grid(kernel, box, max(1, round(density * framekit.box_volume(box))))
        gens = _symmetries(kernel, grid)
        keys = {key for _, key, _ in gens}
        assert ((2, 0) in keys, (0, 1) in keys) == ("P" in maps, "R" in maps)
        if square:
            assert ((1, 0) in keys) == (kernel.kind == "gabor_gaussian")
        G = kernel_matrix(kernel, grid, grid).T
        store, orbits = matrix_rep_rows(G, gens)
        solved = framekit._anchor_eigh(store, orbits)
        s = np.concatenate([s for s, _, _ in solved])
        V = np.hstack([orbit_vectors(orbits, len(G), *half) @ x for _, x, half in solved])
        a, eps, norm = len(G), np.finfo(float).eps, np.linalg.norm(G, 2)
        assert np.linalg.norm(V.conj().T @ V - np.eye(len(s)), 2) <= 10 * a * eps
        assert np.linalg.norm(G @ V - V * s, 2) <= 10 * a * eps * norm
        # every eigenvalue above the rank cut is found
        full = np.linalg.eigvalsh(G)
        full = full[full > framekit.RANK_TOL * full[-1]]
        assert len(s) == len(full)
        assert np.abs(np.sort(s) - full).max() <= 10 * a * eps * norm


def involution_pair(counts, rng) -> tuple[np.ndarray, np.ndarray]:
    """Commuting involutions ``P`` and ``R`` on ``range(n)`` with the given numbers of orbits of each type.

    ``counts`` are the numbers of orbits fixed by both maps, by ``R`` alone,
    by ``PR`` alone, by ``P`` alone, and by neither; the indices are dealt
    to them in a random order.
    """
    sizes = (1, 2, 2, 2, 4)
    n = sum(c * size for c, size in zip(counts, sizes))
    labels = iter(rng.permutation(n))
    p_map, r_map = np.arange(n), np.arange(n)
    for kind, count in enumerate(counts):
        for _ in range(count):
            orbit = [next(labels) for _ in range(sizes[kind])]
            if kind == 4:  # P swaps a, b and c, d; R swaps a, c and b, d
                p_map[orbit], r_map[orbit] = orbit[1::-1] + orbit[:1:-1], orbit[2:] + orbit[:2]
            if kind in (1, 2):  # P swaps the pair; R fixes it, or swaps it as well
                p_map[orbit] = orbit[::-1]
            if kind in (2, 3):  # R swaps the pair; P fixes it, or swaps it as well
                r_map[orbit] = orbit[::-1]
    return p_map, r_map


def invariant_hermitian(p_map: np.ndarray, r_map: np.ndarray, rng) -> np.ndarray:
    """A random Hermitian ``G`` with ``G[Pi, Pj] = G[i, j]`` and ``G[Ri, Rj] = conj G[i, j]`` exactly.

    Each entry's value is drawn once and written to every image of its index
    pair under the group and the transpose, conjugated by each ``R`` and by
    the transpose; a pair that some conjugating image maps onto itself gets
    a real value.
    """
    n = len(p_map)
    group = [(np.arange(n), False), (p_map, False), (r_map, True), (p_map[r_map], True)]
    G = np.full((n, n), np.nan, dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            if np.isnan(G[i, j]):
                images = [(m[i], m[j], conj) for m, conj in group] + [(m[j], m[i], not conj) for m, conj in group]
                v = complex(*rng.normal(size=2))
                if any(conj and (a, b) == (i, j) for a, b, conj in images):
                    v = complex(v.real)
                for a, b, conj in images:
                    G[a, b] = v.conjugate() if conj else v
    return G


def quarter_turn_patch(origin: bool, axes: int, diagonals: int, generic: int, rng) -> np.ndarray:
    """Sorted points of R^2 in whole orbits of the eight maps ``P``, ``R`` and ``J`` generate.

    The origin if ``origin``, and the given numbers of orbits through ``(x,
    0)``, ``(x, x)`` and ``(x, w)`` for ``0 < w < x``, at random ``x`` and
    ``w``: on the diagonals ``J``'s phase ``exp(2 pi i x w)`` is no root of
    unity.
    """
    seeds = [(x, 0.0) for x in rng.uniform(0.2, 2.5, axes)] + [(x, x) for x in rng.uniform(0.2, 2.5, diagonals)]
    seeds += [(x, x * rng.uniform(0.1, 0.9)) for x in rng.uniform(0.2, 2.5, generic)]
    pts = [(0.0, 0.0)] if origin else []
    for x, w in seeds:
        for a, b in ((x, w), (-w, x), (-x, -w), (w, -x)):  # J^k (x, w), and their images under R
            pts += [(a, b), (-a, b)]
    return np.unique(np.array(pts) + 0.0, axis=0)  # + 0.0 turns -0.0 into 0.0


class TestOrbitLayout:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        counts=st.tuples(*[st.integers(0, 3)] * 4, st.integers(0, 4)).filter(any),  # at most 40 indices
        maps=st.sampled_from(["PR", "P", "R"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_halves_and_spectra_against_brute_force(self, counts, maps, seed):
        # every orbit type, the one fixed by P alone included, which no kernel gives today
        rng = np.random.default_rng(seed)
        p_map, r_map = involution_pair(counts, rng)
        G = invariant_hermitian(p_map, r_map, rng)
        n = len(G)
        pairing = (p_map if "P" in maps else None, r_map if "R" in maps else None)
        gens = [(m, key, None) for m, key in zip(pairing, ((2, 0), (0, 1))) if m is not None]
        orbits = framekit._orbits(gens, n)
        group = [(np.arange(n), 0, 0)] + [(m, n_p, 1 - n_p) for m, n_p in zip(pairing, (1, 0)) if m is not None]
        if len(group) == 3:
            group.append((p_map[r_map], 1, 1))
        assert sorted(orbits.reps) == sorted({min(int(m[a]) for m, _, _ in group) for a in range(n)})
        want = []
        for p in (1, -1) if pairing[0] is not None else (1,):
            halves = []
            for s in (1, -1) if pairing[1] is not None else (1,):
                half = set()
                for a in orbits.reps:
                    u = np.zeros(n)
                    for m, n_p, n_r in group:
                        u[m[a]] += p**n_p * s**n_r
                    if u.any():
                        half.add(int(a))
                halves.append(half)
            if any(halves):
                want.append((p, *halves))
        got = [((1, -1)[k], *(set(orbits.reps[h].tolist()) for _, h, _ in halves)) for k, halves in orbits.blocks]
        assert got == want
        full = np.linalg.eigvalsh(G)
        got_eigs = entries_eigenvalues(G, gens)
        assert len(got_eigs) == n
        assert np.abs(got_eigs - full).max() <= 10 * n * np.finfo(float).eps * np.abs(full).max()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        counts=st.tuples(st.booleans(), *[st.integers(0, 3)] * 3).filter(any),  # at most 49 points
        with_r=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_quarter_turn_halves_and_spectra_against_brute_force(self, counts, with_r, seed):
        # the origin, orbits of 4 on the axes and on the diagonals (fixed by PR or R, and by JR or RJ) and
        # generic orbits of 8, under the group P, R and J generate, or the rotations J generates alone
        points = quarter_turn_patch(*counts, np.random.default_rng(seed))
        n = len(points)
        gens = _symmetries(GG, points)
        assert [key for _, key, _ in gens] == [(2, 0), (0, 1), (1, 0)]
        gens = [gen for gen in gens if with_r or gen[1] != (0, 1)]
        orbits = framekit._orbits(gens, n)
        d = np.exp(2j * np.pi * points[:, 0] * points[:, 1])
        ops = []  # T_g e_j = phi_g(j) e_(g j), the closure checked against the point maps J^e R^m and their phases
        assert sorted(key for _, key, _ in orbits.group) == [(e, m) for e in range(4) for m in range(1 + with_r)]
        for g, (e, m), phase in orbits.group:
            images = points * [1.0 - 2.0 * m, 1.0]
            for _ in range(e):
                images = np.stack([-images[:, 1], images[:, 0]], axis=1)
            assert np.array_equal(points[g], images)
            assert (phase is None) == (e % 2 == 0)
            if phase is not None:
                assert np.abs(phase - (d if m else d.conj())).max() <= 1e-14
            ops.append((np.zeros((n, n), dtype=np.complex128), (e, m)))
            ops[-1][0][g, np.arange(n)] = 1.0 if phase is None else phase
        assert sorted(orbits.reps) == sorted({min(int(g[a]) for g, _, _ in orbits.group) for a in range(n)})
        signs, blocks = (1, -1)[: 1 + with_r], dict(orbits.blocks)
        t_r = [t for t, key in ops if key == (0, 1)]
        for k in range(4):
            # the character's subspace: the range of the projector onto chi(J) = i^k
            proj = sum(_character(k, 1, key) * t for t, key in ops if not key[1]) / 4
            halves = blocks.get(k, [])
            assert sum(len(h) for _, h, _ in halves) == round(np.trace(proj).real)
            if halves:
                V = orbit_vectors(orbits, n, k, halves)
                assert np.abs(V.conj().T @ V - np.eye(V.shape[1])).max() <= 1e-12
                assert np.abs(proj @ V - V).max() <= 1e-12
                for t in t_r:  # with R each row stands for a vector R maps onto itself: the block is real
                    assert np.abs(t @ V.conj() - V).max() <= 1e-12
            # the halves hold the representatives whose orbit vector is nonzero; where an element with R fixes one,
            # its two halves' vectors span one real line, and one half holds it
            members = {s: set(orbits.reps[h].tolist()) for s, h, _ in halves}
            for a in orbits.reps:
                nonzero = {s for s in signs if np.abs(sum(_character(k, s, key) * t[:, a] for t, key in ops)).max() > 1e-9}
                got = {s for s in signs if a in members.get(s, ())}
                if any(key[1] and g[a] == a for g, key, _ in orbits.group):
                    assert got <= nonzero and len(got) == bool(nonzero)
                else:
                    assert got == nonzero
        G = kernel_matrix(GG, points, points).T
        full = np.linalg.eigvalsh(G)
        got_eigs = entries_eigenvalues(G, gens)
        assert np.abs(got_eigs - full).max() <= 10 * n * np.finfo(float).eps * full[-1]

    def test_three_points_on_the_time_axis(self):
        # P and R agree on these points, so PR fixes the pair off the origin: the odd P-parity block has no
        # R-sign +1 half, only a -1 half, and must still be solved
        points = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        orbits = framekit._orbits(_symmetries(GG, points), len(points))
        assert [(k, [len(h) for _, h, _ in halves]) for k, halves in orbits.blocks] == [(0, [2, 0]), (1, [0, 1])]
        full = np.linalg.eigvalsh(kernel_matrix(GG, points, points).T)
        got = framekit._gram_eigvalsh(GG, points)
        assert len(got) == 3
        assert np.abs(got - full).max() <= 10 * 3 * np.finfo(float).eps * full[-1]


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
        largest, anchor_eigh = [], framekit._anchor_eigh

        def recorded(store, orbits):
            solved = anchor_eigh(store, orbits)
            largest.append(max(s.max() for s, _, _ in solved))
            return solved

        with mock.patch.object(framekit, "_anchor_eigh", recorded):
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
