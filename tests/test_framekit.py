import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import (
    PointPatch,
    beurling_density,
    build_gram,
    frame_trend_report,
    generate_model_set,
    sampling_bounds,
    translate,
    verdict,
)
from aperio.cutproject import lattice_scheme
from aperio.density import FolnerSpec
from aperio import framekit, pointset
from aperio.errors import CoverageError, GramSizeError, NotAFrameError
from aperio.framekit import MAX_GRAM_POINTS, gram_from_entries
from aperio.pointset import restrict
from aperio.rkhs import UNDERFLOW_FLOOR, gabor_gaussian, kernel_value, paley_wiener

from conftest import (
    anchor_kernel_block,
    canonical_parseval_oracle,
    hermitian_defect_oracle,
    make_fibonacci_scheme,
    make_lattice_patch,
    make_product_fibonacci_scheme,
    sampling_bounds_oracle,
    unfloored_kernel_matrix,
)


PW = paley_wiener([(-0.5, 0.5)])
GG = gabor_gaussian(1)


def pw_patch(spacing, half_width):
    return make_lattice_patch(spacing, half_width)


class TestBuildGram:
    def test_integer_lattice_gram_is_identity(self):
        gram = build_gram(PW, pw_patch(1.0, 20.0))
        assert gram.n == 41
        assert np.abs(gram.entries - np.eye(41)).max() < 1e-12

    def test_even_lattice_gram_is_identity(self):
        gram = build_gram(PW, pw_patch(2.0, 20.0))
        assert gram.n == 21
        assert np.abs(gram.entries - np.eye(21)).max() < 1e-12

    def test_two_point_gabor_gram(self):
        a = 0.8
        patch = PointPatch(dim=2, box=[(-2, 2), (-2, 2)], points=[[0.0, 0.0], [a, 0.0]])
        gram = build_gram(GG, patch)
        expected = math.exp(-math.pi * a * a / 2)
        assert abs(gram.entries[0, 1]) == pytest.approx(expected, abs=1e-12)
        assert gram.entries[0, 0] == pytest.approx(1.0)

    def test_entry_convention(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, size=(4, 2))
        patch = PointPatch(dim=2, box=[(-2, 2), (-2, 2)], points=pts)
        gram = build_gram(GG, patch)
        for i in range(4):
            for j in range(4):
                assert gram.entries[i, j] == pytest.approx(
                    kernel_value(GG, patch.points[j], patch.points[i]), abs=1e-14
                )

    def test_eigenvalues_cached_ascending(self):
        gram = build_gram(PW, pw_patch(0.5, 10.0))
        assert np.all(np.diff(gram.eigenvalues) >= -1e-14)

    def test_patch_past_dense_limit_raises_before_any_kernel_entry(self, monkeypatch):
        patch = pw_patch(1.0, 2000.0)
        assert patch.n_points == MAX_GRAM_POINTS + 1

        def no_kernel_entries(*args):
            raise AssertionError("kernel entries built for a patch past the dense limit")

        monkeypatch.setattr(framekit, "kernel_matrix", no_kernel_entries)
        with pytest.raises(GramSizeError, match="dense limit is 4000"):
            build_gram(PW, patch)
        with pytest.raises(GramSizeError, match="dense limit is 4000"):
            sampling_bounds(PW, patch)


class TestGramFromEntries:
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
            gram_from_entries(e)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_input_names_its_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
            gram_from_entries(np.zeros(shape))

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
                gram = gram_from_entries(e)
                assert np.array_equal(gram.eigenvalues, np.linalg.eigvalsh(e))
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    gram_from_entries(e)

    def test_defect_check_allocates_a_fraction_of_the_matrix(self, monkeypatch):
        # a whole-matrix check allocates two n x n complex temporaries (2.05x the matrix)
        monkeypatch.setattr(pointset, "BLOCK_ELEMENTS", 1 << 14)
        a = np.random.default_rng(3).standard_normal((400, 800)).view(complex)
        e = (a + a.conj().T) / 2
        tracemalloc.start()
        try:
            gram_from_entries(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * e.nbytes


class TestRieszBounds:
    def test_identity_gram(self):
        gram = build_gram(PW, pw_patch(1.0, 20.0))
        a, b = gram.nonzero_min, gram.lambda_max
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_with_off_diagonal(self):
        for r in (0.2, 0.5, 0.9):
            gram = gram_from_entries(np.array([[1.0, r], [r, 1.0]]))
            a, b = gram.nonzero_min, gram.lambda_max
            assert a == pytest.approx(1 - r, abs=1e-12)
            assert b == pytest.approx(1 + r, abs=1e-12)

    def test_near_degenerate_added_half_integer(self):
        pts = np.sort(np.concatenate([np.arange(-20.0, 21), [0.5]]))[:, None]
        patch = PointPatch(dim=1, box=[(-20, 20)], points=pts)
        gram = build_gram(PW, patch)
        # 0.5 lies in the closed span of the integer samples
        assert gram.lambda_min < 0.05

    def test_removing_a_point_interlaces(self):
        rng = np.random.default_rng(7)
        pts = np.sort(rng.uniform(-10, 10, size=24))[:, None]
        patch = PointPatch(dim=1, box=[(-10, 10)], points=pts)
        full = build_gram(PW, patch)
        for drop in rng.choice(24, size=6, replace=False):
            keep = np.delete(np.arange(24), drop)
            sub = PointPatch(dim=1, box=[(-10, 10)], points=pts[keep])
            gram = build_gram(PW, sub)
            assert gram.lambda_max <= full.lambda_max + 1e-10
            assert gram.lambda_min >= full.lambda_min - 1e-10

    def test_bessel_bound_grows_with_clustering(self):
        # ell grows by duplicating the lattice at shrinking offsets; the upper
        # Riesz (Bessel) bound must grow without bound alongside
        previous = None
        for copies in (2, 4, 8):
            offsets = np.arange(copies) / (copies * 10.0)
            pts = np.sort((np.arange(-12.0, 13)[:, None] + offsets[None, :]).ravel())
            patch = PointPatch(dim=1, box=[(-12, 12.5)], points=pts[:, None])
            b = build_gram(PW, patch).lambda_max
            if previous is not None:
                assert b > previous
            previous = b


class TestSamplingBounds:
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
        gram = build_gram(PW, patch)
        ra, rb = gram.nonzero_min, gram.lambda_max
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
    """``build_gram``'s eigenvalues and those of the unfloored oracle Gram, after checking the floor bites."""
    entries = unfloored_kernel_matrix(kernel, patch.points, patch.points).T
    if kernel.kind == "gabor_gaussian":
        mag = np.abs(entries)
        assert ((mag > 0) & (mag < UNDERFLOW_FLOOR)).any()
    return build_gram(kernel, patch).eigenvalues, np.linalg.eigvalsh(entries)


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
        # here the floor moves 452 of 497 eigenvalues, by at most 3.7e-15 lambda_max:
        # LAPACK's Householder steps round differently, far inside n eps ||G||
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
        assert len(seen) == 9  # three Gram stages, then an anchor Gram and a quotient per sampling stage
        assert seen == [0] * 9


class TestCanonicalParseval:
    def test_identity_is_fixed_point(self):
        gram = build_gram(PW, pw_patch(1.0, 15.0))
        out, transform = canonical_parseval_oracle(gram)
        assert np.abs(out.entries - np.eye(gram.n)).max() < 1e-10
        assert np.abs(transform - np.eye(gram.n)).max() < 1e-10

    def test_two_point_system_becomes_orthonormal(self):
        gram = gram_from_entries(np.array([[1.0, 0.5], [0.5, 1.0]]))
        out, _ = canonical_parseval_oracle(gram)
        assert np.allclose(out.eigenvalues, [1.0, 1.0], atol=1e-12)

    def test_rank_deficient_three_point_system(self):
        # three nearly collinear kernel directions: rank 2 after tolerance
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-14]])
        gram = gram_from_entries(v @ v.T)
        out, _ = canonical_parseval_oracle(gram)
        eigs = np.sort(out.eigenvalues)
        assert np.allclose(eigs, [0.0, 1.0, 1.0], atol=1e-8)

    def test_output_is_projection(self):
        rng = np.random.default_rng(3)
        pts = np.sort(rng.uniform(-15, 15, size=60))[:, None]
        patch = PointPatch(dim=1, box=[(-15, 15)], points=pts)
        gram = build_gram(PW, patch)
        out, _ = canonical_parseval_oracle(gram)
        P = out.entries
        assert np.linalg.norm(P @ P - P, 2) < 1e-8
        assert np.abs(out.eigenvalues - np.round(out.eigenvalues)).max() < 1e-8

    def test_zero_gram_rejected(self):
        gram = gram_from_entries(np.zeros((3, 3)))
        with pytest.raises(NotAFrameError, match="not a frame"):
            canonical_parseval_oracle(gram)


class TestSpectrumInvariance:
    def test_zero_shift_is_exact(self):
        patch = pw_patch(1.0, 10.0)
        assert np.array_equal(build_gram(PW, translate(patch, [0.0])).eigenvalues, build_gram(PW, patch).eigenvalues)

    def test_pw_shifts(self):
        rng = np.random.default_rng(9)
        pts = np.sort(rng.uniform(-8, 8, size=30))[:, None]
        patch = PointPatch(dim=1, box=[(-8, 8)], points=pts)
        base = build_gram(PW, patch).eigenvalues
        for s in ([0.3], [1.7]):
            assert np.abs(build_gram(PW, translate(patch, s)).eigenvalues - base).max() < 1e-10

    def test_gabor_shifts(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-3, 3, size=(25, 2))
        patch = PointPatch(dim=2, box=[(-3, 3), (-3, 3)], points=pts)
        base = build_gram(GG, patch).eigenvalues
        for s in rng.uniform(-2, 2, size=(5, 2)):
            assert np.abs(build_gram(GG, translate(patch, s)).eigenvalues - base).max() < 1e-8

    def test_phase_convention_change_preserves_spectra(self):
        # multiply by the diagonal unitary that converts to the symmetric
        # time-frequency convention; spectra must be unchanged
        rng = np.random.default_rng(12)
        pts = rng.uniform(-2, 2, size=(12, 2))
        patch = PointPatch(dim=2, box=[(-2, 2), (-2, 2)], points=pts)
        gram = build_gram(GG, patch)
        phases = np.exp(1j * np.pi * pts[:, 0] * pts[:, 1])
        alt = phases[:, None] * gram.entries * np.conj(phases)[None, :]
        alt_eigs = np.linalg.eigvalsh((alt + alt.conj().T) / 2)
        assert np.abs(alt_eigs - gram.eigenvalues).max() < 1e-8

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-3, 3, size=(10, 2))
        patch = PointPatch(dim=2, box=[(-3, 3), (-3, 3)], points=pts)
        gram = build_gram(GG, patch)
        perm = rng.permutation(10)
        permuted = gram.entries[np.ix_(perm, perm)]
        eigs = np.linalg.eigvalsh((permuted + permuted.conj().T) / 2)
        assert np.abs(eigs - gram.eigenvalues).max() < 1e-10


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
            gram = build_gram(kernel, sub)
            r_lo.append(gram.nonzero_min)
            r_lo_raw.append(gram.lambda_min)
            r_hi.append(gram.lambda_max)
            r_n.append(gram.n)
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
        assert np.array_equal(report.final_eigenvalues, gram.eigenvalues)

    def test_top_gram_released_before_sampling(self, monkeypatch):
        refs = []

        def keep_ref(fn):
            def wrapped(*args, **kwargs):
                gram = fn(*args, **kwargs)
                refs.append(weakref.ref(gram.entries))
                return gram

            return wrapped

        def checked_sampling_bounds(*args, **kwargs):
            assert all(r() is None for r in refs), "a Gram is alive during a sampling stage"
            return sampling_bounds(*args, **kwargs)

        monkeypatch.setattr(framekit, "build_gram", keep_ref(framekit.build_gram))
        monkeypatch.setattr(framekit, "gram_from_entries", keep_ref(framekit.gram_from_entries))
        monkeypatch.setattr(framekit, "sampling_bounds", checked_sampling_bounds)
        report = frame_trend_report(PW, pw_patch(0.5, 160.0), [40, 80, 160])
        assert len(refs) == 4  # the top Gram, recorded twice, and two principal submatrices
        assert len(report.sampling_lower) == 3

    def test_two_truncations_are_inconclusive(self):
        report = frame_trend_report(PW, pw_patch(1.0, 80.0), [40, 80])
        assert report.verdict in ("inconclusive", "frame_evidence")
        assert report.frame_status == "inconclusive"


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

    def test_covolume_form_consistency(self):
        v = verdict(PW, self.density_for(1.25), ell=1)
        # covolume form: crit * covol_- >= 1 fails since covol_- = 0.8
        assert not v.interpolation_covol_ok or not v.necessary_sampling_ok
