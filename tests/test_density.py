import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aperio import (
    FolnerSpec,
    PointPatch,
    beurling_density,
    covolume_bounds_from_density,
    covolume_ergodic_estimate,
    generate_model_set,
    hull_beurling_density,
    translate,
    weil_check,
)
from aperio import density as density_mod
from aperio.cutproject import lattice_scheme
from aperio.errors import PatchSizeError
from aperio.hull import grid_translates, transversal_translates
from aperio.pointset import _closed_window_extremum, as_box, restrict, shrink_box

from conftest import (
    SQRT5,
    ergodic_counts_oracle,
    extrema_grid_oracle,
    extrema_rational,
    make_lattice_patch,
    make_product_fibonacci_scheme,
    make_satellites_patch,
)

SPEC_40 = FolnerSpec(sizes=(5, 10, 20, 40))


class TestLatticeCalibration:
    @pytest.mark.parametrize("spacing", [0.5, 1.0, 2.0])
    def test_density_is_reciprocal_spacing(self, spacing):
        patch = make_lattice_patch(spacing, 200.0)
        report = beurling_density(patch, SPEC_40)
        n_max = report.sizes[-1]
        tol = 1 / (2 * n_max) + 1e-9
        assert report.extrapolated_lower == pytest.approx(1 / spacing, abs=tol)
        assert report.extrapolated_upper == pytest.approx(1 / spacing, abs=tol)

    def test_unit_lattice_exact_sweep_values(self, z_patch):
        report = beurling_density(z_patch, SPEC_40)
        for n, lo in report.lower:
            assert lo == pytest.approx(1.0)
        for n, hi in report.upper:
            assert hi == pytest.approx(1.0 + 1.0 / (2 * n))

    def test_2d_lattice_grid_estimate(self):
        patch = make_lattice_patch(1.0, 30.0, dim=2)
        report = beurling_density(patch, FolnerSpec(sizes=(5, 10), translate_grid_step=0.25))
        assert report.extrapolated_lower == pytest.approx(1.0, abs=0.01)
        assert report.extrapolated_upper == pytest.approx(1.0, abs=0.11)

    def test_2d_fibonacci_extrema_are_exact(self):
        # the benchmark's fib2d patch at seed 1; a translate grid of step 0.25
        # misses both extrema (it finds sup 0.2125 and inf 0.1975)
        box = [(-29.930514065136148, 30.069485934863852), (-29.802675764436163, 30.197324235563837)]
        patch = generate_model_set(make_product_fibonacci_scheme(), box)
        assert patch.n_points == 718
        report = beurling_density(patch, FolnerSpec(sizes=(10, 20)))
        assert report.method == ("exact", "exact")
        assert report.upper[0] == (10.0, 0.215)
        assert report.lower[1] == (20.0, 0.196875)

    def test_translation_invariance(self):
        patch = make_lattice_patch(1.0, 60.0)
        spec = FolnerSpec(sizes=(5, 10))
        base = beurling_density(patch, spec)
        moved = beurling_density(translate(patch, [0.375]), spec)  # k + 0.375 is exact in binary
        assert base.lower == moved.lower
        assert base.upper == moved.upper

    def test_infeasible_size_names_max(self):
        patch = make_lattice_patch(1.0, 30.0)
        with pytest.raises(PatchSizeError, match="max feasible n is 30"):
            beurling_density(patch, FolnerSpec(sizes=(10, 31)))


class TestExactExtrema:
    """In d <= 2 a density report states the extrema of the points as stored, whatever their rounding."""

    @pytest.mark.parametrize(
        "dim, half_width, lower",
        [(1, 60.0, ((5.0, 0.9), (10.0, 0.95))), (2, 30.0, ((5.0, 0.81), (10.0, 0.9025)))],
    )
    def test_float_translated_lattice(self, dim, half_width, lower):
        # points fl(k + 0.37): two of them 2n apart can differ by 2n plus an ulp,
        # so a closed window of side 2n fits between them; the untranslated lattice gives 1.0
        patch = translate(make_lattice_patch(1.0, half_width, dim=dim), [0.37] * dim)
        report = beurling_density(patch, FolnerSpec(sizes=(5, 10)))
        assert report.method == ("exact", "exact")
        assert report.lower == lower
        for (n, lo), (_, hi) in zip(report.lower, report.upper):
            least, most = extrema_rational(patch.points, n, shrink_box(patch.box, n))
            assert (lo, hi) == (least / (2 * n) ** dim, most / (2 * n) ** dim)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_counts_match_rational_oracle(self, data):
        dim = data.draw(st.sampled_from([1, 2]))
        offset = data.draw(st.sampled_from([0.0, 1e4, -1e4 + 0.37]) | st.floats(-1e4, 1e4))
        if data.draw(st.booleans()):  # a translated lattice, with window sides that are multiples of its spacing
            spacing = data.draw(st.sampled_from([0.1, 0.7, 1.0, 1.5]))
            axis = offset + data.draw(st.floats(-1, 1)) + spacing * np.arange(data.draw(st.integers(2, 30 // dim**2)))
            pts = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
            sides = [spacing * k for k in range(1, 8)]
        else:
            coords = st.lists(st.floats(-5, 5), min_size=dim, max_size=dim)
            pts = offset + np.array(data.draw(st.lists(coords, min_size=1, max_size=40 // dim)))
            sides = [data.draw(st.floats(0.01, 10))]
        pts = np.unique(pts, axis=0)
        pad = data.draw(st.floats(0.25, 2))
        box = list(zip(pts.min(axis=0) - pad, pts.max(axis=0) + pad))
        half = min(hi - lo for lo, hi in box) / 2
        n = min(data.draw(st.sampled_from(sides)) / 2, 0.9 * half)
        report = beurling_density(PointPatch(dim=dim, box=box, points=pts), FolnerSpec(sizes=(n,)))
        least, most = extrema_rational(pts, n, shrink_box(as_box(box), n))
        assert report.lower[0][1] == least / (2 * n) ** dim
        assert report.upper[0][1] == most / (2 * n) ** dim


class TestSatellitesDensities:
    def test_plain_densities_near_two(self, satellites_patch):
        report = beurling_density(satellites_patch, FolnerSpec(sizes=(10, 20, 40)))
        assert 1.95 <= report.extrapolated_lower <= 2.05
        assert 1.95 <= report.extrapolated_upper <= 2.05

    def test_hull_density_with_injected_lattice_limit(self, satellites_patch):
        z_limit = make_lattice_patch(1.0, 400.0)
        report = hull_beurling_density(
            satellites_patch, FolnerSpec(sizes=(10, 20, 40)), [z_limit]
        )
        assert 0.95 <= report.extrapolated_lower <= 1.05
        assert 1.95 <= report.extrapolated_upper <= 2.05
        assert report.extras_used_lower
        assert not report.extras_used_upper

    def test_lattice_needs_no_extras(self):
        patch = make_lattice_patch(2.0, 100.0)
        spec = FolnerSpec(sizes=(5, 10, 25))
        plain = beurling_density(patch, spec)
        hull = hull_beurling_density(patch, spec, [])
        assert plain.lower == hull.lower
        assert plain.upper == hull.upper


class TestFibonacciDensity:
    def test_density_matches_covolume_formula(self, fibonacci_patch):
        report = beurling_density(fibonacci_patch, FolnerSpec(sizes=(20, 40, 80)))
        assert report.extrapolated_lower == pytest.approx(1 / SQRT5, rel=0.01)
        assert report.extrapolated_upper == pytest.approx(1 / SQRT5, rel=0.01)

    def test_hull_density_over_orbit_samples(self, fibonacci_patch):
        from aperio.hull import orbit_sample

        k_box = ((-100.0, 100.0),)
        translates = transversal_translates(fibonacci_patch, k_box)[::40]
        extras = orbit_sample(fibonacci_patch, translates, k_box)
        report = hull_beurling_density(
            restrict(fibonacci_patch, [(-150, 150)]),
            FolnerSpec(sizes=(10, 20, 40)),
            extras,
        )
        assert report.extrapolated_lower == pytest.approx(1 / SQRT5, rel=0.05)
        assert report.extrapolated_upper == pytest.approx(1 / SQRT5, rel=0.05)

    def test_spread_shrinks_with_doubling(self, fibonacci_patch):
        report = beurling_density(fibonacci_patch, FolnerSpec(sizes=(20, 40, 80)))
        spreads = [hi - lo for (_, lo), (_, hi) in zip(report.lower, report.upper)]
        assert spreads[-1] < spreads[0]

    def test_lattice_spread_shrinks_too(self, z_patch):
        report = beurling_density(z_patch, SPEC_40)
        spreads = [hi - lo for (_, lo), (_, hi) in zip(report.lower, report.upper)]
        assert all(b < a for a, b in zip(spreads, spreads[1:]))


class TestCovolumeBounds:
    def test_lattice_bounds_pin_the_covolume(self):
        patch = make_lattice_patch(2.0, 200.0)
        report = beurling_density(patch, SPEC_40)
        bounds = covolume_bounds_from_density(report, ell=1, relatively_dense=True)
        assert bounds.covol_minus_lo == pytest.approx(2.0, rel=0.03)
        assert bounds.covol_minus_hi == pytest.approx(2.0, rel=0.03)
        assert bounds.covol_plus_hi == pytest.approx(2.0, rel=0.03)
        assert bounds.covol_plus_exact

    def test_satellites_interval_contains_true_value(self, satellites_patch):
        report = beurling_density(satellites_patch, FolnerSpec(sizes=(10, 20, 40)))
        bounds = covolume_bounds_from_density(report, ell=2)
        # certified interval [1/D++, ell/D++] lands on [1/2, 1]; the true
        # lower covolume is 1 (finite-n bias of D++ shifts the ends ~1%)
        assert bounds.covol_minus_lo == pytest.approx(0.5, abs=0.02)
        assert bounds.covol_minus_hi == pytest.approx(1.0, abs=0.04)

    def test_fibonacci_bounds(self, fibonacci_patch):
        report = beurling_density(fibonacci_patch, FolnerSpec(sizes=(20, 40, 80)))
        bounds = covolume_bounds_from_density(report, ell=1)
        assert bounds.covol_minus_lo == pytest.approx(SQRT5, rel=0.02)
        assert bounds.covol_plus_hi == pytest.approx(SQRT5, rel=0.02)

    def test_density_covolume_sandwich(self, fibonacci_patch, satellites_patch):
        # D-- <= 1/covol_+ <= 1/covol_- <= D++ with the known covolumes
        cases = [
            (beurling_density(make_lattice_patch(2.0, 200.0), SPEC_40), 2.0, 2.0, None),
            (beurling_density(fibonacci_patch, FolnerSpec(sizes=(20, 40, 80))), SQRT5, SQRT5, None),
            (
                hull_beurling_density(
                    satellites_patch,
                    FolnerSpec(sizes=(10, 20, 40)),
                    [make_lattice_patch(1.0, 400.0)],
                ),
                1.0,
                1.0,
                None,
            ),
        ]
        tol = 0.05
        for report, covol_minus, covol_plus, _ in cases:
            assert report.extrapolated_lower <= 1 / covol_plus + tol
            assert 1 / covol_minus <= report.extrapolated_upper + tol

    def test_zero_density_reports_unbounded(self):
        report = beurling_density(
            make_lattice_patch(10.0, 40.0), FolnerSpec(sizes=(2, 4))
        )
        assert report.extrapolated_lower == 0.0
        bounds = covolume_bounds_from_density(report, ell=1)
        assert math.isinf(bounds.covol_plus_hi)


def near_tenths(lo: int, hi: int, min_size: int, max_size: int):
    """Distinct multiples of 0.1 in ``[lo/10, hi/10]``, each kept or moved one ulp."""
    tenth = st.tuples(st.integers(lo, hi), st.sampled_from([-1.0, 0.0, 1.0]))
    near = tenth.map(lambda t: float(np.nextafter(t[0] / 10, t[0] / 10 + t[1])))
    return st.lists(near, min_size=min_size, max_size=max_size, unique=True)


def ergodic_1d_and_embedded(points, s_side, translates):
    """The estimate on a 1-d patch, and on its embedding in the plane at second coordinate 0."""
    x = np.array(points)
    vecs = np.array(translates)
    box = (min(x.min(), s_side[0] + vecs.min()) - 1.0, max(x.max(), s_side[1] + vecs.max()) + 1.0)
    flat = PointPatch(dim=1, box=[box], points=x[:, None])
    plane = PointPatch(dim=2, box=[box, (-1.0, 1.0)], points=np.stack([x, np.zeros_like(x)], axis=1))
    return (
        covolume_ergodic_estimate(flat, [s_side], vecs[:, None]),
        covolume_ergodic_estimate(plane, [s_side, (-1.0, 1.0)], np.stack([vecs, np.zeros_like(vecs)], axis=1)),
    )


class TestErgodicEstimate:
    def test_lattice_exact_for_commensurate_window(self):
        patch = make_lattice_patch(2.0, 100.0)
        est = covolume_ergodic_estimate(
            patch, [(-10, 10)], [[0.0], [0.3], [1.7], [5.1], [-3.3]]
        )
        assert est.covolume == 2.0
        assert est.provenance == "assumes-unique-ergodicity"

    def test_fibonacci_estimate_within_two_percent(self, fibonacci_patch):
        vecs = grid_translates(restrict(fibonacci_patch, [(-480, 480)]), ((-10.0, 10.0),), 0.47)
        est = covolume_ergodic_estimate(fibonacci_patch, [(-10, 10)], vecs)
        assert est.covolume == pytest.approx(SQRT5, rel=0.02)

    def test_measure_dependence_of_orbit_averages(self, satellites_patch):
        own = transversal_translates(satellites_patch, ((-10.0, 10.0),))[::7]
        est_self = covolume_ergodic_estimate(satellites_patch, [(-10, 10)], own)
        z_limit = make_lattice_patch(1.0, 400.0)
        own_z = transversal_translates(z_limit, ((-10.0, 10.0),))[::7]
        est_z = covolume_ergodic_estimate(z_limit, [(-10, 10)], own_z)
        assert est_self.covolume == pytest.approx(0.5, abs=0.02)
        assert est_z.covolume == pytest.approx(1.0, abs=0.02)

    def test_point_just_below_a_rounded_face(self):
        # 0.7 + 0.1 rounds to 0.7999999999999999, but the exact sum lies above it
        flat, plane = ergodic_1d_and_embedded([-2.0, 0.7999999999999999], (0.0, 0.1), [0.7, -2.0])
        assert flat.covolume == 0.1
        assert plane.covolume == 0.2  # the same count of 1 per window, in a window of area 0.2

    @settings(max_examples=150, deadline=None)
    @given(
        points=near_tenths(0, 20, 1, 15),
        translates=near_tenths(0, 12, 1, 6),
        s_side=st.sampled_from([(0.0, 0.1), (0.1, 0.4), (0.2, 0.7), (0.3, 0.8)]),
    )
    def test_1d_and_embedding_match_exact_counts(self, points, translates, s_side):
        counts = ergodic_counts_oracle(np.array(points)[:, None], [s_side], np.array(translates)[:, None])
        assume(sum(counts) > 0)
        expected = 1.0 / (sum(counts) / len(counts) / (s_side[1] - s_side[0]))
        flat, plane = ergodic_1d_and_embedded(points, s_side, translates)
        assert flat.covolume == expected
        assert plane.covolume == 2 * expected


class TestLatticePeriodizationCheck:
    def test_triangle_on_unit_lattice(self):
        assert weil_check(lattice_scheme([[1.0]]), density_mod.TestFunction("triangle"), 10_000) < 1e-6

    def test_triangle_on_doubled_lattice(self):
        assert weil_check(lattice_scheme([[2.0]]), density_mod.TestFunction("triangle"), 10_000) < 1e-6

    def test_truncated_gaussian(self):
        f = density_mod.TestFunction("gaussian", trunc=8.0)
        assert weil_check(lattice_scheme([[1.0]]), f, 10_000) < 1e-6

    def test_non_lattice_scheme_rejected(self, fibonacci_scheme):
        with pytest.raises(ValueError, match="requires lattice"):
            weil_check(fibonacci_scheme, density_mod.TestFunction("triangle"), 100)


class TestSeparableGridCounts:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), data=st.data())
    def test_matches_mask_oracle(self, dim, data):
        half = data.draw(st.integers(2, 4))
        quarter = st.integers(-4 * half, 4 * half).map(lambda k: k / 4)
        # exact extrema: quarter-integer points and n a multiple of 1/8 put
        # every face p +- n, and every cell midpoint between them, on the
        # oracle's 1/16 grid, so the grid sees the true inf and sup
        exact = dim == 1 or data.draw(st.booleans())
        if exact:
            step, n, pool = 1 / 16, data.draw(st.integers(1, 8 * half)) / 8, quarter
        else:
            # quarter-integer coordinates include the faces c - n and c + n of
            # grid windows (centres are -half + n + k * step); a few free floats
            step = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
            n = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
            pool = st.one_of(quarter, st.floats(-half, half, allow_nan=False))
        coords = [data.draw(st.lists(pool, min_size=1, max_size=6, unique=True)) for _ in range(dim)]
        rows = st.tuples(*(st.sampled_from(c) for c in coords))
        pts = np.array(data.draw(st.lists(rows, min_size=1, max_size=30, unique=True)))
        box = ((-half, half),) * dim
        region = shrink_box(box, n)
        expected = extrema_grid_oracle(pts, n, region, step)
        if not exact:
            assert density_mod._extrema_grid(pts, n, region, step) == expected
        elif dim <= 2:
            report = beurling_density(PointPatch(dim=dim, box=box, points=pts), FolnerSpec(sizes=(n,)))
            assert report.method == ("exact",)
            assert (report.lower[0][1], report.upper[0][1]) == expected
        else:
            patch = PointPatch(dim=dim, box=box, points=pts)
            counts = [_closed_window_extremum(patch.points, region, n, largest) for largest in (False, True)]
            assert tuple(c / (2 * n) ** dim for c in counts) == expected

    def test_grid_cap_refuses_before_allocating(self):
        patch = make_lattice_patch(1.0, 6.0, dim=3)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                beurling_density(patch, FolnerSpec(sizes=(2,), translate_grid_step=1e-9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1_000_000


class TestFolnerSpecValidation:
    def test_sizes_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            FolnerSpec(sizes=(5, 5))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FolnerSpec(sizes=(5, bad))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -0.25])
    def test_bad_grid_step_rejected(self, bad):
        with pytest.raises(ValueError, match="translate_grid_step"):
            FolnerSpec(sizes=(5,), translate_grid_step=bad)

    @given(st.lists(st.floats(1, 50), min_size=1, max_size=4, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_report_inf_never_exceeds_sup(self, sizes):
        spec = FolnerSpec(sizes=tuple(sorted(sizes)))
        patch = make_lattice_patch(1.0, 120.0)
        report = beurling_density(patch, spec)
        for (_, lo), (_, hi) in zip(report.lower, report.upper):
            assert lo <= hi + 1e-12
