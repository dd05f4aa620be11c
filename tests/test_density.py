import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import (
    FolnerSpec,
    PointPatch,
    beurling_density,
    covolume_bounds_from_density,
    generate_model_set,
    translate,
    weil_check,
)
from aperio import density as density_mod
from aperio.cutproject import lattice_scheme
from aperio.errors import ConfigError, WindowTooLargeError
from aperio.hull import grid_translates, transversal_translates
from aperio.io_json import density_report_to_jsonable
from aperio.pointset import as_box, restrict, shrink_box

from conftest import (
    SQRT5,
    extrema_grid_oracle,
    extrema_rational,
    make_lattice_patch,
    make_product_fibonacci_scheme,
    orbit_average_covolume,
)

SPEC_40 = FolnerSpec(sizes=(5, 10, 20, 40))


def all_cells_exact(report):
    """Every ``inf`` and ``sup`` cell of the report's rows is tagged ``exact``."""
    rows = density_report_to_jsonable(report)["rows"]
    return all(row[side]["provenance"] == "exact" for row in rows for side in ("inf", "sup"))


class TestLatticeCalibration:
    @pytest.mark.parametrize("spacing", [0.5, 1.0, 2.0])
    def test_density_is_reciprocal_spacing(self, spacing):
        patch = make_lattice_patch(spacing, 200.0)
        report = beurling_density(patch, SPEC_40)
        n_max = report.lower[-1][0]
        tol = 1 / (2 * n_max) + 1e-9
        assert report.extrapolated_lower == pytest.approx(1 / spacing, abs=tol)
        assert report.extrapolated_upper == pytest.approx(1 / spacing, abs=tol)

    def test_unit_lattice_exact_sweep_values(self, z_patch):
        report = beurling_density(z_patch, SPEC_40)
        for n, lo in report.lower:
            assert lo == pytest.approx(1.0)
        for n, hi in report.upper:
            assert hi == pytest.approx(1.0 + 1.0 / (2 * n))

    def test_2d_lattice_exact_values(self):
        # a window [-n, n]^2 holds between (2n)^2 and (2n + 1)^2 points of Z^2
        patch = make_lattice_patch(1.0, 30.0, dim=2)
        report = beurling_density(patch, FolnerSpec(sizes=(5, 10)))
        assert report.lower == ((5.0, 1.0), (10.0, 1.0))
        assert report.upper == ((5.0, 1.21), (10.0, 1.1025))

    def test_2d_fibonacci_extrema_are_exact(self):
        # the benchmark's fib2d patch at seed 1; a translate grid of step 0.25
        # misses both extrema (it finds sup 0.2125 and inf 0.1975)
        box = [(-29.930514065136148, 30.069485934863852), (-29.802675764436163, 30.197324235563837)]
        patch = generate_model_set(make_product_fibonacci_scheme(), box)
        assert patch.n_points == 718
        report = beurling_density(patch, FolnerSpec(sizes=(10, 20)))
        assert all_cells_exact(report)
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
        with pytest.raises(WindowTooLargeError, match="max feasible n is 30"):
            beurling_density(patch, FolnerSpec(sizes=(10, 31)))


class TestExactExtrema:
    """A density report states the extrema of the points as stored, whatever their rounding, in every dimension."""

    @pytest.mark.parametrize(
        "dim, half_width, lower",
        [(1, 60.0, ((5.0, 0.9), (10.0, 0.95))), (2, 30.0, ((5.0, 0.81), (10.0, 0.9025)))],
    )
    def test_float_translated_lattice(self, dim, half_width, lower):
        # points fl(k + 0.37): two of them 2n apart can differ by 2n plus an ulp,
        # so a closed window of side 2n fits between them; the untranslated lattice gives 1.0
        patch = translate(make_lattice_patch(1.0, half_width, dim=dim), [0.37] * dim)
        report = beurling_density(patch, FolnerSpec(sizes=(5, 10)))
        assert all_cells_exact(report)
        assert report.lower == lower
        for (n, lo), (_, hi) in zip(report.lower, report.upper):
            least, most = extrema_rational(patch.points, n, shrink_box(patch.box, n))
            assert (lo, hi) == (least / (2 * n) ** dim, most / (2 * n) ** dim)

    def test_3d_translated_lattice(self):
        # fl(k + 0.37) and fl(k + 2.37) can lie 2 plus an ulp apart, so a closed window of side 2
        # can hold one point per axis: inf 1 / 2^3
        patch = translate(make_lattice_patch(1.0, 6.0, dim=3), [0.37] * 3)
        report = beurling_density(patch, FolnerSpec(sizes=(1,)))
        assert all_cells_exact(report)
        assert (report.lower, report.upper) == (((1.0, 0.125),), ((1.0, 3.375),))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_counts_match_rational_oracle(self, data):
        dim = data.draw(st.sampled_from([1, 2, 3]))
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
        report = beurling_density(
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
        hull = beurling_density(patch, spec, [])
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
        report = beurling_density(
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
                beurling_density(
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

    @pytest.mark.parametrize("field", ["extrapolated_lower", "extrapolated_upper", "uncertainty", "lower", "upper"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_report_refuses_estimates_where_it_is_made(self, field, value):
        # lower and upper hold (n, estimate) per size; a bad one at the first of two sizes
        fields = dict(lower=((5.0, 1.0), (10.0, 1.0)), upper=((5.0, 1.0), (10.0, 1.0)))
        fields.update(extrapolated_lower=1.0, extrapolated_upper=1.0, uncertainty=0.0)
        fields[field] = ((5.0, value), (10.0, 1.0)) if field in ("lower", "upper") else value
        with pytest.raises(ConfigError, match="density report estimates must be finite and at least 0"):
            density_mod.DensityReport(**fields, certified_region_note="")


class TestErgodicEstimate:
    """Orbit averages of window counts estimate the covolume under unique ergodicity, and only then."""

    def test_lattice_exact_for_commensurate_window(self):
        patch = make_lattice_patch(2.0, 100.0)
        assert orbit_average_covolume(patch, 10.0, [0.0, 0.3, 1.7, 5.1, -3.3]) == 2.0

    def test_fibonacci_estimate_within_two_percent(self, fibonacci_patch):
        vecs = grid_translates(restrict(fibonacci_patch, [(-480, 480)]), ((-10.0, 10.0),), 0.47)
        assert orbit_average_covolume(fibonacci_patch, 10.0, vecs) == pytest.approx(SQRT5, rel=0.02)

    def test_measure_dependence_of_orbit_averages(self, satellites_patch):
        own = transversal_translates(satellites_patch, ((-10.0, 10.0),))[::7]
        z_limit = make_lattice_patch(1.0, 400.0)
        own_z = transversal_translates(z_limit, ((-10.0, 10.0),))[::7]
        assert orbit_average_covolume(satellites_patch, 10.0, own) == pytest.approx(0.5, abs=0.02)
        assert orbit_average_covolume(z_limit, 10.0, own_z) == pytest.approx(1.0, abs=0.02)


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
        # quarter-integer points and n a multiple of 1/8 put every face p +- n,
        # and every cell midpoint between them, on the oracle's 1/16 grid, so
        # the grid sees the true inf and sup
        n = data.draw(st.integers(1, 8 * half)) / 8
        coords = [data.draw(st.lists(quarter, min_size=1, max_size=6, unique=True)) for _ in range(dim)]
        rows = st.tuples(*(st.sampled_from(c) for c in coords))
        pts = np.array(data.draw(st.lists(rows, min_size=1, max_size=30, unique=True)))
        box = ((-half, half),) * dim
        expected = extrema_grid_oracle(pts, n, shrink_box(box, n), 1 / 16)
        report = beurling_density(PointPatch(dim=dim, box=box, points=pts), FolnerSpec(sizes=(n,)))
        assert all_cells_exact(report)
        assert (report.lower[0][1], report.upper[0][1]) == expected

    @pytest.mark.parametrize("grid", ["translates", "quadrature-nodes"])
    def test_translate_and_quadrature_grids_refuse_before_allocating(self, grid):
        # 9e10 translates and 1e12 nodes: 671 GiB and 7.3 TiB of int64 positions if built
        patch, scheme = make_lattice_patch(1.0, 50.0), lattice_scheme([[1.0]])
        triangle = density_mod.TestFunction(kind="triangle")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                if grid == "translates":
                    grid_translates(patch, ((-5.0, 5.0),), 1e-9)
                else:
                    weil_check(scheme, triangle, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestFolnerSpecValidation:
    def test_sizes_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            FolnerSpec(sizes=(5, 5))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FolnerSpec(sizes=(5, bad))

    @given(st.lists(st.floats(1, 50), min_size=1, max_size=4, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_report_inf_never_exceeds_sup(self, sizes):
        spec = FolnerSpec(sizes=tuple(sorted(sizes)))
        patch = make_lattice_patch(1.0, 120.0)
        report = beurling_density(patch, spec)
        for (_, lo), (_, hi) in zip(report.lower, report.upper):
            assert lo <= hi + 1e-12
