import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aperio import pointset
from aperio import (
    FolnerSpec,
    PointPatch,
    beurling_density,
    generate_model_set,
    is_relatively_dense,
    kernel_matrix,
    orbit_sample,
    paley_wiener,
    rel_separation,
    sampling_bounds,
    translate,
)
from aperio.errors import DimensionMismatchError, EmptyPatchError, WindowTooLargeError
from aperio.hull import transversal_translates
from aperio.pointset import (
    UNBOUNDED_FACES,
    _pairwise_min_gap,
    _window_extremum,
    as_box,
    as_rows,
    box_volume,
    points_in_box,
    restrict,
    shrink_box,
)

from conftest import (
    brute_force_window_max,
    closest_pair_oracle,
    dense_oracle,
    dense_rational,
    make_fibonacci_scheme,
    make_lattice_patch,
    make_product_fibonacci_scheme,
    make_satellites_patch,
    max_gap_radius_oracle,
    max_window_count_oracle,
)


def grid_patch(spacing, half_width):
    pts = np.arange(-half_width, half_width + spacing / 2, spacing)[:, None]
    return PointPatch(dim=1, box=[(-half_width, half_width)], points=pts)


class TestPointPatchInvariants:
    def test_points_sorted_canonically(self):
        p = PointPatch(dim=1, box=[(-5, 5)], points=[[3.0], [-2.0], [0.0]])
        assert p.points.ravel().tolist() == [-2.0, 0.0, 3.0]

    def test_lex_sort_in_2d(self):
        p = PointPatch(dim=2, box=[(-5, 5), (-5, 5)], points=[[1, 2], [0, 3], [1, -1]])
        assert p.points.tolist() == [[0, 3], [1, -1], [1, 2]]

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PointPatch(dim=1, box=[(0, 1)], points=[[0.5], [0.5]])

    def test_point_outside_box_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            PointPatch(dim=1, box=[(0, 1)], points=[[2.0]])

    def test_empty_patch_is_a_value(self):
        p = PointPatch(dim=1, box=[(0, 1)], points=np.empty((0, 1)))
        assert p.is_empty
        with pytest.raises(EmptyPatchError, match="empty"):
            rel_separation(p, 0.1)


class TestRelSeparation:
    def test_unit_lattice_unit_window(self):
        assert rel_separation(grid_patch(1.0, 10), 0.5).ell == 1

    def test_interleaved_pair_lattice(self):
        pts = np.sort(np.concatenate([np.arange(-10, 11.0), np.arange(-10, 10.0) + 0.1]))
        p = PointPatch(dim=1, box=[(-10, 10)], points=pts[:, None])
        assert rel_separation(p, 0.5).ell == 2

    def test_satellites_patch(self):
        p = make_satellites_patch(100.0)
        assert rel_separation(p, 0.5).ell == 2

    def test_against_brute_force_sweep(self):
        p = make_satellites_patch(30.0)
        for u in (0.3, 0.5, 0.8, 1.0):
            expected = brute_force_window_max(p.points, u, sweep_step=0.001)
            assert rel_separation(p, u).ell == expected

    def test_2d_oracle_small(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-4, 4, size=(40, 2))
        p = PointPatch(dim=2, box=[(-4, 4), (-4, 4)], points=pts)
        u = 1.2
        # brute force over a dense center grid plus coordinate-anchored boxes
        best = 0
        xs = np.concatenate([pts[:, 0], np.arange(-4, 4, 0.05)])
        ys = np.concatenate([pts[:, 1], np.arange(-4, 4, 0.05)])
        for cx in xs:
            inx = (pts[:, 0] >= cx) & (pts[:, 0] < cx + u)
            if not inx.any():
                continue
            sub = pts[inx, 1]
            for cy in ys:
                best = max(best, int(np.sum((sub >= cy) & (sub < cy + u))))
        assert rel_separation(p, u).ell == best

    def test_min_gap_and_max_gap_radius(self):
        s = rel_separation(grid_patch(1.0, 10), 0.5)
        assert s.min_gap == 1.0
        assert s.max_gap_radius == pytest.approx(0.5, abs=1e-9)

    def test_certified_box_recorded(self):
        s = rel_separation(grid_patch(1.0, 10), 0.5)
        assert s.certified_box == ((-9.5, 9.5),)

    def test_window_exceeding_patch_rejected(self):
        with pytest.raises(WindowTooLargeError, match="window exceeds patch"):
            rel_separation(grid_patch(1.0, 2), 4.5)

    def test_sweep_reports_per_window_counts(self):
        p = make_satellites_patch(50.0)
        stats = [rel_separation(p, u) for u in (0.25, 0.5, 1.0)]
        assert [s.u_radius for s in stats] == [0.25, 0.5, 1.0]
        assert [s.ell for s in stats] == [2, 2, 3]


@st.composite
def near_rows(draw, dim):
    """Rows near 0 or +-1e4: grid cells (so columns share a first coordinate) and a few free rows.

    Each axis has its own grid step, so the closest pair may sit a whole
    column apart in sort order.  A prefix of the rows is copied with each
    coordinate one ulp down, kept or one ulp up, so exact duplicates and
    ulp-level near-duplicates both occur.
    """
    center = draw(st.sampled_from([0.0, 1.0e4, -1.0e4]))
    steps = draw(st.lists(st.sampled_from([0.01, 0.25, 0.1, 1.0 / 3.0, 0.7]), min_size=dim, max_size=dim))
    grid = center + np.outer(np.arange(-3, 4), steps)  # grid[i, k]: value i on axis k
    cells = draw(st.lists(st.lists(st.integers(0, 6), min_size=dim, max_size=dim), min_size=1, max_size=30))
    free = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim), max_size=5))
    rows = np.vstack([grid[np.array(cells), np.arange(dim)], center + np.array(free).reshape(-1, dim)])
    copies = rows[: draw(st.integers(0, len(rows)))]
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=copies.size, max_size=copies.size))
    return np.vstack([rows, np.nextafter(copies, copies + np.reshape(signs, copies.shape))])


class TestSweepOracles:
    """The sort-and-sweep closest pair against every pair."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_min_gap_matches_all_pairs(self, dim, data):
        pts = np.unique(data.draw(near_rows(dim)), axis=0)  # distinct rows in lexicographic order
        assert _pairwise_min_gap(pts) == closest_pair_oracle(pts)

    def test_lattice_columns(self):
        # 49 points share each first coordinate: the sweep can stop only at shift 49
        pts = make_lattice_patch(0.5, 1.5, dim=3).points
        assert _pairwise_min_gap(pts) == closest_pair_oracle(pts) == 0.5

    def test_closest_pair_a_column_apart(self):
        # sorted rows: the column x = 0 (y = 0, 10, ..., 90), then (0.1, 0.05), 10 rows after its partner (0, 0)
        pts = np.array([[0.0, 10.0 * i] for i in range(10)] + [[0.1, 0.05]])
        assert _pairwise_min_gap(pts) == closest_pair_oracle(pts) == 0.1


@st.composite
def decimal_rows(draw, dim, span):
    """Distinct rows whose coordinates are multiples of 0.1, each kept or moved one ulp.

    Each axis holds some tenths ``t`` and ``t + span``, so pairs of
    coordinates lie about the window side ``span / 10`` apart, where the
    rounded sum ``a + span / 10`` and the exact one can put a point on
    different sides of a window face.
    """
    coords = []
    for _ in range(dim):
        base = draw(st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True))
        tenths = sorted(set(base) | {t + span for t in base})
        ulps = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=len(tenths), max_size=len(tenths)))
        coords.append(sorted({float(np.nextafter(t / 10, t / 10 + u)) for t, u in zip(tenths, ulps)}))
    rows = st.tuples(*(st.sampled_from(c) for c in coords))
    return np.array(draw(st.lists(rows, min_size=1, max_size=25, unique=True)))


def wide_box_patch(pts: np.ndarray, width: float) -> PointPatch:
    """The points in a box with room for a window of side ``width`` on every axis."""
    box = list(zip(pts.min(axis=0) - width - 1.0, pts.max(axis=0) + width + 1.0))
    return PointPatch(dim=pts.shape[1], box=box, points=pts)


class TestSeparableWindowCount:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3, 4]), span=st.sampled_from([1, 3, 7, 11]), data=st.data())
    def test_matches_brute_force(self, dim, span, data):
        # decimal coordinates and widths: faces a + width that round across a point
        pts, width = data.draw(decimal_rows(dim, span)), span / 10
        assert rel_separation(wide_box_patch(pts, width), width).ell == max_window_count_oracle(pts, width)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize(
        "a, b, width",
        [
            (0.1, 0.7999999999999999, 0.7),  # b - a < 0.7 exactly, though 0.1 + 0.7 rounds to b
            (0.7000000000000001, 0.8, 0.1),  # b - a < 0.1 exactly, though 0.8 - 0.1 rounds to a
        ],
        ids=["sum-rounds-down", "difference-rounds-up"],
    )
    def test_points_a_rounded_width_apart_share_a_window(self, dim, a, b, width):
        pts = np.hstack([[[a], [b]], np.zeros((2, dim - 1))])
        assert max_window_count_oracle(pts, width) == 2
        assert rel_separation(wide_box_patch(pts, width), width).ell == 2

    def test_large_fib2d_patch_needs_no_anchor_grid(self):
        # 11,521 points: the old anchor grid had 1.3e8 positions, past its cap
        patch = generate_model_set(make_product_fibonacci_scheme(), [(-120, 120)] * 2)
        assert patch.n_points > 11_000
        # the ell of rel_separation, without its covering-radius bisection
        assert _window_extremum(patch.points, [UNBOUNDED_FACES] * 2, 0.5, largest=True, open_lower=True) == 1


class TestRelativeDenseness:
    def test_unit_lattice(self):
        assert is_relatively_dense(grid_patch(1.0, 10), 0.5) is True
        assert is_relatively_dense(grid_patch(1.0, 10), 0.4) is False

    def test_doubled_lattice(self):
        assert is_relatively_dense(grid_patch(2.0, 10), 1.0) is True

    def test_2d_grid(self):
        p = make_lattice_patch(1.0, 6.0, dim=2)
        assert is_relatively_dense(p, 0.5) is True
        assert is_relatively_dense(p, 0.45) is False

    def test_2d_lattice_near_covering_radius(self):
        # the window centred at (0.5, 0.5) holds a point only from k = 0.5 on
        p = make_lattice_patch(1.0, 3.0, dim=2)
        assert [is_relatively_dense(p, k) for k in (0.48, 0.485, 0.49, 0.5)] == [False, False, False, True]
        r = rel_separation(p, 0.5).max_gap_radius
        assert r in (0.5, math.nextafter(0.5, 1.0))

    @pytest.mark.parametrize(
        "patch",
        [
            make_lattice_patch(1.0, 3.0, dim=2),
            generate_model_set(make_product_fibonacci_scheme(), [(-10, 10)] * 2),
            make_satellites_patch(40.0),
            # ends of the benchmark's fib1d boxes for seeds 1-3, where |x| is near 10^4
            *(generate_model_set(make_fibonacci_scheme(), [(hi - 150.0, hi)]) for hi in (10000.235495884748, 10000.135893566794, 10000.36013064722)),
            generate_model_set(make_fibonacci_scheme(), [(-9999.764504115252, -9849.764504115252)]),
            make_lattice_patch(0.7, 20.0),
        ],
        ids=["lattice2d", "fib2d", "satellites1d", "fib1d-hi-1", "fib1d-hi-2", "fib1d-hi-3", "fib1d-lo-1", "lattice0.7"],
    )
    def test_max_gap_radius_is_smallest_passing_double(self, patch):
        # r is also the smallest double passing the exact rational check: a
        # slab bound from a sum rounded at |x| ~ 10^4 moves by up to 1e-12,
        # far more than one step of r (2e-16)
        r = rel_separation(patch, 0.5).max_gap_radius
        assert is_relatively_dense(patch, r) is True
        assert is_relatively_dense(patch, math.nextafter(r, 0.0)) is False
        assert dense_rational(patch.points, patch.box, r)
        assert not dense_rational(patch.points, patch.box, math.nextafter(r, 0.0))

    @settings(max_examples=80, deadline=None)
    @given(dim=st.sampled_from([2, 3]), data=st.data())
    def test_matches_hole_search_and_is_monotone_in_k(self, dim, data):
        # quarter-integer coordinates lie on the faces c +- k of many windows
        # for k a multiple of 1/8; either a few points from a small pool of
        # shared coordinates, or a full grid with some points removed, which
        # is dense in each axis alone and leaves holes between columns
        if data.draw(st.booleans()):
            pool = st.integers(-8, 8).map(lambda j: j / 4)
            coords = [data.draw(st.lists(pool, min_size=1, max_size=6, unique=True)) for _ in range(dim)]
            rows = st.tuples(*(st.sampled_from(c) for c in coords))
            pts = np.array(data.draw(st.lists(rows, min_size=1, max_size=30, unique=True)))
        else:
            spacing = data.draw(st.sampled_from([1, 2, 3])) / 4
            grid = np.arange(-2, 2 + spacing / 2, spacing)
            pts = np.stack([m.ravel() for m in np.meshgrid(*[grid] * dim, indexing="ij")], axis=1)
            gone = data.draw(st.sets(st.integers(0, len(pts) - 1), max_size=3))
            pts = np.delete(pts, sorted(gone), axis=0)
        patch = PointPatch(dim=dim, box=[(-2, 2)] * dim, points=pts)
        k_small, k_large = sorted(data.draw(st.lists(st.integers(1, 16), min_size=2, max_size=2)))
        small, large = (is_relatively_dense(patch, k / 8) for k in (k_small, k_large))
        assert small == dense_oracle(patch.points, patch.box, k_small / 8)
        assert large == dense_oracle(patch.points, patch.box, k_large / 8)
        assert large or not small


@st.composite
def covering_patches(draw):
    """Patches in d = 1 and 2 whose covering radius sits on a rounding.

    A lattice with some points removed and a few coordinates moved by up to
    3 ulps, in a box whose faces are integers or such as ``-(k + 0.1)``, so
    that the shrunk box's sums ``a + r`` round; optionally with points on
    the faces.
    """
    dim = draw(st.sampled_from([1, 2]))
    spacing = draw(st.sampled_from([0.5, 0.7, 1.0, 1.3] if dim == 1 else [0.7, 1.0, 1.3]))
    frac = st.sampled_from([0.0, 0.1, 0.3, 0.7])
    box = [(-draw(st.integers(1, 3)) - draw(frac), draw(st.integers(1, 3)) + draw(frac)) for _ in range(dim)]
    axes = [spacing * np.arange(math.ceil(lo / spacing), math.floor(hi / spacing) + 1.0) for lo, hi in box]
    if draw(st.booleans()):  # points on the faces
        axes = [np.concatenate([[lo], axis, [hi]]) for (lo, hi), axis in zip(box, axes)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    moved = draw(st.dictionaries(st.integers(0, pts.size - 1), st.integers(-3, 3), max_size=6))
    flat = pts.ravel()
    for i, ulps in moved.items():
        flat[i] += ulps * np.spacing(flat[i])
    gone = draw(st.sets(st.integers(0, len(pts) - 1), max_size=len(pts) // 2))
    pts = np.delete(pts, sorted(gone), axis=0)
    pts = np.unique(pts[points_in_box(pts, box)], axis=0)
    assume(len(pts) > 0)
    return PointPatch(dim=dim, box=box, points=pts)


class TestCoveringRadiusSearch:
    """``max_gap_radius`` by candidate search, against the bisection of every double."""

    @settings(max_examples=120, deadline=None)
    @given(patch=covering_patches())
    def test_matches_the_bisection_of_every_double(self, patch):
        assert rel_separation(patch, 0.5).max_gap_radius == max_gap_radius_oracle(patch)

    def test_radius_off_the_candidates(self):
        # the face gap -1 - (-3.9) gives the candidate 1.45, but c = -3.9 + 1.45 rounds down, so the window
        # [c - 1.45, c + 1.45] at the shrunk box's lower face misses -1: the radius is the next double
        patch = PointPatch(dim=1, box=[(-3.9, 1.0)], points=[[-1.0], [0.0]])
        r = rel_separation(patch, 0.5).max_gap_radius
        assert is_relatively_dense(patch, 1.45) is False
        assert r == math.nextafter(1.45, 2.0) == max_gap_radius_oracle(patch)

    @pytest.mark.parametrize(
        "scheme, box, most",
        [
            # the fib1d and fib2d benchmark boxes (perfbench/workloads.py): 8,944 and 718 points at seed 1
            *((make_fibonacci_scheme(), [(lo, lo + 2.0e4)], 12) for lo in (-9999.764504115252, -9999.864106433206, -9999.63986935278)),
            (make_product_fibonacci_scheme(), [(-29.930514065136148, 30.069485934863852), (-29.802675764436163, 30.197324235563837)], 22),
        ],
        ids=["fib1d-1", "fib1d-2", "fib1d-3", "fib2d-1"],
    )
    def test_exact_decisions(self, monkeypatch, scheme, box, most):
        # the bisection of every double takes 66 decisions on fib1d and 58 on fib2d
        patch = generate_model_set(scheme, box)
        want = max_gap_radius_oracle(patch)
        calls = []
        dense = pointset._dense
        monkeypatch.setattr(pointset, "_dense", lambda p, k: calls.append(k) or dense(p, k))
        assert rel_separation(patch, 0.5).max_gap_radius == want
        assert len(calls) <= most


class TestTranslate:
    def test_identity_shift(self, z_patch):
        assert translate(z_patch, [0.0]) == z_patch

    def test_quarter_shift(self):
        p = grid_patch(1.0, 2)
        q = translate(p, [0.25])
        assert q.points.ravel().tolist() == [-1.75, -0.75, 0.25, 1.25, 2.25]
        assert q.box == ((-1.75, 2.25),)

    @pytest.mark.parametrize("shift", [[[1.0], [2.0]], [1.0], [1.0, 2.0, 3.0, 4.0]], ids=["column", "short", "two-rows"])
    def test_shift_that_is_not_one_row_is_refused(self, shift):
        patch = make_lattice_patch(1.0, 3.0, dim=2)
        with pytest.raises(DimensionMismatchError):
            translate(patch, shift)

    @given(st.floats(-7, 7).map(lambda s: round(s, 4)))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, shift):
        p = grid_patch(0.5, 5)
        q = translate(translate(p, [shift]), [-shift])
        assert np.allclose(q.points, p.points, atol=1e-9)
        assert np.allclose(q.box, p.box, atol=1e-9)

    @given(st.floats(-50, 50).map(lambda s: round(s, 3)), st.sampled_from([0.3, 0.5, 1.0]))
    @settings(max_examples=25, deadline=None)
    def test_stats_translation_invariant(self, shift, u):
        p = make_satellites_patch(60.0)
        a = rel_separation(p, u)
        b = rel_separation(translate(p, [shift]), u)
        assert a.ell == b.ell
        assert a.min_gap == pytest.approx(b.min_gap, abs=1e-9)


class TestWindowMonotonicityAndBound:
    def test_ell_monotone_in_window_size(self):
        p = make_satellites_patch(80.0)
        ells = [rel_separation(p, u).ell for u in (0.2, 0.4, 0.6, 0.9, 1.2)]
        assert ells == sorted(ells)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_counting_bound_on_random_subboxes(self, seed):
        rng = np.random.default_rng(seed)
        p = make_satellites_patch(60.0)
        u = 0.5
        stats = rel_separation(p, u)
        lo, hi = shrink_box(p.box, u)[0]
        a = rng.uniform(lo, hi - 0.5)
        length = rng.uniform(0.5, min(20.0, hi - a))
        k_box = ((a, a + length),)
        count = int(points_in_box(p.points, k_box).sum())
        # ell * vol(K + U) / vol(U), U the open window of side u
        assert count <= stats.ell * (length + u) / u + 1e-9


class TestRestrict:
    def test_restrict_is_exact_intersection(self, fibonacci_patch):
        sub = restrict(fibonacci_patch, [(-100, 100)])
        mask = np.abs(fibonacci_patch.points[:, 0]) <= 100
        assert np.array_equal(sub.points, fibonacci_patch.points[mask])

    def test_box_helpers(self):
        assert box_volume(((0, 2), (0, 3))) == 6


# each input mixes two dimensions, and each call returned a value before the one dimension check
DIMENSION_MISMATCHES = {
    # the 2-d extra's density won the sup: 5.0625 against 1.25 at n = 2, tagged exact
    "density-extra": lambda: beurling_density(
        make_lattice_patch(1.0, 20.5), FolnerSpec(sizes=(2, 4, 8)), [make_lattice_patch(0.5, 10.0, dim=2)]
    ),
    "sampling-kernel": lambda: sampling_bounds(paley_wiener([(-0.5, 0.5)]), make_lattice_patch(1.0, 6.0, dim=2)),
    "kernel-rows": lambda: kernel_matrix(paley_wiener([(-0.5, 0.5)]), *[make_lattice_patch(1.0, 10.0, dim=2).points] * 2),
    "transversal-k-box": lambda: transversal_translates(make_lattice_patch(1.0, 8.0, dim=2), [(-2, 2)]),
    "patch-rows": lambda: PointPatch(dim=2, box=[(-5, 5)] * 2, points=[[0], [1], [2], [3]]),
    "orbit-translate": lambda: orbit_sample(make_lattice_patch(1.0, 10.0), [[0.0, 1.0]], [(-2, 2)]),
}


class TestDimensionCheck:
    @pytest.mark.parametrize("call", DIMENSION_MISMATCHES.values(), ids=DIMENSION_MISMATCHES.keys())
    def test_mixed_dimensions_are_refused(self, call):
        with pytest.raises(DimensionMismatchError):
            call()

    def test_box_count_is_checked_before_its_intervals(self):
        with pytest.raises(DimensionMismatchError, match="1 interval"):
            as_box([(1.0, 0.0)], 2)
        with pytest.raises(ValueError, match="degenerate"):
            as_box([(1.0, 0.0)], 1)

    @pytest.mark.parametrize("x", [np.zeros((2, 3)), np.zeros((1, 2, 2)), [0.0, 1.0, 2.0], np.zeros((0, 3))])
    def test_rows_of_another_width_are_refused(self, x):
        with pytest.raises(DimensionMismatchError, match="rows of 2"):
            as_rows(x, 2)

    @given(dim=st.integers(1, 4), n=st.integers(0, 5), form=st.sampled_from(["flat", "nested", "array"]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_of_the_right_width_are_reshaped(self, dim, n, form, data):
        values = data.draw(st.lists(st.floats(allow_nan=False), min_size=n * dim, max_size=n * dim))
        x = {
            "flat": values,
            "nested": [values[i * dim : (i + 1) * dim] for i in range(n)],
            "array": np.array(np.reshape(values, (n, dim)), dtype=np.float64),  # owns its data
        }[form]
        got = as_rows(x, dim)
        expected = np.asarray(x, dtype=np.float64).reshape(-1, dim)
        assert got.dtype == np.float64 and got.shape == expected.shape and np.array_equal(got, expected)
        if form == "array":  # an (n, dim) float array is used as it is
            assert got.base is x
