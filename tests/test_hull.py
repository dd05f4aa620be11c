import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import PointPatch, cf_within, cluster_partition, orbit_sample, translate
from aperio.errors import ClusterError, CoverageError
from aperio.hull import CFNeighborhoodSpec, grid_translates, transversal_translates
from aperio.pointset import restrict

from conftest import make_lattice_patch, make_satellites_patch, orbit_sample_oracle


def z_like(shift=0.0, half_width=20.0):
    pts = (np.arange(-half_width, half_width + 0.5) + shift)[:, None]
    box = [(-half_width + shift, half_width + shift)]
    return PointPatch(dim=1, box=box, points=pts)


K5 = ((-5.0, 5.0),)


class TestCFWithin:
    def test_reflexive(self):
        p = z_like()
        for v in (0.05, 0.2, 1.0):
            assert cf_within(p, p, CFNeighborhoodSpec(K5, v))

    def test_shifted_lattice_outside_small_neighborhood(self):
        assert not cf_within(z_like(), z_like(0.3), CFNeighborhoodSpec(K5, 0.2))

    def test_shifted_lattice_inside_larger_neighborhood(self):
        # nearest distance is 0.3 in both directions
        assert cf_within(z_like(), z_like(0.3), CFNeighborhoodSpec(K5, 0.4))

    def test_symmetry(self):
        a, b = z_like(), z_like(0.3)
        for v in (0.2, 0.4):
            spec = CFNeighborhoodSpec(K5, v)
            assert cf_within(a, b, spec) == cf_within(b, a, spec)

    @given(st.floats(0.05, 0.25), st.floats(0.05, 1.2))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_v_radius(self, shift, v):
        a, b = z_like(), z_like(shift)
        spec_small = CFNeighborhoodSpec(K5, v)
        spec_large = CFNeighborhoodSpec(K5, v + 0.3)
        if cf_within(a, b, spec_small):
            assert cf_within(a, b, spec_large)

    def test_insufficient_coverage_raises(self):
        small = PointPatch(dim=1, box=[(-3, 3)], points=np.arange(-3.0, 4)[:, None])
        with pytest.raises(CoverageError, match="box too small"):
            cf_within(small, z_like(), CFNeighborhoodSpec(K5, 0.5))


KC = ((-5.5, 5.5),)


class TestClusterPartition:
    def test_identity_patch_gives_singletons(self):
        p = z_like()
        part = cluster_partition(p, p, KC, assign_radius=0.1, ell=1)
        assert part.sizes == tuple([1] * 11)

    def test_pair_clusters(self):
        limit = z_like()
        approx_pts = np.sort(
            np.concatenate([np.arange(-20.0, 21), np.arange(-20.0, 21) + 0.05])
        )[:, None]
        approx = PointPatch(dim=1, box=[(-20, 20.1)], points=approx_pts)
        part = cluster_partition(limit, approx, KC, assign_radius=0.1, ell=2)
        assert all(s == 2 for s in part.sizes)
        for anchor, cluster in zip(part.anchors, part.clusters):
            assert np.abs(cluster - anchor).max() <= 0.1

    def test_unassigned_point_error(self):
        with pytest.raises(ClusterError, match="unassigned"):
            cluster_partition(z_like(), z_like(0.3), KC, assign_radius=0.1, ell=2)

    def test_cluster_overflow_error(self):
        limit = z_like()
        approx_pts = np.sort(
            np.concatenate([np.arange(-20.0, 21), np.arange(-20.0, 21) + 0.05])
        )[:, None]
        approx = PointPatch(dim=1, box=[(-20, 20.1)], points=approx_pts)
        with pytest.raises(ClusterError, match="overflow"):
            cluster_partition(limit, approx, KC, assign_radius=0.1, ell=1)

    def test_ambiguous_anchor_error(self):
        limit_pts = np.sort(np.concatenate([np.arange(-20.0, 21), [0.15]]))[:, None]
        limit = PointPatch(dim=1, box=[(-20, 20)], points=limit_pts)
        with pytest.raises(ClusterError, match="ambiguous"):
            cluster_partition(limit, z_like(), KC, assign_radius=0.1, ell=2)

    def test_sizes_sum_to_window_count(self):
        limit = z_like()
        approx_pts = np.sort(
            np.concatenate([np.arange(-20.0, 21), np.arange(-20.0, 21) + 0.05])
        )[:, None]
        approx = PointPatch(dim=1, box=[(-20, 20.1)], points=approx_pts)
        part = cluster_partition(limit, approx, KC, assign_radius=0.1, ell=2)
        in_window = np.sum(np.abs(approx.points[:, 0]) <= 5.5)
        assert sum(part.sizes) == in_window

    @given(st.integers(3, 60))
    @settings(max_examples=20, deadline=None)
    def test_partition_exists_when_cf_close(self, n):
        # perturbed lattice converging to the integer lattice
        limit = z_like()
        eps = 1.0 / (4 * n)
        approx = translate(limit, [eps])
        radius = 0.3
        assert cf_within(limit, approx, CFNeighborhoodSpec(K5, radius))
        part = cluster_partition(limit, approx, KC, assign_radius=radius, ell=1)
        assert all(s == 1 for s in part.sizes)


class TestOrbitSample:
    def test_transversal_samples_contain_origin(self, fibonacci_patch):
        base = restrict(fibonacci_patch, [(-80, 80)])
        translates = transversal_translates(base, K5)
        for sample in orbit_sample(base, translates, K5):
            assert np.any(np.all(np.abs(sample.points) < 1e-9, axis=1))

    def test_lattice_orbit_is_a_single_point(self):
        base = make_lattice_patch(2.0, 40.0)
        translates = transversal_translates(base, K5)
        samples = orbit_sample(base, translates, K5)
        assert len(samples) > 10
        assert all(s == samples[0] for s in samples)

    def test_aperiodic_orbit_has_distinct_windows(self, fibonacci_patch):
        base = restrict(fibonacci_patch, [(-200, 200)])
        translates = transversal_translates(base, K5)
        samples = orbit_sample(base, translates, K5)
        signatures = {tuple(np.round(s.points.ravel(), 6)) for s in samples}
        assert len(signatures) >= 2

    def test_satellites_orbit_includes_near_lattice_windows(self):
        base = make_satellites_patch(300.0)
        samples = orbit_sample(base, [[250.0]], ((-4.0, 4.0),))
        # far from the origin the satellites merge toward the integers
        assert samples[0].n_points == 9 + 8  # integers plus satellites, still distinct

    def test_coverage_error(self):
        base = make_lattice_patch(1.0, 6.0)
        with pytest.raises(CoverageError, match=r"translate \[4\.0\]"):  # the first uncovered one
            orbit_sample(base, [[0.0], [4.0], [-4.0]], K5)

    def test_grid_translates_spacing(self):
        base = make_lattice_patch(1.0, 10.0)
        vecs = grid_translates(base, K5, step=0.5)
        assert vecs.shape[1] == 1
        diffs = np.diff(np.sort(vecs.ravel()))
        assert np.allclose(diffs, 0.5)


def _outcome(sample, patch, translates, k_box):
    try:
        return sample(patch, translates, k_box)
    except (CoverageError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def orbit_cases(draw, dim):
    """A grid patch near 0 or +-1e4, a window whose faces fall on grid steps, and its translates.

    The points are a product of grid values, so in d = 2 whole columns share
    a first coordinate.  A grid value, and so every coordinate on it, may sit
    one ulp off, on either side of a window face; translates may too, and an
    uncovered one may be inserted anywhere.
    """
    center = draw(st.sampled_from([0.0, 0.0, 1.0e4, -1.0e4]))  # p - x rounds where signs differ
    step = draw(st.sampled_from([0.25, 0.1, 1.0 / 3.0, 0.7]))
    half = draw(st.integers(3, 8))
    grid = center + step * np.arange(-half, half + 1)
    nudge = st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=len(grid), max_size=len(grid))
    axes = [np.nextafter(grid, grid + draw(nudge)) for _ in range(dim)]  # one ulp down, none, or up
    used = st.lists(st.integers(0, len(grid) - 1), min_size=1, unique=True)
    pts = np.array(list(itertools.product(*(axis[draw(used)] for axis in axes))))
    box = [(grid[0] - step / 2, grid[-1] + step / 2)] * dim
    below, above = draw(st.integers(0, half - 1)), draw(st.integers(1, half - 1))
    k_box = [(-below * step, above * step)] * dim
    patch = PointPatch(dim=dim, box=box, points=pts)
    if draw(st.booleans()):
        vecs = transversal_translates(patch, k_box)
    else:
        vecs = grid_translates(patch, k_box, draw(st.sampled_from([step, step / 2, 0.3])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = np.nextafter(vecs, vecs + rng.integers(-1, 2, vecs.shape))  # each one ulp down, none, or up
    if draw(st.booleans()):  # a translate whose window leaves the box
        at = draw(st.integers(0, len(vecs)))
        vecs = np.insert(vecs, at, grid[-1] + step, axis=0)
    return patch, vecs, k_box


class TestOrbitSampleOracle:
    @pytest.mark.parametrize("dim", [1, 2])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_translate_loop(self, dim, data):
        patch, vecs, k_box = data.draw(orbit_cases(dim))
        assert _outcome(orbit_sample, patch, vecs, k_box) == _outcome(orbit_sample_oracle, patch, vecs, k_box)

    def test_rounded_face_keeps_a_whole_column(self):
        # fl(-0.75 - x) = -1.25 lies on the window face, although -0.75 < fl(-1.25 + x):
        # a cut at fl(k_lo + x), or one row below it, would drop part of the column at -0.75
        x = np.nextafter(0.5, 1.0)
        pts = [[-0.75, 0.0], [-0.75, 0.25], [-0.75, 0.5], [0.0, 0.0], [x, 0.0]]
        patch = PointPatch(dim=2, box=[(-2.0, 2.0)] * 2, points=pts)
        k_box = [(-1.25, 0.5), (-1.0, 1.0)]
        (sample,) = orbit_sample(patch, [[x, 0.0]], k_box)
        assert sample == orbit_sample_oracle(patch, [[x, 0.0]], k_box)[0]
        assert np.count_nonzero(sample.points[:, 0] == -1.25) == 3
