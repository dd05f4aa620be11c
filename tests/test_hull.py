import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import PointPatch, orbit_sample
from aperio.errors import CoverageError
from aperio.hull import grid_translates, transversal_translates
from aperio.pointset import restrict

from conftest import make_lattice_patch, make_satellites_patch, orbit_sample_oracle


K5 = ((-5.0, 5.0),)


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
        with pytest.raises(CoverageError, match=re.escape("translate [4.0] needs ((-1.0, 9.0),)")):  # the first uncovered one
            orbit_sample(base, [[0.0], [4.0], [-4.0]], K5)

    def test_transversal_translates_are_covered_at_large_coordinates(self):
        # 131067.05 + 5 rounds down to 131072.05, whose window starts 1.5e-11 below the box: a span
        # rounded to nearest once admitted that translate, and orbit_sample refused it
        base = PointPatch(dim=1, box=[(131067.05, 131167.05)], points=[[131072.05], [131092.05]])
        translates = transversal_translates(base, K5)
        assert translates.tolist() == [[131092.05]]
        assert len(orbit_sample(base, translates, K5)) == 1

    def test_grid_translates_spacing(self):
        base = make_lattice_patch(1.0, 10.0)
        vecs = grid_translates(base, K5, step=0.5)
        assert vecs.shape[1] == 1
        diffs = np.diff(np.sort(vecs.ravel()))
        assert np.allclose(diffs, 0.5)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grid_limit_builds_the_first_translates(self, dim):
        patch, k_box, step = make_lattice_patch(1.0, 10.0, dim), [(-5.0, 5.0)] * dim, 0.7
        full = grid_translates(patch, k_box, step)
        axes = [-5.0 + step * np.arange(15)] * dim  # the grid as a meshgrid, the first axis slowest
        assert full.tobytes() == np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1).tobytes()
        for n in (0, 1, len(full) - 1, len(full), len(full) + 5):
            part = grid_translates(patch, k_box, step, limit=n)
            assert part.shape == full[:n].shape and part.tobytes() == full[:n].tobytes()

    def test_grid_limit_allocates_only_its_translates(self):
        # a grid of 10^6 translates, 8 MB of coordinates if it were built whole
        patch = make_lattice_patch(1.0, 50.0)
        tracemalloc.start()
        try:
            vecs = grid_translates(patch, K5, 9e-5, limit=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vecs.tolist() == [[-45.0]] and peak < 1 << 20


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

    def test_later_sample_with_collapsed_points_raises_as_the_oracle(self):
        # 0.5 and the next double both shift to fl(0.5 + 4) = 4.5, so the second window holds two equal points
        patch = PointPatch(dim=1, box=[(-20.0, 20.0)], points=[[0.0], [0.5], [np.nextafter(0.5, 1.0)]])
        vecs = [[0.0], [-4.0], [30.0]]  # the uncovered third translate comes after the failure
        expected = (ValueError, "points must be pairwise distinct")
        assert _outcome(orbit_sample, patch, vecs, K5) == _outcome(orbit_sample_oracle, patch, vecs, K5) == expected

    def test_collapsed_first_coordinates_are_sorted_on_the_next(self):
        patch = PointPatch(dim=2, box=[(-20.0, 20.0)] * 2, points=[[0.5, 1.0], [np.nextafter(0.5, 1.0), 0.0]])
        k_box = [(-5.0, 5.0)] * 2
        (sample,) = orbit_sample(patch, [[-4.0, 0.0]], k_box)
        assert sample.points.tolist() == [[4.5, 0.0], [4.5, 1.0]]
        assert sample == orbit_sample_oracle(patch, [[-4.0, 0.0]], k_box)[0]
