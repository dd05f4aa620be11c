import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aperio import generate_model_set, model_set_covolume, rel_separation
from aperio.cutproject import CutProjectScheme, Window, _lattice_points, lattice_scheme
from aperio.errors import DegenerateBasisError, EmptyWindowError
from aperio.pointset import restrict

from conftest import (
    SQRT5,
    TAU,
    TAU_CONJ,
    fibonacci_enumeration_oracle,
    make_fibonacci_scheme,
    make_product_fibonacci_scheme,
    product_fibonacci_oracle,
)


class TestWindow:
    def test_volume_sums_boxes(self):
        w = Window(m=1, boxes=(((0.0, 0.5),), ((1.0, 1.25),)))
        assert w.volume == pytest.approx(0.75)

    def test_overlapping_boxes_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            Window(m=1, boxes=(((0.0, 1.0),), ((0.5, 2.0),)))

    def test_touching_boxes_allowed(self):
        w = Window(m=1, boxes=(((0.0, 1.0),), ((1.0, 2.0),)))
        assert w.volume == pytest.approx(2.0)

    def test_half_open_membership(self):
        w = Window(m=1, boxes=(((-0.5, 0.5),),))
        assert w.contains([[-0.5]]).tolist() == [True]
        assert w.contains([[0.5]]).tolist() == [False]


class TestSchemeInvariants:
    def test_singular_basis_rejected(self):
        with pytest.raises(DegenerateBasisError):
            lattice_scheme([[1.0, 2.0], [2.0, 4.0]])

    def test_non_injective_projection_flagged(self):
        # second generator lies entirely in internal space
        with pytest.raises(ValueError, match="not injective"):
            CutProjectScheme(
                d=1, m=1, basis=[[1.0, 0.0], [0.0, 1.0]],
                window=Window(m=1, boxes=(((-0.5, 0.5),),)),
            )

    def test_kernel_vector_past_the_check_radius_is_named_at_generation(self):
        # (-4, 1) projects to 0, beyond the radius-3 check; a window of width 10 holds both ends
        scheme = CutProjectScheme(
            d=1, m=1, basis=[[1.0, 4.0], [1.0, TAU_CONJ]], window=Window(m=1, boxes=(((-5.0, 5.0),),))
        )
        with pytest.raises(ValueError, match="pairwise distinct.*1.78e-15 apart; .* projection is not injective"):
            generate_model_set(scheme, [(-10, 10)])

    @staticmethod
    def accepted(d, basis) -> bool:
        m = len(basis) - d
        try:
            CutProjectScheme(d=d, m=m, basis=basis, window=Window(m=m, boxes=(((-0.5, 0.5),) * m,)) if m else None)
        except (DegenerateBasisError, ValueError):
            return False
        return True

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(["z2", "fibonacci", "rotated-product", "radius-3-kernel"]),
        k=st.integers(-60, 60),
    )
    def test_acceptance_does_not_depend_on_the_basis_scale(self, case, k):
        d, basis = {
            "z2": (2, np.eye(2)),
            "fibonacci": (1, make_fibonacci_scheme().basis),
            "rotated-product": (2, make_product_fibonacci_scheme().basis),
            "radius-3-kernel": (1, np.array([[1.0, 3.0], [1.0, TAU_CONJ]])),  # (3, -1) projects to 0
        }[case]
        assert self.accepted(d, basis) == (case != "radius-3-kernel")
        assert self.accepted(d, basis * 2.0**k) == self.accepted(d, basis)

    def test_small_physical_scale_is_accepted(self):
        lattice_scheme([[1e-7, 0.0], [0.0, 1e-7]])
        basis = make_fibonacci_scheme().basis.copy()
        basis[0] *= 1e-10
        CutProjectScheme(d=1, m=1, basis=basis, window=Window(m=1, boxes=(((-0.5, 0.5),),)))

    def test_m0_takes_no_window(self):
        with pytest.raises(ValueError, match="window"):
            CutProjectScheme(d=1, m=0, basis=[[1.0]], window=Window(m=1, boxes=()))


class TestLatticeGeneration:
    def test_2z_on_interval(self):
        patch = generate_model_set(lattice_scheme([[2.0]]), [(-10, 10)])
        assert patch.points.ravel().tolist() == list(np.arange(-10.0, 11, 2))

    def test_lattice_covolume(self):
        assert model_set_covolume(lattice_scheme([[2.0]])) == 2.0

    def test_2d_product_lattice(self):
        patch = generate_model_set(lattice_scheme(np.diag([1.0, 1.5])), [(-3, 3), (-3, 3)])
        assert patch.n_points == 7 * 5


class TestFibonacciModelSet:
    def test_generation_matches_independent_enumeration(self, fibonacci_scheme):
        patch = generate_model_set(fibonacci_scheme, [(-200, 200)])
        oracle = fibonacci_enumeration_oracle(200.0)
        assert patch.n_points == len(oracle)
        assert np.allclose(patch.points.ravel(), oracle, atol=1e-9)

    def test_empirical_density_near_inverse_sqrt5(self, fibonacci_patch):
        density = fibonacci_patch.n_points / 1000.0
        assert density == pytest.approx(1 / SQRT5, rel=0.01)

    def test_covolume_is_sqrt5(self, fibonacci_scheme):
        # det of [[1, tau], [1, tau']] is tau' - tau = -sqrt(5)
        assert model_set_covolume(fibonacci_scheme) == pytest.approx(SQRT5, abs=1e-12)

    def test_halved_window_halves_the_count(self, fibonacci_scheme):
        full = generate_model_set(fibonacci_scheme, [(-50, 50)])
        narrow = generate_model_set(make_fibonacci_scheme(0.25), [(-50, 50)])
        assert abs(narrow.n_points - full.n_points / 2) <= 2

    def test_doubled_window_volume_halves_covolume(self):
        wide = make_fibonacci_scheme(1.0)
        assert model_set_covolume(wide) == pytest.approx(SQRT5 / 2)

    def test_model_set_is_separated_at_small_window(self, fibonacci_patch):
        sub = restrict(fibonacci_patch, [(-100, 100)])
        assert rel_separation(sub, 0.3).ell == 1

    def test_empty_window_yields_empty_patch(self):
        scheme = CutProjectScheme(
            d=1, m=1, basis=[[1.0, TAU], [1.0, TAU_CONJ]], window=Window(m=1, boxes=())
        )
        patch = generate_model_set(scheme, [(-50, 50)])
        assert patch.is_empty
        with pytest.raises(EmptyWindowError):
            model_set_covolume(scheme)


class TestGeneratorConsistency:
    def test_completeness_nested_boxes(self, fibonacci_scheme):
        big = generate_model_set(fibonacci_scheme, [(-120, 120)])
        small = generate_model_set(fibonacci_scheme, [(-40, 40)])
        assert small == restrict(big, [(-40, 40)])

    def test_shift_invariance_of_enumeration(self, fibonacci_scheme):
        shifted_box = generate_model_set(fibonacci_scheme, [(-30 + 7, 30 + 7)])
        wide = generate_model_set(fibonacci_scheme, [(-50, 50)])
        expected = restrict(wide, [(-23, 37)])
        assert shifted_box == expected

    def test_lattice_box_faces_included(self):
        patch = generate_model_set(lattice_scheme([[1.0]]), [(-3, 3)])
        assert patch.points.ravel().tolist() == [-3, -2, -1, 0, 1, 2, 3]

    def test_2d_model_set_matches_product_oracle(self):
        box = [(-13.3, 11.8), (-10.1, 14.6)]
        patch = generate_model_set(make_product_fibonacci_scheme(), box)
        oracle = product_fibonacci_oracle(box)
        assert patch.n_points == len(oracle) > 100
        assert np.allclose(patch.points, oracle, atol=1e-9)

    def test_large_fibonacci_box(self, fibonacci_scheme):
        half = 3e5
        big = generate_model_set(fibonacci_scheme, [(-half, half)])
        # window length 1 lies in Z[tau]: bounded discrepancy around 2L/sqrt(5)
        assert abs(big.n_points - 2 * half / SQRT5) <= 2
        small = generate_model_set(fibonacci_scheme, [(-200, 200)])
        assert restrict(big, [(-200, 200)]) == small


def _integer_cube(radius: int, n: int) -> np.ndarray:
    side = 2 * radius + 1
    return np.indices((side,) * n).reshape(n, -1).T - radius


class TestLatticePoints:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3]), data=st.data())
    def test_matches_brute_force_cube(self, n, data):
        entries = st.floats(-0.6, 0.6, allow_nan=False)
        basis = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
        basis += np.diag(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        sigma_min = np.linalg.svd(basis, compute_uv=False).min()
        assume(sigma_min > 0.5)
        if data.draw(st.booleans()):
            # faces through two lattice points
            zs = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n))).reshape(2, n)
            corners = zs @ basis.T
            lo, hi = corners.min(axis=0), corners.max(axis=0)
        else:
            lo = np.array(data.draw(st.lists(st.floats(-4, 4), min_size=n, max_size=n)))
            hi = lo + np.array(data.draw(st.lists(st.floats(0, 3), min_size=n, max_size=n)))
        region = tuple(zip(lo.tolist(), hi.tolist()))
        # |z| <= |basis @ z| / sigma_min bounds every lattice point in the region
        reach = np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)))
        gamma = _integer_cube(int(math.ceil(reach / sigma_min)) + 1, n) @ basis.T
        expected = gamma[np.all((gamma >= lo) & (gamma <= hi), axis=1)]
        assert np.array_equal(_lattice_points(basis, region), expected)

    def test_quarter_turn_keeps_face_points(self):
        # cos(pi/2) ~ 6e-17 shifts face points by less than an ulp of the face
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        basis = np.array([[c, -s], [s, c]])
        gamma = _integer_cube(5, 2) @ basis.T
        expected = gamma[np.all((gamma >= -3) & (gamma <= 3), axis=1)]
        assert len(expected) == 49
        assert np.array_equal(_lattice_points(basis, ((-3.0, 3.0), (-3.0, 3.0))), expected)

    def test_cap_refuses_before_allocating(self, fibonacci_scheme):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="prefixes exceeds the limit"):
                generate_model_set(fibonacci_scheme, [(-1e9, 1e9)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1_000_000
