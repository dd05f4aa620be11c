import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aperio import kernel_matrix, wiener_amalgam_norm
from aperio.errors import ArgumentError, DimensionMismatchError, GridTooCoarseError
from aperio.rkhs import COORDINATE_LIMIT, UNDERFLOW_FLOOR, _local_max, gabor_gaussian, paley_wiener

from conftest import (
    amalgam_grid_oracle,
    broadcast_gabor_matrix,
    broadcast_pw_matrix,
    heisenberg_phase,
    kernel_value,
    local_max_oracle,
    per_axis_pw_matrix,
)


def gaussian_window(t):
    """L2-normalized Gaussian on R."""
    return 2**0.25 * np.exp(-np.pi * t**2)


def stft_coefficient(p, q, t_half=8.0, dt=1e-3):
    """Quadrature oracle: inner product of the time-frequency shifted windows.

    Computes <pi(q) eta, pi(p) eta> directly from the shift convention
    pi(x, w) f(t) = exp(2 pi i w t) f(t - x) by trapezoidal quadrature.
    """
    t = np.arange(-t_half, t_half + dt, dt)
    xq, wq = q
    xp, wp = p
    fq = np.exp(2j * np.pi * wq * t) * gaussian_window(t - xq)
    fp = np.exp(2j * np.pi * wp * t) * gaussian_window(t - xp)
    return np.trapezoid(fq * np.conj(fp), t)


class TestPaleyWienerKernel:
    def test_diagonal_is_band_volume(self):
        pw = paley_wiener([(-0.5, 0.5)])
        assert kernel_value(pw, [0.3], [0.3]) == pytest.approx(1.0)
        wide = paley_wiener([(-1.0, 1.0)])
        assert kernel_value(wide, [0.0], [0.0]) == pytest.approx(2.0)

    def test_zero_at_integer_offsets(self):
        pw = paley_wiener([(-0.5, 0.5)])
        for k in (1, 2, 5):
            assert abs(kernel_value(pw, [float(k)], [0.0])) < 1e-12

    def test_matches_band_integral_oracle(self):
        # k(x, y) = integral of exp(2 pi i w (x - y)) over the band
        band = (-0.3, 0.7)
        pw = paley_wiener([band])
        w = np.linspace(band[0], band[1], 20_001)
        for u in (0.0, 0.37, -1.3, 2.25):
            oracle = np.trapezoid(np.exp(2j * np.pi * w * u), w)
            assert kernel_value(pw, [u], [0.0]) == pytest.approx(oracle, abs=1e-7)

    def test_product_form_in_2d(self):
        pw = paley_wiener([(-0.5, 0.5), (-1.0, 1.0)])
        v = kernel_value(pw, [0.3, 0.4], [0.0, 0.0])
        v1 = kernel_value(paley_wiener([(-0.5, 0.5)]), [0.3], [0.0])
        v2 = kernel_value(paley_wiener([(-1.0, 1.0)]), [0.4], [0.0])
        assert v == pytest.approx(v1 * v2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_value(paley_wiener([(-0.5, 0.5)]), [0.0, 1.0], [0.0, 0.0])


class TestGaborKernel:
    def test_diagonal_is_one(self):
        gg = gabor_gaussian(1)
        assert kernel_value(gg, [0.3, 0.7], [0.3, 0.7]) == pytest.approx(1.0)

    def test_magnitude_at_unit_distance(self):
        gg = gabor_gaussian(1)
        v = kernel_value(gg, [1.0, 0.0], [0.0, 0.0])
        assert abs(v) == pytest.approx(math.exp(-math.pi / 2), abs=1e-12)

    def test_magnitude_matches_stft_oracle(self):
        gg = gabor_gaussian(1)
        rng = np.random.default_rng(11)
        for _ in range(5):
            p, q = rng.uniform(-2, 2, size=(2, 2))
            oracle = stft_coefficient(p, q)
            assert abs(kernel_value(gg, p, q)) == pytest.approx(abs(oracle), abs=1e-6)

    def test_phase_matches_stft_oracle_up_to_unitary(self):
        # Gram spectra are convention independent: compare eigenvalues of the
        # kernel Gram and of the quadrature coherent-state Gram
        gg = gabor_gaussian(1)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.5, 1.5, size=(5, 2))
        gram_kernel = kernel_matrix(gg, pts, pts).T
        gram_oracle = np.array(
            [[stft_coefficient(pts[j], pts[i]) for j in range(5)] for i in range(5)]
        )
        ek = np.linalg.eigvalsh((gram_kernel + gram_kernel.conj().T) / 2)
        eo = np.linalg.eigvalsh((gram_oracle + gram_oracle.conj().T) / 2)
        assert np.abs(ek - eo).max() < 1e-6

    def test_higher_dimension_factorizes(self):
        gg2 = gabor_gaussian(2)
        p = [0.5, -0.2, 0.1, 0.3]
        v = kernel_value(gg2, p, [0.0] * 4)
        mag = math.exp(-math.pi * sum(c * c for c in p) / 2)
        assert abs(v) == pytest.approx(mag, abs=1e-12)


class TestCriticalDensity:
    def test_band_volume(self):
        assert paley_wiener([(-0.5, 0.5)]).norm_sq_ke == 1.0
        assert paley_wiener([(-1.0, 1.0)]).norm_sq_ke == 2.0

    @pytest.mark.parametrize(
        "half, accepted",
        [(5e-162, True), (1e-170, False), (5e153, True), (1e154, False)],
        ids=["square-subnormal", "square-underflows", "square-near-max", "square-overflows"],
    )
    def test_kernel_needs_a_positive_finite_square(self, half, accepted):
        # the square of the critical density is positive and finite, or the kernel is refused where it is made;
        # past 1.3e154 a float power c ** 2 would raise OverflowError instead
        if accepted:
            assert 0 < paley_wiener([(-half, half)]).norm_sq_ke ** 2 < math.inf
        else:
            with pytest.raises(ArgumentError, match=r"critical density .* must be positive and its square finite"):
                paley_wiener([(-half, half)])

    @pytest.mark.parametrize("make", [lambda: gabor_gaussian(4), lambda: paley_wiener([(-0.5, 0.5)] * 8)], ids=["gabor", "band"])
    def test_space_dimension_eight_is_accepted(self, make):
        # the bound kernel_matrix's block budget holds for; one axis more is refused (test_errors)
        assert make().space_dim == 8

    def test_gabor_formal_dimension_by_quadrature(self):
        # orthogonality-relation integral of |<eta, pi(z) eta>|^2 over the
        # time-frequency plane equals 1 for the normalized Gaussian
        xs = np.linspace(-5, 5, 201)
        ws = np.linspace(-5, 5, 201)
        t = np.linspace(-8, 8, 801)
        eta = gaussian_window(t)
        # V(x, w) = int eta(t) eta(t - x) exp(-2 pi i w t) dt
        sq_mass = 0.0
        for x in xs:
            prod = eta * gaussian_window(t - x)
            coeffs = np.trapezoid(
                prod[None, :] * np.exp(-2j * np.pi * ws[:, None] * t[None, :]), t, axis=1
            )
            sq_mass += np.trapezoid(np.abs(coeffs) ** 2, ws)
        integral = sq_mass * (xs[1] - xs[0])
        assert integral == pytest.approx(1.0, abs=1e-3)
        assert gabor_gaussian(1).norm_sq_ke == pytest.approx(integral, abs=1e-3)


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hermitian_symmetry(self, data):
        # k(y, x) = conj k(x, y) bit for bit (signed zeros compare equal): the Gram solver reads only
        # the rows of orbit representatives and checks no entry against its partner
        kernel = data.draw(st.sampled_from([k for k, _ in SYMMETRY_KEYS.values()]), label="kernel")
        scale = 10.0 ** data.draw(st.floats(0, 6), label="log10 scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (data.draw(st.integers(1, 16), label="n"), kernel.space_dim)
        if data.draw(st.booleans(), label="shared"):  # coordinates drawn from four values on a 1/8 grid
            pts = rng.choice(np.round(rng.uniform(-scale, scale, 4) * 8.0) / 8.0, shape)
        else:
            pts = rng.uniform(-scale, scale, shape)
        gram = kernel_matrix(kernel, pts, pts)
        assert np.array_equal(gram, gram.conj().T)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_translation_covariance_of_magnitudes(self, seed):
        rng = np.random.default_rng(seed)
        gg = gabor_gaussian(1)
        p, q, t = rng.uniform(-3, 3, size=(3, 2))
        assert abs(kernel_value(gg, p + t, q + t)) == pytest.approx(
            abs(kernel_value(gg, p, q)), abs=1e-12
        )

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        for kernel, dim in ((paley_wiener([(-0.5, 0.5)]), 1), (gabor_gaussian(1), 2)):
            for _ in range(5):
                pts = rng.uniform(-5, 5, size=(12, dim))
                gram = kernel_matrix(kernel, pts, pts)
                eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
                assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


# each kernel with the axes its two reflections negate: P fixes every entry, R conjugates every entry
SYMMETRY_KEYS = {
    "gabor-1": (gabor_gaussian(1), ((2, 0), (0, 1), (1, 0))),
    "gabor-2": (gabor_gaussian(2), ((2, 0), (0, 1), (1, 0))),
    "pw-symmetric-1d": (paley_wiener([(-0.5, 0.5)]), ((2, 0),)),
    "pw-symmetric-2d": (paley_wiener([(-0.5, 0.5), (-0.75, 0.75)]), ((2, 0),)),
    "pw-asymmetric-1d": (paley_wiener([(-0.25, 0.75)]), ((0, 1),)),
    "pw-asymmetric-2d": (paley_wiener([(-0.5, 0.5), (0.0, 0.5)]), ((0, 1),)),
}


class TestFiniteRange:
    @pytest.mark.parametrize(
        "kernel, scale",
        [
            (paley_wiener([(-0.5, 0.5)]), 1.0),
            (paley_wiener([(-1e100, 3.0)]), 1e100),
            (paley_wiener([(0.25, 0.75), (-2.0, 2.0)]), 2.0),
            (gabor_gaussian(1), math.sqrt(2.0)),
            (gabor_gaussian(2), 2.0),
        ],
        ids=["pw-unit", "pw-wide-edge", "pw-2d", "gabor-1", "gabor-2"],
    )
    def test_entries_finite_up_to_the_range_and_refused_past_it(self, kernel, scale):
        # the largest coordinate M with M * scale <= 2**500, on every corner of [-M, M]^d and at 0;
        # a NaN or overflow inside kernel_matrix would fail the suite as a RuntimeWarning
        reach = COORDINATE_LIMIT / scale
        while reach * scale > COORDINATE_LIMIT:
            reach = np.nextafter(reach, 0.0)
        while np.nextafter(reach, math.inf) * scale <= COORDINATE_LIMIT:
            reach = np.nextafter(reach, math.inf)
        dim = kernel.space_dim
        corners = np.array([[0.0] * dim, *itertools.product((-reach, reach), repeat=dim)])
        assert np.isfinite(kernel_matrix(kernel, corners, corners)).all()
        past = np.zeros((1, dim))
        past[0, -1] = -np.nextafter(reach, math.inf)
        for xs, ys in ((past, corners), (corners, past)):
            with pytest.raises(ValueError, match="past the kernel's finite range"):
                kernel_matrix(kernel, xs, ys)


class TestSymmetries:
    @pytest.mark.parametrize("case", list(SYMMETRY_KEYS))
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.5, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_each_generator_fixes_conjugates_or_turns_every_entry(self, case, seed, scale):
        # the Gram solver's real blocks rest on P and R holding exactly, which needs the build's exp, sin and
        # cos to be odd or even to the bit; J holds to the rounding of phases of up to about 4 pi n scale^2
        kernel, keys = SYMMETRY_KEYS[case]
        assert tuple(key for _, _, key in kernel.symmetries) == keys
        pts = np.random.default_rng(seed).uniform(-scale, scale, (24, kernel.space_dim))
        gram = kernel_matrix(kernel, pts, pts)
        for perm, signs, key in kernel.symmetries:
            images = pts[:, list(perm)] * signs  # T^-1 x
            assert not np.array_equal(images, pts)  # no identity passes for a symmetry
            got = kernel_matrix(kernel, images, images)
            assert got.dtype == gram.dtype
            if key == (2, 0):
                assert np.array_equal(got, gram)
            elif key == (0, 1):
                assert np.array_equal(got, gram.conj())
            else:  # k(T^-1 p, T^-1 q) = d(p) k(p, q) conj d(q), as for J itself, with conj d = turn_phase
                d = kernel.turn_phase(pts).conj()
                n = kernel.space_dim // 2
                assert np.abs(got - d[:, None] * gram * d.conj()).max() <= 16 * np.finfo(float).eps * n * scale**2


class TestCocycle:
    def test_identity_on_10k_random_triples(self):
        rng = np.random.default_rng(42)
        p, q, r = rng.uniform(-3, 3, size=(3, 10_000, 2))
        lhs = heisenberg_phase(p, q) * heisenberg_phase(p + q, r)
        rhs = heisenberg_phase(p, q + r) * heisenberg_phase(q, r)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_unit_at_the_identity(self):
        zero = np.zeros(2)
        pts = np.random.default_rng(1).uniform(-3, 3, size=(50, 2))
        assert np.abs(heisenberg_phase(zero, pts) - 1.0).max() < 1e-15
        assert np.abs(heisenberg_phase(pts, zero) - 1.0).max() < 1e-15

    def test_kernel_translates_by_the_cocycle(self):
        # k(p + t, q + t) = sigma(t, p) conj(sigma(t, q)) k(p, q): the cocycle is the kernel's own convention
        rng = np.random.default_rng(43)
        p, q = rng.uniform(-3, 3, size=(2, 50, 2))
        t = rng.uniform(-3, 3, size=2)
        moved = kernel_matrix(gabor_gaussian(1), p + t, q + t)
        phases = heisenberg_phase(t, p)[:, None] * np.conj(heisenberg_phase(t, q))[None, :]
        assert np.abs(moved - phases * kernel_matrix(gabor_gaussian(1), p, q)).max() < 1e-12


@st.composite
def amalgam_cases(draw):
    """A kernel and ``(q_radius, trunc_radius, grid_step)`` whose grid has at most about 6,000 positions.

    The Gaussian kernel on R^2, or a Paley-Wiener band in d = 1 to 3 of widths
    1e-3 to 1e30 per axis, each axis symmetric about 0 or shifted.
    """
    if draw(st.booleans()):
        kernel = gabor_gaussian(1)
    else:
        band = []
        for _ in range(draw(st.integers(1, 3))):
            width = 10.0 ** draw(st.floats(-3.0, 30.0))
            centre = draw(st.sampled_from([0.0, 0.25, -0.5]) | st.floats(-2.0, 2.0)) * width
            band.append((centre - width / 2, centre + width / 2))
        kernel = paley_wiener(band)
    q = draw(st.floats(0.05, 2.0))
    step = q / draw(st.floats(1.05, 3.0))
    # about 4 q / step + 2 extra + 1 positions per axis: at most 18 in d = 3
    extra = draw(st.floats(0.01, {1: 40.0, 2: 12.0, 3: 2.0}[kernel.space_dim]))
    return kernel, q, q + extra * step, step


class TestAmalgamNorm:
    def test_gabor_matches_analytic_oracle(self):
        # |k_e| is a radial Gaussian, so its sliding sup has the closed form
        # exp(-pi * max(0, |x_i| - q)^2 ...) per coordinate and the squared
        # norm factorizes into (2 q + 1) per dimension
        gg = gabor_gaussian(1)
        q = 0.5
        value = wiener_amalgam_norm(gg, q_radius=q, trunc_radius=8.0, grid_step=0.02)
        xs = np.linspace(-8, 8, 4001)
        local = np.exp(-np.pi * np.maximum(0.0, np.abs(xs) - q) ** 2)
        oracle = np.trapezoid(local, xs)  # squared-norm factor per dimension
        assert value**2 == pytest.approx(oracle**2, rel=0.01)
        assert value == pytest.approx(2 * q + 1, rel=0.01)

    def test_gabor_truncation_tail_negligible(self):
        gg = gabor_gaussian(1)
        a = wiener_amalgam_norm(gg, 0.5, 6.0, 0.025)
        b = wiener_amalgam_norm(gg, 0.5, 12.0, 0.025)
        assert abs(b - a) / a < 0.005

    def test_sinc_local_maximum_norm_is_finite(self):
        pw = paley_wiener([(-0.5, 0.5)])
        value = wiener_amalgam_norm(pw, q_radius=0.5, trunc_radius=60.0, grid_step=0.01)
        assert np.isfinite(value)
        # the sliding sup of |sinc| is enveloped by 1 / (pi (|x| - q)), hence
        # square integrable; a crude upper bound on the truncated norm:
        xs = np.arange(0.0, 60.01, 0.01)
        envelope = np.minimum(1.0, 1.0 / (np.pi * np.maximum(xs - 0.5, 1e-9)))
        bound = math.sqrt(2 * np.trapezoid(envelope**2, xs))
        assert value <= bound + 0.05

    @pytest.mark.parametrize(
        "kernel, args, expected",
        [
            (paley_wiener([(-0.5, 0.5)]), (0.5, 20.0, 0.02), "1.4364665375470835"),
            (gabor_gaussian(1), (0.3, 3.0, 0.04), "1.5592967252096732"),
        ],
        ids=["pw-criterion-10", "gabor-2d"],
    )
    def test_value_pinned(self, kernel, args, expected):
        # the doubles scipy.ndimage.maximum_filter(mode="nearest") gave before the running max replaced it
        assert repr(wiener_amalgam_norm(kernel, *args)) == expected

    def test_value_pinned_where_the_floor_bites(self):
        # the value of the unfloored kernel; 6,360 of the 17,689 grid magnitudes lie below the floor
        axis = np.linspace(-16.5, 16.5, 133)
        mag = np.exp(-np.pi * (axis[:, None] ** 2 + axis[None, :] ** 2) / 2)
        assert (mag < UNDERFLOW_FLOOR).sum() == 6360
        assert wiener_amalgam_norm(gabor_gaussian(1), 0.5, 16.0, 0.25).hex() == "0x1.0000000000000p+1"

    def test_million_position_grid_is_summed_per_axis(self):
        # 1,001^2 positions, evaluated as two axes of 1,001: the peak is 84 kB, where the grid's magnitudes alone take 8 MB
        tracemalloc.start()
        try:
            value = wiener_amalgam_norm(gabor_gaussian(1), q_radius=0.5, trunc_radius=4.5, grid_step=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repr(value) == "1.9999999999999574"
        assert peak < 250e3

    def test_four_dimensional_norm_is_the_square_of_the_two_dimensional_one(self):
        # the Gaussian on R^4 is the product of two on R^2; 851^4 grid positions exceed GRID_LIMIT, 851 per axis do not
        wide = wiener_amalgam_norm(gabor_gaussian(2), 0.5, 8.0, 0.02)
        square = wiener_amalgam_norm(gabor_gaussian(1), 0.5, 8.0, 0.02) ** 2
        assert abs(wide - square) <= 4 * np.finfo(float).eps * square

    def test_norm_keeps_its_digits_where_the_squared_kernel_is_subnormal(self):
        # |k_e| <= c = 1e-160, so the whole grid's squares are subnormal and its sum lost 4e-6 of the
        # norm.  The first factor is 1e-160 to 15 digits on the grid: the norm is 1e-160 sqrt(41 step)
        # (41 inner positions) times the 1-d norm.
        value = wiener_amalgam_norm(paley_wiener([(-5e-161, 5e-161), (-0.5, 0.5)]), 0.5, 2.0, 0.1)
        step = np.linspace(-2.5, 2.5, 51)[1] + 2.5
        one_axis = wiener_amalgam_norm(paley_wiener([(-0.5, 0.5)]), 0.5, 2.0, 0.1)
        assert value == pytest.approx(1e-160 * math.sqrt(41 * step) * one_axis, rel=1e-12, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_local_max_matches_looped_filter(self, data):
        n = data.draw(st.integers(1, 40))
        cells = st.floats(0.0, 1e3) | st.sampled_from([0.0, 0.5, 1.0])  # ties too
        values = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
        reach = data.draw(st.integers(0, 9))  # windows of 1 to 19 cells, wider than the array too
        assert np.array_equal(_local_max(values, reach), local_max_oracle(values, reach))

    @settings(max_examples=100, deadline=None)
    @given(case=amalgam_cases())
    @example(case=(paley_wiener([(-1e30, 1e30)] * 3), 0.5, 1.0, 0.25))  # c = 8e90, whose fourth power overflows
    @example(case=(paley_wiener([(-5e-171, 5e-171), (-5e139, 5e139)]), 0.5, 1.0, 0.25))  # a width whose square underflows
    def test_norm_matches_the_whole_grid(self, case):
        kernel, *args = case
        expected = amalgam_grid_oracle(kernel, *args)
        got = wiener_amalgam_norm(kernel, *args)
        assert abs(got - expected) <= 4 * kernel.space_dim * np.finfo(float).eps * expected

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(GridTooCoarseError, match="grid too coarse"):
            wiener_amalgam_norm(gabor_gaussian(1), q_radius=0.1, trunc_radius=4.0, grid_step=0.2)


class TestKernelAtIdentity:
    def test_consistency_with_kernel_value(self):
        gg = gabor_gaussian(1)
        u = np.array([[0.7, -0.3]])
        # with the trivial relation k(u, 0) = sigma-dependent phase * k_e(u),
        # magnitudes must agree
        assert abs(kernel_matrix(gg, u, np.zeros((1, 2)))[0, 0]) == pytest.approx(
            abs(kernel_value(gg, u[0], np.zeros(2))), abs=1e-12
        )

    def test_pw_identity_kernel_is_real_for_symmetric_band(self):
        pw = paley_wiener([(-0.5, 0.5)])
        vals = kernel_matrix(pw, np.linspace(-3, 3, 11)[:, None], np.zeros((1, 1)))[:, 0]
        assert np.abs(vals.imag).max() < 1e-12


# |p - q|^2 at which the Gaussian magnitude exp(-pi |p - q|^2 / 2) is 2^-511, and at which its
# real exponent is log(2^-511) - 1, where exp starts being skipped
FLOOR_DIST_SQ = 2 * 511 * math.log(2) / math.pi
CUTOFF_DIST_SQ = 2 * (511 * math.log(2) + 1) / math.pi


def floored_gabor_matrix(spec, P, Q):
    """``broadcast_gabor_matrix`` with every entry of magnitude below ``UNDERFLOW_FLOOR`` set to 0."""
    out = broadcast_gabor_matrix(spec, P, Q)
    out[np.abs(out) < UNDERFLOW_FLOOR] = 0.0
    return out


class TestBlockedAssembly:
    @pytest.mark.parametrize(
        "spec, oracle",
        [
            (gabor_gaussian(1), floored_gabor_matrix),
            (gabor_gaussian(2), floored_gabor_matrix),
            (gabor_gaussian(3), floored_gabor_matrix),
            (paley_wiener([(-0.5, 0.5)]), broadcast_pw_matrix),
            (paley_wiener([(-0.5, 0.5), (-1.0, 0.25)]), broadcast_pw_matrix),
        ],
        ids=["gabor-1", "gabor-2", "gabor-3", "pw-1d", "pw-2d"],
    )
    def test_bit_identical_to_broadcast(self, spec, oracle):
        import aperio.pointset as pointset_mod

        rng = np.random.default_rng(5)
        d = spec.space_dim
        # quarter-grid rows repeat coordinates (zero differences, diagonal
        # limits); the rows span more than one row block at any d
        X = np.round(rng.uniform(-6, 6, size=(1200, d)) * 4) / 4
        Y = np.vstack([X[:600], rng.uniform(-6, 6, size=(600, d))])
        assert len(X) * Y.size > pointset_mod.BLOCK_ELEMENTS
        got = kernel_matrix(spec, X, Y)
        want = oracle(spec, X, Y)
        assert got.dtype == want.dtype  # float64 just for a band symmetric about 0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
    @pytest.mark.parametrize("band", [[(-0.25, 0.75)], [(-0.25, 0.75), (-0.5, 0.25)]], ids=["1d", "2d"])
    def test_one_phase_agrees_with_per_axis_modulation(self, band, scale):
        # exp(i pi theta) once against one modulated factor per axis: they differ by the phase's rounding,
        # relative to |k| within 8 eps (1 + pi sum_k |(lo_k + hi_k) u_k|)
        spec = paley_wiener(band)
        rng = np.random.default_rng(11)
        X = rng.uniform(-scale, scale, size=(300, len(band)))
        Y = np.vstack([X[:100], rng.uniform(-scale, scale, size=(200, len(band)))])
        got, want = kernel_matrix(spec, X, Y), per_axis_pw_matrix(spec, X, Y)
        phase = np.abs((X[:, None, :] - Y[None, :, :]) * [lo + hi for lo, hi in band]).sum(axis=-1)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * (1 + np.pi * phase) * np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(
        dist_sq=st.sampled_from([FLOOR_DIST_SQ, CUTOFF_DIST_SQ]),
        ulps=st.integers(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pairs_at_the_floor_and_the_exp_cutoff(self, n, dist_sq, ulps, seed):
        # |p - q|^2 within a few ulps of where |k| crosses the floor, or where exp starts being skipped
        rng = np.random.default_rng(seed)
        q = rng.uniform(-5, 5, size=2 * n)
        u = rng.standard_normal(2 * n)
        p = q + math.sqrt(dist_sq * (1 + ulps * 2.0**-52)) * u / np.linalg.norm(u)
        assert np.sum((p - q) ** 2) == pytest.approx(dist_sq, rel=1e-13)
        X, Y = np.array([p, q]), np.array([q, p])
        got = kernel_matrix(gabor_gaussian(n), X, Y)
        assert np.array_equal(got.view(np.uint64), floored_gabor_matrix(gabor_gaussian(n), X, Y).view(np.uint64))

    @pytest.mark.parametrize(
        "spec, X",
        [
            (paley_wiener([(-0.5, 0.5)]), np.linspace(-300.0, 300.0, 601)),
            (paley_wiener([(-0.25, 0.75)]), np.linspace(-300.0, 300.0, 601)),
            (gabor_gaussian(1), np.indices((25, 25)).reshape(2, -1).T.astype(float)),
        ],
        ids=["pw-1d", "pw-1d-shifted", "gabor-1"],
    )
    def test_assembly_allocates_less_than_twice_its_output(self, spec, X):
        # blocks that counted only the coordinate differences peaked at 4.06x (pw-1d) and 3.00x (gabor-1)
        tracemalloc.start()
        try:
            out = kernel_matrix(spec, X, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes
