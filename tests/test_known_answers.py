"""Frame verdicts, Gram spectra and sampling bounds against cases whose answers are theorems.

- Paley-Wiener on ``alpha Z^d`` with ``alpha > 1``: the Gram is a finite
  section of a Toeplitz operator whose symbol counts the integers in an
  interval of length ``alpha``, over ``alpha``; so every eigenvalue lies in
  ``[floor(alpha) / alpha, ceil(alpha) / alpha]`` (Grenander & Szego 1958).
  A product band has the product symbol.
- A square lattice of cell area ``ab`` gives the Gaussian Gabor system a
  frame exactly when ``ab < 1`` and a Riesz sequence exactly when ``ab > 1``
  (Lyubarskii 1992; Seip & Wallsten 1992).
- Paley-Wiener on ``alpha Z`` with ``alpha < 1`` is a tight frame with bounds
  ``1 / alpha``.  The sampling stage's upper bound finds it; its lower bound
  is a finite-window estimate with a bias that does not shrink with the
  truncation, pinned here so that a change to the anchor rule shows.  It
  grows with the margin instead: about 0.91, 0.94 and 0.96 times ``1 / alpha``
  at margins of 0.1, 0.25 and 0.5 times the truncation.
- A sampling set for the band ``[-1/2, 1/2]`` has ``D- >= 1`` (Landau 1967),
  and a uniformly discrete set with ``D+ < 1`` is interpolating for it
  (Beurling; Kahane 1957).  So ``alpha Z`` with ``alpha > 1``, and the
  Fibonacci model set below density 1, get no frame evidence, even within a
  few percent of the Nyquist density.
- The Gaussian kernel on R^2 (the Fock space) gives a frame exactly when
  ``D- > 1`` and a Riesz sequence exactly when ``D+ < 1`` on any uniformly
  discrete set (Seip 1992; Seip & Wallsten 1992): here the rotated product
  Fibonacci model set, whose uniform density is ``1 / covolume``.  Within 5%
  of the critical density ``inconclusive`` is the finite-window answer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import PointPatch, frame_trend_report, generate_model_set, sampling_bounds
from aperio.cutproject import CutProjectScheme, lattice_scheme, model_set_covolume
from aperio.framekit import _gram_eigvalsh
from aperio.pointset import restrict
from aperio.rkhs import gabor_gaussian, paley_wiener

from conftest import make_fibonacci_scheme, make_product_fibonacci_scheme

BANDS = [(-0.5, 0.5), (-0.25, 0.75)]  # each of length 1, so the kernel's diagonal is 1


def grid(*axes: np.ndarray) -> np.ndarray:
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def assert_within(eigs: np.ndarray, lo: float, hi: float) -> None:
    tol = 10 * len(eigs) * np.finfo(float).eps * eigs[-1]
    assert lo - tol <= eigs[0] and eigs[-1] <= hi + tol


class TestToeplitzInclusion:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(alpha=st.floats(1.01, 3.5), band=st.sampled_from(BANDS))
    def test_line(self, alpha, band):
        eigs = _gram_eigvalsh(paley_wiener([band]), alpha * np.arange(-300, 301)[:, None])
        assert_within(eigs, math.floor(alpha) / alpha, math.ceil(alpha) / alpha)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(1.01, 3.5),
        beta=st.floats(1.01, 3.5),
        bands=st.tuples(st.sampled_from(BANDS), st.sampled_from(BANDS)),
    )
    def test_plane_with_a_product_band(self, alpha, beta, bands):
        points = grid(alpha * np.arange(-10, 11), beta * np.arange(-10, 11))
        eigs = _gram_eigvalsh(paley_wiener(list(bands)), points)
        area = alpha * beta
        assert_within(eigs, math.floor(alpha) * math.floor(beta) / area, math.ceil(alpha) * math.ceil(beta) / area)

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("alpha", [1.25, 1.6, 2.5, 3.3])
    def test_line_reaches_both_ends(self, alpha, band):
        eigs = _gram_eigvalsh(paley_wiener([band]), alpha * np.arange(-300, 301)[:, None])
        assert eigs[0] == pytest.approx(math.floor(alpha) / alpha, abs=1e-12)
        assert eigs[-1] == pytest.approx(math.ceil(alpha) / alpha, abs=1e-12)


@pytest.mark.parametrize(
    "cell_area, verdict",
    [(ab, "frame_evidence") for ab in (0.6, 0.8, 0.9, 0.95, 0.98)]
    + [(1.0, "inconclusive")]
    + [(ab, "riesz_evidence") for ab in (1.02, 1.05, 1.1, 1.25, 1.5)],
)
def test_gaussian_gabor_lattice_verdict(cell_area, verdict):
    spacing = math.sqrt(cell_area)
    patch = generate_model_set(lattice_scheme(np.diag([spacing, spacing])), [(-17.5 + 0.05, 17.5 + 0.05)] * 2)
    assert frame_trend_report(gabor_gaussian(1), patch, (8.75, 13.125, 17.5)).verdict == verdict


def lattice_line(alpha: float, half_width: float) -> PointPatch:
    n = int(half_width / alpha)
    return PointPatch(dim=1, box=[(-half_width, half_width)], points=alpha * np.arange(-n, n + 1)[:, None])


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.9])
def test_paley_wiener_tight_frame_sampling_bounds(alpha):
    patch = lattice_line(alpha, 600.0)
    for t in (150.0, 300.0, 600.0):
        lower, upper, _ = sampling_bounds(paley_wiener([(-0.5, 0.5)]), restrict(patch, [(-t, t)]), margin=0.25 * t)
        assert alpha * upper == pytest.approx(1.0, abs=1e-6)
        assert 0.93 <= alpha * lower <= 0.94


def test_paley_wiener_sampling_lower_bound_grows_with_the_margin():
    # the bias of the lower bound is set by the margin's share of the truncation, not by the truncation
    alpha, patch = 0.8, lattice_line(0.8, 600.0)
    bands = {0.1: (0.905, 0.92), 0.25: (0.93, 0.94), 0.5: (0.955, 0.97)}
    for t in (150.0, 300.0, 600.0):
        truncation = restrict(patch, [(-t, t)])
        lows = [alpha * sampling_bounds(paley_wiener([(-0.5, 0.5)]), truncation, margin=f * t)[0] for f in bands]
        assert all(lo <= low <= hi for low, (lo, hi) in zip(lows, bands.values()))
        assert lows == sorted(lows) and len(set(lows)) == len(lows)


def at_density(scheme: CutProjectScheme, density: float) -> CutProjectScheme:
    """``scheme`` with its physical rows scaled so that its model set has ``density`` points per unit volume."""
    basis = scheme.basis.copy()
    basis[: scheme.d] *= (density * model_set_covolume(scheme)) ** (-1.0 / scheme.d)
    return CutProjectScheme(scheme.d, scheme.m, basis, scheme.window)


PW_NEAR_NYQUIST = (paley_wiener([(-0.5, 0.5)]), (150.0, 300.0, 600.0))
NO_FRAME = ("riesz_evidence", "inconclusive")  # within 5% below the Nyquist density


@pytest.mark.parametrize("alpha, verdicts", [(a, NO_FRAME) for a in (1.01, 1.02, 1.03, 1.04)] + [(0.97, ("frame_evidence",))])
def test_paley_wiener_line_near_nyquist_verdict(alpha, verdicts):
    kernel, truncations = PW_NEAR_NYQUIST
    assert frame_trend_report(kernel, lattice_line(alpha, 600.0), truncations).verdict in verdicts


def test_paley_wiener_fibonacci_set_just_below_nyquist_gives_no_frame_evidence():
    kernel, truncations = PW_NEAR_NYQUIST
    patch = generate_model_set(at_density(make_fibonacci_scheme(), 0.97), [(-600.0, 600.0)])
    assert frame_trend_report(kernel, patch, truncations).verdict in NO_FRAME


@pytest.mark.parametrize(
    "density, n_points, verdict", [(0.6, 729, "riesz_evidence"), (0.97, 1193, "inconclusive"), (1.6, 1957, "frame_evidence")]
)
def test_gaussian_fibonacci_model_set_verdict(density, n_points, verdict):
    patch = generate_model_set(at_density(make_product_fibonacci_scheme(), density), [(-17.5, 17.5)] * 2)
    assert patch.n_points == n_points
    assert frame_trend_report(gabor_gaussian(1), patch, (8.75, 13.125, 17.5)).verdict == verdict
