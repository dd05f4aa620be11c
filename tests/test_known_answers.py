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
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import PointPatch, frame_trend_report, generate_model_set, sampling_bounds
from aperio.cutproject import lattice_scheme
from aperio.framekit import _gram_eigvalsh
from aperio.pointset import restrict
from aperio.rkhs import gabor_gaussian, paley_wiener

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
