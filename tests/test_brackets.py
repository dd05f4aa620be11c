"""Spectral values as brackets at the solver's resolution (``io_json.SolverGrid``), and the
real arithmetic of Paley-Wiener kernels whose bands are symmetric about 0."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperio import PointPatch, frame_trend_report, kernel_matrix
from aperio.framekit import RANK_TOL
from aperio.io_json import BRACKET_MARGIN, NEAR_CUT, SolverGrid, frame_report_to_jsonable
from aperio.rkhs import paley_wiener

from conftest import complex_cast_frame_report


def bracket_oracle(x: float, n: int, lam_min: float, lam_max: float) -> list[Fraction]:
    """``SolverGrid(n, lam_min, lam_max).bracket(x)`` in ``Fraction``s, the grid found by a linear search."""
    delta = n * Fraction(max(abs(lam_min), abs(lam_max))) / 2**52
    k = 0
    while delta and Fraction(10) ** k < BRACKET_MARGIN * delta:
        k += 1
    while delta and Fraction(10) ** (k - 1) >= BRACKET_MARGIN * delta:
        k -= 1
    g = Fraction(10) ** k
    cut = RANK_TOL * lam_max
    if x <= cut:
        return [Fraction(0), max(math.ceil((cut + delta) / g), 0) * g]
    return [max(math.floor((x - delta) / g), 0) * g, max(math.ceil((x + delta) / g), 0) * g]


class TestSolverGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 4000),
        lam_max=st.floats(1e-200, 1e200),
        low=st.floats(-1e-12, 1.0),
        at=st.floats(0.0, 1.0),
    )
    def test_endpoints_are_exact(self, n, lam_max, low, at):
        lam_min = low * lam_max
        x = lam_min + at * (lam_max - lam_min)
        got = SolverGrid(n, lam_min, lam_max).bracket(x)
        assert [Fraction(v) for v in got] == bracket_oracle(x, n, lam_min, lam_max)
        assert 0 <= float(got[0]) <= float(got[1])

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(8, 40),
        rank=st.floats(0.0, 1.0),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        is_complex=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bracket_holds_the_unperturbed_eigenvalue(self, n, rank, scale, is_complex, seed):
        # a low-rank PSD Gram, and the same Gram with its diagonal moved by up to 2 ulps of ||G||:
        # its eigenvalues move by at most about 0.8 delta, and each bracket must hold the unmoved one
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, 1 + int(rank * (n - 1)))) * scale
        if is_complex:
            v = v + 1j * rng.standard_normal(v.shape) * scale
        gram = v @ v.conj().T
        gram = (gram + gram.conj().T) / 2
        exact = np.linalg.eigvalsh(gram)
        moved = gram + np.diag(rng.integers(-2, 3, n) * np.spacing(np.abs(exact).max()))
        got = np.linalg.eigvalsh(moved)
        grid = SolverGrid(n, float(got[0]), float(got[-1]))
        for lam, want in zip(got.tolist(), exact.tolist()):
            lo, hi = map(float, grid.bracket(lam))
            assert lo <= max(want, 0.0) <= hi  # the eigenvalues of a PSD matrix are at least 0

    def test_tags(self):
        grid = SolverGrid(3, 0.0, 1.0)  # delta = 3 eps, so the grid is 1e-11
        assert grid.tagged(0.5 * RANK_TOL) == {"value": ["0.0", "1.1e-10"], "provenance": "below_rank_cut"}
        assert grid.tagged(-1e-16)["provenance"] == "below_rank_cut"
        near = 0.5 * NEAR_CUT * RANK_TOL
        assert grid.tagged(near)["provenance"] == "solver_bound(n=3)"
        assert grid.tagged(near, near_cut=True)["provenance"] == "solver_bound(n=3); near_rank_cut"
        assert grid.tagged(0.5, near_cut=True) == {
            "value": ["0.49999999999", "0.50000000001"],
            "provenance": "solver_bound(n=3)",
        }


def jittered_lattice(dim: int, spacing: float, jitter: float, cells: int, seed: int) -> PointPatch:
    """The lattice ``spacing Z^dim`` in ``[-cells spacing, cells spacing]^dim``, each point moved by up to
    ``jitter spacing`` on every axis."""
    axis = spacing * np.arange(-cells, cells + 1)
    pts = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1)
    pts = pts + np.random.default_rng(seed).uniform(-jitter, jitter, pts.shape) * spacing
    half = (cells + 0.5) * spacing
    return PointPatch(dim=dim, box=[(-half, half)] * dim, points=pts)


class TestRealPaleyWiener:
    @pytest.mark.parametrize("dim, cells", [(1, 60), (2, 7)])
    # fixed examples: an endpoint flips when the two arithmetics straddle a grid point, which
    # has odds of about sum |d lambda| / g, some 1e-4 per report
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        half_widths=st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=2, max_size=2),
        density=st.floats(0.6, 1.6),
        jitter=st.floats(0.0, 0.45),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_report_as_the_complex_cast_oracle(self, dim, cells, half_widths, density, jitter, seed):
        kernel = paley_wiener([(-w, w) for w in half_widths[:dim]])
        spacing = (1.0 / density) / kernel.norm_sq_ke ** (1.0 / dim)
        patch = jittered_lattice(dim, spacing, jitter, cells, seed)
        assert kernel_matrix(kernel, patch.points[:2], patch.points[:2]).dtype == np.float64
        half = patch.box[0][1]
        truncations = (half / 3, 2 * half / 3, half)
        got = frame_report_to_jsonable(frame_trend_report(kernel, patch, truncations))
        assert got == frame_report_to_jsonable(complex_cast_frame_report(kernel, patch, truncations))
