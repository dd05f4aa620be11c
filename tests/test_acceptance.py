"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from aperio import (
    FolnerSpec,
    beurling_density,
    covolume_bounds_from_density,
    frame_trend_report,
    generate_model_set,
    model_set_covolume,
    rel_separation,
    translate,
    verdict,
    weil_check,
)
from aperio.cli import main as cli_main
from aperio.cutproject import lattice_scheme
from aperio import density as density_mod
from aperio.pointset import PointPatch, points_in_box, restrict, shrink_box
from aperio.rkhs import gabor_gaussian, paley_wiener

from conftest import (
    SQRT5,
    TAU,
    TAU_CONJ,
    canonical_parseval_oracle,
    entries_eigenvalues,
    fibonacci_enumeration_oracle,
    gram_eigenvalues,
    gram_entries,
    heisenberg_phase,
    make_fibonacci_scheme,
    make_lattice_patch,
    make_satellites_patch,
    orbit_average_covolume,
)

PW = paley_wiener([(-0.5, 0.5)])
GG = gabor_gaussian(1)


def criterion(number, name, limit_s):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"[criterion {number:2d}] {name}: FAIL ({elapsed:.1f}s)", flush=True)
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s}s"
            print(f"[criterion {number:2d}] {name}: PASS ({elapsed:.1f}s)", flush=True)

        return wrapper

    return decorate


@criterion(1, "lattice calibration", 5.0)
def test_criterion_1_lattice_calibration():
    n_max = 40
    tol = 1.0 / (2 * n_max) + 1e-12
    for c in (0.5, 1.0, 2.0):
        patch = make_lattice_patch(c, 200.0)
        report = beurling_density(patch, FolnerSpec(sizes=(5, 10, 20, 40)))
        assert abs(report.extrapolated_lower - 1 / c) <= tol
        assert abs(report.extrapolated_upper - 1 / c) <= tol
        assert model_set_covolume(lattice_scheme([[c]])) == c
        bounds = covolume_bounds_from_density(report, ell=1, relatively_dense=True)
        assert abs(report.extrapolated_lower - 1.0 / bounds.covol_plus_hi) <= tol


@criterion(2, "model-set density formula", 30.0)
def test_criterion_2_model_set_density():
    scheme = make_fibonacci_scheme()
    patch = generate_model_set(scheme, [(-2000, 2000)])
    density = patch.n_points / 4000.0
    assert density == pytest.approx(1 / SQRT5, rel=0.01)
    # independent brute-force enumeration oracle
    oracle = fibonacci_enumeration_oracle(2000.0)
    assert patch.n_points == len(oracle)
    assert np.allclose(patch.points.ravel(), oracle, atol=1e-9)
    translates = -1980.0 + 1.98 * np.arange(2001)  # windows [v - 10, v + 10) inside the patch box
    assert orbit_average_covolume(patch, 10.0, translates) == pytest.approx(SQRT5, rel=0.02)


@criterion(3, "hull density gap for the satellites set", 10.0)
def test_criterion_3_density_gap():
    patch = make_satellites_patch(400.0)
    spec = FolnerSpec(sizes=(10, 20, 40))
    plain = beurling_density(patch, spec)
    assert 1.95 <= plain.extrapolated_upper <= 2.05
    assert 1.95 <= plain.extrapolated_lower <= 2.05
    assert rel_separation(patch, 0.5).ell == 2
    z_limit = make_lattice_patch(1.0, 400.0)
    hull = beurling_density(patch, spec, [z_limit])
    assert 0.95 <= hull.extrapolated_lower <= 1.05
    assert 1.95 <= hull.extrapolated_upper <= 2.05


@criterion(4, "bandlimited sampling/interpolation necessity", 5.0)
def test_criterion_4_landau_necessity():
    spec = FolnerSpec(sizes=(10, 20, 40))

    def verdict_for(spacing):
        report = beurling_density(make_lattice_patch(spacing, 200.0), spec)
        return verdict(PW, report, ell=1)

    undersampled = verdict_for(1.25)  # density 0.8 < 1
    assert not undersampled.necessary_sampling_ok
    assert undersampled.necessary_interpolation_ok

    oversampled = verdict_for(0.8)  # density 1.25 > 1
    assert oversampled.necessary_sampling_ok
    assert not oversampled.necessary_interpolation_ok

    critical = verdict_for(1.0)
    assert critical.necessary_sampling_ok
    assert critical.necessary_interpolation_ok
    assert critical.ruled_out == ()


@criterion(5, "spectral trend matches the necessity direction", 60.0)
def test_criterion_5_spectral_trends():
    truncations = (40.0, 80.0, 160.0)
    over = frame_trend_report(PW, make_lattice_patch(0.5, 160.0), truncations)
    assert all(1.8 <= a <= 2.2 for a in over.sampling_lower)

    under = frame_trend_report(PW, make_lattice_patch(1.25, 160.0), truncations)
    a40, a80, a160 = under.sampling_lower
    assert a80 <= 0.5 * a40
    assert a160 <= 0.5 * a80


@criterion(6, "time-frequency critical density trends", 120.0)
def test_criterion_6_gabor_trends():
    truncations = (4.0, 6.0, 8.0)

    a = b = math.sqrt(0.8)
    frame_patch = generate_model_set(lattice_scheme(np.diag([a, b])), [(-8, 8), (-8, 8)])
    dense_report = frame_trend_report(GG, frame_patch, truncations)
    assert dense_report.verdict == "frame_evidence"

    a = b = math.sqrt(1.25)
    sparse_patch = generate_model_set(lattice_scheme(np.diag([a, b])), [(-8, 8), (-8, 8)])
    sparse_report = frame_trend_report(GG, sparse_patch, truncations)
    assert sparse_report.frame_status == "refuted"  # no frame evidence survives
    assert sparse_report.verdict == "riesz_evidence"
    assert all(v >= 0.05 for v in sparse_report.riesz_lower_raw)

    # density-form verdict: density 0.8 < 1 rules out sampling
    big = generate_model_set(lattice_scheme(np.diag([a, b])), [(-40, 40), (-40, 40)])
    report = beurling_density(big, FolnerSpec(sizes=(10, 20)))
    v = verdict(GG, report, ell=1)
    assert not v.necessary_sampling_ok
    assert v.necessary_interpolation_ok


@criterion(7, "canonical Parseval transformation", 10.0)
def test_criterion_7_parseval():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(5, 201))
        if trial % 2 == 0:
            # oversampled bandlimited Gram: numerically rank deficient
            width = n * float(rng.uniform(0.2, 0.6))
            pts = np.sort(rng.uniform(-width / 2, width / 2, size=n))[:, None]
            patch = PointPatch(dim=1, box=[(-width / 2, width / 2)], points=pts)
            entries = gram_entries(PW, patch)
        else:
            # well-spread time-frequency Gram: full rank
            side = math.ceil(math.sqrt(n))
            pts = rng.uniform(-side, side, size=(n, 2))
            patch = PointPatch(dim=2, box=[(-side, side)] * 2, points=pts)
            entries = gram_entries(GG, patch)
        proj, _ = canonical_parseval_oracle(entries)
        assert np.linalg.norm(proj @ proj - proj, 2) < 1e-8
        eigs = entries_eigenvalues(proj)
        assert np.abs(eigs - np.round(eigs)).max() < 1e-8
        checked += 1
    assert checked == 50


@criterion(8, "lattice periodization identity", 2.0)
def test_criterion_8_weil():
    triangle = density_mod.TestFunction("triangle")
    gaussian = density_mod.TestFunction("gaussian", trunc=8.0)
    assert weil_check(lattice_scheme([[1.0]]), triangle, 10_000) < 1e-6
    assert weil_check(lattice_scheme([[2.0]]), triangle, 10_000) < 1e-6
    assert weil_check(lattice_scheme([[1.0]]), gaussian, 10_000) < 1e-6


@criterion(9, "invariance suite", 30.0)
def test_criterion_9_invariances():
    rng = np.random.default_rng(7)

    # spectrum invariance on 20 random kernel/patch/shift triples
    for trial in range(20):
        if trial % 2 == 0:
            kernel, dim = PW, 1
        else:
            kernel, dim = GG, 2
        pts = rng.uniform(-6, 6, size=(int(rng.integers(8, 30)), dim))
        patch = PointPatch(dim=dim, box=[(-6, 6)] * dim, points=pts)
        shift = rng.uniform(-3, 3, size=(1, dim))
        base = gram_eigenvalues(kernel, patch)
        shifted = gram_eigenvalues(kernel, translate(patch, shift))
        assert np.abs(shifted - base).max() < 1e-8

    # cocycle identity on 10^4 random triples
    p, q, r = rng.uniform(-3, 3, size=(3, 10_000, 2))
    residual = np.abs(
        heisenberg_phase(p, q) * heisenberg_phase(p + q, r)
        - heisenberg_phase(p, q + r) * heisenberg_phase(q, r)
    ).max()
    assert residual < 1e-12

    # window-count bound on 100 random sub-boxes per corpus set
    corpus = [
        make_lattice_patch(1.0, 150.0),
        make_lattice_patch(2.0, 150.0),
        restrict(generate_model_set(make_fibonacci_scheme(), [(-150, 150)]), [(-150, 150)]),
        make_satellites_patch(150.0),
    ]
    u = 0.5
    for patch in corpus:
        stats = rel_separation(patch, u)
        lo, hi = shrink_box(patch.box, u)[0]
        for _ in range(100):
            a = rng.uniform(lo, hi - 1.0)
            length = rng.uniform(0.5, min(25.0, hi - a))
            k_box = ((a, a + length),)
            count = int(points_in_box(patch.points, k_box).sum())
            # ell * vol(K + U) / vol(U), U the open window of side u
            assert count <= stats.ell * (length + u) / u + 1e-9


@criterion(10, "determinism of the report pipeline", 60.0)
def test_criterion_10_determinism(tmp_path):
    scheme = {
        "d": 1,
        "m": 1,
        "basis": [[1.0, TAU], [1.0, TAU_CONJ]],
        "window": [{"lo": [-0.5], "hi": [0.5]}],
    }
    (tmp_path / "fib.json").write_text(json.dumps(scheme))
    (tmp_path / "z.json").write_text(json.dumps({"d": 1, "m": 0, "basis": [[1.0]]}))
    (tmp_path / "pw.json").write_text(json.dumps({"kind": "paley_wiener", "band": [[-0.5, 0.5]]}))
    config = {
        "seed": 2024,
        "steps": [
            {"command": "gen", "args": {"scheme": "fib.json", "box": [-200, 200], "out": "patch.json"}},
            {"command": "density", "args": {"patch": "patch.json", "folner": [10, 20, 40], "ell": 1, "out": "density.json"}},
            {"command": "csv", "args": {"report": "density.json", "columns": "n,inf,sup", "out": "density.csv"}},
            {"command": "verdict", "args": {"kernel": "pw.json", "density": "density.json", "ell": 1, "out": "verdict.json"}},
            {"command": "frame", "args": {"kernel": "pw.json", "patch": "patch.json", "truncations": [25, 50, 100], "out": "frame.json"}},
            {"command": "csv", "args": {"report": "frame.json", "columns": "truncation,A,B", "out": "frame.csv"}},
            {"command": "weil-check", "args": {"scheme": "z.json", "out": "weil.json"}},
            {"command": "amalgam", "args": {"kernel": "pw.json", "q": 0.5, "trunc": 20, "step": 0.02, "out": "amalgam.json"}},
            {"command": "hull-sample", "args": {"patch": "patch.json", "k_box": [-5, 5], "limit": 12, "out": "samples.json"}},
        ],
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    outputs = (
        "patch.json", "density.json", "density.csv", "verdict.json",
        "frame.json", "frame.csv", "weil.json", "amalgam.json", "samples.json",
    )
    assert cli_main(["--workspace", str(tmp_path), "run", "--config", "config.json"]) == 0
    first = {name: (tmp_path / name).read_bytes() for name in outputs}
    assert cli_main(["--workspace", str(tmp_path), "run", "--config", "config.json"]) == 0
    second = {name: (tmp_path / name).read_bytes() for name in outputs}
    assert first == second
