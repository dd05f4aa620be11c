"""Every argument check raises ``ArgumentError`` where it is made, for an out-of-range value and for NaN."""

import math
import re

import pytest

from aperio import (
    FolnerSpec,
    beurling_density,
    covolume_bounds_from_density,
    frame_trend_report,
    generate_model_set,
    is_relatively_dense,
    paley_wiener,
    rel_separation,
    sampling_bounds,
    verdict,
    weil_check,
    wiener_amalgam_norm,
)
from aperio import density as density_mod
from aperio.cutproject import lattice_scheme
from aperio.errors import ArgumentError
from aperio.hull import grid_translates
from aperio.pointset import _check_grid_size, as_box

from conftest import make_fibonacci_scheme, make_lattice_patch

NAN = math.nan
PATCH = make_lattice_patch(1.0, 20.0)
PW = paley_wiener([(-0.5, 0.5)])
REPORT = beurling_density(PATCH, FolnerSpec((5.0, 10.0)))
Z = lattice_scheme([[1.0]])


def _sites():
    """``(call, message)`` for every argument check, out of range and, where it takes a number, NaN."""
    ranged = [  # (id, call, bad value, message); a second case calls with NaN instead
        ("folner-infinite", lambda v: FolnerSpec((5.0, v)), math.inf, "Folner sizes must be finite"),
        ("covolume-ell", lambda v: covolume_bounds_from_density(REPORT, v), 0, "ell must be >= 1"),
        ("test-function-trunc", lambda v: density_mod.TestFunction("gaussian", v), -1.0, "trunc must be positive"),
        ("weil-quadrature-n", lambda v: weil_check(Z, density_mod.TestFunction("triangle"), v), 0, "quadrature_n must be positive"),
        ("grid-size", lambda v: _check_grid_size([v, 1e5]), 1e5, "positions exceeds the limit"),
        ("separation-u-radius", lambda v: rel_separation(PATCH, v), 0.0, "u_radius must be positive"),
        ("dense-k-radius", lambda v: is_relatively_dense(PATCH, v), 0.0, "k_radius must be positive"),
        ("grid-translates-step", lambda v: grid_translates(PATCH, [(-5.0, 5.0)], v), 0.0, "grid step must be positive"),
        ("truncations-first", lambda v: frame_trend_report(PW, PATCH, (v, 5.0)), 0.0, "non-empty and positive"),
        ("truncations-increasing", lambda v: frame_trend_report(PW, PATCH, (2.0, 3.0, v)), 3.0, "strictly increasing"),
        ("margin-frac", lambda v: frame_trend_report(PW, PATCH, (5.0, 10.0), margin_frac=v), 1.0, "strictly between 0 and 1"),
        ("verdict-tol", lambda v: verdict(PW, REPORT, 1, tol=v), -0.5, "tol must be >= 0"),
        ("sampling-margin", lambda v: sampling_bounds(PW, PATCH, margin=v), 0.0, "margin must be positive"),
        ("amalgam-step", lambda v: wiener_amalgam_norm(PW, 0.5, 20.0, v), 0.0, "grid_step must be positive"),
        ("amalgam-q", lambda v: wiener_amalgam_norm(PW, v, 20.0, 0.02), 0.0, "q_radius must be positive"),
        ("amalgam-trunc", lambda v: wiener_amalgam_norm(PW, 0.5, v, 0.02), 0.4, "trunc_radius must exceed q_radius"),
    ]
    for name, call, bad, message in ranged:
        yield pytest.param(lambda call=call, bad=bad: call(bad), message, id=name)
        yield pytest.param(lambda call=call: call(NAN), message, id=f"{name}-nan")
    # checks of a count, a kind or a relation between arguments: no number of their own to set to NaN
    yield pytest.param(lambda: FolnerSpec(()), "need at least one Folner size", id="folner-empty")
    yield pytest.param(lambda: FolnerSpec((10.0, 5.0)), "Folner sizes must be strictly increasing", id="folner-increasing")
    yield pytest.param(lambda: FolnerSpec((-1.0, 5.0)), "Folner sizes must be positive", id="folner-positive")
    yield pytest.param(lambda: density_mod.TestFunction("cosine"), "unknown test function kind 'cosine'", id="test-function-kind")
    yield pytest.param(lambda: weil_check(make_fibonacci_scheme(), density_mod.TestFunction("triangle"), 10), "requires lattice", id="weil-lattice")
    yield pytest.param(lambda: frame_trend_report(PW, PATCH, ()), "non-empty and positive", id="truncations-empty")
    yield pytest.param(
        lambda: generate_model_set(make_fibonacci_scheme(), [(-1e10, 1e10)]),
        "enumeration of 5527864049 integer prefixes exceeds the limit",
        id="enumeration-prefixes",
    )
    yield pytest.param(
        lambda: generate_model_set(Z, [(-1e9, 1e9)]),
        "enumeration of 2000000003 integer candidates exceeds the limit",
        id="enumeration-candidates",
    )
    # bounds past 2^63 once wrapped in int64 and slipped past the cap, reporting a residual of 1.0
    yield pytest.param(
        lambda: weil_check(Z, density_mod.TestFunction("gaussian", 1e20), 100),
        "enumeration of 2e+20 integer candidates exceeds the limit",
        id="enumeration-past-int64",
    )
    yield pytest.param(lambda: wiener_amalgam_norm(PW, 0.5, 20.0, 0.6), "grid too coarse", id="amalgam-step-past-q")
    yield pytest.param(lambda: as_box([(0.0, 1.0)] * 2, 1), "box has 2 interval(s), expected 1", id="box-dimension")


@pytest.mark.parametrize("call, message", list(_sites()))
def test_argument_check_raises_argument_error(call, message):
    with pytest.raises(ArgumentError, match=re.escape(message)):
        call()

