"""JSON (de)serialization with decimal-string numerics and provenance tags.

Every report JSON stores numbers as decimal strings (``repr`` of the float,
which round-trips exactly) and wraps each numeric field in an object
``{"value": ..., "provenance": ...}``.  Writers emit canonical JSON (sorted
keys, fixed indentation) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import typing
from typing import Any

import numpy as np

from . import __version__
from .cutproject import CutProjectScheme
from .density import CovolumeBounds, DensityReport
from .errors import ConfigError, DegenerateBasisError
from .framekit import MAX_GRAM_POINTS, RANK_TOL, FrameReport, VerdictReport
from .pointset import PointPatch
from .rkhs import KernelSpec, gabor_gaussian, paley_wiener


def fstr(x: float) -> str:
    return repr(float(x))


def fits(value, hint) -> bool:
    """Whether a JSON value has type ``hint``: a bool is not a number, a float must be finite,
    and a ``Literal`` takes only a string among its values."""
    if hint is type(None):
        return value is None
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Literal:
        return isinstance(value, str) and value in args
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(fits(v, args[0]) for v in value)
    if args:  # a union such as ``float | None``
        return any(fits(value, h) for h in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
    return isinstance(value, hint)


def fparse(v) -> float:
    """A JSON number or decimal string as a float; anything else is a config error."""
    if isinstance(v, (str, float)) or fits(v, int):
        try:
            return float(v)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"expected a number or decimal string, got {v!r:.40}")


def _key(obj, key: str, what: str):
    """``obj[key]``; a missing key is a config error that names it."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} JSON must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise ConfigError(f"{what} JSON has no {key!r} key")
    return obj[key]


def _int(v, what: str, least: int) -> int:
    if not fits(v, int) or v < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {v!r:.40}")
    return v


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"{what} must be a list, got {type(v).__name__}")
    return v


def _rows(v, width: int, what: str) -> np.ndarray:
    """A list of ``width``-long rows of finite numbers as an ``(n, width)`` array."""
    out = []
    for i, row in enumerate(_list(v, what)):
        if not isinstance(row, list) or len(row) != width:
            raise ConfigError(f"{what} row {i} is not a list of {width} numbers")
        try:
            out.append([fparse(c) for c in row])
        except ConfigError as exc:
            raise ConfigError(f"{what} row {i}: {exc}") from None
    arr = np.array(out, dtype=np.float64).reshape(-1, width)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{what} rows must be finite")
    return arr


def _pairs(v, what: str) -> tuple[tuple[float, float], ...]:
    """A list of ``[lo, hi]`` pairs of finite numbers."""
    return tuple((lo, hi) for lo, hi in _rows(v, 2, what).tolist())


def tagged(x: float, provenance: str) -> dict:
    return {"value": fstr(x), "provenance": provenance}


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _builtin_sha256():
    """CPython's private built-in ``sha256`` (``_sha2`` from 3.12, ``_sha256`` before), else ``hashlib``'s.

    ``hashlib`` loads OpenSSL's libcrypto (about 3.4 MB of RSS) for the same digest.
    """
    try:
        return importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
        return importlib.import_module("hashlib").sha256


_sha256 = _builtin_sha256()


def sha256_bytes(data: bytes) -> str:
    return "sha256:" + _sha256(data).hexdigest()


def provenance_block(seed: int | None, inputs: dict[str, str]) -> dict:
    return {
        "tool": "aperio",
        "version": __version__,
        "seed": seed,
        "inputs": dict(sorted(inputs.items())),
    }


# ---------------------------------------------------------------- point patch

def _patch_layout(box, level: int) -> tuple[str, ...]:
    """The text of a patch object at nesting ``level`` around its cells: before the first cell,
    between cells of a row, between rows, after the last cell, and the whole empty patch."""
    i0, i1, i2, i3 = ("\n" + "  " * (level + k) for k in range(4))
    pairs = ",".join(f'{i2}[{i3}"{fstr(lo)}",{i3}"{fstr(hi)}"{i2}]' for lo, hi in box)
    head = f'{{{i1}"box": [{pairs}{i1}],{i1}"dim": {len(box)},{i1}"points": '
    return head + f'[{i2}[{i3}"', f'",{i3}"', f'"{i2}],{i2}[{i3}"', f'"{i2}]{i1}]{i0}}}', f"{head}[]{i0}}}"


def patch_dumps(patches: PointPatch | list[PointPatch]) -> str:
    """``canonical_dumps`` of a patch, or of a list of patches, as objects of decimal strings.

    Written straight from ``points.tolist()``: ``repr`` per cell (``fstr``
    without its ``float()``), one join per patch, and the text around the
    cells built once per box.
    """
    level = 0 if isinstance(patches, PointPatch) else 1
    layouts = {}
    out = []
    for p in [patches] if level == 0 else patches:
        key = repr(p.box)  # not p.box, which would give -0.0 the layout of 0.0
        if key not in layouts:
            layouts[key] = _patch_layout(p.box, level)
        first, cell, row, last, empty = layouts[key]
        cells = map(repr, p.points.ravel().tolist())
        if p.dim > 1:
            cells = map(cell.join, zip(*[cells] * p.dim))
        out.append(first + row.join(cells) + last if p.n_points else empty)
    if level == 0:
        return out[0] + "\n"
    return "[\n  " + ",\n  ".join(out) + "\n]\n" if out else "[]\n"


def patch_from_jsonable(obj: dict) -> PointPatch:
    dim = _int(_key(obj, "dim", "patch"), "patch 'dim'", 1)
    box = _pairs(_key(obj, "box", "patch"), "patch box")
    pts = _rows(_key(obj, "points", "patch"), dim, "patch point")
    try:
        return PointPatch(dim=dim, box=box, points=pts)
    except ValueError as exc:
        raise ConfigError(f"patch JSON: {exc}") from exc


# --------------------------------------------------------------------- scheme

def scheme_from_jsonable(obj: dict) -> CutProjectScheme:
    d = _int(_key(obj, "d", "scheme"), "scheme 'd'", 1)
    m = _int(_key(obj, "m", "scheme"), "scheme 'm'", 0)
    basis = _rows(_key(obj, "basis", "scheme"), d + m, "scheme basis")
    if len(basis) != d + m:
        raise ConfigError(f"scheme basis has {len(basis)} row(s), expected d + m = {d + m}")
    window = ()
    if m > 0:
        boxes = _list(_key(obj, "window", "scheme"), "scheme window")
        if len(boxes) != 1:
            raise ConfigError(f"scheme window must be a list of one box, got {len(boxes)}")
        window = _rows([_key(boxes[0], "lo", "window"), _key(boxes[0], "hi", "window")], m, "window lo/hi").T
    elif "window" in obj:  # refused here: _rows has no rows of width 0
        raise ConfigError("an m = 0 scheme takes no window")
    try:
        return CutProjectScheme(d=d, m=m, basis=basis, window=window)
    except (ValueError, DegenerateBasisError) as exc:
        raise ConfigError(f"scheme JSON: {exc}") from exc


# --------------------------------------------------------------------- kernel

def kernel_from_jsonable(obj: dict) -> KernelSpec:
    kind = _key(obj, "kind", "kernel")
    try:
        if kind == "paley_wiener":
            return paley_wiener(_pairs(_key(obj, "band", "kernel"), "kernel band"))
        if kind == "gabor_gaussian":
            return gabor_gaussian(_int(_key(obj, "n", "kernel"), "kernel 'n'", 1))
    except ValueError as exc:
        raise ConfigError(f"kernel JSON: {exc}") from exc
    raise ConfigError(f"unknown kernel kind {kind!r:.40}")


# -------------------------------------------------------------------- reports

def density_report_to_jsonable(report: DensityReport, bounds: CovolumeBounds | None = None) -> dict:
    """The report's JSON, whose ``covolume_bounds`` is null or ``bounds`` from ``covolume_bounds_from_density``."""
    rows = []
    for (n, lo), (_, hi) in zip(report.lower, report.upper):
        rows.append(
            {
                "n": fstr(n),
                "inf": tagged(lo, "exact"),
                "sup": tagged(hi, "exact"),
            }
        )
    trend_tag = f"trend(truncations={[n for n, _ in report.lower]})"
    return {
        "kind": "density_report",
        "rows": rows,
        "extrapolated_lower": tagged(report.extrapolated_lower, trend_tag),
        "extrapolated_upper": tagged(report.extrapolated_upper, trend_tag),
        "uncertainty": tagged(report.uncertainty, trend_tag),
        "certified_region_note": report.certified_region_note,
        "extras_used_lower": report.extras_used_lower,
        "extras_used_upper": report.extras_used_upper,
        "covolume_bounds": (
            None
            if bounds is None
            else {
                "covol_minus_lower": tagged(bounds.covol_minus_lo, trend_tag),
                "covol_plus_upper": tagged(bounds.covol_plus_hi, trend_tag),
            }
        ),
    }


def density_report_from_jsonable(obj: dict) -> DensityReport:
    what = "density report"

    def value(field: dict, key: str) -> float:
        entry = _key(field, key, what)
        _key(entry, "provenance", what)  # required of the input, though the report stores no tag
        return fparse(_key(entry, "value", what))

    def typed(key: str, kind: type, default=None):  # a missing key reads as ``default``, if one is given
        v = _key(obj, key, what) if default is None else obj.get(key, default)
        if not isinstance(v, kind):
            raise ConfigError(f"{what} {key!r} must be a {kind.__name__}, got {v!r:.40}")
        return v

    rows = _list(_key(obj, "rows", what), "density report 'rows'")
    lower = tuple((fparse(_key(r, "n", what)), value(r, "inf")) for r in rows)
    upper = tuple((fparse(r["n"]), value(r, "sup")) for r in rows)
    if (cb := obj.get("covolume_bounds")) is not None:  # checked as input, though the report stores no bounds
        value(cb, "covol_minus_lower"), value(cb, "covol_plus_upper")
    return DensityReport(  # which refuses its own out-of-range estimates
        lower=lower,
        upper=upper,
        extrapolated_lower=value(obj, "extrapolated_lower"),
        extrapolated_upper=value(obj, "extrapolated_upper"),
        uncertainty=value(obj, "uncertainty"),
        certified_region_note=typed("certified_region_note", str),
        extras_used_lower=typed("extras_used_lower", bool, False),
        extras_used_upper=typed("extras_used_upper", bool, False),
    )


# a spectral bracket's grid is the smallest power of ten at least BRACKET_MARGIN times the
# solver's resolution; a Riesz lower bound within NEAR_CUT times the rank cut is tagged so
BRACKET_MARGIN = 10**4
NEAR_CUT = 100


class SolverGrid:
    """Brackets at the solver's resolution for the eigenvalues of one symmetric matrix.

    A backward-stable symmetric eigensolver returns each eigenvalue of an
    n x n matrix ``G`` within about ``delta = n eps ||G||`` of the exact one
    (LAPACK Users' Guide, 3rd ed., section 4.7), and the trailing digits
    move with the BLAS build and thread count.  ``||G||`` is the largest
    ``|eigenvalue|``, read from the smallest and largest.  An eigenvalue
    ``lam`` above the rank cut ``RANK_TOL lam_max`` is written as
    ``[floor_g(lam - delta), ceil_g(lam + delta)]`` on the grid of the
    smallest power of ten ``g >= BRACKET_MARGIN delta``, tagged
    ``solver_bound(n=...)``; one at or below the cut as ``[0, ceil_g(cut +
    delta)]``, tagged ``below_rank_cut``.  Every matrix bracketed here is
    positive semidefinite, so no lower end is below 0.  The endpoints are
    computed exactly in integers from ``float.as_integer_ratio``.  A bracket
    models the solver error; it does not prove it.
    """

    def __init__(self, n: int, lam_min: float, lam_max: float):
        self.n = n
        self.cut = RANK_TOL * lam_max
        p, q = max(abs(lam_min), abs(lam_max)).as_integer_ratio()
        self.num, self.den = n * p, q << 52  # delta = num / den = n eps ||G||, eps = 2^-52
        # the smallest k with 10^k >= a / b = BRACKET_MARGIN delta, from the digit count of
        # ceil(a / b) - 1 when a > b, and of floor(b / a) when 0 < a <= b
        a, b = self.num * BRACKET_MARGIN, self.den
        if a > b:
            self.k = len(str((a - 1) // b))
        else:
            self.k = 1 - len(str(b // a)) if a else 0

    def _end(self, x: float, sign: int) -> str:
        """``floor_g(x - delta)`` (``sign`` -1) or ``ceil_g(x + delta)`` (``sign`` 1), at least 0."""
        p, q = x.as_integer_ratio()
        top, bot = p * self.den + sign * self.num * q, q * self.den  # x + sign delta = top / bot
        if self.k >= 0:
            bot *= 10**self.k
        else:
            top *= 10**-self.k
        m = top // bot if sign < 0 else -(-top // bot)
        return fstr(float(f"{max(m, 0)}e{self.k}"))

    def below_cut(self, x: float) -> bool:
        return x <= self.cut

    def bracket(self, x: float) -> list[str]:
        if self.below_cut(x):
            return ["0.0", self._end(self.cut, 1)]
        return [self._end(x, -1), self._end(x, 1)]

    def tagged(self, x: float, near_cut: bool = False) -> dict:
        """``{"value": [lo, hi], "provenance": tag}``; with ``near_cut``, a value above the cut
        and within ``NEAR_CUT`` times it is also tagged ``near_rank_cut``."""
        tag = "below_rank_cut" if self.below_cut(x) else f"solver_bound(n={self.n})"
        if near_cut and self.cut < x <= NEAR_CUT * self.cut:
            tag += "; near_rank_cut"
        return {"value": self.bracket(x), "provenance": tag}


def frame_report_to_jsonable(report: FrameReport) -> dict:
    """A frame report with every spectral value as a ``SolverGrid`` bracket.

    Each row's ``A``, ``B`` and ``A_raw`` are brackets on the grid of the
    truncation's Gram, ``A_samp`` and ``B_samp`` on that of its sampling
    quotient matrix.  ``eigenvalues`` lists the brackets of the final Gram's
    eigenvalues above the rank cut and the count of those below it.  The
    statuses and the verdict come from the unrounded values.
    """
    rows = []
    for i, t in enumerate(report.truncations):
        gram = SolverGrid(report.riesz_n[i], report.riesz_lower_raw[i], report.riesz_upper[i])
        quotient = SolverGrid(report.sampling_n[i], report.sampling_lower[i], report.sampling_upper[i])
        rows.append(
            {
                "truncation": fstr(t),
                "A": gram.tagged(report.riesz_lower[i], near_cut=True),
                "B": gram.tagged(report.riesz_upper[i]),
                "A_raw": gram.tagged(report.riesz_lower_raw[i]),
                "A_samp": quotient.tagged(report.sampling_lower[i]),
                "B_samp": quotient.tagged(report.sampling_upper[i]),
            }
        )
    eigs = report.final_eigenvalues.tolist()  # the spectrum of the last truncation's Gram
    below = sum(map(gram.below_cut, eigs))
    above = [gram.bracket(v) for v in eigs[below:]]
    return {
        "kind": "frame_report",
        "rows": rows,
        "boundary_margin": tagged(report.boundary_margin, "exact"),
        "frame_status": report.frame_status,
        "riesz_status": report.riesz_status,
        "verdict": report.verdict,
        "eigenvalues": {
            "above_rank_cut": {"value": above, "provenance": f"solver_bound(n={gram.n})"},
            "below_rank_cut": {"count": below, "value": gram.bracket(gram.cut), "provenance": "below_rank_cut"},
        },
        "notes": report.notes,
    }


def verdict_report_to_jsonable(report: VerdictReport) -> dict:
    b = report.covol_bounds

    def vb(x: float, prov: str) -> dict | None:
        return None if math.isinf(x) else tagged(x, prov)

    return {
        "kind": "verdict_report",
        "critical_density": tagged(report.critical_density, "exact"),
        "d_minus": tagged(report.d_minus, "trend"),
        "d_plus": tagged(report.d_plus, "trend"),
        "tol": tagged(report.tol, "exact"),
        "ell": report.ell,
        "covol_minus_interval": [
            vb(b.covol_minus_lo, "trend"),
            vb(b.covol_minus_hi, "trend"),
        ],
        "covol_plus_upper": vb(b.covol_plus_hi, "trend"),
        "covol_plus_exact": b.covol_plus_exact,
        "necessary_sampling_ok": report.necessary_sampling_ok,
        "necessary_interpolation_ok": report.necessary_interpolation_ok,
        "sampling_covol_ok": report.sampling_covol_ok,
        "interpolation_covol_ok": report.interpolation_covol_ok,
        "ruled_out": list(report.ruled_out),
        "notes": report.notes,
    }


def weil_report_to_jsonable(residual: float, quadrature_n: int, function_kind: str) -> dict:
    return {
        "kind": "weil_report",
        "function": function_kind,
        "residual": tagged(residual, f"quadrature(n={quadrature_n})"),
    }


def amalgam_report_to_jsonable(norm: float, q_radius: float, trunc_radius: float, grid_step: float) -> dict:
    return {
        "kind": "amalgam_report",
        "norm": tagged(norm, f"grid(step={grid_step})"),
        "q_radius": tagged(q_radius, "exact"),
        "trunc_radius": tagged(trunc_radius, "exact"),
    }


# ------------------------------------------------------------------------ CSV

CSV_COLUMNS = {
    "density_report": ("n", "inf", "sup"),
    "frame_report": ("truncation", "A", "B", "A_raw", "A_samp", "B_samp", "eigenvalue"),
}
# the columns that hold [lo, hi] brackets; column X is written as the two columns X_lo,X_hi
BRACKET_COLUMNS = ("A", "B", "A_raw", "A_samp", "B_samp", "eigenvalue")
OLD_FRAME_SHAPE = (
    "frame report of the old shape: its spectral values are single numbers, not [lo, hi] brackets;"
    " write it again with `aperio frame`"
)


def _bracket(v, what: str) -> list[float]:
    """A ``[lo, hi]`` pair of numbers; a single number is a frame report of the old shape."""
    if isinstance(v, (str, int, float)):
        raise ConfigError(OLD_FRAME_SHAPE)
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(f"{what} must be a [lo, hi] bracket, got {v!r:.40}")
    return [fparse(x) for x in v]


def _eigenvalue_rows(report: dict) -> list[list[float]]:
    """One bracket per eigenvalue of a frame report, ascending: ``[0, cut]`` for each one below the cut."""
    what = "frame report 'eigenvalues'"
    eigs = _key(report, "eigenvalues", "frame_report")
    if isinstance(eigs, list):
        raise ConfigError(OLD_FRAME_SHAPE)
    below = _key(eigs, "below_rank_cut", what)
    count = _int(_key(below, "count", what), "the count below the rank cut", 0)
    if count > MAX_GRAM_POINTS:
        raise ConfigError(f"the count below the rank cut must be at most {MAX_GRAM_POINTS}, got {count}")
    above = _list(_key(_key(eigs, "above_rank_cut", what), "value", what), f"{what} above the rank cut")
    return [_bracket(_key(below, "value", what), what)] * count + [_bracket(v, what) for v in above]


def emit_csv(report: dict, columns: list[str]) -> str:
    """Render report fields as RFC-4180 CSV (CRLF, header row, 12 significant digits).

    A bracketed column ``X`` (``BRACKET_COLUMNS``) gives the two columns
    ``X_lo,X_hi``.  A report that is not shaped as its kind says is a config
    error, a frame report of the shape before brackets among them.  A density
    report is decoded, and so refused where ``verdict`` refuses it.
    """
    kind = _key(report, "kind", "report")
    valid = CSV_COLUMNS.get(kind) if isinstance(kind, str) else None
    if valid is None:
        raise ConfigError(f"report kind {kind!r:.40} has no CSV view")
    if not columns:
        raise ConfigError(f"no columns given; valid columns for {kind}: {list(valid)}")
    bad = [c for c in columns if c not in valid]
    if bad:
        raise ConfigError(f"unknown column(s) {bad}; valid columns for {kind}: {list(valid)}")
    if "eigenvalue" in columns:
        if columns != ["eigenvalue"]:
            raise ConfigError("the eigenvalue column cannot be combined with trend columns")
        rows = _eigenvalue_rows(report)
    elif kind == "density_report":
        dr = density_report_from_jsonable(report)
        rows = [[{"n": n, "inf": lo, "sup": hi}[c] for c in columns] for (n, lo), (_, hi) in zip(dr.lower, dr.upper)]
    else:
        rows = []
        for r in _list(_key(report, "rows", kind), f"{kind} 'rows'"):
            row = []
            for c in columns:
                cell = _key(r, c, f"{kind} row")
                value = _key(cell, "value", f"{kind} {c!r}") if isinstance(cell, dict) else cell
                row.extend(_bracket(value, f"{kind} {c!r}") if c in BRACKET_COLUMNS else [fparse(value)])
            rows.append(row)
    header = []
    for c in columns:
        header.extend([f"{c}_lo", f"{c}_hi"] if c in BRACKET_COLUMNS else [c])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\r\n".join(lines) + "\r\n"
