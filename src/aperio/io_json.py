"""JSON (de)serialization with decimal-string numerics and provenance tags.

Every report JSON stores numbers as decimal strings (``repr`` of the float,
which round-trips exactly) and wraps each numeric field in an object
``{"value": ..., "provenance": ...}``.  Writers emit canonical JSON (sorted
keys, fixed indentation) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from typing import Any

import numpy as np

from . import __version__
from .cutproject import CutProjectScheme, Window
from .density import DensityReport
from .errors import ConfigError, DegenerateBasisError
from .framekit import FrameReport, VerdictReport
from .pointset import PointPatch
from .rkhs import KernelSpec, gabor_gaussian, paley_wiener


def fstr(x: float) -> str:
    return repr(float(x))


def fits(value, hint) -> bool:
    """Whether a JSON value has type ``hint``: a bool is not a number, and a float must be finite."""
    if hint is type(None):
        return value is None
    args = typing.get_args(hint)
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


def sha256_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def provenance_block(seed: int | None, inputs: dict[str, str]) -> dict:
    return {
        "tool": "aperio",
        "version": __version__,
        "seed": seed,
        "inputs": dict(sorted(inputs.items())),
    }


# ---------------------------------------------------------------- point patch

def patch_to_jsonable(patch: PointPatch) -> dict:
    return {
        "dim": patch.dim,
        "box": [[fstr(lo), fstr(hi)] for lo, hi in patch.box],
        "points": [[repr(c) for c in row] for row in patch.points.tolist()],  # fstr per cell, without its float()
    }


def patch_from_jsonable(obj: dict) -> PointPatch:
    dim = _int(_key(obj, "dim", "patch"), "patch 'dim'", 1)
    box = _pairs(_key(obj, "box", "patch"), "patch box")
    if len(box) != dim:
        raise ConfigError(f"patch box has {len(box)} interval(s), expected dim = {dim}")
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
    try:
        window = None
        if m > 0:
            boxes = []
            for b in _list(obj.get("window", []), "scheme window"):
                lo, hi = _rows([_key(b, "lo", "window"), _key(b, "hi", "window")], m, "window lo/hi")
                boxes.append(tuple(zip(lo.tolist(), hi.tolist())))
            window = Window(m=m, boxes=tuple(boxes))
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

def density_report_to_jsonable(
    report: DensityReport,
    seed: int | None = None,
    inputs: dict[str, str] | None = None,
) -> dict:
    rows = []
    for (n, lo), (_, hi), tag in zip(report.lower, report.upper, report.method):
        rows.append(
            {
                "n": fstr(n),
                "inf": tagged(lo, tag),
                "sup": tagged(hi, tag),
            }
        )
    trend_tag = f"trend(truncations={[n for n, _ in report.lower]})"
    out = {
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
            if report.covolume_bounds is None
            else {
                "covol_minus_lower": tagged(report.covolume_bounds[0], trend_tag),
                "covol_plus_upper": tagged(report.covolume_bounds[1], trend_tag),
            }
        ),
        "provenance": provenance_block(seed, inputs or {}),
    }
    return out


def density_report_from_jsonable(obj: dict) -> DensityReport:
    what = "density report"

    def value(field: dict, key: str) -> float:
        return fparse(_key(_key(field, key, what), "value", what))

    rows = _list(_key(obj, "rows", what), "density report 'rows'")
    lower = tuple((fparse(_key(r, "n", what)), value(r, "inf")) for r in rows)
    upper = tuple((fparse(r["n"]), value(r, "sup")) for r in rows)
    methods = tuple(_key(r["inf"], "provenance", what) for r in rows)
    cb = obj.get("covolume_bounds")
    report = DensityReport(
        lower=lower,
        upper=upper,
        extrapolated_lower=value(obj, "extrapolated_lower"),
        extrapolated_upper=value(obj, "extrapolated_upper"),
        uncertainty=value(obj, "uncertainty"),
        certified_region_note=_key(obj, "certified_region_note", what),
        method=methods,
        extras_used_lower=bool(obj.get("extras_used_lower", False)),
        extras_used_upper=bool(obj.get("extras_used_upper", False)),
        covolume_bounds=(
            None if cb is None else (value(cb, "covol_minus_lower"), value(cb, "covol_plus_upper"))
        ),
    )
    if not all(map(math.isfinite, (report.extrapolated_lower, report.extrapolated_upper, report.uncertainty))):
        raise ConfigError("density report estimates must be finite")
    return report


def frame_report_to_jsonable(
    report: FrameReport,
    seed: int | None = None,
    inputs: dict[str, str] | None = None,
) -> dict:
    tag = f"trend(truncations={list(report.truncations)})"
    rows = []
    for i, t in enumerate(report.truncations):
        rows.append(
            {
                "truncation": fstr(t),
                "A": tagged(report.riesz_lower[i], tag),
                "B": tagged(report.riesz_upper[i], tag),
                "A_raw": tagged(report.riesz_lower_raw[i], tag),
                "A_samp": tagged(report.sampling_lower[i], tag),
                "B_samp": tagged(report.sampling_upper[i], tag),
            }
        )
    return {
        "kind": "frame_report",
        "rows": rows,
        "boundary_margin": tagged(report.boundary_margin, "exact"),
        "frame_status": report.frame_status,
        "riesz_status": report.riesz_status,
        "verdict": report.verdict,
        "eigenvalues": [fstr(v) for v in report.final_eigenvalues],
        "notes": report.notes,
        "provenance": provenance_block(seed, inputs or {}),
    }


def verdict_report_to_jsonable(
    report: VerdictReport,
    seed: int | None = None,
    inputs: dict[str, str] | None = None,
) -> dict:
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
        "provenance": provenance_block(seed, inputs or {}),
    }


def weil_report_to_jsonable(
    residual: float,
    quadrature_n: int,
    function_kind: str,
    seed: int | None = None,
    inputs: dict[str, str] | None = None,
) -> dict:
    return {
        "kind": "weil_report",
        "function": function_kind,
        "residual": tagged(residual, f"quadrature(n={quadrature_n})"),
        "provenance": provenance_block(seed, inputs or {}),
    }


def amalgam_report_to_jsonable(
    norm: float,
    q_radius: float,
    trunc_radius: float,
    grid_step: float,
    seed: int | None = None,
    inputs: dict[str, str] | None = None,
) -> dict:
    return {
        "kind": "amalgam_report",
        "norm": tagged(norm, f"grid(step={grid_step})"),
        "q_radius": tagged(q_radius, "exact"),
        "trunc_radius": tagged(trunc_radius, "exact"),
        "provenance": provenance_block(seed, inputs or {}),
    }


# ------------------------------------------------------------------------ CSV

CSV_COLUMNS = {
    "density_report": ("n", "inf", "sup"),
    "frame_report": ("truncation", "A", "B", "A_raw", "A_samp", "B_samp", "eigenvalue"),
}


def emit_csv(report: dict, columns: list[str]) -> str:
    """Render report fields as RFC-4180 CSV (CRLF, header row, 12 significant digits).

    A report that is not shaped as its kind says is a config error.
    """
    kind = _key(report, "kind", "report")
    valid = CSV_COLUMNS.get(kind) if isinstance(kind, str) else None
    if valid is None:
        raise ConfigError(f"report kind {kind!r:.40} has no CSV view")
    bad = [c for c in columns if c not in valid]
    if bad:
        raise ConfigError(f"unknown column(s) {bad}; valid columns for {kind}: {list(valid)}")
    if "eigenvalue" in columns:
        if columns != ["eigenvalue"]:
            raise ConfigError("the eigenvalue column cannot be combined with trend columns")
        rows = [[fparse(v)] for v in _list(_key(report, "eigenvalues", kind), f"{kind} 'eigenvalues'")]
    else:
        rows = []
        for r in _list(_key(report, "rows", kind), f"{kind} 'rows'"):
            row = []
            for c in columns:
                cell = _key(r, c, f"{kind} row")
                row.append(fparse(_key(cell, "value", f"{kind} {c!r}") if isinstance(cell, dict) else cell))
            rows.append(row)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\r\n".join(lines) + "\r\n"
