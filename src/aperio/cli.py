"""Command-line orchestration: reproducible generation, density, frame and
verdict runs emitting canonical JSON reports.

Exit codes: 0 success, 1 operation error, 2 configuration/parse error
(including missing input files).  With a fixed seed, outputs are
byte-identical across runs: reports carry no timestamps, inputs are
referenced by content hash, and every numeric field is a decimal string.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import re
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, io_json
from .density import FolnerSpec, TestFunction, beurling_density, covolume_bounds_from_density, hull_beurling_density, weil_check
from .errors import AperioError, ConfigError
from .framekit import frame_trend_report, verdict
from .hull import grid_translates, orbit_sample, transversal_translates
from .cutproject import generate_model_set
from .pointset import as_box
from .rkhs import wiener_amalgam_norm


@dataclass
class Context:
    """One command's paths and provenance.  Outputs wait in ``staged`` (resolved
    path, or ``None`` for stdout) until :meth:`commit`, so a failed command writes nothing.
    ``decoded`` keeps each decoded input by content hash and decoder, so a ``run`` whose
    steps read one file decodes it once."""

    workspace: Path
    seed: int | None = None
    input_hashes: dict[str, str] = field(default_factory=dict)
    staged: dict[Path | None, str] = field(default_factory=dict)
    decoded: dict[tuple, object] = field(default_factory=dict)

    def resolve(self, rel: str) -> Path:
        """The absolute path of ``rel`` (relative to the workspace), one per file however spelled."""
        return (self.workspace / rel).resolve()

    def read_json(self, rel: str, role: str, decode=None):
        """The JSON value of ``rel``, passed through ``decode`` if one is given.

        Every call records the file's hash under ``role``; a decoded value is
        reused for the same bytes and decoder.
        """
        path = self.resolve(rel)
        try:  # a staged output is read as the bytes commit() will write
            data = self.staged[path].encode() if path in self.staged else path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        key = (io_json.sha256_bytes(data), decode)
        self.input_hashes[f"{role}:{rel}"] = key[0]
        if key in self.decoded:
            return self.decoded[key]
        try:
            obj = json.loads(data)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if decode is None:
            return obj
        self.decoded[key] = value = decode(obj)
        return value

    def _stage(self, rel: str | None, text: str) -> None:
        if rel is None:
            self.staged[None] = self.staged.get(None, "") + text
        else:
            self.staged[self.resolve(rel)] = text

    # not routed through write_text, so a wrapper around either sees each output once
    def write_json(self, rel: str | None, obj: dict) -> None:
        self._stage(rel, io_json.canonical_dumps(obj))

    def write_text(self, rel: str | None, text: str) -> None:
        self._stage(rel, text)

    def commit(self) -> None:
        """Write every staged file to a temporary sibling, rename them all into place, then
        write the staged stdout; a file that cannot be written leaves the workspace as it was."""
        out = self.staged.pop(None, "")
        if dirs := [path for path in self.staged if path.is_dir()]:
            raise ConfigError(f"cannot write {dirs[0]}: it is a directory")
        temps = []
        try:
            for path, text in self.staged.items():
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path.with_name(f".{path.name}.aperio-tmp"), "xb") as tmp:
                    temps.append((tmp.name, path))
                    tmp.write(text.encode())
            for name, path in temps:
                os.replace(name, path)
        except OSError as exc:
            for name, _ in temps:
                Path(name).unlink(missing_ok=True)
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        sys.stdout.write(out)


def _parse_box(values: list[float], dim_hint: int | None = None):
    if len(values) % 2 != 0 or not values:
        raise ConfigError("box must be given as lo hi pairs, one pair per dimension")
    box = list(zip(values[::2], values[1::2]))
    if dim_hint is not None and len(box) != dim_hint:
        raise ConfigError(f"box has {len(box)} dimension(s), expected {dim_hint}")
    return as_box(box)  # a degenerate interval is an operation error here, before any handler's own checks


def _folner_spec(folner, step) -> FolnerSpec:
    try:
        return FolnerSpec(sizes=tuple(folner), translate_grid_step=step)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad Folner spec: {exc}") from exc


# ------------------------------------------------------------------- handlers

def handle_gen(ctx: Context, scheme: str, box: list[float], out: str | None = None) -> None:
    sch = ctx.read_json(scheme, "scheme", io_json.scheme_from_jsonable)
    patch = generate_model_set(sch, _parse_box(box, sch.d))
    ctx.write_json(out, io_json.patch_to_jsonable(patch))


def handle_density(
    ctx: Context,
    patch: str,
    folner: list[float],
    step: float | None = None,
    extras: list[str] | None = None,
    ell: int | None = None,
    out: str | None = None,
    csv: str | None = None,
) -> None:
    spec = _folner_spec(folner, step)
    base = ctx.read_json(patch, "patch", io_json.patch_from_jsonable)
    if extras:
        limits = [ctx.read_json(e, "extra", io_json.patch_from_jsonable) for e in extras]
        report = hull_beurling_density(base, spec, limits)
    else:
        report = beurling_density(base, spec)
    if ell is not None:
        b = covolume_bounds_from_density(report, ell)
        report = dataclasses.replace(
            report, covolume_bounds=(b.covol_minus_lo, b.covol_plus_hi)
        )
    obj = io_json.density_report_to_jsonable(report, ctx.seed, ctx.input_hashes)
    ctx.write_json(out, obj)
    if csv:
        ctx.write_text(csv, io_json.emit_csv(obj, ["n", "inf", "sup"]))


def handle_hull_sample(
    ctx: Context,
    patch: str,
    k_box: list[float],
    translates: str = "own",
    grid_step: float | None = None,
    limit: int | None = None,
    out: str | None = None,
) -> None:
    if limit is not None and limit < 0:
        raise ConfigError(f"limit must be >= 0, got {limit}")
    base = ctx.read_json(patch, "patch", io_json.patch_from_jsonable)
    kb = _parse_box(k_box, base.dim)
    if translates == "own":
        vecs = transversal_translates(base, kb)
    elif translates == "grid":
        if grid_step is None:
            raise ConfigError("grid translates need --grid-step")
        try:
            vecs = grid_translates(base, kb, grid_step)
        except ValueError as exc:  # a step that is not positive
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError(f"unknown translate mode {translates!r}")
    if limit is not None:
        vecs = vecs[:limit]
    samples = orbit_sample(base, vecs, kb)
    ctx.write_json(out, [io_json.patch_to_jsonable(p) for p in samples])


def handle_frame(
    ctx: Context,
    kernel: str,
    patch: str,
    truncations: list[float],
    margin_frac: float = 0.25,
    out: str | None = None,
    csv: str | None = None,
) -> None:
    kern = ctx.read_json(kernel, "kernel", io_json.kernel_from_jsonable)
    base = ctx.read_json(patch, "patch", io_json.patch_from_jsonable)
    try:
        report = frame_trend_report(kern, base, truncations, margin_frac=margin_frac)
    except ValueError as exc:  # truncations or margin_frac out of range, or a kernel of another dimension
        raise ConfigError(str(exc)) from exc
    obj = io_json.frame_report_to_jsonable(report, ctx.seed, ctx.input_hashes)
    ctx.write_json(out, obj)
    if csv:
        ctx.write_text(csv, io_json.emit_csv(obj, ["truncation", "A", "B"]))


def handle_verdict(
    ctx: Context,
    kernel: str,
    density: str,
    ell: int = 1,
    tol: float | None = None,
    relatively_dense: bool = False,
    out: str | None = None,
) -> None:
    kern = ctx.read_json(kernel, "kernel", io_json.kernel_from_jsonable)
    report = ctx.read_json(density, "density", io_json.density_report_from_jsonable)
    v = verdict(kern, report, ell=ell, tol=tol, relatively_dense=relatively_dense)
    ctx.write_json(out, io_json.verdict_report_to_jsonable(v, ctx.seed, ctx.input_hashes))


def handle_weil_check(
    ctx: Context,
    scheme: str,
    function: str = "triangle",
    quadrature_n: int = 10_000,
    trunc: float = 8.0,
    out: str | None = None,
) -> None:
    try:
        f = TestFunction(kind=function, trunc=trunc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sch = ctx.read_json(scheme, "scheme", io_json.scheme_from_jsonable)
    try:
        residual = weil_check(sch, f, quadrature_n)
    except ValueError as exc:  # quadrature_n not positive, or a scheme that is not a lattice
        raise ConfigError(str(exc)) from exc
    ctx.write_json(
        out,
        io_json.weil_report_to_jsonable(residual, quadrature_n, function, ctx.seed, ctx.input_hashes),
    )


def handle_amalgam(
    ctx: Context,
    kernel: str,
    q: float,
    trunc: float,
    step: float,
    out: str | None = None,
) -> None:
    kern = ctx.read_json(kernel, "kernel", io_json.kernel_from_jsonable)
    try:
        norm = wiener_amalgam_norm(kern, q, trunc, step)
    except ValueError as exc:  # a step that is not positive, or trunc <= q
        raise ConfigError(str(exc)) from exc
    ctx.write_json(
        out,
        io_json.amalgam_report_to_jsonable(norm, q, trunc, step, ctx.seed, ctx.input_hashes),
    )


def handle_csv(ctx: Context, report: str, columns: str, out: str | None = None) -> None:
    obj = ctx.read_json(report, "report")
    cols = [c.strip() for c in columns.split(",") if c.strip()]
    ctx.write_text(out, io_json.emit_csv(obj, cols))


HANDLERS = {
    "gen": handle_gen,
    "density": handle_density,
    "hull-sample": handle_hull_sample,
    "frame": handle_frame,
    "verdict": handle_verdict,
    "weil-check": handle_weil_check,
    "amalgam": handle_amalgam,
    "csv": handle_csv,
}


def handle_run(ctx: Context, config: str) -> None:
    cfg = ctx.read_json(config, "config")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    steps = cfg.get("steps")
    if not isinstance(steps, list) or not steps:
        raise ConfigError("config needs a non-empty 'steps' list")
    seed = cfg.get("seed")
    if seed is not None and not io_json.fits(seed, int):
        raise ConfigError(f"config 'seed' must be an integer, got {seed!r:.40}")
    if ctx.seed is None:
        ctx.seed = seed
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise ConfigError(f"step {i}: must be an object, got {type(step).__name__}")
        cmd = step.get("command")
        if not isinstance(cmd, str) or cmd not in HANDLERS:
            raise ConfigError(f"step {i}: unknown command {cmd!r:.40}")
        args = step.get("args", {})
        if not isinstance(args, dict):
            raise ConfigError(f"step {i}: args must be an object")
        _check_args(cmd, args, where=f"step {i}: ")
    for step in steps:
        HANDLERS[step["command"]](ctx, **step.get("args", {}))


def _check_args(cmd: str, args: dict, where: str = "") -> None:
    """Refuse arguments the handler of ``cmd`` does not take, or values that do not fit its annotations."""
    handler = HANDLERS.get(cmd, handle_run)
    sig = inspect.signature(handler)
    try:
        sig.bind(None, **args)
    except TypeError as exc:
        raise ConfigError(f"{where}{cmd}: {exc}") from exc
    hints = typing.get_type_hints(handler)
    for key, value in args.items():
        if not io_json.fits(value, hints[key]):
            annotation = sig.parameters[key].annotation
            raise ConfigError(f"{where}{cmd}: {key!r} must be {annotation} with finite numbers, got {value!r:.40}")


# ------------------------------------------------------------------ arg parse

class _Parser(argparse.ArgumentParser):
    """Reads negative numbers in exponent notation (``--box -1e6 1e6``) as values, not flags.

    argparse's own pattern only knows ``-12`` and ``-1.5``; subparsers are
    built from the same class and inherit the wider pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aperio",
        description="Point-set densities, covolumes and reproducing-kernel frame diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"aperio {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in report provenance")
    parser.add_argument("--workspace", default=".", help="root for relative file paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a model-set patch from a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--box", type=float, nargs="+", required=True, metavar="LO HI")
    p.add_argument("--out")

    p = sub.add_parser("density", help="Beurling density report along Folner boxes")
    p.add_argument("--patch", required=True)
    p.add_argument("--folner", type=_csv_floats, required=True, help="comma-separated sizes, e.g. 5,10,20,40")
    p.add_argument("--step", type=float, default=None, help="translate grid step (d >= 3)")
    p.add_argument("--extras", nargs="*", default=None, help="injected limit patches (hull estimate)")
    p.add_argument("--ell", type=int, default=None, help="attach covolume bounds for this ell")
    p.add_argument("--out")
    p.add_argument("--csv")

    p = sub.add_parser("hull-sample", help="translate-orbit samples on a compact window")
    p.add_argument("--patch", required=True)
    p.add_argument("--k-box", dest="k_box", type=float, nargs="+", required=True)
    p.add_argument("--translates", choices=("own", "grid"), default="own")
    p.add_argument("--grid-step", dest="grid_step", type=float, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("frame", help="Riesz/sampling bound trends over nested truncations")
    p.add_argument("--kernel", required=True)
    p.add_argument("--patch", required=True)
    p.add_argument("--truncations", type=_csv_floats, required=True, help="comma-separated half-widths, e.g. 20,40,80")
    p.add_argument("--margin-frac", dest="margin_frac", type=float, default=0.25)
    p.add_argument("--out")
    p.add_argument("--csv")

    p = sub.add_parser("verdict", help="necessary-density verdicts from a density report")
    p.add_argument("--kernel", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--relatively-dense", dest="relatively_dense", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("weil-check", help="lattice periodization identity residual")
    p.add_argument("--scheme", required=True)
    p.add_argument("--function", choices=("triangle", "gaussian"), default="triangle")
    p.add_argument("--quadrature-n", dest="quadrature_n", type=int, default=10_000)
    p.add_argument("--trunc", type=float, default=8.0)
    p.add_argument("--out")

    p = sub.add_parser("amalgam", help="local-maximum-function norm of the kernel")
    p.add_argument("--kernel", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--trunc", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("csv", help="render a report JSON as CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--columns", required=True)
    p.add_argument("--out")

    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("--config", required=True)

    return parser


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ctx = Context(workspace=Path(args.workspace), seed=args.seed)
    kwargs = {k: v for k, v in vars(args).items() if k not in ("command", "seed", "workspace")}
    try:
        _check_args(args.command, kwargs)
        HANDLERS.get(args.command, handle_run)(ctx, **kwargs)
        ctx.commit()
    except ConfigError as exc:
        print(f"aperio: config error: {exc}", file=sys.stderr)
        return 2
    except (AperioError, ValueError) as exc:
        print(f"aperio: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
