"""Command-line orchestration: reproducible generation, density, frame and
verdict runs emitting canonical JSON reports.

Exit codes: 0 success, 1 operation error, 2 configuration/parse error
(including missing input files).  The library decides which: a check that
reads only a call's own arguments and no data raises ``ArgumentError``
(exit 2), a failure that depends on the data is an operation error (exit 1),
and no handler translates one into the other.  With a fixed seed, outputs are
byte-identical across runs: reports carry no timestamps, inputs are
referenced by content hash, and every numeric field is a decimal string.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import itertools
import json
import os
import re
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

from . import __version__, io_json
from .density import FolnerSpec, TestFunction, beurling_density, covolume_bounds_from_density, weil_check
from .errors import AperioError, ArgumentError, ConfigError
from .framekit import frame_trend_report, verdict
from .hull import grid_translates, orbit_sample, transversal_translates
from .cutproject import generate_model_set
from .pointset import as_box, as_rows
from .rkhs import wiener_amalgam_norm


@dataclass
class Context:
    """One command's paths and provenance.  Outputs wait in ``staged`` (resolved
    path, or ``None`` for stdout) until :meth:`commit`, so a failed command writes nothing.
    ``decoded`` keeps each decoded input by content hash and decoder, so a ``run`` whose
    steps read one file decodes it once, and a patch that ``gen`` wrote not at all."""

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

    def write_report(self, rel: str | None, obj: dict) -> None:
        """Write ``obj`` with the provenance block of this command's seed and inputs."""
        self.write_json(rel, {**obj, "provenance": io_json.provenance_block(self.seed, self.input_hashes)})

    def commit(self) -> None:
        """Write every staged file to a temporary sibling, rename them all into place, then
        write the staged stdout; a file that cannot be written leaves the workspace as it was.
        Each sibling is a new file, named for the process and a counter, so a killed run's leftover
        blocks nothing."""
        out = self.staged.pop(None, "")
        if dirs := [path for path in self.staged if path.is_dir()]:
            raise ConfigError(f"cannot write {dirs[0]}: it is a directory")
        temps = []
        try:
            for path, text in self.staged.items():
                path.parent.mkdir(parents=True, exist_ok=True)
                for serial in itertools.count():
                    with contextlib.suppress(FileExistsError):
                        tmp = open(path.with_name(f".{path.name}.{os.getpid()}-{serial}.aperio-tmp"), "xb")
                        break
                with tmp:
                    temps.append((tmp.name, path))
                    tmp.write(text.encode())
            for name, path in temps:
                os.replace(name, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        finally:  # on any exception; after the renames no name is left
            for name, _ in temps:
                Path(name).unlink(missing_ok=True)
        sys.stdout.write(out)


# ------------------------------------------------------------------- handlers

def handle_gen(ctx: Context, scheme: str, box: list[float], out: str | None = None) -> None:
    """Generate a model-set patch from a scheme."""
    sch = ctx.read_json(scheme, "scheme", io_json.scheme_from_jsonable)
    patch = generate_model_set(sch, as_rows(box, 2))  # lo hi pairs
    ctx.write_text(out, text := io_json.patch_dumps(patch))
    if out is not None:  # later steps of a run take the patch as decoding its text would give it, bit for bit
        ctx.decoded[io_json.sha256_bytes(text.encode()), io_json.patch_from_jsonable] = patch


def handle_density(
    ctx: Context,
    patch: str,
    folner: list[float],
    step: float | None = None,
    extras: list[str] | None = None,
    ell: int | None = None,
    out: str | None = None,
) -> None:
    """Beurling density report along Folner boxes."""
    spec = FolnerSpec(sizes=tuple(folner))
    base = ctx.read_json(patch, "patch", io_json.patch_from_jsonable)
    limits = [ctx.read_json(e, "extra", io_json.patch_from_jsonable) for e in extras or ()]
    report = beurling_density(base, spec, limits)
    bounds = None if ell is None else covolume_bounds_from_density(report, ell)
    ctx.write_report(out, io_json.density_report_to_jsonable(report, bounds))


def handle_hull_sample(
    ctx: Context,
    patch: str,
    k_box: list[float],
    translates: Literal["own", "grid"] = "own",
    grid_step: float | None = None,
    limit: int | None = None,
    out: str | None = None,
) -> None:
    """Translate-orbit samples on a compact window."""
    if limit is not None and limit < 0:
        raise ConfigError(f"limit must be >= 0, got {limit}")
    base = ctx.read_json(patch, "patch", io_json.patch_from_jsonable)
    kb = as_box(as_rows(k_box, 2), base.dim)  # a degenerate interval is an operation error, before the grid's checks
    if translates == "grid":
        if grid_step is None:
            raise ConfigError("grid translates need --grid-step")
        vecs = grid_translates(base, kb, grid_step, limit)
    else:
        vecs = transversal_translates(base, kb)[:limit]
    samples = orbit_sample(base, vecs, kb)
    ctx.write_text(out, io_json.patch_dumps(samples))


def handle_frame(
    ctx: Context,
    kernel: str,
    patch: str,
    truncations: list[float],
    margin_frac: float = 0.25,
    out: str | None = None,
) -> None:
    """Riesz/sampling bound trends over nested truncations."""
    kern = ctx.read_json(kernel, "kernel", io_json.kernel_from_jsonable)
    base = ctx.read_json(patch, "patch", io_json.patch_from_jsonable)
    report = frame_trend_report(kern, base, truncations, margin_frac=margin_frac)
    ctx.write_report(out, io_json.frame_report_to_jsonable(report))


def handle_verdict(
    ctx: Context,
    kernel: str,
    density: str,
    ell: int = 1,
    tol: float | None = None,
    relatively_dense: bool = False,
    out: str | None = None,
) -> None:
    """Necessary-density verdicts from a density report."""
    kern = ctx.read_json(kernel, "kernel", io_json.kernel_from_jsonable)
    report = ctx.read_json(density, "density", io_json.density_report_from_jsonable)
    v = verdict(kern, report, ell=ell, tol=tol, relatively_dense=relatively_dense)
    ctx.write_report(out, io_json.verdict_report_to_jsonable(v))


def handle_weil_check(
    ctx: Context,
    scheme: str,
    function: Literal["triangle", "gaussian"] = "triangle",
    quadrature_n: int = 10_000,
    trunc: float = 8.0,
    out: str | None = None,
) -> None:
    """Lattice periodization identity residual."""
    f = TestFunction(kind=function, trunc=trunc)
    sch = ctx.read_json(scheme, "scheme", io_json.scheme_from_jsonable)
    residual = weil_check(sch, f, quadrature_n)
    ctx.write_report(out, io_json.weil_report_to_jsonable(residual, quadrature_n, function))


def handle_amalgam(
    ctx: Context,
    kernel: str,
    q: float,
    trunc: float,
    step: float,
    out: str | None = None,
) -> None:
    """Local-maximum-function norm of the kernel."""
    kern = ctx.read_json(kernel, "kernel", io_json.kernel_from_jsonable)
    norm = wiener_amalgam_norm(kern, q, trunc, step)
    ctx.write_report(out, io_json.amalgam_report_to_jsonable(norm, q, trunc, step))


def handle_csv(ctx: Context, report: str, columns: str, out: str | None = None) -> None:
    """Render a report JSON as CSV."""
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
    """Execute an experiment config."""
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


@functools.cache  # main builds the parser on every call
def _signature(handler):
    """A command's one declaration: ``handler``'s signature and its evaluated type hints."""
    return inspect.signature(handler), typing.get_type_hints(handler)


def _check_args(cmd: str, args: dict, where: str = "") -> None:
    """Refuse arguments the handler of ``cmd`` does not take, or values that do not fit its annotations."""
    sig, hints = _signature(HANDLERS.get(cmd, handle_run))
    try:
        sig.bind(None, **args)
    except TypeError as exc:
        raise ConfigError(f"{where}{cmd}: {exc}") from exc
    for key, value in args.items():
        if not io_json.fits(value, hints[key]):
            annotation = sig.parameters[key].annotation
            raise ConfigError(f"{where}{cmd}: {key!r} must be {annotation} with finite numbers, got {value!r:.40}")


# ------------------------------------------------------------------ arg parse

class _Parser(argparse.ArgumentParser):
    """Reads negative numbers in exponent notation (``--box -1e6 1e6``), ``-inf``, ``-Infinity`` and ``-nan`` as values.

    argparse's own pattern knows only ``-12`` and ``-1.5``; the argument
    check refuses a non-finite value by name.  Subparsers are built from the
    same class and inherit the wider pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


_HELP = {
    ("density", "folner"): "comma-separated sizes, e.g. 5,10,20,40",
    ("density", "step"): "ignored; accepted so that existing configs run",
    ("density", "extras"): "injected limit patches (hull estimate)",
    ("density", "ell"): "attach covolume bounds for this ell",
    ("frame", "truncations"): "comma-separated half-widths, e.g. 20,40,80",
}


def _flag(name: str, hint, default) -> dict:
    """The ``add_argument`` keywords of a handler argument: required iff it has no default."""
    kw = {"required": True} if default is inspect.Parameter.empty else {"default": default}
    optional = type(None) in typing.get_args(hint)
    if optional:  # ``X | None`` takes an X
        (hint,) = [h for h in typing.get_args(hint) if h is not type(None)]
    if hint is bool:
        return {**kw, "action": "store_true"}
    if typing.get_origin(hint) is Literal:
        return {**kw, "choices": typing.get_args(hint)}
    if typing.get_origin(hint) is list:
        if name in ("folner", "truncations"):  # one comma-separated token
            return {**kw, "type": _csv_floats}
        return {**kw, "type": typing.get_args(hint)[0], "nargs": "*" if optional else "+"}
    return {**kw, "type": hint}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per handler, one flag per handler argument (``_`` -> ``-``), typed by its annotation."""
    parser = _Parser(
        prog="aperio",
        description="Point-set densities, covolumes and reproducing-kernel frame diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"aperio {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in report provenance")
    parser.add_argument("--workspace", default=".", help="root for relative file paths")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, handler in {**HANDLERS, "run": handle_run}.items():
        doc = inspect.getdoc(handler)
        p = sub.add_parser(cmd, help=doc.splitlines()[0], description=doc)
        sig, hints = _signature(handler)
        for name, param in list(sig.parameters.items())[1:]:
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, help=_HELP.get((cmd, name)), **_flag(name, hints[name], param.default))
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
    except (ConfigError, ArgumentError) as exc:
        print(f"aperio: config error: {exc}", file=sys.stderr)
        return 2
    except (AperioError, ValueError) as exc:
        print(f"aperio: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
