#!/usr/bin/env python3
"""sha256 of every file the pinned benchmark pipelines leave in their workspace.

Runs every pinned config of ``perfbench/workloads.py`` (``fib1d``,
``gabor2d``, ``fib2d``) at seeds 1-3 with ``aperio run``, each in a fresh
workspace under a temporary directory, and prints one line
``sha256  workload-seed/file`` per file (inputs and reports), in a fixed order.
For each workload with separation calls it also prints
``sha256  workload-seed/separation``, the hash of
``repr((rel_separation(patch, SEPARATION_U), is_relatively_dense(patch, DENSE_K)))``,
which is the value the benchmark worker hashes.  For each ``fib2d`` seed it
also prints ``sha256  fib2d-seed/grid-samples.json``, the hash of
``io_json.patch_dumps(hull.orbit_sample(...))`` (the JSON ``hull-sample``
writes) for the translates of ``grid_translates`` with the parameters of
``GRID_SAMPLES`` on that seed's patch: patch lists in d = 2, empty windows
among them.  Last, it runs the command lines of ``COMMANDS`` in order in one
more workspace, on the inputs of ``command_inputs``, and prints ``sha256  commands/file`` for every file there;
with the pipelines they call every command of ``aperio.cli.HANDLERS``.  Then it
runs the sweeps of the checkout's ``scripts/critical_density_experiment.py``
(its table suppressed) in one more workspace and prints
``sha256  critical/file`` for each of the files they write.  Run it on two
checkouts and diff the outputs to see whether a change moved any report byte or
statistic.  It prints the thread count of the BLAS that numpy loaded on stderr,
so stdout stays comparable: frame reports write their spectra as brackets at the
solver's resolution, so the same checkout prints the same stdout at any thread
count (``OPENBLAS_NUM_THREADS=1`` against the default).

Usage: python scripts/report_digests.py [--root CHECKOUT]

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script), so the script also measures a
commit that predates it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)
# orbit samples on a grid of translates, per workload, as (step, k_box, limit): 300 windows of
# fib2d seed 1, 89 of them empty, which the transversal's own-point windows never are
GRID_SAMPLES = {
    "fib2d": (0.7, ((-1.0, 1.0), (-1.0, 1.0)), 300),
}
# the commands and cases the pipelines leave out: density in d = 3 and with extra patches,
# both weil-check functions, amalgam of the Gabor kernel and of Paley-Wiener kernels in d = 2
# on bands of unequal widths (one factor per axis, each with its own width), a Paley-Wiener
# frame in d = 2 on such a band (181 points of the fib2d scheme), Paley-Wiener frames on bands
# not symmetric about 0 in d = 1 and 2 (a complex kernel, with the conjugating reflection
# alone), csv of a density and a frame report
COMMANDS = [
    ["gen", "--scheme", "fib-scheme.json", "--box", "-100", "100", "--out", "fib.json"],
    ["gen", "--scheme", "z-scheme.json", "--box", "-100", "100", "--out", "z.json"],
    ["density", "--patch", "z3.json", "--folner", "1,2,3", "--ell", "1", "--out", "density-z3.json"],
    ["density", "--patch", "fib.json", "--folner", "5,10,20", "--extras", "z.json", "--out", "density-extras.json"],
    ["weil-check", "--scheme", "z-scheme.json", "--out", "weil-triangle.json"],
    ["weil-check", "--scheme", "z-scheme.json", "--function", "gaussian", "--out", "weil-gaussian.json"],
    ["amalgam", "--kernel", "gabor.json", "--q", "0.5", "--trunc", "4", "--step", "0.1", "--out", "amalgam-gabor.json"],
    ["amalgam", "--kernel", "pw2.json", "--q", "0.5", "--trunc", "4", "--step", "0.1", "--out", "amalgam-pw2.json"],
    ["amalgam", "--kernel", "pw2-shifted.json", "--q", "0.5", "--trunc", "4", "--step", "0.1", "--out", "amalgam-pw2-shifted.json"],
    ["frame", "--kernel", "pw.json", "--patch", "fib.json", "--truncations", "25,50,100", "--out", "frame.json"],
    ["gen", "--scheme", "fib2d-scheme.json", "--box", "-15", "15", "-15", "15", "--out", "fib2d.json"],
    ["frame", "--kernel", "pw2.json", "--patch", "fib2d.json", "--truncations", "5,10,15", "--out", "frame-pw2.json"],
    ["frame", "--kernel", "pw-shifted.json", "--patch", "fib.json", "--truncations", "25,50,100", "--out", "frame-shifted.json"],
    ["frame", "--kernel", "pw2-shifted.json", "--patch", "fib2d.json", "--truncations", "5,10,15", "--out", "frame-pw2-shifted.json"],
    ["csv", "--report", "density-z3.json", "--columns", "n,inf,sup", "--out", "density-z3.csv"],
    ["csv", "--report", "frame.json", "--columns", "truncation,A,B", "--out", "frame.csv"],
]


def command_inputs(workloads) -> dict:
    """The input files of ``COMMANDS``, by name; ``z3.json`` is Z^3 + 0.37 in the box [-4, 4]^3 + 0.37."""
    shift = 0.37
    axis = [i + shift for i in range(-4, 5)]
    z3 = {
        "dim": 3,
        "box": [[-4 + shift, 4 + shift]] * 3,
        "points": [[x, y, z] for x in axis for y in axis for z in axis],
    }
    return {
        "fib-scheme.json": workloads.FIB1D_SCHEME,
        "z-scheme.json": {"d": 1, "m": 0, "basis": [[1.0]]},
        "pw.json": workloads.PALEY_WIENER,
        "gabor.json": workloads.GABOR,
        "fib2d-scheme.json": workloads.FIB2D_SCHEME,
        "pw2.json": {"kind": "paley_wiener", "band": [[-0.5, 0.5], [-0.25, 0.25]]},
        "pw-shifted.json": {"kind": "paley_wiener", "band": [[-0.25, 0.75]]},
        "pw2-shifted.json": {"kind": "paley_wiener", "band": [[-0.25, 0.75], [-0.5, 0.25]]},
        "z3.json": z3,
    }


def grid_translates(patch, step: float, k_box, limit: int) -> np.ndarray:
    """The first ``limit`` translates ``x`` of a grid at ``step`` with ``x + k_box`` inside the patch box, the first axis slowest.

    Per axis the grid starts at the low end of the span of such translates, its ends rounded inward.
    """
    from aperio.pointset import _sum_down

    spans = [(-_sum_down(-plo, klo), _sum_down(phi, -khi)) for (plo, phi), (klo, khi) in zip(patch.box, k_box)]
    shape = [max(1, int(np.floor((hi - lo) / step)) + 1) for lo, hi in spans]
    index = np.unravel_index(np.arange(min(limit, int(np.prod(shape)))), shape)
    return np.stack([lo + step * i for (lo, _), i in zip(spans, index)], axis=1)


def print_digests(ws: Path) -> None:
    """One line ``sha256  workspace/file`` per file of ``ws``, in name order."""
    for path in sorted(ws.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {ws.name}/{path.name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import aperio.cli
    import aperio.hull
    import aperio.io_json
    import aperio.pointset
    import env
    import workloads
    from workloads import CONFIG, DENSE_K, SEPARATION_U, WORKLOADS

    if not Path(aperio.cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"aperio imported from {aperio.cli.__file__}, not from {root / 'src'}")
    print(f"BLAS threads: {env._blas()['threads']}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                ws = Path(tmp) / f"{name}-{seed}"
                workload.write_inputs(ws, seed)
                if aperio.cli.main(["--workspace", str(ws), "run", "--config", CONFIG]) != 0:
                    raise SystemExit(f"{name} seed {seed}: aperio run failed")
                print_digests(ws)
                if workload.separation:
                    patch = aperio.io_json.patch_from_jsonable(json.loads((ws / "patch.json").read_bytes()))
                    stats = aperio.pointset.rel_separation(patch, SEPARATION_U)
                    dense = aperio.pointset.is_relatively_dense(patch, DENSE_K)
                    print(f"{hashlib.sha256(repr((stats, dense)).encode()).hexdigest()}  {ws.name}/separation")
                if name in GRID_SAMPLES:
                    step, k_box, limit = GRID_SAMPLES[name]
                    patch = aperio.io_json.patch_from_jsonable(json.loads((ws / "patch.json").read_bytes()))
                    samples = aperio.hull.orbit_sample(patch, grid_translates(patch, step, k_box, limit), k_box)
                    text = aperio.io_json.patch_dumps(samples)
                    print(f"{hashlib.sha256(text.encode()).hexdigest()}  {ws.name}/grid-samples.json")
        ws = Path(tmp) / "commands"
        ws.mkdir()
        for name, obj in command_inputs(workloads).items():
            (ws / name).write_text(json.dumps(obj))
        for argv in COMMANDS:
            if aperio.cli.main(["--workspace", str(ws), *argv]) != 0:
                raise SystemExit(f"{' '.join(argv)}: failed")
        print_digests(ws)
        ws = Path(tmp) / "critical"
        ws.mkdir()
        experiment = runpy.run_path(str(root / "scripts" / "critical_density_experiment.py"))
        with contextlib.redirect_stdout(io.StringIO()):  # its table, not one line per file
            experiment["run_band_limited"](ws)
            experiment["run_time_frequency"](ws)
        print_digests(ws)
    return 0


if __name__ == "__main__":
    sys.exit(main())
