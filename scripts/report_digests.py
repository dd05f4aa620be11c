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
also prints ``sha256  fib2d-seed/grid-samples.json``, the output of
``hull-sample`` with the arguments ``GRID_SAMPLES`` on that seed's patch:
patch lists in d = 2, empty windows among them.  Last, it runs the command
lines of ``COMMANDS`` in order in one more workspace, on the inputs of
``command_inputs``, and prints ``sha256  commands/file`` for every file there;
with the pipelines they call every command of ``aperio.cli.HANDLERS``.  Run it
on two checkouts and diff the outputs to see whether a change moved any report
byte or statistic.

Usage: python scripts/report_digests.py [--root CHECKOUT]

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script), so the script also measures a
commit that predates it.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
# hull-sample on a grid of translates, per workload: 300 windows of fib2d seed 1, 89 of them empty
GRID_SAMPLES = {
    "fib2d": ["--translates", "grid", "--grid-step", "0.7", "--k-box", "-1", "1", "-1", "1", "--limit", "300"],
}
# the commands and cases the pipelines leave out: density in d = 3 and with extra patches,
# both weil-check functions, amalgam of the Gabor kernel, csv of a density and a frame report
COMMANDS = [
    ["gen", "--scheme", "fib-scheme.json", "--box", "-100", "100", "--out", "fib.json"],
    ["gen", "--scheme", "z-scheme.json", "--box", "-100", "100", "--out", "z.json"],
    ["density", "--patch", "z3.json", "--folner", "1,2,3", "--ell", "1", "--out", "density-z3.json"],
    ["density", "--patch", "fib.json", "--folner", "5,10,20", "--extras", "z.json", "--out", "density-extras.json"],
    ["weil-check", "--scheme", "z-scheme.json", "--out", "weil-triangle.json"],
    ["weil-check", "--scheme", "z-scheme.json", "--function", "gaussian", "--out", "weil-gaussian.json"],
    ["amalgam", "--kernel", "gabor.json", "--q", "0.5", "--trunc", "4", "--step", "0.1", "--out", "amalgam-gabor.json"],
    ["frame", "--kernel", "pw.json", "--patch", "fib.json", "--truncations", "25,50,100", "--out", "frame.json"],
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
        "z3.json": z3,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import aperio.cli
    import aperio.io_json
    import aperio.pointset
    import workloads
    from workloads import CONFIG, DENSE_K, SEPARATION_U, WORKLOADS

    if not Path(aperio.cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"aperio imported from {aperio.cli.__file__}, not from {root / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                ws = Path(tmp) / f"{name}-{seed}"
                workload.write_inputs(ws, seed)
                if aperio.cli.main(["--workspace", str(ws), "run", "--config", CONFIG]) != 0:
                    raise SystemExit(f"{name} seed {seed}: aperio run failed")
                for path in sorted(ws.iterdir()):
                    print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {ws.name}/{path.name}")
                if workload.separation:
                    patch = aperio.io_json.patch_from_jsonable(json.loads((ws / "patch.json").read_bytes()))
                    stats = aperio.pointset.rel_separation(patch, SEPARATION_U)
                    dense = aperio.pointset.is_relatively_dense(patch, DENSE_K)
                    print(f"{hashlib.sha256(repr((stats, dense)).encode()).hexdigest()}  {ws.name}/separation")
                if name in GRID_SAMPLES:
                    argv = ["--workspace", str(ws), "hull-sample", "--patch", "patch.json", *GRID_SAMPLES[name]]
                    if aperio.cli.main([*argv, "--out", "grid-samples.json"]) != 0:
                        raise SystemExit(f"{name} seed {seed}: hull-sample on a grid failed")
                    path = ws / "grid-samples.json"
                    print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {ws.name}/{path.name}")
        ws = Path(tmp) / "commands"
        ws.mkdir()
        for name, obj in command_inputs(workloads).items():
            (ws / name).write_text(json.dumps(obj))
        for argv in COMMANDS:
            if aperio.cli.main(["--workspace", str(ws), *argv]) != 0:
                raise SystemExit(f"{' '.join(argv)}: failed")
        for path in sorted(ws.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {ws.name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
