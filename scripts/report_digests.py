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
patch lists in d = 2, empty windows among them.  Run it on two checkouts and
diff the outputs to see whether a change moved any report byte or statistic.

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import aperio.cli
    import aperio.io_json
    import aperio.pointset
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
