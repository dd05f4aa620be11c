#!/usr/bin/env python3
"""sha256 of every file the pinned benchmark pipelines leave in their workspace.

Runs every pinned config of ``perfbench/workloads.py`` (``fib1d``,
``gabor2d``, ``fib2d``) at seeds 1-3 with ``aperio run``, each in a fresh
workspace under a temporary directory, and prints one line
``sha256  workload-seed/file`` per file (inputs and reports), in a fixed order.  Run it
on two checkouts and diff the outputs to see whether a change moved any
report byte.

Usage: python scripts/report_digests.py [--root CHECKOUT]

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script), so the script also measures a
commit that predates it.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import aperio.cli
    from workloads import CONFIG, WORKLOADS

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
