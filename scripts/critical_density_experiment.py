#!/usr/bin/env python3
"""Necessary-density sweep around the critical density, for two kernels.

For the unit-band kernel on R and the Gaussian time-frequency kernel on R^2,
sweeps lattice spacings through the critical density and tabulates which
properties the density verdicts rule out, next to the spectral trend verdict
from nested truncations.  Writes all reports into a workspace directory via
the CLI so the whole experiment is reproducible from the emitted files.

Usage: python scripts/critical_density_experiment.py [--workspace exp_out]
"""

import argparse
import json
import math
import sys
from pathlib import Path

from aperio.cli import main as cli


def write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def run_band_limited(ws: Path) -> None:
    write(ws / "kernel_pw.json", {"kind": "paley_wiener", "band": [[-0.5, 0.5]]})
    print("\nband [-1/2, 1/2] on R (critical density 1):")
    print(f"{'spacing':>8} {'density':>8} {'ruled out':<42} {'trend verdict':<16}")
    for spacing in (0.5, 0.8, 1.0, 1.02, 1.25, 2.0):
        tag = str(spacing).replace(".", "_")
        write(ws / f"scheme_{tag}.json", {"d": 1, "m": 0, "basis": [[spacing]]})
        steps = [
            {"command": "gen", "args": {"scheme": f"scheme_{tag}.json", "box": [-200, 200], "out": f"patch_{tag}.json"}},
            {"command": "density", "args": {"patch": f"patch_{tag}.json", "folner": [10, 20, 40], "ell": 1, "out": f"density_{tag}.json"}},
            {"command": "verdict", "args": {"kernel": "kernel_pw.json", "density": f"density_{tag}.json", "ell": 1, "out": f"verdict_{tag}.json"}},
            {"command": "frame", "args": {"kernel": "kernel_pw.json", "patch": f"patch_{tag}.json", "truncations": [50, 100, 200], "out": f"frame_{tag}.json"}},
        ]
        write(ws / f"config_{tag}.json", {"seed": 1, "steps": steps})
        rc = cli(["--workspace", str(ws), "run", "--config", f"config_{tag}.json"])
        if rc != 0:
            raise SystemExit(rc)
        v = json.loads((ws / f"verdict_{tag}.json").read_text())
        f = json.loads((ws / f"frame_{tag}.json").read_text())
        ruled = "; ".join(v["ruled_out"]) or "none (inconclusive)"
        print(f"{spacing:8.2f} {1 / spacing:8.3f} {ruled:<42} {f['verdict']:<16}")


def run_time_frequency(ws: Path) -> None:
    write(ws / "kernel_gg.json", {"kind": "gabor_gaussian", "n": 1})
    print("\nGaussian time-frequency kernel on R^2 (critical density 1):")
    print(f"{'ab':>6} {'density':>8} {'ruled out':<42} {'trend verdict':<16}")
    for ab in (0.8, 1.0, 1.25):
        a = math.sqrt(ab)
        tag = str(ab).replace(".", "_")
        write(ws / f"grid_{tag}.json", {"d": 2, "m": 0, "basis": [[a, 0.0], [0.0, a]]})
        steps = [
            {"command": "gen", "args": {"scheme": f"grid_{tag}.json", "box": [-40, 40, -40, 40], "out": f"gpatch_{tag}.json"}},
            {"command": "density", "args": {"patch": f"gpatch_{tag}.json", "folner": [10, 20], "ell": 1, "out": f"gdensity_{tag}.json"}},
            {"command": "verdict", "args": {"kernel": "kernel_gg.json", "density": f"gdensity_{tag}.json", "ell": 1, "out": f"gverdict_{tag}.json"}},
        ]
        write(ws / f"gconfig_{tag}.json", {"seed": 1, "steps": steps})
        rc = cli(["--workspace", str(ws), "run", "--config", f"gconfig_{tag}.json"])
        if rc != 0:
            raise SystemExit(rc)
        # trend report on the denser [-8, 8]^2 window (Gram sizes stay small)
        write(
            ws / f"gframe_cfg_{tag}.json",
            {"seed": 1, "steps": [
                {"command": "gen", "args": {"scheme": f"grid_{tag}.json", "box": [-8, 8, -8, 8], "out": f"gsmall_{tag}.json"}},
                {"command": "frame", "args": {"kernel": "kernel_gg.json", "patch": f"gsmall_{tag}.json", "truncations": [4, 6, 8], "out": f"gframe_{tag}.json"}},
            ]},
        )
        rc = cli(["--workspace", str(ws), "run", "--config", f"gframe_cfg_{tag}.json"])
        if rc != 0:
            raise SystemExit(rc)
        v = json.loads((ws / f"gverdict_{tag}.json").read_text())
        f = json.loads((ws / f"gframe_{tag}.json").read_text())
        ruled = "; ".join(v["ruled_out"]) or "none (inconclusive)"
        print(f"{ab:6.2f} {1 / ab:8.3f} {ruled:<42} {f['verdict']:<16}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workspace", default="critical_density_out")
    args = parser.parse_args()
    ws = Path(args.workspace)
    ws.mkdir(parents=True, exist_ok=True)
    run_band_limited(ws)
    run_time_frequency(ws)
    print(f"\nreports written under {ws}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
