"""The three pinned pipelines, their seeded inputs and their output checks.

Each workload is a fixed ``aperio run`` config over a fixed scheme and kernel.
The seed only draws a box offset per axis, uniform in ``[0, offset_max)``,
where ``offset_max`` is a quarter of the pattern's smallest point spacing: the
coordinates the program sees change with the seed, the amount of work does
not (on the lattice a full spacing would change the Gram size by up to 9%).

The checks hold for any seed. They test values, never provenance strings.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

PHI = (1.0 + math.sqrt(5.0)) / 2.0
CONFIG = "config.json"
SEPARATION_U = 0.5
DENSE_K = 2.0


def _rotated_product_fibonacci(angle: float) -> dict:
    c, s = math.cos(angle), math.sin(angle)
    phys = [[1.0, PHI, 0.0, 0.0], [0.0, 0.0, 1.0, PHI]]
    rot = [[c * a - s * b for a, b in zip(*phys)], [s * a + c * b for a, b in zip(*phys)]]
    internal = [[1.0, -1.0 / PHI, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0 / PHI]]
    return {
        "d": 2,
        "m": 2,
        "basis": rot + internal,
        "window": [{"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}],
    }


FIB1D_SCHEME = {
    "d": 1,
    "m": 1,
    "basis": [[1.0, PHI], [1.0, -1.0 / PHI]],
    "window": [{"lo": [-0.5], "hi": [0.5]}],
}
LATTICE_SPACING = math.sqrt(0.8)
LATTICE_SCHEME = {"d": 2, "m": 0, "basis": [[LATTICE_SPACING, 0.0], [0.0, LATTICE_SPACING]]}
FIB2D_SCHEME = _rotated_product_fibonacci(0.5)
PALEY_WIENER = {"kind": "paley_wiener", "band": [[-0.5, 0.5]]}
GABOR = {"kind": "gabor_gaussian", "n": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: dict
    kernel: dict
    half_width: float  # the patch box is [-w, w]^d before the seeded offset
    density: float  # exact density of the generated set
    offset_max: float
    folner: tuple[float, ...]
    folner_step: float | None
    ruled_out: frozenset[str]
    frame_truncations: tuple[float, ...] = ()
    frame_verdict: str | None = None
    hull_k_box: tuple[float, float] | None = None
    hull_limit: int | None = None
    separation: bool = False

    @property
    def dim(self) -> int:
        return self.scheme["d"]

    def box(self, seed: int) -> list[float]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for _ in range(self.dim):
            off = rng.uniform(0.0, self.offset_max)
            out += [-self.half_width + off, self.half_width + off]
        return out

    def steps(self, seed: int) -> list[dict]:
        density = {"patch": "patch.json", "folner": list(self.folner), "ell": 1, "out": "density.json"}
        if self.folner_step is not None:
            density["step"] = self.folner_step
        steps = [
            {"command": "gen", "args": {"scheme": "scheme.json", "box": self.box(seed), "out": "patch.json"}},
            {"command": "density", "args": density},
            {
                "command": "verdict",
                "args": {"kernel": "kernel.json", "density": "density.json", "ell": 1, "out": "verdict.json"},
            },
        ]
        if self.frame_truncations:
            steps.append(
                {
                    "command": "frame",
                    "args": {
                        "kernel": "kernel.json",
                        "patch": "patch.json",
                        "truncations": list(self.frame_truncations),
                        "out": "frame.json",
                    },
                }
            )
        if self.hull_k_box is not None:
            steps.append(
                {
                    "command": "hull-sample",
                    "args": {
                        "patch": "patch.json",
                        "k_box": list(self.hull_k_box),
                        "limit": self.hull_limit,
                        "out": "samples.json",
                    },
                }
            )
        return steps

    def outputs(self) -> list[str]:
        return [s["args"]["out"] for s in self.steps(0)]

    def write_inputs(self, workspace: Path, seed: int) -> None:
        workspace.mkdir(parents=True, exist_ok=True)
        (workspace / "scheme.json").write_text(json.dumps(self.scheme))
        (workspace / "kernel.json").write_text(json.dumps(self.kernel))
        (workspace / CONFIG).write_text(json.dumps({"seed": seed, "steps": self.steps(seed)}))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fib1d",
            scheme=FIB1D_SCHEME,
            kernel=PALEY_WIENER,
            half_width=1.0e4,
            density=1.0 / math.sqrt(5.0),
            offset_max=PHI / 4.0,  # smallest gap of the chain is phi
            folner=(10, 20, 40, 80, 160),
            folner_step=None,
            ruled_out=frozenset({"sampling"}),
            frame_truncations=(150, 300, 600),
            frame_verdict="riesz_evidence",
            hull_k_box=(-5.0, 5.0),
            hull_limit=2000,
            separation=True,
        ),
        Workload(
            name="gabor2d",
            scheme=LATTICE_SCHEME,
            kernel=GABOR,
            half_width=17.5,
            density=1.25,
            offset_max=LATTICE_SPACING / 4.0,
            folner=(5, 10),
            folner_step=0.25,
            ruled_out=frozenset({"interpolation"}),
            frame_truncations=(8.75, 13.125, 17.5),
            frame_verdict="frame_evidence",
        ),
        Workload(
            name="fib2d",
            scheme=FIB2D_SCHEME,
            kernel=GABOR,
            half_width=30.0,
            density=0.2,
            offset_max=0.35,  # smallest sup-norm gap of the rotated set is about 1.42
            folner=(5, 10, 20),
            folner_step=0.25,
            ruled_out=frozenset({"sampling"}),
            separation=True,
        ),
    )
}


def folner_tolerance(density: float, dim: int, half_width: float) -> float:
    """Largest density error of a box ``[c - h, c + h]^d`` on these sets.

    One mean spacing ``a = density^(-1/d)`` of slack per axis: a lattice box
    of side ``L`` holds between ``(L/a - 1)^d`` and ``(L/a + 1)^d`` points, and
    the Fibonacci sets are balanced, so their counts stay within two points
    per axis of ``density * L``.
    """
    a = density ** (-1.0 / dim)
    return density * ((1.0 + a / half_width) ** dim - 1.0)


def _value(cell) -> float:
    return float(cell["value"])


def check_outputs(wl: Workload, workspace: Path, separation) -> list[str]:
    """Failures of one pass's reports against what the pinned inputs imply."""
    bad = []
    patch = json.loads((workspace / "patch.json").read_bytes())
    box = [(float(lo), float(hi)) for lo, hi in patch["box"]]
    volume = math.prod(hi - lo for lo, hi in box)
    half = min(hi - lo for lo, hi in box) / 2.0
    expected = wl.density * volume
    tol = folner_tolerance(wl.density, wl.dim, half) * volume
    if abs(len(patch["points"]) - expected) > tol:
        bad.append(f"{len(patch['points'])} points, expected {expected:.1f} +- {tol:.1f}")

    dens = json.loads((workspace / "density.json").read_bytes())
    tol = folner_tolerance(wl.density, wl.dim, wl.folner[-1])
    for key in ("extrapolated_lower", "extrapolated_upper"):
        got = _value(dens[key])
        if not abs(got - wl.density) <= tol:
            bad.append(f"{key} {got} outside {wl.density} +- {tol}")

    ver = json.loads((workspace / "verdict.json").read_bytes())
    ruled = {entry.split()[0] for entry in ver["ruled_out"]}
    if ruled != wl.ruled_out:
        bad.append(f"ruled out {sorted(ruled)}, expected {sorted(wl.ruled_out)}")

    if wl.frame_verdict is not None:
        frame = json.loads((workspace / "frame.json").read_bytes())
        if frame["verdict"] != wl.frame_verdict:
            bad.append(f"frame verdict {frame['verdict']}, expected {wl.frame_verdict}")

    if wl.hull_k_box is not None:
        samples = json.loads((workspace / "samples.json").read_bytes())
        if len(samples) != wl.hull_limit or not all(["0.0"] * wl.dim in s["points"] for s in samples):
            bad.append("hull samples: wrong count or a sample missing the origin")

    if wl.separation:
        stats, dense = separation
        if stats.ell != 1 or dense is not True:
            bad.append(f"separation ell={stats.ell}, relatively dense={dense}")
    return bad
