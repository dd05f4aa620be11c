#!/usr/bin/env python3
"""Folner-size sweep of Beurling density estimates for the Fibonacci chain.

Generates the cut-and-project chain with golden-ratio internal slope, sweeps
the centered-box sizes, and writes a CSV of (n, inf, sup) rows next to the
same sweep for a unit lattice.  The inf/sup spread contracting toward
1/sqrt(5) is the unique-ergodicity signature; the lattice column calibrates
the finite-size bias.

Usage: python scripts/fibonacci_density_sweep.py [--half-width 1000] [--out sweep.csv]
"""

import argparse
import math
import sys

from aperio import FolnerSpec, beurling_density, generate_model_set, model_set_covolume
from aperio.cutproject import CutProjectScheme, lattice_scheme


def fibonacci_scheme(window_halfwidth: float = 0.5) -> CutProjectScheme:
    tau = (1 + math.sqrt(5)) / 2
    return CutProjectScheme(
        d=1,
        m=1,
        basis=[[1.0, tau], [1.0, 1 - tau]],
        window=((-window_halfwidth, window_halfwidth),),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--half-width", type=float, default=1000.0)
    parser.add_argument("--sizes", default="5,10,20,40,80,160")
    parser.add_argument("--out", default="fibonacci_density_sweep.csv")
    args = parser.parse_args()

    sizes = tuple(float(s) for s in args.sizes.split(","))
    box = [(-args.half_width, args.half_width)]
    scheme = fibonacci_scheme()
    fib = generate_model_set(scheme, box)
    lat = generate_model_set(lattice_scheme([[math.sqrt(5)]]), box)
    target = 1 / math.sqrt(5)

    print(f"fibonacci patch: {fib.n_points} points, covolume {model_set_covolume(scheme):.6f}")
    print(f"target density 1/sqrt(5) = {target:.6f}")

    spec = FolnerSpec(sizes=sizes)
    fib_report = beurling_density(fib, spec)
    lat_report = beurling_density(lat, spec)

    header = "n,fib_inf,fib_sup,lattice_inf,lattice_sup"
    rows = [header]
    print(f"{'n':>6} {'fib inf':>10} {'fib sup':>10} {'lat inf':>10} {'lat sup':>10}")
    for (n, flo), (_, fhi), (_, llo), (_, lhi) in zip(
        fib_report.lower, fib_report.upper, lat_report.lower, lat_report.upper
    ):
        print(f"{n:6.0f} {flo:10.6f} {fhi:10.6f} {llo:10.6f} {lhi:10.6f}")
        rows.append(f"{n:.12g},{flo:.12g},{fhi:.12g},{llo:.12g},{lhi:.12g}")

    with open(args.out, "w", newline="") as fh:
        fh.write("\r\n".join(rows) + "\r\n")
    print(f"wrote {args.out}")

    err = abs(fib_report.extrapolated_lower - target) / target
    print(f"relative deviation of the extrapolated lower density: {err:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
