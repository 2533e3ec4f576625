#!/usr/bin/env python3
"""Ramp duration scaling: how fast T_A grows as the infidelity target drops.

Searches the minimal converged ramp duration for a ladder of targets on
one fused chain and fits the apparent power law T_A ~ infidelity^(-x).
The doubling-plus-bisection search quantizes T_A, so the fit is read off
the achieved infidelities, not the requested targets.
"""

import argparse
import sys
from fractions import Fraction

import numpy as np

from xxfusion import FusionConfig, FusionStep


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--L", type=int, default=8, help="fused chain length")
    p.add_argument("--filling", default="1/2", help="up-spin fraction")
    p.add_argument("--targets", default="1e-1,3e-2,1e-2,3e-3,1e-3,3e-4,1e-4",
                   help="comma-separated infidelity targets")
    p.add_argument("--bisections", type=int, default=3,
                   help="bisection refinements after the doubling probe passes")
    return p.parse_args()


def main():
    args = parse_args()
    filling = Fraction(args.filling)
    step = FusionStep.exact_halves(
        args.L, filling, FusionConfig(bisections=args.bisections)
    )
    targets = [float(t) for t in args.targets.split(",")]
    rows = []
    print(f"# L={args.L} filling={filling} bisections={args.bisections}")
    print(f"{'target':>10} {'T_A':>10} {'achieved':>14} {'steps':>6}")
    for target in sorted(targets, reverse=True):
        res = step.ramp(target)
        rows.append((res.T_A, res.infidelity))
        print(f"{target:>10.3g} {res.T_A:>10.6g} {res.infidelity:>14.6e} "
              f"{res.steps:>6d}")
    logs_T = np.log([T for T, _ in rows])
    logs_I = np.log([fid for _, fid in rows])
    exponent = -np.polyfit(logs_I, logs_T, 1)[0]
    print(f"# fitted T_A ~ infidelity^(-{exponent:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
