#!/usr/bin/env python3
"""Golden outputs: run a fixed list of xxfusion invocations and keep what they print.

Every invocation runs in this process through ``xxfusion.cli.main``; its
stdout, stderr and exit code are written to ``OUTDIR/<name>/``, one file
each.  ``OUTDIR/settings`` records the BLAS thread variables and the
numpy and scipy versions, since the last digits of some outputs depend
on them.  Run it once on each of two checkouts and compare the trees:

    PYTHONPATH=src python scripts/golden_outputs.py before
    ...change the code...
    PYTHONPATH=src python scripts/golden_outputs.py after
    diff -r before after

The list covers every command, both signs and several magnitudes of J,
the OK path, FAILED cells and levels (exit 1), and configuration errors
(exit 2); the script exits 1 if any invocation ends with another code
than the one it is listed under.  The whole list took about 30 s on a
2-core machine.
"""

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

import numpy
import scipy

from xxfusion.cli import main as xxfusion_main

#: Environment variables that set the BLAS thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The invocations, by the exit code each is expected to end with.
INVOCATIONS = {
    # the OK path
    0: [
        "compare --L 8 --filling 1/2 --targets 1e-3,1e-4",
        "compare --L 16 --filling 1/4 --targets 1e-3,1e-4",
        "fuse --L-final 16 --L-base 2 --filling 1/2 --method hybrid --target 1e-3",
        "compare --L 4",
        "converge --L 8 --m-max 3",
        "fuse --L-final 8 --method adiabatic",
        "compare --L 8 --filling 1/4 --targets 1e-2,1e-3,1e-5 --step-tol 1e-5",
        "compare --L 4 --step-tol auto",
        "compare --L 4 --J -0.5",
        "fuse --L-final 8 --J -0.5",
        "converge --L 8 --method rodeo --m-max 3 --J 0.3",
        "scan --L 14 --n-up 6 --initial product --e-min -9 --e-max 9 --points 81 "
        "--depth 8 --superiterations 2",
        "scan --L 4 --initial product",
        # a configuration state is not even under reflection: the full-sector Krylov scan
        "scan --L 12 --n-up 6 --initial config:111111000000 --points 5",
        # a free-fermion ground, filled when the scan first reads it
        "scan --L 14 --n-up 6 --initial ground --points 5",
        # the same with a negative J, which pins the signs of the orbitals
        "scan --L 14 --n-up 6 --initial ground --points 5 --J -0.5",
        "gap --L 22 --filling 1/2",
        # odd L: the lowest empty level, which E1 fills, is the zero mode
        "gap --L 13 --n-up 6",
        "gap --L 14 --J -0.5",
        # dims 70 and 252: energies from the levels in small sectors too
        "gap --L 8 --filling 1/2",
        "gap --L 10 --J -0.5",
    ],
    # FAILED cells and levels
    1: [
        "compare --L 4 --t-cap 1 --targets 1e-3",
        "fuse --L-final 8 --method hybrid --max-superiterations 1 --target 1e-9",
        "fuse --L-final 8 --method adiabatic --t-cap 2 --target 1e-6",
        "fuse --L-final 16 --L-base 2 --method adiabatic --target 1e-3 --level-policy budget "
        "--t-cap 16",
        "fuse --L-final 64 --L-base 64",
        # the dimension cap, the one size refusal gap keeps: C(28, 14) > 2^24
        "gap --L 28",
    ],
    # configuration errors
    2: [
        "gap --L 4 --n-up 0",
        "scan --L 4 --n-up 1 --initial product",
        "converge --L 4 --filling 1/4",
        "fuse --L-final 8 --filling 1/3",
        "compare --L 4 --targets ,",
        "fuse --L-final 4 --method ramp",
        "converge --L 4 --method adiabatic",
        "scan --L 4 --initial config:1110",
    ],
}


def name_of(argv):
    """Directory name of one invocation, e.g. ``gap_L_4_n-up_0``."""
    return "_".join(a.removeprefix("--").replace("/", "of") for a in argv)


def capture(argv):
    """(stdout, stderr, exit code) of one in-process xxfusion run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = xxfusion_main(argv)
    return out.getvalue(), err.getvalue(), code


def settings():
    """``key=value`` lines of the settings that can move an output's last digits."""
    lines = [f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARIABLES]
    lines += [f"numpy={numpy.__version__}", f"scipy={scipy.__version__}"]
    return "".join(f"{line}\n" for line in lines)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("outdir", help="directory to write one subdirectory per invocation into")
    return p.parse_args()


def main():
    outdir = Path(parse_args().outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "settings").write_text(settings(), encoding="utf-8")
    unexpected = 0
    for expected, texts in INVOCATIONS.items():
        for text in texts:
            argv = text.split()
            stdout, stderr, code = capture(argv)
            run_dir = outdir / name_of(argv)
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "stdout").write_text(stdout, encoding="utf-8")
            (run_dir / "stderr").write_text(stderr, encoding="utf-8")
            (run_dir / "exit_code").write_text(f"{code}\n", encoding="utf-8")
            note = ""
            if code != expected:
                unexpected += 1
                note = f", expected {expected}"
            print(f"[golden_outputs] {text} (exit {code}{note})", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
