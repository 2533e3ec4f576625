"""The benchmark's trace contract, on small versions of its workloads.

``perfbench/`` runs each workload once more under its tracer, and refuses
the run when a function the workload requires is never called, when a
hook of ``tracing.ATTRS`` cannot read its arguments, or when the traced
round prints other bytes than the untraced one.  These tests run a small
version of each workload's commands the same way, so a change that
renames, drops or re-signs a traced function fails here first.  The
benchmark's modules are imported, never changed.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import xxfusion.cli as cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import ATTRS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Each workload's commands at sizes that run in about a second.
SMALL = {
    "fusion-costs": (
        "compare --L 4 --targets 1e-2",
        "fuse --L-final 8 --L-base 2 --method hybrid --target 1e-2",
    ),
    "energy-scan": (
        "scan --L 10 --n-up 4 --initial product --e-min -3 --e-max 3 --points 3 "
        "--depth 8 --superiterations 2",
    ),
    "large-sector": ("gap --L 12",),
}


def run_round(invocations):
    """(exit code, stdout) of each invocation through ``cli.main``."""
    out = []
    for argv in invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv.split())
        out.append((code, buf.getvalue()))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_sees_every_required_call_and_prints_the_same(name):
    untraced = run_round(SMALL[name])
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(SMALL[name])
    finally:
        tracer.uninstall()
    assert [code for code, _ in untraced] == [0] * len(SMALL[name])
    assert traced == untraced
    called = {s.name for s in tracer.spans}
    assert [f for f in WORKLOADS[name].required if f not in called] == []
    hooked = [s for s in tracer.spans if s.name in ATTRS]
    assert all(s.attrs is not None for s in hooked)
