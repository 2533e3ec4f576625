"""Run one round of a workload's invocations in this process; report JSON.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path and
the BLAS thread count fixed.  A round is every invocation of the
workload, in order, after ``import xxfusion.cli``.  Each round gets a
process of its own, so every round starts from the same state a user's
process does: the first call into the package pays its first-touch
memory and lazy set-up, as every CLI call pays them.  With ``--trace 1``
the round runs under the tracer and the report carries its spans'
summary.  The last line of standard output is the JSON report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, summarize
from workloads import WORKLOADS


def run_round(cli, invocations, tracer=None) -> dict:
    """One pass over the invocations, stdout captured; returns wall time,
    each invocation's exit code (or exception) and its output."""
    codes, outputs = [], []
    start = time.perf_counter()
    for i, argv in enumerate(invocations):
        if tracer is not None:
            tracer.invocation = i
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(list(argv))
            except SystemExit as err:
                code = err.code
            except Exception as err:  # the run continues; the failure is counted
                traceback.print_exc()
                code = f"{type(err).__name__}: {err}"
        codes.append(code)
        outputs.append(buf.getvalue())
    return {"wall_s": time.perf_counter() - start, "codes": codes, "outputs": outputs}


def traced_problems(workload, tracer: Tracer, layers: dict) -> list[str]:
    """Ways the traced run failed to observe what the workload must call."""
    called = {s.name for s in tracer.spans}
    problems = [f"traced run saw no call to {name}" for name in workload.required
                if name not in called]
    dims = {s.attrs["dim"] for s in tracer.spans
            if s.name == "propagate.adiabatic_ramp" and s.attrs}
    problems += [f"traced run saw no ramp at dim {d}" for d in workload.ramp_dims
                 if d not in dims]
    if layers["trace.coverage"] < 0.9:
        problems.append(f"spans cover {layers['trace.coverage']:.1%} of the traced wall time")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    root = Path.cwd().resolve()

    import xxfusion.cli as cli

    if root / "src" not in Path(cli.__file__).resolve().parents:
        print(f"xxfusion was imported from {cli.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 1

    report = {"layers": None, "problems": []}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            report["round"] = run_round(cli, workload.invocations, tracer)
        finally:
            tracer.uninstall()
        report["layers"] = summarize(tracer.spans, report["round"]["wall_s"])
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload.name}.json")
        report["problems"] = traced_problems(workload, tracer, report["layers"])
    else:
        report["round"] = run_round(cli, workload.invocations)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
