"""Benchmark of the xxfusion command line, measured from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fusion-costs|energy-scan|large-sector|all
                             [--seed N] [--seconds S] [--trace 0|1]

For each workload it times ``import xxfusion.cli`` in fresh interpreters
(``setup_s``), runs rounds of the workload's CLI invocations through
``xxfusion.cli.main``, each round in a worker process of its own
(``wall_s``, ``peak_rss_mb``: medians over the rounds), then checks
every captured output against independent references.  With ``--trace 1``
it runs one untraced and one traced round and reports per-layer metrics
instead.  Each metric is
printed by name and unit; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The inputs are
fixed by the workloads, so ``--seed`` does not change them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_output
from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: Every process that runs the program gets exactly one BLAS thread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5

#: A run must end within this many seconds of its start.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The workload could not be run at all; no result is printed."""


def program_env(root: Path) -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def time_setup(root: Path, env: dict, deadline: float) -> float:
    """Median wall time of a fresh interpreter running ``import xxfusion.cli``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import xxfusion.cli"], cwd=root, env=env,
            capture_output=True, text=True, timeout=deadline - time.monotonic(),
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"import xxfusion.cli failed:\n{proc.stderr}")
    return statistics.median(samples)


def run_worker(root: Path, env: dict, name: str, trace: int, deadline: float) -> dict:
    """One round of the workload in a fresh worker process; its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=deadline - time.monotonic())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker for {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_rounds(root: Path, env: dict, name: str, seconds: int, deadline: float) -> list[dict]:
    """Untraced worker reports, as many as fit in ``seconds`` judged by the
    longest worker so far, and at least one."""
    reports, start, longest = [], time.perf_counter(), 0.0
    while not reports or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        reports.append(run_worker(root, env, name, 0, deadline))
        longest = max(longest, time.perf_counter() - began)
    return reports


def check_rounds(workload, rounds) -> list[str]:
    """Check the first successful output of every invocation against the
    references, and every repeat of it for byte identity."""
    problems = []
    for i, argv in enumerate(workload.invocations):
        texts = [r["outputs"][i] for r in rounds if r["codes"][i] == 0]
        if not texts:
            continue
        problems += check_output(argv, texts[0])
        if any(t != texts[0] for t in texts[1:]):
            problems.append(f"{' '.join(argv)}: output differs between rounds")
    return problems


def run_workload(root: Path, name: str, seconds: int, trace: int, deadline: float) -> dict:
    workload = WORKLOADS[name]
    env = program_env(root)
    if trace:
        reports = [run_worker(root, env, name, t, deadline) for t in (0, 1)]
    else:
        setup_s = time_setup(root, env, deadline)
        reports = run_rounds(root, env, name, seconds, deadline)
    rounds = [r["round"] for r in reports]
    problems = [p for r in reports for p in r["problems"]] + check_rounds(workload, rounds)
    failed = sum(code != 0 for r in rounds for code in r["codes"])
    if trace:
        layers = dict(reports[1]["layers"])
        layers["trace.overhead_s"] = rounds[1]["wall_s"] - rounds[0]["wall_s"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(rounds) * len(workload.invocations),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="accepted; the inputs are fixed")
    parser.add_argument("--seconds", type=int, default=30,
                        help="untraced runs repeat whole rounds while they fit in this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "xxfusion" / "cli.py").is_file():
        print(f"no xxfusion sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(root, name, args.seconds, args.trace, deadline)
            print(f"{name}: attempted {result['attempted']} invocations, "
                  f"failed {result['failed']}, outputs "
                  f"{'correct' if result['correct'] else 'WRONG'}")
            for metric, m in result["metrics"].items():
                print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
            prefix = f"{name}." if len(names) > 1 else ""
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({prefix + k: m for k, m in result["metrics"].items()})
    except (BenchmarkError, subprocess.TimeoutExpired) as err:
        print(f"benchmark could not run: {err}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
