"""Output checks, run after the timed region, one per CLI command.

Each check reads its parameters from the invocation's own arguments and
compares the printed CSV against ``reference``: free-fermion energies
and ladder times, the closed-form rodeo filter, an ODE-integrated ramp,
and the cost formulas the methods define.  No stored copy of an earlier
output is consulted.  A check returns a list of problems; empty means
the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import reference

#: CLI defaults that the workloads do not override.
DEPTH, RATIO = 8, 0.5

METHOD_ORDER = ("adiabatic", "rodeo", "hybrid")


def _options(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def _parse_csv(text: str) -> tuple[list[str], list[dict]]:
    """Comment lines (without '# ') and data rows keyed by the header."""
    comments, lines = [], []
    for line in text.splitlines():
        (comments if line.startswith("#") else lines).append(line)
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return [c[2:] for c in comments], rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_costs(row: dict, label: str, gap: float, problems: list) -> int:
    """Checks every route shares: status, target, J*kappa formula, and t_R
    a whole number of ladders.  Returns that number of superiterations."""
    target = float(row["target_infidelity"])
    achieved = float(row["achieved_infidelity"])
    t_A, t_R, p = float(row["t_A"]), float(row["t_R"]), float(row["p"])
    if row["status"] != "OK":
        problems.append(f"{label}: status {row['status']}")
    if not achieved <= target:
        problems.append(f"{label}: achieved {achieved:.6g} above target {target:.6g}")
    kappa = {"adiabatic": t_A, "rodeo": t_R / p, "hybrid": (t_A + t_R) / p}[row["method"]]
    if not _close(float(row["J_kappa"]), kappa, 1e-9):
        problems.append(f"{label}: J_kappa {row['J_kappa']} is not the cost formula ({kappa:.12g})")
    ladders = t_R / reference.cycle_times(gap, DEPTH, RATIO, 1).sum()
    M = round(ladders)
    if abs(ladders - M) > 1e-8:
        problems.append(f"{label}: t_R {t_R} is {ladders:.10g} ladder times, not a whole number")
    return M


def check_compare(argv, text: str) -> list[str]:
    opts = _options(argv)
    L, filling = int(opts["--L"]), Fraction(opts["--filling"])
    targets = sorted((float(t) for t in opts["--targets"].split(",")), reverse=True)
    step_tol = min(1e-4, min(targets) / 10.0)
    n_up = int(filling * L)
    _, gap = reference.free_fermion_pair(L, n_up)
    chain = reference.Chain(L, n_up)
    product = chain.half_product()

    def filtered(M):
        return chain.rodeo(product, chain.E[0], reference.cycle_times(gap, DEPTH, RATIO, M))

    problems = []
    _, rows = _parse_csv(text)
    expected = [(m, t) for m in METHOD_ORDER for t in targets]
    got = [(r["method"], float(r["target_infidelity"])) for r in rows]
    if got != expected:
        return [f"compare L={L}: rows {got}, expected {expected}"]
    ramp_cache = {}
    for row in rows:
        label = f"compare L={L} {row['method']} target={row['target_infidelity']}"
        M = _check_costs(row, label, gap, problems)
        achieved = float(row["achieved_infidelity"])
        if row["method"] == "adiabatic":
            T_A = float(row["t_A"])
            if T_A not in ramp_cache:
                ramp_cache[T_A] = chain.ramp_infidelity(product, T_A)
            if abs(achieved - ramp_cache[T_A]) > step_tol:
                problems.append(
                    f"{label}: infidelity {achieved:.6g} vs ODE ramp {ramp_cache[T_A]:.6g} "
                    f"at t_A={T_A:g}, beyond step tolerance {step_tol:g}"
                )
        elif row["method"] == "rodeo":
            p, fid = filtered(M)
            if not (_close(float(row["p"]), p, 1e-8) and _close(achieved, fid, 1e-8)):
                problems.append(
                    f"{label}: (p, infidelity) = ({row['p']}, {row['achieved_infidelity']}) "
                    f"vs closed form ({p:.12g}, {fid:.12g}) after {M} superiterations"
                )
            if M >= 1:
                _, before = filtered(M - 1)
                if before <= float(row["target_infidelity"]):
                    problems.append(f"{label}: target already met after {M - 1} superiterations")
    return problems


def check_fuse(argv, text: str) -> list[str]:
    opts = _options(argv)
    L_base, L_final = int(opts["--L-base"]), int(opts["--L-final"])
    filling = Fraction(opts["--filling"])
    comments, rows = _parse_csv(text)
    problems = []
    levels = [int(r["L"]) for r in rows]
    expected = [L_base * 2**k for k in range(1, int(math.log2(L_final // L_base)) + 1)]
    if levels != expected:
        return [f"fuse: levels {levels}, expected {expected}"]
    for row in rows:
        L = int(row["L"])
        if row["method"] != opts["--method"]:
            problems.append(f"fuse L={L}: method {row['method']}")
        _, gap = reference.free_fermion_pair(L, int(filling * L))
        _check_costs(row, f"fuse L={L}", gap, problems)
    trailer = dict(c.split(" = ") for c in comments[1:])
    total = sum(float(r["J_kappa"]) for r in rows)
    if not _close(float(trailer.get("cumulative_J_kappa", "nan")), total, 1e-9):
        problems.append(f"fuse: cumulative_J_kappa {trailer.get('cumulative_J_kappa')} != {total:.12g}")
    if trailer.get("final_infidelity") != rows[-1]["achieved_infidelity"]:
        problems.append(f"fuse: final_infidelity {trailer.get('final_infidelity')} is not the last row's")
    return problems


def check_scan(argv, text: str) -> list[str]:
    opts = _options(argv)
    L, n_up = int(opts["--L"]), int(opts["--n-up"])
    depth, M = int(opts["--depth"]), int(opts["--superiterations"])
    grid = np.linspace(float(opts["--e-min"]), float(opts["--e-max"]), int(opts["--points"]))
    _, gap = reference.free_fermion_pair(L, n_up)
    chain = reference.Chain(L, n_up)
    product = chain.half_product()
    times = reference.cycle_times(gap, depth, RATIO, M)
    _, rows = _parse_csv(text)
    if len(rows) != grid.size:
        return [f"scan: {len(rows)} rows for {grid.size} grid points"]
    problems = []
    for row, E_t in zip(rows, grid):
        if row["status"] != "OK" or not _close(float(row["E_t"]), E_t, 1e-11):
            problems.append(f"scan: row {row} does not sit on grid point {E_t:.12g}")
            continue
        p, _ = chain.rodeo(product, E_t, times)
        if not _close(float(row["p_total"]), p, 1e-8):
            problems.append(f"scan E_t={row['E_t']}: p_total {row['p_total']} vs closed form {p:.12g}")
    return problems


def check_gap(argv, text: str) -> list[str]:
    opts = _options(argv)
    L = int(opts["--L"])
    n_up = int(Fraction(opts["--filling"]) * L)
    E0, gap = reference.free_fermion_pair(L, n_up)
    expected = {"E0": E0, "E1": E0 + gap, "gap": gap, "t1": math.pi / gap}
    got = dict(line.split(" = ") for line in text.splitlines())
    problems = []
    for key, value in expected.items():
        if key not in got:
            problems.append(f"gap: {key} missing")
        elif abs(float(got[key]) - value) > 1e-9 * max(1.0, abs(value)):
            problems.append(f"gap: {key} = {got[key]}, free fermions give {value:.12g}")
    return problems


CHECKS = {"compare": check_compare, "fuse": check_fuse, "scan": check_scan, "gap": check_gap}


def check_output(argv, text: str) -> list[str]:
    """Problems found in one invocation's output; empty when correct."""
    try:
        return CHECKS[argv[0]](argv, text)
    except (KeyError, ValueError, IndexError) as err:
        return [f"{' '.join(argv)}: output unreadable ({type(err).__name__}: {err})"]
