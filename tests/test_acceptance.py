"""Acceptance gate: eleven checks, one printed verdict line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Checks 6 and 9 encode the paper's cost-ordering claims; at the exactly
solvable sizes tested here they are not met, and their verdict lines
report the measured margins rather than hiding them.  For the linear
ramp the margins do not close with L (ROADMAP item 2).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import oracles
import xxfusion.propagate as propagate
from xxfusion import (
    BondCouplings,
    RampContext,
    StateVector,
    build_hamiltonian,
    embed_product,
    energy_scan,
    enumerate_sector,
    expmv,
    infidelity,
    lowest_two,
    make_schedule,
    middle_bond,
    ramp_time_for_infidelity,
    rodeo_cycle,
)
from xxfusion.cli import main as cli_main
from xxfusion.fusion import FusionConfig, FusionStep, compare_methods


def verdict(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def uniform_chain(L, n, J=1.0):
    basis = enumerate_sector(L, n)
    return basis, build_hamiltonian(basis, BondCouplings.uniform(L, J))


def fused_product(L, n):
    """Product of two exact half grounds, embedded in the (L, n) sector."""
    basis, _ = uniform_chain(L, n)
    _, Hh = uniform_chain(L // 2, n // 2)
    g = lowest_two(Hh).ground
    return embed_product(g, g, basis=basis), basis


def test_01_cycle_equals_ancilla_circuit():
    """50 random triples: direct cycle vs the explicit two-register circuit."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0xACC)
    worst = 0.0
    cases = [(2, 1)] * 25 + [(3, 1)] * 13 + [(3, 2)] * 12
    for L, n in cases:
        basis, H = uniform_chain(L, n)
        amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v = StateVector(basis, amps / np.linalg.norm(amps))
        t = rng.uniform(0.05, 12.0)
        E_t = rng.uniform(-3.0, 3.0)
        direct, p_direct = rodeo_cycle(v, H, E_t, t)
        circuit, p_circuit = oracles.ancilla_circuit_cycle(v, H, E_t, t)
        worst = max(worst, abs(p_direct - p_circuit),
                    float(np.linalg.norm(direct.amps - circuit.amps)))
    elapsed = time.monotonic() - t0
    verdict(1, worst < 1e-10 and elapsed < 10.0,
            f"max deviation {worst:.3e} over 50 triples (tol 1e-10), {elapsed:.1f}s")


def test_02_ground_energies_match_free_fermion_oracle():
    """Every sector of every L <= 12 against the analytic band filling."""
    t0 = time.monotonic()
    worst = 0.0
    sectors = 0
    for L in range(1, 13):
        for n in range(L + 1):
            oracle = oracles.sector_ground_energy(L, n)
            if math.comb(L, n) < 2:
                # trivial sector: no hops survive, the energy is zero
                err = abs(oracle - 0.0)
            else:
                basis, H = uniform_chain(L, n)
                err = abs(lowest_two(H).E0 - oracle)
            worst = max(worst, err)
            sectors += 1
    elapsed = time.monotonic() - t0
    verdict(2, worst < 1e-9 and elapsed < 60.0,
            f"max |E0 - oracle| {worst:.3e} over {sectors} sectors (tol 1e-9), "
            f"{elapsed:.1f}s")


def test_03_spectral_weight_constant_over_24_cycles():
    """With E_t = E0 the unnormalized ground amplitude never moves."""
    worst = 0.0
    for L in (4, 8):
        basis, H = uniform_chain(L, L // 2)
        pair = lowest_two(H)
        rng = np.random.default_rng(L)
        amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        state = StateVector(basis, amps / np.linalg.norm(amps))
        reference = oracles.overlap(state, pair.ground)
        times = make_schedule(pair.gap, depth=8, superiterations=3)
        running = 1.0
        for t_j in times:
            state, p = rodeo_cycle(state, H, pair.E0, float(t_j))
            running *= p
            drift = abs(math.sqrt(running) * oracles.overlap(state, pair.ground)
                        - reference)
            worst = max(worst, drift)
    verdict(3, worst < 1e-12,
            f"max weight drift {worst:.3e} across 24 cycles at L=4,8 (tol 1e-12)")


def test_04_single_cycle_annihilates_first_excited():
    """E1 eigenstate, E_t = E0, t = pi/gap: the cosine filter has a zero."""
    worst = 0.0
    for L in (4, 8):
        basis, H = uniform_chain(L, L // 2)
        pair = lowest_two(H)
        w, U = H.dense_eig
        e1 = StateVector(basis, U[:, 1].astype(np.complex128))
        _, p = rodeo_cycle(e1, H, pair.E0, math.pi / pair.gap)
        worst = max(worst, p)
    verdict(4, worst < 1e-20,
            f"max conditioned probability {worst:.3e} at L=4,8 (tol 1e-20)")


def test_05_superiteration_convergence_is_geometric():
    """L=8 hybrid: log-infidelity falls linearly, factor <= 0.5 per sweep."""
    t0 = time.monotonic()
    step = FusionStep.exact_halves(8, Fraction(1, 2), FusionConfig())
    start, _, _ = step.start("hybrid")
    sweep = step.sweep(start)
    next(sweep)  # M = 0 is the preconditioned start
    fids = []
    for m, _, fid, _, _ in sweep:
        fids.append(fid)
        if m >= 4:
            break
    ms = np.arange(1, 5)
    logs = np.log10(fids)
    slope, intercept = np.polyfit(ms, logs, 1)
    residual = float(np.max(np.abs(slope * ms + intercept - logs)))
    factors = [fids[i + 1] / fids[i] for i in range(3)]
    elapsed = time.monotonic() - t0
    ok = slope < 0 and max(factors) <= 0.5 and residual < 0.5 and elapsed < 300.0
    verdict(5, ok,
            f"slope {slope:.2f} decades/sweep, max factor {max(factors):.2e} "
            f"(<= 0.5), fit residual {residual:.2f} (< 0.5), {elapsed:.1f}s")


def test_06_high_precision_cost_ordering():
    """kappa_A > 5 kappa_H and kappa_R >= kappa_H on the L=8,16 grid."""
    t0 = time.monotonic()
    targets = (1e-3, 1e-4)
    lines = []
    ok = True
    for L in (8, 16):
        for filling in (Fraction(1, 2), Fraction(1, 4)):
            rows = compare_methods(L, filling, targets)
            kappa = {(r.method, r.target_infidelity): r.J_kappa for r in rows}
            for target in targets:
                kA = kappa[("adiabatic", target)]
                kR = kappa[("rodeo", target)]
                kH = kappa[("hybrid", target)]
                clause_a = kA > 5.0 * kH
                clause_b = kR >= kH
                ok = ok and clause_a and clause_b
                lines.append(
                    f"L={L} f={filling} target={target:g}: "
                    f"kA={kA:.2f} kR={kR:.2f} kH={kH:.2f} "
                    f"[kA>5kH {'ok' if clause_a else 'NO'}, "
                    f"kR>=kH {'ok' if clause_b else 'NO'}]"
                )
    elapsed = time.monotonic() - t0
    detail = f"{elapsed:.0f}s; " + "; ".join(lines)
    verdict(6, ok and elapsed < 1800.0, detail)


def test_07_raw_product_fidelity_is_modest():
    """The unfused product already overlaps the fused ground substantially."""
    cells = []
    for L, n in [(4, 2), (8, 4), (12, 6), (16, 8), (8, 2), (16, 4)]:
        prod, basis = fused_product(L, n)
        _, H = uniform_chain(L, n)
        fidelity = 1.0 - infidelity(prod.normalized(), lowest_two(H).ground)
        cells.append((L, n, fidelity))
    worst = min(f for _, _, f in cells)
    verdict(7, worst >= 0.1,
            "min fidelity {:.3f} over L=4..16 at half and quarter filling "
            "(>= 0.1)".format(worst))


def test_08_propagator_matches_dense_exponential(monkeypatch):
    """100 random sectors/couplings/times against scipy's expm."""
    rng = np.random.default_rng(0xE59)
    shapes = [(5, 2), (6, 3), (7, 3), (8, 2), (10, 2)]
    worst = 0.0
    worst_unitary = 0.0
    worst_compose = 0.0
    for i in range(100):
        L, n = shapes[i % len(shapes)]
        basis = enumerate_sector(L, n)
        H = build_hamiltonian(basis, BondCouplings(rng.uniform(-2.0, 2.0, L - 1)))
        amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        v = StateVector(basis, amps / np.linalg.norm(amps))
        t = rng.uniform(-8.0, 8.0)
        ref = scipy.linalg.expm(-1j * t * H.matrix.toarray()) @ v.amps
        # every sector here is below the dense cutoff; a cutoff of 0 forces Krylov
        for cutoff in (propagate.DENSE_CUTOFF, 0):
            with monkeypatch.context() as m:
                m.setattr(propagate, "DENSE_CUTOFF", cutoff)
                out = expmv(H, t, v, tol=1e-10)
            worst = max(worst, float(np.linalg.norm(out.amps - ref)))
            worst_unitary = max(worst_unitary, abs(out.norm() - 1.0))
        half = expmv(H, t / 2.0, expmv(H, t / 2.0, v, tol=1e-10), tol=1e-10)
        full = expmv(H, t, v, tol=1e-10)
        worst_compose = max(worst_compose, float(np.linalg.norm(half.amps - full.amps)))
    ok = worst < 1e-10 and worst_unitary < 1e-9 and worst_compose < 1e-9
    verdict(8, ok,
            f"max |expmv - expm| {worst:.3e} (tol 1e-10), unitarity "
            f"{worst_unitary:.3e}, composition {worst_compose:.3e} (10*tol)")


def test_09_adiabatic_cost_spike():
    """T_A for 1e-3 must exceed four times the T_A for 1e-2 (L=8, half)."""
    t0 = time.monotonic()
    basis, H = uniform_chain(8, 4)
    base = BondCouplings.uniform(8).with_bond(middle_bond(8), 0.0)
    prod, _ = fused_product(8, 4)
    v0, ground = prod.normalized(), lowest_two(H).ground
    contexts = {b: RampContext(basis, base, 1.0, v0, ground, bisections=b) for b in (3, 0)}
    found = {}
    for target in (1e-2, 1e-3):
        for bisections, ctx in contexts.items():
            res = ramp_time_for_infidelity(target, ctx, step_tol=min(1e-4, target / 10.0))
            found[(target, bisections)] = res.T_A
    ratio = found[(1e-3, 3)] / found[(1e-2, 3)]
    ratio_grid = found[(1e-3, 0)] / found[(1e-2, 0)]
    elapsed = time.monotonic() - t0
    verdict(9, found[(1e-3, 3)] > 4.0 * found[(1e-2, 3)],
            f"T_A(1e-2)={found[(1e-2, 3)]:g}, T_A(1e-3)={found[(1e-3, 3)]:g}, "
            f"ratio {ratio:.2f} refined / {ratio_grid:.2f} on the doubling grid "
            f"(required > 4), {elapsed:.0f}s")


def test_10_energy_scan_peaks_and_transparency():
    """L=2 scan peaks at +-J; an exact eigenstate input passes untouched."""
    basis, H = uniform_chain(2, 1)
    pair = lowest_two(H)
    times = make_schedule(pair.gap, depth=3, superiterations=2)
    grid = np.linspace(-2.0, 2.0, 81)
    spacing = grid[1] - grid[0]
    neel = StateVector(basis, np.array([1.0, 0.0]))
    ps = np.array([p for _, p in energy_scan(neel, H, grid, times)])
    left_peak = grid[:41][np.argmax(ps[:41])]
    right_peak = grid[41:][np.argmax(ps[41:])]
    peaks_ok = abs(left_peak + 1.0) <= spacing and abs(right_peak - 1.0) <= spacing
    transparent = dict(energy_scan(pair.ground, H, np.array([pair.E0]), times))
    p_eigen = transparent[pair.E0]
    verdict(10, peaks_ok and abs(p_eigen - 1.0) < 1e-12,
            f"peaks at {left_peak:+.2f}, {right_peak:+.2f} (grid spacing "
            f"{spacing:.3f}), eigenstate p_total deviation {abs(p_eigen - 1.0):.1e}")


def test_11_compare_output_is_reproducible(tmp_path):
    """The same configuration writes byte-identical CSV twice."""
    out = tmp_path / "compare.csv"
    argv = ["compare", "--L", "4", "--targets", "1e-3,1e-4", "--output", str(out)]
    assert cli_main(argv) == 0
    first = out.read_bytes()
    assert cli_main(argv) == 0
    identical = out.read_bytes() == first
    verdict(11, identical, f"two runs, {len(first)} bytes, identical={identical}")
