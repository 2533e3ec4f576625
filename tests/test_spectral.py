"""Eigensolver routes, the free-fermion oracle, and overlap measures."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import xxfusion.spectral as spectral
from xxfusion import (
    BondCouplings,
    DegenerateGapError,
    LanczosConvergenceError,
    SimulationError,
    StateVector,
    apply_hamiltonian,
    build_hamiltonian,
    enumerate_sector,
    free_fermion_energies,
    infidelity,
    lowest_two,
    sector_ground_energy_oracle,
    spectral_weight,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def uniform_chain(L, n, J=1.0):
    return build_hamiltonian(enumerate_sector(L, n), BondCouplings.uniform(L, J))


# -------------------------------------------------------- free fermions


def test_free_fermion_energies_L4():
    # 2 cos(k pi / 5) lands on the golden ratio: phi, phi - 1, and mirrors
    e = free_fermion_energies(4, 1.0)
    assert np.allclose(sorted(e), [-PHI, -(PHI - 1.0), PHI - 1.0, PHI], atol=1e-14)


def test_free_fermion_energies_match_plain_loop():
    for L in range(1, 13):
        assert np.allclose(
            sorted(free_fermion_energies(L, 0.8)),
            sorted(oracles.single_particle_energies(L, 0.8)),
            atol=1e-13,
        )


def test_sector_ground_energy_oracle_values():
    assert sector_ground_energy_oracle(4, 2) == pytest.approx(-math.sqrt(5.0), abs=1e-12)
    assert sector_ground_energy_oracle(4, 0) == 0.0
    # filled and empty sectors both cost nothing: the band sums to zero
    assert sector_ground_energy_oracle(9, 9) == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_dense_diagonalization_small():
    for L in range(2, 9):
        for n in range(1, L):
            _, dense = oracles.dense_hamiltonian(L, n, 1.0)
            E0 = float(np.linalg.eigvalsh(dense)[0])
            assert sector_ground_energy_oracle(L, n) == pytest.approx(E0, abs=1e-10)


# ----------------------------------------------------------- lowest_two


def test_lowest_two_L4_golden():
    pair = lowest_two(uniform_chain(4, 2))
    assert pair.E0 == pytest.approx(-math.sqrt(5.0), abs=1e-12)
    assert pair.E1 == pytest.approx(-1.0, abs=1e-12)
    assert pair.gap == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-12)


def test_lowest_two_L16_lanczos_golden():
    # dim 12870 forces the iterative path
    H = uniform_chain(16, 8)
    pair = lowest_two(H)
    assert pair.E0 == pytest.approx(-9.837951447459409, abs=1e-9)
    assert pair.gap == pytest.approx(0.36907343785319924, abs=1e-9)
    g = pair.ground.amps.real
    assert np.linalg.norm(H.matrix @ g - pair.E0 * g) <= 1e-12


def test_lowest_two_routes_agree():
    # every sector with L <= 12 that both routes can solve (dim >= 3);
    # largest amplitudes often tie with opposite signs, and both routes
    # must still return the same ground, sign included
    sectors = [
        (L, n) for L in range(2, 13) for n in range(1, L) if math.comb(L, n) >= 3
    ]
    assert len(sectors) == 65
    for L, n in sectors:
        H = uniform_chain(L, n)
        dense = lowest_two(H, force_method="dense")
        lanczos = lowest_two(H, force_method="lanczos")
        assert lanczos.E0 == pytest.approx(dense.E0, abs=1e-10)
        assert lanczos.E1 == pytest.approx(dense.E1, abs=1e-10)
        # elementwise 1e-8 at dim <= 924 also bounds 1 - overlap by 5e-14
        assert np.max(np.abs(dense.ground.amps - lanczos.ground.amps)) <= 1e-8, (L, n)


def test_lowest_two_ground_properties():
    for force in ("dense", "lanczos"):
        pair = lowest_two(uniform_chain(8, 4), force_method=force)
        g = pair.ground
        assert g.norm() == pytest.approx(1.0, abs=1e-12)
        residual = apply_hamiltonian(
            build_hamiltonian(g.basis, BondCouplings.uniform(8)), g
        ).amps - pair.E0 * g.amps
        assert np.linalg.norm(residual) <= 1e-9 * 2.0 * math.sqrt(g.basis.dim)
        # phase convention: the largest amplitude is real positive
        k = int(np.argmax(np.abs(g.amps)))
        assert g.amps[k].real > 0 and abs(g.amps[k].imag) < 1e-14


def test_lowest_two_gap_for_every_small_sector():
    # L = 11..13 reaches sectors above DENSE_CUTOFF, the iterative route
    for L in range(2, 14):
        for n in range(1, L):
            if math.comb(L, n) < 2:
                continue
            pair = lowest_two(uniform_chain(L, n))
            assert pair.E0 <= pair.E1
            assert pair.E0 == pytest.approx(
                sector_ground_energy_oracle(L, n), abs=1e-9
            )


def test_lowest_two_degenerate_and_trivial_errors():
    with pytest.raises(DegenerateGapError):
        lowest_two(build_hamiltonian(enumerate_sector(2, 1), BondCouplings(np.zeros(1))))
    with pytest.raises(ValueError):
        lowest_two(uniform_chain(2, 0))  # dim 1, no excited state
    with pytest.raises(ValueError):
        lowest_two(uniform_chain(4, 2), force_method="qr")
    with pytest.raises(ValueError):
        lowest_two(uniform_chain(2, 1), force_method="lanczos")  # ARPACK needs dim > 2


def test_lowest_two_lanczos_budget_failure_is_typed(monkeypatch):
    # a one-iteration ARPACK budget cannot converge two pairs at this size
    monkeypatch.setattr(spectral, "eigsh", functools.partial(spectral.eigsh, maxiter=1))
    H = uniform_chain(12, 6)  # dim 924, above the dense cutoff
    with pytest.raises(LanczosConvergenceError, match="did not converge") as info:
        lowest_two(H)
    assert isinstance(info.value, SimulationError)


# ------------------------------------------------------------- overlaps


def test_infidelity_endpoints():
    pair = lowest_two(uniform_chain(4, 2))
    assert infidelity(pair.ground, pair.ground) == pytest.approx(0.0, abs=1e-12)
    basis = pair.ground.basis
    e0 = pair.ground
    w, U = uniform_chain(4, 2).dense_eig()
    e1 = StateVector(basis, U[:, 1])
    assert infidelity(e1, e0) == pytest.approx(1.0, abs=1e-12)


def test_infidelity_requires_normalized_states():
    basis = enumerate_sector(4, 2)
    v = StateVector(basis, np.full(6, 0.5))  # norm sqrt(1.5)
    g = lowest_two(uniform_chain(4, 2)).ground
    with pytest.raises(ValueError):
        infidelity(v, g)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0 * math.pi))
@settings(deadline=None, max_examples=50)
def test_infidelity_phase_invariant_and_bounded(seed, phase):
    basis = enumerate_sector(4, 2)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = StateVector(basis, amps / np.linalg.norm(amps))
    g = lowest_two(uniform_chain(4, 2)).ground
    base = infidelity(v, g)
    assert 0.0 <= base <= 1.0
    rotated = StateVector(basis, np.exp(1j * phase) * v.amps)
    assert infidelity(rotated, g) == pytest.approx(base, abs=1e-12)
    assert infidelity(v, StateVector(basis, np.exp(1j * phase) * g.amps)) == pytest.approx(
        base, abs=1e-12
    )


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0))
@settings(deadline=None, max_examples=50)
def test_spectral_weight_scales_linearly(seed, c):
    basis = enumerate_sector(4, 2)
    rng = np.random.default_rng(seed)
    v = StateVector(basis, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    g = lowest_two(uniform_chain(4, 2)).ground
    assert spectral_weight(StateVector(basis, c * v.amps), g) == pytest.approx(
        c * spectral_weight(v, g), rel=1e-12
    )
    # weight^2 + infidelity = 1 for normalized inputs
    vn = v.normalized()
    assert spectral_weight(vn, g) ** 2 + infidelity(vn, g) == pytest.approx(1.0, abs=1e-12)


def test_embedded_product_overlap_goldens():
    from xxfusion import embed_product

    g2 = lowest_two(uniform_chain(2, 1)).ground
    prod = embed_product(g2, g2)
    g4 = lowest_two(uniform_chain(4, 2)).ground
    assert infidelity(prod, g4) == pytest.approx(0.1027864045000435, abs=1e-13)
    assert spectral_weight(prod, g4) == pytest.approx(0.9472135954999572, abs=1e-13)
    assert spectral_weight(StateVector(prod.basis, np.zeros(6)), g4) == 0.0
