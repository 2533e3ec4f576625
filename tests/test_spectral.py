"""The free-fermion lowest pair, checked against a dense eigh and closed-form
energies, and overlap measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import xxfusion.cli as cli
import xxfusion.spectral as spectral
from xxfusion import (
    BondCouplings,
    DegenerateGapError,
    StateVector,
    basis_state,
    build_hamiltonian,
    embed_product,
    enumerate_sector,
    infidelity,
    lowest_two,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def uniform_chain(L, n, J=1.0):
    return build_hamiltonian(enumerate_sector(L, n), BondCouplings.uniform(L, J))


def live_bond_chain(L, n, bond):
    # one live bond: a dimer with levels +-1 among zero modes, so E0 = -1
    # and E1 = 0
    J = np.zeros(L - 1)
    J[bond] = 1.0
    return build_hamiltonian(enumerate_sector(L, n), BondCouplings(J))


# -------------------------------------------------------- free fermions


def one_particle_spectrum(L, J):
    """Sorted eigenvalues of the library's one-up-spin sector, which is the
    single-particle hopping matrix."""
    return np.linalg.eigvalsh(uniform_chain(L, 1, J).matrix.toarray())


def test_free_fermion_energies_L4():
    # 2 cos(k pi / 5) lands on the golden ratio: phi, phi - 1, and mirrors
    golden = [-PHI, -(PHI - 1.0), PHI - 1.0, PHI]
    assert np.allclose(sorted(oracles.single_particle_energies(4, 1.0)), golden, atol=1e-14)
    assert np.allclose(one_particle_spectrum(4, 1.0), golden, atol=1e-14)


def test_free_fermion_energies_match_plain_loop():
    for L in range(2, 13):
        assert np.allclose(
            one_particle_spectrum(L, 0.8),
            sorted(oracles.single_particle_energies(L, 0.8)),
            atol=1e-13,
        )


def test_sector_ground_energy_oracle_values():
    assert oracles.sector_ground_energy(4, 2) == pytest.approx(-math.sqrt(5.0), abs=1e-12)
    assert oracles.sector_ground_energy(4, 0) == 0.0
    # filled and empty sectors both cost nothing: the band sums to zero
    assert oracles.sector_ground_energy(9, 9) == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_dense_diagonalization_small():
    for L in range(2, 9):
        for n in range(1, L):
            _, dense = oracles.dense_hamiltonian(L, n, 1.0)
            E0 = float(np.linalg.eigvalsh(dense)[0])
            assert oracles.sector_ground_energy(L, n) == pytest.approx(E0, abs=1e-10)


# ----------------------------------------------------------- lowest_two


def test_lowest_two_L4_golden():
    pair = lowest_two(uniform_chain(4, 2))
    assert pair.E0 == pytest.approx(-math.sqrt(5.0), abs=1e-12)
    assert pair.E1 == pytest.approx(-1.0, abs=1e-12)
    assert pair.gap == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-12)


def test_lowest_two_L16_golden():
    H = uniform_chain(16, 8)
    pair = lowest_two(H)
    assert pair.E0 == pytest.approx(-9.837951447459409, abs=1e-9)
    assert pair.gap == pytest.approx(0.36907343785319924, abs=1e-9)
    g = pair.ground.amps.real
    assert np.linalg.norm(H.matrix @ g - pair.E0 * g) <= 1e-12


def assert_matches_dense(H, energy_tol, ground_tol):
    """lowest_two(H) against the oracle's dense eigh: both energies to
    ``energy_tol``, and the ground, sign included, elementwise to ``ground_tol``."""
    E0, E1, ground = oracles.dense_lowest_two(H)
    pair = lowest_two(H)
    where = (H.basis.L, H.basis.n_up)
    assert (pair.E0, pair.E1) == pytest.approx((E0, E1), abs=energy_tol), where
    assert np.max(np.abs(pair.ground.amps - ground)) <= ground_tol, where


def test_lowest_two_routes_agree():
    # every sector with L <= 12 and dim >= 3; largest amplitudes often tie
    # with opposite signs, and the ground must still match, sign included
    sectors = [(L, n) for L in range(2, 13) for n in range(1, L) if math.comb(L, n) >= 3]
    assert len(sectors) == 65
    for L, n in sectors:
        # elementwise 1e-8 at dim <= 924 also bounds 1 - overlap by 5e-14
        assert_matches_dense(uniform_chain(L, n), 1e-10, 1e-8)


def test_lowest_two_matches_eigh_on_uniform_sectors():
    # every uniform sector from dim 400 to dim 3432, L = 11 to 14
    sectors = [(L, n) for L in range(2, 15) for n in range(L + 1)
               if 400 <= math.comb(L, n) <= 3432]
    assert len(sectors) == 20
    for L, n in sectors:
        assert_matches_dense(uniform_chain(L, n), 1e-12, 1e-12)


@pytest.mark.parametrize("L, n, bonds", [(12, 6, (1, 8)), (14, 7, (1, 10))])
def test_two_identical_live_bonds_are_a_degenerate_gap(L, n, bonds):
    # each live bond is a dimer with levels +-1, and the other sites are
    # zero modes; the sector fills the zero modes partway, so E1 = E0
    J = np.zeros(L - 1)
    J[list(bonds)] = 1.0
    H = build_hamiltonian(enumerate_sector(L, n), BondCouplings(J))
    with pytest.raises(DegenerateGapError):
        lowest_two(H)


def random_couplings(L, seed):
    # magnitudes in [0.5, 1.5] with random signs; bond 1 and, from L = 8,
    # bond 5 cut exactly, leaving segments of even length (2, 4) before
    # the last, so no two zero modes make the ground degenerate
    rng = np.random.default_rng(seed)
    J = rng.uniform(0.5, 1.5, L - 1) * rng.choice([-1.0, 1.0], L - 1)
    J[[b for b in (1, 5) if b < L - 2]] = 0.0
    return BondCouplings(J)


def test_lowest_two_routes_agree_on_random_couplings():
    for L in range(4, 13):
        couplings = random_couplings(L, 1000 + L)
        for n in range(1, L):
            if math.comb(L, n) >= 3:
                assert_matches_dense(build_hamiltonian(enumerate_sector(L, n), couplings),
                                     1e-10, 1e-8)


ONE_LIVE_BOND_CASES = [(6, 1, 4), (10, 1, 4), (11, 10, 5), (12, 11, 6)]


@pytest.mark.parametrize("L, n, bond", ONE_LIVE_BOND_CASES)
def test_lowest_two_zero_singular_value(L, n, bond):
    H = live_bond_chain(L, n, bond)
    assert oracles.dense_lowest_two(H)[:2] == pytest.approx((-1.0, 0.0), abs=1e-12)
    pair = lowest_two(H)
    assert (pair.E0, pair.E1) == pytest.approx((-1.0, 0.0), abs=1e-12)
    assert_matches_dense(H, 1e-12, 1e-12)


@pytest.mark.parametrize("L, n, bond", ONE_LIVE_BOND_CASES)
def test_lanczos_route_repeats_bit_for_bit(L, n, bond):
    # most levels are zero modes, so the orbitals within them are an
    # arbitrary basis of their space; each run must still pick the same
    H = live_bond_chain(L, n, bond)
    pair = lowest_two(H)
    for _ in range(20):
        again = lowest_two(H)
        assert (again.E0, again.E1) == (pair.E0, pair.E1)
        assert np.array_equal(again.ground.amps, pair.ground.amps)


def counted_calls(monkeypatch, name):
    """A list that gains one entry per call of ``spectral.<name>``."""
    fn, calls = getattr(spectral, name), []

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(spectral, name, counted)
    return calls


def test_gap_fills_no_determinant(monkeypatch, capsys):
    # gap reads no ground: its energies come from the levels, so at dim
    # 3432 it fills no determinant
    fills = counted_calls(monkeypatch, "_slater_ground")
    assert cli.main(["gap", "--L", "14"]) == 0
    assert "gap = " in capsys.readouterr().out
    assert fills == []


def test_ground_is_summed_on_the_first_read_only(monkeypatch):
    fills = counted_calls(monkeypatch, "_slater_ground")
    pair = lowest_two(uniform_chain(14, 7))
    assert fills == []
    ground = pair.ground
    assert len(fills) == 1
    assert pair.ground is ground
    assert len(fills) == 1


def test_cut_chain_is_a_degenerate_gap():
    # the middle bond cut leaves two 7-site chains sharing 7 up spins, and
    # the 3 + 4 and 4 + 3 splits tie: eigvalsh gives E0 = E1 = -8.0546789843,
    # and the levels hold the two chains' zero modes at once
    J = np.ones(13)
    J[6] = 0.0
    H = build_hamiltonian(enumerate_sector(14, 7), BondCouplings(J))
    with pytest.raises(DegenerateGapError):
        lowest_two(H)


def cut_random_couplings(L, seed):
    # magnitudes in [0.5, 1.5], random signs, and each bond cut with
    # probability 1/4; odd segments hold zero modes, so some grounds tie
    rng = np.random.default_rng(seed)
    J = rng.uniform(0.5, 1.5, L - 1) * rng.choice([-1.0, 1.0], L - 1)
    J[rng.random(L - 1) < 0.25] = 0.0
    return BondCouplings(J)


@pytest.mark.parametrize("kind", ["uniform", "random"])
def test_lanczos_route_energies_match_eigvalsh(kind):
    # the energies are sums of single-particle levels; here they meet the
    # many-body spectrum of the assembled H in every sector with L <= 12
    # and dim >= 2, tied grounds included
    ties = 0
    for L in range(2, 13):
        couplings = (BondCouplings.uniform(L) if kind == "uniform"
                     else cut_random_couplings(L, 3000 + L))
        for n in range(1, L):
            H = build_hamiltonian(enumerate_sector(L, n), couplings)
            E0, E1 = np.linalg.eigvalsh(H.matrix.toarray())[:2]
            if E1 - E0 < 1e-8 * couplings.scale:
                ties += 1
                with pytest.raises(DegenerateGapError):
                    lowest_two(H)
                continue
            pair = lowest_two(H)
            assert (pair.E0, pair.E1) == pytest.approx((E0, E1), abs=1e-11), (L, n)
    assert ties == 0 if kind == "uniform" else ties > 0


def free_fermion_pair(L, n):
    # E0 fills the n lowest modes; E1 lifts the top one by a level
    e = np.sort(oracles.single_particle_energies(L))
    E0 = float(e[:n].sum())
    return E0, E0 + float(e[n] - e[n - 1])


def test_lowest_two_odd_chain_unequal_blocks():
    H = uniform_chain(13, 6)  # dim 1716
    pair = lowest_two(H)
    assert (pair.E0, pair.E1) == pytest.approx(free_fermion_pair(13, 6), abs=1e-10)
    g = pair.ground.amps.real
    assert np.linalg.norm(H.matrix @ g - pair.E0 * g) <= 1e-12


def test_lowest_two_L18_matches_free_fermions():
    H = uniform_chain(18, 9)  # dim 48620
    pair = lowest_two(H)
    assert (pair.E0, pair.E1) == pytest.approx(free_fermion_pair(18, 9), abs=1e-10)
    g = pair.ground.amps.real
    assert pair.ground.norm() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(H.matrix @ g - pair.E0 * g) <= 1e-12


def test_lowest_two_negated_coupling_is_a_sublattice_gauge():
    # H(-J) = S H(J) S with S = (-1)^(up spins on even sites), since every
    # hop moves one up spin between an even and an odd site: the energies
    # are the same floats, the ground is S g
    H = uniform_chain(14, 7, 0.5)
    pos = lowest_two(H)
    neg = lowest_two(uniform_chain(14, 7, -0.5))
    assert (neg.E0, neg.E1) == (pos.E0, pos.E1)
    even_sites = sum(1 << site for site in range(0, 14, 2))
    S = 1.0 - 2.0 * (np.bitwise_count(H.basis.configs & even_sites) & 1)
    flipped = S * pos.ground.amps
    assert np.array_equal(neg.ground.amps, flipped) or np.array_equal(
        neg.ground.amps, -flipped
    )


def test_lowest_two_ground_properties():
    H = uniform_chain(8, 4)
    pair = lowest_two(H)
    assert not pair.ground.amps.imag.any()
    for E0, g in ((pair.E0, pair.ground.amps.real), oracles.dense_lowest_two(H)[::2]):
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        residual = H.matrix @ g - E0 * g
        assert np.linalg.norm(residual) <= 1e-9 * 2.0 * math.sqrt(H.dim)
        # phase convention: the largest amplitude is positive
        assert g[int(np.argmax(np.abs(g)))] > 0
    assert_matches_dense(H, 1e-12, 1e-12)


def test_lowest_two_gap_for_every_small_sector():
    # every sector with L <= 13 and dim >= 2, up to dim 1716
    for L in range(2, 14):
        for n in range(1, L):
            if math.comb(L, n) < 2:
                continue
            pair = lowest_two(uniform_chain(L, n))
            assert pair.E0 <= pair.E1
            assert pair.E0 == pytest.approx(
                oracles.sector_ground_energy(L, n), abs=1e-9
            )


def test_lowest_two_degenerate_and_trivial_errors():
    with pytest.raises(DegenerateGapError):
        lowest_two(build_hamiltonian(enumerate_sector(2, 1), BondCouplings(np.zeros(1))))
    with pytest.raises(ValueError):
        lowest_two(uniform_chain(2, 0))  # dim 1, no excited state


def test_lowest_two_never_assembles_H(monkeypatch):
    # dims 12870 and 70: no sector size builds H's CSR, which its dense
    # eigendecomposition would read first
    import xxfusion.spin_model as spin_model

    def no_pattern(*args):
        raise AssertionError("the CSR of H was assembled")

    monkeypatch.setattr(spin_model, "_hop_pattern", no_pattern)
    for L, n in ((16, 8), (8, 4)):
        H = build_hamiltonian(enumerate_sector(L, n), BondCouplings.uniform(L))
        pair = lowest_two(H)
        assert pair.E0 == pytest.approx(oracles.sector_ground_energy(L, n), abs=1e-9)
        assert pair.ground.norm() == pytest.approx(1.0, abs=1e-12)  # filled on this read


# ------------------------------------------------------------- overlaps


def test_infidelity_endpoints():
    pair = lowest_two(uniform_chain(4, 2))
    assert infidelity(pair.ground, pair.ground) == pytest.approx(0.0, abs=1e-12)
    basis = pair.ground.basis
    e0 = pair.ground
    w, U = uniform_chain(4, 2).dense_eig
    e1 = StateVector(basis, U[:, 1])
    assert infidelity(e1, e0) == pytest.approx(1.0, abs=1e-12)


def test_infidelity_keeps_its_precision_near_zero():
    # v = cos(theta) g + sin(theta) e with e orthogonal to g; 1 - |<g|v>|^2
    # would cancel to roundoff at this theta
    g = lowest_two(uniform_chain(8, 4)).ground
    e = np.random.default_rng(7).standard_normal(g.basis.dim).astype(complex)
    for _ in range(2):
        e -= np.vdot(g.amps, e) * g.amps
    e /= np.linalg.norm(e)
    theta = 1e-7
    v = StateVector(g.basis, math.cos(theta) * g.amps + math.sin(theta) * e)
    assert infidelity(v, g) == pytest.approx(math.sin(theta) ** 2, rel=1e-9, abs=0.0)


def test_infidelity_requires_normalized_states():
    basis = enumerate_sector(4, 2)
    v = StateVector(basis, np.full(6, 0.5))  # norm sqrt(1.5)
    g = lowest_two(uniform_chain(4, 2)).ground
    with pytest.raises(ValueError):
        infidelity(v, g)
    with pytest.raises(ValueError, match="different sectors"):
        infidelity(basis_state(enumerate_sector(4, 1), 0b0001), g)


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
    assert oracles.overlap(StateVector(basis, c * v.amps), g) == pytest.approx(
        c * oracles.overlap(v, g), rel=1e-12
    )
    # weight^2 + infidelity = 1 for normalized inputs
    vn = v.normalized()
    assert oracles.overlap(vn, g) ** 2 + infidelity(vn, g) == pytest.approx(1.0, abs=1e-12)


def test_embedded_product_overlap_goldens():
    g2 = lowest_two(uniform_chain(2, 1)).ground
    prod = embed_product(g2, g2, basis=enumerate_sector(4, 2))
    g4 = lowest_two(uniform_chain(4, 2)).ground
    assert infidelity(prod, g4) == pytest.approx(0.1027864045000435, abs=1e-13)
    assert oracles.overlap(prod, g4) == pytest.approx(0.9472135954999572, abs=1e-13)
    assert oracles.overlap(StateVector(prod.basis, np.zeros(6)), g4) == 0.0
