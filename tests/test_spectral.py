"""Eigensolver routes, checked against free-fermion energies, and overlap measures."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import xxfusion.cli as cli
import xxfusion.spectral as spectral
from xxfusion import (
    BondCouplings,
    DegenerateGapError,
    LanczosConvergenceError,
    SimulationError,
    StateVector,
    basis_state,
    build_hamiltonian,
    embed_product,
    enumerate_sector,
    infidelity,
    lowest_two,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


#: Sectors of dim >= 3 whose larger sublattice-parity block has 2 states;
#: lowest_two sends them to the dense route, and the route tests skip them.
SMALL_BLOCK_SECTORS = {(3, 1), (3, 2), (4, 1), (4, 3)}

#: lowest_two's two routes, each returning (E0, E1, a zero-argument function
#: that returns the real ground vector).
dense_route = spectral._dense_lowest_two
lanczos_route = spectral._lanczos_lowest_two


def uniform_chain(L, n, J=1.0):
    return build_hamiltonian(enumerate_sector(L, n), BondCouplings.uniform(L, J))


def live_bond_chain(L, n, bond):
    # one live bond: E0 = -1 and E1 = 0, so B has rank one and sigma_2 = 0
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


def test_lowest_two_L16_lanczos_golden():
    # dim 12870 forces the iterative path
    H = uniform_chain(16, 8)
    pair = lowest_two(H)
    assert pair.E0 == pytest.approx(-9.837951447459409, abs=1e-9)
    assert pair.gap == pytest.approx(0.36907343785319924, abs=1e-9)
    g = pair.ground.amps.real
    assert np.linalg.norm(H.matrix @ g - pair.E0 * g) <= 1e-12


def test_lowest_two_routes_agree():
    # every sector with L <= 12 and dim >= 3 whose larger sublattice-parity
    # block holds 3 or more states; largest amplitudes often tie with
    # opposite signs, and both routes must still return the same ground,
    # sign included
    sectors = [
        (L, n) for L in range(2, 13) for n in range(1, L)
        if math.comb(L, n) >= 3 and (L, n) not in SMALL_BLOCK_SECTORS
    ]
    assert len(sectors) == 61
    for L, n in sectors:
        H = uniform_chain(L, n)
        E0, E1, dense = dense_route(H)
        lanczos = lanczos_route(H)
        assert lanczos[:2] == pytest.approx((E0, E1), abs=1e-10)
        # elementwise 1e-8 at dim <= 924 also bounds 1 - overlap by 5e-14
        assert np.max(np.abs(dense() - lanczos[2]())) <= 1e-8, (L, n)


def test_lanczos_route_matches_eigh_on_uniform_sectors():
    # every uniform sector from DENSE_CUTOFF to dim 3432, L = 11 to 14
    sectors = [(L, n) for L in range(2, 15) for n in range(L + 1)
               if spectral.DENSE_CUTOFF <= math.comb(L, n) <= 3432]
    assert len(sectors) == 20
    for L, n in sectors:
        H = uniform_chain(L, n)
        E0, E1, dense = dense_route(H)
        lanczos = lanczos_route(H)
        assert lanczos[:2] == pytest.approx((E0, E1), abs=1e-12), (L, n)
        assert np.max(np.abs(dense() - lanczos[2]())) <= 1e-12, (L, n)


@pytest.mark.parametrize("L, n, bonds", [(12, 6, (1, 8)), (14, 7, (1, 10))])
def test_two_identical_live_bonds_are_a_degenerate_gap(L, n, bonds):
    # sigma_1 = 2 has many copies, but one start vector's Krylov space
    # closes after three steps with one vector per eigenspace; only a fresh
    # start vector finds a second copy, so E1 = E0
    J = np.zeros(L - 1)
    J[list(bonds)] = 1.0
    H = build_hamiltonian(enumerate_sector(L, n), BondCouplings(J))
    assert H.dim >= spectral.DENSE_CUTOFF
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
            if math.comb(L, n) < 3 or (L, n) in SMALL_BLOCK_SECTORS:
                continue
            H = build_hamiltonian(enumerate_sector(L, n), couplings)
            E0, E1, dense = dense_route(H)
            lanczos = lanczos_route(H)
            assert lanczos[:2] == pytest.approx((E0, E1), abs=1e-10), (L, n)
            assert np.max(np.abs(dense() - lanczos[2]())) <= 1e-8, (L, n)


RANK_ONE_CASES = [(6, 1, 4), (10, 1, 4), (11, 10, 5), (12, 11, 6)]


@pytest.mark.parametrize("L, n, bond", RANK_ONE_CASES)
def test_lowest_two_zero_singular_value(L, n, bond):
    H = live_bond_chain(L, n, bond)
    E0, E1, dense = dense_route(H)
    assert (E0, E1) == pytest.approx((-1.0, 0.0), abs=1e-12)
    lanczos = lanczos_route(H)
    assert lanczos[:2] == pytest.approx((-1.0, 0.0), abs=1e-12)
    assert np.max(np.abs(dense() - lanczos[2]())) <= 1e-12


@pytest.mark.parametrize("L, n, bond", RANK_ONE_CASES)
def test_lanczos_route_repeats_bit_for_bit(L, n, bond):
    # B has rank one, so the Krylov space closes after two steps and pass 1
    # runs again from a fresh random vector; drawn from the seeded
    # generator, it is the same vector on every run
    H = live_bond_chain(L, n, bond)
    E0, E1, ground = lanczos_route(H)
    vec = ground()
    for _ in range(20):
        again = lanczos_route(H)
        assert again[:2] == (E0, E1)
        assert np.array_equal(again[2](), vec)


def counted_calls(monkeypatch, name):
    """A list that gains one entry per call of ``spectral.<name>``."""
    fn, calls = getattr(spectral, name), []

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(spectral, name, counted)
    return calls


def test_gap_makes_no_ritz_replay(monkeypatch, capsys):
    # dim 3432 takes the Lanczos route, and gap reads no ground: its
    # energies come from the levels, so it builds no B and runs no pass
    calls = {name: counted_calls(monkeypatch, name)
             for name in ("_sublattice_blocks", "_first_pass", "_ritz_vector")}
    assert cli.main(["gap", "--L", "14"]) == 0
    assert "gap = " in capsys.readouterr().out
    assert calls == {name: [] for name in calls}


def test_ground_is_summed_on_the_first_read_only(monkeypatch):
    replays = counted_calls(monkeypatch, "_ritz_vector")
    pair = lowest_two(uniform_chain(14, 7))
    assert replays == []
    ground = pair.ground
    assert len(replays) == 1
    assert pair.ground is ground
    assert len(replays) == 1


def test_cut_chain_is_a_degenerate_gap():
    # the middle bond cut leaves two 7-site chains sharing 7 up spins, and
    # the 3 + 4 and 4 + 3 splits tie: eigvalsh gives E0 = E1 = -8.0546789843,
    # and the levels hold the two chains' zero modes at once
    J = np.ones(13)
    J[6] = 0.0
    H = build_hamiltonian(enumerate_sector(14, 7), BondCouplings(J))
    assert H.dim >= spectral.DENSE_CUTOFF
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
def test_lanczos_route_energies_match_eigvalsh(monkeypatch, kind):
    # the route's energies are sums of single-particle levels; here they
    # meet the many-body spectrum of the assembled H in every sector with
    # L <= 12 and dim >= 2, tied grounds included
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 2)
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


@pytest.mark.parametrize("L", [16, 18])
def test_first_pass_values_match_the_levels(L):
    # pass 1's top two Ritz values of B^T B are sigma_1^2 and sigma_2^2,
    # and -sigma_1, -sigma_2 are the lowest pair the levels give
    H = uniform_chain(L, L // 2)
    _, B = spectral._sublattice_blocks(H)
    q = np.random.default_rng(1).standard_normal(B.shape[1])
    theta1, theta2 = spectral._first_pass(lambda v: B.T @ (B @ v), q / np.linalg.norm(q))[3:]
    pair = lowest_two(H)
    assert (-math.sqrt(theta1), -math.sqrt(theta2)) == pytest.approx((pair.E0, pair.E1), abs=1e-10)


def free_fermion_pair(L, n):
    # E0 fills the n lowest modes; E1 lifts the top one by a level
    e = np.sort(oracles.single_particle_energies(L))
    E0 = float(e[:n].sum())
    return E0, E0 + float(e[n] - e[n - 1])


def test_lowest_two_odd_chain_unequal_blocks():
    H = uniform_chain(13, 6)  # dim 1716, the Lanczos route
    big, B = spectral._sublattice_blocks(H)
    assert (np.count_nonzero(big), B.shape) == (868, (848, 868))
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
    # H(-J) = S H(J) S with S = (-1)^parity, so B changes sign and B^T B
    # does not: the energies are the same floats, the ground is S g
    H = uniform_chain(14, 7, 0.5)
    pos = lowest_two(H)
    neg = lowest_two(uniform_chain(14, 7, -0.5))
    assert (neg.E0, neg.E1) == (pos.E0, pos.E1)
    big, _ = spectral._sublattice_blocks(H)
    S = np.where(big, 1.0, -1.0)
    flipped = S * pos.ground.amps
    assert np.array_equal(neg.ground.amps, flipped) or np.array_equal(
        neg.ground.amps, -flipped
    )


def test_lowest_two_ground_properties():
    H = uniform_chain(8, 4)
    for route in (dense_route, lanczos_route):
        E0, _, g = route(H)
        g = g()
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        residual = H.matrix @ g - E0 * g
        assert np.linalg.norm(residual) <= 1e-9 * 2.0 * math.sqrt(H.dim)
        # phase convention: the largest amplitude is positive
        assert g[int(np.argmax(np.abs(g)))] > 0
    # dim 70 takes the dense route
    assert np.array_equal(lowest_two(H).ground.amps, dense_route(H)[2]().astype(complex))


def test_lowest_two_gap_for_every_small_sector():
    # L = 11..13 reaches sectors above DENSE_CUTOFF, the iterative route
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


def gathered_block(H, big):
    """B as the rows of H's assembled CSR on the smaller parity block, with
    columns ranked within the larger one."""
    rank = np.cumsum(big, dtype=np.int32) - 1
    rows = H.matrix[np.flatnonzero(~big)]
    return sp.csr_matrix((rows.data, rank[rows.indices], rows.indptr),
                         shape=(rows.shape[0], int(np.count_nonzero(big))))


def test_hop_block_from_pattern_equals_block_gathered_from_H():
    cases = [(L, n, BondCouplings.uniform(L)) for L in range(2, 15) for n in range(L + 1)
             if math.comb(L, n) >= spectral.DENSE_CUTOFF]
    cases += [(L, n, random_couplings(L, 2000 + L)) for L in (10, 12, 14) for n in (3, L // 2)]
    for L, n, couplings in cases:
        H = build_hamiltonian(enumerate_sector(L, n), couplings)
        big, B = spectral._sublattice_blocks(H)
        ref = gathered_block(H, big)
        assert B.shape == ref.shape, (L, n)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(B, part), getattr(ref, part)), (L, n, part)


def test_lanczos_route_never_assembles_H(monkeypatch):
    import xxfusion.spin_model as spin_model

    pattern = spin_model._hop_pattern

    def rows_only(basis, weights, rows=None, columns=None):
        if rows is None:
            raise AssertionError("the CSR of H was assembled")
        return pattern(basis, weights, rows, columns)

    monkeypatch.setattr(spin_model, "_hop_pattern", rows_only)
    monkeypatch.setattr(spectral, "_hop_pattern", rows_only)
    pair = lowest_two(build_hamiltonian(enumerate_sector(16, 8), BondCouplings.uniform(16)))
    assert pair.E0 == pytest.approx(oracles.sector_ground_energy(16, 8), abs=1e-9)
    assert pair.ground.norm() == pytest.approx(1.0, abs=1e-12)  # B is built on this read


def test_lowest_two_lanczos_budget_failure_is_typed(monkeypatch):
    # five steps cannot converge two pairs at this size, nor at L = 12 or
    # 14; the passes run on the first read of the ground
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 5)
    pair = lowest_two(uniform_chain(16, 8))  # dim 12870, above the dense cutoff
    with pytest.raises(LanczosConvergenceError, match="did not converge") as info:
        pair.ground
    assert isinstance(info.value, SimulationError)


# ------------------------------------------------------------- overlaps


def test_infidelity_endpoints():
    pair = lowest_two(uniform_chain(4, 2))
    assert infidelity(pair.ground, pair.ground) == pytest.approx(0.0, abs=1e-12)
    basis = pair.ground.basis
    e0 = pair.ground
    w, U = uniform_chain(4, 2).dense_eig
    e1 = StateVector(basis, U[:, 1])
    assert infidelity(e1, e0) == pytest.approx(1.0, abs=1e-12)


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
