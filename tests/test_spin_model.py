"""Basis enumeration, Hamiltonian assembly, and product embedding."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import xxfusion.propagate as propagate
from xxfusion import (
    BondCouplings,
    CapacityError,
    SectorBasis,
    StateVector,
    basis_state,
    build_hamiltonian,
    embed_product,
    enumerate_sector,
    lowest_two,
    middle_bond,
)
from xxfusion.spin_model import _hop_pattern

# ---------------------------------------------------------------- bases


def test_enumerate_sector_L4_half():
    basis = enumerate_sector(4, 2)
    assert basis.L == 4 and basis.n_up == 2
    assert basis.dim == 6
    assert list(basis.configs) == [3, 5, 6, 9, 10, 12]


def test_enumerate_sector_matches_bit_scan():
    for L in range(1, 15):
        for n in range(L + 1):
            basis = enumerate_sector(L, n)
            assert list(basis.configs) == oracles.sector_configs(L, n)


@given(st.integers(1, 12), st.data())
def test_sector_invariants(L, data):
    n = data.draw(st.integers(0, L))
    basis = enumerate_sector(L, n)
    assert basis.dim == math.comb(L, n)
    assert all(oracles.popcount(int(c)) == n for c in basis.configs)
    diffs = np.diff(basis.configs)
    assert basis.dim < 2 or np.all(diffs > 0)


@given(st.integers(1, 12), st.data())
def test_index_of_inverts_configs(L, data):
    n = data.draw(st.integers(0, L))
    basis = enumerate_sector(L, n)
    i = data.draw(st.integers(0, basis.dim - 1))
    assert basis.index_of(int(basis.configs[i])) == i


def test_index_of_rejects_foreign_config():
    basis = enumerate_sector(4, 2)
    with pytest.raises(ValueError):
        basis.index_of(0b0111)  # three up spins
    with pytest.raises(ValueError):
        basis.index_of(0b1111)


def test_enumerate_sector_argument_errors():
    with pytest.raises(ValueError):
        enumerate_sector(0, 0)
    with pytest.raises(ValueError):
        enumerate_sector(4, 5)
    with pytest.raises(ValueError):
        enumerate_sector(4, -1)


def test_enumerate_sector_capacity_guard():
    # binomial(28, 14) = 40116600 exceeds the 2^24 statevector cap
    with pytest.raises(CapacityError):
        enumerate_sector(28, 14)


def test_hamiltonian_beyond_memory_raises_before_allocating(monkeypatch, needs):
    # build_hamiltonian allocates nothing sector-sized and prices nothing;
    # the CSR prices itself on its first read
    import xxfusion.spin_model as spin_model

    basis = enumerate_sector(12, 6)
    nnz = 2 * basis.dim * 6 * 6 // 12
    assert build_hamiltonian(basis, BondCouplings.uniform(12)).matrix.nnz == nnz
    (need,) = needs

    def no_pattern(*args):
        raise AssertionError("the Hamiltonian was assembled")

    monkeypatch.setattr(spin_model, "_physical_memory", lambda: need - 1)
    H = build_hamiltonian(basis, BondCouplings.uniform(12))
    with monkeypatch.context() as m:
        m.setattr(spin_model, "_hop_pattern", no_pattern)
        with pytest.raises(CapacityError, match="physical memory"):
            H.matrix
    monkeypatch.setattr(spin_model, "_physical_memory", lambda: need)
    assert H.matrix.nnz == nnz
    assert len(needs) == 3


@pytest.mark.parametrize("L", [16, 18, 20])
def test_capacity_need_bounds_the_traced_peak(needs, L):
    # the first read of a free-fermion ground prices its determinant fill,
    # the phase fixing and the complex copy; its need covers what building
    # H, solving the pair and reading the ground allocate at half filling,
    # the configurations included, within 48 bytes a configuration, and
    # nothing before the read is priced
    basis = enumerate_sector(L, L // 2)
    tracemalloc.start()
    try:
        pair = lowest_two(build_hamiltonian(basis, BondCouplings.uniform(L)))
        assert needs == []
        pair.ground
        peak = tracemalloc.get_traced_memory()[1] + basis.configs.nbytes
    finally:
        tracemalloc.stop()
    assert len(needs) == 1 and peak <= needs[0] <= 48 * basis.dim


def test_ground_beyond_memory_raises_before_building_B(monkeypatch, needs):
    import xxfusion.spin_model as spin_model

    H = build_hamiltonian(enumerate_sector(16, 8), BondCouplings.uniform(16))
    reference = lowest_two(H).ground
    (need,) = needs

    def no_det(*args):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(spin_model, "_physical_memory", lambda: need - 1)
    pair = lowest_two(H)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "det", no_det)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="Slater-determinant ground"):
                pair.ground
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < H.dim  # not one byte a configuration
    monkeypatch.setattr(spin_model, "_physical_memory", lambda: need)
    assert np.array_equal(lowest_two(H).ground.amps, reference.amps)


def test_hop_count_bound_holds_in_every_sector():
    # the capacity check counts 2 dim n (L - n) / L hops: exact with every
    # bond live, an upper bound with some bonds zero
    for L in range(2, 13):
        for n in range(L + 1):
            basis = enumerate_sector(L, n)
            bound = 2 * basis.dim * n * (L - n) // L
            assert build_hamiltonian(basis, BondCouplings.uniform(L)).matrix.nnz == bound
            J = np.ones(L - 1)
            J[::2] = 0.0
            assert build_hamiltonian(basis, BondCouplings(J)).matrix.nnz <= bound


def test_enumerate_sector_site_cap():
    # configurations are int64 bit strings: 63 sites fit, 64 do not
    top = enumerate_sector(63, 1)
    assert top.dim == 63 and int(top.configs[-1]) == 1 << 62
    assert int(enumerate_sector(63, 63).configs[0]) == (1 << 63) - 1
    with pytest.raises(CapacityError, match="63 sites"):
        enumerate_sector(64, 1)
    with pytest.raises(CapacityError, match="63 sites"):
        enumerate_sector(200, 0)


def test_same_sector():
    a = enumerate_sector(4, 2)
    b = enumerate_sector(4, 2)
    c = enumerate_sector(4, 1)
    assert a.same_sector(a) and a.same_sector(b)
    assert not a.same_sector(c)


# ------------------------------------------------------------ couplings


def test_bond_couplings_uniform_and_with_bond():
    bonds = BondCouplings.uniform(6, 0.7)
    assert bonds.n_sites == 6
    assert np.allclose(bonds.J, 0.7)
    cut = bonds.with_bond(2, 0.0)
    assert cut.J[2] == 0.0
    assert bonds.J[2] == 0.7  # original untouched
    with pytest.raises(ValueError):
        bonds.with_bond(5, 1.0)
    with pytest.raises(ValueError):
        BondCouplings(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        BondCouplings.uniform(1)


def test_bond_couplings_scale():
    assert BondCouplings(np.array([0.5, -2.0])).scale == 2.0
    assert BondCouplings(np.array([0.0, 0.0])).scale == 1.0


def test_middle_bond():
    assert middle_bond(2) == 0
    assert middle_bond(4) == 1
    assert middle_bond(8) == 3
    assert middle_bond(16) == 7
    with pytest.raises(ValueError):
        middle_bond(5)


# ---------------------------------------------------------- hamiltonian


@given(st.integers(2, 7), st.data())
@settings(deadline=None, max_examples=60)
def test_hamiltonian_matches_dense_oracle(L, data):
    n = data.draw(st.integers(0, L))
    seed = data.draw(st.integers(0, 2**32 - 1))
    cut = data.draw(st.lists(st.booleans(), min_size=L - 1, max_size=L - 1))
    J = np.random.default_rng(seed).uniform(-2.0, 2.0, L - 1)
    J[np.array(cut, dtype=bool)] = 0.0  # exact-zero bonds store nothing
    basis = enumerate_sector(L, n)
    H = build_hamiltonian(basis, BondCouplings(J))
    _, ref = oracles.dense_hamiltonian(L, n, J)
    assert np.array_equal(H.matrix.toarray(), ref)
    assert H.matrix.nnz == np.count_nonzero(ref)


@given(st.integers(2, 12), st.data())
@settings(deadline=None, max_examples=60)
def test_hop_pattern_of_chosen_rows_matches_full_pattern(L, data):
    n = data.draw(st.integers(0, L))
    basis = enumerate_sector(L, n)
    bonds = data.draw(st.lists(st.integers(0, L - 2), unique=True))
    weights = np.zeros(L - 1)
    weights[bonds] = np.arange(1, len(bonds) + 1)  # a stored weight names its bond
    rows = np.array(sorted(data.draw(
        st.sets(st.integers(0, basis.dim - 1), max_size=basis.dim))), dtype=np.int64)
    indptr, indices, weight = _hop_pattern(basis, weights)
    sub_indptr, sub_indices, sub_weight = _hop_pattern(basis, weights, rows)
    assert sub_indptr.size == rows.size + 1
    assert sub_indptr[0] == 0 and sub_indptr[-1] == sub_indices.size == sub_weight.size
    for i, r in enumerate(rows):
        sub, full = slice(*sub_indptr[i:i + 2]), slice(*indptr[r:r + 2])
        assert np.array_equal(sub_indices[sub], indices[full])
        assert np.array_equal(sub_weight[sub], weight[full])


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_hop_pattern_is_the_same_across_block_boundaries(monkeypatch, rows_per_block):
    # a block of a few rows puts boundaries inside every sector; H and the
    # ramp operator must not see them
    import xxfusion.spin_model as spin_model

    rng = np.random.default_rng(26)
    for L in range(2, 13):
        J = rng.uniform(-2.0, 2.0, L - 1)
        J[rng.random(L - 1) < 0.3] = 0.0  # cut bonds store nothing
        couplings, bond = BondCouplings(J), int(rng.integers(L - 1))
        for n in range(L + 1):
            basis = enumerate_sector(L, n)
            default = propagate._Operator(basis, couplings, bond, None)
            with monkeypatch.context() as m:
                m.setattr(spin_model, "HOP_BLOCK_ROWS", rows_per_block)
                H = build_hamiltonian(basis, couplings)
                assert np.array_equal(H.matrix.toarray(), oracles.dense_hamiltonian(L, n, J)[1])
                op = propagate._Operator(basis, couplings, bond, None)
            for name in ("ramp", "base", "coef"):
                assert np.array_equal(getattr(op, name), getattr(default, name)), (L, n, name)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(op.mat2, part), getattr(default.mat2, part))


def test_hamiltonian_is_canonical_csr():
    # sorted, duplicate-free columns with no explicit zeros: the unique
    # CSR form of the matrix, built without any sort
    for L in range(2, 13):
        bonds = BondCouplings.uniform(L)
        for n in range(L + 1):
            m = build_hamiltonian(enumerate_sector(L, n), bonds).matrix
            assert m.has_canonical_format
            assert m.indptr.dtype == np.int32 and m.indices.dtype == np.int32
            assert np.count_nonzero(m.data) == m.nnz


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
def test_symmetric_isometry_matches_bitwise_projector(L):
    # every sector: orthonormal orbit columns spanning exactly the states the
    # bit-by-bit group average keeps, and invariant under every H(lambda) of
    # palindromic couplings
    rng = np.random.default_rng(L)
    half = rng.uniform(-2.0, 2.0, L // 2)
    for n in range(L + 1):
        basis = enumerate_sector(L, n)
        P = basis.symmetric_isometry
        assert basis.symmetric_isometry is P
        assert P.shape == (basis.dim, P.shape[1])
        proj = oracles.symmetric_projector(L, n)
        assert P.shape[1] == round(np.trace(proj))  # Burnside's orbit count
        dense = P.toarray()
        assert np.abs(dense.T @ dense - np.eye(P.shape[1])).max() < 1e-15
        assert np.abs(dense @ dense.T - proj).max() < 1e-15
        for lam in (0.0, 0.7, -1.9):
            J = np.concatenate([half[:-1], [lam], half[-2::-1]])  # palindromic
            _, H = oracles.dense_hamiltonian(L, n, J)
            assert np.abs(proj @ H - H @ proj).max() < 1e-14
            assert np.abs(dense @ dense.T @ H - H @ dense @ dense.T).max() < 1e-14


@pytest.mark.parametrize("L, n, orbits", [(16, 8, 3299), (16, 4, 924), (8, 4, 23), (7, 3, 19)])
def test_symmetric_isometry_orbit_counts(L, n, orbits):
    # reflection and, at half filling, spin flip; an odd chain keeps reflection only
    assert enumerate_sector(L, n).symmetric_isometry.shape[1] == orbits


def test_hamiltonian_structure_invariants():
    basis = enumerate_sector(6, 3)
    bonds = BondCouplings.uniform(6, 1.3)
    dense = build_hamiltonian(basis, bonds).matrix.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0.0)
    off = dense[dense != 0.0]
    assert np.all(np.isin(off, [1.3]))  # every hop carries its bond coupling


def test_hamiltonian_rejects_length_mismatch():
    basis = enumerate_sector(4, 2)
    with pytest.raises(ValueError):
        build_hamiltonian(basis, BondCouplings.uniform(6))


def test_l2_energies_are_plus_minus_J():
    basis = enumerate_sector(2, 1)
    H = build_hamiltonian(basis, BondCouplings.uniform(2, 1.0))
    w, _ = H.dense_eig
    assert np.allclose(w, [-1.0, 1.0])


def test_norm_inf_matches_dense():
    # the bound expmv's Krylov operator records for H, in the full sector
    # and in the symmetric subspace alike
    basis = enumerate_sector(6, 2)
    H = build_hamiltonian(basis, BondCouplings.uniform(6))
    dense = np.abs(H.matrix.toarray()).sum(axis=1).max()
    for P in (None, basis.symmetric_isometry):
        op = propagate._Operator(basis, H.couplings, None, P)
        assert op.norm_inf == pytest.approx(float(dense), rel=0, abs=0)


# -------------------------------------------------------------- vectors


def test_state_vector_shape_and_norm():
    basis = enumerate_sector(4, 2)
    v = basis_state(basis, 0b0101)
    assert v.norm() == 1.0
    assert v.amps.dtype == np.complex128
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(3))
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(6)).normalized()


def test_basis_state_rejects_foreign_config():
    basis = enumerate_sector(4, 2)
    with pytest.raises(ValueError):
        basis_state(basis, 0b0001)


# ------------------------------------------------------------ embedding


def test_embed_product_four_site_golden():
    # ground of each 2-site half is (|01> - |10>)/sqrt(2); the embedded
    # product has weight 1/2 on the four combined configurations
    basis2 = enumerate_sector(2, 1)
    g = StateVector(basis2, np.array([1.0, -1.0]) / np.sqrt(2.0))
    basis4 = enumerate_sector(4, 2)
    prod = embed_product(g, g, basis=basis4)
    expected = {0b0101: 0.5, 0b0110: -0.5, 0b1001: -0.5, 0b1010: 0.5}
    for config, amp in zip(basis4.configs, prod.amps):
        assert amp == pytest.approx(expected.get(int(config), 0.0), abs=1e-15)


def test_embed_product_places_first_factor_on_high_bits():
    basis1 = enumerate_sector(2, 1)
    up_low = basis_state(basis1, 0b01)   # site 0 up
    up_high = basis_state(basis1, 0b10)  # site 1 up
    out = embed_product(up_low, up_high, basis=enumerate_sector(4, 2))
    idx = np.flatnonzero(np.abs(out.amps) > 0)
    assert len(idx) == 1
    assert int(out.basis.configs[idx[0]]) == 0b0110


@given(st.integers(1, 3), st.data())
@settings(deadline=None, max_examples=40)
def test_embed_product_matches_bitwise_oracle(half, data):
    n_a = data.draw(st.integers(0, half))
    n_b = data.draw(st.integers(0, half))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ba, bb = enumerate_sector(half, n_a), enumerate_sector(half, n_b)
    a = StateVector(ba, rng.standard_normal(ba.dim) + 1j * rng.standard_normal(ba.dim))
    b = StateVector(bb, rng.standard_normal(bb.dim) + 1j * rng.standard_normal(bb.dim))
    out = embed_product(a, b, basis=enumerate_sector(2 * half, n_a + n_b))
    ref = oracles.embed_amplitudes(a.amps, ba.configs, b.amps, bb.configs, half)
    assert out.basis.L == 2 * half and out.basis.n_up == n_a + n_b
    for config, amp in zip(out.basis.configs, out.amps):
        assert amp == pytest.approx(ref.get(int(config), 0.0), abs=1e-12)
    # isometry: norms multiply
    assert out.norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12)


def test_embed_product_argument_errors():
    g2 = basis_state(enumerate_sector(2, 1), 0b01)
    g3 = basis_state(enumerate_sector(3, 1), 0b001)
    with pytest.raises(ValueError):
        embed_product(g2, g3, basis=enumerate_sector(5, 2))
    with pytest.raises(ValueError):
        embed_product(g2, g2, basis=enumerate_sector(4, 3))
