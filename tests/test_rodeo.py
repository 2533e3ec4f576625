"""Rodeo cycles, schedules, the ancilla-circuit oracle, and scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import xxfusion.rodeo as rodeo
from xxfusion import (
    BondCouplings,
    RodeoAnnihilationError,
    StateVector,
    build_hamiltonian,
    embed_product,
    energy_scan,
    enumerate_sector,
    lowest_two,
    make_schedule,
    rodeo_cycle,
    run_rodeo,
)

RNG = np.random.default_rng(20240813)


def chain(L, n, J=1.0):
    basis = enumerate_sector(L, n)
    return basis, build_hamiltonian(basis, BondCouplings.uniform(L, J))


def random_state(basis, rng=RNG):
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, amps / np.linalg.norm(amps))


def eigenstate(H, k):
    w, U = H.dense_eig
    return StateVector(H.basis, U[:, k].astype(np.complex128)), float(w[k])


# ------------------------------------------------------------- schedules


def test_make_schedule_geometric_ladder():
    times = make_schedule(2.0, depth=4, superiterations=3, ratio=0.5)
    t1 = np.pi / 2.0
    assert times[0] == pytest.approx(t1, rel=1e-15)
    ladder = t1 * 0.5 ** np.arange(4)
    assert np.allclose(times, np.tile(ladder, 3), rtol=1e-15)
    assert times.shape == (4 * 3,)
    assert np.all(times > 0)
    assert times.sum() == pytest.approx(3 * t1 * (2.0 - 2.0 ** -3), rel=1e-14)


@given(
    st.floats(0.05, 10.0),
    st.integers(1, 10),
    st.integers(1, 6),
    st.floats(0.1, 1.0),
)
def test_make_schedule_invariants(gap, depth, M, ratio):
    times = make_schedule(gap, depth=depth, superiterations=M, ratio=ratio)
    assert times.size == depth * M
    assert times[0] == pytest.approx(np.pi / gap, rel=1e-14)
    block = times[:depth]
    if depth > 1:
        assert np.allclose(block[1:] / block[:-1], ratio, rtol=1e-12)


def test_make_schedule_argument_errors():
    for bad in (dict(gap=0.0), dict(gap=2.0, depth=0), dict(gap=2.0, ratio=0.0),
                dict(gap=2.0, ratio=1.5), dict(gap=2.0, superiterations=-1)):
        with pytest.raises(ValueError):
            make_schedule(**bad)


# ---------------------------------------------------------------- cycles


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 12.0), st.floats(-3.0, 3.0))
@settings(deadline=None, max_examples=40)
def test_cycle_matches_ancilla_circuit(seed, t, E_t):
    basis, H = chain(3, 1)
    v = random_state(basis, np.random.default_rng(seed))
    direct, p_direct = rodeo_cycle(v, H, E_t, t)
    circuit, p_circuit = oracles.ancilla_circuit_cycle(v, H, E_t, t)
    assert p_direct == pytest.approx(p_circuit, abs=1e-12)
    assert np.linalg.norm(direct.amps - circuit.amps) < 1e-12


def test_cycle_matches_dense_expm_oracle():
    basis, H = chain(4, 2)
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = random_state(basis, rng)
        t = rng.uniform(0.1, 8.0)
        E_t = rng.uniform(-3.0, 1.0)
        got, p = rodeo_cycle(v, H, E_t, t)
        ref_w, ref_p = oracles.rodeo_cycle_dense(v.amps, H.matrix.toarray(), E_t, t)
        assert p == pytest.approx(ref_p, abs=1e-12)
        assert np.linalg.norm(got.amps * np.sqrt(p) - ref_w) < 1e-12


@given(st.integers(0, 2**32 - 1), st.floats(0.05, 10.0), st.floats(-3.0, 3.0))
@settings(deadline=None, max_examples=40)
def test_cycle_damps_each_eigencomponent_by_cosine(seed, t, E_t):
    basis, H = chain(4, 2)
    w, U = H.dense_eig
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    coeff /= np.linalg.norm(coeff)
    v = StateVector(basis, U @ coeff)
    out, p = rodeo_cycle(v, H, E_t, t)
    after = U.conj().T @ (np.sqrt(p) * out.amps)
    expected = np.abs(coeff) * np.abs(np.cos((w - E_t) * t / 2.0))
    assert np.allclose(np.abs(after), expected, atol=1e-12)


def test_single_cycle_annihilates_first_excited():
    _, H = chain(4, 2)
    pair = lowest_two(H)
    e1, _ = eigenstate(H, 1)
    t1 = np.pi / pair.gap
    _, p = rodeo_cycle(e1, H, pair.E0, t1)
    assert p < 1e-20


# ------------------------------------------------------------ run_rodeo


def test_run_rodeo_probability_bookkeeping():
    basis, H = chain(4, 2)
    pair = lowest_two(H)
    times = make_schedule(pair.gap, depth=4, superiterations=2)
    v = random_state(basis)
    state, p_total = run_rodeo(v, H, pair.E0, times)
    probs = []
    for t in times:
        v, p = rodeo_cycle(v, H, pair.E0, float(t))
        probs.append(p)
    assert len(probs) == 8
    assert p_total == pytest.approx(float(np.prod(probs)), rel=1e-12)
    assert abs(state.norm() - 1.0) < 1e-12


def test_run_rodeo_without_cycles_returns_its_input():
    basis, H = chain(4, 2)
    v = random_state(basis)
    state, p_total = run_rodeo(v, H, 0.0, make_schedule(1.0, superiterations=0))
    assert state is v and p_total == 1.0


def test_run_rodeo_converges_to_target_state():
    basis, H = chain(4, 2)
    pair = lowest_two(H)
    v = random_state(basis, np.random.default_rng(42))
    weight0 = oracles.overlap(v, pair.ground)
    outs = [run_rodeo(v, H, pair.E0, make_schedule(pair.gap, depth=8, superiterations=M))
            for M in (1, 2, 4)]
    weights = [oracles.overlap(state, pair.ground) for state, _ in outs]
    assert weight0 < weights[0] < weights[1] < weights[2]
    assert weights[2] > 0.99999
    # the undamped target component floors the success probability, and
    # residual contamination only shrinks as cycles accumulate
    p2, p4 = outs[1][1], outs[2][1]
    assert weight0**2 - 1e-12 <= p2 <= 1.0
    assert weight0**2 - 1e-12 <= p4 <= p2


def test_run_rodeo_raises_on_orthogonal_input():
    _, H = chain(4, 2)
    pair = lowest_two(H)
    e1, _ = eigenstate(H, 1)
    with pytest.raises(RodeoAnnihilationError):
        run_rodeo(e1, H, pair.E0, make_schedule(pair.gap, depth=4, superiterations=2))


def test_spectral_weight_constant_over_24_cycles():
    # with E_t exactly E0 the unnormalized ground amplitude never moves
    basis, H = chain(4, 2)
    pair = lowest_two(H)
    times = make_schedule(pair.gap, depth=8, superiterations=3)
    assert times.size == 24
    state = random_state(basis)
    reference = oracles.overlap(state, pair.ground)
    running = 1.0
    for t_j in times:
        state, p = rodeo_cycle(state, H, pair.E0, float(t_j))
        running *= p
        unnormalized = np.sqrt(running) * oracles.overlap(state, pair.ground)
        assert unnormalized == pytest.approx(reference, abs=1e-12)


# --------------------------------------------------------------- oracle


def test_ancilla_circuit_dimension_cap():
    basis, H = chain(10, 5)  # dim 252
    v = StateVector(basis, np.ones(basis.dim) / np.sqrt(basis.dim))
    with pytest.raises(ValueError):
        oracles.ancilla_circuit_cycle(v, H, 0.0, 1.0)


# ------------------------------------------------------------------ scan


def test_energy_scan_eigenstate_peak_and_annihilation():
    basis, H = chain(2, 1)
    pair = lowest_two(H)
    times = make_schedule(pair.gap, depth=3, superiterations=2)
    results = energy_scan(pair.ground, H, np.array([-1.0, 0.0, 1.0]), times)
    grid_p = {E: p for E, p in results}
    assert grid_p[-1.0] == pytest.approx(1.0, abs=1e-12)  # E_t = E0 keeps everything
    assert grid_p[1.0] == 0.0  # ground is orthogonal to the E1 filter target
    assert all(0.0 <= p <= 1.0 + 1e-12 for _, p in results)


def test_energy_scan_neel_input_splits_evenly():
    basis, H = chain(2, 1)
    pair = lowest_two(H)
    times = make_schedule(pair.gap, depth=3, superiterations=2)
    neel = StateVector(basis, np.array([1.0, 0.0]))  # |01>, up at site 0
    results = dict(energy_scan(neel, H, np.array([-1.0, 1.0]), times))
    assert results[-1.0] == pytest.approx(0.5, abs=1e-12)
    assert results[1.0] == pytest.approx(0.5, abs=1e-12)


def test_energy_scan_shares_first_propagation(monkeypatch):
    basis, H = chain(6, 3)
    pair = lowest_two(H)
    times = make_schedule(pair.gap, depth=3, superiterations=2)
    v0 = pair.ground
    # the first cycle, at t_1 = pi / gap, annihilates the ground at E0 + gap
    grid = np.array([pair.E0, pair.E0 + pair.gap, 0.0, 0.7])
    t1_calls = []
    expmv = rodeo.expmv

    def counted(H_, t, v, **kwargs):
        if t == times[0]:
            t1_calls.append(v)
        return expmv(H_, t, v, **kwargs)

    monkeypatch.setattr(rodeo, "expmv", counted)
    results = energy_scan(v0, H, grid, times)
    first_cycle_inputs = [v for v in t1_calls if v is v0]
    assert len(first_cycle_inputs) == 1
    for (E_t, p), E_grid in zip(results, grid):
        assert E_t == E_grid
        try:
            _, expected = run_rodeo(v0, H, E_t, times)
        except RodeoAnnihilationError:
            expected = 0.0
        assert p == expected
    assert results[1][1] == 0.0


@pytest.mark.parametrize("L, n", [(12, 4), (12, 6)], ids=["d495", "d924"])
def test_energy_scan_krylov_matches_closed_form_filter(L, n):
    # above the dense cutoff every cycle is a Krylov propagation, here of
    # the even product in the symmetric subspace; each point must be the
    # filter sum_n |<n|v0>|^2 prod_j cos^2((E_n - E_t) t_j / 2)
    basis, H = chain(L, n)
    _, Hh = chain(L // 2, n // 2)
    g = lowest_two(Hh).ground
    v0 = embed_product(g, g, basis=basis)
    times = make_schedule(lowest_two(H).gap, depth=8, superiterations=2)
    grid = np.linspace(-7.0, 7.0, 29)
    results = energy_scan(v0, H, grid, times)
    # every cycle ran in the symmetric subspace
    assert {reduced for _, _, reduced in H.basis._operators} == {True}
    w, U = np.linalg.eigh(H.matrix.toarray())
    weights = np.abs(U.T @ v0.amps) ** 2
    for E_t, p in results:
        closed = weights @ np.prod(np.cos(np.outer(w - E_t, times) / 2.0) ** 2, axis=1)
        assert p == pytest.approx(closed, rel=1e-8)
        assert p == run_rodeo(v0, H, E_t, times)[1]
