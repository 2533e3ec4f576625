"""Time evolution and the adiabatic middle-bond ramp."""

import contextlib
import dataclasses
import functools
import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import xxfusion.propagate as propagate
import xxfusion.spin_model as spin_model
from xxfusion import (
    BondCouplings,
    CapacityError,
    PropagationError,
    RampContext,
    RampSchedule,
    RampSearchError,
    StateVector,
    StepRefinementError,
    adiabatic_ramp,
    basis_state,
    build_hamiltonian,
    converged_ramp,
    embed_product,
    enumerate_sector,
    expmv,
    infidelity,
    lowest_two,
    middle_bond,
    ramp_time_for_infidelity,
)

RNG = np.random.default_rng(20240812)


def random_state(basis, rng=RNG):
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, amps / np.linalg.norm(amps))


def chain(L, n, J=1.0):
    basis = enumerate_sector(L, n)
    return basis, build_hamiltonian(basis, BondCouplings.uniform(L, J))


def norm_inf(mat):
    """||mat||_inf of a CSR matrix, as scipy's sparse ``norm(mat, inf)`` forms it."""
    return abs(mat).sum(axis=1).max()


@functools.cache
def ramp_context(L, n, **settings):
    """Product of exact half grounds ramping toward the fused ground, with
    the search ``settings`` of :class:`RampContext` (its defaults if none)."""
    basis, H = chain(L, n)
    bond = middle_bond(L)
    base = BondCouplings.uniform(L).with_bond(bond, 0.0)
    _, Hh = chain(L // 2, n // 2)
    g = lowest_two(Hh).ground
    v0 = embed_product(g, g, basis=basis).normalized()
    return RampContext(basis, base, 1.0, v0, lowest_two(H).ground, **settings)


# ----------------------------------------------------------------- expmv


@contextlib.contextmanager
def krylov_route():
    """Send every ``expmv`` inside the block down the Krylov route, whatever
    the sector size; outside it, sectors below the cutoff go dense."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(propagate, "DENSE_CUTOFF", 0)
        yield


#: The dense route (below the cutoff) and the forced Krylov route.
ROUTES = (contextlib.nullcontext, krylov_route)


@given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
@settings(deadline=None, max_examples=40)
def test_expmv_matches_dense_exponential(seed, t):
    rng = np.random.default_rng(seed)
    basis, _ = chain(5, 2)
    H = build_hamiltonian(basis, BondCouplings(rng.uniform(-2.0, 2.0, 4)))
    v = random_state(basis, rng)
    ref = scipy.linalg.expm(-1j * t * H.matrix.toarray()) @ v.amps
    for route in ROUTES:  # dim 10: the dense route unless forced
        with route():
            out = expmv(H, t, v)
        assert np.linalg.norm(out.amps - ref) < 1e-10


def test_expmv_paths_agree_with_substepping():
    # t * ||H|| far beyond one Krylov step, so the substep loop engages
    basis, H = chain(8, 4)
    v = random_state(basis)
    a = expmv(H, 25.0, v)  # dim 70: the dense route
    with krylov_route():
        b = expmv(H, 25.0, v)
    assert np.linalg.norm(a.amps - b.amps) < 1e-9


@given(st.integers(0, 2**32 - 1), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
@settings(deadline=None, max_examples=30)
def test_expmv_unitary_and_composes(seed, t1, t2):
    basis, H = chain(6, 3)
    v = random_state(basis, np.random.default_rng(seed))
    once = expmv(H, t1 + t2, v)
    twice = expmv(H, t2, expmv(H, t1, v))
    assert abs(once.norm() - 1.0) < 1e-9
    assert np.linalg.norm(once.amps - twice.amps) < 1e-9


def test_expmv_conserves_energy():
    basis, H = chain(6, 2)
    v = random_state(basis)
    before = np.vdot(v.amps, H.matrix @ v.amps).real
    out = expmv(H, 3.7, v)
    after = np.vdot(out.amps, H.matrix @ out.amps).real
    assert after == pytest.approx(before, abs=1e-9)


def test_expmv_zero_time_is_identity():
    basis, H = chain(4, 2)
    v = random_state(basis)
    out = expmv(H, 0.0, v)
    assert np.allclose(out.amps, v.amps, atol=1e-14)


def test_expmv_krylov_breakdown_on_eigenvector(monkeypatch):
    # one live bond pairs the configurations: equal amplitudes on each pair
    # span its E = +J eigenspace, opposite ones the E = -J eigenspace
    basis = enumerate_sector(12, 6)
    J = np.zeros(11)
    J[0] = 0.7
    H = build_hamiltonian(basis, BondCouplings(J))
    rows, cols = H.matrix.nonzero()
    pairs = rows < cols
    phases = np.exp(1j * np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, pairs.sum()))
    up = np.zeros(basis.dim, dtype=np.complex128)
    up[rows[pairs]] = phases
    up[cols[pairs]] = phases
    down = np.zeros_like(up)
    down[rows[pairs]] = phases
    down[cols[pairs]] = -phases
    # an eigenvector accurate to 1e-15, as a dense eigensolver returns one:
    # the Lanczos residual is tiny but nonzero, so only breakdown stops it
    v = StateVector(basis, (up + 1e-15 * down) / np.linalg.norm(up))
    t = 2.3
    # a one-vector budget at zero tolerance returns only through breakdown
    monkeypatch.setattr(propagate, "MAX_KRYLOV", 1)
    out = expmv(H, t, v, tol=0.0)  # dim 924: the Krylov route
    assert np.linalg.norm(out.amps - np.exp(-0.7j * t) * v.amps) < 1e-12


def test_expmv_krylov_stall_raises_with_residual(monkeypatch):
    basis, H = chain(10, 5)
    v = random_state(basis)
    monkeypatch.setattr(propagate, "MAX_KRYLOV", 2)
    with pytest.raises(PropagationError, match="stalled") as info, krylov_route():
        expmv(H, 5.0, v, tol=1e-14)
    assert math.isfinite(info.value.residual)
    assert info.value.residual > 1e-14


@pytest.mark.parametrize("kind", ["complex", "real", "imaginary"])
def test_expmv_auto_krylov_matches_dense_above_cutoff(kind, monkeypatch):
    basis, H = chain(12, 6)  # dim 924: the sector size picks the Krylov route
    assert basis.dim >= propagate.DENSE_CUTOFF
    rng = np.random.default_rng(924)
    re, im = rng.standard_normal((2, basis.dim))
    amps = {"complex": re + 1j * im, "real": re + 0j, "imaginary": 1j * im}[kind]
    v = StateVector(basis, amps / np.linalg.norm(amps))
    taken = reductions(monkeypatch)
    auto = expmv(H, 3.0, v)
    assert len(taken) == 1  # the Krylov route ran the symmetry gate
    dense = oracles.dense_expmv(H, 3.0, v)
    assert np.linalg.norm(auto.amps - dense) < 1e-9


def random_coupling_chain_924(seed=924):
    rng = np.random.default_rng(seed)
    basis = enumerate_sector(12, 6)
    H = build_hamiltonian(basis, BondCouplings(rng.uniform(-2.0, 2.0, 11)))
    return H, random_state(basis, rng)


@pytest.mark.parametrize("t", [0.3, 7.68, 40.0, 200.0])
def test_expmv_krylov_long_times_match_dense(t):
    # the three-term recurrence keeps no global orthogonality; at t = 200
    # the propagation runs over a hundred substeps, so a drifting basis
    # would show as accumulated error or a norm leak
    H, v = random_coupling_chain_924()
    krylov = expmv(H, t, v)
    dense = oracles.dense_expmv(H, t, v)
    assert np.linalg.norm(krylov.amps - dense) < 1e-9
    assert abs(krylov.norm() - 1.0) < 1e-12


def test_expmv_krylov_escalation_matches_dense(monkeypatch):
    H, v = random_coupling_chain_924()
    stalls = []
    substep = propagate._lanczos_substep

    def counted(*args):
        try:
            return substep(*args)
        except propagate._SubstepStall:
            stalls.append(args[2])
            raise

    monkeypatch.setattr(propagate, "_lanczos_substep", counted)
    # four basis vectors are too few for one substep, so the substep
    # count is doubled until the error estimate passes
    monkeypatch.setattr(propagate, "MAX_KRYLOV", 4)
    krylov = expmv(H, 0.1, v, tol=1e-6)
    assert len(set(stalls)) >= 2  # stalled at two or more substep lengths
    dense = oracles.dense_expmv(H, 0.1, v)
    assert np.linalg.norm(krylov.amps - dense) < 1e-6
    assert abs(krylov.norm() - 1.0) < 1e-12


def assert_schedule_is_bit_identical(monkeypatch, run):
    """``run()`` returns the same array, its substeps stopping at the same
    iterations, as when every substep computes the estimate on every iteration."""
    substep = propagate._lanczos_substep
    out = []
    for every_iteration in (False, True):
        stops = []

        def recorded(mat2, x, t, tol_abs, V, check_from=0):
            y, k = substep(mat2, x, t, tol_abs, V, 0 if every_iteration else check_from)
            stops.append(k)
            return y, k

        with monkeypatch.context() as m:
            m.setattr(propagate, "_lanczos_substep", recorded)
            out.append((run(), stops))
    (scheduled, stops), (every, every_stops) = out
    assert stops == every_stops
    assert np.array_equal(scheduled, every)


@pytest.mark.parametrize("t", [0.3, 7.68, 40.0])
@pytest.mark.parametrize("L, n", [(12, 6), (14, 6)], ids=["d924", "d3003"])
def test_expmv_estimate_schedule_is_bit_identical(L, n, t, monkeypatch):
    rng = np.random.default_rng(L)
    basis = enumerate_sector(L, n)
    H = build_hamiltonian(basis, BondCouplings(rng.uniform(-2.0, 2.0, L - 1)))
    v = random_state(basis, rng)
    assert_schedule_is_bit_identical(
        monkeypatch, lambda: expmv(H, t, v).amps)


@pytest.mark.parametrize("L, n", [(12, 6), (14, 6)], ids=["d924", "d3003"])
def test_expmv_sequence_schedule_is_bit_identical(L, n, monkeypatch):
    # calls on one H carry the stop hint from one to the next, whatever t
    rng = np.random.default_rng(L + 1)
    basis = enumerate_sector(L, n)
    H = build_hamiltonian(basis, BondCouplings(rng.uniform(-2.0, 2.0, L - 1)))
    v = random_state(basis, rng)
    times = (7.68, 0.3, 40.0, -0.3, 0.05, 7.68)
    assert_schedule_is_bit_identical(
        monkeypatch,
        lambda: np.concatenate([expmv(H, t, v).amps for t in times]))


def test_expmv_keeps_one_propagator_per_hamiltonian(monkeypatch):
    # each H of its own sector: operators are kept per sector and couplings
    H, v = random_coupling_chain_924()
    fresh = [random_coupling_chain_924()[0] for _ in range(3)]
    doubled = counted_calls(monkeypatch, "_doubled")
    eig = counted_calls(monkeypatch, "_tridiag_eig")
    times = (0.3, 0.2, 0.3)
    for t, H_new in zip(times, fresh):
        expmv(H_new, t, v)
    assert len(doubled) == 3
    n_fresh = len(eig)
    doubled.clear()
    eig.clear()
    for t in times:
        expmv(H, t, v)
    assert len(doubled) == 1  # built on the first call only
    assert len(eig) < n_fresh  # later calls start their estimates near the last stop


def even_state(basis, rng):
    """A random normalized state in the range of the symmetric isometry."""
    P = basis.symmetric_isometry
    x = rng.standard_normal(P.shape[1]) + 1j * rng.standard_normal(P.shape[1])
    return StateVector(basis, P @ (x / np.linalg.norm(x)))


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
def test_expmv_krylov_on_even_states_matches_dense(L, monkeypatch):
    rng = np.random.default_rng(L)
    for n in range(L + 1):
        basis, H = chain(L, n)
        v = even_state(basis, rng)
        taken = reductions(monkeypatch)
        with krylov_route():
            krylov = expmv(H, 3.0, v)
        assert taken == [True]
        dense = oracles.dense_expmv(H, 3.0, v)
        assert np.linalg.norm(krylov.amps - dense) < 1e-9


@pytest.mark.parametrize("case", ["random", "nearly-even", "small-nearly-even", "non-palindromic"])
def test_expmv_off_symmetry_runs_in_full_sector_bit_identically(case, monkeypatch):
    rng = np.random.default_rng(1012)
    basis, H = chain(12, 6)
    even = even_state(basis, rng)
    if case == "random":
        v = random_state(basis, rng)
    elif case == "nearly-even":  # 1e-8 from its even part: above the 1e-10 tol
        v = StateVector(basis, even.amps + 1e-8 * random_state(basis, rng).amps)
    elif case == "small-nearly-even":  # the gate is relative: 1e-14 off is 1e-8 of |v|
        v = StateVector(basis, 1e-6 * (even.amps + 1e-8 * random_state(basis, rng).amps))
    else:  # an even state, but H does not commute with the reflection
        H = build_hamiltonian(basis, BondCouplings(rng.uniform(0.5, 1.5, 11)))
        v = even
    taken = reductions(monkeypatch)
    out = expmv(H, 2.7, v)
    assert taken == [False]
    # the full-sector Krylov propagation on build_hamiltonian's own CSR
    x = propagate._split(v.amps)
    V = np.empty((propagate.MAX_KRYLOV + 1, x.size))
    ref, _ = propagate._krylov_propagate(
        propagate._doubled(H.matrix), norm_inf(H.matrix), x, 2.7, 1e-10, V)
    assert np.array_equal(out.amps, propagate._join(ref))


def test_krylov_expmv_builds_no_hamiltonian_matrix():
    # the operator records ||H||_inf from the CSR it assembles itself
    basis, H = chain(14, 6)
    assert basis.dim >= propagate.DENSE_CUTOFF
    expmv(H, 0.5, random_state(basis))
    assert "matrix" not in H.__dict__


def test_expmv_gate_is_relative_to_the_norm(monkeypatch):
    # an unnormalized nearly-even state, 1e-12 of |v| off: 1e-8 in absolute terms
    rng = np.random.default_rng(1013)
    basis, H = chain(12, 6)
    v = StateVector(basis, 1e4 * (even_state(basis, rng).amps
                                  + 1e-12 * random_state(basis, rng).amps))
    taken = reductions(monkeypatch)
    out = expmv(H, 2.7, v)
    assert taken == [True]
    dense = oracles.dense_expmv(H, 2.7, v)
    assert np.linalg.norm(out.amps - dense) < 1e-9 * v.norm()


def test_expmv_keeps_one_reduced_propagator_per_hamiltonian(monkeypatch):
    basis, H = chain(12, 6)
    rng = np.random.default_rng(1014)
    even, odd = even_state(basis, rng), random_state(basis, rng)
    doubled = counted_calls(monkeypatch, "_doubled")
    for t in (0.3, 0.2, 0.3):
        expmv(H, t, even)
    assert len(doubled) == 1  # P^T H P, built on the first call only
    m = basis.symmetric_isometry.shape[1]
    assert [op.mat2.shape for op in basis._operators.values()] == [(2 * m, 2 * m)]
    expmv(H, 0.3, odd)
    assert len(doubled) == 2  # the full-sector propagator beside it
    expmv(H, 0.3, even)
    expmv(H, 0.3, odd)
    assert len(doubled) == 2
    assert len(basis._operators) == 2


def operator_run(method, L, n):
    """A fresh sector, so nothing is cached on it, and a call that builds
    its Krylov operator: ``expmv`` of a random state (the full sector) or
    of the even product of half grounds, or a ramp of that product."""
    basis = enumerate_sector(L, n)
    H = build_hamiltonian(basis, BondCouplings.uniform(L))
    if method == "krylov":
        v = random_state(basis, np.random.default_rng(L))
        return basis, lambda: expmv(H, 0.5, v)  # dim >= 400: the Krylov route
    ctx = ramp_context(L, n)
    v = StateVector(basis, ctx.v0.amps)
    if method == "krylov-even":
        return basis, lambda: expmv(H, 0.5, v)
    return basis, lambda: adiabatic_ramp(v, basis, ctx.base, RampSchedule(1.0, 4, 1.0))


@pytest.mark.parametrize("method", ["krylov", "krylov-even", "ramp"])
def test_krylov_workspace_beyond_memory_raises_before_allocating(method, monkeypatch, needs):
    # the even product runs in the symmetric subspace, a random state in
    # the full sector; the operator's whole need, the isometry's build
    # with it where that comes first, is checked before any of it is built
    _, run = operator_run(method, 12, 6)
    run()
    need = max(needs)

    def no_pattern(*args, **kwargs):
        raise AssertionError("the operator was built")

    basis, run = operator_run(method, 12, 6)
    monkeypatch.setattr(spin_model, "_physical_memory", lambda: need - 1)
    with monkeypatch.context() as m:
        m.setattr(propagate, "_hop_pattern", no_pattern)
        with pytest.raises(CapacityError, match="exceeds"):
            run()
    assert basis._operators == {}
    assert ("symmetric_isometry" in vars(basis)) == (method == "krylov")
    monkeypatch.setattr(spin_model, "_physical_memory", lambda: need)
    assert abs(run().norm() - 1.0) < 1e-12
    monkeypatch.setattr(spin_model, "_physical_memory", lambda: None)  # unknown: no limit
    assert abs(run().norm() - 1.0) < 1e-12


@pytest.mark.parametrize("method, L", [
    ("krylov", 16), ("krylov", 18), ("krylov-even", 16), ("krylov-even", 20),
    ("ramp", 16), ("ramp", 20),
])
def test_operator_need_bounds_the_traced_peak(method, L, needs):
    # the largest need a call checks covers all it allocates: the
    # isometry, the reduction, the operator's build and the propagation,
    # the configurations included
    basis, run = operator_run(method, L, L // 2)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1] + basis.configs.nbytes
    finally:
        tracemalloc.stop()
    assert max(needs) >= peak


@pytest.mark.parametrize("method", ["krylov-even", "ramp"])
def test_operator_beyond_memory_allocates_nothing_sector_sized(method, monkeypatch, needs):
    # one byte short of the priced need, the call raises before the
    # isometry, the pattern or the workspace: it holds at most four state
    # vectors' worth
    _, run = operator_run(method, 16, 8)
    run()
    basis, run = operator_run(method, 16, 8)
    monkeypatch.setattr(spin_model, "_physical_memory", lambda: max(needs) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * basis.dim


def test_orbit_count_is_the_isometry_width():
    for L in range(1, 15):
        for n in range(L + 1):
            basis = enumerate_sector(L, n)
            assert propagate._orbit_count(basis) == basis.symmetric_isometry.shape[1], (L, n)


def test_physical_memory_is_read():
    assert spin_model._physical_memory() > 0


def test_substep_walks_back_to_the_first_passing_estimate():
    # a full-length substep; estimates computed only from past its stop
    # must walk back to it and return the same block
    H, v = random_coupling_chain_924()
    x = propagate._split(v.amps)
    mat2 = propagate._doubled(H.matrix)
    V = np.empty((propagate.MAX_KRYLOV + 1, x.size))
    dt = propagate._THETA_SUB / norm_inf(H.matrix)
    ref, stop = propagate._lanczos_substep(mat2, x, dt, 1e-10, V)
    assert 10 < stop < propagate.MAX_KRYLOV - 8
    for check_from in (1, stop - 1, stop, stop + 1, stop + 8):
        y, k = propagate._lanczos_substep(mat2, x, dt, 1e-10, V, check_from)
        assert k == stop
        assert np.array_equal(y, ref)


def test_expmv_argument_errors():
    basis, H = chain(4, 2)
    v = random_state(basis)
    with pytest.raises(ValueError):
        expmv(H, 1.0, random_state(enumerate_sector(4, 1)))
    for route in ROUTES:
        for tol in (-1e-10, float("nan")):
            with pytest.raises(ValueError, match="tolerance"), route():
                expmv(H, 1.0, v, tol=tol)


# -------------------------------------------------------------- schedule


def test_ramp_schedule_is_linear():
    sched = RampSchedule(8.0, 16, 0.75)
    for s in (0.0, 2.0, 4.0, 8.0):
        assert sched.coupling_at(s) == pytest.approx(0.75 * s / 8.0, abs=1e-15)
    for T_A in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            RampSchedule(T_A, 4, 1.0)
    with pytest.raises(ValueError):
        RampSchedule(1.0, 0, 1.0)


def test_adiabatic_ramp_argument_errors():
    ctx = ramp_context(4, 2)
    sched = RampSchedule(1.0, 4, 1.0)
    with pytest.raises(ValueError):
        adiabatic_ramp(ctx.v0, ctx.basis, BondCouplings.uniform(6).with_bond(1, 0.0), sched)
    with pytest.raises(ValueError):
        adiabatic_ramp(ctx.v0, ctx.basis, BondCouplings.uniform(4), sched)  # bond not cut
    doubled = StateVector(ctx.basis, 2.0 * ctx.v0.amps)
    with pytest.raises(ValueError):
        adiabatic_ramp(doubled, ctx.basis, ctx.base, sched)
    foreign = basis_state(enumerate_sector(4, 1), 0b0001)
    with pytest.raises(ValueError, match="sector"):
        adiabatic_ramp(foreign, ctx.basis, ctx.base, sched)
    for tol in (0.0, -1.0, math.nan, 1.0):
        with pytest.raises(ValueError, match="tolerance"):
            adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched, tol=tol)


@given(st.sampled_from([4, 6, 8, 10]), st.data())
@settings(deadline=None, max_examples=30)
def test_bond_split_shares_pattern_and_refills_exactly(L, data):
    n = data.draw(st.integers(0, L))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bond = middle_bond(L)
    J = rng.uniform(-2.0, 2.0, L - 1)
    J[bond] = 0.0
    J[rng.choice([b for b in range(L - 1) if b != bond])] = 0.0
    base = BondCouplings(J)
    op = propagate._Operator(enumerate_sector(L, n), base, bond, None)
    mat = op.mat2
    assert mat.has_canonical_format
    # every lambda is written over the last: both halves of the doubled
    # matrix must hold exactly the dense Hamiltonian at that coupling
    for lam in data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)):
        op.set(lam)
        _, ref = oracles.dense_hamiltonian(L, n, base.with_bond(bond, lam).J)
        assert np.array_equal(mat.toarray(), scipy.linalg.block_diag(ref, ref))


def test_adiabatic_ramp_zero_duration_is_identity():
    ctx = ramp_context(4, 2)
    out = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, RampSchedule(0.0, 1, 1.0))
    assert np.allclose(out.amps, ctx.v0.amps, atol=1e-15)


def stepwise_expm(v0, basis, base, schedule):
    """The midpoint product assembled from dense exponentials."""
    amps = v0.amps.copy()
    ds = schedule.T_A / schedule.steps
    for k in range(schedule.steps):
        lam = schedule.coupling_at((k + 0.5) * ds)
        Hk = build_hamiltonian(basis, base.with_bond(middle_bond(basis.L), lam)).matrix.toarray()
        amps = scipy.linalg.expm(-1j * ds * Hk) @ amps
    return amps


@pytest.mark.parametrize("L, n", [(4, 2), (8, 2), (8, 4)], ids=["d6", "d28", "d70"])
def test_adiabatic_ramp_matches_stepwise_expm(L, n):
    # independent reference: the same midpoint product assembled from
    # scipy dense exponentials of the full stepped Hamiltonian
    ctx = ramp_context(L, n)
    sched = RampSchedule(2.5, 12, 1.0)
    out = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched)
    ref = stepwise_expm(ctx.v0, ctx.basis, ctx.base, sched)
    assert np.linalg.norm(out.amps - ref) < 1e-10


def full_space(monkeypatch):
    """Run every ramp from now on in the full sector."""
    monkeypatch.setattr(propagate, "_symmetric_reduction", lambda *args: None)


def reductions(monkeypatch):
    """List that collects whether each ramp from now on runs in the symmetric subspace."""
    taken = []
    reduce = propagate._symmetric_reduction

    def recorded(*args):
        out = reduce(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(propagate, "_symmetric_reduction", recorded)
    return taken


RAMP_SECTORS = [(L, n) for L in (4, 6, 8, 10, 12) for n in range(2, L - 1, 2)]


@pytest.mark.parametrize("L, n", RAMP_SECTORS)
def test_symmetric_ramp_matches_full_space_ramp(L, n, monkeypatch):
    ctx = ramp_context(L, n)
    sched = RampSchedule(6.0, 40, 1.0)
    taken = reductions(monkeypatch)
    reduced = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched)
    assert taken == [True]
    full_space(monkeypatch)
    full = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched)
    assert np.linalg.norm(reduced.amps - full.amps) <= 1e-12


def full_space_reference(v0, basis, base, schedule, tol=1e-10):
    """The midpoint ramp in the full sector, written out step by step on
    ``build_hamiltonian``'s CSR of every step's couplings: the arithmetic the
    full-sector path keeps bit for bit."""
    ds = schedule.T_A / schedule.steps
    nb = norm_inf(build_hamiltonian(basis, base).matrix)
    x, k_stop = propagate._split(v0.amps), 0
    V = np.empty((propagate.MAX_KRYLOV + 1, x.size))
    for k in range(schedule.steps):
        lam = schedule.coupling_at((k + 0.5) * ds)
        H = build_hamiltonian(basis, base.with_bond(middle_bond(basis.L), lam))
        x, k_stop = propagate._krylov_propagate(
            propagate._doubled(H.matrix), nb + abs(lam), x, ds, tol / schedule.steps, V, k_stop)
    return propagate._join(x)


@pytest.mark.parametrize("case", ["odd-v0", "nearly-even-v0", "non-palindromic"])
@pytest.mark.parametrize("L, n", [(8, 4), (10, 4)])
def test_ramp_off_symmetry_runs_in_full_sector_bit_identically(L, n, case, monkeypatch):
    ctx = ramp_context(L, n)
    rng = np.random.default_rng(L * 100 + n)
    v0, base = ctx.v0, ctx.base
    if case == "odd-v0":
        v0 = random_state(ctx.basis, rng)
    elif case == "nearly-even-v0":  # 1e-8 from its even part: above the 1e-10 tol
        v0 = StateVector(ctx.basis, v0.amps + 1e-8 * random_state(ctx.basis, rng).amps).normalized()
    else:
        J = rng.uniform(0.5, 1.5, L - 1)
        J[middle_bond(L)] = 0.0
        base = BondCouplings(J)
    sched = RampSchedule(4.0, 24, 1.0)
    taken = reductions(monkeypatch)
    out = adiabatic_ramp(v0, ctx.basis, base, sched)
    assert taken == [False]
    assert np.array_equal(out.amps, full_space_reference(v0, ctx.basis, base, sched))
    assert np.linalg.norm(out.amps - stepwise_expm(v0, ctx.basis, base, sched)) < 1e-10


def test_ramp_within_tol_of_even_runs_in_symmetric_subspace(monkeypatch):
    ctx = ramp_context(8, 4)
    odd = random_state(ctx.basis).amps
    v0 = StateVector(ctx.basis, ctx.v0.amps + 1e-12 * odd).normalized()
    sched = RampSchedule(4.0, 24, 1.0)
    taken = reductions(monkeypatch)
    out = adiabatic_ramp(v0, ctx.basis, ctx.base, sched)
    assert taken == [True]
    assert np.linalg.norm(out.amps - stepwise_expm(v0, ctx.basis, ctx.base, sched)) < 1e-10


@pytest.mark.parametrize("L, n", [(4, 2), (8, 4), (16, 4)], ids=["d6", "d70", "d1820"])
def test_ramp_estimate_schedule_is_bit_identical(L, n, monkeypatch):
    ctx = ramp_context(L, n)
    sched = RampSchedule(9.0, 48, 1.0)
    assert_schedule_is_bit_identical(
        monkeypatch, lambda: adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched).amps)


def counted_calls(monkeypatch, name):
    """List that grows by one entry per call of ``propagate.<name>`` from now on."""
    calls = []
    f = getattr(propagate, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return f(*args, **kwargs)

    monkeypatch.setattr(propagate, name, counted)
    return calls


def test_ramp_computes_few_estimates_per_substep(monkeypatch):
    # consecutive steps stop at nearly the same iteration, so checking the
    # estimate only near the last stop needs two or three per substep
    # where checking every iteration needs about eleven
    ctx = ramp_context(16, 4)  # dim 1820, kept in the full sector
    full_space(monkeypatch)
    eig = counted_calls(monkeypatch, "_tridiag_eig")
    substeps = counted_calls(monkeypatch, "_lanczos_substep")
    adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, RampSchedule(9.0, 32, 1.0))
    assert len(substeps) >= 32
    assert len(eig) <= 3 * len(substeps)


@pytest.mark.parametrize("L, n", [(4, 2), (8, 4)])
def test_adiabatic_ramp_needs_no_dense_eigensolver(L, n, monkeypatch):
    ctx = ramp_context(L, n)

    def no_eigh(*args, **kwargs):
        raise AssertionError("the ramp called a dense eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    out = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, RampSchedule(3.0, 24, 1.0))
    assert abs(out.norm() - 1.0) < 1e-12


def test_longer_ramps_prepare_better_states():
    ctx = ramp_context(4, 2)
    fids = []
    for T in (1.0, 4.0, 16.0):
        out = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, RampSchedule(T, 256, 1.0))
        fids.append(infidelity(out.normalized(), ctx.target))
    assert fids[0] > fids[1] > fids[2]


# ------------------------------------------------------- converged ramps


def test_converged_ramp_golden_L4():
    res = converged_ramp(ramp_context(4, 2), 8.0, step_tol=1e-4)
    assert res.infidelity == pytest.approx(0.0011578332753401366, rel=1e-9)
    assert res.steps == 64


def test_converged_ramp_tightening_tolerance_refines():
    ctx = ramp_context(4, 2)
    loose = converged_ramp(ctx, 4.0, step_tol=1e-3)
    tight = converged_ramp(ctx, 4.0, step_tol=1e-6)
    assert tight.steps > loose.steps
    # both are converged estimates of the same continuum value
    assert loose.infidelity == pytest.approx(tight.infidelity, abs=5e-3)


def test_converged_ramp_rejects_bad_tolerance(monkeypatch):
    def no_ramp(*args, **kwargs):
        raise AssertionError("a ramp was integrated")

    monkeypatch.setattr(propagate, "adiabatic_ramp", no_ramp)
    # the context checks its Krylov tolerance once, before any probe
    for tol in (0.0, -1.0, math.nan, 1.0):
        with pytest.raises(ValueError, match="tolerance"):
            dataclasses.replace(ramp_context(4, 2), tol=tol)


def test_converged_ramp_step_cap(monkeypatch):
    monkeypatch.setattr(propagate, "MAX_RAMP_STEPS", 32)
    with pytest.raises(StepRefinementError):
        converged_ramp(ramp_context(4, 2), 1.0, step_tol=0.0)


def test_ramp_search_golden_L4():
    # doubling grid with three bisection refinements, as the experiments use
    res = ramp_time_for_infidelity(1e-3, ramp_context(4, 2, bisections=3))
    assert res.T_A == 9.0
    assert res.infidelity == pytest.approx(3.714410696875614e-05, rel=1e-6)
    assert res.infidelity <= 1e-3


def test_ramp_search_without_refinement_lands_on_grid():
    res = ramp_time_for_infidelity(1e-2, ramp_context(4, 2))
    assert res.T_A == 4.0  # probes 1, 2 miss; 4 is the first pass
    assert res.infidelity <= 1e-2


def counted_ramps(monkeypatch):
    """List that collects (T_A, steps) of every ramp integrated from now on."""
    ramps = []
    ramp = propagate.adiabatic_ramp

    def counted(v0, basis, base, schedule, **kwargs):
        ramps.append((schedule.T_A, schedule.steps))
        return ramp(v0, basis, base, schedule, **kwargs)

    monkeypatch.setattr(propagate, "adiabatic_ramp", counted)
    return ramps


def fresh_context(L, n, **settings):
    """``ramp_context(L, n)`` with the search ``settings`` given, holding
    no ramps yet; the cached one may."""
    return dataclasses.replace(ramp_context(L, n), **settings)


def test_ramp_search_shares_probe_cache(monkeypatch):
    ctx = fresh_context(4, 2)
    ramps = counted_ramps(monkeypatch)
    first = ramp_time_for_infidelity(1e-2, ctx, step_tol=1e-4)
    n_first = len(ctx._ramps)
    assert n_first >= 3 and ramps
    ramps.clear()
    second = ramp_time_for_infidelity(1e-2, ctx, step_tol=1e-4)
    assert ramps == []  # second search reuses every probe
    assert len(ctx._ramps) == n_first
    assert second is first


def test_ramp_search_stops_bisecting_once_the_bracket_cannot_shrink():
    # about fifty halvings leave a bracket one float wide; any later round
    # would repeat a probe, so a huge count returns what 60 rounds return
    many, sixty = (ramp_time_for_infidelity(1e-3, fresh_context(4, 2, bisections=k))
                   for k in (10**11, 60))
    assert (many.T_A, many.steps, many.infidelity) == (sixty.T_A, sixty.steps, sixty.infidelity)
    assert many.state.amps.tobytes() == sixty.state.amps.tobytes()


def test_ramp_search_cache_order_does_not_matter():
    # the tight search leaves probes it stopped early; the loose one resumes them
    ctx = fresh_context(4, 2)
    ramp_time_for_infidelity(1e-3, ctx)
    shared = ramp_time_for_infidelity(1e-2, ctx)
    fresh = ramp_time_for_infidelity(1e-2, fresh_context(4, 2))
    assert (shared.T_A, shared.steps, shared.infidelity) == (
        fresh.T_A, fresh.steps, fresh.infidelity)
    assert shared.state.amps.tobytes() == fresh.state.amps.tobytes()


def test_ramp_search_cap_failure_reports_best(monkeypatch):
    ctx = fresh_context(4, 2, T_cap=2.0)
    # a step_tol looser than default_step_tol(1e-9) = 1e-10 keeps both probes
    # short; they still stop early first, then converge in full on failure
    step_tol = 1e-5
    with pytest.raises(RampSearchError) as err:
        ramp_time_for_infidelity(1e-9, ctx, step_tol=step_tol)
    # the best of the fully converged probes, none stopped early; the kept
    # ramps spare integrating them again
    ramps = counted_ramps(monkeypatch)
    best = min(converged_ramp(ctx, T, step_tol=step_tol).infidelity for T in (1.0, 2.0))
    assert ramps == []
    assert err.value.best_infidelity == best


def test_ramps_are_kept_per_krylov_tolerance(monkeypatch):
    # each context has one Krylov tolerance: two at different tols share no ramps
    loose_ctx, tight_ctx = fresh_context(4, 2, tol=1e-8), fresh_context(4, 2, tol=1e-10)
    ramps = counted_ramps(monkeypatch)
    loose = converged_ramp(loose_ctx, 2.0, step_tol=1e-4)
    n_loose = len(ramps)
    assert n_loose >= 2 and list(loose_ctx._ramps) == ramps
    converged_ramp(tight_ctx, 2.0, step_tol=1e-4)
    # the same (T_A, steps) ramps again, integrated anew at the tighter tol
    assert ramps[n_loose:] == ramps[:n_loose]
    assert tight_ctx._ramps.keys() == loose_ctx._ramps.keys()
    assert converged_ramp(loose_ctx, 2.0, step_tol=1e-4) is loose
    assert len(ramps) == 2 * n_loose


def test_ramp_context_keeps_its_ramps_out_of_equality():
    ctx = fresh_context(4, 2)
    converged_ramp(ctx, 1.0, step_tol=1e-4)
    assert ctx._ramps and ctx == ramp_context(4, 2)
    assert "_ramps" not in repr(ctx)


def test_converged_ramp_stops_early_only_when_certain_to_miss():
    ctx = ramp_context(8, 4)
    full = converged_ramp(ctx, 2.0, step_tol=1e-5)
    early = converged_ramp(ctx, 2.0, step_tol=1e-5, target=1e-3)
    assert early.steps < full.steps
    assert early.infidelity > 1e-3 and full.infidelity > 1e-3
    # a target the probe reaches, or none, converges in full
    for target in (0.9, None):
        again = converged_ramp(ctx, 2.0, step_tol=1e-5, target=target)
        assert (again.steps, again.infidelity) == (full.steps, full.infidelity)


@settings(max_examples=12, deadline=None)
@given(
    st.floats(-4.0, -1.0),
    st.sampled_from([(4, 2), (8, 2), (8, 4)]),
    st.integers(0, 3),
)
def test_ramp_search_matches_fully_converged_search(log_target, sector, bisections):
    target = 10.0**log_target
    ctx = ramp_context(*sector, bisections=bisections)
    res = ramp_time_for_infidelity(target, ctx)
    T_A, fid, state, steps = oracles.ramp_search(target, ctx, bisections)
    assert (res.T_A, res.steps, res.infidelity) == (T_A, steps, fid)
    assert res.state.amps.tobytes() == state.amps.tobytes()


def test_ramp_search_argument_errors(monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("a ramp was probed")

    monkeypatch.setattr(propagate, "converged_ramp", no_probe)
    ctx = ramp_context(4, 2)
    for target, bad in ((0.0, {}), (1.5, {}), (1e-2, dict(step_tol=0.0))):
        with pytest.raises(ValueError):
            ramp_time_for_infidelity(target, ctx, **bad)
    # the search settings are the context's, checked when it is made
    for bad, message in ((dict(T_start=0.0), "first ramp duration"),
                         (dict(T_start=4.0, T_cap=2.0), "duration cap"),
                         (dict(T_cap=math.inf), "duration cap"),
                         (dict(bisections=-1), "bisections"),
                         (dict(tol=0.0), "expmv tolerance"),
                         (dict(tol=math.nan), "expmv tolerance"),
                         (dict(tol=1.0), "expmv tolerance"),
                         (dict(tol=math.inf), "expmv tolerance")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ctx, **bad)


def test_ramp_and_expmv_keep_the_parameter_names_the_benchmark_binds():
    # perfbench/tracing.py binds each call to these signatures and reads
    # ``basis`` and ``schedule`` (the .d<dim> ramp metrics) and ``t``
    ctx = ramp_context(4, 2)
    sched = RampSchedule(1.0, 4, 1.0)
    bound = inspect.signature(adiabatic_ramp).bind(ctx.v0, ctx.basis, ctx.base, sched)
    assert bound.arguments["basis"] is ctx.basis
    assert bound.arguments["schedule"] is sched
    H = build_hamiltonian(ctx.basis, BondCouplings.uniform(4))
    assert inspect.signature(expmv).bind(H, 0.5, ctx.v0).arguments["t"] == 0.5
