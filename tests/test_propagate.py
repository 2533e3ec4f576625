"""Time evolution and the adiabatic middle-bond ramp."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import xxfusion.propagate as propagate
from xxfusion import (
    BondCouplings,
    PropagationError,
    RampContext,
    RampSchedule,
    RampSearchError,
    StateVector,
    StepRefinementError,
    adiabatic_ramp,
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


def ramp_context(L, n):
    """Product of exact half grounds ramping toward the fused ground."""
    basis, H = chain(L, n)
    bond = middle_bond(L)
    base = BondCouplings.uniform(L).with_bond(bond, 0.0)
    _, Hh = chain(L // 2, n // 2)
    g = lowest_two(Hh).ground
    v0 = embed_product(g, g, basis=basis).normalized()
    return RampContext(basis, base, bond, 1.0, v0, lowest_two(H).ground)


# ----------------------------------------------------------------- expmv


@given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
@settings(deadline=None, max_examples=40)
def test_expmv_matches_dense_exponential(seed, t):
    rng = np.random.default_rng(seed)
    basis, _ = chain(5, 2)
    H = build_hamiltonian(basis, BondCouplings(rng.uniform(-2.0, 2.0, 4)))
    v = random_state(basis, rng)
    ref = scipy.linalg.expm(-1j * t * H.matrix.toarray()) @ v.amps
    for method in ("dense", "krylov"):
        out = expmv(H, t, v, method=method)
        assert np.linalg.norm(out.amps - ref) < 1e-10


def test_expmv_paths_agree_with_substepping():
    # t * ||H|| far beyond one Krylov step, so the substep loop engages
    basis, H = chain(8, 4)
    v = random_state(basis)
    a = expmv(H, 25.0, v, method="dense")
    b = expmv(H, 25.0, v, method="krylov")
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


def test_expmv_krylov_breakdown_on_eigenvector():
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
    out = expmv(H, t, v, tol=0.0, method="krylov", max_krylov=1)
    assert np.linalg.norm(out.amps - np.exp(-0.7j * t) * v.amps) < 1e-12


def test_expmv_krylov_stall_raises_with_residual():
    basis, H = chain(10, 5)
    v = random_state(basis)
    with pytest.raises(PropagationError, match="stalled") as info:
        expmv(H, 5.0, v, tol=1e-14, method="krylov", max_krylov=2)
    assert math.isfinite(info.value.residual)
    assert info.value.residual > 1e-14


@pytest.mark.parametrize("kind", ["complex", "real", "imaginary"])
def test_expmv_auto_krylov_matches_dense_above_cutoff(kind):
    basis, H = chain(12, 6)  # dim 924: "auto" takes the Krylov route
    assert basis.dim >= propagate.DENSE_CUTOFF
    rng = np.random.default_rng(924)
    re, im = rng.standard_normal((2, basis.dim))
    amps = {"complex": re + 1j * im, "real": re + 0j, "imaginary": 1j * im}[kind]
    v = StateVector(basis, amps / np.linalg.norm(amps))
    auto = expmv(H, 3.0, v)
    dense = expmv(H, 3.0, v, method="dense")
    assert np.linalg.norm(auto.amps - dense.amps) < 1e-9


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
    krylov = expmv(H, t, v, method="krylov")
    dense = expmv(H, t, v, method="dense")
    assert np.linalg.norm(krylov.amps - dense.amps) < 1e-9
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
    krylov = expmv(H, 0.1, v, tol=1e-6, method="krylov", max_krylov=4)
    assert len(set(stalls)) >= 2  # stalled at two or more substep lengths
    dense = expmv(H, 0.1, v, method="dense")
    assert np.linalg.norm(krylov.amps - dense.amps) < 1e-6
    assert abs(krylov.norm() - 1.0) < 1e-12


def test_expmv_argument_errors():
    basis, H = chain(4, 2)
    v = random_state(basis)
    with pytest.raises(ValueError):
        expmv(H, 1.0, v, method="pade")
    with pytest.raises(ValueError):
        expmv(H, 1.0, random_state(enumerate_sector(4, 1)))


# -------------------------------------------------------------- schedule


def test_ramp_schedule_is_linear():
    sched = RampSchedule(8.0, 16, 3, 0.75)
    for s in (0.0, 2.0, 4.0, 8.0):
        assert sched.coupling_at(s) == pytest.approx(0.75 * s / 8.0, abs=1e-15)
    with pytest.raises(ValueError):
        RampSchedule(-1.0, 4, 0, 1.0)
    with pytest.raises(ValueError):
        RampSchedule(1.0, 0, 0, 1.0)


def test_adiabatic_ramp_argument_errors():
    ctx = ramp_context(4, 2)
    sched = RampSchedule(1.0, 4, ctx.bond, 1.0)
    with pytest.raises(ValueError):
        adiabatic_ramp(ctx.v0, ctx.basis, BondCouplings.uniform(6).with_bond(1, 0.0), sched)
    with pytest.raises(ValueError):
        adiabatic_ramp(ctx.v0, ctx.basis, BondCouplings.uniform(4), sched)  # bond not cut
    with pytest.raises(ValueError):
        adiabatic_ramp(
            ctx.v0, ctx.basis, ctx.base, RampSchedule(1.0, 4, 0, 1.0)
        )  # not the middle bond
    doubled = StateVector(ctx.basis, 2.0 * ctx.v0.amps)
    with pytest.raises(ValueError):
        adiabatic_ramp(doubled, ctx.basis, ctx.base, sched)


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
    lam = data.draw(st.floats(-3.0, 3.0))
    base = BondCouplings(J)
    Pb, Pu = propagate._aligned_bond_split(enumerate_sector(L, n), base, bond)
    assert np.array_equal(Pb.indptr, Pu.indptr)
    assert np.array_equal(Pb.indices, Pu.indices)
    assert Pb.has_canonical_format and Pu.has_canonical_format
    mat = Pb.copy()
    np.multiply(Pu.data, lam, out=mat.data)
    mat.data += Pb.data
    _, ref = oracles.dense_hamiltonian(L, n, base.with_bond(bond, lam).J)
    assert np.array_equal(mat.toarray(), ref)


def test_adiabatic_ramp_zero_duration_is_identity():
    ctx = ramp_context(4, 2)
    out = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, RampSchedule(0.0, 1, ctx.bond, 1.0))
    assert np.allclose(out.amps, ctx.v0.amps, atol=1e-15)


@pytest.mark.parametrize("L, n", [(4, 2), (8, 2), (8, 4)], ids=["d6", "d28", "d70"])
def test_adiabatic_ramp_matches_stepwise_expm(L, n):
    # independent reference: the same midpoint product assembled from
    # scipy dense exponentials of the full stepped Hamiltonian
    ctx = ramp_context(L, n)
    steps, T = 12, 2.5
    sched = RampSchedule(T, steps, ctx.bond, 1.0)
    out = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched)
    amps = ctx.v0.amps.copy()
    ds = T / steps
    for k in range(steps):
        lam = sched.coupling_at((k + 0.5) * ds)
        bonds = ctx.base.with_bond(ctx.bond, lam)
        Hk = build_hamiltonian(ctx.basis, bonds).matrix.toarray()
        amps = scipy.linalg.expm(-1j * ds * Hk) @ amps
    assert np.linalg.norm(out.amps - amps) < 1e-10


@pytest.mark.parametrize("L, n", [(4, 2), (8, 4)])
def test_adiabatic_ramp_needs_no_dense_eigensolver(L, n, monkeypatch):
    ctx = ramp_context(L, n)

    def no_eigh(*args, **kwargs):
        raise AssertionError("the ramp called a dense eigensolver")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    out = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, RampSchedule(3.0, 24, ctx.bond, 1.0))
    assert abs(out.norm() - 1.0) < 1e-12


def test_longer_ramps_prepare_better_states():
    ctx = ramp_context(4, 2)
    fids = []
    for T in (1.0, 4.0, 16.0):
        out = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, RampSchedule(T, 256, ctx.bond, 1.0))
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


def test_converged_ramp_step_cap(monkeypatch):
    monkeypatch.setattr(propagate, "MAX_RAMP_STEPS", 32)
    with pytest.raises(StepRefinementError):
        converged_ramp(ramp_context(4, 2), 1.0, step_tol=0.0)


def test_ramp_search_golden_L4():
    # doubling grid with three bisection refinements, as the experiments use
    res = ramp_time_for_infidelity(1e-3, ramp_context(4, 2), refine_bisections=3)
    assert res.T_A == 9.0
    assert res.infidelity == pytest.approx(3.714410696875614e-05, rel=1e-6)
    assert res.infidelity <= 1e-3


def test_ramp_search_without_refinement_lands_on_grid():
    res = ramp_time_for_infidelity(1e-2, ramp_context(4, 2))
    assert res.T_A == 4.0  # probes 1, 2 miss; 4 is the first pass
    assert res.infidelity <= 1e-2


def test_ramp_search_shares_probe_cache():
    ctx = ramp_context(4, 2)
    cache = {}
    ramp_time_for_infidelity(1e-2, ctx, probe_cache=cache, step_tol=1e-4)
    n_first = len(cache)
    assert n_first >= 3
    ramp_time_for_infidelity(1e-2, ctx, probe_cache=cache, step_tol=1e-4)
    assert len(cache) == n_first  # second search reuses every probe


def test_ramp_search_cap_failure_reports_best():
    with pytest.raises(RampSearchError) as err:
        ramp_time_for_infidelity(1e-9, ramp_context(4, 2), T_cap=2.0)
    assert 0.0 < err.value.best_infidelity < 1.0


def test_ramp_search_argument_errors(monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("a ramp was probed")

    monkeypatch.setattr(propagate, "converged_ramp", no_probe)
    ctx = ramp_context(4, 2)
    for target, bad in ((0.0, {}), (1.5, {}), (1e-2, dict(T_start=0.0)),
                        (1e-2, dict(T_start=4.0, T_cap=2.0)),
                        (1e-2, dict(refine_bisections=-1)), (1e-2, dict(step_tol=0.0))):
        with pytest.raises(ValueError):
            ramp_time_for_infidelity(target, ctx, **bad)
