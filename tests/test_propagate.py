"""Time evolution and the adiabatic middle-bond ramp."""

import functools
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


@functools.cache
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
        monkeypatch, lambda: expmv(H, t, v, method="krylov").amps)


def test_substep_walks_back_to_the_first_passing_estimate():
    # a full-length substep; estimates computed only from past its stop
    # must walk back to it and return the same block
    H, v = random_coupling_chain_924()
    x = propagate._split(v.amps)
    mat2 = propagate._doubled(H.matrix)
    V = np.empty((propagate.MAX_KRYLOV + 1, x.size))
    dt = propagate._THETA_SUB / H.norm_inf()
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
        expmv(H, 1.0, v, method="pade")
    with pytest.raises(ValueError):
        expmv(H, 1.0, random_state(enumerate_sector(4, 1)))
    for method in ("dense", "krylov"):
        for tol in (-1e-10, float("nan")):
            with pytest.raises(ValueError, match="tolerance"):
                expmv(H, 1.0, v, tol=tol, method=method)


# -------------------------------------------------------------- schedule


def test_ramp_schedule_is_linear():
    sched = RampSchedule(8.0, 16, 3, 0.75)
    for s in (0.0, 2.0, 4.0, 8.0):
        assert sched.coupling_at(s) == pytest.approx(0.75 * s / 8.0, abs=1e-15)
    for T_A in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration"):
            RampSchedule(T_A, 4, 0, 1.0)
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
    for tol in (0.0, -1.0, math.nan):
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
    mat, ramp = propagate._aligned_bond_split(enumerate_sector(L, n), base, bond)
    assert mat.has_canonical_format
    # every lambda is written over the last: both halves of the doubled
    # matrix must hold exactly the dense Hamiltonian at that coupling
    for lam in data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)):
        mat.data[ramp] = lam
        _, ref = oracles.dense_hamiltonian(L, n, base.with_bond(bond, lam).J)
        assert np.array_equal(mat.toarray(), scipy.linalg.block_diag(ref, ref))


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


@pytest.mark.parametrize("L, n", [(4, 2), (8, 4), (16, 4)], ids=["d6", "d70", "d1820"])
def test_ramp_estimate_schedule_is_bit_identical(L, n, monkeypatch):
    ctx = ramp_context(L, n)
    sched = RampSchedule(9.0, 48, ctx.bond, 1.0)
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
    ctx = ramp_context(16, 4)  # dim 1820
    eig = counted_calls(monkeypatch, "_tridiag_eig")
    substeps = counted_calls(monkeypatch, "_lanczos_substep")
    adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, RampSchedule(9.0, 32, ctx.bond, 1.0))
    assert len(substeps) >= 32
    assert len(eig) <= 3 * len(substeps)


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


def test_converged_ramp_rejects_bad_tolerance(monkeypatch):
    def no_ramp(*args, **kwargs):
        raise AssertionError("a ramp was integrated")

    monkeypatch.setattr(propagate, "adiabatic_ramp", no_ramp)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            converged_ramp(ramp_context(4, 2), 1.0, step_tol=1e-4, tol=tol)


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


def counted_ramps(monkeypatch):
    """List that collects (T_A, steps) of every ramp integrated from now on."""
    ramps = []
    ramp = propagate.adiabatic_ramp

    def counted(v0, basis, base, schedule, **kwargs):
        ramps.append((schedule.T_A, schedule.steps))
        return ramp(v0, basis, base, schedule, **kwargs)

    monkeypatch.setattr(propagate, "adiabatic_ramp", counted)
    return ramps


def test_ramp_search_shares_probe_cache(monkeypatch):
    ctx = ramp_context(4, 2)
    ramps = counted_ramps(monkeypatch)
    cache = {}
    first = ramp_time_for_infidelity(1e-2, ctx, probe_cache=cache, step_tol=1e-4)
    n_first = len(cache)
    assert n_first >= 3 and ramps
    ramps.clear()
    second = ramp_time_for_infidelity(1e-2, ctx, probe_cache=cache, step_tol=1e-4)
    assert ramps == []  # second search reuses every probe
    assert len(cache) == n_first
    assert second is first


def test_ramp_search_cache_order_does_not_matter():
    # the tight search leaves probes it stopped early; the loose one resumes them
    ctx = ramp_context(4, 2)
    cache = {}
    ramp_time_for_infidelity(1e-3, ctx, probe_cache=cache)
    shared = ramp_time_for_infidelity(1e-2, ctx, probe_cache=cache)
    fresh = ramp_time_for_infidelity(1e-2, ctx)
    assert (shared.T_A, shared.steps, shared.infidelity) == (
        fresh.T_A, fresh.steps, fresh.infidelity)
    assert shared.state.amps.tobytes() == fresh.state.amps.tobytes()


def test_ramp_search_cap_failure_reports_best():
    ctx = ramp_context(4, 2)
    cache = {}
    # a step_tol looser than default_step_tol(1e-9) = 1e-10 keeps both probes
    # short; they still stop early first, then converge in full on failure
    step_tol = 1e-5
    with pytest.raises(RampSearchError) as err:
        ramp_time_for_infidelity(1e-9, ctx, T_cap=2.0, step_tol=step_tol, probe_cache=cache)
    # the best of the fully converged probes, none stopped early; the cached
    # ramps spare integrating them again
    best = min(converged_ramp(ctx, T, step_tol=step_tol, cache=cache).infidelity
               for T in (1.0, 2.0))
    assert err.value.best_infidelity == best


def test_converged_ramp_stops_early_only_when_certain_to_miss():
    ctx = ramp_context(8, 4)
    full = converged_ramp(ctx, 2.0, step_tol=1e-5)
    early = converged_ramp(ctx, 2.0, step_tol=1e-5, target=1e-3)
    assert full.converged and not early.converged
    assert early.steps < full.steps
    assert early.infidelity > 1e-3 and full.infidelity > 1e-3
    # a target the probe reaches, or none, converges in full
    for target in (0.9, None):
        again = converged_ramp(ctx, 2.0, step_tol=1e-5, target=target)
        assert again.converged
        assert (again.steps, again.infidelity) == (full.steps, full.infidelity)


@settings(max_examples=12, deadline=None)
@given(
    st.floats(-4.0, -1.0),
    st.sampled_from([(4, 2), (8, 2), (8, 4)]),
    st.integers(0, 3),
)
def test_ramp_search_matches_fully_converged_search(log_target, sector, bisections):
    target = 10.0**log_target
    ctx = ramp_context(*sector)
    res = ramp_time_for_infidelity(target, ctx, refine_bisections=bisections)
    T_A, fid, state, steps = oracles.ramp_search(target, ctx, bisections)
    assert res.converged
    assert (res.T_A, res.steps, res.infidelity) == (T_A, steps, fid)
    assert res.state.amps.tobytes() == state.amps.tobytes()


def test_ramp_search_argument_errors(monkeypatch):
    def no_probe(*args, **kwargs):
        raise AssertionError("a ramp was probed")

    monkeypatch.setattr(propagate, "converged_ramp", no_probe)
    ctx = ramp_context(4, 2)
    for target, bad in ((0.0, {}), (1.5, {}), (1e-2, dict(T_start=0.0)),
                        (1e-2, dict(T_start=4.0, T_cap=2.0)),
                        (1e-2, dict(T_cap=math.inf)), (1e-2, dict(refine_bisections=-1)),
                        (1e-2, dict(step_tol=0.0)), (1e-2, dict(tol=0.0)),
                        (1e-2, dict(tol=math.nan))):
        with pytest.raises(ValueError):
            ramp_time_for_infidelity(target, ctx, **bad)
