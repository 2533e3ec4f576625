"""Fusion steps, the level ladder, and the method cost comparison."""

import math
from fractions import Fraction

import numpy as np
import pytest

import xxfusion.propagate as propagate
from xxfusion import (
    BondCouplings,
    CostLedger,
    FusionConfig,
    FusionPlan,
    FusionStep,
    PurificationError,
    RampSearchError,
    StepRecord,
    build_hamiltonian,
    compare_methods,
    converged_ramp,
    default_step_tol,
    enumerate_sector,
    expected_cost,
    fuse_step,
    infidelity,
    lowest_two,
    make_schedule,
    run_fusion,
    run_rodeo,
)


def half_ground(L_half=2, n=1):
    H = build_hamiltonian(enumerate_sector(L_half, n), BondCouplings.uniform(L_half))
    return lowest_two(H).ground


# ------------------------------------------------------------- cost model


def test_expected_cost_formulas():
    assert expected_cost("adiabatic", 7.0, 0.0, 1.0) == 7.0
    assert expected_cost("rodeo", 0.0, 6.0, 0.5) == 12.0
    assert expected_cost("hybrid", 2.0, 3.0, 0.5) == 10.0


def test_expected_cost_validation():
    with pytest.raises(ValueError):
        expected_cost("annealed", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        expected_cost("rodeo", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        expected_cost("rodeo", 0.0, 1.0, 1.1)
    with pytest.raises(ValueError):
        expected_cost("hybrid", -1.0, 1.0, 0.5)


def test_fusion_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(level_policy="greedy")
    with pytest.raises(ValueError):
        FusionConfig(J=0.0)
    # every rodeo and search setting is checked at construction
    for bad in (dict(depth=0), dict(ratio=0.0), dict(ratio=1.5),
                dict(max_superiterations=-1), dict(precondition_infidelity=0.0),
                dict(precondition_infidelity=1.0), dict(T_start=0.0),
                dict(T_start=4.0, T_cap=2.0), dict(bisections=-1), dict(expmv_tol=0.0),
                dict(step_tol=0.0), dict(step_tol=-1e-4)):
        with pytest.raises(ValueError):
            FusionConfig(**bad)
    FusionConfig(ratio=1.0, max_superiterations=0, T_cap=1.0, bisections=0)
    cfg = FusionConfig()
    assert cfg.depth == 8 and cfg.ratio == 0.5
    assert cfg.precondition_infidelity == 1e-2
    assert cfg.T_cap == 2.0**16 and cfg.bisections == 3


# ------------------------------------------------------------- fuse_step


def test_fuse_step_adiabatic_golden():
    state, rec = fuse_step(half_ground(), "adiabatic", 1e-3)
    assert rec.L == 4 and rec.method == "adiabatic"
    assert rec.t_A == 9.0
    assert rec.t_R == 0.0 and rec.p == 1.0
    assert rec.kappa == 9.0
    assert rec.superiterations == 0 and rec.ramp_steps > 0
    assert rec.achieved_infidelity == pytest.approx(3.714410696875614e-05, rel=1e-6)
    target = lowest_two(
        build_hamiltonian(enumerate_sector(4, 2), BondCouplings.uniform(4))
    ).ground
    assert infidelity(state, target) == pytest.approx(rec.achieved_infidelity, rel=1e-9)


def test_fuse_step_hybrid_golden():
    state, rec = fuse_step(half_ground(), "hybrid", 1e-3)
    assert rec.t_A == 2.5
    assert rec.t_R == pytest.approx(5.063347427892156, rel=1e-12)
    assert rec.p == pytest.approx(0.9950787873195873, rel=1e-9)
    assert rec.kappa == pytest.approx(7.600752346721518, rel=1e-9)
    assert rec.superiterations == 1
    assert rec.achieved_infidelity == pytest.approx(4.929140188558723e-05, rel=1e-6)


def test_fuse_step_rodeo_golden():
    state, rec = fuse_step(half_ground(), "rodeo", 1e-3)
    assert rec.t_A == 0.0
    assert rec.t_R == pytest.approx(10.126694855784311, rel=1e-12)
    assert rec.p == pytest.approx(0.8972234680212386, rel=1e-9)
    assert rec.superiterations == 2
    assert rec.achieved_infidelity == pytest.approx(1.1003414034593817e-05, rel=1e-6)


def test_fuse_step_skips_purification_when_target_is_loose():
    # the raw product already has infidelity ~0.103 at L=4
    state, rec = fuse_step(half_ground(), "rodeo", 0.5)
    assert rec.superiterations == 0
    assert rec.t_R == 0.0 and rec.p == 1.0 and rec.kappa == 0.0
    assert rec.achieved_infidelity == pytest.approx(0.1027864045000435, abs=1e-12)


def test_fuse_step_argument_errors():
    g = half_ground()
    with pytest.raises(ValueError):
        fuse_step(g, "annealed", 1e-3)
    with pytest.raises(ValueError):
        fuse_step(g, "rodeo", 0.0)
    with pytest.raises(ValueError):
        fuse_step(g, "rodeo", 1.0)
    from xxfusion import StateVector

    unnorm = StateVector(g.basis, 0.5 * g.amps)
    with pytest.raises(ValueError):
        fuse_step(unnorm, "rodeo", 1e-3)


def test_fuse_step_purification_cap():
    cfg = FusionConfig(max_superiterations=1)
    with pytest.raises(PurificationError) as err:
        fuse_step(half_ground(), "hybrid", 1e-9, cfg)
    assert err.value.best_infidelity == pytest.approx(4.929140188558723e-05, rel=1e-4)


# ------------------------------------------------------------ FusionStep


def test_fusion_step_sweep_matches_run_rodeo():
    # the sweep and run_rodeo share one cycle loop, so they agree bit for bit
    step = FusionStep.exact_halves(8, Fraction(1, 2), FusionConfig())
    start, _, _ = step.start("hybrid")
    sweep = step.sweep(start)
    m, state, *_ = next(sweep)
    assert m == 0 and state is start
    for M in (1, 2, 3):
        m, state, _, p_total, t_R = next(sweep)
        assert m == M
        schedule = make_schedule(step.gap, depth=8, superiterations=M)
        out = run_rodeo(start, step.H, step.E0, schedule)
        assert np.array_equal(state.amps, out.state.amps)
        assert p_total == out.p_total
        assert t_R == pytest.approx(out.t_R, abs=1e-12)


def test_fusion_step_start_has_no_adiabatic_sweep():
    step = FusionStep.from_half(half_ground(), FusionConfig())
    state, t_A, ramp_steps = step.start("rodeo")
    assert state is step.product and t_A == 0.0 and ramp_steps == 0
    with pytest.raises(ValueError):
        step.start("adiabatic")


# ------------------------------------------------------------ run_fusion


def test_run_fusion_ladder_golden():
    plan = FusionPlan(L_final=8, L_base=2, filling=Fraction(1, 2),
                      method="hybrid", target_infidelity=1e-3)
    state, ledger = run_fusion(plan)
    assert [r.L for r in ledger.records] == [4, 8]
    assert ledger.cumulative_kappa == pytest.approx(20.729187813285577, rel=1e-9)
    assert ledger.records[1].achieved_infidelity == pytest.approx(
        1.39914857759e-05, rel=1e-6
    )
    # achieved infidelity of the record matches the returned state
    target = lowest_two(
        build_hamiltonian(enumerate_sector(8, 4), BondCouplings.uniform(8))
    ).ground
    assert infidelity(state, target) == pytest.approx(
        ledger.records[1].achieved_infidelity, rel=1e-9
    )


def test_run_fusion_trivial_plan_returns_exact_ground():
    plan = FusionPlan(L_final=4, L_base=4, filling=Fraction(1, 2),
                      method="rodeo", target_infidelity=1e-3)
    state, ledger = run_fusion(plan)
    assert ledger.records == []
    assert ledger.cumulative_kappa == 0.0
    target = lowest_two(
        build_hamiltonian(enumerate_sector(4, 2), BondCouplings.uniform(4))
    ).ground
    assert infidelity(state, target) == pytest.approx(0.0, abs=1e-12)


def test_run_fusion_budget_policy_splits_target():
    plan = FusionPlan(L_final=8, L_base=2, filling=Fraction(1, 2),
                      method="hybrid", target_infidelity=1e-3)
    _, ledger = run_fusion(plan, config=FusionConfig(level_policy="budget"))
    assert [r.target_infidelity for r in ledger.records] == [5e-4, 5e-4]


def test_run_fusion_plan_validation():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        run_fusion(FusionPlan(12, 2, half, "rodeo", 1e-3))  # 6 is not a power of two
    with pytest.raises(ValueError):
        run_fusion(FusionPlan(8, 2, Fraction(1, 4), "rodeo", 1e-3))  # n_base = 1/2
    with pytest.raises(ValueError):
        run_fusion(FusionPlan(8, 2, Fraction(0), "rodeo", 1e-3))  # empty sector
    with pytest.raises(ValueError):
        run_fusion(FusionPlan(8, 1, half, "rodeo", 1e-3))  # single-site base
    with pytest.raises(ValueError):
        run_fusion(FusionPlan(8, 2, Fraction(3, 2), "rodeo", 1e-3))  # filling > 1


def test_run_fusion_failure_carries_partial_ledger():
    # capping the duration grid at 8 lets the L=4 ramp reach 3e-3 (its
    # T=8 probe passes) while the L=8 level needs the T=16 probe
    plan = FusionPlan(L_final=8, L_base=2, filling=Fraction(1, 2),
                      method="adiabatic", target_infidelity=3e-3)
    with pytest.raises(RampSearchError) as err:
        run_fusion(plan, config=FusionConfig(T_cap=8.0))
    assert err.value.failed_level == 8
    assert [r.L for r in err.value.partial_ledger.records] == [4]


def test_cost_ledger_accumulates():
    ledger = CostLedger()
    assert ledger.cumulative_kappa == 0.0
    rec = StepRecord(4, "rodeo", 1e-3, 1e-5, 0.0, 4.0, 0.5, 8.0, 2, 0)
    ledger.records.append(rec)
    ledger.records.append(rec)
    assert ledger.cumulative_kappa == 16.0


# ------------------------------------------------------- compare_methods


def test_compare_methods_golden_table_L4():
    rows = compare_methods(4, Fraction(1, 2), (1e-3, 1e-4))
    assert [(r.method, r.target_infidelity) for r in rows] == [
        ("adiabatic", 1e-3), ("adiabatic", 1e-4),
        ("rodeo", 1e-3), ("rodeo", 1e-4),
        ("hybrid", 1e-3), ("hybrid", 1e-4),
    ]
    assert all(r.status == "OK" for r in rows)
    by_cell = {(r.method, r.target_infidelity): r for r in rows}
    assert by_cell[("adiabatic", 1e-3)].J_kappa == 9.0
    assert by_cell[("adiabatic", 1e-4)].J_kappa == 24.0
    r = by_cell[("rodeo", 1e-3)]
    assert r.t_R == pytest.approx(10.126694855784311, rel=1e-12)
    assert r.p == pytest.approx(0.8972234680212386, rel=1e-9)
    assert r.J_kappa == pytest.approx(11.28670305305099, rel=1e-9)
    h = by_cell[("hybrid", 1e-3)]
    assert h.t_A == 2.5
    assert h.J_kappa == pytest.approx(7.600752346721518, rel=1e-9)
    # a single sweep served both targets, so the cells agree
    assert by_cell[("rodeo", 1e-4)].J_kappa == r.J_kappa
    assert by_cell[("hybrid", 1e-4)].J_kappa == h.J_kappa


def test_compare_methods_cost_invariants():
    rows = compare_methods(4, Fraction(1, 2), (1e-2,))
    for r in rows:
        assert 0.0 < r.p <= 1.0
        assert r.J_kappa >= r.t_A + r.t_R - 1e-12
        assert r.achieved_infidelity <= r.target_infidelity


def test_compare_methods_reports_per_cell_failures():
    rows = compare_methods(4, Fraction(1, 2), (1e-3,), config=FusionConfig(T_cap=1.0))
    status = {r.method: r.status for r in rows}
    assert status == {"adiabatic": "FAILED", "rodeo": "OK", "hybrid": "FAILED"}
    failed = [r for r in rows if r.status == "FAILED"]
    for r in failed:
        assert math.isnan(r.t_A) and math.isnan(r.J_kappa)
        assert r.message != ""
        assert 0.0 < r.achieved_infidelity < 1.0  # best infidelity seen


def test_compare_methods_failed_cell_reports_converged_probe():
    rows = compare_methods(4, Fraction(1, 2), (1e-3,), config=FusionConfig(T_cap=1.0))
    adiabatic = next(r for r in rows if r.method == "adiabatic")
    assert adiabatic.status == "FAILED"
    ctx = FusionStep.exact_halves(4, Fraction(1, 2), FusionConfig()).ctx
    full = converged_ramp(ctx, 1.0, step_tol=default_step_tol(1e-3))
    assert adiabatic.achieved_infidelity == full.infidelity


def test_compare_methods_integrates_each_ramp_once(monkeypatch):
    # the hybrid preconditioning search runs at its own step tolerance but
    # shares the adiabatic searches' ramps, and probes certain to miss their
    # target stop doubling early (60 ramps when every probe converges)
    ramps = []
    ramp = propagate.adiabatic_ramp

    def counted(v0, basis, base, schedule, **kwargs):
        ramps.append((schedule.T_A, schedule.steps))
        return ramp(v0, basis, base, schedule, **kwargs)

    monkeypatch.setattr(propagate, "adiabatic_ramp", counted)
    rows = compare_methods(8, Fraction(1, 2), [1e-3, 1e-4])
    assert all(r.status == "OK" for r in rows)
    assert ramps
    assert len(ramps) == len(set(ramps))
    assert len(ramps) <= 37


def test_compare_methods_argument_errors():
    half = Fraction(1, 2)
    assert compare_methods(4, half, ()) == []
    with pytest.raises(ValueError):
        compare_methods(5, half, (1e-3,))
    with pytest.raises(ValueError):
        compare_methods(4, Fraction(1, 3), (1e-3,))
    with pytest.raises(ValueError):
        compare_methods(4, half, (2.0,))
