"""Fusion steps, the level ladder, and the method cost comparison."""

import math
from fractions import Fraction

import numpy as np
import pytest

import xxfusion.propagate as propagate
from xxfusion import (
    BondCouplings,
    FusionConfig,
    FusionStep,
    RodeoAnnihilationError,
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
                dict(expmv_tol=1.0), dict(expmv_tol=float("inf")),
                dict(expmv_tol=float("nan")), dict(step_tol=0.0), dict(step_tol=-1e-4)):
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
    assert rec.J_kappa == 9.0
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
    assert rec.J_kappa == pytest.approx(7.600752346721518, rel=1e-9)
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
    assert rec.t_R == 0.0 and rec.p == 1.0 and rec.J_kappa == 0.0
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
    state, rec = fuse_step(half_ground(), "hybrid", 1e-9, cfg)
    assert state is None
    assert (rec.L, rec.method, rec.target_infidelity, rec.status) == (4, "hybrid", 1e-9, "FAILED")
    assert rec.achieved_infidelity == pytest.approx(4.929140188558723e-05, rel=1e-4)
    assert rec.message == (
        "target infidelity 1.000e-09 not reached within 1 superiterations "
        f"(best {rec.achieved_infidelity:.3e})"
    )
    assert math.isnan(rec.J_kappa) and rec.superiterations == 0


def test_fuse_step_hamiltonian_failure_gives_failed_record():
    # the 32-site half is small, but the doubled 64-site chain is refused
    state, rec = fuse_step(half_ground(32, 1), "rodeo", 1e-3)
    assert state is None
    assert (rec.L, rec.method, rec.target_infidelity, rec.status) == (64, "rodeo", 1e-3, "FAILED")
    assert rec.message == "L=64 exceeds 63 sites, the most a 64-bit configuration holds"
    assert math.isnan(rec.achieved_infidelity)


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
        times = make_schedule(step.gap, depth=8, superiterations=M)
        ref_state, ref_p = run_rodeo(start, step.H, step.E0, times)
        assert np.array_equal(state.amps, ref_state.amps)
        assert p_total == ref_p
        assert t_R == pytest.approx(times.sum(), abs=1e-12)


def test_fusion_step_context_carries_the_search_settings():
    cfg = FusionConfig(T_start=2.0, T_cap=16.0, bisections=1, expmv_tol=1e-8)
    ctx = FusionStep.from_half(half_ground(), cfg).ctx
    assert (ctx.T_start, ctx.T_cap, ctx.bisections, ctx.tol) == (2.0, 16.0, 1, 1e-8)


def test_fusion_step_start_has_no_adiabatic_sweep():
    step = FusionStep.from_half(half_ground(), FusionConfig())
    state, t_A, ramp_steps = step.start("rodeo")
    assert state is step.product and t_A == 0.0 and ramp_steps == 0
    with pytest.raises(ValueError):
        step.start("adiabatic")


# ------------------------------------------------------------ run_fusion


def test_run_fusion_ladder_golden():
    state, records = run_fusion(8, 2, Fraction(1, 2), "hybrid", 1e-3)
    assert [r.L for r in records] == [4, 8]
    assert sum(r.J_kappa for r in records) == pytest.approx(20.729187813285577, rel=1e-9)
    assert records[1].achieved_infidelity == pytest.approx(1.39914857759e-05, rel=1e-6)
    # achieved infidelity of the record matches the returned state
    target = lowest_two(
        build_hamiltonian(enumerate_sector(8, 4), BondCouplings.uniform(8))
    ).ground
    assert infidelity(state, target) == pytest.approx(records[1].achieved_infidelity, rel=1e-9)


def test_run_fusion_trivial_plan_returns_exact_ground():
    state, records = run_fusion(4, 4, Fraction(1, 2), "rodeo", 1e-3)
    assert records == []
    target = lowest_two(
        build_hamiltonian(enumerate_sector(4, 2), BondCouplings.uniform(4))
    ).ground
    assert infidelity(state, target) == pytest.approx(0.0, abs=1e-12)


def test_run_fusion_budget_policy_splits_target():
    _, records = run_fusion(8, 2, Fraction(1, 2), "hybrid", 1e-3,
                            config=FusionConfig(level_policy="budget"))
    assert [r.target_infidelity for r in records] == [5e-4, 5e-4]


def test_run_fusion_plan_validation():
    half = Fraction(1, 2)
    with pytest.raises(ValueError):
        run_fusion(12, 2, half, "rodeo", 1e-3)  # 6 is not a power of two
    with pytest.raises(ValueError):
        run_fusion(8, 2, Fraction(1, 4), "rodeo", 1e-3)  # n_base = 1/2
    with pytest.raises(ValueError):
        run_fusion(8, 2, Fraction(0), "rodeo", 1e-3)  # empty sector
    with pytest.raises(ValueError):
        run_fusion(8, 1, half, "rodeo", 1e-3)  # single-site base
    with pytest.raises(ValueError):
        run_fusion(8, 2, Fraction(3, 2), "rodeo", 1e-3)  # filling > 1


def test_run_fusion_failure_keeps_completed_levels():
    # capping the duration grid at 8 lets the L=4 ramp reach 3e-3 (its
    # T=8 probe passes) while the L=8 level needs the T=16 probe
    state, records = run_fusion(8, 2, Fraction(1, 2), "adiabatic", 3e-3,
                                config=FusionConfig(T_cap=8.0))
    assert state is None
    assert [(r.L, r.status) for r in records] == [(4, "OK"), (8, "FAILED")]
    failed = records[-1]
    assert failed.target_infidelity == 3e-3 and math.isnan(failed.J_kappa)
    assert 3e-3 < failed.achieved_infidelity < 1.0  # the best probe of the search
    assert failed.message.startswith("no ramp duration up to 8 reached infidelity 3.000e-03")
    assert f"best {failed.achieved_infidelity:.3e}" in failed.message


def test_run_fusion_base_failure_carries_failed_record():
    # the 64-site base sector is refused before anything is allocated
    state, records = run_fusion(128, 64, Fraction(1, 2), "hybrid", 1e-3,
                                config=FusionConfig(level_policy="budget"))
    assert state is None
    (failed,) = records
    assert (failed.L, failed.method, failed.target_infidelity) == (128, "hybrid", 1e-3)
    assert failed.status == "FAILED" and math.isnan(failed.achieved_infidelity)
    assert failed.message == "L=64 exceeds 63 sites, the most a 64-bit configuration holds"


def test_run_fusion_base_failure_without_steps_is_recorded_at_L_final():
    # L_final = L_base: the base ground is the final chain, not half of a step
    state, records = run_fusion(64, 64, Fraction(1, 2), "hybrid", 1e-3)
    assert state is None
    (failed,) = records
    assert (failed.L, failed.method, failed.target_infidelity) == (64, "hybrid", 1e-3)
    assert failed.status == "FAILED" and math.isnan(failed.achieved_infidelity)


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


def test_compare_methods_keeps_no_state_of_a_probes_first_ramp(monkeypatch):
    # a probe returns only after a doubling, so its ramp at the first step
    # count is never returned; the context keeps that ramp's infidelity
    # and step count, and the state of every later one
    contexts = {}
    converged = propagate.converged_ramp

    def recorded(ctx, T_A, **kwargs):
        contexts[id(ctx)] = ctx
        return converged(ctx, T_A, **kwargs)

    monkeypatch.setattr(propagate, "converged_ramp", recorded)
    compare_methods(8, Fraction(1, 2), [1e-3, 1e-4])
    first, later = [], []
    for ctx in contexts.values():
        for (T_A, steps), res in ctx._ramps.items():
            (first if steps == propagate._initial_steps(ctx, T_A) else later).append(res)
    assert first and all(res.state is None for res in first)
    assert later and all(res.state is not None for res in later)


@pytest.mark.parametrize("L", [4, 8])
def test_fuse_step_records_equal_compare_rows(L):
    # one cell evaluator: a single-target table is fuse_step, bit for bit
    rows = compare_methods(L, Fraction(1, 2), [1e-3])
    half = half_ground(L // 2, L // 4)
    for row in rows:
        _, rec = fuse_step(half, row.method, 1e-3)
        assert row.status == "OK"
        assert (rec.achieved_infidelity, rec.t_A, rec.t_R, rec.p, rec.J_kappa) == (
            row.achieved_infidelity, row.t_A, row.t_R, row.p, row.J_kappa)


def test_adiabatic_cells_converge_at_the_tightest_targets_step_tol():
    step = FusionStep.exact_halves(8, Fraction(1, 2), FusionConfig())
    (_, loose), _ = step.cells("adiabatic", [1e-3, 1e-4])
    grouped = step.ramp(1e-3, step_tol=default_step_tol(1e-4))
    alone = step.ramp(1e-3)  # default_step_tol(1e-3), as fuse_step has it
    assert loose.achieved_infidelity == grouped.infidelity
    assert loose.ramp_steps == grouped.steps
    assert alone.infidelity != grouped.infidelity  # 4.398e-4 against 4.466e-4


def test_compare_methods_capped_sweep_keeps_cells_it_met():
    # T_cap = 4 still holds the hybrid's ramp of 2.5; with the loose
    # step_tol it spares the adiabatic 1e-9 search its duration of 10240
    cfg = FusionConfig(max_superiterations=1, T_cap=4.0, step_tol=1e-4)
    rows = compare_methods(4, Fraction(1, 2), (1e-3, 1e-9), config=cfg)
    by_cell = {(r.method, r.target_infidelity): r for r in rows}
    met, missed = by_cell[("hybrid", 1e-3)], by_cell[("hybrid", 1e-9)]
    assert met.status == "OK" and missed.status == "FAILED"
    assert missed.achieved_infidelity == met.achieved_infidelity  # best seen
    assert "1.000e-09 not reached within 1 superiterations" in missed.message
    # the rodeo sweep meets neither target in one superiteration
    assert by_cell[("rodeo", 1e-3)].status == by_cell[("rodeo", 1e-9)].status == "FAILED"


def test_fusion_step_sweep_error_keeps_met_cells(monkeypatch):
    step = FusionStep.exact_halves(4, Fraction(1, 2), FusionConfig())
    sweep = FusionStep.sweep

    def breaks_after_first(self, start):
        for m, *rest in sweep(self, start):
            if m == 2:
                raise RodeoAnnihilationError("all weight projected away")
            yield m, *rest

    monkeypatch.setattr(FusionStep, "sweep", breaks_after_first)
    (state, rec), *failed = step.cells("hybrid", [1e-3, 1e-6, 1e-9])
    assert state is not None
    assert rec.superiterations == 1 and rec.target_infidelity == 1e-3
    assert [(s, r.L, r.target_infidelity, r.status) for s, r in failed] == [
        (None, 4, 1e-6, "FAILED"), (None, 4, 1e-9, "FAILED")]
    for _, r in failed:
        assert r.achieved_infidelity == rec.achieved_infidelity  # best the sweep saw
        assert r.message == "all weight projected away"


def test_fusion_step_failed_start_fails_every_cell():
    # T_cap = 1 holds no hybrid preconditioning ramp
    step = FusionStep.exact_halves(4, Fraction(1, 2), FusionConfig(T_cap=1.0))
    cells = list(step.cells("hybrid", [1e-3, 1e-4]))
    assert [(s, r.target_infidelity, r.status) for s, r in cells] == [
        (None, 1e-3, "FAILED"), (None, 1e-4, "FAILED")]
    ctx = FusionStep.exact_halves(4, Fraction(1, 2), FusionConfig()).ctx
    probe = converged_ramp(ctx, 1.0, step_tol=default_step_tol(1e-2))
    for _, r in cells:
        # the best probe of the preconditioning search, not of a sweep
        assert r.achieved_infidelity == probe.infidelity
        assert r.message.startswith("no ramp duration up to 1 reached infidelity 1.000e-02")


def test_compare_methods_argument_errors():
    half = Fraction(1, 2)
    assert compare_methods(4, half, ()) == []
    with pytest.raises(ValueError):
        compare_methods(5, half, (1e-3,))
    with pytest.raises(ValueError):
        compare_methods(4, Fraction(1, 3), (1e-3,))
    with pytest.raises(ValueError):
        compare_methods(4, half, (2.0,))
