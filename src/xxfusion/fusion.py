"""Binary fusion of chain grounds and the cost comparison across methods.

A fusion step doubles the chain: embed two prepared half grounds as a
product, then close the middle bond adiabatically ("adiabatic"), purify
with rodeo cycles directly ("rodeo"), or ramp to a loose preconditioning
infidelity and purify the remainder ("hybrid").  Costs are tracked as
expected total evolution time per prepared copy,

    kappa_A = t_A,    kappa_R = t_R / p,    kappa_H = (t_A + t_R) / p,

with p the cumulative rodeo success probability.

:class:`FusionStep` holds one step (the doubled chain's Hamiltonian,
ground energy, gap and ramp problem) and owns its ramp search, the start
of its rodeo sweep and the sweep itself; ``fuse_step``, ``run_fusion``
and ``compare_methods`` are built on it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PurificationError, SimulationError
from .propagate import (
    T_CAP,
    RampContext,
    RampResult,
    _check_search,
    default_step_tol,
    ramp_time_for_infidelity,
)
from .rodeo import _check_ladder, make_schedule, rodeo_cycles
from .spectral import infidelity, lowest_two
from .spin_model import (
    BondCouplings,
    SparseHamiltonian,
    StateVector,
    build_hamiltonian,
    embed_product,
    enumerate_sector,
    middle_bond,
)

METHODS = ("adiabatic", "rodeo", "hybrid")


def expected_cost(method: str, t_A: float, t_R: float, p: float) -> float:
    """Expected evolution time per prepared copy for one fusion step."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < p <= 1.0 + 1e-12:
        raise ValueError(f"success probability {p} outside (0, 1]")
    if t_A < 0.0 or t_R < 0.0:
        raise ValueError("evolution times must be nonnegative")
    if method == "adiabatic":
        return t_A
    if method == "rodeo":
        return t_R / p
    return (t_A + t_R) / p


@dataclass(frozen=True)
class FusionConfig:
    """Knobs shared by every fusion step; defaults match the experiments."""

    J: float = 1.0
    depth: int = 8
    ratio: float = 0.5
    precondition_infidelity: float = 1e-2
    max_superiterations: int = 64
    T_start: float = 1.0
    T_cap: float = T_CAP
    bisections: int = 3
    expmv_tol: float = 1e-10
    step_tol: float | None = None
    level_policy: str = "uniform"

    def __post_init__(self):
        if self.level_policy not in ("uniform", "budget"):
            raise ValueError(f"unknown level policy {self.level_policy!r}")
        if self.J == 0.0:
            raise ValueError("coupling J must be nonzero")
        _check_ladder(self.depth, self.max_superiterations, self.ratio)
        if not 0.0 < self.precondition_infidelity < 1.0:
            raise ValueError(
                f"precondition infidelity {self.precondition_infidelity} outside (0, 1)"
            )
        _check_search(self.T_start, self.T_cap, self.bisections, self.step_tol, self.expmv_tol)


@dataclass(frozen=True)
class StepRecord:
    """Cost ledger entry for one fusion step ending at chain length L."""

    L: int
    method: str
    target_infidelity: float
    achieved_infidelity: float
    t_A: float
    t_R: float
    p: float
    kappa: float
    superiterations: int
    ramp_steps: int


@dataclass
class CostLedger:
    records: list[StepRecord] = field(default_factory=list)

    @property
    def cumulative_kappa(self) -> float:
        return float(sum(r.kappa for r in self.records))


@dataclass(frozen=True)
class FusionPlan:
    """Prepare the (L_final, filling * L_final) ground from L_base chains."""

    L_final: int
    L_base: int
    filling: Fraction
    method: str
    target_infidelity: float


@dataclass(frozen=True)
class FusionStep:
    """One fusion step: the doubled chain, its exact lowest pair, and the
    ramp problem from two copies of a half-chain state to the ground.

    ``ramp`` searches the ramp duration, ``start`` gives the input of the
    rodeo sweep, and ``sweep`` runs it one superiteration at a time.
    """

    config: FusionConfig
    H: SparseHamiltonian
    E0: float
    gap: float
    ctx: RampContext

    @property
    def product(self) -> StateVector:
        """The normalized product of the two half states."""
        return self.ctx.v0

    @property
    def ground(self) -> StateVector:
        """The ground of the doubled chain."""
        return self.ctx.target

    @classmethod
    def from_half(cls, ground_half: StateVector, config: FusionConfig) -> FusionStep:
        """Fuse two copies of ``ground_half``, a normalized half-chain state."""
        if abs(ground_half.norm() - 1.0) > 1e-9:
            raise ValueError("half-chain state is not normalized")
        L = 2 * ground_half.basis.L
        basis = enumerate_sector(L, 2 * ground_half.basis.n_up)
        couplings = BondCouplings.uniform(L, config.J)
        H = build_hamiltonian(basis, couplings)
        pair = lowest_two(H)
        product = embed_product(ground_half, ground_half, basis=basis).normalized()
        bond = middle_bond(L)
        base = couplings.with_bond(bond, 0.0)
        ctx = RampContext(basis, base, bond, config.J, product, pair.ground)
        return cls(config, H, pair.E0, pair.gap, ctx)

    @classmethod
    def exact_halves(cls, L: int, filling, config: FusionConfig) -> FusionStep:
        """Fuse two exact sector grounds of the L/2 chain at ``filling``."""
        filling = Fraction(filling)
        if L % 2 != 0:
            raise ValueError(f"L={L} cannot be split into equal halves")
        n_half = filling * (L // 2)
        if n_half.denominator != 1:
            raise ValueError(
                f"filling {filling} gives fractional occupation on {L // 2} sites"
            )
        n_half = int(n_half)
        if not 0 < n_half < L // 2:
            raise ValueError(
                f"half sector (L={L // 2}, n_up={n_half}) has no gap to anchor"
            )
        half_basis = enumerate_sector(L // 2, n_half)
        half_H = build_hamiltonian(half_basis, BondCouplings.uniform(L // 2, config.J))
        return cls.from_half(lowest_two(half_H).ground, config)

    def ramp(
        self, target: float, *, step_tol: float | None = None, cache: dict | None = None
    ) -> RampResult:
        """Shortest converged ramp from the product reaching ``target``.

        ``step_tol`` defaults to ``config.step_tol``; ``cache`` shares the
        integrated ramps, keyed by ``(T_A, steps)``, between searches.  A
        cache is valid for one step and one ``config.expmv_tol`` only.
        """
        c = self.config
        return ramp_time_for_infidelity(
            target,
            self.ctx,
            T_start=c.T_start,
            T_cap=c.T_cap,
            refine_bisections=c.bisections,
            step_tol=c.step_tol if step_tol is None else step_tol,
            tol=c.expmv_tol,
            probe_cache=cache,
        )

    def start(
        self, method: str, *, cache: dict | None = None
    ) -> tuple[StateVector, float, int]:
        """Input of the rodeo sweep as ``(state, t_A, ramp_steps)``.

        "rodeo" starts from the product; "hybrid" from the product ramped
        to the preconditioning infidelity.
        """
        if method == "rodeo":
            return self.product, 0.0, 0
        if method != "hybrid":
            raise ValueError(f"method {method!r} has no rodeo sweep")
        pre = self.ramp(self.config.precondition_infidelity, cache=cache)
        return pre.state.normalized(), pre.T_A, pre.steps

    def sweep(
        self, start: StateVector
    ) -> Iterator[tuple[int, StateVector, float, float, float]]:
        """Rodeo cycles at E0 on ``start``, one superiteration at a time.

        Yields ``(M, state, infidelity, p_total, t_R)`` for the start
        itself (M = 0) and after superiteration M = 1 ..
        ``config.max_superiterations``.
        """
        yield 0, start, infidelity(start, self.ground), 1.0, 0.0
        c = self.config
        times = make_schedule(
            self.gap, depth=c.depth, superiterations=c.max_superiterations, ratio=c.ratio
        ).times
        block_time = float(times[: c.depth].sum())
        t_R = 0.0
        cycles = rodeo_cycles(start, self.H, self.E0, times, tol=c.expmv_tol)
        for j, (state, _, p_total) in enumerate(cycles, 1):
            if j % c.depth == 0:
                t_R += block_time
                yield j // c.depth, state, infidelity(state, self.ground), p_total, t_R


def fuse_step(
    ground_half: StateVector,
    method: str,
    target_infidelity: float,
    config: FusionConfig | None = None,
) -> tuple[StateVector, StepRecord]:
    """One fusion step: two copies of ``ground_half`` to the doubled ground.

    Returns the prepared (normalized) state and its ledger record.  The
    adiabatic route is unitary, so it cannot remove weight that the input
    product already holds outside the reachable band; with impure halves
    its search may exhaust the duration cap and raise.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < target_infidelity < 1.0:
        raise ValueError(f"target infidelity {target_infidelity} outside (0, 1)")
    config = config or FusionConfig()
    step = FusionStep.from_half(ground_half, config)
    L = 2 * ground_half.basis.L

    if method == "adiabatic":
        res = step.ramp(target_infidelity)
        state = res.state.normalized()
        record = StepRecord(
            L, method, target_infidelity, res.infidelity, res.T_A, 0.0, 1.0,
            expected_cost(method, res.T_A, 0.0, 1.0), 0, res.steps,
        )
        return state, record

    start, t_A, ramp_steps = step.start(method)
    best = 1.0
    for m, state, fid, p_total, t_R in step.sweep(start):
        best = min(best, fid)
        if fid <= target_infidelity:
            record = StepRecord(
                L, method, target_infidelity, fid, t_A, t_R, p_total,
                expected_cost(method, t_A, t_R, p_total), m, ramp_steps,
            )
            return state, record
    raise PurificationError(
        f"target infidelity {target_infidelity:.3e} not reached within "
        f"{config.max_superiterations} superiterations (best {best:.3e})",
        best_infidelity=best,
    )


def run_fusion(
    plan: FusionPlan, *, config: FusionConfig | None = None
) -> tuple[StateVector, CostLedger]:
    """Compose fusion steps from exact L_base grounds up to L_final.

    Each level reuses the prepared state for both halves, so errors
    compound exactly as two independently prepared copies would.  The
    per-level target is the plan target ("uniform" policy) or the plan
    target split evenly across levels ("budget").
    """
    config = config or FusionConfig()
    filling = Fraction(plan.filling)
    if plan.L_base < 2:
        raise ValueError(f"base chains need at least 2 sites, got {plan.L_base}")
    if not 0 <= filling <= 1:
        raise ValueError(f"filling {filling} outside [0, 1]")
    steps = 0
    L = plan.L_base
    while L < plan.L_final:
        L *= 2
        steps += 1
    if L != plan.L_final:
        raise ValueError(
            f"L_final={plan.L_final} is not L_base={plan.L_base} times a power of two"
        )
    n_base = filling * plan.L_base
    if n_base.denominator != 1:
        raise ValueError(
            f"filling {filling} gives fractional occupation on {plan.L_base} sites"
        )
    n_base = int(n_base)
    if not 0 < n_base < plan.L_base:
        raise ValueError(
            f"base sector (L={plan.L_base}, n_up={n_base}) has no gap to anchor"
        )

    base_basis = enumerate_sector(plan.L_base, n_base)
    base_H = build_hamiltonian(base_basis, BondCouplings.uniform(plan.L_base, config.J))
    state = lowest_two(base_H).ground
    if steps == 0:
        return state, CostLedger([])

    level_target = plan.target_infidelity
    if config.level_policy == "budget":
        level_target = plan.target_infidelity / steps
    ledger = CostLedger([])
    for _ in range(steps):
        try:
            state, record = fuse_step(state, plan.method, level_target, config)
        except SimulationError as err:
            # let the driver report the completed levels alongside the failure
            err.partial_ledger = ledger
            err.failed_level = 2 * state.basis.L
            raise
        ledger.records.append(record)
    return state, ledger


@dataclass(frozen=True)
class CompareRow:
    """One cell of the method comparison table."""

    method: str
    L: int
    filling: Fraction
    target_infidelity: float
    achieved_infidelity: float
    t_A: float
    t_R: float
    p: float
    J_kappa: float
    status: str
    message: str = ""


def _failed_row(method, L, filling, target, achieved, message) -> CompareRow:
    nan = float("nan")
    return CompareRow(
        method, L, filling, target, achieved, nan, nan, nan, nan, "FAILED", message
    )


def compare_methods(
    L: int,
    filling: Fraction,
    infidelity_targets,
    *,
    config: FusionConfig | None = None,
) -> list[CompareRow]:
    """Cost of one fusion step (exact halves) per method and target.

    Halves are exact sector grounds of the L/2 chain, so every method
    starts from the same product state.  Targets are emitted loosest
    first; rows follow METHODS order.  Per-cell failures produce FAILED
    rows instead of aborting the table.

    The duration searches share their probes, so every adiabatic cell of
    one call is converged to one step tolerance, ``config.step_tol`` or
    else :func:`default_step_tol` of the tightest target: a cell's value
    depends on the other targets of the call.  The hybrid preconditioning
    ramp uses the tolerance of its own target and reuses every ramp the
    adiabatic searches integrated.
    """
    config = config or FusionConfig()
    filling = Fraction(filling)
    targets = sorted(set(float(t) for t in infidelity_targets), reverse=True)
    for t in targets:
        if not 0.0 < t < 1.0:
            raise ValueError(f"target infidelity {t} outside (0, 1)")
    step = FusionStep.exact_halves(L, filling, config)
    if not targets:
        return []
    tightest = targets[-1]
    group_step_tol = (
        config.step_tol if config.step_tol is not None else default_step_tol(tightest)
    )
    rows: list[CompareRow] = []

    def emit(method, target, achieved, t_A, t_R, p):
        kappa = expected_cost(method, t_A, t_R, p)
        rows.append(
            CompareRow(
                method, L, filling, target, achieved, t_A, t_R, p,
                config.J * kappa, "OK",
            )
        )

    # adiabatic: one duration search per target, ramps shared via cache
    cache: dict = {}
    for target in targets:
        try:
            res = step.ramp(target, step_tol=group_step_tol, cache=cache)
            emit("adiabatic", target, res.infidelity, res.T_A, 0.0, 1.0)
        except SimulationError as err:
            achieved = getattr(err, "best_infidelity", float("nan"))
            rows.append(_failed_row("adiabatic", L, filling, target, achieved, str(err)))

    # rodeo and hybrid: one sweep each, to the tightest target
    for method in ("rodeo", "hybrid"):
        try:
            start, t_A, _ = step.start(method, cache=cache)
        except SimulationError as err:
            achieved = getattr(err, "best_infidelity", float("nan"))
            for target in targets:
                rows.append(_failed_row(method, L, filling, target, achieved, str(err)))
            continue
        milestones = []
        sweep_error = None
        try:
            for _, _, fid, p_total, t_R in step.sweep(start):
                milestones.append((fid, p_total, t_R))
                if fid <= tightest:
                    break
        except SimulationError as err:
            sweep_error = err
        for target in targets:
            hit = next((ms for ms in milestones if ms[0] <= target), None)
            if hit is None:
                best = min(ms[0] for ms in milestones)
                message = str(sweep_error) if sweep_error is not None else (
                    f"target {target:.3e} not reached within "
                    f"{config.max_superiterations} superiterations"
                )
                rows.append(_failed_row(method, L, filling, target, best, message))
            else:
                fid, p_total, t_R = hit
                emit(method, target, fid, t_A, t_R, p_total)

    order = {m: i for i, m in enumerate(METHODS)}
    rows.sort(key=lambda r: (order[r.method], r.L, -r.target_infidelity))
    return rows
