"""Binary fusion of chain grounds and the cost comparison across methods.

A fusion step doubles the chain: embed two prepared half grounds as a
product, then close the middle bond adiabatically ("adiabatic"), purify
with rodeo cycles directly ("rodeo"), or ramp to a loose preconditioning
infidelity and purify the remainder ("hybrid").  Costs are tracked as
expected total evolution time per prepared copy,

    kappa_A = t_A,    kappa_R = t_R / p,    kappa_H = (t_A + t_R) / p,

with p the cumulative rodeo success probability.  Costs are reported as
|J| kappa, formed in one place, :meth:`FusionConfig.J_kappa`, so a
negative coupling costs what the positive one does.

:class:`FusionStep` holds one step (the doubled chain's Hamiltonian,
ground energy, gap and ramp problem) and owns its ramp search, the start
of its rodeo sweep, the sweep itself, and the evaluation of a method at
a list of targets that both ``fuse_step`` and ``compare_methods`` run
on; ``run_fusion`` chains ``fuse_step``.  Every costed cell, met or
failed, is one :class:`StepRecord`: a :class:`SimulationError` that stops
a cell becomes its FAILED record where the cell is evaluated.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
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
from .spectral import chain_pair, infidelity
from .spin_model import (
    SparseHamiltonian,
    StateVector,
    embed_product,
    middle_bond,
    sector_occupancy,
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

    def J_kappa(self, method: str, t_A: float, t_R: float, p: float) -> float:
        """The reported cost of one step, |J| times :func:`expected_cost`."""
        return abs(self.J) * expected_cost(method, t_A, t_R, p)


@dataclass(frozen=True)
class StepRecord:
    """One costed cell: a fusion step ending at chain length L, by
    ``method``, at one target infidelity.

    ``J_kappa`` is |J| kappa from :meth:`FusionConfig.J_kappa`.  A FAILED
    record (:meth:`failed`) holds the best infidelity seen as
    ``achieved_infidelity``, nan times, probability and cost, zero counts,
    and the reason as ``message``.
    """

    L: int
    method: str
    target_infidelity: float
    achieved_infidelity: float
    t_A: float
    t_R: float
    p: float
    J_kappa: float
    superiterations: int
    ramp_steps: int
    status: str = "OK"
    message: str = ""

    @classmethod
    def failed(cls, L: int, method: str, target: float, err: SimulationError) -> StepRecord:
        """The FAILED record of a cell that ``err`` stopped."""
        nan = float("nan")
        return cls(L, method, target, err.best_infidelity, nan, nan, nan, nan, 0, 0,
                   "FAILED", str(err))


def half_ground(L: int, filling, J: float = 1.0) -> StateVector:
    """Exact ground of the uniform L/2-site chain at ``filling``, one half
    of a fusion step to L sites."""
    if L % 2 != 0:
        raise ValueError(f"L={L} cannot be split into equal halves")
    return chain_pair(L // 2, sector_occupancy(L // 2, filling), J)[1].ground


@dataclass(frozen=True)
class FusionStep:
    """One fusion step: the doubled chain, its exact lowest pair, and the
    ramp problem from two copies of a half-chain state to the ground.

    ``ramp`` searches the ramp duration, ``start`` gives the input of the
    rodeo sweep, ``sweep`` runs it one superiteration at a time, and
    ``cells`` costs the step by one method at several targets, the one
    path behind both ``fuse_step`` and ``compare_methods``.  Every ramp
    integrated for the step is kept on its ``ctx``, so no search of the
    step integrates a ramp twice.
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
        H, pair = chain_pair(L, 2 * ground_half.basis.n_up, config.J)
        product = embed_product(ground_half, ground_half, basis=H.basis).normalized()
        base = H.couplings.with_bond(middle_bond(L), 0.0)
        ctx = RampContext(H.basis, base, config.J, product, pair.ground, T_start=config.T_start,
                          T_cap=config.T_cap, bisections=config.bisections, tol=config.expmv_tol)
        return cls(config, H, pair.E0, pair.gap, ctx)

    @classmethod
    def exact_halves(cls, L: int, filling, config: FusionConfig) -> FusionStep:
        """Fuse two copies of :func:`half_ground` of L at ``filling``."""
        return cls.from_half(half_ground(L, filling, config.J), config)

    def ramp(self, target: float, *, step_tol: float | None = None) -> RampResult:
        """Converged ramp from the product reaching ``target``, by the duration
        search of :func:`ramp_time_for_infidelity`; ``step_tol`` defaults to
        ``config.step_tol``.  The other search settings are ``ctx``'s."""
        return ramp_time_for_infidelity(
            target, self.ctx, step_tol=self.config.step_tol if step_tol is None else step_tol)

    def start(self, method: str) -> tuple[StateVector, float, int]:
        """Input of the rodeo sweep as ``(state, t_A, ramp_steps)``.

        "rodeo" starts from the product; "hybrid" from the product ramped
        to the preconditioning infidelity.
        """
        if method == "rodeo":
            return self.product, 0.0, 0
        if method != "hybrid":
            raise ValueError(f"method {method!r} has no rodeo sweep")
        pre = self.ramp(self.config.precondition_infidelity)
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
        )
        block_time = float(times[: c.depth].sum())
        t_R = 0.0
        cycles = rodeo_cycles(start, self.H, self.E0, times, tol=c.expmv_tol)
        for j, (state, p_total) in enumerate(cycles, 1):
            if j % c.depth == 0:
                t_R += block_time
                yield j // c.depth, state, infidelity(state, self.ground), p_total, t_R

    def cells(
        self, method: str, targets: list[float]
    ) -> Iterator[tuple[StateVector | None, StepRecord]]:
        """The step by ``method`` at each of ``targets`` (descending, so the
        loosest first): per target, the prepared normalized state and its
        record, or None and the FAILED record of the
        :class:`SimulationError` that stopped the cell.

        Adiabatic cells each search a ramp, all at one step tolerance:
        ``config.step_tol``, or else :func:`default_step_tol` of the
        tightest target.  Rodeo and hybrid cells share one ``start`` and
        one sweep to the tightest target; each takes the first
        superiteration that meets its target.  A sweep that raises keeps
        the cells it already met.  A cell whose sweep fails records the
        best infidelity the sweep saw.  Costs are
        :meth:`FusionConfig.J_kappa`.
        """
        c = self.config
        L = self.ctx.basis.L
        if method == "adiabatic":
            step_tol = c.step_tol if c.step_tol is not None else default_step_tol(targets[-1])
            for target in targets:
                try:
                    res = self.ramp(target, step_tol=step_tol)
                except SimulationError as err:
                    yield None, StepRecord.failed(L, method, target, err)
                    continue
                J_kappa = c.J_kappa(method, res.T_A, 0.0, 1.0)
                record = StepRecord(
                    L, method, target, res.infidelity, res.T_A, 0.0, 1.0, J_kappa, 0, res.steps
                )
                yield res.state.normalized(), record
            return
        pending = list(targets)
        best = None  # lowest infidelity of the sweep; None until it starts
        try:
            start, t_A, ramp_steps = self.start(method)
            for m, state, fid, p_total, t_R in self.sweep(start):
                best = fid if best is None else min(best, fid)
                while pending and fid <= pending[0]:
                    J_kappa = c.J_kappa(method, t_A, t_R, p_total)
                    yield state, StepRecord(
                        L, method, pending.pop(0), fid, t_A, t_R, p_total, J_kappa, m, ramp_steps
                    )
                if not pending:
                    return
        except SimulationError as err:
            if best is not None:
                err.best_infidelity = best
            for target in pending:
                yield None, StepRecord.failed(L, method, target, err)
            return
        for target in pending:
            err = PurificationError(
                f"target infidelity {target:.3e} not reached within "
                f"{c.max_superiterations} superiterations (best {best:.3e})",
                best_infidelity=best,
            )
            yield None, StepRecord.failed(L, method, target, err)


def _check_target(target_infidelity: float) -> None:
    if not 0.0 < target_infidelity < 1.0:
        raise ValueError(f"target infidelity {target_infidelity} outside (0, 1)")


def _check_method_target(method: str, target_infidelity: float) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    _check_target(target_infidelity)


def fuse_step(
    ground_half: StateVector,
    method: str,
    target_infidelity: float,
    config: FusionConfig | None = None,
) -> tuple[StateVector | None, StepRecord]:
    """One fusion step: two copies of ``ground_half`` to the doubled ground.

    Returns the prepared (normalized) state and its record, the
    single-target cell of :meth:`FusionStep.cells`, so its ``step_tol``
    rule is that of ``compare_methods``.  A :class:`SimulationError` of
    the step, its Hamiltonian's included, gives None and the FAILED
    record.  The adiabatic route is unitary, so it cannot remove weight
    that the input product already holds outside the reachable band; with
    impure halves its search may exhaust the duration cap and fail.
    """
    _check_method_target(method, target_infidelity)
    config = config or FusionConfig()
    try:
        step = FusionStep.from_half(ground_half, config)
    except SimulationError as err:
        L = 2 * ground_half.basis.L
        return None, StepRecord.failed(L, method, target_infidelity, err)
    return next(step.cells(method, [target_infidelity]))


def run_fusion(
    L_final: int,
    L_base: int,
    filling: Fraction,
    method: str,
    target_infidelity: float,
    *,
    config: FusionConfig | None = None,
) -> tuple[StateVector | None, list[StepRecord]]:
    """Compose fusion steps from exact L_base grounds up to the
    (L_final, filling * L_final) ground.

    Each level reuses the prepared state for both halves, so errors
    compound exactly as two independently prepared copies would.  The
    per-level target is ``target_infidelity`` ("uniform" policy) or that
    target split evenly across levels ("budget").

    Returns the prepared state and one record per level.  A
    :class:`SimulationError` at any level, the base ground's included,
    ends the ladder with None and that level's FAILED record, at its L
    and target, as the last record; a base ground that fails is recorded
    at the first level, or at L_final when there is no step.  An unknown
    method or a target outside (0, 1) raises ValueError before any level
    runs, as in :func:`fuse_step`, even when the ladder has no step.
    """
    _check_method_target(method, target_infidelity)
    config = config or FusionConfig()
    if L_base < 2:
        raise ValueError(f"base chains need at least 2 sites, got {L_base}")
    steps = max(L_final // L_base, 1).bit_length() - 1
    if L_base << steps != L_final:
        raise ValueError(f"L_final={L_final} is not L_base={L_base} times a power of two")
    level_target = target_infidelity
    if config.level_policy == "budget" and steps:
        level_target /= steps
    try:
        state = half_ground(2 * L_base, filling, config.J)
    except SimulationError as err:
        return None, [StepRecord.failed(min(2 * L_base, L_final), method, level_target, err)]
    records = []
    for _ in range(steps):
        state, record = fuse_step(state, method, level_target, config)
        records.append(record)
        if state is None:
            break
    return state, records


def compare_methods(
    L: int,
    filling: Fraction,
    infidelity_targets,
    *,
    config: FusionConfig | None = None,
) -> list[StepRecord]:
    """Cost of one fusion step (exact halves) per method and target.

    Halves are exact sector grounds of the L/2 chain, so every method
    starts from the same product state.  Records follow METHODS order,
    with targets loosest first inside each method; each method's group is
    :meth:`FusionStep.cells` at all the targets, and a failed cell gives
    a FAILED record (:meth:`StepRecord.failed`) instead of aborting the
    table.

    Every adiabatic cell of one call is converged to one step tolerance,
    ``config.step_tol`` or else :func:`default_step_tol` of the tightest
    target, so a cell's value depends on the other targets of the call.
    The hybrid preconditioning ramp uses the tolerance of its own target;
    every search reuses the ramps the step's context already holds.
    """
    config = config or FusionConfig()
    targets = sorted(set(float(t) for t in infidelity_targets), reverse=True)
    for t in targets:
        _check_target(t)
    step = FusionStep.exact_halves(L, filling, config)
    if not targets:
        return []
    return [record for method in METHODS for _, record in step.cells(method, targets)]
