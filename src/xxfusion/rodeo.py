"""Rodeo purification: measurement-conditioned projection toward E_t.

One cycle applies (1 + e^{-i(H - E_t) t_j}) / 2 and conditions on the
ancilla staying in |1>; eigencomponents at energy E are damped by
cos((E - E_t) t_j / 2).  A superiteration runs a geometric ladder of
cycle times t_1 r^d, d = 0..D-1, whose first time is pi over the
spectral gap so the first excited component is annihilated exactly when
E_t sits on the ground energy.  A schedule is just that array of cycle
times, ``superiterations`` copies of the ladder end to end; its total
time t_R is the array's sum.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import RodeoAnnihilationError
from .propagate import expmv
from .spin_model import SparseHamiltonian, StateVector, _require_memory

#: Once the cumulative success probability falls below this, the input is
#: treated as orthogonal to everything the schedule can keep.
ANNIHILATION_FLOOR = 1e-30


def _check_ladder(depth: int, superiterations: int, ratio: float) -> None:
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if superiterations < 0:
        raise ValueError(f"superiterations must be nonnegative, got {superiterations}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")


def make_schedule(
    gap: float,
    *,
    depth: int = 8,
    superiterations: int = 1,
    ratio: float = 0.5,
) -> np.ndarray:
    """Cycle times: ``superiterations`` repeats of the geometric ladder
    t1 ratio^d, d = 0 .. depth-1, seeded by t1 = pi / gap.

    Refuses with :class:`CapacityError`, before allocating, a ladder and
    its tiled times larger than physical memory.
    """
    if gap <= 0.0:
        raise ValueError(f"gap must be positive, got {gap}")
    _check_ladder(depth, superiterations, ratio)
    _require_memory(
        8 * depth * (superiterations + 1),
        "rodeo schedule of {need} GiB ({depth} cycle times, {superiterations} "
        "superiterations) exceeds the {have} GiB of physical memory",
        depth=depth, superiterations=superiterations,
    )
    t1 = np.pi / gap
    return np.tile(t1 * ratio ** np.arange(depth), superiterations)


def rodeo_cycle(
    v: StateVector,
    H: SparseHamiltonian,
    E_t: float,
    t_j: float,
    *,
    tol: float = 1e-10,
    evolved: StateVector | None = None,
) -> tuple[StateVector, float]:
    """One conditioned cycle; returns (normalized survivor, probability).

    The unnormalized survivor is w = (v + e^{i E_t t_j} e^{-i H t_j} v)/2
    and the success probability is |w|^2.  When the probability
    underflows to zero the unnormalized (zero) vector is returned as is.
    ``evolved``, if given, is e^{-i H t_j} v already computed.
    """
    if evolved is None:
        evolved = expmv(H, t_j, v, tol=tol)
    w = 0.5 * (v.amps + np.exp(1j * E_t * t_j) * evolved.amps)
    nrm = float(np.linalg.norm(w))
    prob = nrm * nrm
    if nrm > 0.0:
        w = w / nrm
    return StateVector(v.basis, w), prob


def rodeo_cycles(
    v0: StateVector,
    H: SparseHamiltonian,
    E_t: float,
    times: np.ndarray,
    *,
    tol: float = 1e-10,
    evolved: StateVector | None = None,
) -> Iterator[tuple[StateVector, float]]:
    """Run one cycle per entry of ``times`` on v0, renormalizing after each.

    Yields ``(state, p_total)`` after every cycle: the normalized survivor
    and the running product of the cycle probabilities in cycle order,
    equal to the squared norm the unnormalized cycle product would have.
    Raises :class:`RodeoAnnihilationError` once the running product falls below
    the annihilation floor.  ``evolved``, if given, is e^{-i H t_1} v0 for
    the first cycle time t_1, computed once and shared by the caller.
    """
    state = v0
    p_total = 1.0
    for j, t_j in enumerate(times):
        state, p = rodeo_cycle(state, H, E_t, float(t_j), tol=tol, evolved=evolved)
        evolved = None
        p_total *= p
        if p_total < ANNIHILATION_FLOOR:
            raise RodeoAnnihilationError(
                f"cumulative success probability {p_total:.3e} fell below "
                f"{ANNIHILATION_FLOOR:.0e} after cycle {j + 1} of "
                f"{len(times)} (E_t={E_t:.12g})"
            )
        yield state, p_total


def run_rodeo(
    v0: StateVector,
    H: SparseHamiltonian,
    E_t: float,
    times: np.ndarray,
    *,
    tol: float = 1e-10,
    evolved: StateVector | None = None,
) -> tuple[StateVector, float]:
    """Run one cycle per entry of ``times`` on v0: the last survivor and
    the total success probability, as ``(state, p_total)``; v0 and 1 when
    ``times`` is empty.

    Renormalization, ``p_total``, the annihilation error and ``evolved``
    are those of :func:`rodeo_cycles`.
    """
    state, p_total = v0, 1.0
    for state, p_total in rodeo_cycles(v0, H, E_t, times, tol=tol, evolved=evolved):
        pass
    return state, p_total


def energy_scan(
    v0: StateVector,
    H: SparseHamiltonian,
    grid: np.ndarray,
    times: np.ndarray,
    *,
    tol: float = 1e-10,
) -> list[tuple[float, float]]:
    """Total success probability of the cycle ``times`` at each target energy.

    Each grid point runs every cycle on v0; the first cycle's
    propagation of v0 does not depend on E_t, so it is computed once and
    shared by every point.  Points where the weight is annihilated report
    probability 0 instead of raising.
    """
    evolved = None
    if times.size:
        evolved = expmv(H, float(times[0]), v0, tol=tol)
    results = []
    for E_t in np.asarray(grid, dtype=np.float64):
        try:
            _, p = run_rodeo(v0, H, float(E_t), times, tol=tol, evolved=evolved)
        except RodeoAnnihilationError:
            p = 0.0
        results.append((float(E_t), p))
    return results
