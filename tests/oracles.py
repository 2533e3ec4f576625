"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (python loops, dense
matrices, scipy.linalg.expm) so that agreement with the library is a
genuine cross-check rather than the same code exercised twice.
"""

import math

import numpy as np
import scipy.linalg

from xxfusion import RampSchedule, StateVector, adiabatic_ramp, infidelity

_ANCILLA_DIM_CAP = 100


def popcount(x: int) -> int:
    return bin(x).count("1")


def sector_configs(L: int, n_up: int) -> list:
    """All L-bit integers with n_up set bits, ascending."""
    return sorted(c for c in range(1 << L) if popcount(c) == n_up)


def dense_hamiltonian(L: int, n_up: int, J) -> tuple:
    """XX-chain sector Hamiltonian built by explicit bit inspection.

    Returns (configs, matrix) with configs ascending.  J may be a scalar
    (uniform chain) or a length L-1 sequence of bond couplings.
    """
    couplings = [float(J)] * (L - 1) if np.isscalar(J) else [float(x) for x in J]
    assert len(couplings) == L - 1
    configs = sector_configs(L, n_up)
    index = {c: i for i, c in enumerate(configs)}
    H = np.zeros((len(configs), len(configs)))
    for i, c in enumerate(configs):
        for b in range(L - 1):
            lo = (c >> b) & 1
            hi = (c >> (b + 1)) & 1
            if lo != hi:
                partner = c ^ (0b11 << b)
                H[i, index[partner]] += couplings[b]
    return configs, H


def embed_amplitudes(a_amps, a_configs, b_amps, b_configs, half: int) -> dict:
    """Product-state amplitudes keyed by fused configuration.

    The first factor is placed on the high half of the bit string, the
    second on the low half, matching the library convention.
    """
    out = {}
    for av, ac in zip(a_amps, a_configs):
        for bv, bc in zip(b_amps, b_configs):
            out[(int(ac) << half) | int(bc)] = complex(av) * complex(bv)
    return out


def rodeo_cycle_dense(amps, H_dense, E_t: float, t: float) -> tuple:
    """One conditioned rodeo cycle via the dense matrix exponential."""
    evolved = scipy.linalg.expm(-1j * t * H_dense) @ amps
    w = 0.5 * (amps + np.exp(1j * E_t * t) * evolved)
    p = float(np.linalg.norm(w) ** 2)
    return w, p


def ancilla_circuit_cycle(v, H, E_t: float, t_j: float) -> tuple:
    """One cycle through the explicit two-register circuit.

    Ancilla starts in |1>; Hadamard, controlled exp(-i H t_j), phase
    e^{i E_t t_j} on the ancilla, Hadamard, then projection onto |1>.
    Builds the full propagator densely, so it is capped at small sectors.
    Returns (normalized survivor, probability) like ``rodeo_cycle``.
    """
    dim = H.dim
    if dim > _ANCILLA_DIM_CAP:
        raise ValueError(
            f"ancilla circuit oracle is limited to dim <= {_ANCILLA_DIM_CAP}, got {dim}"
        )
    if not H.basis.same_sector(v.basis) or dim != v.basis.dim:
        raise ValueError("state and Hamiltonian live in different sectors")
    U = scipy.linalg.expm(-1j * t_j * H.matrix.toarray())
    joint = np.zeros((2, dim), dtype=np.complex128)
    joint[1] = v.amps
    joint = np.array([joint[0] + joint[1], joint[0] - joint[1]]) / np.sqrt(2.0)
    joint[1] = U @ joint[1]
    joint[1] *= np.exp(1j * E_t * t_j)
    joint = np.array([joint[0] + joint[1], joint[0] - joint[1]]) / np.sqrt(2.0)
    survivor = joint[1]
    nrm = float(np.linalg.norm(survivor))
    prob = nrm * nrm
    if nrm > 0.0:
        survivor = survivor / nrm
    return StateVector(v.basis, survivor), prob


def single_particle_energies(L: int, J: float = 1.0) -> list:
    """Open-chain hopping eigenvalues 2 J cos(k pi / (L+1)), k = 1..L."""
    return [2.0 * J * math.cos(k * math.pi / (L + 1)) for k in range(1, L + 1)]


def sector_ground_energy(L: int, n_up: int, J: float = 1.0) -> float:
    return float(sum(sorted(single_particle_energies(L, J))[:n_up]))


def converged_probe(ctx, T_A: float, step_tol: float):
    """A ramp probe doubled until its infidelity stabilizes, with no
    early stop and no shared ramps.  Returns (infidelity, state, steps)."""
    scale = max(abs(ctx.J_target), ctx.base.scale)
    steps = max(8, math.ceil(2.0 * T_A * scale))
    prev = None
    while True:
        sched = RampSchedule(T_A, steps, ctx.bond, ctx.J_target)
        state = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched)
        fid = infidelity(state.normalized(), ctx.target)
        if prev is not None and abs(fid - prev) < step_tol:
            return fid, state, steps
        prev = fid
        steps *= 2


def ramp_search(target: float, ctx, bisections: int):
    """The duration search with every probe fully converged: doubling from
    T = 1 until a probe reaches the target, then ``bisections`` rounds.
    Returns (T_A, infidelity, state, steps) of the shortest passing probe."""
    step_tol = min(1e-4, target / 10.0)
    lo, T = None, 1.0
    fid, state, steps = converged_probe(ctx, T, step_tol)
    while fid > target:
        lo, T = T, 2.0 * T
        fid, state, steps = converged_probe(ctx, T, step_tol)
    hi = (T, fid, state, steps)
    if lo is not None:
        for _ in range(bisections):
            mid = 0.5 * (lo + hi[0])
            fid, state, steps = converged_probe(ctx, mid, step_tol)
            if fid <= target:
                hi = (mid, fid, state, steps)
            else:
                lo = mid
    return hi
