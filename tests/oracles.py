"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (python loops, dense
matrices, scipy.linalg.expm) so that agreement with the library is a
genuine cross-check rather than the same code exercised twice.
"""

import math

import numpy as np
import scipy.linalg

from xxfusion import StateVector

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
