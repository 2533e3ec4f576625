"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``xxfusion`` or the test suite: sectors and
Hamiltonians are built by inspecting bits one configuration at a time,
energies come from the free-fermion solution of the open XX chain
(Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)), rodeo outcomes from
their closed form in a dense eigenbasis, and ramps from a general-purpose
ODE integrator.  Conventions match the program's: bit i of a
configuration is site i, bond b couples sites b and b+1 with hop
amplitude J_b, and a half-chain product puts the first factor on the
high half of the bit string.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.sparse as sp


def sector_configs(L: int, n_up: int) -> list[int]:
    """Every L-bit configuration with n_up bits set, ascending."""
    return [c for c in range(1 << L) if bin(c).count("1") == n_up]


def hop_matrix(configs: list[int], couplings) -> sp.csr_matrix:
    """Sector Hamiltonian sum_b J_b (S+_b S-_{b+1} + h.c.) as real CSR."""
    index = {c: i for i, c in enumerate(configs)}
    rows, cols, vals = [], [], []
    for i, c in enumerate(configs):
        for b, Jb in enumerate(couplings):
            if Jb != 0.0 and (c >> b) & 1 != (c >> (b + 1)) & 1:
                rows.append(index[c ^ (3 << b)])
                cols.append(i)
                vals.append(float(Jb))
    n = len(configs)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def single_particle_energies(L: int, J: float = 1.0) -> np.ndarray:
    """eps_k = 2 J cos(k pi / (L+1)), k = 1..L, sorted ascending."""
    return np.sort([2.0 * J * math.cos(k * math.pi / (L + 1)) for k in range(1, L + 1)])


def free_fermion_pair(L: int, n_up: int, J: float = 1.0) -> tuple[float, float]:
    """(E0, gap) of sector (L, n_up): fill the n_up lowest modes; the gap
    lifts the top particle one mode, eps_{n+1} - eps_n."""
    eps = single_particle_energies(L, J)
    return float(eps[:n_up].sum()), float(eps[n_up] - eps[n_up - 1])


def cycle_times(gap: float, depth: int, ratio: float, superiterations: int) -> np.ndarray:
    """Rodeo cycle times: the ladder (pi / gap) ratio^d, d < depth, repeated."""
    ladder = [math.pi / gap * ratio**d for d in range(depth)]
    return np.array(ladder * superiterations, dtype=np.float64)


class Chain:
    """Uniform open chain of L sites in sector n_up, diagonalized densely.

    Also holds the middle-bond split used by the ramp and the product of
    two exact half-chain grounds, the common input of every fusion step.
    """

    def __init__(self, L: int, n_up: int, J: float = 1.0):
        self.L, self.n_up, self.J = L, n_up, J
        self.configs = sector_configs(L, n_up)
        bond = L // 2 - 1
        self.H_base = hop_matrix(self.configs, [0.0 if b == bond else J for b in range(L - 1)])
        self.H_bond = hop_matrix(self.configs, [1.0 if b == bond else 0.0 for b in range(L - 1)])
        self.E, self.U = np.linalg.eigh((self.H_base + J * self.H_bond).toarray())

    @property
    def ground(self) -> np.ndarray:
        return self.U[:, 0]

    def half_product(self) -> np.ndarray:
        """Two copies of the exact (L/2, n_up/2) ground as one L-site state."""
        half = self.L // 2
        h_configs = sector_configs(half, self.n_up // 2)
        _, U = np.linalg.eigh(hop_matrix(h_configs, [self.J] * (half - 1)).toarray())
        g = U[:, 0]
        amps = dict.fromkeys(self.configs, 0.0)
        for a, ga in zip(h_configs, g):
            for b, gb in zip(h_configs, g):
                amps[(a << half) | b] = ga * gb
        return np.array([amps[c] for c in self.configs])

    def rodeo(self, state: np.ndarray, E_t: float, times) -> tuple[float, float]:
        """Closed-form rodeo outcome (p, infidelity) after the given cycles.

        A cycle at time t keeps eigencomponent k with amplitude factor
        cos((E_k - E_t) t / 2), so p = sum_k |c_k|^2 prod_j cos^2(...);
        the infidelity is the surviving weight outside the ground over p.
        """
        weights = np.abs(self.U.T @ state) ** 2
        times = np.asarray(times, dtype=np.float64)
        damp = np.prod(np.cos(np.outer(self.E - E_t, times) / 2.0) ** 2, axis=1)
        kept = weights * damp
        p = float(kept.sum())
        return p, float(kept[1:].sum() / p)

    def ramp_infidelity(self, state: np.ndarray, T_A: float) -> float:
        """Infidelity after the continuous linear middle-bond ramp 0 -> J.

        Integrates i dpsi/dt = (H_base + (t/T_A) J H_bond) psi with DOP853
        at tight tolerance, which is independent of the program's
        piecewise-constant midpoint stepping.
        """
        Hb, Hu, J = self.H_base, self.H_bond, self.J

        def rhs(t, y):
            return -1j * (Hb @ y + (J * t / T_A) * (Hu @ y))

        y0 = state.astype(np.complex128)
        sol = scipy.integrate.solve_ivp(
            rhs, (0.0, T_A), y0, method="DOP853", rtol=1e-11, atol=1e-13, t_eval=[T_A]
        )
        if not sol.success:
            raise RuntimeError(f"reference ramp integration failed: {sol.message}")
        psi = sol.y[:, -1] / np.linalg.norm(sol.y[:, -1])
        return float(1.0 - abs(np.vdot(self.ground, psi)) ** 2)
