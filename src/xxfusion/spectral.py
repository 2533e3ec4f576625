"""Lowest two eigenpairs per sector, the free-fermion oracle, overlaps.

Below ``DENSE_CUTOFF`` the solver simply diagonalizes; above it a Lanczos
iteration with full reorthogonalization extracts the two lowest Ritz
pairs.  The free-fermion single-particle energies give an independent
check on every sector ground energy of the uniform chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateGapError, LanczosConvergenceError
from .spin_model import SparseHamiltonian, StateVector

#: Sector dimension at which lowest_two switches from dense to Lanczos.
DENSE_CUTOFF = 400

#: Relative residual demanded of each Ritz pair.
LANCZOS_TOL = 1e-10

#: Gaps below this multiple of the coupling scale are treated as degenerate.
DEGENERATE_GAP_FACTOR = 1e-10

_LANCZOS_SEED = 0x5EC7
_LANCZOS_MAX_VECS = 700


@dataclass(frozen=True)
class SpectralPair:
    """Ground energy, first excited energy, and the ground vector."""

    E0: float
    E1: float
    ground: StateVector

    @property
    def gap(self) -> float:
        return self.E1 - self.E0


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    # real eigenvector; make the largest-magnitude amplitude positive
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec.copy()


def _dense_lowest_two(H: SparseHamiltonian):
    w, U = H.dense_eig()
    return float(w[0]), float(w[1]), _phase_fixed(U[:, 0])


def _lanczos_lowest_two(H: SparseHamiltonian, tol: float = LANCZOS_TOL):
    """Two lowest Ritz pairs by fully reorthogonalized Lanczos.

    The starting vector is drawn from a fixed-seed generator so repeated
    runs are bit-identical.  Residuals are estimated from the last row of
    the tridiagonal eigenvectors and both pairs must pass before exit.
    """
    mat = H.matrix
    dim = H.dim
    m_max = min(dim, _LANCZOS_MAX_VECS)
    rng = np.random.default_rng(_LANCZOS_SEED)
    v0 = rng.standard_normal(dim)
    v0 /= np.linalg.norm(v0)

    V = np.empty((m_max + 1, dim))
    V[0] = v0
    alphas: list[float] = []
    betas: list[float] = []
    scale = max(H.norm_inf(), 1e-300)

    for k in range(m_max):
        w = mat @ V[k]
        h = V[: k + 1] @ w
        w -= V[: k + 1].T @ h
        alphas.append(float(h[k]))
        w -= V[: k + 1].T @ (V[: k + 1] @ w)  # second orthogonalization pass
        b = float(np.linalg.norm(w))

        done = False
        if len(alphas) >= 2 and (b <= 1e-13 * scale or k % 2 == 1 or k == m_max - 1):
            theta, S = scipy.linalg.eigh_tridiagonal(alphas, betas)
            res = b * np.abs(S[-1, :2])
            done = bool(np.all(res <= tol * scale)) or b <= 1e-13 * scale
        if done:
            x0 = V[: k + 1].T @ S[:, 0]
            x0 /= np.linalg.norm(x0)
            return float(theta[0]), float(theta[1]), _phase_fixed(x0)
        if b <= 1e-13 * scale:
            # invariant subspace before two pairs converged; reseed
            w = np.random.default_rng(_LANCZOS_SEED + k + 1).standard_normal(dim)
            w -= V[: k + 1].T @ (V[: k + 1] @ w)
            b = float(np.linalg.norm(w))
        betas.append(b)
        V[k + 1] = w / b

    raise LanczosConvergenceError(
        f"Lanczos did not converge two pairs within {m_max} vectors (dim {dim})"
    )


def lowest_two(H: SparseHamiltonian, *, force_method: str | None = None) -> SpectralPair:
    """Ground and first excited energies plus the ground vector.

    The ground vector's largest-magnitude amplitude is fixed real
    positive, which pins the sign of the otherwise arbitrary real phase.
    Raises :class:`DegenerateGapError` when E1 - E0 is below
    ``DEGENERATE_GAP_FACTOR`` times the coupling scale, since every
    schedule downstream divides by the gap.
    """
    if H.dim < 2:
        raise ValueError(f"sector dimension {H.dim} has no first excited state")
    if force_method not in (None, "dense", "lanczos"):
        raise ValueError(f"unknown method {force_method!r}")
    method = force_method or ("dense" if H.dim < DENSE_CUTOFF else "lanczos")
    if method == "dense":
        E0, E1, vec = _dense_lowest_two(H)
    else:
        E0, E1, vec = _lanczos_lowest_two(H)
    if E1 - E0 < DEGENERATE_GAP_FACTOR * H.couplings.scale:
        raise DegenerateGapError(
            f"E1 - E0 = {E1 - E0:.3e} is degenerate at coupling scale "
            f"{H.couplings.scale:.3e} (L={H.basis.L}, n_up={H.basis.n_up})"
        )
    ground = StateVector(H.basis, vec.astype(np.complex128))
    return SpectralPair(E0, E1, ground)


def free_fermion_energies(L: int, J: float = 1.0) -> np.ndarray:
    """Single-particle energies 2J cos(k pi / (L+1)) of the open chain.

    The XX chain maps to free fermions hopping with amplitude J; filling
    the n_up lowest modes gives the sector ground energy exactly.
    """
    if L < 1:
        raise ValueError(f"need at least one site, got L={L}")
    k = np.arange(1, L + 1)
    return 2.0 * J * np.cos(k * np.pi / (L + 1))


def sector_ground_energy_oracle(L: int, n_up: int, J: float = 1.0) -> float:
    """Exact ground energy of sector (L, n_up) from the free-fermion map."""
    if not 0 <= n_up <= L:
        raise ValueError(f"n_up={n_up} outside [0, {L}]")
    energies = np.sort(free_fermion_energies(L, J))
    return float(energies[:n_up].sum())


def _check_compatible(v: StateVector, w: StateVector) -> None:
    if not v.basis.same_sector(w.basis) or v.basis.dim != w.basis.dim:
        raise ValueError("states live in different sectors")


def infidelity(v: StateVector, target: StateVector) -> float:
    """1 - |<target|v>|^2 for normalized v and target."""
    _check_compatible(v, target)
    for s, name in ((v, "v"), (target, "target")):
        if abs(s.norm() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized (norm {s.norm():.12g})")
    overlap = np.vdot(target.amps, v.amps)
    return max(0.0, 1.0 - float(np.abs(overlap)) ** 2)


def spectral_weight(v: StateVector, eigvec: StateVector) -> float:
    """|<eigvec|v>|, the weight of v on a (normalized) eigenvector."""
    _check_compatible(v, eigvec)
    return float(np.abs(np.vdot(eigvec.amps, v.amps)))
