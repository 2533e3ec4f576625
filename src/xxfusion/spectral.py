"""Lowest two eigenpairs per sector, the free-fermion oracle, overlaps.

Below ``DENSE_CUTOFF`` the solver simply diagonalizes; above it ARPACK's
implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``) extracts the
two lowest Ritz pairs from a fixed-seed start vector.  The free-fermion
single-particle energies give an independent check on every sector
ground energy of the uniform chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import DegenerateGapError, LanczosConvergenceError
from .spin_model import (
    BondCouplings,
    SparseHamiltonian,
    StateVector,
    build_hamiltonian,
    enumerate_sector,
)

#: Sector dimension at which lowest_two switches from dense to Lanczos.
DENSE_CUTOFF = 400

#: ARPACK tolerance: residual of each Ritz pair relative to its Ritz value.
LANCZOS_TOL = 1e-10

#: Gaps below this multiple of the coupling scale are treated as degenerate.
DEGENERATE_GAP_FACTOR = 1e-10

_LANCZOS_SEED = 0x5EC7


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
    # real eigenvector; make the first amplitude of largest magnitude
    # positive.  Largest amplitudes often come in pairs of equal size and
    # opposite sign, so a plain argmax would pick one by roundoff.
    mag = np.abs(vec)
    k = int(np.argmax(mag >= (1.0 - 1e-8) * mag.max()))
    return -vec if vec[k] < 0 else vec.copy()


def _dense_lowest_two(H: SparseHamiltonian):
    w, U = H.dense_eig()
    return float(w[0]), float(w[1]), _phase_fixed(U[:, 0])


def _lanczos_lowest_two(H: SparseHamiltonian):
    """Two lowest eigenpairs by ARPACK's implicitly restarted Lanczos.

    ARPACK restarts within at most 20 vectors for two pairs, so memory does
    not grow with the iteration count and no growing basis is fully
    reorthogonalized.  Its default start vector is random; a fixed-seed
    one keeps repeated runs bit-identical.
    """
    v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(H.dim)
    try:
        w, U = eigsh(H.matrix, k=2, which="SA", v0=v0, tol=LANCZOS_TOL)
    except ArpackNoConvergence as err:
        raise LanczosConvergenceError(
            f"Lanczos did not converge two pairs (dim {H.dim}): {err}"
        ) from err
    lo, hi = np.argsort(w)
    return float(w[lo]), float(w[hi]), _phase_fixed(U[:, lo])


def lowest_two(H: SparseHamiltonian, *, force_method: str | None = None) -> SpectralPair:
    """Ground and first excited energies plus the ground vector.

    The ground vector's first amplitude of largest magnitude (to a relative
    1e-8, so that ties of opposite sign are resolved by position, not by
    roundoff) is fixed real positive, which pins the sign of the otherwise
    arbitrary real phase; both routes therefore return the same vector.
    Raises :class:`DegenerateGapError` when E1 - E0 is below
    ``DEGENERATE_GAP_FACTOR`` times the coupling scale, since every
    schedule downstream divides by the gap.
    """
    if H.dim < 2:
        raise ValueError(
            f"sector (L={H.basis.L}, n_up={H.basis.n_up}) has dimension {H.dim}; no gap"
        )
    if force_method not in (None, "dense", "lanczos"):
        raise ValueError(f"unknown method {force_method!r}")
    method = force_method or ("dense" if H.dim < DENSE_CUTOFF else "lanczos")
    if method == "lanczos" and H.dim < 3:
        raise ValueError(f"the Lanczos route needs dimension 3 or more, got {H.dim}")
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


def chain_pair(L: int, n_up: int, J: float = 1.0) -> tuple[SparseHamiltonian, SpectralPair]:
    """The uniform L-site chain's Hamiltonian in sector ``n_up``, and its lowest pair."""
    H = build_hamiltonian(enumerate_sector(L, n_up), BondCouplings.uniform(L, J))
    return H, lowest_two(H)


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
