"""Lowest two eigenpairs per sector, and the infidelity between states.

Below ``DENSE_CUTOFF`` the solver simply diagonalizes.  Above it the
chain's bipartite structure is used: every hop flips the parity of the up
spins on even sites, so in the basis split by that parity
H = [[0, B], [B^T, 0]] and the lowest pair of H is -sigma_1, -sigma_2 of
B.  B is built straight from the hop pattern of the smaller parity
block's rows, so this route never forms the CSR of H.  ARPACK's
implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``) finds the
top two eigenpairs of B^T B on the larger parity block from a fixed-seed
generator, and the ground is lifted back to the whole sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import DegenerateGapError, LanczosConvergenceError
from .spin_model import (
    LANCZOS_NCV,
    BondCouplings,
    SparseHamiltonian,
    StateVector,
    _hop_pattern,
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
    w, U = H.dense_eig
    return float(w[0]), float(w[1]), _phase_fixed(U[:, 0])


def _sublattice_blocks(H: SparseHamiltonian):
    """The larger sublattice-parity block of H's sector, and the hop block B.

    Returns ``(big, B)``: ``big`` masks the configurations of the larger
    block (ties go to the even-parity one), and B (smaller x larger, CSR)
    holds every hop of H, since each hop leaves its block.  B is built
    from the hop pattern of the smaller block's rows alone, so the CSR of
    H is never formed; its columns are ranked by ``cumsum(big)``, which is
    monotone, so they stay ascending.
    """
    configs = H.basis.configs
    odd = np.zeros(H.dim, dtype=bool)
    for site in range(0, H.basis.L, 2):
        odd ^= ((configs >> site) & 1).astype(bool)
    big = odd if 2 * np.count_nonzero(odd) > H.dim else ~odd
    m = int(np.count_nonzero(big))
    rank = np.cumsum(big, dtype=np.int32) - 1
    J = H.couplings.J
    indptr, indices, bond = _hop_pattern(H.basis, np.flatnonzero(J), np.flatnonzero(~big))
    B = sp.csr_matrix((J[bond], rank[indices], indptr), shape=(H.dim - m, m))
    return big, B


def _lanczos_lowest_two(H: SparseHamiltonian):
    """Two lowest eigenpairs by ARPACK's implicitly restarted Lanczos on B^T B.

    Every hop moves one up spin between an even and an odd site, so it
    flips the parity of the up spins on even sites.  Ordered by that
    parity, H = [[0, B], [B^T, 0]] with B the hops from the smaller block
    into the larger one, and the eigenvalues of H are +-sigma_i(B) plus
    zeros: E0 = -sigma_1 and E1 = -sigma_2 (Golub & Kahan, SIAM J. Numer.
    Anal. 2, 205 (1965)).  ARPACK finds the two largest eigenpairs of
    B^T B, applied as B^T (B x) with no product or transposed copy formed,
    on vectors of the larger block's length; on these chains that
    converges in fewer steps than the lowest pair of H, whose relative gap
    is about a quarter of B^T B's.  sigma^2 is clipped at 0 before the root,
    since a zero singular value may come back as a roundoff below 0.  With
    x the top eigenvector, the ground is x on the larger block and
    -B x / sigma_1 on the smaller one, over sqrt(2).

    ARPACK restarts within ``LANCZOS_NCV`` vectors for two pairs, so memory
    does not grow with the iteration count.  Its start vector, and the fresh
    vector it draws where the Krylov space closes early (B of rank one),
    come from one generator seeded with ``_LANCZOS_SEED``, so repeated runs
    are bit-identical.  With no hop stored (every coupling zero) H = 0, and
    E0 = E1 = 0 with the first basis state.
    """
    big, B = _sublattice_blocks(H)
    if B.nnz == 0:
        return 0.0, 0.0, np.eye(1, H.dim).ravel()
    m = B.shape[1]
    gram = LinearOperator((m, m), matvec=lambda x: B.T @ (B @ x), dtype=np.float64)
    rng = np.random.default_rng(_LANCZOS_SEED)
    v0 = rng.standard_normal(m)
    try:
        w, U = eigsh(
            gram, k=2, which="LA", v0=v0, tol=LANCZOS_TOL, ncv=LANCZOS_NCV, rng=rng
        )
    except ArpackNoConvergence as err:
        raise LanczosConvergenceError(
            f"Lanczos did not converge two pairs (dim {H.dim}): {err}"
        ) from err
    second, top = np.argsort(w)
    sigma1, sigma2 = np.sqrt(np.clip(w[[top, second]], 0.0, None))
    x = U[:, top]
    vec = np.empty(H.dim)
    vec[big] = x
    vec[~big] = -(B @ x) / sigma1
    return float(-sigma1), float(-sigma2), _phase_fixed(vec / np.sqrt(2.0))


def lowest_two(H: SparseHamiltonian) -> SpectralPair:
    """Ground and first excited energies plus the ground vector.

    The sector size alone picks the route: a dense ``eigh`` below
    ``DENSE_CUTOFF`` states, ARPACK on B^T B from there on.  The ground
    vector's first amplitude of largest magnitude (to a relative 1e-8, so
    that ties of opposite sign are resolved by position, not by roundoff)
    is fixed real positive, which pins the sign of the otherwise arbitrary
    real phase; both routes therefore return the same vector.
    Raises :class:`DegenerateGapError` when E1 - E0 is below
    ``DEGENERATE_GAP_FACTOR`` times the coupling scale, since every
    schedule downstream divides by the gap.
    """
    if H.dim < 2:
        raise ValueError(
            f"sector (L={H.basis.L}, n_up={H.basis.n_up}) has dimension {H.dim}; no gap"
        )
    solve = _dense_lowest_two if H.dim < DENSE_CUTOFF else _lanczos_lowest_two
    E0, E1, vec = solve(H)
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


def infidelity(v: StateVector, target: StateVector) -> float:
    """1 - |<target|v>|^2 for normalized v and target."""
    if not v.basis.same_sector(target.basis) or v.basis.dim != target.basis.dim:
        raise ValueError("states live in different sectors")
    for s, name in ((v, "v"), (target, "target")):
        if abs(s.norm() - 1.0) > 1e-9:
            raise ValueError(f"{name} is not normalized (norm {s.norm():.12g})")
    overlap = np.vdot(target.amps, v.amps)
    return max(0.0, 1.0 - float(np.abs(overlap)) ** 2)
