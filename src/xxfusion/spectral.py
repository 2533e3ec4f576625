"""Lowest two eigenpairs per sector, and the infidelity between states.

Below ``DENSE_CUTOFF`` the solver simply diagonalizes.  From there on the
energies come from the single-particle levels: every Hamiltonian here is
an open XX chain, which is free fermions (Lieb, Schultz & Mattis, Ann.
Phys. 16, 407 (1961)), so a sector's E0 and E1 are sums of its lowest
levels, the eigenvalues of an L x L tridiagonal matrix.  The ground is
solved for only on the first read of ``SpectralPair.ground``, by a
two-pass Lanczos iteration on B^T B, with B the hops between the chain's
two sublattice-parity blocks (see :func:`_lanczos_lowest_two`), so an
unread pair holds H alone.  This module owns that layout, so the read
prices it (:func:`_ground_need`) and raises CapacityError, before it
allocates anything, if it would not fit in physical memory.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import DegenerateGapError, LanczosConvergenceError
from .spin_model import (
    BondCouplings,
    SparseHamiltonian,
    StateVector,
    _hop_pattern,
    _max_hops,
    _pattern_bytes,
    _require_sector_memory,
    build_hamiltonian,
    enumerate_sector,
)

#: Sector dimension at which lowest_two switches from dense to Lanczos.
DENSE_CUTOFF = 400

#: Residual of the second Ritz pair of B^T B relative to its value.  Pass 1
#: waits for it although E1 comes from the levels: the step it stops at
#: fixes the ground's last bits.
LANCZOS_TOL = 1e-10

#: Residual of the top Ritz pair relative to its value; tighter, since its
#: vector becomes the ground.
_TOP_TOL = 1e-13

#: Ritz values within this relative distance of theta_1 are its ghost copies.
_GHOST_SPREAD = 1e-12

#: beta_k at or below this multiple of theta_1 closes the Krylov space.
_BREAKDOWN = 1e-12

#: Steps one Lanczos pass takes before raising LanczosConvergenceError;
#: pass 1 takes at most 59 on the sectors of L <= 14 with random couplings
#: and 51 at (22, 11).
LANCZOS_MAX_STEPS = 500

#: float64 vectors of the larger sublattice-parity block's length that the
#: two Lanczos passes hold at their peak, their temporaries included: 6.1
#: at (18, 9), 5.1 where the Krylov space closes.
LANCZOS_VECTORS = 8

#: Gaps below this multiple of the coupling scale are treated as degenerate.
DEGENERATE_GAP_FACTOR = 1e-10

_LANCZOS_SEED = 0x5EC7


class SpectralPair:
    """Ground energy, first excited energy, and the ground vector.

    ``ground`` is made by the zero-argument function the pair is built
    with, on its first read, and kept; the function, with all it holds, is
    dropped then.  On the Lanczos route that read builds B and runs both
    Lanczos passes and the lift, and an unread pair holds only H.
    """

    def __init__(self, E0: float, E1: float, ground: Callable[[], StateVector]):
        self.E0, self.E1 = E0, E1
        self._make_ground = ground

    @cached_property
    def ground(self) -> StateVector:
        ground, self._make_ground = self._make_ground(), None
        return ground

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
    ground = _phase_fixed(U[:, 0])
    return float(w[0]), float(w[1]), lambda: ground


def _sublattice_blocks(H: SparseHamiltonian):
    """The larger sublattice-parity block of H's sector, and the hop block B.

    Returns ``(big, B)``: ``big`` masks the configurations of the larger
    block (ties go to the even-parity one), and B (smaller x larger, CSR)
    holds every hop of H, since each hop leaves its block.  B is built
    from the hop pattern of the smaller block's rows alone, so the CSR of
    H is never formed; its columns are ranked by ``cumsum(big)``, which is
    monotone, so they stay ascending.
    """
    L, dim = H.basis.L, H.dim
    even_sites = sum(1 << site for site in range(0, L, 2))
    odd = (np.bitwise_count(H.basis.configs & even_sites) & 1).astype(bool)
    big = odd if 2 * np.count_nonzero(odd) > dim else ~odd
    m = int(np.count_nonzero(big))
    rank = np.cumsum(big, dtype=np.int32)
    rank -= 1
    indptr, indices, data = _hop_pattern(H.basis, H.couplings.J, np.flatnonzero(~big), rank)
    B = sp.csr_matrix((data, indices, indptr), shape=(dim - m, m))
    return big, B


def _ground_need(basis) -> int:
    """Bytes a Lanczos-route ground read holds at its peak, configurations
    included: B (half the hops) and the larger block's mask, beside B's
    build (work arrays, column ranks, the smaller block's row ordinals),
    the passes (``LANCZOS_VECTORS`` vectors of the larger block's length
    m), or the lift (x; the ground, its scaled copy, their magnitudes and
    the phase-fixed copy)."""
    L, n, dim = basis.L, basis.n_up, basis.dim
    evens = (L + 1) // 2
    odd = sum(math.comb(evens, k) * math.comb(L - evens, n - k) for k in range(1, n + 1, 2))
    small, m = min(odd, dim - odd), max(odd, dim - odd)
    B, work = _pattern_bytes(small, _max_hops(basis) // 2, 8)
    return 9 * dim + B + max(work + 5 * dim + 8 * small, 8 * LANCZOS_VECTORS * m, 8 * m + 34 * dim)


def _tridiag_eig(alphas, betas):
    # eigenpairs of the real symmetric tridiagonal T, eigenvalues ascending;
    # dstevd is the driver scipy's eigh_tridiagonal picks, called without
    # its wrapper
    if alphas.size == 1:
        return alphas, np.ones((1, 1))
    theta, S, info = scipy.linalg.lapack.dstevd(alphas, betas)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info={info}")
    return theta, S


def _recurrence(gram, q, q_prev, beta_prev, alpha=None):
    """One step of the three-term recurrence: w = G q - beta_prev q_prev -
    alpha q, the next Lanczos vector times beta, and alpha, the Rayleigh
    quotient taken after the first subtraction unless it is given.  Pass 2
    hands back the alphas of pass 1, so its vectors repeat pass 1's bit for
    bit."""
    w = gram(q)
    if q_prev is not None:
        w -= beta_prev * q_prev
    if alpha is None:
        alpha = float(np.dot(q, w))
    w -= alpha * q
    return w, alpha


def _first_pass(gram, q):
    """Pass 1 of the Lanczos iteration of ``gram`` from the unit vector q,
    keeping only alpha_k and beta_k.

    After step k, with (theta_j, s_j) the eigenpairs of the tridiagonal T_k
    and beta_k |s_j[-1]| the residual of Ritz pair j, the pass stops once
    the top pair's residual is at most ``_TOP_TOL`` theta_1 and the largest
    Ritz value more than ``_GHOST_SPREAD`` relative below theta_1 meets
    ``LANCZOS_TOL``.  Without reorthogonalization, converged values come
    back as ghost copies (Cullum & Willoughby, *Lanczos Algorithms for
    Large Symmetric Eigenvalue Computations*, 1985); those of theta_1 sit
    within the spread and do not count as a second value.  It also stops
    when the Krylov space closes: beta_k at most ``_BREAKDOWN`` theta_1.

    Returns (alphas, betas, s_1, theta_1, theta_2), theta_2 being the
    second value (nan if the space closed before there was one).
    Raises :class:`LanczosConvergenceError` after ``LANCZOS_MAX_STEPS``.
    """
    alphas, betas = np.empty((2, LANCZOS_MAX_STEPS))
    q_prev = None
    for k in range(LANCZOS_MAX_STEPS):
        w, alphas[k] = _recurrence(gram, q, q_prev, betas[k - 1] if k else 0.0)
        b = betas[k] = math.sqrt(np.dot(w, w))
        theta, S = _tridiag_eig(alphas[: k + 1], betas[:k])
        res = b * np.abs(S[-1])
        top = theta[-1]
        below = np.flatnonzero(theta < top * (1.0 - _GHOST_SPREAD))
        second = theta[below[-1]] if below.size else math.nan
        if b <= _BREAKDOWN * top or (
            res[-1] <= _TOP_TOL * top and below.size and res[below[-1]] <= LANCZOS_TOL * second
        ):
            return alphas[: k + 1], betas[:k], S[:, -1], top, second
        w /= b
        q_prev, q = q, w
    raise LanczosConvergenceError(
        f"Lanczos did not converge two pairs within {LANCZOS_MAX_STEPS} steps "
        f"(parity block of {q.size} states)"
    )


def _ritz_vector(gram, q, alphas, betas, s):
    """Pass 2: the unit Ritz vector sum_k s_k q_k, replaying pass 1's
    recurrence from the same start q with its alphas and betas; one product
    and no inner product per step."""
    x = s[0] * q
    q_prev = None
    for k in range(s.size - 1):
        w, _ = _recurrence(gram, q, q_prev, betas[k - 1] if k else 0.0, alphas[k])
        w /= betas[k]
        x += s[k + 1] * w
        q_prev, q = q, w
    return x / np.linalg.norm(x)


def _gram_top(B: sp.csr_matrix):
    """The largest eigenvalue of B^T B and its unit eigenvector, by a
    two-pass Lanczos iteration on x -> B^T (B x) with no product or
    transposed copy formed.

    Pass 1 (:func:`_first_pass`) keeps alpha_k and beta_k, and pass 2
    (:func:`_ritz_vector`) replays them to sum the top Ritz vector, so only
    the current Lanczos vectors are ever held.  The start vector comes from
    a generator seeded with ``_LANCZOS_SEED``, so repeated runs are
    bit-identical.
    """
    Bt = B.T

    def gram(q):
        return Bt @ (B @ q)

    q0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(B.shape[1])
    q0 /= np.linalg.norm(q0)
    alphas, betas, s, theta1, _ = _first_pass(gram, q0)
    return theta1, _ritz_vector(gram, q0, alphas, betas, s)


def _single_particle_levels(couplings: BondCouplings) -> np.ndarray:
    """Ascending eigenvalues of the L x L hopping matrix, zero on the
    diagonal and |J_b| beside it.  On an open chain the signs of J_b are a
    gauge, so +-J give the same floats."""
    J = np.abs(couplings.J)
    return scipy.linalg.eigvalsh_tridiagonal(np.zeros(J.size + 1), J)


def _lanczos_lowest_two(H: SparseHamiltonian):
    """The lowest pair from the single-particle levels eps, and the ground
    by a two-pass Lanczos iteration on B^T B.

    With n up spins, E0 = eps_0 + ... + eps_{n-1}, and E1 moves the top
    filled level to the lowest empty one: E0 + (eps_n - eps_{n-1}).  The
    ground, returned as a zero-argument function, builds B and runs both
    passes and the lift.  Every hop moves one up spin between an even and
    an odd site, so it flips the parity of the up spins on even sites.
    Ordered by that parity, H = [[0, B], [B^T, 0]] with B the hops from the
    smaller block into the larger one, and the eigenvalues of H are
    +-sigma_i(B) plus zeros, so E0 = -sigma_1 (Golub & Kahan, SIAM J.
    Numer. Anal. 2, 205 (1965)).  :func:`_gram_top` finds sigma_1^2 and the
    top eigenvector x of B^T B on vectors of the larger block's length; on
    these chains that converges in fewer steps than the lowest pair of H,
    whose relative gap is about a quarter of B^T B's.  The ground is x on
    the larger block and -B x / sigma_1 on the smaller one, over sqrt(2).
    """
    levels, n = _single_particle_levels(H.couplings), H.basis.n_up
    E0 = float(levels[:n].sum())

    def ground():
        _require_sector_memory(H.basis, _ground_need(H.basis), "the Lanczos ground")
        big, B = _sublattice_blocks(H)
        theta1, x = _gram_top(B)
        vec = np.empty(big.size)
        vec[big] = x
        vec[~big] = -(B @ x) / math.sqrt(theta1)
        return _phase_fixed(vec / np.sqrt(2.0))

    return E0, E0 + float(levels[n] - levels[n - 1]), ground


def lowest_two(H: SparseHamiltonian) -> SpectralPair:
    """Ground and first excited energies plus the ground vector.

    The sector size alone picks the route: a dense ``eigh`` below
    ``DENSE_CUTOFF`` states; from there on, energies summed from the
    single-particle levels and a ground by Lanczos on B^T B.  The ground
    vector's first amplitude of largest magnitude (to a relative 1e-8, so
    that ties of opposite sign are resolved by position, not by roundoff)
    is fixed real positive, which pins the sign of the otherwise arbitrary
    real phase; both routes therefore return the same vector.  The Lanczos
    route solves for the ground on the first read of ``ground``, so the
    energies and the gap cost one L x L tridiagonal eigenvalue problem, and
    an unread pair holds only H; see :class:`SpectralPair`.
    Raises :class:`DegenerateGapError` when E1 - E0 is below
    ``DEGENERATE_GAP_FACTOR`` times the coupling scale, since every
    schedule downstream divides by the gap.
    """
    if H.dim < 2:
        raise ValueError(
            f"sector (L={H.basis.L}, n_up={H.basis.n_up}) has dimension {H.dim}; no gap"
        )
    solve = _dense_lowest_two if H.dim < DENSE_CUTOFF else _lanczos_lowest_two
    E0, E1, vector = solve(H)
    if E1 - E0 < DEGENERATE_GAP_FACTOR * H.couplings.scale:
        raise DegenerateGapError(
            f"E1 - E0 = {E1 - E0:.3e} is degenerate at coupling scale "
            f"{H.couplings.scale:.3e} (L={H.basis.L}, n_up={H.basis.n_up})"
        )
    basis = H.basis
    return SpectralPair(E0, E1, lambda: StateVector(basis, vector().astype(np.complex128)))


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
