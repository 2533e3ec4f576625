"""Lowest two eigenpairs per sector, and the infidelity between states.

Below ``DENSE_CUTOFF`` the solver simply diagonalizes.  From there on it
solves free fermions: every Hamiltonian here is an open XX chain, which
by Jordan-Wigner is free fermions (Lieb, Schultz & Mattis, Ann. Phys. 16,
407 (1961)), so a sector's E0 and E1 are sums of its lowest levels, the
eigenvalues of an L x L tridiagonal matrix, and its ground is one Slater
determinant of that matrix's lowest orbitals (see
:func:`_free_fermion_lowest_two`).  The ground is filled in only on the
first read of ``SpectralPair.ground``, so an unread pair holds H alone;
the read prices what it allocates and raises CapacityError, before it
allocates anything sector-sized, if that would not fit in physical
memory.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DegenerateGapError
from .spin_model import (
    BondCouplings,
    SectorBasis,
    SparseHamiltonian,
    StateVector,
    _require_sector_memory,
    build_hamiltonian,
    enumerate_sector,
)

#: Sector dimension at which lowest_two switches from dense to free fermions.
DENSE_CUTOFF = 400

#: Gaps below this multiple of the coupling scale are treated as degenerate.
DEGENERATE_GAP_FACTOR = 1e-10


class SpectralPair:
    """Ground energy, first excited energy, and the ground vector.

    ``ground`` is made by the zero-argument function the pair is built
    with, on its first read, and kept; the function, with all it holds, is
    dropped then.  On the free-fermion route that read fills the Slater
    determinant, and an unread pair holds only H.
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


def _single_particle_levels(couplings: BondCouplings) -> np.ndarray:
    """Ascending eigenvalues of the L x L hopping matrix, zero on the
    diagonal and |J_b| beside it.  On an open chain the signs of J_b are a
    gauge, so +-J give the same floats."""
    J = np.abs(couplings.J)
    return scipy.linalg.eigvalsh_tridiagonal(np.zeros(J.size + 1), J)


def _slater_ground(basis: SectorBasis, couplings: BondCouplings) -> np.ndarray:
    """The sector's unit ground amplitudes, phase-fixed: det Phi[sites of x]
    for each configuration x, its up-spin sites ascending, with Phi the n
    lowest orbitals of the hopping matrix with the couplings' own signs.
    A hop across a bond moves an up spin past no other, so by Jordan-Wigner
    the spin basis state is the fermion one with no sign.

    The n x n minors are gathered and taken ``rows`` configurations at a
    time, so that one chunk holds about 8 dim bytes of them.  The read is
    priced first, configurations included: the output beside one chunk, or
    the phase fixing and the complex copy that ``lowest_two`` makes, 24
    bytes a configuration; and 64 KiB for objects of fixed size, such as
    the orbitals and scipy's caches on a first call.
    """
    L, n, dim = basis.L, basis.n_up, basis.dim
    rows = -(-dim // (n * n))
    chunk = (8 * n * n + 8 * n + 40) * rows  # minors, sites, dets, config work
    _require_sector_memory(basis, 8 * dim + max(8 * dim + chunk, 24 * dim) + (1 << 16),
                           "the Slater-determinant ground")
    phi = scipy.linalg.eigh_tridiagonal(np.zeros(L), couplings.J)[1][:, :n]
    vec = np.empty(dim)
    for start in range(0, dim, rows):
        stop = start + rows
        vec[start:stop] = np.linalg.det(phi[_up_sites(basis.configs[start:stop], n)])
    vec /= np.linalg.norm(vec)
    return _phase_fixed(vec)


def _up_sites(configs: np.ndarray, n: int) -> np.ndarray:
    """The n up-spin sites of each configuration, ascending, one row each.
    Its work arrays are freed on return, so none outlives the fill."""
    c = configs.copy()
    sites = np.empty((c.size, n), dtype=np.intp)
    for i in range(n):
        low = c & -c
        sites[:, i] = np.bitwise_count(low - 1)  # the lowest up spin left
        c ^= low
    return sites


def _free_fermion_lowest_two(H: SparseHamiltonian):
    """The lowest pair from the single-particle levels eps, and the ground
    as a zero-argument function that fills its Slater determinant.

    With n up spins, E0 = eps_0 + ... + eps_{n-1}, and E1 moves the top
    filled level to the lowest empty one: E0 + (eps_n - eps_{n-1}).  The
    energies come from :func:`_single_particle_levels`, the ground from
    :func:`_slater_ground`; the two eigenvalue calls differ in their last
    bits, and the energies keep theirs.
    """
    levels, n = _single_particle_levels(H.couplings), H.basis.n_up
    E0 = float(levels[:n].sum())
    return E0, E0 + float(levels[n] - levels[n - 1]), lambda: _slater_ground(H.basis, H.couplings)


def lowest_two(H: SparseHamiltonian) -> SpectralPair:
    """Ground and first excited energies plus the ground vector.

    The sector size alone picks the route: a dense ``eigh`` below
    ``DENSE_CUTOFF`` states; from there on, energies summed from the
    single-particle levels and a ground by one Slater determinant.  The ground
    vector's first amplitude of largest magnitude (to a relative 1e-8, so
    that ties of opposite sign are resolved by position, not by roundoff)
    is fixed real positive, which pins the sign of the otherwise arbitrary
    real phase; both routes therefore return the same vector.  The
    free-fermion route fills the ground on the first read of ``ground``, so the
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
    solve = _dense_lowest_two if H.dim < DENSE_CUTOFF else _free_fermion_lowest_two
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
