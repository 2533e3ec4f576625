"""Sector bases, the open XX-chain Hamiltonian, and product-state embedding.

Conventions used throughout the package:

* a configuration is an integer whose bit i is the spin at site i
  (1 = up), so site 0 sits at the least significant bit and a ket string
  such as |0110> is just the binary numeral of the configuration with
  site L-1 leftmost,
* chains are open; bond b couples sites b and b+1,
* hbar = 1, so times carry units of 1/J.

A sector lists its configurations in ascending order, so the ordinal of
a configuration with up spins at sites p_1 < ... < p_n is its rank in
the combinatorial number system, sum_i C(p_i, i).  Hamiltonians are
assembled directly from that rank: a hop moves one up spin across a bond
and shifts the ordinal by one binomial, and each CSR row lists its
down-hops (partner c - 2^b) by decreasing bond b, then its up-hops
(partner c + 2^b) by increasing b, so its columns come out ascending
with no sort and no binary search.

Only ``propagate.expmv`` reads the assembled CSR, through its dense
eigendecomposition below ``propagate.DENSE_CUTOFF``; ``spectral.lowest_two``
takes the lowest pair and the ground from free fermions at every sector
size and assembles nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError

#: Refuse to enumerate sectors beyond this size; statevectors would not fit.
MAX_SECTOR_DIM = 1 << 24

#: Longest chain whose configurations fit a signed 64-bit integer.
MAX_SITES = 63

#: Rows that :func:`_hop_pattern` counts and fills at a time.
HOP_BLOCK_ROWS = 1 << 15


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    import os

    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(need: int, message: str, **fields) -> None:
    """Raise :class:`CapacityError`, before anything is allocated, when
    ``need`` bytes exceed physical memory.  ``message`` is formatted with
    ``need`` and ``have`` in GiB plus ``fields``."""
    have = _physical_memory()
    if have is not None and need > have:
        raise CapacityError(
            message.format(need=f"{need / 2**30:.3g}", have=f"{have / 2**30:.3g}", **fields)
        )


def _require_sector_memory(basis, need: int, what: str) -> None:
    """:func:`_require_memory` for ``what``, built on ``basis``'s sector."""
    _require_memory(need, f"{what} of sector (L={basis.L}, n_up={basis.n_up}) needs "
                    "{need} GiB, which exceeds the {have} GiB of physical memory")


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """All configurations of an L-site chain with exactly n_up spins up.

    ``configs`` is sorted ascending, so a configuration's ordinal is its
    combinatorial rank (see the module notes), ``index_of`` recovers it
    by binary search, and ``dim == binomial(L, n_up)``.  The sector also
    keeps its symmetric isometry, built on first access, and the Krylov
    operators that ``propagate`` builds on it.
    """

    L: int
    n_up: int
    configs: np.ndarray
    #: Krylov operators of ``propagate`` on this sector, keyed by couplings,
    #: ramped bond and subspace; each built on its first use
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return int(self.configs.size)

    @cached_property
    def symmetric_isometry(self) -> sp.csr_matrix:
        """Isometry P (dim x m) onto the states even under the chain's
        symmetry group: reflection i <-> L-1-i, and at half filling also the
        global spin flip; built on first access.

        Column j is the indicator of the j-th orbit, in ascending order of
        its least configuration, scaled by 1/sqrt(|orbit|); so P^T P = 1 and
        P P^T projects onto the even states.
        """
        c = self.configs
        mirrored = np.zeros_like(c)
        for i in range(self.L):
            mirrored |= ((c >> i) & 1) << (self.L - 1 - i)
        least = np.minimum(c, mirrored)
        if 2 * self.n_up == self.L:
            ones = np.int64((1 << self.L) - 1)
            least = np.minimum(least, np.minimum(c ^ ones, mirrored ^ ones))
        orbit = (np.cumsum(least == c) - 1)[np.searchsorted(c, least)]
        weight = 1.0 / np.sqrt(np.bincount(orbit))
        return sp.csr_matrix(
            (weight[orbit], orbit, np.arange(self.dim + 1)),
            shape=(self.dim, weight.size),
        )

    def index_of(self, config: int) -> int:
        """Ordinal of ``config`` within the sector."""
        i = int(np.searchsorted(self.configs, config))
        if i == self.dim or int(self.configs[i]) != int(config):
            raise ValueError(
                f"configuration {config:#b} not in sector (L={self.L}, n_up={self.n_up})"
            )
        return i

    def same_sector(self, other: "SectorBasis") -> bool:
        return self is other or (self.L == other.L and self.n_up == other.n_up)


def enumerate_sector(L: int, n_up: int) -> SectorBasis:
    """Enumerate the fixed-magnetization basis of an open L-site chain.

    Returns a :class:`SectorBasis` whose configurations are sorted
    ascending as integers.  They are grown one bit at a time: with the
    configurations of the low m bits kept by up count k, adding bit m
    gives ``level[k] + (level[k-1] | 1 << m)``, which is already ascending.
    """
    if L < 1:
        raise ValueError(f"need at least one site, got L={L}")
    if not 0 <= n_up <= L:
        raise ValueError(f"n_up={n_up} outside [0, {L}]")
    if L > MAX_SITES:
        raise CapacityError(
            f"L={L} exceeds {MAX_SITES} sites, the most a 64-bit configuration holds"
        )
    dim = math.comb(L, n_up)
    if dim > MAX_SECTOR_DIM:
        raise CapacityError(
            f"sector (L={L}, n_up={n_up}) has dimension {dim}, above the cap {MAX_SECTOR_DIM}"
        )
    empty = np.empty(0, dtype=np.int64)
    level = {0: np.zeros(1, dtype=np.int64)}
    for m in range(L):
        bit = np.int64(1 << m)
        # keep only up counts from which n_up is still reachable
        lowest = max(0, n_up - (L - 1 - m))
        level = {
            k: np.concatenate([level.get(k, empty), level.get(k - 1, empty) | bit])
            for k in range(lowest, min(m + 1, n_up) + 1)
        }
    return SectorBasis(L, n_up, level[n_up])


def sector_occupancy(L: int, filling) -> int:
    """Up-spin count n_up = filling * L of the L-site sector at ``filling``;
    ValueError unless that is an integer in [0, L]."""
    n_up = Fraction(filling) * L
    if n_up.denominator != 1:
        raise ValueError(f"filling {filling} gives fractional occupation on {L} sites")
    if not 0 <= n_up <= L:
        raise ValueError(f"filling {filling} gives occupancy outside [0, {L}]")
    return int(n_up)


@dataclass(frozen=True, eq=False)
class BondCouplings:
    """Per-bond couplings of an open chain; ``J[b]`` couples sites b, b+1."""

    J: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=np.float64)
        if J.ndim != 1 or J.size < 1:
            raise ValueError("couplings must be a nonempty 1d array")
        if not np.all(np.isfinite(J)):
            raise ValueError("couplings must be finite")
        object.__setattr__(self, "J", J)

    @property
    def n_sites(self) -> int:
        return self.J.size + 1

    @property
    def scale(self) -> float:
        """Largest |J_b|, or 1.0 for the all-zero chain (tolerance anchor)."""
        s = float(np.max(np.abs(self.J)))
        return s if s > 0.0 else 1.0

    @staticmethod
    def uniform(L: int, J: float = 1.0) -> "BondCouplings":
        if L < 2:
            raise ValueError("a chain needs at least two sites to have bonds")
        return BondCouplings(np.full(L - 1, J))

    def with_bond(self, bond: int, value: float) -> "BondCouplings":
        """Copy with bond ``bond`` replaced by ``value``."""
        if not 0 <= bond < self.J.size:
            raise ValueError(f"bond {bond} outside [0, {self.J.size})")
        J = self.J.copy()
        J[bond] = value
        return BondCouplings(J)


def middle_bond(L: int) -> int:
    """Bond joining the two halves of an even-length chain."""
    if L % 2 != 0:
        raise ValueError(f"L={L} has no middle bond")
    return L // 2 - 1


@dataclass(frozen=True, eq=False)
class SparseHamiltonian:
    """XX Hamiltonian restricted to one sector; its real CSR ``matrix``
    and dense eigendecomposition are each computed on first access and
    kept, and only the dense eigendecomposition reads ``matrix``.

    H = sum_b J[b] (S+_b S-_{b+1} + S-_b S+_{b+1}); diagonal is zero and
    every matrix element is real, so the eigenbasis can be chosen real.
    Only ``propagate.expmv`` reads ``dense_eig``, below its
    ``DENSE_CUTOFF``.  ``spectral.lowest_two`` reads neither attribute at
    any size: it solves free fermions from the couplings.  The Krylov
    operators of ``propagate``, kept on the sector, build what they need
    from the pattern of :func:`_hop_pattern`.  Each of these prices its own
    working set before building it.
    """

    basis: SectorBasis
    couplings: BondCouplings

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """CSR of H on the canonical hop pattern; zero bonds store nothing.
        Priced with the configurations before it is built."""
        basis = self.basis
        need = 8 * basis.dim + sum(_pattern_bytes(basis.dim, _max_hops(basis), 8))
        _require_sector_memory(basis, need, "the CSR of H")
        indptr, indices, data = _hop_pattern(basis, self.couplings.J)
        return sp.csr_matrix((data, indices, indptr), shape=(self.dim, self.dim))

    @cached_property
    def dense_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Full eigendecomposition (w, U); intended for small dims."""
        return np.linalg.eigh(self.matrix.toarray())


def _max_hops(basis: SectorBasis) -> int:
    """Most hops a sector's Hamiltonian stores: 2 dim n (L - n) / L, dim
    times the mean count of antiparallel bonds; exact with every bond
    live."""
    return 2 * basis.dim * basis.n_up * (basis.L - basis.n_up) // basis.L


def _pattern_bytes(rows: int, hops: int, itemsize: int) -> tuple[int, int]:
    """Bytes of the CSR arrays that :func:`_hop_pattern` returns for
    ``rows`` rows and at most ``hops`` hops of ``itemsize``-byte weights
    (4 per column index and row pointer), and of the work arrays, about 72
    bytes a row, of the one block of rows it holds beside them while filling."""
    return (4 + itemsize) * hops + 4 * (rows + 1), 72 * min(rows, HOP_BLOCK_ROWS)


def _hop_pattern(basis: SectorBasis, weights) -> tuple:
    """Canonical CSR arrays (indptr, indices, data) of the hops weighted
    by ``weights``: the hop across bond b stores ``weights[b]``, in the
    dtype of ``weights``, and a bond of weight zero stores nothing.

    Moving the up spin across bond b changes the ordinal by +-C(b, k),
    where k counts the up spins below site b.  Rows are filled in the
    order of the module notes: down-hops from the row start, up-hops from
    the row end, both by decreasing b.

    The rows are counted, and then filled, ``HOP_BLOCK_ROWS`` at a time,
    straight into the final arrays: the work arrays hold one block's rows
    whatever the sector's size.
    """
    weights = np.asarray(weights)
    bonds = np.flatnonzero(weights)
    configs = basis.configs
    antiparallel = np.int64(sum(1 << int(b) for b in bonds))  # bit b of c ^ (c >> 1): bond b
    shifts = {int(b): np.array([math.comb(b, k) for k in range(basis.n_up)], dtype=np.int64)
              for b in bonds}
    dim = basis.dim
    blocks = [(i, min(i + HOP_BLOCK_ROWS, dim)) for i in range(0, dim, HOP_BLOCK_ROWS)]

    indptr = np.zeros(dim + 1, dtype=np.int32)
    for start, stop in blocks:
        c = configs[start:stop]
        ends = indptr[start + 1:stop + 1]
        np.cumsum(np.bitwise_count((c ^ (c >> 1)) & antiparallel), dtype=np.int32, out=ends)
        ends += indptr[start]
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    data = np.empty(indices.size, dtype=weights.dtype)
    for start, stop in blocks:
        c = configs[start:stop]
        down_pos = indptr[start:stop].copy()  # filled forward from the row start
        up_pos = indptr[start + 1:stop + 1].copy()  # filled backward from the row end
        for b in sorted(shifts, reverse=True):
            spins = (c >> b) & 3  # bit 1: site b + 1, bit 0: site b
            down, up = np.flatnonzero(spins == 2), np.flatnonzero(spins == 1)
            down_at = down_pos[down]
            down_pos[down] += 1
            up_pos[up] -= 1
            for hop, pos, shift in ((down, down_at, -shifts[b]), (up, up_pos[up], shifts[b])):
                below = np.bitwise_count(c[hop] & ((1 << b) - 1))  # up spins below site b
                indices[pos] = start + hop + shift[below]
                data[pos] = weights[b]
    return indptr, indices, data


def build_hamiltonian(basis: SectorBasis, couplings: BondCouplings) -> SparseHamiltonian:
    """The sector-restricted hop Hamiltonian; its CSR is assembled on
    first access to ``matrix``.

    A bond b contributes J[b] between configurations that differ by one
    exchange of antiparallel neighbors across that bond; magnetization is
    conserved, so the sector closes under all hops.  Zero bonds store
    nothing.  It allocates nothing sector-sized, so it prices nothing;
    see :class:`SparseHamiltonian`.
    """
    if couplings.n_sites != basis.L:
        raise ValueError(
            f"couplings are for {couplings.n_sites} sites, basis has {basis.L}"
        )
    return SparseHamiltonian(basis, couplings)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over one sector basis, in config order."""

    basis: SectorBasis
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude shape {amps.shape} does not match sector dim {self.basis.dim}"
            )
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amps / n)


def basis_state(basis: SectorBasis, config: int) -> StateVector:
    """The computational basis state |config> as a sector vector."""
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.index_of(config)] = 1.0
    return StateVector(basis, amps)


def embed_product(a: StateVector, b: StateVector, *, basis: SectorBasis) -> StateVector:
    """Tensor product of two half-chain states inside ``basis``, the
    doubled chain's sector.

    The first factor occupies sites half..L-1 (the left half of the ket
    string), the second sites 0..half-1, so |01> (x) |10> lands on the
    four-site configuration 0b0110.  The map is an isometry: norms
    multiply.
    """
    if a.basis.L != b.basis.L:
        raise ValueError(
            f"halves must have equal length, got {a.basis.L} and {b.basis.L}"
        )
    half = a.basis.L
    L = 2 * half
    n_up = a.basis.n_up + b.basis.n_up
    if basis.L != L or basis.n_up != n_up:
        raise ValueError(
            f"target basis (L={basis.L}, n_up={basis.n_up}) does not match "
            f"the product sector (L={L}, n_up={n_up})"
        )
    combined = ((a.basis.configs[:, None] << half) | b.basis.configs[None, :]).ravel()
    idx = np.searchsorted(basis.configs, combined)
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[idx] = np.outer(a.amps, b.amps).ravel()
    return StateVector(basis, amps)
