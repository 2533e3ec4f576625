"""Exact-propagator application and the linear middle-bond ramp.

``expmv`` applies exp(-i H t) of one fixed H, as in the rodeo cycles,
and the ramp applies the midpoint steps of H(lambda).  Both run on one
Krylov operator, :class:`_Operator`: the doubled CSR of H on the hop
pattern of its couplings, the ramped bond's entries, which each ramp
step rewrites in place, a workspace and a stop hint.  It is built once
per sector, couplings, ramped bond (none for ``expmv``) and subspace, and
kept on the sector; before it builds anything it prices its whole build
(:func:`_price_operator`) and raises CapacityError if that exceeds
physical memory.  ``expmv`` takes it from ``DENSE_CUTOFF`` states on;
below, it applies H's cached dense eigendecomposition.

The Krylov substep runs a real Lanczos iteration on the state stored as
a (2, n) block [Re; Im].  H is real symmetric, so every Lanczos vector
p_k(H) v is built by a real polynomial p_k, and the Hermitian inner
products <p_j(H) v, H p_k(H) v> are real (Hochbruck & Lubich, SIAM J.
Numer. Anal. 34, 1911 (1997)): the complex iteration is the real one on
R^{2n}, one product of the real CSR block_diag(H, H) a step with no
complex upcast; only exp(-i T t) e1 of the real tridiagonal T is complex.
The recurrence orthogonalizes each vector against the two before it
only, as in Expokit's DSEXPV (Sidje, ACM TOMS 24, 130 (1998)); the loss
of global orthogonality does not spoil exp(-iHt)v (Druskin, Greenbaum &
Knizhnerman, SIAM J. Sci. Comput. 19, 38 (1998)), and the a posteriori
estimate beta0 * b * |t| * |u_m| decides when a substep is done.  Each
estimate costs a dstevd of T, so estimates start one iteration before
the previous substep's stop (carried through a propagation, a ramp, and
the ``expmv`` calls on one operator); if the first passes, the stored
iterations are walked back until one fails, giving the every-iteration
stop when estimates fall monotonically.

Both evolutions run in the chain's symmetric subspace whenever their
inputs allow (Sandvik, AIP Conf. Proc. 1297, 135 (2010)), under one gate,
:func:`_symmetric_reduction`.  With palindromic base couplings, H(lambda)
= H_base + lambda H_bond commutes at every lambda with reflection of the
chain, i <-> L-1-i, and at half filling also with the global spin flip;
the product of two identical halves, and every ramp and rodeo survivor
of it, is even under both.  Within ``tol`` of its even part, an input v
is propagated as P^T v under P^T H(lambda) P and lifted back as P x, with
P the isometry :attr:`SectorBasis.symmetric_isometry`.  That subspace is
about half the sector, a quarter at half filling (12,870 -> 3,299 at
L=16), and a step costs in proportion to its dimension.  Otherwise the
arithmetic is the full sector's, bit for bit.

The norm bound sets the substep count, so each caller keeps its own:
swapping either one moves output bytes.  ``expmv`` passes the full H's
||H||_inf, recorded by its operator before compression, which bounds a
reduced propagation too (||P^T H P||_2 <= ||H||_2 <= ||H||_inf); the
reduced matrix's own bound would differ (12.83 against 12 at (L, n) =
(14, 6), the sector of the benchmark's energy scan).  The ramp has no
full H at its lambda, so each step passes what :meth:`_Operator.set`
returns, ||P^T H_base P||_inf + |lambda| ||P^T H_bond P||_inf; at
lambda = 1 that is 7.657 for the reduced ramp against 7.0 in the full
sector at (8, 4), and 9.828 against 9.0 at (16, 4).

A ramp's step count is doubled until its infidelity stabilizes, and a
search (:func:`ramp_time_for_infidelity`) returns the first duration on
a doubling grid that meets the target, refined by bisection.  The
infidelity is not monotone in T_A, so that need not be the shortest
duration meeting the target: at L=16, half filling and target 1e-4 the
continuous ramp first crosses it at T_A = 54, and the search returns 72.
A probe stops doubling early once it is certain to miss the target: the
midpoint ramp's error is O(ds^2), so after a doubling pair whose
infidelities differ by Delta the drift still to come is about Delta/3
(Richardson), and a probe with f(2N) - Delta above the target misses it
with a threefold margin on that drift (over the doubling pairs of the
benchmark's fusion-costs runs the drift was at most 0.335 Delta, and
every sequence rose with N).  Probes that reach the target, and every
probe of a search that fails, are converged in full, so the search
returns and reports what it would with every probe converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import PropagationError, RampSearchError, StepRefinementError
from .spectral import infidelity
from .spin_model import (
    BondCouplings,
    SectorBasis,
    SparseHamiltonian,
    StateVector,
    _hop_pattern,
    _max_hops,
    _pattern_bytes,
    _require_sector_memory,
    middle_bond,
)

#: Sector dimension at which expmv switches from H's dense eigendecomposition,
#: the accurate route at small sizes, to the Krylov operator.
DENSE_CUTOFF = 400

#: Krylov basis-size cap per substep.
MAX_KRYLOV = 64

#: Target |t| * ||H||_inf per substep; keeps the basis well below the cap.
_THETA_SUB = 20.0

_MAX_ESCALATIONS = 5

#: Ramp durations are searched on a doubling grid up to this many 1/J.
T_CAP = 2.0**16

#: Hard cap on integrator steps inside one ramp evaluation.
MAX_RAMP_STEPS = 1 << 22


@dataclass(frozen=True)
class RampSchedule:
    """Linear ramp of the middle bond from 0 to J_target over duration T_A."""

    T_A: float
    steps: int
    J_target: float

    def __post_init__(self):
        if not 0.0 <= self.T_A < math.inf:
            raise ValueError(f"ramp duration must be nonnegative and finite, got {self.T_A}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")

    def coupling_at(self, s: float) -> float:
        return (s / self.T_A) * self.J_target if self.T_A > 0.0 else self.J_target


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


class _SubstepStall(Exception):
    def __init__(self, residual: float):
        self.residual = residual


def _lanczos_substep(mat2, x, t, tol_abs, V, check_from=0):
    """One Krylov substep of mat2 = block_diag(H, H) on the nonzero (2, n)
    block x = [Re; Im], built in place in the workspace V, (m_max + 1, 2n);
    returns the block and its stop, or stalls.  Estimates start at
    iteration ``check_from``; breakdown is tested on every iteration."""
    beta0 = float(np.linalg.norm(x))
    m_max = V.shape[0] - 1
    np.divide(x.ravel(), beta0, out=V[0])
    alphas, betas = np.empty((2, m_max))

    def exp_e1(k):
        # u = exp(-i T_k t) e1 = S (exp(-i theta t) S[0]); the estimate needs u[-1]
        theta, S = _tridiag_eig(alphas[: k + 1], betas[:k])
        phase = np.exp(theta * (-1j * t))
        return beta0 * betas[k] * abs(t) * abs(np.dot(S[-1] * S[0], phase)), S, phase

    err = np.inf
    for k in range(m_max):
        v, w = V[k], V[k + 1]
        w[:] = mat2 @ v
        if k:
            w -= betas[k - 1] * V[k - 1]
        alphas[k] = np.vdot(v, w)
        w -= alphas[k] * v
        b = betas[k] = math.sqrt(np.vdot(w, w))
        breakdown = b <= 1e-14 * beta0
        if breakdown or k >= check_from:
            err, S, phase = exp_e1(k)
            if breakdown or err <= tol_abs:
                break
        w /= b
    else:
        raise _SubstepStall(err)
    while 0 < k <= check_from and (prev := exp_e1(k - 1))[0] <= tol_abs:
        _, S, phase = prev  # the first estimate passed: walk back
        k -= 1
    # sum_j u_j V_j with complex u: (Re, Im) = (P_re - Q_im, P_im + Q_re)
    u = S @ (phase * S[0])
    P = (u.real @ V[: k + 1]).reshape(x.shape)
    Q = (u.imag @ V[: k + 1]).reshape(x.shape)
    return beta0 * np.array([P[0] - Q[1], P[1] + Q[0]]), k


def _krylov_propagate(mat2, norm_bound, x, t, tol, V, k_prev=0):
    """exp(-i H t) on the (2, n) block x = [Re; Im] with mat2 = block_diag(H, H)
    and workspace V; returns the block and the stop of its last substep."""
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0 or t == 0.0:
        return x.copy(), k_prev
    n_sub = max(1, math.ceil(abs(t) * norm_bound / _THETA_SUB))
    last = np.inf
    for _ in range(_MAX_ESCALATIONS):
        tol_each = tol * nrm / n_sub
        dt = t / n_sub
        y = x
        try:
            for _ in range(n_sub):
                y, k_prev = _lanczos_substep(mat2, y, dt, tol_each, V, max(k_prev - 1, 0))
            return y, k_prev
        except _SubstepStall as stall:
            last = stall.residual
            n_sub *= 2
            k_prev = 0
    raise PropagationError(
        f"Krylov propagation stalled at residual {last:.3e} "
        f"(tol {tol:.1e}, |t| {abs(t):.3g})",
        residual=last,
    )


def _compressed(mat: sp.csr_matrix, P: sp.csr_matrix) -> sp.csr_matrix:
    """P^T mat P in CSR with sorted indices."""
    out = (P.T @ mat @ P).tocsr()
    out.sort_indices()
    return out


def _doubled(mat: sp.csr_matrix) -> sp.csr_matrix:
    """block_diag(mat, mat) in CSR, built from mat's arrays."""
    n = mat.shape[0]
    indptr = np.concatenate([mat.indptr, mat.indptr[1:] + mat.nnz])
    indices = np.concatenate([mat.indices, mat.indices + n])
    return sp.csr_matrix((np.tile(mat.data, 2), indices, indptr), shape=(2 * n, 2 * n))


def _split(amps: np.ndarray) -> np.ndarray:
    """The (2, n) real block [Re; Im] of complex amplitudes."""
    return np.array([amps.real, amps.imag], dtype=np.float64)


def _join(x: np.ndarray) -> np.ndarray:
    """Complex amplitudes of a (2, n) block [Re; Im]."""
    return x[0] + 1j * x[1]


class _Operator:
    """exp(-i t P^T H(lambda) P) on (2, m) blocks for one sector, couplings,
    ramped bond and subspace, with H(lambda) = H(couplings) + lambda
    H(bond) and P the symmetric isometry (None: the full sector).

    H is kept as the doubled CSR block_diag(H, H) on the hop pattern of
    the nonzero couplings and ``bond``; :meth:`set` refills the entries
    the bond touches as base + lambda * coef.  ``expmv`` passes
    ``bond=None``, so none are refilled.  Both terms come from one complex
    pattern, real part the couplings and imaginary part the bond's
    coefficient, so they share it; with an isometry P, from one complex
    product.  With P = None a refill writes 0 + lambda * 1 = lambda.

    ``norm_inf``, ``expmv``'s norm bound, is the full sector's
    ||H(couplings)||_inf.  The build is priced first (:func:`_price_operator`).
    ``k_stop`` is the stop of the last substep, carried from call to call;
    it only decides where error estimates start, and the walk-back keeps
    the stop where it would be.
    """

    def __init__(self, basis: SectorBasis, couplings: BondCouplings, bond: int | None, P):
        n = basis.dim if P is None else P.shape[1]
        _price_operator(basis, n)
        weights = couplings.J.astype(np.complex128)
        if bond is not None:
            weights.imag[bond] = 1.0
        mat = sp.csr_matrix(_hop_pattern(basis, weights)[::-1], shape=(basis.dim, basis.dim))
        # ||.||_inf, the max absolute row sum, formed as scipy's sparse norm(., inf) does
        self.norm_inf = abs(mat.real).sum(axis=1).max()
        if P is not None:
            mat = _compressed(mat, P)
        coef = mat.data.imag.copy()  # all zero when bond is None
        mat = sp.csr_matrix((mat.data.real.copy(), mat.indices, mat.indptr), mat.shape)
        self.P = P
        self.nb = abs(mat).sum(axis=1).max()
        self.nu = abs(sp.csr_matrix((coef, mat.indices, mat.indptr), mat.shape)).sum(axis=1).max()
        self.mat2 = _doubled(mat)
        self.V = np.empty((MAX_KRYLOV + 1, 2 * n))
        self.k_stop = 0
        self.ramp = np.flatnonzero(np.tile(coef != 0.0, 2))
        self.base = self.mat2.data[self.ramp].copy()
        self.coef = np.tile(coef, 2)[self.ramp]

    def set(self, lam: float) -> float:
        """Write H(lambda) into the pattern; returns its norm bound."""
        self.mat2.data[self.ramp] = self.base + lam * self.coef
        return self.nb + abs(lam) * self.nu

    def __call__(self, x, t, tol, norm_bound):
        y, self.k_stop = _krylov_propagate(self.mat2, norm_bound, x, t, tol, self.V, self.k_stop)
        return y

    def lift(self, x) -> np.ndarray:
        """Sector amplitudes of the (2, m) block x."""
        amps = _join(x)
        return amps if self.P is None else self.P @ amps


def _orbit_count(basis: SectorBasis) -> int:
    """Columns of ``basis.symmetric_isometry``, by Burnside's lemma: the
    mean over the symmetry group of the configurations each one fixes."""
    L, n = basis.L, basis.n_up
    fixed = [basis.dim, math.comb(L // 2, n // 2) if L % 2 or n % 2 == 0 else 0]  # palindromes
    if 2 * n == L:
        fixed += [0, 2 ** (L // 2)]  # spin flip; with reflection, one up spin per mirror pair
    return sum(fixed) // len(fixed)


def _price_operator(basis: SectorBasis, n: int, isometry: int = 0) -> None:
    """Refuse an :class:`_Operator` of dimension n on ``basis`` whose build,
    with ``isometry`` bytes for building P first, would exceed physical
    memory.  Beside the configurations and P, the build holds the complex
    hop pattern and its norm's copies; then the compression (n < dim), 64
    bytes a hop; then the workspace, (``MAX_KRYLOV`` + 1) 2n float64, with
    the doubled CSR and the arrays that make it, 72 bytes a hop of
    P^T H P, whose rows hold at most one configuration's hops."""
    dim, L, n_up, hops = basis.dim, basis.L, basis.n_up, _max_hops(basis)
    P = vars(basis).get("symmetric_isometry")  # None until first built
    if P is not None:
        isometry = P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
    compressed = min(hops, n * min(L - 1, 2 * n_up, 2 * (L - n_up)))
    need = 8 * dim + isometry + max(
        sum(_pattern_bytes(dim, hops, 16)) + 16 * hops + 16 * dim,
        64 * hops + 8 * dim if n < dim else 0,
        (16 * (MAX_KRYLOV + 1) + 12) * n + 72 * compressed,
    )
    _require_sector_memory(basis, need, "a Krylov operator")


def _symmetric_reduction(basis: SectorBasis, couplings: BondCouplings, v: StateVector, tol: float):
    """(P, P^T v) when v can be propagated in the symmetric subspace, else
    None: the couplings are palindromic, so H commutes with the chain's
    symmetries (for a ramp's base couplings, H(lambda) at every lambda), and
    v lies within ``tol`` |v| of its even part P P^T v.  P's first build,
    64 bytes a configuration, is priced with the operator that an even v
    then takes."""
    if not np.array_equal(couplings.J, couplings.J[::-1]):
        return None
    if "symmetric_isometry" not in vars(basis):
        _price_operator(basis, _orbit_count(basis), isometry=64 * basis.dim)
    P = basis.symmetric_isometry
    x = P.T @ v.amps
    if np.linalg.norm(v.amps - P @ x) > tol * np.linalg.norm(v.amps):
        return None
    return P, x


def _operator(basis: SectorBasis, couplings: BondCouplings, bond: int | None,
              v: StateVector, tol: float) -> tuple[_Operator, np.ndarray]:
    """The operator that propagates v under ``couplings`` with ``bond``
    ramped (None: no bond), in the subspace :func:`_symmetric_reduction`
    picks, and v's (2, m) block there.  Each operator is built on first
    use and kept on ``basis``."""
    P, amps = _symmetric_reduction(basis, couplings, v, tol) or (None, v.amps)
    key = (couplings.J.tobytes(), bond, P is not None)
    if key not in basis._operators:
        basis._operators[key] = _Operator(basis, couplings, bond, P)
    return basis._operators[key], _split(amps)


def expmv(H: SparseHamiltonian, t: float, v: StateVector, tol: float = 1e-10) -> StateVector:
    """Apply exp(-i H t) to v.

    The sector size alone picks the route: below ``DENSE_CUTOFF`` states
    the cached dense eigendecomposition of H, from there on the Krylov
    operator of H's sector and couplings, in the symmetric subspace when
    the module notes' gate allows.  Its norm bound is the full sector's
    ||H||_inf either way, kept on the operator, so ``H.matrix`` is never
    built.  The operator is kept on the sector across calls, so repeated
    calls rebuild nothing and start their error estimates near the last
    stop; an operator that would not fit in physical memory raises
    :class:`CapacityError` before any of it is allocated.
    """
    if not H.basis.same_sector(v.basis) or H.dim != v.basis.dim:
        raise ValueError("state and Hamiltonian live in different sectors")
    if not tol >= 0.0:
        raise ValueError(f"expmv tolerance must be nonnegative, got {tol}")
    if H.dim < DENSE_CUTOFF:
        w, U = H.dense_eig
        return StateVector(v.basis, U @ (np.exp(-1j * w * t) * (U.T @ v.amps)))
    op, x = _operator(H.basis, H.couplings, None, v, tol)
    return StateVector(v.basis, op.lift(op(x, t, tol, op.norm_inf)))


def adiabatic_ramp(
    v0: StateVector,
    basis: SectorBasis,
    base: BondCouplings,
    schedule: RampSchedule,
    *,
    tol: float = 1e-10,
) -> StateVector:
    """Integrate the linear middle-bond ramp with midpoint piecewise-constant steps.

    ``base`` must hold the middle bond at zero; step k evolves for
    T_A/steps under H(base) + lambda(s_mid) H(bond) with lambda evaluated
    at the step midpoint.  Every step, in every sector, is a Krylov
    propagation to ``tol / steps`` (``tol`` in (0, 1)) on one doubled CSR
    with lambda set in place; no dense eigensolver is called.  It runs
    in the symmetric subspace when the module notes' gate allows, and
    each step's norm bound is that of the matrix it runs on.  The
    operator is built once per sector, couplings and subspace, priced as
    in ``expmv``, and kept on ``basis``.  Norm is preserved to integrator
    precision.
    """
    check_expmv_tol(tol)
    if base.n_sites != basis.L:
        raise ValueError("couplings do not match the sector length")
    bond = middle_bond(basis.L)
    if base.J[bond] != 0.0:
        raise ValueError("base couplings must hold the ramped bond at zero")
    if abs(v0.norm() - 1.0) > 1e-9:
        raise ValueError(f"v0 is not normalized (norm {v0.norm():.12g})")
    if v0.basis.dim != basis.dim or not v0.basis.same_sector(basis):
        raise ValueError("v0 does not live in the requested sector")
    if schedule.T_A == 0.0:
        return StateVector(basis, v0.amps.copy())

    op, x = _operator(basis, base, bond, v0, tol)
    ds = schedule.T_A / schedule.steps
    step_tol = tol / schedule.steps
    op.k_stop = 0  # every ramp starts its estimate schedule afresh
    for k in range(schedule.steps):
        lam = schedule.coupling_at((k + 0.5) * ds)
        x = op(x, ds, step_tol, op.set(lam))
    return StateVector(basis, op.lift(x))


@dataclass(frozen=True)
class RampContext:
    """Fixed data of one ramp problem: sector, base couplings (the middle
    bond at zero), final middle-bond coupling, input, target; the settings
    of every search on it, checked here; and the ramps integrated for it
    at Krylov ``tol``, which :func:`converged_ramp` keeps by
    ``(T_A, steps)``.  A probe's first ramp is never returned, so its
    entry keeps the infidelity and step count but no state."""

    basis: SectorBasis
    base: BondCouplings
    J_target: float
    v0: StateVector
    target: StateVector
    T_start: float = 1.0
    T_cap: float = T_CAP
    bisections: int = 0
    tol: float = 1e-10
    _ramps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_search(self.T_start, self.T_cap, self.bisections, None, self.tol)


@dataclass(frozen=True)
class RampResult:
    T_A: float
    infidelity: float
    state: StateVector | None  # None only in a context's first-ramp entries
    steps: int


def _initial_steps(ctx: RampContext, T_A: float) -> int:
    scale = max(abs(ctx.J_target), ctx.base.scale)
    return max(8, math.ceil(2.0 * T_A * scale))


def converged_ramp(
    ctx: RampContext,
    T_A: float,
    *,
    step_tol: float,
    target: float | None = None,
) -> RampResult:
    """Ramp at fixed duration, doubling steps until infidelity stabilizes.

    Stops once successive doublings move the measured infidelity by less
    than ``step_tol``; raises :class:`StepRefinementError` at the step
    cap.  With a ``target`` infidelity, a doubling that moves it by
    Delta >= ``step_tol`` while the finer value still exceeds the target
    by more than Delta ends the refinement early: that result is returned
    as it is, certain to miss the target.  Ramps the context already
    holds for ``(T_A, steps)`` are looked up instead of run again, so a
    repeated call returns the same result without integrating, and one
    with a looser target or none resumes where an early stop left off.
    """
    steps = _initial_steps(ctx, T_A)
    prev = None
    while steps <= MAX_RAMP_STEPS:
        key = (T_A, steps)
        if key not in ctx._ramps:
            sched = RampSchedule(T_A, steps, ctx.J_target)
            state = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched, tol=ctx.tol)
            fid = infidelity(state.normalized(), ctx.target)
            ctx._ramps[key] = RampResult(T_A, fid, None if prev is None else state, steps)
        res = ctx._ramps[key]
        if prev is not None:
            delta = abs(res.infidelity - prev.infidelity)
            if delta < step_tol or (target is not None and res.infidelity - delta > target):
                return res
        prev = res
        steps *= 2
    raise StepRefinementError(
        f"infidelity did not stabilize below {step_tol:.1e} within "
        f"{MAX_RAMP_STEPS} steps at T_A={T_A:.6g}"
    )


def default_step_tol(target_infidelity: float) -> float:
    """Step-doubling tolerance for a ramp aimed at ``target_infidelity``:
    the smaller of 1e-4 and a tenth of the target."""
    return min(1e-4, target_infidelity / 10.0)


def check_expmv_tol(tol: float) -> None:
    """Raise ValueError unless the relative Krylov tolerance ``tol`` lies in
    (0, 1); at 1 or above the zero vector would meet it."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"expmv tolerance must be positive and below 1, got {tol}")


def _check_search(T_start, T_cap, bisections, step_tol, tol) -> None:
    if not T_start > 0.0:
        raise ValueError(f"first ramp duration must be positive, got {T_start}")
    if not T_start <= T_cap < math.inf:
        raise ValueError(f"ramp duration cap {T_cap} is not finite or below T_start {T_start}")
    if bisections < 0:
        raise ValueError(f"bisections must be nonnegative, got {bisections}")
    _check_step_tol(step_tol)
    check_expmv_tol(tol)


def _check_step_tol(step_tol) -> None:
    if step_tol is not None and not step_tol > 0.0:
        raise ValueError(f"step tolerance must be positive, got {step_tol}")


def ramp_time_for_infidelity(
    target_infidelity: float,
    ctx: RampContext,
    *,
    step_tol: float | None = None,
) -> RampResult:
    """First ramp duration on a doubling grid that meets the target,
    refined by bisection.

    Durations ``ctx.T_start`` * 2^k up to ``ctx.T_cap`` are probed until
    one achieves the target infidelity; up to ``ctx.bisections`` rounds
    then bisect the bracket between it and the last miss, stopping once
    its midpoint rounds to one of its ends.  The infidelity is not monotone in T_A, so
    a shorter duration off this grid may also meet the target (see the
    module notes).  Each probe is evaluated
    with step doubling until its infidelity is converged to ``step_tol``
    (default: :func:`default_step_tol` of the target), or until it is
    certain to miss the target (see :func:`converged_ramp`).  The
    returned ramp is always converged; when no duration reaches the
    target, every probed duration is converged before
    :class:`RampSearchError` reports the best of them.  Searches on one
    ``ctx`` integrate no ramp twice, whatever their ``step_tol`` and
    target.
    """
    if not 0.0 < target_infidelity < 1.0:
        raise ValueError(f"target infidelity {target_infidelity} outside (0, 1)")
    _check_step_tol(step_tol)
    if step_tol is None:
        step_tol = default_step_tol(target_infidelity)
    missed = []
    hi = None
    T = ctx.T_start
    while T <= ctx.T_cap:
        res = converged_ramp(ctx, T, step_tol=step_tol, target=target_infidelity)
        if res.infidelity <= target_infidelity:
            hi = res
            break
        missed.append(T)
        T *= 2.0
    if hi is None:
        best = min((converged_ramp(ctx, T, step_tol=step_tol) for T in missed),
                   key=lambda r: r.infidelity)
        raise RampSearchError(
            f"no ramp duration up to {ctx.T_cap:.6g} reached infidelity "
            f"{target_infidelity:.3e} (best {best.infidelity:.3e} at "
            f"T_A={best.T_A:.6g})",
            best_infidelity=best.infidelity,
        )
    if missed:
        lo = missed[-1]
        for _ in range(ctx.bisections):
            mid = 0.5 * (lo + hi.T_A)
            if mid in (lo, hi.T_A):
                break  # the bracket cannot shrink; further rounds repeat a probe
            res = converged_ramp(ctx, mid, step_tol=step_tol, target=target_infidelity)
            if res.infidelity <= target_infidelity:
                hi = res
            else:
                lo = mid
    return hi
