"""Exact-propagator application and the linear middle-bond ramp.

``expmv`` applies exp(-i H t) of one fixed H, as in the rodeo cycles,
either through its cached dense eigendecomposition (small sectors) or a
Lanczos/Krylov approximation with internal substepping (large ones).

The Krylov substep runs a real Lanczos iteration on the state stored as
a (2, n) block [Re; Im].  H is real symmetric, so every Lanczos vector
p_k(H) v is built by a real polynomial p_k, and the Hermitian inner
products <p_j(H) v, H p_k(H) v> are real (Hochbruck & Lubich, SIAM J.
Numer. Anal. 34, 1911 (1997)).  The complex iteration therefore equals
the real one on R^{2n} with H acting on Re and Im alike: one product of
the real CSR block_diag(H, H), row sum for row sum the two products of H,
with no complex upcast; only exp(-i T t) e1 of the real tridiagonal T is
complex, and the result is recombined from Re(u) and Im(u) applied to
the basis.

The iteration is the three-term recurrence with local orthogonalization
only, as in Expokit's DSEXPV (Sidje, ACM TOMS 24, 130 (1998)): each new
vector is orthogonalized against the two before it and the basis is
never reorthogonalized.  Its loss of global orthogonality does not spoil
exp(-iHt)v, whose finite-precision error stays at the size the exact
recurrence would give (Druskin, Greenbaum & Knizhnerman, SIAM J. Sci.
Comput. 19, 38 (1998)); the a posteriori estimate beta0 * b * |t| *
|u_m| still decides when a substep is done; u itself is formed only then.
Each estimate costs a dstevd of T, so estimates start one iteration
before the previous substep's stop (carried through a propagation and a
ramp); if the first passes, the stored iterations are walked back until
one fails, giving the every-iteration stop when estimates fall monotonically.

The adiabatic ramp integrates a piecewise-constant midpoint Hamiltonian
that changes every step, so in every sector each step is one Krylov
propagation on the doubled base CSR with the ramped bond's entries set
in place, all steps sharing one basis workspace.  The step count is
doubled until the measured infidelity stabilizes, and a doubling-plus-
bisection search, whose probes share ramps through a (T_A, steps)
cache, finds the shortest ramp duration reaching a requested infidelity.

A search probe stops doubling early once it is certain to miss the
target: the midpoint ramp's error is O(ds^2), so after a doubling pair
whose infidelities differ by Delta the drift still to come is about
Delta/3 (Richardson), and a probe with f(2N) - Delta above the target
misses it with a threefold margin on that drift (over the doubling
pairs of the benchmark's fusion-costs runs the drift was at most
0.335 Delta, and every sequence rose with N).  Probes that reach the
target, and every probe of a search that fails, are converged in full,
so the search returns and reports what it would with every probe
converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import PropagationError, RampSearchError, StepRefinementError
from .spectral import DENSE_CUTOFF, infidelity
from .spin_model import (
    BondCouplings,
    SectorBasis,
    SparseHamiltonian,
    StateVector,
    _hop_pattern,
    middle_bond,
)

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
    """Linear ramp of one bond from 0 to J_target over duration T_A."""

    T_A: float
    steps: int
    bond: int
    J_target: float

    def __post_init__(self):
        if not 0.0 <= self.T_A < math.inf:
            raise ValueError(f"ramp duration must be nonnegative and finite, got {self.T_A}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")

    def coupling_at(self, s: float) -> float:
        return (s / self.T_A) * self.J_target if self.T_A > 0.0 else self.J_target


class _SubstepStall(Exception):
    def __init__(self, residual: float):
        self.residual = residual


def _tridiag_eig(alphas, betas):
    # eigenpairs of the real symmetric tridiagonal T; dstevd is the driver
    # scipy's eigh_tridiagonal picks, called without its wrapper
    if alphas.size == 1:
        return alphas, np.ones((1, 1))
    theta, S, info = scipy.linalg.lapack.dstevd(alphas, betas)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info={info}")
    return theta, S


def _lanczos_substep(mat2, x, t, tol_abs, V, check_from=0):
    """One Krylov substep of mat2 = block_diag(H, H) on the (2, n) block
    x = [Re; Im], built in place in the workspace V, (m_max + 1, 2n);
    returns the block and its stop, or stalls.  Estimates start at
    iteration ``check_from``; breakdown is tested on every iteration."""
    beta0 = float(np.linalg.norm(x))
    if beta0 == 0.0:
        return x.copy(), 0
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


def expmv(
    H: SparseHamiltonian,
    t: float,
    v: StateVector,
    tol: float = 1e-10,
    *,
    method: str = "auto",
    max_krylov: int = MAX_KRYLOV,
) -> StateVector:
    """Apply exp(-i H t) to v.

    ``method`` is "auto" (dense below the sector-size cutoff, Krylov
    above), "dense", or "krylov"; forcing a path is mostly useful for
    cross-checking the two against each other.  The Krylov path builds
    block_diag(H, H) per call; its first substep checks every iteration.
    """
    if not H.basis.same_sector(v.basis) or H.dim != v.basis.dim:
        raise ValueError("state and Hamiltonian live in different sectors")
    if method not in ("auto", "dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    if not tol >= 0.0:
        raise ValueError(f"expmv tolerance must be nonnegative, got {tol}")
    if method == "auto":
        method = "dense" if H.dim < DENSE_CUTOFF else "krylov"
    if method == "dense":
        w, U = H.dense_eig()
        amps = U @ (np.exp(-1j * w * t) * (U.T @ v.amps))
    else:
        x = _split(v.amps)
        V = np.empty((max_krylov + 1, x.size))
        amps = _join(_krylov_propagate(_doubled(H.matrix), H.norm_inf(), x, t, tol, V)[0])
    return StateVector(v.basis, amps)


def _aligned_bond_split(basis: SectorBasis, base: BondCouplings, bond: int):
    """Doubled base CSR (:func:`_doubled`) on the hop pattern of the nonzero
    base bonds and ``bond``, and the data indices of the ``bond`` entries,
    which hold 0: a step's coupling is written there with no symbolic work."""
    indptr, indices, hop_bond = _hop_pattern(basis, [*np.flatnonzero(base.J), bond])
    Pb = sp.csr_matrix((base.J[hop_bond], indices, indptr), shape=(basis.dim, basis.dim))
    return _doubled(Pb), np.flatnonzero(np.tile(hop_bond == bond, 2))


def adiabatic_ramp(
    v0: StateVector,
    basis: SectorBasis,
    base: BondCouplings,
    schedule: RampSchedule,
    *,
    tol: float = 1e-10,
) -> StateVector:
    """Integrate the linear bond ramp with midpoint piecewise-constant steps.

    ``base`` must hold the ramped bond at zero; step k evolves for
    T_A/steps under H(base) + lambda(s_mid) H(bond) with lambda evaluated
    at the step midpoint.  Every step, in every sector, is a Krylov
    propagation to ``tol / steps`` (``tol`` > 0) on one doubled CSR with
    lambda set in place; no dense eigensolver is called.  Norm is
    preserved to integrator precision.
    """
    if not tol > 0.0:
        raise ValueError(f"Krylov tolerance must be positive, got {tol}")
    if base.n_sites != basis.L:
        raise ValueError("couplings do not match the sector length")
    if schedule.bond != middle_bond(basis.L):
        raise ValueError(
            f"ramp bond {schedule.bond} is not the middle bond of L={basis.L}"
        )
    if base.J[schedule.bond] != 0.0:
        raise ValueError("base couplings must hold the ramped bond at zero")
    if abs(v0.norm() - 1.0) > 1e-9:
        raise ValueError(f"v0 is not normalized (norm {v0.norm():.12g})")
    if v0.basis.dim != basis.dim or not v0.basis.same_sector(basis):
        raise ValueError("v0 does not live in the requested sector")
    if schedule.T_A == 0.0:
        return StateVector(basis, v0.amps.copy())

    mat, ramp = _aligned_bond_split(basis, base, schedule.bond)
    nb = float(np.abs(mat).sum(axis=1).max()) if mat.nnz else 0.0
    nu = 1.0 if ramp.size else 0.0
    ds = schedule.T_A / schedule.steps
    step_tol = tol / schedule.steps
    x, k_stop = _split(v0.amps), 0
    V = np.empty((MAX_KRYLOV + 1, x.size))  # one basis for every step
    for k in range(schedule.steps):
        lam = schedule.coupling_at((k + 0.5) * ds)
        mat.data[ramp] = lam
        x, k_stop = _krylov_propagate(mat, nb + abs(lam) * nu, x, ds, step_tol, V, k_stop)
    return StateVector(basis, _join(x))


@dataclass(frozen=True)
class RampContext:
    """Fixed data of one ramp problem: sector, couplings, input, target."""

    basis: SectorBasis
    base: BondCouplings
    bond: int
    J_target: float
    v0: StateVector
    target: StateVector


@dataclass(frozen=True)
class RampResult:
    T_A: float
    infidelity: float
    state: StateVector
    steps: int
    #: False on a probe whose doubling stopped early, certain to miss its target
    converged: bool = True


def _initial_steps(ctx: RampContext, T_A: float) -> int:
    scale = max(abs(ctx.J_target), ctx.base.scale)
    return max(8, math.ceil(2.0 * T_A * scale))


def converged_ramp(
    ctx: RampContext,
    T_A: float,
    *,
    step_tol: float,
    tol: float = 1e-10,
    cache: dict | None = None,
    target: float | None = None,
) -> RampResult:
    """Ramp at fixed duration, doubling steps until infidelity stabilizes.

    Stops once successive doublings move the measured infidelity by less
    than ``step_tol``; raises :class:`StepRefinementError` at the step
    cap.  With a ``target`` infidelity, a doubling that moves it by
    Delta >= ``step_tol`` while the finer value still exceeds the target
    by more than Delta ends the refinement early: the result is marked
    ``converged=False`` and is certain to miss the target.  ``cache``
    maps ``(T_A, steps)`` to ramps already integrated for this ``ctx``
    and ``tol``; they are looked up instead of run again, so a call with
    a looser target or none resumes where an early stop left off.
    """
    if not tol > 0.0:
        raise ValueError(f"Krylov tolerance must be positive, got {tol}")
    cache = {} if cache is None else cache
    steps = _initial_steps(ctx, T_A)
    prev = None
    while steps <= MAX_RAMP_STEPS:
        if (T_A, steps) not in cache:
            sched = RampSchedule(T_A, steps, ctx.bond, ctx.J_target)
            state = adiabatic_ramp(ctx.v0, ctx.basis, ctx.base, sched, tol=tol)
            fid = infidelity(state.normalized(), ctx.target)
            cache[T_A, steps] = RampResult(T_A, fid, state, steps)
        res = cache[T_A, steps]
        if prev is not None:
            delta = abs(res.infidelity - prev.infidelity)
            if delta < step_tol:
                return res
            if target is not None and res.infidelity - delta > target:
                return replace(res, converged=False)
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


def _check_search(T_start, T_cap, bisections, step_tol, tol) -> None:
    if not T_start > 0.0:
        raise ValueError(f"first ramp duration must be positive, got {T_start}")
    if not T_start <= T_cap < math.inf:
        raise ValueError(f"ramp duration cap {T_cap} is not finite or below T_start {T_start}")
    if bisections < 0:
        raise ValueError(f"bisections must be nonnegative, got {bisections}")
    if step_tol is not None and not step_tol > 0.0:
        raise ValueError(f"step tolerance must be positive, got {step_tol}")
    if not tol > 0.0:
        raise ValueError(f"Krylov tolerance must be positive, got {tol}")


def ramp_time_for_infidelity(
    target_infidelity: float,
    ctx: RampContext,
    *,
    T_start: float = 1.0,
    T_cap: float = T_CAP,
    refine_bisections: int = 0,
    step_tol: float | None = None,
    tol: float = 1e-10,
    probe_cache: dict | None = None,
) -> RampResult:
    """Shortest ramp duration on a doubling grid reaching the target.

    Durations T_start * 2^k are probed until one achieves the target
    infidelity; ``refine_bisections`` optional bisection rounds then
    shrink the bracket.  Each probe is evaluated with step doubling until
    its infidelity is converged to ``step_tol`` (default:
    :func:`default_step_tol` of the target), or until it is certain to
    miss the target (see :func:`converged_ramp`).  The returned ramp is
    always converged; when no duration reaches the target, every probed
    duration is converged before :class:`RampSearchError` reports the
    best of them.  Searches sharing one ``probe_cache`` integrate no ramp
    twice, whatever their ``step_tol`` and target.
    """
    if not 0.0 < target_infidelity < 1.0:
        raise ValueError(f"target infidelity {target_infidelity} outside (0, 1)")
    _check_search(T_start, T_cap, refine_bisections, step_tol, tol)
    if step_tol is None:
        step_tol = default_step_tol(target_infidelity)
    cache = probe_cache if probe_cache is not None else {}

    def probe(T_A: float, target: float | None = target_infidelity) -> RampResult:
        # converged probes sit beside the (T_A, steps) ramps they are made
        # of; an early-stopped one is rebuilt from those ramps when asked again
        key = ("probe", T_A, step_tol)
        if key in cache:
            return cache[key]
        res = converged_ramp(ctx, T_A, step_tol=step_tol, tol=tol, cache=cache, target=target)
        if res.converged:
            cache[key] = res
        return res

    missed = []
    hi = None
    T = T_start
    while T <= T_cap:
        res = probe(T)
        if res.infidelity <= target_infidelity:
            hi = res
            break
        missed.append(T)
        T *= 2.0
    if hi is None:
        best = min((probe(T, None) for T in missed), key=lambda r: r.infidelity)
        raise RampSearchError(
            f"no ramp duration up to {T_cap:.6g} reached infidelity "
            f"{target_infidelity:.3e} (best {best.infidelity:.3e} at "
            f"T_A={best.T_A:.6g})",
            best_infidelity=best.infidelity,
        )
    if missed:
        lo = missed[-1]
        for _ in range(refine_bisections):
            mid = 0.5 * (lo + hi.T_A)
            res = probe(mid)
            if res.infidelity <= target_infidelity:
                hi = res
            else:
                lo = mid
    return hi
