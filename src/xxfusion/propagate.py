"""Exact-propagator application and the linear middle-bond ramp.

``expmv`` applies exp(-i H t) of one fixed H, as in the rodeo cycles,
either through its cached dense eigendecomposition (small sectors) or a
Lanczos/Krylov approximation with internal substepping (large ones).

The Krylov substep runs a real Lanczos iteration on the state stored as
a (2, n) block [Re; Im].  H is real symmetric, so every Lanczos vector
p_k(H) v is built by a real polynomial p_k, and the Hermitian inner
products <p_j(H) v, H p_k(H) v> are real (Hochbruck & Lubich, SIAM J.
Numer. Anal. 34, 1911 (1997)).  The complex iteration therefore equals
the real one on R^{2n} with H acting on Re and Im alike, which the real
CSR matrix does as two 1-D products without a complex upcast; only
exp(-i T t) e1 of the real tridiagonal T is complex, and the result is
recombined from Re(u) and Im(u) applied to the basis.

The iteration is the three-term recurrence with local orthogonalization
only, as in Expokit's DSEXPV (Sidje, ACM TOMS 24, 130 (1998)): each new
vector is orthogonalized against the two before it and the basis is
never reorthogonalized.  Its loss of global orthogonality does not spoil
exp(-iHt)v, whose finite-precision error stays at the size the exact
recurrence would give (Druskin, Greenbaum & Knizhnerman, SIAM J. Sci.
Comput. 19, 38 (1998)); the a posteriori estimate beta0 * b * |t| *
|u_m| still decides when a substep is done; u itself is formed only then.

The adiabatic ramp integrates a piecewise-constant midpoint Hamiltonian
that changes every step, so in every sector each step is one Krylov
propagation on a CSR matrix refilled in place, all steps sharing one
basis workspace.  The step count is doubled until the measured
infidelity stabilizes, and a doubling-plus-bisection search, whose probes
share ramps through a (T_A, steps) cache, finds the shortest ramp
duration reaching a requested infidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if self.T_A < 0.0:
            raise ValueError(f"ramp duration must be nonnegative, got {self.T_A}")
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


def _lanczos_substep(mat, x, t, tol_abs, V):
    """One Krylov substep on the (2, n) block x = [Re; Im]; returns the
    propagated block or stalls.  The three-term recurrence builds each
    vector in place in its row of the workspace V, (m_max + 1, 2, n).
    """
    beta0 = float(np.linalg.norm(x))
    if beta0 == 0.0:
        return x.copy()
    m_max = V.shape[0] - 1
    np.divide(x, beta0, out=V[0])
    alphas, betas = np.empty((2, m_max))
    err = np.inf
    for k in range(m_max):
        v, w = V[k], V[k + 1]
        w[0] = mat @ v[0]
        w[1] = mat @ v[1]
        if k:
            w -= betas[k - 1] * V[k - 1]
        alphas[k] = np.vdot(v, w)
        w -= alphas[k] * v
        b = math.sqrt(np.vdot(w, w))
        # u = exp(-i T t) e1 = S (exp(-i theta t) S[0]); the estimate needs
        # its last entry only
        theta, S = _tridiag_eig(alphas[: k + 1], betas[:k])
        phase = np.exp(theta * (-1j * t))
        err = beta0 * b * abs(t) * abs(np.dot(S[-1] * S[0], phase))
        if err <= tol_abs or b <= 1e-14 * beta0:
            # sum_j u_j V_j with complex u: (Re, Im) = (P_re - Q_im, P_im + Q_re)
            u = S @ (phase * S[0])
            Vk = V[: k + 1].reshape(k + 1, -1)
            P = (u.real @ Vk).reshape(x.shape)
            Q = (u.imag @ Vk).reshape(x.shape)
            return beta0 * np.array([P[0] - Q[1], P[1] + Q[0]])
        betas[k] = b
        w /= b
    raise _SubstepStall(err)


def _krylov_propagate(mat, norm_bound, x, t, tol, V):
    """exp(-i mat t) applied to the (2, n) block x = [Re; Im]; V is the basis workspace."""
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0 or t == 0.0:
        return x.copy()
    n_sub = max(1, math.ceil(abs(t) * norm_bound / _THETA_SUB))
    last = np.inf
    for _ in range(_MAX_ESCALATIONS):
        tol_each = tol * nrm / n_sub
        dt = t / n_sub
        y = x
        try:
            for _ in range(n_sub):
                y = _lanczos_substep(mat, y, dt, tol_each, V)
            return y
        except _SubstepStall as stall:
            last = stall.residual
            n_sub *= 2
    raise PropagationError(
        f"Krylov propagation stalled at residual {last:.3e} "
        f"(tol {tol:.1e}, |t| {abs(t):.3g})",
        residual=last,
    )


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
    cross-checking the two against each other.
    """
    if not H.basis.same_sector(v.basis) or H.dim != v.basis.dim:
        raise ValueError("state and Hamiltonian live in different sectors")
    if method not in ("auto", "dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "dense" if H.dim < DENSE_CUTOFF else "krylov"
    if method == "dense":
        w, U = H.dense_eig()
        amps = U @ (np.exp(-1j * w * t) * (U.T @ v.amps))
    else:
        x = _split(v.amps)
        V = np.empty((max_krylov + 1,) + x.shape)
        amps = _join(_krylov_propagate(H.matrix, H.norm_inf(), x, t, tol, V))
    return StateVector(v.basis, amps)


def _aligned_bond_split(basis: SectorBasis, base: BondCouplings, bond: int):
    """CSR pair (base part, unit bond part) sharing one sparsity pattern.

    Both matrices are data arrays on one hop pattern over the nonzero base
    bonds and ``bond``, so per-step couplings combine as a pure data-array
    update with no symbolic work.
    """
    indptr, indices, hop_bond = _hop_pattern(basis, [*np.flatnonzero(base.J), bond])
    shape = (basis.dim, basis.dim)
    Pb = sp.csr_matrix((base.J[hop_bond], indices, indptr), shape=shape)
    Pu = sp.csr_matrix(((hop_bond == bond).astype(np.float64), indices, indptr), shape=shape)
    return Pb, Pu


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
    propagation to ``tol / steps`` on one CSR matrix refilled in place;
    no dense eigensolver is called.  Norm is preserved to integrator
    precision.
    """
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

    Pb, Pu = _aligned_bond_split(basis, base, schedule.bond)
    nb = float(np.abs(Pb).sum(axis=1).max()) if Pb.nnz else 0.0
    nu = float(np.abs(Pu).sum(axis=1).max()) if Pu.nnz else 0.0
    ds = schedule.T_A / schedule.steps
    step_tol = tol / schedule.steps
    mat = Pb.copy()  # refilled in place: Pb and Pu share one pattern
    x = _split(v0.amps)
    V = np.empty((MAX_KRYLOV + 1,) + x.shape)  # one basis for every step
    for k in range(schedule.steps):
        lam = schedule.coupling_at((k + 0.5) * ds)
        np.multiply(Pu.data, lam, out=mat.data)
        mat.data += Pb.data
        x = _krylov_propagate(mat, nb + abs(lam) * nu, x, ds, step_tol, V)
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
) -> RampResult:
    """Ramp at fixed duration, doubling steps until infidelity stabilizes.

    Stops once successive doublings move the measured infidelity by less
    than ``step_tol``; raises :class:`StepRefinementError` at the step
    cap.  ``cache`` maps ``(T_A, steps)`` to ramps already integrated for
    this ``ctx`` and ``tol``; they are looked up instead of run again.
    """
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
        if prev is not None and abs(res.infidelity - prev.infidelity) < step_tol:
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


def _check_search(T_start, T_cap, bisections, step_tol) -> None:
    if not T_start > 0.0:
        raise ValueError(f"first ramp duration must be positive, got {T_start}")
    if not T_cap >= T_start:
        raise ValueError(f"ramp duration cap {T_cap} is below the first duration {T_start}")
    if bisections < 0:
        raise ValueError(f"bisections must be nonnegative, got {bisections}")
    if step_tol is not None and not step_tol > 0.0:
        raise ValueError(f"step tolerance must be positive, got {step_tol}")


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
    :func:`default_step_tol` of the target).  Searches sharing one
    ``probe_cache`` integrate no ramp twice, whatever their ``step_tol``.
    """
    if not 0.0 < target_infidelity < 1.0:
        raise ValueError(f"target infidelity {target_infidelity} outside (0, 1)")
    _check_search(T_start, T_cap, refine_bisections, step_tol)
    if step_tol is None:
        step_tol = default_step_tol(target_infidelity)
    cache = probe_cache if probe_cache is not None else {}

    def probe(T_A: float) -> RampResult:
        # converged probes sit beside the (T_A, steps) ramps they are made of
        key = ("probe", T_A, step_tol)
        if key not in cache:
            cache[key] = converged_ramp(ctx, T_A, step_tol=step_tol, tol=tol, cache=cache)
        return cache[key]

    best = None
    lo = None
    hi = None
    T = T_start
    while T <= T_cap:
        res = probe(T)
        if best is None or res.infidelity < best.infidelity:
            best = res
        if res.infidelity <= target_infidelity:
            hi = res
            break
        lo = T
        T *= 2.0
    if hi is None:
        raise RampSearchError(
            f"no ramp duration up to {T_cap:.6g} reached infidelity "
            f"{target_infidelity:.3e} (best {best.infidelity:.3e} at "
            f"T_A={best.T_A:.6g})",
            best_infidelity=best.infidelity if best is not None else float("nan"),
        )
    if lo is not None:
        for _ in range(refine_bisections):
            mid = 0.5 * (lo + hi.T_A)
            res = probe(mid)
            if res.infidelity <= target_infidelity:
                hi = res
            else:
                lo = mid
    return hi
