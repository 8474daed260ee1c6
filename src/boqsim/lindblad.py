"""Brute-force oracle: truncated-Fock Lindblad steady states and Liouvillian
eigenvalues for the pumped oscillator alone and the joint transmon-oscillator
system.

The joint Hamiltonian is assembled in the bare (lab-rotating-frame) basis,
not the squeezing frame, so agreement with the perturbative results of the
other modules is a genuine independent check.  Superoperators use the
column-stacking convention: vec(rho) stacks columns (Fortran order), and
vec(A X B) = kron(B.T, A) vec(X).

Parity sectors: basis state k * n_fock + n (transmon level k, Fock number n)
has excitation parity (k + n) mod 2, and vec(rho) entry rho[i, j] lies in
the sector par[i] xor par[j].  Without a coherent drive the Hamiltonian
conserves that parity (the pump a^2 and the exchange b^dag a both keep it)
and every jump operator (a, the transmon lowering operator, the level-number
operator) has a definite parity, so the Liouvillian is block-diagonal in the
sector (a weak Z2 symmetry: Albert & Jiang, PRA 89, 022118 (2014)).  The
steady state is solved in the even block and the |g><e| coherence
eigenvalue in the odd block; a coherent drive breaks the symmetry, and the
same functions then work in the full space.  Every steady state is still
checked against the residual of the full Liouvillian.

Sparse LU: every factorization (_factorize) orders the columns by minimum
degree on A^T + A and pivots with threshold 0.1, preferring the diagonal
(SuperLU's symmetric mode; X. S. Li, ACM TOMS 31, 302 (2005)).  The
Liouvillian blocks are nearly structurally symmetric, and this gives about
half the fill of the default COLAMD ordering.  ARPACK takes the one
factorization of the coherence block - sigma I as its shift-invert operator,
the retry included, and the pick is among the _N_CANDIDATES eigenvalues
nearest sigma.  ARPACK stops when every candidate's Ritz estimate is below
_ARPACK_TOL relative, not at machine precision, and its set can then hold a
farther eigenvalue in place of a near one of small overlap.  Only the pick
is certified: its eigenpair must have ||B v - mu v|| / ||v|| <=
1e-13 ||B||_1, or ArpackNoConvergence is raised.  Measured picks have
residuals below 1e-16 ||B||_1 and match a machine-precision run to 2e-16
relative.
Truncation: every entry point takes n_fock, the Fock truncation, with None
meaning default_n_fock(p, drive).  One function, _sizing, reads the pump's
regime and gives both the estimated occupation (n_d cosh^2 r + sinh^2 r
detuned, the closed-form n + n_d on resonance) and default_n_fock =
max(16, ceil(12 A + 10 n + 10)), A the anti-squeezing e^{2r} or S_inf.
build_liouvillian, chi_exact and qubit_shift_dephasing (at lam = 0 too)
refuse, with TruncationError and before any allocation, n_fock < 4, a
truncation whose estimated occupation exceeds n_fock/4, or one with more
than _MAX_UNKNOWNS unknowns.  A stable detuned pump with lam >= |delta_a|
has no estimate and is refused the same way; past lambda_crit the refusal
is UnstableDynamics.

Pump-off reference: at lam = 0 with no drive every jump annihilates |g0>, so
the coherences |g0><x|, x in {|e0>, |g1>}, evolve under the effective
Hamiltonian alone, with the eigenvalues of M = [[i delta_q - gamma_1/2 -
gamma_phi, i g], [i g, i delta_a - kappa/2]]; the reference is the one of
larger |e0> weight.  That block is invariant (L is block-triangular with it
first), so the target's spectral projection onto any other mode is zero.

Eigensolve target: the pick overlaps most with (|g><g| x rho_osc) sigma_minus,
rho_osc the oscillator steady state.  The target only selects the mode, and the
joint state (qubit in |g> up to O((g/Delta)^2)) selects the same one.

Levels: the joint space keeps n_fock Fock levels times
TransmonParams.n_levels transmon levels (one level, the oscillator alone,
when no transmon is given); the unknowns budget is the only bound on the
transmon levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (DriveSpec, OscillatorParams, TransmonParams, frame_of,
                   validate)
from .spectral import bo_occupation, resonant_steady_state


# Krylov size of the coherence eigensolve's retry (ARPACK's default: 21)
_RETRY_NCV = 42
# ARPACK's stopping test, ||r|| <= tol |theta| for every candidate Ritz pair
# (scipy's default 0 means machine precision); only the picked pair is
# certified, by _EIG_RESIDUAL
_ARPACK_TOL = 1e-8
# eigenvalues nearest sigma among which the coherence mode is picked
_N_CANDIDATES = 10
# the 2x truncation check passes when no moment moves by this much (relative)
_CONVERGENCE_FACTOR = 1e-6
# largest accepted residual ||B v - mu v|| / ||v|| of the picked eigenpair,
# relative to ||B||_1 (found below 1e-16 over random undriven systems and on
# the benchmark's operating points)
_EIG_RESIDUAL = 1e-13
# largest Liouvillian build_liouvillian accepts, in unknowns (n_fock *
# n_levels)^2.  A steady state at the budget takes ~0.8 GB and ~5 s
# (resonant, n_fock = 724); default_n_fock at lam = 0.99 kappa/2 would ask
# for 2.1M unknowns, whose LU fill would exhaust a machine's memory
_MAX_UNKNOWNS = 2 ** 19


class UnstableDynamics(RuntimeError):
    """The Liouvillian has no unique decaying steady state."""


class TruncationError(ValueError):
    """Fock truncation too small for the requested parameters."""


class AmbiguousSector(RuntimeError):
    """Two Liouvillian eigenvalues overlap the target sector comparably."""


def _sizing(p: OscillatorParams, drive: DriveSpec | None) -> tuple[float, int]:
    """(estimated occupation, default truncation) of the pumped oscillator.

    The occupation is n_d cosh^2 r + sinh^2 r when detuned and n + n_d on
    resonance.  Squeezed states decay slowly in the number basis, so the
    truncation also tracks the anti-squeezed quadrature variance
    (proportional to e^{2r}, or to S_inf on resonance).  A pump past
    lambda_crit raises UnstableDynamics; a stable one with lam >= |delta_a|
    has no squeezing frame to size by and raises TruncationError.
    """
    drive = DriveSpec() if drive is None else drive
    if p.lam < abs(p.delta_a):  # never at delta_a = 0, as lam >= 0
        frame = frame_of(p)
        occ, anti = bo_occupation(frame, drive), math.exp(2.0 * frame.r)
    elif p.delta_a == 0.0 and p.lam < p.kappa / 2.0:
        mom = resonant_steady_state(p)
        occ, anti = mom.n_mean + drive.n_d, mom.s_inf
    else:
        rep = validate(p)
        if not rep.stable:
            raise UnstableDynamics(
                f"lam = {p.lam} >= lambda_crit = {rep.lambda_crit}")
        raise TruncationError(
            f"cannot size the truncation for lam = {p.lam} >= |delta_a| = "
            f"{abs(p.delta_a)}")
    return occ, max(16, math.ceil(12.0 * anti + 10.0 * occ + 10.0))


def default_n_fock(p: OscillatorParams, drive: DriveSpec | None = None) -> int:
    """Truncation sized to the slow Fock-space tails of squeezed states:
    max(16, ceil(12 A + 10 n + 10)), A the anti-squeezing and n the
    estimated occupation (see _sizing)."""
    return _sizing(p, drive)[1]


def destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1)


def transmon_level_detunings(q: TransmonParams) -> np.ndarray:
    """delta_k = k delta_q + k(k-1)/2 chi_q for k < q.n_levels (rotating
    frame at nu_p/2)."""
    k = np.arange(q.n_levels, dtype=float)
    return k * q.delta_q + 0.5 * k * (k - 1.0) * q.chi_q


@dataclass
class LiouvillianMatrix:
    """Assembled superoperator plus the context needed to rebuild it."""

    matrix: sp.csc_matrix
    n_fock: int
    n_transmon: int
    a_full: np.ndarray
    sigma_minus_full: np.ndarray | None
    params: OscillatorParams
    transmon: TransmonParams | None
    drive: DriveSpec | None

    @property
    def dim(self) -> int:
        return self.n_fock * self.n_transmon


def _hamiltonian(p: OscillatorParams, q: TransmonParams | None,
                 drive: DriveSpec | None, n_fock: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Joint Hamiltonian in the bare basis; returns (H, a_full, b_low_full)."""
    a = destroy(n_fock)
    ident_f = np.eye(n_fock)
    h_osc = (p.delta_a * a.conj().T @ a
             - 0.5 * p.lam * (a @ a + a.conj().T @ a.conj().T))
    if drive is not None and drive.n_d > 0.0:
        eps = p.kappa * math.sqrt(drive.n_d) * np.exp(
            1j * (drive.theta - math.pi / 4.0))
        h_osc = h_osc + 0.5 * eps * a + 0.5 * np.conj(eps) * a.conj().T
    if q is None:
        return h_osc, a, None
    ident_t = np.eye(q.n_levels)
    h_t = np.diag(transmon_level_detunings(q))
    b = destroy(q.n_levels)  # lowering with sqrt(k+1) matrix elements
    h = (np.kron(ident_t, h_osc) + np.kron(h_t, ident_f)
         + q.g * (np.kron(b.conj().T, a) + np.kron(b, a.conj().T)))
    return h, np.kron(ident_t, a), np.kron(b, ident_f)


def _dissipator(c: np.ndarray) -> sp.csc_matrix:
    c = sp.csc_matrix(c)
    cd_c = (c.conj().T @ c).tocsc()
    ident = sp.identity(c.shape[0], format="csc")
    return (sp.kron(c.conj(), c)
            - 0.5 * sp.kron(ident, cd_c)
            - 0.5 * sp.kron(cd_c.T, ident)).tocsc()


def _check_truncation(p: OscillatorParams, drive: DriveSpec | None,
                      n_fock: int | None, n_levels: int) -> int:
    """The truncation to use, default_n_fock(p, drive) when n_fock is None.
    Refuses, before allocating, n_fock < 4, an estimated occupation over
    n_fock/4 and more than _MAX_UNKNOWNS unknowns, (n_fock * n_levels)^2."""
    if n_fock is not None and n_fock < 4:
        raise TruncationError(f"n_fock = {n_fock} is below 4")
    occ, needed = _sizing(p, drive)
    if n_fock is None:
        n_fock = needed
    if occ > n_fock / 4.0:
        raise TruncationError(
            f"estimated occupation {occ:.3g} exceeds n_fock/4 = "
            f"{n_fock / 4:.3g}; increase n_fock to at least {needed}")
    unknowns = (n_fock * n_levels) ** 2
    if unknowns > _MAX_UNKNOWNS:
        raise TruncationError(
            f"n_fock = {n_fock} with {n_levels} transmon level(s) "
            f"gives {unknowns} unknowns, over the oracle's budget of "
            f"{_MAX_UNKNOWNS}")
    return n_fock


def build_liouvillian(p: OscillatorParams, q: TransmonParams | None = None,
                      drive: DriveSpec | None = None,
                      n_fock: int | None = None) -> LiouvillianMatrix:
    """Assemble the Lindblad superoperator in the truncated product space
    (n_fock None: default_n_fock(p, drive)).

    H = delta_a a^dag a - (lam/2)(a^2 + a^dag^2) [+ transmon levels +
    g sqrt(k+1) exchange] [+ (eps_d/2) a + h.c.]; dissipators sqrt(kappa) a,
    sqrt(gamma_1) (lowering), sqrt(gamma_phi/2) sigma_z (generalized to a
    diagonal level-number operator beyond two levels).
    """
    n_transmon = 1 if q is None else q.n_levels
    n_fock = _check_truncation(p, drive, n_fock, n_transmon)
    h, a_full, b_low = _hamiltonian(p, q, drive, n_fock)
    dim = h.shape[0]
    ident = sp.identity(dim, format="csc")
    h_s = sp.csc_matrix(h)
    liou = (-1j * (sp.kron(ident, h_s) - sp.kron(h_s.T, ident))).tocsc()
    liou = liou + p.kappa * _dissipator(a_full)
    if q is not None:
        if q.gamma_1 > 0.0:
            liou = liou + q.gamma_1 * _dissipator(b_low)
        if q.gamma_phi > 0.0:
            # sqrt(2 gamma_phi) * diag(level number); equals
            # sqrt(gamma_phi/2) sigma_z for two levels up to an identity shift
            num_t = np.diag(np.arange(n_transmon, dtype=float))
            num_full = np.kron(num_t, np.eye(n_fock))
            liou = liou + 2.0 * q.gamma_phi * _dissipator(num_full)
    return LiouvillianMatrix(matrix=liou, n_fock=n_fock,
                             n_transmon=n_transmon, a_full=a_full,
                             sigma_minus_full=b_low, params=p,
                             transmon=q, drive=drive)


@dataclass
class SteadyStateResult:
    """Steady-state density matrix moments from the oracle."""

    n_mean: float
    a_sq: complex
    thetas: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    trace_residual: float
    min_eigenvalue: float
    truncation_converged: bool
    n_fock: int


def _parity_sector(liou: LiouvillianMatrix, parity: int) -> np.ndarray:
    """Sorted vec(rho) indices of the excitation-parity sector `parity`
    (0 even, 1 odd); every index when a coherent drive breaks the symmetry."""
    n_vec = liou.dim * liou.dim
    if liou.drive is not None and liou.drive.n_d > 0.0:
        return np.arange(n_vec)
    basis = np.arange(liou.dim)
    par = (basis // liou.n_fock + basis % liou.n_fock) % 2
    # column stacking: vec index i + j * dim holds rho[i, j]
    sector = np.bitwise_xor.outer(par, par).reshape(-1, order="F")
    return np.flatnonzero(sector == parity)


def _factorize(mat: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of a Liouvillian block, ordered for its nearly symmetric
    pattern: minimum degree on A^T + A with diagonal pivots preferred
    (threshold 0.1), about half the fill of SuperLU's default COLAMD."""
    return spla.splu(sp.csc_matrix(mat), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.1, options={"SymmetricMode": True})


def _solve_steady_rho(liou: LiouvillianMatrix) -> np.ndarray:
    dim = liou.dim
    sec = _parity_sector(liou, 0)
    # replace the first equation (that of rho[0, 0], sec[0]) by the
    # unit-trace condition; the diagonal of rho lies in the even sector
    diag = np.searchsorted(sec, np.arange(dim) * (dim + 1))
    trace_row = sp.csr_matrix((np.ones(dim), (np.zeros(dim, dtype=int), diag)),
                              shape=(1, len(sec)))
    mat = sp.vstack([trace_row, liou.matrix[sec[1:]][:, sec]], format="csc")
    rhs = np.zeros(len(sec), dtype=complex)
    rhs[0] = 1.0
    vec = np.zeros(dim * dim, dtype=complex)
    vec[sec] = _factorize(mat).solve(rhs)
    rho = vec.reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    residual = np.linalg.norm(liou.matrix @ rho.reshape(-1, order="F"))
    if not np.isfinite(residual) or residual > 1e-6 * max(
            1.0, spla.norm(liou.matrix)):
        raise UnstableDynamics("steady-state solve failed to converge "
                               "(dynamics likely unstable)")
    return rho


def _moments(rho: np.ndarray, a_full: np.ndarray,
             thetas: np.ndarray) -> tuple[float, complex, np.ndarray,
                                          np.ndarray]:
    # <M> = tr(rho M) = sum(rho.T * M) for the four quadratic operators;
    # x_theta^2 and p_theta^2 expand into them exactly (a a^dag is kept:
    # in the truncated space it is not a^dag a + 1)
    a, ad = a_full, a_full.conj().T
    aa, adad, aad, ada = (np.sum(rho.T * (m1 @ m2)) for m1, m2 in
                          ((a, a), (ad, ad), (a, ad), (ad, a)))
    rot = np.exp(-2j * thetas) * aa + np.exp(2j * thetas) * adad
    var_x = 0.25 * np.real(rot + aad + ada)
    var_p = 0.25 * np.real(aad + ada - rot)
    return float(np.real(ada)), complex(aa), var_x, var_p


def steady_state(liou: LiouvillianMatrix, thetas=None,
                 check_convergence: bool = True) -> SteadyStateResult:
    """Solve L rho = 0 with the unit-trace constraint and report moments.

    When check_convergence is set the solve is repeated at twice the Fock
    truncation; truncation_converged records whether the moments moved by
    less than _CONVERGENCE_FACTOR (relative).  A twice-size truncation the
    oracle refuses is refused before the first solve.
    """
    if check_convergence:
        try:
            _check_truncation(liou.params, liou.drive, 2 * liou.n_fock,
                              liou.n_transmon)
        except TruncationError as exc:
            raise TruncationError(f"the convergence check needs n_fock = "
                                  f"{2 * liou.n_fock}: {exc}") from exc
    if thetas is None:
        thetas = np.linspace(0.0, math.pi, 9)
    thetas = np.asarray(thetas, dtype=float)
    rho = _solve_steady_rho(liou)
    n_mean, a_sq, var_x, var_p = _moments(rho, liou.a_full, thetas)
    trace_residual = abs(np.trace(rho).real - 1.0)
    min_eig = float(np.linalg.eigvalsh(rho).min())
    converged = True
    if check_convergence:
        liou2 = build_liouvillian(liou.params, liou.transmon, liou.drive,
                                  2 * liou.n_fock)
        rho2 = _solve_steady_rho(liou2)
        n2, a2, vx2, vp2 = _moments(rho2, liou2.a_full, thetas)
        scale = max(abs(n_mean), abs(a_sq), 0.25)
        moves = [abs(n2 - n_mean), abs(a2 - a_sq),
                 float(np.max(np.abs(vx2 - var_x))),
                 float(np.max(np.abs(vp2 - var_p)))]
        converged = max(moves) / scale < _CONVERGENCE_FACTOR
    return SteadyStateResult(
        n_mean=n_mean, a_sq=a_sq, thetas=thetas, var_x=var_x, var_p=var_p,
        trace_residual=trace_residual, min_eigenvalue=min_eig,
        truncation_converged=converged, n_fock=liou.n_fock)


def _unambiguous_pick(vals: np.ndarray, overlaps: np.ndarray) -> int:
    """Index of the largest overlap; AmbiguousSector if the next is > 0.9x."""
    second, best = np.argsort(overlaps)[-2:]
    if overlaps[second] > 0.9 * overlaps[best]:
        raise AmbiguousSector(
            f"two candidate eigenvalues with comparable overlap: "
            f"{vals[best]:.6g} (|ov|={overlaps[best]:.3f}) and "
            f"{vals[second]:.6g} (|ov|={overlaps[second]:.3f})")
    return best


def _coherence_eigenvalue(liou: LiouvillianMatrix, rho_target: np.ndarray,
                          sigma_guess: complex) -> complex:
    """Eigenvalue of the |g><e| qubit-coherence mode: the candidate that
    overlaps rho_target @ sigma_minus most (see the module docstring)."""
    target = (rho_target @ liou.sigma_minus_full).reshape(-1, order="F")
    # even rho_target x odd sigma_minus: the odd sector drops only zeros
    sec = _parity_sector(liou, 1)
    target = target[sec] / np.linalg.norm(target)
    block = liou.matrix[sec][:, sec]
    n = block.shape[0]
    # shift-invert: one factorization of block - sigma I serves every ARPACK
    # back-solve, the retry's included
    lu = _factorize(block - sigma_guess * sp.identity(n, format="csc"))
    opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=complex)
    opts = dict(k=min(_N_CANDIDATES, n - 2), sigma=sigma_guess, OPinv=opinv,
                v0=target.astype(complex), tol=_ARPACK_TOL)
    try:
        vals, vecs = spla.eigs(block, **opts)
    except spla.ArpackError:
        # a tiny nonzero lam can stall ARPACK (error 3) at its default size
        vals, vecs = spla.eigs(block, ncv=min(n, _RETRY_NCV), **opts)
    overlaps = np.abs(vecs.conj().T @ target) / np.linalg.norm(vecs, axis=0)
    best = _unambiguous_pick(vals, overlaps)
    vec, val = vecs[:, best], vals[best]
    residual = np.linalg.norm(block @ vec - val * vec) / np.linalg.norm(vec)
    if not residual <= _EIG_RESIDUAL * spla.norm(block, 1):
        raise spla.ArpackNoConvergence(
            f"coherence eigenpair {val:.6g} has residual {residual:.3g}",
            vals, vecs)
    return complex(val)


@dataclass(frozen=True)
class OracleShift:
    """Oracle qubit shift/dephasing, referenced to the pump-off run."""

    d_omega_q: float
    d_gamma_phi: float
    eig_on: complex
    eig_off: complex


def qubit_shift_dephasing(p: OscillatorParams, q: TransmonParams,
                          n_fock: int | None = None) -> OracleShift:
    """Qubit frequency shift and induced dephasing from the coherence-sector
    Liouvillian eigenvalue at truncation n_fock (None: default_n_fock(p)),
    referenced to the pump-off run.

    The |g><e| coherence evolves at +i delta_q under the bare Hamiltonian, so
    the dressed qubit frequency is Im(eig) and its linewidth is -Re(eig);
    both are reported as pump-on minus pump-off differences.  The pump-off
    eigenvalue is exact, from a 2x2 matrix (see the module docstring); at
    lam = 0 it is the pump-on one too, both differences are 0.0, and no
    Liouvillian is built, but n_fock still has to pass the truncation rules.
    """
    _check_truncation(p, None, n_fock, q.n_levels)
    eig_off = _pump_off_eigenvalue(p, q)
    eig_on = _oracle_eigenvalue(p, q, n_fock) if p.lam > 0.0 else eig_off
    return OracleShift(d_omega_q=eig_on.imag - eig_off.imag,
                       d_gamma_phi=-(eig_on.real - eig_off.real),
                       eig_on=eig_on, eig_off=eig_off)


def _pump_off_eigenvalue(p: OscillatorParams, q: TransmonParams) -> complex:
    """Coherence eigenvalue at lam = 0: the eigenvalue of the module
    docstring's M whose eigenvector has the larger normalized |e0> weight."""
    m = np.array([[1j * q.delta_q - 0.5 * q.gamma_1 - q.gamma_phi, 1j * q.g],
                  [1j * q.g, 1j * p.delta_a - 0.5 * p.kappa]])
    vals, vecs = np.linalg.eig(m)  # unit-norm eigenvectors
    return complex(vals[_unambiguous_pick(vals, np.abs(vecs[0]))])


def _oracle_eigenvalue(p: OscillatorParams, q: TransmonParams,
                       n_fock: int | None) -> complex:
    """Coherence eigenvalue of one undriven oracle run."""
    liou = build_liouvillian(p, q, None, n_fock)
    osc = build_liouvillian(p, None, None, liou.n_fock)
    ground = np.diag(np.eye(liou.n_transmon)[0])  # |g><g|
    sigma_guess = 1j * q.delta_q - 0.5 * q.gamma_t - 0.25 * p.kappa
    return _coherence_eigenvalue(
        liou, np.kron(ground, _solve_steady_rho(osc)), sigma_guess)


def chi_exact(p: OscillatorParams, q: TransmonParams,
              n_fock: int | None = None) -> float:
    """Dispersive strength from exact diagonalization of the joint
    Hamiltonian in the bare frame at truncation n_fock (None:
    default_n_fock(p)): the qubit-frequency shift per Bogoliubov
    excitation, chi = (E_e1 - E_e0) - (E_g1 - E_g0).

    Eigenstates are identified by maximal overlap with the squeezed-Fock
    product states.  This is the Hamiltonian (zero-dissipation) sector of the
    Liouvillian spectrum; with kappa ~ the level spacings the dissipative
    coherence modes hybridize and a per-excitation reading is ill-defined.
    """
    if p.delta_a == 0.0 or p.lam >= abs(p.delta_a):
        raise ValueError("chi_exact requires the detuned regime "
                         "lam < |delta_a|")
    n_fock = _check_truncation(p, None, n_fock, q.n_levels)
    h, _, _ = _hamiltonian(p, q, None, n_fock)
    evals, evecs = np.linalg.eigh(h)
    # squeezed Fock states |0_s>, |1_s>: the oscillator's two lowest
    # excitations, the lowest eigenvectors of sign(delta_a) H_osc
    h_osc = _hamiltonian(p, None, None, n_fock)[0]
    sq = np.linalg.eigh(math.copysign(1.0, p.delta_a) * h_osc)[1][:, :2]
    # products |k>|n_s> in the order g0, g1, e0, e1
    targets = np.kron(np.eye(q.n_levels)[:, :2], sq)
    e = evals[np.argmax(np.abs(evecs.conj().T @ targets), axis=0)]
    return float((e[3] - e[2]) - (e[1] - e[0]))
