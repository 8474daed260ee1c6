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
certified on the full Liouvillian (Certificate, below).

Resonant oscillator alone: at delta_a = 0, undriven and without a transmon,
U = exp(i pi a^dag a / 4) maps H = -(lam/2)(a^2 + a^dag^2) to
(i lam/2)(a^2 - a^dag^2) and leaves kappa D[a] as it is, so the Liouvillian
acting on rho' = U rho U^dag is real.  In vec terms that is a diagonal
similarity, rho'[i, j] = 1j^((i - j)/2) rho[i, j]; in the even sector i - j
is even, every phase is exactly 1, 1j, -1 or -1j, and the gauged block is
real bit for bit (the assembly checks that, and raises otherwise).  The
real, Hermitian rho' is symmetric, so the steady state is solved for
rho'[i, j] with i <= j and i + j even: about dim^2/4 real unknowns instead
of dim^2/2 complex ones.  One function, _steady_system, assembles either
system with the same trace row, and one LU solves it.  Every other steady
state keeps the complex sector solve, as no diagonal similarity makes it
real: a detuning delta_a puts -i delta_a (i - j) on the diagonal, the
transmon's level detunings do the same, and a coherent drive mixes the
sectors with a phase of its own.

Sparse LU: every factorization (_factorize) orders the columns by minimum
degree on A^T + A and pivots with threshold 0.01, preferring the diagonal
(SuperLU's symmetric mode; X. S. Li, ACM TOMS 31, 302 (2005)).  The Liouvillian
blocks are nearly structurally symmetric, and this gives about half the fill of
the default COLAMD ordering, at small kappa too (see _MAX_UNKNOWNS).  ARPACK
takes the one factorization of the coherence block - sigma I as its
shift-invert operator for every pass, and the pick is read from one Arnoldi
pass (tol = 1, 22 back-solves at ARPACK's default Krylov size) over the
_N_CANDIDATES Ritz pairs nearest sigma, which converges the target mode but not
its runner-ups.  The ambiguity decision needs only their overlaps, which move
by <= 1.1e-4 from one pass to machine precision over sideband-biased draws.
Where the one-pass runner-up overlaps more than _RECHECK_RATIO = 0.8 of the
best, within 0.1 of AmbiguousSector's 0.9, where the pick fails its
certificate, or where it is not the candidate nearest sigma (the window,
centred on sigma, can then cut off a mode that competes with the pick: both
seen with the qubit on the oscillator), the 2 _N_CANDIDATES pairs nearest sigma
are recomputed to machine precision and the decision is made from those.  At
the benchmark's points one-pass picks are the candidates nearest sigma and
match a machine-precision run to 3e-16 relative.  An ARPACK failure is raised
as it is (the CLI reports it with exit 3): qubit_shift_dephasing reads a pump
at or below _PUMP_FLOOR as none, and no pump above the floor has been seen to
stall ARPACK.

Certificate: both solves are eigenpairs (mu, v) of a matrix M and must have
_residual, ||M v - mu v|| / (||v|| ||M||_1), at most _RESIDUAL_BOUND = 1e-13
(NaN fails): the steady state at mu = 0 of the full Liouvillian, else
UnstableDynamics, and the coherence pick of the odd block, else
ArpackNoConvergence.

Truncation: every entry point takes n_fock, the Fock truncation, with None
meaning the default truncation max(16, ceil(12 A + 10 n + 10)), A the
anti-squeezing e^{2r} (S_inf on resonance) and n the estimated occupation
(n_d cosh^2 r + sinh^2 r detuned, the closed-form n + n_d on resonance).
One function, _check_truncation, reads the pump's regime, gives both and
applies the rules below; the truncation a run used is its result's n_fock.
build_liouvillian, chi_exact and qubit_shift_dephasing (at lam = 0 too)
refuse, with TruncationError and before any allocation, an n_fock not an
integer >= 4, a truncation whose estimated occupation exceeds n_fock/4, or
one with more than _MAX_UNKNOWNS unknowns.  Past lambda_crit the refusal is
core.check_stable's StabilityError; a stable detuned pump with
lam >= |delta_a| has no estimate and is refused by core.frame_of's
ValueError (no squeezing frame), as chi_exact refuses delta_a = 0.

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
transmon levels.  _operators builds the joint-space a, b and level number
that the Hamiltonian, every jump, the moments and the eigensolve target
read, so a change of basis made there reaches them all.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (DriveSpec, OscillatorParams, TransmonParams, check_stable,
                   frame_of)
from .spectral import SpectralShift, bo_occupation, resonant_steady_state


# ARPACK's stopping test, ||r|| <= tol |theta| for every candidate Ritz pair
# (scipy's tol 0 is machine precision): the coherence pick reads one pass
_ONE_PASS_TOL = 1.0
# the one-pass runner-up overlap, relative to the best, above which the
# candidates are recomputed (the module docstring's Sparse LU)
_RECHECK_RATIO = 0.8
# Ritz pairs nearest sigma that one pass compares (the recheck: twice as many)
_N_CANDIDATES = 10
# the 2x truncation check passes when no moment moves by this much (relative)
_CONVERGENCE_FACTOR = 1e-6
# largest accepted _residual (the module docstring's Certificate); measured:
# steady states 6e-17 (the tests' draws), coherence picks 4e-17 (benchmark)
_RESIDUAL_BOUND = 1e-13
# qubit_shift_dephasing treats lam <= _PUMP_FLOOR * max(|delta_a|, kappa) as
# lam = 0; such a pump moves the coherence eigenvalue by O(lam^2), ~1e-40
# relative, where one Arnoldi pass can miss a comparable runner-up
_PUMP_FLOOR = 1e-20
# largest Liouvillian build_liouvillian accepts, in unknowns (n_fock *
# n_levels)^2.  A steady state at the budget (n_fock = 724, one core) peaks
# at ~0.8 GB and takes ~5 s through the complex sector (detuned, lam = 17),
# ~0.35 GB and 2-4 s for the resonant oscillator's real half; the default
# truncation at lam = 0.99 kappa/2 would ask for 2.1M unknowns, whose LU
# fill would exhaust a machine's memory.  The budget bounds memory while
# test_fill_stays_on_the_ordering_at_small_kappa holds the fill near the
# ordering's (at pivot threshold 0.1, 84 681 unknowns took 3.4 GB, kappa 0.2)
_MAX_UNKNOWNS = 2 ** 19


class UnstableDynamics(RuntimeError):
    """A steady-state solve failed its certificate, the residual check (an
    unstable pump is refused before, with StabilityError)."""


class TruncationError(ValueError):
    """Fock truncation too small for the requested parameters."""


class AmbiguousSector(RuntimeError):
    """Two Liouvillian eigenvalues overlap the target sector comparably."""


def _operators(n_fock: int, n_levels: int
               ) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """(a, b, level number) in the joint space, basis state k * n_fock + n
    for transmon level k and Fock number n, as sparse matrices: the
    oscillator's and the transmon's lowering operators and diag(k) (not
    b^dag b, whose sqrt(k) sqrt(k) products are not exact integers)."""
    dim = n_levels * n_fock
    k, n = np.divmod(np.arange(dim), n_fock)
    # a[i, i + 1] is sqrt(n) of state i + 1, zero where that state opens a
    # level's block; b[i, i + n_fock] is sqrt(k) of state i + n_fock
    return tuple(sp.diags(diag, offset, shape=(dim, dim), format="csr")
                 for diag, offset in ((np.sqrt(n[1:]), 1),
                                      (np.sqrt(k[n_fock:]), n_fock),
                                      (k.astype(float), 0)))


@dataclass(frozen=True)
class LiouvillianMatrix:
    """Assembled superoperator plus the context needed to rebuild it."""

    matrix: sp.csc_matrix
    n_fock: int
    params: OscillatorParams
    transmon: TransmonParams | None
    drive: DriveSpec | None  # None unless a drive acts, n_d > 0

    @property
    def n_transmon(self) -> int:
        """Transmon levels in the joint space, 1 for the oscillator alone."""
        return 1 if self.transmon is None else self.transmon.n_levels

    @property
    def dim(self) -> int:
        return self.n_fock * self.n_transmon


def _hamiltonian(p: OscillatorParams, q: TransmonParams | None,
                 drive: DriveSpec | None, a: sp.csr_matrix,
                 b: sp.csr_matrix, level: sp.csr_matrix) -> sp.csr_matrix:
    """Joint Hamiltonian in the bare basis, from _operators' a, b and level
    number (each product has one term per entry, so it is exact)."""
    ad = a.conj().T
    aa = a @ a
    h = p.delta_a * ad @ a - 0.5 * p.lam * (aa + aa.conj().T)
    if drive is not None:
        eps = p.kappa * math.sqrt(drive.n_d) * np.exp(
            1j * (drive.theta - math.pi / 4.0))
        h = h + 0.5 * eps * a + 0.5 * np.conj(eps) * ad
    if q is None:
        return h
    # level k at k delta_q + k(k-1)/2 chi_q (rotating frame at nu_p/2)
    k = level.diagonal()
    hop = b.conj().T @ a
    return (h + sp.diags(k * q.delta_q + 0.5 * k * (k - 1.0) * q.chi_q)
            + q.g * (hop + hop.conj().T))


def _dissipator(c: sp.spmatrix | np.ndarray) -> sp.csc_matrix:
    c = sp.csc_matrix(c)
    cd_c = (c.conj().T @ c).tocsc()
    ident = sp.identity(c.shape[0], format="csc")
    return (sp.kron(c.conj(), c)
            - 0.5 * sp.kron(ident, cd_c)
            - 0.5 * sp.kron(cd_c.T, ident)).tocsc()


def _check_truncation(p: OscillatorParams, drive: DriveSpec | None,
                      n_fock: int | None, n_levels: int) -> int:
    """The truncation to use, the module docstring's default when n_fock is
    None (squeezed states decay slowly in the number basis, so it tracks the
    anti-squeezing as well as the occupation).  An unstable pump raises
    check_stable's StabilityError, a stable detuned one with
    lam >= |delta_a| frame_of's ValueError; TruncationError refuses, before
    allocating, an n_fock not an integer >= 4, an estimated occupation over
    n_fock/4 and more than _MAX_UNKNOWNS unknowns, (n_fock * n_levels)^2."""
    if n_fock is not None and not (isinstance(n_fock, numbers.Integral)
                                   and n_fock >= 4):
        raise TruncationError(f"n_fock = {n_fock!r} is not an integer >= 4")
    check_stable(p)
    drive = DriveSpec() if drive is None else drive
    if p.delta_a == 0.0:
        mom = resonant_steady_state(p)
        occ, anti = mom.n_mean + drive.n_d, mom.s_inf
    else:
        frame = frame_of(p)
        occ, anti = bo_occupation(frame, drive), math.exp(2.0 * frame.r)
    needed = max(16, math.ceil(12.0 * anti + 10.0 * occ + 10.0))
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
    (n_fock None: the default truncation for p and drive, see the module
    docstring).

    H = delta_a a^dag a - (lam/2)(a^2 + a^dag^2) [+ transmon levels +
    g sqrt(k+1) exchange] [+ (eps_d/2) a + h.c.]; dissipators sqrt(kappa) a,
    sqrt(gamma_1) (lowering), sqrt(gamma_phi/2) sigma_z (generalized to a
    diagonal level-number operator beyond two levels).
    """
    n_transmon = 1 if q is None else q.n_levels
    n_fock = _check_truncation(p, drive, n_fock, n_transmon)
    # a zero drive acts as none: it keeps the parity symmetry
    drive = drive if drive is not None and drive.n_d > 0.0 else None
    a, b, level = _operators(n_fock, n_transmon)
    h_s = sp.csc_matrix(_hamiltonian(p, q, drive, a, b, level))
    ident = sp.identity(h_s.shape[0], format="csc")
    liou = (-1j * (sp.kron(ident, h_s) - sp.kron(h_s.T, ident))).tocsc()
    liou = liou + p.kappa * _dissipator(a)
    if q is not None:
        if q.gamma_1 > 0.0:
            liou = liou + q.gamma_1 * _dissipator(b)
        if q.gamma_phi > 0.0:
            # sqrt(2 gamma_phi) * level number; equals sqrt(gamma_phi/2)
            # sigma_z for two levels up to an identity shift
            liou = liou + 2.0 * q.gamma_phi * _dissipator(level)
    return LiouvillianMatrix(matrix=liou, n_fock=n_fock, params=p,
                             transmon=q, drive=drive)


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady-state density matrix moments from the oracle; var_x and var_p
    are taken at steady_state's thetas."""

    n_mean: float
    a_sq: complex
    var_x: np.ndarray
    var_p: np.ndarray
    trace_residual: float
    min_eigenvalue: float
    truncation_converged: bool
    n_fock: int


def _basis_parity(liou: LiouvillianMatrix) -> np.ndarray:
    """Excitation parity, (level + Fock number) % 2, of each basis state."""
    basis = np.arange(liou.dim)
    return (basis // liou.n_fock + basis % liou.n_fock) % 2


def _parity_sector(liou: LiouvillianMatrix, parity: int) -> np.ndarray:
    """Sorted vec(rho) indices of the excitation-parity sector `parity`
    (0 even, 1 odd); every index when a coherent drive breaks the symmetry."""
    n_vec = liou.dim * liou.dim
    if liou.drive is not None:
        return np.arange(n_vec)
    par = _basis_parity(liou)
    # column stacking: vec index i + j * dim holds rho[i, j]
    sector = np.bitwise_xor.outer(par, par).reshape(-1, order="F")
    return np.flatnonzero(sector == parity)


def _factorize(mat: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of a Liouvillian block, ordered for its nearly symmetric
    pattern: minimum degree on A^T + A with diagonal pivots preferred
    (threshold 0.01), about half the fill of SuperLU's default COLAMD."""
    return spla.splu(sp.csc_matrix(mat), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.01, options={"SymmetricMode": True})


def _residual(mat: sp.spmatrix, vec: np.ndarray, val: complex = 0.0) -> float:
    """||mat vec - val vec|| / (||vec|| ||mat||_1), the certificate; |mat|
    shares mat's indices (spla.norm copies them: 6 MB more peak memory)."""
    abs_mat = type(mat)((np.abs(mat.data), mat.indices, mat.indptr),
                        shape=mat.shape)
    return float(np.linalg.norm(mat @ vec - val * vec)
                 / (np.linalg.norm(vec) * abs_mat.sum(axis=0).max()))


def _gauge(dim: int) -> np.ndarray:
    """g[i, j] = 1j^((i - j)/2), exactly 1, 1j, -1 or -1j; rho' = g * rho is
    U rho U^dag, U = exp(i pi a^dag a / 4), on the even sector (where i - j
    is even; the entries elsewhere are not used)."""
    steps = np.subtract.outer(np.arange(dim), np.arange(dim)) // 2
    return np.array([1.0, 1.0j, -1.0, -1.0j])[steps % 4]


def _steady_system(liou: LiouvillianMatrix
                   ) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray, bool]:
    """(matrix, i, j, real): the Liouvillian on the steady state's
    unknowns, row by row, the equation of the first, [0, 0], replaced by
    the unit-trace condition.  The unknowns are rho[i, j] of the even
    sector (every entry when driven) and the matrix is complex; for the
    resonant, undriven oscillator alone (real is True) they are rho'[i, j],
    i <= j and i + j even, of the gauged, symmetric rho' (see the module
    docstring), and the matrix is real: a gauged entry that is not raises
    RuntimeError."""
    dim = liou.dim
    real = (liou.transmon is None and liou.drive is None
            and liou.params.delta_a == 0.0)
    if real:
        i, j = np.triu_indices(dim)
        even = (i + j) % 2 == 0
        i, j = i[even], j[even]
    else:
        sec = _parity_sector(liou, 0)
        i, j = sec % dim, sec // dim
    n = len(i)
    unknown = np.empty((dim, dim), dtype=int)
    unknown[i, j] = np.arange(n)
    if real:
        # rho' is symmetric: both of its triangles map onto the one unknown
        unknown[j, i] = unknown[i, j]
    unknown = unknown.reshape(-1, order="F")
    rows = i[1:] + j[1:] * dim
    eqs = liou.matrix[rows].tocoo()
    data = eqs.data
    if real:
        # L' = G L G^-1 entry by entry: each factor is a power of 1j, so
        # every product is exact
        gauge = _gauge(dim).reshape(-1, order="F")
        data = data * gauge[rows][eqs.row] * np.conj(gauge[eqs.col])
        if np.any(data.imag != 0.0):
            raise RuntimeError("the gauged resonant Liouvillian is not real")
        data = data.real
    # the diagonal of rho lies in the even sector
    diag = unknown[np.arange(dim) * (dim + 1)]
    mat = sp.csc_matrix(
        (np.concatenate([np.ones(dim), data]),
         (np.concatenate([np.zeros(dim, dtype=int), eqs.row + 1]),
          np.concatenate([diag, unknown[eqs.col]]))), shape=(n, n))
    return mat, i, j, real


def _solve_steady_rho(liou: LiouvillianMatrix) -> np.ndarray:
    mat, i, j, real = _steady_system(liou)
    rhs = np.zeros(mat.shape[0], dtype=mat.dtype)
    rhs[0] = 1.0
    sol = _factorize(mat).solve(rhs)
    rho = np.zeros((liou.dim, liou.dim), dtype=mat.dtype)
    rho[i, j] = sol
    if real:
        rho[j, i] = sol
        rho = rho * np.conj(_gauge(liou.dim))
    rho = 0.5 * (rho + rho.conj().T)
    res = _residual(liou.matrix, rho.reshape(-1, order="F"))
    if not res <= _RESIDUAL_BOUND:
        raise UnstableDynamics(f"steady-state solve failed its residual "
                               f"check: {res:.3g} of ||L||_1")
    return rho


def _moments(rho: np.ndarray, a: sp.csr_matrix,
             thetas: np.ndarray) -> tuple[float, complex, np.ndarray,
                                          np.ndarray]:
    # <M> = tr(rho M) = sum(rho.T * M) for the four quadratic operators;
    # x_theta^2 and p_theta^2 expand into them exactly (a a^dag is kept:
    # in the truncated space it is not a^dag a + 1); each product is laid
    # out in C order, since np.sum's summation order follows the layout
    ad = a.conj().T
    aa, adad, aad, ada = (np.sum(rho.T * (m1 @ m2).toarray(order="C"))
                          for m1, m2 in ((a, a), (ad, ad), (a, ad), (ad, a)))
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
    n_mean, a_sq, var_x, var_p = _moments(
        rho, _operators(liou.n_fock, liou.n_transmon)[0], thetas)
    trace_residual = abs(np.trace(rho).real - 1.0)
    # undriven, rho is block-diagonal in the basis parity: its two
    # half-size blocks hold its spectrum at about a quarter of the flops
    par = _basis_parity(liou)
    blocks = ([rho] if liou.drive is not None else
              [rho[np.ix_(par == k, par == k)] for k in (0, 1)])
    min_eig = min(float(np.linalg.eigvalsh(blk).min()) for blk in blocks)
    converged = True
    if check_convergence:
        liou2 = build_liouvillian(liou.params, liou.transmon, liou.drive,
                                  2 * liou.n_fock)
        rho2 = _solve_steady_rho(liou2)
        n2, a2, vx2, vp2 = _moments(
            rho2, _operators(liou2.n_fock, liou2.n_transmon)[0], thetas)
        scale = max(abs(n_mean), abs(a_sq), 0.25)
        moves = [abs(n2 - n_mean), abs(a2 - a_sq),
                 float(np.max(np.abs(vx2 - var_x))),
                 float(np.max(np.abs(vp2 - var_p)))]
        converged = max(moves) / scale < _CONVERGENCE_FACTOR
    return SteadyStateResult(
        n_mean=n_mean, a_sq=a_sq, var_x=var_x, var_p=var_p,
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
    sigma_minus = _operators(liou.n_fock, liou.n_transmon)[1]
    target = (rho_target @ sigma_minus).reshape(-1, order="F")
    # even rho_target x odd sigma_minus: the odd sector drops only zeros
    sec = _parity_sector(liou, 1)
    target = target[sec] / np.linalg.norm(target)
    block = liou.matrix[sec][:, sec]
    n = block.shape[0]
    # shift-invert: one factorization of block - sigma I serves every ARPACK
    # back-solve, the recheck's included
    lu = _factorize(block - sigma_guess * sp.identity(n, format="csc"))
    opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=complex)

    def candidates(tol, k):
        vals, vecs = spla.eigs(block, k=min(k, n - 2), sigma=sigma_guess,
                               OPinv=opinv, v0=target.astype(complex),
                               tol=tol)
        overlaps = (np.abs(vecs.conj().T @ target)
                    / np.linalg.norm(vecs, axis=0))
        return vals, vecs, overlaps

    vals, vecs, overlaps = candidates(_ONE_PASS_TOL, _N_CANDIDATES)
    second, best = np.argsort(overlaps)[-2:]
    res = _residual(block, vecs[:, best], vals[best])
    if (overlaps[second] > _RECHECK_RATIO * overlaps[best]
            or not res <= _RESIDUAL_BOUND
            or best != np.argmin(np.abs(vals - sigma_guess))):
        # the window, centred on sigma, may cut off a mode that competes
        # with a pick away from sigma: twice as many are compared
        vals, vecs, overlaps = candidates(0.0, 2 * _N_CANDIDATES)
    best = _unambiguous_pick(vals, overlaps)
    val, res = vals[best], _residual(block, vecs[:, best], vals[best])
    if not res <= _RESIDUAL_BOUND:
        raise spla.ArpackNoConvergence(
            f"coherence eigenpair {val:.6g} has residual {res:.3g} of "
            f"||B||_1", vals, vecs)
    return complex(val)


def qubit_shift_dephasing(p: OscillatorParams, q: TransmonParams,
                          n_fock: int | None = None) -> SpectralShift:
    """Qubit frequency shift and induced dephasing from the coherence-sector
    Liouvillian eigenvalue at truncation n_fock (None: the default
    truncation for p), referenced to the pump-off run, as the
    SpectralShift the closed forms return, with no flags.

    The |g><e| coherence evolves at +i delta_q under the bare Hamiltonian, so
    the dressed qubit frequency is Im(eig) and its linewidth is -Re(eig);
    both are reported as pump-on minus pump-off differences.  The pump-off
    eigenvalue is exact, from a 2x2 matrix (see the module docstring).  At
    lam = 0, and at any pump at or below the floor
    lam = 1e-20 max(|delta_a|, kappa) (_PUMP_FLOOR), whose O(lam^2) effect
    is ~1e-40 of the eigenvalue, far below double precision, it is the
    pump-on one too: both differences are 0.0 and no Liouvillian is built,
    but n_fock still has to pass the truncation rules.
    """
    _check_truncation(p, None, n_fock, q.n_levels)
    eig_off = _pump_off_eigenvalue(p, q)
    pumped = p.lam > _PUMP_FLOOR * max(abs(p.delta_a), p.kappa)
    eig_on = _oracle_eigenvalue(p, q, n_fock) if pumped else eig_off
    return SpectralShift(d_omega_q=eig_on.imag - eig_off.imag,
                         d_gamma_phi=-(eig_on.real - eig_off.real))


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
    Hamiltonian in the bare frame at truncation n_fock (None: the default
    truncation for p): the qubit-frequency shift per Bogoliubov
    excitation, chi = (E_e1 - E_e0) - (E_g1 - E_g0).  It refuses what
    build_liouvillian refuses, and delta_a = 0 with frame_of's ValueError.

    Eigenstates are identified by maximal overlap with the squeezed-Fock
    product states.  When, for any of the four, a second eigenstate
    overlaps more than 0.9 times as much (the qubit near a level crossing
    with the oscillator, where the states hybridize), no per-excitation
    reading exists and AmbiguousSector is raised.  This is the Hamiltonian
    (zero-dissipation) sector of the Liouvillian spectrum; with kappa ~ the
    level spacings the dissipative coherence modes hybridize and a
    per-excitation reading is ill-defined.
    """
    n_fock = _check_truncation(p, None, n_fock, q.n_levels)
    frame_of(p)  # the squeezed Fock states need a squeezing frame
    h = _hamiltonian(p, q, None, *_operators(n_fock, q.n_levels)).toarray()
    evals, evecs = np.linalg.eigh(h)
    # squeezed Fock states |0_s>, |1_s>: the lowest eigenvectors of
    # sign(delta_a) H_osc, the ground level's block of H
    h_osc = h[:n_fock, :n_fock]
    sq = np.linalg.eigh(math.copysign(1.0, p.delta_a) * h_osc)[1][:, :2]
    # products |k>|n_s> in the order g0, g1, e0, e1
    targets = np.kron(np.eye(q.n_levels)[:, :2], sq)
    e = [evals[_unambiguous_pick(evals, overlaps)]
         for overlaps in np.abs(evecs.conj().T @ targets).T]
    return float((e[3] - e[2]) - (e[1] - e[0]))
