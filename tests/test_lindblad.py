"""Truncated-Fock Lindblad solver: steady moments, coherence-sector
eigenvalues, and exact-diagonalization dispersive strengths."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from boqsim import lindblad
from boqsim import (
    DriveSpec,
    OscillatorParams,
    TransmonParams,
    TruncationError,
    UnstableDynamics,
    anomalous_moment,
    build_liouvillian,
    chi_exact,
    chi_transmon,
    default_n_fock,
    frame_of,
    qubit_shift_dephasing,
    resonant_driven_shift,
    resonant_steady_state,
    shift_undriven,
    steady_state,
)
from boqsim.core import BogoliubovFrame

P_OP = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=17.0)
Q_OP = TransmonParams(delta_q=-80.0, g=4.9, chi_q=-114.0, gamma_1=5.0,
                      gamma_phi=2.2, n_levels=3)


class TestConfig:
    """The oracle's one truncation setting, n_fock."""

    def test_minimum_truncation(self, monkeypatch):
        def no_hamiltonian(*_args, **_kwargs):
            raise AssertionError("_hamiltonian called past the rules")

        monkeypatch.setattr(lindblad, "_hamiltonian", no_hamiltonian)
        for lam in (0.0, 6.0):
            p = dataclasses.replace(P_OP, lam=lam)
            for run in (build_liouvillian, chi_exact, qubit_shift_dephasing):
                with pytest.raises(TruncationError, match="n_fock"):
                    run(p, Q_OP, n_fock=3)

    def test_default_truncation_is_default_n_fock(self):
        p = dataclasses.replace(P_OP, lam=6.0)
        n_fock = default_n_fock(p)
        assert (qubit_shift_dephasing(p, Q_OP)
                == qubit_shift_dephasing(p, Q_OP, n_fock))
        assert chi_exact(p, Q_OP) == chi_exact(p, Q_OP, n_fock)
        assert build_liouvillian(p, Q_OP).n_fock == n_fock

    @pytest.mark.parametrize("n_levels", [2, 3])
    def test_config_keeps_the_transmon_levels(self, n_levels):
        # n_fock sets the Fock truncation only; the levels are q's
        q = dataclasses.replace(Q_OP, n_levels=n_levels)
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=6.0)
        liou = build_liouvillian(p, q, n_fock=16)
        assert liou.n_transmon == n_levels
        assert liou.sigma_minus_full is not None

    def test_default_n_fock_scales_with_antisqueezing(self):
        mild = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=5.0)
        assert default_n_fock(P_OP) > default_n_fock(mild) >= 16

    def test_default_n_fock_unstable(self):
        with pytest.raises(UnstableDynamics):
            default_n_fock(OscillatorParams(freq_a=0.0, kappa=8.7,
                                            delta_a=0.0, lam=5.0))

    @pytest.mark.parametrize("lam,error", [
        # stable (lambda_crit = 20.468), but lam >= |delta_a| leaves no
        # squeezing frame to size the truncation by
        (20.2, TruncationError),
        (20.5, UnstableDynamics),
    ], ids=["below_lambda_crit", "above_lambda_crit"])
    def test_unsized_truncation_is_unstable_only_past_lambda_crit(
            self, lam, error):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=lam)
        match = "size the truncation" if error is TruncationError else "crit"
        for run in (lambda: default_n_fock(p),
                    lambda: build_liouvillian(p, n_fock=64),
                    lambda: qubit_shift_dephasing(p, Q_OP)):
            with pytest.raises(error, match=match):
                run()


class TestSteadyState:
    def test_resonant_moments_match_closed_forms(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=3.0)
        res = steady_state(build_liouvillian(p), check_convergence=False)
        mom = resonant_steady_state(p)
        assert res.n_mean == pytest.approx(mom.n_mean, rel=1e-9)
        assert res.a_sq == pytest.approx(mom.a_sq, rel=1e-9)
        assert res.trace_residual < 1e-10

    def test_quadrature_variances_match_closed_forms(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=3.0)
        thetas = np.array([0.0, math.pi / 4.0, math.pi / 2.0])
        res = steady_state(build_liouvillian(p), thetas=thetas,
                           check_convergence=False)
        mom = resonant_steady_state(p)
        for i, th in enumerate(thetas):
            assert res.var_x[i] == pytest.approx(mom.var_x(th), rel=1e-9)
            assert res.var_p[i] == pytest.approx(mom.var_p(th), rel=1e-9)

    def test_truncation_convergence_flag(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=3.0)
        res = steady_state(build_liouvillian(p))
        assert res.truncation_converged

    def test_coherent_drive_populates_expected_photon_number(self):
        # pump off: the drive normalization makes <a^dag a> = n_d exactly
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=0.0)
        drive = DriveSpec(n_d=0.7, theta=0.3)
        res = steady_state(build_liouvillian(p, drive=drive,
                                             n_fock=24),
                           check_convergence=False)
        assert res.n_mean == pytest.approx(0.7, rel=1e-9)

    def test_truncation_error_when_occupation_too_high(self):
        hot = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                               lam=0.98 * 8.7 / 2.0)
        with pytest.raises(TruncationError, match="n_fock"):
            build_liouvillian(hot, n_fock=8)

    def test_unstable_dynamics_rejected(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=4.5)
        with pytest.raises(UnstableDynamics):
            build_liouvillian(p, n_fock=16)

    def test_convergence_check_over_budget_refused_before_solving(
            self, monkeypatch):
        # 24^2 unknowns fit a budget of 1000, the 2x check's 48^2 do not
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=2.0)
        liou = build_liouvillian(p, n_fock=24)
        solves = []
        monkeypatch.setattr(lindblad, "_MAX_UNKNOWNS", 1000)
        monkeypatch.setattr(lindblad, "_solve_steady_rho",
                            lambda liou: solves.append(liou))
        with pytest.raises(TruncationError,
                           match="convergence check needs n_fock = 48"):
            steady_state(liou)
        assert solves == []


class TestCoherenceEigenvalue:
    def test_two_level_shift_matches_anomalous_corrected_closed_form(self):
        # moderate pump so the dispersive expansion is well inside validity
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=10.0)
        q = TransmonParams(delta_q=-80.0, g=4.9, gamma_1=5.0, gamma_phi=2.2,
                           n_levels=2)
        frame = frame_of(p)
        chi_r = chi_transmon(q, frame, kappa=8.7)
        frame0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=20.0)
        chi_0 = chi_transmon(q, frame0, kappa=8.7)
        ana = shift_undriven(chi_r, chi_0, frame, 8.7,
                             anomalous=anomalous_moment(p, frame))
        orc = qubit_shift_dephasing(p, q)
        assert orc.d_omega_q == pytest.approx(ana.d_omega_q, rel=0.10)

    def test_pump_off_eigenvalue_sits_at_bare_coherence(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=6.0)
        q = TransmonParams(delta_q=-80.0, g=4.9, gamma_1=5.0, gamma_phi=2.2,
                           n_levels=2)
        orc = qubit_shift_dephasing(p, q, n_fock=24)
        # pump-off coherence rotates near delta_q (dispersively shifted by
        # the vacuum chi/2-scale terms, small against delta_q)
        assert orc.eig_off.imag == pytest.approx(q.delta_q, rel=0.02)
        assert -orc.eig_off.real == pytest.approx(q.gamma_t / 2.0, rel=0.15)

    def test_shift_error_is_second_order_in_weak_rates(self):
        # g, kappa, gamma_1 and gamma_phi scaled together by s = 1, 1/2, 1/4
        # at the headline point shrink every small parameter of the
        # dispersive expansion (Blais et al., RMP 93, 025005 (2021)) with s:
        # d_omega's errors 7.7e-2, 1.6e-2 and 3.7e-3 are orders 2.28 and
        # 2.08.  d_gamma's errors (9.7e-2, 4.4e-2, 2.7e-3) fall irregularly,
        # so its order is not asserted
        frame = frame_of(P_OP)
        frame0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=P_OP.delta_a)
        errors = []
        for s in (1.0, 0.5, 0.25):
            p = dataclasses.replace(P_OP, kappa=s * P_OP.kappa)
            q = dataclasses.replace(Q_OP, g=s * Q_OP.g,
                                    gamma_1=s * Q_OP.gamma_1,
                                    gamma_phi=s * Q_OP.gamma_phi)
            chi_r = chi_transmon(q, frame, kappa=p.kappa)
            chi_0 = chi_transmon(q, frame0, kappa=p.kappa)
            ana = shift_undriven(chi_r, chi_0, frame, p.kappa,
                                 anomalous=anomalous_moment(p, frame))
            orc = qubit_shift_dephasing(p, q)
            errors.append(abs(orc.d_omega_q / ana.d_omega_q - 1.0))
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
        assert min(orders) >= 1.8, (errors, orders)


class TestResonantBranch:
    def test_shift_error_past_its_rate_floor_is_second_order_in_g(self):
        # resonant pump (delta_a = 0) at the CLI's default qubit (delta_q =
        # -100, 3 levels), lam / lam_c = 0.05, 0.2, 0.4, n_fock = 24.  The
        # d_omega error of resonant_driven_shift is a g-independent floor
        # of 1.1e-3 to 1.2e-3, set by kappa and the qubit rates against
        # delta_q, plus a part second order in g: at lam / lam_c = 0.05 the
        # errors at g = 4.9, 2.45, 1.225, 0.6125 are -7.8e-3, -2.3e-4,
        # +8.6e-4 and +1.08e-3, so their successive differences fall with
        # orders 2.79 and 2.30
        kappa = 8.7
        p0 = OscillatorParams(freq_a=6940.0, kappa=kappa, delta_a=0.0,
                              lam=0.0)
        q0 = TransmonParams(delta_q=-100.0, g=4.9, chi_q=-114.0,
                            gamma_1=5.0, gamma_phi=2.2, n_levels=3)
        frame0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=0.0)
        for ratio in (0.05, 0.2, 0.4):
            p = dataclasses.replace(p0, lam=ratio * kappa / 2.0)
            errors = []
            for g in (4.9, 2.45, 1.225, 0.6125):
                q = dataclasses.replace(q0, g=g)
                chi0 = chi_transmon(q, frame0, kappa=kappa).chi
                ana = resonant_driven_shift(p, chi0, DriveSpec())
                orc = qubit_shift_dephasing(p, q, n_fock=24)
                errors.append(orc.d_omega_q / ana.d_omega_q - 1.0)
            steps = np.abs(np.diff(errors))
            orders = np.log2(steps[:-1] / steps[1:])
            assert min(orders) >= 1.8, (ratio, errors, orders)
            assert abs(errors[-1]) < 2e-3, (ratio, errors)


class TestChiExact:
    def test_three_level_matches_transmon_closed_form(self):
        exact = chi_exact(P_OP, Q_OP)
        analytic = chi_transmon(Q_OP, frame_of(P_OP), kappa=8.7).chi
        assert exact == pytest.approx(analytic, rel=0.05)

    def test_two_level_matches_qubit_closed_form(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=10.0)
        q = TransmonParams(delta_q=-80.0, g=4.9, n_levels=2)
        exact = chi_exact(p, q)
        analytic = chi_transmon(q, frame_of(p)).chi
        assert exact == pytest.approx(analytic, rel=0.05)

    def test_error_is_second_order_in_g(self):
        # the dispersive expansion is second order in g (Blais et al.,
        # RMP 93, 025005 (2021)): halving g quarters the error
        errors = []
        for g in (4.9, 2.45, 1.225, 0.6125):
            q = dataclasses.replace(Q_OP, g=g)
            analytic = chi_transmon(q, frame_of(P_OP), kappa=8.7).chi
            errors.append(abs(chi_exact(P_OP, q) / analytic - 1.0))
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
        assert min(orders) >= 1.8, (errors, orders)

    def test_fourth_level_moves_chi_below_one_percent(self):
        # the level count is TransmonParams.n_levels, with no cap: a fourth
        # level moves chi by 0.19% here (0.43% at lam = 19.02)
        three = chi_exact(P_OP, Q_OP, n_fock=32)
        four = chi_exact(P_OP, dataclasses.replace(Q_OP, n_levels=4),
                         n_fock=32)
        assert four == pytest.approx(three, rel=0.01)

    def test_requires_detuned_regime(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=1.0)
        with pytest.raises(ValueError, match="detuned"):
            chi_exact(p, Q_OP, 16)

    @pytest.mark.parametrize("lam,n_fock,match", [
        # 1.12 estimated photons against n_fock/4 = 1
        (19.02, 4, "occupation"),
        # (3 * 250)^2 > 2^19 unknowns
        (17.0, 250, "unknowns"),
    ], ids=["occupation", "unknowns"])
    def test_truncation_rules_apply_before_allocating(self, monkeypatch, lam,
                                                      n_fock, match):
        def no_hamiltonian(*_args, **_kwargs):
            raise AssertionError("_hamiltonian called past the rules")

        monkeypatch.setattr(lindblad, "_hamiltonian", no_hamiltonian)
        with pytest.raises(TruncationError, match=match):
            chi_exact(dataclasses.replace(P_OP, lam=lam), Q_OP, n_fock)


def _vec_parities(liou):
    """Excitation parity of every vec(rho) index: basis state k * n_fock + n
    has parity (k + n) mod 2, and rho[i, j] sits at vec index i + j * dim."""
    basis = np.arange(liou.dim)
    par = (basis // liou.n_fock + basis % liou.n_fock) % 2
    return np.array([par[i] ^ par[j] for j in range(liou.dim)
                     for i in range(liou.dim)])


def _cross_blocks(liou):
    vec_par = _vec_parities(liou)
    even = np.flatnonzero(vec_par == 0)
    odd = np.flatnonzero(vec_par == 1)
    return liou.matrix[even][:, odd], liou.matrix[odd][:, even]


def _full_space_system(liou):
    """The whole Liouvillian with its first row replaced by the unit-trace
    condition, and the matching right-hand side."""
    dim = liou.dim
    mat = liou.matrix.tolil(copy=True)
    trace_row = np.zeros(dim * dim)
    trace_row[np.arange(dim) * (dim + 1)] = 1.0
    mat[0, :] = trace_row
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    return mat.tocsc(), rhs


def _full_space_rho(liou):
    """Steady state from the whole Liouvillian, solved with scipy's default
    sparse LU."""
    dim = liou.dim
    rho = spla.spsolve(*_full_space_system(liou)).reshape((dim, dim),
                                                          order="F")
    return 0.5 * (rho + rho.conj().T)


def _sigma_guess(p, q):
    return 1j * q.delta_q - 0.5 * q.gamma_t - 0.25 * p.kappa


@st.composite
def undriven_systems(draw, levels=(1, 2, 3)):
    """Stable, undriven (p, q, n_fock) in the dispersive regime,
    n_fock <= 10."""
    n_levels = draw(st.sampled_from(levels))
    delta_a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(5.0, 40.0))
    p = OscillatorParams(freq_a=0.0, kappa=draw(st.floats(2.0, 12.0)),
                         delta_a=delta_a,
                         lam=draw(st.floats(0.0, 0.8)) * abs(delta_a))
    q = None
    if n_levels > 1:
        q = TransmonParams(delta_q=delta_a + draw(st.floats(-120.0, -60.0)),
                           g=draw(st.floats(1.0, 6.0)),
                           chi_q=draw(st.floats(-150.0, -80.0)),
                           gamma_1=draw(st.floats(0.5, 6.0)),
                           gamma_phi=draw(st.floats(0.0, 3.0)),
                           n_levels=n_levels)
    return p, q, draw(st.integers(6, 10))


@st.composite
def systems(draw, levels=(1, 2, 3)):
    """An undriven system from undriven_systems, or the same with a coherent
    drive (which breaks the parity symmetry): (p, q, drive, n_fock)."""
    p, q, n_fock = draw(undriven_systems(levels))
    drive = draw(st.none() | st.builds(
        DriveSpec, n_d=st.floats(0.05, 0.5),
        theta=st.floats(0.0, 2.0 * math.pi)))
    return p, q, drive, n_fock


def _unless_ambiguous(run):
    """run(), or None when it raises AmbiguousSector."""
    try:
        return run()
    except lindblad.AmbiguousSector:
        return None


def _overlaps(vecs, target):
    return np.abs(vecs.conj().T @ target) / np.linalg.norm(vecs, axis=0)


def _target_eigenvalue(vals, vecs, target):
    """The eigenvalue whose mode overlaps the target most."""
    return vals[np.argmax(_overlaps(vecs, target))]


def _oscillator_target(p, liou):
    """The oracle's eigensolve target: |g><g| tensored with the
    oscillator-only steady state at the same n_fock."""
    osc = build_liouvillian(p, n_fock=liou.n_fock)
    ground = np.diag(np.eye(liou.n_transmon)[0])
    return np.kron(ground, lindblad._solve_steady_rho(osc))


class _CountingLU:
    """A factorization that counts its back-solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def _counted_pick(liou, rho_target, sigma):
    """_coherence_eigenvalue's pick (None when AmbiguousSector) and its
    shift-invert factorization, wrapped in a _CountingLU."""
    made = []
    real = lindblad._factorize

    def counting(mat):
        made.append(_CountingLU(real(mat)))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "_factorize", counting)
        pick = _unless_ambiguous(lambda: lindblad._coherence_eigenvalue(
            liou, rho_target, sigma))
    (lu,) = made
    return pick, lu


def _tol_zero_pick(liou, rho_target, sigma, lu):
    """The pick among 10 candidates from eigs at scipy's default tol = 0
    (every candidate to machine precision) on the same odd block and
    factorization lu, retry included; None when the runner-up overlaps
    within AmbiguousSector's 0.9 ratio.  The 10 and the 0.9 are fixed here,
    so that a weaker ambiguity check in the oracle shows."""
    sec = lindblad._parity_sector(liou, 1)
    block = liou.matrix[sec][:, sec]
    target = (rho_target @ liou.sigma_minus_full).reshape(-1, order="F")[sec]
    target = target / np.linalg.norm(target)
    n = block.shape[0]
    opts = dict(k=10, sigma=sigma, v0=target,
                OPinv=spla.LinearOperator((n, n), matvec=lu.solve,
                                          dtype=complex))
    try:
        vals, vecs = spla.eigs(block, **opts)
    except spla.ArpackError:
        vals, vecs = spla.eigs(block, ncv=min(n, lindblad._RETRY_NCV), **opts)
    runner_up, best = np.sort(_overlaps(vecs, target))[-2:]
    if runner_up > 0.9 * best:
        return None
    return _target_eigenvalue(vals, vecs, target)


class TestParitySectors:
    @settings(max_examples=25, deadline=None)
    @given(undriven_systems())
    def test_cross_parity_blocks_are_empty(self, system):
        liou = build_liouvillian(*system[:2], n_fock=system[2])
        assert all(block.nnz == 0 for block in _cross_blocks(liou))
        vec_par = _vec_parities(liou)
        for parity in (0, 1):
            assert np.array_equal(lindblad._parity_sector(liou, parity),
                                  np.flatnonzero(vec_par == parity))

    @settings(max_examples=25, deadline=None)
    @given(undriven_systems())
    def test_sector_steady_state_matches_full_space(self, system):
        liou = build_liouvillian(*system[:2], n_fock=system[2])
        rho = lindblad._solve_steady_rho(liou)
        assert np.max(np.abs(rho - _full_space_rho(liou))) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(undriven_systems(levels=(2, 3)))
    # a tiny nonzero lam that stalls ARPACK at its default Krylov size
    @example((OscillatorParams(freq_a=0.0, kappa=3.0, delta_a=-5.0,
                               lam=5.398959531054032e-220),
              TransmonParams(delta_q=-65.0, g=2.0, chi_q=-80.0, gamma_1=1.0,
                             gamma_phi=0.0, n_levels=2), 6))
    # qubit at the Bogoliubov idler sideband (Omega_a = 28.1): the sector
    # refuses, and the full-space runner-up overlap is 0.930 of its best
    @example((OscillatorParams(freq_a=0.0, kappa=2.0, delta_a=32.5,
                               lam=16.25),
              TransmonParams(delta_q=-29.5, g=3.0, chi_q=-80.0, gamma_1=2.0,
                             gamma_phi=0.0, n_levels=2), 6))
    def test_sector_coherence_eigenvalue_matches_full_space(self, system):
        p, q, n_fock = system
        liou = build_liouvillian(p, q, n_fock=n_fock)
        rho = lindblad._solve_steady_rho(liou)
        sector = _unless_ambiguous(lambda: lindblad._coherence_eigenvalue(
            liou, rho, _sigma_guess(p, q)))
        target = (rho @ liou.sigma_minus_full).reshape(-1, order="F")
        vals, vecs = spla.eigs(liou.matrix, k=10, sigma=_sigma_guess(p, q),
                               v0=target, ncv=lindblad._RETRY_NCV)
        if sector is None:
            # a refusal stands only where the full space is ambiguous too
            runner_up, best = np.sort(_overlaps(vecs, target))[-2:]
            assert runner_up > 0.9 * best
        else:
            full = _target_eigenvalue(vals, vecs, target)
            assert abs(sector - full) <= 1e-10 * max(1.0, abs(full))

    def test_drive_breaks_parity_and_uses_full_space(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=6.0)
        liou = build_liouvillian(p, Q_OP, DriveSpec(n_d=0.3, theta=0.3), 8)
        assert all(block.nnz > 0 for block in _cross_blocks(liou))
        every = np.arange(liou.dim ** 2)
        for parity in (0, 1):
            assert np.array_equal(lindblad._parity_sector(liou, parity),
                                  every)
        rho = lindblad._solve_steady_rho(liou)
        assert np.max(np.abs(rho - _full_space_rho(liou))) <= 1e-10


class TestPumpOffReference:
    """The pump-off reference is an eigenvalue of a 2x2 block, exact at any
    truncation and level count."""

    N_FOCK = 10

    @staticmethod
    def params(lam):
        return OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=lam)

    @pytest.fixture
    def builds(self, monkeypatch):
        """(lam, n_fock, transmon levels) of every Liouvillian built."""
        calls = []
        real = lindblad.build_liouvillian

        def counting(p, q=None, drive=None, n_fock=None):
            calls.append((p.lam, n_fock, 1 if q is None else q.n_levels))
            return real(p, q, drive, n_fock)

        monkeypatch.setattr(lindblad, "build_liouvillian", counting)
        return calls

    def test_zero_pump_is_exactly_zero(self, builds):
        orc = qubit_shift_dephasing(self.params(0.0), Q_OP, self.N_FOCK)
        assert orc.d_omega_q == 0.0
        assert orc.d_gamma_phi == 0.0
        assert builds == []

    def test_sweep_builds_one_pair_per_pumped_call(self, builds):
        for lam in (0.0, 4.0, 8.0):
            qubit_shift_dephasing(self.params(lam), Q_OP, self.N_FOCK)
        # each joint build comes with the oscillator-only one of its target
        assert builds == [(4.0, 10, 3), (4.0, 10, 1),
                          (8.0, 10, 3), (8.0, 10, 1)]

    @settings(max_examples=20, deadline=None)
    @given(undriven_systems(levels=(2, 3, 4, 5, 6)), st.integers(4, 16))
    def test_reference_matches_pump_off_at_any_truncation(self, system,
                                                          n_fock):
        p, q, system_n_fock = system
        p_off = OscillatorParams(freq_a=0.0, kappa=p.kappa,
                                 delta_a=p.delta_a, lam=0.0)
        ref = _unless_ambiguous(
            lambda: qubit_shift_dephasing(p_off, q, system_n_fock).eig_off)
        drawn = _unless_ambiguous(lambda: lindblad._oracle_eigenvalue(
            p_off, q, n_fock))
        assert (ref is None) == (drawn is None)
        if ref is not None:
            assert abs(ref - drawn) <= 1e-12 * abs(drawn)

    def test_pump_off_eigenvalue_is_bitwise_reproducible(self):
        vals = {qubit_shift_dephasing(self.params(0.0), Q_OP,
                                      self.N_FOCK).eig_off
                for _ in range(12)}
        assert len(vals) == 1

    @pytest.mark.parametrize("n_levels", [5, 6])
    def test_reference_is_bitwise_reproducible_at_many_levels(self,
                                                               n_levels):
        q = dataclasses.replace(Q_OP, n_levels=n_levels)
        vals = {qubit_shift_dephasing(self.params(0.0), q, 16).eig_off
                for _ in range(5)}
        assert len(vals) == 1

    def test_out_of_block_mode_has_no_spectral_weight(self):
        # qubit near resonance with the oscillator: in the n_fock = 4 odd
        # block a mode outside the pump-off block has right-eigenvector
        # overlap 0.896 against the pick's 0.897, past the 0.9 ratio, but
        # the target, which lies in the block, has no component along it
        p = OscillatorParams(freq_a=0.0, kappa=2.1163, delta_a=18.2117,
                             lam=0.0)
        q = TransmonParams(delta_q=18.25, g=1.6318, chi_q=-149.64,
                           gamma_1=4.8793, gamma_phi=2.732, n_levels=3)
        # the pump-off block on (|g0><e0|, |g0><g1|)
        m_vals, m_vecs = np.linalg.eig(np.array(
            [[1j * q.delta_q - q.gamma_1 / 2.0 - q.gamma_phi, 1j * q.g],
             [1j * q.g, 1j * p.delta_a - p.kappa / 2.0]]))
        eig_off = qubit_shift_dephasing(p, q, self.N_FOCK).eig_off
        assert eig_off == m_vals[np.argmax(np.abs(m_vecs[0]))]
        liou = build_liouvillian(p, q, n_fock=4)
        sec = lindblad._parity_sector(liou, 1)
        target = (_oscillator_target(p, liou)
                  @ liou.sigma_minus_full).reshape(-1, order="F")[sec]
        vals, left, right = scipy.linalg.eig(
            liou.matrix[sec][:, sec].toarray(), left=True)
        near = np.argsort(np.abs(vals - _sigma_guess(p, q)))[:10]
        vals, left, right = vals[near], left[:, near], right[:, near]
        pick = np.argmin(np.abs(vals - eig_off))
        assert abs(vals[pick] - eig_off) <= 1e-12 * abs(eig_off)
        runner_up, best = np.sort(_overlaps(right, target))[-2:]
        assert runner_up > 0.9 * best
        # |P_j t| = |w_j^H t| / |w_j^H v_j| ||v_j||, the target's spectral
        # projection onto mode j; M's other mode shares the block
        proj = (np.abs(left.conj().T @ target)
                / np.abs(np.sum(left.conj() * right, axis=0))
                * np.linalg.norm(right, axis=0))
        in_block = np.min(np.abs(vals[:, None] - m_vals), axis=1) <= (
            1e-12 * np.abs(vals))
        assert np.count_nonzero(in_block) == 2
        # zero up to round-off: the nearest outside mode is 0.053 away
        # and its projection measures 8e-12 of the pick's
        assert np.all(proj[~in_block] <= 1e-10 * proj[pick])

    @pytest.mark.parametrize("lam", [6.0, 17.0])
    @pytest.mark.parametrize("n_fock", [4, 5])
    def test_arpack_matches_dense_eig_on_small_blocks(self, lam, n_fock):
        # the smallest blocks the CLI accepts: 72 and 112 odd unknowns at
        # three levels; np.linalg.eig is the reference
        p = self.params(lam)
        liou = build_liouvillian(p, Q_OP, n_fock=n_fock)
        rho = _oscillator_target(p, liou)
        sigma = _sigma_guess(p, Q_OP)
        got = lindblad._coherence_eigenvalue(liou, rho, sigma)
        sec = lindblad._parity_sector(liou, 1)
        target = (rho @ liou.sigma_minus_full).reshape(-1, order="F")[sec]
        vals, vecs = np.linalg.eig(liou.matrix[sec][:, sec].toarray())
        near = np.argsort(np.abs(vals - sigma))[:10]
        ref = _target_eigenvalue(vals[near], vecs[:, near], target)
        assert abs(got - ref) <= 1e-10 * abs(ref)


class TestOscillatorTarget:
    """The oracle's eigensolve target, |g><g| tensored with the
    oscillator-only steady state, picks the eigenvalue the joint steady
    state picks."""

    @settings(max_examples=25, deadline=None)
    @given(undriven_systems(levels=(2, 3)))
    # qubit resonant with the oscillator: two modes overlap either target
    # comparably, and both picks raise AmbiguousSector
    @example((OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=6.0),
              TransmonParams(delta_q=20.0, g=4.9, chi_q=-114.0, gamma_1=5.0,
                             gamma_phi=2.2, n_levels=3), 10))
    def test_picks_the_joint_steady_state_eigenvalue(self, system):
        p, q, n_fock = system
        liou = build_liouvillian(p, q, n_fock=n_fock)
        joint = _unless_ambiguous(lambda: lindblad._coherence_eigenvalue(
            liou, lindblad._solve_steady_rho(liou), _sigma_guess(p, q)))
        oracle = _unless_ambiguous(
            lambda: lindblad._oracle_eigenvalue(p, q, n_fock))
        assert (joint is None) == (oracle is None)
        if joint is not None:
            assert abs(oracle - joint) <= 1e-10 * abs(joint)

    def test_picks_the_joint_eigenvalue_at_oracle_shift_point(self):
        # the benchmark's qubit_response --oracle point at its top pump
        # amplitude, n_fock = 32: the strongest squeezing the oracle runs at
        # this scale, where the two targets' overlaps differ most
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=19.02)
        liou = build_liouvillian(p, Q_OP, n_fock=32)
        joint = lindblad._coherence_eigenvalue(
            liou, lindblad._solve_steady_rho(liou), _sigma_guess(p, Q_OP))
        oracle = lindblad._oracle_eigenvalue(p, Q_OP, 32)
        assert abs(oracle - joint) <= 1e-10 * abs(joint)


class TestArpackTolerance:
    """ARPACK stops at _ARPACK_TOL, not at machine precision; the picked
    eigenpair is certified by the residual check alone."""

    @settings(max_examples=25, deadline=None)
    @given(undriven_systems(levels=(2, 3)))
    # qubit resonant with the oscillator: AmbiguousSector fires either way
    @example((OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=6.0),
              TransmonParams(delta_q=20.0, g=4.9, chi_q=-114.0, gamma_1=5.0,
                             gamma_phi=2.2, n_levels=3), 10))
    def test_pick_matches_machine_precision_eigs(self, system):
        p, q, n_fock = system
        liou = build_liouvillian(p, q, n_fock=n_fock)
        rho = _oscillator_target(p, liou)
        pick, lu = _counted_pick(liou, rho, _sigma_guess(p, q))
        ref = _tol_zero_pick(liou, rho, _sigma_guess(p, q), lu)
        assert (pick is None) == (ref is None)
        if ref is not None:
            assert abs(pick - ref) <= 1e-12 * abs(ref)

    def test_fewer_back_solves_at_oracle_shift_point(self):
        # the benchmark's n_fock = 32, lam = 19.02 point: 64 back-solves,
        # against 107 when every candidate is converged to machine precision
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=19.02)
        liou = build_liouvillian(p, Q_OP, n_fock=32)
        rho = _oscillator_target(p, liou)
        pick, lu = _counted_pick(liou, rho, _sigma_guess(p, Q_OP))
        solves = lu.solves
        ref = _tol_zero_pick(liou, rho, _sigma_guess(p, Q_OP), lu)
        assert abs(pick - ref) <= 1e-12 * abs(ref)
        assert solves <= 0.75 * (lu.solves - solves)


def _dense_moments(rho, a_full, thetas):
    """The moments as one dense product per operator and angle: the
    reference for lindblad._moments."""
    ad = a_full.conj().T
    n_mean = float(np.real(np.trace(rho @ (ad @ a_full))))
    a_sq = complex(np.trace(rho @ (a_full @ a_full)))
    var_x = np.empty(len(thetas))
    var_p = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        x = 0.5 * (a_full * np.exp(-1j * th) + ad * np.exp(1j * th))
        pq = (a_full * np.exp(-1j * th) - ad * np.exp(1j * th)) / 2j
        var_x[i] = float(np.real(np.trace(rho @ (x @ x))))
        var_p[i] = float(np.real(np.trace(rho @ (pq @ pq))))
    return n_mean, a_sq, var_x, var_p


class TestFactorizedSolve:
    """The fill-reducing LU (lindblad._factorize) against scipy's defaults."""

    @settings(max_examples=25, deadline=None)
    @given(systems())
    def test_solve_matches_default_spsolve(self, system):
        mat, rhs = _full_space_system(build_liouvillian(*system))
        ref = spla.spsolve(mat, rhs)
        got = lindblad._factorize(mat).solve(rhs)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=15, deadline=None)
    @given(systems(levels=(2, 3)))
    # qubit at the Bogoliubov sideband (omega_B = 27.5): the oracle's
    # overlaps are 0.752 against 0.713, and the reference's runner-up
    # overlap is 0.949 of its best, so both refuse
    @example((OscillatorParams(freq_a=0.0, kappa=2.0, delta_a=33.75,
                               lam=19.51),
              TransmonParams(delta_q=-27.25, g=2.0, chi_q=-80.0, gamma_1=1.0,
                             gamma_phi=1.0, n_levels=2), None, 8))
    def test_eigenvalue_matches_default_eigs(self, system):
        p, q, drive, n_fock = system
        liou = build_liouvillian(p, q, drive, n_fock)
        rho = lindblad._solve_steady_rho(liou)
        got = _unless_ambiguous(lambda: lindblad._coherence_eigenvalue(
            liou, rho, _sigma_guess(p, q)))
        sec = lindblad._parity_sector(liou, 1)
        block = liou.matrix[sec][:, sec]
        target = (rho @ liou.sigma_minus_full).reshape(-1, order="F")[sec]
        vals, vecs = spla.eigs(block, k=10, sigma=_sigma_guess(p, q),
                               v0=target, ncv=lindblad._RETRY_NCV)
        if got is None:
            # a refusal stands only where the reference refuses as well
            runner_up, best = np.sort(_overlaps(vecs, target))[-2:]
            assert runner_up > 0.9 * best
        else:
            ref = _target_eigenvalue(vals, vecs, target)
            assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_fill_at_oracle_shift_point(self):
        # the benchmark's qubit_response --oracle point: delta_a = 20, its
        # top pump amplitude, n_fock = 32, three levels (4608 odd unknowns)
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=19.02)
        liou = build_liouvillian(p, Q_OP, n_fock=32)
        sec = lindblad._parity_sector(liou, 1)
        shifted = (liou.matrix[sec][:, sec]
                   - _sigma_guess(p, Q_OP) * sp.identity(len(sec))).tocsc()
        colamd = spla.splu(shifted)
        ordered = lindblad._factorize(shifted)
        fill = ordered.L.nnz + ordered.U.nnz
        assert fill <= 0.6 * (colamd.L.nnz + colamd.U.nnz)

    def test_wrong_eigenpair_is_rejected(self, monkeypatch):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=6.0)
        liou = build_liouvillian(p, Q_OP, n_fock=8)
        rho = lindblad._solve_steady_rho(liou)
        sigma = _sigma_guess(p, Q_OP)
        mu = lindblad._coherence_eigenvalue(liou, rho, sigma)
        sec = lindblad._parity_sector(liou, 1)
        real = spla.eigs
        # a gross error, and one of 1e-11 |mu| (~8e-10, the residual it
        # leaves): the current bound 1e-13 ||B||_1 (~4.7e-11) rejects it,
        # where the former 1e-10 ||B||_1 (~4.7e-8) let it through
        for error in (1e-3, 1e-11 * abs(mu)):
            def shifted(*args, error=error, **kwargs):
                vals, vecs = real(*args, **kwargs)
                return vals + error, vecs

            monkeypatch.setattr(spla, "eigs", shifted)
            with pytest.raises(spla.ArpackNoConvergence, match="residual"):
                lindblad._coherence_eigenvalue(liou, rho, sigma)
        assert error < 1e-10 * spla.norm(liou.matrix[sec][:, sec], 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 12),
           st.integers(1, 3))
    def test_moments_match_dense_products(self, seed, n_fock, n_transmon):
        rng = np.random.default_rng(seed)
        dim = n_fock * n_transmon
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        a_full = np.kron(np.eye(n_transmon), lindblad.destroy(n_fock))
        thetas = rng.uniform(0.0, math.pi, size=5)
        got = lindblad._moments(rho, a_full, thetas)
        ref = _dense_moments(rho, a_full, thetas)
        for g_val, r_val in zip(got, ref):
            assert np.max(np.abs(np.asarray(g_val) - r_val)) <= (
                1e-13 * max(1.0, np.max(np.abs(r_val))))


class TestUnknownsBudget:
    @pytest.mark.parametrize("p,q,n_fock", [
        # default_n_fock sizes the resonant lam = 0.99 kappa/2 case at
        # n_fock = 1457: 2.1M unknowns
        (OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                          lam=0.99 * 8.7 / 2.0), None, None),
        # the transmon levels count: (3 * 242)^2 > 2^19 >= 242^2
        (P_OP, Q_OP, 242),
    ], ids=["resonant_near_critical", "three_levels"])
    def test_over_budget_raises_before_allocating(self, monkeypatch, p, q,
                                                  n_fock):
        def no_hamiltonian(*_args, **_kwargs):
            raise AssertionError("_hamiltonian called over the budget")

        monkeypatch.setattr(lindblad, "_hamiltonian", no_hamiltonian)
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError, match="unknowns"):
                build_liouvillian(p, q, n_fock=n_fock)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_benchmark_largest_liouvillian_fits(self):
        # oracle_compare's 2x truncation check at lam = 0.9 kappa/2
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                             lam=0.9 * 8.7 / 2.0)
        assert (2 * default_n_fock(p)) ** 2 == 92416 <= lindblad._MAX_UNKNOWNS
