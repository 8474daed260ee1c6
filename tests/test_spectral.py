"""Qubit spectral observables and oscillator steady moments.

Closed-form moments are cross-checked against the truncated-Fock Lindblad
solver, which works in the bare basis and shares no algebra with them.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boqsim import (
    DispersiveResult,
    DriveSpec,
    OscillatorParams,
    TransmonParams,
    anomalous_moment,
    bo_occupation,
    bogoliubov_moments,
    build_liouvillian,
    chi_transmon,
    dephasing_from_correlation,
    frame_of,
    number_correlation,
    resonant_driven_shift,
    resonant_steady_state,
    shift_driven,
    shift_undriven,
    steady_moments,
    steady_state,
)
from boqsim.core import BogoliubovFrame
from boqsim.spectral import coalescence_flags

P_DETUNED = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=10.0)


def dispersive_result(chi: float, delta_q_2: float | None = None,
                      chi_anomalous: float = 0.0) -> DispersiveResult:
    """A dispersive result holding only what shift_undriven reads; its
    delta_q^(2) is the two-level chi/2 unless given."""
    return DispersiveResult(
        chi=chi, delta_big=math.nan, sigma_big=math.nan,
        chi_anomalous=chi_anomalous, eta=0.0,
        delta_q_2=0.5 * chi if delta_q_2 is None else delta_q_2)


class TestSteadyMoments:
    def test_against_lindblad_oracle_detuned(self):
        liou = build_liouvillian(P_DETUNED)
        res = steady_state(liou, check_convergence=False)
        n, a_sq = steady_moments(P_DETUNED)
        assert n == pytest.approx(res.n_mean, rel=1e-9)
        assert a_sq == pytest.approx(res.a_sq, rel=1e-9)

    def test_consistent_with_resonant_closed_forms(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=3.0)
        n, a_sq = steady_moments(p)
        mom = resonant_steady_state(p)
        assert n == pytest.approx(mom.n_mean, rel=1e-12)
        assert a_sq == pytest.approx(mom.a_sq, rel=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="unstable"):
            steady_moments(OscillatorParams(freq_a=0.0, kappa=8.7,
                                            delta_a=0.0, lam=4.4))

    def test_zero_pump_is_vacuum(self):
        n, a_sq = steady_moments(OscillatorParams(freq_a=0.0, kappa=8.7,
                                                  delta_a=20.0, lam=0.0))
        assert n == 0.0
        assert a_sq == 0.0


class TestResonantSteadyState:
    def test_antisqueezing_amplitude(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=3.0)
        mom = resonant_steady_state(p)
        assert mom.s_inf == pytest.approx((8.7 / 2.0) / (8.7 / 2.0 - 3.0))

    def test_quadrature_variances_at_principal_phase(self):
        # at theta = pi/4 the variances are (kappa/2)/(4 (kappa/2 -+ lam))
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=3.0)
        mom = resonant_steady_state(p)
        k2 = 8.7 / 2.0
        assert mom.var_x(math.pi / 4.0) == pytest.approx(mom.s_inf / 4.0)
        assert mom.var_p(math.pi / 4.0) == pytest.approx(
            k2 / (4.0 * (k2 + 3.0)))

    @settings(max_examples=200, deadline=None)
    @given(kappa=st.floats(0.1, 100.0), ratio=st.floats(0.0, 0.99),
           theta=st.floats(-math.pi, math.pi))
    def test_quadrature_variances_match_closed_forms(self, kappa, ratio,
                                                     theta):
        # <X_theta^2>, <P_theta^2> = (kappa^2/4 +- lam (kappa/2) sin 2theta)
        # / (4 (kappa^2/4 - lam^2)); ratio <= 0.99 keeps the round-off of
        # either form's cancellation near lam = kappa/2 below 1e-12
        lam = ratio * kappa / 2.0
        mom = resonant_steady_state(OscillatorParams(
            freq_a=0.0, kappa=kappa, delta_a=0.0, lam=lam))
        k2 = kappa * kappa / 4.0
        swing = lam * (kappa / 2.0) * math.sin(2.0 * theta)
        assert mom.var_x(theta) == pytest.approx(
            (k2 + swing) / (4.0 * (k2 - lam * lam)), rel=1e-12)
        assert mom.var_p(theta) == pytest.approx(
            (k2 - swing) / (4.0 * (k2 - lam * lam)), rel=1e-12)

    def test_requires_resonant_pump(self):
        with pytest.raises(ValueError):
            resonant_steady_state(P_DETUNED)


class TestBogoliubovMoments:
    def test_occupation_formula(self):
        frame = frame_of(P_DETUNED)
        occ = bo_occupation(frame, DriveSpec(n_d=0.4))
        assert occ == pytest.approx(0.4 * frame.cosh2 + frame.sinh2)

    def test_occupation_flags_near_coalescence(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=19.5)
        assert "near_coalescence" in coalescence_flags(frame_of(p), 8.7)

    def test_oracle_bogoliubov_occupation_is_sinh_squared(self):
        # dissipation in the bare basis leaves <alpha^dag alpha> = sinh^2 r
        # on either side of the pump; the transform's sign follows delta_a
        for delta_a in (20.0, -20.0):
            p = dataclasses.replace(P_DETUNED, delta_a=delta_a)
            frame = frame_of(p)
            res = steady_state(build_liouvillian(p), check_convergence=False)
            occupation, _ = bogoliubov_moments(res.n_mean, res.a_sq, frame)
            assert occupation == pytest.approx(frame.sinh2, rel=1e-9,
                                               abs=1e-12)

    def test_anomalous_moment_matches_oracle_transform(self):
        # <alpha^2 + alpha^dag^2> rebuilt from the oracle's bare moments
        frame = frame_of(P_DETUNED)
        liou = build_liouvillian(P_DETUNED)
        res = steady_state(liou, check_convergence=False)
        ch, sh = math.cosh(frame.r), math.sinh(frame.r)
        alpha_sq = (ch * ch * res.a_sq + sh * sh * res.a_sq.conjugate()
                    - ch * sh * (2.0 * res.n_mean + 1.0))
        assert anomalous_moment(P_DETUNED, frame) == pytest.approx(
            2.0 * alpha_sq.real, rel=1e-9)

    def test_anomalous_moment_shrinks_deep_in_detuning(self):
        deep = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=400.0,
                                lam=200.0)
        assert abs(anomalous_moment(deep, frame_of(deep))) < abs(
            anomalous_moment(P_DETUNED, frame_of(P_DETUNED)))


class TestShifts:
    def test_undriven_parts_sum(self):
        frame = frame_of(P_DETUNED)
        res = shift_undriven(dispersive_result(-0.5), dispersive_result(-0.25),
                             frame, 8.7)
        assert sum(res.parts.values()) == pytest.approx(res.d_omega_q)

    def test_undriven_two_level_form(self):
        # two levels: delta_q^(2) = chi/2, so the Lamb term is half the
        # difference of the two chi
        frame = frame_of(P_DETUNED)
        frame0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=20.0)
        q = TransmonParams(delta_q=-80.0, g=4.9, n_levels=2)
        res_r, res_0 = (chi_transmon(q, fr, kappa=8.7)
                        for fr in (frame, frame0))
        res = shift_undriven(res_r, res_0, frame, 8.7)
        expect = res_r.chi * (0.5 + frame.sinh2) - 0.5 * res_0.chi
        assert res.d_omega_q == pytest.approx(expect, rel=1e-12)
        assert res.d_gamma_phi == pytest.approx(
            res_r.chi ** 2 / 8.7 * frame.sinh2 * (1.0 + frame.sinh2))

    def test_undriven_transmon_uses_renormalizations(self):
        frame = frame_of(P_DETUNED)
        res = shift_undriven(dispersive_result(-0.5, delta_q_2=-0.3),
                             dispersive_result(-0.25, delta_q_2=-0.2),
                             frame, 8.7)
        assert res.parts["lamb"] == pytest.approx(-0.1)

    def test_anomalous_term_added_when_supplied(self):
        frame = frame_of(P_DETUNED)
        res_0 = dispersive_result(-0.25)
        base = shift_undriven(dispersive_result(-0.5), res_0, frame, 8.7)
        corr = shift_undriven(dispersive_result(-0.5, chi_anomalous=-0.4),
                              res_0, frame, 8.7, anomalous=-0.2)
        assert corr.d_omega_q == pytest.approx(base.d_omega_q + 0.08)

    def test_strong_dispersive_flag(self):
        res = shift_undriven(dispersive_result(-2.0), dispersive_result(-0.25),
                             frame_of(P_DETUNED), 8.7)
        assert "strong_dispersive" in res.flags

    def test_driven_form(self):
        frame = frame_of(P_DETUNED)
        res = shift_driven(-0.5, frame, DriveSpec(n_d=0.4), 8.7)
        nd_eff = 0.4 * frame.cosh2
        assert res.d_omega_q == pytest.approx(-0.5 * nd_eff)
        assert res.d_gamma_phi == pytest.approx(
            2.0 * 0.25 / 8.7 * (1.0 + 2.0 * frame.sinh2) * nd_eff)


class TestResonantDrivenShift:
    P = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=3.0)

    def test_zero_drive_reduces_to_pump_shift(self):
        res = resonant_driven_shift(self.P, -0.25, DriveSpec())
        n, _ = steady_moments(self.P)
        assert res.d_omega_q == pytest.approx(n * -0.25)

    def test_phase_dependence_extremes(self):
        hi = resonant_driven_shift(self.P, -0.25,
                                   DriveSpec(n_d=0.5, theta=math.pi / 2.0))
        lo = resonant_driven_shift(self.P, -0.25, DriveSpec(n_d=0.5))
        # cos(2 theta) = -1 maximizes the drive amplification of the shift
        assert abs(hi.parts["drive"]) > abs(lo.parts["drive"])

    def test_requires_resonant_pump(self):
        with pytest.raises(ValueError):
            resonant_driven_shift(P_DETUNED, -0.25, DriveSpec())


class TestCorrelation:
    def test_zero_lag_squeezed_vacuum(self):
        frame = frame_of(P_DETUNED)
        curve = number_correlation(frame, DriveSpec(n_d=0.3), 8.7, [0.0])
        sh2, ch2 = frame.sinh2, frame.cosh2
        assert curve.values[0] == pytest.approx(
            sh2 * (1.0 + sh2) + 0.3 * ch2 * (1.0 + 2.0 * sh2))

    def test_quadrature_reproduces_closed_form_dephasing(self):
        frame = frame_of(P_DETUNED)
        drive = DriveSpec(n_d=0.4)
        chi = -0.5
        closed = (shift_undriven(dispersive_result(chi),
                                 dispersive_result(0.0), frame,
                                 8.7).d_gamma_phi
                  + shift_driven(chi, frame, drive, 8.7).d_gamma_phi)
        quad = dephasing_from_correlation(chi, frame, drive, 8.7)
        assert quad == pytest.approx(closed, rel=1e-9)
