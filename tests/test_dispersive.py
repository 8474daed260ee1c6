"""Dispersive coupling strengths, dressed losses, pump conversion."""

import dataclasses
import math

import pytest

from boqsim import (
    OscillatorParams,
    TransmonParams,
    chi_transmon,
    dressed_losses,
    frame_of,
    pump_to_lambda,
)
from boqsim.core import BogoliubovFrame

Q = TransmonParams(delta_q=-80.0, g=4.9, chi_q=-114.0, gamma_1=5.0,
                   gamma_phi=2.2, n_levels=3)
Q2 = dataclasses.replace(Q, n_levels=2)
FRAME0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=20.0)  # zero pump


def frame_at(delta_a: float, lam: float) -> BogoliubovFrame:
    return frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=delta_a,
                                     lam=lam))


class TestChiTwoLevel:
    def test_zero_pump_reduces_to_textbook_value(self):
        # chi = 2 g^2 / Delta with Delta = delta_q - delta_a = -100
        res = chi_transmon(Q2, FRAME0)
        assert res.chi == pytest.approx(2.0 * 4.9 ** 2 / (-100.0))
        assert res.chi_anomalous == 0.0

    def test_detunings(self):
        frame = frame_at(20.0, 17.0)
        res = chi_transmon(Q2, frame)
        assert res.delta_big == pytest.approx(-80.0 - frame.omega_bog)
        assert res.sigma_big == pytest.approx(-80.0 + frame.omega_bog)

    def test_enhancement_both_terms(self):
        # hand-built from the definition with independent hyperbolics
        frame = frame_at(20.0, 17.0)
        r = 0.5 * math.atanh(17.0 / 20.0)
        ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
        omega = 20.0 / math.cosh(2.0 * r)
        expect = (2.0 * 4.9 ** 2 * ch2 / (-80.0 - omega)
                  + 2.0 * 4.9 ** 2 * sh2 / (-80.0 + omega))
        assert chi_transmon(Q2, frame).chi == pytest.approx(expect, rel=1e-12)

    def test_resonant_detuning_rejected(self):
        bad = TransmonParams(delta_q=20.0, g=4.9)
        with pytest.raises(ValueError, match="Delta"):
            chi_transmon(bad, FRAME0)

    def test_anharmonicity_is_ignored(self):
        # two levels have no second excited level to straddle
        frame = frame_at(20.0, 17.0)
        assert chi_transmon(Q2, frame) == chi_transmon(
            dataclasses.replace(Q2, chi_q=0.0), frame)


class TestChiTransmon:
    def test_zero_pump_value(self):
        # (2 g^2 / Delta) chi_q/(chi_q + Delta) at Delta = -100
        res = chi_transmon(Q, FRAME0)
        expect = 2.0 * 4.9 ** 2 / (-100.0) * (-114.0 / (-114.0 - 100.0))
        assert res.chi == pytest.approx(expect, rel=1e-12)

    def test_reduces_to_two_level_for_large_anharmonicity(self):
        frame = frame_at(20.0, 17.0)
        deep = TransmonParams(delta_q=-80.0, g=4.9, chi_q=-1e9, n_levels=3)
        assert chi_transmon(deep, frame).chi == pytest.approx(
            chi_transmon(dataclasses.replace(deep, n_levels=2), frame).chi,
            rel=1e-6)

    def test_straddling_resonance_rejected(self):
        # chi_q + Delta = 0 at delta_q = omega_bog + |chi_q|
        bad = TransmonParams(delta_q=FRAME0.omega_bog + 114.0, g=4.9,
                             chi_q=-114.0, n_levels=3)
        with pytest.raises(ValueError, match="straddling"):
            chi_transmon(bad, FRAME0)

    def test_validity_flag_tracks_eta(self):
        res_ok = chi_transmon(Q, FRAME0, kappa=8.7)
        assert res_ok.dispersive_valid
        tight = TransmonParams(delta_q=-25.0, g=4.9, chi_q=-114.0)
        res_bad = chi_transmon(tight, frame_at(20.0, 19.5), kappa=8.7)
        assert not res_bad.dispersive_valid

    def test_anomalous_coefficient_grows_from_zero(self):
        assert chi_transmon(Q, FRAME0).chi_anomalous == 0.0
        assert chi_transmon(Q, frame_at(20.0, 17.0)).chi_anomalous != 0.0

    def test_qubit_at_half_pump_frequency(self):
        # delta_q = 0: chi_a = g^2 sinh 2r delta_q / (delta_q^2 - Omega^2)
        # is 0 there, with no division by delta_q
        frame = frame_at(20.0, 17.0)
        res = chi_transmon(dataclasses.replace(Q, delta_q=0.0), frame)
        assert res.chi_anomalous == 0.0 and math.isfinite(res.chi)
        expect = (4.9 ** 2 * math.sinh(2.0 * frame.r) * -80.0
                  / (80.0 ** 2 - frame.omega_bog ** 2))
        assert chi_transmon(Q, frame).chi_anomalous == pytest.approx(
            expect, rel=1e-14)


class TestDressedLosses:
    def test_zero_pump_purcell(self):
        rates = dressed_losses(Q, FRAME0, kappa=8.7)
        assert rates.purcell_down == pytest.approx(
            math.sqrt(8.7) * 4.9 / (-100.0))
        assert rates.purcell_up == 0.0

    def test_pump_activates_upconversion(self):
        rates = dressed_losses(Q, frame_at(20.0, 17.0), kappa=8.7)
        assert rates.purcell_up != 0.0

    def test_dephasing_channels_positive(self):
        rates = dressed_losses(Q, frame_at(20.0, 17.0), kappa=8.7)
        assert rates.dressed_dephasing > 0
        assert rates.dressed_excitation == pytest.approx(
            rates.dressed_relaxation)


class TestPumpConversion:
    def test_linear_in_pump(self):
        lam, _ = pump_to_lambda(epsilon_p=100.0, g3=20.0, freq_a=6940.0)
        assert lam == pytest.approx(2.0 * 20.0 * 100.0 / 6940.0)

    def test_rwa_ratio_small_at_weak_pump(self):
        _, ratio = pump_to_lambda(epsilon_p=100.0, g3=20.0, freq_a=6940.0)
        assert 0 < ratio < 1e-3

    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            pump_to_lambda(1.0, 1.0, 0.0)
