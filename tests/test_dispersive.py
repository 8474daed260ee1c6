"""Dispersive coupling strengths."""

import dataclasses
import math

import pytest

from boqsim import (
    OscillatorParams,
    TransmonParams,
    chi_transmon,
    frame_of,
)
from boqsim.core import BogoliubovFrame

Q = TransmonParams(delta_q=-80.0, g=4.9, chi_q=-114.0, gamma_1=5.0,
                   gamma_phi=2.2, n_levels=3)
Q2 = dataclasses.replace(Q, n_levels=2)
FRAME0 = BogoliubovFrame(r=0.0, omega_bog=20.0)  # zero pump
KAPPA = 8.7  # MHz, the oscillator linewidth


def frame_at(delta_a: float, lam: float) -> BogoliubovFrame:
    return frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=delta_a,
                                     lam=lam))


class TestChiTwoLevel:
    def test_zero_pump_reduces_to_textbook_value(self):
        # chi = 2 g^2 / Delta with Delta = delta_q - delta_a = -100
        res = chi_transmon(Q2, FRAME0, kappa=KAPPA)
        assert res.chi == pytest.approx(2.0 * 4.9 ** 2 / (-100.0))
        assert res.chi_anomalous == 0.0

    def test_detunings(self):
        # eta = max(g e^r, kappa, gamma_1, gamma_phi)/min(|Delta|, |Sigma|),
        # Delta = delta_q - Omega_a = -80 - Omega_a, Sigma = -80 + Omega_a
        frame = frame_at(20.0, 17.0)
        res = chi_transmon(Q2, frame, kappa=KAPPA)
        num = max(4.9 * math.exp(frame.r), KAPPA, 5.0, 2.2)
        assert res.eta == pytest.approx(
            num / min(abs(-80.0 - frame.omega_bog),
                      abs(-80.0 + frame.omega_bog)), rel=1e-14)

    def test_enhancement_both_terms(self):
        # hand-built from the definition with independent hyperbolics
        frame = frame_at(20.0, 17.0)
        r = 0.5 * math.atanh(17.0 / 20.0)
        ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
        omega = 20.0 / math.cosh(2.0 * r)
        expect = (2.0 * 4.9 ** 2 * ch2 / (-80.0 - omega)
                  + 2.0 * 4.9 ** 2 * sh2 / (-80.0 + omega))
        assert chi_transmon(Q2, frame, kappa=KAPPA).chi == pytest.approx(
            expect, rel=1e-12)

    def test_resonant_detuning_rejected(self):
        bad = TransmonParams(delta_q=20.0, g=4.9)
        with pytest.raises(ValueError, match="Delta"):
            chi_transmon(bad, FRAME0, kappa=KAPPA)

    def test_idler_resonant_detuning_rejected(self):
        # Sigma = delta_q + Omega_a = 0
        bad = TransmonParams(delta_q=-FRAME0.omega_bog, g=4.9)
        with pytest.raises(ValueError, match="Sigma"):
            chi_transmon(bad, FRAME0, kappa=KAPPA)

    def test_anharmonicity_is_ignored(self):
        # two levels have no second excited level to straddle
        frame = frame_at(20.0, 17.0)
        assert chi_transmon(Q2, frame, kappa=KAPPA) == chi_transmon(
            dataclasses.replace(Q2, chi_q=0.0), frame, kappa=KAPPA)


class TestChiTransmon:
    def test_zero_pump_value(self):
        # (2 g^2 / Delta) chi_q/(chi_q + Delta) at Delta = -100
        res = chi_transmon(Q, FRAME0, kappa=KAPPA)
        expect = 2.0 * 4.9 ** 2 / (-100.0) * (-114.0 / (-114.0 - 100.0))
        assert res.chi == pytest.approx(expect, rel=1e-12)

    def test_reduces_to_two_level_for_large_anharmonicity(self):
        frame = frame_at(20.0, 17.0)
        deep = TransmonParams(delta_q=-80.0, g=4.9, chi_q=-1e9, n_levels=3)
        assert chi_transmon(deep, frame, kappa=KAPPA).chi == pytest.approx(
            chi_transmon(dataclasses.replace(deep, n_levels=2), frame,
                         kappa=KAPPA).chi,
            rel=1e-6)

    def test_straddling_resonance_rejected(self):
        # chi_q + Delta = 0 at delta_q = omega_bog + |chi_q|
        bad = TransmonParams(delta_q=FRAME0.omega_bog + 114.0, g=4.9,
                             chi_q=-114.0, n_levels=3)
        with pytest.raises(ValueError, match="straddling"):
            chi_transmon(bad, FRAME0, kappa=KAPPA)

    def test_idler_straddling_resonance_rejected(self):
        # chi_q + Sigma = 0 at chi_q = -(delta_q + Omega_a) = 60
        bad = TransmonParams(delta_q=-80.0, g=4.9, chi_q=60.0, n_levels=3)
        with pytest.raises(ValueError, match=r"straddling.*Sigma"):
            chi_transmon(bad, FRAME0, kappa=KAPPA)

    def test_validity_flag_tracks_eta(self):
        res_ok = chi_transmon(Q, FRAME0, kappa=KAPPA)
        assert res_ok.dispersive_valid
        tight = TransmonParams(delta_q=-25.0, g=4.9, chi_q=-114.0)
        res_bad = chi_transmon(tight, frame_at(20.0, 19.5), kappa=KAPPA)
        assert not res_bad.dispersive_valid

    def test_anomalous_coefficient_grows_from_zero(self):
        assert chi_transmon(Q, FRAME0, kappa=KAPPA).chi_anomalous == 0.0
        assert chi_transmon(Q, frame_at(20.0, 17.0),
                            kappa=KAPPA).chi_anomalous != 0.0

    def test_qubit_at_half_pump_frequency(self):
        # delta_q = 0: chi_a = g^2 sinh 2r delta_q / (delta_q^2 - Omega^2)
        # is 0 there, with no division by delta_q
        frame = frame_at(20.0, 17.0)
        res = chi_transmon(dataclasses.replace(Q, delta_q=0.0), frame,
                           kappa=KAPPA)
        assert res.chi_anomalous == 0.0 and math.isfinite(res.chi)
        expect = (4.9 ** 2 * math.sinh(2.0 * frame.r) * -80.0
                  / (80.0 ** 2 - frame.omega_bog ** 2))
        assert chi_transmon(
            Q, frame, kappa=KAPPA).chi_anomalous == pytest.approx(
            expect, rel=1e-14)
