"""Fit round-trips: every fitter is fed data synthesized from the forward
models (optionally with noise) and must recover the generating parameters."""

import math

import numpy as np
import pytest

from boqsim import (
    DegenerateFitError,
    OscillatorParams,
    add_complex_noise,
    fit_chi_enhanced,
    fit_chi_n0,
    fit_circle,
    fit_lambda,
    fit_straddling,
    frame_of,
    signal_spectrum,
)
from boqsim.calibration import straddling_chi
from boqsim.scattering import ComplexSpectrum

KAPPA = 8.7


def synth_spectrum(delta_a: float, lam: float, span=60.0, n=201):
    p = OscillatorParams(freq_a=0.0, kappa=KAPPA, delta_a=delta_a, lam=lam)
    return signal_spectrum(p, np.linspace(-span, span, n))


class TestFitLambda:
    @pytest.mark.parametrize("delta_a,lam", [(0.0, 3.0), (30.0, 25.0),
                                             (-30.0, 17.0), (20.0, 19.0)])
    def test_noiseless_recovery(self, delta_a, lam):
        rep = fit_lambda(synth_spectrum(delta_a, lam), KAPPA, delta_a)
        assert rep.converged
        assert rep.params["lam"] == pytest.approx(lam, rel=1e-3)

    def test_noisy_recovery_20db(self):
        rng = np.random.default_rng(7)
        errs = []
        for seed in range(20):
            noisy = add_complex_noise(synth_spectrum(30.0, 25.0), 20.0, rng)
            rep = fit_lambda(noisy, KAPPA, 30.0)
            errs.append(abs(rep.params["lam"] - 25.0) / 25.0)
        assert max(errs) < 0.02

    def test_near_stability_flag(self):
        from boqsim import lambda_critical
        lam = 0.995 * lambda_critical(KAPPA, 0.0)
        rep = fit_lambda(synth_spectrum(0.0, lam, span=20.0, n=801), KAPPA,
                         0.0)
        assert "near_stability_boundary" in rep.flags

    def test_stderr_small_for_clean_data(self):
        rep = fit_lambda(synth_spectrum(30.0, 25.0), KAPPA, 30.0)
        assert rep.stderr("lam") < 1e-3


class TestFitCircle:
    def make_circle(self, tilt, nu_q=6941.0, gamma_t=9.4, amp=8.0,
                    offset=0.2 - 0.1j, n=161, span=30.0):
        freqs = np.linspace(nu_q - span, nu_q + span, n)
        vals = offset + amp * np.exp(1j * tilt) / (gamma_t / 2.0
                                                   - 1j * (freqs - nu_q))
        return ComplexSpectrum(freqs=freqs, values=vals, kind="qubit")

    @pytest.mark.parametrize("tilt", [0.0, 0.8, -2.1, 2.9])
    def test_tilted_recovery(self, tilt):
        model, rep = fit_circle(self.make_circle(tilt))
        assert model.nu_q == pytest.approx(6941.0, abs=1e-6)
        assert model.gamma_t == pytest.approx(9.4, rel=1e-6)
        assert rep.converged

    def test_radius_and_center_geometry(self):
        model, _ = fit_circle(self.make_circle(0.5))
        assert model.radius == pytest.approx(8.0 / 9.4, rel=1e-6)

    def test_too_few_points(self):
        spec = self.make_circle(0.0, n=5)
        with pytest.raises(DegenerateFitError, match="6 points"):
            fit_circle(spec)

    def test_insufficient_arc_coverage(self):
        # a far-off-resonance window subtends a tiny arc of the circle
        spec = self.make_circle(0.0, nu_q=7100.0, span=30.0)
        freqs = np.linspace(6900.0, 6960.0, 101)
        vals = 0.2 + 8.0 / (4.7 - 1j * (freqs - 7100.0))
        spec = ComplexSpectrum(freqs=freqs, values=vals, kind="qubit")
        with pytest.raises(DegenerateFitError, match="arc coverage"):
            fit_circle(spec)


class TestFitChiN0:
    POWERS = np.array([0.5, 1.0, 2.0, 4.0, 8.0])

    def datasets(self, chis, p0, with_dephasing=True):
        out = []
        for chi in chis:
            n_d = self.POWERS / p0
            deph = 2.0 * chi * chi * n_d / KAPPA if with_dephasing else None
            out.append((self.POWERS, chi * n_d, deph))
        return out

    def test_joint_recovery(self):
        rep = fit_chi_n0(self.datasets([-0.26, -0.12], 3.5), KAPPA)
        assert rep.params["chi_0"] == pytest.approx(-0.26, rel=1e-6)
        assert rep.params["chi_1"] == pytest.approx(-0.12, rel=1e-6)
        assert rep.params["p0"] == pytest.approx(3.5, rel=1e-6)

    def test_single_detuning_with_dephasing_identifiable(self):
        rep = fit_chi_n0(self.datasets([-0.26], 3.5), KAPPA)
        assert rep.params["p0"] == pytest.approx(3.5, rel=1e-6)

    def test_single_detuning_without_dephasing_degenerate(self):
        with pytest.raises(DegenerateFitError, match="degenerate"):
            fit_chi_n0(self.datasets([-0.26], 3.5, with_dephasing=False),
                       KAPPA)

    def test_empty_input(self):
        with pytest.raises(DegenerateFitError):
            fit_chi_n0([], KAPPA)

    def test_zero_powers_carry_no_information(self):
        zeros = np.zeros(4)
        with pytest.raises(DegenerateFitError, match="zero drive"):
            fit_chi_n0([(zeros, zeros, zeros)], KAPPA)


class TestFitStraddling:
    DELTAS = np.array([-250.0, -180.0, -150.0, -60.0, -40.0, 40.0, 60.0,
                       100.0, 150.0])

    def test_noiseless_recovery(self):
        chis = straddling_chi(self.DELTAS, 4.9, -114.0)
        rep = fit_straddling(self.DELTAS, chis)
        assert rep.params["g"] == pytest.approx(4.9, rel=1e-6)
        assert rep.params["chi_q"] == pytest.approx(-114.0, rel=1e-6)

    def test_initialization_survives_pole_collisions(self):
        # detunings include +100 and +30, which collide with initial-guess
        # grid values of chi_q; the fitter must skip/nudge those starts
        deltas = np.array([-150.0, -30.0, 30.0, 100.0, 300.0])
        chis = straddling_chi(deltas, 4.9, -114.0)
        rep = fit_straddling(deltas, chis)
        assert rep.params["chi_q"] == pytest.approx(-114.0, rel=1e-6)

    def test_one_sided_data_flagged(self):
        deltas = np.array([10.0, 20.0, 30.0, 50.0, 80.0])
        chis = straddling_chi(deltas, 4.9, -114.0)
        rep = fit_straddling(deltas, chis)
        assert "poorly_conditioned_one_sided" in rep.flags

    def test_too_few_detunings(self):
        with pytest.raises(DegenerateFitError):
            fit_straddling([10.0, 20.0], [0.1, 0.2])


class TestFitChiEnhanced:
    def test_noiseless_recovery(self):
        p = OscillatorParams(freq_a=0.0, kappa=KAPPA, delta_a=20.0, lam=17.0)
        frame = frame_of(p)
        n_d = np.array([0.2, 0.5, 1.0, 2.0, 4.0])
        chi = -0.3
        dw = chi * n_d * frame.cosh2
        dg = (2.0 * chi * chi / KAPPA * (1.0 + 2.0 * frame.sinh2)
              * n_d * frame.cosh2)
        rep = fit_chi_enhanced(n_d, dw, dg, frame, KAPPA)
        assert rep.params["chi"] == pytest.approx(chi, rel=1e-6)

    def test_inconsistent_dephasing_flagged(self):
        p = OscillatorParams(freq_a=0.0, kappa=KAPPA, delta_a=20.0, lam=17.0)
        frame = frame_of(p)
        n_d = np.array([0.5, 1.0, 2.0])
        dw = -0.3 * n_d * frame.cosh2
        rep = fit_chi_enhanced(n_d, dw, -np.abs(dw), frame, KAPPA)
        assert "inconsistent_dephasing_sign" in rep.flags


class TestNoiseAndReports:
    def test_noise_matches_requested_snr(self):
        spec = synth_spectrum(30.0, 25.0, n=20001)
        rng = np.random.default_rng(0)
        noisy = add_complex_noise(spec, 20.0, rng)
        resid = noisy.values - spec.values
        snr = (np.sqrt(np.mean(np.abs(spec.values) ** 2))
               / np.sqrt(np.mean(np.abs(resid) ** 2)))
        assert 20.0 * math.log10(snr) == pytest.approx(20.0, abs=0.2)
