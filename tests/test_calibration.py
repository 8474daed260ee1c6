"""Fit round-trips: every fitter is fed data synthesized from the forward
models (optionally with noise) and must recover the generating parameters."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from boqsim import (
    DegenerateFitError,
    DriveSpec,
    OscillatorParams,
    add_complex_noise,
    calibration,
    fit_chi_enhanced,
    fit_circle,
    fit_lambda,
    fit_straddling,
    frame_of,
    shift_driven,
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

    def test_data_with_no_drive_is_refused(self):
        # with every n_d = 0 no point constrains chi; the fit used to answer
        # its own start value, chi = -0.1, as converged
        p = OscillatorParams(freq_a=0.0, kappa=KAPPA, delta_a=20.0, lam=17.0)
        zeros = np.zeros(3)
        with pytest.raises(DegenerateFitError, match="drive"):
            fit_chi_enhanced(zeros, zeros, zeros, frame_of(p), KAPPA)


@st.composite
def noiseless_chi_data(draw):
    """(n_d, d_omega, d_gamma, frame, kappa) from shift_driven, as chi_sweep
    makes them: a stable detuned pump (kappa in [2, 12], |delta_a| in
    [5, 40], lam / |delta_a| in [0, 0.95]), |chi| in [0.01, 2] and 2 to 8
    drive strengths n_d in [0.05, 2]."""
    kappa = draw(st.floats(2.0, 12.0))
    delta_a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(5.0, 40.0))
    frame = frame_of(OscillatorParams(
        freq_a=0.0, kappa=kappa, delta_a=delta_a,
        lam=draw(st.floats(0.0, 0.95)) * abs(delta_a)))
    chi = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 2.0))
    n_d = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=2,
                                 max_size=8)))
    shifts = [shift_driven(chi, frame, DriveSpec(n_d=x), kappa) for x in n_d]
    return (n_d, np.array([s.d_omega_q for s in shifts]),
            np.array([s.d_gamma_phi for s in shifts]), frame, kappa)


def _chi_fit_and_result(data):
    """fit_chi_enhanced's report and the solver result it was built from."""
    seen = []
    build = calibration._report

    def spy(res, *args):
        seen.append(res)
        return build(res, *args)

    with mock.patch.object(calibration, "_report", spy):
        return fit_chi_enhanced(*data), seen[0]


def _direct_chi_fit(data):
    """scipy.optimize.least_squares called directly on fit_chi_enhanced's
    model, from its start and at its settings."""
    n_d, d_omega, d_gamma, frame, kappa = data
    nd_eff = n_d * frame.cosh2

    def resid(x):
        return np.concatenate([
            d_omega - x[0] * nd_eff,
            d_gamma - 2.0 * x[0] * x[0] / kappa * (1.0 + 2.0 * frame.sinh2)
            * nd_eff])

    return scipy.optimize.least_squares(
        resid, [np.mean(d_omega / nd_eff) or -0.1], xtol=1e-14, ftol=1e-14,
        gtol=1e-12, max_nfev=800)


def _recorded_solves(monkeypatch):
    """A list that gets the arguments of every calibration._least_squares
    call from here on."""
    solves = []
    solve = calibration._least_squares
    monkeypatch.setattr(calibration, "_least_squares",
                        lambda *args: solves.append(args) or solve(*args))
    return solves


class TestChiFitStart:
    """A chi fit whose start passes least_squares' first gradient test
    returns what least_squares would, without calling it."""

    @settings(max_examples=200, deadline=None)
    @given(noiseless_chi_data())
    def test_matches_least_squares_called_directly(self, data):
        report, res = _chi_fit_and_result(data)
        ref = _direct_chi_fit(data)
        want = calibration._report(ref, ["chi"], 2 * len(data[0]))
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.cost == ref.cost
        assert report.params == want.params
        assert (report.n_iter, report.converged, report.flags) == (
            want.n_iter, want.converged, want.flags)
        np.testing.assert_allclose(report.covariance, want.covariance,
                                   rtol=1e-6)

    @pytest.mark.parametrize("noise", [1e-3, 1e-9])
    def test_only_noisy_data_reach_the_solver(self, monkeypatch, noise):
        # chi_sweep's drive strengths at its headline point, without and
        # with relative noise; at 1e-9 the start's gradient is about 7e-11,
        # above the solver's 1e-12 and below a much looser test
        p = OscillatorParams(freq_a=0.0, kappa=KAPPA, delta_a=20.0, lam=17.0)
        n_d = np.linspace(0.1, 0.6, 6)
        shifts = [shift_driven(-0.5, frame_of(p), DriveSpec(n_d=x), KAPPA)
                  for x in n_d]
        d_omega = np.array([s.d_omega_q for s in shifts])
        d_gamma = np.array([s.d_gamma_phi for s in shifts])
        rng = np.random.default_rng(0)
        noisy = (n_d, d_omega * (1.0 + noise * rng.standard_normal(6)),
                 d_gamma * (1.0 + noise * rng.standard_normal(6)),
                 frame_of(p), KAPPA)
        solves = _recorded_solves(monkeypatch)
        report = fit_chi_enhanced(n_d, d_omega, d_gamma, frame_of(p), KAPPA)
        assert solves == [] and report.n_iter == 1
        report = fit_chi_enhanced(*noisy)
        assert len(solves) == 1 and report.n_iter > 1
        assert report.params["chi"] == float(_direct_chi_fit(noisy).x[0])

    @pytest.mark.parametrize("data", [
        ([0.2, 0.5, 1.0], [-0.1, np.nan, -0.5], [0.1, 0.3, 0.5]),
        ([0.2, 0.5, 1.0], [-0.1, -0.3, -0.5], [0.1, np.inf, 0.5]),
        ([0.2, np.nan, 1.0], [-0.1, -0.3, -0.5], [0.1, 0.3, 0.5]),
        ([0.2, 0.5, 1.0], [-0.1, -0.3], [0.1, 0.3, 0.5]),
        ([0.2, 0.5], [-0.1, -0.3], [[0.1, 0.3]]),
    ], ids=["nan_d_omega", "inf_d_gamma", "nan_n_d", "short_d_omega",
            "2-D_d_gamma"])
    def test_bad_data_are_refused_before_any_solve(self, monkeypatch, data):
        # refused up front: least_squares would blame NaN data on bounds
        # this fit does not have, and unequal lengths raise an IndexError
        p = OscillatorParams(freq_a=0.0, kappa=KAPPA, delta_a=20.0, lam=17.0)
        solves = _recorded_solves(monkeypatch)
        with pytest.raises(DegenerateFitError, match="finite"):
            fit_chi_enhanced(*data, frame_of(p), KAPPA)
        assert solves == []


class TestNoiseAndReports:
    def test_noise_matches_requested_snr(self):
        spec = synth_spectrum(30.0, 25.0, n=20001)
        rng = np.random.default_rng(0)
        noisy = add_complex_noise(spec, 20.0, rng)
        resid = noisy.values - spec.values
        snr = (np.sqrt(np.mean(np.abs(spec.values) ** 2))
               / np.sqrt(np.mean(np.abs(resid) ** 2)))
        assert 20.0 * math.log10(snr) == pytest.approx(20.0, abs=0.2)
