"""Acceptance criteria.

Each test checks one numbered criterion end to end at its stated tolerance
and emits exactly one `CRITERION n: PASS/FAIL` line.  Tolerances are part of
the contract and are asserted, not tuned.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from boqsim import (
    DispersiveResult,
    DriveSpec,
    OscillatorParams,
    TransmonParams,
    add_complex_noise,
    build_liouvillian,
    chi_exact,
    chi_transmon,
    dephasing_from_correlation,
    fit_bandwidth,
    fit_chi_enhanced,
    fit_circle,
    fit_lambda,
    fit_straddling,
    frame_of,
    gain_summary,
    lambda_coalescence,
    lambda_critical,
    lambda_for_gain,
    peak_gain,
    shift_driven,
    shift_undriven,
    signal_spectrum,
    steady_state,
)
from boqsim.calibration import straddling_chi
from boqsim.core import BogoliubovFrame
from boqsim.scattering import ComplexSpectrum
from boqsim.spectral import resonant_steady_state

KAPPA = 8.7
Q_OP = TransmonParams(delta_q=-80.0, g=4.9, chi_q=-114.0, gamma_1=5.0,
                      gamma_phi=2.2, n_levels=3)


def report(num: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"CRITERION {num}: {verdict} - {detail}", flush=True)
    assert passed, f"criterion {num}: {detail}"


def osc(delta_a: float, lam: float) -> OscillatorParams:
    return OscillatorParams(freq_a=0.0, kappa=KAPPA, delta_a=delta_a, lam=lam)


def lam_at_peak_gain(delta_a: float, g_target: float,
                     grid: np.ndarray) -> float:
    f = lambda lam: peak_gain(osc(delta_a, lam), grid)[1] - g_target
    return brentq(f, 1e-6, 0.9995 * lambda_critical(KAPPA, delta_a),
                  xtol=1e-10)


def test_criterion_01_gain_bandwidth_product():
    """Resonant pump: measured bw_3db * sqrt(G) should equal kappa within 1%
    at 6/9/12 dB of gain."""
    grid = np.linspace(-3.0 * KAPPA, 3.0 * KAPPA, 2001)
    devs = []
    for g_db in (6.0, 9.0, 12.0):
        g = 10.0 ** (g_db / 10.0)
        p = osc(0.0, lambda_for_gain(KAPPA, g))
        summ = gain_summary(p, grid)
        product = summ.bw_3db * math.sqrt(summ.g_max)
        devs.append((g_db, product, abs(product - KAPPA) / KAPPA))
    detail = "; ".join(
        f"{g_db:g} dB: bw*sqrt(G) = {prod:.3f} MHz ({100 * dev:.2f}% "
        f"from kappa)" for g_db, prod, dev in devs)
    report(1, all(dev <= 0.01 for _, _, dev in devs), detail)


def test_criterion_02_bandwidth_evasion():
    """Detuned pump (+30 MHz): per-peak bandwidth flat within 10% up to 9 dB,
    and the merged-peak bandwidth beats the resonant one at equal gain 2x."""
    delta_a = 30.0
    grid = np.linspace(-70.0, 70.0, 2001)
    bws = []
    for g_db in (3.0, 4.5, 6.0, 7.5, 9.0):
        lam = lam_at_peak_gain(delta_a, 10.0 ** (g_db / 10.0), grid)
        fwhm, split = fit_bandwidth(osc(delta_a, lam))
        assert split and lam < lambda_coalescence(KAPPA, delta_a)
        bws.append(fwhm)
    spread = (max(bws) - min(bws)) / min(bws)

    lam_merged = 0.5 * (lambda_coalescence(KAPPA, delta_a)
                        + lambda_critical(KAPPA, delta_a))
    p_merged = osc(delta_a, lam_merged)
    g_merged = peak_gain(p_merged, grid)[1]
    bw_merged, split = fit_bandwidth(p_merged)
    assert not split
    p_res = osc(0.0, lambda_for_gain(KAPPA, g_merged))
    bw_res, _ = fit_bandwidth(p_res)
    ratio = bw_merged / bw_res
    detail = (f"bandwidth spread {100 * spread:.1f}% over 3-9 dB "
              f"(limit 10%); merged/resonant bandwidth ratio {ratio:.1f} "
              f"at {10 * math.log10(g_merged):.1f} dB (limit 2)")
    report(2, spread <= 0.10 and ratio > 2.0, detail)


def test_criterion_03_bare_dispersive_strength():
    """Zero-pump transmon dispersive strength is -250 kHz within 5%."""
    frame0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=20.0)
    chi = chi_transmon(Q_OP, frame0, kappa=KAPPA).chi
    dev = abs(chi - (-0.250)) / 0.250
    report(3, dev <= 0.05,
           f"chi[r=0] = {1e3 * chi:.1f} kHz vs -250 kHz "
           f"({100 * dev:.1f}%, limit 5%)")


def test_criterion_04_enhancement_headline():
    """Operating point (delta_a = +20, lam = 17, S = 5.5 dB): two-fold chi
    enhancement; agreement with the eigenvalue oracle within 5%; the
    measured -510 kHz within 30% of the analytic value."""
    p = osc(20.0, 17.0)
    frame = frame_of(p)
    frame0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=20.0)
    chi_r = chi_transmon(Q_OP, frame, kappa=KAPPA).chi
    chi_0 = chi_transmon(Q_OP, frame0, kappa=KAPPA).chi
    ratio = abs(chi_r / chi_0)
    oracle = chi_exact(p, Q_OP)
    dev_oracle = abs(oracle - chi_r) / abs(chi_r)
    dev_meas = abs(-0.510 - chi_r) / abs(chi_r)
    detail = (f"S = {frame.s_db:.2f} dB; |chi[r]/chi[0]| = {ratio:.3f} "
              f"(limit >= 2); eigenvalue oracle {100 * dev_oracle:.1f}% "
              f"(limit 5%); measured -510 kHz is {100 * dev_meas:.1f}% "
              f"from analytic (limit 30%)")
    report(4, ratio >= 2.0 and dev_oracle <= 0.05 and dev_meas <= 0.30,
           detail)


def test_criterion_05_steady_state_moments():
    """Resonant steady moments: oracle vs closed forms to 1e-6 across
    lam/(kappa/2) in {0.1..0.9}; occupancy ~1.3 photons at 8 dB."""
    thetas = np.array([0.0, math.pi / 4.0, math.pi / 2.0])
    worst = 0.0
    all_converged = True
    for ratio in np.arange(0.1, 0.95, 0.1):
        p = osc(0.0, ratio * KAPPA / 2.0)
        mom = resonant_steady_state(p)
        res = steady_state(build_liouvillian(p), thetas=thetas)
        all_converged &= res.truncation_converged
        vx = np.array([mom.var_x(t) for t in thetas])
        vp = np.array([mom.var_p(t) for t in thetas])
        worst = max(
            worst,
            abs(res.n_mean - mom.n_mean) / mom.n_mean,
            abs(res.a_sq - mom.a_sq) / abs(mom.a_sq),
            float(np.max(np.abs(res.var_x - vx) / vx)),
            float(np.max(np.abs(res.var_p - vp) / vp)))
    s_inf_target = 10.0 ** (8.0 / 10.0)
    lam_8db = KAPPA / 2.0 * (1.0 - 1.0 / s_inf_target)
    occ = resonant_steady_state(osc(0.0, lam_8db)).n_mean
    detail = (f"worst moment relative error {worst:.2e} (limit 1e-6, "
              f"converged truncation: {all_converged}); occupancy at "
              f"8 dB anti-squeezing {occ:.4f} photons (limits [1.15, 1.35])")
    report(5, worst < 1e-6 and all_converged and 1.15 <= occ <= 1.35, detail)


def test_criterion_06_symplectic_scattering():
    """|Gamma_a|^2 - |Gamma_i|^2 = 1 within 1e-9 for 20 random stable
    parameter sets on 1001-point grids."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        kappa = rng.uniform(0.5, 20.0)
        delta_a = rng.uniform(-60.0, 60.0)
        lam = rng.uniform(0.0, 0.99) * lambda_critical(kappa, delta_a)
        p = OscillatorParams(freq_a=0.0, kappa=kappa, delta_a=delta_a,
                             lam=lam)
        w = np.linspace(-100.0, 100.0, 1001)
        spec = signal_spectrum(p, w)
        from boqsim import gamma_idler
        ident = np.abs(spec.values) ** 2 - np.abs(gamma_idler(p, w)) ** 2
        worst = max(worst, float(np.max(np.abs(ident - 1.0))))
    report(6, worst < 1e-9,
           f"max |(|Gamma_a|^2 - |Gamma_i|^2) - 1| = {worst:.2e} "
           f"(limit 1e-9)")


def test_criterion_07_frame_identities():
    """Omega_a = delta_a / cosh 2r = sign(delta_a) sqrt(delta_a^2 - lam^2)
    within 1e-12 on a dense grid."""
    worst = 0.0
    for delta_a in np.concatenate([np.linspace(-50.0, -0.5, 60),
                                   np.linspace(0.5, 50.0, 60)]):
        for ratio in np.linspace(0.0, 0.999, 40):
            p = OscillatorParams(freq_a=0.0, kappa=1.0, delta_a=delta_a,
                                 lam=ratio * abs(delta_a))
            frame = frame_of(p)
            expect = math.copysign(
                math.sqrt(delta_a ** 2 - p.lam ** 2), delta_a)
            worst = max(worst, abs(frame.omega_bog - expect)
                        / max(1.0, abs(expect)))
    report(7, worst < 1e-12,
           f"max frame-identity deviation {worst:.2e} (limit 1e-12)")


def test_criterion_08_dephasing_correlator_consistency():
    """Numerical integral of the number correlator reproduces the
    closed-form induced dephasing to 1e-6 relative at 10 operating points."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        delta_a = rng.choice([-1.0, 1.0]) * rng.uniform(15.0, 45.0)
        lam = rng.uniform(0.1, 0.9) * abs(delta_a)
        n_d = rng.uniform(0.0, 0.8)
        chi = -rng.uniform(0.1, 0.8)
        p = osc(delta_a, lam)
        frame = frame_of(p)
        drive = DriveSpec(n_d=n_d)
        # the dephasing reads chi[r] alone
        res_r, res_0 = (DispersiveResult(chi=c, delta_big=math.nan,
                                         sigma_big=math.nan,
                                         chi_anomalous=0.0, eta=0.0)
                        for c in (chi, 0.0))
        closed = (shift_undriven(res_r, res_0, frame, KAPPA).d_gamma_phi
                  + shift_driven(chi, frame, drive, KAPPA).d_gamma_phi)
        quad = dephasing_from_correlation(chi, frame, drive, KAPPA)
        worst = max(worst, abs(quad - closed) / closed)
    report(8, worst < 1e-6,
           f"max quadrature-vs-closed-form deviation {worst:.2e} "
           f"(limit 1e-6)")


def test_criterion_09_fit_round_trips():
    """fit_lambda 0.1% noiseless / 2% at 20 dB SNR over 100 seeds;
    fit_circle gamma_t 0.5% under tilt; fit_straddling 1%;
    fit_chi_enhanced 1% noiseless."""
    freqs = np.linspace(-60.0, 60.0, 201)
    spec = signal_spectrum(osc(30.0, 25.0), freqs)
    err_clean = abs(fit_lambda(spec, KAPPA, 30.0).params["lam"] - 25.0) / 25.0
    rng = np.random.default_rng(0)
    err_noisy = max(
        abs(fit_lambda(add_complex_noise(spec, 20.0, rng), KAPPA,
                       30.0).params["lam"] - 25.0) / 25.0
        for _ in range(100))

    tilts = (0.0, 0.8, -2.1, 2.9)
    err_circle = 0.0
    for tilt in tilts:
        f = np.linspace(6911.0, 6971.0, 161)
        vals = (0.2 - 0.1j) + 8.0 * np.exp(1j * tilt) / (
            9.4 / 2.0 - 1j * (f - 6941.0))
        model, _ = fit_circle(ComplexSpectrum(freqs=f, values=vals,
                                              kind="qubit"))
        err_circle = max(err_circle, abs(model.gamma_t - 9.4) / 9.4)

    deltas = np.array([-250.0, -180.0, -150.0, -60.0, -40.0, 40.0, 60.0,
                       100.0, 150.0])
    rep = fit_straddling(deltas, straddling_chi(deltas, 4.9, -114.0))
    err_strad = max(abs(rep.params["g"] - 4.9) / 4.9,
                    abs(rep.params["chi_q"] + 114.0) / 114.0)

    frame = frame_of(osc(20.0, 17.0))
    n_d = np.array([0.2, 0.5, 1.0, 2.0, 4.0])
    chi_true = -0.3
    dw = chi_true * n_d * frame.cosh2
    dg = (2.0 * chi_true ** 2 / KAPPA * (1.0 + 2.0 * frame.sinh2)
          * n_d * frame.cosh2)
    err_chi = abs(fit_chi_enhanced(n_d, dw, dg, frame,
                                   KAPPA).params["chi"] - chi_true) / 0.3

    detail = (f"lam: {100 * err_clean:.3f}% clean (limit 0.1%), "
              f"{100 * err_noisy:.2f}% at 20 dB SNR/100 seeds (limit 2%); "
              f"gamma_t: {100 * err_circle:.3f}% (limit 0.5%); "
              f"straddling: {100 * err_strad:.3f}% (limit 1%); "
              f"chi: {100 * err_chi:.3f}% (limit 1%)")
    report(9, err_clean < 1e-3 and err_noisy < 0.02 and err_circle < 5e-3
           and err_strad < 0.01 and err_chi < 0.01, detail)


def test_criterion_10_qubit_spectrum_reproduction(tmp_path):
    """Generated shift curves: monotone decreasing for both detuning signs,
    peak shift at least 4x the bare coupling, squeezed-frame occupancy
    <= 1.2 across the sweep."""
    import csv
    from boqsim.cli import main

    code = main(["qubit_response", "--out", str(tmp_path),
                 "--no-timestamp"])
    assert code == 0
    lines = [l for l in (tmp_path / "qubit_shift.csv").read_text()
             .splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    curves: dict = {}
    for r in rows:
        curves.setdefault(float(r["delta_a"]), []).append(
            (float(r["lam"]), float(r["d_omega_q"])))

    monotone = True
    best_ratio = 0.0
    occ_max = 0.0
    for delta_a, pts in curves.items():
        pts.sort()
        shifts = [s for _, s in pts]
        monotone &= all(b <= a + 1e-12 for a, b in zip(shifts, shifts[1:]))
        if delta_a == 0.0:
            continue
        frame0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=delta_a)
        q = TransmonParams(delta_q=delta_a - 100.0, g=4.9, chi_q=-114.0,
                           gamma_1=5.0, gamma_phi=2.2, n_levels=3)
        chi0 = chi_transmon(q, frame0, kappa=KAPPA).chi
        best_ratio = max(best_ratio, abs(shifts[-1]) / abs(chi0))
        lam_max = pts[-1][0]
        occ_max = max(occ_max,
                      frame_of(osc(delta_a, lam_max)).sinh2)
    detail = (f"all curves monotone decreasing: {monotone}; peak "
              f"|shift|/|chi[0]| = {best_ratio:.2f} (limit >= 4); max "
              f"squeezed-frame occupancy {occ_max:.3f} (limit 1.2)")
    report(10, monotone and best_ratio >= 4.0 and occ_max <= 1.2, detail)
