#!/usr/bin/env python3
"""Demo: calibration pipeline on synthetic measurements.

Generates noisy reflection spectra and shift/dephasing datasets from the
forward models, then recovers the generating parameters with the fitters —
the same loop an experiment runs against real data.

Run:  python3 demos/calibration_round_trip.py
"""

import numpy as np

from boqsim import (
    DriveSpec,
    OscillatorParams,
    add_complex_noise,
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
RNG = np.random.default_rng(42)


def main() -> None:
    print("=== Pump amplitude from a noisy reflection spectrum ===")
    lam_true = 25.0
    p = OscillatorParams(freq_a=6940.0, kappa=KAPPA, delta_a=30.0,
                         lam=lam_true)
    spec = add_complex_noise(
        signal_spectrum(p, np.linspace(-60, 60, 201)), snr_db=20.0, rng=RNG)
    rep = fit_lambda(spec, KAPPA, 30.0)
    print(f"  true lam = {lam_true} MHz, fitted = "
          f"{rep.params['lam']:.4f} +- {rep.stderr('lam'):.4f} MHz "
          f"(flags: {list(rep.flags) or 'none'})\n")

    print("=== Qubit line from a tilted reflection circle ===")
    nu_q, gamma_t, tilt = 6941.0, 9.4, 0.8
    freqs = np.linspace(nu_q - 30, nu_q + 30, 161)
    vals = (0.2 - 0.1j) + 8.0 * np.exp(1j * tilt) / (
        gamma_t / 2.0 - 1j * (freqs - nu_q))
    noisy = add_complex_noise(
        ComplexSpectrum(freqs=freqs, values=vals, kind="qubit"),
        snr_db=30.0, rng=RNG)
    model, rep = fit_circle(noisy)
    print(f"  true (nu_q, gamma_t, tilt) = ({nu_q}, {gamma_t}, {tilt})")
    print(f"  fit  (nu_q, gamma_t, tilt) = ({model.nu_q:.3f}, "
          f"{model.gamma_t:.3f}, {model.tilt:.3f})\n")

    print("=== Coupling and anharmonicity from chi across detunings ===")
    g_true, chi_q_true = 4.9, -114.0
    deltas = np.array([-250.0, -180.0, -150.0, -60.0, -40.0, 40.0, 60.0,
                       100.0, 150.0])
    chis = straddling_chi(deltas, g_true, chi_q_true)
    chis = chis * (1.0 + 0.01 * RNG.standard_normal(len(chis)))
    rep = fit_straddling(deltas, chis)
    print(f"  true (g, chi_q) = ({g_true}, {chi_q_true}) MHz")
    print(f"  fit  (g, chi_q) = ({rep.params['g']:.3f}, "
          f"{rep.params['chi_q']:.1f}) MHz "
          f"(flags: {list(rep.flags) or 'none'})\n")

    print("=== Enhanced chi from driven shift/dephasing data ===")
    p = OscillatorParams(freq_a=6940.0, kappa=KAPPA, delta_a=20.0, lam=17.0)
    frame = frame_of(p)
    chi_true = -0.62
    n_d = np.linspace(0.1, 0.6, 6)
    shifts = [shift_driven(chi_true, frame, DriveSpec(n_d=n), KAPPA)
              for n in n_d]
    dw = np.array([s.d_omega_q for s in shifts])
    dg = np.array([s.d_gamma_phi for s in shifts])
    dw = dw * (1.0 + 0.02 * RNG.standard_normal(len(n_d)))
    dg = dg * (1.0 + 0.02 * RNG.standard_normal(len(n_d)))
    rep = fit_chi_enhanced(n_d, dw, dg, frame, KAPPA)
    print(f"  true chi[r] = {chi_true} MHz, fitted = "
          f"{rep.params['chi']:.4f} +- {rep.stderr('chi'):.4f} MHz")


if __name__ == "__main__":
    main()
