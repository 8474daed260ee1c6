#!/usr/bin/env python3
"""Demo: reflection gain of the pumped oscillator and how pump detuning
changes the gain-bandwidth trade-off.

Resonant pumping (delta_a = 0) amplifies a single peak whose bandwidth
shrinks as the gain grows.  Detuning the pump splits the response into a
signal/idler pair whose per-peak bandwidth stays pinned near kappa while the
gain rises, until the peaks coalesce near the instability threshold.

Run:  python3 demos/gain_and_bandwidth.py [out_dir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from boqsim import (
    OscillatorParams,
    fit_bandwidth,
    gain_summary,
    lambda_coalescence,
    lambda_critical,
    lambda_for_gain,
    peak_gain,
    signal_spectrum,
)

KAPPA = 8.7  # MHz


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output")
    out.mkdir(parents=True, exist_ok=True)

    print("=== Resonant pump: gain-bandwidth product ===")
    grid = np.linspace(-3 * KAPPA, 3 * KAPPA, 2001)
    for g_db in (6, 9, 12, 18):
        lam = lambda_for_gain(KAPPA, 10.0 ** (g_db / 10.0))
        p = OscillatorParams(freq_a=6940.0, kappa=KAPPA, delta_a=0.0,
                             lam=lam)
        summ = gain_summary(p, grid)
        print(f"  target {g_db:>2} dB -> lam = {lam:6.3f} MHz, "
              f"bw = {summ.bw_3db:6.3f} MHz, "
              f"bw*sqrt(G) = {summ.bw_3db * math.sqrt(summ.g_max):6.3f} MHz "
              f"(kappa = {KAPPA})")
    print("  The product approaches kappa only at very high gain; at modest"
          " gain it deviates by several percent.\n")

    print("=== Detuned pump (+30 MHz): bandwidth pinned near kappa ===")
    delta_a = 30.0
    wide = np.linspace(-70, 70, 2001)
    l_co = lambda_coalescence(KAPPA, delta_a)
    for lam in (20.0, 25.0, 27.5, 29.0):
        p = OscillatorParams(freq_a=6940.0, kappa=KAPPA, delta_a=delta_a,
                             lam=lam)
        freq, gain = peak_gain(p, wide)
        fwhm, split = fit_bandwidth(p)
        regime = "split" if split else "merged"
        print(f"  lam = {lam:5.1f} MHz -> peak {10 * math.log10(gain):5.1f} "
              f"dB at {freq:+7.2f} MHz, per-peak bw = {fwhm:5.2f} MHz "
              f"({regime})")
    print(f"  Coalescence at lam = {l_co:.2f} MHz, instability at "
          f"{lambda_critical(KAPPA, delta_a):.2f} MHz.\n")

    print("=== Export spectra for plotting ===")
    for name, delta_a, lam in (("resonant", 0.0, 3.37),
                               ("detuned", 30.0, 27.5),
                               ("merged", 30.0, 30.0)):
        p = OscillatorParams(freq_a=6940.0, kappa=KAPPA, delta_a=delta_a,
                             lam=lam)
        spec = signal_spectrum(p, np.linspace(-70, 70, 1401))
        with np.errstate(divide="ignore"):
            abs_db = 20.0 * np.log10(np.abs(spec.values))
        path = out / f"spectrum_{name}.csv"
        np.savetxt(path, np.column_stack([spec.freqs, spec.values.real,
                                          spec.values.imag, abs_db,
                                          np.angle(spec.values)]),
                   fmt="%.12g", delimiter=",",
                   header="freq_mhz,re,im,abs_db,phase_rad", comments="")
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
