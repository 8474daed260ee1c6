#!/usr/bin/env python3
"""Demo: what a qubit sees when its readout oscillator is squeezed.

Detuned two-photon pumping turns the oscillator into a squeezed
(Bogoliubov) mode.  The qubit's dispersive coupling chi is enhanced by
cosh^2/sinh^2 factors, its frequency shifts down regardless of the pump
detuning sign, and photon-number fluctuations add dephasing.  The truncated
Fock-space Lindblad solver provides a brute-force check of the closed forms.

Run:  python3 demos/qubit_shift_under_squeezing.py
"""

import os

# One BLAS/OpenMP thread unless the caller chose otherwise, set before numpy
# loads: these matrices are small, and a spinning OpenBLAS pool slows
# several-fold when another process holds a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from boqsim import (  # noqa: E402
    OscillatorParams,
    TransmonParams,
    anomalous_moment,
    chi_exact,
    chi_transmon,
    frame_of,
    qubit_shift_dephasing,
    shift_undriven,
)
from boqsim.core import BogoliubovFrame  # noqa: E402

KAPPA = 8.7
Q = TransmonParams(delta_q=-80.0, g=4.9, chi_q=-114.0, gamma_1=5.0,
                   gamma_phi=2.2, n_levels=3)


def main() -> None:
    print("=== Enhanced dispersive coupling vs pump amplitude ===")
    delta_a = 20.0
    frame0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=delta_a)
    chi0 = chi_transmon(Q, frame0, kappa=KAPPA).chi
    print(f"  bare chi[0] = {1e3 * chi0:.1f} kHz")
    for lam in (6.0, 12.0, 17.0, 19.0):
        p = OscillatorParams(freq_a=6940.0, kappa=KAPPA, delta_a=delta_a,
                             lam=lam)
        frame = frame_of(p)
        chi = chi_transmon(Q, frame, kappa=KAPPA).chi
        print(f"  lam = {lam:4.1f} MHz (S = {frame.s_db:4.2f} dB): "
              f"chi[r] = {1e3 * chi:7.1f} kHz, "
              f"enhancement x{abs(chi / chi0):.2f}")
    print()

    print("=== Closed forms vs the Lindblad oracle at the operating point ===")
    p = OscillatorParams(freq_a=6940.0, kappa=KAPPA, delta_a=20.0, lam=17.0)
    frame = frame_of(p)
    chi_r = chi_transmon(Q, frame, kappa=KAPPA)
    chi_0 = chi_transmon(Q, frame0, kappa=KAPPA)
    ana = shift_undriven(chi_r, chi_0, frame, KAPPA,
                         anomalous=anomalous_moment(p, frame))
    print(f"  chi[r] closed form  = {1e3 * chi_r.chi:8.1f} kHz")
    print(f"  chi[r] exact diag.  = {1e3 * chi_exact(p, Q):8.1f} kHz")
    print(f"  pump-induced shift (closed form) = "
          f"{1e3 * ana.d_omega_q:8.1f} kHz")
    print("  solving the joint Liouvillian (takes ~2 s)...")
    orc = qubit_shift_dephasing(p, Q)
    print(f"  pump-induced shift (oracle)      = "
          f"{1e3 * orc.d_omega_q:8.1f} kHz")
    print(f"  induced dephasing: closed form {1e3 * ana.d_gamma_phi:6.1f} "
          f"kHz vs oracle {1e3 * orc.d_gamma_phi:6.1f} kHz")
    print()

    print("=== Shift direction is independent of the detuning sign ===")
    for delta_a in (20.0, -20.0, 40.0, -40.0):
        p = OscillatorParams(freq_a=6940.0, kappa=KAPPA, delta_a=delta_a,
                             lam=0.8 * abs(delta_a))
        q = TransmonParams(delta_q=delta_a - 100.0, g=4.9, chi_q=-114.0,
                           gamma_1=5.0, gamma_phi=2.2, n_levels=3)
        frame = frame_of(p)
        f0 = BogoliubovFrame(r=0.0, s_db=0.0, omega_bog=delta_a)
        cr, c0 = (chi_transmon(q, fr, kappa=KAPPA) for fr in (frame, f0))
        res = shift_undriven(cr, c0, frame, KAPPA)
        print(f"  delta_a = {delta_a:+5.1f} MHz: shift = "
              f"{1e3 * res.d_omega_q:8.1f} kHz, dephasing = "
              f"{1e3 * res.d_gamma_phi:6.1f} kHz")


if __name__ == "__main__":
    main()
