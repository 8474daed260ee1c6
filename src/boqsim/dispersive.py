"""Dispersive-coupling theory for a qubit/transmon coupled to a squeezed
oscillator: enhanced chi and second-order frequency renormalizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BogoliubovFrame, TransmonParams

# Conservative numerical proxy for the dispersive condition eta << 1.
DISPERSIVE_ETA_MAX = 0.3


@dataclass(frozen=True)
class DispersiveResult:
    """Dispersive coupling of a (two-level or transmon) qubit to the
    squeezed oscillator.

    chi : dispersive strength in MHz
    chi_anomalous : coefficient of the (alpha^2 + h.c.) sigma_z/2 term, MHz
    eta : dispersive small parameter max(g e^r, kappa, gamma_1,
        gamma_phi)/min(|Delta|, |Sigma|), with Delta[r] = delta_q - Omega_a[r]
        and Sigma[r] = delta_q + Omega_a[r]
    delta_q_2 : second-order qubit frequency renormalization, MHz
        (chi/2 for a two-level qubit)
    """

    chi: float
    chi_anomalous: float
    eta: float
    delta_q_2: float

    @property
    def dispersive_valid(self) -> bool:
        return self.eta < DISPERSIVE_ETA_MAX


def _detunings(delta_q: float, frame: BogoliubovFrame) -> tuple[float, float]:
    delta_big = delta_q - frame.omega_bog
    sigma_big = delta_q + frame.omega_bog
    if delta_big == 0.0:
        raise ValueError("delta_q resonant with the signal frequency "
                         "(Delta[r] = 0)")
    if sigma_big == 0.0:
        raise ValueError("delta_q resonant with the idler frequency "
                         "(Sigma[r] = 0)")
    return delta_big, sigma_big


def _eta(g: float, frame: BogoliubovFrame, delta_big: float, sigma_big: float,
         kappa: float, gamma_1: float, gamma_phi: float) -> float:
    num = max(g * math.exp(frame.r), kappa, gamma_1, gamma_phi)
    return num / min(abs(delta_big), abs(sigma_big))


def chi_transmon(q: TransmonParams, frame: BogoliubovFrame,
                 kappa: float) -> DispersiveResult:
    """Dispersive strength of the qubit with q.n_levels levels, the model
    the oracle solves, next to an oscillator of linewidth kappa (it enters
    eta, so dispersive_valid).

    Two levels:
      chi = 2 g^2 cosh^2 r / Delta[r] + 2 g^2 sinh^2 r / Sigma[r],
      delta_q^(2)[r] = chi/2.
    Three or more keep the straddling term of the second excited level:
      chi_t = (2g^2/Delta)(chi_q/(chi_q+Delta)) cosh^2 r
            + (2g^2/Sigma)(chi_q/(chi_q+Sigma)) sinh^2 r.
    Both give chi_a = g^2 sinh 2r delta_q / (delta_q^2 - Omega_a^2), 0 at
    delta_q = 0, and the qubit renormalization delta_q^(2)[r].
    """
    delta_big, sigma_big = _detunings(q.delta_q, frame)
    f_delta = f_sigma = lamb_num = lamb_den = 1.0
    if q.n_levels > 2:
        if q.chi_q + delta_big == 0.0:
            raise ValueError("straddling resonance: chi_q + Delta[r] = 0")
        if q.chi_q + sigma_big == 0.0:
            raise ValueError("straddling resonance: chi_q + Sigma[r] = 0")
        f_delta = q.chi_q / (q.chi_q + delta_big)
        f_sigma = q.chi_q / (q.chi_q + sigma_big)
        lamb_num, lamb_den = q.chi_q - sigma_big, q.chi_q + sigma_big
    g = q.g
    ch2, sh2 = frame.cosh2, frame.sinh2
    chi = (2.0 * g * g / delta_big * f_delta * ch2
           + 2.0 * g * g / sigma_big * f_sigma * sh2)
    delta_q_2 = (g * g * ch2 / delta_big
                 + g * g * sh2 / sigma_big * lamb_num / lamb_den)
    sinh_2r = math.sinh(2.0 * frame.r)
    chi_anom = g * g * sinh_2r * q.delta_q / (
        q.delta_q ** 2 - frame.omega_bog ** 2)
    eta = _eta(g, frame, delta_big, sigma_big, kappa, q.gamma_1, q.gamma_phi)
    return DispersiveResult(chi=chi, chi_anomalous=chi_anom, eta=eta,
                            delta_q_2=delta_q_2)
