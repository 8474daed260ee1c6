"""Dispersive-coupling theory for a qubit/transmon coupled to a squeezed
oscillator: enhanced chi, second-order frequency renormalizations, dressed
loss-operator coefficients, and pump-amplitude conversion.
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
    delta_big : Delta[r] = delta_q - Omega_a[r] in MHz
    sigma_big : Sigma[r] = delta_q + Omega_a[r] in MHz
    chi_anomalous : coefficient of the (alpha^2 + h.c.) sigma_z/2 term, MHz
    eta : dispersive small parameter max(g e^r, kappa, gamma_1,
        gamma_phi)/min(|Delta|, |Sigma|)
    delta_q_2 : second-order qubit frequency renormalization, MHz
        (chi/2 for a two-level qubit)
    """

    chi: float
    delta_big: float
    sigma_big: float
    chi_anomalous: float
    eta: float
    delta_q_2: float = 0.0

    @property
    def dispersive_valid(self) -> bool:
        return self.eta < DISPERSIVE_ETA_MAX


@dataclass(frozen=True)
class DressedLossRates:
    """Coefficients of the dressed loss operators (MHz^(1/2) x dimensionless).

    For operators acting on both mode and qubit, the reported scalar is the
    Euclidean norm of the (alpha, alpha^dagger) coefficient pair.  Their
    Lindblad weights are third order in eta and are therefore excluded from
    the second-order master equation.
    """

    purcell_down: float
    purcell_up: float
    dressed_dephasing: float
    dressed_excitation: float
    dressed_relaxation: float
    kappa: float
    gamma_1: float
    gamma_phi: float


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
                 kappa: float = 0.0) -> DispersiveResult:
    """Dispersive strength of the qubit with q.n_levels levels, the model
    the oracle solves.

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
    return DispersiveResult(chi=chi, delta_big=delta_big, sigma_big=sigma_big,
                            chi_anomalous=chi_anom, eta=eta,
                            delta_q_2=delta_q_2)


def dressed_losses(q: TransmonParams, frame: BogoliubovFrame,
                   kappa: float) -> DressedLossRates:
    """Composite loss-operator coefficients after the dispersive transform."""
    g = q.g
    delta_big, sigma_big = _detunings(q.delta_q, frame)
    ch, sh = math.cosh(frame.r), math.sinh(frame.r)
    sk = math.sqrt(kappa)
    purcell_down = sk * (g * ch * ch / delta_big - g * sh * sh / sigma_big)
    purcell_up = sk * g * ch * sh * (1.0 / delta_big - 1.0 / sigma_big)
    s1 = math.sqrt(q.gamma_1)
    sphi = math.sqrt(q.gamma_phi / 2.0)
    dressed_dephasing = s1 * math.hypot(g * ch / delta_big, g * sh / sigma_big)
    # the sigma+ and sigma- parts of the first-order correction to
    # sqrt(gamma_phi/2) sigma_z: that correction is Hermitian, so their
    # coefficients are complex conjugates and the two rates are one norm
    dressed_flip = sphi * math.hypot(2.0 * g * ch / delta_big,
                                     2.0 * g * sh / sigma_big)
    return DressedLossRates(
        purcell_down=purcell_down,
        purcell_up=purcell_up,
        dressed_dephasing=dressed_dephasing,
        dressed_excitation=dressed_flip,
        dressed_relaxation=dressed_flip,
        kappa=kappa, gamma_1=q.gamma_1, gamma_phi=q.gamma_phi)


def pump_to_lambda(epsilon_p: float, g3: float, freq_a: float
                   ) -> tuple[float, float]:
    """Convert a pump amplitude to the two-photon amplitude.

    lam = 2 g3 epsilon_p / freq_a.  Also returns the RWA-validity ratio
    g3 * Pi / nu_p with Pi ~ epsilon_p / (3 nu_a) and nu_p ~ 2 nu_a.
    """
    if freq_a <= 0:
        raise ValueError("freq_a must be positive")
    lam = 2.0 * g3 * epsilon_p / freq_a
    pi_amp = epsilon_p / (3.0 * freq_a)
    rwa_ratio = g3 * pi_amp / (2.0 * freq_a)
    return lam, rwa_ratio
