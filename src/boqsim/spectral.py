"""Qubit spectral observables under squeezed photons: occupation,
Lamb/AC-Stark shifts and induced dephasing, for the detuned (Bogoliubov)
regime and the resonant-pump regime.

Rates in MHz; correlation lags in the matching 1/MHz time unit, so a rate
kappa decays as exp(-kappa * tau).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import BogoliubovFrame, DriveSpec, OscillatorParams, check_stable
from .dispersive import DispersiveResult

# Below |2 Omega_a| = COALESCENCE_FACTOR * kappa/2 the first-order-in-eta
# truncation degrades; results are flagged, not rejected.
COALESCENCE_FACTOR = 5.0


@dataclass(frozen=True)
class SpectralShift:
    """Qubit frequency shift and induced dephasing in MHz, referenced to
    pump off, from a closed form or from the Lindblad oracle
    (lindblad.qubit_shift_dephasing).  flags names the closed forms'
    validity warnings; the oracle sets none.
    """

    d_omega_q: float
    d_gamma_phi: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Moments:
    """Steady-state moments of the resonantly pumped oscillator."""

    n_mean: float
    a_sq: complex
    s_inf: float

    def var_x(self, theta: float) -> float:
        """<X_theta^2> = (2n + 1 + 2 Re(e^{-2i theta} <a^2>)) / 4."""
        return 0.25 * (2.0 * self.n_mean + 1.0 + self._rotated(theta))

    def var_p(self, theta: float) -> float:
        """<P_theta^2> = (2n + 1 - 2 Re(e^{-2i theta} <a^2>)) / 4."""
        return 0.25 * (2.0 * self.n_mean + 1.0 - self._rotated(theta))

    def _rotated(self, theta: float) -> float:
        return 2.0 * (cmath.exp(-2j * theta) * self.a_sq).real


def coalescence_flags(frame: BogoliubovFrame, kappa: float) -> tuple[str, ...]:
    if abs(2.0 * frame.omega_bog) <= COALESCENCE_FACTOR * kappa / 2.0:
        return ("near_coalescence",)
    return ()


def bo_occupation(frame: BogoliubovFrame, drive: DriveSpec) -> float:
    """Mean occupation n_alpha = n_d cosh^2 r + sinh^2 r.

    The first-order-in-eta anomalous correction time-averages out of the
    spectroscopic observables and is not added here; coalescence_flags
    reports the proximity to coalescence where it matters.
    """
    return drive.n_d * frame.cosh2 + frame.sinh2


def shift_undriven(res_r: DispersiveResult, res_0: DispersiveResult,
                   frame: BogoliubovFrame, kappa: float,
                   anomalous: float = 0.0) -> SpectralShift:
    """Pump-induced qubit shift and dephasing at zero drive, from the
    dispersive results at squeezing r (res_r) and at zero pump (res_0).

    d_omega = delta_q2[r] + chi[r] sinh^2 r - delta_q2[0]
        (two levels, delta_q2 = chi/2: chi[r] (1/2 + sinh^2 r) - chi[0]/2)
    d_gamma_phi = (chi[r]^2/kappa) sinh^2 r (1 + sinh^2 r)

    When the steady-state moment <alpha^2 + alpha^dag^2> (see
    anomalous_moment) is supplied, its product with res_r.chi_anomalous is
    added to d_omega; it matters at order kappa/Omega_a near coalescence
    and is dropped (the default) in the deep-detuned limit.
    """
    sh2 = frame.sinh2
    chi_r = res_r.chi
    lamb = res_r.delta_q_2 - res_0.delta_q_2
    thermal = chi_r * sh2
    anom = res_r.chi_anomalous * anomalous
    d_omega = lamb + thermal + anom
    d_gamma = chi_r * chi_r / kappa * sh2 * (1.0 + sh2)
    flags = coalescence_flags(frame, kappa)
    if abs(chi_r) > kappa / 10.0:
        flags = flags + ("strong_dispersive",)
    return SpectralShift(d_omega_q=d_omega, d_gamma_phi=d_gamma, flags=flags)


def shift_driven(chi_r: float, frame: BogoliubovFrame, drive: DriveSpec,
                 kappa: float) -> SpectralShift:
    """Drive-induced qubit shift and dephasing (resonant drive on the BO).

    d_omega = chi[r] n_d cosh^2 r
    d_gamma_phi = (2 chi[r]^2 / kappa) (1 + 2 sinh^2 r) n_d cosh^2 r

    No oracle checks it: the Lindblad oracle's drive sits at nu_p/2, not on
    the BO (see DriveSpec), and a steady state cannot hold a drive at the
    BO frequency.
    """
    nd_eff = drive.n_d * frame.cosh2
    d_omega = chi_r * nd_eff
    d_gamma = 2.0 * chi_r * chi_r / kappa * (1.0 + 2.0 * frame.sinh2) * nd_eff
    return SpectralShift(d_omega_q=d_omega, d_gamma_phi=d_gamma,
                         flags=coalescence_flags(frame, kappa))


def steady_moments(p: OscillatorParams) -> tuple[float, complex]:
    """Closed-form bare steady-state moments (<a^dag a>, <a^2>) for any
    stable pump setting (resonant or detuned); an unstable one raises
    StabilityError (core.check_stable).

    n = lam^2 / (2 C), C = kappa^2/4 + delta_a^2 - lam^2,
    <a^2> = i lam (2n + 1) / (kappa + 2 i delta_a).
    """
    n = 0.5 * p.lam * p.lam / check_stable(p)
    a_sq = 1j * p.lam * (2.0 * n + 1.0) / (p.kappa + 2j * p.delta_a)
    return n, complex(a_sq)


def bogoliubov_moments(n: float, a_sq: complex, frame: BogoliubovFrame
                       ) -> tuple[float, complex]:
    """Bogoliubov-mode moments (<alpha^dag alpha>, <alpha^2>) from the bare
    ones (n = <a^dag a>, a_sq = <a^2>), through the squeezing transform
    alpha = a cosh r + s a^dag sinh r with s = -sign(delta_a), the negated
    sign of frame.omega_bog.
    """
    ch, sh = math.cosh(frame.r), math.sinh(frame.r)
    s = -1.0 if frame.omega_bog > 0 else 1.0
    occupation = (ch * ch * n + sh * sh * (n + 1.0)
                  + 2.0 * s * ch * sh * a_sq.real)
    alpha_sq = (ch * ch * a_sq + sh * sh * a_sq.conjugate()
                + s * ch * sh * (2.0 * n + 1.0))
    return occupation, alpha_sq


def anomalous_moment(p: OscillatorParams, frame: BogoliubovFrame) -> float:
    """Steady-state <alpha^2 + alpha^dag^2> of the Bogoliubov mode.

    Nonzero because the dissipation acts in the bare basis; it scales like
    kappa/Omega_a and feeds the qubit shift through the anomalous coupling
    chi_anomalous.  (The Bogoliubov occupation itself is exactly sinh^2 r.)
    """
    return 2.0 * bogoliubov_moments(*steady_moments(p), frame)[1].real


def resonant_steady_state(p: OscillatorParams) -> Moments:
    """Closed-form steady-state moments for delta_a = 0, lam < kappa/2:
    steady_moments' n and <a^2> = i lam (2n + 1) / kappa, with
    S_inf = (kappa/2) / (kappa/2 - lam).
    """
    if p.delta_a != 0.0:
        raise ValueError("resonant_steady_state requires delta_a = 0")
    n_mean, a_sq = steady_moments(p)
    s_inf = (p.kappa / 2.0) / (p.kappa / 2.0 - p.lam)
    return Moments(n_mean=n_mean, a_sq=a_sq, s_inf=s_inf)


def resonant_shift(p: OscillatorParams, chi_0: float) -> SpectralShift:
    """Qubit shift and induced dephasing under a resonant pump
    (delta_a = 0), undriven, from the zero-pump dispersive strength chi_0:

    d_omega = (lam^2 / (2 (kappa^2/4 - lam^2))) chi_0 = n_mean chi_0
    d_gamma_phi = (chi_0^2/kappa) n_mean (1 + n_mean)
    """
    n_mean = resonant_steady_state(p).n_mean
    d_gamma = chi_0 * chi_0 / p.kappa * n_mean * (1.0 + n_mean)
    return SpectralShift(d_omega_q=n_mean * chi_0, d_gamma_phi=d_gamma)


def dephasing_from_correlation(chi: float, frame: BogoliubovFrame,
                               drive: DriveSpec, kappa: float) -> float:
    """Induced dephasing chi^2 * integral_0^inf C(tau) dtau by quadrature,
    with C the number-operator correlation of the (possibly driven)
    oscillator in the squeezed vacuum:

    C = sinh^2 r (1 + sinh^2 r) e^{-kappa|tau|}
        + n_d cosh^2 r (1 + 2 sinh^2 r) e^{-kappa|tau|/2}

    Adaptive quadrature over [0, 60/kappa] (truncation error ~ e^{-30});
    independent of the closed-form dephasing expressions it is used to
    check.
    """
    from scipy.integrate import quad

    sh2, ch2 = frame.sinh2, frame.cosh2

    def c_of_tau(t):
        return (sh2 * (1.0 + sh2) * np.exp(-kappa * t)
                + drive.n_d * ch2 * (1.0 + 2.0 * sh2)
                * np.exp(-kappa * t / 2.0))

    val, _ = quad(c_of_tau, 0.0, 60.0 / kappa, limit=400, epsabs=0.0,
                  epsrel=1e-12)
    return chi * chi * val
