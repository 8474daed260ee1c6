"""Parameter types, unit conventions, the stability rule, squeezing frame.

Unit convention: every frequency and rate is an ordinary frequency in MHz
(nu = omega / 2 pi).  All formulas in this package are ratio-homogeneous in
frequencies, so the 2 pi factors cancel throughout.  Correlation-function
lags are expressed in the matching time unit (1/MHz), i.e. a rate kappa in
MHz decays as exp(-kappa * tau).

Sign conventions: detunings are signed, delta_a = nu_a - nu_p/2 and
delta_q = nu_q - nu_p/2.  The squeezing parameter r is non-negative; the
sign of delta_a is carried by the renormalized frequency Omega_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class StabilityError(ValueError):
    """A pump at or past its instability threshold, lambda_crit
    (check_stable)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_finite(params, *names: str) -> None:
    for name in names:
        _require(math.isfinite(getattr(params, name)),
                 f"{name} must be finite")


@dataclass(frozen=True)
class OscillatorParams:
    """Pumped SNAIL-resonator parameters.

    freq_a : bare resonator frequency in MHz
    kappa : linewidth in MHz (must be > 0)
    delta_a : pump detuning in MHz, delta_a = nu_a - nu_p/2
    lam : two-photon pump amplitude in MHz (>= 0)
    """

    freq_a: float
    kappa: float
    delta_a: float
    lam: float = 0.0

    def __post_init__(self):
        _require_finite(self, "freq_a", "kappa", "delta_a", "lam")
        _require(self.kappa > 0, "kappa must be positive")
        _require(self.lam >= 0, "lam must be non-negative")


@dataclass(frozen=True)
class BogoliubovFrame:
    """Squeezing frame of a detuned-pump oscillator.

    r : dimensionless squeezing parameter (>= 0), tanh(2r) = lam/|delta_a|
    omega_bog : renormalized frequency Omega_a = delta_a / cosh(2r), signed, MHz
    """

    r: float
    omega_bog: float

    @property
    def s_db(self) -> float:
        """Squeezing amplitude S = exp(2r) in dB."""
        return 10.0 * math.log10(math.exp(2.0 * self.r))

    @property
    def sinh2(self) -> float:
        """sinh^2 r, the effective thermal occupancy of the squeezed bath."""
        return math.sinh(self.r) ** 2

    @property
    def cosh2(self) -> float:
        """cosh^2 r."""
        return math.cosh(self.r) ** 2


@dataclass(frozen=True)
class TransmonParams:
    """Transmon (or two-level qubit) parameters.

    delta_q : qubit detuning in MHz, delta_q = nu_q - nu_p/2
    g : resonant coupling in MHz (> 0)
    chi_q : anharmonicity in MHz (negative for a transmon, ~ -E_C/h)
    gamma_1 : relaxation rate in MHz (>= 0)
    gamma_phi : pure dephasing rate in MHz (>= 0)
    n_levels : number of retained levels (>= 2)
    """

    delta_q: float
    g: float
    chi_q: float = 0.0
    gamma_1: float = 0.0
    gamma_phi: float = 0.0
    n_levels: int = 2

    def __post_init__(self):
        _require_finite(self, "delta_q", "g", "chi_q", "gamma_1", "gamma_phi")
        _require(self.g > 0, "g must be positive")
        _require(self.n_levels >= 2, "n_levels must be >= 2")
        _require(self.gamma_1 >= 0 and self.gamma_phi >= 0,
                 "decay rates must be non-negative")

    @property
    def gamma_t(self) -> float:
        """Total linewidth gamma_t = gamma_1 + 2 gamma_phi in MHz."""
        return self.gamma_1 + 2.0 * self.gamma_phi


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive resonant with the Bogoliubov oscillator, as the closed
    forms (spectral.bo_occupation, shift_driven, dephasing_from_correlation)
    read it: it adds n_d cosh^2 r quanta, whatever the sign of delta_a and
    the drive's phase.

    n_d : drive strength, the quanta it adds with the pump off (r = 0)
    theta : drive phase in radians; no closed form reads it

    The Lindblad oracle means another drive: lindblad._hamiltonian puts
    eps = kappa sqrt(n_d) e^{i(theta - pi/4)} at nu_p/2, the frame's
    frequency, which adds n_d kappa^2 / (kappa^2 + 4 delta_a^2) quanta with
    the pump off, n_d only at delta_a = 0.
    """

    n_d: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        _require_finite(self, "n_d", "theta")
        _require(self.n_d >= 0, "n_d must be non-negative")


def lambda_coalescence(kappa: float, delta_a: float) -> float | None:
    """Pump amplitude where signal and idler peaks merge, or None."""
    if abs(delta_a) < kappa / 2.0:
        return None
    return math.sqrt(delta_a ** 2 - kappa ** 2 / 4.0)


def lambda_critical(kappa: float, delta_a: float) -> float:
    """Pump amplitude where the reflection gain diverges (kappa/2 at
    delta_a = 0)."""
    return math.sqrt(delta_a ** 2 + kappa ** 2 / 4.0)


def check_stable(params: OscillatorParams) -> float:
    """C = kappa^2/4 + delta_a^2 - lam^2 of a stable pump; StabilityError
    unless C > 0.

    C is the Langevin determinant D(omega) at omega = 0, which the gain and
    the steady-state moments divide by; C > 0 is lam < lambda_crit, decided
    in the rounding of the C they divide by.
    """
    k, d, l = params.kappa, params.delta_a, params.lam
    c = k * k / 4.0 + d * d - l * l
    if not c > 0.0:
        raise StabilityError(
            f"unstable pump: lam = {l} at or past lambda_crit = "
            f"{lambda_critical(k, d)}, C = {c:.3g} is not positive")
    return c


def frame_of(params: OscillatorParams) -> BogoliubovFrame:
    """Diagonalizing squeezing frame for the detuned regime lam < |delta_a|.

    r = atanh(lam/|delta_a|)/2, S(dB) = 10 log10 e^{2r},
    Omega_a = delta_a/cosh(2r) = sign(delta_a) sqrt(delta_a^2 - lam^2).
    Outside that regime (delta_a = 0, or lam >= |delta_a|, stable or not)
    there is no squeezing frame, and a plain ValueError is raised; whether
    the pump is stable is check_stable's question.
    """
    if params.delta_a == 0.0:
        raise ValueError("delta_a = 0: no squeezing frame (resonant regime)")
    if params.lam >= abs(params.delta_a):
        raise ValueError(
            f"lam = {params.lam} >= |delta_a| = {abs(params.delta_a)}: "
            "no squeezing frame")
    r = 0.5 * math.atanh(params.lam / abs(params.delta_a))
    omega_bog = params.delta_a / math.cosh(2.0 * r)
    return BogoliubovFrame(r=r, omega_bog=omega_bog)

