"""Shared parameter types, unit conventions and stability checks.

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

import json
import math
from dataclasses import dataclass
from pathlib import Path


class StabilityError(ValueError):
    """Raised when parameters are outside the stable / well-defined regime."""


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
    s_db : squeezing amplitude S = exp(2r) in dB
    omega_bog : renormalized frequency Omega_a = delta_a / cosh(2r), signed, MHz
    """

    r: float
    s_db: float
    omega_bog: float

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
    """Coherent drive on the oscillator at nu_p/2, the frame's frequency.

    n_d : mean injected photon number with the pump off, |eps_d|^2/kappa^2
    theta : drive phase in radians; theta = 0 puts the in-phase component
        along the squeezed quadrature (resonant-pump convention)
    """

    n_d: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        _require_finite(self, "n_d", "theta")
        _require(self.n_d >= 0, "n_d must be non-negative")


@dataclass(frozen=True)
class StabilityReport:
    """Stability diagnostics of a pumped oscillator.

    lambda_co is the coalescence amplitude sqrt(delta_a^2 - kappa^2/4)
    (None when |delta_a| < kappa/2); lambda_crit is the instability
    threshold: kappa/2 at delta_a = 0, sqrt(delta_a^2 + kappa^2/4) otherwise.
    margin is lambda_crit - lam (negative when unstable).
    """

    stable: bool
    lambda_co: float | None
    lambda_crit: float
    margin: float
    margin_to_coalescence: float | None


def lambda_coalescence(kappa: float, delta_a: float) -> float | None:
    """Pump amplitude where signal and idler peaks merge, or None."""
    if abs(delta_a) < kappa / 2.0:
        return None
    return math.sqrt(delta_a ** 2 - kappa ** 2 / 4.0)


def lambda_critical(kappa: float, delta_a: float) -> float:
    """Pump amplitude where the reflection gain diverges (kappa/2 at
    delta_a = 0)."""
    return math.sqrt(delta_a ** 2 + kappa ** 2 / 4.0)


def validate(params: OscillatorParams) -> StabilityReport:
    """Classify a parameter set as stable/unstable with threshold distances."""
    l_crit = lambda_critical(params.kappa, params.delta_a)
    l_co = lambda_coalescence(params.kappa, params.delta_a)
    stable = params.lam < l_crit
    return StabilityReport(
        stable=stable,
        lambda_co=l_co,
        lambda_crit=l_crit,
        margin=l_crit - params.lam,
        margin_to_coalescence=None if l_co is None else l_co - params.lam,
    )


def frame_of(params: OscillatorParams) -> BogoliubovFrame:
    """Diagonalizing squeezing frame for the detuned regime lam < |delta_a|.

    r = atanh(lam/|delta_a|)/2, S(dB) = 10 log10 e^{2r},
    Omega_a = delta_a/cosh(2r) = sign(delta_a) sqrt(delta_a^2 - lam^2).
    """
    if params.delta_a == 0.0:
        raise StabilityError("delta_a = 0: the squeezing frame is undefined "
                             "(resonant regime)")
    if params.lam >= abs(params.delta_a):
        raise StabilityError(
            f"lam = {params.lam} >= |delta_a| = {abs(params.delta_a)}: "
            "diagonalization undefined")
    r = 0.5 * math.atanh(params.lam / abs(params.delta_a))
    s_db = 10.0 * math.log10(math.exp(2.0 * r))
    omega_bog = params.delta_a / math.cosh(2.0 * r)
    return BogoliubovFrame(r=r, s_db=s_db, omega_bog=omega_bog)


# ---------------------------------------------------------------------------
# config files: flat "name = value" text or JSON; a repeated key is refused

def parse_flat(text: str) -> dict:
    """Parse `name = value` lines; `#` starts a comment; values are numbers."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'name = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            num = float(val)
        except ValueError:
            out[key] = val
            continue
        out[key] = int(num) if num.is_integer() and "." not in val and "e" not in val.lower() else num
    return out


def _unique_keys(pairs: list) -> dict:
    out: dict = {}
    for key, val in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = val
    return out


def read_config(path: str | Path) -> dict:
    """Read a flat-text or JSON file (JSON when it starts with '{')."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text, object_pairs_hook=_unique_keys)
    return parse_flat(text)
