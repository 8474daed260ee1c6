"""Fitting pipelines for synthetic or measured spectra: pump amplitude from
reflection gain, tilted-circle qubit line fits, straddling-regime (g, chi_q)
extraction, and squeezing-enhanced chi.

Every fit that has to move solves through _least_squares, damped least
squares (scipy's trust-region reflective Levenberg-Marquardt variant) at one
set of settings.  A chi fit whose start passes the solver's first test
(max|J^T f| < _GTOL) returns that start without loading scipy.optimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy

from .core import OscillatorParams, lambda_critical
from .scattering import ComplexSpectrum, gamma_signal, lambda_for_gain


class DegenerateFitError(ValueError):
    """The data cannot constrain the requested parameters."""


@dataclass(frozen=True)
class FitReport:
    """Named fitted values, covariance and convergence diagnostics."""

    params: dict
    covariance: np.ndarray
    n_iter: int
    converged: bool
    flags: tuple[str, ...] = ()

    def stderr(self, name: str) -> float:
        idx = list(self.params).index(name)
        return float(np.sqrt(self.covariance[idx, idx]))


@dataclass(frozen=True)
class CircleModel:
    """Tilted-circle model of a reflection resonance.

    Gamma(omega) = offset + amp e^{i tilt} / (gamma_t/2 - i(omega - nu_q)),
    tracing a circle of radius amp/gamma_t in the complex plane.
    Reduces to the canonical qubit reflection when tilt = 0 and the
    accumulation point sits on the real axis.
    """

    radius: float
    tilt: float
    nu_q: float
    gamma_t: float


_GTOL = 1e-12  # the solver stops where max|J^T f| < _GTOL


def _least_squares(resid, x0, max_nfev: int, bounds=(-np.inf, np.inf)):
    """The solve every fit makes; only its budget and bounds vary."""
    return scipy.optimize.least_squares(resid, x0, bounds=bounds, xtol=1e-14,
                                        ftol=1e-14, gtol=_GTOL,
                                        max_nfev=max_nfev)


def _report(res, names, n_data, flags=()) -> FitReport:
    dof = max(n_data - len(names), 1)
    sigma2 = 2.0 * res.cost / dof
    jtj = res.jac.T @ res.jac
    try:
        cov = sigma2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.full((len(names), len(names)), np.nan)
    return FitReport(params=dict(zip(names, map(float, res.x))),
                     covariance=cov, n_iter=int(res.nfev),
                     converged=bool(res.status > 0), flags=flags)


def add_complex_noise(spectrum: ComplexSpectrum, snr_db: float,
                      rng: np.random.Generator) -> ComplexSpectrum:
    """Additive i.i.d. complex Gaussian noise at the given SNR (dB) relative
    to the RMS signal amplitude."""
    signal_rms = float(np.sqrt(np.mean(np.abs(spectrum.values) ** 2)))
    sigma = signal_rms * 10.0 ** (-snr_db / 20.0)
    noise = sigma / math.sqrt(2.0) * (
        rng.standard_normal(len(spectrum.values))
        + 1j * rng.standard_normal(len(spectrum.values)))
    return ComplexSpectrum(freqs=spectrum.freqs,
                           values=spectrum.values + noise,
                           kind=spectrum.kind)


# ---------------------------------------------------------------------------
# pump amplitude from the oscillator reflection


def _lambda_initial_guess(spectrum: ComplexSpectrum, kappa: float,
                          delta_a: float) -> float:
    l_crit = lambda_critical(kappa, delta_a)
    gains = np.abs(spectrum.values) ** 2
    i_pk = int(np.argmax(gains))
    w_pk, g_pk = spectrum.freqs[i_pk], gains[i_pk]
    if abs(delta_a) >= kappa / 2.0:
        # split peaks at +-sqrt(delta_a^2 - lam^2)
        lam2 = delta_a ** 2 - w_pk ** 2
        if lam2 > 0:
            return min(math.sqrt(lam2), 0.98 * l_crit)
    # invert the resonant peak-gain formula
    if g_pk > 1.0:
        return min(lambda_for_gain(kappa, g_pk), 0.98 * l_crit)
    return 0.1 * l_crit


def fit_lambda(spectrum: ComplexSpectrum, kappa: float,
               delta_a: float) -> FitReport:
    """Least-squares fit of the two-photon pump amplitude, the only free
    parameter of the signal reflection model."""
    l_crit = lambda_critical(kappa, delta_a)
    freqs = spectrum.freqs
    data = spectrum.values

    def resid(x):
        p = OscillatorParams(freq_a=0.0, kappa=kappa, delta_a=delta_a,
                             lam=float(x[0]))
        diff = gamma_signal(p, freqs) - data
        return np.concatenate([diff.real, diff.imag])

    x0 = np.array([_lambda_initial_guess(spectrum, kappa, delta_a)])
    res = _least_squares(resid, x0, 800, ([0.0], [0.999999 * l_crit]))
    flags = ()
    if res.x[0] > 0.99 * l_crit:
        flags = ("near_stability_boundary",)
    return _report(res, ["lam"], 2 * len(freqs), flags)


# ---------------------------------------------------------------------------
# tilted-circle fit of the qubit reflection line


def _circle_model(x, freqs):
    re_c, im_c, amp, tilt, nu_q, gamma_t = x
    return (re_c + 1j * im_c
            + amp * np.exp(1j * tilt) / (gamma_t / 2.0
                                         - 1j * (freqs - nu_q)))


def _kasa_circle(z: np.ndarray) -> tuple[complex, float]:
    """Algebraic (Kasa) circle fit: linear LSQ on x^2+y^2+ax+by+c=0."""
    x, y = z.real, z.imag
    a_mat = np.column_stack([x, y, np.ones_like(x)])
    rhs = -(x * x + y * y)
    coef, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    xc, yc = -coef[0] / 2.0, -coef[1] / 2.0
    rad2 = xc * xc + yc * yc - coef[2]
    if rad2 <= 0:
        raise DegenerateFitError("algebraic circle fit collapsed")
    return complex(xc, yc), math.sqrt(rad2)


def fit_circle(spectrum: ComplexSpectrum
               ) -> tuple[CircleModel, FitReport]:
    """Tilted-circle fit of a single reflection resonance.

    Extracts (nu_q, gamma_t) from circles of arbitrary orientation and
    position in the complex plane; gamma_1 and gamma_phi are deliberately
    not separated (only their sum gamma_t is identifiable under tilt).
    """
    freqs, data = spectrum.freqs, spectrum.values
    if len(freqs) < 6:
        raise DegenerateFitError("need at least 6 points for a circle fit")
    center0, radius0 = _kasa_circle(data)
    angles = np.unwrap(np.angle(data - center0))
    coverage = float(np.max(angles) - np.min(angles))
    if coverage < math.pi / 2.0:
        raise DegenerateFitError(
            f"arc coverage {math.degrees(coverage):.1f} deg < 90 deg")
    # phase progression: angle = tilt' + 2 atan(2(omega - nu_q)/gamma_t)
    i_mid = int(np.argmin(np.abs(angles - np.median(angles))))
    nu_q0 = float(freqs[i_mid])
    gamma_t0 = (freqs[-1] - freqs[0]) / 4.0

    def phase_resid(x):
        nu_q, gamma_t, phi0 = x
        return angles - (phi0 + 2.0 * np.arctan(2.0 * (freqs - nu_q)
                                                / gamma_t))

    pre = scipy.optimize.least_squares(
        phase_resid, [nu_q0, max(gamma_t0, 1e-6), 0.0],
        bounds=([-np.inf, 1e-9, -np.inf], [np.inf, np.inf, np.inf]))
    nu_q0, gamma_t0 = float(pre.x[0]), float(pre.x[1])
    # translate the circle geometry into model parameters:
    # center = offset + amp e^{i tilt}/gamma_t, radius = amp/gamma_t
    amp0 = radius0 * gamma_t0
    tilt0 = float(np.angle(data[i_mid] - center0)) - math.pi / 2.0
    offset0 = center0 - radius0 * np.exp(1j * tilt0)

    def resid(x):
        diff = _circle_model(x, freqs) - data
        return np.concatenate([diff.real, diff.imag])

    x0 = [offset0.real, offset0.imag, amp0, tilt0, nu_q0, gamma_t0]
    res = _least_squares(
        resid, x0, 2000,
        ([-np.inf, -np.inf, 0.0, -2 * math.pi, -np.inf, 1e-9],
         [np.inf, np.inf, np.inf, 2 * math.pi, np.inf, np.inf]))
    names = ["re_offset", "im_offset", "amp", "tilt", "nu_q", "gamma_t"]
    report = _report(res, names, 2 * len(freqs))
    amp, tilt, nu_q, gamma_t = res.x[2:]
    model = CircleModel(radius=float(amp / gamma_t), tilt=float(tilt),
                        nu_q=float(nu_q), gamma_t=float(gamma_t))
    return model, report


# ---------------------------------------------------------------------------
# straddling-regime (g, chi_q) extraction


def straddling_chi(delta: np.ndarray, g: float, chi_q: float) -> np.ndarray:
    """chi(Delta) = (2 g^2 / Delta) chi_q / (Delta + chi_q)."""
    delta = np.asarray(delta, dtype=float)
    return 2.0 * g * g / delta * chi_q / (delta + chi_q)


def fit_straddling(deltas, chis) -> FitReport:
    """Fit (g, chi_q) to dispersive strengths across the straddling window."""
    deltas = np.asarray(deltas, dtype=float)
    chis = np.asarray(chis, dtype=float)
    if len(deltas) < 3:
        raise DegenerateFitError("need at least 3 detunings")

    def resid(x):
        return straddling_chi(deltas, x[0], x[1]) - chis

    i_near = int(np.argmin(np.abs(deltas)))
    g0 = math.sqrt(abs(chis[i_near] * deltas[i_near]) / 2.0) or 1.0
    res, best_cost = None, np.inf
    for chi_q0 in (-30.0, -100.0, -300.0, 30.0):
        while np.any(np.abs(deltas + chi_q0) < 1e-6 * abs(chi_q0)):
            chi_q0 *= 1.03  # nudge the start off a pole of the model
        trial = _least_squares(resid, [g0, chi_q0], 2000)
        if trial.cost < best_cost:
            res, best_cost = trial, trial.cost
    if res is None:
        raise DegenerateFitError("no straddling fit converged")
    flags = ()
    same_side_zero = np.all(deltas > 0) or np.all(deltas < 0)
    shifted = deltas + res.x[1]
    same_side_pole = np.all(shifted > 0) or np.all(shifted < 0)
    if same_side_zero and same_side_pole:
        flags = ("poorly_conditioned_one_sided",)
    return _report(res, ["g", "chi_q"], len(deltas), flags)


# ---------------------------------------------------------------------------
# squeezing-enhanced chi from driven shift/dephasing data


def fit_chi_enhanced(n_d, d_omega, d_gamma, frame, kappa: float) -> FitReport:
    """Joint fit of d_omega = chi n_d cosh^2 r and
    d_gamma = (2 chi^2/kappa)(1 + 2 sinh^2 r) n_d cosh^2 r for scalar chi;
    data of unequal shapes, not finite or with no drive (no
    n_d cosh^2 r > 0) raise DegenerateFitError before any solve."""
    n_d, d_omega, d_gamma = (np.asarray(v, dtype=float)
                             for v in (n_d, d_omega, d_gamma))
    if not (n_d.shape == d_omega.shape == d_gamma.shape
            and np.isfinite([n_d, d_omega, d_gamma]).all()):
        raise DegenerateFitError("data not finite or of unequal shapes")
    ch2, sh2 = frame.cosh2, frame.sinh2
    nd_eff = n_d * ch2

    def resid(x):
        chi = x[0]
        return np.concatenate([
            d_omega - chi * nd_eff,
            d_gamma - 2.0 * chi * chi / kappa * (1.0 + 2.0 * sh2) * nd_eff])

    mask = nd_eff > 0
    if not mask.any():
        raise DegenerateFitError("no point has a drive, n_d cosh^2 r > 0")
    x0 = np.array([float(np.mean(d_omega[mask] / nd_eff[mask])) or -0.1])
    f = resid(x0)
    jac = -np.concatenate([nd_eff, 4.0 * x0[0] / kappa * (1.0 + 2.0 * sh2)
                           * nd_eff])[:, None]
    if np.max(np.abs(jac.T @ f)) < _GTOL:
        # least_squares' own first test (no bounds, linear loss), passed:
        # it would return x0 after this one evaluation
        res = SimpleNamespace(x=x0, cost=0.5 * np.dot(f, f), jac=jac,
                              nfev=1, status=1)
    else:
        res = _least_squares(resid, x0, 800)
    flags = ()
    if np.mean(d_gamma[mask] / nd_eff[mask]) < 0:
        flags = ("inconsistent_dephasing_sign",)
    return _report(res, ["chi"], 2 * len(n_d), flags)
