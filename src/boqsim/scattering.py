"""Frequency-domain input-output responses of the pumped oscillator and the
qubit: signal/idler reflection, gain summaries and bandwidths, and the qubit
reflection line.

All probe frequencies `omega` are detunings from half the pump frequency
(rotating frame), in MHz, except gamma_qubit which takes absolute frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .core import OscillatorParams, check_stable


@dataclass(frozen=True)
class ComplexSpectrum:
    """Complex reflection spectrum on a strictly increasing frequency grid."""

    freqs: np.ndarray
    values: np.ndarray
    kind: str = "signal"  # signal | qubit

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if len(freqs) != len(values):
            raise ValueError("freqs and values must have equal length")
        if len(freqs) > 1 and not np.all(np.diff(freqs) > 0):
            raise ValueError("freqs must be strictly increasing")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PeakInfo:
    """One local maximum of the power reflection gain."""

    freq: float
    gain: float
    bw_3db: float


@dataclass(frozen=True)
class GainSummary:
    """Peak gain and 3 dB bandwidth of the highest top, and every top."""

    g_max: float
    peak_freq: float
    bw_3db: float
    peaks: tuple[PeakInfo, ...]

    @property
    def n_peaks(self) -> int:
        return len(self.peaks)


# The private helpers below take C = kappa^2/4 + delta_a^2 - lam^2 from
# check_stable, computed once per public call.


def _langevin_den(p: OscillatorParams, c: float, w: np.ndarray
                  ) -> np.ndarray:
    """D[omega] = C - omega^2 - i kappa omega, the determinant of the 2x2
    Langevin system."""
    return c - w * w - 1j * p.kappa * w


def _signal(p: OscillatorParams, c: float, w: np.ndarray) -> np.ndarray:
    """gamma_signal's Gamma_a[omega] on an array."""
    k, d = p.kappa, p.delta_a
    return -1.0 + (k * k / 2.0 - 1j * k * (w + d)) / _langevin_den(p, c, w)


def gamma_signal(p: OscillatorParams, omega) -> complex | np.ndarray:
    """Complex signal reflection Gamma_a[omega].

    Gamma_a = -1 + (kappa^2/2 - i kappa (omega + delta_a)) /
                   (kappa^2/4 + delta_a^2 - lam^2 - omega^2 - i kappa omega)
    """
    out = _signal(p, check_stable(p), np.asarray(omega, dtype=float))
    return out if np.ndim(out) else complex(out)


def gamma_idler(p: OscillatorParams, omega) -> complex | np.ndarray:
    """Complex idler conversion Gamma_i[omega] = i kappa lam / D[omega].

    Obtained from the 2x2 frequency-domain Langevin system for (a, a^dag);
    satisfies |Gamma_a|^2 - |Gamma_i|^2 = 1 for all omega.
    """
    c = check_stable(p)
    w = np.asarray(omega, dtype=float)
    out = 1j * p.kappa * p.lam / _langevin_den(p, c, w)
    return out if np.ndim(out) else complex(out)


def signal_spectrum(p: OscillatorParams, freqs) -> ComplexSpectrum:
    return ComplexSpectrum(freqs=np.asarray(freqs, dtype=float),
                           values=gamma_signal(p, freqs), kind="signal")


def _amplification(p: OscillatorParams, c: float, w: np.ndarray
                   ) -> np.ndarray:
    """|Gamma_a|^2 - 1 = |Gamma_i|^2 = kappa^2 lam^2 / ((C - w^2)^2 +
    kappa^2 w^2), C = kappa^2/4 + delta_a^2 - lam^2.

    Unlike |_signal|^2 - 1 it has no cancellation, so it keeps its
    relative precision however weak the pump: at lam = 1e-6 the gain sits
    within 2e-13 of 1, where the power gain is round-off noise.
    """
    k, l = p.kappa, p.lam
    x = w * w
    return (k * l) ** 2 / ((c - x) ** 2 + k * k * x)


class GridTooCoarseError(ValueError):
    """Grid fails to bracket the gain peaks for refinement."""


def _refine_peak(p: OscillatorParams, c: float, grid: np.ndarray, idx: int
                 ) -> tuple[float, float]:
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, len(grid) - 1)]
    if lo == hi:
        raise GridTooCoarseError("cannot bracket peak at grid edge")
    res = scipy.optimize.minimize_scalar(
        lambda w: -(np.abs(_signal(p, c, np.array([w]))) ** 2)[0],
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return float(res.x), float(-res.fun)


def _half_gain_width(p: OscillatorParams, c: float, gain: float) -> float:
    """Full width at half the power gain of a top, inf for gain <= 2.  The
    amplification K/((x - u)^2 + C^2 - u^2), K = kappa^2 lam^2, x = w^2,
    u = C - kappa^2/2, is a = gain/2 - 1 at x = u +- R, R^2 = K/a - (C^2 -
    u^2), and C^2 - u^2 = (kappa^2/2)(C + u) has no cancellation."""
    a = gain / 2.0 - 1.0
    if a <= 0.0:
        return math.inf
    k, l = p.kappa, p.lam
    u = c - k * k / 2.0
    q = (k * l) ** 2 / a
    r = math.sqrt(q - 0.5 * k * k * (c + u))
    if u > r:  # the dip at 0 falls below half: one top's width
        return 2.0 * r / (math.sqrt(u + r) + math.sqrt(u - r))
    # across both tops: u + r, formed as (K/a - C^2)/(r - u) for u < 0
    return 2.0 * math.sqrt(u + r if u >= 0.0 else (q - c * c) / (r - u))


def _local_maxima(amp: np.ndarray) -> list[int]:
    """Interior indices no lower than either neighbour and higher than one."""
    mid, left, right = amp[1:-1], amp[:-2], amp[2:]
    is_max = (mid >= left) & (mid >= right) & ((mid > left) | (mid > right))
    return (np.flatnonzero(is_max) + 1).tolist()


def _no_dip(p: OscillatorParams, c: float, w1: float, w2: float) -> bool:
    """Whether the amplification halfway between w1 and w2 is at least the
    lower of its two values there, to 8 round-offs: a smaller dip cannot be
    resolved.  It is unimodal in w^2, so two points near the tops +-w_pk
    see their dip at the midpoint, and two points on one top do not."""
    a1, mid, a2 = _amplification(p, c, np.array([w1, 0.5 * (w1 + w2), w2]))
    return mid >= min(a1, a2) * (1.0 - 8.0 * np.finfo(float).eps)


def peak_gain(p: OscillatorParams, grid) -> tuple[float, float]:
    """Refined (freq, gain) of the global power-gain maximum on the grid.

    Candidate grid maxima come from the cancellation-free amplification
    |Gamma_a|^2 - 1, so round-off wiggles of a near-unit gain are never
    refined; each candidate is then refined on the power gain itself.
    """
    c = check_stable(p)
    grid = np.asarray(grid, dtype=float)
    amp = _amplification(p, c, grid)
    maxima = _local_maxima(amp) or [int(np.argmax(amp))]
    best = max((_refine_peak(p, c, grid, i) for i in maxima),
               key=lambda fg: fg[1])
    return best


def gain_summary(p: OscillatorParams, grid) -> GainSummary:
    """Locate gain peak(s) on the grid with local refinement and measure the
    3 dB bandwidth (full width at half the peak's power gain) around each.

    As in peak_gain, the candidates are the grid maxima of the
    cancellation-free amplification |Gamma_a|^2 - 1, which has at most two
    (it is a Lorentzian in omega^2), so round-off wiggles of a near-unit gain
    are never refined or counted as peaks.  Each bw_3db is exact given the
    refined gain (_half_gain_width), and inf below gain 2, as |Gamma_a|^2 >= 1
    everywhere.  GridTooCoarseError is raised only for fewer than 5 grid
    points or no interior grid maximum (the grid misses every top, or
    lam = 0 and the gain is flat).
    """
    c = check_stable(p)
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 5:
        raise GridTooCoarseError("grid must contain at least 5 points")
    maxima = _local_maxima(_amplification(p, c, grid))
    if not maxima:
        raise GridTooCoarseError("no local gain maximum bracketed by grid")
    peaks = [PeakInfo(freq=f, gain=g, bw_3db=_half_gain_width(p, c, g))
             for f, g in (_refine_peak(p, c, grid, i) for i in maxima)]
    # merge refinements of one top: they land anywhere on it, as far apart
    # as it is flat to round-off, with no dip between them
    uniq: list[PeakInfo] = []
    for pk in sorted(peaks, key=lambda q: q.freq):
        if uniq and _no_dip(p, c, uniq[-1].freq, pk.freq):
            continue
        uniq.append(pk)
    best = max(uniq, key=lambda q: q.gain)
    return GainSummary(g_max=best.gain, peak_freq=best.freq,
                       bw_3db=best.bw_3db, peaks=tuple(uniq))


def fit_bandwidth(p: OscillatorParams) -> tuple[float, bool]:
    """Per-peak amplification bandwidth as a Lorentzian fit would report it.

    The amplification |Gamma_a|^2 - 1 = kappa^2 lam^2 / ((C - omega^2)^2 +
    kappa^2 omega^2) with C = kappa^2/4 + delta_a^2 - lam^2 is an exact
    Lorentzian in omega^2.  Linearizing around the peak gives the FWHM a
    local Lorentzian fit in omega measures:

    split peaks (C > kappa^2/2, at +-sqrt(C - kappa^2/2)):
        FWHM = kappa * sqrt(1 + kappa^2 / (4 (C - kappa^2/2)))  (per peak)
    merged peak (C <= kappa^2/2, at 0):
        FWHM = 2 C / sqrt(kappa^2 - 2 C)

    Returns (fwhm, split).  The split-peak value tends to kappa deep in the
    detuned regime (gain-independent bandwidth).  Both diverge at
    coalescence, C = kappa^2/2, where (inf, False) is returned.
    """
    c = check_stable(p)
    k = p.kappa
    u_pk = c - k * k / 2.0
    if u_pk > 0.0:
        return k * math.sqrt(1.0 + k * k / (4.0 * u_pk)), True
    if u_pk == 0.0:
        return math.inf, False
    return 2.0 * c / math.sqrt(k * k - 2.0 * c), False


def lambda_for_gain(kappa: float, g_target: float) -> float:
    """Pump amplitude at delta_a = 0 whose peak power gain (at omega = 0),
    G = 1 + kappa^2 lam^2 / (kappa^2/4 - lam^2)^2, is g_target:

        lam = (kappa/2) sqrt((sqrt(G) - 1) / (sqrt(G) + 1)).

    A target outside [1, inf), nan included, raises ValueError.
    """
    if not 1.0 <= g_target < math.inf:
        raise ValueError(f"target gain must be in [1, inf), got {g_target}")
    sq = math.sqrt(g_target)
    return kappa / 2.0 * math.sqrt((sq - 1.0) / (sq + 1.0))


def gamma_qubit(omega_abs, nu_q: float, gamma_1: float, gamma_t: float
                ) -> complex | np.ndarray:
    """Qubit reflection Gamma_q = -1 + gamma_1/(gamma_t/2 - i(omega - nu_q))."""
    if not (gamma_t >= gamma_1 > 0):
        raise ValueError("require gamma_t >= gamma_1 > 0")
    w = np.asarray(omega_abs, dtype=float)
    out = -1.0 + gamma_1 / (gamma_t / 2.0 - 1j * (w - nu_q))
    return out if np.ndim(out) else complex(out)


def qubit_spectrum(freqs, nu_q: float, gamma_1: float, gamma_t: float
                   ) -> ComplexSpectrum:
    return ComplexSpectrum(freqs=np.asarray(freqs, dtype=float),
                           values=gamma_qubit(freqs, nu_q, gamma_1, gamma_t),
                           kind="qubit")
