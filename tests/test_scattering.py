"""Input-output reflection responses.

The independent oracle here is a direct numpy linear solve of the 2x2
frequency-domain Langevin system for (a[omega], a^dag[-omega]):

    A(omega) v = sqrt(kappa) v_in,
    A = [[kappa/2 + i(delta_a - omega), -i lam],
         [ i lam, kappa/2 - i(delta_a + omega)]],

with the input-output relation a_out = sqrt(kappa) a - a_in, so that
Gamma_a = kappa [A^-1]_00 - 1 and Gamma_i = kappa [A^-1]_01.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from boqsim import scattering
from boqsim import (
    ComplexSpectrum,
    GridTooCoarseError,
    OscillatorParams,
    StabilityError,
    fit_bandwidth,
    gain_summary,
    gamma_coupled,
    gamma_idler,
    gamma_qubit,
    gamma_signal,
    gmax_resonant,
    lambda_critical,
    lambda_for_gain,
    peak_gain,
    signal_spectrum,
)


def langevin_oracle(p: OscillatorParams, w: float) -> tuple[complex, complex]:
    """Reflection and conversion amplitudes from a raw 2x2 linear solve."""
    a_mat = np.array([
        [p.kappa / 2.0 + 1j * (p.delta_a - w), -1j * p.lam],
        [1j * p.lam, p.kappa / 2.0 - 1j * (p.delta_a + w)],
    ])
    inv = np.linalg.inv(a_mat)
    return p.kappa * inv[0, 0] - 1.0, p.kappa * inv[0, 1]


P_DETUNED = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=30.0, lam=25.0)
P_RESONANT = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=3.0)
# the grid gbw uses at delta_a = 30, kappa = 8.7
GBW_GRID = np.linspace(-86.1, 86.1, 2001)


class TestReflectionAmplitudes:
    @pytest.mark.parametrize("p", [P_DETUNED, P_RESONANT])
    def test_signal_matches_langevin_oracle(self, p):
        for w in np.linspace(-80.0, 80.0, 41):
            expect, _ = langevin_oracle(p, w)
            assert gamma_signal(p, w) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", [P_DETUNED, P_RESONANT])
    def test_idler_matches_langevin_oracle(self, p):
        for w in np.linspace(-80.0, 80.0, 41):
            _, expect = langevin_oracle(p, w)
            assert gamma_idler(p, w) == pytest.approx(expect, rel=1e-12)

    def test_zero_pump_is_passive_phase_only(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=0.0)
        vals = gamma_signal(p, np.linspace(-30, 30, 101))
        assert np.allclose(np.abs(vals), 1.0, atol=1e-12)
        assert np.allclose(gamma_idler(p, np.linspace(-30, 30, 5)), 0.0)

    def test_unstable_parameters_rejected(self):
        with pytest.raises(StabilityError):
            gamma_signal(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                                          lam=4.5), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(delta_a=st.floats(-60.0, 60.0), kappa=st.floats(0.5, 20.0),
           ratio=st.floats(0.0, 0.99), w=st.floats(-100.0, 100.0))
    def test_symplectic_identity_property(self, delta_a, kappa, ratio, w):
        lam = ratio * math.sqrt(delta_a ** 2 + kappa ** 2 / 4.0)
        p = OscillatorParams(freq_a=0.0, kappa=kappa, delta_a=delta_a,
                             lam=lam)
        ga, gi = gamma_signal(p, w), gamma_idler(p, w)
        assert abs(ga) ** 2 - abs(gi) ** 2 == pytest.approx(1.0, abs=1e-9)


class TestGainSummary:
    def test_resonant_single_peak_at_zero(self):
        summ = gain_summary(P_RESONANT, np.linspace(-40, 40, 801))
        assert summ.n_peaks == 1
        assert summ.peak_freq == pytest.approx(0.0, abs=1e-6)
        assert summ.g_max == pytest.approx(gmax_resonant(P_RESONANT),
                                           rel=1e-9)

    def test_detuned_split_peaks_near_sideband_frequencies(self):
        summ = gain_summary(P_DETUNED, np.linspace(-70, 70, 2001))
        assert summ.n_peaks == 2
        # peaks straddle zero, near +-sqrt(delta_a^2 - lam^2)
        guess = math.sqrt(30.0 ** 2 - 25.0 ** 2)
        freqs = sorted(pk.freq for pk in summ.peaks)
        assert freqs[0] == pytest.approx(-guess, abs=2.0)
        assert freqs[1] == pytest.approx(guess, abs=2.0)

    def test_merged_peak_above_coalescence(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=30.0, lam=29.9)
        summ = gain_summary(p, np.linspace(-70, 70, 2001))
        assert summ.n_peaks == 1
        assert summ.peak_freq == pytest.approx(0.0, abs=1e-6)

    def test_low_gain_peak_has_unbounded_halfwidth(self):
        # |Gamma_a|^2 >= 1 everywhere, so a peak below gain 2 never reaches
        # half its maximum
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=1.0)
        summ = gain_summary(p, np.linspace(-40, 40, 801))
        assert summ.g_max < 2.0
        assert math.isinf(summ.bw_3db)

    @pytest.mark.parametrize("p, grid, bw", [
        (P_RESONANT, np.linspace(-40, 40, 801), 3.0111),
        # gbw's 6 dB row at delta_a = 30: the dip at 0 falls below half,
        # and the width is one top's
        (OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=30.0,
                          lam=25.96016605), GBW_GRID, 15.154),
        # its 9 dB row: the dip stays above half, and the width spans both
        # tops
        (OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=30.0,
                          lam=28.04811425), GBW_GRID, 28.386),
    ], ids=["resonant", "split", "spanning"])
    def test_bandwidth_against_independent_crossing_solve(self, p, grid, bw):
        summ = gain_summary(p, grid)

        def excess(w):
            return abs(langevin_oracle(p, w)[0]) ** 2 - summ.g_max / 2

        w_pk = abs(summ.peak_freq)
        right = brentq(excess, w_pk, grid[-1], xtol=1e-12)
        if excess(0.0) < 0.0:
            width = right - brentq(excess, 0.0, w_pk, xtol=1e-12)
        else:
            width = 2.0 * right
        assert summ.bw_3db == pytest.approx(width, rel=1e-9)
        assert summ.bw_3db == pytest.approx(bw, rel=1e-4)

    def test_bandwidth_needs_no_grid_past_the_crossings(self):
        # the grid brackets the top at 0 but not the crossings at +-1.5
        wide = gain_summary(P_RESONANT, np.linspace(-40, 40, 801))
        narrow = gain_summary(P_RESONANT, np.linspace(-0.2, 0.2, 11))
        assert narrow.bw_3db == pytest.approx(wide.bw_3db, rel=1e-14)
        assert narrow.bw_3db == pytest.approx(3.011139212408, rel=1e-12)

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarseError):
            gain_summary(P_RESONANT, np.linspace(-40, 40, 4))

    def test_peak_gain_matches_summary(self):
        grid = np.linspace(-70, 70, 2001)
        freq, gain = peak_gain(P_DETUNED, grid)
        summ = gain_summary(P_DETUNED, grid)
        assert gain == pytest.approx(summ.g_max, rel=1e-12)
        assert freq == pytest.approx(summ.peak_freq, abs=1e-9)


def loop_local_maxima(gains: np.ndarray) -> list[int]:
    """Reference for scattering._local_maxima: the scalar loop it replaced."""
    return [i for i in range(1, len(gains) - 1)
            if gains[i] >= gains[i - 1] and gains[i] >= gains[i + 1]
            and (gains[i] > gains[i - 1] or gains[i] > gains[i + 1])]


def power_gain_candidates():
    """Context in which peak_gain/gain_summary take their candidate maxima
    from the power gain itself, as before the cancellation-free
    amplification was introduced."""
    return mock.patch.multiple(scattering,
                               _amplification=scattering._power_gain,
                               _local_maxima=loop_local_maxima)


def summary_or_error(p, grid):
    try:
        return scattering.gain_summary(p, grid)
    except GridTooCoarseError as exc:
        return type(exc)


def idler_power(p: OscillatorParams, w: np.ndarray) -> np.ndarray:
    """|Gamma_i|^2 = |Gamma_a|^2 - 1 from the raw 2x2 Langevin solve, one
    solve per frequency; it has no cancellation, as the power gain has."""
    a_mat = np.empty((len(w), 2, 2), dtype=complex)
    a_mat[:, 0, 0] = p.kappa / 2.0 + 1j * (p.delta_a - w)
    a_mat[:, 0, 1] = -1j * p.lam
    a_mat[:, 1, 0] = 1j * p.lam
    a_mat[:, 1, 1] = p.kappa / 2.0 - 1j * (p.delta_a + w)
    return np.abs(p.kappa * np.linalg.inv(a_mat)[:, 0, 1]) ** 2


def assert_closed_form_peaks(p: OscillatorParams, grid: np.ndarray,
                             summ, peak: tuple[float, float]) -> None:
    """Check peak_gain and gain_summary on grid against the closed form.

    The amplification A = K / D(x), x = w^2, K = kappa^2 lam^2, has
    D = (x - u)^2 + C^2 - u^2 with u = C - kappa^2/2, so A >= a holds on
    |x - u| <= R(a), R^2 = (x_pk - u)^2 + D_pk (A_pk / a - 1): its tops at
    +-w_pk = +-sqrt(max(u, 0)), their gain 1 + A_pk and the 3 dB crossings
    follow without a search.  summ is a GainSummary or, for a refusal,
    the GridTooCoarseError class.
    """
    k, d, lam = p.kappa, p.delta_a, p.lam
    c = k * k / 4.0 + d * d - lam * lam
    u = c - k * k / 2.0
    x_pk = max(u, 0.0)
    d_pk = (x_pk - u) ** 2 + c * c - u * u
    a_pk = (k * lam) ** 2 / d_pk
    g_pk, w_pk = 1.0 + a_pk, math.sqrt(x_pk)

    def x_range(a_excess):
        """x where A >= a_pk - a_excess."""
        r = math.sqrt((x_pk - u) ** 2
                      + d_pk * a_excess / (a_pk - a_excess))
        return max(u - r, 0.0), u + r

    def on_top(w):
        # within 1e-9 of the top's gain: the closed-form tolerance; the
        # refinement stops within ~1.5e-8 |w| of a top, which moves a
        # narrow peak's value by up to ~1e-12
        tol = 1e-9 * g_pk
        if tol >= a_pk:
            return True
        lo, hi = x_range(tol)
        return math.sqrt(lo) <= abs(w) <= math.sqrt(hi)

    # peak_gain: on a top in the grid's span, else inside the edge
    # interval of the higher grid edge (the first on a tie, as np.argmax)
    if grid[0] <= w_pk <= grid[-1] or grid[0] <= -w_pk <= grid[-1]:
        assert peak[1] == pytest.approx(g_pk, rel=1e-9)
        assert on_top(peak[0])
    else:
        amp = scattering._amplification(p, grid)
        edge, inner = (0, 1) if amp[0] >= amp[-1] else (-1, -2)
        assert peak[1] <= (1.0 + amp[edge]) * (1.0 + 1e-14)
        assert peak[1] >= (1.0 + amp[inner]) * (1.0 - 1e-14)
        assert peak[0] == pytest.approx(grid[edge], abs=abs(
            grid[edge] - grid[inner]))

    if isinstance(summ, type):
        # refused only where no grid point inside brackets a top
        assert int(np.argmax(idler_power(p, grid))) in (0, len(grid) - 1)
        return
    # the tops the grid resolves: those nearest (on the same side; one top
    # when w_pk = 0) to an interior grid point whose Langevin idler power
    # stands above both neighbours by more than `tie`, relative
    idler = idler_power(p, grid)

    def n_tops(tie):
        return len({math.copysign(w_pk, grid[i])
                    for i in range(1, len(grid) - 1)
                    if idler[i] >= (1.0 + tie) * max(idler[i - 1],
                                                     idler[i + 1])})

    # a grid maximum tied with a neighbour to round-off may or may not be
    # a candidate.  The dip at 0 between two tops is (u / C)^2 relative:
    # within 2 round-offs the two are one peak, as a single top is, and
    # between that and 1e-12 the refinements may or may not resolve it.
    dip = (u / c) ** 2 if u > 0.0 else 0.0
    eps = np.finfo(float).eps
    lowest = 1 if dip <= 1e-12 else max(n_tops(1e-12), 1)
    highest = 1 if dip <= 2.0 * eps else n_tops(-1e-12)
    assert lowest <= summ.n_peaks <= highest
    for pk in summ.peaks:
        assert pk.gain == pytest.approx(g_pk, rel=1e-9)
        assert on_top(pk.freq)
    assert summ.g_max == max(pk.gain for pk in summ.peaks)
    a_half = summ.g_max / 2.0 - 1.0
    if a_half <= 0.0:
        assert math.isinf(summ.bw_3db)
        return
    x_lo, x_hi = x_range(a_pk - a_half)
    # one crossing on either side of the top when the half level stands
    # above the dip, else the outer crossings of both sides
    bw = ((x_hi - x_lo) / (math.sqrt(x_hi) + math.sqrt(x_lo))
          if x_lo > 0.0 else 2.0 * math.sqrt(x_hi))
    assert summ.bw_3db == pytest.approx(bw, rel=1e-9, abs=1e-11)


class TestPeakCandidates:
    """Candidate peaks come from |Gamma_a|^2 - 1 = kappa^2 lam^2 /
    ((C - w^2)^2 + kappa^2 w^2), which has at most two maxima."""

    GRID = np.linspace(-70.0, 70.0, 2001)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=40))
    def test_vectorized_maxima_match_loop(self, values):
        gains = np.array(values, dtype=float)
        assert scattering._local_maxima(gains) == loop_local_maxima(gains)

    @pytest.mark.parametrize("lam", [1e-6, 1e-4])
    @pytest.mark.parametrize("delta_a, n_peaks", [(0.0, 1), (30.0, 2)])
    def test_weak_pump_reports_physical_peak_count(self, lam, delta_a,
                                                   n_peaks):
        # round-off wiggles of the near-unit power gain once counted as
        # 90-667 peaks here
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=delta_a, lam=lam)
        assert gain_summary(p, self.GRID).n_peaks == n_peaks

    def test_tied_grid_maxima_over_two_tops_are_two_peaks(self):
        # the tied grid maxima at +-0.499 bracket both tops, at +-0.798
        # with a real dip at 0 between them, and each refines to its own
        kappa = 7.54296875
        lam = 0.990234375 * lambda_critical(kappa, 38.5)
        p = OscillatorParams(freq_a=0.0, kappa=kappa, delta_a=38.5, lam=lam)
        span = 2.0 * (77.0 + 3.0 * kappa)
        summ = gain_summary(p, np.linspace(-span, span, 400))
        assert summ.n_peaks == 2
        w_pk = math.sqrt(kappa ** 2 / 4.0 + 38.5 ** 2 - lam ** 2
                         - kappa ** 2 / 2.0)
        for pk in summ.peaks:
            assert abs(pk.freq) == pytest.approx(w_pk, rel=1e-6)

    def test_unpumped_gain_has_no_peak(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=30.0, lam=0.0)
        with pytest.raises(GridTooCoarseError):
            gain_summary(p, self.GRID)

    def test_weak_pump_peak_sits_at_sideband(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=30.0, lam=1e-6)
        c = p.kappa ** 2 / 4.0 + p.delta_a ** 2 - p.lam ** 2
        w_pk = math.sqrt(c - p.kappa ** 2 / 2.0)
        freq, _ = peak_gain(p, self.GRID)
        assert abs(abs(freq) - w_pk) <= self.GRID[1] - self.GRID[0]

    def test_amplification_matches_langevin_idler(self):
        for p in (P_DETUNED, P_RESONANT):
            w = np.linspace(-80.0, 80.0, 41)
            expect = [abs(langevin_oracle(p, x)[1]) ** 2 for x in w]
            assert scattering._amplification(p, w) == pytest.approx(
                expect, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(kappa=st.floats(0.5, 20.0), delta_a=st.floats(-60.0, 60.0),
           ratio=st.floats(1e-4, 0.999), n=st.integers(201, 3000),
           reach=st.floats(0.3, 3.0), shift=st.floats(-0.5, 0.5))
    @example(kappa=8.7, delta_a=30.0, ratio=0.8, n=2001, reach=1.0,
             shift=0.0)
    @example(kappa=8.7, delta_a=0.0, ratio=0.5, n=2001, reach=1.0,
             shift=0.0)
    # grids whose gain falls to 1 + 1e-10: the power-gain reference refined
    # a round-off value (1 + 8.7e-11 against 1 + 4.9e-10 at the grid edge)
    # and counted a round-off wiggle as a second peak
    @example(kappa=0.5, delta_a=53.5, ratio=0.001, n=1422, reach=0.375,
             shift=0.0)
    @example(kappa=0.5, delta_a=53.5, ratio=0.001, n=1422, reach=0.375,
             shift=0.5)
    # an even grid puts two maxima, equal to round-off, at +-0.005 round
    # the one top at 0; they refined 7e-6 apart and counted as two peaks
    @example(kappa=0.5, delta_a=0.25, ratio=0.015625, n=390, reach=1.0,
             shift=0.0)
    # at coalescence (w_pk = 0) the top is flat to 1e-16 over +-3e-4: its
    # two refinements, 2.6e-4 apart, were two peaks when the dip test
    # compared without a round-off margin
    @example(kappa=8.7, delta_a=30.0, ratio=0.9791914500193486, n=2000,
             reach=1.0, shift=0.0)
    # gain 2.13 with the dip at 0 just below half of it: the half-width
    # march stepped over the dip and reported 57.42, the two tops' outer
    # crossings, for the closed form's 25.63
    @example(kappa=4.875, delta_a=30.0, ratio=0.7258085083781691, n=201,
             reach=1.0, shift=0.0)
    # grid maxima at +-0.156, tied exactly, bracket both tops at +-0.111:
    # two peaks, though the idler's round-off keeps only one maximum
    @example(kappa=1.0, delta_a=16.0, ratio=0.999, n=226, reach=1.0,
             shift=0.0)
    def test_refined_values_match_power_gain_candidates(
            self, kappa, delta_a, ratio, n, reach, shift):
        lam = ratio * lambda_critical(kappa, delta_a)
        p = OscillatorParams(freq_a=0.0, kappa=kappa, delta_a=delta_a,
                             lam=lam)
        c = kappa ** 2 / 4.0 + delta_a ** 2 - lam ** 2
        x_pk = max(0.0, c - kappa ** 2 / 2.0)
        assume(scattering._amplification(p, math.sqrt(x_pk)) >= 1e-6)
        span = reach * max(3.0 * kappa, 2.0 * abs(delta_a) + 3.0 * kappa)
        grid = np.linspace(-span, span, n) + shift * span

        new = summary_or_error(p, grid)
        new_peak = peak_gain(p, grid)
        assert_closed_form_peaks(p, grid, new, new_peak)
        amp = scattering._amplification(p, grid)
        # how far each grid maximum stands above its neighbours, relative
        # to the gain (0 on a tie)
        margin = min((min(amp[i] - amp[i - 1], amp[i] - amp[i + 1])
                      / (1.0 + amp[i]) for i in scattering._local_maxima(amp)),
                     default=math.inf)
        if amp.min() < 1e-6 or margin < 1e-12:
            # The reference's power gain is within 1e6 round-offs of 1
            # somewhere on this grid, where it can refine or count a
            # round-off wiggle, or a grid maximum stands within 1e3
            # round-offs of a neighbour, where its round-off can pick the
            # neighbour and so the other top: only the closed form checks.
            return
        with power_gain_candidates():
            ref = summary_or_error(p, grid)
            ref_peak = peak_gain(p, grid)

        assert new_peak[1] == pytest.approx(ref_peak[1], rel=1e-14)
        if isinstance(ref, type):
            assert new is ref
            return
        assert not isinstance(new, type)
        assert new.n_peaks == ref.n_peaks
        assert new.g_max == pytest.approx(ref.g_max, rel=1e-14)
        assert new.bw_3db == pytest.approx(ref.bw_3db, rel=1e-13)
        assert (new.peak_freq == ref.peak_freq
                or max(abs(new.peak_freq), abs(ref.peak_freq)) <= 1e-5)


class TestClosedFormGain:
    def test_gmax_resonant_matches_oracle(self):
        expect = abs(langevin_oracle(P_RESONANT, 0.0)[0]) ** 2
        assert gmax_resonant(P_RESONANT) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("g_db", [3.0, 6.0, 9.0, 12.0, 20.0])
    def test_lambda_for_gain_round_trip(self, g_db):
        g = 10.0 ** (g_db / 10.0)
        lam = lambda_for_gain(8.7, g)
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0, lam=lam)
        assert gmax_resonant(p) == pytest.approx(g, rel=1e-12)

    def test_lambda_for_gain_rejects_attenuation(self):
        with pytest.raises(ValueError):
            lambda_for_gain(8.7, 0.5)


class TestFitBandwidth:
    def exact_amplification_fwhm(self, p: OscillatorParams) -> float:
        """Numerical FWHM of |Gamma_a|^2 - 1 around its (positive) peak,
        computed through the raw Langevin oracle."""
        def amp(w):
            return abs(langevin_oracle(p, w)[0]) ** 2 - 1.0

        grid = np.linspace(0.0 if p.delta_a else -1e-3, 80.0, 4001)
        vals = np.array([amp(w) for w in grid])
        w_pk = grid[np.argmax(vals)]
        peak = np.max(vals)
        f = lambda w: amp(w) - peak / 2.0
        right = brentq(f, w_pk, 80.0, xtol=1e-10)
        if p.delta_a == 0.0:
            return 2.0 * right
        left = brentq(f, 1e-6, w_pk, xtol=1e-10)
        return right - left

    def test_split_regime_width(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=30.0, lam=20.0)
        fwhm, split = fit_bandwidth(p)
        assert split
        # closed form is the linearized per-peak width; agree within 5%
        assert fwhm == pytest.approx(self.exact_amplification_fwhm(p),
                                     rel=0.05)

    def test_merged_regime_width(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                             lam=0.45 * 8.7)
        fwhm, split = fit_bandwidth(p)
        assert not split
        assert fwhm == pytest.approx(self.exact_amplification_fwhm(p),
                                     rel=0.02)

    def test_deep_detuned_limit_is_kappa(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=500.0, lam=250.0)
        fwhm, split = fit_bandwidth(p)
        assert split
        assert fwhm == pytest.approx(8.7, rel=1e-3)


class TestSpectrumSerialization:
    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            ComplexSpectrum(freqs=np.array([1.0, 0.5]),
                            values=np.array([1.0 + 0j, 1.0 + 0j]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ComplexSpectrum(freqs=np.array([1.0]),
                            values=np.array([1.0 + 0j, 0j]))


class TestQubitReflection:
    def test_on_resonance_depth(self):
        # Gamma_q(nu_q) = -1 + 2 gamma_1 / gamma_t
        val = gamma_qubit(5000.0, nu_q=5000.0, gamma_1=5.0, gamma_t=9.4)
        assert val == pytest.approx(-1.0 + 2.0 * 5.0 / 9.4)

    def test_passive_bound(self):
        w = np.linspace(4990.0, 5010.0, 401)
        vals = gamma_qubit(w, nu_q=5000.0, gamma_1=5.0, gamma_t=9.4)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_rate_ordering_enforced(self):
        with pytest.raises(ValueError):
            gamma_qubit(0.0, nu_q=0.0, gamma_1=5.0, gamma_t=4.0)

    def test_coupled_response_has_two_dips(self):
        w = np.linspace(6900.0, 6980.0, 4001)
        vals = np.abs(gamma_coupled(w, nu_a=6940.0, kappa=8.7, nu_q=6941.0,
                                    gamma_t=9.4, g=4.9))
        interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
        assert int(np.sum(interior)) == 2
