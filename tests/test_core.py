"""Parameter types, stability thresholds, squeezing frame."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boqsim import (
    BogoliubovFrame,
    DriveSpec,
    OscillatorParams,
    StabilityError,
    TransmonParams,
    anomalous_moment,
    build_liouvillian,
    check_stable,
    fit_bandwidth,
    frame_of,
    gain_summary,
    gamma_idler,
    gamma_signal,
    lambda_coalescence,
    lambda_critical,
    peak_gain,
    qubit_shift_dephasing,
    resonant_shift,
    resonant_steady_state,
    signal_spectrum,
    steady_moments,
)


class TestParamValidation:
    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError, match="kappa"):
            OscillatorParams(freq_a=6940.0, kappa=0.0, delta_a=0.0)

    def test_lam_must_be_non_negative(self):
        with pytest.raises(ValueError, match="lam"):
            OscillatorParams(freq_a=6940.0, kappa=8.7, delta_a=0.0, lam=-1.0)

    def test_transmon_coupling_positive(self):
        with pytest.raises(ValueError, match="g"):
            TransmonParams(delta_q=-80.0, g=0.0)

    def test_transmon_levels(self):
        with pytest.raises(ValueError, match="n_levels"):
            TransmonParams(delta_q=-80.0, g=4.9, n_levels=1)

    def test_transmon_levels_are_an_integer(self):
        # 2.5 used to pass here and fail later, inside the operator build
        with pytest.raises(ValueError, match="n_levels must be an integer"):
            TransmonParams(delta_q=-80.0, g=4.9, n_levels=2.5)
        assert TransmonParams(delta_q=-80.0, g=4.9,
                              n_levels=np.int64(3)).n_levels == 3

    def test_gamma_t_is_gamma1_plus_twice_gamma_phi(self):
        q = TransmonParams(delta_q=-80.0, g=4.9, gamma_1=5.0, gamma_phi=2.2)
        assert q.gamma_t == pytest.approx(5.0 + 2.0 * 2.2)

    def test_drive_photon_number_non_negative(self):
        with pytest.raises(ValueError, match="n_d"):
            DriveSpec(n_d=-0.1)

    @pytest.mark.parametrize("field", ["freq_a", "kappa", "delta_a", "lam"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_oscillator_fields_must_be_finite(self, field, bad):
        kwargs = {"freq_a": 6940.0, "kappa": 8.7, "delta_a": 20.0, "lam": 1.0}
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OscillatorParams(**kwargs)

    @pytest.mark.parametrize("field", ["delta_q", "g", "chi_q", "gamma_1",
                                       "gamma_phi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_transmon_fields_must_be_finite(self, field, bad):
        kwargs = {"delta_q": -80.0, "g": 4.9, "chi_q": -114.0,
                  "gamma_1": 5.0, "gamma_phi": 2.2}
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TransmonParams(**kwargs)

    @pytest.mark.parametrize("field", ["n_d", "theta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_drive_fields_must_be_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DriveSpec(**{field: bad})

    def test_drive_has_no_detuning(self):
        # every closed form and the oracle put the drive at nu_p/2
        with pytest.raises(TypeError):
            DriveSpec(n_d=0.5, detuning_d=1.0)


class TestStabilityThresholds:
    def test_critical_amplitude_resonant(self):
        # at delta_a = 0 the instability threshold is kappa/2
        assert lambda_critical(8.7, 0.0) == pytest.approx(8.7 / 2.0)

    def test_critical_amplitude_detuned(self):
        assert lambda_critical(8.7, 30.0) == pytest.approx(
            math.sqrt(30.0 ** 2 + 8.7 ** 2 / 4.0))

    def test_coalescence_none_when_detuning_small(self):
        assert lambda_coalescence(8.7, 2.0) is None

    def test_coalescence_amplitude(self):
        assert lambda_coalescence(8.7, 30.0) == pytest.approx(
            math.sqrt(30.0 ** 2 - 8.7 ** 2 / 4.0))

    def test_coalescence_below_critical(self):
        l_co = lambda_coalescence(8.7, 30.0)
        assert l_co < lambda_critical(8.7, 30.0)

    def test_check_stable_gives_c(self):
        c = check_stable(OscillatorParams(freq_a=0.0, kappa=8.7,
                                          delta_a=30.0, lam=17.0))
        assert c == 8.7 * 8.7 / 4.0 + 30.0 * 30.0 - 17.0 * 17.0 > 0.0

    def test_check_stable_refuses_past_lambda_crit(self):
        assert lambda_critical(8.7, 0.0) < 5.0
        with pytest.raises(StabilityError, match="lambda_crit"):
            check_stable(OscillatorParams(freq_a=0.0, kappa=8.7,
                                          delta_a=0.0, lam=5.0))


# one resonant and one detuned pump past lambda_crit (4.35 and 20.468)
UNSTABLE = {"resonant": OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                                         lam=4.5),
            "detuned": OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0,
                                        lam=20.5)}
# lambda_crit - lam = 7.1e-15, but C = kappa^2/4 + delta_a^2 - lam^2 rounds
# to exactly 0.0: the gain and the moments divide by it
EDGE = OscillatorParams(freq_a=0.0, kappa=1.3323786876174037,
                        delta_a=-48.63142453435272, lam=48.635987298319)
GRID = np.linspace(-60.0, 60.0, 41)
FRAME = frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0,
                                  lam=10.0))
Q = TransmonParams(delta_q=-80.0, g=4.9)
ENTRY_POINTS = {
    "gamma_signal": lambda p: gamma_signal(p, 0.0),
    "gamma_idler": lambda p: gamma_idler(p, 0.0),
    "peak_gain": lambda p: peak_gain(p, GRID),
    "gain_summary": lambda p: gain_summary(p, GRID),
    "fit_bandwidth": fit_bandwidth,
    "signal_spectrum": lambda p: signal_spectrum(p, GRID),
    "steady_moments": steady_moments,
    "anomalous_moment": lambda p: anomalous_moment(p, FRAME),
    "build_liouvillian": build_liouvillian,
    "qubit_shift_dephasing": lambda p: qubit_shift_dephasing(p, Q),
}
RESONANT_ONLY = {
    "resonant_steady_state": resonant_steady_state,
    "resonant_shift": lambda p: resonant_shift(p, -0.1),
}


class TestOneStabilityRule:
    """Every entry point refuses an unstable pump with the one check's
    StabilityError, and with it the draw whose C rounds to zero."""

    @pytest.mark.parametrize("pump", sorted(UNSTABLE))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_unstable_pump_refused(self, entry, pump):
        with pytest.raises(StabilityError, match="lambda_crit"):
            ENTRY_POINTS[entry](UNSTABLE[pump])

    @pytest.mark.parametrize("entry", sorted(RESONANT_ONLY))
    def test_unstable_resonant_pump_refused(self, entry):
        with pytest.raises(StabilityError, match="lambda_crit"):
            RESONANT_ONLY[entry](UNSTABLE["resonant"])

    @pytest.mark.parametrize("entry", ["gamma_signal", "steady_moments",
                                       "fit_bandwidth"])
    def test_zero_c_refused(self, entry):
        assert EDGE.lam < lambda_critical(EDGE.kappa, EDGE.delta_a)
        with pytest.raises(StabilityError, match="lambda_crit"):
            ENTRY_POINTS[entry](EDGE)


class TestBogoliubovFrame:
    def test_tanh_2r_equals_pump_ratio(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=17.0)
        frame = frame_of(p)
        assert math.tanh(2.0 * frame.r) == pytest.approx(17.0 / 20.0)

    def test_squeezing_db(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=17.0)
        # e^{4r} = (1 + tanh 2r)/(1 - tanh 2r), so S = 5 log10 of that in dB
        assert frame_of(p).s_db == pytest.approx(
            5.0 * math.log10((1.0 + 0.85) / (1.0 - 0.85)), rel=1e-14)

    def test_renormalized_frequency_sign_follows_detuning(self):
        up = frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0,
                                       lam=10.0))
        dn = frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=-20.0,
                                       lam=10.0))
        assert up.omega_bog > 0 > dn.omega_bog
        assert up.omega_bog == pytest.approx(-dn.omega_bog)
        assert up.r == pytest.approx(dn.r)

    def test_hyperbolic_identity(self):
        frame = BogoliubovFrame(r=0.7, omega_bog=1.0)
        assert frame.cosh2 - frame.sinh2 == pytest.approx(1.0)

    def test_resonant_frame_undefined(self):
        # no squeezing frame is a ValueError, not a StabilityError: the pump
        # is stable
        with pytest.raises(ValueError, match="delta_a = 0") as info:
            frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                                      lam=1.0))
        assert not isinstance(info.value, StabilityError)

    def test_frame_undefined_at_or_beyond_detuning(self):
        with pytest.raises(ValueError, match="squeezing frame") as info:
            frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0,
                                      lam=20.0))
        assert not isinstance(info.value, StabilityError)

    @given(delta_a=st.floats(0.5, 500.0), ratio=st.floats(0.0, 0.999))
    def test_frequency_identity_property(self, delta_a, ratio):
        # Omega_a = delta_a / cosh(2r) = sign(delta_a) sqrt(delta_a^2 - lam^2)
        lam = ratio * delta_a
        p = OscillatorParams(freq_a=0.0, kappa=1.0, delta_a=delta_a, lam=lam)
        frame = frame_of(p)
        expected = math.sqrt(delta_a ** 2 - lam ** 2)
        assert frame.omega_bog == pytest.approx(expected, rel=1e-12,
                                                abs=1e-12)

