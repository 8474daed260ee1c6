"""Parameter types, stability thresholds, squeezing frame, config-file
reading."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from boqsim import (
    BogoliubovFrame,
    DriveSpec,
    OscillatorParams,
    StabilityError,
    TransmonParams,
    frame_of,
    lambda_coalescence,
    lambda_critical,
    validate,
)
from boqsim.core import parse_flat, read_config


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

    def test_validate_stable(self):
        rep = validate(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=30.0,
                                        lam=17.0))
        assert rep.stable
        assert rep.margin == pytest.approx(rep.lambda_crit - 17.0)
        assert rep.margin_to_coalescence == pytest.approx(
            rep.lambda_co - 17.0)

    def test_validate_unstable(self):
        rep = validate(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                                        lam=5.0))
        assert not rep.stable
        assert rep.margin < 0
        assert rep.margin_to_coalescence is None


class TestBogoliubovFrame:
    def test_tanh_2r_equals_pump_ratio(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=17.0)
        frame = frame_of(p)
        assert math.tanh(2.0 * frame.r) == pytest.approx(17.0 / 20.0)

    def test_squeezing_db(self):
        p = OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0, lam=17.0)
        frame = frame_of(p)
        assert frame.s_db == pytest.approx(
            10.0 * math.log10(math.exp(2.0 * frame.r)))

    def test_renormalized_frequency_sign_follows_detuning(self):
        up = frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0,
                                       lam=10.0))
        dn = frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=-20.0,
                                       lam=10.0))
        assert up.omega_bog > 0 > dn.omega_bog
        assert up.omega_bog == pytest.approx(-dn.omega_bog)
        assert up.r == pytest.approx(dn.r)

    def test_hyperbolic_identity(self):
        frame = BogoliubovFrame(r=0.7, s_db=0.0, omega_bog=1.0)
        assert frame.cosh2 - frame.sinh2 == pytest.approx(1.0)

    def test_resonant_frame_undefined(self):
        with pytest.raises(StabilityError, match="delta_a = 0"):
            frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=0.0,
                                      lam=1.0))

    def test_frame_undefined_at_or_beyond_detuning(self):
        with pytest.raises(StabilityError):
            frame_of(OscillatorParams(freq_a=0.0, kappa=8.7, delta_a=20.0,
                                      lam=20.0))

    @given(delta_a=st.floats(0.5, 500.0), ratio=st.floats(0.0, 0.999))
    def test_frequency_identity_property(self, delta_a, ratio):
        # Omega_a = delta_a / cosh(2r) = sign(delta_a) sqrt(delta_a^2 - lam^2)
        lam = ratio * delta_a
        p = OscillatorParams(freq_a=0.0, kappa=1.0, delta_a=delta_a, lam=lam)
        frame = frame_of(p)
        expected = math.sqrt(delta_a ** 2 - lam ** 2)
        assert frame.omega_bog == pytest.approx(expected, rel=1e-12,
                                                abs=1e-12)


class TestSerialization:
    def test_flat_round_trip(self):
        # an integer stays an int; a point or an exponent makes a float
        data = parse_flat("n_fock = 32\nkappa = 8.7\nlam = 1e2\n"
                          "name = abc\n")
        assert data == {"n_fock": 32, "kappa": 8.7, "lam": 100.0,
                        "name": "abc"}
        assert type(data["n_fock"]) is int and type(data["lam"]) is float

    def test_flat_comments_and_blank_lines(self):
        data = parse_flat("# header\n\nkappa = 8.7  # inline\n")
        assert data == {"kappa": 8.7}

    def test_flat_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_flat("kappa 8.7\n")

    def test_json_file_detected_by_content(self, tmp_path):
        path = tmp_path / "p.txt"
        data = {"kappa": 2.0, "delta_a_list": [0.0, 30.0], "lam_points": 3}
        path.write_text(json.dumps(data))
        assert read_config(path) == data
