"""Smoke test of the scripts in demos/: each runs to completion, and the
spectra gain_and_bandwidth.py writes hold the signal spectra they name."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boqsim import OscillatorParams, signal_spectrum

ROOT = Path(__file__).resolve().parents[1]

# gain_and_bandwidth.py's exported spectra: name -> (delta_a, lam), MHz
SPECTRA = {"resonant": (0.0, 3.37), "detuned": (30.0, 27.5),
           "merged": (30.0, 30.0)}


def check_spectra(out: Path) -> None:
    freqs = np.linspace(-70, 70, 1401)
    for name, (delta_a, lam) in SPECTRA.items():
        path = out / f"spectrum_{name}.csv"
        header = path.read_text().splitlines()[0]
        assert header == "freq_mhz,re,im,abs_db,phase_rad"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        vals = signal_spectrum(OscillatorParams(
            freq_a=6940.0, kappa=8.7, delta_a=delta_a, lam=lam), freqs).values
        expected = np.column_stack([freqs, vals.real, vals.imag,
                                    20.0 * np.log10(np.abs(vals)),
                                    np.angle(vals)])
        assert table.shape == (1401, 5)
        np.testing.assert_allclose(table, expected, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("script", ["calibration_round_trip.py",
                                    "gain_and_bandwidth.py",
                                    "qubit_shift_under_squeezing.py"])
def test_demo_runs(tmp_path, script):
    argv = [sys.executable, str(ROOT / "demos" / script)]
    if script == "gain_and_bandwidth.py":
        argv.append(str(tmp_path / "out"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if script == "gain_and_bandwidth.py":
        check_spectra(tmp_path / "out")
