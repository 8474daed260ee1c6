"""Smoke test of the scripts in demos/: each runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
