"""The benchmark harness in perfbench/ still runs on this tree: every
workload BENCHMARK.json names, at its tiny size and traced, passes the
harness's correctness gate in a fresh worker process started as
perfbench/run.py starts one.  A keyword, field or option the harness passes
or binds by name (a traced run rebinds the public functions too) that the
program no longer has fails here, not only in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_workload_passes_the_gate(tmp_path, workload):
    # run.py's worker environment: src on the path, one BLAS thread, a
    # fixed hash seed
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    work = tmp_path / "work"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--size", "tiny", "--realization", "0",
         "--work", str(work), "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "READY"
    ops = json.loads((work / "result.json").read_text())["ops"]
    assert ops
    failed = {op["name"]: op["problems"] for op in ops if not op["ok"]}
    assert not failed
