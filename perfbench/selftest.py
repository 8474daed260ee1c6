"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py        # from the repository root

Checks that every run prints the result line the benchmark contract asks
for, with every named metric and its unit; that the layer predictions on
call counts hold; that the correctness gate catches a perturbed value; and
that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path.cwd()


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END, "BENCHMARK.json end_to_end differs from run.py"
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER, "BENCHMARK.json per_layer differs from run.py"
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def check_runs():
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = _bench("--workload", workload, "--seed", "0",
                          "--seconds", "1", "--trace", str(trace),
                          "--size", "tiny")
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert isinstance(result["attempted"], int)
            assert result["attempted"] >= 1
            wanted = run.PER_LAYER if trace else run.END_TO_END
            assert list(result["metrics"]) == [n for n, _ in wanted]
            for name, unit in wanted:
                entry = result["metrics"][name]
                assert entry["unit"] == unit, (name, entry)
                assert isinstance(entry["value"], (int, float))
                assert not isinstance(entry["value"], bool)
            metrics = {n: e["value"] for n, e in result["metrics"].items()}
            if trace and workload == "datasets":
                assert all(metrics[n] == 0 for n in metrics
                           if n.startswith("lindblad.")
                           and n.endswith(".calls")), metrics
            if trace and workload != "datasets":
                assert metrics["scattering.peak_gain.calls"] == 0, metrics
            if not trace:
                assert all(v > 0 for v in metrics.values()), metrics
            print(f"ok  {workload} trace {trace}")


def check_gate():
    values = {"x": (wl.CLOSED, [2.0, 0.0], False),
              "y": (wl.ORACLE, [1e-5], True),
              "flag": (wl.EXACT, ["a"], False)}
    ref = wl.reference_values(values)
    assert wl.compare(values, ref) == []
    near = {"x": (wl.CLOSED, [2.0 * (1 + 5e-10), 1e-13], False),
            "y": (wl.ORACLE, [1e-5 * (1 + 1e-12)], True),
            "flag": (wl.EXACT, ["a"], False)}
    assert wl.compare(near, ref) == []
    for key, bad in (("x", [2.0 * (1 + 5e-9), 0.0]), ("x", [2.0, 1e-11]),
                     ("y", [1e-5 + 1e-12]), ("flag", ["b"])):
        off = dict(values)
        off[key] = (values[key][0], bad, values[key][2])
        assert wl.compare(off, ref), (key, bad)
    missing = dict(values)
    del missing["y"]
    assert wl.compare(missing, ref)
    print("ok  correctness gate")


def check_refuses_without_program():
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "datasets",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == "", proc
    print("ok  refuses to run without src/boqsim")


def main() -> int:
    check_benchmark_json()
    check_gate()
    check_refuses_without_program()
    check_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
