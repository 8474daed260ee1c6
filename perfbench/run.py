"""boqsim benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload datasets --seed 1 --seconds 35 \
        --trace 0

Workloads (see workloads.py): ``datasets`` (the closed-form CLI pipeline and a
calibration round trip), ``oracle_shift`` (``qubit_response --oracle``) and
``oracle_moments`` (``oracle_compare``, ``chi_sweep --oracle`` and a driven
steady state).

Every workload run is a fresh process (worker.py) with BLAS/OpenMP pinned to
one thread.  With ``--trace 0`` the benchmark spawns SETUP_ONLY processes that
only set up, then workload processes until ``--seconds`` have passed, taking
the CPUs in turn, and reports ``setup_s`` (process start to READY; median),
``wall_s`` (READY to the last output; best of the workers) and
``peak_rss_mb`` (median).  With ``--trace 1`` it runs the workload once
untraced and TRACED_RUNS times traced, checks that the traced counts repeat
exactly, measures per-module import time with ``python -X importtime``, and
reports the per-layer metrics.

Every operation's outputs are checked against perfbench/reference.json in
every run.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit and the provenance block.  Spans and full
results are written to .perfbench_out/.  Exit code: 0 when every output was
correct, 1 when not, 2 when the program or the references are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

THREADS = 1  # BLAS/OpenMP threads per process (the machine has 2 cores)
SETUP_ONLY = 2  # set-up-only processes per untraced run, besides workers
TRACED_RUNS = 2
IMPORTTIME_RUNS = 3
DEADLINE_S = 165.0  # a run must end within 180 s

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

IMPORTED_MODULES = ("core", "scattering", "calibration", "lindblad",
                    "spectral", "dispersive", "cli")
PER_LAYER = [
    ("lindblad.build_liouvillian.calls", "count"),
    ("lindblad.build_liouvillian.self_s", "s"),
    ("lindblad.unknowns", "count"),
    ("lindblad.nnz", "count"),
    ("lindblad.bytes_computed", "B"),
    ("lindblad.steady_state.calls", "count"),
    ("lindblad.steady_state.self_s", "s"),
    ("lindblad.qubit_shift_dephasing.calls", "count"),
    ("lindblad.qubit_shift_dephasing.self_s", "s"),
    ("lindblad.chi_exact.calls", "count"),
    ("lindblad.chi_exact.self_s", "s"),
    ("lindblad.truncation_checks", "count"),
    ("lindblad.truncation_converged_ratio", "ratio"),
    ("scattering.peak_gain.calls", "count"),
    ("scattering.peak_gain.self_s", "s"),
    ("scattering.gain_summary.calls", "count"),
    ("scattering.gain_summary.self_s", "s"),
    ("scattering.gamma_signal.self_s", "s"),
    ("scattering.gamma_signal.points", "count"),
    ("calibration.fit.calls", "count"),
    ("calibration.fit.self_s", "s"),
    ("calibration.nfev", "count"),
    ("calibration.converged_ratio", "ratio"),
    ("spectral.calls", "count"),
    ("spectral.self_s", "s"),
    ("dispersive.chi_transmon.calls", "count"),
    ("dispersive.chi_transmon.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_atomic.self_s", "s"),
    ("cli.bytes_written", "B"),
    *[(f"import.boqsim.{m}_s", "s") for m in IMPORTED_MODULES],
    ("import.scipy.optimize_s", "s"),
    ("trace.overhead_s", "s"),
]
# counts that must repeat exactly between two traced runs of one seed;
# cli.bytes_written is left out because oracle_report.json prints oracle
# values at full precision and their last digits vary from run to run
EXACT_COUNTS = [name for name, unit in PER_LAYER
                if unit in ("count", "B", "ratio")
                and name != "cli.bytes_written"]


class BenchError(RuntimeError):
    pass


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(wl.SIZES), default="full",
                    help="'tiny' is for the harness self-test")
    return ap.parse_args(argv)


class Runner:
    """Spawns worker processes for one benchmark run and collects them."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.realization = args.seed % wl.REALIZATIONS
        self.deadline = time.monotonic() + DEADLINE_S
        self.out = root / ".perfbench_out"
        self.work = root / ".perfbench_work"
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            env[var] = str(THREADS)
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    def worker(self, trace: int = 0, setup_only: bool = False) -> dict:
        """Run worker.py once; returns its result plus the measured setup_s
        and the process's elapsed time."""
        self.count += 1
        work = self.work / f"{self.args.workload}-{os.getpid()}-{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--size", self.args.size,
               "--realization", str(self.realization), "--work", str(work),
               "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        # a run's processes take turns on the CPUs: other tenants slow each
        # virtual CPU independently, so the best of the run sees them all
        cpu = self.cpus[self.count % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, text=True)
        finally:
            os.sched_setaffinity(0, self.cpus)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        self.remaining())
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            if line.strip() != "READY":
                proc.kill()
                proc.communicate()
                raise BenchError(f"worker did not start (exit "
                                 f"{proc.returncode})")
            proc.communicate(timeout=self.remaining())
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise BenchError(f"worker exited {proc.returncode}")
            if setup_only:
                return {"setup_s": setup_s}
            result = json.loads((work / "result.json").read_text())
            spans = work / "spans.json"
            if spans.exists():
                self.out.mkdir(exist_ok=True)
                shutil.move(str(spans), self.out / (
                    f"spans-{self.args.workload}-seed{self.args.seed}"
                    f"-{self.count}.json"))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker exceeded the run's time budget") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            shutil.rmtree(work, ignore_errors=True)
        result.update(setup_s=setup_s, elapsed_s=elapsed, cpu=cpu)
        return result

    def importtime(self) -> dict:
        """Cumulative import time of each boqsim module, in seconds."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import boqsim.cli"],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=self.remaining())
        if proc.returncode != 0:
            raise BenchError("import boqsim.cli failed:\n" + proc.stderr)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        out = {f"import.boqsim.{m}_s": cumulative.get(f"boqsim.{m}", 0.0)
               for m in IMPORTED_MODULES}
        out["import.scipy.optimize_s"] = cumulative.get("scipy.optimize", 0.0)
        return out


def _tally(results) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for res in results:
        for op in res["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                problems += [f"{op['name']}: {p}" for p in op["problems"]]
    return attempted, failed, problems


def measure(runner: Runner) -> tuple[dict, list[dict], dict]:
    """Untraced run: end-to-end metrics."""
    setups = [runner.worker(setup_only=True)["setup_s"]
              for _ in range(SETUP_ONLY)]
    results = []
    t_loop = time.monotonic()
    while True:
        res = runner.worker()
        results.append(res)
        setups.append(res["setup_s"])
        # another worker only if it should end by seconds + half a worker
        now = time.monotonic()
        if (now - t_loop + 0.5 * res["elapsed_s"] >= runner.args.seconds
                or now + 1.5 * res["elapsed_s"] > runner.deadline):
            break
    walls = [r["wall_s"] for r in results]
    metrics = {
        "setup_s": median(setups),
        # best of the run's workers: on a shared host, other tenants' load
        # only ever adds time, in stretches of seconds to minutes that a
        # median over a few workers does not average out
        "wall_s": min(walls),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }
    notes = {"setup_s": f"median of {len(setups)}",
             "wall_s": f"best of {len(walls)}; median {median(walls):.4g} s",
             "peak_rss_mb": f"median of {len(results)}"}
    return metrics, results, notes


def measure_traced(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    """Traced run: per-layer metrics and the exact-count self-check."""
    untraced = runner.worker()
    traced = [runner.worker(trace=1) for _ in range(TRACED_RUNS)]
    imports = [runner.importtime() for _ in range(IMPORTTIME_RUNS)]
    first = traced[0]["metrics"]
    metrics = {}
    for name in first:
        vals = [t["metrics"][name] for t in traced]
        metrics[name] = vals[0] if name in EXACT_COUNTS else median(vals)
    for name in imports[0]:
        metrics[name] = median([imp[name] for imp in imports])
    metrics["trace.overhead_s"] = (median([t["wall_s"] for t in traced])
                                   - untraced["wall_s"])
    mismatches = [
        f"count {name} differs between traced runs: "
        f"{[t['metrics'][name] for t in traced]}"
        for name in EXACT_COUNTS if name in first
        and len({t["metrics"][name] for t in traced}) != 1]
    return metrics, [untraced] + traced, mismatches


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _terminate(signum, _frame):
    # unwind through the finally blocks that stop the worker processes
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "boqsim" / "__init__.py").is_file():
        print("perfbench: run from the boqsim repository root "
              "(src/boqsim not found)", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("perfbench: perfbench/reference.json missing", file=sys.stderr)
        return 2
    runner = Runner(root, args)
    notes = {}
    try:
        if args.trace:
            metrics, results, problems = measure_traced(runner)
            wanted = PER_LAYER
        else:
            metrics, results, notes = measure(runner)
            problems = []
            wanted = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted, failed, op_problems = _tally(results)
    problems = op_problems + problems
    correct = not problems
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "noise_realization": runner.realization, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": THREADS,
        "git_commit": _git_commit(root),
        **results[0]["provenance"],
    }
    for name, unit in wanted:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {metrics[name]:.6g} {unit}{note}")
    if not args.trace:
        print(f"{'failed_share':40s} {failed / attempted:.6g} share  "
              f"({failed} of {attempted} operations)")
    for op in results[0]["ops"]:
        print(f"  op {op['name']:30s} {op['wall_s']:.4f} s")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": metrics[name], "unit": unit}
                           for name, unit in wanted}}
    runner.out.mkdir(exist_ok=True)
    (runner.out / f"result-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json").write_text(json.dumps(
        {**summary, "provenance": provenance, "problems": problems,
         "runs": results}, indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
