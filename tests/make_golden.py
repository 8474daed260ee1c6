"""The committed output contract of the CLI commands.

    PYTHONPATH=src python tests/make_golden.py

runs each entry of RUNS through boqsim.cli.main with --no-timestamp and
rewrites tests/golden/ from the outputs.  Each CSV is kept as its `#` block,
with the values of the *_version lines dropped, followed by its body; a body
of more than DIGEST_ABOVE lines is kept as its SHA-256 and every
ROW_STRIDE-th row.  A JSON report is kept as it is.  test_cli.
TestGoldenOutputs reruns the same commands and compares: every line and
cell exactly, but for the oracle's values (ORACLE_COLUMNS, and the JSON
leaves perfbench.workloads._json_values classes ORACLE), which it compares
with the benchmark's rule for oracle values, perfbench.workloads._close.  A
change that means to move an output regenerates these files in the same
commit, so the move shows as a diff.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

from boqsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# run name -> (command, config text or None, extra arguments)
RUNS = {
    "gain_map": ("gain_map", None, ()),
    "gbw": ("gbw", None, ()),
    "qubit_response": ("qubit_response", None, ()),
    "chi_sweep": ("chi_sweep", None, ()),
    "chi_sweep_snr30_seed3": ("chi_sweep", "snr_db = 30\n", ("--seed", "3")),
    "qubit_response_oracle": (
        "qubit_response", "delta_a_list = 20\nlam_points = 3\nn_fock = 32\n",
        ("--oracle",)),
    "oracle_compare_n_fock24": ("oracle_compare", "n_fock = 24\n", ()),
    "chi_sweep_oracle": ("chi_sweep", None, ("--oracle",)),
}

# CSV columns the Lindblad oracle writes
ORACLE_COLUMNS = ("d_omega_q_oracle", "d_gamma_phi_oracle", "chi_oracle")

DIGEST_ABOVE = 1000
ROW_STRIDE = 2000


def contract(run: str, work: Path) -> dict[str, str]:
    """Run RUNS[run] in the empty directory work; return the text of each
    golden file, keyed by its path under GOLDEN."""
    command, config, extra = RUNS[run]
    out = work / "out"
    argv = [command, "--out", str(out), "--no-timestamp", *extra]
    if config is not None:
        (work / "run.cfg").write_text(config)
        argv += ["--config", str(work / "run.cfg")]
    if cli.main(argv) != 0:
        raise RuntimeError(f"{run}: {' '.join(argv)} failed")
    files = {}
    for path in sorted(out.iterdir()):
        # read_text would turn each \r\n into \n
        text = path.read_bytes().decode()
        if path.suffix == ".json":
            files[f"{run}/{path.name}"] = text
            continue
        lines = text.splitlines(keepends=True)
        meta = [line.split(" = ")[0] + "\n" if "_version = " in line else line
                for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        if len(body) > DIGEST_ABOVE:
            digest = hashlib.sha256("".join(body).encode()).hexdigest()
            files[f"{run}/{path.name}.sha256"] = digest + "\n"
            body = body[:1] + body[1::ROW_STRIDE]
        files[f"{run}/{path.name}"] = "".join(meta + body)
    return files


def main() -> int:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for run in RUNS:
        with tempfile.TemporaryDirectory() as work:
            for name, text in contract(run, Path(work)).items():
                (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
                (GOLDEN / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
