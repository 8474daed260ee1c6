"""Regenerate perfbench/reference.json from the current program.

    python3 perfbench/make_reference.py            # from the repository root

The references are the outputs of the program as it stands, at every size
and every noise realization.  Regenerate them only when an output is meant
to change, and say why in the change that does it.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd(),
                                     prefix=".perfbench_ref.") as tmp:
        for size in wl.SIZES:
            reference[size] = {}
            for workload in wl.WORKLOADS:
                refs = reference[size][workload] = {}
                for op in wl.operations(workload, size):
                    realizations = (range(wl.REALIZATIONS) if op.seeded
                                    else [0])
                    for r in realizations:
                        work = Path(tmp) / f"{size}-{workload}-{r}"
                        ctx = wl.build_context(workload, size, r, work)
                        values = op.values(ctx, op.run(ctx))
                        refs[wl.reference_key(op, r)] = (
                            wl.reference_values(values))
                print(f"{size} {workload}: {len(refs)} references",
                      file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
