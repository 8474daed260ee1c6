"""One workload run in one fresh process: set up, signal READY on stdout, run
every operation, then check the outputs against the stored references.

Run by ``run.py``, never by hand; it expects the environment ``run.py``
prepares (``PYTHONPATH`` pointing at ``src``, BLAS/OpenMP threads pinned).
The timed region starts after READY and ends after the last operation;
checking and reporting happen outside it.  The result is written as JSON to
``<work>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--realization", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _provenance() -> dict:
    import boqsim
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = "unavailable"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "boqsim": getattr(boqsim, "__version__", "unknown"),
            "boqsim_file": os.path.relpath(boqsim.__file__)}


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main(argv=None) -> int:
    args = _parse(argv)
    import boqsim.cli  # noqa: F401  (part of set-up: every run pays it)

    import workloads as wl

    work = Path(args.work)
    ctx = wl.build_context(args.workload, args.size, args.realization, work)
    ops = wl.operations(args.workload, args.size)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    results, errors, op_wall = {}, {}, {}
    t_start = time.perf_counter()
    for op in ops:
        run = op.run
        if tracer is not None:
            tracer.op = op.name
            run = tracer.span("op", op.run)
        t0 = time.perf_counter()
        try:
            results[op.name] = run(ctx)
        except (Exception, SystemExit) as exc:
            errors[op.name] = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        op_wall[op.name] = time.perf_counter() - t0
    wall_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness gate: every operation, every run
    reference = json.loads((HERE / "reference.json").read_text())
    reference = reference[args.size][args.workload]
    op_reports = []
    for op in ops:
        problems = []
        if op.name in errors:
            problems.append(errors[op.name])
        else:
            key = wl.reference_key(op, args.realization)
            try:
                values = op.values(ctx, results[op.name])
            except (Exception, SystemExit) as exc:
                problems.append(f"reading outputs failed: {exc!r}")
            else:
                if key not in reference:
                    problems.append(f"no reference value for {key}")
                else:
                    problems += wl.compare(values, reference[key])
        op_reports.append({"name": op.name, "ok": not problems,
                           "problems": problems[:5],
                           "wall_s": op_wall[op.name]})

    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "ops": op_reports, "provenance": _provenance()}
    if tracer is not None:
        from spans import per_layer

        cli_ops = {op.name for op in ops if op.name.startswith("cli.")}
        metrics = per_layer(tracer.spans, cli_ops)
        metrics["cli.bytes_written"] = sum(
            _tree_bytes(ctx.out_dir(name)) for name in cli_ops
            if ctx.out_dir(name).exists())
        result["metrics"] = metrics
        (work / "spans.json").write_text(json.dumps(tracer.spans))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
