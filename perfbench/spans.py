"""Span tracing installed from outside the program.

``Tracer.install`` wraps the public functions of the traced boqsim modules
(and ``cli.write_csv``/``cli.write_atomic``) and rebinds every name that
refers to them in every loaded boqsim module, so nested calls such as
``lindblad.qubit_shift_dephasing`` -> ``lindblad.steady_state`` or
``calibration.fit_lambda`` -> ``gamma_signal`` are recorded too.  Spans are
kept in memory; ``per_layer`` turns them into the per-layer metrics.

A span's self time is its duration minus the durations of its wrapped child
spans.  Counts are read from return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("lindblad", "scattering", "spectral", "dispersive",
                  "calibration")
CLI_FUNCTIONS = ("write_csv", "write_atomic")


def _count_liouvillian(span, _bound, out):
    span["unknowns"] = out.dim * out.dim
    span["nnz"] = int(out.matrix.nnz)


def _count_steady_state(span, bound, out):
    span["checked"] = bool(bound().arguments["check_convergence"])
    span["converged"] = bool(out.truncation_converged)


def _count_points(span, _bound, out):
    span["points"] = int(np.size(out))


def _count_fit(span, _bound, out):
    report = out[1] if isinstance(out, tuple) else out
    span["nfev"] = int(report.n_iter)
    span["converged"] = bool(report.converged)


COUNTERS = {
    "lindblad.build_liouvillian": _count_liouvillian,
    "lindblad.steady_state": _count_steady_state,
    "scattering.gamma_signal": _count_points,
}


class Tracer:
    """Spans of one worker process, kept in memory until it reports."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op = None  # name of the operation being run

    def span(self, name: str, fn, counter=None):
        """fn wrapped so that each call records a span."""
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "id": len(spans), "op": self.op,
                   "parent": stack[-1]["id"] if stack else None,
                   "child_s": 0.0}
            spans.append(rec)
            stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                dur = rec["end"] - rec["start"]
                rec["self_s"] = dur - rec.pop("child_s")
                if stack:
                    stack[-1]["child_s"] += dur
            if counter is not None:
                def bound():
                    b = signature.bind(*args, **kwargs)
                    b.apply_defaults()
                    return b
                counter(rec, bound, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions and rebind them where they are used."""
        targets = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"boqsim.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{short}.{attr}"
        cli = importlib.import_module("boqsim.cli")
        for attr in CLI_FUNCTIONS:
            targets[getattr(cli, attr)] = f"cli.{attr}"
        wrapped = {}
        for fn, name in targets.items():
            counter = COUNTERS.get(name)
            if name.startswith("calibration.fit_"):
                counter = _count_fit
            wrapped[fn] = self.span(name, fn, counter)
        # rebind in every namespace a caller may resolve the name from
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "boqsim" and not mod_name.startswith("boqsim."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def _sum(spans, key):
    return sum(s.get(key, 0) for s in spans)


def per_layer(spans: list[dict], cli_ops: set[str]) -> dict:
    """Per-layer metrics (without the import and overhead metrics)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def prefixed(prefix):
        return [s for n, group in by_name.items() if n.startswith(prefix)
                for s in group]

    m = {}
    for fn in ("build_liouvillian", "steady_state", "qubit_shift_dephasing",
               "chi_exact"):
        group = named(f"lindblad.{fn}")
        m[f"lindblad.{fn}.calls"] = len(group)
        m[f"lindblad.{fn}.self_s"] = _sum(group, "self_s")
    liou = named("lindblad.build_liouvillian")
    m["lindblad.unknowns"] = _sum(liou, "unknowns")
    m["lindblad.nnz"] = _sum(liou, "nnz")
    # complex128 value + int32 row index per stored entry
    m["lindblad.bytes_computed"] = m["lindblad.nnz"] * (16 + 4)
    checked = [s for s in named("lindblad.steady_state") if s.get("checked")]
    m["lindblad.truncation_checks"] = len(checked)
    m["lindblad.truncation_converged_ratio"] = (
        _sum(checked, "converged") / len(checked) if checked else 0.0)
    for fn in ("peak_gain", "gain_summary"):
        group = named(f"scattering.{fn}")
        m[f"scattering.{fn}.calls"] = len(group)
        m[f"scattering.{fn}.self_s"] = _sum(group, "self_s")
    gamma = named("scattering.gamma_signal")
    m["scattering.gamma_signal.self_s"] = _sum(gamma, "self_s")
    m["scattering.gamma_signal.points"] = _sum(gamma, "points")
    fits = prefixed("calibration.fit_")
    m["calibration.fit.calls"] = len(fits)
    m["calibration.fit.self_s"] = _sum(fits, "self_s")
    m["calibration.nfev"] = _sum(fits, "nfev")
    m["calibration.converged_ratio"] = (
        _sum(fits, "converged") / len(fits) if fits else 0.0)
    spectral = prefixed("spectral.")
    m["spectral.calls"] = len(spectral)
    m["spectral.self_s"] = _sum(spectral, "self_s")
    chi = named("dispersive.chi_transmon")
    m["dispersive.chi_transmon.calls"] = len(chi)
    m["dispersive.chi_transmon.self_s"] = _sum(chi, "self_s")
    m["cli.self_s"] = _sum([s for s in named("op")
                            if s["op"] in cli_ops], "self_s")
    m["cli.write_csv.self_s"] = _sum(named("cli.write_csv"), "self_s")
    m["cli.write_atomic.self_s"] = _sum(named("cli.write_atomic"), "self_s")
    return m
