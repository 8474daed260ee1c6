"""Command-line front end: reproduces the theory datasets (gain maps,
gain-bandwidth sweeps, qubit spectral response, chi enhancement) and runs
oracle comparisons, emitting self-describing CSV/JSON for external plotting.

Exit codes: 0 success, 2 config error, 3 numerical failure; errors are
reported as one-line JSON on stderr.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse.linalg import ArpackError

from . import calibration, dispersive, lindblad, scattering, spectral
from .core import (BogoliubovFrame, DriveSpec, OscillatorParams,
                   TransmonParams, frame_of, lambda_coalescence,
                   lambda_critical, read_config, validate)

# default squeezing-amplitude cap for qubit-facing sweeps (dB); keeps the
# oscillator occupancy at or below ~1.2 photons on every branch
S_DB_CAP = 8.0


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config and output plumbing


def _floats(raw) -> tuple[float, ...]:
    """A number, a JSON list of numbers, or comma-separated text."""
    if isinstance(raw, str):
        raw = [tok for tok in raw.split(",") if tok.strip()]
    return tuple(map(float, raw if isinstance(raw, list) else [raw]))


def _int(raw) -> int:
    if not float(raw).is_integer():
        raise ValueError(f"{raw!r} is not an integer")
    return int(float(raw))


_OSCILLATOR = {"kappa": (float, 8.7)}
_QUBIT = {**_OSCILLATOR, "delta_q": (float, None),
          "delta_q_offset": (float, -100.0), "g": (float, 4.9),
          "chi_q": (float, -114.0),
          "n_fock": (_int, None)}  # None: lindblad.default_n_fock per point
# the qubit's decay rates; chi_sweep takes none, as no column it writes
# depends on them
_RATES = {"gamma_1": (float, 5.0), "gamma_phi": (float, 2.2)}

# the config keys each command reads: name -> (type, default); a None
# default means absent or computed from other values
SCHEMA = {
    "gain_map": {**_OSCILLATOR,
                 "delta_a_list": (_floats, (0.0, 30.0, -30.0)),
                 "probe_span": (float, 60.0), "probe_points": (_int, 241),
                 "lam_points": (_int, 25), "lam_max_factor": (float, 0.98)},
    "gbw": {**_OSCILLATOR, "delta_a_list": (_floats, (0.0, 30.0)),
            "gains_db": (_floats, (3.0, 6.0, 9.0, 12.0))},
    "qubit_response": {**_QUBIT, **_RATES, "lam_points": (_int, 21),
                       "delta_a_list": (_floats, (0.0, 20.0, -20.0, 30.0,
                                                  -30.0, 40.0, -40.0))},
    "chi_sweep": {**_QUBIT, "delta_a_list": (_floats, (0.0, 20.0)),
                  "lam_points": (_int, 13), "snr_db": (float, None)},
    "oracle_compare": {**_QUBIT, **_RATES, "delta_a": (float, 20.0),
                       "lam": (float, 17.0), "lam_ratios": (
                           _floats, tuple(k / 10 for k in range(1, 10)))},
}


def _bad_value(kind, val) -> str | None:
    """What breaks the one rule for given values, or None: a list must be
    non-empty, every number (list entries included) finite, and an _int
    count >= 1."""
    vals = val if isinstance(val, tuple) else (val,)
    if not vals:
        return "empty list"
    if not all(map(math.isfinite, vals)):
        return f"non-finite value {val!r}"
    if kind is _int and val < 1:
        return f"count {val} is below 1"
    return None


def resolve_config(command: str, raw: dict) -> dict:
    """Every SCHEMA[command] key, typed; a missing or null value takes the
    default.  Unknown keys, values of the wrong type (a JSON boolean, list
    entries included, is not a number), values breaking _bad_value's rule,
    kappa <= 0, a gains_db entry <= 0 (no pump reaches a gain G <= 1) and
    n_fock < 4 raise ConfigError."""
    schema = SCHEMA[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {unknown}")
    cfg = {}
    for key, (kind, default) in schema.items():
        val = raw.get(key)
        if val is None:
            cfg[key] = default
            continue
        if any(isinstance(v, bool) for v in
               (val if isinstance(val, list) else [val])):
            raise ConfigError(f"config key {key!r}: boolean {val!r} is not "
                              "a number")
        try:
            cfg[key] = kind(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        problem = _bad_value(kind, cfg[key])
        if problem:
            raise ConfigError(f"config key {key!r}: {problem}")
    if not cfg["kappa"] > 0.0:
        raise ConfigError(f"kappa must be positive, got {cfg['kappa']}")
    if any(g_db <= 0.0 for g_db in cfg.get("gains_db", ())):
        raise ConfigError(f"config key 'gains_db': every target gain must "
                          f"be above 0 dB, got {cfg['gains_db']}")
    if cfg.get("n_fock") is not None and cfg["n_fock"] < 4:
        raise ConfigError(f"n_fock must be >= 4, got {cfg['n_fock']}")
    return cfg


def write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def meta_block(params: dict, timestamp: bool) -> str:
    lines = []
    if timestamp:
        lines.append(f"# generated: "
                     f"{datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    for key, val in params.items():
        lines.append(f"# {key} = {val}")
    return "\n".join(lines) + "\n"


def _spec(val) -> str:
    """The %-format of one cell: ten significant digits for a float
    (numpy float64 included), str for anything else."""
    return "%.10g" if isinstance(val, float) else "%s"


def _fmt(val) -> str:
    return _spec(val) % (val,)


# rows per % call on a float array: bounds the transient list of floats
_CHUNK_ROWS = 4096


def write_csv(path: Path, meta: dict, header: list[str], rows,
              timestamp: bool) -> None:
    """Write the metadata block, the header and the rows, each cell as
    _fmt writes it.

    rows is a 2-D float64 array, or a sequence of rows whose cells keep one
    _spec kind per column (float, or anything printed by str).  One row
    format, read off the first row, formats the whole table; a row whose
    cell kinds differ from the first row's raises ValueError."""
    body = [meta_block(meta, timestamp), ",".join(header) + "\n"]
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.dtype != np.float64:
            raise ValueError(f"expected a 2-D float64 table, got "
                             f"{rows.ndim}-D {rows.dtype}")
        line = ",".join([_spec(0.0)] * rows.shape[1]) + "\n"
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            body.append(line * len(chunk) % tuple(chunk.ravel().tolist()))
    elif rows:
        specs = list(map(_spec, rows[0]))
        for row in rows:
            if list(map(_spec, row)) != specs:
                raise ValueError(f"row {row!r} does not match the first "
                                 f"row's cell kinds {specs}")
        line = ",".join(specs) + "\n"
        body.append(line * len(rows) % tuple(v for row in rows for v in row))
    write_atomic(path, "".join(body))


def _oscillator(cfg: dict, delta_a: float, lam: float) -> OscillatorParams:
    try:
        return OscillatorParams(freq_a=0.0, kappa=cfg["kappa"],
                                delta_a=delta_a, lam=lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _transmon(cfg: dict, delta_a: float) -> TransmonParams:
    """Three levels, so chi_transmon and the oracle both keep the
    straddling term of the second excited level."""
    delta_q = cfg["delta_q"]
    delta_q = delta_a + cfg["delta_q_offset"] if delta_q is None else delta_q
    try:
        return TransmonParams(delta_q=delta_q, g=cfg["g"], chi_q=cfg["chi_q"],
                              gamma_1=cfg.get("gamma_1", 0.0),
                              gamma_phi=cfg.get("gamma_phi", 0.0),
                              n_levels=3)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _lam_cap_detuned(delta_a: float, kappa: float) -> float:
    """Largest pump amplitude kept in qubit-facing sweeps: the S_DB_CAP
    squeezing amplitude, also below coalescence, so below the critical line."""
    r_cap = S_DB_CAP * math.log(10.0) / 20.0
    lam = abs(delta_a) * math.tanh(2.0 * r_cap)
    l_co = lambda_coalescence(kappa, delta_a)
    if l_co is not None:
        lam = min(lam, 0.99 * l_co)
    return lam


def _lam_cap_resonant(kappa: float) -> float:
    """Pump amplitude where the resonant anti-squeezing reaches S_DB_CAP."""
    s_inf = 10.0 ** (S_DB_CAP / 10.0)
    return kappa / 2.0 * (1.0 - 1.0 / s_inf)


# ---------------------------------------------------------------------------
# commands


def cmd_gain_map(cfg: dict, out: Path, args) -> None:
    kappa, deltas = cfg["kappa"], cfg["delta_a_list"]
    probes = np.linspace(-cfg["probe_span"], cfg["probe_span"],
                         cfg["probe_points"])
    blocks, skipped = [], []
    for delta_a in deltas:
        l_crit = lambda_critical(kappa, delta_a)
        for lam in np.linspace(0.0, cfg["lam_max_factor"] * l_crit,
                               cfg["lam_points"]):
            p = _oscillator(cfg, delta_a, float(lam))
            if not validate(p).stable:
                skipped.append(f"delta_a={delta_a} lam={lam:.6g}: unstable")
                continue
            vals = scattering.gamma_signal(p, probes)
            with np.errstate(divide="ignore"):
                abs_db = 20.0 * np.log10(np.abs(vals))
            blocks.append(np.column_stack(np.broadcast_arrays(
                delta_a, lam, probes, abs_db, np.angle(vals))))
    meta = {"command": "gain_map", "kappa": kappa,
            "delta_a_list": ",".join(map(_fmt, deltas)),
            "probe_span": cfg["probe_span"],
            "probe_points": cfg["probe_points"],
            "lam_points": cfg["lam_points"], "seed": args.seed}
    write_csv(out / "gain_map.csv", meta,
              ["delta_a", "lam", "freq_mhz", "abs_db", "phase_rad"],
              np.concatenate(blocks), not args.no_timestamp)
    if skipped:
        write_atomic(out / "gain_map.log", "\n".join(skipped) + "\n")


def _lambda_at_gain(cfg: dict, kappa: float, delta_a: float,
                    g_target: float, grid: np.ndarray) -> float:
    """Pump amplitude whose refined peak gain equals g_target (monotone)."""
    def excess(lam):
        p = _oscillator(cfg, delta_a, lam)
        return scattering.peak_gain(p, grid)[1] - g_target

    l_hi = 0.9995 * lambda_critical(kappa, delta_a)
    if excess(l_hi) < 0:
        raise ValueError(f"target gain {g_target:.3g} unreachable below "
                         "the instability threshold")
    return float(scipy.optimize.brentq(excess, 1e-6, l_hi, xtol=1e-10))


def cmd_gbw(cfg: dict, out: Path, args) -> None:
    kappa, deltas = cfg["kappa"], cfg["delta_a_list"]
    rows = []
    for delta_a in deltas:
        span = max(3.0 * kappa, 2.0 * abs(delta_a) + 3.0 * kappa)
        grid = np.linspace(-span, span, 2001)
        l_co = lambda_coalescence(kappa, delta_a)
        for g_db in cfg["gains_db"]:
            g_target = 10.0 ** (g_db / 10.0)
            lam = _lambda_at_gain(cfg, kappa, delta_a, g_target, grid)
            p = _oscillator(cfg, delta_a, lam)
            summ = scattering.gain_summary(p, grid)
            bw_fit, split = scattering.fit_bandwidth(p)
            merged = int(l_co is not None and lam >= l_co)
            rows.append((delta_a, lam, 10.0 * math.log10(summ.g_max),
                         summ.peak_freq, summ.bw_3db, bw_fit,
                         summ.bw_3db * math.sqrt(summ.g_max),
                         summ.n_peaks, merged))
    meta = {"command": "gbw", "kappa": kappa,
            "delta_a_list": ",".join(map(_fmt, deltas)),
            "gains_db": ",".join(map(_fmt, cfg["gains_db"])),
            "seed": args.seed}
    write_csv(out / "gbw.csv", meta,
              ["delta_a", "lam", "g_max_db", "peak_freq", "bw_3db",
               "bw_fit", "bw_sqrt_g", "n_peaks", "merged"],
              rows, not args.no_timestamp)


def _qubit_sweep(cfg: dict):
    """The delta_a x lam grid of the qubit-facing commands, yielding
    (p, q, frame, chi0, s_db).  frame is None at delta_a = 0 (resonant, no
    squeezing frame); chi0 is the dispersive result at zero pump."""
    kappa = cfg["kappa"]
    for delta_a in cfg["delta_a_list"]:
        q = _transmon(cfg, delta_a)
        chi0 = dispersive.chi_transmon(q, BogoliubovFrame(
            r=0.0, s_db=0.0, omega_bog=delta_a), kappa=kappa)
        lam_max = (_lam_cap_resonant(kappa) if delta_a == 0.0
                   else _lam_cap_detuned(delta_a, kappa))
        for lam in np.linspace(0.0, lam_max, cfg["lam_points"]):
            p = _oscillator(cfg, delta_a, float(lam))
            if delta_a == 0.0:
                s_inf = spectral.resonant_steady_state(p).s_inf
                yield p, q, None, chi0, 10.0 * math.log10(s_inf)
            else:
                frame = frame_of(p)
                yield p, q, frame, chi0, frame.s_db


def cmd_qubit_response(cfg: dict, out: Path, args) -> None:
    shift_rows, deph_rows = [], []
    for p, q, frame, chi0, s_db in _qubit_sweep(cfg):
        if frame is None:
            res = spectral.resonant_driven_shift(p, chi0.chi, DriveSpec())
            flags = list(res.flags)
        else:
            chi_res = dispersive.chi_transmon(q, frame, kappa=p.kappa)
            res = spectral.shift_undriven(chi_res, chi0, frame, p.kappa)
            flags = list(res.flags)
            if not chi_res.dispersive_valid:
                flags.append("dispersive_invalid")
        shift = [p.delta_a, p.lam, s_db, res.d_omega_q]
        deph = [p.delta_a, p.lam, s_db, res.d_gamma_phi]
        if args.oracle:
            # as in chi_sweep, the oracle covers the detuned branch only
            orc = (None if frame is None else lindblad.qubit_shift_dephasing(
                p, q, cfg["n_fock"]))
            shift.append(float("nan") if orc is None else orc.d_omega_q)
            deph.append(float("nan") if orc is None else orc.d_gamma_phi)
        shift_rows.append((*shift, ";".join(flags)))
        deph_rows.append((*deph, ";".join(flags)))
    meta = {"command": "qubit_response", "kappa": cfg["kappa"],
            "delta_a_list": ",".join(map(_fmt, cfg["delta_a_list"])),
            "s_db_cap": S_DB_CAP, "oracle": int(args.oracle),
            "seed": args.seed}
    for name, col, rows in (("qubit_shift.csv", "d_omega_q", shift_rows),
                            ("qubit_dephasing.csv", "d_gamma_phi", deph_rows)):
        cols = [col, col + "_oracle"] if args.oracle else [col]
        write_csv(out / name, meta, ["delta_a", "lam", "s_db", *cols, "flags"],
                  rows, not args.no_timestamp)


def _fit_chi_synthetic(chi_true: float, frame, kappa: float,
                       snr_db: float | None,
                       rng: np.random.Generator) -> float:
    """Round-trip: generate driven shifts from the closed forms and fit a
    scalar chi back out of them."""
    n_ds = np.linspace(0.1, 0.6, 6)
    d_omega, d_gamma = [], []
    for n_d in n_ds:
        res = spectral.shift_driven(chi_true, frame, DriveSpec(n_d=n_d),
                                    kappa)
        d_omega.append(res.d_omega_q)
        d_gamma.append(res.d_gamma_phi)
    d_omega = np.array(d_omega)
    d_gamma = np.array(d_gamma)
    if snr_db is not None:
        scale = 10.0 ** (-snr_db / 20.0)
        d_omega = d_omega * (1.0 + scale * rng.standard_normal(len(n_ds)))
        d_gamma = d_gamma * (1.0 + scale * rng.standard_normal(len(n_ds)))
    rep = calibration.fit_chi_enhanced(n_ds, d_omega, d_gamma, frame, kappa)
    return rep.params["chi"]


def cmd_chi_sweep(cfg: dict, out: Path, args) -> None:
    rng = np.random.default_rng(args.seed)
    rows = []
    for p, q, frame, chi0, s_db in _qubit_sweep(cfg):
        if frame is None:
            # resonant branch: shift per intracavity photon; flat by
            # construction of the photon-number normalization
            chi_r = chi_fit = chi0.chi
        else:
            chi_r = dispersive.chi_transmon(q, frame, kappa=p.kappa).chi
            chi_fit = _fit_chi_synthetic(chi_r, frame, p.kappa,
                                         cfg["snr_db"], rng)
        row = [p.delta_a, p.lam, s_db, chi_r, chi_fit]
        if args.oracle:
            if frame is None:
                row.append(float("nan"))  # no squeezing frame at delta_a=0
            elif p.lam == 0.0:
                row.append(chi0.chi)
            else:
                row.append(lindblad.chi_exact(p, q, cfg["n_fock"]))
        rows.append(tuple(row))
    header = ["delta_a", "lam", "s_db", "chi_analytic", "chi_fit"]
    if args.oracle:
        header.append("chi_oracle")
    meta = {"command": "chi_sweep", "kappa": cfg["kappa"],
            "delta_a_list": ",".join(map(_fmt, cfg["delta_a_list"])),
            "snr_db": cfg["snr_db"], "oracle": int(args.oracle),
            "seed": args.seed}
    write_csv(out / "chi_vs_lambda.csv", meta, header, rows,
              not args.no_timestamp)


def _rel(err_num: float, ref: float) -> float:
    return abs(err_num - ref) / max(abs(ref), 1e-30)


def cmd_oracle_compare(cfg: dict, out: Path, args) -> None:
    kappa = cfg["kappa"]
    thetas = np.array([0.0, math.pi / 4.0, math.pi / 2.0])
    resonant = []
    for ratio in cfg["lam_ratios"]:
        p = _oscillator(cfg, 0.0, ratio * kappa / 2.0)
        mom = spectral.resonant_steady_state(p)
        liou = lindblad.build_liouvillian(p)
        res = lindblad.steady_state(liou, thetas=thetas)
        vx = np.array([mom.var_x(t) for t in thetas])
        vp = np.array([mom.var_p(t) for t in thetas])
        resonant.append({
            "lam_ratio": ratio,
            "n_mean_analytic": mom.n_mean, "n_mean_oracle": res.n_mean,
            "rel_err_n": _rel(res.n_mean, mom.n_mean),
            "rel_err_a_sq": abs(res.a_sq - mom.a_sq) / abs(mom.a_sq),
            "rel_err_var_max": float(max(
                np.max(np.abs(res.var_x - vx) / vx),
                np.max(np.abs(res.var_p - vp) / vp))),
            "n_fock": res.n_fock,
            "truncation_converged": res.truncation_converged,
        })
    delta_a, lam = cfg["delta_a"], cfg["lam"]
    p = _oscillator(cfg, delta_a, lam)
    q = _transmon(cfg, delta_a)
    frame = frame_of(p)
    chi_res = dispersive.chi_transmon(q, frame, kappa=kappa)
    chi_res0 = dispersive.chi_transmon(q, BogoliubovFrame(
        r=0.0, s_db=0.0, omega_bog=delta_a), kappa=kappa)
    anom = spectral.anomalous_moment(p, frame)
    ana = spectral.shift_undriven(chi_res, chi_res0, frame, kappa,
                                  anomalous=anom)
    orc = lindblad.qubit_shift_dephasing(p, q, cfg["n_fock"])
    chi_ed = lindblad.chi_exact(p, q, cfg["n_fock"])
    report = {
        "resonant_moments": resonant,
        "dispersive": {
            "params": {"kappa": kappa, "delta_a": delta_a, "lam": lam,
                       "delta_q": q.delta_q, "g": q.g, "chi_q": q.chi_q,
                       "gamma_1": q.gamma_1, "gamma_phi": q.gamma_phi},
            "d_omega_analytic": ana.d_omega_q,
            "d_omega_oracle": orc.d_omega_q,
            "rel_err_d_omega": _rel(orc.d_omega_q, ana.d_omega_q),
            "d_gamma_analytic": ana.d_gamma_phi,
            "d_gamma_oracle": orc.d_gamma_phi,
            "rel_err_d_gamma": _rel(orc.d_gamma_phi, ana.d_gamma_phi),
            "chi_analytic": chi_res.chi,
            "chi_exact": chi_ed,
            "rel_err_chi": _rel(chi_ed, chi_res.chi),
        },
    }
    write_atomic(out / "oracle_report.json",
                 json.dumps(report, indent=2) + "\n")


COMMANDS = {
    "gain_map": cmd_gain_map,
    "gbw": cmd_gbw,
    "qubit_response": cmd_qubit_response,
    "chi_sweep": cmd_chi_sweep,
    "oracle_compare": cmd_oracle_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boqsim",
        description="Squeezed-oscillator / qubit theory datasets and "
                    "oracle comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None,
                         help="flat 'name = value' or JSON parameter file; "
                              "keys are those of SCHEMA[command]")
        cmd.add_argument("--out", default=".", help="output directory")
        if name in ("qubit_response", "chi_sweep"):
            cmd.add_argument("--oracle", action="store_true",
                             help="add Lindblad-oracle columns (slow)")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp metadata line")
    return parser


def _report(exc: Exception, kind: str) -> int:
    """One-line JSON error on stderr; returns the exit code of its kind."""
    print(json.dumps({"error": str(exc), "kind": kind}), file=sys.stderr)
    return 2 if kind == "config" else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        raw = {} if args.config is None else read_config(args.config)
        cfg = resolve_config(args.command, raw)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        return _report(exc, "config")
    try:
        COMMANDS[args.command](cfg, out, args)
    except ConfigError as exc:
        return _report(exc, "config")
    except (lindblad.UnstableDynamics, lindblad.AmbiguousSector, ArpackError,
            ValueError) as exc:
        return _report(exc, "numerical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
