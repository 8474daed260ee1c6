"""Command-line front end: reproduces the theory datasets (gain maps,
gain-bandwidth sweeps, qubit spectral response, chi enhancement) and runs
oracle comparisons, emitting self-describing CSV/JSON for external plotting.

The one module that knows the config format: it reads the file, types
every value from SCHEMA and echoes the resolved config in each CSV's `#` block.

Exit codes: 0 success, 2 config error (an unreadable config, and an --out
that cannot be created or written, included), 3 numerical failure (an
ArithmeticError such as an overflow included); errors are reported as
one-line JSON on stderr.
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

from . import (__version__, calibration, dispersive, lindblad, scattering,
               spectral)
from .core import (BogoliubovFrame, DriveSpec, OscillatorParams,
                   StabilityError, TransmonParams, frame_of,
                   lambda_coalescence, lambda_critical)

# default squeezing-amplitude cap for qubit-facing sweeps (dB); keeps the
# oscillator occupancy at or below ~1.2 photons on every branch
S_DB_CAP = 8.0


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config files (flat "name = value" text or JSON; a repeated key is refused)
# and output plumbing


def parse_flat(text: str) -> dict:
    """Parse `name = value` lines into text values, typed later from
    SCHEMA; `#` starts a comment."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'name = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _unique_keys(pairs: list) -> dict:
    out: dict = {}
    for key, val in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = val
    return out


def read_config(path: str | Path) -> dict:
    """Read a flat-text or JSON file (JSON when it starts with '{')."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text, object_pairs_hook=_unique_keys)
    return parse_flat(text)


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
          "n_fock": (_int, None)}  # None: the default truncation per point
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
    default.  Unknown keys, delta_q given with delta_q_offset, values of the
    wrong type (a JSON boolean, list entries included, is not a number),
    values breaking _bad_value's rule, kappa <= 0, a gains_db entry <= 0 (no
    pump reaches a gain G <= 1) and n_fock < 4 raise ConfigError."""
    schema = SCHEMA[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {unknown}")
    # read off the raw keys, as the resolved offset always has a default
    if all(raw.get(key) is not None for key in ("delta_q", "delta_q_offset")):
        raise ConfigError("give delta_q or delta_q_offset, not both: a fixed "
                          "delta_q would ignore the offset")
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


def write_atomic(path: Path, chunks) -> None:
    """Write the str chunks in turn to a temporary file beside path, then
    move it over path; an error on the way, raised by the chunks' iterator
    too, leaves path as it was and removes the temporary file.  One string
    goes in as a one-item sequence.  The file gets the mode open(path, "w")
    gives a new file, 0o666 less the umask, not mkstemp's 0o600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spec(val) -> str:
    """The %-format of one cell: ten significant digits for a float
    (numpy float64 included), str for anything else."""
    return "%.10g" if isinstance(val, float) else "%s"


def _fmt(val) -> str:
    return _spec(val) % (val,)


# rows per % call on a float block: bounds the transient list of floats
# and the string written at once
_CHUNK_ROWS = 4096


def meta_block(command: str, cfg: dict, args) -> str:
    """The `#` lines opening each CSV: the timestamp unless --no-timestamp,
    the command, every resolved SCHEMA[command] value, defaults included,
    oracle where the command takes --oracle, the seed and the versions."""
    lines = []
    if not args.no_timestamp:
        now = datetime.datetime.now(datetime.timezone.utc)
        lines.append(f"generated: {now.isoformat()}")
    lines.append(f"command = {command}")
    for key, val in cfg.items():
        if isinstance(val, tuple):
            val = ",".join(map(_fmt, val))
        lines.append(f"{key} = {val}")
    if "oracle" in args:
        lines.append(f"oracle = {int(args.oracle)}")
    lines += [f"seed = {args.seed}", f"boqsim_version = {__version__}",
              f"numpy_version = {np.__version__}",
              f"scipy_version = {scipy.__version__}"]
    return "".join(f"# {line}\n" for line in lines)


def write_csv(path: Path, meta: str, header: list[str], rows) -> None:
    """Write the metadata block meta (meta_block's lines), the header and
    the rows, each cell as _fmt writes it.

    rows is a list of rows whose cells keep one _spec kind per column
    (float, or anything printed by str): one row format, read off the first
    row, formats them all, and a row whose cell kinds differ from the first
    row's raises ValueError.  Otherwise rows is an iterable of float
    blocks, written in turn as they come, each a 2-D float64 array of
    len(header) columns; any other block raises ValueError.  A block's
    column is formatted once when its bits are the same in every row, or
    the same as the previous block's column; the bytes are those of
    formatting each cell on its own with %.10g either way."""
    write_atomic(path, _csv_chunks(meta, header, rows))


def _csv_chunks(meta: str, header: list[str], rows):
    """write_csv's text, _CHUNK_ROWS rows of a float block at a time.

    A float block's row format holds a column's text when the column is
    bitwise constant over the block; %s when it is bitwise equal to the
    previous block's column, fed with the cells formatted the first time
    it repeated; and %.10g otherwise.  Only the previous block's bits and
    the cells of its repeated columns outlive a block."""
    yield meta + ",".join(header) + "\n"
    if isinstance(rows, list):
        if rows:
            specs = list(map(_spec, rows[0]))
            for row in rows:
                if list(map(_spec, row)) != specs:
                    raise ValueError(f"row {row!r} does not match the first "
                                     f"row's cell kinds {specs}")
            line = ",".join(specs) + "\n"
            yield line * len(rows) % tuple(v for row in rows for v in row)
        return
    spec = _spec(0.0)
    prev, repeats = None, {}
    for block in rows:
        if not (isinstance(block, np.ndarray) and block.ndim == 2
                and block.dtype == np.float64
                and block.shape[1] == len(header)):
            raise ValueError(
                f"expected 2-D float64 blocks of {len(header)} columns, got "
                f"{np.shape(block)} {getattr(block, 'dtype', type(block))}")
        if not len(block):
            continue
        # bits, not values: == would take -0.0 for 0.0 and never match NaN
        bits = block.view(np.uint64)
        const = (bits == bits[0]).all(axis=0)
        same = ((bits == prev).all(axis=0)
                if prev is not None and prev.shape == bits.shape
                else np.zeros_like(const))
        cells, cols, texts = [], [], {}
        for j in range(block.shape[1]):
            if const[j]:
                cells.append(spec % float(block[0, j]))
            elif same[j]:
                texts[j] = repeats.get(j) or [spec % v
                                              for v in block[:, j].tolist()]
                cells.append("%s")
                cols.append(texts[j])
            else:
                cells.append(spec)
                cols.append(block[:, j])
        prev, repeats = bits.copy(), texts
        line = ",".join(cells) + "\n"
        for start in range(0, len(block), _CHUNK_ROWS):
            parts = [col[start:start + _CHUNK_ROWS] for col in cols]
            n = min(_CHUNK_ROWS, len(block) - start)
            args = [None] * (n * len(parts))
            for j, part in enumerate(parts):
                args[j::len(parts)] = (part if isinstance(part, list)
                                       else part.tolist())
            yield line * n % tuple(args)


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


def _lam_cap(delta_a: float, kappa: float) -> float:
    """Largest pump amplitude kept in qubit-facing sweeps: where the
    anti-squeezing reaches S_DB_CAP, on a detuned branch also below
    coalescence, so below the critical line."""
    if delta_a == 0.0:
        return kappa / 2.0 * (1.0 - 1.0 / 10.0 ** (S_DB_CAP / 10.0))
    r_cap = S_DB_CAP * math.log(10.0) / 20.0
    lam = abs(delta_a) * math.tanh(2.0 * r_cap)
    l_co = lambda_coalescence(kappa, delta_a)
    return lam if l_co is None else min(lam, 0.99 * l_co)


# ---------------------------------------------------------------------------
# commands


def cmd_gain_map(cfg: dict, out: Path, args) -> None:
    kappa, deltas = cfg["kappa"], cfg["delta_a_list"]
    probes = np.linspace(-cfg["probe_span"], cfg["probe_span"],
                         cfg["probe_points"])
    skipped = []

    def blocks():
        """One (delta_a, lam) block of rows at a time, as write_csv asks."""
        for delta_a in deltas:
            l_crit = lambda_critical(kappa, delta_a)
            for lam in np.linspace(0.0, cfg["lam_max_factor"] * l_crit,
                                   cfg["lam_points"]):
                try:
                    vals = scattering.gamma_signal(
                        _oscillator(cfg, delta_a, float(lam)), probes)
                except StabilityError:
                    skipped.append(f"delta_a={delta_a} lam={lam:.6g}: "
                                   "unstable")
                    continue
                with np.errstate(divide="ignore"):
                    abs_db = 20.0 * np.log10(np.abs(vals))
                yield np.column_stack(np.broadcast_arrays(
                    delta_a, lam, probes, abs_db, np.angle(vals)))

    write_csv(out / "gain_map.csv", meta_block("gain_map", cfg, args),
              ["delta_a", "lam", "freq_mhz", "abs_db", "phase_rad"], blocks())
    # a log left by an earlier run would describe another table
    log = out / "gain_map.log"
    if skipped:
        write_atomic(log, ["\n".join(skipped) + "\n"])
    else:
        log.unlink(missing_ok=True)


def _lambda_at_gain(cfg: dict, kappa: float, delta_a: float,
                    g_target: float, grid: np.ndarray) -> float:
    """Pump amplitude whose refined peak gain equals g_target (monotone).

    The bracket's lower end and the tolerance scale with l_hi below 1 MHz,
    so a small kappa keeps both inside the stable range."""
    def excess(lam):
        p = _oscillator(cfg, delta_a, lam)
        return scattering.peak_gain(p, grid)[1] - g_target

    l_hi = 0.9995 * lambda_critical(kappa, delta_a)
    if excess(l_hi) < 0:
        raise ValueError(f"target gain {g_target:.3g} unreachable below "
                         "the instability threshold")
    scale = min(1.0, l_hi)
    return float(scipy.optimize.brentq(excess, 1e-6 * scale, l_hi,
                                       xtol=1e-10 * scale))


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
    write_csv(out / "gbw.csv", meta_block("gbw", cfg, args),
              ["delta_a", "lam", "g_max_db", "peak_freq", "bw_3db",
               "bw_fit", "bw_sqrt_g", "n_peaks", "merged"], rows)


def _qubit_point(cfg: dict, delta_a: float, lam: float, chi0=None):
    """The qubit point (p, q, frame, chi0, chi, s_db) at (delta_a, lam);
    frame is None at delta_a = 0 (resonant, no squeezing frame).  chi0, the
    dispersive result at zero pump, is computed unless given; chi is at p."""
    p, q = _oscillator(cfg, delta_a, lam), _transmon(cfg, delta_a)
    frame, zero = None, BogoliubovFrame(r=0.0, omega_bog=delta_a)
    if delta_a == 0.0:
        s_db = 10.0 * math.log10(spectral.resonant_steady_state(p).s_inf)
    else:
        frame = frame_of(p)
        s_db = frame.s_db
    if chi0 is None:
        chi0 = dispersive.chi_transmon(q, zero, kappa=p.kappa)
    # at lam = 0 frame_of gives exactly the zero-pump frame
    chi = (chi0 if frame in (None, zero)
           else dispersive.chi_transmon(q, frame, kappa=p.kappa))
    return p, q, frame, chi0, chi, s_db


def _qubit_sweep(cfg: dict, oracle, width: int):
    """The delta_a x lam grid of the qubit-facing commands, yielding
    (point, cells) in sweep order, point as _qubit_point gives it.  The one
    site that runs a command's per-point oracle: cells is oracle(*point),
    its width oracle columns (0 without --oracle), at detuned points, and
    width nans on the resonant rows, which have no squeezing frame."""
    for delta_a in cfg["delta_a_list"]:
        lam_max = _lam_cap(delta_a, cfg["kappa"])
        chi0 = None
        for lam in np.linspace(0.0, lam_max, cfg["lam_points"]):
            point = _qubit_point(cfg, delta_a, float(lam), chi0)
            frame, chi0 = point[2:4]
            yield point, (oracle(*point) if width and frame is not None
                          else (math.nan,) * width)


def cmd_qubit_response(cfg: dict, out: Path, args) -> None:
    def oracle(p, q, *_):
        orc = lindblad.qubit_shift_dephasing(p, q, cfg["n_fock"])
        return orc.d_omega_q, orc.d_gamma_phi

    shift_rows, deph_rows = [], []
    for (p, _, frame, chi0, chi, s_db), orc in _qubit_sweep(
            cfg, oracle, 2 if args.oracle else 0):
        res = (spectral.resonant_shift(p, chi0.chi) if frame is None
               else spectral.shift_undriven(chi, chi0, frame, p.kappa))
        flags = list(res.flags)
        # the resonant rows' chi is the zero-pump one, never flagged
        if frame is not None and not chi.dispersive_valid:
            flags.append("dispersive_invalid")
        head = (p.delta_a, p.lam, s_db)
        shift_rows.append((*head, res.d_omega_q, *orc[:1], ";".join(flags)))
        deph_rows.append((*head, res.d_gamma_phi, *orc[1:], ";".join(flags)))
    meta = meta_block("qubit_response", cfg, args)
    for name, col, rows in (("qubit_shift.csv", "d_omega_q", shift_rows),
                            ("qubit_dephasing.csv", "d_gamma_phi", deph_rows)):
        cols = [col, col + "_oracle"] if args.oracle else [col]
        write_csv(out / name, meta, ["delta_a", "lam", "s_db", *cols, "flags"],
                  rows)


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
    def oracle(p, q, _, chi0, *__):
        # the closed-form chi0 stands in at lam = 0, which hides the oracle
        # gap there; ROADMAP item 1 writes chi_exact with its reference refresh
        return (chi0.chi if p.lam == 0.0
                else lindblad.chi_exact(p, q, cfg["n_fock"]),)

    rng = np.random.default_rng(args.seed)
    rows = []
    for (p, _, frame, _, chi, s_db), orc in _qubit_sweep(
            cfg, oracle, 1 if args.oracle else 0):
        # resonant branch: chi is chi0, the shift per intracavity photon;
        # flat by construction of the photon-number normalization
        chi_fit = (chi.chi if frame is None else _fit_chi_synthetic(
            chi.chi, frame, p.kappa, cfg["snr_db"], rng))
        rows.append((p.delta_a, p.lam, s_db, chi.chi, chi_fit, *orc))
    header = ["delta_a", "lam", "s_db", "chi_analytic", "chi_fit"]
    if args.oracle:
        header.append("chi_oracle")
    write_csv(out / "chi_vs_lambda.csv", meta_block("chi_sweep", cfg, args),
              header, rows)


def _rel(err_num: float, ref: float) -> float:
    return abs(err_num - ref) / max(abs(ref), 1e-30)


def cmd_oracle_compare(cfg: dict, out: Path, args) -> None:
    kappa, delta_a, lam = cfg["kappa"], cfg["delta_a"], cfg["lam"]
    # the dispersive point and oracle first: no squeezing frame or a refused
    # truncation fails before any steady state.  _qubit_point goes resonant
    # at delta_a = 0, so frame_of refuses it here, after q's config checks
    if delta_a == 0.0:
        _transmon(cfg, delta_a)
        frame_of(_oscillator(cfg, delta_a, lam))
    p, q, frame, chi0, chi, _ = _qubit_point(cfg, delta_a, lam)
    orc = lindblad.qubit_shift_dephasing(p, q, cfg["n_fock"])
    chi_ed = lindblad.chi_exact(p, q, cfg["n_fock"])
    thetas = np.array([0.0, math.pi / 4.0, math.pi / 2.0])
    resonant = []
    for ratio in cfg["lam_ratios"]:
        p_res = _oscillator(cfg, 0.0, ratio * kappa / 2.0)
        mom = spectral.resonant_steady_state(p_res)
        liou = lindblad.build_liouvillian(p_res)
        res = lindblad.steady_state(liou, thetas=thetas)
        vx = np.array([mom.var_x(t) for t in thetas])
        vp = np.array([mom.var_p(t) for t in thetas])
        resonant.append({
            "lam_ratio": ratio,
            "n_mean_analytic": mom.n_mean, "n_mean_oracle": res.n_mean,
            "rel_err_n": _rel(res.n_mean, mom.n_mean),
            "rel_err_a_sq": _rel(res.a_sq, mom.a_sq),
            "rel_err_var_max": float(max(
                np.max(np.abs(res.var_x - vx) / vx),
                np.max(np.abs(res.var_p - vp) / vp))),
            "n_fock": res.n_fock,
            "truncation_converged": res.truncation_converged,
        })
    anom = spectral.anomalous_moment(p, frame)
    ana = spectral.shift_undriven(chi, chi0, frame, kappa, anomalous=anom)
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
            "chi_analytic": chi.chi,
            "chi_exact": chi_ed,
            "rel_err_chi": _rel(chi_ed, chi.chi),
        },
    }
    write_atomic(out / "oracle_report.json",
                 [json.dumps(report, indent=2) + "\n"])


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
    except (ConfigError, OSError) as exc:
        # an output it cannot write is --out's fault, as above
        return _report(exc, "config")
    except (lindblad.UnstableDynamics, lindblad.AmbiguousSector, ArpackError,
            ValueError, ArithmeticError) as exc:
        return _report(exc, "numerical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
