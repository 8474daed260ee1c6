"""The benchmark's workloads: their inputs, their operations and the numbers
each operation's outputs are checked on.

An operation is one CLI command (run in-process through ``boqsim.cli.main``)
or one public library call.  Every operation has a fixed size; the only
input that varies with the benchmark seed is the noise: the CLI ``--seed``
(which seeds ``chi_sweep``'s synthetic-fit noise) and the complex noise added
to the calibration spectra.  Seeds map onto ``REALIZATIONS`` stored noise
realizations so that every seeded output has a stored reference value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

REALIZATIONS = 16
KAPPA = 8.7

# calibration round trip: reflection spectra at these pump amplitudes are
# fitted for lam; a tilted qubit line is fitted for (nu_q, gamma_t)
FIT_DELTA_A = 20.0
FIT_SNR_DB = 40.0
QUBIT_LINE = {"nu_q": 5.0, "gamma_1": 5.0, "gamma_t": 9.4, "tilt": 0.3,
              "offset": 0.05 + 0.02j}

SIZES = {
    "full": {
        "gain_map": "delta_a_list = 0,30,-30\nlam_points = 25\n"
                    "probe_points = 2001\n",
        "gbw": None,
        "qubit_response": None,
        "chi_sweep": "snr_db = 30\n",
        "fit_lams": (2.0, 6.0, 10.0, 14.0, 18.0),
        "fit_probes": 401,
        "circle_points": 201,
        "qubit_response_oracle": "delta_a_list = 20\nlam_points = 3\n"
                                 "n_fock = 32\n",
        "oracle_compare": "n_fock = 24\n",
        "chi_sweep_oracle": None,
        "driven_lam_ratio": 0.7,
        "driven_drive": (0.5, 0.3),
    },
    # a few seconds in all; used by the harness self-test
    "tiny": {
        "gain_map": "delta_a_list = 0,30\nlam_points = 3\nprobe_points = 41\n",
        "gbw": "delta_a_list = 0\ngains_db = 6\n",
        "qubit_response": "delta_a_list = 0,20\nlam_points = 3\n",
        "chi_sweep": "delta_a_list = 20\nlam_points = 3\nsnr_db = 30\n",
        "fit_lams": (10.0,),
        "fit_probes": 101,
        "circle_points": 51,
        "qubit_response_oracle": "delta_a_list = 20\nlam_points = 2\n"
                                 "n_fock = 12\n",
        "oracle_compare": "lam_ratios = 0.3\nn_fock = 12\n",
        "chi_sweep_oracle": "delta_a_list = 20\nlam_points = 2\n"
                            "n_fock = 12\n",
        "driven_lam_ratio": 0.3,
        "driven_drive": (0.2, 0.3),
    },
}

# tolerance classes (ROADMAP): closed forms to 1e-9, oracle values to 1e-10
CLOSED, ORACLE, EXACT = "closed", "oracle", "exact"
RTOL = {CLOSED: 1e-9, ORACLE: 1e-10}
# relative tolerances apply to |ref| >= FLOOR (natural units: MHz, dB, rad,
# photons); below it the tolerance is RTOL * FLOOR absolute
FLOOR = 1e-3
# gain_map has ~150k rows: keep every GAIN_MAP_STRIDE-th row plus per-block
# (delta_a, lam) aggregates of every row
GAIN_MAP_STRIDE = 150


@dataclass
class Context:
    """Everything an operation needs; built during set-up."""

    work: Path
    size: str
    realization: int
    configs: dict
    inputs: dict

    def out_dir(self, op_name: str) -> Path:
        return self.work / "out" / op_name


@dataclass(frozen=True)
class Op:
    name: str
    seeded: bool  # outputs depend on the noise realization
    run: Callable[[Context], Any]
    values: Callable[[Context, Any], dict]


class OpFailed(RuntimeError):
    """An operation exited non-zero."""


# ---------------------------------------------------------------------------
# set-up: configs and inputs


def build_context(workload: str, size: str, realization: int,
                  work: Path) -> Context:
    import boqsim.calibration as calibration
    import boqsim.scattering as scattering
    from boqsim.core import OscillatorParams

    spec = SIZES[size]
    work.mkdir(parents=True, exist_ok=True)
    configs = {}
    for key in ("gain_map", "gbw", "qubit_response", "chi_sweep",
                "qubit_response_oracle", "oracle_compare",
                "chi_sweep_oracle"):
        if spec[key] is not None:
            path = work / f"{key}.cfg"
            path.write_text(spec[key])
            configs[key] = path
    inputs = {}
    if workload == "datasets":
        rng = np.random.default_rng(realization)
        probes = np.linspace(-60.0, 60.0, spec["fit_probes"])
        inputs["fit_spectra"] = [
            calibration.add_complex_noise(
                scattering.signal_spectrum(
                    OscillatorParams(freq_a=0.0, kappa=KAPPA,
                                     delta_a=FIT_DELTA_A, lam=lam), probes),
                FIT_SNR_DB, rng)
            for lam in spec["fit_lams"]]
        ql = QUBIT_LINE
        freqs = ql["nu_q"] + np.linspace(-30.0, 30.0, spec["circle_points"])
        line = scattering.qubit_spectrum(freqs, ql["nu_q"], ql["gamma_1"],
                                         ql["gamma_t"])
        tilted = scattering.ComplexSpectrum(
            freqs=freqs,
            values=ql["offset"] + np.exp(1j * ql["tilt"]) * line.values,
            kind="qubit")
        inputs["circle_spectrum"] = calibration.add_complex_noise(
            tilted, FIT_SNR_DB, rng)
    return Context(work=work, size=size, realization=realization,
                   configs=configs, inputs=inputs)


# ---------------------------------------------------------------------------
# reading outputs


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: Path) -> dict[str, list]:
    """Columns of a boqsim CSV, numbers parsed, '#' metadata skipped."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(_cell(cell))
    return cols


def _csv_values(path: Path, oracle_cols=()) -> dict:
    """Every column of a small CSV; values carry the CSV's 10-digit print
    precision, so they are compared as quantized."""
    out = {}
    for name, col in read_table(path).items():
        cls = ORACLE if name in oracle_cols else CLOSED
        if not all(isinstance(v, float) for v in col):
            cls = EXACT
        out[f"{path.name}/{name}"] = (cls, col, True)
    return out


def _gain_map_values(path: Path) -> dict:
    cols = read_table(path)
    arr = np.array([cols[k] for k in ("delta_a", "lam", "freq_mhz",
                                      "abs_db", "phase_rad")]).T
    out = {"gain_map.csv/rows": (EXACT, [len(arr)], False)}
    for j, name in enumerate(("delta_a", "lam", "freq_mhz", "abs_db",
                              "phase_rad")):
        out[f"gain_map.csv/{name}[::{GAIN_MAP_STRIDE}]"] = (
            CLOSED, arr[::GAIN_MAP_STRIDE, j].tolist(), True)
    # per (delta_a, lam) block: sum and max of abs_db, sum of |phase|
    keys = arr[:, :2]
    starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1],
                                               axis=1)])
    blocks = np.split(arr, starts[1:])
    out["gain_map.csv/block_sum_abs_db"] = (
        CLOSED, [float(b[:, 3].sum()) for b in blocks], True)
    out["gain_map.csv/block_max_abs_db"] = (
        CLOSED, [float(b[:, 3].max()) for b in blocks], True)
    out["gain_map.csv/block_sum_abs_phase"] = (
        CLOSED, [float(np.abs(b[:, 4]).sum()) for b in blocks], True)
    return out


def _json_values(obj, prefix: str) -> dict:
    """Flatten oracle_report.json; oracle-derived leaves get ORACLE."""
    out = {}
    if isinstance(obj, dict):
        for key, val in obj.items():
            out.update(_json_values(val, f"{prefix}/{key}"))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            out.update(_json_values(val, f"{prefix}[{i}]"))
    elif isinstance(obj, (bool, int)) or obj is None:
        out[prefix] = (EXACT, [obj], False)
    elif isinstance(obj, float):
        leaf = prefix.rsplit("/", 1)[-1]
        oracle = "oracle" in leaf or "exact" in leaf or "rel_err" in leaf
        out[prefix] = (ORACLE if oracle else CLOSED, [obj], False)
    else:
        out[prefix] = (EXACT, [obj], False)
    return out


# ---------------------------------------------------------------------------
# operations


def _cli_op(name: str, command: str, config_key: str | None,
            values: Callable[[Path], dict], oracle: bool = False,
            seeded: bool = False) -> Op:
    def run(ctx: Context):
        import boqsim.cli

        argv = [command, "--out", str(ctx.out_dir(name)), "--seed",
                str(ctx.realization), "--no-timestamp"]
        cfg = ctx.configs.get(config_key)
        if cfg is not None:
            argv += ["--config", str(cfg)]
        if oracle:
            argv.append("--oracle")
        code = boqsim.cli.main(argv)
        if code != 0:
            raise OpFailed(f"boqsim {command} exited {code}")

    return Op(name=name, seeded=seeded, run=run,
              values=lambda ctx, _res: values(ctx.out_dir(name)))


def _fit_lambda_op(i: int) -> Op:
    def run(ctx: Context):
        import boqsim.calibration

        return boqsim.calibration.fit_lambda(
            ctx.inputs["fit_spectra"][i], KAPPA, FIT_DELTA_A)

    def values(ctx: Context, rep) -> dict:
        return {"lam": (CLOSED, [rep.params["lam"]], False),
                "converged": (EXACT, [rep.converged], False)}

    return Op(name=f"fit_lambda[{i}]", seeded=True, run=run, values=values)


def _fit_circle_op() -> Op:
    def run(ctx: Context):
        import boqsim.calibration

        return boqsim.calibration.fit_circle(ctx.inputs["circle_spectrum"])

    def values(ctx: Context, res) -> dict:
        model, rep = res
        return {"nu_q": (CLOSED, [model.nu_q], False),
                "gamma_t": (CLOSED, [model.gamma_t], False),
                "radius": (CLOSED, [model.radius], False),
                "converged": (EXACT, [rep.converged], False)}

    return Op(name="fit_circle", seeded=True, run=run, values=values)


def _driven_steady_state_op() -> Op:
    """Oscillator-only steady state under a coherent drive, which breaks the
    excitation-parity symmetry of the undriven problem."""

    def run(ctx: Context):
        import boqsim.lindblad as lindblad
        from boqsim.core import DriveSpec, OscillatorParams

        spec = SIZES[ctx.size]
        n_d, theta = spec["driven_drive"]
        p = OscillatorParams(freq_a=0.0, kappa=KAPPA, delta_a=0.0,
                             lam=spec["driven_lam_ratio"] * KAPPA / 2.0)
        liou = lindblad.build_liouvillian(
            p, drive=DriveSpec(n_d=n_d, theta=theta))
        return lindblad.steady_state(liou)

    def values(ctx: Context, res) -> dict:
        if not (res.trace_residual <= 1e-10 and res.min_eigenvalue >= -1e-10):
            raise OpFailed(f"steady state not a density matrix: trace "
                           f"residual {res.trace_residual:.3g}, min "
                           f"eigenvalue {res.min_eigenvalue:.3g}")
        return {"n_mean": (ORACLE, [res.n_mean], False),
                "a_sq": (ORACLE, [res.a_sq.real, res.a_sq.imag], False),
                "var_x": (ORACLE, res.var_x.tolist(), False),
                "var_p": (ORACLE, res.var_p.tolist(), False),
                "n_fock": (EXACT, [res.n_fock], False),
                "truncation_converged": (EXACT, [res.truncation_converged],
                                         False)}

    return Op(name="steady_state.driven", seeded=False, run=run,
              values=values)


def _oracle_report_values(out: Path) -> dict:
    import json

    return _json_values(json.loads((out / "oracle_report.json").read_text()),
                        "oracle_report.json")


def operations(workload: str, size: str) -> list[Op]:
    spec = SIZES[size]
    if workload == "datasets":
        return [
            _cli_op("cli.gain_map", "gain_map", "gain_map",
                    lambda out: _gain_map_values(out / "gain_map.csv")),
            _cli_op("cli.gbw", "gbw", "gbw",
                    lambda out: _csv_values(out / "gbw.csv")),
            _cli_op("cli.qubit_response", "qubit_response",
                    "qubit_response",
                    lambda out: {**_csv_values(out / "qubit_shift.csv"),
                                 **_csv_values(out / "qubit_dephasing.csv")}),
            _cli_op("cli.chi_sweep", "chi_sweep", "chi_sweep",
                    lambda out: _csv_values(out / "chi_vs_lambda.csv"),
                    seeded=True),
            *[_fit_lambda_op(i) for i in range(len(spec["fit_lams"]))],
            _fit_circle_op(),
        ]
    if workload == "oracle_shift":
        oracle_cols = ("d_omega_q_oracle", "d_gamma_phi_oracle")
        return [
            _cli_op("cli.qubit_response.oracle", "qubit_response",
                    "qubit_response_oracle",
                    lambda out: {
                        **_csv_values(out / "qubit_shift.csv", oracle_cols),
                        **_csv_values(out / "qubit_dephasing.csv",
                                      oracle_cols)},
                    oracle=True),
        ]
    if workload == "oracle_moments":
        return [
            _cli_op("cli.oracle_compare", "oracle_compare", "oracle_compare",
                    _oracle_report_values),
            _cli_op("cli.chi_sweep.oracle", "chi_sweep", "chi_sweep_oracle",
                    lambda out: _csv_values(out / "chi_vs_lambda.csv",
                                            ("chi_oracle",)),
                    oracle=True),
            _driven_steady_state_op(),
        ]
    raise KeyError(workload)


WORKLOADS = ("datasets", "oracle_shift", "oracle_moments")


def reference_key(op: Op, realization: int) -> str:
    return f"{op.name}@{realization}" if op.seeded else op.name


# ---------------------------------------------------------------------------
# the correctness gate


def _close(got, ref, cls: str, quantized: bool) -> bool:
    if cls == EXACT or isinstance(ref, (str, bool)) or ref is None:
        return got == ref
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if not math.isfinite(ref):
        return got == ref or (math.isnan(ref) and math.isnan(got))
    slack = RTOL[cls] * max(abs(ref), FLOOR)
    if quantized and ref != 0.0:
        # one unit in the 10th significant digit that '%.10g' printed
        slack += 10.0 ** (math.floor(math.log10(abs(ref))) - 9)
    return abs(got - ref) <= slack


def compare(values: dict, reference: dict) -> list[str]:
    """Mismatches between an operation's values and its reference."""
    problems = []
    if set(values) != set(reference):
        missing = sorted(set(reference) - set(values))
        extra = sorted(set(values) - set(reference))
        problems.append(f"keys differ: missing {missing[:5]}, "
                        f"unexpected {extra[:5]}")
    for key in sorted(set(values) & set(reference)):
        cls, got, quantized = values[key]
        ref = reference[key]
        if len(got) != len(ref):
            problems.append(f"{key}: {len(got)} values, reference has "
                            f"{len(ref)}")
            continue
        for i, (g, r) in enumerate(zip(got, ref)):
            if not _close(g, r, cls, quantized):
                problems.append(f"{key}[{i}]: got {g!r}, reference {r!r} "
                                f"({cls})")
                break
    return problems


def reference_values(values: dict) -> dict:
    """The stored form of an operation's values."""
    return {key: list(vals) for key, (_cls, vals, _q) in values.items()}
