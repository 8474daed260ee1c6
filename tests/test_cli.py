"""Command-line front end: file contracts, determinism, exit codes."""

import ast
import csv
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from boqsim import cli, lindblad, scattering
from boqsim.cli import main
from boqsim.core import (OscillatorParams, lambda_critical, parse_flat,
                         validate)

FAST_GAIN_MAP = "delta_a_list = 0,30\nprobe_points = 41\nlam_points = 4\n"


def run(tmp_path, command, *extra, config=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = [command, "--out", str(tmp_path / "out"), "--no-timestamp"]
    if config is not None:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        argv += ["--config", str(cfg_path)]
    argv += list(extra)
    return main(argv), tmp_path / "out"


def read_csv(path: Path):
    lines = [l for l in path.read_text().splitlines() if not
             l.startswith("#")]
    return list(csv.DictReader(lines))


class TestGainMap:
    def test_writes_expected_schema(self, tmp_path):
        code, out = run(tmp_path, "gain_map", config=FAST_GAIN_MAP)
        assert code == 0
        rows = read_csv(out / "gain_map.csv")
        assert set(rows[0]) == {"delta_a", "lam", "freq_mhz", "abs_db",
                                "phase_rad"}
        assert len(rows) == 2 * 4 * 41

    def test_zero_pump_rows_are_unity_gain(self, tmp_path):
        _, out = run(tmp_path, "gain_map", config=FAST_GAIN_MAP)
        rows = [r for r in read_csv(out / "gain_map.csv")
                if float(r["lam"]) == 0.0]
        assert rows
        assert all(abs(float(r["abs_db"])) < 1e-9 for r in rows)

    def test_mirror_symmetry_of_opposite_detunings(self, tmp_path):
        cfg = "delta_a_list = 30,-30\nprobe_points = 41\nlam_points = 3\n"
        _, out = run(tmp_path, "gain_map", config=cfg)
        rows = read_csv(out / "gain_map.csv")
        plus = {(r["lam"], float(r["freq_mhz"])): float(r["abs_db"])
                for r in rows if r["delta_a"] == "30"}
        minus = {(r["lam"], float(r["freq_mhz"])): float(r["abs_db"])
                 for r in rows if r["delta_a"] == "-30"}
        for (lam, f), gain in plus.items():
            assert minus[(lam, -f)] == pytest.approx(gain, abs=1e-9)

    def test_unstable_rows_logged_not_fatal(self, tmp_path):
        cfg = FAST_GAIN_MAP + "lam_max_factor = 1.05\n"
        code, out = run(tmp_path, "gain_map", config=cfg)
        assert code == 0
        assert (out / "gain_map.log").exists()
        assert "unstable" in (out / "gain_map.log").read_text()

    def test_float_blocks_match_the_per_row_loop(self, tmp_path):
        # lam_max_factor = 1.2 puts the top lam of each branch past the
        # critical line, so each branch skips a block
        code, out = run(tmp_path, "gain_map",
                        config=FAST_GAIN_MAP + "lam_max_factor = 1.2\n")
        assert code == 0
        probes = np.linspace(-60.0, 60.0, 41)
        lines = ["delta_a,lam,freq_mhz,abs_db,phase_rad"]
        skipped = []
        for delta_a in (0.0, 30.0):
            for lam in np.linspace(0.0, 1.2 * lambda_critical(8.7, delta_a),
                                   4):
                p = OscillatorParams(freq_a=6940.0, kappa=8.7,
                                     delta_a=delta_a, lam=float(lam))
                if not validate(p).stable:
                    skipped.append(f"delta_a={delta_a} lam={lam:.6g}: "
                                   "unstable")
                    continue
                vals = scattering.gamma_signal(p, probes)
                with np.errstate(divide="ignore"):
                    abs_db = 20.0 * np.log10(np.abs(vals))
                for w, adb, ph in zip(probes, abs_db, np.angle(vals)):
                    row = (delta_a, float(lam), float(w), float(adb),
                           float(ph))
                    lines.append(",".join(f"{v:.10g}" for v in row))
        text = (out / "gain_map.csv").read_text()
        assert [l for l in text.splitlines()
                if not l.startswith("#")] == lines
        assert len(skipped) == 2
        assert (out / "gain_map.log").read_text() == "\n".join(skipped) + "\n"


def _reference_csv(meta, header, rows):
    """Reference writer: each cell formatted on its own, f"{v:.10g}" for a
    float and str for anything else, then joined."""
    def fmt(v):
        return f"{v:.10g}" if isinstance(v, float) else str(v)

    return (cli.meta_block(meta, False) + ",".join(header) + "\n"
            + "".join(",".join(map(fmt, row)) + "\n" for row in rows))


EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16,
               123456789012.0, -2.5e-300, 1.0 / 3.0)


class TestWriteCsv:
    META = {"command": "test", "kappa": 8.7}

    def _written(self, tmp_path, header, rows):
        cli.write_csv(tmp_path / "t.csv", self.META, header, rows, False)
        return (tmp_path / "t.csv").read_text()

    def test_mixed_kind_rows_match_the_per_value_join(self, tmp_path):
        header = ["x", "x64", "i64", "n", "flags"]
        rows = [(x, np.float64(x), np.int64(-k), k,
                 "" if k % 2 else "dispersive_invalid;coalescence")
                for k, x in enumerate(EDGE_FLOATS)]
        assert (self._written(tmp_path, header, rows)
                == _reference_csv(self.META, header, rows))

    def test_float_array_matches_the_per_value_join(self, tmp_path):
        # more rows than one % call formats, edge values in every column
        rng = np.random.default_rng(5)
        table = rng.standard_normal((2 * cli._CHUNK_ROWS + 7, 3))
        table *= 10.0 ** rng.integers(-30, 30, table.shape)
        table[:len(EDGE_FLOATS)] = np.array(EDGE_FLOATS)[:, None]
        table[-len(EDGE_FLOATS):] = np.array(EDGE_FLOATS)[:, None]
        header = ["a", "b", "c"]
        assert (self._written(tmp_path, header, table)
                == _reference_csv(self.META, header, list(table)))

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))],
                             ids=["list", "array"])
    def test_empty_table_writes_the_header(self, tmp_path, rows):
        assert (self._written(tmp_path, ["a", "b", "c"], rows)
                == _reference_csv(self.META, ["a", "b", "c"], []))

    @pytest.mark.parametrize("rows", [
        [(1.0, "a"), (1, "a")],
        [(1.0, "a"), (1.0, 2.0)],
        [(np.int64(1),), (np.float64(1.0),)],
        [(1.0, 2.0), (1.0,)],
    ], ids=["float_then_int", "str_then_float", "int64_then_float64",
            "short_row"])
    def test_a_column_of_mixed_kinds_raises(self, tmp_path, rows):
        with pytest.raises(ValueError, match="cell kinds"):
            self._written(tmp_path, ["a", "b"][:len(rows[0])], rows)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("rows", [
        np.ones((2, 3), dtype=np.int64),
        np.ones((2, 3), dtype=np.float32),
        np.ones(3),
    ], ids=["int64", "float32", "1-D"])
    def test_only_2d_float64_arrays_are_tables(self, tmp_path, rows):
        with pytest.raises(ValueError, match="2-D float64"):
            self._written(tmp_path, ["a", "b", "c"], rows)


class TestGbw:
    CFG = "delta_a_list = 0\ngains_db = 6,9\n"

    def test_targets_hit_and_schema(self, tmp_path):
        code, out = run(tmp_path, "gbw", config=self.CFG)
        assert code == 0
        rows = read_csv(out / "gbw.csv")
        assert [float(r["g_max_db"]) for r in rows] == pytest.approx(
            [6.0, 9.0], abs=1e-6)
        assert {"bw_3db", "bw_fit", "bw_sqrt_g", "merged"} <= set(rows[0])

    def test_resonant_peak_sits_at_zero(self, tmp_path):
        _, out = run(tmp_path, "gbw", config=self.CFG)
        for r in read_csv(out / "gbw.csv"):
            assert abs(float(r["peak_freq"])) < 1e-4
            assert r["merged"] == "0"

    def test_default_run_refines_at_most_two_candidates_per_search(
            self, tmp_path):
        # the gain has at most two true maxima; refining round-off wiggles
        # of the near-unit gain at brentq's lam = 1e-6 end once cost 6031
        # refinements over the default run's 118 searches
        def spy(name):
            return mock.patch.object(scattering, name,
                                     wraps=getattr(scattering, name))

        with spy("_refine_peak") as refine, spy("peak_gain") as peak, \
                spy("gain_summary") as summary:
            code, _ = run(tmp_path, "gbw")
        assert code == 0
        searches = peak.call_count + summary.call_count
        assert 0 < refine.call_count <= 2 * searches


class TestQubitResponse:
    CFG = "delta_a_list = 0,20,-20\nlam_points = 5\n"

    def test_schema_and_zero_pump_rows(self, tmp_path):
        code, out = run(tmp_path, "qubit_response", config=self.CFG)
        assert code == 0
        shifts = read_csv(out / "qubit_shift.csv")
        deph = read_csv(out / "qubit_dephasing.csv")
        assert len(shifts) == len(deph) == 3 * 5
        for r in shifts:
            if float(r["lam"]) == 0.0:
                assert float(r["d_omega_q"]) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_at_half_pump_frequency(self, tmp_path):
        # delta_q = 0 once divided by zero in the anomalous coefficient
        code, out = run(tmp_path, "qubit_response",
                        config="delta_a_list = 20\nlam_points = 3\n"
                               "delta_q = 0\n")
        assert code == 0
        rows = read_csv(out / "qubit_shift.csv")
        assert all(math.isfinite(float(r["d_omega_q"])) for r in rows)

    def test_oracle_column_present_when_requested(self, tmp_path):
        cfg = "delta_a_list = 20\nlam_points = 3\nn_fock = 24\n"
        code, out = run(tmp_path, "qubit_response", "--oracle", config=cfg)
        assert code == 0
        rows = read_csv(out / "qubit_shift.csv")
        assert "d_omega_q_oracle" in rows[0]

    @pytest.mark.parametrize("command", ["qubit_response", "chi_sweep"])
    def test_oracle_rows_have_a_field_per_column(self, tmp_path, command):
        cfg = "delta_a_list = 0,20\nlam_points = 2\nn_fock = 12\n"
        code, out = run(tmp_path, command, "--oracle", config=cfg)
        assert code == 0
        for path in out.glob("*.csv"):
            lines = [l for l in path.read_text().splitlines()
                     if not l.startswith("#")]
            widths = {len(l.split(",")) for l in lines}
            assert widths == {len(lines[0].split(","))}, path.name


class TestChiSweep:
    def test_fit_round_trip_is_exact_without_noise(self, tmp_path):
        cfg = "delta_a_list = 20\nlam_points = 5\n"
        code, out = run(tmp_path, "chi_sweep", config=cfg)
        assert code == 0
        for r in read_csv(out / "chi_vs_lambda.csv"):
            assert float(r["chi_fit"]) == pytest.approx(
                float(r["chi_analytic"]), rel=1e-9)

    def test_resonant_branch_fitted_chi_is_flat(self, tmp_path):
        cfg = "delta_a_list = 0\nlam_points = 6\n"
        _, out = run(tmp_path, "chi_sweep", config=cfg)
        chis = [float(r["chi_fit"])
                for r in read_csv(out / "chi_vs_lambda.csv")]
        assert max(chis) - min(chis) < 1e-9 * abs(chis[0])

    def test_seed_controls_noisy_fits(self, tmp_path):
        cfg = "delta_a_list = 20\nlam_points = 3\nsnr_db = 30\n"
        _, out1 = run(tmp_path / "a", "chi_sweep", "--seed", "1", config=cfg)
        _, out2 = run(tmp_path / "b", "chi_sweep", "--seed", "1", config=cfg)
        _, out3 = run(tmp_path / "c", "chi_sweep", "--seed", "2", config=cfg)
        t1 = (out1 / "chi_vs_lambda.csv").read_text()
        t2 = (out2 / "chi_vs_lambda.csv").read_text()
        t3 = (out3 / "chi_vs_lambda.csv").read_text()
        assert t1 == t2 != t3


class TestOracleCompare:
    def test_report_schema_and_small_errors(self, tmp_path):
        cfg = "lam_ratios = 0.2,0.5\nn_fock = 60\n"
        code, out = run(tmp_path, "oracle_compare", config=cfg)
        assert code == 0
        report = json.loads((out / "oracle_report.json").read_text())
        for row in report["resonant_moments"]:
            assert row["rel_err_n"] < 1e-6
            assert row["truncation_converged"]
        disp = report["dispersive"]
        assert disp["rel_err_chi"] < 0.10
        assert disp["rel_err_d_omega"] < 0.15


class TestContracts:
    def test_reruns_byte_identical_without_timestamp(self, tmp_path):
        _, out1 = run(tmp_path / "a", "gain_map", config=FAST_GAIN_MAP)
        _, out2 = run(tmp_path / "b", "gain_map", config=FAST_GAIN_MAP)
        assert ((out1 / "gain_map.csv").read_bytes()
                == (out2 / "gain_map.csv").read_bytes())

    def test_timestamp_header_present_by_default(self, tmp_path):
        code = main(["gain_map", "--out", str(tmp_path), "--config",
                     str(write_cfg(tmp_path, FAST_GAIN_MAP))])
        assert code == 0
        first = (tmp_path / "gain_map.csv").read_text().splitlines()[0]
        assert first.startswith("# generated:")

    def test_metadata_block_echoes_params(self, tmp_path):
        _, out = run(tmp_path, "gain_map", config=FAST_GAIN_MAP)
        text = (out / "gain_map.csv").read_text()
        assert "# command = gain_map" in text
        assert "# kappa = 8.7" in text

    def test_json_config_accepted(self, tmp_path):
        cfg = json.dumps({"delta_a_list": [0.0], "probe_points": 41,
                          "lam_points": 3})
        code, out = run(tmp_path, "gain_map", config=cfg)
        assert code == 0
        assert (out / "gain_map.csv").exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["gbw", "--config", "/does/not/exist",
                     "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config"

    def test_invalid_kappa_is_config_error(self, tmp_path, capsys):
        code = main(["gbw", "--out", str(tmp_path), "--config",
                     str(write_cfg(tmp_path, "kappa = -3\n"))])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize("line", ["g = nan", "chi_q = inf",
                                      "gamma_1 = nan"])
    def test_non_finite_parameter_is_config_error(self, tmp_path, capsys,
                                                  line):
        code, _ = run(tmp_path, "qubit_response",
                      config=f"delta_a_list = 20\nlam_points = 2\n{line}\n")
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize("command,extra,config", [
        ("qubit_response", "--oracle", "delta_a_list = 20\nlam_points = 2\n"),
        ("chi_sweep", "--oracle", "delta_a_list = 20\nlam_points = 2\n"),
        ("oracle_compare", None, "lam_ratios = 0.3\n"),
    ], ids=["qubit_response", "chi_sweep", "oracle_compare"])
    def test_out_of_range_n_fock_is_config_error(self, tmp_path, capsys,
                                                 command, extra, config):
        code, _ = run(tmp_path, command, *filter(None, [extra]),
                      config=config + "n_fock = 2\n")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and "n_fock" in err["error"]

    def test_n_fock_below_four_is_config_error_without_oracle(self, tmp_path,
                                                               capsys):
        # the config is checked whole, before any command runs
        code, out = run(tmp_path, "qubit_response",
                        config="delta_a_list = 20\nlam_points = 2\n"
                               "n_fock = 3\n")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and "n_fock" in err["error"]
        assert not any(out.glob("*.csv"))

    def test_unstable_request_is_numerical_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "lam_ratios = 1.5\n")
        code = main(["oracle_compare", "--out", str(tmp_path), "--config",
                     str(cfg)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize is most of the import cost; it loads on first use
        src = str(Path(cli.__file__).parents[1])
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "import boqsim, boqsim.cli; "
                 "print('scipy.optimize' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe, src],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout.strip() == "False"

    def test_only_cli_writes(self):
        # one writer for tables and one for JSON, both in cli: no other
        # module opens, writes or serializes to a file or string
        writers = {"write_text", "write_bytes", "open", "fdopen", "dump",
                   "dumps", "savetxt"}
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in writers and path.name != "cli.py":
                    found.append(f"{path.name}:{node.lineno} {name}")
        assert found == []

    # one value per key, unlike both its default and its FAST_CONFIGS value
    PERTURBED = {"kappa": 6.0, "delta_a_list": "0,25", "probe_span": 50.0,
                 "probe_points": 31, "lam_points": 5, "lam_max_factor": 0.9,
                 "gains_db": 7.0, "delta_q": -70.0, "delta_q_offset": -90.0,
                 "g": 4.0, "chi_q": -100.0, "gamma_1": 3.0, "gamma_phi": 1.0,
                 "n_fock": 16, "snr_db": 30.0, "delta_a": 25.0, "lam": 15.0,
                 "lam_ratios": 0.4}

    @pytest.mark.parametrize("command", sorted(cli.SCHEMA))
    def test_every_key_changes_an_output(self, tmp_path, command):
        # a key that reaches only the '#' lines, or the JSON report's echo
        # of its inputs, is a setting no result depends on
        def results(out):
            found = {}
            for path in sorted(out.iterdir()):
                text = path.read_text()
                if path.suffix == ".json":
                    report = json.loads(text)
                    del report["dispersive"]["params"]
                    text = json.dumps(report)
                found[path.name] = [line for line in text.splitlines()
                                    if not line.startswith("#")]
            return found

        extra = (["--oracle"] if command in ("qubit_response", "chi_sweep")
                 else [])
        base = parse_flat(FAST_CONFIGS[command])
        if extra:
            base["n_fock"] = 12
        code, out = run(tmp_path / "base", command, *extra,
                        config=json.dumps(base))
        assert code == 0
        want = results(out)
        unchanged = []
        for key in cli.SCHEMA[command]:
            cfg = {**base, key: self.PERTURBED[key]}
            code, out = run(tmp_path / key, command, *extra,
                            config=json.dumps(cfg))
            assert code == 0, key
            if results(out) == want:
                unchanged.append(key)
        assert unchanged == []

    @pytest.mark.parametrize("command", sorted(cli.SCHEMA))
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        # refused as config before any command starts, not by numpy mid-run
        def ran(*_args):
            raise AssertionError(f"{command} ran with --seed -1")
        with mock.patch.dict(cli.COMMANDS, {command: ran}):
            code, out = run(tmp_path, command, "--seed", "-1")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and "--seed" in err["error"]
        assert not out.exists()


FAST_CONFIGS = {
    "gain_map": FAST_GAIN_MAP,
    "gbw": "delta_a_list = 0\ngains_db = 6\n",
    "qubit_response": "delta_a_list = 0,20\nlam_points = 3\n",
    "chi_sweep": "delta_a_list = 0,20\nlam_points = 3\n",
    "oracle_compare": "lam_ratios = 0.3\nn_fock = 12\n",
}


class TestConfigSchema:
    @pytest.mark.parametrize("command", sorted(cli.SCHEMA))
    def test_misspelled_keys_are_config_errors(self, tmp_path, capsys,
                                               command):
        code, _ = run(tmp_path, command,
                      config="kapa = 5\ndelta_a_lst = 10\nfreq_a = 6940\n")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config"
        assert all(key in err["error"]
                   for key in ("kapa", "delta_a_lst", "freq_a"))

    def test_n_levels_is_not_a_key(self, tmp_path, capsys):
        # the qubit commands model three levels; the level count is not
        # settable
        code, _ = run(tmp_path, "qubit_response", "--oracle",
                      config="delta_a_list = 20\nlam_points = 2\n"
                             "n_levels = 2\n")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and "n_levels" in err["error"]

    @pytest.mark.parametrize("command,line", [
        ("gain_map", "probe_points = abc"),
        ("gain_map", "lam_points = 2.5"),
        ("gbw", "kappa = abc"),
        ("qubit_response", "lam_points = abc"),
        ("chi_sweep", "snr_db = abc"),
        ("oracle_compare", "delta_a = abc"),
    ])
    def test_unreadable_value_is_config_error(self, tmp_path, capsys,
                                              command, line):
        code, _ = run(tmp_path, command, config=line + "\n")
        assert code == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize("command,line,key", [
        # otherwise caught only inside brentq, least_squares or linspace
        ("gbw", "gains_db = nan", "gains_db"),
        ("chi_sweep", "snr_db = nan", "snr_db"),
        # no pump reaches a peak gain G <= 1
        ("gbw", "gains_db = 0", "gains_db"),
        ("gbw", "gains_db = -3", "gains_db"),
        ("gbw", "gains_db = 6,0", "gains_db"),
        ("gain_map", "probe_points = -3", "probe_points"),
        # otherwise run to NaN rows or a header-only CSV
        ("gain_map", "probe_span = nan", "probe_span"),
        ("gain_map", "probe_points = 0", "probe_points"),
        ("gain_map", "lam_points = 0", "lam_points"),
        ("gain_map", "delta_a_list =", "delta_a_list"),
        ("gain_map", '{"delta_a_list": []}', "delta_a_list"),
        # a non-finite list entry, and the other kinds of key
        ("gbw", "gains_db = 6,inf", "gains_db"),
        ("qubit_response", "delta_q = -inf", "delta_q"),
        ("qubit_response", "n_fock = 0", "n_fock"),
        ("oracle_compare", "lam_ratios = 0.2,nan", "lam_ratios"),
    ], ids=["gains_db_nan", "snr_db_nan", "gains_db_zero",
            "gains_db_negative", "gains_db_zero_entry",
            "probe_points_negative", "probe_span_nan", "probe_points_zero",
            "lam_points_zero", "delta_a_list_empty",
            "delta_a_list_empty_json",
            "gains_db_inf_entry", "delta_q_inf", "n_fock_zero",
            "lam_ratios_nan_entry"])
    def test_non_finite_or_empty_value_is_config_error(
            self, tmp_path, capsys, command, line, key):
        code, out = run(tmp_path, command, config=line + "\n")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and repr(key) in err["error"]
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("config,key", [
        ({"kappa": True}, "kappa"),
        ({"delta_a_list": [True, 30]}, "delta_a_list"),
        ({"gains_db": False}, "gains_db"),
    ], ids=["scalar", "list_entry", "false"])
    def test_json_boolean_is_config_error(self, tmp_path, capsys, config,
                                          key):
        # float(True) is 1.0: a boolean once ran as kappa = 1 or delta_a = 1
        code, out = run(tmp_path, "gbw", config=json.dumps(config))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and repr(key) in err["error"]
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("config,where", [
        ("gains_db = 3\ngains_db = 6\n", "line 2: "),
        ('{"gains_db": 3, "gains_db": 6}', ""),
    ], ids=["flat", "json"])
    def test_duplicate_key_is_config_error(self, tmp_path, capsys, config,
                                           where):
        # otherwise the last value wins without a word
        code, out = run(tmp_path, "gbw", config=config)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config"
        assert f"{where}duplicate key 'gains_db'" in err["error"]
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("command", sorted(cli.SCHEMA))
    def test_json_null_takes_the_default(self, tmp_path, command):
        flat = FAST_CONFIGS[command]
        given = parse_flat(flat)
        nulls = {key: None for key in cli.SCHEMA[command] if key not in given}
        code_flat, out_flat = run(tmp_path / "flat", command, config=flat)
        code, out_json = run(tmp_path / "json", command,
                             config=json.dumps({**given, **nulls}))
        assert code_flat == code == 0
        for path in out_flat.iterdir():
            assert (out_json / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("command", ["gain_map", "gbw",
                                         "oracle_compare"])
    def test_oracle_flag_only_on_oracle_commands(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--oracle"])
        assert exc.value.code == 2


class TestOracleFailures:
    CFG = "delta_a_list = 20\nlam_points = 2\nn_fock = 12\n"

    def _raise(self, monkeypatch, exc):
        def fail(*_args, **_kwargs):
            raise exc

        monkeypatch.setattr(lindblad, "qubit_shift_dephasing", fail)

    @pytest.mark.parametrize("exc", [
        lindblad.AmbiguousSector("two candidate eigenvalues"),
        ArpackNoConvergence("no convergence", np.array([]), np.array([])),
        ArpackError(-9999),
    ], ids=["ambiguous_sector", "arpack_no_convergence", "arpack_error"])
    def test_oracle_failure_is_numerical_error(self, tmp_path, capsys,
                                               monkeypatch, exc):
        self._raise(monkeypatch, exc)
        code, _ = run(tmp_path, "qubit_response", "--oracle",
                      config=self.CFG)
        assert code == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"

    @pytest.mark.parametrize("n_fock,match", [
        # 1.12 estimated photons at the top pump amplitude
        (4, "exceeds n_fock/4"),
        # (3 * 250)^2 unknowns, over the 2^19 budget
        (250, "unknowns"),
    ], ids=["occupation", "budget"])
    @pytest.mark.parametrize("command", ["qubit_response", "chi_sweep"])
    def test_truncation_rules_are_numerical_errors(self, tmp_path, capsys,
                                                   command, n_fock, match):
        code, _ = run(tmp_path, command, "--oracle",
                      config="delta_a_list = 20\nlam_points = 3\n"
                             f"n_fock = {n_fock}\n")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "numerical" and match in err["error"]

    def test_key_error_is_not_reported_as_config(self, tmp_path,
                                                 monkeypatch):
        self._raise(monkeypatch, KeyError("bug"))
        with pytest.raises(KeyError, match="bug"):
            run(tmp_path, "qubit_response", "--oracle", config=self.CFG)


def write_cfg(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return path
