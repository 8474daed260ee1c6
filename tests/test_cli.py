"""Command-line front end: file contracts, determinism, exit codes."""

import ast
import csv
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import boqsim
import make_golden
from boqsim import cli, lindblad, scattering
from boqsim.cli import main, parse_flat, read_config, resolve_config
from boqsim.core import OscillatorParams, StabilityError, lambda_critical
from perfbench import workloads

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


def loaded_modules(tmp_path, command, *extra, config=""):
    """The names in sys.modules after `command` (with `config` and `extra`
    arguments, output under tmp_path) runs in a fresh interpreter."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config)
    argv = [command, "--out", str(tmp_path / "out"), "--no-timestamp",
            "--config", str(cfg_path), *extra]
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
             "from boqsim.cli import main; "
             "code = main(sys.argv[2:]); "
             "print(json.dumps(sorted(sys.modules))); sys.exit(code)")
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe, src, *argv],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return set(json.loads(done.stdout))


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

    def test_run_that_skips_nothing_removes_an_old_log(self, tmp_path):
        # lam_max_factor = 1.0 reaches lambda_crit = 4.35 and logs it; a
        # second run into the same --out stops at 2.175
        cfg = "delta_a_list = 0\nprobe_points = 11\nlam_points = 3\n"
        code, out = run(tmp_path, "gain_map",
                        config=cfg + "lam_max_factor = 1.0\n")
        assert code == 0
        assert "lam=4.35: unstable" in (out / "gain_map.log").read_text()
        code, out = run(tmp_path, "gain_map",
                        config=cfg + "lam_max_factor = 0.5\n")
        assert code == 0
        assert read_csv(out / "gain_map.csv")[-1]["lam"] == "2.175"
        assert not (out / "gain_map.log").exists()

    @pytest.mark.parametrize("span, points", [(60.0, 41), (60.0, 1),
                                              (0.0, 41)],
                             ids=["probes", "one_probe", "zero_span"])
    def test_float_blocks_match_the_per_row_loop(self, tmp_path, span,
                                                 points):
        # lam_max_factor = 1.2 puts the top lam of each branch past the
        # critical line, so each branch skips a block.  One probe makes
        # every column constant over its block; a zero span makes freq_mhz
        # constant too, and the same in every block
        code, out = run(tmp_path, "gain_map",
                        config="delta_a_list = 0,30\nlam_points = 4\n"
                               f"probe_span = {span}\n"
                               f"probe_points = {points}\n"
                               "lam_max_factor = 1.2\n")
        assert code == 0
        probes = np.linspace(-span, span, points)
        lines = ["delta_a,lam,freq_mhz,abs_db,phase_rad"]
        skipped = []
        for delta_a in (0.0, 30.0):
            for lam in np.linspace(0.0, 1.2 * lambda_critical(8.7, delta_a),
                                   4):
                p = OscillatorParams(freq_a=6940.0, kappa=8.7,
                                     delta_a=delta_a, lam=float(lam))
                try:
                    vals = scattering.gamma_signal(p, probes)
                except StabilityError:
                    skipped.append(f"delta_a={delta_a} lam={lam:.6g}: "
                                   "unstable")
                    continue
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

    def test_memory_holds_one_block_whatever_lam_points(self, tmp_path):
        # the table goes to disk one (delta_a, lam) block at a time; held
        # whole, its traced peak grew with the blocks, 1.8 MB at 4 and
        # 6.6 MB at 16, against 0.7 MB for both when streamed
        def traced_peak(lam_points):
            tracemalloc.start()
            try:
                code, _ = run(tmp_path / str(lam_points), "gain_map",
                              config="delta_a_list = 0\nprobe_points = 2001\n"
                                     f"lam_points = {lam_points}\n")
                assert code == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(16) < 1.5 * traced_peak(4)


def _reference_csv(meta, header, rows):
    """Reference writer: each cell formatted on its own, f"{v:.10g}" for a
    float and str for anything else, then joined."""
    def fmt(v):
        return f"{v:.10g}" if isinstance(v, float) else str(v)

    return (meta + ",".join(header) + "\n"
            + "".join(",".join(map(fmt, row)) + "\n" for row in rows))


EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16,
               123456789012.0, -2.5e-300, 1.0 / 3.0)


class TestWriteCsv:
    META = "# command = test\n# kappa = 8.7\n"

    def _written(self, tmp_path, header, rows):
        cli.write_csv(tmp_path / "t.csv", self.META, header, rows)
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
        assert (self._written(tmp_path, header, iter([table]))
                == _reference_csv(self.META, header, list(table)))

    @pytest.mark.parametrize("rows", [[], iter([np.empty((0, 3))])],
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
        np.ones((2, 2)),
        # a bad block after a good one, some of it already written
        iter([np.ones((2, 3)), np.ones((2, 3), dtype=np.float32)]),
        iter([np.ones((2, 3)), np.ones(3)]),
    ], ids=["int64", "float32", "1-D", "2-column", "float32_after_valid",
            "1-D_after_valid"])
    def test_only_2d_float64_arrays_are_tables(self, tmp_path, rows):
        # the error leaves the old file as it was and no t.csv.* behind
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        with pytest.raises(ValueError, match="2-D float64"):
            self._written(tmp_path, ["a", "b", "c"], rows)
        assert list(tmp_path.glob("t.csv.*")) == []
        assert path.read_text() == "old\n"

    def test_blocks_match_the_one_array(self, tmp_path):
        rng = np.random.default_rng(6)
        table = rng.standard_normal((2 * cli._CHUNK_ROWS + 7, 3))
        blocks = iter(np.split(table, [0, 5, cli._CHUNK_ROWS + 5]))
        assert (self._written(tmp_path, ["a", "b", "c"], blocks)
                == _reference_csv(self.META, ["a", "b", "c"], list(table)))

    @pytest.mark.parametrize("refill", [False, True],
                             ids=["fresh", "refilled"])
    def test_a_column_that_repeats_then_changes_is_formatted_again(
            self, tmp_path, refill):
        # the cells kept from one run of repeats must not outlive it, and a
        # caller that refills one buffer must not see the writer compare
        # that buffer with itself
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 5, 3))
        tables = [a, a, b, b, a]
        buf = np.empty((5, 3))

        def blocks():
            for table in tables:
                if refill:
                    buf[:] = table
                    yield buf
                else:
                    yield table.copy()

        assert (self._written(tmp_path, ["a", "b", "c"], blocks())
                == _reference_csv(self.META, ["a", "b", "c"],
                                  [r for t in tables for r in t.tolist()]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_column_rules_match_the_per_value_join(self, tmp_path_factory,
                                                   data):
        # a column constant over its block, or bitwise equal to the previous
        # block's, is formatted once; 0.0 and -0.0 print differently, so
        # a column of both is not constant
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lengths = st.sampled_from([1, 2, 7, cli._CHUNK_ROWS + 3])
        blocks = []
        for _ in range(data.draw(st.integers(1, 5))):
            prev = blocks[-1] if blocks else None
            n = data.draw(lengths if prev is None
                          else st.just(len(prev)) | lengths)
            kinds = ["constant", "signed_zeros", "random"]
            if prev is not None and len(prev) == n:
                kinds.append("previous")
            cols = []
            for j in range(3):
                kind = data.draw(st.sampled_from(kinds))
                if kind == "constant":
                    col = np.full(n, data.draw(st.sampled_from(EDGE_FLOATS)))
                elif kind == "signed_zeros":
                    col = rng.choice([0.0, -0.0], n)
                elif kind == "previous":
                    col = prev[:, j].copy()
                else:
                    col = rng.standard_normal(n)
                    col *= 10.0 ** rng.integers(-30, 30, n)
                    col[rng.integers(0, n, 3)] = rng.choice(EDGE_FLOATS, 3)
                cols.append(col)
            blocks.append(np.column_stack(cols))
        header = ["a", "b", "c"]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        cli.write_csv(path, self.META, header, iter(blocks))
        assert path.read_text() == _reference_csv(
            self.META, header, [r for b in blocks for r in b.tolist()])

    def test_failed_replace_removes_the_temp_file(self, tmp_path,
                                                  monkeypatch):
        # the error propagates, the old file stays and no t.csv.* is left
        path = tmp_path / "t.csv"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            cli.write_atomic(path, ["new\n"])
        monkeypatch.undo()
        assert list(tmp_path.glob("t.csv.*")) == []
        assert path.read_text() == "old\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_output_takes_the_mode_open_gives(self, tmp_path, umask):
        # mkstemp's 0o600 once survived the replace: gbw.csv came out
        # -rw------- under umask 022
        old = os.umask(umask)
        try:
            cli.write_atomic(tmp_path / "t.csv", ["new\n"])
            (tmp_path / "ref.csv").open("w").close()
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "t.csv").stat().st_mode)
        assert mode == 0o666 & ~umask
        assert mode == stat.S_IMODE((tmp_path / "ref.csv").stat().st_mode)


def assert_matches_golden(name, made, committed):
    """made equals the committed text byte for byte, but for oracle values,
    which agree to the benchmark's oracle tolerance (workloads._close).  A
    JSON report's leaves are classed as the benchmark classes them
    (workloads._json_values); its other leaves are compared exactly."""
    if name.endswith(".json"):
        got, ref = (workloads._json_values(json.loads(text), name)
                    for text in (made, committed))
        assert list(got) == list(ref), name
        for key, (cls, [val], _) in ref.items():
            new = got[key][1][0]
            assert (workloads._close(new, val, cls, False)
                    if cls == workloads.ORACLE else new == val), (
                name, key, new, val)
        return
    header = next(line for line in committed.splitlines()
                  if not line.startswith("#")).split(",")
    if not any(col in make_golden.ORACLE_COLUMNS for col in header):
        assert made == committed, name
        return
    got, ref = (text.splitlines(keepends=True) for text in (made, committed))
    assert len(got) == len(ref), name
    for line, ref_line in zip(got, ref):
        if line == ref_line:
            continue
        assert not ref_line.startswith("#"), (name, line, ref_line)
        body, ref_body = line.rstrip("\r\n"), ref_line.rstrip("\r\n")
        # the line ends as the committed one does
        assert line[len(body):] == ref_line[len(ref_body):], (name, line)
        cells, ref_cells = body.split(","), ref_body.split(",")
        assert len(cells) == len(ref_cells) == len(header), (name, line)
        for col, cell, ref_cell in zip(header, cells, ref_cells):
            assert cell == ref_cell or (
                col in make_golden.ORACLE_COLUMNS and cell == cell.strip()
                and workloads._close(float(cell), float(ref_cell),
                                     workloads.ORACLE, True)), (
                name, col, cell, ref_cell)


class TestGoldenOutputs:
    # the outputs committed under tests/golden/, rewritten by
    # tests/make_golden.py; the '#' block is compared without the version
    # values, the oracle's values to the benchmark's oracle tolerance
    @pytest.mark.parametrize("run", sorted(make_golden.RUNS))
    def test_outputs_match_the_committed_files(self, tmp_path, run):
        made = make_golden.contract(run, tmp_path)
        committed = {f"{run}/{path.name}": path.read_text()
                     for path in (make_golden.GOLDEN / run).iterdir()}
        assert sorted(made) == sorted(committed)
        for name, text in made.items():
            assert_matches_golden(name, text, committed[name])

    def test_an_oracle_cell_moved_past_the_tolerance_fails(self):
        committed = (make_golden.GOLDEN / "qubit_response_oracle"
                     / "qubit_shift.csv").read_text()
        lines = committed.splitlines(keepends=True)
        cells = lines[-1].split(",")
        header = next(line for line in lines
                      if not line.startswith("#")).split(",")
        col = header.index("d_omega_q_oracle")
        ref = float(cells[col])
        for rel, ok in ((2e-11, True), (1e-8, False)):
            cells[col] = f"{ref * (1.0 + rel):.10g}"
            made = "".join(lines[:-1]) + ",".join(cells)
            if ok:
                assert_matches_golden("t.csv", made, committed)
            else:
                with pytest.raises(AssertionError):
                    assert_matches_golden("t.csv", made, committed)

    @pytest.mark.parametrize("section, key, move, ok", [
        ("dispersive", "chi_analytic",
         lambda v: math.nextafter(v, math.inf), False),
        ("dispersive", "d_omega_oracle", lambda v: v * (1.0 + 2e-11), True),
        ("dispersive", "d_omega_oracle", lambda v: v * (1.0 + 1e-8), False),
        ("resonant_moments", "truncation_converged", lambda v: not v, False),
    ], ids=["closed_one_ulp", "oracle_2e-11", "oracle_1e-8", "flag_flipped"])
    def test_a_json_leaf_is_compared_by_its_class(self, section, key, move,
                                                  ok):
        # the benchmark's classes: a closed-form float and a flag exactly,
        # an oracle value to the oracle tolerance
        name = "oracle_compare_n_fock24/oracle_report.json"
        committed = (make_golden.GOLDEN / name).read_text()
        report = json.loads(committed)
        node = report[section]
        node = node[0] if isinstance(node, list) else node
        node[key] = move(node[key])
        made = json.dumps(report, indent=2)
        if ok:
            assert_matches_golden(name, made, committed)
        else:
            with pytest.raises(AssertionError):
                assert_matches_golden(name, made, committed)

    @pytest.mark.parametrize("run", ["gbw", "qubit_response_oracle"])
    def test_line_endings_are_compared(self, tmp_path, monkeypatch, run):
        # a closed-form table is compared byte for byte, an oracle one line
        # by line with each line's ending
        real = cli.write_atomic
        monkeypatch.setattr(cli, "write_atomic", lambda path, chunks: real(
            path, (chunk.replace("\n", "\r\n") for chunk in chunks)))
        made = make_golden.contract(run, tmp_path)
        for name, text in made.items():
            committed = (make_golden.GOLDEN / name).read_text()
            crlf_body = "".join(
                line if line.startswith("#") else line[:-1] + "\r\n"
                for line in committed.splitlines(keepends=True))
            for wrong in (text, crlf_body, committed[:-1]):
                with pytest.raises(AssertionError):
                    assert_matches_golden(name, wrong, committed)


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

    def test_targets_hit_at_a_small_kappa(self, tmp_path):
        # brentq's bracket once began at an absolute lam = 1e-6 MHz, past
        # lambda_crit = 5e-9 MHz here, and the run exited 3
        code, out = run(tmp_path, "gbw",
                        config="kappa = 1e-8\ndelta_a_list = 0\n")
        assert code == 0
        assert [float(r["g_max_db"]) for r in read_csv(out / "gbw.csv")] \
            == pytest.approx([3.0, 6.0, 9.0, 12.0], abs=1e-6)

    def test_default_run_refines_at_most_two_candidates_per_search(
            self, tmp_path):
        # the gain has at most two true maxima; refining round-off wiggles
        # of the near-unit gain at brentq's lam = 1e-6 end once cost 6031
        # refinements over the default run's 118 searches.  Every search is
        # a gain_summary call, peak_gain's included, so a peak_gain call
        # is not counted again.
        def spy(name):
            return mock.patch.object(scattering, name,
                                     wraps=getattr(scattering, name))

        with spy("_refine_peak") as refine, spy("gain_summary") as summary:
            code, _ = run(tmp_path, "gbw")
        assert code == 0
        assert 0 < refine.call_count <= 2 * summary.call_count


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

    @pytest.mark.parametrize("command,solver,steps", [
        ("qubit_response", "qubit_shift_dephasing", [0.0, 1.0, 2.0]),
        # chi_sweep's lam = 0 cell is the closed-form chi0, not an oracle call
        ("chi_sweep", "chi_exact", [1.0, 2.0]),
    ])
    def test_one_oracle_call_per_detuned_point(self, tmp_path, monkeypatch,
                                               command, solver, steps):
        # none on the resonant branch: its oracle cells are nan
        real, calls = getattr(lindblad, solver), []

        def spy(p, q, n_fock):
            calls.append((p.delta_a, p.lam))
            return real(p, q, n_fock)

        monkeypatch.setattr(lindblad, solver, spy)
        cfg = "delta_a_list = 0,20\nlam_points = 3\nn_fock = 12\n"
        code, _ = run(tmp_path, command, "--oracle", config=cfg)
        assert code == 0
        lam_max = cli._lam_cap(20.0, 8.7)
        assert calls == [(20.0, step * lam_max / 2.0) for step in steps]


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

    def test_oracle_leaves_the_fits_alone(self, tmp_path):
        # the oracle draws nothing from the fits' rng, so they keep its order
        cfg = ("delta_a_list = 0,20\nlam_points = 3\nn_fock = 12\n"
               "snr_db = 30\n")
        tables = []
        for name, extra in (("plain", ()), ("oracle", ("--oracle",))):
            code, out = run(tmp_path / name, "chi_sweep", "--seed", "3",
                            *extra, config=cfg)
            assert code == 0
            tables.append([(r["chi_analytic"], r["chi_fit"])
                           for r in read_csv(out / "chi_vs_lambda.csv")])
        assert tables[0] == tables[1]


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

    def test_zero_pump_ratio_has_zero_errors(self, tmp_path):
        # <a^2> is exactly 0 at lam = 0, in the closed form and the oracle;
        # rel_err_a_sq once divided by it
        cfg = "lam_ratios = 0,0.5\nn_fock = 24\n"
        code, out = run(tmp_path, "oracle_compare", config=cfg)
        assert code == 0
        report = json.loads((out / "oracle_report.json").read_text())
        row = report["resonant_moments"][0]
        assert row["lam_ratio"] == 0.0 and row["rel_err_a_sq"] == 0.0

    @pytest.mark.parametrize("cfg,message", [
        ("delta_a = 0\n", "delta_a = 0: no squeezing frame (resonant "
                          "regime)"),
        ("delta_a = 10\nlam = 12\n",
         "lam = 12.0 >= |delta_a| = 10.0: no squeezing frame"),
        ("n_fock = 250\n", "n_fock = 250 with 3 transmon level(s) gives "
                           "562500 unknowns, over the oracle's budget of "
                           "524288"),
    ], ids=["resonant", "past_the_frame", "over_budget"])
    def test_point_without_a_frame_is_refused_first(self, tmp_path, capsys,
                                                    monkeypatch, cfg,
                                                    message):
        # the dispersive point, and its oracle's truncation, are checked
        # before any resonant row solves
        def fail(*_args, **_kwargs):
            raise AssertionError("a steady state ran before the refusal")

        monkeypatch.setattr(lindblad, "steady_state", fail)
        code, out = run(tmp_path, "oracle_compare", config=cfg)
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": message, "kind": "numerical"}
        assert not (out / "oracle_report.json").exists()


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

    # one value per command unlike its default, as the '#' block writes it
    ECHOED = {"gain_map": ("lam_max_factor", "0.9"),
              "gbw": ("gains_db", "6,7.5"), "qubit_response": ("g", "4.0"),
              "chi_sweep": ("delta_q", "-70.0")}

    @pytest.mark.parametrize("command,extra", [
        ("gain_map", ()), ("gbw", ()), ("qubit_response", ()),
        ("qubit_response", ("--oracle",)), ("chi_sweep", ()),
        ("chi_sweep", ("--oracle",)),
    ], ids=["gain_map", "gbw", "qubit_response", "qubit_response_oracle",
            "chi_sweep", "chi_sweep_oracle"])
    def test_metadata_block_echoes_the_resolved_config(self, tmp_path,
                                                       command, extra):
        key, val = self.ECHOED[command]
        given = {**parse_flat(FAST_CONFIGS[command]), key: val,
                 **({"n_fock": "12"} if extra else {})}
        code, out = run(tmp_path, command, *extra, "--seed", "3",
                        config="".join(f"{k} = {v}\n"
                                       for k, v in given.items()))
        assert code == 0
        takes_oracle = command in ("qubit_response", "chi_sweep")
        want = ["command", *cli.SCHEMA[command],
                *(["oracle"] if takes_oracle else []), "seed",
                "boqsim_version", "numpy_version", "scipy_version"]
        paths = sorted(out.glob("*.csv"))
        assert paths
        for path in paths:
            lines = [line[2:] for line in path.read_text().splitlines()
                     if line.startswith("# ")]
            meta = dict(line.split(" = ", 1) for line in lines)
            assert list(meta) == want and len(lines) == len(want), path.name
            assert meta["command"] == command and meta[key] == val
            assert meta["kappa"] == "8.7" and meta["seed"] == "3"
            if takes_oracle:
                assert meta["oracle"] == str(len(extra))
                assert meta["n_fock"] == ("12" if extra else "None")
            assert meta["boqsim_version"] == boqsim.__version__
            assert meta["numpy_version"] == np.__version__
            assert meta["scipy_version"] == scipy.__version__

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

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        # a directory where gbw.csv goes: os.replace fails as the command
        # writes, after the config and --out were accepted
        (tmp_path / "out" / "gbw.csv").mkdir(parents=True)
        code, out = run(tmp_path, "gbw",
                        config="delta_a_list = 0\ngains_db = 6\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["kind"] == "config"
        assert (out / "gbw.csv").is_dir()
        assert not any(out.glob("gbw.csv.*"))

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

    @pytest.mark.parametrize("command,config,code,kind,match", [
        ("oracle_compare", "lam = -1\n", 2, "config", "lam"),
        ("qubit_response", "g = 0\n", 2, "config", "g must be positive"),
        ("qubit_response", "gamma_1 = -1\n", 2, "config", "decay rates"),
        ("gbw", "gains_db = 60\n", 3, "numerical",
         "unreachable below the instability threshold"),
        # Sigma[r] = delta_q + Omega_a = 0 at the zero-pump point
        ("qubit_response", "delta_a_list = 20\ndelta_q_offset = -40\n", 3,
         "numerical", "idler"),
    ], ids=["negative_lam", "zero_g", "negative_gamma_1", "gain_unreachable",
            "idler_resonance"])
    def test_refused_point_exit_code(self, tmp_path, capsys, command, config,
                                     code, kind, match):
        assert run(tmp_path, command, config=config)[0] == code
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == kind and match in err["error"]

    def test_unstable_request_is_numerical_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "lam_ratios = 1.5\n")
        code = main(["oracle_compare", "--out", str(tmp_path), "--config",
                     str(cfg)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "numerical"

    @pytest.mark.parametrize("command", ["gain_map", "gbw", "qubit_response",
                                         "chi_sweep"])
    def test_overflow_is_numerical_error(self, tmp_path, capsys, command):
        # lambda_critical's kappa ** 2 overflows; the OverflowError once
        # escaped main as a traceback with exit 1
        code, _ = run(tmp_path, command, config="kappa = 1e200\n")
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


class TestLoadedModules:
    """What a command imports, each run in a fresh interpreter."""

    @pytest.mark.parametrize("command,extra,config", [
        ("gain_map", (), FAST_CONFIGS["gain_map"]),
        ("qubit_response", (), FAST_CONFIGS["qubit_response"]),
        # noiseless fits start at their solution, so the solver is not
        # needed; the oracle path adds no fit
        ("chi_sweep", (), FAST_CONFIGS["chi_sweep"]),
        ("chi_sweep", ("--oracle",), FAST_CONFIGS["chi_sweep"]
         + "n_fock = 12\n"),
    ], ids=["gain_map", "qubit_response", "chi_sweep", "chi_sweep-oracle"])
    def test_leaves_scipy_optimize_unloaded(self, tmp_path, command, extra,
                                            config):
        assert "scipy.optimize" not in loaded_modules(tmp_path, command,
                                                      *extra, config=config)

    @pytest.mark.parametrize("command,config", [
        ("gbw", FAST_CONFIGS["gbw"]),
        ("chi_sweep", FAST_CONFIGS["chi_sweep"] + "snr_db = 30\n"),
    ], ids=["gbw", "chi_sweep-snr30"])
    def test_loads_scipy_optimize(self, tmp_path, command, config):
        # gbw's peak search and a noisy chi fit use the optimizer
        assert "scipy.optimize" in loaded_modules(tmp_path, command,
                                                  config=config)


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

    @pytest.mark.parametrize("command", ["qubit_response", "chi_sweep",
                                         "oracle_compare"])
    def test_delta_q_with_delta_q_offset_is_config_error(self, tmp_path,
                                                         capsys, command):
        # a fixed delta_q once ignored the offset without a word
        code, out = run(tmp_path, command,
                        config=FAST_CONFIGS[command]
                        + "delta_q = -70\ndelta_q_offset = -50\n")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config"
        assert "delta_q or delta_q_offset" in err["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gain_map", "gbw",
                                         "oracle_compare"])
    def test_oracle_flag_only_on_oracle_commands(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--oracle"])
        assert exc.value.code == 2


class TestSerialization:
    def test_flat_values_stay_text(self):
        # SCHEMA types every value; the reader guesses no number type
        data = parse_flat("n_fock = 32\nkappa = 8.7\nlam = 1e2\n"
                          "delta_a_list = 0, 30\n")
        assert data == {"n_fock": "32", "kappa": "8.7", "lam": "1e2",
                        "delta_a_list": "0, 30"}

    def test_flat_comments_and_blank_lines(self):
        data = parse_flat("# header\n\nkappa = 8.7  # inline\n")
        assert data == {"kappa": "8.7"}

    def test_flat_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_flat("kappa 8.7\n")

    def test_json_file_detected_by_content(self, tmp_path):
        # JSON values keep their JSON types
        path = tmp_path / "p.txt"
        data = {"kappa": 2.0, "delta_a_list": [0.0, 30.0], "lam_points": 3}
        path.write_text(json.dumps(data))
        got = read_config(path)
        assert got == data and type(got["lam_points"]) is int

    def test_benchmark_configs_read_as_json_numbers(self):
        # every flat config the benchmark and these tests run resolves to
        # the values of the same numbers given as JSON
        configs = list(FAST_CONFIGS.items())
        for spec in workloads.SIZES.values():
            configs += [(key.removesuffix("_oracle"), text)
                        for key, text in spec.items()
                        if key.removesuffix("_oracle") in cli.SCHEMA
                        and text is not None]
        assert len(configs) == 16
        for command, text in configs:
            given = parse_flat(text)
            numbers = {}
            for key, val in given.items():
                listed = cli.SCHEMA[command][key][0] is cli._floats
                numbers[key] = json.loads(f"[{val}]" if listed else val)
            assert (repr(resolve_config(command, given))
                    == repr(resolve_config(command, numbers))), text


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
