"""Command-line interface: flags, file schemas, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from thermalwigner import __version__, cli, closed_form
from thermalwigner.analysis import negativity_of_state
from thermalwigner.cli import main
from thermalwigner.closed_form import wigner_closed_form
from thermalwigner.states import Family, PhasePoint, StateSpec
from thermalwigner.thermo import params_from_theta


def run(argv):
    return main(argv)


def strict_json(path):
    """Parse a file as RFC 8259 JSON: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def spy_on_kernels(monkeypatch, calls):
    """Record instead of running any closed-form kernel: every one is prepared."""
    monkeypatch.setattr(closed_form, "prepare_gaussian", lambda *args: calls.append(args))


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private subclass of MemoryError."""


class TestEval:
    def test_csv_schema_and_roundtrip(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run([
            "eval", "--family", "added", "--n", "1", "--theta", "0.2",
            "--box", "4", "--res", "9", "--format", "csv", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "q,p,w"
        assert len(lines) == 1 + 9 * 9
        # row-major in q then p: first 9 rows share q = -4
        rows = [line.split(",") for line in lines[1:]]
        assert all(float(r[0]) == -4.0 for r in rows[:9])
        assert [float(r[1]) for r in rows[:9]] == list(np.linspace(-4, 4, 9))
        # 17 significant digits round-trip doubles exactly
        center = rows[4 * 9 + 4]
        state = StateSpec(Family.PHOTON_ADDED, params_from_theta(0.2), n=1)
        expected = wigner_closed_form(state, PhasePoint(0.0, 0.0))
        assert float(center[2]) == expected

    def test_json_output_is_self_describing(self, tmp_path):
        out = tmp_path / "grid.json"
        assert run([
            "eval", "--family", "vacuum", "--theta", "0.5",
            "--res", "5", "--format", "json", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == __version__
        assert payload["config"]["family"] == "vacuum"
        assert payload["grid"]["nq"] == 5
        assert len(payload["grid"]["values"]) == 5
        # metadata and values survive serialization bit-exactly
        from thermalwigner.analysis import Box, Source, sample_grid
        from thermalwigner.states import Family, StateSpec
        from thermalwigner.thermo import params_from_theta
        grid = sample_grid(
            StateSpec(Family.THERMAL_VACUUM, params_from_theta(0.5)),
            Box.symmetric(4.0), 5, 5, Source.CLOSED_FORM,
        )
        assert np.array_equal(np.array(payload["grid"]["values"]), grid.values)
        assert payload["grid"]["state"]["theta"] == 0.5
        assert payload["grid"]["box"] == grid.box.to_dict()

    def test_oracle_source(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run([
            "eval", "--family", "vacuum", "--theta", "0.2",
            "--box", "2", "--res", "5", "--source", "oracle", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        w_origin = float(lines[1 + 2 * 5 + 2].split(",")[2])
        assert w_origin == pytest.approx(1.0 / math.cosh(0.4) / math.pi, abs=1e-10)

    def test_thermal_input_routes_agree(self, tmp_path):
        theta = 0.5
        n_c = math.sinh(theta) ** 2
        # omega/kT pair chosen so that artanh(exp(-omega/2kT)) = theta
        kt = -1.0 / (2.0 * math.log(math.tanh(theta)))
        routes = (
            ["--theta", str(theta)],
            ["--nc", str(n_c)],
            ["--omega", "1.0", "--kt", str(kt)],
        )
        values = []
        for i, extra in enumerate(routes):
            out = tmp_path / f"grid{i}.csv"
            assert run([
                "eval", "--family", "subtracted", "--n", "1",
                "--box", "3", "--res", "5", "--out", str(out), *extra,
            ]) == 0
            values.append([
                float(line.split(",")[2])
                for line in out.read_text().splitlines()[1:]
            ])
        assert values[1] == pytest.approx(values[0], rel=1e-12)
        assert values[2] == pytest.approx(values[0], rel=1e-12)

    @pytest.mark.parametrize("route", [
        ["--theta", "0.5"],
        ["--nc", "0.4"],
        ["--omega", "1.3", "--kt", "0.9"],
    ])
    def test_reported_n_c_is_sinh_squared_of_theta(self, tmp_path, route):
        out = tmp_path / "report.json"
        assert run(["verify", "--family", "vacuum", "--out", str(out), *route]) == 0
        state = strict_json(out)["report"]["state"]
        assert state["n_c"] == math.sinh(state["theta"]) ** 2


class TestVerify:
    def test_pass_and_report_content(self, tmp_path):
        out = tmp_path / "report.json"
        assert run([
            "verify", "--family", "subtracted", "--n", "2", "--theta", "0.8",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == __version__
        assert payload["config"]["theta"] == 0.8
        report = payload["report"]
        assert report["passed"] is True
        assert report["max_abs_err"] < 1e-8
        assert report["tolerances"]["max_abs_err"] == 1e-8
        assert abs(report["norm_integral"] - 1.0) < 1e-4
        # oracle provenance: its basis size and the population mass it cut off
        assert report["details"]["oracle_dim"] > 2
        assert 0.0 < report["details"]["oracle_tail"] < 1e-15

    def test_failure_exit_code(self, tmp_path):
        out = tmp_path / "report.json"
        assert run([
            "verify", "--family", "vacuum", "--theta", "0.2",
            "--tol-max-err", "1e-30", "--out", str(out),
        ]) == 1
        assert json.loads(out.read_text())["report"]["passed"] is False

    def test_failed_comparison_report_is_strict_json(self, tmp_path):
        # the oracle refuses this state, so the grid comparison never runs
        out = tmp_path / "report.json"
        assert run([
            "verify", "--family", "number", "--n", "7", "--theta", "0.5",
            "--out", str(out),
        ]) == 1
        report = strict_json(out)["report"]
        assert report["passed"] is False
        assert report["max_abs_err"] is None and report["mean_abs_err"] is None
        assert report["details"] == {}
        assert report["errors"][0].startswith("grid comparison: two-mode truncation deficit")

    def test_refused_status_line_says_not_measured(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run([
            "verify", "--family", "number", "--n", "7", "--theta", "0.5",
            "--out", str(out),
        ]) == 1
        stdout = capsys.readouterr().out
        assert stdout == (
            "FAIL oracle-vs-closed-form number(n=7, theta=0.5) (max_abs_err=not measured)\n"
        )
        assert strict_json(out)["report"]["max_abs_err"] is None

    def test_report_to_stdout_by_default(self, capsys):
        assert run(["verify", "--family", "vacuum", "--theta", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["passed"] is True

    def test_oracle_eval_of_thermal_number_family(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run([
            "eval", "--family", "number", "--n", "1", "--theta", "0.3",
            "--box", "2", "--res", "5", "--source", "oracle", "--out", str(out),
        ]) == 0
        w_origin = float(out.read_text().splitlines()[1 + 2 * 5 + 2].split(",")[2])
        state = StateSpec(Family.THERMAL_NUMBER, params_from_theta(0.3), n=1)
        expected = wigner_closed_form(state, PhasePoint(0.0, 0.0))
        assert w_origin == pytest.approx(expected, abs=1e-10)


def _reference_grid_csv(grid, fh):
    """The CSV writer before its per-row batching: three formats per node."""
    fh.write("q,p,w\n")
    for i, qv in enumerate(grid.q_axis):
        for j, pv in enumerate(grid.p_axis):
            fh.write(f"{cli._fmt(qv)},{cli._fmt(pv)},{cli._fmt(grid.values[i, j])}\n")


class TestGridCsvWriter:
    @pytest.mark.parametrize("res", [9, 10])
    def test_bytes_match_the_per_node_writer(self, res):
        from thermalwigner.analysis import Box, Source, sample_grid
        from thermalwigner.states import Family, StateSpec
        from thermalwigner.thermo import params_from_theta

        spec = StateSpec(Family.PHOTON_ADDED, params_from_theta(0.7), n=3)
        grid = sample_grid(spec, Box(-3.1, 4.0, -2.0, 2.0), res, res + 3, Source.CLOSED_FORM)
        grid.values[0, 0] = -0.0
        got, want = io.StringIO(), io.StringIO()
        cli.write_grid_csv(grid, got)
        _reference_grid_csv(grid, want)
        assert got.getvalue() == want.getvalue()


class TestGridJsonWriter:
    @staticmethod
    def _grid(nq, np_):
        from thermalwigner.analysis import Box, Source, sample_grid
        from thermalwigner.states import Family, StateSpec
        from thermalwigner.thermo import params_from_theta

        spec = StateSpec(Family.PHOTON_ADDED, params_from_theta(0.7), n=3)
        return sample_grid(spec, Box(-3.1, 4.0, -2.0, 2.0), nq, np_, Source.CLOSED_FORM)

    @pytest.mark.parametrize("nq, np_", [(2, 2), (5, 8), (9, 4)])
    def test_bytes_match_json_dump_of_the_whole_grid(self, nq, np_):
        grid = self._grid(nq, np_)
        grid.values[0, 0] = -0.0
        grid.values[-1, -1] = 1e-300
        # a config value equal to the placeholder must not be taken for it
        config = {"family": "added", "out": cli._VALUES_MARK, "theta": 0.7}
        got, want = io.StringIO(), io.StringIO()
        cli.write_grid_json(grid, got, config)
        cli._dump_json({"version": __version__, "config": config, "grid": grid.to_dict()}, want)
        assert got.getvalue() == want.getvalue()
        assert json.loads(got.getvalue())["grid"]["values"] == grid.values.tolist()

    def test_holds_one_row_of_python_floats(self, tmp_path):
        # json.dump of the whole 301 x 301 grid as Python lists peaks near 3 MB
        import tracemalloc

        grid = self._grid(301, 301)
        with open(tmp_path / "grid.json", "w") as fh:
            tracemalloc.start()
            try:
                cli.write_grid_json(grid, fh, {})
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 200_000, peak


class TestParserReuse:
    COMMANDS = (
        ["eval", "--family", "added", "--n", "1", "--theta", "0.2", "--res", "7",
         "--format", "json"],
        ["verify", "--family", "vacuum", "--nc", "0.4"],
        ["eval", "--family", "subtracted", "--n", "2", "--omega", "1.3", "--kt", "0.9",
         "--res", "5"],
    )

    def _run_all(self, tmp_path, fresh):
        outputs = []
        for k, argv in enumerate(self.COMMANDS):
            if fresh:
                cli._main_parser.cache_clear()
            out = tmp_path / f"{'fresh' if fresh else 'shared'}{k}"
            assert run(argv + ["--out", str(out)]) in (0, 1)
            outputs.append(out.read_text().replace(str(out), "OUT"))
        return outputs

    def test_one_parser_gives_the_same_files_as_fresh_ones(self, tmp_path):
        cli._main_parser.cache_clear()
        shared = self._run_all(tmp_path, fresh=False)
        assert cli._main_parser.cache_info().misses == 1
        assert shared == self._run_all(tmp_path, fresh=True)

    def test_usage_error_after_a_good_call_exits_2(self, tmp_path):
        assert run(["negativity", "--family", "added", "--n", "1", "--theta", "0.2"]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["negativity", "--family", "added", "--n", "1"])
        assert exc.value.code == 2
        assert cli.build_parser() is not cli.build_parser()


class TestUsageErrors:
    def test_conflicting_thermal_inputs(self):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--family", "added", "--theta", "0.2", "--nc", "1.0"])
        assert exc.value.code == 2

    def test_missing_thermal_input(self):
        with pytest.raises(SystemExit) as exc:
            run(["negativity", "--family", "added", "--n", "1"])
        assert exc.value.code == 2

    def test_lonely_omega(self):
        with pytest.raises(SystemExit) as exc:
            run(["negativity", "--family", "added", "--n", "1", "--omega", "1.0"])
        assert exc.value.code == 2

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--family", "squeezed", "--theta", "0.2"])
        assert exc.value.code == 2

    def test_degenerate_resolution(self):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--family", "vacuum", "--theta", "0.2", "--res", "1"])
        assert exc.value.code == 2

    def test_nonpositive_box(self):
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--family", "vacuum", "--theta", "0.2", "--box", "-4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_scan_needs_a_step(self, tmp_path, steps):
        out = tmp_path / "scan.csv"
        with pytest.raises(SystemExit) as exc:
            run(["scan-theta", "--family", "vacuum", f"--steps={steps}", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--theta-max", "6"), ("--theta-max", "5.0001"), ("--theta-min", "-0.1"),
        ("--theta-min", "nan"), ("--theta-max", "inf"),
    ])
    def test_scan_refuses_a_theta_bound_outside_the_validated_range(
            self, tmp_path, monkeypatch, capsys, flag, value):
        # refused as typed, naming the flag, before any step is evaluated
        def no_scan(*args, **kwargs):
            raise AssertionError("scan_theta ran")

        monkeypatch.setattr(cli.analysis, "scan_theta", no_scan)
        out = tmp_path / "scan.csv"
        with pytest.raises(SystemExit) as exc:
            run(["scan-theta", "--family", "number", "--n", "2", f"{flag}={value}",
                 "--out", str(out)])
        assert exc.value.code == 2
        assert f"{flag} must lie in [0, 5]" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_accepts_the_validated_range_bounds(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["scan-theta", "--family", "vacuum", "--theta-min", "0",
                    "--theta-max", "5", "--steps", "2", "--no-negativity",
                    "--out", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["theta", "0", "5"]

    @pytest.mark.parametrize("option", [["--box", "3"], ["--res", "5"]])
    def test_verify_takes_no_grid_options(self, tmp_path, option):
        # verify compares on the state's own norm box, with no override
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--family", "vacuum", "--theta", "0.2", *option, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tol-max-err", "--tol-norm"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-8"])
    def test_verify_tolerance_must_be_positive_finite(self, tmp_path, flag, value):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--family", "vacuum", "--theta", "0.2",
                 f"{flag}={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


class TestNumericalFailures:
    def test_degenerate_state_reports_reason(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run([
            "eval", "--family", "subtracted", "--n", "1", "--theta", "0.0",
            "--res", "5", "--out", str(out),
        ])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["error"] == "DegenerateStateError"
        assert "null state" in payload["message"]
        assert "error:" in capsys.readouterr().err

    def test_occupation_above_the_range_names_n_c(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--family", "vacuum", "--nc", "1e5", "--out", str(out)]) == 1
        payload = strict_json(out)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("n_c = 100000 exceeds the validated range")
        assert "theta" not in payload["message"]
        assert "error:" in capsys.readouterr().err

    def test_unopenable_out_reports_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "missing" / "w.csv"
        assert run(["eval", "--family", "added", "--n", "1", "--theta", "0.4",
                    "--res", "11", "--out", str(out)]) == 1
        assert not out.parent.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        payload, end = json.JSONDecoder().raw_decode(captured.err)
        assert payload["error"] == "FileNotFoundError"
        assert payload["config"]["out"] == str(out)
        assert captured.err[end:].startswith("\nerror: ")

    @staticmethod
    def _cli_process(args, stdout, unbuffered=False):
        # stdout block-buffered, as for any pipe, or unbuffered as under
        # PYTHONUNBUFFERED=1, where each write meets a closed pipe at once
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen([sys.executable, "-m", "thermalwigner.cli", *args],
                                stdout=stdout, stderr=subprocess.PIPE, env=env)

    def _to_a_pipe_without_reader(self, args, unbuffered=False):
        """(exit code, stderr) of a command whose stdout pipe has no reader from the start."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._cli_process(args, write_end, unbuffered)
        finally:
            os.close(write_end)
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err

    def _head_two_lines(self, args):
        # a reader that stops after two lines, as head -2 does
        proc = self._cli_process(args, subprocess.PIPE)
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err, head

    def test_closed_stdout_exits_141_and_writes_nothing_to_stderr(self):
        code, err, head = self._head_two_lines(
            ["eval", "--family", "added", "--n", "1", "--theta", "0.3", "--res", "301"])
        assert code == 141
        assert err == b""
        assert head[0] == b"q,p,w\n" and head[1].startswith(b"-4,-4,")

    def test_closed_stdout_named_by_out_dash_exits_141(self):
        code, err, head = self._head_two_lines(
            ["eval", "--family", "added", "--n", "1", "--theta", "0.3", "--res", "301",
             "--out", "-"])
        assert code == 141
        assert err == b""
        assert head[0] == b"q,p,w\n" and head[1].startswith(b"-4,-4,")

    def test_small_output_to_a_pipe_without_reader_exits_141(self):
        # the whole output fits the buffer, so the write fails only at the
        # flush before main returns; as `negativity ... | true` does
        code, err = self._to_a_pipe_without_reader(
            ["negativity", "--family", "added", "--n", "1", "--theta", "0.3"])
        assert code == 141
        assert err == b""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args, passed", [
        (["--family", "added", "--n", "1", "--theta", "0.3"], True),
        (["--family", "number", "--n", "7", "--theta", "0.5"], False),  # refused by the oracle
    ], ids=["passing", "failing"])
    def test_verify_status_line_without_reader_keeps_the_report(self, tmp_path, args, passed,
                                                                unbuffered):
        # as `verify --out FILE | true`: the report is written before the
        # PASS/FAIL line meets the closed pipe, so the exit is the verdict,
        # stderr stays empty and the report stays in the file
        out = tmp_path / "v.json"
        code, err = self._to_a_pipe_without_reader(["verify", *args, "--out", str(out)],
                                                   unbuffered)
        assert code == (0 if passed else 1)
        assert err == b""
        assert strict_json(out)["report"]["passed"] is passed

    def test_broken_pipe_on_an_out_file_is_a_failure(self, tmp_path, monkeypatch):
        def closed(grid, fh):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "write_grid_csv", closed)
        out = tmp_path / "w.csv"
        assert run(["eval", "--family", "added", "--n", "1", "--theta", "0.4", "--res", "11",
                    "--out", str(out)]) == 1
        assert strict_json(out)["error"] == "BrokenPipeError"

    def test_non_finite_argument_is_echoed_as_null(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--family", "vacuum", "--theta", "nan", "--out", str(out)]) == 1
        payload = strict_json(out)
        assert payload["error"] == "ValueError"
        assert payload["config"]["theta"] is None
        assert "got nan" in payload["message"]

    @pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
    def test_memory_error_reports_reason(self, tmp_path, monkeypatch, capsys, error):
        def exhausted(*args, **kwargs):
            raise error("Unable to allocate 11.9 GiB")

        monkeypatch.setattr(cli.analysis, "sample_grid", exhausted)
        out = tmp_path / "grid.json"
        assert run(["eval", "--family", "vacuum", "--theta", "0.3", "--res", "40000",
                    "--out", str(out)]) == 1
        payload = strict_json(out)
        assert payload["error"] == "MemoryError"
        assert "Unable to allocate" in payload["message"]
        assert "error:" in capsys.readouterr().err

    def test_grid_beyond_physical_memory_is_refused_before_allocating(
            self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli.analysis, "_physical_memory_bytes", lambda: 1 << 20)
        spy_on_kernels(monkeypatch, calls)
        out = tmp_path / "grid.json"
        assert run(["eval", "--family", "vacuum", "--theta", "0.3", "--res", "401",
                    "--out", str(out)]) == 1
        payload = strict_json(out)
        assert payload["error"] == "MemoryError"
        estimate = 160801 * cli.analysis._SAMPLE_GRID_BYTES_PER_NODE
        assert f"(160801 nodes) needs about {estimate} bytes" in payload["message"]
        assert f"more than the {1 << 20} bytes of physical memory" in payload["message"]
        assert "error:" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("source", ["closed-form", "oracle"])
    @pytest.mark.parametrize("family", [f.value for f in Family])
    def test_overflowing_box_is_refused_alike(self, tmp_path, monkeypatch, capsys,
                                              family, source):
        calls = []
        spy_on_kernels(monkeypatch, calls)
        monkeypatch.setattr(cli.analysis.fock_oracle, "wigner_radial_from_density",
                            lambda *args: calls.append(args))
        out = tmp_path / "grid.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["eval", "--family", family, "--n", "2", "--theta", "0.3",
                        "--res", "3", "--box", "1e200", "--source", source,
                        "--out", str(out)]) == 1
        assert caught == []
        payload = strict_json(out)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("|alpha|^2 = (q^2 + p^2) / 2 overflows")
        assert "RuntimeWarning" not in capsys.readouterr().err
        assert calls == []


    @pytest.mark.parametrize("family, n, box", [("added", 16, "1e12"),
                                                ("subtracted", 2, "1e100")])
    def test_far_tail_of_a_huge_box_is_zero(self, tmp_path, capsys, family, n, box):
        # exp(-2u) underflows at the corners and edges, where L_n would overflow
        out = tmp_path / "grid.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["eval", "--family", family, "--n", str(n), "--theta", "0.5",
                        "--res", "3", "--box", box, "--out", str(out)]) == 0
        assert caught == []
        assert "RuntimeWarning" not in capsys.readouterr().err
        w = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert len(w) == 9 and float(w[4]) != 0.0
        assert w[:4] + w[5:] == ["0"] * 8


class TestNegativityCommand:
    def test_prints_scalar(self, capsys):
        assert run(["negativity", "--family", "added", "--n", "1", "--theta", "0.2"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 < value < 1.0

    def test_subtracted_is_zero(self, capsys):
        assert run(["negativity", "--family", "subtracted", "--n", "2", "--theta", "0.5"]) == 0
        assert float(capsys.readouterr().out.strip()) <= 1e-6


class TestScanTheta:
    def test_csv_columns_and_damping(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run([
            "scan-theta", "--family", "added", "--n", "1",
            "--theta-min", "0.1", "--theta-max", "2.0", "--steps", "20",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theta,w0,abs_w0,negativity_volume"
        assert len(lines) == 21
        amp = [float(line.split(",")[2]) for line in lines[1:]]
        neg = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a > b for a, b in zip(amp, amp[1:]))
        assert all(a > b for a, b in zip(neg, neg[1:]))

    def test_number_at_zero_theta_is_the_number_state(self, tmp_path):
        # S(0) = 1: the scan starts at |n>, and each row is its one-state value
        out = tmp_path / "scan.csv"
        assert run(["scan-theta", "--family", "number", "--n", "2", "--theta-min", "0",
                    "--steps", "3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        assert float(rows[0][1]) == 1.0 / math.pi
        for theta, w0, abs_w0, negativity in rows:
            spec = StateSpec(Family.THERMAL_NUMBER, params_from_theta(float(theta)), n=2)
            assert float(w0) == wigner_closed_form(spec, PhasePoint(0.0, 0.0))
            assert float(abs_w0) == abs(float(w0))
            assert float(negativity) == negativity_of_state(spec)

    def test_no_negativity_flag(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run([
            "scan-theta", "--family", "vacuum", "--steps", "3",
            "--no-negativity", "--out", str(out),
        ]) == 0
        assert out.read_text().splitlines()[0] == "theta,w0,abs_w0"
