"""End-to-end exercises of the command line: generate/analyze round
trips, every exit code, and the shape of each output file."""

import csv
import json
import subprocess
import sys

import pytest

from paraslice import boundary_clocks
from paraslice.cli import (
    EXIT_BAD_CONFIG,
    EXIT_MALFORMED,
    EXIT_NO_COMPUTE,
    EXIT_OK,
    EXIT_REFERENCE_MISMATCH,
    EXIT_STRICT,
    EXIT_UNREADABLE,
    main,
    parse_duration,
)

SCENARIO = {
    "name": "demo",
    "rank_count": 4,
    "seed": 3,
    "phases": [
        {"pattern": "ring_exchange", "iterations": 5,
         "compute": {"kind": "uniform", "mean_ns": 50000,
                     "jitter_ns": 5000},
         "message_bytes": 256},
    ],
}


@pytest.fixture()
def generated(tmp_path):
    """Scenario written, trace generated with --expected; returns paths."""
    scenario = tmp_path / "demo.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    prv = tmp_path / "demo.prv"
    code = main(["generate", str(scenario), "--out", str(prv),
                 "--expected"])
    assert code == EXIT_OK
    return {
        "scenario": scenario,
        "prv": prv,
        "expected": json.loads(
            (tmp_path / "demo.expected.json").read_text(encoding="utf-8")),
    }


def analyze(prv, out_dir, *extra):
    return main(["analyze", str(prv), "--out-dir", str(out_dir),
                 *map(str, extra)])


class TestParseDuration:
    def test_suffixes(self):
        assert parse_duration("250us") == 250_000
        assert parse_duration("25ms") == 25_000_000
        assert parse_duration("1.5s") == 1_500_000_000
        assert parse_duration("400ns") == 400
        assert parse_duration("1234") == 1234

    def test_rejects_garbage(self):
        for bad in ("abc", "12qq", "", "-5us", "0"):
            with pytest.raises(ValueError):
                parse_duration(bad)


class TestGenerate:
    def test_writes_trace_and_sidecars(self, generated, tmp_path, capsys):
        code = main(["generate", str(generated["scenario"]), "--out",
                     str(tmp_path / "again.prv")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "wrote" in out and "efficiency" in out
        assert generated["prv"].exists()
        assert generated["prv"].with_suffix(".pcf").exists()
        exp = generated["expected"]
        assert exp["rank_count"] == 4
        assert set(exp) >= {"total_duration_ns", "runtime_ideal_ns",
                            "load_balance", "serialisation", "transfer",
                            "efficiency", "phases"}

    def test_invalid_scenario_is_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rank_count": 2, "phases": [],
                                   "bogus": 1}), encoding="utf-8")
        code = main(["generate", str(bad), "--out",
                     str(tmp_path / "x.prv")])
        assert code == EXIT_BAD_CONFIG
        assert "invalid scenario" in capsys.readouterr().err

    def test_unparseable_json_is_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["generate", str(bad), "--out",
                     str(tmp_path / "x.prv")])
        assert code == EXIT_BAD_CONFIG

    def test_missing_scenario_is_unreadable(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "x.prv")])
        assert code == EXIT_UNREADABLE
        assert "cannot read" in capsys.readouterr().err


class TestAnalyze:
    def test_roundtrip_outputs(self, generated, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert analyze(generated["prv"], out_dir) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("demo: 4 ranks,")
        assert "efficiency" in line and "LB" in line

        csv_path = out_dir / "demo.windows.csv"
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["start_ns", "end_ns", "start_s", "end_s",
                           "merged_from", "flags", "load_balance",
                           "serialisation", "transfer", "efficiency"]
        body = rows[1:]
        assert body, "no windows emitted"
        assert body[0][0] == "0"
        assert int(body[-1][1]) == generated["expected"]["total_duration_ns"]
        for row in body:
            assert int(row[0]) < int(row[1])
            assert set(row[5].split("|")) <= {"", "merged", "idle"}
            for cell in row[6:]:
                if cell:
                    float(cell)

        summary = (out_dir / "demo.summary.txt").read_text(encoding="utf-8")
        exp = generated["expected"]
        assert f"runtime_observed_ns: {exp['total_duration_ns']}" in summary
        assert f"runtime_ideal_ns: {exp['runtime_ideal_ns']}" in summary
        assert "anomalies: 0" in summary

        anomalies = (out_dir / "demo.anomalies.txt").read_text(
            encoding="utf-8")
        assert anomalies.startswith("total: 0")
        assert "records:" in anomalies and "consumed:" in anomalies

    def test_default_window_is_span_over_fifty(self, generated, tmp_path):
        out_dir = tmp_path / "out"
        assert analyze(generated["prv"], out_dir) == EXIT_OK
        summary = (out_dir / "demo.summary.txt").read_text(encoding="utf-8")
        want = generated["expected"]["total_duration_ns"] // 50
        assert f"(requested {want})" in summary

    def test_explicit_window_propagates(self, generated, tmp_path):
        out_dir = tmp_path / "out"
        assert analyze(generated["prv"], out_dir, "--window", "25us") \
            == EXIT_OK
        summary = (out_dir / "demo.summary.txt").read_text(encoding="utf-8")
        assert "(requested 25000)" in summary

    def test_cutoff_clamps_span(self, generated, tmp_path):
        out_dir = tmp_path / "out"
        cutoff = generated["expected"]["total_duration_ns"] // 2
        assert analyze(generated["prv"], out_dir, "--cutoff",
                       f"{cutoff}ns") == EXIT_OK
        summary = (out_dir / "demo.summary.txt").read_text(encoding="utf-8")
        assert f"analysis_span_ns: {cutoff} (clamped)" in summary
        with open(out_dir / "demo.windows.csv", newline="",
                  encoding="utf-8") as fh:
            last = list(csv.reader(fh))[-1]
        assert int(last[1]) == cutoff

    def test_json_format(self, generated, tmp_path):
        out_dir = tmp_path / "out"
        assert analyze(generated["prv"], out_dir, "--format", "json") \
            == EXIT_OK
        payload = json.loads((out_dir / "demo.windows.json").read_text(
            encoding="utf-8"))
        assert payload["schema"] == "windows/1"
        windows = payload["windows"]
        assert windows and windows[0]["start_ns"] == 0
        assert not (out_dir / "demo.windows.csv").exists()

    def test_plot_payload(self, generated, tmp_path):
        out_dir = tmp_path / "out"
        assert analyze(generated["prv"], out_dir, "--plot") == EXIT_OK
        payload = json.loads((out_dir / "demo.plot.json").read_text(
            encoding="utf-8"))
        assert payload["schema"] == "plot/1"
        bounds = payload["boundaries_ns"]
        cp = payload["critical_path_ns"]
        assert len(bounds) == len(cp)
        assert cp == sorted(cp)
        n = len(payload["windows"]["start_ns"])
        assert len(payload["windows"]["efficiency"]) == n
        assert len(bounds) == n + 1

    def test_plot_reuses_boundary_clocks(self, generated, tmp_path,
                                         monkeypatch):
        import paraslice.cli as cli
        import paraslice.metrics as metrics

        calls = []

        def counted(timeline, boundaries):
            calls.append(len(boundaries))
            return boundary_clocks(timeline, boundaries)

        monkeypatch.setattr(cli, "boundary_clocks", counted)
        monkeypatch.setattr(metrics, "boundary_clocks", counted)
        assert analyze(generated["prv"], tmp_path / "out", "--plot") \
            == EXIT_OK
        assert len(calls) == 1

    def test_reference_match_passes(self, generated, tmp_path, capsys):
        exp = generated["expected"]
        ref = ",".join(repr(exp[k]) for k in
                       ("load_balance", "serialisation", "transfer",
                        "efficiency"))
        code = analyze(generated["prv"], tmp_path / "out",
                       "--reference-global", ref)
        assert code == EXIT_OK
        assert "reference check passed" in capsys.readouterr().out

    def test_reference_mismatch_fails(self, generated, tmp_path, capsys):
        code = analyze(generated["prv"], tmp_path / "out",
                       "--reference-global", "0.5,0.5,0.5,0.125")
        assert code == EXIT_REFERENCE_MISMATCH
        assert "reference mismatch" in capsys.readouterr().err

    def test_missing_trace_is_unreadable(self, tmp_path, capsys):
        assert analyze(tmp_path / "nope.prv", tmp_path) == EXIT_UNREADABLE
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_header_exits_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.prv"
        bad.write_text("this is not a trace\n", encoding="utf-8")
        assert analyze(bad, tmp_path) == EXIT_MALFORMED
        assert "error" in capsys.readouterr().err

    def test_integer_beyond_int64_is_dropped(self, generated, tmp_path):
        # one bad record is logged, not a traceback
        dirty = tmp_path / "huge.prv"
        text = generated["prv"].read_text(encoding="utf-8")
        dirty.write_text(text + "3:0:1:1:1:5:5:1:1:2:1:9:9:"
                         "99999999999999999999:1\n", encoding="utf-8")
        assert analyze(dirty, tmp_path / "out") == EXIT_OK
        anomalies = (tmp_path / "out" / "huge.anomalies.txt").read_text(
            encoding="utf-8")
        assert "malformed_record @ line" in anomalies
        assert "integer outside the 64-bit range" in anomalies

    def test_no_compute_trace(self, tmp_path, capsys):
        prv = tmp_path / "idle.prv"
        prv.write_text(
            "#Paraver (12/07/2025 at 10:00):100_ns:1(2):1:2(1:1,1:1)\n"
            "2:0:1:1:1:0:50000003:1\n"
            "2:0:1:1:1:100:50000003:0\n"
            "2:0:1:2:1:0:50000003:1\n"
            "2:0:1:2:1:100:50000003:0\n",
            encoding="utf-8")
        assert analyze(prv, tmp_path / "out") == EXIT_NO_COMPUTE
        assert "outside MPI" in capsys.readouterr().err

    def test_strict_mode_rejects_anomalies(self, generated, tmp_path,
                                           capsys):
        # an MPI region left open at end of stream degrades by default
        # but aborts under --strict
        duration = generated["expected"]["total_duration_ns"]
        dirty = tmp_path / "dirty.prv"
        text = generated["prv"].read_text(encoding="utf-8")
        dirty.write_text(text + f"2:0:1:1:1:{duration}:50000003:1\n",
                         encoding="utf-8")

        out_dir = tmp_path / "out"
        assert analyze(dirty, out_dir) == EXIT_OK
        anomalies = (out_dir / "dirty.anomalies.txt").read_text(
            encoding="utf-8")
        assert anomalies.startswith("total: 1")

        assert analyze(dirty, out_dir, "--strict") == EXIT_STRICT
        assert "strict mode" in capsys.readouterr().err

    def test_strict_on_clean_trace_passes(self, generated, tmp_path):
        assert analyze(generated["prv"], tmp_path / "out", "--strict") \
            == EXIT_OK

    def test_negative_eager_limit_is_bad_config(self, generated, tmp_path,
                                                capsys):
        code = analyze(generated["prv"], tmp_path, "--eager-limit", "-5")
        assert code == EXIT_BAD_CONFIG
        assert "non-negative" in capsys.readouterr().err

    def test_eager_limit_env(self, generated, tmp_path, monkeypatch):
        monkeypatch.setenv("PARASLICE_EAGER_LIMIT", "0")
        out_dir = tmp_path / "out"
        assert analyze(generated["prv"], out_dir) == EXIT_OK
        summary = (out_dir / "demo.summary.txt").read_text(encoding="utf-8")
        assert "eager_limit_bytes: 0" in summary

    def test_bad_eager_limit_env(self, generated, tmp_path, monkeypatch,
                                 capsys):
        monkeypatch.setenv("PARASLICE_EAGER_LIMIT", "lots")
        assert analyze(generated["prv"], tmp_path) == EXIT_BAD_CONFIG
        assert "PARASLICE_EAGER_LIMIT" in capsys.readouterr().err

    def test_flag_eager_limit_overrides_env(self, generated, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("PARASLICE_EAGER_LIMIT", "lots")  # never parsed
        out_dir = tmp_path / "out"
        assert analyze(generated["prv"], out_dir, "--eager-limit",
                       "1024") == EXIT_OK
        summary = (out_dir / "demo.summary.txt").read_text(encoding="utf-8")
        assert "eager_limit_bytes: 1024" in summary

    def test_min_events_below_three_rejected_by_parser(self, generated,
                                                       tmp_path):
        with pytest.raises(SystemExit) as exc:
            analyze(generated["prv"], tmp_path, "--min-events", "2")
        assert exc.value.code == 2

    def test_bad_window_rejected_by_parser(self, generated, tmp_path):
        with pytest.raises(SystemExit) as exc:
            analyze(generated["prv"], tmp_path, "--window", "soon")
        assert exc.value.code == 2

    def test_time_unit_override_scales_bare_header(self, tmp_path):
        prv = tmp_path / "bare.prv"
        prv.write_text(
            "#Paraver (12/07/2025 at 10:00):1000:1(2):1:2(1:1,1:1)\n",
            encoding="utf-8")
        out_dir = tmp_path / "out"
        assert analyze(prv, out_dir) == EXIT_OK
        summary = (out_dir / "bare.summary.txt").read_text(encoding="utf-8")
        assert "runtime_observed_ns: 1000" in summary

        assert analyze(prv, out_dir, "--time-unit", "us") == EXIT_OK
        summary = (out_dir / "bare.summary.txt").read_text(encoding="utf-8")
        assert "runtime_observed_ns: 1000000" in summary

    def test_out_dir_created(self, generated, tmp_path):
        nested = tmp_path / "deep" / "er"
        assert analyze(generated["prv"], nested) == EXIT_OK
        assert (nested / "demo.summary.txt").exists()


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
        gen = subprocess.run(
            [sys.executable, "-m", "paraslice.cli", "generate",
             str(scenario), "--out", str(tmp_path / "s.prv")],
            capture_output=True, text=True)
        assert gen.returncode == EXIT_OK, gen.stderr
        run = subprocess.run(
            [sys.executable, "-m", "paraslice.cli", "analyze",
             str(tmp_path / "s.prv"), "--out-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert run.returncode == EXIT_OK, run.stderr
        assert "4 ranks" in run.stdout

    def test_analyze_never_imports_numpy_ma(self, tmp_path):
        """numpy.ma takes about 20 ms to import; a clean analyze run,
        collectives and sub-communicators included, must not load it."""
        doc = dict(SCENARIO, phases=SCENARIO["phases"] + [
            {"pattern": "allreduce", "iterations": 3,
             "compute": {"kind": "uniform", "mean_ns": 20000},
             "communicator_split": 2}])
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        prv = tmp_path / "s.prv"
        assert main(["generate", str(scenario), "--out", str(prv)]) == EXIT_OK
        code = ("import sys\n"
                "from paraslice.cli import main\n"
                f"rc = main(['analyze', {str(prv)!r}, '--out-dir', "
                f"{str(tmp_path / 'out')!r}, '--format', 'json', '--plot'])\n"
                "assert rc == 0, rc\n"
                "assert 'numpy.ma' not in sys.modules\n")
        run = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
