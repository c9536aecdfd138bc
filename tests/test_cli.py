"""End-to-end exercises of the command line: generate/analyze round
trips, every exit code, and the shape of each output file."""

import csv
import json
import subprocess
import sys

import pytest

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
from paraslice.model import AnomalyKind, validate_trace
from paraslice.prv import IngestError, load_trace
from paraslice.replay import replay
from paraslice.windows import boundary_clocks

from test_ingest_diff import CASES, corpus_file

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


@pytest.fixture()
def unmatched_send(generated, tmp_path):
    """The generated trace plus one message sent after its end, so
    outside every region of its sender: ingest keeps it, replay
    degrades it."""
    total = generated["expected"]["total_duration_ns"]
    send = total + 100
    prv = tmp_path / "unmatched.prv"
    prv.write_bytes(generated["prv"].read_bytes()
                    + b"3:1:1:1:1:%d:%d:2:1:2:1:%d:%d:64:999\n"
                    % (send, send, send + 50, send + 50))
    return prv


@pytest.fixture()
def short_header(generated, tmp_path):
    """The generated trace with its header duration halved, which
    ingest logs and analysis tolerates."""
    total = generated["expected"]["total_duration_ns"]
    header, body = generated["prv"].read_bytes().split(b"\n", 1)
    old = b":%d_ns:" % total
    assert old in header
    prv = tmp_path / "short.prv"
    prv.write_bytes(header.replace(old, b":%d_ns:" % (total // 2))
                    + b"\n" + body)
    return prv, total


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
        for bad in ("abc", "12qq", "", "-5us", "0", "infs", "1e400s",
                    "infms", "nanus", "1e300s"):
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

    def test_wrongly_typed_scenario_is_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENARIO, rank_count="2")),
                       encoding="utf-8")
        code = main(["generate", str(bad), "--out",
                     str(tmp_path / "x.prv")])
        assert code == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "error: invalid scenario: rank_count must be an integer, "
            "got '2'\n")

    def test_missing_scenario_is_unreadable(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "x.prv")])
        assert code == EXIT_UNREADABLE
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_scenario_is_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe" + json.dumps(SCENARIO).encode())
        code = main(["generate", str(bad), "--out",
                     str(tmp_path / "x.prv")])
        assert code == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario: ")
        assert err.count("\n") == 1

    def test_unwritable_expected_json_is_unreadable(self, tmp_path, capsys):
        scenario = tmp_path / "sc.json"
        scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
        (tmp_path / "x.expected.json").mkdir()
        code = main(["generate", str(scenario), "--out",
                     str(tmp_path / "x.prv"), "--expected"])
        assert code == EXIT_UNREADABLE
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: cannot write {tmp_path / 'x.expected.json'}: ")
        assert err.count("\n") == 1


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

    def test_huge_rank_count_exits_malformed(self, tmp_path, capsys):
        """A header declaring 10**12 ranks ends in exit 4 and one error
        line, before any per-rank column is allocated."""
        bad = tmp_path / "huge.prv"
        bad.write_text("#Paraver (01/01/25 at 00:00):100_ns:1(1):1:"
                       "1(1000000000000:0)\n2:1:1:1:1:10:50000001:1\n")
        assert analyze(bad, tmp_path / "out") == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err == ("error: line 1: 1000000000000 ranks declared, at "
                       "most 16777216 supported\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [(), ("--strict",)])
    def test_clocks_beyond_int64_exit_malformed(self, tmp_path, capsys,
                                                flags):
        """Twelve zero-length world barriers; rank r enters the first r
        at 0 and the rest at 9e17 ns, so each barrier adds 9e17 to the
        ideal clock, which would wrap past 2**63.  Replay refuses the
        trace: exit 4 and one error line, no negative factor."""
        P, late = 12, 9 * 10**17
        lines = [f"2:{r + 1}:1:{r + 1}:1:{t}:50000002:{v}"
                 for t in (0, late) for r in range(P) for k in range(P)
                 if (k >= r) == (t == late) for v in (1, 0)]
        prv = tmp_path / "wrap.prv"
        prv.write_text(f"#Paraver (01/01/25 at 00:00):{late + 10}_ns:1({P}):"
                       f"1:{P}({','.join(['1:1'] * P)})\n"
                       + "".join(line + "\n" for line in lines))
        assert analyze(prv, tmp_path / "out", *flags) == EXIT_MALFORMED
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: replay: ")
        assert out.err.count("\n") == 1

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

    def test_strict_rejects_duration_short_of_last_timestamp(
            self, short_header, tmp_path, capsys):
        prv, total = short_header
        assert analyze(prv, tmp_path / "out", "--strict") == EXIT_STRICT
        assert capsys.readouterr().err == (
            f"error: strict mode: 1 anomalies during ingest; first: "
            f"malformed_record @ header: total_duration {total // 2} "
            f"< last timestamp {total}\n")

    def test_short_header_logged_by_default(self, short_header, tmp_path):
        prv, total = short_header
        out_dir = tmp_path / "out"
        assert analyze(prv, out_dir) == EXIT_OK
        lines = (out_dir / "short.anomalies.txt").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "total: 1"
        assert lines[2:] == [
            "malformed_record: 1", "",
            f"malformed_record @ header: total_duration {total // 2} "
            f"< last timestamp {total}"]

    def test_strict_reports_unmatched_send_from_replay(
            self, unmatched_send, tmp_path, capsys):
        # ingest keeps the message and validate_trace leaves messages to
        # replay, whose one-line report is the strict refusal
        assert analyze(unmatched_send, tmp_path / "out", "--strict") \
            == EXIT_STRICT
        send = int(unmatched_send.read_text(encoding="utf-8")
                   .splitlines()[-1].split(":")[5])
        assert capsys.readouterr().err == (
            "error: strict mode: 1 anomalies during replay; first: "
            f"unmatched_send @ message 20: send at {send} outside any "
            "region of rank 0\n")
        assert not (tmp_path / "out").exists()

    @pytest.fixture()
    def unused_bad_communicator(self, generated, tmp_path):
        """The generated trace with a communicator definition that no
        collective uses, listing rank 0 twice."""
        prv = tmp_path / "badcomm.prv"
        prv.write_bytes(generated["prv"].read_bytes() + b"c:1:5:2:1:1\n")
        return prv

    def test_unused_bad_communicator_logged_by_default(
            self, unused_bad_communicator, tmp_path):
        out_dir = tmp_path / "out"
        assert analyze(unused_bad_communicator, out_dir) == EXIT_OK
        lines = (out_dir / "badcomm.anomalies.txt").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "total: 1"
        assert lines[2:] == [
            "malformed_record: 1", "",
            "malformed_record @ communicator 5: duplicate members"]

    def test_strict_rejects_unused_bad_communicator(
            self, unused_bad_communicator, tmp_path, capsys):
        assert analyze(unused_bad_communicator, tmp_path / "out",
                       "--strict") == EXIT_STRICT
        assert capsys.readouterr().err == (
            "error: strict mode: 1 anomalies during ingest; first: "
            "malformed_record @ communicator 5: duplicate members\n")

    def test_strict_rejects_replay_anomalies(self, tmp_path, capsys):
        # each rank's first region receives what the other rank sends
        # from its second region: a dependency cycle that only replay
        # finds, and degrades by default
        prv = tmp_path / "cycle.prv"
        prv.write_text(
            "#Paraver (12/07/2025 at 10:00):30_ns:1(2):1:2(1:1,1:1)\n"
            + "".join(f"2:{t}:1:{t}:1:{time}:50000001:{value}\n"
                      for t in (1, 2)
                      for time, value in ((10, 1), (20, 0), (20, 1),
                                          (25, 0)))
            + "3:1:1:1:1:20:20:2:1:2:1:20:20:8:1\n"
            + "3:2:1:2:1:20:20:1:1:1:1:20:20:8:1\n",
            encoding="utf-8")
        out_dir = tmp_path / "out"
        assert analyze(prv, out_dir) == EXIT_OK
        assert "reversed_ptp: 2" in (out_dir / "cycle.anomalies.txt"
                                     ).read_text(encoding="utf-8")
        capsys.readouterr()
        assert analyze(prv, tmp_path / "strict", "--strict") == EXIT_STRICT
        assert capsys.readouterr().err == (
            "error: strict mode: 2 anomalies during replay; first: "
            "reversed_ptp @ rank 0 region 0: message on a dependency "
            "cycle\n")
        assert not (tmp_path / "strict").exists()

    def test_default_mode_does_not_validate(self, short_header, tmp_path,
                                            monkeypatch):
        def refuse(trace):
            raise AssertionError("validate_trace runs in default mode")

        monkeypatch.setattr("paraslice.cli.validate_trace", refuse)
        prv, _ = short_header
        assert analyze(prv, tmp_path / "out") == EXIT_OK

    def test_negative_eager_limit_is_bad_config(self, generated, tmp_path,
                                                capsys):
        code = analyze(generated["prv"], tmp_path, "--eager-limit", "-5")
        assert code == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == \
            "error: eager limit must be non-negative\n"

    def test_eager_limit_env(self, generated, tmp_path, monkeypatch):
        """The environment does not set the eager limit: the flag's
        default holds."""
        monkeypatch.setenv("PARASLICE_EAGER_LIMIT", "0")
        out_dir = tmp_path / "out"
        assert analyze(generated["prv"], out_dir) == EXIT_OK
        summary = (out_dir / "demo.summary.txt").read_text(encoding="utf-8")
        assert "eager_limit_bytes: 65536" in summary

    def test_bad_eager_limit_env(self, generated, tmp_path, monkeypatch):
        monkeypatch.setenv("PARASLICE_EAGER_LIMIT", "lots")  # never read
        assert analyze(generated["prv"], tmp_path) == EXIT_OK

    def test_flag_eager_limit_overrides_env(self, generated, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("PARASLICE_EAGER_LIMIT", "lots")  # never read
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

    @pytest.mark.parametrize("option, value", [
        ("--window", "infs"), ("--window", "1e400s"), ("--cutoff", "infms"),
        ("--reference-global", "nan,nan,nan,nan"),
        ("--reference-global", "1,1,inf,1"),
    ])
    def test_non_finite_number_rejected_by_parser(self, generated, tmp_path,
                                                  capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            analyze(generated["prv"], tmp_path / "out", option, value)
        assert exc.value.code == EXIT_BAD_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_time_unit_never_overrides_header_suffix(self, tmp_path):
        prv = tmp_path / "suffixed.prv"
        prv.write_text(
            "#Paraver (12/07/2025 at 10:00):1000_ns:1(2):1:2(1:1,1:1)\n",
            encoding="utf-8")
        out_dir = tmp_path / "out"
        assert analyze(prv, out_dir, "--time-unit", "us") == EXIT_OK
        summary = (out_dir / "suffixed.summary.txt").read_text(
            encoding="utf-8")
        assert "runtime_observed_ns: 1000\n" in summary

    def test_out_dir_created(self, generated, tmp_path):
        nested = tmp_path / "deep" / "er"
        assert analyze(generated["prv"], nested) == EXIT_OK
        assert (nested / "demo.summary.txt").exists()

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_unwritable_out_dir_is_unreadable(self, generated, tmp_path,
                                              capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out_dir = taken / under if under else taken
        assert analyze(generated["prv"], out_dir) == EXIT_UNREADABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {out_dir}: ")

    @pytest.mark.parametrize("value", ["9223372036854775807",
                                       "99999999999999999999"])
    def test_min_events_beyond_int64(self, generated, tmp_path, value):
        # no window can hold more points than a rank has: such a
        # threshold plans as any other above every rank's total
        assert analyze(generated["prv"], tmp_path / "huge", "--min-events",
                       value) == EXIT_OK
        assert analyze(generated["prv"], tmp_path / "bound", "--min-events",
                       "1000000") == EXIT_OK
        read = lambda d, name: (tmp_path / d / name).read_text(
            encoding="utf-8")
        assert read("huge", "demo.windows.csv") \
            == read("bound", "demo.windows.csv")
        assert f"min_events: {value}\n" in read("huge", "demo.summary.txt")


def logs_and_validity(prv):
    """Ingest's and replay's anomaly totals, and whether validate_trace
    passes the trace as ingest built it."""
    trace, ingest_log, _ = load_trace(str(prv))
    ok = validate_trace(trace).ok
    _, replay_log = replay(trace)
    return ingest_log.total, replay_log.total, ok


class TestStrictValidateIsInert:
    """--strict runs validate_trace only once ingest and replay have
    logged nothing; on those traces it must pass, or it would be the
    one strict refusal a default run does not log."""

    def test_corpus_traces_clean_in_both_logs_validate(self, tmp_path):
        clean, failed = [], []
        for seed, mutators in CASES:
            path = tmp_path / f"{seed}.prv"
            corpus_file(path, seed, mutators)
            try:
                ingest, replayed, ok = logs_and_validity(path)
            except IngestError:
                continue
            if ingest == replayed == 0:
                clean.append(seed)
                if not ok:
                    failed.append(seed)
        assert clean
        assert failed == []

    def test_unmatched_send_is_caught_by_replay_not_ingest(
            self, unmatched_send):
        # validate_trace leaves messages to replay, which logs this one
        assert logs_and_validity(unmatched_send) == (0, 1, True)
        trace, _, _ = load_trace(str(unmatched_send))
        assert [(e.kind, e.location) for e in replay(trace)[1].entries] \
            == [(AnomalyKind.UNMATCHED_SEND, "message 20")]

    def test_short_header_is_caught_by_ingest(self, short_header):
        assert logs_and_validity(short_header[0]) == (1, 0, False)

    def test_ingest_and_validate_share_the_stream_end_rules(
            self, short_header, tmp_path):
        """A duplicate-member communicator and a halved header duration:
        ingest logs exactly the faults validate_trace reports for them."""
        prv = tmp_path / "both.prv"
        prv.write_bytes(short_header[0].read_bytes() + b"c:1:5:2:1:1\n")
        trace, log, _ = load_trace(str(prv))
        assert set(log.counters) == {AnomalyKind.MALFORMED_RECORD}
        found = [(v.code, v.location, v.detail)
                 for v in validate_trace(trace).violations]
        assert [code for code, _, _ in found] \
            == ["communicator.members", "meta.duration"]
        assert [(e.location, e.detail) for e in log.entries] \
            == [(location, detail) for _, location, detail in found]


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


class TestKnownDefects:
    # CI's clean 16-rank ring trace
    RING = {
        "name": "bench", "rank_count": 16, "seed": 1, "time_unit": "ns",
        "phases": [{"pattern": "ring_exchange", "iterations": 1000,
                    "compute": {"kind": "uniform", "mean_ns": 50000,
                                "jitter_ns": 10000},
                    "message_bytes": 1024}],
    }

    def ring(self, tmp_path, iterations=1000, seed=1):
        """The ring trace, with the given iterations and seed."""
        spec = json.loads(json.dumps(self.RING))
        spec["seed"] = seed
        spec["phases"][0]["iterations"] = iterations
        scenario = tmp_path / "bench.json"
        scenario.write_text(json.dumps(spec), encoding="utf-8")
        prv = tmp_path / "bench.prv"
        assert main(["generate", str(scenario), "--out", str(prv)]) \
            == EXIT_OK
        return prv

    @staticmethod
    def results(out_dir):
        """The summary's key: value rows and the JSON windows."""
        rows = (out_dir / "bench.summary.txt").read_text(
            encoding="utf-8").splitlines()
        summary = {key.strip(): value for key, value in (
            row.split(": ", 1) for row in rows if ": " in row)}
        windows = json.loads((out_dir / "bench.windows.json")
                             .read_text(encoding="utf-8"))["windows"]
        return summary, windows

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
    def test_doubled_open_line_keeps_ideal_within_elapsed(self, tmp_path):
        """One MPI open line written twice gives rank 6 an extra
        zero-length collective region, and every later world occurrence
        pairs wrong; the analysis must still keep ideal <= elapsed."""
        prv = self.ring(tmp_path)
        line = b"2:7:1:7:1:29745422:50000002:1\n"
        text = prv.read_bytes()
        assert text.count(b"\n" + line) == 1
        prv.write_bytes(text.replace(b"\n" + line, b"\n" + line + line))
        out_dir = tmp_path / "out"
        assert analyze(prv, out_dir, "--format", "json") == EXIT_OK
        summary, windows = self.results(out_dir)
        assert int(summary["runtime_ideal_ns"]) \
            <= int(summary["runtime_observed_ns"])
        assert all(w["transfer"] <= 1 for w in windows)

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 12 and 18")
    def test_every_message_rendezvous_keeps_transfer_within_one(
            self, tmp_path):
        """With --eager-limit 0 every send waits for its receive; on a
        clean 200-iteration ring some windows' ideal clocks still gain on
        elapsed time (12 of 51 read transfer above 1, and one reads 0)."""
        prv = self.ring(tmp_path, iterations=200, seed=7)
        out_dir = tmp_path / "out"
        assert analyze(prv, out_dir, "--eager-limit", 0, "--format",
                       "json") == EXIT_OK
        _, windows = self.results(out_dir)
        assert len(windows) == 51
        assert all(0 < w["transfer"] <= 1 for w in windows)

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 12 and 15")
    def test_skewed_rank_clock_keeps_ideal_within_elapsed(self, tmp_path):
        """Rank 5's clock runs 30 us ahead: each message it receives
        reads as sent after it arrived and is degraded, and the ideal
        runtime that is left passes the observed one."""
        prv = self.ring(tmp_path, iterations=2500, seed=7)
        skew = 30_000
        lines = prv.read_text(encoding="utf-8").splitlines(keepends=True)
        for k, line in enumerate(lines):
            # task 6 is rank 5: the time of its events, and the times of
            # its sends and of its receives
            f = line.rstrip("\n").split(":")
            if f[0] == "2":
                at = [5] * (f[3] == "6")
            elif f[0] == "3":
                at = [5, 6] * (f[3] == "6") + [11, 12] * (f[9] == "6")
            else:
                continue
            for i in at:
                f[i] = str(int(f[i]) + skew)
            lines[k] = ":".join(f) + "\n"
        prv.write_text("".join(lines), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert analyze(prv, out_dir, "--format", "json") == EXIT_OK
        summary, _ = self.results(out_dir)
        assert summary["reversed_ptp"] == "2500"
        assert int(summary["runtime_ideal_ns"]) \
            <= int(summary["runtime_observed_ns"])
