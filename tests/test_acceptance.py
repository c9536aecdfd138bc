"""Shipping gate: one test per release criterion.

Each test names the criterion it enforces and asserts the stated
tolerance directly, so `pytest -v` prints one pass/fail line per
criterion.  Between them they drive the whole pipeline — generator,
parser, validator, replay engine, window planner, metrics, CLI — against
independent oracles, hand-computed fixtures, and planted ground truth.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from paraslice import (
    CallClass,
    MpiRegion,
    PtpMessage,
    Trace,
    TraceMeta,
    global_metrics,
    load_trace,
    plan_windows,
    replay,
    window_series,
)
from paraslice.cli import main as cli_main
from paraslice.model import (
    AnomalyKind,
    MessageStore,
    RegionTable,
    group_collectives,
)
from paraslice.synth import expected_metrics, generate_to_files, load_scenario
from paraslice.windows import boundary_clocks

from bruteforce import brute_force_ideal, brute_force_oom
from conftest import timeline_of_ranks
from scenarios import phase_bench_scenario, random_scenario, roundtrip

P2P = CallClass.POINT_TO_POINT
COLL = CallClass.COLLECTIVE

CORPUS_SEED = 20260816
CORPUS_SIZE = 20


def _trace_of(duration, rank_regions, messages=()):
    meta = TraceMeta(total_duration_ns=duration,
                     rank_count=len(rank_regions))
    regions = [[MpiRegion(r, e, x, klass) for e, x, klass in spec]
               for r, spec in enumerate(rank_regions)]
    return Trace.build(meta, regions, messages)


def _assert_timeline_invariants(timeline):
    """Clock sanity every analysis relies on: strictly increasing event
    times, monotone clocks, and 0 <= oom <= ideal <= elapsed throughout."""
    for tl in timeline.ranks:
        assert (np.diff(tl.times) > 0).all()
        assert (np.diff(tl.oom) >= 0).all()
        assert (np.diff(tl.ideal) >= 0).all()
        assert int(tl.oom[0]) >= 0
        assert (tl.oom <= tl.ideal).all()
        assert (tl.ideal <= tl.times).all()


def _assert_transfer_and_lipschitz(timeline, pcts=(1, 5, 10, 100)):
    duration = timeline.total_duration
    for pct in pcts:
        length = max(1, duration * pct // 100)
        plan = plan_windows(timeline, length, min_events=3)
        for wm in window_series(timeline, plan):
            assert wm.transfer <= 1 + 1e-12
        bounds = plan.boundaries()
        bc = boundary_clocks(timeline, bounds)
        cp = bc.ideal.max(axis=0)
        dcp = np.diff(cp)
        assert (dcp >= 0).all()
        assert (dcp <= np.diff(bounds)).all()


def _scale_trace(trace, factor):
    """The same trace with every timestamp multiplied by factor."""
    meta = TraceMeta(total_duration_ns=trace.meta.total_duration_ns * factor,
                     rank_count=trace.meta.rank_count,
                     time_unit=trace.meta.time_unit,
                     flat_rank_encoding=trace.meta.flat_rank_encoding)
    t, m = trace.regions, trace.messages
    regions = RegionTable(t.offsets, t.entry_times * factor,
                          t.exit_times * factor, t.class_codes, t.hint_rows,
                          t.hint_values)
    messages = MessageStore(m.senders, m.receivers, m.send_begins * factor,
                            m.recv_ends * factor, m.sizes, m.status_codes)
    scaled = Trace(meta, regions, messages,
                   communicators=dict(trace.communicators))
    group_collectives(scaled)
    return scaled


def _corpus_scenarios():
    rng = random.Random(CORPUS_SEED)
    return [random_scenario(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Replayed timelines of the randomized corpus plus the phase bench."""
    base = tmp_path_factory.mktemp("acceptance-corpus")
    out = []
    for sc in _corpus_scenarios() + [phase_bench_scenario()]:
        trace, log, _ = roundtrip(sc, base)
        assert log.total == 0, sc.name
        timeline, rlog = replay(trace)
        assert rlog.total == 0, sc.name
        out.append((sc, trace, timeline))
    return out


def test_criterion_1_identity_suite_and_scale_invariance(tmp_path):
    t0 = time.monotonic()

    # a single rank doing pure compute: every factor is exactly 1
    single = load_scenario({"name": "single", "rank_count": 1, "seed": 3,
                            "phases": [{"pattern": "none", "iterations": 3,
                                        "compute": {"kind": "uniform",
                                                    "mean_ns": 5000}}]})
    trace, _, _ = roundtrip(single, tmp_path)
    timeline, _ = replay(trace)
    gm = global_metrics(timeline)
    assert (gm.load_balance, gm.serialisation, gm.transfer,
            gm.efficiency) == (1.0, 1.0, 1.0, 1.0)

    # eight perfectly balanced ranks, no jitter: still exactly 1
    balanced = load_scenario({"name": "balanced", "rank_count": 8, "seed": 4,
                              "phases": [{"pattern": "none", "iterations": 5,
                                          "compute": {"kind": "uniform",
                                                      "mean_ns": 4000}}]})
    trace, _, _ = roundtrip(balanced, tmp_path)
    timeline, _ = replay(trace)
    gm = global_metrics(timeline)
    assert (gm.load_balance, gm.serialisation, gm.transfer,
            gm.efficiency) == (1.0, 1.0, 1.0, 1.0)

    # balanced ranks meeting in a zero-length collective: synchronization
    # happens but costs nothing, so the identity still holds exactly
    sync = _trace_of(100, [[(50, 50, COLL)] for _ in range(4)])
    timeline, log = replay(sync)
    assert log.total == 0
    gm = global_metrics(timeline)
    assert (gm.load_balance, gm.serialisation, gm.transfer,
            gm.efficiency) == (1.0, 1.0, 1.0, 1.0)

    # scaling every timestamp by 10^3 leaves all four factors unchanged
    rng = random.Random(12345)
    sc = random_scenario(rng)
    trace, _, _ = roundtrip(sc, tmp_path)
    timeline, _ = replay(trace)
    gm = global_metrics(timeline)
    scaled_tl, slog = replay(_scale_trace(trace, 1000))
    assert slog.total == 0
    sgm = global_metrics(scaled_tl)
    assert sgm.load_balance == gm.load_balance
    assert sgm.serialisation == gm.serialisation
    assert sgm.transfer == gm.transfer
    assert sgm.efficiency == gm.efficiency
    assert sgm.runtime_ideal == gm.runtime_ideal * 1000
    assert sgm.runtime_observed == gm.runtime_observed * 1000
    assert sgm.t_compute == tuple(t * 1000 for t in gm.t_compute)

    assert time.monotonic() - t0 < 1.0


def test_criterion_2_oracle_equivalence_on_randomized_scenarios(tmp_path):
    t0 = time.monotonic()
    scenarios = _corpus_scenarios()
    assert len(scenarios) >= 20
    for sc in scenarios:
        assert sc.rank_count <= 16
        trace, log, _ = roundtrip(sc, tmp_path)
        assert log.total == 0, sc.name
        timeline, rlog = replay(trace)
        assert rlog.total == 0, sc.name
        gm = global_metrics(timeline)

        # generator-side closed-form expectation, 1e-6 relative
        exp = expected_metrics(sc)
        for name in ("load_balance", "serialisation", "transfer",
                     "efficiency"):
            got = getattr(gm, name)
            want = getattr(exp, name)
            assert math.isclose(got, want, rel_tol=1e-6), \
                (sc.name, name, got, want)

        # independent fixed-point relaxation oracle, exact integers
        finals, ideal_bf = brute_force_ideal(trace)
        assert gm.runtime_ideal == ideal_bf, sc.name
        for r, f in enumerate(timeline.final_triples()):
            assert f.ideal == finals[r], (sc.name, r)
        assert list(gm.t_compute) == brute_force_oom(trace), sc.name
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_window_increments_telescope_to_final_clocks(corpus):
    for sc, _trace, timeline in corpus:
        duration = timeline.total_duration
        finals = timeline.final_triples()
        gm = global_metrics(timeline)
        for pct in (1, 5, 10, 100):
            length = max(1, duration * pct // 100)
            plan = plan_windows(timeline, length, min_events=3)
            bounds = plan.boundaries()
            assert bounds[0] == 0 and bounds[-1] == duration
            bc = boundary_clocks(timeline, bounds)
            for r, f in enumerate(finals):
                assert f.elapsed == duration
                assert int(np.diff(bc.oom[r]).sum()) == f.oom, (sc.name, pct)
                assert int(np.diff(bc.ideal[r]).sum()) == f.ideal, \
                    (sc.name, pct)
                assert int(bc.oom[r][0]) == 0 and int(bc.ideal[r][0]) == 0
            assert int(np.diff(bounds).sum()) == duration

            series = window_series(timeline, plan)
            recomposed = sum(w.efficiency * (w.end_ns - w.start_ns)
                             for w in series) / duration
            assert math.isclose(recomposed, gm.efficiency, rel_tol=1e-12), \
                (sc.name, pct)


def test_criterion_4_transfer_bound_and_critical_path_lipschitz(corpus):
    for _sc, _trace, timeline in corpus:
        _assert_transfer_and_lipschitz(timeline)


def test_criterion_5_boundary_interpolation_exact_deltas():
    # two ranks over a 10-unit span: rank 0 computes 40% then waits in a
    # receive, rank 1 computes 80% then sends; one eager message links them
    trace = _trace_of(10, [[(4, 10, P2P)], [(8, 10, P2P)]],
                      messages=[PtpMessage(1, 0, 8, 10, size_bytes=8)])
    timeline, log = replay(trace)
    assert log.total == 0

    tl0 = timeline.ranks[0]
    f0 = timeline.final_triples()[0]
    assert (f0.elapsed, f0.oom, f0.ideal) == \
        (tl0.times[-1], tl0.oom[-1], tl0.ideal[-1])
    f1 = timeline.final_triples()[1]
    assert (f0.elapsed, f0.oom, f0.ideal) == (10, 4, 8)
    assert (f1.elapsed, f1.oom, f1.ideal) == (10, 8, 8)

    # inside rank 0's receive the ideal clock keeps pace with elapsed
    # time until its finalized exit value caps it
    alone = boundary_clocks(timeline_of_ranks([tl0], 10),
                            np.asarray([7], dtype=np.int64))
    assert (alone.oom.tolist(), alone.ideal.tolist()) == ([[4]], [[7]])

    bc = boundary_clocks(timeline, np.asarray([0, 7, 10], dtype=np.int64))
    assert np.diff(bc.oom[0]).tolist() == [4, 0]
    assert np.diff(bc.ideal[0]).tolist() == [7, 1]
    assert np.diff(bc.boundaries).tolist() == [7, 3]
    assert bc.ideal.max(axis=0).tolist() == [0, 7, 8]


def test_criterion_6_window_adaptation_and_min_events_rules(tmp_path):
    # a chained pipeline leaves long per-rank stretches without events,
    # forcing the planner to merge neighbouring windows
    chain = load_scenario({"name": "chain", "rank_count": 8, "seed": 11,
                           "phases": [{"pattern": "serial_chain",
                                       "iterations": 4,
                                       "compute": {"kind": "uniform",
                                                   "mean_ns": 20000},
                                       "message_bytes": 64}]})
    trace, _, _ = roundtrip(chain, tmp_path)
    timeline, _ = replay(trace)
    length = max(1, timeline.total_duration // 32)
    plan3 = plan_windows(timeline, length, min_events=3)
    assert any(w.merged for w in plan3.windows)
    merged_series = [wm for wm in window_series(timeline, plan3) if wm.merged]
    assert merged_series and all(wm.merged_from > 1 for wm in merged_series)

    # raising the threshold can only merge more: never more windows
    plan8 = plan_windows(timeline, length, min_events=8)
    assert len(plan8.windows) <= len(plan3.windows)

    # an event-free gap in the middle makes sub-gap windows impossible:
    # the base length doubles until every window holds at least one event
    gap = load_scenario({"name": "gap", "rank_count": 4, "seed": 12,
                         "phases": [
                             {"pattern": "ring_exchange", "iterations": 5,
                              "compute": {"kind": "uniform",
                                          "mean_ns": 10000},
                              "message_bytes": 64},
                             {"pattern": "none", "iterations": 1,
                              "compute": {"kind": "uniform",
                                          "mean_ns": 400000}},
                             {"pattern": "ring_exchange", "iterations": 5,
                              "compute": {"kind": "uniform",
                                          "mean_ns": 10000},
                              "message_bytes": 64}]})
    gtrace, _, _ = roundtrip(gap, tmp_path)
    gtimeline, _ = replay(gtrace)
    gplan = plan_windows(gtimeline, max(1, gtimeline.total_duration // 64),
                         min_events=3)
    assert gplan.base_length_ns > gplan.requested_length_ns
    assert len(plan_windows(gtimeline, gplan.requested_length_ns,
                            min_events=8).windows) <= len(gplan.windows)

    # fewer than 3 pooled event points cannot anchor a window
    with pytest.raises(ValueError):
        plan_windows(timeline, length, min_events=2)
    prv, _ = generate_to_files(chain, tmp_path / "chain.prv")
    with pytest.raises(SystemExit) as exc:
        cli_main(["analyze", prv, "--min-events", "2",
                  "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_criterion_7_anomalous_traces_analyze_cleanly_by_default(
        tmp_path, capsys):
    sc = load_scenario({"name": "anomaly-bench", "rank_count": 4, "seed": 7,
                        "phases": [{"pattern": "ring_exchange",
                                    "iterations": 6,
                                    "compute": {"kind": "uniform",
                                                "mean_ns": 10000},
                                    "message_bytes": 128}]})
    clean_prv, _ = generate_to_files(sc, tmp_path / "clean.prv")
    clean_trace, clean_log, clean_counters = load_trace(clean_prv)
    assert clean_log.total == 0
    clean_gm = global_metrics(replay(clean_trace)[0])

    # inject one reversed send/receive pair and one message whose send
    # falls outside every region of its sender (both between ranks 0 and 1,
    # timestamped inside the initial compute stretch)
    text = Path(clean_prv).read_text(encoding="utf-8")
    text += "3:1:1:1:1:500:500:2:1:2:1:400:400:64:9\n"
    text += "3:1:1:1:1:1:1:2:1:2:1:2:2:64:9\n"
    bad_prv = tmp_path / "injected.prv"
    bad_prv.write_text(text, encoding="utf-8")

    trace, log, counters = load_trace(str(bad_prv))
    assert log.count(AnomalyKind.REVERSED_PTP) == 1
    assert counters.consumed == clean_counters.consumed + 2
    timeline, rlog = replay(trace)
    assert rlog.count(AnomalyKind.UNMATCHED_SEND) == 1
    assert rlog.total == 1

    # degraded matches must not disturb the reconstruction
    _assert_timeline_invariants(timeline)
    _assert_transfer_and_lipschitz(timeline)
    gm = global_metrics(timeline)
    assert gm == clean_gm

    # default mode: full analysis, exit 0, counters reported
    out_dir = tmp_path / "out"
    assert cli_main(["analyze", str(bad_prv),
                     "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    anomalies = (out_dir / "injected.anomalies.txt").read_text(
        encoding="utf-8")
    assert anomalies.splitlines()[0] == "total: 2"
    assert "reversed_ptp: 1" in anomalies
    assert "unmatched_send: 1" in anomalies

    # strict mode refuses the same trace on ingest's log, naming its
    # first entry
    assert cli_main(["analyze", str(bad_prv), "--strict",
                     "--out-dir", str(out_dir)]) == 5
    first = log.entries[0]
    assert capsys.readouterr().err == (
        f"error: strict mode: 1 anomalies during ingest; first: "
        f"reversed_ptp @ {first.location}: {first.detail}\n")


def test_criterion_8_windowed_metrics_localize_planted_phases(tmp_path):
    sc = phase_bench_scenario()
    trace, log, _ = roundtrip(sc, tmp_path)
    assert log.total == 0
    timeline, rlog = replay(trace)
    assert rlog.total == 0
    gm = global_metrics(timeline)
    exp = expected_metrics(sc)

    # the global aggregate is the exact blend of the four phases
    assert gm.load_balance == pytest.approx(0.915611814, abs=1e-9)
    assert gm.serialisation == pytest.approx(0.759615385, abs=1e-9)
    assert gm.transfer == pytest.approx(0.975, rel=1e-12)
    assert gm.efficiency == pytest.approx(0.678125, rel=1e-12)
    for name in ("load_balance", "serialisation", "transfer", "efficiency"):
        assert math.isclose(getattr(gm, name), getattr(exp, name),
                            rel_tol=1e-12), name

    # planted per-phase factors the windows must recover
    planted = {0: None,                        # balanced: everything == 1
               1: ("load_balance", 0.75),
               2: ("serialisation", 1 / 16),
               3: ("transfer", 0.9)}
    assert exp.phases[1].load_balance == pytest.approx(0.75, rel=1e-12)
    assert exp.phases[2].serialisation == pytest.approx(1 / 16, rel=1e-12)
    assert exp.phases[3].transfer == pytest.approx(0.9, rel=1e-12)

    # windows of one fifth of a phase localize each bottleneck within 2%,
    # which the global numbers above conceal entirely
    phase_len = exp.phases[0].end_ns - exp.phases[0].start_ns
    plan = plan_windows(timeline, phase_len // 5, min_events=4)
    series = window_series(timeline, plan)
    for ph in exp.phases:
        inner = [wm for wm in series
                 if wm.start_ns >= ph.start_ns and wm.end_ns <= ph.end_ns]
        assert len(inner) >= 3, ph.index
        for wm in inner:
            assert wm.defined, (ph.index, wm.start_ns)
            if planted[ph.index] is None:
                for name in ("load_balance", "serialisation", "transfer"):
                    assert abs(getattr(wm, name) - 1.0) <= 0.02, \
                        (ph.index, name, wm.start_ns)
            else:
                name, value = planted[ph.index]
                got = getattr(wm, name)
                assert abs(got - value) <= 0.02 * value, \
                    (ph.index, name, got, wm.start_ns)

    # the serial phase collapses locally in a way no aggregate shows
    assert min(wm.efficiency for wm in series) < 0.1
    assert max(wm.efficiency for wm in series) > 0.99


def test_criterion_8_windows_expose_a_migrating_hotspot(tmp_path):
    """Rank i computes twice as long as the others in phase i of eight:
    every rank carries the same load over the run, so the global load
    balance reads a perfect 1, while every window of the default plan
    shows the imbalance of the one or two phases it covers."""
    P = 8
    sc = load_scenario({
        "name": "migrating-hotspot", "rank_count": P, "seed": 7,
        "phases": [{"pattern": "ring_exchange", "iterations": 20,
                    "compute": {"kind": "explicit", "values_ns": [
                        100_000 if r == hot else 50_000 for r in range(P)]}}
                   for hot in range(P)]})
    trace, log, _ = roundtrip(sc, tmp_path)
    timeline, rlog = replay(trace)
    assert log.total == rlog.total == 0
    gm = global_metrics(timeline)
    assert gm.load_balance == 1.0
    assert gm.serialisation == 0.5625
    assert gm.efficiency == 0.5625

    duration = timeline.total_duration
    series = window_series(timeline, plan_windows(timeline, duration // 50))
    assert len(series) == 50
    for wm in series:
        assert 0.535 <= wm.load_balance <= 0.70, wm.start_ns
        assert 0.8125 <= wm.serialisation <= 1.0, wm.start_ns
    recomposed = sum(wm.efficiency * (wm.end_ns - wm.start_ns)
                     for wm in series) / duration
    assert math.isclose(recomposed, 0.5625, rel_tol=1e-12)


@pytest.mark.slow
def test_criterion_9_gigabyte_trace_analyzes_under_five_minutes(
        tmp_path_factory):
    base = tmp_path_factory.mktemp("throughput")
    sc = load_scenario({
        "name": "throughput-bench", "rank_count": 16, "seed": 1,
        "phases": [{"pattern": "ring_exchange", "iterations": 240000,
                    "compute": {"kind": "uniform", "mean_ns": 50000,
                                "jitter_ns": 10000},
                    "message_bytes": 1024}]})
    prv, pcf = generate_to_files(sc, base / "throughput-bench.prv")
    try:
        size = os.path.getsize(prv)
        assert size > 900_000_000, f"trace only {size} bytes"

        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "paraslice.cli", "analyze", prv,
             "--out-dir", str(base / "out")],
            capture_output=True, text=True, timeout=600)
        elapsed = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr
        assert "efficiency" in proc.stdout
        assert (base / "out" / "throughput-bench.summary.txt").exists()
        assert elapsed < 300.0, f"analysis took {elapsed:.1f}s"
    finally:
        for path in (prv, pcf):
            if os.path.exists(path):
                os.remove(path)
