"""Scenario validation, deterministic generation, and the planted-factor
identities each communication pattern is designed to exhibit."""

import hashlib
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from paraslice.cli import main as cli_main
from paraslice.prv import EVTYPE_COMM_ID
from paraslice.replay import replay
from paraslice.metrics import (
    critical_path,
    global_metrics,
    window_metrics,
    window_series,
)
from paraslice.windows import boundary_clocks, plan_windows
from paraslice.model import validate_trace
from paraslice.synth import (
    ComputeSpec,
    PhaseSpec,
    Scenario,
    ScenarioError,
    TimeUnit,
    compute_matrix,
    draw_below,
    expected_metrics,
    generate_to_files,
    load_scenario,
)

from conftest import replay_module
from scenarios import roundtrip


def base_doc(**overrides):
    doc = {
        "name": "t",
        "rank_count": 4,
        "phases": [
            {"pattern": "ring_exchange", "iterations": 3,
             "compute": {"kind": "uniform", "mean_ns": 5000},
             "message_bytes": 64},
        ],
    }
    doc.update(overrides)
    return doc


def phase_doc(**overrides):
    doc = base_doc()
    doc["phases"][0].update(overrides)
    return doc


def compute_doc(**overrides):
    doc = base_doc()
    doc["phases"][0]["compute"].update(overrides)
    return doc


class TestLoadScenario:
    def test_valid_document(self):
        sc = load_scenario(base_doc())
        assert sc.rank_count == 4
        assert sc.phases[0].pattern == "ring_exchange"
        assert sc.phases[0].compute.mean_ns == 5000

    def test_json_file_source(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(base_doc()), encoding="utf-8")
        assert load_scenario(path) == load_scenario(base_doc())

    def test_non_object_rejected(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            load_scenario([1, 2, 3])

    def test_unknown_scenario_key(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            load_scenario(base_doc(extra=1))

    def test_unknown_phase_key(self):
        with pytest.raises(ScenarioError, match="phase 0: unknown keys"):
            load_scenario(phase_doc(warp_drive=True))

    def test_unknown_compute_key(self):
        with pytest.raises(ScenarioError, match="unknown compute keys"):
            load_scenario(compute_doc(sigma=5))

    def test_unknown_time_unit(self):
        with pytest.raises(ScenarioError, match="unknown time_unit"):
            load_scenario(base_doc(time_unit="ms"))

    def test_unknown_pattern(self):
        with pytest.raises(ScenarioError, match="unknown pattern"):
            load_scenario(phase_doc(pattern="gossip"))

    def test_unknown_compute_kind(self):
        with pytest.raises(ScenarioError, match="unknown compute kind"):
            load_scenario(compute_doc(kind="gamma"))

    def test_pattern_needs_two_ranks(self):
        with pytest.raises(ScenarioError, match="at least 2 ranks"):
            load_scenario(base_doc(rank_count=1))

    def test_iterations_positive(self):
        with pytest.raises(ScenarioError, match="iterations"):
            load_scenario(phase_doc(iterations=0))

    def test_negative_message_bytes(self):
        with pytest.raises(ScenarioError, match="negative message_bytes"):
            load_scenario(phase_doc(message_bytes=-1))

    def test_message_bytes_capped_at_eager_limit(self):
        load_scenario(phase_doc(message_bytes=65536))  # at the limit: fine
        with pytest.raises(ScenarioError, match="eager limit"):
            load_scenario(phase_doc(message_bytes=65537))

    def test_allreduce_carries_no_messages(self):
        doc = phase_doc(pattern="allreduce", message_bytes=8)
        with pytest.raises(ScenarioError, match="no\\s+point-to-point"):
            load_scenario(doc)

    def test_none_pattern_takes_no_extras(self):
        doc = phase_doc(pattern="none")
        with pytest.raises(ScenarioError, match="pattern none"):
            load_scenario(doc)

    def test_split_only_on_allreduce(self):
        with pytest.raises(ScenarioError, match="communicator_split only"):
            load_scenario(phase_doc(communicator_split=2))

    def test_split_range(self):
        doc = base_doc()
        doc["phases"][0] = {"pattern": "allreduce", "iterations": 2,
                            "compute": {"kind": "uniform", "mean_ns": 1000},
                            "communicator_split": 5}
        with pytest.raises(ScenarioError, match=r"in \[1, 4\]"):
            load_scenario(doc)
        doc["phases"][0]["communicator_split"] = 4
        load_scenario(doc)

    def test_explicit_values_length(self):
        doc = compute_doc(kind="explicit", values_ns=[1000, 2000])
        del doc["phases"][0]["compute"]["mean_ns"]
        with pytest.raises(ScenarioError, match="one value per rank"):
            load_scenario(doc)

    def test_mean_must_be_positive(self):
        with pytest.raises(ScenarioError, match="mean_ns"):
            load_scenario(compute_doc(mean_ns=0))

    def test_imbalance_ratio_bounds(self):
        for ratio in (1.0, 2.5):
            doc = compute_doc(kind="linear_imbalance", imbalance_ratio=ratio)
            with pytest.raises(ScenarioError, match=r"\(1, 2\]"):
                load_scenario(doc)
        load_scenario(compute_doc(kind="linear_imbalance",
                                  imbalance_ratio=1.5))

    def test_full_spread_ratio_zeroes_a_rank(self):
        # ratio 2.0 passes the range check but drives rank 0's share to 0
        doc = compute_doc(kind="linear_imbalance", imbalance_ratio=2.0)
        with pytest.raises(ScenarioError, match="stay positive"):
            load_scenario(doc)

    def test_linear_needs_two_ranks(self):
        doc = compute_doc(kind="linear_imbalance", imbalance_ratio=1.5)
        doc["rank_count"] = 1
        with pytest.raises(ScenarioError, match="at least 2 ranks"):
            load_scenario(doc)

    def test_negative_jitter(self):
        with pytest.raises(ScenarioError, match="negative jitter"):
            load_scenario(compute_doc(jitter_ns=-5))

    def test_microsecond_granularity(self):
        doc = base_doc(time_unit="us")
        doc["phases"][0]["compute"]["mean_ns"] = 5500
        with pytest.raises(ScenarioError, match="multiples of 1000"):
            load_scenario(doc)
        doc["phases"][0]["compute"]["mean_ns"] = 5000
        load_scenario(doc)

    def test_microsecond_jitter_granularity(self):
        doc = base_doc(time_unit="us")
        doc["phases"][0]["compute"]["jitter_ns"] = 500
        with pytest.raises(ScenarioError, match="multiple of 1000"):
            load_scenario(doc)

    @pytest.mark.parametrize("doc, message", [
        (base_doc(rank_count="2"), "rank_count must be an integer"),
        (base_doc(rank_count=True), "rank_count must be an integer"),
        (base_doc(seed=1.5), "seed must be an integer"),
        (base_doc(phases={"pattern": "none"}), "phases must be a list"),
        (phase_doc(iterations=1e9), "phase 0: iterations must be an integer"),
        (phase_doc(message_bytes="8"), "message_bytes must be an integer"),
        (phase_doc(pattern="allreduce", message_bytes=0,
                   communicator_split="2"),
         "communicator_split must be an integer"),
        (compute_doc(mean_ns="5"), "mean_ns must be an integer"),
        (compute_doc(jitter_ns=False), "jitter_ns must be an integer"),
        (compute_doc(kind="explicit", values_ns=[5, "a"]),
         "values_ns must be a list of integers"),
        (compute_doc(kind="explicit", values_ns="5"),
         "values_ns must be a list of integers"),
        (compute_doc(kind="linear_imbalance", imbalance_ratio="x"),
         "imbalance_ratio must be a number"),
    ])
    def test_wrongly_typed_field(self, doc, message):
        with pytest.raises(ScenarioError, match=message):
            load_scenario(doc)

    def test_microsecond_wait_granularity(self):
        doc = base_doc(time_unit="us")
        doc["phases"][0] = {"pattern": "allreduce", "iterations": 1,
                            "compute": {"kind": "uniform", "mean_ns": 2000},
                            "injected_wait_ns": 1500}
        with pytest.raises(ScenarioError, match="injected_wait_ns"):
            load_scenario(doc)


class TestComputeMatrix:
    def scenario(self, jitter=0, seed=7):
        return Scenario(
            name="m", rank_count=3, seed=seed,
            phases=(PhaseSpec("none", 4,
                              ComputeSpec("uniform", mean_ns=1000,
                                          jitter_ns=jitter)),))

    def test_no_jitter_constant(self):
        matrix = compute_matrix(self.scenario())
        assert matrix == [[[1000, 1000, 1000]] * 4]

    def test_seeded_determinism(self):
        a = compute_matrix(self.scenario(jitter=400))
        b = compute_matrix(self.scenario(jitter=400))
        assert a == b
        c = compute_matrix(self.scenario(jitter=400, seed=8))
        assert a != c

    def test_jitter_bounds(self):
        matrix = compute_matrix(self.scenario(jitter=400))
        flat = [v for rows in matrix for row in rows for v in row]
        assert all(1000 <= v <= 1400 for v in flat)

    def test_linear_imbalance_endpoints(self):
        sc = Scenario(
            name="m", rank_count=5,
            phases=(PhaseSpec("none", 1,
                              ComputeSpec("linear_imbalance", mean_ns=1000,
                                          imbalance_ratio=1.5)),))
        row = compute_matrix(sc)[0][0]
        assert row[0] == 500 and row[-1] == 1500       # m(2-r) .. m*r
        assert row == sorted(row)
        assert sum(row) == 5 * 1000

    def test_microsecond_values_stay_on_grid(self):
        sc = Scenario(
            name="m", rank_count=3, seed=3,
            time_unit=TimeUnit.MICROSECONDS,
            phases=(PhaseSpec("none", 5,
                              ComputeSpec("uniform", mean_ns=4000,
                                          jitter_ns=3000)),))
        flat = [v for rows in compute_matrix(sc) for row in rows
                for v in row]
        assert all(v % 1000 == 0 for v in flat)
        assert len(set(flat)) > 1                      # jitter did fire


class TestDrawBelow:
    @pytest.mark.parametrize("n", [1, 2, 3, 2**7, 2**7 + 1, 2**31,
                                   2**31 + 1, 2**32, 2**32 + 1, 10**12])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_matches_randint_draw_for_draw(self, seed, n):
        """Values and generator state are what count randint(0, n - 1)
        calls give, also across calls of several sizes."""
        bulk, single = random.Random(seed), random.Random(seed)
        for count in (0, 1, 5, 300):
            got = draw_below(bulk, n, count).tolist()
            assert got == [single.randint(0, n - 1) for _ in range(count)]
            assert bulk.getstate() == single.getstate()

    def test_values_past_int64_stay_exact(self):
        bulk, single = random.Random(3), random.Random(3)
        n = 2**64 + 13
        assert draw_below(bulk, n, 20).tolist() == \
            [single.randint(0, n - 1) for _ in range(20)]
        assert bulk.getstate() == single.getstate()


def pipeline_metrics(scenario, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    trace, anomalies, _ = roundtrip(scenario, tmp_path)
    assert validate_trace(trace).ok
    assert anomalies.total == 0
    annotated, log = replay(trace)
    assert log.total == 0
    return global_metrics(annotated)


class TestPlantedFactors:
    def test_ring_uniform_is_perfectly_efficient(self, tmp_path):
        sc = Scenario(
            name="ring", rank_count=6,
            phases=(PhaseSpec("ring_exchange", 10,
                              ComputeSpec("uniform", mean_ns=40000),
                              message_bytes=512),))
        gm = pipeline_metrics(sc, tmp_path)
        assert (gm.load_balance, gm.serialisation, gm.transfer) == (1, 1, 1)
        assert gm.efficiency == 1.0

    def test_linear_imbalance_plants_load_balance(self, tmp_path):
        ratio = 1.25
        sc = Scenario(
            name="lb", rank_count=5,
            phases=(PhaseSpec("allreduce", 8,
                              ComputeSpec("linear_imbalance", mean_ns=100000,
                                          imbalance_ratio=ratio)),))
        gm = pipeline_metrics(sc, tmp_path)
        assert gm.load_balance == pytest.approx(1 / ratio, rel=1e-12)
        assert gm.serialisation == 1.0
        assert gm.transfer == 1.0

    def test_serial_chain_plants_serialisation(self, tmp_path):
        P = 4
        sc = Scenario(
            name="ser", rank_count=P,
            phases=(PhaseSpec("serial_chain", 6,
                              ComputeSpec("uniform", mean_ns=30000),
                              message_bytes=64),))
        gm = pipeline_metrics(sc, tmp_path)
        assert gm.load_balance == 1.0
        assert gm.serialisation == pytest.approx(1 / P, rel=1e-12)
        assert gm.transfer == 1.0

    def test_injected_wait_plants_transfer(self, tmp_path):
        compute, wait = 90000, 10000
        sc = Scenario(
            name="trf", rank_count=4,
            phases=(PhaseSpec("allreduce", 12,
                              ComputeSpec("uniform", mean_ns=compute),
                              injected_wait_ns=wait),))
        gm = pipeline_metrics(sc, tmp_path)
        assert gm.load_balance == 1.0
        assert gm.serialisation == 1.0
        assert gm.transfer == pytest.approx(compute / (compute + wait),
                                            rel=1e-12)

    def test_factors_compose_into_efficiency(self, tmp_path):
        sc = Scenario(
            name="mix", rank_count=6, seed=42,
            phases=(
                PhaseSpec("ring_exchange", 4,
                          ComputeSpec("uniform", mean_ns=20000,
                                      jitter_ns=4000), message_bytes=256),
                PhaseSpec("allreduce", 3,
                          ComputeSpec("linear_imbalance", mean_ns=50000,
                                      imbalance_ratio=1.4),
                          communicator_split=2),
                PhaseSpec("neighbor_stencil", 5,
                          ComputeSpec("uniform", mean_ns=15000),
                          message_bytes=1024),
            ))
        gm = pipeline_metrics(sc, tmp_path)
        product = gm.load_balance * gm.serialisation * gm.transfer
        assert math.isclose(gm.efficiency, product, rel_tol=1e-12)


class TestExpectedMetrics:
    def scenario(self):
        return Scenario(
            name="exp", rank_count=4, seed=9,
            phases=(
                PhaseSpec("ring_exchange", 5,
                          ComputeSpec("uniform", mean_ns=12000,
                                      jitter_ns=2000), message_bytes=64),
                PhaseSpec("allreduce", 4,
                          ComputeSpec("linear_imbalance", mean_ns=40000,
                                      imbalance_ratio=1.5)),
                PhaseSpec("serial_chain", 3,
                          ComputeSpec("uniform", mean_ns=9000),
                          message_bytes=16),
            ))

    def test_phase_spans_tile_the_run(self):
        exp = expected_metrics(self.scenario())
        assert exp.phases[0].start_ns == 0
        for a, b in zip(exp.phases, exp.phases[1:]):
            assert a.end_ns == b.start_ns
        assert exp.phases[-1].end_ns == exp.total_duration_ns

    def test_compute_totals_match_matrix(self):
        sc = self.scenario()
        exp = expected_metrics(sc)
        matrix = compute_matrix(sc)
        for rank in range(sc.rank_count):
            total = sum(row[rank] for rows in matrix for row in rows)
            assert exp.t_compute[rank] == total
            assert sum(ph.delta_oom[rank] for ph in exp.phases) == total

    def test_global_identities(self):
        exp = expected_metrics(self.scenario())
        P, D = exp.rank_count, exp.total_duration_ns
        assert math.isclose(exp.efficiency, sum(exp.t_compute) / (P * D),
                            rel_tol=1e-12)
        assert math.isclose(
            exp.efficiency,
            exp.load_balance * exp.serialisation * exp.transfer,
            rel_tol=1e-12)
        assert sum(ph.delta_cp for ph in exp.phases) == exp.runtime_ideal

    def test_pipeline_reproduces_expectation(self, tmp_path):
        sc = self.scenario()
        exp = expected_metrics(sc)
        gm = pipeline_metrics(sc, tmp_path)
        assert gm.t_compute == exp.t_compute
        assert gm.runtime_ideal == exp.runtime_ideal
        assert gm.runtime_observed == exp.total_duration_ns
        for name in ("load_balance", "serialisation", "transfer",
                     "efficiency"):
            assert math.isclose(getattr(gm, name), getattr(exp, name),
                                rel_tol=1e-12), name


class TestManyRanks:
    def test_oracle_at_320_ranks(self, tmp_path, monkeypatch):
        """Validation, replay and window planning at 320 ranks: an
        allreduce on four sub-communicators, then a halo exchange,
        reproduce the oracle's global and per-phase factors exactly."""
        P = 320
        sc = Scenario(name="wide", rank_count=P, seed=13, phases=(
            PhaseSpec("allreduce", 6,
                      ComputeSpec("linear_imbalance", mean_ns=40000,
                                  imbalance_ratio=1.5, jitter_ns=4000),
                      communicator_split=4, injected_wait_ns=2000),
            PhaseSpec("neighbor_stencil", 6,
                      ComputeSpec("uniform", mean_ns=15000, jitter_ns=2000),
                      message_bytes=2048)))
        exp = expected_metrics(sc)
        trace, anomalies, _ = roundtrip(sc, tmp_path)
        assert anomalies.total == 0
        assert len(trace.communicators) == 5
        assert validate_trace(trace).ok
        # 320 ranks wait at each allreduce together: the default sweep
        # advances them as numpy waves
        waves = []
        wave = replay_module._wave
        monkeypatch.setattr(replay_module, "_wave", lambda ranks, *rest: (
            waves.append(len(ranks)) or wave(ranks, *rest)))
        timeline, log = replay(trace)
        assert log.total == 0
        assert waves and min(waves) >= replay_module.WIDE_WAVE_RANKS
        gm = global_metrics(timeline)
        assert gm.t_compute == exp.t_compute
        assert gm.runtime_ideal == exp.runtime_ideal
        names = ("load_balance", "serialisation", "transfer", "efficiency")
        for name in names:
            assert getattr(gm, name) == getattr(exp, name), name

        bounds = np.asarray([ph.start_ns for ph in exp.phases]
                            + [exp.total_duration_ns], dtype=np.int64)
        bc = boundary_clocks(timeline, bounds)
        cp = critical_path(bc)
        for k, ph in enumerate(exp.phases):
            delta_oom = bc.oom[:, k + 1] - bc.oom[:, k]
            assert tuple(delta_oom.tolist()) == ph.delta_oom
            assert int(cp[k + 1] - cp[k]) == ph.delta_cp
            wm = window_metrics(ph.start_ns, ph.end_ns, delta_oom,
                                ph.delta_cp)
            for name in names:
                assert getattr(wm, name) == getattr(ph, name), (k, name)

        plan = plan_windows(timeline, exp.phases[0].end_ns // 5,
                            min_events=3)
        assert len(plan.windows) >= 5
        series = window_series(timeline, plan)
        assert tuple(np.sum([w.delta_oom for w in series], axis=0).tolist()) \
            == exp.t_compute
        assert sum(w.delta_cp for w in series) == exp.runtime_ideal


class TestGeneration:
    def scenario(self, **kw):
        args = dict(name="gen", rank_count=3, seed=5)
        args.update(kw)
        return Scenario(
            phases=(PhaseSpec("ring_exchange", 4,
                              ComputeSpec("uniform", mean_ns=8000,
                                          jitter_ns=1000),
                              message_bytes=128),),
            **args)

    def test_generation_is_deterministic(self, tmp_path):
        first = generate_to_files(self.scenario(), tmp_path / "a.prv")
        again = generate_to_files(self.scenario(), tmp_path / "b.prv")
        for one, other in zip(first, again):
            with open(one, "rb") as a, open(other, "rb") as b:
                assert a.read() == b.read()

    def test_pcf_labels_cover_event_types(self, tmp_path):
        """Every event type the .prv uses has its line in the .pcf, and
        every value of an MPI call type a label line under its type."""
        sc = load_scenario(base_doc(phases=[
            {"pattern": pattern, "iterations": 2,
             "compute": {"kind": "uniform", "mean_ns": 1000}}
            for pattern in ("ring_exchange", "neighbor_stencil",
                            "serial_chain")] + [
            {"pattern": "allreduce", "iterations": 2,
             "compute": {"kind": "uniform", "mean_ns": 1000},
             "communicator_split": 2}]))
        prv_path, pcf_path = generate_to_files(sc, tmp_path / "all.prv")
        used = {}
        with open(prv_path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("2:"):
                    pairs = line.rstrip("\n").split(":")[6:]
                    for etype, value in zip(pairs[::2], pairs[1::2]):
                        used.setdefault(etype, set()).add(value)
        with open(pcf_path, encoding="utf-8") as fh:
            pcf = fh.read()
        # "EVENT_TYPE\n0    <type>    <label>\n[VALUES\n<value>    <label>...]"
        blocks = {block.split()[1]: block
                  for block in pcf.split("EVENT_TYPE\n")[1:]}
        assert set(used) == set(blocks) == {
            "50000001", "50000002", "50000003", str(EVTYPE_COMM_ID)}
        del used[str(EVTYPE_COMM_ID)]           # ids: declared, unlabeled
        for etype, values in used.items():
            for value in values:
                assert re.search(rf"^{value} +\S", blocks[etype], re.M), \
                    (etype, value)

    def test_roundtrip_is_clean(self, tmp_path):
        trace, anomalies, counters = roundtrip(self.scenario(), tmp_path)
        assert validate_trace(trace).ok
        assert anomalies.total == 0
        # message and collective faults are replay's to log
        assert replay(trace)[1].total == 0
        assert counters.records == counters.consumed + counters.ignored \
            + counters.dropped
        assert trace.meta.rank_count == 3

    def test_microsecond_header_and_scaling(self, tmp_path):
        sc = self.scenario(time_unit=TimeUnit.MICROSECONDS)
        prv_path, pcf_path = generate_to_files(sc, tmp_path / "us.prv")
        with open(prv_path, encoding="utf-8") as fh:
            header = fh.readline()
        assert "_us:" in header
        with open(pcf_path, encoding="utf-8") as fh:
            assert "UNITS               MICROSEC" in fh.read()
        trace, anomalies, _ = roundtrip(sc, tmp_path)
        assert anomalies.total == 0
        exp = expected_metrics(sc)
        assert trace.meta.total_duration_ns == exp.total_duration_ns
        assert trace.meta.total_duration_ns % 1000 == 0

    def test_microsecond_pipeline_matches_nanosecond(self, tmp_path):
        """A jitter-free scenario expressed in either unit must analyze
        identically once scaled to nanoseconds (jitter draws are grid-
        granular, so jittered runs legitimately differ per unit)."""
        def jitter_free(unit):
            return Scenario(
                name="gen", rank_count=3, seed=5, time_unit=unit,
                phases=(PhaseSpec("ring_exchange", 4,
                                  ComputeSpec("uniform", mean_ns=8000),
                                  message_bytes=128),))
        ns = pipeline_metrics(jitter_free(TimeUnit.NANOSECONDS),
                              tmp_path / "a")
        us = pipeline_metrics(jitter_free(TimeUnit.MICROSECONDS),
                              tmp_path / "b")
        assert us.t_compute == ns.t_compute
        assert us.runtime_ideal == ns.runtime_ideal
        assert us.efficiency == ns.efficiency


def _pinned_phases(step):
    """Every pattern and compute kind, jitter on and off, a split
    allreduce, and a none phase that leaves the ranks unaligned before a
    barrier pattern; times scaled by step."""
    return [
        {"pattern": "none", "iterations": 3,
         "compute": {"kind": "uniform", "mean_ns": 4000 * step,
                     "jitter_ns": 3000 * step}},
        {"pattern": "ring_exchange", "iterations": 4,
         "compute": {"kind": "explicit", "values_ns": [
             v * step for v in (5000, 7000, 6000, 9000, 8000)]},
         "message_bytes": 64, "injected_wait_ns": 100 * step},
        {"pattern": "neighbor_stencil", "iterations": 3,
         "compute": {"kind": "linear_imbalance", "mean_ns": 6000 * step,
                     "imbalance_ratio": 1.5, "jitter_ns": 2000 * step},
         "message_bytes": 512},
        {"pattern": "allreduce", "iterations": 4,
         "compute": {"kind": "uniform", "mean_ns": 3000 * step,
                     "jitter_ns": 1000 * step},
         "communicator_split": 2, "injected_wait_ns": 50 * step},
        {"pattern": "serial_chain", "iterations": 3,
         "compute": {"kind": "explicit", "values_ns": [
             v * step for v in (2000, 1000, 3000, 1000, 2000)],
             "jitter_ns": 500 * step},
         "message_bytes": 128, "injected_wait_ns": 20 * step},
        {"pattern": "allreduce", "iterations": 2,
         "compute": {"kind": "linear_imbalance", "mean_ns": 2000 * step,
                     "imbalance_ratio": 1.25}},
    ]


PINNED_SCENARIOS = {
    "mixed_ns": {"name": "mixed_ns", "rank_count": 5, "seed": 11,
                 "phases": _pinned_phases(1)},
    "mixed_us": {"name": "mixed_us", "rank_count": 5, "seed": 12,
                 "time_unit": "us", "phases": _pinned_phases(1000)},
    # jitter draws wider than 32 bits, and past int64
    "wide_draws": {"name": "wide_draws", "rank_count": 3, "seed": 13,
                   "phases": [
                       {"pattern": "allreduce", "iterations": 5,
                        "compute": {"kind": "uniform", "mean_ns": 1000,
                                    "jitter_ns": 10**12}},
                       {"pattern": "serial_chain", "iterations": 5,
                        "compute": {"kind": "uniform", "mean_ns": 1000,
                                    "jitter_ns": 2**32}},
                       {"pattern": "allreduce", "iterations": 3,
                        "compute": {"kind": "uniform", "mean_ns": 1000,
                                    "jitter_ns": 2**64}}]},
}

# sha256 of what `generate --expected` writes for each pinned scenario;
# the generator's output is a format, and a change that moves one byte of
# it has to say so here
PINNED_DIGESTS = {
    "mixed_ns": {
        ".prv": "5074730768cd082a3ad44606c87b3f66"
                "04e684acc607c32e3f34e9d0da2be65c",
        ".pcf": "5ace0f150c33c6e7a9fad741c46bcc44"
                "e395c425b6d297cbd3ca3f3394f8a0b3",
        ".expected.json": "1c6738321b1af35659c7dcbc330e100a"
                          "a1962a937b2b201a893457a8701b878e",
    },
    "mixed_us": {
        ".prv": "64b36ebb6732d1f41aa9357760ca823b"
                "32b6eb7a233125ff1b623258b13a14fc",
        ".pcf": "c421794306480f4f18f8dce59fa4e5c1"
                "b3b09b1d24f5e8280c0ba9af451e5f45",
        ".expected.json": "d9869765d97890c3653079d3f7252315"
                          "954531fe2c48864ccb372a42e5104a86",
    },
    "wide_draws": {
        ".prv": "143a59c115d36983126de038923a8f19"
                "79c710ed989d73843df37928f2b9f00c",
        ".pcf": "5ace0f150c33c6e7a9fad741c46bcc44"
                "e395c425b6d297cbd3ca3f3394f8a0b3",
        ".expected.json": "dca269c9ae4fab4b17c62fec283640d8"
                          "2b10a0e02017806658c7f78e5f0873f4",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_generated_bytes_are_pinned(name, tmp_path):
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(json.dumps(PINNED_SCENARIOS[name]),
                        encoding="utf-8")
    prv = tmp_path / f"{name}.prv"
    assert cli_main(["generate", str(scenario), "--out", str(prv),
                     "--expected"]) == 0
    digests = {suffix: hashlib.sha256(
        prv.with_suffix(suffix).read_bytes()).hexdigest()
        for suffix in PINNED_DIGESTS[name]}
    assert digests == PINNED_DIGESTS[name]


# tracemalloc peaks of 16-rank ring generation read 264 924 B at 256 and
# 269 946 B at 2560 iterations (Python 3.11); a whole compute matrix held
# at once adds about 630 B per iteration (1.6 MB between the two)
GENERATION_PEAK_GROWTH_BOUND = 64 * 1024


def test_generation_memory_does_not_grow_with_iterations(tmp_path):
    def peak(iterations):
        sc = load_scenario({
            "name": "mem", "rank_count": 16, "seed": 1,
            "phases": [{"pattern": "ring_exchange",
                        "iterations": iterations,
                        "compute": {"kind": "uniform", "mean_ns": 50000,
                                    "jitter_ns": 10000},
                        "message_bytes": 1024}]})
        tracemalloc.start()
        try:
            generate_to_files(sc, tmp_path / "mem.prv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(256), peak(2560)
    assert abs(large - small) < GENERATION_PEAK_GROWTH_BOUND, (small, large)
