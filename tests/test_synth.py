"""Scenario validation, deterministic generation, and the planted-factor
identities each communication pattern is designed to exhibit."""

import json
import math

import numpy as np
import pytest

from paraslice.prv import load_trace, parse_pcf_labels
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
    expected_metrics,
    generate_to_files,
    generate_trace,
    load_scenario,
)

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
    def test_oracle_at_320_ranks(self, tmp_path):
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
        timeline, log = replay(trace)
        assert log.total == 0
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
        assert all(len(w.event_counts) == P for w in plan.windows)
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

    def test_generation_is_deterministic(self):
        assert generate_trace(self.scenario()) == \
            generate_trace(self.scenario())

    def test_streaming_matches_in_memory(self, tmp_path):
        sc = self.scenario()
        prv_text, pcf_text_ = generate_trace(sc)
        prv_path, pcf_path = generate_to_files(sc, tmp_path / "out.prv")
        with open(prv_path, encoding="utf-8") as fh:
            assert fh.read() == prv_text
        with open(pcf_path, encoding="utf-8") as fh:
            assert fh.read() == pcf_text_

    def test_pcf_labels_cover_event_types(self):
        _, pcf = generate_trace(self.scenario())
        labels = parse_pcf_labels(pcf.splitlines())
        types = {t for t, _ in labels}
        assert types >= {50000001, 50000002, 50000003}
        assert "50000004" in pcf                       # declared, unlabeled

    def test_roundtrip_is_clean(self, tmp_path):
        trace, anomalies, counters = roundtrip(self.scenario(), tmp_path)
        assert validate_trace(trace).ok
        assert anomalies.total == 0
        assert counters.records == counters.consumed + counters.ignored \
            + counters.dropped
        assert trace.meta.rank_count == 3

    def test_microsecond_header_and_scaling(self, tmp_path):
        sc = self.scenario(time_unit=TimeUnit.MICROSECONDS)
        prv_text, pcf = generate_trace(sc)
        header = prv_text.splitlines()[0]
        assert "_us:" in header
        assert "UNITS               MICROSEC" in pcf
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
