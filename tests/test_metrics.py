"""Tests for the efficiency factors, per window and global."""

import math
import random

import numpy as np
import pytest

from paraslice import (
    AnnotatedTimeline,
    CallClass,
    NoComputeError,
    RankTimeline,
    Window,
    WindowPlan,
    boundary_clocks,
    global_metrics,
    plan_windows,
    replay,
    window_metrics,
    window_series,
)
from paraslice.metrics import critical_path

from scenarios import random_scenario, roundtrip
from test_replay import trace_of, P2P


def manual_plan(bounds, duration=None):
    windows = [Window(a, b) for a, b in zip(bounds, bounds[1:])]
    return WindowPlan(windows, bounds[1] - bounds[0], bounds[1] - bounds[0],
                      duration if duration is not None else bounds[-1],
                      False, 3)


class TestWindowMetrics:
    def test_factor_formulas(self):
        wm = window_metrics(0, 10, np.asarray([4, 2]), delta_cp=8)
        assert wm.defined and not wm.idle
        assert wm.load_balance == pytest.approx(0.75)
        assert wm.serialisation == pytest.approx(0.5)
        assert wm.transfer == pytest.approx(0.8)
        assert wm.efficiency == pytest.approx(0.3)

    def test_product_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 8)
            deltas = np.asarray([rng.randint(0, 40) for _ in range(n)])
            length = rng.randint(10, 100)
            cp = rng.randint(1, length)
            wm = window_metrics(0, length, deltas, cp)
            if wm.defined:
                assert wm.load_balance * wm.serialisation * wm.transfer \
                    == pytest.approx(wm.efficiency, rel=1e-12)

    def test_no_compute_window_undefined(self):
        wm = window_metrics(0, 10, np.asarray([0, 0]), delta_cp=5)
        assert not wm.defined and wm.idle
        assert wm.load_balance is None
        assert wm.efficiency == 0.0         # zero compute is still a number
        assert wm.transfer == pytest.approx(0.5)

    def test_stalled_critical_path_undefined(self):
        # a lagging rank may compute without extending the critical path:
        # serialisation has no value then, but efficiency still does
        wm = window_metrics(0, 10, np.asarray([3, 1]), delta_cp=0)
        assert not wm.defined and not wm.idle
        assert wm.serialisation is None
        assert wm.transfer == 0.0
        assert wm.efficiency == pytest.approx(0.2)

    def test_serialisation_may_exceed_one(self):
        wm = window_metrics(0, 10, np.asarray([6]), delta_cp=4)
        assert wm.serialisation == pytest.approx(1.5)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            window_metrics(5, 5, np.asarray([1]), 1)

    def test_metadata_passthrough(self):
        wm = window_metrics(10, 30, np.asarray([5]), 9, merged_from=4,
                            idle=True)
        assert wm.merged and wm.merged_from == 4 and wm.idle
        assert wm.length_ns == 20


class TestGlobalMetrics:
    def test_single_rank_identity(self):
        tl = AnnotatedTimeline(
            [RankTimeline.from_points(0, [(0, 0, 0), (50, 50, 50)])], 50)
        g = global_metrics(tl)
        assert g.load_balance == 1.0
        assert g.serialisation == 1.0
        assert g.transfer == 1.0
        assert g.efficiency == 1.0
        assert g.t_compute == (50,)

    def test_balanced_ranks_identity(self):
        ranks = [RankTimeline.from_points(r, [(0, 0, 0), (50, 50, 50)])
                 for r in range(4)]
        g = global_metrics(AnnotatedTimeline(ranks, 50))
        assert (g.load_balance, g.serialisation, g.transfer,
                g.efficiency) == (1.0, 1.0, 1.0, 1.0)

    def test_all_mpi_trace_raises(self):
        trace = trace_of(10, [[(0, 10, P2P)]])
        timeline, _ = replay(trace)
        with pytest.raises(NoComputeError):
            global_metrics(timeline)

    def test_imbalance_lowers_lb_only(self):
        ranks = [
            RankTimeline.from_points(0, [(0, 0, 0), (40, 40, 40),
                                         (50, 40, 50)]),
            RankTimeline.from_points(1, [(0, 0, 0), (50, 50, 50)]),
        ]
        g = global_metrics(AnnotatedTimeline(ranks, 50))
        assert g.load_balance == pytest.approx(0.9)
        assert g.serialisation == 1.0
        assert g.transfer == 1.0


class TestWindowSeries:
    def micro_timeline(self):
        trace = trace_of(
            10,
            [[(4, 10, P2P)], [(8, 10, P2P)]],
            messages=[__import__("paraslice").PtpMessage(
                1, 0, send_begin=8, recv_end=10, size_bytes=64)],
        )
        timeline, log = replay(trace)
        assert log.total == 0
        return timeline

    def test_series_on_micro_trace(self):
        timeline = self.micro_timeline()
        series = window_series(timeline, manual_plan([0, 7, 10]))
        first, second = series
        assert first.delta_oom == (4, 7)
        assert first.delta_cp == 7
        assert second.delta_oom == (0, 1)
        assert second.delta_cp == 1
        assert second.transfer == pytest.approx(1 / 3)

    def test_boundary_deltas_per_clock(self):
        timeline = self.micro_timeline()
        bc = boundary_clocks(timeline, np.asarray([0, 7, 10], dtype=np.int64))
        assert list(np.diff(bc.oom[0])) == [4, 0]
        assert list(np.diff(bc.ideal[0])) == [7, 1]
        assert list(np.diff(bc.boundaries)) == [7, 3]

    def test_critical_path_is_rank_max(self):
        timeline = self.micro_timeline()
        bc = boundary_clocks(timeline, np.asarray([0, 7, 10], dtype=np.int64))
        assert list(critical_path(bc)) == [0, 7, 8]


class TestConservation:
    """Window increments must recompose the global quantities exactly."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_telescoping_and_recomposition(self, seed, tmp_path):
        rng = random.Random(seed)
        sc = random_scenario(rng, max_ranks=8, max_phases=3)
        trace, ilog, _ = roundtrip(sc, tmp_path)
        assert ilog.total == 0
        timeline, rlog = replay(trace)
        assert rlog.total == 0
        g = global_metrics(timeline)
        duration = timeline.total_duration

        for divisor in (100, 20, 10, 1):
            length = max(1, duration // divisor)
            plan = plan_windows(timeline, length, min_events=3)
            series = window_series(timeline, plan)

            # integer telescoping of every clock on every rank
            sums = np.zeros(len(timeline.ranks), dtype=np.int64)
            cp_sum = 0
            for wm in series:
                sums += np.asarray(wm.delta_oom, dtype=np.int64)
                cp_sum += wm.delta_cp
            assert list(sums) == list(g.t_compute), (sc.name, divisor)
            assert cp_sum == g.runtime_ideal

            # efficiency-weighted recomposition: efficiency exists for
            # every window, compute-free ones contribute exactly zero
            acc = 0.0
            for wm in series:
                acc += wm.efficiency * wm.length_ns
                if not wm.defined:
                    assert wm.load_balance is None or wm.serialisation is None
            assert acc / duration == pytest.approx(g.efficiency, rel=1e-12)
