"""Tests for window planning, merging, and min-cap clock interpolation."""

import tracemalloc

import numpy as np
import pytest

from paraslice import (
    AnnotatedTimeline,
    ComputeSpec,
    PhaseSpec,
    Scenario,
    ClockTriple,
    RankTimeline,
    boundary_clocks,
    clocks_at,
    interpolate_clock,
    generate_to_files,
    load_trace,
    plan_windows,
    replay,
)


def linear_rank(rank, duration):
    """A rank that never enters MPI: all clocks equal elapsed time."""
    pts = [(0, 0, 0), (duration, duration, duration)]
    return RankTimeline.from_points(rank, pts)


def timeline_of(duration, *event_lists):
    """Ranks with linear clocks whose event points for window planning
    are event_lists[r], as one rank-major event column."""
    ranks = [linear_rank(r, duration) for r in range(len(event_lists))]
    offsets = np.cumsum([0] + [len(ev) for ev in event_lists])
    events = np.asarray([t for ev in event_lists for t in ev], dtype=np.int64)
    return AnnotatedTimeline(ranks, duration, offsets, (events,))


class TestPlanWindows:
    def test_plain_tiling(self):
        tl = timeline_of(100, range(0, 101, 2))
        plan = plan_windows(tl, 10, min_events=3)
        assert plan.base_length_ns == 10
        assert not plan.clamped
        spans = [(w.start_ns, w.end_ns) for w in plan.windows]
        assert spans == [(i, i + 10) for i in range(0, 100, 10)]
        assert all(not w.merged and not w.idle for w in plan.windows)
        assert list(plan.boundaries()) == list(range(0, 101, 10))

    def test_uneven_tail_window(self):
        tl = timeline_of(95, range(0, 96, 2))
        plan = plan_windows(tl, 30, min_events=3)
        spans = [(w.start_ns, w.end_ns) for w in plan.windows]
        assert spans == [(0, 30), (30, 60), (60, 90), (90, 95)]

    def test_event_on_final_boundary_counts(self):
        tl = timeline_of(20, [1, 5, 9, 12, 16, 20])
        plan = plan_windows(tl, 10, min_events=3)
        assert plan.windows[-1].event_counts == [3]   # 12, 16 and 20
        assert not plan.windows[-1].idle

    def test_doubling_on_empty_tile(self):
        events = [1, 5, 9, 21, 25, 29, 41, 45, 49, 61, 65, 69, 81, 85, 89]
        tl = timeline_of(100, events)
        plan = plan_windows(tl, 10, min_events=3)
        # tiles of 10 leave [10,20) empty; doubling to 20 fills every tile
        assert plan.base_length_ns == 20
        assert plan.requested_length_ns == 10
        assert len(plan.windows) == 5
        assert all(not w.merged for w in plan.windows)

    def test_doubling_caps_at_single_window(self):
        tl = timeline_of(100, [2, 3, 4])
        plan = plan_windows(tl, 10, min_events=3)
        assert len(plan.windows) == 1
        assert plan.base_length_ns == 100
        assert (plan.windows[0].start_ns, plan.windows[0].end_ns) == (0, 100)

    def test_merging_until_every_rank_covered(self):
        r0 = range(0, 101, 5)            # dense everywhere
        r1 = range(60, 101, 5)           # silent for the first 60 units
        tl = timeline_of(100, r0, r1)
        plan = plan_windows(tl, 25, min_events=3)
        spans = [(w.start_ns, w.end_ns, w.merged_from) for w in plan.windows]
        assert spans == [(0, 75, 3), (75, 100, 1)]
        assert plan.windows[0].merged and not plan.windows[0].idle
        assert plan.windows[0].event_counts[1] == 3   # rank 1: 60, 65, 70

    def test_final_deficient_window_stays_idle(self):
        r0 = range(0, 101, 5)
        r1 = range(0, 31, 5)             # nothing after t=30
        tl = timeline_of(100, r0, r1)
        plan = plan_windows(tl, 25, min_events=3)
        last = plan.windows[-1]
        assert last.idle
        assert last.end_ns == 100
        assert last.event_counts[1] < 3

    def test_min_events_monotone_in_window_count(self):
        tl = timeline_of(100, range(0, 101, 3), range(1, 101, 7))
        low = plan_windows(tl, 10, min_events=3)
        high = plan_windows(tl, 10, min_events=8)
        assert len(high.windows) <= len(low.windows)

    def test_cutoff_clamps_span(self):
        tl = timeline_of(100, range(0, 101, 2))
        plan = plan_windows(tl, 10, min_events=3, cutoff_ns=45)
        assert plan.clamped
        assert plan.effective_duration_ns == 45
        assert plan.windows[-1].end_ns == 45
        assert plan.boundaries()[-1] == 45

    def test_cutoff_beyond_duration_is_noop(self):
        tl = timeline_of(100, range(0, 101, 2))
        plan = plan_windows(tl, 10, min_events=3, cutoff_ns=400)
        assert not plan.clamped
        assert plan.effective_duration_ns == 100

    def test_validation(self):
        tl = timeline_of(100, range(0, 101, 2))
        with pytest.raises(ValueError, match="positive"):
            plan_windows(tl, 0, min_events=3)
        with pytest.raises(ValueError, match="at least 3"):
            plan_windows(tl, 10, min_events=2)
        with pytest.raises(ValueError, match="empty"):
            plan_windows(tl, 10, min_events=3, cutoff_ns=0)

    def test_no_events_at_all_single_window(self):
        tl = timeline_of(50, [])
        plan = plan_windows(tl, 10, min_events=3)
        assert len(plan.windows) == 1
        assert plan.windows[0].idle


def test_window_of_one_ns_plans_in_bounded_memory(tmp_path):
    """A 1.19 ms trace at a 1 ns window asks for over a million spans.
    Each doubling is decided by counting the spans the event points
    cover, so planning costs memory in points, not spans, and the plan
    is exactly the one for the final doubled length."""
    sc = Scenario(name="tiny", rank_count=16, seed=7, phases=(
        PhaseSpec("ring_exchange", 20,
                  ComputeSpec("uniform", mean_ns=50000, jitter_ns=10000),
                  message_bytes=1024),))
    prv, _ = generate_to_files(sc, tmp_path / "tiny.prv")
    trace, _, _ = load_trace(prv)
    timeline, _ = replay(trace)
    assert timeline.total_duration > 1_000_000
    tracemalloc.start()
    try:
        plan = plan_windows(timeline, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert plan.requested_length_ns == 1
    direct = plan_windows(timeline, plan.base_length_ns)
    assert plan.base_length_ns == direct.base_length_ns > 1
    assert plan.effective_duration_ns == direct.effective_duration_ns
    assert plan.windows == direct.windows


def mpi_rank():
    """Rank 0 of the micro-trace: compute [0,4], MPI [4,10], exit ideal 8."""
    pts = [(0, 0, 0), (4, 4, 4), (10, 4, 8)]
    return RankTimeline.from_points(0, pts)


class TestInterpolation:
    def test_identity_on_compute(self):
        tl = mpi_rank()
        assert interpolate_clock(tl, 2) == ClockTriple(2, 2, 2)

    def test_min_cap_inside_mpi(self):
        tl = mpi_rank()
        # oom is capped at 4 immediately; ideal rises 1:1 until capped at 8
        assert interpolate_clock(tl, 5) == ClockTriple(5, 4, 5)
        assert interpolate_clock(tl, 7) == ClockTriple(7, 4, 7)
        assert interpolate_clock(tl, 8) == ClockTriple(8, 4, 8)
        assert interpolate_clock(tl, 9) == ClockTriple(9, 4, 8)

    def test_bounds(self):
        tl = mpi_rank()
        assert interpolate_clock(tl, 0) == ClockTriple(0, 0, 0)
        assert interpolate_clock(tl, 10) == ClockTriple(10, 4, 8)

    def test_vectorized_matches_scalar(self):
        tl = mpi_rank()
        ts = np.arange(0, 11, dtype=np.int64)
        oom, ideal = clocks_at(tl, ts)
        for k, t in enumerate(ts):
            expected = interpolate_clock(tl, int(t))
            assert (int(oom[k]), int(ideal[k])) == (expected.oom, expected.ideal)

    def test_monotone_and_lipschitz(self):
        tl = mpi_rank()
        ts = np.arange(0, 11, dtype=np.int64)
        oom, ideal = clocks_at(tl, ts)
        assert (np.diff(oom) >= 0).all() and (np.diff(ideal) >= 0).all()
        assert (np.diff(oom) <= np.diff(ts)).all()
        assert (np.diff(ideal) <= np.diff(ts)).all()


class TestBoundaryClocks:
    def test_shapes_and_endpoints(self):
        ranks = [mpi_rank(),
                 RankTimeline.from_points(1, [(0, 0, 0), (10, 8, 8)])]
        tl = AnnotatedTimeline(ranks, 10)
        bounds = np.asarray([0, 5, 10], dtype=np.int64)
        bc = boundary_clocks(tl, bounds)
        assert bc.oom.shape == (2, 3) and bc.ideal.shape == (2, 3)
        assert list(bc.oom[:, 0]) == [0, 0]
        assert list(bc.ideal[:, 0]) == [0, 0]
        assert list(bc.oom[:, -1]) == [4, 8]
        assert list(bc.ideal[:, -1]) == [8, 8]
