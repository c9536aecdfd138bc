"""Tests for clock reconstruction: synchronization rules, degradation,
counted replay, and the assembled timelines."""

import math
import random

import pytest

from paraslice import (
    CallClass,
    CommunicatorDef,
    MpiRegion,
    PtpMessage,
    Trace,
    TraceMeta,
    replay,
)
from paraslice.model import STATUS_CODES, AnomalyKind, MessageStatus
from paraslice.replay import (
    DEFAULT_EAGER_LIMIT,
    ClockTriple,
    WorldCollectiveIndex,
)

from bruteforce import brute_force_ideal
from conftest import no_cuts, replay_module
from scenarios import random_scenario, roundtrip
from test_windows import clocks_of

P2P = CallClass.POINT_TO_POINT
COLL = CallClass.COLLECTIVE
OTHER = CallClass.OTHER_MPI
VALID = STATUS_CODES[MessageStatus.VALID]
FAULTY = STATUS_CODES[MessageStatus.FAULTY_LOCAL]


def trace_of(duration, rank_regions, messages=(), comms=()):
    """A built trace; each region spec is (entry, exit, class) or
    (entry, exit, class, communicator hint)."""
    meta = TraceMeta(total_duration_ns=duration,
                     rank_count=len(rank_regions))
    regions = [[MpiRegion(r, *spec[:3],
                          comm_hint=spec[3] if len(spec) > 3 else None)
                for spec in specs]
               for r, specs in enumerate(rank_regions)]
    return Trace.build(meta, regions, messages, comms)


def one_message(sender_entry, receiver_entry, size=8,
                status=MessageStatus.VALID, send_begin=None, recv_end=12):
    """Rank 0 sends to rank 1; each rank's only region ends at 12."""
    if send_begin is None:
        send_begin = sender_entry
    return trace_of(
        20,
        [[(sender_entry, 12, P2P)], [(receiver_entry, 12, P2P)]],
        messages=[PtpMessage(0, 1, send_begin=send_begin, recv_end=recv_end,
                             size_bytes=size, status=status)],
    )


def ideal_at(tl, t):
    return clocks_of(tl, t)[1][0]


def well_ordered(tl):
    """0 <= oom <= ideal <= elapsed at every stored point of tl."""
    return bool(((0 <= tl.oom) & (tl.oom <= tl.ideal)
                 & (tl.ideal <= tl.times)).all())


def exit_ideals(trace, eager_limit_bytes=DEFAULT_EAGER_LIMIT):
    """(sender, receiver) ideal clocks at their region exits, and the log."""
    timeline, log = replay(trace, eager_limit_bytes)
    return tuple(ideal_at(tl, 12) for tl in timeline.ranks), log


class TestSynchronizePtp:
    """The point-to-point and collective rules, observed through replay."""

    def test_eager_receiver_compare_and_swap(self):
        (send_exit, recv_exit), log = exit_ideals(one_message(8, 3))
        assert log.total == 0
        assert recv_exit == 8          # sender value wins
        assert send_exit == 8          # floor is the sender's own value
        (_, recv_exit), _ = exit_ideals(one_message(2, 7))
        assert recv_exit == 7          # receiver already ahead

    def test_rendezvous_floor_absorbs_receiver_entry(self):
        (send_exit, recv_exit), log = exit_ideals(one_message(2, 7, 101),
                                                  eager_limit_bytes=100)
        assert log.total == 0
        assert recv_exit == 7
        assert send_exit == 7          # sender must wait for the receiver

    def test_degraded_message_rejected(self):
        trace = one_message(2, 7, 101, status=MessageStatus.FAULTY_LOCAL)
        (send_exit, recv_exit), log = exit_ideals(trace,
                                                  eager_limit_bytes=100)
        assert log.total == 0
        assert (send_exit, recv_exit) == (2, 7)   # no synchronization

    def test_collective_is_max(self):
        trace = trace_of(30, [[(3, 20, COLL)], [(11, 20, COLL)],
                              [(7, 20, COLL)]])
        timeline, log = replay(trace)
        assert log.total == 0
        assert [ideal_at(tl, 20) for tl in timeline.ranks] == [11, 11, 11]


class TestDegradeFaulty:
    """Degradation of causally impossible matches, observed through
    replay's anomaly log and the message status it writes back."""

    def test_reversed_degraded_and_logged(self):
        trace = one_message(2, 3, send_begin=9, recv_end=5)
        _, log = exit_ideals(trace)
        assert trace.messages.status_codes[0] == FAULTY
        assert [(e.kind, e.location, e.detail) for e in log.entries] == [
            (AnomalyKind.REVERSED_PTP, "message 0",
             "send at 9 after receive completion 5")]

    def test_healthy_untouched(self):
        trace = one_message(5, 3, recv_end=9)
        _, log = exit_ideals(trace)
        assert trace.messages.status_codes[0] == VALID
        assert log.total == 0

    def test_no_double_degradation(self):
        trace = one_message(2, 3, send_begin=9, recv_end=5)
        assert exit_ideals(trace)[1].total == 1
        # the status written back keeps a second replay from logging again
        assert exit_ideals(trace)[1].total == 0
        assert trace.messages.status_codes[0] == FAULTY

    def test_crossing_flag_forces_degradation(self):
        trace = crossing_fixture()      # sends before it receives
        _, log = replay(trace)
        assert trace.messages.status_codes[0] == FAULTY
        assert [(e.kind, e.location, e.detail) for e in log.entries] == [
            (AnomalyKind.REVERSED_PTP, "message 0",
             "message matched across a world collective")]


def crossing_fixture(sender_coll=(10, 22), receiver_coll=(28, 30),
                     klass=COLL, hint=None):
    """A physically ordered message that overtakes a world barrier."""
    return trace_of(
        50,
        [[(*sender_coll, klass, hint), (sender_coll[1], 24, P2P)],
         [(12, 25, P2P), (*receiver_coll, klass, hint)]],
        messages=[PtpMessage(0, 1, send_begin=23, recv_end=25, size_bytes=8)],
    )


def crosses(trace):
    m = trace.messages
    return WorldCollectiveIndex(trace).crosses_many(
        m.senders, m.receivers, m.send_begins, m.recv_ends).tolist()


class TestWorldCollectiveCrossing:
    def test_crossing_detected(self):
        assert crosses(crossing_fixture()) == [True]

    def test_strictness_on_receiver_side(self):
        # receive completes exactly when the barrier begins: simultaneous,
        # not a crossing
        assert crosses(crossing_fixture(receiver_coll=(25, 30))) == [False]

    def test_strictness_on_sender_side(self):
        # barrier ends exactly when the send begins
        assert crosses(crossing_fixture(sender_coll=(10, 23))) == [False]

    def test_no_world_collectives(self):
        trace = crossing_fixture(klass=P2P)
        assert crosses(trace) == [False]
        _, log = replay(trace)
        assert log.total == 0
        assert trace.messages.status_codes[0] == VALID

    def test_sub_communicator_collectives_do_not_count(self):
        assert crosses(crossing_fixture(hint=2)) == [False]

    def test_replay_degrades_crossing(self):
        trace = crossing_fixture()
        timeline, log = replay(trace)
        assert log.count(AnomalyKind.REVERSED_PTP) == 1
        assert trace.messages.status_codes[0] == FAULTY

    def test_strict_mode_raises(self):
        # the entry a --strict run reports first
        first = replay(crossing_fixture())[1].entries[0]
        assert (first.kind, first.location, first.detail) == (
            AnomalyKind.REVERSED_PTP, "message 0",
            "message matched across a world collective")


class TestReplayMicroTrace:
    """Two ranks; rank 0 computes 4 of 10 units then blocks in MPI until a
    message sent at 8 arrives, putting its ideal exit at 8."""

    def make(self):
        return trace_of(
            10,
            [[(4, 10, P2P)], [(8, 10, P2P)]],
            messages=[PtpMessage(1, 0, send_begin=8, recv_end=10,
                                 size_bytes=64)],
        )

    def test_final_triples(self):
        timeline, log = replay(self.make())
        assert log.total == 0
        r0, r1 = timeline.final_triples()
        assert r0 == ClockTriple(elapsed=10, oom=4, ideal=8)
        assert r1 == ClockTriple(elapsed=10, oom=8, ideal=8)

    def test_stored_points_well_ordered(self):
        timeline, _ = replay(self.make())
        for tl in timeline.ranks:
            assert well_ordered(tl)

    def test_interpolation_inside_mpi_region(self):
        timeline, _ = replay(self.make())
        # inside rank 0's MPI region the wait precedes the transfer:
        # oom freezes at 4, ideal advances until capped at its exit value
        assert clocks_of(timeline.ranks[0], 7) == ([4], [7])
        assert clocks_of(timeline.ranks[0], 9) == ([4], [8])

    def test_interpolation_at_bounds(self):
        timeline, _ = replay(self.make())
        assert clocks_of(timeline.ranks[0], 0) == ([0], [0])
        assert clocks_of(timeline.ranks[0], 10) == ([4], [8])


class TestRendezvous:
    def make(self, size):
        return trace_of(
            12,
            [[(2, 12, P2P)], [(10, 12, P2P)]],
            messages=[PtpMessage(0, 1, send_begin=2, recv_end=12,
                                 size_bytes=size)],
        )

    def test_eager_sender_unaffected(self):
        timeline, log = replay(self.make(64))
        assert log.total == 0
        r0, r1 = timeline.final_triples()
        assert r0.ideal == 2       # sender retired immediately
        assert r1.ideal == 10      # receiver was already ahead of the data

    def test_rendezvous_sender_waits(self):
        timeline, log = replay(self.make(100_000))
        assert log.total == 0
        r0, r1 = timeline.final_triples()
        assert r0.ideal == 10      # sender floor: receiver's entry value
        assert r1.ideal == 10

    def test_limit_override_restores_eager(self):
        timeline, _ = replay(self.make(100_000), eager_limit_bytes=200_000)
        assert timeline.final_triples()[0].ideal == 2

    def test_exact_limit_is_eager(self):
        timeline, _ = replay(self.make(100), eager_limit_bytes=100)
        assert timeline.final_triples()[0].ideal == 2


class TestCollectiveSync:
    def test_barrier_equalizes_ideal(self):
        trace = trace_of(30, [[(5, 20, COLL)], [(12, 20, COLL)]])
        timeline, log = replay(trace)
        assert log.total == 0
        r0, r1 = timeline.final_triples()
        # both exit the barrier at the slower entry value (12), then run
        # out the remaining 10 units of compute
        assert r0.ideal == 22 and r1.ideal == 22
        assert r0.oom == 15 and r1.oom == 22

    def test_membership_mismatch_skipped(self):
        # rank 1 never enters the world collective rank 0 is in
        trace = trace_of(30, [[(5, 20, COLL)], [(12, 20, P2P)]])
        timeline, log = replay(trace)
        assert [(e.kind, e.location, e.detail) for e in log.entries] == [
            (AnomalyKind.MALFORMED_RECORD, "collective comm=1 occ=0",
             "participants do not match communicator membership; "
             "synchronization skipped")]
        assert timeline.final_triples()[0].ideal == 15  # no sync happened

    def test_non_member_participant_skipped(self):
        # rank 1 enters a collective of communicator 2, whose only member
        # is rank 0; synchronizing would lift rank 0 to 22
        trace = trace_of(30, [[(5, 20, COLL, 2)], [(12, 20, COLL, 2)]],
                         comms=[CommunicatorDef(2, [0])])
        timeline, log = replay(trace)
        assert [(e.kind, e.location) for e in log.entries] == [
            (AnomalyKind.MALFORMED_RECORD, "collective comm=2 occ=0")]
        assert timeline.final_triples()[0].ideal == 15

    def test_undefined_communicator_skipped(self):
        trace = trace_of(30, [[(5, 20, COLL, 9)], [(12, 20, COLL, 9)]])
        timeline, log = replay(trace)
        assert [(e.kind, e.location) for e in log.entries] == [
            (AnomalyKind.MALFORMED_RECORD, "collective comm=9 occ=0")]
        assert timeline.final_triples()[0].ideal == 15

    def sub_communicator_gap(self):
        """Ranks 0 and 1 meet twice on communicator 2, but rank 1 misses
        the second meeting; all three then meet on world."""
        return trace_of(
            50,
            [[(5, 10, COLL, 2), (20, 25, COLL, 2), (40, 45, COLL)],
             [(8, 10, COLL, 2), (42, 45, COLL)],
             [(44, 45, COLL)]],
            comms=[CommunicatorDef(2, [0, 1])])

    def test_one_bad_occurrence_among_good_ones(self):
        timeline, log = replay(self.sub_communicator_gap())
        assert [(e.kind, e.location, e.detail) for e in log.entries] == [
            (AnomalyKind.MALFORMED_RECORD, "collective comm=2 occ=1",
             "participants do not match communicator membership; "
             "synchronization skipped")]
        r0 = timeline.ranks[0]
        assert ideal_at(r0, 10) == 8    # occ 0 synchronized
        assert ideal_at(r0, 25) == 18   # occ 1 skipped
        # world: every rank leaves at rank 2's entry value
        assert [ideal_at(tl, 45) for tl in timeline.ranks] == [44, 44, 44]

    def test_one_bad_occurrence_strict_mode_raises(self):
        # the entry a --strict run reports first
        _, log = replay(self.sub_communicator_gap())
        assert log.entries[0].location == "collective comm=2 occ=1"

    def test_stacked_zero_length_split_collectives(self, tmp_path):
        """Regression: a zero-length subgroup collective stacked on a world
        barrier at the same instant must not swap attachments."""
        from paraslice.synth import load_scenario

        sc = load_scenario({
            "name": "stacked", "rank_count": 4, "seed": 5,
            "phases": [{"pattern": "allreduce", "iterations": 2,
                        "compute": {"kind": "uniform", "mean_ns": 700,
                                    "jitter_ns": 90},
                        "communicator_split": 2}]})
        trace, ilog, _ = roundtrip(sc, tmp_path)
        assert ilog.total == 0
        timeline, rlog = replay(trace)
        assert rlog.total == 0, [(e.location, e.detail) for e in rlog.entries]


class TestGroupCuts:
    """Allreduce on four sub-communicators: each group of ranks is cut at
    its own collectives, not only at the world barrier."""

    SCENARIO = {
        "name": "split4", "rank_count": 8, "seed": 5,
        "phases": [{"pattern": "allreduce", "iterations": 6,
                    "compute": {"kind": "linear_imbalance", "mean_ns": 5000,
                                "imbalance_ratio": 1.5, "jitter_ns": 1000},
                    "communicator_split": 4, "injected_wait_ns": 200}]}

    def test_replays_on_group_lanes_like_the_oracle(self, tmp_path,
                                                    monkeypatch):
        from paraslice.metrics import global_metrics
        from paraslice.synth import expected_metrics, load_scenario

        sc = load_scenario(self.SCENARIO)
        trace = roundtrip(sc, tmp_path)[0]
        lanes = []
        sweep = replay_module._sweep

        def spy(graph, lane_offsets, *rest, **flags):
            lanes.append(len(lane_offsets) - 1)
            return sweep(graph, lane_offsets, *rest, **flags)

        monkeypatch.setattr(replay_module, "_sweep", spy)
        timeline, log = replay(trace)
        assert log.total == 0
        # per rank: six allreduces and the closing world barrier
        assert lanes == [8 * (6 + 1 + 1)]
        monkeypatch.setattr(replay_module, "_find_cuts", no_cuts)
        ranked, _ = replay(roundtrip(sc, tmp_path)[0])
        assert lanes[1:] == [8]
        for got, want in zip(timeline.ranks, ranked.ranks):
            for column in ("times", "oom", "ideal"):
                assert getattr(got, column).tolist() == \
                    getattr(want, column).tolist()
        gm, exp = global_metrics(timeline), expected_metrics(sc)
        for name in ("load_balance", "serialisation", "transfer",
                     "efficiency"):
            assert math.isclose(getattr(gm, name), getattr(exp, name),
                                rel_tol=1e-9), name


class TestOtherMpi:
    def test_receiver_side_never_synchronizes(self):
        trace = trace_of(
            12,
            [[(10, 11, P2P)], [(2, 12, OTHER)]],
            messages=[PtpMessage(0, 1, send_begin=10, recv_end=12,
                                 size_bytes=8)],
        )
        timeline, log = replay(trace)
        assert log.total == 0
        assert timeline.final_triples()[1].ideal == 2

    def test_sender_side_never_floors(self):
        trace = trace_of(
            12,
            [[(2, 12, OTHER)], [(10, 12, P2P)]],
            messages=[PtpMessage(0, 1, send_begin=2, recv_end=12,
                                 size_bytes=100_000)],
        )
        timeline, log = replay(trace)
        assert log.total == 0
        assert timeline.final_triples()[0].ideal == 2  # no rendezvous floor


class TestReplayAnomalies:
    def test_reversed_message_degraded(self):
        trace = trace_of(
            20,
            [[(2, 6, P2P)], [(10, 14, P2P)]],
            messages=[PtpMessage(1, 0, send_begin=12, recv_end=4,
                                 size_bytes=8)],
        )
        _, log = replay(trace)
        assert log.count(AnomalyKind.REVERSED_PTP) == 1

    def test_unmatched_send(self):
        trace = trace_of(
            20,
            [[(2, 6, P2P)], [(10, 14, P2P)]],
            messages=[PtpMessage(0, 1, send_begin=8, recv_end=14,
                                 size_bytes=8)],
        )
        _, log = replay(trace)
        assert log.count(AnomalyKind.UNMATCHED_SEND) == 1
        assert log.total == 1
        assert trace.messages.status_codes[0] == FAULTY

    def test_unmatched_recv(self):
        trace = trace_of(
            20,
            [[(2, 6, P2P)], [(10, 14, P2P)]],
            messages=[PtpMessage(0, 1, send_begin=4, recv_end=9,
                                 size_bytes=8)],
        )
        _, log = replay(trace)
        assert log.count(AnomalyKind.UNMATCHED_RECV) == 1

    def test_rank_out_of_range(self):
        # replay never sees such a message: Trace.build refuses it
        with pytest.raises(ValueError, match=r"^message 0: sender 0 or "
                           r"receiver 5 outside \[0, 1\)$"):
            trace_of(20, [[(2, 6, P2P)]], messages=[PtpMessage(0, 5, 4, 9)])

    @pytest.mark.parametrize("sender,receiver,send,recv", [
        (1, 0, 12, 4),   # reversed
        (0, 1, 8, 14),   # unmatched send
    ])
    def test_strict_mode_raises(self, sender, receiver, send, recv):
        trace = trace_of(
            20,
            [[(2, 6, P2P)], [(10, 14, P2P)]],
            messages=[PtpMessage(sender, receiver, send, recv, size_bytes=8)],
        )
        # the entry a --strict run reports first
        _, log = replay(trace)
        first = log.entries[0]
        if send > recv:
            assert (first.kind, first.detail) == (
                AnomalyKind.REVERSED_PTP,
                f"send at {send} after receive completion {recv}")
        else:
            assert (first.kind, first.detail) == (
                AnomalyKind.UNMATCHED_SEND,
                f"send at {send} outside any region of rank {sender}")
        assert first.location == "message 0"

    def test_self_message_completes(self):
        trace = trace_of(
            10,
            [[(2, 6, P2P)]],
            messages=[PtpMessage(0, 0, send_begin=2, recv_end=6, size_bytes=8)],
        )
        timeline, log = replay(trace)
        assert log.total == 0
        assert well_ordered(timeline.ranks[0])


@pytest.mark.usefixtures("every_wave_wide")
class TestReplayAnomaliesWide(TestReplayAnomalies):
    """The anomaly cases with every batch of ready ranks a numpy wave."""


@pytest.mark.usefixtures("every_wave_scalar")
class TestReplayAnomaliesScalar(TestReplayAnomalies):
    """The anomaly cases with every ready rank in the scalar loop."""


class TestDependencyCycle:
    def make_cycle(self):
        # each rank's first region receives a message sent from the other
        # rank's second region: a genuine causal impossibility
        return trace_of(
            30,
            [[(10, 20, P2P), (20, 25, P2P)],
             [(10, 20, P2P), (20, 25, P2P)]],
            messages=[
                PtpMessage(1, 0, send_begin=20, recv_end=20, size_bytes=8),
                PtpMessage(0, 1, send_begin=20, recv_end=20, size_bytes=8),
            ],
        )

    def test_cycle_broken_deterministically(self):
        trace = self.make_cycle()
        timeline, log = replay(trace)
        assert log.count(AnomalyKind.REVERSED_PTP) >= 1
        assert all(well_ordered(tl) for tl in timeline.ranks)
        # cycle breaking writes each degradation into the trace's store
        assert trace.messages.status_codes.tolist() == [FAULTY] * 2
        # deterministic: same trace, same outcome
        log2 = replay(self.make_cycle())[1]
        assert [(e.kind, e.location) for e in log.entries] \
            == [(e.kind, e.location) for e in log2.entries]

    def test_strict_mode_raises_cycle_error(self):
        # the entry a --strict run reports first
        _, log = replay(self.make_cycle())
        first = log.entries[0]
        assert (first.kind, first.location, first.detail) == (
            AnomalyKind.REVERSED_PTP, "rank 0 region 0",
            "message on a dependency cycle")

    def make_floor_cycle(self):
        # rank 0's first region floors on the rendezvous receive in rank
        # 1's second region, and rank 1's first region receives from rank
        # 0's second region
        return trace_of(
            30,
            [[(15, 20, P2P), (20, 25, P2P)],
             [(5, 20, P2P), (20, 25, P2P)]],
            messages=[
                PtpMessage(0, 1, send_begin=15, recv_end=25,
                           size_bytes=100_000),
                PtpMessage(0, 1, send_begin=20, recv_end=20, size_bytes=8),
            ],
        )

    def test_rendezvous_floor_cycle_broken(self):
        trace = self.make_floor_cycle()
        timeline, log = replay(trace)
        assert [(e.kind, e.location, e.detail) for e in log.entries] == [
            (AnomalyKind.REVERSED_PTP, "rank 0 region 0",
             "rendezvous floor on a dependency cycle"),
            (AnomalyKind.REVERSED_PTP, "rank 1 region 0",
             "message on a dependency cycle")]
        assert trace.messages.status_codes.tolist() == [FAULTY] * 2
        # the degraded rendezvous message lifts neither side: rank 1's
        # second region keeps its own entry value 5, not rank 0's 15
        assert timeline.final_triples() == [ClockTriple(30, 20, 20),
                                            ClockTriple(30, 10, 10)]
        assert timeline.ranks[1].ideal.tolist() == [0, 5, 5, 5, 10]

    def test_rendezvous_floor_cycle_strict_listing(self):
        # one entry per rank on the cycle, at the region it waits in
        _, log = replay(self.make_floor_cycle())
        assert [e.location for e in log.entries] == ["rank 0 region 0",
                                                     "rank 1 region 0"]

    def make_collective_cycle(self):
        # two communicators over both ranks, entered in opposite order,
        # then a world barrier that still synchronizes
        return trace_of(
            20,
            [[(5, 10, COLL, 2), (12, 15, COLL, 3), (16, 18, COLL)],
             [(3, 8, COLL, 3), (9, 15, COLL, 2), (16, 18, COLL)]],
            comms=[CommunicatorDef(2, [0, 1]), CommunicatorDef(3, [0, 1])])

    def test_collective_cycle_skips_synchronization(self):
        timeline, log = replay(self.make_collective_cycle())
        detail = "collective on a dependency cycle; synchronization skipped"
        assert [(e.kind, e.location, e.detail) for e in log.entries] == [
            (AnomalyKind.MALFORMED_RECORD, "rank 0 region 0", detail),
            (AnomalyKind.MALFORMED_RECORD, "rank 1 region 0", detail)]
        assert timeline.final_triples() == [ClockTriple(20, 10, 10),
                                            ClockTriple(20, 7, 10)]
        # both skipped occurrences leave the ranks' own values; the world
        # barrier lifts rank 1 to rank 0's entry value 8
        assert timeline.ranks[0].ideal.tolist() == [0, 5, 5, 7, 7, 8, 8, 10]
        assert timeline.ranks[1].ideal.tolist() == [0, 3, 3, 4, 4, 5, 8, 10]

    def test_collective_cycle_strict_listing(self):
        # one entry per rank on the cycle, at the region it waits in
        _, log = replay(self.make_collective_cycle())
        assert [e.location for e in log.entries] == ["rank 0 region 0",
                                                     "rank 1 region 0"]


@pytest.mark.usefixtures("every_wave_wide")
class TestDependencyCycleWide(TestDependencyCycle):
    """The cycle cases with every batch of ready ranks a numpy wave."""


@pytest.mark.usefixtures("every_wave_scalar")
class TestDependencyCycleScalar(TestDependencyCycle):
    """The cycle cases with every ready rank in the scalar loop."""


class TestReplayConfig:
    """replay's one setting: the eager limit."""

    def test_negative_eager_limit_rejected(self):
        with pytest.raises(ValueError):
            replay(one_message(2, 7), eager_limit_bytes=-1)

    def test_defaults(self):
        # 64 KiB goes eagerly by default; one byte more waits for the
        # receiver's entry value
        assert exit_ideals(one_message(2, 7, 65536))[0] == (2, 7)
        assert exit_ideals(one_message(2, 7, 65537))[0] == (7, 7)


class TestInvariantsOnGeneratedTraces:
    def test_clock_ordering_everywhere(self, tmp_path):
        rng = random.Random(7)
        for case in range(6):
            sc = random_scenario(rng, max_ranks=6, max_phases=3)
            trace, ilog, _ = roundtrip(sc, tmp_path)
            assert ilog.total == 0
            timeline, rlog = replay(trace)
            assert rlog.total == 0, (sc.name,
                                     [(e.location, e.detail)
                                      for e in rlog.entries])
            duration = trace.meta.total_duration_ns
            for tl in timeline.ranks:
                times = tl.times
                assert times[0] == 0 and times[-1] == duration
                assert all(times[i] <= times[i + 1]
                           for i in range(len(times) - 1))
                assert all(tl.oom[i] <= tl.oom[i + 1]
                           for i in range(len(times) - 1))
                assert all(tl.ideal[i] <= tl.ideal[i + 1]
                           for i in range(len(times) - 1))
                assert well_ordered(tl), (sc.name, tl.rank)
            finals = timeline.final_triples()
            assert all(t.elapsed == duration for t in finals)


class TestWideCollectiveOracle:
    """32 ranks: per iteration a serial message chain, then a world
    barrier.  One chain message is above the eager limit and so is one
    message after the last barrier; one occurrence of a three-member
    communicator is entered by two ranks only, so it is skipped when
    collectives are attached."""

    RANKS = 32
    ITERATIONS = 4
    TAIL = ITERATIONS * 10_000      # after the last barrier

    def make(self):
        rng = random.Random(11)
        regions = [[] for _ in range(self.RANKS)]
        messages = []
        for it in range(self.ITERATIONS):
            t0 = it * 10_000
            for r in range(self.RANKS):
                got = t0 + 100 * r + 30          # chain receive completes
                if r:
                    enter = got - 1 if (it, r) == (1, 6) \
                        else t0 + 5 + rng.randrange(90)
                    regions[r].append((enter, got, P2P))
                send = (t0 + 80) if r == 0 else got + 50
                if r < self.RANKS - 1:
                    regions[r].append((send, send + 5, P2P))
                    size = 100_000 if (it, r) == (1, 5) else 512
                    messages.append(PtpMessage(
                        r, r + 1, send_begin=send,
                        recv_end=t0 + 100 * (r + 1) + 30, size_bytes=size))
                if it == 2 and r < 2:
                    at = t0 + 3400 + 200 * r
                    regions[r].append((at, at + 100, COLL, 2))
                barrier = t0 + 3700 + rng.randrange(250)
                regions[r].append((barrier, t0 + 4000, COLL))
        regions[5].append((self.TAIL + 100, self.TAIL + 105, P2P))
        regions[6].append((self.TAIL + 900, self.TAIL + 950, P2P))
        messages.append(PtpMessage(5, 6, send_begin=self.TAIL + 100,
                                   recv_end=self.TAIL + 950,
                                   size_bytes=100_000))
        return trace_of(self.TAIL + 1000, regions, messages,
                        comms=[CommunicatorDef(2, [0, 1, 2])])

    @pytest.mark.parametrize("eager_limit", [65536, 1 << 20])
    def test_matches_brute_force(self, eager_limit):
        finals, ideal = brute_force_ideal(self.make(), eager_limit)
        trace = self.make()
        assert len(trace.collectives) == self.ITERATIONS + 1
        timeline, log = replay(trace, eager_limit)
        assert [(e.kind, e.location) for e in log.entries] == [
            (AnomalyKind.MALFORMED_RECORD, "collective comm=2 occ=0")]
        got = [t.ideal for t in timeline.final_triples()]
        assert got == finals
        assert max(got) == ideal

    def test_rendezvous_floor_binds(self):
        # rank 5 leaves each rendezvous send no earlier than rank 6's
        # entry value at the matching receive
        timeline, _ = replay(self.make())
        relaxed, _ = replay(self.make(), 1 << 20)
        for exit_ in (10_000 + 585, self.TAIL + 105):
            floored = ideal_at(timeline.ranks[5], exit_)
            eager = ideal_at(relaxed.ranks[5], exit_)
            assert floored > eager


@pytest.mark.usefixtures("every_wave_wide")
class TestWideCollectiveOracleWide(TestWideCollectiveOracle):
    """The 32-rank oracle with every batch of ready ranks a numpy wave."""


@pytest.mark.usefixtures("every_wave_scalar")
class TestWideCollectiveOracleScalar(TestWideCollectiveOracle):
    """The 32-rank oracle with every ready rank in the scalar loop."""
