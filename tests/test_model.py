"""Tests for the in-memory trace model and its structural validation."""

import numpy as np
import pytest

from paraslice import (
    CallClass,
    CommunicatorDef,
    MpiRegion,
    PtpMessage,
    Trace,
    TraceMeta,
    validate_trace,
)
from paraslice.model import (
    AnomalyKind,
    AnomalyLog,
    MessageStatus,
    WORLD_COMM_ID,
    locate_regions,
)


def region(rank, entry, exit_, klass=CallClass.POINT_TO_POINT, seq=0, **kw):
    return MpiRegion(rank, entry, exit_, klass, region_seq=seq, **kw)


def locate(regs, t, prefer_exit=False):
    """locate_regions on one rank's regions, for a single time t."""
    entries = np.array([g.entry_time for g in regs], dtype=np.int64)
    exits = np.array([g.exit_time for g in regs], dtype=np.int64)
    found = locate_regions(entries, exits, np.array([t]), prefer_exit)
    return int(found[0])


class TestLocateRegion:
    def test_empty_and_out_of_range(self):
        assert locate([], 5) == -1
        assert len(locate_regions(np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64))) == 0
        regs = [region(0, 10, 20)]
        assert locate(regs, 9) == -1
        assert locate(regs, 21) == -1

    def test_interior_point(self):
        regs = [region(0, 0, 5), region(0, 10, 20, seq=1)]
        assert locate(regs, 15) == 1
        assert locate(regs, 15, prefer_exit=True) == 1
        assert locate(regs, 3) == 0

    def test_gap_between_regions(self):
        regs = [region(0, 0, 5), region(0, 10, 20, seq=1)]
        assert locate(regs, 7) == -1
        assert locate(regs, 7, prefer_exit=True) == -1

    def test_boundaries_inclusive(self):
        regs = [region(0, 10, 20)]
        assert locate(regs, 10) == 0
        assert locate(regs, 20) == 0

    def test_shared_boundary_tie_break(self):
        # [0,5] and [5,9] both contain t=5
        regs = [region(0, 0, 5), region(0, 5, 9, seq=1)]
        # a receive completing at 5 belongs to the region that ends there
        assert locate(regs, 5, prefer_exit=True) == 0
        # a send starting at 5 belongs to the region that begins there
        assert locate(regs, 5) == 1

    def test_stacked_zero_length_regions(self):
        # closing region, two zero-length calls, then an opening region
        regs = [region(0, 0, 5), region(0, 5, 5, seq=1),
                region(0, 5, 5, seq=2), region(0, 5, 9, seq=3)]
        assert locate(regs, 5, prefer_exit=True) == 0
        # earliest region *starting* at 5 wins for a send
        assert locate(regs, 5) == 1

    def test_zero_length_only(self):
        regs = [region(0, 7, 7)]
        assert locate(regs, 7) == 0
        assert locate(regs, 7, prefer_exit=True) == 0

    def test_send_strictly_inside(self):
        regs = [region(0, 0, 5), region(0, 5, 9, seq=1)]
        assert locate(regs, 6) == 1

    def test_many_times_at_once(self):
        regs = [region(0, 0, 5), region(0, 5, 5, seq=1),
                region(0, 5, 9, seq=2), region(0, 12, 20, seq=3)]
        entries = np.array([g.entry_time for g in regs])
        exits = np.array([g.exit_time for g in regs])
        t = np.array([-1, 0, 5, 6, 10, 12, 20, 21])
        assert locate_regions(entries, exits, t).tolist() \
            == [-1, 0, 1, 2, -1, 3, 3, -1]
        assert locate_regions(entries, exits, t, prefer_exit=True).tolist() \
            == [-1, 0, 0, 2, -1, 3, 3, -1]


class TestAnomalyLog:
    def test_add_and_count(self):
        log = AnomalyLog()
        assert log.total == 0
        log.add(AnomalyKind.REVERSED_PTP, "message 0")
        log.add(AnomalyKind.REVERSED_PTP, "message 3", "detail")
        log.add(AnomalyKind.UNMATCHED_SEND, "message 5")
        assert log.total == 3
        assert log.count(AnomalyKind.REVERSED_PTP) == 2
        assert log.count(AnomalyKind.UNMATCHED_SEND) == 1
        assert log.count(AnomalyKind.MALFORMED_RECORD) == 0
        assert log.consistent()

    def test_extend_merges_counters(self):
        a, b = AnomalyLog(), AnomalyLog()
        a.add(AnomalyKind.MALFORMED_RECORD, "x")
        b.add(AnomalyKind.MALFORMED_RECORD, "y")
        b.add(AnomalyKind.NONMONOTONIC_TIMESTAMP, "z")
        a.extend(b)
        assert a.total == 3
        assert a.count(AnomalyKind.MALFORMED_RECORD) == 2
        assert a.consistent()


def make_clean_trace(duration=100, rank0_last=(90, 100),
                     rank1_middle=(30, 50, CallClass.POINT_TO_POINT),
                     message=(1, 0, 30, 60), status=MessageStatus.VALID,
                     members=(0, 1)):
    """Two ranks and one message; each argument swaps in a defect."""
    meta = TraceMeta(total_duration_ns=duration, rank_count=2)
    regions = [
        [region(0, 0, 0, CallClass.OTHER_MPI),
         region(0, 40, 60, CallClass.POINT_TO_POINT),
         region(0, *rank0_last, CallClass.OTHER_MPI)],
        [region(1, 0, 0, CallClass.OTHER_MPI),
         region(1, *rank1_middle),
         region(1, 90, 100, CallClass.OTHER_MPI)],
    ]
    messages = [PtpMessage(*message, size_bytes=8, status=status)]
    return Trace.build(meta, regions, messages,
                       [CommunicatorDef(1, list(members))])


def with_collectives(occurrences, comms=()):
    """The clean trace plus hand-built collective occurrences, each
    (communicator, occurrence, [(rank, entry, exit), ...]): shapes that
    grouping from regions never produces."""
    t = make_clean_trace()
    for comm in comms:
        t.communicators[comm.communicator_id] = comm
    for cid, occ, parts in occurrences:
        ranks, entries, exits = (np.array(col, dtype=np.int64)
                                 for col in zip(*parts))
        t.collectives.extend_columns(
            np.array([cid]), np.array([occ]), np.array([len(parts)]),
            ranks, entries, exits, np.zeros(len(parts), dtype=np.int64))
    return t


def violations(trace):
    return [(v.code, v.location, v.detail)
            for v in validate_trace(trace).violations]


class TestTraceBuild:
    def test_packs_records_into_stores(self):
        t = make_clean_trace()
        assert [len(regs) for regs in t.regions] == [3, 3]
        assert t.regions[1][1] == region(1, 30, 50, seq=1)
        assert t.messages[0] == PtpMessage(1, 0, 30, 60, size_bytes=8)
        assert len(t.collectives) == 0

    def test_collectives_grouped_from_regions(self):
        coll = CallClass.COLLECTIVE
        meta = TraceMeta(total_duration_ns=50, rank_count=3)
        t = Trace.build(meta, [
            [region(0, 1, 2, coll), region(0, 5, 6, coll, comm_hint=7),
             region(0, 8, 9, coll)],
            [region(1, 3, 4, coll, comm_hint=7), region(1, 6, 7, coll)],
            [region(2, 2, 3, coll), region(2, 4, 9, coll)],
        ], communicators=[CommunicatorDef(7, [0, 1])])
        assert t.communicators[WORLD_COMM_ID].members == [0, 1, 2]
        ops = [(op.communicator_id, op.occurrence_index, op.participants)
               for op in t.collectives]
        assert ops == [
            (WORLD_COMM_ID, 0, [(0, 1, 2), (1, 6, 7), (2, 2, 3)]),
            (WORLD_COMM_ID, 1, [(0, 8, 9), (2, 4, 9)]),
            (7, 0, [(0, 5, 6), (1, 3, 4)]),
        ]
        assert t.collectives.part_region_idx.tolist() \
            == [0, 1, 0, 2, 1, 1, 0]

    def test_rank_count_must_match(self):
        with pytest.raises(ValueError):
            Trace.build(TraceMeta(total_duration_ns=10, rank_count=2), [[]])


class TestValidateTrace:
    def test_clean_trace_passes(self):
        report = validate_trace(make_clean_trace())
        assert report.ok, str(report)

    def test_overlapping_regions_flagged(self):
        t = make_clean_trace(rank0_last=(55, 100))
        report = validate_trace(t)
        assert not report.ok
        assert any(v.code == "region.overlap" for v in report.violations)

    def test_negative_region_flagged(self):
        t = make_clean_trace(
            rank1_middle=(50, 30, CallClass.POINT_TO_POINT))
        report = validate_trace(t)
        assert any(v.code == "region.negative" for v in report.violations)

    def test_reversed_valid_message_flagged(self):
        t = make_clean_trace(message=(1, 0, 60, 30))
        report = validate_trace(t)
        assert any(v.code == "message.reversed" for v in report.violations)

    def test_degraded_reversed_message_accepted(self):
        t = make_clean_trace(message=(1, 0, 60, 50),
                             status=MessageStatus.FAULTY_LOCAL)
        report = validate_trace(t)
        assert not any(v.code == "message.reversed" for v in report.violations)

    def test_message_rank_out_of_range(self):
        t = make_clean_trace(message=(1, 7, 30, 60))
        report = validate_trace(t)
        assert any(v.code == "message.rank_range" for v in report.violations)

    def test_message_outside_regions(self):
        t = make_clean_trace(message=(1, 0, 10, 60))  # rank 1 gap
        report = validate_trace(t)
        assert any(v.code == "message.sender_region" for v in report.violations)

    def test_message_receive_outside_regions(self):
        t = make_clean_trace(message=(1, 0, 30, 70))  # rank 0 gap
        report = validate_trace(t)
        assert [v.code for v in report.violations] == ["message.recv_region"]

    def test_bad_communicator_membership(self):
        t = make_clean_trace(members=(0, 0, 1))
        report = validate_trace(t)
        assert any(v.code == "communicator.members" for v in report.violations)

    def test_collective_participant_mismatch(self):
        # rank 1 enters a world collective that rank 0 never joins
        t = make_clean_trace(rank1_middle=(30, 50, CallClass.COLLECTIVE))
        report = validate_trace(t)
        assert any(v.code == "collective.membership" for v in report.violations)

    def test_duplicate_participant_rank(self):
        t = with_collectives([
            (1, 0, [(0, 40, 60), (0, 40, 60)]),
            (5, 0, [(1, 30, 50), (1, 30, 50)]),     # undefined communicator
        ])
        assert violations(t) == [
            ("collective.participants", "collective comm=1 occ=0",
             "duplicate participant rank"),
            ("collective.membership", "collective comm=1 occ=0",
             "participants [0, 0] != members [0, 1]"),
            ("collective.participants", "collective comm=5 occ=0",
             "duplicate participant rank"),
        ]

    def test_collective_entered_out_of_order(self):
        # each (communicator, rank) compares with its previous occurrence
        # in store order; communicator 2 keeps its own order
        t = with_collectives([
            (1, 0, [(0, 40, 60), (1, 30, 50)]),
            (1, 1, [(0, 35, 38), (1, 20, 25)]),
            (1, 2, [(0, 38, 39), (1, 10, 12)]),
            (2, 0, [(0, 5, 6), (1, 5, 6)]),
        ], comms=[CommunicatorDef(2, [1, 0])])
        assert violations(t) == [
            ("collective.order", "collective comm=1 occ=1",
             "rank 0 occurrence entered at 35 before 40"),
            ("collective.order", "collective comm=1 occ=1",
             "rank 1 occurrence entered at 20 before 30"),
            ("collective.order", "collective comm=1 occ=2",
             "rank 1 occurrence entered at 10 before 20"),
        ]

    def test_collective_order_and_membership_interleave(self):
        t = with_collectives([
            (1, 0, [(0, 40, 60), (1, 30, 50)]),
            (1, 1, [(1, 20, 25), (1, 10, 12)]),
        ])
        assert violations(t) == [
            ("collective.participants", "collective comm=1 occ=1",
             "duplicate participant rank"),
            ("collective.membership", "collective comm=1 occ=1",
             "participants [1, 1] != members [0, 1]"),
            ("collective.order", "collective comm=1 occ=1",
             "rank 1 occurrence entered at 20 before 30"),
            ("collective.order", "collective comm=1 occ=1",
             "rank 1 occurrence entered at 10 before 20"),
        ]

    def test_shuffled_store_reports_in_store_order(self):
        # occurrences out of (communicator, occurrence) order and ranks
        # out of rank order within them
        t = with_collectives([
            (2, 1, [(1, 50, 55), (0, 52, 56)]),
            (1, 0, [(1, 30, 50), (0, 40, 60)]),
            (2, 0, [(1, 60, 61), (0, 10, 12)]),
            (1, 1, [(1, 35, 38), (0, 41, 42), (1, 36, 37)]),
            (1, 2, [(2, 45, 46), (0, 44, 45)]),
        ], comms=[CommunicatorDef(2, [1, 0])])
        assert violations(t) == [
            ("collective.order", "collective comm=2 occ=0",
             "rank 0 occurrence entered at 10 before 52"),
            ("collective.participants", "collective comm=1 occ=1",
             "duplicate participant rank"),
            ("collective.membership", "collective comm=1 occ=2",
             "participants [0, 2] != members [0, 1]"),
        ]

    def test_ranks_spanning_int64_keep_their_order_check(self):
        far = 1 << 62
        t = with_collectives([(1, 0, [(far, 40, 60), (-far, 30, 50)]),
                              (1, 1, [(far, 35, 38), (-far, 31, 32)])])
        members = f"participants [{-far}, {far}] != members [0, 1]"
        assert violations(t) == [
            ("collective.membership", "collective comm=1 occ=0", members),
            ("collective.membership", "collective comm=1 occ=1", members),
            ("collective.order", "collective comm=1 occ=1",
             f"rank {far} occurrence entered at 35 before 40"),
        ]

    def test_collective_exit_counts_toward_duration(self):
        t = with_collectives([(1, 0, [(0, 40, 60), (1, 30, 120)])])
        assert violations(t) == [
            ("meta.duration", "header",
             "total_duration 100 < last timestamp 120")]

    def test_duration_shorter_than_last_timestamp(self):
        t = make_clean_trace(duration=80)
        report = validate_trace(t)
        assert any(v.code == "meta.duration" for v in report.violations)

    def test_report_str_lists_violations(self):
        t = make_clean_trace(duration=80)
        report = validate_trace(t)
        assert "meta.duration" in str(report)
        assert str(validate_trace(make_clean_trace())) == "trace valid"
