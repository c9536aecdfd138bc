"""Tests for the in-memory trace model: what Trace.build refuses, and
what validate_trace still reports."""

from collections import Counter

import numpy as np
import pytest

from paraslice import (
    CallClass,
    CommunicatorDef,
    MpiRegion,
    PtpMessage,
    Trace,
    TraceMeta,
    replay,
    validate_trace,
)
from paraslice.model import (
    AnomalyKind,
    AnomalyLog,
    MessageStatus,
    MessageStore,
    STATUS_CODES,
    WORLD_COMM_ID,
    locate_regions,
)

from conftest import region_lists


def region(rank, entry, exit_, klass=CallClass.POINT_TO_POINT, **kw):
    return MpiRegion(rank, entry, exit_, klass, **kw)


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
        regs = [region(0, 0, 5), region(0, 10, 20)]
        assert locate(regs, 15) == 1
        assert locate(regs, 15, prefer_exit=True) == 1
        assert locate(regs, 3) == 0

    def test_gap_between_regions(self):
        regs = [region(0, 0, 5), region(0, 10, 20)]
        assert locate(regs, 7) == -1
        assert locate(regs, 7, prefer_exit=True) == -1

    def test_boundaries_inclusive(self):
        regs = [region(0, 10, 20)]
        assert locate(regs, 10) == 0
        assert locate(regs, 20) == 0

    def test_shared_boundary_tie_break(self):
        # [0,5] and [5,9] both contain t=5
        regs = [region(0, 0, 5), region(0, 5, 9)]
        # a receive completing at 5 belongs to the region that ends there
        assert locate(regs, 5, prefer_exit=True) == 0
        # a send starting at 5 belongs to the region that begins there
        assert locate(regs, 5) == 1

    def test_stacked_zero_length_regions(self):
        # closing region, two zero-length calls, then an opening region
        regs = [region(0, 0, 5), region(0, 5, 5),
                region(0, 5, 5), region(0, 5, 9)]
        assert locate(regs, 5, prefer_exit=True) == 0
        # earliest region *starting* at 5 wins for a send
        assert locate(regs, 5) == 1

    def test_zero_length_only(self):
        regs = [region(0, 7, 7)]
        assert locate(regs, 7) == 0
        assert locate(regs, 7, prefer_exit=True) == 0

    def test_send_strictly_inside(self):
        regs = [region(0, 0, 5), region(0, 5, 9)]
        assert locate(regs, 6) == 1

    def test_many_times_at_once(self):
        regs = [region(0, 0, 5), region(0, 5, 5),
                region(0, 5, 9), region(0, 12, 20)]
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
        assert log.counters == Counter(e.kind for e in log.entries)

    def test_extend_merges_counters(self):
        a, b = AnomalyLog(), AnomalyLog()
        a.add(AnomalyKind.MALFORMED_RECORD, "x")
        b.add(AnomalyKind.MALFORMED_RECORD, "y")
        b.add(AnomalyKind.NONMONOTONIC_TIMESTAMP, "z")
        a.extend(b)
        assert a.total == 3
        assert a.count(AnomalyKind.MALFORMED_RECORD) == 2
        assert a.counters == Counter(e.kind for e in a.entries)


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


def collectives_trace(rank_regions, comms=(), duration=100):
    """A trace of collective regions only: rank_regions[r] lists rank r's
    (entry, exit) or (entry, exit, communicator hint) in the given order,
    which need not be entry order."""
    coll = CallClass.COLLECTIVE
    regions = [[region(r, spec[0], spec[1], coll,
                       comm_hint=spec[2] if len(spec) > 2 else None)
                for spec in specs]
               for r, specs in enumerate(rank_regions)]
    meta = TraceMeta(total_duration_ns=duration, rank_count=len(regions))
    return Trace.build(meta, regions, communicators=comms)


def violations(trace):
    return [(v.code, v.location, v.detail)
            for v in validate_trace(trace).violations]


SKIPPED = ("participants do not match communicator membership; "
           "synchronization skipped")


def replay_log(trace):
    """replay's log of the trace as (kind, location, detail) triples."""
    return [(e.kind.value, e.location, e.detail)
            for e in replay(trace)[1].entries]


class TestTraceBuild:
    def test_packs_records_into_stores(self):
        t = make_clean_trace()
        assert [len(regs) for regs in t.regions] == [3, 3]
        assert region_lists(t)[1][1] == (30, 50, CallClass.POINT_TO_POINT,
                                          None)
        msgs = t.messages
        assert [getattr(msgs, c).tolist() for c in msgs.COLUMNS] \
            == [[1], [0], [30], [60], [8], [STATUS_CODES[MessageStatus.VALID]]]
        assert len(t.collectives) == 0

    def test_message_columns(self):
        """The message columns are read-only int64; status_codes, which
        replay degrades messages through, is the one writable column."""
        msgs = make_clean_trace().messages
        for name in MessageStore.COLUMNS[:-1]:
            column = getattr(msgs, name)
            assert column.dtype == np.int64 and not column.flags.writeable
        assert msgs.status_codes.dtype == np.uint8
        assert msgs.status_codes.flags.writeable
        msgs.status_codes[0] = STATUS_CODES[MessageStatus.FAULTY_LOCAL]
        assert msgs.status_codes.tolist() \
            == [STATUS_CODES[MessageStatus.FAULTY_LOCAL]]

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
        colls = t.collectives
        assert colls.comm_ids.tolist() == [WORLD_COMM_ID, WORLD_COMM_ID, 7]
        assert colls.occ_indices.tolist() == [0, 1, 0]
        assert colls.part_offsets.tolist() == [0, 3, 5, 7]
        assert colls.part_ranks().tolist() == [0, 1, 2, 0, 2, 0, 1]
        assert t.regions.entry_times[colls.part_rows].tolist() \
            == [1, 6, 2, 8, 4, 5, 3]
        assert t.regions.exit_times[colls.part_rows].tolist() \
            == [2, 7, 3, 9, 9, 6, 4]
        assert colls.part_rows.tolist() == [0, 4, 5, 2, 6, 1, 3]
        assert (colls.part_rows - t.regions.offsets[colls.part_ranks()]
                ).tolist() == [0, 1, 0, 2, 1, 1, 0]

    def test_rank_count_must_match(self):
        with pytest.raises(ValueError):
            Trace.build(TraceMeta(total_duration_ns=10, rank_count=2), [[]])

    def test_refuses_no_rank(self):
        with pytest.raises(ValueError, match=r"^rank_count 0 < 1$"):
            Trace.build(TraceMeta(total_duration_ns=10, rank_count=0), [])

    def test_refuses_entry_before_zero(self):
        with pytest.raises(ValueError,
                           match=r"^rank 1 region 0: entry -20 < 0$"):
            Trace.build(TraceMeta(total_duration_ns=10, rank_count=2),
                        [[region(0, 0, 5)], [region(1, -20, 5)]])

    def test_touching_and_stacked_zero_length_regions_build(self):
        """Ingest emits both: a region that enters as the one before it
        exits, and zero-length regions at one timestamp."""
        t = Trace.build(TraceMeta(total_duration_ns=20, rank_count=1), [[
            region(0, 0, 5), region(0, 5, 5), region(0, 5, 5),
            region(0, 5, 9)]])
        assert t.regions.entry_times.tolist() == [0, 5, 5, 5]
        assert t.regions.exit_times.tolist() == [5, 5, 5, 9]


class TestValidateTrace:
    """A trace's structural faults (a region that overlaps the one before
    it or exits before it enters, a message rank out of range) are
    Trace.build's to refuse, with the rank and region or the message in
    the error; validate_trace reports the stream-end faults, and faulty
    messages and collectives are replay's to log."""

    def test_clean_trace_passes(self):
        report = validate_trace(make_clean_trace())
        assert report.ok, str(report)

    def test_overlapping_regions_flagged(self):
        with pytest.raises(ValueError, match=r"^rank 0 region 2: entry 55 "
                           r"< previous exit 60$"):
            make_clean_trace(rank0_last=(55, 100))

    def test_negative_region_flagged(self):
        with pytest.raises(ValueError,
                           match=r"^rank 1 region 1: entry 50 > exit 30$"):
            make_clean_trace(rank1_middle=(50, 30, CallClass.POINT_TO_POINT))

    # a faulty message or collective is replay's to log, once, and
    # validate_trace passes the trace

    def test_reversed_valid_message_flagged(self):
        t = make_clean_trace(message=(1, 0, 60, 30))
        assert replay_log(t) == [("reversed_ptp", "message 0",
                                  "send at 60 after receive completion 30")]
        assert validate_trace(t).ok

    def test_degraded_reversed_message_accepted(self):
        t = make_clean_trace(message=(1, 0, 60, 50),
                             status=MessageStatus.FAULTY_LOCAL)
        assert replay_log(t) == []
        assert validate_trace(t).ok

    def test_message_rank_out_of_range(self):
        for sender, receiver in ((1, 7), (-1, 0), (2, 1)):
            with pytest.raises(ValueError, match=rf"^message 0: sender "
                               rf"{sender} or receiver {receiver} outside "
                               rf"\[0, 2\)$"):
                make_clean_trace(message=(sender, receiver, 30, 60))

    def test_message_outside_regions(self):
        t = make_clean_trace(message=(1, 0, 10, 60))  # rank 1 gap
        assert replay_log(t) == [("unmatched_send", "message 0",
                                  "send at 10 outside any region of rank 1")]
        assert validate_trace(t).ok

    def test_message_receive_outside_regions(self):
        t = make_clean_trace(message=(1, 0, 30, 70))  # rank 0 gap
        assert replay_log(t) == [("unmatched_recv", "message 0",
                                  "receive at 70 outside any region of "
                                  "rank 0")]
        assert validate_trace(t).ok

    def test_bad_communicator_membership(self):
        t = make_clean_trace(members=(0, 0, 1))
        report = validate_trace(t)
        assert any(v.code == "communicator.members" for v in report.violations)

    def test_collective_participant_mismatch(self):
        # rank 1 enters a world collective that rank 0 never joins
        t = make_clean_trace(rank1_middle=(30, 50, CallClass.COLLECTIVE))
        assert replay_log(t) == [
            ("malformed_record", "collective comm=1 occ=0", SKIPPED)]
        assert validate_trace(t).ok

    def test_collective_entered_out_of_order(self):
        # regions out of entry order overlap the ones before them; the
        # error names the first, by rank and then region
        with pytest.raises(ValueError, match=r"^rank 0 region 1: entry 35 "
                           r"< previous exit 60$"):
            collectives_trace([
                [(40, 60), (35, 38), (38, 39), (5, 6, 2)],
                [(30, 50), (20, 25), (10, 12), (5, 6, 2)],
            ], comms=[CommunicatorDef(2, [1, 0])])

    def test_collective_order_and_membership_interleave(self):
        with pytest.raises(ValueError, match=r"^rank 1 region 1: entry 20 "
                           r"< previous exit 50$"):
            collectives_trace([[(40, 60)], [(30, 50), (20, 25), (10, 12)]])
        # in entry order, the occurrences rank 0 never joins are replay's
        # to log
        t = collectives_trace([[(40, 60)], [(10, 12), (20, 25), (30, 50)]])
        assert validate_trace(t).ok
        assert replay_log(t) == [
            ("malformed_record", f"collective comm=1 occ={k}", SKIPPED)
            for k in (1, 2)]

    def test_collective_exit_counts_toward_duration(self):
        t = collectives_trace([[(40, 60)], [(30, 120)]])
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
