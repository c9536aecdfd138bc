"""Tests for .prv ingestion: header, records and assembly."""

import io
import re

import pytest

from paraslice import CallClass, IngestError, load_trace
from paraslice import prv
from paraslice.model import (
    STATUS_CODES,
    AnomalyKind,
    AnomalyLog,
    MessageStatus,
    TimeUnit,
    WORLD_COMM_ID,
)
from paraslice.prv import (
    EVTYPE_COLLECTIVE,
    EVTYPE_COMM_ID,
    EVTYPE_OTHER,
    EVTYPE_P2P,
    IngestCounters,
    build_trace,
    parse_header,
)
from paraslice.synth import generate_to_files, load_scenario

from conftest import region_lists
from ref_ingest import load_reference, snapshot

TINY_BLOCK = 64


def header(duration="1000_ns", rank_count=2):
    tasks = ",".join("1:1" for _ in range(rank_count))
    return (f"#Paraver (01/01/25 at 00:00):{duration}:"
            f"1({rank_count}):1:{rank_count}({tasks})")


def assemble(body_lines, duration="1000_ns", rank_count=2, time_unit=None,
             header_line=None):
    """Build a trace from body lines through the production byte-stream
    entry, once in the default block size and once in blocks of
    TINY_BLOCK bytes, where most lines straddle two blocks; both must
    give the same result, which is returned."""
    meta = parse_header(header_line or header(duration, rank_count),
                        time_unit=time_unit)
    body = "".join(line + "\n" for line in body_lines).encode()
    results = []
    for size in (prv.BLOCK_SIZE, TINY_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prv, "BLOCK_SIZE", size)
            counters = IngestCounters()
            trace, log = build_trace(io.BytesIO(body), meta, AnomalyLog(),
                                     counters)
        results.append((trace, log, counters))
    assert snapshot(*results[1]) == snapshot(*results[0])
    return results[0]


def ev(rank, time, *pairs):
    tail = ":".join(str(x) for p in pairs for x in p)
    return f"2:{rank + 1}:1:{rank + 1}:1:{time}:{tail}"


#: plain lines of a two-rank trace: regions on both ranks, one message
#: and a state record
PLAIN = [ev(0, 10, (EVTYPE_P2P, 1)), ev(1, 12, (EVTYPE_COLLECTIVE, 1)),
         "3:1:1:1:1:10:10:2:1:2:1:12:12:64:7", ev(0, 20, (EVTYPE_P2P, 0)),
         "1:1:1:2:1:12:30:1", ev(1, 30, (EVTYPE_COLLECTIVE, 0))]


class TestHeader:
    def test_standard_header(self):
        meta = parse_header(header("576000000_ns", 16))
        assert meta.total_duration_ns == 576000000
        assert meta.rank_count == 16
        assert meta.time_unit is TimeUnit.NANOSECONDS
        assert not meta.flat_rank_encoding

    def test_bare_duration_defaults_to_ns(self):
        meta = parse_header(header("5000", 2))
        assert meta.total_duration_ns == 5000
        assert meta.time_unit is TimeUnit.NANOSECONDS

    def test_us_suffix_scales(self):
        meta = parse_header(header("5000_us", 2))
        assert meta.total_duration_ns == 5_000_000
        assert meta.time_unit is TimeUnit.MICROSECONDS

    def test_duration_short_of_last_region_exit_logged(self):
        # region exits count, message times do not
        body = [ev(0, 10, (EVTYPE_P2P, 1)), ev(0, 30, (EVTYPE_P2P, 0)),
                "3:1:1:1:1:10:10:2:1:2:1:40:40:64:7"]
        _, log, _ = assemble(body, duration="30_ns")
        assert log.total == 0
        _, log, counters = assemble(body, duration="29_ns")
        assert [(e.kind, e.location, e.detail) for e in log.entries] == [
            (AnomalyKind.MALFORMED_RECORD, "header",
             "total_duration 29 < last timestamp 30")]
        assert counters.anomalies == 1

    def test_explicit_unit_overrides_bare(self):
        meta = parse_header(header("5000", 2), time_unit=TimeUnit.MICROSECONDS)
        assert meta.total_duration_ns == 5_000_000

    def test_ns_suffix_wins_over_explicit_unit(self):
        meta = parse_header(header("5000_ns", 2),
                            time_unit=TimeUnit.MICROSECONDS)
        assert meta.total_duration_ns == 5000
        assert meta.time_unit is TimeUnit.NANOSECONDS

    def test_us_suffix_wins_over_explicit_unit(self):
        meta = parse_header(header("5000_us", 2),
                            time_unit=TimeUnit.NANOSECONDS)
        assert meta.total_duration_ns == 5_000_000
        assert meta.time_unit is TimeUnit.MICROSECONDS

    def test_flat_single_task_form(self):
        line = "#Paraver (01/01/25 at 00:00):900_ns:1(4):1:1(4:0)"
        meta = parse_header(line)
        assert meta.rank_count == 4
        assert meta.flat_rank_encoding

    def test_hybrid_rejected(self):
        line = "#Paraver (01/01/25 at 00:00):900_ns:1(4):1:2(2:1,2:1)"
        with pytest.raises(IngestError, match="hybrid"):
            parse_header(line)

    def test_multi_application_rejected(self):
        line = "#Paraver (01/01/25 at 00:00):900_ns:1(4):2:2(1:1,1:1)"
        with pytest.raises(IngestError, match="applications"):
            parse_header(line)

    def test_not_a_header(self):
        with pytest.raises(IngestError, match="header"):
            parse_header("2:1:1:1:1:0:50000001:1")

    def test_bad_duration(self):
        with pytest.raises(IngestError, match="duration"):
            parse_header(header("xyz_ns", 2))

    @pytest.mark.parametrize("line, message", [
        ("#Paraver 900_ns", "header missing date section"),
        ("#Paraver (01/01/25 at 00:00):900_ns:1(2)", "header too short"),
        (header("-5_ns"), "negative duration"),
        (header("9223372036854776_us"),
         "duration overflows 64-bit nanoseconds"),
        (header().replace("2(1:1,1:1)", "2"),
         "malformed application list '2'"),
        (header().replace("2(1:1,1:1)", "x(1:1)"),
         "malformed application list 'x(1:1)'"),
        (header().replace("2(1:1,1:1)", "3(1:1,1:1)"),
         "3 tasks but 2 entries"),
        (header().replace("2(1:1,1:1)", "1(0:0)"), "no ranks declared"),
    ])
    def test_refused(self, line, message):
        with pytest.raises(IngestError,
                           match=rf"^line 1: {re.escape(message)}$"):
            parse_header(line)

    def test_rank_count_limit(self):
        """Ingest allocates per-rank columns from the header's count
        before it reads a record, so a count beyond MAX_RANK_COUNT is
        refused here, not allocated.  The flat form states any count in
        a few bytes; a per-task header lists every task."""
        def line(count):
            return f"#Paraver (01/01/25 at 00:00):900_ns:1(1):1:1({count}:0)"

        assert parse_header(line(prv.MAX_RANK_COUNT)).rank_count \
            == prv.MAX_RANK_COUNT
        for count in (prv.MAX_RANK_COUNT + 1, 10**8, 10**9, 10**12):
            with pytest.raises(IngestError, match=f"^line 1: {count} ranks "
                               f"declared, at most {prv.MAX_RANK_COUNT} "
                               "supported$"):
                parse_header(line(count))


class TestRecordStream:
    def test_open_close_builds_region(self):
        trace, log, counters = assemble([
            ev(0, 10, (EVTYPE_P2P, 4)),
            ev(0, 30, (EVTYPE_P2P, 0)),
        ])
        assert log.total == 0
        assert region_lists(trace)[0] == [(10, 30, CallClass.POINT_TO_POINT,
                                           None)]

    def test_event_kinds_map_to_classes(self):
        trace, _, _ = assemble([
            ev(0, 0, (EVTYPE_COLLECTIVE, 1)), ev(0, 5, (EVTYPE_COLLECTIVE, 0)),
            ev(0, 10, (EVTYPE_OTHER, 2)), ev(0, 12, (EVTYPE_OTHER, 0)),
        ])
        classes = [cls for _, _, cls, _ in region_lists(trace)[0]]
        assert classes == [CallClass.COLLECTIVE, CallClass.OTHER_MPI]

    def test_multiple_pairs_on_one_line(self):
        trace, log, _ = assemble([
            ev(0, 10, (EVTYPE_P2P, 4), (99999999, 7)),
            ev(0, 30, (EVTYPE_P2P, 0)),
        ])
        assert log.total == 0
        assert len(trace.regions[0]) == 1

    def test_counters_identity(self):
        trace, log, counters = assemble([
            ev(0, 10, (EVTYPE_P2P, 4)),
            ev(0, 30, (EVTYPE_P2P, 0)),
            ev(1, 5, (12345, 9)),                 # foreign type: ignored
            "3:1:1:1:1:10:10:2:1:2:1:40:40:64:7",  # message
            "2:1:1:1:1:junk",                      # dropped
            "# a comment line",
            "1:1:1:1:1:0:100:1",                   # state record
        ])
        assert counters.records == counters.consumed + counters.ignored \
            + counters.dropped
        assert counters.consumed == 3
        assert counters.ignored == 1
        assert counters.dropped == 1
        assert log.count(AnomalyKind.MALFORMED_RECORD) == 1

    def test_message_fields(self):
        trace, log, _ = assemble([
            ev(0, 10, (EVTYPE_P2P, 1)), ev(0, 10, (EVTYPE_P2P, 0)),
            ev(1, 35, (EVTYPE_P2P, 2)), ev(1, 40, (EVTYPE_P2P, 0)),
            "3:1:1:1:1:10:10:2:1:2:1:40:40:8192:55",
        ])
        assert log.total == 0
        msgs = trace.messages
        assert [getattr(msgs, c).tolist() for c in msgs.COLUMNS] \
            == [[0], [1], [10], [40], [8192],
                [STATUS_CODES[MessageStatus.VALID]]]

    def test_reversed_message_flagged_at_parse(self):
        trace, log, _ = assemble([
            "3:1:1:1:1:50:50:2:1:2:1:20:20:0:0",
        ])
        assert trace.messages.status_codes.tolist() \
            == [STATUS_CODES[MessageStatus.FAULTY_LOCAL]]
        assert log.count(AnomalyKind.REVERSED_PTP) == 1

    def test_double_open_closes_dangling(self):
        trace, log, _ = assemble([
            ev(0, 10, (EVTYPE_P2P, 1)),
            ev(0, 20, (EVTYPE_P2P, 2)),
            ev(0, 30, (EVTYPE_P2P, 0)),
        ])
        assert log.count(AnomalyKind.UNMATCHED_SEND) == 1
        regs = trace.regions[0]
        assert regs.entry_times.tolist() == [10, 20]
        assert regs.exit_times.tolist() == [20, 30]

    def test_close_without_open_logged(self):
        _, log, _ = assemble([ev(0, 10, (EVTYPE_P2P, 0))])
        assert log.count(AnomalyKind.UNMATCHED_RECV) == 1

    def test_unclosed_region_at_eof(self):
        trace, log, _ = assemble([
            ev(0, 10, (EVTYPE_P2P, 1)),
            ev(0, 25, (99999999, 3)),
        ])
        assert log.count(AnomalyKind.UNMATCHED_SEND) == 1
        regs = trace.regions[0]
        assert (regs.entry_times.tolist(), regs.exit_times.tolist()) \
            == ([10], [25])

    def test_nonmonotonic_timestamp_clamped(self):
        trace, log, _ = assemble([
            ev(0, 50, (EVTYPE_P2P, 1)),
            ev(0, 40, (EVTYPE_P2P, 0)),
        ])
        assert log.count(AnomalyKind.NONMONOTONIC_TIMESTAMP) == 1
        regs = trace.regions[0]
        assert (regs.entry_times.tolist(), regs.exit_times.tolist()) \
            == ([50], [50])

    def test_unknown_record_kind(self):
        _, log, counters = assemble(["9:1:1:1:1:0"])
        assert log.count(AnomalyKind.MALFORMED_RECORD) == 1
        assert counters.records == 0   # unknown prefixes are not countable

    def test_wrong_field_count_dropped(self):
        _, log, counters = assemble([
            "3:1:1:1:1:10:10:2:1:2:1:40:40:64",   # 13 of 14 fields
            ev(0, 5, (EVTYPE_P2P,)) + "",          # odd pair -> malformed
        ])
        assert counters.dropped == 2
        assert log.count(AnomalyKind.MALFORMED_RECORD) == 2

    def test_second_thread_rejected_per_record(self):
        _, log, counters = assemble([
            f"2:1:1:1:2:10:{EVTYPE_P2P}:1",   # thread 2 of task 1
        ])
        assert log.count(AnomalyKind.MALFORMED_RECORD) == 1
        assert counters.dropped == 1

    @pytest.mark.parametrize("lines,error", [
        pytest.param([f"2:9:1:9:1:10:{EVTYPE_P2P}:1"],
                     "line 2: rank index 8 out of range", id="event"),
        # the sender's rank is reported before the receiver's
        pytest.param([ev(0, 5, (EVTYPE_P2P, 1)),
                      "3:7:1:7:1:10:10:9:1:9:1:20:20:64:0"],
                     "line 3: rank index 6 out of range",
                     id="communication"),
        # a routed line (trailing space) before a plain one, one block
        pytest.param([ev(0, 5, (EVTYPE_P2P, 1)),
                      f"2:5:1:5:1:10:{EVTYPE_P2P}:1 ",
                      f"2:4:1:4:1:10:{EVTYPE_P2P}:1"],
                     "line 3: rank index 4 out of range", id="routed_first"),
    ])
    def test_rank_out_of_range_aborts(self, lines, error):
        with pytest.raises(IngestError, match=f"^{error}$"):
            assemble(lines)

    def test_flat_encoding_uses_thread_field(self):
        line = "#Paraver (01/01/25 at 00:00):900_ns:1(3):1:1(3:0)"
        trace, log, _ = assemble([
            f"2:1:1:1:2:10:{EVTYPE_P2P}:1",
            f"2:1:1:1:2:20:{EVTYPE_P2P}:0",
        ], header_line=line)
        assert log.total == 0
        assert len(trace.regions[1]) == 1

    def test_microsecond_scaling(self):
        trace, log, _ = assemble([
            ev(0, 10, (EVTYPE_P2P, 1)),
            ev(0, 30, (EVTYPE_P2P, 0)),
        ], duration="1000_us")
        regs = trace.regions[0]
        assert (regs.entry_times.tolist(), regs.exit_times.tolist()) \
            == ([10_000], [30_000])
        assert trace.meta.total_duration_ns == 1_000_000


class TestOutOfRangeIntegers:
    """An integer that no int64 column can hold drops its record as
    malformed instead of failing the whole ingest."""

    HUGE = 99999999999999999999

    def test_event_time(self):
        trace, log, counters = assemble([
            ev(0, 10, (EVTYPE_P2P, 1)),
            ev(0, self.HUGE, (EVTYPE_P2P, 0)),
            ev(0, 30, (EVTYPE_P2P, 0)),
        ])
        assert [(e.kind, e.location) for e in log.entries] \
            == [(AnomalyKind.MALFORMED_RECORD, "line 3")]
        assert counters.dropped == 1
        assert counters.records == counters.consumed + counters.ignored \
            + counters.dropped
        regs = trace.regions[0]
        assert (regs.entry_times.tolist(), regs.exit_times.tolist()) \
            == ([10], [30])

    def test_widest_plain_fields_keep_their_values(self):
        """18 digits is the widest field the block tokenizer reads, as
        uint64; a 19-digit one takes the per-line rules.  Both keep
        their int64 values."""
        top18, top19 = 10**18 - 1, (1 << 63) - 1
        trace, log, counters = assemble([
            f"3:1:1:1:1:10:10:2:1:2:1:40:40:{top18}:7",
            f"3:1:1:1:1:10:10:2:1:2:1:40:40:{top19}:7",
        ])
        assert log.total == 0
        assert counters.routed == 1
        assert trace.messages.sizes.tolist() == [top18, top19]

    def test_message_size(self):
        trace, log, counters = assemble([
            f"3:1:1:1:1:10:10:2:1:2:1:40:40:{self.HUGE}:7",
            "3:1:1:1:1:10:10:2:1:2:1:40:40:64:7",
        ])
        assert log.count(AnomalyKind.MALFORMED_RECORD) == 1
        assert counters.dropped == 1
        assert trace.messages.sizes.tolist() == [64]

    def test_microsecond_time_overflows_once_scaled(self):
        last_ok = ((1 << 63) - 1) // 1000     # the largest time in us
        trace, log, counters = assemble([
            ev(0, 10, (EVTYPE_P2P, 1)),
            ev(0, last_ok + 1, (EVTYPE_P2P, 0)),
            ev(0, last_ok, (EVTYPE_P2P, 0)),
        ], duration="1000_us")
        # the header's 1000 us is short of the region's exit, too
        assert [(e.kind, e.location) for e in log.entries] \
            == [(AnomalyKind.MALFORMED_RECORD, "line 3"),
                (AnomalyKind.MALFORMED_RECORD, "header")]
        assert counters.dropped == 1
        regs = trace.regions[0]
        assert (regs.entry_times.tolist(), regs.exit_times.tolist()) \
            == ([10_000], [last_ok * 1000])


class TestBlockReader:
    def test_clean_trace_routes_only_communicator_lines(self, tmp_path):
        """Every record of generator output but the communicator
        definitions takes the block tokenizer; one garbled line is the
        only extra line for the per-line rules.  A silent fall-back to
        them would pass every other test, with the same outputs, only
        slower."""
        sc = load_scenario({
            "name": "routes", "rank_count": 4, "seed": 5,
            "phases": [
                {"pattern": "ring_exchange", "iterations": 20,
                 "compute": {"kind": "uniform", "mean_ns": 500},
                 "message_bytes": 64},
                {"pattern": "allreduce", "iterations": 20,
                 "compute": {"kind": "uniform", "mean_ns": 400},
                 "communicator_split": 2},
                {"pattern": "serial_chain", "iterations": 10,
                 "compute": {"kind": "uniform", "mean_ns": 300},
                 "message_bytes": 32},
                {"pattern": "neighbor_stencil", "iterations": 10,
                 "compute": {"kind": "uniform", "mean_ns": 600},
                 "message_bytes": 128},
            ]})
        path = tmp_path / "clean.prv"
        generate_to_files(sc, path)
        lines = path.read_text().splitlines()
        _, log, counters = load_trace(str(path))
        assert log.total == 0
        comm_defs = sum(ln.startswith("c:") for ln in lines)
        assert comm_defs > 1
        assert counters.routed == comm_defs

        at = next(i for i in range(len(lines) // 2, len(lines))
                  if lines[i].startswith("3:"))
        lines[at] = lines[at].replace(":", ":x", 1)
        path.write_text("\n".join(lines) + "\n")
        _, log, counters = load_trace(str(path))
        assert counters.routed == comm_defs + 1
        assert [(e.kind, e.location) for e in log.entries] \
            == [(AnomalyKind.MALFORMED_RECORD, f"line {at + 1}")]

    def test_carriage_returns_end_lines_like_text_mode(self, tmp_path):
        path = tmp_path / "cr.prv"
        path.write_bytes((
            header("100_ns", 1) + "\r\n"
            + ev(0, 10, (EVTYPE_P2P, 1)) + "\r\n"      # line 2
            + "bad\r9:1\n"                             # lines 3 and 4
            + ev(0, 5, (EVTYPE_P2P, 0))                # line 5, no newline
        ).encode())
        trace, log, counters = load_trace(str(path))
        assert [(e.kind, e.location) for e in log.entries] == [
            (AnomalyKind.MALFORMED_RECORD, "line 3"),
            (AnomalyKind.MALFORMED_RECORD, "line 4"),
            (AnomalyKind.NONMONOTONIC_TIMESTAMP, "line 5"),
        ]
        regs = trace.regions[0]
        assert (regs.entry_times.tolist(), regs.exit_times.tolist()) \
            == ([10], [10])
        assert counters.routed == 2     # a \r\n line is still plain

    RUNS = {
        "start": [ev(0, 5, (EVTYPE_OTHER, 1)) + " ", "# comment",
                  *PLAIN],
        "middle": [*PLAIN[:3], "   ", "\t", " \t ", "",
                   ev(1, 13, (EVTYPE_OTHER, 1)) + " ", *PLAIN[3:]],
        "end": [*PLAIN, ev(1, 40, (EVTYPE_OTHER, 0)) + " "],
        "trailing_blank": [*PLAIN, "   "],
        "no_final_newline": [*PLAIN[:2], "\t", *PLAIN[2:], None],
        "routed_last_no_newline": [*PLAIN, "\t", "x:1", None],
        "only_routed": [line + " " for line in PLAIN],
    }

    @pytest.mark.parametrize("body", RUNS.values(), ids=RUNS)
    def test_routed_runs_wherever_they_fall(self, tmp_path, body):
        """The tokenizer reads the plain lines' integers with every run
        of other lines left out: at a block's start, in its middle and
        at its end, whitespace-only and empty lines among them, and a
        block of routed lines only.  At the default block size and at
        TINY_BLOCK, where runs fall at every place in a block, ingest
        matches the record-at-a-time reference.  None ends the body
        without a newline."""
        text = "".join(line + "\n" for line in body if line is not None)
        if body[-1] is None:
            text = text[:-1]
        path = tmp_path / "runs.prv"
        path.write_text(header("100_ns", 2) + "\n" + text)
        want = snapshot(*load_reference(str(path)))
        assert want["regions"][0] and want["messages"][0]
        for size in (prv.BLOCK_SIZE, TINY_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(prv, "BLOCK_SIZE", size)
                assert snapshot(*load_trace(str(path))) == want, size


class TestCommunicators:
    def test_definition_line(self):
        trace, log, _ = assemble(["c:1:5:2:1:2"])
        assert log.total == 0
        assert trace.communicators[5].members == [0, 1]

    def test_world_auto_created(self):
        trace, _, _ = assemble([], rank_count=3)
        assert trace.communicators[WORLD_COMM_ID].members == [0, 1, 2]

    def test_length_mismatch_logged(self):
        _, log, _ = assemble(["c:1:5:3:1:2"])
        assert log.count(AnomalyKind.MALFORMED_RECORD) == 1

    def test_bad_members_logged_at_stream_end(self):
        # whether or not a collective uses the communicator: each fault
        # once, in definition order, after the entries of the lines
        _, log, counters = assemble(
            ["c:1:5:0", "c:1:6:3:1:1:9", "c:1:7:2:1:2", "c:1:8:1"])
        assert [(e.location, e.detail) for e in log.entries] == [
            ("line 5", "communicator definition length mismatch"),
            ("communicator 5", "empty membership"),
            ("communicator 6", "duplicate members"),
            ("communicator 6", "member out of range")]
        assert log.count(AnomalyKind.MALFORMED_RECORD) == 4
        assert counters.anomalies == 4

    def test_hint_binds_regardless_of_line_order(self):
        def scenario(lines):
            trace, log, _ = assemble(lines, rank_count=1)
            assert log.total == 0
            assert len(trace.regions[0]) == 1
            return trace.regions.hint_values.tolist()

        open_then_hint = [
            ev(0, 10, (EVTYPE_COLLECTIVE, 1)),
            ev(0, 10, (EVTYPE_COMM_ID, 7)),
            ev(0, 20, (EVTYPE_COLLECTIVE, 0)),
        ]
        hint_then_open = [
            ev(0, 10, (EVTYPE_COMM_ID, 7)),
            ev(0, 10, (EVTYPE_COLLECTIVE, 1)),
            ev(0, 20, (EVTYPE_COLLECTIVE, 0)),
        ]
        same_line = [
            ev(0, 10, (EVTYPE_COLLECTIVE, 1), (EVTYPE_COMM_ID, 7)),
            ev(0, 20, (EVTYPE_COLLECTIVE, 0)),
        ]
        assert scenario(open_then_hint) == [7]
        assert scenario(hint_then_open) == [7]
        assert scenario(same_line) == [7]

    def test_hint_does_not_leak_to_next_region(self):
        trace, log, _ = assemble([
            ev(0, 10, (EVTYPE_COLLECTIVE, 1), (EVTYPE_COMM_ID, 7)),
            ev(0, 20, (EVTYPE_COLLECTIVE, 0)),
            ev(0, 30, (EVTYPE_COLLECTIVE, 1)),
            ev(0, 40, (EVTYPE_COLLECTIVE, 0)),
        ], rank_count=1)
        assert [hint for _, _, _, hint in region_lists(trace)[0]] \
            == [7, None]

    def test_grouping_by_communicator_and_occurrence(self):
        lines = ["c:1:2:1:1", "c:1:3:1:2"]
        for rank, cid in ((0, 2), (1, 3)):
            for occ in range(2):
                t = 10 + 20 * occ
                lines += [
                    ev(rank, t, (EVTYPE_COLLECTIVE, 1), (EVTYPE_COMM_ID, cid)),
                    ev(rank, t + 5, (EVTYPE_COLLECTIVE, 0)),
                ]
        trace, log, _ = assemble(lines)
        assert log.total == 0
        colls = trace.collectives
        ranks = trace.regions.ranks_of(colls.part_rows).tolist()
        bounds = colls.part_offsets.tolist()
        ops = {(c, occ): ranks[lo:hi] for c, occ, lo, hi in zip(
            colls.comm_ids.tolist(), colls.occ_indices.tolist(), bounds,
            bounds[1:])}
        assert ops == {(2, 0): [0], (2, 1): [0], (3, 0): [1], (3, 1): [1]}

    def test_world_default_grouping(self):
        lines = []
        for rank in (0, 1):
            lines += [
                ev(rank, 10, (EVTYPE_COLLECTIVE, 1)),
                ev(rank, 15 + rank, (EVTYPE_COLLECTIVE, 0)),
            ]
        trace, log, _ = assemble(lines)
        colls, table = trace.collectives, trace.regions
        assert colls.comm_ids.tolist() == [WORLD_COMM_ID]
        assert colls.part_offsets.tolist() == [0, 2]
        assert trace.regions.ranks_of(colls.part_rows).tolist() == [0, 1]
        assert table.entry_times[colls.part_rows].tolist() == [10, 10]
        assert table.exit_times[colls.part_rows].tolist() == [15, 16]


class TestFiles:
    def test_load_trace_ignores_pcf(self, tmp_path):
        """The .pcf next to a trace is never read, not even a garbled one."""
        prv = tmp_path / "mini.prv"
        prv.write_text("\n".join([
            header("100_ns", 1),
            ev(0, 10, (EVTYPE_P2P, 1)),
            ev(0, 30, (EVTYPE_P2P, 0)),
        ]) + "\n")
        (tmp_path / "mini.pcf").write_bytes(b"EVENT_TYPE\n\xff 1 2\nVALUES\n")
        trace, log, counters = load_trace(str(prv))
        assert len(trace.regions[0]) == 1
        assert log.total == 0

    def test_generated_trace_round_trip(self, tmp_path):
        sc = load_scenario({
            "name": "rt", "rank_count": 4, "seed": 9,
            "phases": [
                {"pattern": "ring_exchange", "iterations": 3,
                 "compute": {"kind": "uniform", "mean_ns": 500,
                             "jitter_ns": 60}, "message_bytes": 256},
                {"pattern": "allreduce", "iterations": 2,
                 "compute": {"kind": "uniform", "mean_ns": 400},
                 "communicator_split": 2},
            ]})
        path = tmp_path / "rt.prv"
        generate_to_files(sc, path)
        trace, log, counters = load_trace(str(path))
        assert log.total == 0
        assert counters.records == counters.consumed + counters.ignored \
            + counters.dropped
        assert counters.dropped == 0
        assert trace.meta.rank_count == 4
        # every rank: init + 3 ring iterations + 2 allreduce + finalize
        assert all(len(regs) > 5 for regs in trace.regions)
