"""Reference ingest: the record-at-a-time reader that paraslice shipped
before the block reader, kept verbatim as the oracle for
tests/test_ingest_diff.py, the way tests/bruteforce.py is for replay.

`load_reference` reads a .prv in text mode (universal newlines, UTF-8
with replacement) and assembles it one RawRecord at a time.  It must not
be "fixed" along with the production reader: it defines the expected
stores, counters and anomaly entries, except where the production rules
deliberately changed: an integer outside int64, on which this reference
raises OverflowError, and the two end-of-stream checks the production
reader added later, which this reference carries too.  `snapshot` turns either reader's result into
one comparable value.
"""

from __future__ import annotations

import dataclasses
import os
from array import array
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from paraslice.model import (
    AnomalyKind,
    AnomalyLog,
    CallClass,
    CollectiveStore,
    CommunicatorDef,
    MessageStatus,
    MessageStore,
    MpiRegion,
    PtpMessage,
    RegionTable,
    TimeUnit,
    Trace,
    TraceMeta,
    WORLD_COMM_ID,
)
from paraslice.prv import (
    EVTYPE_COLLECTIVE,
    EVTYPE_COMM_ID,
    EVTYPE_OTHER,
    EVTYPE_P2P,
    IngestCounters,
    IngestError,
    parse_header,
)

_MPI_CLASS = {
    EVTYPE_P2P: CallClass.POINT_TO_POINT,
    EVTYPE_COLLECTIVE: CallClass.COLLECTIVE,
    EVTYPE_OTHER: CallClass.OTHER_MPI,
}


def _scale(unit: TimeUnit) -> int:
    return 1000 if unit is TimeUnit.MICROSECONDS else 1


class RecordKind(Enum):
    STATE = "state"
    EVENT = "event"
    COMMUNICATION = "communication"
    COMMUNICATOR_DEF = "communicator_def"


class RawRecord(NamedTuple):
    kind: RecordKind
    fields: list[int]
    line_number: int


_KIND_BY_PREFIX = {"1": RecordKind.STATE, "2": RecordKind.EVENT,
                   "3": RecordKind.COMMUNICATION}

# Payload lengths: state rows carry 7 integers, events 5 plus
# type/value pairs, communication rows exactly 14.
_STATE_LEN = 7
_EVENT_MIN = 7
_COMM_LEN = 14


def iter_raw_records(lines: Iterable[str], log: AnomalyLog,
                     counters: IngestCounters | None = None,
                     first_line_number: int = 2) -> Iterator[RawRecord]:
    """Yield well-formed records; malformed lines go to the anomaly log."""
    counters = counters if counters is not None else IngestCounters()
    lineno = first_line_number - 1
    event_kind = RecordKind.EVENT
    comm_kind = RecordKind.COMMUNICATION
    state_kind = RecordKind.STATE
    kind_of = _KIND_BY_PREFIX.get
    for raw in lines:
        lineno += 1
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            counters.comments += 1
            continue
        head, _, rest = line.partition(":")
        if head == "c":
            try:
                fields = list(map(int, rest.split(":")))
            except ValueError:
                log.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                        "unparseable communicator definition")
                continue
            counters.communicator_defs += 1
            yield RawRecord(RecordKind.COMMUNICATOR_DEF, fields, lineno)
            continue
        kind = kind_of(head)
        if kind is None:
            log.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                    f"unknown record kind {head!r}")
            continue
        countable = kind is event_kind or kind is comm_kind
        if countable:
            counters.records += 1
        try:
            fields = list(map(int, rest.split(":")))
        except ValueError:
            log.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                    "non-integer payload")
            if countable:
                counters.dropped += 1
            continue
        bad = (kind is state_kind and len(fields) != _STATE_LEN) \
            or (kind is event_kind
                and (len(fields) < _EVENT_MIN or (len(fields) - 5) % 2)) \
            or (kind is comm_kind and len(fields) != _COMM_LEN)
        if bad:
            log.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                    f"{kind.value} record with {len(fields)} payload fields")
            if countable:
                counters.dropped += 1
            continue
        yield RawRecord(kind, fields, lineno)


class _RankCursor:
    """Open-region tracking for one rank during assembly.

    A communicator-id companion event binds to the region opened at the
    same timestamp, whichever of the two arrives first in the stream.
    """

    __slots__ = ("open_entry", "open_class", "open_hint",
                 "hint_time", "hint_value", "last_time")

    def __init__(self) -> None:
        self.open_entry: int | None = None
        self.open_class = CallClass.OTHER_MPI
        self.open_hint: int | None = None
        self.hint_time: int | None = None
        self.hint_value = 0
        self.last_time = 0


def build_trace(records: Iterable[RawRecord], meta: TraceMeta,
                log: AnomalyLog | None = None,
                counters: IngestCounters | None = None,
                comm_id_event_type: int = EVTYPE_COMM_ID,
                ) -> tuple[Trace, AnomalyLog]:
    """Assemble the trace model from raw records.

    Event pairing is per rank: a positive MPI value opens a region, zero
    closes it.  A second open closes the dangling region where the new one
    starts; a close without an open is logged and dropped; regions still
    open at stream end close at the rank's last observed timestamp.
    Non-monotonic event timestamps are clamped so the offending duration
    collapses to zero.  Microsecond traces are scaled to nanoseconds here.
    """
    log = log if log is not None else AnomalyLog()
    counters = counters if counters is not None else IngestCounters()
    scale = _scale(meta.time_unit)
    trace = Trace.empty(meta)
    regions: list[list[MpiRegion]] = [[] for _ in range(meta.rank_count)]
    messages: list[PtpMessage] = []
    trace.collectives = CollectiveStore()
    cursors = [_RankCursor() for _ in range(meta.rank_count)]
    flat = meta.flat_rank_encoding

    def resolve_rank(appl: int, task: int, thread: int, lineno: int) -> int | None:
        if appl != 1:
            log.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                    f"application {appl} out of range")
            return None
        rank, other = (thread - 1, task) if flat else (task - 1, thread)
        if other != 1:
            log.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                    "record addresses a second thread of a rank")
            return None
        if not (0 <= rank < meta.rank_count):
            raise IngestError(f"line {lineno}: rank index {rank} out of range")
        return rank

    event_kind = RecordKind.EVENT
    rank_count = meta.rank_count
    for rec in records:
        if rec.kind is event_kind:
            f = rec.fields
            # straight-line coordinate decode; anything off the happy path
            # falls back to resolve_rank for logging or rejection
            rank = (f[3] - 1) if flat else (f[2] - 1)
            other = f[2] if flat else f[3]
            if f[1] != 1 or other != 1 or not 0 <= rank < rank_count:
                rank = resolve_rank(f[1], f[2], f[3], rec.line_number)
                if rank is None:
                    counters.dropped += 1
                    continue
            cur = cursors[rank]
            time = f[4] * scale
            if time < cur.last_time:
                log.add(AnomalyKind.NONMONOTONIC_TIMESTAMP,
                        f"line {rec.line_number}",
                        f"rank {rank} time {time} before {cur.last_time}")
                time = cur.last_time
            cur.last_time = time
            touched = False
            for i in range(5, len(f), 2):
                etype, value = f[i], f[i + 1]
                klass = _MPI_CLASS.get(etype)
                if klass is None:
                    if etype == comm_id_event_type:
                        if cur.open_entry == time:
                            cur.open_hint = value
                        else:
                            cur.hint_time = time
                            cur.hint_value = value
                        touched = True
                    continue
                touched = True
                if value > 0:
                    if cur.open_entry is not None:
                        log.add(AnomalyKind.UNMATCHED_SEND,
                                f"line {rec.line_number}",
                                f"rank {rank} region opened at {cur.open_entry} never closed")
                        _close_region(regions, rank, cur, time)
                    cur.open_entry = time
                    cur.open_class = klass
                    if cur.hint_time == time:
                        cur.open_hint = cur.hint_value
                        cur.hint_time = None
                else:
                    if cur.open_entry is None:
                        log.add(AnomalyKind.UNMATCHED_RECV,
                                f"line {rec.line_number}",
                                f"rank {rank} close event with no open region")
                    else:
                        _close_region(regions, rank, cur, time)
            if touched:
                counters.consumed += 1
            else:
                counters.ignored += 1
        elif rec.kind is RecordKind.COMMUNICATION:
            f = rec.fields
            s_rank = resolve_rank(f[1], f[2], f[3], rec.line_number)
            r_rank = resolve_rank(f[7], f[8], f[9], rec.line_number)
            if s_rank is None or r_rank is None:
                counters.dropped += 1
                continue
            send_begin = f[4] * scale   # logical send
            recv_end = f[11] * scale    # physical receive completion
            status = MessageStatus.VALID
            if send_begin > recv_end:
                status = MessageStatus.FAULTY_LOCAL
                log.add(AnomalyKind.REVERSED_PTP, f"line {rec.line_number}",
                        f"send at {send_begin} after receive completion {recv_end}")
            messages.append(PtpMessage(s_rank, r_rank, send_begin, recv_end,
                                       f[12], status))
            counters.consumed += 1
        elif rec.kind is RecordKind.COMMUNICATOR_DEF:
            f = rec.fields
            if len(f) < 3 or len(f) != 3 + f[2]:
                log.add(AnomalyKind.MALFORMED_RECORD, f"line {rec.line_number}",
                        "communicator definition length mismatch")
                continue
            members = [t - 1 for t in f[3:]]
            trace.communicators[f[1]] = CommunicatorDef(f[1], members)
        elif rec.kind is RecordKind.STATE:
            f = rec.fields
            resolve_rank(f[1], f[2], f[3], rec.line_number)

    for rank, cur in enumerate(cursors):
        if cur.open_entry is not None:
            log.add(AnomalyKind.UNMATCHED_SEND, f"rank {rank}",
                    f"region opened at {cur.open_entry} still open at stream end")
            _close_region(regions, rank, cur, cur.last_time)

    if WORLD_COMM_ID not in trace.communicators:
        trace.communicators[WORLD_COMM_ID] = CommunicatorDef(
            WORLD_COMM_ID, list(range(meta.rank_count)))

    trace.messages = MessageStore.from_messages(messages)
    trace.regions = RegionTable.from_regions(regions)
    _group_collectives(trace, regions)
    # rules added after the block reader: bad communicator members and a
    # header duration short of the last region exit
    for comm_id, comm in trace.communicators.items():
        m = comm.members
        for bad, detail in (
                (not m, "empty membership"),
                (len(set(m)) != len(m), "duplicate members"),
                (any(not 0 <= r < meta.rank_count for r in m),
                 "member out of range")):
            if bad:
                log.add(AnomalyKind.MALFORMED_RECORD,
                        f"communicator {comm_id}", detail)
    last = max((reg.exit_time for rank in regions for reg in rank), default=0)
    if meta.total_duration_ns < last:
        log.add(AnomalyKind.MALFORMED_RECORD, "header",
                f"total_duration {meta.total_duration_ns} "
                f"< last timestamp {last}")
    counters.anomalies = log.total
    return trace, log


def _close_region(regions: list[list[MpiRegion]], rank: int,
                  cur: _RankCursor, time: int) -> None:
    regions[rank].append(MpiRegion(rank, cur.open_entry, time,
                                   cur.open_class, cur.open_hint))
    cur.open_entry = None
    cur.open_hint = None


def _group_collectives(trace: Trace, regions: list[list[MpiRegion]]) -> None:
    """Group per-rank collective regions into collective occurrences.

    A region belongs to the communicator its entry hint named, defaulting
    to world; the n-th collective of a communicator on each member rank
    forms occurrence n.  Each participant is the table row of the region
    it came from.
    """
    per_comm: dict[int, dict[int, array]] = {}
    for rank, regs in enumerate(regions):
        for k, reg in enumerate(regs):
            if reg.call_class is not CallClass.COLLECTIVE:
                continue
            cid = WORLD_COMM_ID if reg.comm_hint is None else reg.comm_hint
            per_comm.setdefault(cid, {}).setdefault(rank, array("q")).append(k)
    offsets = trace.regions.offsets.tolist()
    comm_ids, occ_indices, part_offsets, part_rows = [], [], [0], []
    for cid in sorted(per_comm):
        by_rank = per_comm[cid]
        member_ranks = sorted(by_rank)
        depth = max(len(v) for v in by_rank.values())
        for occ in range(depth):
            for r in member_ranks:
                ks = by_rank[r]
                if occ < len(ks):
                    part_rows.append(offsets[r] + ks[occ])
            comm_ids.append(cid)
            occ_indices.append(occ)
            part_offsets.append(len(part_rows))
    trace.collectives = CollectiveStore(trace.regions, comm_ids, occ_indices,
                                        part_offsets, part_rows)


def load_reference(path: str, time_unit: TimeUnit | None = None,
                   ) -> tuple[Trace, AnomalyLog, IngestCounters]:
    """Stream a .prv file from disk into a Trace, one record at a time."""
    log = AnomalyLog()
    counters = IngestCounters()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline()
        meta = parse_header(header, time_unit=time_unit,
                            source_name=os.path.basename(path))
        records = iter_raw_records(fh, log, counters)
        trace, log = build_trace(records, meta, log, counters)
    return trace, log, counters


def snapshot(trace, log, counters) -> dict:
    """Everything ingest produces, in comparable form: region table and
    store columns, communicators, counters (but `routed`, which only the
    block reader keeps) and the anomaly entries in order."""
    counts = dataclasses.asdict(counters)
    counts.pop("routed")
    colls = trace.collectives
    msgs = trace.messages
    return {
        "meta": trace.meta,
        "regions": [getattr(trace.regions, c).tolist()
                    for c in trace.regions.COLUMNS],
        "messages": [getattr(msgs, c).tolist()
                     for c in msgs.COLUMNS if c != "status_codes"]
        + [bytes(msgs.status_codes)],
        "collectives": [getattr(colls, c).tolist() for c in colls.COLUMNS],
        "communicators": {k: (c.communicator_id, c.members)
                          for k, c in trace.communicators.items()},
        "counters": counts,
        "anomalies": [(e.kind, e.location, e.detail) for e in log.entries],
    }
