"""In-memory model of an MPI-only trace.

Holds the parsed regions, point-to-point messages, collective operations
and communicator definitions of one run, together with the anomaly log
that ingestion and replay append to.  All timestamps are 64-bit integer
nanoseconds; traces recorded in microseconds are scaled on the way in.

The regions of all ranks form one rank-major RegionTable: flat columns
plus an offsets array, so later stages index whole columns by rank
offsets instead of looping over per-rank stores.
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

#: Communicator id conventionally used for the world communicator.
WORLD_COMM_ID = 1


class TimeUnit(enum.Enum):
    NANOSECONDS = "ns"
    MICROSECONDS = "us"


class CallClass(enum.Enum):
    POINT_TO_POINT = "point_to_point"
    COLLECTIVE = "collective"
    OTHER_MPI = "other_mpi"


class MessageStatus(enum.Enum):
    VALID = "valid"
    FAULTY_LOCAL = "faulty_local"


class AnomalyKind(enum.Enum):
    REVERSED_PTP = "reversed_ptp"
    UNMATCHED_SEND = "unmatched_send"
    UNMATCHED_RECV = "unmatched_recv"
    NONMONOTONIC_TIMESTAMP = "nonmonotonic_timestamp"
    MALFORMED_RECORD = "malformed_record"


@dataclass(slots=True)
class TraceMeta:
    """Header-level facts about a trace.

    flat_rank_encoding marks headers that declare a single task with N
    threads; record coordinates then carry the rank in the thread field.
    """

    total_duration_ns: int
    rank_count: int
    time_unit: TimeUnit = TimeUnit.NANOSECONDS
    source_name: str = ""
    flat_rank_encoding: bool = False


@dataclass(slots=True)
class MpiRegion:
    """One [entry, exit] interval a rank spent inside the MPI runtime."""

    rank: int
    entry_time: int
    exit_time: int
    call_class: CallClass
    call_id: int = 0
    region_seq: int = 0
    # communicator announced by a companion event at entry (collectives)
    comm_hint: int | None = None

    def duration(self) -> int:
        return self.exit_time - self.entry_time

    def contains(self, t: int) -> bool:
        return self.entry_time <= t <= self.exit_time


def _raw(values: np.ndarray, dtype) -> np.ndarray:
    """values as contiguous bytes of dtype, for array.frombytes."""
    return np.ascontiguousarray(values, dtype=dtype).view(np.uint8)


def _frozen(values, dtype) -> np.ndarray:
    out = np.asarray(values, dtype=dtype)
    out.flags.writeable = False
    return out


def distinct(values) -> np.ndarray:
    """The sorted distinct values of an integer array (np.unique without
    its numpy.ma import)."""
    s = np.sort(np.asarray(values, dtype=np.int64))
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


#: stable wire order of call classes inside RegionTable.class_codes
CLASS_BY_CODE = (CallClass.POINT_TO_POINT, CallClass.COLLECTIVE,
                 CallClass.OTHER_MPI)
CLASS_CODES = {cls: code for code, cls in enumerate(CLASS_BY_CODE)}


class RegionTable:
    """Every rank's MPI regions in one rank-major table.

    Multi-million-region traces cannot afford an object per region, so
    the regions live in flat read-only columns with one row per region:
    rank r owns rows offsets[r]:offsets[r+1], in entry-time order, and
    row offsets[r] + k is its region k.  Communicator hints are sparse:
    hint_rows lists the hinted rows in ascending order and hint_values
    the ids they announced.

    As a sequence the table holds one RankRegions view per rank, so
    trace.regions[r] reads like a list of rank r's MpiRegion values;
    hot paths read the columns directly.
    """

    COLUMNS = ("offsets", "entry_times", "exit_times", "class_codes",
               "call_ids", "hint_rows", "hint_values")
    __slots__ = COLUMNS + ("_views",)

    def __init__(self, offsets, entry_times, exit_times, class_codes,
                 call_ids, hint_rows=(), hint_values=()) -> None:
        self.offsets = _frozen(offsets, np.int64)
        self.entry_times = _frozen(entry_times, np.int64)
        self.exit_times = _frozen(exit_times, np.int64)
        self.class_codes = _frozen(class_codes, np.uint8)
        self.call_ids = _frozen(call_ids, np.int64)
        self.hint_rows = _frozen(hint_rows, np.int64)
        self.hint_values = _frozen(hint_values, np.int64)
        n = int(self.offsets[-1])
        if any(len(c) != n for c in (self.entry_times, self.exit_times,
                                     self.class_codes, self.call_ids)) \
                or len(self.hint_rows) != len(self.hint_values):
            raise ValueError("region columns of unequal length")
        self._views = None

    @classmethod
    def from_regions(cls, regions: Iterable[Iterable[MpiRegion]],
                     ) -> "RegionTable":
        """A table from per-rank lists of regions in entry order (their
        rank and region_seq fields are implied by position)."""
        per_rank = [list(regs) for regs in regions]
        flat = [g for regs in per_rank for g in regs]
        hinted = [i for i, g in enumerate(flat) if g.comm_hint is not None]
        return cls(np.cumsum([0] + [len(regs) for regs in per_rank]),
                   [g.entry_time for g in flat], [g.exit_time for g in flat],
                   [CLASS_CODES[g.call_class] for g in flat],
                   [g.call_id for g in flat], hinted,
                   [flat[i].comm_hint for i in hinted])

    @property
    def rank_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def row_count(self) -> int:
        return len(self.entry_times)

    def ranks_of(self, rows: np.ndarray) -> np.ndarray:
        """The rank owning each row."""
        return np.searchsorted(self.offsets, rows, side="right") - 1

    def __len__(self) -> int:
        return self.rank_count

    def _rank_views(self) -> list["RankRegions"]:
        if self._views is None:
            self._views = [RankRegions(self, r)
                           for r in range(self.rank_count)]
        return self._views

    def __getitem__(self, rank: int) -> "RankRegions":
        return self._rank_views()[rank]

    def __iter__(self) -> Iterator["RankRegions"]:
        return iter(self._rank_views())

    def __repr__(self) -> str:
        return (f"RegionTable(ranks={self.rank_count}, "
                f"regions={self.row_count})")


class RankRegions:
    """Read-only view of one rank's rows of a RegionTable.  Indexing and
    iteration materialize MpiRegion values; the column properties are
    numpy views of the rank's slice."""

    __slots__ = ("table", "rank", "lo", "hi", "_fields")

    def __init__(self, table: RegionTable, rank: int) -> None:
        self.table = table
        self.rank = rank
        self.lo = int(table.offsets[rank])
        self.hi = int(table.offsets[rank + 1])
        self._fields = None

    @property
    def entry_times(self) -> np.ndarray:
        return self.table.entry_times[self.lo:self.hi]

    @property
    def exit_times(self) -> np.ndarray:
        return self.table.exit_times[self.lo:self.hi]

    @property
    def class_codes(self) -> np.ndarray:
        return self.table.class_codes[self.lo:self.hi]

    @property
    def call_ids(self) -> np.ndarray:
        return self.table.call_ids[self.lo:self.hi]

    def _region(self, k: int) -> MpiRegion:
        if self._fields is None:    # the rank's columns as lists, once
            t, lo, hi = self.table, self.lo, self.hi
            h_lo, h_hi = np.searchsorted(t.hint_rows, (lo, hi))
            self._fields = (
                self.entry_times.tolist(), self.exit_times.tolist(),
                self.class_codes.tolist(), self.call_ids.tolist(),
                dict(zip((t.hint_rows[h_lo:h_hi] - lo).tolist(),
                         t.hint_values[h_lo:h_hi].tolist())))
        entry, exit_, code, call, hints = self._fields
        return MpiRegion(self.rank, entry[k], exit_[k], CLASS_BY_CODE[code[k]],
                         call[k], k, hints.get(k))

    def __len__(self) -> int:
        return self.hi - self.lo

    def __getitem__(self, index):
        n = self.hi - self.lo
        if isinstance(index, slice):
            return [self._region(k) for k in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("region index out of range")
        return self._region(index)

    def __iter__(self) -> Iterator[MpiRegion]:
        for k in range(self.hi - self.lo):
            yield self._region(k)

    def __repr__(self) -> str:
        return f"RankRegions(rank={self.rank}, regions={len(self)})"


@dataclass(slots=True)
class PtpMessage:
    """A matched point-to-point message between two ranks.

    send_begin is the beginning of the send directive, recv_end the end of
    the corresponding receive directive.  Replay may downgrade the status
    to FAULTY_LOCAL; a degraded message never synchronizes clocks.
    """

    sender: int
    receiver: int
    send_begin: int
    recv_end: int
    size_bytes: int = 0
    tag: int = 0
    status: MessageStatus = MessageStatus.VALID


#: stable wire order of statuses inside MessageStore.status_codes
STATUS_BY_CODE = (MessageStatus.VALID, MessageStatus.FAULTY_LOCAL)
STATUS_CODES = {status: code for code, status in enumerate(STATUS_BY_CODE)}


class MessageStore:
    """Columnar storage of matched point-to-point messages.

    Six int64 columns plus one status byte per message; indexing and
    iteration materialize PtpMessage values on demand.  The views are
    snapshots — assigning to a view's fields does not write back; replay
    degrades a message by writing its byte in status_codes.
    """

    __slots__ = ("senders", "receivers", "send_begins", "recv_ends",
                 "sizes", "tags", "status_codes")

    def __init__(self) -> None:
        self.senders = array("q")
        self.receivers = array("q")
        self.send_begins = array("q")
        self.recv_ends = array("q")
        self.sizes = array("q")
        self.tags = array("q")
        self.status_codes = bytearray()

    def append_fields(self, sender: int, receiver: int, send_begin: int,
                      recv_end: int, size_bytes: int = 0, tag: int = 0,
                      status: MessageStatus = MessageStatus.VALID) -> None:
        self.senders.append(sender)
        self.receivers.append(receiver)
        self.send_begins.append(send_begin)
        self.recv_ends.append(recv_end)
        self.sizes.append(size_bytes)
        self.tags.append(tag)
        self.status_codes.append(STATUS_CODES[status])

    def extend_columns(self, senders: np.ndarray, receivers: np.ndarray,
                       send_begins: np.ndarray, recv_ends: np.ndarray,
                       sizes: np.ndarray, tags: np.ndarray,
                       status_codes: np.ndarray) -> None:
        """Append a batch of messages given as numpy columns."""
        for column, values in ((self.senders, senders),
                               (self.receivers, receivers),
                               (self.send_begins, send_begins),
                               (self.recv_ends, recv_ends),
                               (self.sizes, sizes), (self.tags, tags)):
            column.frombytes(_raw(values, np.int64))
        self.status_codes.extend(_raw(status_codes, np.uint8))

    def __len__(self) -> int:
        return len(self.senders)

    def __getitem__(self, index):
        n = len(self.senders)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("message index out of range")
        return PtpMessage(sender=self.senders[index],
                          receiver=self.receivers[index],
                          send_begin=self.send_begins[index],
                          recv_end=self.recv_ends[index],
                          size_bytes=self.sizes[index],
                          tag=self.tags[index],
                          status=STATUS_BY_CODE[self.status_codes[index]])

    def __iter__(self) -> Iterator[PtpMessage]:
        for i in range(len(self.senders)):
            yield self[i]

    def __repr__(self) -> str:
        return f"MessageStore(messages={len(self)})"


@dataclass(slots=True)
class CollectiveOp:
    """One occurrence of a collective on a communicator.

    participants holds (rank, entry_time, exit_time) per member, in rank
    order.  occurrence_index counts collectives per communicator.
    """

    communicator_id: int
    occurrence_index: int
    participants: list[tuple[int, int, int]] = field(default_factory=list)

    def ranks(self) -> list[int]:
        return [p[0] for p in self.participants]


class CollectiveStore:
    """Columnar storage of collective occurrences.

    comm_ids and occ_indices hold one row per occurrence; participant
    triples live flattened behind part_offsets (row i owns the slice
    part_offsets[i]:part_offsets[i+1]).  part_region_idx pins each
    participant to the index of the region it was grouped from, so
    replay attaches occurrences without matching timestamps.  Indexing
    and iteration materialize CollectiveOp snapshots.
    """

    __slots__ = ("comm_ids", "occ_indices", "part_offsets", "part_ranks",
                 "part_entries", "part_exits", "part_region_idx")

    def __init__(self) -> None:
        self.comm_ids = array("q")
        self.occ_indices = array("q")
        self.part_offsets = array("q", [0])
        self.part_ranks = array("q")
        self.part_entries = array("q")
        self.part_exits = array("q")
        self.part_region_idx = array("q")

    def extend_columns(self, comm_ids: np.ndarray, occ_indices: np.ndarray,
                       part_counts: np.ndarray, part_ranks: np.ndarray,
                       part_entries: np.ndarray, part_exits: np.ndarray,
                       part_region_idx: np.ndarray) -> None:
        """Append a batch of occurrences given as numpy columns;
        occurrence i owns the next part_counts[i] participant rows."""
        self.comm_ids.frombytes(_raw(comm_ids, np.int64))
        self.occ_indices.frombytes(_raw(occ_indices, np.int64))
        self.part_offsets.frombytes(_raw(
            self.part_offsets[-1] + np.cumsum(part_counts), np.int64))
        self.part_ranks.frombytes(_raw(part_ranks, np.int64))
        self.part_entries.frombytes(_raw(part_entries, np.int64))
        self.part_exits.frombytes(_raw(part_exits, np.int64))
        self.part_region_idx.frombytes(_raw(part_region_idx, np.int64))

    def __len__(self) -> int:
        return len(self.comm_ids)

    def __getitem__(self, index):
        n = len(self.comm_ids)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("collective index out of range")
        lo = self.part_offsets[index]
        hi = self.part_offsets[index + 1]
        return CollectiveOp(
            communicator_id=self.comm_ids[index],
            occurrence_index=self.occ_indices[index],
            participants=[(self.part_ranks[j], self.part_entries[j],
                           self.part_exits[j]) for j in range(lo, hi)])

    def __iter__(self) -> Iterator[CollectiveOp]:
        for i in range(len(self.comm_ids)):
            yield self[i]

    def __repr__(self) -> str:
        return f"CollectiveStore(collectives={len(self)})"


@dataclass(slots=True)
class CommunicatorDef:
    communicator_id: int
    members: list[int]


@dataclass(slots=True)
class AnomalyEntry:
    kind: AnomalyKind
    location: str
    detail: str = ""


class AnomalyLog:
    """Append-only record of everything suspicious seen along the way."""

    def __init__(self) -> None:
        self.entries: list[AnomalyEntry] = []
        self.counters: Counter[AnomalyKind] = Counter()

    def add(self, kind: AnomalyKind, location: str, detail: str = "") -> None:
        self.entries.append(AnomalyEntry(kind, location, detail))
        self.counters[kind] += 1

    def count(self, kind: AnomalyKind) -> int:
        return self.counters.get(kind, 0)

    @property
    def total(self) -> int:
        return len(self.entries)

    def extend(self, other: "AnomalyLog") -> None:
        for entry in other.entries:
            self.entries.append(entry)
            self.counters[entry.kind] += 1

    def consistent(self) -> bool:
        """Counters must agree with a recount of the entries."""
        return self.counters == Counter(e.kind for e in self.entries)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k.value}={v}" for k, v in sorted(
            self.counters.items(), key=lambda kv: kv[0].value))
        return f"AnomalyLog({parts or 'clean'})"


@dataclass
class Trace:
    """A fully assembled trace, immutable in structure after construction.

    Replay may still degrade a message's status; everything else is
    fixed.  regions is the rank-major RegionTable.  collectives is
    derived from the collective regions and their communicator hints by
    group_collectives.
    """

    meta: TraceMeta
    regions: RegionTable
    messages: MessageStore = field(default_factory=MessageStore)
    collectives: CollectiveStore = field(default_factory=CollectiveStore)
    communicators: dict[int, CommunicatorDef] = field(default_factory=dict)
    #: (rank, state) -> total ns, kept only for the summary cross-check.
    state_time_ns: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def empty(cls, meta: TraceMeta) -> "Trace":
        return cls(meta=meta, regions=RegionTable(
            np.zeros(meta.rank_count + 1, dtype=np.int64), (), (), (), ()))

    @classmethod
    def build(cls, meta: TraceMeta, regions: Iterable[Iterable[MpiRegion]],
              messages: Iterable[PtpMessage] = (),
              communicators: Iterable[CommunicatorDef] = ()) -> "Trace":
        """A trace from records: regions[r] lists rank r's regions in
        entry order (their rank and region_seq fields are implied by
        position).  Collectives are grouped from the regions as ingest
        groups them, and a world communicator is added unless given."""
        table = RegionTable.from_regions(regions)
        if table.rank_count != meta.rank_count:
            raise ValueError(f"{table.rank_count} rank lists for "
                             f"{meta.rank_count} ranks")
        trace = cls(meta=meta, regions=table)
        for m in messages:
            trace.messages.append_fields(m.sender, m.receiver, m.send_begin,
                                         m.recv_end, m.size_bytes, m.tag,
                                         m.status)
        for comm in communicators:
            trace.communicators[comm.communicator_id] = comm
        group_collectives(trace)
        return trace


def group_collectives(trace: Trace) -> None:
    """Add the default world communicator if none is defined, then group
    the collective regions into collective occurrences.

    A region belongs to the communicator its entry hint named, defaulting
    to world; the n-th collective of a communicator on each member rank
    forms occurrence n.  Occurrences are ordered by communicator, then
    occurrence, participants by rank.  Each participant row records the
    index of the region it came from on its rank.
    """
    if WORLD_COMM_ID not in trace.communicators:
        trace.communicators[WORLD_COMM_ID] = CommunicatorDef(
            WORLD_COMM_ID, list(range(trace.meta.rank_count)))
    table = trace.regions
    rows = np.flatnonzero(table.class_codes
                          == CLASS_CODES[CallClass.COLLECTIVE])
    if not len(rows):
        return
    rank = table.ranks_of(rows)
    cid = np.full(len(rows), WORLD_COMM_ID, dtype=np.int64)
    at = np.minimum(np.searchsorted(rows, table.hint_rows), len(rows) - 1)
    hit = rows[at] == table.hint_rows
    cid[at[hit]] = table.hint_values[hit]
    # rows sorted by communicator keep rank-major row order; the
    # occurrence is the position within each (communicator, rank) run
    order = np.argsort(cid, kind="stable")
    c, rk = cid[order], rank[order]
    pos = np.arange(len(rows))
    run = np.ones(len(rows), dtype=bool)
    run[1:] = (c[1:] != c[:-1]) | (rk[1:] != rk[:-1])
    occ = np.empty(len(rows), dtype=np.int64)
    occ[order] = pos - np.maximum.accumulate(np.where(run, pos, 0))
    del c, rk, run, pos
    # participant rows ordered by communicator, occurrence, rank; the
    # columns are gathered one at a time to keep few of them alive
    order = np.lexsort((rank, occ, cid))
    cid = cid[order]
    occ = occ[order]
    rank = rank[order]
    rows = rows[order]
    del order
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (cid[1:] != cid[:-1]) | (occ[1:] != occ[:-1])
    at = np.flatnonzero(head)
    trace.collectives.extend_columns(
        cid[at], occ[at], np.diff(np.append(at, len(rows))), rank,
        table.entry_times[rows], table.exit_times[rows],
        rows - table.offsets[rank])


def locate_regions(entries: np.ndarray, exits: np.ndarray, t: np.ndarray,
                   prefer_exit: bool = False) -> np.ndarray:
    """Index of the region containing each time in t, or -1.

    entries and exits are one rank's region columns in entry order.
    Consecutive regions may share a boundary and zero-length regions may
    stack at one timestamp, so several regions can contain t.  A receive
    completion (prefer_exit) resolves to the earliest of them: the region
    that ends at t.  A send origin resolves to the earliest region that
    begins at t, falling back to the last one containing it.
    """
    t = np.asarray(t, dtype=np.int64)
    if not len(entries):
        return np.full(len(t), -1, dtype=np.int64)
    # t lies in some region iff the earliest region ending at or after t
    # (lo) has begun by t, i.e. lo is not past the last one begun (hi)
    hi = np.searchsorted(entries, t, side="right") - 1
    lo = np.searchsorted(exits, t, side="left")
    if prefer_exit:
        res = lo
    else:
        at_entry = np.asarray(entries)[np.maximum(hi, 0)] == t
        res = np.where(at_entry, np.maximum(
            lo, np.searchsorted(entries, t, side="left")), hi)
    return np.where(lo <= hi, res, -1)


def rank_order(ranks: np.ndarray, rank_count: int) -> np.ndarray:
    """A stable order of ranks, each in [0, rank_count), by rank.  They
    are sorted as the smallest unsigned type that holds them, which
    numpy radix-sorts."""
    small = np.min_scalar_type(max(rank_count - 1, 0))
    return np.argsort(ranks.astype(small), kind="stable")


def locate_rows(table: RegionTable, ranks: np.ndarray, t: np.ndarray,
                prefer_exit: bool = False) -> np.ndarray:
    """Table row of the region of rank ranks[i] containing t[i], or -1.

    locate_regions applied to each rank's slice of the table, with the
    queries sorted by rank; ranks must lie in range."""
    order = rank_order(ranks, table.rank_count)
    bounds = np.searchsorted(ranks[order],
                             np.arange(table.rank_count + 1)).tolist()
    t = np.asarray(t, dtype=np.int64)[order]
    offsets = table.offsets.tolist()
    found = np.full(len(t), -1, dtype=np.int64)
    for r in np.flatnonzero(np.diff(bounds)).tolist():
        lo, hi = offsets[r], offsets[r + 1]
        k = locate_regions(table.entry_times[lo:hi], table.exit_times[lo:hi],
                           t[bounds[r]:bounds[r + 1]], prefer_exit)
        found[bounds[r]:bounds[r + 1]] = np.where(k >= 0, k + lo, -1)
    out = np.empty(len(t), dtype=np.int64)
    out[order] = found
    return out


@dataclass(slots=True)
class Violation:
    code: str
    location: str
    detail: str = ""


class ValidationReport:
    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def add(self, code: str, location: str, detail: str = "") -> None:
        self.violations.append(Violation(code, location, detail))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "trace valid"
        lines = [f"{v.code} at {v.location}: {v.detail}" for v in self.violations]
        return "\n".join(lines)


def validate_trace(trace: Trace) -> ValidationReport:
    """Check every structural invariant of the model; report, never raise."""
    report = ValidationReport()
    meta = trace.meta
    if meta.rank_count < 1:
        report.add("meta.rank_count", "header", f"rank_count={meta.rank_count}")
    if len(trace.regions) != meta.rank_count:
        report.add("meta.rank_count", "regions",
                   f"{len(trace.regions)} rank lists for {meta.rank_count} ranks")

    # seq and owner rank hold by construction; check times in bulk, and
    # report each rank's negative regions, then its overlaps
    table = trace.regions
    ent, ex = table.entry_times, table.exit_times
    head = np.zeros(len(ent), dtype=bool)
    head[table.offsets[:-1][table.offsets[:-1] < len(ent)]] = True
    negative = np.flatnonzero(ent > ex)
    overlap = np.flatnonzero(~head[1:] & (ent[1:] < ex[:-1])) + 1
    rows = np.concatenate((negative, overlap))
    kind = np.repeat((0, 1), (len(negative), len(overlap)))
    rank = table.ranks_of(rows)
    for j, r, is_overlap in zip(*(a[np.lexsort((rows, kind, rank))].tolist()
                                  for a in (rows, rank, kind))):
        k = j - int(table.offsets[r])
        if is_overlap:
            report.add("region.overlap", f"rank {r} region {k}",
                       f"entry {ent[j]} < previous exit {ex[j - 1]}")
        else:
            report.add("region.negative", f"rank {r} region {k}",
                       f"entry {ent[j]} > exit {ex[j]}")
    max_ts = max(0, int(ex.max())) if len(ex) else 0

    max_ts = _validate_messages(trace, report, max_ts)

    for comm_id, comm in trace.communicators.items():
        where = f"communicator {comm_id}"
        if comm.communicator_id != comm_id:
            report.add("communicator.id", where, "key does not match definition")
        if not comm.members:
            report.add("communicator.members", where, "empty membership")
        if len(set(comm.members)) != len(comm.members):
            report.add("communicator.members", where, "duplicate members")
        if any(not (0 <= m < meta.rank_count) for m in comm.members):
            report.add("communicator.members", where, "member out of range")

    max_ts = _validate_collectives(trace, report, max_ts)

    if meta.total_duration_ns < max_ts:
        report.add("meta.duration", "header",
                   f"total_duration {meta.total_duration_ns} < last timestamp {max_ts}")
    return report


def _validate_collectives(trace: Trace, report: ValidationReport,
                          max_ts: int) -> int:
    """Collective checks of validate_trace; returns the updated max
    timestamp.  Per occurrence, in store order: a duplicate participant
    rank, participants that differ from the communicator's members, and
    each participant row that enters before the previous occurrence of
    its (communicator, rank) did."""
    colls = trace.collectives
    nops = len(colls)
    if not nops:
        return max_ts
    cid = np.frombuffer(colls.comm_ids, dtype=np.int64)
    offsets = np.frombuffer(colls.part_offsets, dtype=np.int64)
    ranks = np.frombuffer(colls.part_ranks, dtype=np.int64)
    entries = np.frombuffer(colls.part_entries, dtype=np.int64)
    exits = np.frombuffer(colls.part_exits, dtype=np.int64)
    counts = np.diff(offsets)
    op = np.repeat(np.arange(nops), counts)
    row_cid = cid[op]

    # rows sorted by (occurrence, rank): a repeat is a duplicate rank
    by_op = np.lexsort((ranks, op))
    repeat = np.zeros(len(ranks), dtype=bool)
    repeat[by_op[1:]] = ((op[by_op[1:]] == op[by_op[:-1]])
                         & (ranks[by_op[1:]] == ranks[by_op[:-1]]))
    repeats = np.bincount(op[repeat], minlength=nops)
    duplicate = repeats > 0
    # the distinct participant ranks equal the members iff every rank is
    # a member and there are as many of them as members
    mismatch = np.zeros(nops, dtype=bool)
    for c in set(colls.comm_ids):
        comm = trace.communicators.get(c)
        if comm is None:
            continue
        members = np.array(sorted(set(comm.members)), dtype=np.int64)
        rows = row_cid == c
        outside = np.bincount(op[rows & ~np.isin(ranks, members)],
                              minlength=nops)
        mismatch |= (cid == c) & ((outside > 0)
                                  | (counts - repeats != len(members)))
    # rows sorted stably by (communicator, rank) keep store order
    by_key = np.lexsort((ranks, row_cid))
    early = np.zeros(len(ranks), dtype=bool)
    prev = np.zeros(len(ranks), dtype=np.int64)
    same = ((row_cid[by_key[1:]] == row_cid[by_key[:-1]])
            & (ranks[by_key[1:]] == ranks[by_key[:-1]]))
    prev[by_key[1:]] = entries[by_key[:-1]]
    early[by_key[1:]] = same & (entries[by_key[1:]] < prev[by_key[1:]])

    early_rows = np.flatnonzero(early).tolist()
    row_ops = op[early_rows].tolist()
    at = 0
    flagged = duplicate | mismatch
    flagged[row_ops] = True
    for i in np.flatnonzero(flagged).tolist():
        c = colls.comm_ids[i]
        where = f"collective comm={c} occ={colls.occ_indices[i]}"
        if duplicate[i]:
            report.add("collective.participants", where,
                       "duplicate participant rank")
        if mismatch[i]:
            got = sorted(colls.part_ranks[offsets[i]:offsets[i + 1]])
            members = sorted(set(trace.communicators[c].members))
            report.add("collective.membership", where,
                       f"participants {got} != members {members}")
        while at < len(row_ops) and row_ops[at] == i:
            j = early_rows[at]
            report.add("collective.order", where,
                       f"rank {ranks[j]} occurrence entered at "
                       f"{entries[j]} before {prev[j]}")
            at += 1
    return max(max_ts, int(exits.max())) if len(exits) else max_ts


def _validate_messages(trace: Trace, report: ValidationReport,
                       max_ts: int) -> int:
    """Message checks of validate_trace; returns the updated max timestamp."""
    meta = trace.meta
    msgs = trace.messages
    if not len(msgs):
        return max_ts
    snd = np.frombuffer(msgs.senders, dtype=np.int64)
    rcv = np.frombuffer(msgs.receivers, dtype=np.int64)
    sb = np.frombuffer(msgs.send_begins, dtype=np.int64)
    re_ = np.frombuffer(msgs.recv_ends, dtype=np.int64)
    st = np.frombuffer(msgs.status_codes, dtype=np.uint8)

    in_range = ((snd >= 0) & (snd < meta.rank_count)
                & (rcv >= 0) & (rcv < meta.rank_count))
    for i in np.nonzero(~in_range)[0]:
        report.add("message.rank_range", f"message {i}",
                   f"sender={snd[i]} receiver={rcv[i]}")
    for i in np.nonzero(in_range & (st == 0) & (sb > re_))[0]:
        report.add("message.reversed", f"message {i}",
                   f"send {sb[i]} > recv {re_[i]} but status valid")

    outside_send = np.zeros(len(snd), dtype=bool)
    outside_recv = np.zeros(len(snd), dtype=bool)
    ok = np.flatnonzero(in_range)
    outside_send[ok] = locate_rows(trace.regions, snd[ok], sb[ok]) < 0
    outside_recv[ok] = locate_rows(trace.regions, rcv[ok], re_[ok],
                                   prefer_exit=True) < 0
    for i in np.nonzero(outside_send)[0]:
        report.add("message.sender_region", f"message {i}",
                   f"send_begin {sb[i]} outside any region of rank {snd[i]}")
    for i in np.nonzero(outside_recv)[0]:
        report.add("message.recv_region", f"message {i}",
                   f"recv_end {re_[i]} outside any region of rank {rcv[i]}")
    if in_range.any():
        max_ts = max(max_ts, int(sb[in_range].max()), int(re_[in_range].max()))
    return max_ts
