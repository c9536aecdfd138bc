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
    flat_rank_encoding: bool = False


@dataclass(slots=True)
class MpiRegion:
    """One [entry, exit] interval a rank spent inside the MPI runtime."""

    rank: int
    entry_time: int
    exit_time: int
    call_class: CallClass
    # communicator announced by a companion event at entry (collectives)
    comm_hint: int | None = None


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


#: wire order of call classes inside RegionTable.class_codes: the
#: enum's declaration order
CLASS_CODES = {cls: code for code, cls in enumerate(CallClass)}


class RegionTable:
    """Every rank's MPI regions in one rank-major table.

    Multi-million-region traces cannot afford an object per region, so
    the regions live in flat read-only columns with one row per region
    (entry time, exit time and class code; no analysis reads the MPI
    call value that opened a region, so it is not kept): rank r owns
    rows offsets[r]:offsets[r+1], in entry-time order, and row
    offsets[r] + k is its region k.  Communicator hints are sparse:
    hint_rows lists the hinted rows in ascending order and hint_values
    the ids they announced.

    As a sequence the table holds one RankRegions view per rank:
    trace.regions[r] builds a view of rank r's slice of the columns each
    time it is indexed.
    """

    COLUMNS = ("offsets", "entry_times", "exit_times", "class_codes",
               "hint_rows", "hint_values")
    __slots__ = COLUMNS

    def __init__(self, offsets, entry_times, exit_times, class_codes,
                 hint_rows=(), hint_values=()) -> None:
        self.offsets = _frozen(offsets, np.int64)
        self.entry_times = _frozen(entry_times, np.int64)
        self.exit_times = _frozen(exit_times, np.int64)
        self.class_codes = _frozen(class_codes, np.uint8)
        self.hint_rows = _frozen(hint_rows, np.int64)
        self.hint_values = _frozen(hint_values, np.int64)
        n = int(self.offsets[-1])
        if any(len(c) != n for c in (self.entry_times, self.exit_times,
                                     self.class_codes)) \
                or len(self.hint_rows) != len(self.hint_values):
            raise ValueError("region columns of unequal length")

    @classmethod
    def from_regions(cls, regions: Iterable[Iterable[MpiRegion]],
                     ) -> "RegionTable":
        """A table from per-rank lists of regions in entry order (their
        rank field is implied by position)."""
        per_rank = [list(regs) for regs in regions]
        flat = [g for regs in per_rank for g in regs]
        hinted = [i for i, g in enumerate(flat) if g.comm_hint is not None]
        return cls(np.cumsum([0] + [len(regs) for regs in per_rank]),
                   [g.entry_time for g in flat], [g.exit_time for g in flat],
                   [CLASS_CODES[g.call_class] for g in flat], hinted,
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

    def __getitem__(self, rank: int) -> "RankRegions":
        return RankRegions(self, range(self.rank_count)[rank])

    def __iter__(self) -> Iterator["RankRegions"]:
        return (RankRegions(self, r) for r in range(self.rank_count))

    def __repr__(self) -> str:
        return (f"RegionTable(ranks={self.rank_count}, "
                f"regions={self.row_count})")


class RankRegions:
    """Read-only view of one rank's rows of a RegionTable: its column
    properties are numpy views of the rank's slice."""

    __slots__ = ("table", "rank", "lo", "hi")

    def __init__(self, table: RegionTable, rank: int) -> None:
        self.table = table
        self.rank = rank
        self.lo = int(table.offsets[rank])
        self.hi = int(table.offsets[rank + 1])

    @property
    def entry_times(self) -> np.ndarray:
        return self.table.entry_times[self.lo:self.hi]

    @property
    def exit_times(self) -> np.ndarray:
        return self.table.exit_times[self.lo:self.hi]

    @property
    def class_codes(self) -> np.ndarray:
        return self.table.class_codes[self.lo:self.hi]

    def __len__(self) -> int:
        return self.hi - self.lo

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
    status: MessageStatus = MessageStatus.VALID


#: wire order of statuses inside MessageStore.status_codes: the enum's
#: declaration order
STATUS_CODES = {status: code for code, status in enumerate(MessageStatus)}


class MessageStore:
    """Columnar storage of matched point-to-point messages.

    Five read-only int64 numpy columns (sender, receiver, send begin,
    receive end, size) plus status_codes, one uint8 per message and the
    one writable column: replay degrades a message by writing its byte.
    """

    COLUMNS = ("senders", "receivers", "send_begins", "recv_ends", "sizes",
               "status_codes")
    __slots__ = COLUMNS

    def __init__(self, senders=(), receivers=(), send_begins=(), recv_ends=(),
                 sizes=(), status_codes=()) -> None:
        self.senders = _frozen(senders, np.int64)
        self.receivers = _frozen(receivers, np.int64)
        self.send_begins = _frozen(send_begins, np.int64)
        self.recv_ends = _frozen(recv_ends, np.int64)
        self.sizes = _frozen(sizes, np.int64)
        self.status_codes = np.array(status_codes, dtype=np.uint8)
        if any(len(getattr(self, c)) != len(self.senders)
               for c in self.COLUMNS):
            raise ValueError("message columns of unequal length")

    @classmethod
    def from_messages(cls, messages: Iterable[PtpMessage]) -> "MessageStore":
        """A store from message records, in their order."""
        rows = [(m.sender, m.receiver, m.send_begin, m.recv_end,
                 m.size_bytes, STATUS_CODES[m.status]) for m in messages]
        columns = np.array(rows, dtype=np.int64).reshape(-1, 6)
        return cls(*np.ascontiguousarray(columns.T))

    def __len__(self) -> int:
        return len(self.senders)

    def __repr__(self) -> str:
        return f"MessageStore(messages={len(self)})"


class CollectiveStore:
    """Collective occurrences, each a set of rows of a RegionTable.

    comm_ids and occ_indices hold one row per occurrence, ordered by
    communicator, then occurrence.  Occurrence i's participants are the
    table rows part_rows[part_offsets[i]:part_offsets[i+1]], one
    collective region per rank in rank order; their ranks and times are
    read from the table, never copied.
    """

    COLUMNS = ("comm_ids", "occ_indices", "part_offsets", "part_rows")
    __slots__ = COLUMNS

    def __init__(self, comm_ids=(), occ_indices=(), part_offsets=(0,),
                 part_rows=()) -> None:
        self.comm_ids = _frozen(comm_ids, np.int64)
        self.occ_indices = _frozen(occ_indices, np.int64)
        self.part_offsets = _frozen(part_offsets, np.int64)
        self.part_rows = _frozen(part_rows, np.int64)

    def __len__(self) -> int:
        return len(self.comm_ids)

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
    group_collectives: each participant is a row of regions.
    """

    meta: TraceMeta
    regions: RegionTable
    messages: MessageStore = field(default_factory=MessageStore)
    collectives: CollectiveStore = field(default_factory=CollectiveStore)
    communicators: dict[int, CommunicatorDef] = field(default_factory=dict)

    @classmethod
    def build(cls, meta: TraceMeta, regions: Iterable[Iterable[MpiRegion]],
              messages: Iterable[PtpMessage] = (),
              communicators: Iterable[CommunicatorDef] = ()) -> "Trace":
        """A trace from records: regions[r] lists rank r's regions in
        entry order (their rank field is implied by position).
        Collectives are grouped from the regions as ingest groups them,
        and a world communicator is added unless given.

        Raises ValueError on what ingest never emits: no rank, a region
        that enters before 0, after its exit or before the previous exit
        on its rank, a message whose sender or receiver lies outside
        [0, rank_count), or a valid message sent after its receive
        completes (ingest marks such a message faulty).  Touching and
        stacked zero-length regions build.
        """
        P = meta.rank_count
        if P < 1:
            raise ValueError(f"rank_count {P} < 1")
        table = RegionTable.from_regions(regions)
        if table.rank_count != P:
            raise ValueError(f"{table.rank_count} rank lists for {P} ranks")
        # each region's entry against the exit before it on its rank, and
        # a rank's first region against 0
        ent, ex = table.entry_times, table.exit_times
        prev = np.zeros(len(ent), dtype=np.int64)
        prev[1:] = ex[:-1]
        prev[table.offsets[:-1][np.diff(table.offsets) > 0]] = 0
        bad = np.flatnonzero((ent < prev) | (ent > ex))
        if len(bad):
            j = int(bad[0])
            r = int(table.ranks_of(j))
            k = j - int(table.offsets[r])
            raise ValueError(f"rank {r} region {k}: entry {ent[j]} " + (
                f"> exit {ex[j]}" if ent[j] >= prev[j] else
                f"< previous exit {prev[j]}" if k else "< 0"))
        msgs = MessageStore.from_messages(messages)
        bad = np.flatnonzero((np.minimum(msgs.senders, msgs.receivers) < 0)
                             | (np.maximum(msgs.senders, msgs.receivers) >= P))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"message {i}: sender {msgs.senders[i]} or "
                             f"receiver {msgs.receivers[i]} outside [0, {P})")
        bad = np.flatnonzero((msgs.status_codes == STATUS_CODES[
            MessageStatus.VALID]) & (msgs.send_begins > msgs.recv_ends))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"message {i}: send at {msgs.send_begins[i]} "
                             f"after receive completion {msgs.recv_ends[i]}")
        trace = cls(meta=meta, regions=table, messages=msgs)
        for comm in communicators:
            trace.communicators[comm.communicator_id] = comm
        group_collectives(trace)
        return trace


def group_collectives(trace: Trace) -> None:
    """Add the default world communicator if none is defined, then group
    the collective regions into the trace's collective occurrences.

    A region belongs to the communicator its entry hint named, defaulting
    to world; the n-th collective of a communicator on each member rank
    forms occurrence n.  Occurrences are ordered by communicator, then
    occurrence, participants by rank.
    """
    if WORLD_COMM_ID not in trace.communicators:
        trace.communicators[WORLD_COMM_ID] = CommunicatorDef(
            WORLD_COMM_ID, list(range(trace.meta.rank_count)))
    table = trace.regions
    is_coll = table.class_codes == CLASS_CODES[CallClass.COLLECTIVE]
    rows = np.flatnonzero(is_coll)
    if not len(rows):
        trace.collectives = CollectiveStore()
        return
    # the table is rank-major, and rows and hint_rows both ascend, so
    # the k-th hinted collective row takes the k-th collective hint
    rank = np.repeat(np.arange(table.rank_count),
                     np.diff(np.searchsorted(rows, table.offsets)))
    hinted = np.zeros(table.row_count, dtype=bool)
    hinted[table.hint_rows] = True
    cid = np.full(len(rows), WORLD_COMM_ID, dtype=np.int64)
    cid[hinted[rows]] = table.hint_values[is_coll[table.hint_rows]]
    del is_coll, hinted
    # rows sorted by communicator keep rank-major row order; the
    # occurrence is the position within each (communicator, rank) run
    order = np.argsort(cid, kind="stable")
    cid, rank = cid[order], rank[order]
    new_comm = cid[1:] != cid[:-1]
    pos = np.arange(len(rows))
    run = np.ones(len(rows), dtype=bool)
    run[1:] = new_comm | (rank[1:] != rank[:-1])
    occ = pos - np.maximum.accumulate(np.where(run, pos, 0))
    del rank, run, pos
    # participants ordered by communicator, occurrence, rank: a stable
    # sort on (communicator, occurrence) keeps each occurrence's ranks in
    # order, and merges the (communicator, rank) runs, each of which is
    # in occurrence order already
    key = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(new_comm, out=key[1:])
    key *= int(occ.max()) + 1
    key += occ
    by_occ = np.argsort(key, kind="stable")
    del key, new_comm
    cid = cid[by_occ]
    occ = occ[by_occ]
    rows = rows[order[by_occ]]
    del order, by_occ
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (cid[1:] != cid[:-1]) | (occ[1:] != occ[:-1])
    at = np.flatnonzero(head)
    trace.collectives = CollectiveStore(cid[at], occ[at],
                                        np.append(at, len(rows)), rows)


def rank_order(ranks: np.ndarray, rank_count: int) -> np.ndarray:
    """A stable order of ranks, each in [0, rank_count), by rank.  They
    are sorted as the smallest unsigned type that holds them, which
    numpy radix-sorts."""
    small = np.min_scalar_type(max(rank_count - 1, 0))
    return np.argsort(ranks.astype(small), kind="stable")


def locate_rows(table: RegionTable, ranks: np.ndarray, t: np.ndarray,
                prefer_exit: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """For each query i, on rank ranks[i] (in range): the table row of
    the region containing t[i], or -1, and the first row of that rank
    entered after t[i] (the rank's end row when none is).

    Consecutive regions may share a boundary and zero-length regions may
    stack at one timestamp, so several regions can contain t.  A receive
    completion (prefer_exit) resolves to the earliest of them: the region
    that ends at t.  A send origin resolves to the earliest region that
    begins at t, falling back to the last one containing it.  The queries
    are sorted by rank once and each rank's slice is searched once.
    """
    order = rank_order(ranks, table.rank_count)
    bounds = [0, *np.cumsum(np.bincount(ranks, minlength=table.rank_count))
              .tolist()]
    t = np.asarray(t, dtype=np.int64)
    offsets = table.offsets.tolist()
    rows = np.empty(len(t), dtype=np.int64)
    after = np.empty(len(t), dtype=np.int64)
    for r in np.flatnonzero(np.diff(bounds)).tolist():
        lo, hi = offsets[r], offsets[r + 1]
        at = order[bounds[r]:bounds[r + 1]]
        q = t[at]
        entries = table.entry_times[lo:hi]
        # t lies in some region iff the earliest region ending at or
        # after t (k) lies before the first one entered after t (nxt);
        # exits ascend with entries, as regions never overlap
        nxt = np.searchsorted(entries, q, side="right")
        k = np.searchsorted(table.exit_times[lo:hi], q, side="left")
        held = k < nxt
        if not prefer_exit:
            begun = np.searchsorted(entries, q, side="left")
            k = np.where(begun < nxt, begun, nxt - 1)
        rows[at] = np.where(held, k + lo, -1)
        after[at] = nxt + lo
    return rows, after


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


def stream_end_faults(trace: Trace) -> Iterator[tuple[str, str, str]]:
    """The checks that need the whole trace, as (code, location, detail):
    each communicator definition with empty, duplicate or out-of-range
    members, then a header duration short of the last region exit.
    Ingest logs each as a malformed record at the end of the stream."""
    meta = trace.meta
    for comm_id, comm in trace.communicators.items():
        members = comm.members
        fault = ("communicator.members", f"communicator {comm_id}")
        if not members:
            yield *fault, "empty membership"
        if len(set(members)) != len(members):
            yield *fault, "duplicate members"
        if any(not (0 <= m < meta.rank_count) for m in members):
            yield *fault, "member out of range"
    # collective participants are regions, so this covers their exits
    exits = trace.regions.exit_times
    last = max(0, int(exits.max())) if len(exits) else 0
    if meta.total_duration_ns < last:
        yield ("meta.duration", "header",
               f"total_duration {meta.total_duration_ns} "
               f"< last timestamp {last}")


def validate_trace(trace: Trace) -> ValidationReport:
    """Report the stream_end_faults of a trace; never raise.  Trace.build
    and ingest refuse every other fault of a trace's structure, and
    faulty messages and collectives are replay's to log.  The command
    line runs this under --strict only, once ingest's and replay's logs
    are empty."""
    report = ValidationReport()
    for fault in stream_end_faults(trace):
        report.add(*fault)
    return report


def collective_membership(trace: Trace, ranks: np.ndarray) -> np.ndarray:
    """Per collective occurrence: whether its participant ranks (ranks,
    one per participant row, as table.ranks_of(part_rows)) equal its
    communicator's sorted distinct members (never, when the communicator
    is undefined)."""
    colls = trace.collectives
    cid = colls.comm_ids
    counts = np.diff(colls.part_offsets)
    fits = np.zeros(len(cid), dtype=bool)
    # participants are distinct ranks in rank order
    for c in distinct(cid).tolist():
        comm = trace.communicators.get(c)
        if comm is None:
            continue
        members = distinct(comm.members)
        same = (cid == c) & (counts == len(members))
        if same.any():
            got = ranks[np.repeat(same, counts)].reshape(-1, len(members))
            fits[np.flatnonzero(same)[(got == members).all(axis=1)]] = True
    return fits
