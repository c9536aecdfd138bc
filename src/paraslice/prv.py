"""Reading Paraver .prv traces and their .pcf label files.

The trace body is read in blocks of about BLOCK_SIZE bytes, each cut at
its last newline, so ingest memory stays proportional to one block plus
the model it builds, never to the file.  numpy classifies the lines of a
block.  The plain ones -- state, event and communication records made of
digit fields and colons only, with the field count of their kind -- are
converted together in one bulk call.  Every other line (comments,
communicator definitions, blank, garbled or oversized lines, signs,
underscores, a lone carriage return, non-ASCII bytes) goes through the
per-line rules of iter_raw_records on its decoded text.

Each rank's open-region state (its cursor) lives in per-rank numpy
columns.  A block's events pair into regions on arrays, for all ranks
at once, wherever a rank's events continue its cursor cleanly; a rank
that does not goes through the sequential cursor rules for that block,
so counters and anomaly entries, in line order, are those of a
record-at-a-time reader.  Both emit the block's regions as one chunk in
rank order; at the end of the stream the chunks are scattered into one
rank-major RegionTable, which keeps each rank's regions in emission
order.

Only MPI event types and communication records feed the model; state
records are folded into per-rank totals for a cross-check, everything
else is counted and dropped.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, itemgetter
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .model import (
    AnomalyKind,
    AnomalyLog,
    CLASS_CODES,
    CallClass,
    CommunicatorDef,
    MessageStatus,
    RegionTable,
    STATUS_CODES,
    TimeUnit,
    Trace,
    TraceMeta,
    group_collectives,
    rank_order,
)

# Event types carrying MPI call activity.  A positive value opens a region
# of the class given by the type, value 0 closes it.
EVTYPE_P2P = 50000001
EVTYPE_COLLECTIVE = 50000002
EVTYPE_OTHER = 50000003
# Companion event naming the communicator of a collective entered at the
# same timestamp.  Absent, the collective belongs to the world communicator.
EVTYPE_COMM_ID = 50000004

#: class code (CLASS_CODES) of the regions each MPI event type opens
_MPI_CODE = {
    EVTYPE_P2P: CLASS_CODES[CallClass.POINT_TO_POINT],
    EVTYPE_COLLECTIVE: CLASS_CODES[CallClass.COLLECTIVE],
    EVTYPE_OTHER: CLASS_CODES[CallClass.OTHER_MPI],
}


class IngestError(Exception):
    """Unrecoverable problem with the input file."""


class RecordKind(Enum):
    STATE = "state"
    EVENT = "event"
    COMMUNICATION = "communication"
    COMMUNICATOR_DEF = "communicator_def"


class RawRecord(NamedTuple):
    kind: RecordKind
    fields: list[int]
    line_number: int


@dataclass
class IngestCounters:
    """Bookkeeping so no record disappears silently.

    The identity records == consumed + ignored + dropped covers event and
    communication records: consumed ones landed in the Trace, ignored ones
    carried only foreign event types, dropped ones have an anomaly entry.
    """

    records: int = 0
    consumed: int = 0
    ignored: int = 0
    dropped: int = 0
    comments: int = 0
    states: int = 0
    communicator_defs: int = 0
    anomalies: int = 0
    #: lines that took the per-line rules instead of the block tokenizer
    routed: int = 0


def _split_outside_parens(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == ":" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _scale(unit: TimeUnit) -> int:
    return 1000 if unit is TimeUnit.MICROSECONDS else 1


def parse_header(line: str, time_unit: TimeUnit | None = None,
                 source_name: str = "") -> TraceMeta:
    """Extract duration and rank count from a #Paraver header line.

    The application list accepts both the per-task form
    "4(1:1,1:1,1:1,1:1)" and the flat single-task form "1(4:0)"; several
    tasks with several threads each would be a hybrid trace, which is
    rejected, as are multi-application headers.
    """
    line = line.strip()
    if not line.startswith("#Paraver"):
        raise IngestError("line 1: not a Paraver header")
    close = line.find("):")
    if close < 0:
        raise IngestError("line 1: header missing date section")
    parts = _split_outside_parens(line[close + 2:])
    if len(parts) < 4:
        raise IngestError("line 1: header too short")

    dur_text = parts[0].strip()
    unit = time_unit
    if dur_text.endswith("_ns"):
        dur_text, unit = dur_text[:-3], unit or TimeUnit.NANOSECONDS
    elif dur_text.endswith("_us"):
        dur_text, unit = dur_text[:-3], unit or TimeUnit.MICROSECONDS
    if unit is None:
        unit = TimeUnit.NANOSECONDS
    try:
        duration = int(dur_text)
    except ValueError as exc:
        raise IngestError(f"line 1: bad duration {parts[0]!r}") from exc
    if duration < 0:
        raise IngestError("line 1: negative duration")
    if duration * _scale(unit) > (1 << 63) - 1:
        raise IngestError("line 1: duration overflows 64-bit nanoseconds")

    if parts[2].strip() != "1":
        raise IngestError(
            f"line 1: {parts[2].strip()} applications, exactly one supported")

    appl = parts[3].strip()
    open_p = appl.find("(")
    if open_p < 0 or not appl.endswith(")"):
        raise IngestError(f"line 1: malformed application list {appl!r}")
    try:
        ntasks = int(appl[:open_p])
        entries = [e for e in appl[open_p + 1:-1].split(",") if e]
        threads = [int(e.split(":")[0]) for e in entries]
    except ValueError as exc:
        raise IngestError(f"line 1: malformed application list {appl!r}") from exc
    if ntasks != len(threads):
        raise IngestError(f"line 1: {ntasks} tasks but {len(threads)} entries")

    flat = False
    if ntasks == 1:
        rank_count = threads[0]
        flat = rank_count > 1
    else:
        if any(t != 1 for t in threads):
            raise IngestError("line 1: hybrid (multi-thread) traces not supported")
        rank_count = ntasks
    if rank_count < 1:
        raise IngestError("line 1: no ranks declared")

    return TraceMeta(total_duration_ns=duration * _scale(unit),
                     rank_count=rank_count, time_unit=unit,
                     source_name=source_name, flat_rank_encoding=flat)


_KIND_BY_PREFIX = {"1": RecordKind.STATE, "2": RecordKind.EVENT,
                   "3": RecordKind.COMMUNICATION}

# Payload lengths: state rows carry 7 integers, events 5 plus
# type/value pairs, communication rows exactly 14.
_STATE_LEN = 7
_EVENT_MIN = 7
_COMM_LEN = 14

# Every integer lands in an int64 column, times after scaling to ns.
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_TIME_FIELDS = {RecordKind.STATE: (4, 5), RecordKind.EVENT: (4,),
                RecordKind.COMMUNICATION: (4, 5, 10, 11)}


def iter_raw_records(lines: Iterable[str], log: AnomalyLog,
                     counters: IngestCounters | None = None,
                     first_line_number: int = 2,
                     scale: int = 1) -> Iterator[RawRecord]:
    """Yield well-formed records; malformed lines go to the anomaly log.

    These are the per-line rules.  load_trace applies them to the lines
    its block tokenizer leaves alone, with scale the trace's factor to
    nanoseconds, so a time that would leave int64 once scaled is caught
    here too.
    """
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
        if min(fields) < _INT64_MIN or max(fields) > _INT64_MAX or (
                scale != 1 and any(
                    not _INT64_MIN <= fields[i] * scale <= _INT64_MAX
                    for i in _TIME_FIELDS[kind])):
            log.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                    "integer outside the 64-bit range")
            if countable:
                counters.dropped += 1
            continue
        if kind is state_kind:
            counters.states += 1
        yield RawRecord(kind, fields, lineno)


#: Bytes read per block.  A block ends at its last newline; the partial
#: line after it opens the next block.
BLOCK_SIZE = 1 << 19

# byte values the block classifier looks at
_NL, _CR, _COLON, _ZERO = 10, 13, 58, 48
_STATE_BYTE, _EVENT_BYTE, _COMM_BYTE = 49, 50, 51       # "1", "2", "3"
_TO_SPACES = bytes.maketrans(b":\n", b"  ")
# classes of an event's type/value pair, after the CLASS_CODES 0..2
_HINT = 3
_FOREIGN = 4
# per rank, the (line number, payload) of events for the cursor rules
_Queues = dict[int, list[tuple[int, list[int]]]]


def _blocks(stream: BinaryIO, block_size: int) -> Iterator[bytes]:
    """Newline-terminated blocks of about block_size bytes; a last line
    without its newline gets one.  Only the block handed out is held."""
    pending: list = []
    while chunk := stream.read(block_size):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(memoryview(chunk)[:cut])
        block = b"".join(pending)
        pending = [chunk[cut:]]
        del chunk
        yield block
    tail = b"".join(pending)
    if tail:
        yield tail + b"\n"


def _entry_line(entry) -> int:
    return int(entry.location[len("line "):])


def build_trace(stream: BinaryIO, meta: TraceMeta,
                log: AnomalyLog | None = None,
                counters: IngestCounters | None = None,
                ) -> tuple[Trace, AnomalyLog]:
    """Assemble the trace model from a .prv body, read as bytes from
    stream; its first line is line 2, after the header.

    Event pairing is per rank: a positive MPI value opens a region, zero
    closes it.  A second open closes the dangling region where the new one
    starts; a close without an open is logged and dropped; regions still
    open at stream end close at the rank's last observed timestamp.
    Non-monotonic event timestamps are clamped so the offending duration
    collapses to zero.  Microsecond traces are scaled to nanoseconds here.
    Lines are numbered as a text-mode reader numbers them: a carriage
    return not followed by a newline ends a line too.
    """
    log = log if log is not None else AnomalyLog()
    counters = counters if counters is not None else IngestCounters()
    asm = _Assembly(meta, log, counters)
    lineno = 2
    for block in _blocks(stream, BLOCK_SIZE):
        lineno = asm.block(block, lineno)
    return asm.finish(), log


class _Assembly:
    """The model under construction and each rank's cursor, which carry
    from one block to the next.

    The cursors are per-rank columns: the entry time of the open region
    (-1: none), its class code, call value and communicator hint; the
    time (-1: none) and value of a hint waiting for a region opened at
    its timestamp; and the last event time.  Times here are never
    negative: they start at 0 and are clamped to never decrease.

    Closed regions are emitted a chunk at a time, each chunk in rank
    order, onto growing columns in emission order; a chunk is recorded
    as its ranks and their region counts.  finish scatters the columns
    into one rank-major RegionTable.
    """

    def __init__(self, meta: TraceMeta, log: AnomalyLog,
                 counters: IngestCounters) -> None:
        self.meta = meta
        self.log = log
        self.counters = counters
        self.scale = _scale(meta.time_unit)
        self.trace = Trace.empty(meta)
        P = meta.rank_count
        self.open_entry = np.full(P, -1, dtype=np.int64)
        self.open_class = np.full(P, CLASS_CODES[CallClass.OTHER_MPI],
                                  dtype=np.int64)
        self.open_call = np.zeros(P, dtype=np.int64)
        self.open_hinted = np.zeros(P, dtype=bool)
        self.open_hint = np.zeros(P, dtype=np.int64)
        self.hint_time = np.full(P, -1, dtype=np.int64)
        self.hint_value = np.zeros(P, dtype=np.int64)
        self.last_time = np.zeros(P, dtype=np.int64)
        self.region_counts = np.zeros(P, dtype=np.int64)
        self.chunks: list[tuple[np.ndarray, np.ndarray]] = []
        # entry, exit, class code, call; the hinted rows and their hints
        self.columns = [array("q"), array("q"), array("B"), array("q")]
        self.hint_rows = array("q")
        self.hint_values = array("q")
        # the current block's anomalies, moved to log in line order
        self.pending = AnomalyLog()

    def _emit(self, rank: np.ndarray, entry: np.ndarray, exit_: np.ndarray,
              codes: np.ndarray, calls: np.ndarray, hinted: np.ndarray,
              hints: np.ndarray) -> None:
        """Closed regions as columns, ordered by rank, each rank's in
        entry order; hints[i] is region i's hint where hinted[i] is set."""
        if not len(rank):
            return
        head = np.flatnonzero(np.diff(rank, prepend=-1))
        ranks = rank[head]
        counts = np.diff(np.append(head, len(rank)))
        self.region_counts[ranks] += counts
        self.chunks.append((ranks, counts))
        at = np.flatnonzero(hinted)
        for column, values in (
                (self.hint_rows, at + len(self.columns[0])),
                (self.hint_values, hints[at]),
                *zip(self.columns, (entry, exit_, codes, calls))):
            column.frombytes(np.ascontiguousarray(
                values, dtype=column.typecode).view(np.uint8))

    # --- one block -------------------------------------------------------

    def block(self, data: bytes, lineno: int) -> int:
        """Ingest a newline-terminated block whose first line is lineno;
        returns the number of the line after it."""
        if b"\r" in data:
            # a text-mode reader reads \r\n as \n and a lone \r as a
            # line end of its own; only the latter changes the numbering
            data = data.replace(b"\r\n", b"\n")
        a = np.frombuffer(data, dtype=np.uint8)
        ends = np.flatnonzero(a == _NL)
        starts = np.concatenate(([0], ends[:-1] + 1))
        n = len(ends)
        linenos = lineno + np.arange(n)
        if b"\r" in data:
            breaks = np.bincount(np.searchsorted(ends, np.flatnonzero(a == _CR)),
                                 minlength=n)
            linenos += np.cumsum(breaks) - breaks
            lineno += int(breaks.sum())
        plain, kinds, ncol = self._classify(data, a, starts, ends)

        irregular = self._per_line(data, starts, ends, linenos, plain)
        p = np.flatnonzero(plain)
        width = ncol[p] + 1
        tok = self._tokens(data, starts, ends, plain, int(width.sum()),
                           int(linenos[0]))
        f0 = np.cumsum(width) - width + 1       # token of payload field 0
        # from here on, one entry per plain line
        kind, ncol, linenos = kinds[p], ncol[p], linenos[p]
        self.counters.records += int(np.count_nonzero(kind != _STATE_BYTE))
        self.counters.states += int(np.count_nonzero(kind == _STATE_BYTE))
        rank, ok = self._coords(tok, f0 + 1)
        comm = np.flatnonzero(kind == _COMM_BYTE)
        recv_rank, recv_ok = self._coords(tok, f0[comm] + 7)
        ok[comm] &= recv_ok
        for i in np.flatnonzero(~ok).tolist():
            irregular.append(RawRecord(
                _KIND_BY_PREFIX[chr(kind[i])],
                tok[f0[i]:f0[i] + ncol[i]].tolist(), int(linenos[i])))
        irregular.sort(key=attrgetter("line_number"))
        slow: _Queues = {}
        messages: list[tuple[int, ...]] = []
        self._irregular(irregular, slow, messages)

        sel = ok & (kind == _COMM_BYTE)
        self._messages(tok, f0[sel], linenos[sel], rank[sel],
                       recv_rank[ok[comm]], messages)
        sel = ok & (kind == _STATE_BYTE)
        self._states(tok, f0[sel], rank[sel])
        sel = ok & (kind == _EVENT_BYTE)
        self._events(tok, f0[sel], ncol[sel], linenos[sel], rank[sel], slow)
        self._sequential(slow)

        if self.pending.entries:
            self.pending.entries.sort(key=_entry_line)
            self.log.extend(self.pending)
            self.pending = AnomalyLog()
        return lineno + n

    def _classify(self, data: bytes, a: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Plain mask, first byte and colon count of each line.

        A plain line is a state, event or communication record of
        non-empty digit fields joined by colons, with the field count of
        its kind, and short enough integers that every value, and every
        time once scaled to ns, fits in int64.
        """
        seps = np.flatnonzero((a == _COLON) | (a == _NL))
        nl_at = np.flatnonzero(a[seps] == _NL)      # line i ends at seps[nl_at[i]]
        ncol = np.diff(nl_at, prepend=-1) - 1
        gap = np.diff(seps)         # the token ending at seps[j] has gap[j-1] - 1 bytes
        digits = 18 if self.scale == 1 else 15
        plain = np.ones(len(ends), dtype=bool)
        plain[np.searchsorted(nl_at, np.flatnonzero(
            (gap == 1) | (gap > digits + 1)) + 1)] = False
        kind_len = np.empty(len(ends), dtype=np.int64)
        kind_len[:1] = seps[:1]
        kind_len[1:] = gap[nl_at[:-1]] - 1
        del seps, gap
        plain &= kind_len == 1
        if data.translate(None, b"0123456789:\n"):     # bytes of no field
            odd = np.flatnonzero(np.subtract(a, _ZERO, dtype=np.uint8) > 10)
            plain[np.searchsorted(ends, odd[a[odd] != _NL])] = False
        kinds = a[starts]
        plain &= (((kinds == _EVENT_BYTE) & (ncol >= _EVENT_MIN) & (ncol % 2 == 1))
                  | ((kinds == _COMM_BYTE) & (ncol == _COMM_LEN))
                  | ((kinds == _STATE_BYTE) & (ncol == _STATE_LEN)))
        return plain, kinds, ncol

    def _per_line(self, data: bytes, starts: np.ndarray, ends: np.ndarray,
                  linenos: np.ndarray, plain: np.ndarray) -> list[RawRecord]:
        """Records of the lines that are not plain, by the per-line rules
        on their text."""
        records: list[RawRecord] = []
        routed = np.flatnonzero(~plain)
        # one pass of the rules per run of adjacent lines; a lone \r
        # left in them ends a line too
        for run in np.split(routed, np.flatnonzero(np.diff(routed) != 1) + 1):
            if not len(run):
                continue
            text = data[starts[run[0]]:ends[run[-1]]].decode("utf-8", "replace")
            lines = text.replace("\r", "\n").split("\n")
            self.counters.routed += len(lines)
            records.extend(iter_raw_records(lines, self.pending, self.counters,
                                            int(linenos[run[0]]), self.scale))
        return records

    def _tokens(self, data: bytes, starts: np.ndarray, ends: np.ndarray,
                plain: np.ndarray, expected: int, lineno: int) -> np.ndarray:
        """Every integer of the plain lines, in line order, in one call."""
        if not expected:
            return np.empty(0, dtype=np.int64)
        if plain.all():
            text = data
        else:
            edge = np.flatnonzero(np.diff(plain.astype(np.int8),
                                          prepend=0, append=0)).tolist()
            text = b" ".join(data[starts[i]:ends[j - 1] + 1]
                             for i, j in zip(edge[::2], edge[1::2]))
        tok = np.fromstring(text.translate(_TO_SPACES), dtype=np.int64,
                            sep=" ")
        if len(tok) != expected:
            raise IngestError(f"line {lineno}: block tokenizer read "
                              f"{len(tok)} of {expected} integers")
        return tok

    def _coords(self, tok: np.ndarray, at: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
        """Rank addressed by appl:task:thread at tok[at:at+3], and where
        that straight-line decode holds; elsewhere resolve_rank decides."""
        appl, task, thread = tok[at], tok[at + 1], tok[at + 2]
        if self.meta.flat_rank_encoding:
            rank, other = thread - 1, task
        else:
            rank, other = task - 1, thread
        ok = (appl == 1) & (other == 1) & (rank >= 0) \
            & (rank < self.meta.rank_count)
        return rank, ok

    def resolve_rank(self, appl: int, task: int, thread: int,
                     lineno: int) -> int | None:
        if appl != 1:
            self.pending.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                             f"application {appl} out of range")
            return None
        flat = self.meta.flat_rank_encoding
        rank, other = (thread - 1, task) if flat else (task - 1, thread)
        if other != 1:
            self.pending.add(AnomalyKind.MALFORMED_RECORD, f"line {lineno}",
                             "record addresses a second thread of a rank")
            return None
        if not (0 <= rank < self.meta.rank_count):
            raise IngestError(f"line {lineno}: rank index {rank} out of range")
        return rank

    # --- the sequential rules --------------------------------------------

    def _irregular(self, records: list[RawRecord],
                   slow: _Queues, messages: list[tuple[int, ...]]) -> None:
        """Records that take the per-record rules, in line order: those
        of lines that were not plain, and plain ones whose coordinates
        resolve_rank must log or reject.  Events are queued on their
        rank's cursor, messages on the block's message list."""
        trace = self.trace
        counters = self.counters
        scale = self.scale
        for rec in records:
            f = rec.fields
            lineno = rec.line_number
            if rec.kind is RecordKind.EVENT:
                rank = self.resolve_rank(f[1], f[2], f[3], lineno)
                if rank is None:
                    counters.dropped += 1
                else:
                    slow.setdefault(rank, []).append((lineno, f))
            elif rec.kind is RecordKind.COMMUNICATION:
                s_rank = self.resolve_rank(f[1], f[2], f[3], lineno)
                r_rank = self.resolve_rank(f[7], f[8], f[9], lineno)
                if s_rank is None or r_rank is None:
                    counters.dropped += 1
                    continue
                messages.append((lineno, s_rank, r_rank, f[4], f[11], f[12],
                                 f[13]))
            elif rec.kind is RecordKind.COMMUNICATOR_DEF:
                if len(f) < 3 or len(f) != 3 + f[2]:
                    self.pending.add(AnomalyKind.MALFORMED_RECORD,
                                     f"line {lineno}",
                                     "communicator definition length mismatch")
                    continue
                members = [t - 1 for t in f[3:]]
                trace.communicators[f[1]] = CommunicatorDef(f[1], members)
            else:
                rank = self.resolve_rank(f[1], f[2], f[3], lineno)
                if rank is None:
                    continue
                key = (rank, f[6])
                trace.state_time_ns[key] = trace.state_time_ns.get(key, 0) \
                    + max(0, (f[5] - f[4]) * scale)

    def _sequential(self, slow: _Queues) -> None:
        """The queued events, rank by rank in line order, through the
        cursor rules; their regions are emitted as one chunk."""
        log = self.pending
        scale = self.scale
        nonmonotonic = AnomalyKind.NONMONOTONIC_TIMESTAMP
        rows: list[tuple[int, ...]] = []
        touched_lines = 0
        lines = 0
        for rank in sorted(slow):
            queue = slow[rank]
            queue.sort(key=itemgetter(0))
            lines += len(queue)
            open_entry = int(self.open_entry[rank])
            open_class = int(self.open_class[rank])
            open_call = int(self.open_call[rank])
            open_hint = int(self.open_hint[rank]) \
                if self.open_hinted[rank] else None
            hint_time = int(self.hint_time[rank])
            hint_value = int(self.hint_value[rank])
            last = int(self.last_time[rank])
            for lineno, f in queue:
                time = f[4] * scale
                if time < last:
                    log.add(nonmonotonic, f"line {lineno}",
                            f"rank {rank} time {time} before {last}")
                    time = last
                last = time
                touched = False
                for i in range(5, len(f), 2):
                    etype, value = f[i], f[i + 1]
                    code = _MPI_CODE.get(etype)
                    if code is None:
                        if etype == EVTYPE_COMM_ID:
                            if open_entry == time:
                                open_hint = value
                            else:
                                hint_time = time
                                hint_value = value
                            touched = True
                        continue
                    touched = True
                    if value > 0:
                        if open_entry >= 0:
                            log.add(AnomalyKind.UNMATCHED_SEND,
                                    f"line {lineno}",
                                    f"rank {rank} region opened at "
                                    f"{open_entry} never closed")
                            rows.append((rank, open_entry, time, open_class,
                                         open_call, open_hint is not None,
                                         open_hint or 0))
                            open_hint = None
                        open_entry = time
                        open_class = code
                        open_call = value
                        if hint_time == time:
                            open_hint = hint_value
                            hint_time = -1
                    elif open_entry < 0:
                        log.add(AnomalyKind.UNMATCHED_RECV, f"line {lineno}",
                                f"rank {rank} close event with no open "
                                f"region")
                    else:
                        rows.append((rank, open_entry, time, open_class,
                                     open_call, open_hint is not None,
                                     open_hint or 0))
                        open_entry = -1
                        open_hint = None
                touched_lines += touched
            self.open_entry[rank] = open_entry
            self.open_class[rank] = open_class
            self.open_call[rank] = open_call
            self.open_hinted[rank] = open_hint is not None
            self.open_hint[rank] = open_hint or 0
            self.hint_time[rank] = hint_time
            self.hint_value[rank] = hint_value
            self.last_time[rank] = last
        self.counters.consumed += touched_lines
        self.counters.ignored += lines - touched_lines
        if rows:
            self._emit(*np.array(rows, dtype=np.int64).T)

    # --- the array paths -------------------------------------------------

    def _messages(self, tok: np.ndarray, f0: np.ndarray,
                  linenos: np.ndarray, senders: np.ndarray,
                  receivers: np.ndarray, queued: list[tuple[int, ...]],
                  ) -> None:
        """Append the block's messages in line order: those of the plain
        communication lines at payload offsets f0, and the queued
        (line, sender, receiver, payload fields 4, 11, 12, 13) ones."""
        cols = [linenos, senders, receivers, tok[f0 + 4], tok[f0 + 11],
                tok[f0 + 12], tok[f0 + 13]]
        if queued:
            more = np.array(queued, dtype=np.int64).T
            order = np.argsort(np.concatenate((linenos, more[0])),
                               kind="stable")
            cols = [np.concatenate((c, m))[order] for c, m in zip(cols, more)]
        linenos, senders, receivers, send, recv, sizes, tags = cols
        if not len(linenos):
            return
        send = send * self.scale    # logical send
        recv = recv * self.scale    # physical receive completion
        flipped = send > recv
        for i in np.flatnonzero(flipped).tolist():
            self.pending.add(
                AnomalyKind.REVERSED_PTP, f"line {linenos[i]}",
                f"send at {send[i]} after receive completion {recv[i]}")
        self.counters.consumed += len(linenos)
        status = np.where(flipped, STATUS_CODES[MessageStatus.FAULTY_LOCAL],
                          STATUS_CODES[MessageStatus.VALID])
        self.trace.messages.extend_columns(senders, receivers, send, recv,
                                           sizes, tags, status)

    def _states(self, tok: np.ndarray, f0: np.ndarray,
                ranks: np.ndarray) -> None:
        """Fold plain state lines into the per-(rank, state) totals."""
        if not len(f0):
            return
        spent = np.maximum((tok[f0 + 5] - tok[f0 + 4]) * self.scale, 0)
        states = tok[f0 + 6]
        order = np.lexsort((states, ranks))
        ranks, states, spent = ranks[order], states[order], spent[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (ranks[1:] != ranks[:-1]) | (states[1:] != states[:-1])
        at = np.flatnonzero(first)
        # summed in 32-bit halves so no int64 sum can overflow
        high = np.add.reduceat(spent >> 32, at).tolist()
        low = np.add.reduceat(spent & 0xFFFFFFFF, at).tolist()
        totals = self.trace.state_time_ns
        for key, hi, lo in zip(zip(ranks[at].tolist(), states[at].tolist()),
                               high, low):
            totals[key] = totals.get(key, 0) + (hi << 32) + lo

    def _events(self, tok: np.ndarray, f0: np.ndarray, ncol: np.ndarray,
                linenos: np.ndarray, ranks: np.ndarray,
                slow: _Queues) -> None:
        """Pair the block's plain event lines into regions, rank by rank.

        A rank's lines take the array path when they continue its cursor
        cleanly: times never decrease, MPI opens and closes strictly
        alternate, each communicator-id companion binds to a region
        opened at its own timestamp (before or after it, one companion
        per region), and no hint is pending that a later open could
        take.  Regions then pair each close with the open before it.
        Other ranks, and ranks with records in slow already, queue their
        lines in slow for the cursor.
        """
        if not len(f0):
            return
        counters = self.counters
        times = tok[f0 + 4] * self.scale
        npairs = (ncol - 5) // 2
        p_line = np.repeat(np.arange(len(f0)), npairs)
        p_at = f0[p_line] + 5 + 2 * (np.arange(len(p_line))
                                     - (np.cumsum(npairs) - npairs)[p_line])
        p_type, p_value = tok[p_at], tok[p_at + 1]
        p_class = np.full(len(p_line), _FOREIGN, dtype=np.int64)
        for etype, code in _MPI_CODE.items():
            p_class[p_type == etype] = code
        p_class[p_type == EVTYPE_COMM_ID] = _HINT
        touched = np.zeros(len(f0), dtype=bool)
        touched[p_line[p_class != _FOREIGN]] = True

        # group g: one rank's lines, in line order
        by_rank = rank_order(ranks, self.meta.rank_count)
        g_start = np.flatnonzero(np.diff(ranks[by_rank], prepend=-1))
        g_rank = ranks[by_rank[g_start]]
        g_count = np.diff(np.append(g_start, len(f0)))
        line_g = np.empty(len(f0), dtype=np.int64)
        line_g[by_rank] = np.repeat(np.arange(len(g_rank)), g_count)
        c_last = self.last_time[g_rank]
        c_open = self.open_entry[g_rank]
        c_pending = self.hint_time[g_rank]
        c_class = self.open_class[g_rank]
        c_call = self.open_call[g_rank]
        c_hinted = self.open_hinted[g_rank]
        c_hint = self.open_hint[g_rank]

        bad = np.isin(g_rank, list(slow))
        g_times = times[by_rank]
        g_of = line_g[by_rank]
        bad[g_of[1:][(g_times[1:] < g_times[:-1])
                     & (g_of[1:] == g_of[:-1])]] = True
        first_time = g_times[g_start]
        bad |= (first_time < c_last) | (c_pending >= first_time)

        # every type/value pair, grouped like the lines
        order = np.argsort(line_g[p_line], kind="stable")
        s_g = line_g[p_line[order]]
        s_class, s_value = p_class[order], p_value[order]
        s_time = times[p_line[order]]
        is_mpi = s_class < _HINT
        m_g, m_time = s_g[is_mpi], s_time[is_mpi]
        m_class, m_value = s_class[is_mpi], s_value[is_mpi]
        m_open = m_value > 0
        same = m_g[1:] == m_g[:-1]
        bad[m_g[1:][same & (m_open[1:] == m_open[:-1])]] = True
        first = np.flatnonzero(np.diff(m_g, prepend=-1))
        bad[m_g[first][m_open[first] == (c_open[m_g[first]] >= 0)]] = True

        m_hinted = np.zeros(len(m_g), dtype=bool)
        m_hint = np.zeros(len(m_g), dtype=np.int64)
        h = np.flatnonzero(s_class == _HINT)
        if len(h):
            h_g, h_time, h_value = s_g[h], s_time[h], s_value[h]
            # the MPI events around each hint, padded with a no-event
            nxt = np.cumsum(is_mpi)[h]
            prev = nxt - 1
            pad_g = np.append(m_g, -1)
            pad_time = np.append(m_time, -1)
            pad_open = np.append(m_open, False)
            has_prev = pad_g[prev] == h_g
            on_prev = has_prev & pad_open[prev] & (pad_time[prev] == h_time)
            on_carried = ~has_prev & (c_open[h_g] == h_time)
            on_next = ~on_prev & ~on_carried & (pad_g[nxt] == h_g) \
                & pad_open[nxt] & (pad_time[nxt] == h_time)
            bad[h_g[~(on_prev | on_carried | on_next)]] = True
            opener = np.where(on_prev, prev, np.where(on_next, nxt, -1 - h_g))
            twice = np.sort(opener)
            twice = twice[1:][twice[1:] == twice[:-1]]
            bad[h_g[np.isin(opener, twice)]] = True
            on_m = on_prev | on_next
            m_hinted[opener[on_m]] = True
            m_hint[opener[on_m]] = h_value[on_m]
            c_hinted[h_g[on_carried]] = True
            c_hint[h_g[on_carried]] = h_value[on_carried]

        good_line = ~bad[line_g]
        counters.consumed += int(np.count_nonzero(touched & good_line))
        counters.ignored += int(np.count_nonzero(~touched & good_line))

        # a region per close; by alternation its open is the MPI event
        # before it, or the rank's carried open for the first one
        close = np.flatnonzero(~m_open & ~bad[m_g])
        opened = close - 1
        r_g = m_g[close]
        in_block = (close > 0) & (m_g[opened] == r_g)
        entry = np.where(in_block, m_time[opened], c_open[r_g])
        exit_ = m_time[close]
        codes = np.where(in_block, m_class[opened], c_class[r_g])
        calls = np.where(in_block, m_value[opened], c_call[r_g])
        hinted = np.where(in_block, m_hinted[opened], c_hinted[r_g])
        hints = np.where(in_block, m_hint[opened], c_hint[r_g])
        self._emit(g_rank[r_g], entry, exit_, codes, calls, hinted, hints)

        # the cursors of the good groups: the open region after their
        # last MPI event, or the carried one with its hint
        good = np.flatnonzero(~bad)
        m_at = np.searchsorted(m_g, np.arange(len(g_rank) + 1))
        last = m_at[1:][good] - 1
        has = last >= m_at[:-1][good]
        r, last = g_rank[good[has]], last[has]
        is_open = m_open[last]
        self.open_entry[r] = np.where(is_open, m_time[last], -1)
        self.open_class[r[is_open]] = m_class[last[is_open]]
        self.open_call[r[is_open]] = m_value[last[is_open]]
        self.open_hinted[r] = is_open & m_hinted[last]
        self.open_hint[r] = m_hint[last]
        carried = good[~has]
        self.open_hinted[g_rank[carried]] = c_hinted[carried]
        self.open_hint[g_rank[carried]] = c_hint[carried]
        self.last_time[g_rank[good]] = \
            g_times[g_start[good] + g_count[good] - 1]
        # none pending, or older than any time ahead
        self.hint_time[g_rank[good]] = -1

        # the bad groups' lines go to the cursor rules
        lines = by_rank[np.repeat(bad, g_count)]
        for r, line, at, n in zip(ranks[lines].tolist(),
                                  linenos[lines].tolist(),
                                  f0[lines].tolist(), ncol[lines].tolist()):
            slow.setdefault(r, []).append((line, tok[at:at + n].tolist()))

    # --- end of stream ---------------------------------------------------

    def finish(self) -> Trace:
        still = np.flatnonzero(self.open_entry >= 0)
        for rank, entry in zip(still.tolist(),
                               self.open_entry[still].tolist()):
            self.log.add(AnomalyKind.UNMATCHED_SEND, f"rank {rank}",
                         f"region opened at {entry} still open at stream end")
        self._emit(still, self.open_entry[still], self.last_time[still],
                   self.open_class[still], self.open_call[still],
                   self.open_hinted[still], self.open_hint[still])
        trace = self.trace
        trace.regions = self._table()
        group_collectives(trace)
        self.counters.anomalies = self.log.total
        return trace

    def _table(self) -> RegionTable:
        """The emitted regions as one rank-major table.  A chunk's rows of
        rank r follow that rank's rows of the chunks before it, so every
        rank keeps its emission order.  The columns are scattered one at a
        time, a chunk at a time, and each is freed once copied."""
        offsets = np.zeros(len(self.region_counts) + 1, dtype=np.int64)
        np.cumsum(self.region_counts, out=offsets[1:])
        fill = offsets[:-1].copy()
        starts = [0]        # first emitted row of each chunk
        shift = []          # per chunk and rank: table row - emitted row
        for ranks, counts in self.chunks:
            shift.append(fill[ranks] + counts - np.cumsum(counts)
                         - starts[-1])
            fill[ranks] += counts
            starts.append(starts[-1] + int(counts.sum()))

        def rows(i: int) -> np.ndarray:
            return np.repeat(shift[i], self.chunks[i][1]) \
                + np.arange(starts[i], starts[i + 1])

        columns = []
        for c, column in enumerate(self.columns):
            values = np.frombuffer(column, dtype=column.typecode)
            out = np.empty(offsets[-1], dtype=values.dtype)
            for i in range(len(self.chunks)):
                out[rows(i)] = values[starts[i]:starts[i + 1]]
            del values
            self.columns[c] = None
            columns.append(out)
        emitted = np.frombuffer(self.hint_rows, dtype=np.int64)
        at = np.searchsorted(emitted, starts)
        hint_rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            rows(i)[emitted[at[i]:at[i + 1]] - starts[i]]
            for i in range(len(self.chunks))])
        order = np.argsort(hint_rows)
        return RegionTable(offsets, *columns, hint_rows[order],
                           np.frombuffer(self.hint_values,
                                         dtype=np.int64)[order])


def parse_pcf_labels(lines: Iterable[str],
                     log: AnomalyLog | None = None) -> dict[tuple[int, int], str]:
    """Read EVENT_TYPE/VALUES blocks of a .pcf into {(type, value): label}.

    On duplicate value lines the last definition wins and an anomaly is
    logged.  Sections other than EVENT_TYPE are skipped wholesale.
    """
    labels: dict[tuple[int, int], str] = {}
    current_types: list[int] = []
    in_values = False
    in_event_type = False
    for n, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("EVENT_TYPE"):
            current_types = []
            in_values = False
            in_event_type = True
            continue
        if upper.startswith("VALUES") and in_event_type:
            in_values = True
            continue
        if line[0].isalpha():
            current_types = []
            in_values = False
            in_event_type = False
            continue
        if not in_event_type:
            continue
        parts = line.split(None, 2)
        if not in_values:
            # "<gradient> <type> <label>" rows naming the event types
            if len(parts) >= 2:
                try:
                    current_types.append(int(parts[1]))
                except ValueError:
                    pass
            continue
        if current_types and len(parts) >= 2:
            try:
                value = int(parts[0])
            except ValueError:
                continue
            label = line.split(None, 1)[1].strip()
            for etype in current_types:
                key = (etype, value)
                if key in labels and log is not None:
                    log.add(AnomalyKind.MALFORMED_RECORD, f"pcf line {n}",
                            f"duplicate label for type {etype} value {value}")
                labels[key] = label
    return labels


def load_trace(path: str, time_unit: TimeUnit | None = None,
               ) -> tuple[Trace, AnomalyLog, IngestCounters]:
    """Stream a .prv file from disk into a Trace."""
    log = AnomalyLog()
    counters = IngestCounters()
    with open(path, "rb") as fh:
        header = fh.readline()
        cr = header.find(b"\r")
        if cr >= 0:     # a text-mode reader ends the line there too
            fh.seek(cr + 1 + (header[cr + 1:cr + 2] == b"\n"))
            header = header[:cr]
        meta = parse_header(header.decode("utf-8", "replace"),
                            time_unit=time_unit,
                            source_name=os.path.basename(path))
        trace, log = build_trace(fh, meta, log, counters)
    return trace, log, counters


def load_labels(prv_path: str) -> dict[tuple[int, int], str]:
    """Labels from the .pcf sitting next to a .prv, if there is one."""
    pcf = os.path.splitext(prv_path)[0] + ".pcf"
    if not os.path.exists(pcf):
        return {}
    with open(pcf, "r", encoding="utf-8", errors="replace") as fh:
        return parse_pcf_labels(fh)
