"""Reading Paraver .prv traces.

The trace body is read in blocks of about BLOCK_SIZE bytes, each cut at
its last newline, so ingest memory stays proportional to one block plus
the model it builds, never to the file.  numpy classifies the lines of a
block from one scan for the bytes that are not digits: the positions of
the colons, newlines and odd bytes give every line's bounds, field count
and field lengths.  The plain lines -- state, event and communication
records made of digit fields and colons only, with the field count of
their kind -- are converted together in one np.fromstring call over the
block, with its other lines cut out and its newlines made colons, read
as colon-separated uint64: a plain line's fields have at most 18
digits, so every value is below 10**18 and has the bits of its int64
value.  Every other line (comments, communicator definitions, blank,
garbled or oversized lines, signs, underscores, a lone carriage return,
non-ASCII bytes) goes through the per-line rules of iter_raw_records on its
decoded text, one pass per run of such lines.  The records these accept
join the block's arrays as rows of their own, in line order, so one
coordinate rule decodes every record's appl:task:thread on arrays.

Each rank's open-region state (its cursor) lives in per-rank numpy
columns.  A block's event rows are grouped by rank with one radix sort
and continue their ranks' cursors on arrays, for all ranks at once: the
monotonic clamp, the alternation of opens and closes with its anomalies,
and the binding of communicator-id companions are each a few array
formulas, so counters, regions and anomaly entries, in line order, are
those of a record-at-a-time reader.  Each type/value pair is classed by
its type's offset from EVTYPE_P2P.  Every block emits its regions, each
tagged with its rank; at the end of the stream one stable sort by rank
turns them into the rank-major RegionTable, so each rank keeps its
regions in emission order.  So a block costs one np.fromstring, one
scan of its bytes and a fixed number of numpy calls over its lines,
whatever its rank count, plus one running maximum per rank whose time
steps back.

Only MPI event types, communication records and communicator definitions
feed the model.  State records are counted and their coordinates checked
like any record's; nothing else reads them.  A communication record's
tag is not kept, since no rule reads it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from .model import (
    AnomalyKind,
    AnomalyLog,
    CLASS_CODES,
    CallClass,
    CommunicatorDef,
    MessageStatus,
    MessageStore,
    RegionTable,
    STATUS_CODES,
    TimeUnit,
    Trace,
    TraceMeta,
    group_collectives,
    rank_order,
    stream_end_faults,
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


#: Most ranks a header may declare.  Ingest and replay keep a few int64
#: columns per rank, allocated before the first record is read, so a
#: larger count is refused as malformed rather than allocated.
MAX_RANK_COUNT = 1 << 24


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

    # a unit the header states wins; time_unit applies to a bare duration
    dur_text = parts[0].strip()
    unit = time_unit or TimeUnit.NANOSECONDS
    if dur_text.endswith("_ns"):
        dur_text, unit = dur_text[:-3], TimeUnit.NANOSECONDS
    elif dur_text.endswith("_us"):
        dur_text, unit = dur_text[:-3], TimeUnit.MICROSECONDS
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
    if rank_count > MAX_RANK_COUNT:
        raise IngestError(f"line 1: {rank_count} ranks declared, at most "
                          f"{MAX_RANK_COUNT} supported")

    return TraceMeta(total_duration_ns=duration * _scale(unit),
                     rank_count=rank_count, time_unit=unit,
                     source_name=source_name, flat_rank_encoding=flat)


_KIND_BY_PREFIX = {"1": RecordKind.STATE, "2": RecordKind.EVENT,
                   "3": RecordKind.COMMUNICATION}
#: a record's kind as the first byte of its line
_KIND_BYTE = {kind: ord(prefix) for prefix, kind in _KIND_BY_PREFIX.items()}

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
                     counters: IngestCounters,
                     first_line_number: int = 2,
                     scale: int = 1) -> Iterator[RawRecord]:
    """Yield well-formed records; malformed lines go to the anomaly log.

    These are the per-line rules.  load_trace applies them to the lines
    its block tokenizer leaves alone, with scale the trace's factor to
    nanoseconds, so a time that would leave int64 once scaled is caught
    here too.
    """
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
        yield RawRecord(kind, fields, lineno)


#: Bytes read per block.  A block ends at its last newline; the partial
#: line after it opens the next block.
BLOCK_SIZE = 1 << 19

# byte values the block classifier looks at
_NL, _CR, _COLON, _ZERO = 10, 13, 58, 48
_STATE_BYTE, _EVENT_BYTE, _COMM_BYTE = 49, 50, 51       # "1", "2", "3"
# Classes of an event's type/value pair: the CLASS_CODES 0..2 of the MPI
# types, then a companion, then any other type.  The types run in that
# order from EVTYPE_P2P, so a pair's class is its type's offset from
# EVTYPE_P2P, capped at _FOREIGN.
_HINT = 3
_FOREIGN = 4
assert all(_MPI_CODE[EVTYPE_P2P + c] == c for c in range(_HINT)) \
    and EVTYPE_COMM_ID == EVTYPE_P2P + _HINT


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


def build_trace(stream: BinaryIO, meta: TraceMeta, log: AnomalyLog,
                counters: IngestCounters) -> tuple[Trace, AnomalyLog]:
    """Assemble the trace model from a .prv body, read as bytes from
    stream; its first line is line 2, after the header.

    Event pairing is per rank: a positive MPI value opens a region, zero
    closes it.  A second open closes the dangling region where the new one
    starts; a close without an open is logged and dropped; regions still
    open at stream end close at the rank's last observed timestamp.  At
    the end, every communicator definition with empty, duplicate or
    out-of-range members is logged, and so is a header duration short of
    the last region exit.
    Non-monotonic event timestamps are clamped so the offending duration
    collapses to zero.  Microsecond traces are scaled to nanoseconds here.
    Lines are numbered as a text-mode reader numbers them: a carriage
    return not followed by a newline ends a line too.
    """
    asm = _Assembly(meta, log, counters)
    lineno = 2
    for block in _blocks(stream, BLOCK_SIZE):
        lineno = asm.block(block, lineno)
    return asm.finish(), log


class _Column:
    """A numpy column that grows by appends, into spare room that doubles
    when it runs out, so a long stream of appends copies each value a
    few times at most."""

    def __init__(self, dtype) -> None:
        self.data = np.empty(1 << 12, dtype=dtype)
        self.size = 0

    def extend(self, values: np.ndarray) -> None:
        end = self.size + len(values)
        if end > len(self.data):
            grown = np.empty(max(end, 2 * len(self.data)), dtype=self.data.dtype)
            grown[:self.size] = self.data[:self.size]
            self.data = grown
        self.data[self.size:end] = values
        self.size = end

    def values(self) -> np.ndarray:
        return self.data[:self.size]


class _Assembly:
    """The model under construction and each rank's cursor, which carry
    from one block to the next.

    The cursors are per-rank columns: the entry time of the open region
    (-1: none), its class code and communicator hint; the
    time (-1: none) and value of a hint waiting for a region opened at
    its timestamp; and the last event time.  Times here are never
    negative: they start at 0 and are clamped to never decrease.
    _events applies the cursor rules to every event line of a block.

    Closed regions are emitted onto growing columns in emission order,
    their ranks onto one more, and finish sorts the columns by rank into
    one rank-major RegionTable.  Messages grow columns of their own, in
    line order, which finish hands to the MessageStore.
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
        self.open_hinted = np.zeros(P, dtype=bool)
        self.open_hint = np.zeros(P, dtype=np.int64)
        self.hint_time = np.full(P, -1, dtype=np.int64)
        self.hint_value = np.zeros(P, dtype=np.int64)
        self.last_time = np.zeros(P, dtype=np.int64)
        # rank, in the narrowest type that holds P - 1; entry, exit,
        # class code; the hinted rows and their hints
        self.columns = [_Column(np.min_scalar_type(max(P - 1, 0))),
                        _Column(np.int64), _Column(np.int64),
                        _Column(np.uint8)]
        self.hint_rows = _Column(np.int64)
        self.hint_values = _Column(np.int64)
        # sender, receiver, send begin, receive end, size; status code
        self.messages = [_Column(np.int64) for _ in range(5)] \
            + [_Column(np.uint8)]
        # the current block's anomalies, moved to log in line order
        self.pending = AnomalyLog()

    def _emit(self, rank: np.ndarray, entry: np.ndarray, exit_: np.ndarray,
              codes: np.ndarray, hinted: np.ndarray,
              hints: np.ndarray) -> None:
        """Closed regions as columns, each rank's in entry order;
        hints[i] is region i's hint where hinted[i] is set."""
        at = np.flatnonzero(hinted)
        for column, values in (
                (self.hint_rows, at + self.columns[0].size),
                (self.hint_values, hints[at]),
                *zip(self.columns, (rank, entry, exit_, codes))):
            column.extend(values)

    # --- one block -------------------------------------------------------

    def block(self, data: bytes, lineno: int) -> int:
        """Ingest a newline-terminated block whose first line is lineno;
        returns the number of the line after it."""
        first_line = lineno
        if b"\r" in data:
            # a text-mode reader reads \r\n as \n and a lone \r as a
            # line end of its own; only the latter changes the numbering
            data = data.replace(b"\r\n", b"\n")
        a = np.frombuffer(data, dtype=np.uint8)
        starts, ends, plain, kinds, ncol = self._classify(a)
        n = len(ends)
        linenos = lineno + np.arange(n)
        if b"\r" in data:
            breaks = np.bincount(np.searchsorted(ends, np.flatnonzero(a == _CR)),
                                 minlength=n)
            linenos += np.cumsum(breaks) - breaks
            lineno += int(breaks.sum())
        # runs of adjacent lines that are not plain: first and last line
        routed = np.flatnonzero(~plain)
        cut = np.flatnonzero(np.diff(routed) != 1)
        runs = list(zip(routed[np.append(0, cut + 1)].tolist(),
                        routed[np.append(cut, -1)].tolist())) \
            if len(routed) else []
        records = self._per_line(data, starts, ends, linenos, runs)

        p = np.flatnonzero(plain)
        # from here on, one row per record, the plain lines' first
        kind, ncol, linenos = kinds[p], ncol[p], linenos[p]
        f0 = np.cumsum(ncol + 1) - ncol     # token of payload field 0
        tok = self._tokens(data, starts, ends, runs, int(f0[-1] + ncol[-1])
                           if len(p) else 0, first_line)
        states = int(np.count_nonzero(kind == _STATE_BYTE))
        self.counters.records += len(p) - states
        if records:
            width = [len(rec.fields) for rec in records]
            f0 = np.append(f0, len(tok) + np.cumsum(width) - width)
            tok = np.append(tok, [v for rec in records for v in rec.fields])
            ncol = np.append(ncol, width)
            kind = np.append(kind, [_KIND_BYTE[rec.kind] for rec in records])
            linenos = np.append(linenos,
                                [rec.line_number for rec in records])
            order = np.argsort(linenos, kind="stable")
            kind, ncol, linenos, f0 = (c[order] for c in (kind, ncol,
                                                          linenos, f0))
        comm = np.flatnonzero(kind == _COMM_BYTE)
        rank, recv_rank, ok = self._coords(tok, f0, comm, linenos)
        # a rejected state row is only logged
        self.counters.dropped += int(np.count_nonzero(
            ~ok[kind != _STATE_BYTE]))

        good = ok[comm]
        sel = comm[good]
        self._messages(tok, f0[sel], linenos[sel], rank[sel], recv_rank[good])
        sel = np.flatnonzero(ok & (kind == _EVENT_BYTE))
        self._events(tok, f0[sel], ncol[sel], linenos[sel], rank[sel])

        if self.pending.entries:
            self.pending.entries.sort(key=_entry_line)
            self.log.extend(self.pending)
            self.pending = AnomalyLog()
        return lineno + n

    def _classify(self, a: np.ndarray) -> tuple[np.ndarray, ...]:
        """Start, end (its newline), plain flag, first byte and colon count
        of each line of block a.

        A plain line is a state, event or communication record of
        non-empty digit fields joined by colons, with the field count of
        its kind, and short enough integers that every value, and every
        time once scaled to ns, fits in int64.  One scan finds every byte
        that is not a digit -- colons, newlines and odd bytes -- and the
        rest is read off those positions.
        """
        seps = np.flatnonzero(np.subtract(a, _ZERO, dtype=np.uint8) > 9)
        sep_bytes = a[seps]
        nl_at = np.flatnonzero(sep_bytes == _NL)    # line i ends at seps[nl_at[i]]
        ends = seps[nl_at]
        starts = np.empty_like(ends)
        starts[:1] = 0
        starts[1:] = ends[:-1] + 1
        ncol = np.diff(nl_at, prepend=-1) - 1
        # the token ending at seps[j] has short[j] + 1 bytes
        short = np.empty_like(seps)
        short[:1] = seps[:1] + 1
        np.subtract(seps[1:], seps[:-1], out=short[1:])
        short -= 2
        digits = 18 if self.scale == 1 else 15
        plain = np.ones(len(ends), dtype=bool)
        # an empty token wraps round to the largest unsigned value
        plain[np.searchsorted(nl_at, np.flatnonzero(
            short.view(np.uint64) >= digits))] = False
        plain &= short[nl_at - ncol] == 0   # a one-byte first field
        if len(seps) - len(ends) != np.count_nonzero(sep_bytes == _COLON):
            odd = seps[(sep_bytes != _COLON) & (sep_bytes != _NL)]
            plain[np.searchsorted(ends, odd)] = False
        del seps, sep_bytes, short
        kinds = a[starts]
        plain &= (((kinds == _EVENT_BYTE) & (ncol >= _EVENT_MIN) & (ncol % 2 == 1))
                  | ((kinds == _COMM_BYTE) & (ncol == _COMM_LEN))
                  | ((kinds == _STATE_BYTE) & (ncol == _STATE_LEN)))
        return starts, ends, plain, kinds, ncol

    def _per_line(self, data: bytes, starts: np.ndarray, ends: np.ndarray,
                  linenos: np.ndarray, runs: list[tuple[int, int]],
                  ) -> list[RawRecord]:
        """Records of the lines that are not plain, by the per-line rules
        on their text, one pass of the rules per run of such lines;
        communicator definitions are applied as they come."""
        records: list[RawRecord] = []
        for first, last in runs:
            text = data[starts[first]:ends[last]].decode("utf-8", "replace")
            # a lone \r left in them ends a line too
            lines = text.replace("\r", "\n").split("\n")
            self.counters.routed += len(lines)
            for rec in iter_raw_records(lines, self.pending, self.counters,
                                        int(linenos[first]), self.scale):
                f = rec.fields
                if rec.kind is not RecordKind.COMMUNICATOR_DEF:
                    records.append(rec)
                elif len(f) < 3 or len(f) != 3 + f[2]:
                    self.pending.add(AnomalyKind.MALFORMED_RECORD,
                                     f"line {rec.line_number}",
                                     "communicator definition length mismatch")
                else:
                    self.trace.communicators[f[1]] = CommunicatorDef(
                        f[1], [t - 1 for t in f[3:]])
        return records

    def _tokens(self, data: bytes, starts: np.ndarray, ends: np.ndarray,
                runs: list[tuple[int, int]], expected: int,
                lineno: int) -> np.ndarray:
        """Every integer of the plain lines, in line order, in one call:
        the block with the runs of other lines cut out, each with its
        newline, and the other newlines made colons.  What is parsed is
        then digit fields and colons only, and a plain line's fields are
        at most 18 digits, so each reads as uint64 with the bits of its
        int64 value.  Blanked runs would not do: numpy reads whitespace
        between two colons, or after the last, as an extra 0."""
        if not expected:
            return np.empty(0, dtype=np.int64)
        if runs:
            view, kept, at = memoryview(data), [], 0
            for first, last in runs:
                kept.append(view[at:starts[first]])
                at = ends[last] + 1
            kept.append(view[at:])
            data = b"".join(kept)
        tok = np.fromstring(data.replace(b"\n", b":"), dtype=np.uint64,
                            sep=":").view(np.int64)
        if len(tok) != expected:
            raise IngestError(f"line {lineno}: block tokenizer read "
                              f"{len(tok)} of {expected} integers")
        return tok

    def _coords(self, tok: np.ndarray, f0: np.ndarray, comm: np.ndarray,
                linenos: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coordinate rule, on every row at once: the rank that each
        row's appl:task:thread (payload fields 1-3) addresses, that of
        each communication row comm's receiver (fields 7-9), and whether
        the row is kept.  An application other than 1, or a second thread
        of a rank, is logged and rejects the row; a rank out of range
        raises IngestError, the first in line order, a line's sender
        before its receiver."""
        n = len(f0)
        row = np.concatenate((np.arange(n), comm))
        at = np.concatenate((f0, f0[comm] + 6)) + 1
        appl, task, thread = tok[at], tok[at + 1], tok[at + 2]
        if self.meta.flat_rank_encoding:
            rank, other = thread - 1, task
        else:
            rank, other = task - 1, thread
        fine = (appl == 1) & (other == 1)
        out = np.flatnonzero(fine & ((rank < 0)
                                     | (rank >= self.meta.rank_count)))
        if len(out):
            j = out[np.argmin(2 * row[out] + (out >= n))]
            raise IngestError(f"line {linenos[row[j]]}: "
                              f"rank index {rank[j]} out of range")
        bad = np.flatnonzero(~fine)
        for line, appl_j in zip(linenos[row[bad]].tolist(),
                                appl[bad].tolist()):
            self.pending.add(AnomalyKind.MALFORMED_RECORD, f"line {line}",
                             f"application {appl_j} out of range"
                             if appl_j != 1 else
                             "record addresses a second thread of a rank")
        ok = fine[:n].copy()
        ok[comm] &= fine[n:]
        return rank[:n], rank[n:], ok

    # --- the array paths -------------------------------------------------

    def _messages(self, tok: np.ndarray, f0: np.ndarray,
                  linenos: np.ndarray, senders: np.ndarray,
                  receivers: np.ndarray) -> None:
        """Append the block's messages, the communication rows at payload
        offsets f0 of tok, in line order."""
        if not len(linenos):
            return
        send = tok[f0 + 4] * self.scale     # logical send
        recv = tok[f0 + 11] * self.scale    # physical receive completion
        sizes = tok[f0 + 12]
        flipped = send > recv
        for i in np.flatnonzero(flipped).tolist():
            self.pending.add(
                AnomalyKind.REVERSED_PTP, f"line {linenos[i]}",
                f"send at {send[i]} after receive completion {recv[i]}")
        self.counters.consumed += len(linenos)
        status = np.where(flipped, STATUS_CODES[MessageStatus.FAULTY_LOCAL],
                          STATUS_CODES[MessageStatus.VALID])
        for column, values in zip(self.messages, (senders, receivers, send,
                                                  recv, sizes, status)):
            column.extend(values)

    def _events(self, tok: np.ndarray, f0: np.ndarray, ncol: np.ndarray,
                linenos: np.ndarray, ranks: np.ndarray) -> None:
        """Pair the block's event rows into regions by the cursor rules,
        on arrays, for all ranks at once: the rows at payload offsets f0
        of tok, in line order.

        Each rank's lines continue its cursor in line order, and each
        line's type/value pairs in pair order:
        - a time before the rank's latest is logged and clamped to it;
        - an MPI event that follows an open ends the region that open
          began, and a second open logs that region as never closed; a
          close that follows no open is logged and dropped;
        - a communicator-id companion binds to the region open before it
          if that region opened at its time, the last binding winning;
          any other companion waits, replacing the rank's waiting one,
          and an open at its time takes it unless another open comes
          first.
        A line logs its clamp first, then its MPI events in pair order,
        as a record-at-a-time reader does.
        """
        order = rank_order(ranks, self.meta.rank_count)
        f0, ncol, linenos, ranks = (c[order] for c in (f0, ncol, linenos,
                                                       ranks))
        n = len(f0)
        if not n:
            return
        log = self.pending
        times = tok[f0 + 4]
        if self.scale != 1:
            times *= self.scale

        # group g: one rank's lines, in line order
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(ranks[1:], ranks[:-1], out=head[1:])
        g_start = np.flatnonzero(head)
        g_rank = ranks[g_start]
        G = len(g_rank)
        line_g = np.cumsum(head) - 1

        # the clamp: before[i] is the latest time of line i's rank before
        # it, a running maximum over the ranks that step back
        before = np.empty(n, dtype=np.int64)
        before[1:] = times[:-1]
        before[g_start] = self.last_time[g_rank]
        back = times < before
        if back.any():
            stepped = np.zeros(G, dtype=bool)
            stepped[line_g[back]] = True
            g_end = np.append(g_start[1:], n)
            for lo, hi in zip(g_start[stepped].tolist(),
                              g_end[stepped].tolist()):
                before[lo + 1:hi] = np.maximum.accumulate(
                    np.maximum(times[lo:hi - 1], before[lo]))
            for i in np.flatnonzero(times < before).tolist():
                log.add(AnomalyKind.NONMONOTONIC_TIMESTAMP,
                        f"line {linenos[i]}",
                        f"rank {ranks[i]} time {times[i]} before {before[i]}")
            np.maximum(times, before, out=times)
        del head, before, back

        # every type/value pair, in line order, classed by its type
        npairs = (ncol - 5) >> 1
        p_first = np.cumsum(npairs) - npairs    # each line's first pair
        p_line = np.repeat(np.arange(n), npairs)
        p_at = (f0 + 5 - 2 * p_first)[p_line] + 2 * np.arange(len(p_line))
        p_value = tok[p_at + 1]
        # a type below EVTYPE_P2P wraps round to a large unsigned offset
        p_class = np.minimum((tok[p_at] - EVTYPE_P2P).view(np.uint64),
                             _FOREIGN).view(np.int64)
        touched = np.zeros(n, dtype=bool)
        touched[p_line[p_class != _FOREIGN]] = True
        consumed = int(np.count_nonzero(touched))
        self.counters.consumed += consumed
        self.counters.ignored += n - consumed

        # The MPI events m.  Slot g holds group g's carried cursor and
        # slot G + k MPI event k; was[k], the slot before MPI event k, is
        # its rank's last open or close, and if an open, k ends a region.
        m = np.flatnonzero(p_class < _HINT)
        m_line = p_line[m]
        m_g, m_time, m_open = line_g[m_line], times[m_line], p_value[m] > 0
        c_open = self.open_entry[g_rank]
        s_time = np.concatenate((c_open, m_time))
        s_open = np.concatenate((c_open >= 0, m_open))
        s_class = np.concatenate((self.open_class[g_rank], p_class[m]))
        s_hinted = np.concatenate((self.open_hinted[g_rank],
                                   np.zeros(len(m), dtype=bool)))
        s_hint = np.concatenate((self.open_hint[g_rank],
                                 np.zeros(len(m), dtype=np.int64)))
        was = G - 1 + np.arange(len(m))
        first = np.flatnonzero(np.diff(m_g, prepend=-1))
        was[first] = m_g[first]

        # the companions h bind to the region open before them if it
        # opened at their time; the others wait, after each rank's
        # carried waiting one at its first pair
        h = np.flatnonzero(p_class == _HINT)
        h_line = p_line[h]
        h_g, h_time, h_value = line_g[h_line], times[h_line], p_value[h]
        nxt = np.searchsorted(m, h)
        h_slot = np.where(np.append(m_g, -1)[nxt - 1] == h_g, G + nxt - 1,
                          h_g)
        binds = s_open[h_slot] & (s_time[h_slot] == h_time)
        carried = np.flatnonzero(self.hint_time[g_rank] >= 0)
        waits = ~binds
        if len(carried) or waits.any():
            w_pos, w_g, w_time, w_value = (np.concatenate(c) for c in (
                (p_first[g_start[carried]], h[waits]), (carried, h_g[waits]),
                (self.hint_time[g_rank[carried]], h_time[waits]),
                (self.hint_value[g_rank[carried]], h_value[waits])))
            by_pos = np.argsort(w_pos, kind="stable")
            w_pos, w_g, w_time, w_value = (c[by_pos] for c in (
                w_pos, w_g, w_time, w_value))
            # an open takes the latest waiting companion before it, if
            # that is of its rank and time and no other open came between
            o = np.flatnonzero(m_open)
            w_opens = np.append(0, np.cumsum(m_open))[
                np.searchsorted(m, w_pos)]
            at = np.searchsorted(w_pos, m[o], side="right") - 1
            took = (at >= 0) & (w_g[at] == m_g[o]) \
                & (w_time[at] == m_time[o]) \
                & (w_opens[at] == np.arange(len(o)))
            s_hinted[G + o[took]] = True
            s_hint[G + o[took]] = w_value[at[took]]
            # each rank's cursor: its latest waiting companion, unless an
            # open took it
            taken = np.zeros(len(w_pos), dtype=bool)
            taken[at[took]] = True
            tail = np.ones(len(w_g), dtype=bool)
            tail[:-1] = w_g[1:] != w_g[:-1]
            self.hint_time[g_rank[w_g[tail]]] = np.where(taken[tail], -1,
                                                         w_time[tail])
            self.hint_value[g_rank[w_g[tail]]] = w_value[tail]
        del p_line, p_first, p_at, p_value, p_class, touched

        # then each region takes its last binding companion
        b_slot, b_value = h_slot[binds], h_value[binds]
        last = np.ones(len(b_slot), dtype=bool)
        last[:-1] = b_slot[1:] != b_slot[:-1]
        s_hinted[b_slot[last]] = True
        s_hint[b_slot[last]] = b_value[last]

        was_open = s_open[was]
        odd = np.flatnonzero(m_open == was_open)
        for line, rank, opens, entry in zip(
                linenos[m_line[odd]].tolist(), g_rank[m_g[odd]].tolist(),
                m_open[odd].tolist(), s_time[was[odd]].tolist()):
            if opens:
                log.add(AnomalyKind.UNMATCHED_SEND, f"line {line}",
                        f"rank {rank} region opened at {entry} never closed")
            else:
                log.add(AnomalyKind.UNMATCHED_RECV, f"line {line}",
                        f"rank {rank} close event with no open region")
        ends = np.flatnonzero(was_open)
        src = was[ends]
        self._emit(g_rank[m_g[ends]], s_time[src], m_time[ends], s_class[src],
                   s_hinted[src], s_hint[src])

        # the cursors: each rank's last slot and its latest time
        m_at = np.searchsorted(m_g, np.arange(G + 1))
        final = np.where(m_at[1:] > m_at[:-1], G + m_at[1:] - 1,
                         np.arange(G))
        is_open = s_open[final]
        self.open_entry[g_rank] = np.where(is_open, s_time[final], -1)
        self.open_class[g_rank] = s_class[final]
        self.open_hinted[g_rank] = is_open & s_hinted[final]
        self.open_hint[g_rank] = s_hint[final]
        self.last_time[g_rank] = times[np.append(g_start[1:], n) - 1]

    # --- end of stream ---------------------------------------------------

    def finish(self) -> Trace:
        still = np.flatnonzero(self.open_entry >= 0)
        for rank, entry in zip(still.tolist(),
                               self.open_entry[still].tolist()):
            self.log.add(AnomalyKind.UNMATCHED_SEND, f"rank {rank}",
                         f"region opened at {entry} still open at stream end")
        self._emit(still, self.open_entry[still], self.last_time[still],
                   self.open_class[still], self.open_hinted[still],
                   self.open_hint[still])
        trace = self.trace
        trace.regions = self._table()
        trace.messages = MessageStore(*(c.values() for c in self.messages))
        group_collectives(trace)
        for _, location, detail in stream_end_faults(trace):
            self.log.add(AnomalyKind.MALFORMED_RECORD, location, detail)
        self.counters.anomalies = self.log.total
        return trace

    def _table(self) -> RegionTable:
        """The emitted regions as one rank-major table: a stable sort by
        rank keeps every rank's regions in emission order.  The columns
        are gathered one at a time, and each is freed once gathered."""
        P = self.meta.rank_count
        ranks = self.columns.pop(0).values()
        order = rank_order(ranks, P)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(ranks,
                                                             minlength=P))))
        hinted = np.zeros(len(order), dtype=bool)
        hinted[self.hint_rows.values()] = True
        hint_rows = np.flatnonzero(hinted[order])
        # the hints in the same stable order by rank as their rows
        hint_values = self.hint_values.values()[
            rank_order(ranks[self.hint_rows.values()], P)]
        del hinted, ranks
        columns = []
        while self.columns:
            columns.append(self.columns.pop(0).values()[order])
        return RegionTable(offsets, *columns, hint_rows, hint_values)


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
