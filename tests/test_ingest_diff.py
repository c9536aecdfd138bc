"""Differential test of the block reader against the record-at-a-time
reference in tests/ref_ingest.py, on a seeded corpus of mutated
generator output.  Every store column, communicator, counter and
anomaly entry (in order) must match, at the default block size and at
one of a few lines, where many lines straddle two blocks."""

from __future__ import annotations

import random

import pytest

from paraslice import MpiRegion, PtpMessage, Trace, prv
from paraslice.model import STATUS_CODES, AnomalyKind
from paraslice.prv import IngestError, load_trace
from paraslice.synth import (ComputeSpec, PhaseSpec, Scenario,
                             generate_to_files)

from conftest import region_lists
from ref_ingest import load_reference, snapshot
from scenarios import random_scenario

MPI_TYPES = (b"50000001", b"50000002", b"50000003")
COMM_ID = b"50000004"
MUTATORS = []


def mutator(fn):
    MUTATORS.append(fn)
    return fn


def _pick(rng, lines, prefix=b""):
    """Index of a random line starting with prefix, or None."""
    idx = [i for i, ln in enumerate(lines) if ln.startswith(prefix)]
    return rng.choice(idx) if idx else None


def _set_field(line: bytes, k: int, value: bytes) -> bytes:
    parts = line.split(b":")
    if k < len(parts):
        parts[k] = value
    return b":".join(parts)


@mutator
def drop(rng, lines):
    del lines[rng.randrange(len(lines))]


@mutator
def duplicate(rng, lines):
    i = rng.randrange(len(lines))
    lines.insert(rng.randrange(i, len(lines) + 1), lines[i])


@mutator
def swap(rng, lines):
    i = rng.randrange(len(lines))
    j = min(len(lines) - 1, i + rng.choice((1, 1, 2, 7)))
    lines[i], lines[j] = lines[j], lines[i]


@mutator
def time_back(rng, lines):
    i = _pick(rng, lines, b"2:")
    if i is not None:
        t = int(lines[i].split(b":")[5])
        lines[i] = _set_field(lines[i], 5,
                              b"%d" % max(0, t - rng.randint(1, 5000)))


@mutator
def double_open(rng, lines):
    i = _pick(rng, lines, b"2:")
    if i is not None:
        head = b":".join(lines[i].split(b":")[:6])
        lines.insert(i + 1, head + b":" + rng.choice(MPI_TYPES) + b":3")


@mutator
def stray_close(rng, lines):
    i = _pick(rng, lines, b"2:")
    if i is not None:
        head = b":".join(lines[i].split(b":")[:6])
        lines.insert(rng.choice((i, i + 1)),
                     head + b":" + rng.choice(MPI_TYPES) + b":0")


@mutator
def no_final_newline(rng, lines):
    lines.final_newline = False


@mutator
def truncate(rng, lines):
    if lines[-1]:
        lines[-1] = lines[-1][:rng.randrange(len(lines[-1]))]
    lines.final_newline = False


@mutator
def garble(rng, lines):
    i = rng.randrange(len(lines))
    k = rng.randrange(1 + lines[i].count(b":"))
    lines[i] = _set_field(lines[i], k, rng.choice(
        (b"", b"x", b"1x", b" 5", b"5 ", b"0x10", b"1e3", b"1" + b"0" * 18)))


@mutator
def signs(rng, lines):
    i = rng.randrange(len(lines))
    parts = lines[i].split(b":")
    k = rng.randrange(1, len(parts)) if len(parts) > 1 else 0
    field = parts[k]
    if len(field) > 1 and rng.random() < 0.4:
        cut = rng.randrange(1, len(field))
        parts[k] = field[:cut] + b"_" + field[cut:]
    else:
        parts[k] = rng.choice((b"+", b"-", b" -")) + field
    lines[i] = b":".join(parts)


@mutator
def blank(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1),
                 rng.choice((b"", b"   ", b"\t", b"\x0c")))


@mutator
def crlf(rng, lines):
    for i in rng.sample(range(len(lines)), min(len(lines), 5)):
        lines[i] += b"\r"


@mutator
def lone_cr(rng, lines):
    i = rng.randrange(len(lines))
    if rng.random() < 0.5 and i + 1 < len(lines):
        lines[i:i + 2] = [lines[i] + b"\r" + lines[i + 1]]
    else:
        at = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:at] + rng.choice((b"\r", b"\r\r")) + lines[i][at:]


@mutator
def non_utf8(rng, lines):
    i = rng.randrange(len(lines))
    at = rng.randrange(len(lines[i]) + 1)
    lines[i] = lines[i][:at] + rng.choice(
        (b"\xff", b"\xc3", b"\xe2\x82", b"\xc3\xa9", b"\x00")) + lines[i][at:]


@mutator
def unknown_kind(rng, lines):
    i = rng.randrange(len(lines))
    if rng.random() < 0.5:
        lines.insert(i, b"9:1:1:1:1:10:1:1")
    else:
        lines[i] = rng.choice((b"4", b"x", b"12", b"C", b"")) \
            + lines[i][1:]


@mutator
def second_thread(rng, lines):
    i = _pick(rng, lines, rng.choice((b"2:", b"3:")))
    if i is not None:
        k, v = rng.choice(((4, b"2"), (2, b"2"), (8, b"3"), (10, b"2")))
        lines[i] = _set_field(lines[i], k, v)


@mutator
def reverse_message(rng, lines):
    i = _pick(rng, lines, b"3:")
    if i is not None:
        f = lines[i].split(b":")
        if len(f) == 15:
            f[5], f[6], f[11], f[12] = f[11], f[12], f[5], f[6]
            f[5] = b"%d" % (int(f[5]) + 1)
            lines[i] = b":".join(f)


@mutator
def hint_moves(rng, lines):
    """Split an open and its comm-id companion onto two lines, in either
    order, or move the companion to another time."""
    idx = [i for i, ln in enumerate(lines) if ln.startswith(b"2:")
           and COMM_ID in ln and ln.count(b":") >= 9]
    if not idx:
        return
    i = rng.choice(idx)
    parts = lines[i].split(b":")
    head, pairs = parts[:6], parts[6:]
    hint = [p for p in zip(pairs[::2], pairs[1::2]) if p[0] == COMM_ID]
    rest = [p for p in zip(pairs[::2], pairs[1::2]) if p[0] != COMM_ID]
    if rng.random() < 0.3:
        head = head[:5] + [b"%d" % (int(head[5]) + rng.choice((-1, 1)))]
    hint_line = b":".join(head + [x for p in hint for x in p])
    rest_line = b":".join(parts[:6] + [x for p in rest for x in p])
    lines[i:i + 1] = [hint_line, rest_line] if rng.random() < 0.5 \
        else [rest_line, hint_line]


@mutator
def extra_records(rng, lines):
    """Comments, states, foreign-only events and long zero-padded
    integers, all legal."""
    i = rng.randrange(len(lines) + 1)
    lines.insert(i, rng.choice((
        b"# a comment",
        b"1:1:1:1:1:%d:%d:%d" % (rng.randint(0, 99), rng.randint(0, 199),
                                 rng.randint(0, 3)),
        b"1:2:1:2:1:50:10:1",
        b"2:1:1:1:1:%d:12345:7" % rng.randint(0, 99),
        b"2:1:1:1:1:" + b"0" * 20 + b"5:12345:7",
    )))


@mutator
def rank_out_of_range(rng, lines):
    i = _pick(rng, lines, rng.choice((b"2:", b"3:", b"1:")))
    if i is not None:
        lines[i] = _set_field(lines[i], 3, b"99")


class Body(list):
    """Trace body lines, without their newlines."""
    final_newline = True


def corpus_file(path, seed: int, mutators) -> None:
    """Write case seed's generated trace, bent by mutators, to path."""
    rng = random.Random(seed)
    scenario = random_scenario(rng, max_ranks=6, max_phases=3)
    generate_to_files(scenario, path)
    header, *rest = path.read_bytes().split(b"\n")
    lines = Body(rest[:-1] if rest and rest[-1] == b"" else rest)
    if rng.random() < 0.2:
        header = header.replace(b"_ns:", b"_us:", 1)
    for mutate in mutators:
        if lines:
            mutate(rng, lines)
    end = rng.choice((b"\n", b"\n", b"\r\n", b"\r"))
    body = b"\n".join(lines)
    if lines and lines.final_newline:
        body += b"\n"
    path.write_bytes(header + end + body)


def outcome(load, path):
    try:
        return snapshot(*load(path))
    except IngestError as exc:
        return f"IngestError: {exc}"


CASES = [(seed, (m,)) for seed, m in enumerate(MUTATORS * 2)] + [
    (1000 + seed, tuple(random.Random(seed).choices(MUTATORS, k=1 + seed % 6)))
    for seed in range(40)]


@pytest.mark.parametrize("seed,mutators", CASES,
                         ids=[f"{s}-{'+'.join(m.__name__ for m in ms)}"
                              for s, ms in CASES])
def test_block_reader_matches_reference(tmp_path, monkeypatch, seed,
                                        mutators):
    path = tmp_path / "t.prv"
    corpus_file(path, seed, mutators)
    want = outcome(load_reference, str(path))
    assert outcome(load_trace, str(path)) == want
    # blocks of a few lines, cut at a different place in every case
    monkeypatch.setattr(prv, "BLOCK_SIZE", 96 + seed % 160)
    assert outcome(load_trace, str(path)) == want


def test_corpus_reaches_every_path(tmp_path):
    """Some case routes lines to the per-line rules, some logs each
    anomaly kind of the cursor rules, some ends in IngestError."""
    routed = errors = 0
    kinds = set()
    for seed, mutators in CASES:
        path = tmp_path / f"{seed}.prv"
        corpus_file(path, seed, mutators)
        try:
            _, log, counters = load_trace(str(path))
        except IngestError:
            errors += 1
            continue
        routed += counters.routed
        kinds.update(e.kind for e in log.entries if e.location.startswith("line"))
    assert routed and errors
    assert {AnomalyKind.NONMONOTONIC_TIMESTAMP, AnomalyKind.UNMATCHED_SEND,
            AnomalyKind.UNMATCHED_RECV, AnomalyKind.REVERSED_PTP,
            AnomalyKind.MALFORMED_RECORD} <= kinds


def test_corpus_traces_rebuild_through_trace_build(tmp_path):
    """Every case that ingests builds again through Trace.build from its
    columns (regions, messages with their status codes, communicators):
    ingest's regions, ranks and valid messages meet every rule that
    Trace.build checks, and that replay relies on."""
    status_of = {code: status for status, code in STATUS_CODES.items()}
    rebuilt = 0
    for seed, mutators in CASES:
        path = tmp_path / f"{seed}.prv"
        corpus_file(path, seed, mutators)
        try:
            trace, _, _ = load_trace(str(path))
        except IngestError:
            continue
        m = trace.messages
        messages = [PtpMessage(*row[:5], status=status_of[row[5]])
                    for row in zip(*(getattr(m, c).tolist()
                                     for c in m.COLUMNS))]
        regions = [[MpiRegion(r, *spec[:3], comm_hint=spec[3])
                    for spec in specs]
                   for r, specs in enumerate(region_lists(trace))]
        Trace.build(trace.meta, regions, messages,
                    trace.communicators.values())
        rebuilt += 1
    assert rebuilt >= len(CASES) // 2


def _task(line: bytes) -> int:
    return int(line.split(b":")[3])


def many_rank_file(path, seed: int) -> None:
    """Write to path a 320-rank trace, larger than one default block, whose allreduce
    carries sub-communicator hints, bent so that one block mixes clean
    ranks with ranks that log or route a line: a trailing space routes
    a line of ranks 200 and 201 to the per-line rules, a time goes
    backwards on rank 60, and a garbled line of rank 250 is dropped.  Rank 8 loses every event (no regions at all), and ranks 4,
    111 and 300 lose their last one, leaving a region open at the end."""
    sc = Scenario(name="wide", rank_count=320, seed=seed, phases=(
        PhaseSpec("allreduce", 12, ComputeSpec("uniform", mean_ns=20000,
                                               jitter_ns=3000),
                  communicator_split=4),
        PhaseSpec("neighbor_stencil", 6, ComputeSpec("uniform",
                                                     mean_ns=15000),
                  message_bytes=512)))
    generate_to_files(sc, path)
    header, *lines = path.read_bytes().split(b"\n")
    lines = [ln for ln in lines[:-1]
             if not (ln.startswith(b"2:") and _task(ln) == 9)]
    events = {}
    for i, ln in enumerate(lines):
        if ln.startswith(b"2:"):
            events.setdefault(_task(ln), []).append(i)
    for task in (201, 202):
        i = events[task][len(events[task]) // 2]
        lines[i] += b" "
    i = events[61][len(events[61]) // 2]
    t = int(lines[i].split(b":")[5])
    lines[i] = _set_field(lines[i], 5, b"%d" % max(0, t - 5000))
    i = events[251][len(events[251]) // 3]
    lines[i] = _set_field(lines[i], 6, b"5x")
    drop = {events[task][-1] for task in (5, 112, 301)}
    lines = [ln for i, ln in enumerate(lines) if i not in drop]
    path.write_bytes(header + b"\n" + b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("block_size", [prv.BLOCK_SIZE, 8191])
def test_many_ranks_match_reference(tmp_path, monkeypatch, block_size):
    path = tmp_path / "wide.prv"
    many_rank_file(path, 11)
    assert path.stat().st_size > prv.BLOCK_SIZE
    want = outcome(load_reference, str(path))
    monkeypatch.setattr(prv, "BLOCK_SIZE", block_size)
    got = outcome(load_trace, str(path))
    assert got == want
    trace, log, counters = load_trace(str(path))
    assert counters.routed
    assert len(trace.regions[8]) == 0
    assert trace.regions.hint_rows.size
    ended = {e.location for e in log.entries if "stream end" in e.detail}
    assert ended == {"rank 4", "rank 111", "rank 300"}
    kinds = {e.kind for e in log.entries}
    assert {AnomalyKind.NONMONOTONIC_TIMESTAMP,
            AnomalyKind.MALFORMED_RECORD} <= kinds


FOREIGN = b"40000001"


def cursor_stream(rng: random.Random) -> bytes:
    """A random trace of 1-5 ranks that exercises every cursor rule:
    times that step back, opens and closes in any order, communicator
    companions before, after and between them, foreign types, lines
    routed to the per-line rules by a trailing space or a + sign, second
    thread lines and a few messages, some traces in microseconds."""
    P = rng.randint(1, 5)
    clock = [0] * P
    lines = []
    for _ in range(rng.randint(1, 40)):
        rank = rng.randrange(P)
        if rng.random() < 0.1:
            t = clock[rank]
            lines.append(b"3:1:1:%d:1:%d:%d:1:%d:1:%d:%d:64:7" % (
                rank + 1, t, t, rng.randrange(P) + 1, t + 5, t + 5))
            continue
        clock[rank] = max(0, clock[rank] + rng.choice((0, 0, 0, 1, 3, -2)))
        pairs = []
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            pairs.append(rng.choice((
                (rng.choice(MPI_TYPES), b"%d" % rng.randint(1, 9)),
                (rng.choice(MPI_TYPES), b"0"),
                (COMM_ID, b"%d" % rng.randint(2, 4)),
                (FOREIGN, b"1"))))
        thread = b"2" if rng.random() < 0.03 else b"1"
        line = b":".join((b"2:1:1:%d" % (rank + 1), thread,
                          b"%d" % clock[rank], *(x for p in pairs for x in p)))
        route = rng.random()
        if route < 0.1:
            line += b" "
        elif route < 0.2:
            line = line.replace(b":", b":+", 1)
        lines.append(line)
    unit = b"us" if rng.random() < 0.2 else b"ns"
    tasks = b",".join(b"1:1" for _ in range(P))
    header = b"#Paraver (01/01/25 at 00:00):%d_%s:1(%d):1:%d(%s)" % (
        max(clock) + rng.choice((0, 10)), unit, P, P, tasks)
    return header + b"\n" + b"\n".join(lines) + b"\n"


def test_cursor_rules_match_reference(tmp_path, monkeypatch):
    """The cursor rules on random event streams, at the default block
    size and at blocks of a few lines, against the reference reader."""
    path = tmp_path / "cursor.prv"
    rng = random.Random(20)
    for case in range(400):
        path.write_bytes(cursor_stream(rng))
        want = outcome(load_reference, str(path))
        for size in (prv.BLOCK_SIZE, rng.randint(40, 240)):
            monkeypatch.setattr(prv, "BLOCK_SIZE", size)
            assert outcome(load_trace, str(path)) == want, (case, size)


def coordinate_stream(rng: random.Random) -> bytes:
    """A random trace of 1-6 ranks, under a flat 1(P:0) or a per-task
    header, whose event, communication (both triples) and state lines
    sometimes address an application other than 1, a second thread or
    task, or a rank out of range, and whose communication lines
    sometimes pair a receiver out of range with a faulty sender; each
    line plain or routed to the per-line rules by a trailing space,
    with communicator definitions, some of the wrong length, among
    them."""
    P = rng.randint(1, 6)
    flat = P > 1 and rng.random() < 0.5

    def triple(fault: float) -> bytes:
        appl, rank, other = 1, rng.randrange(P), 1
        if fault < 0.06:
            appl = rng.choice((0, 2, 3))
        elif fault < 0.12:
            other = rng.choice((0, 2))
        elif fault < 0.13:
            rank = rng.choice((-1, P, 98))
        # cpu:appl:task:thread
        return b"1:%d:%d:%d" % ((appl, other, rank + 1) if flat
                                else (appl, rank + 1, other))

    t = 0
    lines = []
    for _ in range(rng.randint(1, 40)):
        t += rng.randint(0, 3)
        kind = rng.random()
        if kind < 0.5:
            line = b"2:%s:%d:%s:%d" % (triple(rng.random()), t,
                                       rng.choice(MPI_TYPES),
                                       rng.choice((0, 1)))
        elif kind < 0.75:
            sender, receiver = rng.random(), rng.random()
            if rng.random() < 0.05:
                sender = rng.choice((0.0, 0.1, 0.125))
                receiver = 0.125
            line = b"3:%s:%d:%d:%s:%d:%d:64:7" % (
                triple(sender), t, t, triple(receiver), t + 5, t + 5)
        elif kind < 0.95:
            line = b"1:%s:%d:%d:1" % (triple(rng.random()), t, t + 3)
        else:
            members = rng.sample(range(1, P + 1), rng.randint(1, P))
            count = len(members) + (rng.random() < 0.2)
            line = b"c:1:%d:%d:%s" % (rng.randint(2, 4), count, b":".join(
                b"%d" % m for m in members))
        if rng.random() < 0.3:
            line += b" "
        lines.append(line)
    apps = b"%d:0" % P if flat else b",".join(b"1:1" for _ in range(P))
    header = b"#Paraver (01/01/25 at 00:00):%d_ns:1(%d):1:%d(%s)" % (
        t + 10, P, 1 if flat else P, apps)
    return header + b"\n" + b"\n".join(lines) + b"\n"


def test_coordinate_rule_matches_reference(tmp_path, monkeypatch):
    """The coordinate rule on random streams, at the default block size
    and at blocks of a few lines, against the reference reader: the
    same logged and dropped records, and the same line and rank in the
    error of the first rank out of range."""
    path = tmp_path / "coords.prv"
    rng = random.Random(21)
    seen = set()
    for case in range(400):
        path.write_bytes(coordinate_stream(rng))
        want = outcome(load_reference, str(path))
        for size in (prv.BLOCK_SIZE, rng.randint(40, 240)):
            monkeypatch.setattr(prv, "BLOCK_SIZE", size)
            assert outcome(load_trace, str(path)) == want, (case, size)
        if isinstance(want, str):
            seen.add("error")
        else:
            seen.update(detail for kind, _, detail in want["anomalies"]
                        if kind is AnomalyKind.MALFORMED_RECORD)
            seen.add(want["meta"].flat_rank_encoding)
    assert {"error", True, False, "application 2 out of range",
            "record addresses a second thread of a rank",
            "communicator definition length mismatch"} <= seen
