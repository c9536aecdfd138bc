"""Differential test of the block reader against the record-at-a-time
reference in tests/ref_ingest.py, on a seeded corpus of mutated
generator output.  Every store column, communicator, state total,
counter and anomaly entry (in order) must match, at the default block
size and at one of a few lines, where many lines straddle two blocks."""

from __future__ import annotations

import random

import pytest

from paraslice import AnomalyKind
from paraslice import prv
from paraslice.prv import IngestError, load_trace
from paraslice.synth import ComputeSpec, PhaseSpec, Scenario, generate_trace

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


def corpus_file(seed: int, mutators) -> bytes:
    rng = random.Random(seed)
    scenario = random_scenario(rng, max_ranks=6, max_phases=3)
    text, _ = generate_trace(scenario)
    header, *rest = text.encode().split(b"\n")
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
    return header + end + body


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
    path.write_bytes(corpus_file(seed, mutators))
    want = outcome(load_reference, str(path))
    assert outcome(load_trace, str(path)) == want
    # blocks of a few lines, cut at a different place in every case
    monkeypatch.setattr(prv, "BLOCK_SIZE", 96 + seed % 160)
    assert outcome(load_trace, str(path)) == want


def test_corpus_reaches_every_path(tmp_path):
    """Some case routes lines to the per-line rules, some runs a rank
    through the cursor (only it logs these anomaly kinds), some ends in
    IngestError."""
    routed = errors = 0
    kinds = set()
    for seed, mutators in CASES:
        path = tmp_path / f"{seed}.prv"
        path.write_bytes(corpus_file(seed, mutators))
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


def _task(line: bytes) -> int:
    return int(line.split(b":")[3])


def many_rank_file(seed: int) -> bytes:
    """A 320-rank trace, larger than one default block, whose allreduce
    carries sub-communicator hints, bent so that one block mixes ranks
    paired on arrays with ranks that take the cursor rules: a trailing
    space routes a line of ranks 200 and 201 to the per-line rules, a
    time goes backwards on rank 60, and a garbled line of rank 250 is
    dropped.  Rank 8 loses every event (no regions at all), and ranks 4,
    111 and 300 lose their last one, leaving a region open at the end."""
    sc = Scenario(name="wide", rank_count=320, seed=seed, phases=(
        PhaseSpec("allreduce", 12, ComputeSpec("uniform", mean_ns=20000,
                                               jitter_ns=3000),
                  communicator_split=4),
        PhaseSpec("neighbor_stencil", 6, ComputeSpec("uniform",
                                                     mean_ns=15000),
                  message_bytes=512)))
    text, _ = generate_trace(sc)
    header, *lines = text.encode().split(b"\n")
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
    return header + b"\n" + b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("block_size", [prv.BLOCK_SIZE, 8191])
def test_many_ranks_match_reference(tmp_path, monkeypatch, block_size):
    path = tmp_path / "wide.prv"
    path.write_bytes(many_rank_file(11))
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
