"""Synthetic Paraver traces with exactly known efficiency factors.

A scenario stacks phases of fixed communication patterns over a rank
count and a seeded compute-time model.  Every pattern has an exact
integer recurrence for the three clocks of each rank, so the generator
can emit a byte-deterministic .prv/.pcf pair and, from the same realized
compute numbers, predict the factor decomposition the analyzer must
reproduce — without going anywhere near the analyzer's own code paths.

Patterns:
  none              pure compute, no MPI between init and finalize
  ring_exchange     nonblocking send to the right neighbour, receive from
                    the left, iteration barrier
  neighbor_stencil  exchange with both non-periodic neighbours, barrier
  allreduce         one collective per iteration, optionally split into
                    round-robin subcommunicators with a phase-end barrier
  serial_chain      rank i waits for rank i-1, computes, passes on; the
                    textbook pipeline whose serialisation is max/sum

Injected wait models network/arrival latency: it delays receive
completions and collective exits in elapsed time but can never appear in
the ideal clock, which is the whole point of the decomposition.

Generation walks the scenario twice, a block of iterations at a time: a
walk with no sink sizes the header and gives the expectation, a second
writes each block's records, sorted by (iteration, time, rank, emission),
in one write.  The recurrences are max-plus, so a block's clocks are
numpy arrays and its iteration ends a cumsum of row maxima.  Each walk
redraws the compute times from the seed, draw_below taking exactly the
values randint would, and holds one block at a time.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import TimeUnit
from .prv import (
    EVTYPE_COLLECTIVE,
    EVTYPE_COMM_ID,
    EVTYPE_OTHER,
    EVTYPE_P2P,
    MAX_RANK_COUNT,
)
from .replay import DEFAULT_EAGER_LIMIT

HEADER_DATE = "(01/01/25 at 00:00)"

CALL_ISEND = 1
CALL_RECV = 2
CALL_WAITALL = 3
COLL_BARRIER = 1
COLL_ALLREDUCE = 2
OTHER_INIT = 1
OTHER_FINALIZE = 2

PATTERNS = ("none", "ring_exchange", "neighbor_stencil", "allreduce",
            "serial_chain")
COMPUTE_KINDS = ("explicit", "uniform", "linear_imbalance")


class ScenarioError(ValueError):
    """Scenario that cannot be generated with exact expectations."""


@dataclass(frozen=True)
class ComputeSpec:
    """Per-rank compute time for one iteration, in nanoseconds.

    linear_imbalance spreads values linearly so that the mean stays at
    mean_ns and max/mean equals imbalance_ratio; its load balance is
    therefore exactly 1/ratio.  jitter_ns adds a seeded uniform draw on
    top of the base value.
    """
    kind: str
    values_ns: tuple[int, ...] | None = None
    mean_ns: int | None = None
    imbalance_ratio: float | None = None
    jitter_ns: int = 0

    def base_values(self, rank_count: int) -> list[int]:
        if self.kind == "explicit":
            return list(self.values_ns)
        if self.kind == "uniform":
            return [self.mean_ns] * rank_count
        m = self.mean_ns
        rho = self.imbalance_ratio
        lo = m * (2.0 - rho)
        step = 2.0 * (rho - 1.0) * m / (rank_count - 1)
        return [round(lo + step * i) for i in range(rank_count)]


@dataclass(frozen=True)
class PhaseSpec:
    pattern: str
    iterations: int
    compute: ComputeSpec
    message_bytes: int = 0
    injected_wait_ns: int = 0
    communicator_split: int | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    rank_count: int
    phases: tuple[PhaseSpec, ...]
    seed: int = 0
    time_unit: TimeUnit = TimeUnit.NANOSECONDS

    def validate(self) -> None:
        problems: list[str] = []
        P = self.rank_count
        if not 1 <= P <= MAX_RANK_COUNT:    # before any per-rank list
            raise ScenarioError(f"rank_count must be in [1, {MAX_RANK_COUNT}]")
        if not self.phases:
            problems.append("at least one phase is required")
        step = 1000 if self.time_unit is TimeUnit.MICROSECONDS else 1
        for n, ph in enumerate(self.phases):
            where = f"phase {n}"
            if ph.pattern not in PATTERNS:
                problems.append(f"{where}: unknown pattern {ph.pattern!r}")
                continue
            if ph.iterations < 1:
                problems.append(f"{where}: iterations must be positive")
            if ph.message_bytes < 0:
                problems.append(f"{where}: negative message_bytes")
            if ph.injected_wait_ns < 0:
                problems.append(f"{where}: negative injected_wait_ns")
            if ph.injected_wait_ns % step:
                problems.append(f"{where}: injected_wait_ns must be a "
                                f"multiple of {step} for this time unit")
            if ph.pattern == "none":
                if ph.message_bytes or ph.injected_wait_ns \
                        or ph.communicator_split is not None:
                    problems.append(f"{where}: pattern none takes no "
                                    "messages, waits or splits")
            elif P < 2:
                problems.append(f"{where}: pattern {ph.pattern} needs at "
                                "least 2 ranks")
            if ph.pattern in ("ring_exchange", "neighbor_stencil",
                              "serial_chain") \
                    and ph.message_bytes > DEFAULT_EAGER_LIMIT:
                problems.append(
                    f"{where}: message_bytes above the eager limit "
                    f"({DEFAULT_EAGER_LIMIT}) would add rendezvous floors "
                    "the expectation model does not cover")
            if ph.pattern == "allreduce" and ph.message_bytes:
                problems.append(f"{where}: allreduce carries no "
                                "point-to-point messages")
            if ph.communicator_split is not None:
                if ph.pattern != "allreduce":
                    problems.append(f"{where}: communicator_split only "
                                    "applies to allreduce")
                elif not 1 <= ph.communicator_split <= P:
                    problems.append(f"{where}: communicator_split must be "
                                    f"in [1, {P}]")
            problems.extend(f"{where}: {p}"
                            for p in _check_compute(ph.compute, P, step))
        if problems:
            raise ScenarioError("; ".join(problems))


def _check_compute(spec: ComputeSpec, rank_count: int,
                   step: int) -> list[str]:
    problems = []
    if spec.kind not in COMPUTE_KINDS:
        return [f"unknown compute kind {spec.kind!r}"]
    if spec.jitter_ns < 0:
        problems.append("negative jitter_ns")
    if spec.jitter_ns % step:
        problems.append(f"jitter_ns must be a multiple of {step} "
                        "for this time unit")
    if spec.kind == "explicit":
        if not spec.values_ns or len(spec.values_ns) != rank_count:
            problems.append("explicit compute needs one value per rank")
            return problems
    elif spec.mean_ns is None or spec.mean_ns < 1:
        problems.append("mean_ns must be a positive integer")
        return problems
    if spec.kind == "linear_imbalance":
        if rank_count < 2:
            problems.append("linear_imbalance needs at least 2 ranks")
        rho = spec.imbalance_ratio
        if rho is None or not 1.0 < rho <= 2.0:
            problems.append("imbalance_ratio must lie in (1, 2]")
        if problems:
            return problems
    values = spec.base_values(rank_count)
    if min(values) < 1:
        problems.append("compute values must stay positive")
    if any(v % step for v in values):
        problems.append(f"compute values must be multiples of {step} "
                        "for this time unit")
    return problems


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(doc: dict, key: str, default, where: str = "",
            real: bool = False):
    """doc[key], or default when it is absent: an integer, or any real
    number when real is set, never a bool; null only where default is."""
    value = doc.get(key, default)
    if not (value is None and default is None or _is_int(value)
            or real and isinstance(value, float)):
        raise ScenarioError(f"{where}{key} must be "
                            f"{'a number' if real else 'an integer'}, "
                            f"got {value!r}")
    return value


def load_scenario(source) -> Scenario:
    """Build a validated Scenario from a dict (a parsed scenario) or from
    the path of a JSON file; a str is always read as a path, never as
    JSON text."""
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        data = source
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")

    known = {"name", "rank_count", "phases", "seed", "time_unit"}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    try:
        unit = TimeUnit(data.get("time_unit", "ns"))
    except ValueError:
        raise ScenarioError(f"unknown time_unit {data.get('time_unit')!r}")

    docs = data.get("phases", [])
    if not isinstance(docs, list):
        raise ScenarioError("phases must be a list")
    phases = []
    for n, ph in enumerate(docs):
        if not isinstance(ph, dict):
            raise ScenarioError(f"phase {n} must be an object")
        unknown = set(ph) - {"pattern", "iterations", "compute",
                             "message_bytes", "injected_wait_ns",
                             "communicator_split"}
        if unknown:
            raise ScenarioError(f"phase {n}: unknown keys {sorted(unknown)}")
        comp = ph.get("compute")
        if not isinstance(comp, dict):
            raise ScenarioError(f"phase {n}: compute must be an object")
        unknown = set(comp) - {"kind", "values_ns", "mean_ns",
                               "imbalance_ratio", "jitter_ns"}
        if unknown:
            raise ScenarioError(
                f"phase {n}: unknown compute keys {sorted(unknown)}")
        where = f"phase {n}: "
        values = comp.get("values_ns")
        if values is not None and not (isinstance(values, list)
                                       and all(map(_is_int, values))):
            raise ScenarioError(f"{where}values_ns must be a list of "
                                f"integers, got {values!r}")
        spec = ComputeSpec(
            kind=comp.get("kind", "uniform"),
            values_ns=tuple(values) if values is not None else None,
            mean_ns=_number(comp, "mean_ns", None, where),
            imbalance_ratio=_number(comp, "imbalance_ratio", None, where,
                                    real=True),
            jitter_ns=_number(comp, "jitter_ns", 0, where))
        phases.append(PhaseSpec(
            pattern=ph.get("pattern", "none"),
            iterations=_number(ph, "iterations", 1, where),
            compute=spec,
            message_bytes=_number(ph, "message_bytes", 0, where),
            injected_wait_ns=_number(ph, "injected_wait_ns", 0, where),
            communicator_split=_number(ph, "communicator_split", None,
                                       where)))

    scenario = Scenario(
        name=str(data.get("name", "scenario")),
        rank_count=_number(data, "rank_count", 0),
        phases=tuple(phases),
        seed=_number(data, "seed", 0),
        time_unit=unit)
    scenario.validate()
    return scenario


def draw_below(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The next count values of rng.randint(0, n - 1), drawn in one go.

    CPython draws each value as getrandbits(n.bit_length()) and draws
    again while the result is not below n.  For n.bit_length() <= 32 a
    draw is the top bits of one 32-bit output of the generator, and
    getrandbits(32 * m) is the next m outputs, the first in the lowest
    bits; taking only as many outputs as values are still missing keeps
    the generator from running ahead, so it ends in the state count
    randint calls leave.  Wider draws take the same rule one at a time.
    Returns int64 values, or Python ints when n exceeds 2**63.
    """
    k = n.bit_length()
    if k > 32:
        getrandbits = rng.getrandbits
        out = []
        for _ in range(count):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            out.append(r)
        return np.array(out, dtype=np.int64 if n <= 1 << 63 else object)
    out = np.empty(count, dtype=np.int64)
    got = 0
    while got < count:
        need = count - got
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(
            4 * need, "little"), dtype="<u4") >> (32 - k)
        words = words[words < n]
        out[got:got + len(words)] = words
        got += len(words)
    return out


# values drawn at a time: bounds the generator's memory, a block's text
# included, while the draws and clocks stay a few numpy calls per block
_DRAW_BLOCK = 1 << 10


def _compute_blocks(scenario: Scenario, dtype: type,
                    ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Realized compute times in nanoseconds, as (phase index, first
    iteration, [iteration, rank] block) of _DRAW_BLOCK values or one
    iteration, all from one seeded generator drawn rank by rank within an
    iteration; a phase without jitter draws nothing."""
    rng = random.Random(scenario.seed)
    P = scenario.rank_count
    step = 1000 if scenario.time_unit is TimeUnit.MICROSECONDS else 1
    per = max(1, _DRAW_BLOCK // P)
    for index, ph in enumerate(scenario.phases):
        base = np.array(ph.compute.base_values(P), dtype=dtype)
        n = ph.compute.jitter_ns // step + 1
        for first in range(0, ph.iterations, per):
            count = min(per, ph.iterations - first)
            if n == 1:
                yield index, first, np.broadcast_to(base, (count, P))
            else:
                draws = draw_below(rng, n, count * P).astype(dtype, copy=False)
                yield index, first, draws.reshape(count, P) * step + base


def compute_matrix(scenario: Scenario) -> list[list[list[int]]]:
    """Realized compute times, [phase][iteration][rank], in nanoseconds:
    every block the walk draws, held at once."""
    matrix = [[] for _ in scenario.phases]
    for index, _, c in _compute_blocks(scenario, object):
        matrix[index] += c.tolist()
    return matrix


# --------------------------------------------------------------------------
# simulation walk: one pass drives both the record emission and the
# expectation bookkeeping, a block of iterations at a time


# one call on each of ranks in every row (iteration) of a block: entry
# and exit are [row, rank] times, comm is a communicator id per rank
_Regions = namedtuple("_Regions", "etype call ranks entry exit comm",
                      defaults=(None,))
# one message from each of ranks to the receiver at its position in every
# row of a block: send and recv are [row, rank] times; row b has tag + b
_Messages = namedtuple("_Messages", "ranks receivers send recv size tag")


class _Sink:
    """Receives a block's records, a list of _Regions and _Messages in
    each rank's order; this null sink ignores them: the pure oracle."""

    def block(self, rows: int, records: list) -> None:
        pass


class _StreamSink(_Sink):
    """Writes Paraver record lines to fh, one write per block, ordered by
    row, time, rank and then the rank's own order (a region opens before
    it closes) by one lexsort; each line is a per-rank head, a time and a
    per-call tail from tables built once."""

    def __init__(self, scenario: Scenario, fh, comms: _Comms):
        self.fh = fh
        self.div = 1000 if scenario.time_unit is TimeUnit.MICROSECONDS else 1
        obj = [f"{r}:1:{r}:1" for r in range(1, scenario.rank_count + 1)]
        self._event = [f"2:{o}:" for o in obj]
        self._sender = [f"3:{o}:" for o in obj]
        self._receiver = [f":{o}:" for o in obj]
        self._comm = {cid: f":{EVTYPE_COMM_ID}:{cid}"
                      for groups in comms.values() for _, cid in groups}

    def block(self, rows, records):
        div = self.div
        keys, lines = [], []
        for slot, rec in enumerate(records):
            n = len(rec.ranks)
            ranks = rec.ranks.tolist()
            row = np.repeat(np.arange(rows), n)
            # rank, then slot, then open before close: one sort key
            rank = np.tile(rec.ranks * (2 * len(records)) + 2 * slot, rows)
            if isinstance(rec, _Messages):
                keys.append((row, rec.send.ravel(), rank))
                tags = [f":{rec.size}:{rec.tag + b}" for b in range(rows)]
                # each time is written twice: made a str once
                lines += [f"{h}{s}:{s}{m}{r}:{r}{t}" for h, s, m, r, t in zip(
                    [self._sender[i] for i in ranks] * rows,
                    map(str, (rec.send // div).ravel().tolist()),
                    [self._receiver[i] for i in rec.receivers.tolist()]
                    * rows,
                    map(str, (rec.recv // div).ravel().tolist()),
                    [t for t in tags for _ in range(n)])]
                continue
            opened = [f":{rec.etype}:{rec.call}"] * n
            if rec.comm is not None:
                opened = [opened[0] + self._comm[c] for c in rec.comm.tolist()]
            heads = [self._event[i] for i in ranks] * rows
            for times, tails, rank in (
                    (rec.entry, opened * rows, rank),
                    (rec.exit, [f":{rec.etype}:0"] * n * rows, rank + 1)):
                keys.append((row, times.ravel(), rank))
                lines += [f"{h}{t}{s}" for h, t, s in
                          zip(heads, (times // div).ravel().tolist(), tails)]
        row, time, rank = (np.concatenate(k) for k in zip(*keys))
        lines = np.array(lines, dtype=object)[
            np.lexsort((rank, time, row))].tolist()
        lines.append("")        # the last newline, without a copy of the text
        text = "\n".join(lines)
        del lines               # before the text is encoded and written
        self.fh.write(text)


_Snap = namedtuple("_Snap", "elapsed oom ideal")


# split count -> one (member ranks, communicator id) pair per group
_Comms = dict[int, list[tuple[list[int], int]]]


def _communicators(scenario: Scenario) -> _Comms:
    """Members and id of every communicator the scenario uses, per split
    count: split 1 is the world, id 1; a split into k groups puts rank i
    in group i % k, and its groups take the next free ids."""
    P = scenario.rank_count
    comms: _Comms = {}
    nxt = 1
    for k in (1, *(ph.communicator_split or 1 for ph in scenario.phases)):
        if k not in comms:
            comms[k] = [(list(range(g, P, k)), nxt + g) for g in range(k)]
            nxt += k
    return comms


def _lift(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c with v added to its first row."""
    x = c.copy()
    x[0] += v
    return x


def _meet(x: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(ends, starts), per rank, of a block's iterations, where rank i
    leaves with the ranks of its group, i % k, at their latest x.

    The clocks are max-plus and shift-equivariant in the start vector,
    and each iteration after a block's first starts from its group's
    previous end: so row 0 of x is absolute and every other row relative
    to its own start, and the ends are a cumsum of row group maxima."""
    rows, P = x.shape
    m = -(-P // k)
    # the ranks padded to m * k with members of the same groups
    wide = np.concatenate([x, x[:, P - k:(m - 1) * k]], axis=1)
    rel = np.tile(wide.reshape(rows, m, k).max(axis=1), m)[:, :P]
    ends = np.cumsum(rel, axis=0)
    return ends, ends - rel


def _chain_arrivals(v: np.ndarray, c: np.ndarray, w: int) -> np.ndarray:
    """When each rank of a chain may start computing: the rank before it
    has finished and w has passed, a[i] = max(v[i], a[i-1] + c[i-1] + w),
    as one running maximum along the ranks (v lifts row 0 only)."""
    u = c + w
    before = np.cumsum(u, axis=1) - u
    return np.maximum.accumulate(_lift(v, -before), axis=1) + before


def _none(ph, first, c, e, d, comms):
    total = c.sum(axis=0)
    return e + total, d + total, []


def _exchange(ph, first, c, e, d, comms):
    """ring_exchange and neighbor_stencil: each rank sends to its
    neighbours, waits for theirs and meets the others at a barrier."""
    ranks = np.arange(len(e))
    # the call that waits, and (senders, receivers) of every message
    if ph.pattern == "ring_exchange":
        wait, pairs = CALL_RECV, [(ranks, np.roll(ranks, -1))]
    else:
        wait, pairs = CALL_WAITALL, [(ranks[1:], ranks[:-1]),
                                     (ranks[:-1], ranks[1:])]
    r = _lift(e, c)
    done = r.copy()
    for s, t in pairs:
        done[:, t] = np.maximum(done[:, t], r[:, s] + ph.injected_wait_ns)
    end, start = _meet(done)
    r += start
    done += start
    return end[-1], _meet(_lift(d, c))[0][-1], [
        _Regions(EVTYPE_P2P, CALL_ISEND, ranks, r, r),
        _Regions(EVTYPE_P2P, wait, ranks, r, done),
        _Regions(EVTYPE_COLLECTIVE, COLL_BARRIER, ranks, done, end),
        *(_Messages(s, t, r[:, s], done[:, t], ph.message_bytes, first + 1)
          for s, t in pairs)]


def _allreduce(ph, first, c, e, d, comms):
    k = ph.communicator_split or 1
    ranks = np.arange(len(e))
    r = _lift(e, c)
    end, start = _meet(r + ph.injected_wait_ns, k)
    r += start
    return end[-1], _meet(_lift(d, c), k)[0][-1], [_Regions(
        EVTYPE_COLLECTIVE, COLL_ALLREDUCE, ranks, r, end,
        comms[k][0][1] + ranks % k if k > 1 else None)]


def _chain(ph, first, c, e, d, comms):
    ranks = np.arange(len(e))
    arrived = _chain_arrivals(e, c, ph.injected_wait_ns)
    end, start = _meet(arrived + c)
    arrived += start
    q = arrived + c
    return end[-1], _meet(_chain_arrivals(d, c, 0) + c)[0][-1], [
        _Regions(EVTYPE_P2P, CALL_RECV, ranks[1:], _lift(e, start)[:, 1:],
                 arrived[:, 1:]),
        _Regions(EVTYPE_P2P, CALL_ISEND, ranks[:-1], q[:, :-1], q[:, :-1]),
        _Messages(ranks[:-1], ranks[1:], q[:, :-1], arrived[:, 1:],
                  ph.message_bytes, first + 1),
        _Regions(EVTYPE_COLLECTIVE, COLL_BARRIER, ranks, q, end)]


_BLOCK = {"none": _none, "ring_exchange": _exchange,
          "neighbor_stencil": _exchange, "allreduce": _allreduce,
          "serial_chain": _chain}


def _walk(scenario: Scenario, sink: _Sink, comms: _Comms,
          ) -> tuple[int, _Snap, list[_Snap]]:
    """Run the scenario, emitting records and tracking the exact clocks.

    Returns (trace duration, final clock state, per-phase snapshots with
    the starting state first).
    """
    P = scenario.rank_count
    # int64 where it holds every clock: no iteration moves one by more
    # than P times the largest compute time plus the wait
    bound = sum(ph.iterations * P * (max(ph.compute.base_values(P))
                + ph.compute.jitter_ns + ph.injected_wait_ns)
                for ph in scenario.phases)
    dtype = np.int64 if bound < 1 << 63 else object
    ranks = np.arange(P)
    # elapsed cursor, out-of-MPI total and ideal clock of every rank
    e, o, d = np.zeros((3, P), dtype=dtype)
    snaps = [_Snap(e.tolist(), o.tolist(), d.tolist())]
    sink.block(1, [_Regions(EVTYPE_OTHER, OTHER_INIT, ranks, e, e)])

    for index, first, c in _compute_blocks(scenario, dtype):
        ph = scenario.phases[index]
        e, d, records = _BLOCK[ph.pattern](ph, first, c, e, d, comms)
        o = o + c.sum(axis=0)
        if records:
            sink.block(len(c), records)
        if first + len(c) < ph.iterations:
            continue
        if (ph.communicator_split or 1) > 1:
            # realign the groups so the next phase starts from one front
            end = np.full(P, e.max(), dtype=dtype)
            sink.block(1, [_Regions(EVTYPE_COLLECTIVE, COLL_BARRIER,
                                    ranks, e, end)])
            e = end
            d = np.full(P, d.max(), dtype=dtype)
        snaps.append(_Snap(e.tolist(), o.tolist(), d.tolist()))

    end = np.full(P, e.max(), dtype=dtype)
    sink.block(1, [_Regions(EVTYPE_OTHER, OTHER_FINALIZE, ranks, e, end)])
    return int(end[0]), _Snap(e.tolist(), o.tolist(), d.tolist()), snaps


# --------------------------------------------------------------------------
# expectations


@dataclass(frozen=True, slots=True)
class PhaseExpectation:
    index: int
    pattern: str
    start_ns: int
    end_ns: int
    delta_oom: tuple[int, ...]
    delta_cp: int
    load_balance: float
    serialisation: float
    transfer: float
    efficiency: float


@dataclass(frozen=True, slots=True)
class ExpectedMetrics:
    rank_count: int
    total_duration_ns: int
    t_compute: tuple[int, ...]
    runtime_ideal: int
    load_balance: float
    serialisation: float
    transfer: float
    efficiency: float
    phases: tuple[PhaseExpectation, ...]


def expected_metrics(scenario: Scenario) -> ExpectedMetrics:
    """Exact factor decomposition the analyzer must reproduce, computed
    from the integer recurrences alone."""
    return _expectation(scenario, *_walk(scenario, _Sink(),
                                         _communicators(scenario)))


def _expectation(scenario: Scenario, duration: int, final: _Snap,
                 snaps: list[_Snap]) -> ExpectedMetrics:
    """The factor decomposition of one walk's clocks."""
    P = scenario.rank_count

    def factors(compute: tuple[int, ...], ideal: int, span: int) -> dict:
        """The four factors of per-rank compute times over span, whose
        critical path is ideal."""
        peak = max(compute)
        return dict(load_balance=sum(compute) / (P * peak),
                    serialisation=peak / ideal, transfer=ideal / span,
                    efficiency=sum(compute) / (P * span))

    phases = []
    for n, ph in enumerate(scenario.phases):
        before, after = snaps[n], snaps[n + 1]
        start = max(before.elapsed)
        end = max(after.elapsed)
        doom = tuple(after.oom[i] - before.oom[i] for i in range(P))
        dcp = max(after.ideal) - max(before.ideal)
        phases.append(PhaseExpectation(
            index=n, pattern=ph.pattern, start_ns=start, end_ns=end,
            delta_oom=doom, delta_cp=dcp, **factors(doom, dcp, end - start)))

    t_compute = tuple(final.oom)
    runtime_ideal = max(final.ideal)
    return ExpectedMetrics(
        rank_count=P,
        total_duration_ns=duration,
        t_compute=t_compute,
        runtime_ideal=runtime_ideal,
        **factors(t_compute, runtime_ideal, duration),
        phases=tuple(phases))


# --------------------------------------------------------------------------
# emission


def _header(scenario: Scenario, duration: int) -> str:
    P = scenario.rank_count
    if scenario.time_unit is TimeUnit.MICROSECONDS:
        dur = f"{duration // 1000}_us"
    else:
        dur = f"{duration}_ns"
    tasks = ",".join(["1:1"] * P)
    return f"#Paraver {HEADER_DATE}:{dur}:1({P}):1:{P}({tasks})"


def _communicator_lines(comms: _Comms) -> list[str]:
    return [f"c:1:{cid}:{len(members)}:"
            + ":".join([str(i + 1) for i in members])
            for groups in comms.values() for members, cid in groups]


def pcf_text(scenario: Scenario | None = None) -> str:
    units = "MICROSEC" if scenario is not None \
        and scenario.time_unit is TimeUnit.MICROSECONDS else "NANOSEC"
    return f"""DEFAULT_OPTIONS

LEVEL               THREAD
UNITS               {units}

EVENT_TYPE
0    {EVTYPE_P2P}    MPI point-to-point call
VALUES
0    End
{CALL_ISEND}    MPI_Isend
{CALL_RECV}    MPI_Recv
{CALL_WAITALL}    MPI_Waitall

EVENT_TYPE
0    {EVTYPE_COLLECTIVE}    MPI collective call
VALUES
0    End
{COLL_BARRIER}    MPI_Barrier
{COLL_ALLREDUCE}    MPI_Allreduce

EVENT_TYPE
0    {EVTYPE_OTHER}    MPI environment call
VALUES
0    End
{OTHER_INIT}    MPI_Init
{OTHER_FINALIZE}    MPI_Finalize

EVENT_TYPE
0    {EVTYPE_COMM_ID}    Collective communicator id
"""


def generate_with_expected(scenario: Scenario, prv_path,
                           ) -> tuple[str, str, ExpectedMetrics]:
    """Stream the scenario to <prv_path> and a sibling .pcf, and return
    both paths with the scenario's expected metrics.

    Two walks: the first, with no sink, sizes the header and gives the
    expectation; the second writes the records.  Memory use stays
    proportional to one block of iterations, not to the file.
    """
    scenario.validate()
    prv_path = Path(prv_path)
    comms = _communicators(scenario)
    duration, final, snaps = _walk(scenario, _Sink(), comms)
    with open(prv_path, "w", encoding="utf-8") as fh:
        fh.write(_header(scenario, duration) + "\n")
        for line in _communicator_lines(comms):
            fh.write(line + "\n")
        _walk(scenario, _StreamSink(scenario, fh, comms), comms)
    pcf_path = prv_path.with_suffix(".pcf")
    pcf_path.write_text(pcf_text(scenario), encoding="utf-8")
    return (str(prv_path), str(pcf_path),
            _expectation(scenario, duration, final, snaps))


def generate_to_files(scenario: Scenario, prv_path) -> tuple[str, str]:
    """Stream the scenario to <prv_path> and a sibling .pcf; returns
    both paths."""
    return generate_with_expected(scenario, prv_path)[:2]
