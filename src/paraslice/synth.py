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

Generation walks the scenario twice: a walk with no sink sizes the
header and gives the expectation, and a second walk writes the records,
a batch per iteration in (time, rank, emission) order.  Each walk
redraws the compute times from the scenario's seed, a block of
iterations at a time, with draw_below taking exactly the values
randint would; no walk holds more than one block, so memory does not
grow with the iteration count.
"""

from __future__ import annotations

import json
import random
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
        if P < 1:
            problems.append("rank_count must be at least 1")
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
    """Build a validated Scenario from a dict, a JSON file path, or JSON
    text that has already been read."""
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


# values drawn at a time: bounds the generator's memory whatever the
# iteration count, while the draws stay a few numpy calls per block
_DRAW_BLOCK = 1 << 12


def _compute_rows(scenario: Scenario) -> Iterator[list[int]]:
    """Realized compute times in nanoseconds, one [rank] row per
    iteration, phase after phase.

    One seeded generator drawn in a fixed order, rank by rank within an
    iteration, makes every row, and with them the whole trace,
    reproducible.  Rows are drawn a block of iterations at a time, never
    the whole run; a phase without jitter yields one shared row.
    """
    rng = random.Random(scenario.seed)
    P = scenario.rank_count
    step = 1000 if scenario.time_unit is TimeUnit.MICROSECONDS else 1
    for ph in scenario.phases:
        base = ph.compute.base_values(P)
        jitter = ph.compute.jitter_ns
        if not jitter:
            for _ in range(ph.iterations):
                yield base
            continue
        n = jitter // step + 1
        # exact integers past int64, numpy's fast ones below it
        dtype = np.int64 if max(base) + (n - 1) * step < 1 << 63 else object
        start = np.array(base, dtype=dtype)
        per = max(1, _DRAW_BLOCK // P)
        for first in range(0, ph.iterations, per):
            count = min(per, ph.iterations - first)
            draws = draw_below(rng, n, count * P).astype(dtype, copy=False)
            yield from (draws.reshape(count, P) * step + start).tolist()


def compute_matrix(scenario: Scenario) -> list[list[list[int]]]:
    """Realized compute times, [phase][iteration][rank], in nanoseconds:
    every row the walk draws, held at once."""
    rows = _compute_rows(scenario)
    return [[list(next(rows)) for _ in range(ph.iterations)]
            for ph in scenario.phases]


# --------------------------------------------------------------------------
# simulation walk: one pass drives both the record emission and the
# expectation bookkeeping


class _Sink:
    """Receiver for the records the walk produces; the null variant turns
    the walk into the pure expectation oracle."""

    def region(self, rank: int, entry: int, exit_: int, etype: int,
               call: int, comm_id: int | None = None) -> None:
        pass

    def message(self, sender: int, receiver: int, send_begin: int,
                recv_end: int, size: int, tag: int) -> None:
        pass

    def batch_done(self) -> None:
        pass


class _StreamSink(_Sink):
    """Writes Paraver record lines to fh a batch at a time.

    A batch is ordered by time, then rank, then the order the walk
    emitted that rank's records in: one stable sort on the integer key
    time * P + rank, so every rank's open/close order survives the
    merge.  The per-rank object fields are built once.
    """

    def __init__(self, scenario: Scenario, fh):
        self.fh = fh
        self.P = scenario.rank_count
        self.div = 1000 if scenario.time_unit is TimeUnit.MICROSECONDS else 1
        self._obj = [f"{r}:1:{r}:1" for r in range(1, self.P + 1)]
        self._keys: list[int] = []
        self._lines: list[str] = []

    def region(self, rank, entry, exit_, etype, call, comm_id=None):
        obj = self._obj[rank]
        div = self.div
        if comm_id is None:
            opened = f"2:{obj}:{entry // div}:{etype}:{call}"
        else:
            opened = (f"2:{obj}:{entry // div}:{etype}:{call}"
                      f":{EVTYPE_COMM_ID}:{comm_id}")
        self._keys += (entry * self.P + rank, exit_ * self.P + rank)
        self._lines += (opened, f"2:{obj}:{exit_ // div}:{etype}:0")

    def message(self, sender, receiver, send_begin, recv_end, size, tag):
        sb = send_begin // self.div
        re = recv_end // self.div
        self._keys.append(send_begin * self.P + sender)
        self._lines.append(f"3:{self._obj[sender]}:{sb}:{sb}:"
                           f"{self._obj[receiver]}:{re}:{re}:{size}:{tag}")

    def batch_done(self) -> None:
        if self._lines:
            order = sorted(range(len(self._keys)), key=self._keys.__getitem__)
            lines = self._lines
            self.fh.write("\n".join([lines[i] for i in order]) + "\n")
            self._keys.clear()
            lines.clear()


@dataclass(slots=True)
class _Snap:
    elapsed: list[int]
    oom: list[int]
    ideal: list[int]


def _snapshot(e, o, d) -> _Snap:
    return _Snap(list(e), list(o), list(d))


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


def _walk(scenario: Scenario, sink: _Sink, comms: _Comms,
          ) -> tuple[int, _Snap, list[_Snap]]:
    """Run the scenario, emitting records and tracking the exact clocks.

    Returns (trace duration, final clock state, per-phase snapshots with
    the starting state first).
    """
    P = scenario.rank_count
    e = [0] * P   # elapsed cursor
    o = [0] * P   # out-of-MPI total
    d = [0] * P   # ideal clock
    snaps = [_snapshot(e, o, d)]

    for i in range(P):
        sink.region(i, 0, 0, EVTYPE_OTHER, OTHER_INIT)
    sink.batch_done()

    rows = _compute_rows(scenario)
    for ph in scenario.phases:
        iteration = _ITERATION[ph.pattern]
        for it in range(ph.iterations):
            iteration(ph, it, next(rows), e, o, d, sink, comms)
            sink.batch_done()
        if ph.pattern == "allreduce" and (ph.communicator_split or 1) > 1:
            # realign the groups so the next phase starts from one front
            end = max(e)
            peak = max(d)
            for i in range(P):
                sink.region(i, e[i], end, EVTYPE_COLLECTIVE, COLL_BARRIER)
                e[i] = end
                d[i] = peak
            sink.batch_done()
        snaps.append(_snapshot(e, o, d))

    duration = max(e)
    for i in range(P):
        sink.region(i, e[i], duration, EVTYPE_OTHER, OTHER_FINALIZE)
    sink.batch_done()
    return duration, _snapshot(e, o, d), snaps


def _iter_none(ph, it, c, e, o, d, sink, comms):
    for i in range(len(e)):
        e[i] += c[i]
        o[i] += c[i]
        d[i] += c[i]


def _iter_ring(ph, it, c, e, o, d, sink, comms):
    P = len(e)
    w = ph.injected_wait_ns
    r = [e[i] + c[i] for i in range(P)]
    g = [d[i] + c[i] for i in range(P)]
    done = [max(r[i], r[(i - 1) % P] + w) for i in range(P)]
    end = max(done)
    peak = max(g)
    for i in range(P):
        sink.region(i, r[i], r[i], EVTYPE_P2P, CALL_ISEND)
        sink.region(i, r[i], done[i], EVTYPE_P2P, CALL_RECV)
        sink.region(i, done[i], end, EVTYPE_COLLECTIVE, COLL_BARRIER)
        sink.message(i, (i + 1) % P, r[i], done[(i + 1) % P],
                     ph.message_bytes, it + 1)
        e[i] = end
        o[i] += c[i]
        d[i] = peak


def _iter_stencil(ph, it, c, e, o, d, sink, comms):
    P = len(e)
    w = ph.injected_wait_ns
    r = [e[i] + c[i] for i in range(P)]
    g = [d[i] + c[i] for i in range(P)]
    nbrs = [[j for j in (i - 1, i + 1) if 0 <= j < P] for i in range(P)]
    done = [max(r[i], max(r[j] + w for j in nbrs[i])) for i in range(P)]
    end = max(done)
    peak = max(g)
    for i in range(P):
        sink.region(i, r[i], r[i], EVTYPE_P2P, CALL_ISEND)
        sink.region(i, r[i], done[i], EVTYPE_P2P, CALL_WAITALL)
        sink.region(i, done[i], end, EVTYPE_COLLECTIVE, COLL_BARRIER)
        for j in nbrs[i]:
            sink.message(i, j, r[i], done[j], ph.message_bytes, it + 1)
        e[i] = end
        o[i] += c[i]
        d[i] = peak


def _iter_allreduce(ph, it, c, e, o, d, sink, comms):
    k = ph.communicator_split or 1
    r = [e[i] + c[i] for i in range(len(e))]
    for members, cid in comms[k]:
        end = max([r[i] for i in members]) + ph.injected_wait_ns
        peak = max([d[i] + c[i] for i in members])
        for i in members:
            sink.region(i, r[i], end, EVTYPE_COLLECTIVE, COLL_ALLREDUCE,
                        comm_id=cid if k > 1 else None)
            e[i] = end
            o[i] += c[i]
            d[i] = peak


def _iter_chain(ph, it, c, e, o, d, sink, comms):
    P = len(e)
    w = ph.injected_wait_ns
    q = [0] * P
    g = [0] * P
    for i in range(P):
        if i == 0:
            q[0] = e[0] + c[0]
            g[0] = d[0] + c[0]
        else:
            arrived = max(e[i], q[i - 1] + w)
            sink.region(i, e[i], arrived, EVTYPE_P2P, CALL_RECV)
            sink.message(i - 1, i, q[i - 1], arrived, ph.message_bytes,
                         it + 1)
            q[i] = arrived + c[i]
            g[i] = max(d[i], g[i - 1]) + c[i]
        if i < P - 1:
            sink.region(i, q[i], q[i], EVTYPE_P2P, CALL_ISEND)
    end = max(q)
    peak = max(g)
    for i in range(P):
        sink.region(i, q[i], end, EVTYPE_COLLECTIVE, COLL_BARRIER)
        e[i] = end
        o[i] += c[i]
        d[i] = peak


_ITERATION = {
    "none": _iter_none,
    "ring_exchange": _iter_ring,
    "neighbor_stencil": _iter_stencil,
    "allreduce": _iter_allreduce,
    "serial_chain": _iter_chain,
}


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
        _walk(scenario, _StreamSink(scenario, fh), comms)
    pcf_path = prv_path.with_suffix(".pcf")
    pcf_path.write_text(pcf_text(scenario), encoding="utf-8")
    return (str(prv_path), str(pcf_path),
            _expectation(scenario, duration, final, snaps))


def generate_to_files(scenario: Scenario, prv_path) -> tuple[str, str]:
    """Stream the scenario to <prv_path> and a sibling .pcf; returns
    both paths."""
    return generate_with_expected(scenario, prv_path)[:2]
