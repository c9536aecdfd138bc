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
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

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


def compute_matrix(scenario: Scenario) -> list[list[list[int]]]:
    """Realized compute times, [phase][iteration][rank], in nanoseconds.

    One seeded generator drawn in a fixed order makes the matrix — and
    with it the whole trace — reproducible.
    """
    rng = random.Random(scenario.seed)
    step = 1000 if scenario.time_unit is TimeUnit.MICROSECONDS else 1
    out = []
    for ph in scenario.phases:
        base = ph.compute.base_values(scenario.rank_count)
        jitter = ph.compute.jitter_ns
        rows = []
        for _ in range(ph.iterations):
            if jitter:
                rows.append([b + rng.randint(0, jitter // step) * step
                             for b in base])
            else:
                rows.append(list(base))
        out.append(rows)
    return out


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
    """Writes Paraver record lines to fh a batch at a time, each batch
    ordered by (time, rank, per-rank sequence) so every rank's
    open/close order survives the merge."""

    def __init__(self, scenario: Scenario, fh):
        self.fh = fh
        self.div = 1000 if scenario.time_unit is TimeUnit.MICROSECONDS else 1
        self._seq = [0] * scenario.rank_count
        self._batch: list[tuple[int, int, int, str]] = []

    def _push(self, time: int, rank: int, text: str) -> None:
        self._batch.append((time, rank, self._seq[rank], text))
        self._seq[rank] += 1

    def region(self, rank, entry, exit_, etype, call, comm_id=None):
        obj = f"{rank + 1}:1:{rank + 1}:1"
        pairs = f"{etype}:{call}"
        if comm_id is not None:
            pairs += f":{EVTYPE_COMM_ID}:{comm_id}"
        self._push(entry, rank, f"2:{obj}:{entry // self.div}:{pairs}")
        self._push(exit_, rank, f"2:{obj}:{exit_ // self.div}:{etype}:0")

    def message(self, sender, receiver, send_begin, recv_end, size, tag):
        s = f"{sender + 1}:1:{sender + 1}:1"
        r = f"{receiver + 1}:1:{receiver + 1}:1"
        sb = send_begin // self.div
        re = recv_end // self.div
        self._push(send_begin, sender,
                   f"3:{s}:{sb}:{sb}:{r}:{re}:{re}:{size}:{tag}")

    def batch_done(self) -> None:
        if self._batch:
            self._batch.sort()
            self.fh.write("\n".join([t[3] for t in self._batch]))
            self.fh.write("\n")
            self._batch.clear()


@dataclass(slots=True)
class _Snap:
    elapsed: list[int]
    oom: list[int]
    ideal: list[int]


def _snapshot(e, o, d) -> _Snap:
    return _Snap(list(e), list(o), list(d))


def _split_groups(rank_count: int, split: int) -> list[list[int]]:
    return [[i for i in range(rank_count) if i % split == g]
            for g in range(split)]


def _communicator_ids(scenario: Scenario) -> dict[tuple[int, int], int]:
    """Stable ids for every subcommunicator the scenario uses; the world
    communicator keeps id 1."""
    ids: dict[tuple[int, int], int] = {}
    nxt = 2
    for ph in scenario.phases:
        k = ph.communicator_split or 1
        if k > 1:
            for g in range(k):
                if (k, g) not in ids:
                    ids[(k, g)] = nxt
                    nxt += 1
    return ids


def _walk(scenario: Scenario, matrix, sink: _Sink,
          comm_ids: dict[tuple[int, int], int],
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

    for pi, ph in enumerate(scenario.phases):
        for it in range(ph.iterations):
            c = matrix[pi][it]
            _ITERATION[ph.pattern](ph, it, c, e, o, d, sink, comm_ids)
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


def _iter_none(ph, it, c, e, o, d, sink, comm_ids):
    for i in range(len(e)):
        e[i] += c[i]
        o[i] += c[i]
        d[i] += c[i]


def _iter_ring(ph, it, c, e, o, d, sink, comm_ids):
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


def _iter_stencil(ph, it, c, e, o, d, sink, comm_ids):
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


def _iter_allreduce(ph, it, c, e, o, d, sink, comm_ids):
    P = len(e)
    k = ph.communicator_split or 1
    r = [e[i] + c[i] for i in range(P)]
    for g, members in enumerate(_split_groups(P, k)):
        end = max(r[i] for i in members) + ph.injected_wait_ns
        peak = max(d[i] + c[i] for i in members)
        cid = comm_ids[(k, g)] if k > 1 else None
        for i in members:
            sink.region(i, r[i], end, EVTYPE_COLLECTIVE, COLL_ALLREDUCE,
                        comm_id=cid)
            e[i] = end
            o[i] += c[i]
            d[i] = peak


def _iter_chain(ph, it, c, e, o, d, sink, comm_ids):
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
    matrix = compute_matrix(scenario)
    duration, final, snaps = _walk(scenario, matrix, _Sink(),
                                   _communicator_ids(scenario))
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


def _communicator_lines(scenario: Scenario,
                        comm_ids: dict[tuple[int, int], int]) -> list[str]:
    P = scenario.rank_count
    world = ":".join(str(i + 1) for i in range(P))
    lines = [f"c:1:1:{P}:{world}"]
    for (k, g), cid in sorted(comm_ids.items(), key=lambda kv: kv[1]):
        members = _split_groups(P, k)[g]
        body = ":".join(str(i + 1) for i in members)
        lines.append(f"c:1:{cid}:{len(members)}:{body}")
    return lines


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


def generate_to_files(scenario: Scenario, prv_path) -> tuple[str, str]:
    """Stream the scenario to <prv_path> and a sibling .pcf; memory use
    stays proportional to one iteration, not to the file."""
    scenario.validate()
    prv_path = Path(prv_path)
    matrix = compute_matrix(scenario)
    comm_ids = _communicator_ids(scenario)
    duration, _, _ = _walk(scenario, matrix, _Sink(), comm_ids)
    with open(prv_path, "w", encoding="utf-8") as fh:
        fh.write(_header(scenario, duration) + "\n")
        for line in _communicator_lines(scenario, comm_ids):
            fh.write(line + "\n")
        _walk(scenario, matrix, _StreamSink(scenario, fh), comm_ids)
    pcf_path = prv_path.with_suffix(".pcf")
    pcf_path.write_text(pcf_text(scenario), encoding="utf-8")
    return str(prv_path), str(pcf_path)
