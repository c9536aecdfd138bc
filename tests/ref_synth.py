"""Reference generator: the record-at-a-time walk that paraslice shipped
before the block walk, kept verbatim as the oracle for
tests/test_synth_diff.py, the way tests/ref_ingest.py is for ingest.

It walks the scenario rank by rank and iteration by iteration in Python,
one sink call per record, and sorts each iteration's records on the key
time * P + rank.  It must not be "fixed" along with the production
walk: it defines the expected .prv text and ExpectedMetrics.  The
scenario model, the draws, the header, the communicator lines and the
factor arithmetic are the production ones; `reference_generate` runs
its two walks the way generation did.
"""

from __future__ import annotations

import io
import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from paraslice.model import TimeUnit
from paraslice.prv import (
    EVTYPE_COLLECTIVE,
    EVTYPE_COMM_ID,
    EVTYPE_OTHER,
    EVTYPE_P2P,
)
from paraslice.synth import (
    CALL_ISEND,
    CALL_RECV,
    CALL_WAITALL,
    COLL_ALLREDUCE,
    COLL_BARRIER,
    OTHER_FINALIZE,
    OTHER_INIT,
    ExpectedMetrics,
    Scenario,
    _communicator_lines,
    _communicators,
    _expectation,
    _header,
    draw_below,
)


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


def _walk(scenario: Scenario, sink: _Sink, comms,
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


def reference_generate(scenario: Scenario) -> tuple[str, ExpectedMetrics]:
    """The .prv text and the expectation the record-at-a-time generator
    made for scenario: a null walk sizes the header, a second writes."""
    comms = _communicators(scenario)
    duration, final, snaps = _walk(scenario, _Sink(), comms)
    fh = io.StringIO()
    fh.write(_header(scenario, duration) + "\n")
    for line in _communicator_lines(comms):
        fh.write(line + "\n")
    _walk(scenario, _StreamSink(scenario, fh), comms)
    return fh.getvalue(), _expectation(scenario, duration, final, snaps)
