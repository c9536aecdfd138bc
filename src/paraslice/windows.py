"""Adaptive time windows and clock interpolation between event points.

The analysis span is tiled with fixed-length windows, the tile length is
doubled while any window contains no MPI event point at all, and windows
that still leave some rank under the event-count threshold are merged
greedily into their successors.  The event points are the MPI region
entries and exits, read from the replayed trace's rank-major region
columns; planning costs time in the number of points and output
windows, never in the number of spans a short window length asks for.

Between two stored event points a clock is interpolated with the min-cap
rule: it rises 1:1 with elapsed time until it hits the value stored at
the segment end, so waiting inside MPI is attributed to the tail of the
region, never smeared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .replay import AnnotatedTimeline, ClockTriple, RankTimeline


@dataclass(slots=True)
class Window:
    start_ns: int
    end_ns: int
    merged_from: int = 1
    idle: bool = False
    event_counts: list[int] = field(default_factory=list)

    @property
    def merged(self) -> bool:
        return self.merged_from > 1

    @property
    def length_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(slots=True)
class WindowPlan:
    windows: list[Window]
    base_length_ns: int
    requested_length_ns: int
    effective_duration_ns: int
    clamped: bool
    min_events: int

    def boundaries(self) -> np.ndarray:
        bounds = [w.start_ns for w in self.windows]
        bounds.append(self.windows[-1].end_ns)
        return np.asarray(bounds, dtype=np.int64)


def plan_windows(timeline: AnnotatedTimeline, base_length_ns: int,
                 min_events: int = 8,
                 cutoff_ns: int | None = None) -> WindowPlan:
    """Lay out the analysis windows for one replayed trace.

    Spans of one length tile [0, duration]; the last one also keeps the
    point at its end.  The event points are the timeline's event
    columns, each counted in the span min(t // length, spans - 1).  The
    doubling only asks whether the points cover every span, and starts
    counting once there are no more spans than points; per-rank counts
    exist only at the final length, as one bincount over (rank, span).
    """
    if base_length_ns <= 0:
        raise ValueError("window length must be positive")
    if min_events < 3:
        raise ValueError("min_events must be at least 3: fewer pooled event"
                         " points cannot anchor a window's clock deltas")
    duration = timeline.total_duration
    clamped = cutoff_ns is not None and cutoff_ns < duration
    if clamped:
        duration = cutoff_ns
    if duration <= 0:
        raise ValueError("analysis span is empty")

    # each column's points inside the analysis span, and where they sit
    offsets = timeline.event_offsets
    columns = []
    for col in timeline.event_columns:
        inside = (col >= 0) & (col <= duration)
        columns.append((col, None) if inside.all() else (col[inside], inside))
    key = np.empty(sum(len(col) for col, _ in columns), dtype=np.int64)

    def spans_into_key(length: int, nspans: int) -> None:
        """key <- the span of every point, column after column."""
        at = 0
        for col, _ in columns:
            part = key[at:at + len(col)]
            np.floor_divide(col, length, out=part)
            np.minimum(part, nspans - 1, out=part)
            at += len(col)

    length = base_length_ns
    while length < duration:
        nspans = -(-duration // length)
        if nspans <= len(key):
            spans_into_key(length, nspans)
            seen = np.zeros(nspans, dtype=bool)
            seen[key] = True
            if seen.all():
                break
        length *= 2
    length = min(length, duration)
    nspans = -(-duration // length)

    # key <- rank * nspans + span: one bincount gives the counts
    spans_into_key(length, nspans)
    P = len(offsets) - 1
    rank_base = np.repeat(np.arange(P, dtype=np.int64) * nspans,
                          np.diff(offsets))
    at = 0
    for col, inside in columns:
        key[at:at + len(col)] += \
            rank_base if inside is None else rank_base[inside]
        at += len(col)
    del rank_base, columns
    counts = np.bincount(key, minlength=P * nspans).reshape(P, nspans)
    del key
    alone = counts.min(axis=0) >= min_events

    # a window merges spans i..j, the fewest that give every rank
    # min_events points.  Row r of cum holds rank r's running counts
    # through each span, lifted above every value of the rows before it,
    # so one searchsorted over the flattened rows finds, per rank, the
    # first span that suffices.
    cum = np.cumsum(counts, axis=1, out=counts)
    lift = np.arange(P, dtype=np.int64) * (int(cum[:, -1].max())
                                           + min_events + 1)
    cum += lift[:, None]

    def before(spans: list[int]) -> np.ndarray:
        """Each rank's lifted running count before each of spans, a
        column per span."""
        at = np.asarray(spans, dtype=np.int64)
        out = cum[:, np.maximum(at - 1, 0)]
        out[:, at == 0] = lift[:, None]
        return out

    row_start = np.arange(P, dtype=np.int64) * nspans
    starts, ends = [], []
    i = 0
    while i < nspans:
        if alone[i]:
            j = i
        else:
            need = before([i])[:, 0] + min_events
            first = np.searchsorted(cum.ravel(), need)
            j = min(int((first - row_start).max()), nspans - 1)
        starts.append(i)
        ends.append(j)
        i = j + 1
    event_counts = cum[:, ends] - before(starts)
    idle = (event_counts.min(axis=0) < min_events).tolist()
    windows = [Window(i * length, min((j + 1) * length, duration), j - i + 1,
                      idle=w_idle, event_counts=c)
               for i, j, w_idle, c in zip(starts, ends, idle,
                                          event_counts.T.tolist())]
    return WindowPlan(windows, length, base_length_ns, duration,
                      clamped, min_events)


def interpolate_clock(tl: RankTimeline, t: int) -> ClockTriple:
    """Clock triple of one rank at an arbitrary time inside the trace.

    Elapsed time is the identity.  The stored clocks are interpolated
    with min(c0 + (t - t0), c1) over the enclosing segment: the clock
    keeps pace with elapsed time until the segment's final value caps it.
    """
    times = tl.times
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = max(0, min(i, len(times) - 2))
    dt = t - int(times[i])
    oom = min(int(tl.oom[i]) + dt, int(tl.oom[i + 1]))
    ideal = min(int(tl.ideal[i]) + dt, int(tl.ideal[i + 1]))
    return ClockTriple(t, oom, ideal)


def clocks_at(tl: RankTimeline, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized min-cap interpolation: (oom, ideal) at each time."""
    idx = np.searchsorted(tl.times, ts, side="right") - 1
    idx = np.clip(idx, 0, len(tl.times) - 2)
    dt = ts - tl.times[idx]
    oom = np.minimum(tl.oom[idx] + dt, tl.oom[idx + 1])
    ideal = np.minimum(tl.ideal[idx] + dt, tl.ideal[idx + 1])
    return oom, ideal


@dataclass(slots=True)
class BoundaryClocks:
    """Out-of-MPI and ideal clock values of every rank at every window
    boundary; row r column b belongs to rank r at boundaries[b]."""
    boundaries: np.ndarray
    oom: np.ndarray
    ideal: np.ndarray


def boundary_clocks(timeline: AnnotatedTimeline,
                    boundaries: np.ndarray) -> BoundaryClocks:
    ooms = []
    ideals = []
    for tl in timeline.ranks:
        o, i = clocks_at(tl, boundaries)
        ooms.append(o)
        ideals.append(i)
    return BoundaryClocks(boundaries, np.stack(ooms), np.stack(ideals))
