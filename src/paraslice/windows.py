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

from dataclasses import dataclass

import numpy as np

from .replay import AnnotatedTimeline


@dataclass(slots=True)
class Window:
    start_ns: int
    end_ns: int
    merged_from: int = 1
    idle: bool = False

    @property
    def merged(self) -> bool:
        return self.merged_from > 1


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

    # each column's points inside the analysis span, and where they sit;
    # no event time is negative
    offsets = timeline.event_offsets
    columns = []
    for col in timeline.event_columns:
        inside = col <= duration
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
    # no window holds more than all of a rank's points, so any larger
    # threshold plans as one above that total does
    need = min(min_events, int(counts.sum(axis=1).max()) + 1)
    alone = counts.min(axis=0) >= need

    # a window merges spans i..j, the fewest that give every rank need
    # points.  Row r of cum holds rank r's running counts through each
    # span, lifted above every value of the rows before it, so one
    # searchsorted over the flattened rows finds, per rank, the first
    # span that suffices.
    cum = np.cumsum(counts, axis=1, out=counts)
    lift = np.arange(P, dtype=np.int64) * (int(cum[:, -1].max())
                                           + need + 1)
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
            first = np.searchsorted(cum.ravel(), before([i])[:, 0] + need)
            j = min(int((first - row_start).max()), nspans - 1)
        starts.append(i)
        ends.append(j)
        i = j + 1
    idle = ((cum[:, ends] - before(starts)).min(axis=0) < need).tolist()
    windows = [Window(i * length, min((j + 1) * length, duration), j - i + 1,
                      idle=w_idle)
               for i, j, w_idle in zip(starts, ends, idle)]
    return WindowPlan(windows, length, base_length_ns, duration,
                      clamped, min_events)


@dataclass(slots=True)
class BoundaryClocks:
    """Out-of-MPI and ideal clock values of every rank at every window
    boundary; row r column b belongs to rank r at boundaries[b]."""
    boundaries: np.ndarray
    oom: np.ndarray
    ideal: np.ndarray


def boundary_clocks(timeline: AnnotatedTimeline,
                    boundaries: np.ndarray) -> BoundaryClocks:
    """Every rank's clocks at every boundary, by the min-cap rule.

    Each rank's times are searched for the point at or before every
    boundary; the interpolation then runs on the ranks x boundaries
    index matrix at once.  Every rank has points at 0 and at the
    duration, and the boundaries lie between them.
    """
    times, offsets = timeline.times, timeline.point_offsets
    bounds = offsets.tolist()
    at = np.empty((len(bounds) - 1, len(boundaries)), dtype=np.int64)
    for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
        at[r] = np.searchsorted(times[a:b], boundaries, side="right")
    # the point at or before each boundary, and never a rank's last one
    at -= 1
    np.clip(at, 0, np.diff(offsets)[:, None] - 2, out=at)
    at += offsets[:-1, None]
    dt = times[at]
    np.subtract(boundaries, dt, out=dt)
    oom, ideal = timeline.oom[at], timeline.ideal[at]
    oom += dt
    ideal += dt
    del dt
    at += 1
    np.minimum(oom, timeline.oom[at], out=oom)
    np.minimum(ideal, timeline.ideal[at], out=ideal)
    return BoundaryClocks(boundaries, oom, ideal)
