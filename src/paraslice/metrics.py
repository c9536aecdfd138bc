"""Parallel-efficiency factors, per window and for the whole run.

Within a window of length E the factors come from integer clock deltas:
load balance spreads the out-of-MPI work across ranks, serialisation
relates the slowest rank to the critical-path advance, and transfer
relates that advance to elapsed time.  Their product equals the plain
efficiency sum(delta_oom) / (P * E).  The global factors are those of
one window spanning the whole run, whose deltas are the final clock
values, so they are exact and independent of the window layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .replay import AnnotatedTimeline
from .windows import BoundaryClocks, WindowPlan, boundary_clocks


class NoComputeError(Exception):
    """The trace contains no out-of-MPI time on any rank."""


@dataclass(frozen=True, slots=True)
class WindowMetrics:
    start_ns: int
    end_ns: int
    merged_from: int
    idle: bool
    defined: bool
    delta_oom: tuple[int, ...]
    delta_cp: int
    load_balance: float | None
    serialisation: float | None
    transfer: float | None
    efficiency: float | None

    @property
    def merged(self) -> bool:
        return self.merged_from > 1


@dataclass(frozen=True, slots=True)
class GlobalMetrics:
    rank_count: int
    t_compute: tuple[int, ...]
    runtime_ideal: int
    runtime_observed: int
    load_balance: float
    serialisation: float
    transfer: float
    efficiency: float


def window_metrics(start_ns: int, end_ns: int, delta_oom: np.ndarray,
                   delta_cp: int, merged_from: int = 1,
                   idle: bool = False) -> WindowMetrics:
    """Factors of one window from its integer clock deltas.

    Efficiency and transfer divide by the window length, so they exist
    for every window; load balance needs at least one computing rank and
    serialisation a critical path that advanced, so each is None when its
    denominator vanishes.  A window where nobody computed is flagged
    idle, as is one the plan flags (some rank holds fewer than
    min_events points even after merging); defined marks windows where
    the full factor decomposition load_balance * serialisation *
    transfer = efficiency exists.
    Serialisation may exceed 1 in a window that drains work queued
    before its start; it is reported as measured.
    """
    length = end_ns - start_ns
    if length <= 0:
        raise ValueError("window must have positive length")
    deltas = tuple(delta_oom.tolist())
    delta_cp = int(delta_cp)
    total = sum(deltas)
    peak = max(deltas)
    ranks = len(deltas)
    return WindowMetrics(
        start_ns, end_ns, merged_from, idle or peak == 0,
        defined=peak > 0 and delta_cp > 0,
        delta_oom=deltas, delta_cp=delta_cp,
        load_balance=total / (ranks * peak) if peak else None,
        serialisation=peak / delta_cp if delta_cp else None,
        transfer=delta_cp / length,
        efficiency=total / (ranks * length),
    )


def window_series(timeline: AnnotatedTimeline, plan: WindowPlan,
                  bc: BoundaryClocks | None = None) -> list[WindowMetrics]:
    """Metrics for every window of a plan, via one vectorized
    interpolation pass over the boundaries; bc, when given, holds the
    clocks at plan.boundaries() already."""
    if bc is None:
        bc = boundary_clocks(timeline, plan.boundaries())
    # one row of rank deltas per window
    deltas = np.ascontiguousarray(np.diff(bc.oom, axis=1).T)
    delta_cp = np.diff(critical_path(bc)).tolist()
    return [window_metrics(w.start_ns, w.end_ns, d, cp,
                           merged_from=w.merged_from, idle=w.idle)
            for w, d, cp in zip(plan.windows, deltas, delta_cp)]


def critical_path(bc: BoundaryClocks) -> np.ndarray:
    """Critical-path clock at each boundary: the rank maximum of the
    ideal clock, itself 1-Lipschitz on causally consistent traces."""
    return bc.ideal.max(axis=0)


def global_metrics(timeline: AnnotatedTimeline) -> GlobalMetrics:
    """Whole-run factors: those of one window spanning the run, whose
    deltas are the final clock values of every rank."""
    finals = timeline.final_triples()
    if not any(f.oom for f in finals):
        raise NoComputeError("no rank spent any time outside MPI")
    runtime_ideal = max(f.ideal for f in finals)
    wm = window_metrics(0, timeline.total_duration,
                        np.array([f.oom for f in finals], dtype=np.int64),
                        runtime_ideal)
    return GlobalMetrics(
        rank_count=len(finals),
        t_compute=wm.delta_oom,
        runtime_ideal=runtime_ideal,
        runtime_observed=timeline.total_duration,
        load_balance=wm.load_balance,
        serialisation=wm.serialisation,
        transfer=wm.transfer,
        efficiency=wm.efficiency,
    )
