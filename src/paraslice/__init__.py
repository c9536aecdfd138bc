"""Post-mortem MPI efficiency analysis for Paraver traces.

The pipeline: load a .prv trace, replay its ordering constraints to
reconstruct per-rank elapsed / out-of-MPI / ideal-network clocks, lay
adaptive windows over the run, and decompose parallel efficiency into
load balance, serialisation and transfer — per window and globally.
A seeded scenario generator produces synthetic traces whose factors are
known exactly, for testing and calibration.

Importing paraslice before numpy starts numpy's OpenBLAS with one thread:
paraslice calls no BLAS routine, and the thread pool OpenBLAS starts at
load (one worker per core) only slows every run's start-up. A BLAS thread
count set in the environment, or numpy imported first, is left alone.
"""


def _import_numpy_with_one_blas_thread() -> None:
    import os
    import sys

    # OpenBLAS reads these once, when it loads, in this order of precedence.
    if "numpy" in sys.modules or any(
            var in os.environ for var in
            ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_with_one_blas_thread()

from .metrics import (
    GlobalMetrics,
    NoComputeError,
    WindowMetrics,
    global_metrics,
    window_metrics,
    window_series,
)
from .model import (
    AnomalyKind,
    AnomalyLog,
    CallClass,
    CollectiveOp,
    CommunicatorDef,
    MessageStatus,
    MpiRegion,
    PtpMessage,
    TimeUnit,
    Trace,
    TraceMeta,
    WORLD_COMM_ID,
    validate_trace,
)
from .prv import IngestCounters, IngestError, load_labels, load_trace
from .replay import (
    AnnotatedTimeline,
    ClockTriple,
    DEFAULT_EAGER_LIMIT,
    DependencyCycleError,
    RankTimeline,
    ReplayConfig,
    ReplayError,
    StrictAnomalyError,
    replay,
)
from .windows import (
    BoundaryClocks,
    Window,
    WindowPlan,
    boundary_clocks,
    clocks_at,
    interpolate_clock,
    plan_windows,
)

__version__ = "0.1.0"

# The generator is not on the `analyze` path; load it on first use.
_SYNTH_NAMES = frozenset({
    "ComputeSpec", "ExpectedMetrics", "PhaseExpectation", "PhaseSpec",
    "Scenario", "ScenarioError", "compute_matrix", "expected_metrics",
    "generate_to_files", "generate_trace", "load_scenario",
})


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SYNTH_NAMES)

__all__ = [
    "AnnotatedTimeline", "AnomalyKind", "AnomalyLog", "BoundaryClocks",
    "CallClass", "ClockTriple", "CollectiveOp", "CommunicatorDef",
    "ComputeSpec", "DEFAULT_EAGER_LIMIT", "DependencyCycleError",
    "ExpectedMetrics", "GlobalMetrics", "IngestCounters", "IngestError",
    "MessageStatus", "MpiRegion", "NoComputeError", "PhaseExpectation",
    "PhaseSpec", "PtpMessage", "RankTimeline", "ReplayConfig",
    "ReplayError", "Scenario", "ScenarioError", "StrictAnomalyError",
    "TimeUnit", "Trace", "TraceMeta", "WORLD_COMM_ID", "Window",
    "WindowMetrics", "WindowPlan", "boundary_clocks", "clocks_at",
    "compute_matrix", "expected_metrics", "generate_to_files",
    "generate_trace", "global_metrics", "interpolate_clock", "load_labels",
    "load_scenario", "load_trace", "plan_windows", "replay",
    "validate_trace", "window_metrics", "window_series",
]
