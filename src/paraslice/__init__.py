"""Post-mortem MPI efficiency analysis for Paraver traces.

The pipeline: load a .prv trace, replay its ordering constraints to
reconstruct per-rank elapsed / out-of-MPI / ideal-network clocks, lay
adaptive windows over the run, and decompose parallel efficiency into
load balance, serialisation and transfer — per window and globally.
A seeded scenario generator produces synthetic traces whose factors are
known exactly, for testing and calibration.
"""

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
from .synth import (
    ComputeSpec,
    ExpectedMetrics,
    PhaseExpectation,
    PhaseSpec,
    Scenario,
    ScenarioError,
    compute_matrix,
    expected_metrics,
    generate_to_files,
    generate_trace,
    load_scenario,
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
