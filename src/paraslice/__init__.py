"""Post-mortem MPI efficiency analysis for Paraver traces.

The pipeline: load a .prv trace, replay its ordering constraints to
reconstruct per-rank elapsed / out-of-MPI / ideal-network clocks, lay
adaptive windows over the run, and decompose parallel efficiency into
load balance, serialisation and transfer — per window and globally.
A seeded scenario generator, paraslice.synth, produces synthetic traces
whose factors are known exactly, for testing and calibration.

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

from .metrics import NoComputeError, global_metrics, window_series
from .model import (
    CallClass,
    CommunicatorDef,
    MpiRegion,
    PtpMessage,
    Trace,
    TraceMeta,
    validate_trace,
)
from .prv import IngestError, load_trace
from .replay import ReplayError, replay
from .windows import plan_windows

__version__ = "0.1.0"

__all__ = [
    "CallClass", "CommunicatorDef", "IngestError", "MpiRegion",
    "NoComputeError", "PtpMessage", "ReplayError", "Trace",
    "TraceMeta", "global_metrics", "load_trace", "plan_windows", "replay",
    "validate_trace", "window_series",
]
