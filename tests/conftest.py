"""Shared fixtures: force one of replay's two sweep paths, or turn off
its cuts at collectives (world cuts and group cuts alike); a reader of a
trace's region columns; and a builder of replay's output from per-rank
clock points."""

import importlib

import numpy as np
import pytest

from paraslice.model import CLASS_CODES
from paraslice.replay import AnnotatedTimeline

# the module, not the replay function the package exports under its name
replay_module = importlib.import_module("paraslice.replay")

#: WIDE_WAVE_RANKS values that send every batch of ready ranks one way
EVERY_WAVE_WIDE = 1
EVERY_WAVE_SCALAR = 1 << 30


@pytest.fixture
def every_wave_wide(monkeypatch):
    """Every batch of ready ranks advances as one numpy wave."""
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", EVERY_WAVE_WIDE)


@pytest.fixture
def every_wave_scalar(monkeypatch):
    """Every ready rank advances through the scalar loop."""
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", EVERY_WAVE_SCALAR)


def no_cuts(*args):
    """A cut finder that never cuts, neither at world nor at group
    collectives: every sweep runs on ranks."""
    return None


@pytest.fixture
def without_cuts(monkeypatch):
    """Replay never cuts, neither at collectives of all ranks nor at
    those of all ranks of a group."""
    monkeypatch.setattr(replay_module, "_find_cuts", no_cuts)


def region_lists(trace):
    """Every rank's regions as (entry, exit, CallClass, communicator hint
    or None) tuples, read from the region table's columns."""
    t = trace.regions
    classes = {code: cls for cls, code in CLASS_CODES.items()}
    hints = dict(zip(t.hint_rows.tolist(), t.hint_values.tolist()))
    rows = list(zip(t.entry_times.tolist(), t.exit_times.tolist(),
                    [classes[c] for c in t.class_codes.tolist()],
                    [hints.get(j) for j in range(t.row_count)]))
    bounds = t.offsets.tolist()
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def timeline_of_ranks(ranks, duration, event_offsets=None, event_columns=()):
    """An AnnotatedTimeline whose rank r has the clock points of
    ranks[r], a RankTimeline, packed into rank-major point columns; it
    has no event points unless event_offsets and event_columns give
    them."""
    bounds = np.cumsum([0] + [len(tl.times) for tl in ranks])
    if event_offsets is None:
        event_offsets = np.zeros(len(ranks) + 1, dtype=np.int64)
    columns = [np.concatenate([np.asarray(getattr(tl, name), dtype=np.int64)
                               for tl in ranks] + [np.zeros(0, np.int64)])
               for name in ("times", "oom", "ideal")]
    return AnnotatedTimeline(*columns, bounds, duration, event_offsets,
                             event_columns)
