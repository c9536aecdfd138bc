"""Shared fixtures: force one of replay's two sweep paths."""

import importlib

import pytest

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
