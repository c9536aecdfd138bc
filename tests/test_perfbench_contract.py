"""The benchmark's traced child against this source tree: every name it
wraps exists, every hook reads what it expects, and the timeline checks
pass, on a plain and on a --strict run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paraslice.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"

SCENARIO = {
    "name": "ring", "rank_count": 4, "seed": 1,
    "phases": [{"pattern": "ring_exchange", "iterations": 20,
                "compute": {"kind": "uniform", "mean_ns": 50000,
                            "jitter_ns": 5000},
                "message_bytes": 1024}],
}


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    base = tmp_path_factory.mktemp("traced")
    scenario = base / "ring.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    prv = base / "ring.prv"
    assert main(["generate", str(scenario), "--out", str(prv),
                 "--expected"]) == EXIT_OK
    return base, prv


@pytest.mark.parametrize("extra", [(), ("--strict",)], ids=["plain", "strict"])
def test_traced_child_finds_every_name(ring, extra):
    base, prv = ring
    mode = "strict" if extra else "plain"
    result = base / f"{mode}.result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TRACED), "analyze", str(result),
         str(base / "ring.expected.json"), "--", "analyze", str(prv),
         "--out-dir", str(base / mode), "--format", "json", "--plot",
         *extra],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text(encoding="utf-8"))
    assert got["rc"] == EXIT_OK
    assert (got["missing"], got["hook_errors"], got["errors"]) == ([], [], [])
    if extra:
        assert got["counts"]["model.violations"] == 0
