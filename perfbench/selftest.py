"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py [--scale 0.02] [--seed 1]

For every workload: set up, analyze (untraced and traced) and require
every check to pass, including the run's own check that the checker
rejects each alteration in checks.MUTATIONS (a factor, the ideal
runtime, an anomaly count, an ingest counter, a window row) of a copy
of the correct outputs.  Also confirms that a wrapped name the program lacks
is reported as a missing span, and that the benchmark refuses to run
without the program's source tree.  Exits 0 only if all of this holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

BENCH = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def check_workload(name: str, seed: int, scale: float) -> list[str]:
    work = bench.ROOT / ".perfbench_work" / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    r = bench.Run(name, seed, scale, work)
    try:
        r.setup()
        r.measure(0, traced=True)
        layers = r.per_layer()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = list(r.problems)
    if sorted(layers) != sorted(m["name"] for m in BENCH["per_layer"]):
        problems.append("per-layer metrics differ from BENCHMARK.json")
    if r.failed or r.attempted != 2 * bench.MIN_REPS:
        problems.append(f"{r.failed} of {r.attempted} analyze runs failed")
    return problems


def check_missing_span() -> list[str]:
    sys.path.insert(0, str(bench.SRC))
    from traced import Recorder
    rec = Recorder()
    rec.patch("cli.no_such_stage", "paraslice.cli", "no_such_stage")
    if rec.missing != ["cli.no_such_stage (paraslice.cli.no_such_stage)"]:
        return [f"missing name not reported: {rec.missing}"]
    return []


def check_refuses_without_source() -> list[str]:
    """Copy only the benchmark; run.py must fail without a result."""
    with tempfile.TemporaryDirectory(dir=bench.ROOT / ".perfbench_work") \
            as bare:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.HERE, Path(bare) / bench.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{bench.HERE.name}/run.py", "--workload",
             "ring16", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    if out.returncode == 0 or '"correct"' in out.stdout:
        return ["benchmark ran without the program's source tree"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    (bench.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    problems = []
    for name in bench.WORKLOADS:
        problems += [f"{name}: {p}"
                     for p in check_workload(name, args.seed, args.scale)]
    problems += check_missing_span()
    problems += check_refuses_without_source()
    try:
        (bench.ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    for p in problems:
        print(f"FAILED {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
