"""paraslice benchmark: seeded trace workloads through the real CLI.

    python3 perfbench/run.py --workload ring16 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is taken from
`src/`, nothing needs installing).  One run:

1. set-up: renders the workload's scenario with `paraslice generate
   --expected` several times (the median time is `setup_s`; every copy
   must be byte-identical), and for `chain64_anomalous` injects seeded
   bad lines;
2. measures: starts one `paraslice analyze` child after another for
   `--seconds`, timing each from spawn to exit and taking its own peak
   RSS from `wait4`; every run's outputs are checked against the oracle
   (see checks.py) and must be byte-identical to the first run's;
3. with `--trace 1`, also runs a traced in-process analysis (traced.py)
   after each untraced one, times the generator in-process, and reports
   the per-module breakdown instead of the end-to-end metrics.

Every timed child is followed by a fixed reference task (reference.py)
and its wall time is scaled by REFERENCE_NOMINAL_S over the mean of the
reference runs around it.  The machine's speed drifts by tens of percent
over tens of seconds on a shared virtual machine; the scaling cancels
that drift, and the plain wall times are printed and reported with
`--trace 1` (`analyze_wall_s`, `reference_s`).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Working files live in `.perfbench_work/` under the checkout and are
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import MUTATIONS, Expectation, check_outputs  # noqa: E402
from workloads import (WORKLOADS, count_records, expected_anomalies,  # noqa: E402
                       inject_anomalies)

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3          # generator runs per set-up; setup_s is their median
# Typical wall time of reference.py on the 2-vCPU machine the benchmark
# was tuned on; timed children are reported at this reference speed.
REFERENCE_NOMINAL_S = 0.5
MIN_REPS = 3            # analyze runs per measurement, whatever --seconds
CHILD_TIMEOUT_S = 150   # a child still running by then is killed and fails
MIB = 1 << 20


@dataclass
class Child:
    rc: int
    wall_s: float
    peak_rss_mb: float


def run_child(cmd: list[str], log_path: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit and the
    child's own peak RSS (not RUSAGE_CHILDREN, a running maximum)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lock = threading.Lock()
    reaped = False
    with open(log_path, "wb") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)

        def kill() -> None:
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                reaped = True
            timer.cancel()
            timer.join()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024)


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {n: hashlib.sha256(b).hexdigest() for n, b in files.items()}


def tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(encoding="utf-8", errors="replace")
    return " | ".join(text.strip().splitlines()[-lines:])


class Run:
    """One benchmark run of one workload in a private work directory."""

    def __init__(self, workload: str, seed: int, scale: float, work: Path):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        self.work = work
        self.py = sys.executable
        self.problems: list[str] = []     # every failed check, for the report
        self.attempted = 0
        self.failed = 0
        self.first_digests: dict[str, str] | None = None

    # --- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.work.mkdir(parents=True)
        # compile and cache paraslice's bytecode before anything is timed
        warm = run_child([self.py, "-c", "import paraslice.cli"],
                         self.work / "warm.log")
        if warm.rc:
            raise RuntimeError("cannot import paraslice: "
                               + tail(self.work / "warm.log"))
        self.scenario = self.work / "scenario.json"
        self.scenario.write_text(json.dumps(
            self.wl.scenario(self.seed, self.scale), indent=1) + "\n")
        stem = self.wl.name
        self.ref_s = [self.reference()]
        setups, sums = [], []
        for k in range(SETUP_REPS):
            gen_dir = self.work / f"gen{k}"
            gen_dir.mkdir()
            child, scaled = self.timed(
                [self.py, "-m", "paraslice.cli", "generate",
                 str(self.scenario), "--out", str(gen_dir / f"{stem}.prv"),
                 "--expected"], self.work / f"gen{k}.log")
            if child.rc:
                raise RuntimeError(f"generate exited {child.rc}: "
                                   + tail(self.work / f"gen{k}.log"))
            setups.append(scaled)
            sums.append(digests(read_outputs(gen_dir)))
            if k:
                shutil.rmtree(gen_dir)
        if any(s != sums[0] for s in sums):
            self.problems.append("generate is not byte-deterministic")
        self.setup_s = statistics.median(setups)

        gen = self.work / "gen0"
        self.clean_prv = gen / f"{stem}.prv"
        self.oracle = json.loads((gen / f"{stem}.expected.json").read_text())
        data = self.clean_prv.read_bytes()
        injected = {"malformed": 0}
        if self.wl.anomalous:
            data, injected = inject_anomalies(
                data, self.seed, self.oracle["rank_count"],
                self.oracle["total_duration_ns"])
        self.trace = self.work / "trace" / f"{stem}.prv"
        self.trace.parent.mkdir()
        self.trace.write_bytes(data)
        self.trace_mb = len(data) / MIB
        self.flags = self.wl.flags(self.oracle)
        self.expect = Expectation(
            stem=stem, oracle=self.oracle,
            anomalies=expected_anomalies(injected) if self.wl.anomalous
            else {},
            records=count_records(data), dropped=injected["malformed"],
            out_format="json" if "json" in self.flags else "csv",
            plot="--plot" in self.flags)

    # --- measurement ----------------------------------------------------------

    def reference(self) -> float:
        child = run_child([self.py, str(HERE / "reference.py")],
                          self.work / "reference.log")
        if child.rc:
            raise RuntimeError("reference task failed: "
                               + tail(self.work / "reference.log"))
        return child.wall_s

    def timed(self, cmd: list[str], log: Path) -> tuple[Child, float]:
        """Run a child, then the reference task.  Returns the child and
        its wall time scaled to the reference's nominal speed, measured
        by the reference runs just before and just after it."""
        child = run_child(cmd, log)
        self.ref_s.append(self.reference())
        speed = REFERENCE_NOMINAL_S / statistics.mean(self.ref_s[-2:])
        return child, child.wall_s * speed

    def judge(self, label: str, rc: int, out_dir: Path,
              extra: list[str] = ()) -> dict[str, bytes]:
        """Count one analyze run and record why it failed, if it did."""
        self.attempted += 1
        files = read_outputs(out_dir) if out_dir.is_dir() else {}
        errors = [] if rc == 0 else [f"exit code {rc}"]
        errors += extra
        errors += check_outputs(files, self.expect)
        sums = digests(files)
        if self.first_digests is None:
            self.first_digests = sums
        elif sums != self.first_digests:
            errors.append("outputs differ from the first run's")
        if errors:
            self.failed += 1
            self.problems.extend(f"{label}: {e}" for e in errors)
        return files

    def analyze_cmd(self, out_dir: Path) -> list[str]:
        return [self.py, "-m", "paraslice.cli", "analyze", str(self.trace),
                "--out-dir", str(out_dir), *self.flags]

    def measure(self, seconds: float, traced: bool = False) -> None:
        """Analyze children back to back, each followed by the reference
        task, for `seconds` (at least MIN_REPS).  With `traced`, a traced
        child, also followed by the reference task, comes after each
        pair."""
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.rss: list[float] = []
        self.traces: list[dict] = []
        self.traced_walls: list[float] = []
        t0 = perf_counter()
        while True:
            rep = len(self.walls)
            out_dir = self.work / "out" / f"rep{rep}"
            child, scaled = self.timed(self.analyze_cmd(out_dir),
                                       self.work / f"rep{rep}.log")
            self.walls.append(scaled)
            self.raw_walls.append(child.wall_s)
            self.rss.append(child.peak_rss_mb)
            files = self.judge(f"run {rep}", child.rc, out_dir)
            if rep == 0:
                self.first_outputs = files
                self.check_checker(files)
            else:
                shutil.rmtree(out_dir, ignore_errors=True)
            if traced:
                t_wall = self.traced_run(rep)
                if t_wall is not None:
                    self.traced_walls.append(t_wall)
            if len(self.walls) >= MIN_REPS \
                    and perf_counter() - t0 > seconds * len(self.walls) / (
                        len(self.walls) + 1):
                break

    def check_checker(self, files: dict[str, bytes]) -> None:
        """The checker must reject deliberately altered copies of correct
        outputs; one that passes everything would hide wrong results."""
        if check_outputs(files, self.expect):
            return      # already failed; nothing to alter
        missed = []
        for name, mutate in MUTATIONS.items():
            errors = check_outputs(mutate(files, self.expect), self.expect)
            print(f"altered {name:14s} -> "
                  + (f"rejected ({errors[0]})" if errors else "ACCEPTED"))
            if not errors:
                missed.append(name)
        if missed:
            self.problems.append(f"checker accepts altered outputs: {missed}")

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        analyze_s = statistics.median(self.walls)
        return {
            "analyze_s": (analyze_s, "s"),
            "throughput_mb_s": (self.trace_mb / analyze_s, "MiB/s"),
            "peak_rss_mb": (statistics.median(self.rss), "MiB"),
            "setup_s": (self.setup_s, "s"),
            "success_rate": ((self.attempted - self.failed) / self.attempted,
                             "ratio"),
        }

    # --- traced runs ----------------------------------------------------------

    def traced_run(self, rep: int) -> float | None:
        """One traced in-process analysis; returns its reference-scaled
        wall time minus the child's own post-run checks, or None if it
        produced no spans."""
        out_dir = self.work / "out" / f"traced{rep}"
        result = self.work / f"traced{rep}.json"
        log = self.work / f"traced{rep}.log"
        child, scaled = self.timed(
            [self.py, str(HERE / "traced.py"), "analyze", str(result),
             str(self.work / "gen0" / f"{self.wl.name}.expected.json"),
             "--", *self.analyze_cmd(out_dir)[3:]], log)
        got = json.loads(result.read_text()) \
            if child.rc == 0 and result.is_file() else None
        if got is None:
            extra = ["traced child failed: " + tail(log)]
        else:
            extra = list(got["errors"])
            if got["rc"]:
                extra.append(f"analyze returned {got['rc']}")
            if not Path(got["paraslice"]).resolve().is_relative_to(SRC):
                extra.append(f"imported paraslice from {got['paraslice']}")
        self.judge(f"traced run {rep}", child.rc, out_dir, extra)
        shutil.rmtree(out_dir, ignore_errors=True)
        if got is None:
            return None
        self.traces.append(got)
        return scaled * (1 - got["post_s"] / child.wall_s)

    def synth_timing(self) -> dict:
        out = self.work / "synth" / f"{self.wl.name}.prv"
        out.parent.mkdir()
        result = self.work / "synth.json"
        child = run_child([self.py, str(HERE / "traced.py"), "synth",
                           str(result), str(self.scenario), str(out),
                           str(SETUP_REPS)], self.work / "synth.log")
        if child.rc:
            self.problems.append("synth timing: "
                                 + tail(self.work / "synth.log"))
            return {}
        if out.read_bytes() != self.clean_prv.read_bytes():
            self.problems.append("in-process generate differs from the CLI")
        return json.loads(result.read_text())

    def per_layer(self) -> dict[str, tuple[float, str]]:
        if not self.traces:
            return {}
        last = self.traces[-1]
        for note in last["missing"]:
            print(f"missing span: {note}")
        for note in last["hook_errors"]:
            print(f"count not taken: {note}")
        print_spans(last["spans"])
        synth = self.synth_timing()
        per_run = [layer_metrics(got) for got in self.traces]
        m = {name: (statistics.median(r[name][0] for r in per_run), unit)
             for name, (_, unit) in per_run[0].items()}
        m["synth.generate_s"] = (synth.get("generate_s", 0.0), "s")
        m["synth.expected_s"] = (synth.get("expected_s", 0.0), "s")
        m["synth.trace_mb"] = (self.clean_prv.stat().st_size / MIB, "MiB")
        m["cli.output_bytes"] = (sum(len(b) for b in
                                     self.first_outputs.values()), "bytes")
        m["tracing_overhead_s"] = (statistics.median(self.traced_walls)
                                   - statistics.median(self.walls), "s")
        m["analyze_wall_s"] = (statistics.median(self.raw_walls), "s")
        m["reference_s"] = (statistics.median(self.ref_s), "s")
        return m


def span_tables(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: summed time, summed self time (time minus that of
    child spans), and call count."""
    busy = [s[2] - s[1] for s in spans]
    child_busy = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_busy[s[3]] += busy[i]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        total[s[0]] = total.get(s[0], 0.0) + busy[i]
        own[s[0]] = own.get(s[0], 0.0) + busy[i] - child_busy[i]
        calls[s[0]] = calls.get(s[0], 0) + 1
    return total, own, calls


def print_spans(spans: list[list]) -> None:
    total, own, calls = span_tables(spans)
    for name in sorted(total):
        print(f"span {name:30s} calls {calls[name]:3d} "
              f"total {total[name]:8.4f} s  self {own[name]:8.4f} s")


def layer_metrics(got: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run (synth and output sizes are
    added by the caller)."""
    total, own, _ = span_tables(got["spans"])
    c = got["counts"]

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def n(name: str) -> float:
        return c.get(name, 0)

    records = n("prv.records")
    messages = n("prv.messages")
    tokenize = got["tokenize_s"] or 0.0
    m = {
        "prv.load_trace_s": (t("prv.load_trace"), "s"),
        "prv.tokenize_s": (tokenize, "s"),
        "prv.assemble_s": (t("prv.build_trace") - tokenize, "s"),
    }
    for key in ("records", "consumed", "ignored", "dropped", "anomalies",
                "regions", "messages", "collectives"):
        m[f"prv.{key}"] = (n(f"prv.{key}"), "count")
    m["prv.consumed_share"] = (n("prv.consumed") / records if records
                               else 0.0, "ratio")
    m["prv.rss_mb"] = (n("prv.rss_mb"), "MiB")
    m["model.validate_s"] = (t("model.validate_trace"), "s")
    m["model.violations"] = (n("model.violations"), "count")
    m["replay.replay_s"] = (t("replay.replay"), "s")
    m["replay.world_index_s"] = (t("replay.WorldCollectiveIndex"), "s")
    for key in ("anomalies", "degraded_messages", "points"):
        m[f"replay.{key}"] = (n(f"replay.{key}"), "count")
    m["replay.valid_message_share"] = (
        n("replay.valid_after") / messages if messages else 1.0, "ratio")
    m["replay.rss_mb"] = (n("replay.rss_mb"), "MiB")
    m["windows.plan_s"] = (t("windows.plan_windows"), "s")
    m["windows.boundary_clocks_s"] = (t("windows.boundary_clocks"), "s")
    m["windows.windows"] = (n("windows.windows"), "count")
    m["windows.merged"] = (n("windows.merged"), "count")
    m["metrics.global_s"] = (t("metrics.global_metrics"), "s")
    m["metrics.window_series_s"] = (own.get("metrics.window_series", 0.0),
                                    "s")
    m["cli.import_s"] = (got["import_s"], "s")
    m["cli.write_s"] = (sum(v for k, v in total.items()
                            if k.startswith("cli.write_")), "s")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paraslice" / "cli.py").is_file():
        print(f"error: no paraslice source tree at {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(args.workload, args.seed, 1.0, work)
    try:
        run.setup()
        run.measure(args.seconds, traced=bool(args.trace))
        e2e = run.end_to_end()
        metrics = run.per_layer() if args.trace else e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # only if no other run is using it
        except OSError:
            pass
    print("analyze wall (s):   " + " ".join(f"{w:.3f}" for w in run.raw_walls))
    print("reference wall (s): " + " ".join(f"{w:.3f}" for w in run.ref_s))
    print("analyze scaled (s): " + " ".join(f"{w:.3f}" for w in run.walls))
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not run.problems and run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
