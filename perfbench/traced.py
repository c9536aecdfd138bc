"""Traced child of the benchmark: one `paraslice analyze` in-process.

    python3 traced.py analyze RESULT.json EXPECTED.json -- <analyze args>
    python3 traced.py synth RESULT.json SCENARIO.json OUT.prv REPS

`analyze` imports `paraslice.cli` (timed: a fresh interpreter), wraps the
names the CLI calls with span recorders, then runs `paraslice.cli.main`
on the arguments, exactly as the command line would.  Spans carry name,
start, end and parent and are kept in memory; they are written to
RESULT.json at exit together with the counts taken at the same layer
boundaries and the results of the timeline checks
(0 <= oom <= ideal <= elapsed, window telescoping to the final clocks
and to the oracle; a check that cannot run is a failed check).  A
wrapped name missing from the program is listed as a missing span
instead of failing the run.  Afterwards `analyze` times one separate
pass of `prv.iter_raw_records` over the trace: the tokenizer is a
generator consumed record by record inside `build_trace`, and a timer
around every record would slow what it measures.

`synth` times the generator's two halves in-process, REPS times each
(medians are reported): rendering the trace file and computing the
closed-form expectation.

Needs `paraslice` importable (PYTHONPATH pointing at the source tree).
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import sys
from time import perf_counter


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Recorder:
    """In-memory span list; spans[i] = [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self.counts: dict[str, float] = {}
        self.results: dict[str, object] = {}

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), None, self.stack[-1] if self.stack
                else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _hook(self, name: str, hook, args, result) -> None:
        try:
            hook(self, args, result)
        except Exception as exc:   # the program's API moved on
            self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def call(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(name, before, args, None)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            self.results[name] = result
            if after is not None:
                self._hook(name, after, args, result)
            return result
        return traced

    def patch(self, name: str, module: str, attr: str, before=None,
              after=None) -> None:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{name} ({module}.{attr})")
            return
        setattr(mod, attr, self.call(name, fn, before, after))


# --- counts taken at the layer boundaries ------------------------------------

def _valid_messages(messages) -> int:
    from paraslice.model import MessageStatus, STATUS_CODES
    codes = getattr(messages, "status_codes", None)
    if codes is not None:
        return bytes(codes).count(STATUS_CODES[MessageStatus.VALID])
    return sum(1 for m in messages if m.status is MessageStatus.VALID)


def _after_load(rec: Recorder, args, result) -> None:
    trace, log, counters = result
    c = rec.counts
    c["prv.rss_mb"] = _rss_mib()
    for key in ("records", "consumed", "ignored", "dropped", "anomalies"):
        c[f"prv.{key}"] = getattr(counters, key)
    c["prv.regions"] = sum(len(regs) for regs in trace.regions)
    c["prv.messages"] = len(trace.messages)
    c["prv.collectives"] = len(trace.collectives)


def _before_replay(rec: Recorder, args, _result) -> None:
    rec.counts["replay.valid_before"] = _valid_messages(args[0].messages)


def _after_replay(rec: Recorder, args, result) -> None:
    timeline, log = result
    c = rec.counts
    c["replay.rss_mb"] = _rss_mib()
    c["replay.anomalies"] = log.total
    valid = _valid_messages(args[0].messages)
    c["replay.valid_after"] = valid
    c["replay.degraded_messages"] = c["replay.valid_before"] - valid
    c["replay.points"] = sum(len(tl.times) for tl in timeline.ranks)


def _after_validate(rec: Recorder, args, report) -> None:
    rec.counts["model.violations"] = len(report.violations)


def _after_plan(rec: Recorder, args, plan) -> None:
    rec.counts["windows.windows"] = len(plan.windows)
    rec.counts["windows.merged"] = sum(1 for w in plan.windows
                                       if w.merged_from > 1)


def install(rec: Recorder) -> None:
    cli = importlib.import_module("paraslice.cli")
    rec.patch("cli.main", "paraslice.cli", "main")
    rec.patch("prv.load_trace", "paraslice.cli", "load_trace",
              after=_after_load)
    rec.patch("prv.build_trace", "paraslice.prv", "build_trace")
    rec.patch("model.validate_trace", "paraslice.cli", "validate_trace",
              after=_after_validate)
    rec.patch("replay.replay", "paraslice.cli", "replay",
              before=_before_replay, after=_after_replay)
    rec.patch("replay.WorldCollectiveIndex", "paraslice.replay",
              "WorldCollectiveIndex")
    rec.patch("metrics.global_metrics", "paraslice.cli", "global_metrics")
    rec.patch("windows.plan_windows", "paraslice.cli", "plan_windows",
              after=_after_plan)
    rec.patch("metrics.window_series", "paraslice.cli", "window_series")
    # under --plot the CLI calls boundary_clocks itself; window_series
    # always calls it through the metrics module
    rec.patch("windows.boundary_clocks", "paraslice.cli", "boundary_clocks")
    rec.patch("windows.boundary_clocks", "paraslice.metrics",
              "boundary_clocks")
    writers = sorted(a for a in vars(cli) if a.startswith("write_")
                     and callable(getattr(cli, a)))
    if not writers:
        rec.missing.append("cli.write_* (paraslice.cli.write_*)")
    for attr in writers:
        rec.patch(f"cli.{attr}", "paraslice.cli", attr)


# --- checks on the in-process results ----------------------------------------

def timeline_errors(rec: Recorder, oracle: dict) -> list[str]:
    """0 <= oom <= ideal <= elapsed, monotone clocks, and window
    increments telescoping to the final clocks and to the oracle."""
    import numpy as np
    timeline, _ = rec.results["replay.replay"]
    plan = rec.results["windows.plan_windows"]
    series = rec.results["metrics.window_series"]
    errors = []
    for tl in timeline.ranks:
        t, o, d = tl.times, tl.oom, tl.ideal
        if not ((o >= 0).all() and (o <= d).all() and (d <= t).all()):
            errors.append(f"rank {tl.rank}: 0 <= oom <= ideal <= elapsed "
                          f"violated")
        if not ((np.diff(o) >= 0).all() and (np.diff(d) >= 0).all()
                and (np.diff(t) > 0).all()):
            errors.append(f"rank {tl.rank}: clocks not monotone")
    bounds = plan.boundaries()
    duration = timeline.total_duration
    if int(bounds[0]) != 0 or int(bounds[-1]) != duration:
        errors.append(f"windows span [{bounds[0]}, {bounds[-1]}], "
                      f"trace [0, {duration}]")
    delta_oom = np.asarray([w.delta_oom for w in series], dtype=np.int64)
    finals = timeline.final_triples()
    final_oom = [f.oom for f in finals]
    if delta_oom.sum(axis=0).tolist() != final_oom:
        errors.append("window oom increments do not telescope to the "
                      "final clocks")
    if final_oom != oracle["t_compute_ns"]:
        errors.append("final oom clocks differ from the oracle t_compute")
    delta_cp = sum(w.delta_cp for w in series)
    if delta_cp != max(f.ideal for f in finals) \
            or delta_cp != oracle["runtime_ideal_ns"]:
        errors.append(f"critical-path increments sum to {delta_cp}, not "
                      f"the final ideal clock {oracle['runtime_ideal_ns']}")
    return errors


def tokenize_time(rec: Recorder, trace_path: str) -> float | None:
    """Time of one whole pass of `prv.iter_raw_records` over the trace,
    as `load_trace` drives it, with no timer per record (which would
    slow the tokenizer it measures)."""
    prv = importlib.import_module("paraslice.prv")
    model = importlib.import_module("paraslice.model")
    if not hasattr(prv, "iter_raw_records"):
        rec.missing.append("prv.iter_raw_records "
                           "(paraslice.prv.iter_raw_records)")
        return None
    try:
        with open(trace_path, "r", encoding="utf-8",
                  errors="replace") as fh:
            fh.readline()
            t0 = perf_counter()
            for _ in prv.iter_raw_records(fh, model.AnomalyLog(),
                                          prv.IngestCounters()):
                pass
            return perf_counter() - t0
    except Exception as exc:    # the program's API moved on
        rec.hook_errors.append(f"prv.iter_raw_records: "
                               f"{type(exc).__name__}: {exc}")
        return None


def run_analyze(result_path: str, expected_path: str,
                argv: list[str]) -> int:
    t0 = perf_counter()
    cli = importlib.import_module("paraslice.cli")
    import_s = perf_counter() - t0
    rec = Recorder()
    install(rec)
    rc = cli.main(argv)
    t_post = perf_counter()
    with open(expected_path, encoding="utf-8") as fh:
        oracle = json.load(fh)
    try:
        errors = timeline_errors(rec, oracle)
    except Exception as exc:    # a check that cannot run has failed
        errors = [f"timeline checks: {type(exc).__name__}: {exc}"]
    # argv is `analyze TRACE ...`, as on the command line
    tokenize_s = tokenize_time(rec, argv[1])
    payload = {"rc": rc, "import_s": import_s, "tokenize_s": tokenize_s,
               "spans": rec.spans, "counts": rec.counts,
               "missing": rec.missing,
               "hook_errors": rec.hook_errors, "errors": errors,
               "paraslice": cli.__file__}
    payload["post_s"] = perf_counter() - t_post
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


def run_synth(result_path: str, scenario_path: str, out_prv: str,
              reps: int) -> int:
    synth = importlib.import_module("paraslice.synth")
    scenario = synth.load_scenario(scenario_path)
    generate, expected = [], []
    for _ in range(reps):
        t0 = perf_counter()
        synth.generate_to_files(scenario, out_prv)
        t1 = perf_counter()
        synth.expected_metrics(scenario)
        generate.append(t1 - t0)
        expected.append(perf_counter() - t1)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"generate_s": statistics.median(generate),
                   "expected_s": statistics.median(expected)}, fh)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "analyze" and argv[3] == "--":
        return run_analyze(argv[1], argv[2], argv[4:])
    if len(argv) == 5 and argv[0] == "synth":
        return run_synth(argv[1], argv[2], argv[3], int(argv[4]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
