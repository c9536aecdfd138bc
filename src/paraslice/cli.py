"""Command-line front end.

Two subcommands: `analyze` turns a .prv trace into window metrics files
plus a summary, `generate` renders a scenario description into a
synthetic trace with known factors.  All outputs are byte-deterministic
for identical inputs and flags — nothing here reads the wall clock.

Exit codes: 0 success, 1 reference-value mismatch, 2 invalid
configuration, 3 unreadable input or unwritable output, 4 malformed
trace (ingest's IngestError, a header of more than prv.MAX_RANK_COUNT
ranks among them, or replay's ReplayError for clocks that would leave
int64), 5 anomaly in strict mode, 6 trace without compute
time.  A standard output whose reader has gone (a pipe closed early)
also exits 3, with one error line; files already written stay.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import sys
from pathlib import Path

from .metrics import (
    GlobalMetrics,
    NoComputeError,
    WindowMetrics,
    critical_path,
    global_metrics,
    window_series,
)
from .model import AnomalyKind, AnomalyLog, TimeUnit, validate_trace
from .prv import IngestCounters, IngestError, load_trace
from .replay import DEFAULT_EAGER_LIMIT, ReplayError, replay
from .windows import WindowPlan, boundary_clocks, plan_windows

EXIT_OK = 0
EXIT_REFERENCE_MISMATCH = 1
EXIT_BAD_CONFIG = 2
EXIT_UNREADABLE = 3
EXIT_MALFORMED = 4
EXIT_STRICT = 5
EXIT_NO_COMPUTE = 6

_SUFFIXES = (("ns", 1), ("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000))


def parse_duration(text: str) -> int:
    """'250us', '25ms', '1.5s' or a bare nanosecond count -> ns."""
    raw = text.strip().lower()
    for suffix, mult in _SUFFIXES:
        if raw.endswith(suffix):
            number = raw[: -len(suffix)]
            try:
                value = float(number) * mult
            except ValueError:
                raise ValueError(f"bad duration {text!r}")
            if not math.isfinite(value):
                raise ValueError(f"duration {text!r} must be finite")
            ns = round(value)
            if ns <= 0:
                raise ValueError(f"duration {text!r} must be positive")
            return ns
    try:
        ns = int(raw)
    except ValueError:
        raise ValueError(f"bad duration {text!r} (use ns/us/ms/s suffix)")
    if ns <= 0:
        raise ValueError(f"duration {text!r} must be positive")
    return ns


FACTORS = ("load_balance", "serialisation", "transfer", "efficiency")

# every window output carries these fields, in this order: the CSV and
# JSON series all of them, the plot payload all but the derived seconds
# and the merge bookkeeping
_COLUMNS = ("start_ns", "end_ns", "start_s", "end_s", "merged_from",
            "flags", *FACTORS)
_PLOT_COLUMNS = tuple(c for c in _COLUMNS if c not in
                      ("start_s", "end_s", "merged_from", "flags"))


def _fmt(value) -> str:
    return "" if value is None else f"{value:.9g}"


def _flags(wm: WindowMetrics) -> str:
    parts = []
    if wm.merged:
        parts.append("merged")
    if wm.idle:
        parts.append("idle")
    return "|".join(parts)


def _window_fields(wm: WindowMetrics) -> dict:
    """One window's output row, keyed by _COLUMNS, with raw values."""
    return dict(zip(_COLUMNS, (
        wm.start_ns, wm.end_ns, wm.start_ns / 1e9, wm.end_ns / 1e9,
        wm.merged_from, _flags(wm), *(getattr(wm, f) for f in FACTORS))))


def _cell(value) -> str:
    """A CSV cell: floats and None as _fmt writes them, the rest as is."""
    return _fmt(value) if value is None or isinstance(value, float) \
        else str(value)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _kind_counts(log: AnomalyLog, indent: str = "") -> list[str]:
    """One line per anomaly kind the log holds, in AnomalyKind order."""
    return [f"{indent}{kind.value}: {log.count(kind)}"
            for kind in AnomalyKind if log.count(kind)]


def write_windows(path: Path, rows: list[dict], fmt: str) -> None:
    """The window series, one row per window, as CSV or JSON."""
    if fmt == "json":
        _write_json(path, {"schema": "windows/1", "windows": rows})
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        writer.writerows([_cell(v) for v in row.values()] for row in rows)


def write_summary(path: Path, source: str, gm: GlobalMetrics,
                  plan: WindowPlan, series: list[WindowMetrics],
                  log: AnomalyLog, eager_limit: int) -> None:
    merged = sum(1 for w in series if w.merged)
    idle = sum(1 for w in series if w.idle)
    lines = [
        f"trace: {source}",
        f"ranks: {gm.rank_count}",
        f"runtime_observed_ns: {gm.runtime_observed}",
        f"runtime_ideal_ns: {gm.runtime_ideal}",
        f"t_compute_max_ns: {max(gm.t_compute)}",
        f"t_compute_mean_ns: {_fmt(sum(gm.t_compute) / gm.rank_count)}",
        "",
        *(f"{f}: {_fmt(getattr(gm, f))}" for f in FACTORS),
        "",
        f"windows: {len(series)} ({merged} merged, {idle} idle)",
        f"window_length_ns: {plan.base_length_ns} "
        f"(requested {plan.requested_length_ns})",
        f"analysis_span_ns: {plan.effective_duration_ns}"
        + (" (clamped)" if plan.clamped else ""),
        f"min_events: {plan.min_events}",
        f"eager_limit_bytes: {eager_limit}",
        f"anomalies: {log.total}",
        *_kind_counts(log, "  "),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_anomalies(path: Path, log: AnomalyLog,
                    counters: IngestCounters) -> None:
    lines = [
        f"total: {log.total}",
        f"records: {counters.records} consumed: {counters.consumed} "
        f"ignored: {counters.ignored} dropped: {counters.dropped}",
        *_kind_counts(log),
    ]
    if log.entries:
        lines.append("")
    for e in log.entries:
        lines.append(f"{e.kind.value} @ {e.location}: {e.detail}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plot(path: Path, plan: WindowPlan, rows: list[dict],
               cp: list[int]) -> None:
    """Plain JSON payload a notebook can plot without this package."""
    _write_json(path, {
        "schema": "plot/1",
        "boundaries_ns": [int(b) for b in plan.boundaries()],
        "critical_path_ns": cp,
        "windows": {c: [row[c] for row in rows] for c in _PLOT_COLUMNS},
    })


def _strict_failure(log: AnomalyLog, stage: str) -> int:
    """--strict refuses a run whose stage logged anomalies: report how
    many, and the first."""
    first = log.entries[0]
    print(f"error: strict mode: {log.total} anomalies during {stage}; "
          f"first: {first.kind.value} @ {first.location}: {first.detail}",
          file=sys.stderr)
    return EXIT_STRICT


def run(args: argparse.Namespace) -> int:
    """Analyze one trace per the parsed `analyze` arguments, whose
    eager_limit main has resolved; returns the process exit code."""
    try:
        trace, log, counters = load_trace(
            args.trace,
            time_unit=TimeUnit(args.time_unit) if args.time_unit else None)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    if args.strict and log.total:
        return _strict_failure(log, "ingest")

    try:
        timeline, replay_log = replay(trace,
                                      eager_limit_bytes=args.eager_limit)
    except ReplayError as exc:
        print(f"error: replay: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if args.strict:
        if replay_log.total:
            return _strict_failure(replay_log, "replay")
        # replay degraded nothing, so the trace is as ingest built it
        report = validate_trace(trace)
        if not report.ok:
            print(f"error: strict mode: {report}", file=sys.stderr)
            return EXIT_STRICT
    # the timeline keeps the region times windowing needs; the rest of
    # the trace goes before window planning allocates
    del trace
    log.extend(replay_log)

    window_ns = args.window
    if window_ns is None:
        span = min(timeline.total_duration,
                   args.cutoff or timeline.total_duration)
        window_ns = max(span // 50, 1)

    try:
        gm = global_metrics(timeline)
        plan = plan_windows(timeline, window_ns,
                            min_events=args.min_events,
                            cutoff_ns=args.cutoff)
    except NoComputeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    bc = boundary_clocks(timeline, plan.boundaries())
    series = window_series(timeline, plan, bc)
    rows = [_window_fields(wm) for wm in series]

    out_dir = Path(args.out_dir)
    stem = Path(args.trace).stem
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_windows(out_dir / f"{stem}.windows.{args.format}", rows,
                      args.format)
        write_summary(out_dir / f"{stem}.summary.txt",
                      os.path.basename(args.trace), gm, plan, series, log,
                      args.eager_limit)
        write_anomalies(out_dir / f"{stem}.anomalies.txt", log, counters)
        if args.plot:
            cp = [int(v) for v in critical_path(bc)]
            write_plot(out_dir / f"{stem}.plot.json", plan, rows, cp)
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE

    got = [getattr(gm, f) for f in FACTORS]
    lb, ser, trf, eff = map(_fmt, got)
    print(f"{stem}: {gm.rank_count} ranks, {len(series)} windows, "
          f"efficiency {eff} (LB {lb} x Ser {ser} x Trf {trf})")

    if args.reference_global is not None:
        bad = [f"{n}: got {_fmt(g)}, reference {_fmt(r)}"
               for n, g, r in zip(FACTORS, got, args.reference_global)
               if abs(g - r) > 1e-6]
        if bad:
            print("reference mismatch: " + "; ".join(bad), file=sys.stderr)
            return EXIT_REFERENCE_MISMATCH
        print("reference check passed")
    return EXIT_OK


def _min_events(text: str) -> int:
    value = int(text)
    if value < 3:
        raise argparse.ArgumentTypeError("min-events must be at least 3")
    return value


def _duration_arg(text: str) -> int:
    try:
        return parse_duration(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _reference_arg(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected LB,SER,TRF,EFF (four comma-separated numbers)")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad reference values {text!r}")
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(
            f"reference values {text!r} must be finite")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraslice",
        description="Time-resolved MPI efficiency metrics from Paraver "
                    "traces")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze a .prv trace")
    an.add_argument("trace", help="path to the .prv file")
    an.add_argument("--window", type=_duration_arg, default=None,
                    metavar="DUR",
                    help="window length (e.g. 25ms); default: span/50")
    an.add_argument("--cutoff", type=_duration_arg, default=None,
                    metavar="DUR",
                    help="end the window series at DUR; the global "
                         "factors and runtimes still cover the whole run")
    an.add_argument("--min-events", type=_min_events, default=8,
                    metavar="N",
                    help="per-rank event points a window must hold "
                         "(default 8, minimum 3)")
    an.add_argument("--eager-limit", type=int, default=DEFAULT_EAGER_LIMIT,
                    metavar="BYTES",
                    help="largest message size sent eagerly "
                         f"(default {DEFAULT_EAGER_LIMIT})")
    an.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="window series format (default csv)")
    an.add_argument("--out-dir", default=".", metavar="DIR",
                    help="directory for output files (default .)")
    an.add_argument("--plot", action="store_true",
                    help="also write a <stem>.plot.json payload")
    an.add_argument("--strict", action="store_true",
                    help="exit 5, writing nothing, when ingest or replay "
                         "logs an anomaly")
    an.add_argument("--time-unit", choices=("ns", "us"), default=None,
                    help="time unit of a header duration without a "
                         "_ns/_us suffix (default ns)")
    an.add_argument("--reference-global", type=_reference_arg, default=None,
                    metavar="LB,SER,TRF,EFF",
                    help="compare global factors against reference values "
                         "(tolerance 1e-6)")

    gen = sub.add_parser("generate", help="generate a synthetic trace")
    gen.add_argument("scenario", help="path to a scenario .json")
    gen.add_argument("--out", required=True, metavar="PRV",
                     help="output .prv path (a .pcf is written next to it)")
    gen.add_argument("--expected", action="store_true",
                     help="also write <stem>.expected.json with the exact "
                          "factor decomposition")
    return parser


def _run_generate(args) -> int:
    # imported here so that `analyze` never loads the generator
    from .synth import ScenarioError, generate_with_expected, load_scenario
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        print(f"error: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except (ScenarioError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    target = args.out
    try:
        prv_path, pcf_path, exp = generate_with_expected(scenario, target)
        if args.expected:
            target = Path(prv_path).with_suffix(".expected.json")
            _write_json(target, {
                "rank_count": exp.rank_count,
                "total_duration_ns": exp.total_duration_ns,
                "runtime_ideal_ns": exp.runtime_ideal,
                "t_compute_ns": list(exp.t_compute),
                **{f: getattr(exp, f) for f in FACTORS},
                "phases": [{
                    "index": p.index,
                    "pattern": p.pattern,
                    "start_ns": p.start_ns,
                    "end_ns": p.end_ns,
                    **{f: getattr(p, f) for f in FACTORS},
                } for p in exp.phases],
            })
    except OSError as exc:
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    print(f"wrote {prv_path} and {pcf_path} "
          f"(efficiency {_fmt(exp.efficiency)})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return _run_generate(args)

    if args.eager_limit < 0:
        print("error: eager limit must be non-negative", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return run(args)


def entry() -> None:
    """`paraslice` and `python -m paraslice.cli`: main, then exit with
    the heap frozen, as shutdown does not collect frozen objects (main
    has closed every output file; atexit and stream flushing still run).
    main never freezes: tests and library callers run it in process."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone; fd 1 goes to devnull so that the
        # flush at shutdown finds somewhere to write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to standard output: broken pipe",
              file=sys.stderr)
        code = EXIT_UNREADABLE
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
