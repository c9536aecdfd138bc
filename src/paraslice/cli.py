"""Command-line front end.

Two subcommands: `analyze` turns a .prv trace into window metrics files
plus a summary, `generate` renders a scenario description into a
synthetic trace with known factors.  All outputs are byte-deterministic
for identical inputs and flags — nothing here reads the wall clock.

Exit codes: 0 success, 1 reference-value mismatch, 2 invalid
configuration, 3 unreadable input, 4 malformed trace, 5 anomaly in
strict mode, 6 trace without compute time.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
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
from .replay import DEFAULT_EAGER_LIMIT, ReplayConfig, ReplayError, replay
from .synth import ScenarioError, expected_metrics, generate_to_files, \
    load_scenario
from .windows import WindowPlan, boundary_clocks, plan_windows

EXIT_OK = 0
EXIT_REFERENCE_MISMATCH = 1
EXIT_BAD_CONFIG = 2
EXIT_UNREADABLE = 3
EXIT_MALFORMED = 4
EXIT_STRICT = 5
EXIT_NO_COMPUTE = 6

EAGER_LIMIT_ENV = "PARASLICE_EAGER_LIMIT"

_SUFFIXES = (("ns", 1), ("us", 1_000), ("ms", 1_000_000), ("s", 1_000_000_000))


def parse_duration(text: str) -> int:
    """'250us', '25ms', '1.5s' or a bare nanosecond count -> ns."""
    raw = text.strip().lower()
    for suffix, mult in _SUFFIXES:
        if raw.endswith(suffix):
            number = raw[: -len(suffix)]
            try:
                value = float(number)
            except ValueError:
                raise ValueError(f"bad duration {text!r}")
            ns = round(value * mult)
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


@dataclass(slots=True)
class RunConfig:
    trace_path: str
    window_ns: int | None = None
    cutoff_ns: int | None = None
    min_events: int = 8
    eager_limit: int = DEFAULT_EAGER_LIMIT
    out_format: str = "csv"
    out_dir: str = "."
    plot: bool = False
    strict: bool = False
    time_unit: TimeUnit | None = None
    reference_global: tuple[float, float, float, float] | None = None


def _fmt(value) -> str:
    return "" if value is None else f"{value:.9g}"


def _flags(wm: WindowMetrics) -> str:
    parts = []
    if wm.merged:
        parts.append("merged")
    if wm.idle:
        parts.append("idle")
    return "|".join(parts)


_COLUMNS = ("start_ns", "end_ns", "start_s", "end_s", "merged_from",
            "flags", "load_balance", "serialisation", "transfer",
            "efficiency")


def _window_row(wm: WindowMetrics) -> list[str]:
    return [str(wm.start_ns), str(wm.end_ns),
            _fmt(wm.start_ns / 1e9), _fmt(wm.end_ns / 1e9),
            str(wm.merged_from), _flags(wm),
            _fmt(wm.load_balance), _fmt(wm.serialisation),
            _fmt(wm.transfer), _fmt(wm.efficiency)]


def write_windows_csv(path: Path, series: list[WindowMetrics]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for wm in series:
            writer.writerow(_window_row(wm))


def write_windows_json(path: Path, series: list[WindowMetrics]) -> None:
    rows = []
    for wm in series:
        rows.append({
            "start_ns": wm.start_ns,
            "end_ns": wm.end_ns,
            "start_s": wm.start_ns / 1e9,
            "end_s": wm.end_ns / 1e9,
            "merged_from": wm.merged_from,
            "flags": _flags(wm),
            "load_balance": wm.load_balance,
            "serialisation": wm.serialisation,
            "transfer": wm.transfer,
            "efficiency": wm.efficiency,
        })
    path.write_text(json.dumps({"schema": "windows/1", "windows": rows},
                               indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def write_summary(path: Path, source: str, gm: GlobalMetrics,
                  plan: WindowPlan, series: list[WindowMetrics],
                  log: AnomalyLog, config: RunConfig) -> None:
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
        f"load_balance: {_fmt(gm.load_balance)}",
        f"serialisation: {_fmt(gm.serialisation)}",
        f"transfer: {_fmt(gm.transfer)}",
        f"efficiency: {_fmt(gm.efficiency)}",
        "",
        f"windows: {len(series)} ({merged} merged, {idle} idle)",
        f"window_length_ns: {plan.base_length_ns} "
        f"(requested {plan.requested_length_ns})",
        f"analysis_span_ns: {plan.effective_duration_ns}"
        + (" (clamped)" if plan.clamped else ""),
        f"min_events: {plan.min_events}",
        f"eager_limit_bytes: {config.eager_limit}",
        f"anomalies: {log.total}",
    ]
    for kind in AnomalyKind:
        n = log.count(kind)
        if n:
            lines.append(f"  {kind.value}: {n}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_anomalies(path: Path, log: AnomalyLog,
                    counters: IngestCounters) -> None:
    lines = [
        f"total: {log.total}",
        f"records: {counters.records} consumed: {counters.consumed} "
        f"ignored: {counters.ignored} dropped: {counters.dropped}",
    ]
    for kind in AnomalyKind:
        n = log.count(kind)
        if n:
            lines.append(f"{kind.value}: {n}")
    if log.entries:
        lines.append("")
    for e in log.entries:
        lines.append(f"{e.kind.value} @ {e.location}: {e.detail}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plot(path: Path, plan: WindowPlan, series: list[WindowMetrics],
               cp: list[int]) -> None:
    """Plain JSON payload a notebook can plot without this package."""
    payload = {
        "schema": "plot/1",
        "boundaries_ns": [int(b) for b in plan.boundaries()],
        "critical_path_ns": cp,
        "windows": {
            "start_ns": [w.start_ns for w in series],
            "end_ns": [w.end_ns for w in series],
            "load_balance": [w.load_balance for w in series],
            "serialisation": [w.serialisation for w in series],
            "transfer": [w.transfer for w in series],
            "efficiency": [w.efficiency for w in series],
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run(config: RunConfig) -> int:
    """Analyze one trace per the config; returns the process exit code."""
    try:
        trace, log, counters = load_trace(config.trace_path,
                                          time_unit=config.time_unit)
    except OSError as exc:
        print(f"error: cannot read {config.trace_path}: {exc}",
              file=sys.stderr)
        return EXIT_UNREADABLE
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    if config.strict and log.total:
        first = log.entries[0]
        print(f"error: strict mode: {log.total} anomalies during ingest; "
              f"first: {first.kind.value} @ {first.location}: {first.detail}",
              file=sys.stderr)
        return EXIT_STRICT

    report = validate_trace(trace)
    if config.strict and not report.ok:
        print(f"error: strict mode: {report}", file=sys.stderr)
        return EXIT_STRICT

    try:
        timeline, replay_log = replay(
            trace, ReplayConfig(eager_limit_bytes=config.eager_limit,
                                strict_mode=config.strict))
    except ReplayError as exc:
        print(f"error: strict mode: {exc}", file=sys.stderr)
        return EXIT_STRICT
    # the timeline keeps the region times windowing needs; the rest of
    # the trace goes before window planning allocates
    del trace
    log.extend(replay_log)

    window_ns = config.window_ns
    if window_ns is None:
        span = min(timeline.total_duration,
                   config.cutoff_ns or timeline.total_duration)
        window_ns = max(span // 50, 1)

    try:
        gm = global_metrics(timeline)
        plan = plan_windows(timeline, window_ns,
                            min_events=config.min_events,
                            cutoff_ns=config.cutoff_ns)
    except NoComputeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    bc = boundary_clocks(timeline, plan.boundaries())
    series = window_series(timeline, plan, bc)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(config.trace_path).stem
    if config.out_format == "json":
        write_windows_json(out_dir / f"{stem}.windows.json", series)
    else:
        write_windows_csv(out_dir / f"{stem}.windows.csv", series)
    write_summary(out_dir / f"{stem}.summary.txt",
                  os.path.basename(config.trace_path), gm, plan, series,
                  log, config)
    write_anomalies(out_dir / f"{stem}.anomalies.txt", log, counters)
    if config.plot:
        cp = [int(v) for v in critical_path(bc)]
        write_plot(out_dir / f"{stem}.plot.json", plan, series, cp)

    print(f"{stem}: {gm.rank_count} ranks, {len(series)} windows, "
          f"efficiency {_fmt(gm.efficiency)} "
          f"(LB {_fmt(gm.load_balance)} x Ser {_fmt(gm.serialisation)} "
          f"x Trf {_fmt(gm.transfer)})")

    if config.reference_global is not None:
        got = (gm.load_balance, gm.serialisation, gm.transfer, gm.efficiency)
        names = ("load_balance", "serialisation", "transfer", "efficiency")
        bad = [f"{n}: got {_fmt(g)}, reference {_fmt(r)}"
               for n, g, r in zip(names, got, config.reference_global)
               if abs(g - r) > 1e-6]
        if bad:
            print("reference mismatch: " + "; ".join(bad), file=sys.stderr)
            return EXIT_REFERENCE_MISMATCH
        print("reference check passed")
    return EXIT_OK


def _eager_limit_default() -> int:
    raw = os.environ.get(EAGER_LIMIT_ENV)
    if raw is None:
        return DEFAULT_EAGER_LIMIT
    try:
        value = int(raw)
        if value < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{EAGER_LIMIT_ENV} must be a non-negative "
                         f"integer, got {raw!r}")
    return value


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
        lb, ser, trf, eff = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad reference values {text!r}")
    return lb, ser, trf, eff


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
                    help="only analyze the first DUR of the trace")
    an.add_argument("--min-events", type=_min_events, default=8,
                    metavar="N",
                    help="per-rank event points a window must hold "
                         "(default 8, minimum 3)")
    an.add_argument("--eager-limit", type=int, default=None, metavar="BYTES",
                    help="largest message size sent eagerly "
                         f"(default {DEFAULT_EAGER_LIMIT}, or "
                         f"${EAGER_LIMIT_ENV})")
    an.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="window series format (default csv)")
    an.add_argument("--out-dir", default=".", metavar="DIR",
                    help="directory for output files (default .)")
    an.add_argument("--plot", action="store_true",
                    help="also write a <stem>.plot.json payload")
    an.add_argument("--strict", action="store_true",
                    help="abort on any anomaly instead of degrading")
    an.add_argument("--time-unit", choices=("ns", "us"), default=None,
                    help="override the trace time unit when the header "
                         "does not carry one")
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
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        print(f"error: cannot read {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except (ScenarioError, json.JSONDecodeError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        prv_path, pcf_path = generate_to_files(scenario, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    exp = expected_metrics(scenario)
    if args.expected:
        payload = {
            "rank_count": exp.rank_count,
            "total_duration_ns": exp.total_duration_ns,
            "runtime_ideal_ns": exp.runtime_ideal,
            "t_compute_ns": list(exp.t_compute),
            "load_balance": exp.load_balance,
            "serialisation": exp.serialisation,
            "transfer": exp.transfer,
            "efficiency": exp.efficiency,
            "phases": [{
                "index": p.index,
                "pattern": p.pattern,
                "start_ns": p.start_ns,
                "end_ns": p.end_ns,
                "load_balance": p.load_balance,
                "serialisation": p.serialisation,
                "transfer": p.transfer,
                "efficiency": p.efficiency,
            } for p in exp.phases],
        }
        Path(prv_path).with_suffix(".expected.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    print(f"wrote {prv_path} and {pcf_path} "
          f"(efficiency {_fmt(exp.efficiency)})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return _run_generate(args)

    try:
        eager = args.eager_limit if args.eager_limit is not None \
            else _eager_limit_default()
        if eager < 0:
            raise ValueError("eager limit must be non-negative")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    config = RunConfig(
        trace_path=args.trace,
        window_ns=args.window,
        cutoff_ns=args.cutoff,
        min_events=args.min_events,
        eager_limit=eager,
        out_format=args.format,
        out_dir=args.out_dir,
        plot=args.plot,
        strict=args.strict,
        time_unit=TimeUnit(args.time_unit) if args.time_unit else None,
        reference_global=args.reference_global,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
