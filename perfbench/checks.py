"""Output checks for one `paraslice analyze` run.

Every check is an identity that holds exactly by construction on the
benchmark's workloads:

- the integers of `<stem>.summary.txt` equal the generator's closed-form
  oracle (`expected.json`), and the four printed factors agree with it to
  the `%.9g` rounding (5e-9 relative);
- the per-kind anomaly counts equal the injected counts (none on the
  clean workloads);
- the ingest counters satisfy records == consumed + ignored + dropped,
  records equals the event and communication lines in the file, and
  dropped equals the injected non-integer lines;
- the window series telescopes: the length-weighted window efficiencies
  recompose the oracle's global efficiency.

The checker works on file contents in memory, so `MUTATIONS` can alter a
copy of real outputs and confirm that each alteration is caught.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass

FACTORS = ("load_balance", "serialisation", "transfer", "efficiency")
FACTOR_REL_TOL = 5e-9       # %.9g keeps nine significant digits
RECOMPOSE_REL_TOL = 1e-7    # sum of %.9g-rounded window efficiencies


@dataclass(frozen=True)
class Expectation:
    """What one workload's outputs must show."""
    stem: str
    oracle: dict                  # the generator's expected.json
    anomalies: dict[str, int]     # kind -> count, zero kinds left out
    records: int
    dropped: int
    out_format: str               # "csv" or "json"
    plot: bool

    def file_names(self) -> list[str]:
        names = [f"{self.stem}.windows.{self.out_format}",
                 f"{self.stem}.summary.txt", f"{self.stem}.anomalies.txt"]
        if self.plot:
            names.append(f"{self.stem}.plot.json")
        return names


def _top_level(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line and not line[0].isspace():
            key, sep, value = line.partition(":")
            if sep:
                out[key] = value.strip()
    return out


def _int(fields: dict[str, str], key: str, errors: list[str]) -> int | None:
    try:
        return int(fields[key])
    except (KeyError, ValueError):
        errors.append(f"summary: missing or non-integer {key}")
        return None


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def check_summary(text: str, exp: Expectation, errors: list[str]) -> int:
    """Returns the window count the summary announces (0 if unreadable)."""
    fields = _top_level(text)
    oracle = exp.oracle
    pairs = (("runtime_observed_ns", oracle["total_duration_ns"]),
             ("runtime_ideal_ns", oracle["runtime_ideal_ns"]),
             ("t_compute_max_ns", max(oracle["t_compute_ns"])))
    for key, want in pairs:
        got = _int(fields, key, errors)
        if got is not None and got != want:
            errors.append(f"summary: {key} {got} != oracle {want}")
    for name in FACTORS:
        try:
            got = float(fields[name])
        except (KeyError, ValueError):
            errors.append(f"summary: missing or unreadable {name}")
            continue
        if _rel(got, oracle[name]) > FACTOR_REL_TOL:
            errors.append(f"summary: {name} {got!r} differs from oracle "
                          f"{oracle[name]!r} by more than {FACTOR_REL_TOL}")
    total = _int(fields, "anomalies", errors)
    if total is not None and total != sum(exp.anomalies.values()):
        errors.append(f"summary: anomalies {total} != injected "
                      f"{sum(exp.anomalies.values())}")
    kinds = {}
    for line in text.splitlines():
        m = re.fullmatch(r"\s+([a-z_]+): (\d+)", line)
        if m:
            kinds[m.group(1)] = int(m.group(2))
    if kinds != exp.anomalies:
        errors.append(f"summary: anomaly kinds {kinds} != injected "
                      f"{exp.anomalies}")
    m = re.match(r"(\d+) ", fields.get("windows", "") + " ")
    if not m:
        errors.append("summary: missing window count")
        return 0
    return int(m.group(1))


_COUNTERS = re.compile(r"records: (\d+) consumed: (\d+) ignored: (\d+) "
                       r"dropped: (\d+)")


def check_anomalies(text: str, exp: Expectation, errors: list[str]) -> None:
    lines = text.splitlines()
    if not lines or lines[0] != f"total: {sum(exp.anomalies.values())}":
        errors.append(f"anomalies: first line {lines[:1]} != total "
                      f"{sum(exp.anomalies.values())}")
    m = _COUNTERS.fullmatch(lines[1]) if len(lines) > 1 else None
    if not m:
        errors.append("anomalies: counter line missing")
    else:
        records, consumed, ignored, dropped = map(int, m.groups())
        if records != consumed + ignored + dropped:
            errors.append(f"anomalies: records {records} != consumed "
                          f"{consumed} + ignored {ignored} + dropped "
                          f"{dropped}")
        if records != exp.records:
            errors.append(f"anomalies: records {records} != {exp.records} "
                          f"record lines in the trace")
        if dropped != exp.dropped:
            errors.append(f"anomalies: dropped {dropped} != injected "
                          f"{exp.dropped}")
    kinds = {}
    for line in lines[2:]:
        if not line:
            break
        key, _, value = line.partition(": ")
        try:
            kinds[key] = int(value)
        except ValueError:
            errors.append(f"anomalies: bad count line {line!r}")
    if kinds != exp.anomalies:
        errors.append(f"anomalies: kinds {kinds} != injected {exp.anomalies}")


def _windows(text: str, out_format: str) -> list[tuple[int, int, float]]:
    """(start_ns, end_ns, efficiency) of every window."""
    if out_format == "json":
        rows = json.loads(text)["windows"]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    return [(int(r["start_ns"]), int(r["end_ns"]), float(r["efficiency"]))
            for r in rows]


def check_windows(text: str, exp: Expectation, announced: int,
                  errors: list[str]) -> None:
    try:
        windows = _windows(text, exp.out_format)
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"windows: unreadable ({exc})")
        return
    if len(windows) != announced:
        errors.append(f"windows: {len(windows)} rows, summary says "
                      f"{announced}")
    duration = exp.oracle["total_duration_ns"]
    if not windows or windows[0][0] != 0 or windows[-1][1] != duration:
        errors.append("windows: do not tile [0, duration]")
        return
    recomposed = sum(eff * (end - start)
                     for start, end, eff in windows) / duration
    if _rel(recomposed, exp.oracle["efficiency"]) > RECOMPOSE_REL_TOL:
        errors.append(f"windows: efficiencies recompose to {recomposed!r}, "
                      f"oracle {exp.oracle['efficiency']!r}")


def check_outputs(files: dict[str, bytes], exp: Expectation) -> list[str]:
    """Every failed identity, as one message each; empty means correct."""
    errors: list[str] = []
    missing = [n for n in exp.file_names() if n not in files]
    if missing:
        return [f"missing output files {missing}"]
    text = {n: files[n].decode("utf-8", "replace") for n in exp.file_names()}
    announced = check_summary(text[f"{exp.stem}.summary.txt"], exp, errors)
    check_anomalies(text[f"{exp.stem}.anomalies.txt"], exp, errors)
    check_windows(text[f"{exp.stem}.windows.{exp.out_format}"], exp,
                  announced, errors)
    if exp.plot:
        try:
            json.loads(text[f"{exp.stem}.plot.json"])
        except ValueError as exc:
            errors.append(f"plot: unreadable ({exc})")
    return errors


# --- deliberate alterations the checker must catch ---------------------------

def _edit(files: dict[str, bytes], name: str, pattern: str, repl) -> dict:
    text = files[name].decode("utf-8")
    new, n = re.subn(pattern, repl, text, count=1, flags=re.M)
    if not n:
        raise ValueError(f"mutation found no {pattern!r} in {name}")
    out = dict(files)
    out[name] = new.encode("utf-8")
    return out


def _factor(files, exp):
    return _edit(files, f"{exp.stem}.summary.txt", r"^load_balance: (\S+)$",
                 lambda m: f"load_balance: {float(m.group(1)) * (1 + 1e-6):.9g}")


def _ideal(files, exp):
    return _edit(files, f"{exp.stem}.summary.txt",
                 r"^runtime_ideal_ns: (\d+)$",
                 lambda m: f"runtime_ideal_ns: {int(m.group(1)) + 1}")


def _anomaly_count(files, exp):
    name = f"{exp.stem}.anomalies.txt"
    if exp.anomalies:
        return _edit(files, name, r"^(unmatched_send): (\d+)$",
                     lambda m: f"{m.group(1)}: {int(m.group(2)) + 1}")
    return _edit(files, name, r"^(records: .*)$",
                 lambda m: f"{m.group(1)}\nreversed_ptp: 1")


def _counter(files, exp):
    return _edit(files, f"{exp.stem}.anomalies.txt", r"^records: (\d+)",
                 lambda m: f"records: {int(m.group(1)) + 1}")


def _window_row(files, exp):
    name = f"{exp.stem}.windows.{exp.out_format}"
    if exp.out_format == "json":
        doc = json.loads(files[name])
        doc["windows"][0]["efficiency"] *= 1.001
        return {**files, name: json.dumps(doc).encode()}
    return _edit(files, name, r"^0,.*$",
                 lambda m: m.group(0) + "\n" + m.group(0))


MUTATIONS = {
    "factor": _factor,
    "runtime_ideal": _ideal,
    "anomaly_count": _anomaly_count,
    "counter": _counter,
    "window_row": _window_row,
}

