"""The benchmark's seeded workloads.

Each workload is one synthetic scenario that paraslice's own generator
renders (with its closed-form oracle), plus the `analyze` flags it runs
with.  The seed only ever reaches the scenario and the anomaly injector;
paraslice sees nothing but the generated files.

`scale` multiplies the iteration counts: 1.0 is the benchmark size (a
few seconds of `analyze` on a 2-core machine, so a run can repeat it
often enough for a steady median), small values feed the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Every injected line lands in one of these kinds, in rotation, so each
# kind is present whenever at least four lines are injected.
INJECT_KINDS = ("reversed", "unmatched_send", "malformed", "unknown_kind")
INJECT_EVERY = 200      # about one injected line per this many lines


def _iters(base: int, scale: float) -> int:
    return max(4, round(base * scale))


def ring16(seed: int, scale: float) -> dict:
    return {"name": "ring16", "rank_count": 16, "seed": seed,
            "phases": [{"pattern": "ring_exchange",
                        "iterations": _iters(2500, scale),
                        "compute": {"kind": "uniform", "mean_ns": 50000,
                                    "jitter_ns": 10000},
                        "message_bytes": 1024}]}


def chain64_anomalous(seed: int, scale: float) -> dict:
    return {"name": "chain64_anomalous", "rank_count": 64, "seed": seed,
            "phases": [{"pattern": "serial_chain",
                        "iterations": _iters(170, scale),
                        "compute": {"kind": "uniform", "mean_ns": 5000},
                        "message_bytes": 256},
                       {"pattern": "neighbor_stencil",
                        "iterations": _iters(170, scale),
                        "compute": {"kind": "uniform", "mean_ns": 20000},
                        "message_bytes": 4096}]}


def coll256_fine(seed: int, scale: float) -> dict:
    return {"name": "coll256_fine", "rank_count": 256, "seed": seed,
            "phases": [{"pattern": "allreduce",
                        "iterations": _iters(500, scale),
                        "compute": {"kind": "linear_imbalance",
                                    "mean_ns": 50000,
                                    "imbalance_ratio": 1.5,
                                    "jitter_ns": 10000},
                        "communicator_split": 4,
                        "injected_wait_ns": 2000}]}


def _default_flags(expected: dict) -> list[str]:
    return []


def _fine_flags(expected: dict) -> list[str]:
    # a window of about span/5000 forces the most planning and merging
    window_ns = max(1, expected["total_duration_ns"] // 5000)
    return ["--window", str(window_ns), "--format", "json", "--plot"]


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int, float], dict]    # (seed, scale) -> scenario
    flags: Callable[[dict], list[str]]        # oracle -> analyze flags
    anomalous: bool                           # inject bad lines


WORKLOADS = {w.name: w for w in (
    Workload("ring16", ring16, _default_flags, False),
    Workload("chain64_anomalous", chain64_anomalous, _default_flags, True),
    Workload("coll256_fine", coll256_fine, _fine_flags, False),
)}


def count_records(data: bytes) -> int:
    """Event and communication lines: what ingest must count as records."""
    return data.count(b"\n2:") + data.count(b"\n3:")


def inject_anomalies(clean: bytes, seed: int, rank_count: int,
                     duration_ns: int) -> tuple[bytes, dict[str, int]]:
    """Insert seeded bad lines whose outcome is fixed by construction.

    - reversed pair (send after receive)       -> reversed_ptp
    - send after the last region exit          -> unmatched_send
    - communication line with a non-integer    -> malformed_record, dropped
    - line of an unknown record kind           -> malformed_record

    Reversed pairs are degraded at ingest, before replay looks at them;
    no other send is timestamped inside the trace span (it could land in
    a region and attach), and no event line is added (the monotonic
    clamp would move that rank's regions), so the factors stay the
    oracle's.
    Returns the new file and the injected count per kind.
    """
    rng = random.Random(seed * 7919 + 17)
    lines = clean.split(b"\n")
    first_body = next(i for i, ln in enumerate(lines)
                      if ln and not ln.startswith((b"#", b"c:")))
    body_end = len(lines) - 1 if lines[-1] == b"" else len(lines)
    n = max(len(INJECT_KINDS), (body_end - first_body) // INJECT_EVERY)
    at = sorted(rng.randrange(first_body, body_end + 1) for _ in range(n))
    counts = dict.fromkeys(INJECT_KINDS, 0)
    out: list[bytes] = []
    prev = 0
    for k, pos in enumerate(at):
        out.extend(lines[prev:pos])
        prev = pos
        kind = INJECT_KINDS[k % len(INJECT_KINDS)]
        counts[kind] += 1
        out.append(_bad_line(kind, rng, rank_count, duration_ns).encode())
    out.extend(lines[prev:])
    return b"\n".join(out), counts


def _bad_line(kind: str, rng: random.Random, ranks: int,
              duration: int) -> str:
    s = rng.randrange(ranks)
    r = (s + 1 + rng.randrange(ranks - 1)) % ranks if ranks > 1 else s
    if kind == "reversed":
        recv = rng.randint(1, duration)
        send = recv + rng.randint(1, 1000)
    elif kind == "unknown_kind":
        return f"9:{s + 1}:1:{s + 1}:1:{rng.randint(1, duration)}:1:1"
    else:
        send = duration + rng.randint(1, 1000)
        recv = send + rng.randint(0, 1000)
    fields = [str(v) for v in (s + 1, 1, s + 1, 1, send, send, r + 1, 1,
                               r + 1, 1, recv, recv, 64, 999)]
    if kind == "malformed":
        i = rng.randrange(len(fields))
        fields[i] += "x"
    return "3:" + ":".join(fields)


def expected_anomalies(injected: dict[str, int]) -> dict[str, int]:
    """Per-kind anomaly counts the analyzer must report."""
    want = {"malformed_record": injected["malformed"]
            + injected["unknown_kind"],
            "reversed_ptp": injected["reversed"],
            "unmatched_send": injected["unmatched_send"]}
    return {k: v for k, v in want.items() if v}
