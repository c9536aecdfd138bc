"""Shared builders for randomized and fixed test scenarios."""

from __future__ import annotations

import random

from paraslice.synth import Scenario, load_scenario


PTP_PATTERNS = ("ring_exchange", "neighbor_stencil", "serial_chain")


def random_scenario(rng: random.Random, max_ranks: int = 16,
                    max_phases: int = 4) -> Scenario:
    """A valid random scenario, bounded to stay well under 10^4 events."""
    rank_count = rng.randint(2, max_ranks)
    phases = []
    for _ in range(rng.randint(1, max_phases)):
        pattern = rng.choice(
            ("none", "ring_exchange", "neighbor_stencil", "allreduce",
             "allreduce", "serial_chain"))
        kind = rng.choice(("uniform", "uniform", "linear_imbalance", "explicit"))
        mean = rng.randint(200, 3000)
        if kind == "uniform":
            compute = {"kind": "uniform", "mean_ns": mean,
                       "jitter_ns": rng.choice((0, 0, mean // 4))}
        elif kind == "linear_imbalance":
            compute = {"kind": "linear_imbalance", "mean_ns": mean,
                       "imbalance_ratio": round(rng.uniform(1.1, 2.0), 2),
                       "jitter_ns": rng.choice((0, mean // 5))}
        else:
            compute = {"kind": "explicit",
                       "values_ns": [rng.randint(100, 4000)
                                     for _ in range(rank_count)]}
        phase = {"pattern": pattern,
                 "iterations": rng.randint(1, 6),
                 "compute": compute}
        if pattern in PTP_PATTERNS:
            phase["message_bytes"] = rng.choice((0, 64, 4096, 65536))
            phase["injected_wait_ns"] = rng.choice((0, 0, rng.randint(1, 300)))
        elif pattern == "allreduce":
            phase["injected_wait_ns"] = rng.choice((0, 0, rng.randint(1, 300)))
            if rng.random() < 0.4:
                phase["communicator_split"] = rng.randint(1, rank_count)
        phases.append(phase)
    return load_scenario({
        "name": f"random-{rng.randrange(1 << 30)}",
        "rank_count": rank_count,
        "seed": rng.randrange(1 << 31),
        "phases": phases,
    })


def phase_bench_scenario() -> Scenario:
    """Four equal-length phases, each dominated by one planted factor.

    Every phase iterates 20 times with an elapsed time of exactly 7.2 ms:
      0: balanced ring          -> LB = 1,    Ser = 1,    Trf = 1
      1: imbalanced collective  -> LB = 0.75, Ser = 1,    Trf = 1
      2: serialised chain       -> LB = 1,    Ser = 1/16, Trf = 1
      3: delayed collective     -> LB = 1,    Ser = 1,    Trf = 0.9
    """
    return load_scenario({
        "name": "phase-bench",
        "rank_count": 16,
        "seed": 2024,
        "phases": [
            {"pattern": "ring_exchange", "iterations": 20,
             "compute": {"kind": "uniform", "mean_ns": 7_200_000},
             "message_bytes": 1024},
            {"pattern": "allreduce", "iterations": 20,
             "compute": {"kind": "linear_imbalance", "mean_ns": 5_400_000,
                         "imbalance_ratio": 4 / 3}},
            {"pattern": "serial_chain", "iterations": 20,
             "compute": {"kind": "uniform", "mean_ns": 450_000},
             "message_bytes": 256},
            {"pattern": "allreduce", "iterations": 20,
             "compute": {"kind": "uniform", "mean_ns": 6_480_000},
             "injected_wait_ns": 720_000},
        ],
    })


def roundtrip(scenario: Scenario, tmp_path, strict: bool = False):
    """generate -> write -> parse; returns (trace, ingest_log, counters)."""
    from paraslice import load_trace
    from paraslice.synth import generate_to_files

    prv_path, _ = generate_to_files(scenario,
                                    tmp_path / f"{scenario.name}.prv")
    return load_trace(prv_path)
