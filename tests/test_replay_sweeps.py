"""replay's two sweep paths against each other and against the oracle.

A batch of at least WIDE_WAVE_RANKS ready ranks advances as one numpy
wave; narrower batches go rank by rank.  The fixpoint does not depend on
the order in which ranks advance, so forcing either path on every batch
must give the same timelines and anomaly logs, and both must agree with
the brute-force relaxation in tests/bruteforce.py.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from paraslice import (
    CallClass,
    CommunicatorDef,
    DependencyCycleError,
    MessageStatus,
    MpiRegion,
    PtpMessage,
    ReplayConfig,
    StrictAnomalyError,
    Trace,
    TraceMeta,
    replay,
)

from bruteforce import brute_force_ideal
from conftest import EVERY_WAVE_SCALAR, EVERY_WAVE_WIDE, replay_module

P2P = CallClass.POINT_TO_POINT
COLL = CallClass.COLLECTIVE
OTHER = CallClass.OTHER_MPI

CASES = 400
COLLECTIVE_CYCLE = "collective on a dependency cycle; synchronization skipped"


def random_spec(rng: random.Random) -> dict:
    """Records of a small random trace: rendezvous and eager messages,
    messages within one rank, reversed, degraded and out-of-range ones,
    world and sub-communicator collectives (some on an undefined
    communicator, some missing a member), ranks without regions, bursts
    of messages that a rank later finds already arrived, and, from
    messages against the flow of time, dependency cycles."""
    P = rng.randint(1, 7)
    # two ranks that enter communicators 2 and 3 in opposite order
    crossed = rng.sample(range(P), 2) if P > 1 and rng.random() < 0.1 \
        else []
    regions = []
    for r in range(P):
        n = 0 if rng.random() < 0.1 else rng.randint(1, 10)
        if rng.random() < 0.15:
            n = rng.randint(20, 40)          # a long run
        t = rng.randint(0, 5)
        specs = []
        if r in crossed:
            first, second = (2, 3) if r == crossed[0] else (3, 2)
            specs = [(t, t + 1, COLL, first), (t + 1, t + 2, COLL, second)]
            t += 2
        for _ in range(n):
            entry = t + rng.choice((0, 0, rng.randint(1, 20)))
            exit_ = entry + rng.choice((0, rng.randint(1, 15)))
            kind = rng.random()
            if kind < 0.6:
                specs.append((entry, exit_, P2P, None))
            elif kind < 0.9:
                specs.append((entry, exit_, COLL,
                              rng.choice((None, None, 2, 3, 9))))
            else:
                specs.append((entry, exit_, OTHER, None))
            t = exit_
        regions.append(specs)
    comms = [CommunicatorDef(c, sorted(crossed) or sorted(
        rng.sample(range(P), rng.randint(1, P)))) for c in (2, 3)]

    def inside(r: int) -> int:
        if not regions[r]:
            return rng.randint(0, 50)
        entry, exit_ = rng.choice(regions[r])[:2]
        return rng.randint(entry, exit_)

    messages = []
    for _ in range(rng.randint(0, 3 * P)):
        s, r = rng.randrange(P), rng.randrange(P)
        send, recv = inside(s), inside(r)
        if rng.random() < 0.6 and send > recv:
            send, recv = recv, send          # mostly forward in time
        if rng.random() < 0.03:
            r = P                             # rank out of range
        status = MessageStatus.FAULTY_LOCAL if rng.random() < 0.05 \
            else MessageStatus.VALID
        messages.append((s, r, send, recv, rng.choice((8, 512, 100_000)),
                         status))
    if P > 1 and regions[0] and rng.random() < 0.3:
        # a burst from rank 0's first region into rank 1's regions
        send = regions[0][0][0]
        for entry, exit_, _, _ in regions[1]:
            if exit_ >= send:
                messages.append((0, 1, send, exit_, 8, MessageStatus.VALID))
    end = max([spec[1] for specs in regions for spec in specs] + [0])
    return {"P": P, "regions": regions, "comms": comms,
            "messages": messages, "duration": end + rng.randint(0, 10)}


def build(spec: dict) -> Trace:
    meta = TraceMeta(total_duration_ns=spec["duration"],
                     rank_count=spec["P"])
    regions = [[MpiRegion(r, entry, exit_, cls, comm_hint=hint)
                for entry, exit_, cls, hint in specs]
               for r, specs in enumerate(spec["regions"])]
    messages = [PtpMessage(s, r, send_begin=sb, recv_end=re_, size_bytes=n,
                           status=st)
                for s, r, sb, re_, n, st in spec["messages"]]
    return Trace.build(meta, regions, messages, spec["comms"])


def outcome(spec: dict, config: ReplayConfig):
    """The replayed trace and everything replay reports about it."""
    trace = build(spec)
    try:
        timeline, log = replay(trace, config)
    except (StrictAnomalyError, DependencyCycleError) as exc:
        return trace, (type(exc).__name__, str(exc))
    return trace, (
        [(tl.times.tolist(), tl.oom.tolist(), tl.ideal.tolist())
         for tl in timeline.ranks],
        [(e.kind, e.location, e.detail) for e in log.entries])


def test_both_sweeps_match_each_other_and_the_oracle(monkeypatch):
    rng = random.Random(20240607)
    waves = []
    original = replay_module._wave

    def counted(ranks, views, offsets):
        waves.append(len(ranks))
        return original(ranks, views, offsets)

    monkeypatch.setattr(replay_module, "_wave", counted)
    seen = {"cycle": 0, "collective cycle": 0, "skipped": 0, "strict": 0,
            "oracle": 0}
    for case in range(CASES):
        spec = random_spec(rng)
        config = ReplayConfig(eager_limit_bytes=rng.choice((0, 512, 65536)),
                              strict_mode=rng.random() < 0.15)
        got = {}
        for path in (EVERY_WAVE_WIDE, EVERY_WAVE_SCALAR):
            monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", path)
            got[path] = outcome(spec, config)
        trace, result = got[EVERY_WAVE_WIDE]
        assert result == got[EVERY_WAVE_SCALAR][1], case
        if config.strict_mode:
            seen["strict"] += 1
            continue
        timelines, entries = result
        details = [detail for _, _, detail in entries]
        seen["cycle"] += any("dependency cycle" in d for d in details)
        seen["skipped"] += any("membership" in d for d in details)
        if COLLECTIVE_CYCLE in details:
            # the oracle cannot see which occurrences the cycle skipped
            seen["collective cycle"] += 1
            continue
        # the replayed trace carries the degradations replay made
        finals, _ = brute_force_ideal(trace, config.eager_limit_bytes)
        assert [ideal[-1] for _, _, ideal in timelines] == finals, case
        seen["oracle"] += 1
    assert waves and max(waves) > 1
    assert all(count >= 10 for count in seen.values()), seen


@pytest.mark.parametrize("late", [1 << 60, (1 << 61) + 1000])
def test_clock_sums_near_int64_limits(monkeypatch, late):
    """A wave subtracts partial gap sums from clock values in int64; when
    the gaps of a trace add up to 2**61 or more, every batch takes the
    scalar loop, whose Python integers cannot wrap."""
    spec = {"P": 2, "comms": [], "messages": [], "duration": late + 100,
            "regions": [[(0, 10, COLL, None), (late, late + 10, P2P, None)],
                        [(5, 10, COLL, None)]]}
    _, expected = outcome(spec, ReplayConfig())
    waves = []
    original = replay_module._wave
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", EVERY_WAVE_WIDE)
    monkeypatch.setattr(replay_module, "_wave",
                        lambda *args: waves.append(1) or original(*args))
    assert outcome(spec, ReplayConfig())[1] == expected
    assert bool(waves) == (late < 1 << 61)


def barrier_trace(ranks: int, iterations: int) -> Trace:
    """Per iteration a computing gap, then a world barrier; every other
    iteration also a barrier of each half of the ranks."""
    regions = [[] for _ in range(ranks)]
    half = ranks // 2
    for it in range(iterations):
        t0 = it * 1000
        for r in range(ranks):
            enter = t0 + 100 + (r * 37 + it * 11) % 300
            regions[r].append(MpiRegion(r, enter, t0 + 500, COLL))
            if it % 2:
                regions[r].append(MpiRegion(r, t0 + 600 + r % 50, t0 + 700,
                                            COLL, comm_hint=2 + r // half))
    comms = [CommunicatorDef(2, list(range(half))),
             CommunicatorDef(3, list(range(half, ranks)))]
    return Trace.build(TraceMeta(iterations * 1000 + 100, ranks), regions,
                       communicators=comms)


def replay_peak(trace: Trace) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        timeline, log = replay(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.total == 0 and timeline.rank_count == trace.meta.rank_count
    return peak - base


def test_waves_free_their_views_with_the_sweep(monkeypatch):
    """The waves' numpy views keep the sweep's arrays alive; once the
    sweep is done they must go with them, before the timeline is
    assembled, so forcing waves raises replay's peak by nothing."""
    trace = barrier_trace(128, 20)
    peaks = {}
    for path in (EVERY_WAVE_SCALAR, EVERY_WAVE_WIDE):
        monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", path)
        peaks[path] = replay_peak(trace)
    assert peaks[EVERY_WAVE_WIDE] <= 1.05 * peaks[EVERY_WAVE_SCALAR], peaks
