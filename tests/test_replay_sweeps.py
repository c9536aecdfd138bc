"""replay's sweep paths against each other and against the oracle.

A batch of at least WIDE_WAVE_RANKS ready lanes advances as numpy waves;
narrower batches go lane by lane.  Lanes are ranks, or, where every
rank meets live all-rank collectives (cuts), each rank's stretches
between them.  The fixpoint does not depend on the order in which lanes
advance, and the cuts only drop edges the shared clock at a cut
dominates, so forcing either path on every batch, with or without cuts,
must give the same timelines, anomaly logs and message statuses, and
all must agree with the brute-force relaxation in tests/bruteforce.py.
Where a cut would not be sound, replay must not cut.
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
from conftest import EVERY_WAVE_SCALAR, EVERY_WAVE_WIDE, no_cuts, \
    replay_module

P2P = CallClass.POINT_TO_POINT
COLL = CallClass.COLLECTIVE
OTHER = CallClass.OTHER_MPI
V = MessageStatus.VALID

CASES = 400
COLLECTIVE_CYCLE = "collective on a dependency cycle; synchronization skipped"


def random_spec(rng: random.Random) -> dict:
    """Records of a small random trace: rendezvous and eager messages,
    messages within one rank, reversed, degraded and out-of-range ones,
    world and sub-communicator collectives (some on an undefined
    communicator, some missing a member), ranks without regions, bursts
    of messages that a rank later finds already arrived, and, from
    messages against the flow of time, dependency cycles.  About a third
    of the traces put one to three barriers on every rank, on the world
    communicator or on communicator 4 (all ranks), which replay may cut
    at."""
    P = rng.randint(1, 7)
    barriers = rng.randint(1, 3) if rng.random() < 0.35 else 0
    barrier_comm = rng.choice((None, 4))
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
        at = sorted(rng.randint(0, n) for _ in range(barriers))
        for k in range(n + 1):
            while at and at[0] == k:
                at.pop(0)
                entry = t + rng.randint(0, 5)
                specs.append((entry, entry + rng.randint(0, 10), COLL,
                              barrier_comm))
                t = specs[-1][1]
            if k == n:
                break
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
    if barriers and barrier_comm:
        comms.append(CommunicatorDef(barrier_comm, list(range(P))))

    def inside(r: int, stretch: int | None) -> int:
        """A time inside a region of rank r; with a stretch k, inside a
        region up to and including its k-th barrier and after the one
        before, when there is one."""
        pool = regions[r]
        if stretch is not None:
            ends = [k for k, spec in enumerate(pool)
                    if spec[2] == COLL and spec[3] == barrier_comm]
            bounds = [-1] + ends + [len(pool) - 1]
            pool = pool[bounds[stretch] + 1:bounds[stretch + 1] + 1] or pool
        if not pool:
            return rng.randint(0, 50)
        entry, exit_ = rng.choice(pool)[:2]
        return rng.randint(entry, exit_)

    messages = []
    for _ in range(rng.randint(0, 3 * P)):
        s, r = rng.randrange(P), rng.randrange(P)
        # with barriers, mostly both ends between the same two
        stretch = rng.randint(0, barriers) \
            if barriers and rng.random() < 0.7 else None
        send, recv = inside(s, stretch), inside(r, stretch)
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
    """The replayed trace and everything replay reports about it: the
    timelines and the anomaly log (or the error strict mode raised) and
    every message's status afterwards."""
    trace = build(spec)
    try:
        timeline, log = replay(trace, config)
    except (StrictAnomalyError, DependencyCycleError) as exc:
        return trace, (type(exc).__name__, str(exc),
                       bytes(trace.messages.status_codes))
    return trace, (
        [(tl.times.tolist(), tl.oom.tolist(), tl.ideal.tolist())
         for tl in timeline.ranks],
        [(e.kind, e.location, e.detail) for e in log.entries],
        bytes(trace.messages.status_codes))


class LanePass:
    """Spies on replay's cut finder and sweep: whether each replay cut its
    trace, and whether each lane sweep stalled, so that replay fell back
    to ranks.  With cutting off, the finder is conftest's no_cuts."""

    def __init__(self, monkeypatch):
        self.cutting = True
        self.cuts = []
        self.stalls = []
        find, sweep = replay_module._find_cuts, replay_module._sweep

        def spy_find(*args):
            self.cuts.append((find if self.cutting else no_cuts)(*args))
            return self.cuts[-1]

        def spy_sweep(*args, break_cycles):
            ideal = sweep(*args, break_cycles=break_cycles)
            if not break_cycles:
                self.stalls.append(ideal is None)
            return ideal

        monkeypatch.setattr(replay_module, "_find_cuts", spy_find)
        monkeypatch.setattr(replay_module, "_sweep", spy_sweep)

    def lanes(self) -> int | None:
        """How many lanes the last replay cut its trace into, or None."""
        cuts = self.cuts[-1]
        return None if cuts is None else len(cuts.lanes) - 1


MODES = [(cuts, path) for cuts in (True, False)
         for path in (EVERY_WAVE_WIDE, EVERY_WAVE_SCALAR)]


def test_both_sweeps_match_each_other_and_the_oracle(monkeypatch):
    """Every sweep path, with and without cuts, on random traces."""
    rng = random.Random(20240607)
    waves = []
    original = replay_module._wave

    def counted(ranks, views, offsets):
        waves.append(len(ranks))
        return original(ranks, views, offsets)

    monkeypatch.setattr(replay_module, "_wave", counted)
    spy = LanePass(monkeypatch)
    seen = {"cycle": 0, "collective cycle": 0, "skipped": 0, "strict": 0,
            "oracle": 0, "cut": 0, "stalled": 0}
    for case in range(CASES):
        spec = random_spec(rng)
        config = ReplayConfig(eager_limit_bytes=rng.choice((0, 512, 65536)),
                              strict_mode=rng.random() < 0.15)
        got = {}
        for cuts, path in MODES:
            monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", path)
            spy.cutting = cuts
            spy.cuts.clear()
            spy.stalls.clear()
            got[cuts, path] = outcome(spec, config)
            if spy.cuts:
                assert (spy.lanes() is not None) == bool(spy.stalls), case
            if (cuts, path) == MODES[0] and spy.stalls:
                # the lane sweep ran; a stall sends replay back to ranks
                seen["stalled" if spy.stalls == [True] else "cut"] += 1
        trace, result = got[MODES[0]]
        for mode in MODES[1:]:
            assert got[mode][1] == result, (case, mode)
        if config.strict_mode:
            seen["strict"] += 1
            continue
        timelines, entries, _ = result
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


def two_ways(monkeypatch, spec: dict):
    """Replay a trace with cuts and without; both must report the same.
    Returns how many lanes replay cut it into (None: no cut) and the
    outcome."""
    with monkeypatch.context() as patch:
        spy = LanePass(patch)
        result = outcome(spec, ReplayConfig())[1]
        lanes = spy.lanes()
        assert spy.stalls == ([] if lanes is None else [False])
        spy.cutting = False
        assert outcome(spec, ReplayConfig())[1] == result
    return lanes, result


def ranks_of(P: int, regions: dict, comms=(), messages=(),
             duration: int = 200) -> dict:
    """A random_spec-style trace: regions maps a rank to its region
    specs, ranks not named have none."""
    return {"P": P, "regions": [regions.get(r, []) for r in range(P)],
            "comms": list(comms), "messages": list(messages),
            "duration": duration}


ALL2 = [CommunicatorDef(4, [0, 1])]

# Each case: a trace replay must not cut, the cycle or skip text every
# entry of its log carries (None: it logs nothing), and the nearest
# trace replay does cut.
REFUSED = {
    "negative gap": (
        ranks_of(2, {0: [(0, 10, P2P, None), (5, 12, COLL, None),
                         (15, 20, P2P, None)],
                     1: [(0, 12, COLL, None)]}),
        None,
        ranks_of(2, {0: [(0, 10, P2P, None), (10, 12, COLL, None),
                         (15, 20, P2P, None)],
                     1: [(0, 12, COLL, None)]})),
    "backward message": (
        # sent after the cut on rank 0, received before it on rank 1,
        # forward in time: a cycle through the cut
        ranks_of(2, {0: [(0, 10, COLL, 4), (20, 30, P2P, None)],
                     1: [(40, 50, P2P, None), (60, 70, COLL, 4)]}, ALL2,
                 [(0, 1, 25, 45, 8, V)]),
        "message on a dependency cycle",
        ranks_of(2, {0: [(0, 10, COLL, 4), (20, 30, P2P, None)],
                     1: [(40, 50, P2P, None), (60, 70, COLL, 4),
                         (80, 90, P2P, None)]}, ALL2,
                 [(0, 1, 25, 85, 8, V)])),
    "rendezvous floor": (
        ranks_of(2, {0: [(0, 10, P2P, None), (20, 30, COLL, None)],
                     1: [(0, 10, P2P, None), (20, 30, COLL, None),
                         (40, 50, P2P, None)]},
                 messages=[(0, 1, 5, 45, 100_000, V)]),
        "rendezvous floor on a dependency cycle",
        # eager: no floor, and the receive edge crosses the cut forward
        ranks_of(2, {0: [(0, 10, P2P, None), (20, 30, COLL, None)],
                     1: [(0, 10, P2P, None), (20, 30, COLL, None),
                         (40, 50, P2P, None)]},
                 messages=[(0, 1, 5, 45, 8, V)])),
    "straddling occurrence": (
        ranks_of(3, {0: [(0, 10, COLL, 2), (20, 30, COLL, None)],
                     1: [(20, 30, COLL, None), (40, 50, COLL, 2)],
                     2: [(20, 30, COLL, None)]},
                 [CommunicatorDef(2, [0, 1])]),
        COLLECTIVE_CYCLE,
        ranks_of(3, {0: [(0, 10, COLL, 2), (20, 30, COLL, None)],
                     1: [(5, 10, COLL, 2), (20, 30, COLL, None)],
                     2: [(20, 30, COLL, None)]},
                 [CommunicatorDef(2, [0, 1])])),
    "cut order": (
        ranks_of(2, {0: [(0, 10, COLL, 2), (20, 30, COLL, 3)],
                     1: [(0, 10, COLL, 3), (20, 30, COLL, 2)]},
                 [CommunicatorDef(2, [0, 1]), CommunicatorDef(3, [0, 1])]),
        COLLECTIVE_CYCLE,
        ranks_of(2, {0: [(0, 10, COLL, 2), (20, 30, COLL, 3)],
                     1: [(0, 10, COLL, 2), (20, 30, COLL, 3)]},
                 [CommunicatorDef(2, [0, 1]), CommunicatorDef(3, [0, 1])])),
    "skipped occurrence": (
        ranks_of(2, {0: [(0, 10, COLL, 9), (20, 30, P2P, None)],
                     1: [(0, 10, COLL, 9)]}),
        "participants do not match communicator membership; "
        "synchronization skipped",
        ranks_of(2, {0: [(0, 10, COLL, None), (20, 30, P2P, None)],
                     1: [(0, 10, COLL, None)]})),
    "empty rank": (
        ranks_of(3, {0: [(0, 10, COLL, 4), (20, 30, P2P, None)],
                     1: [(0, 10, COLL, 4)]}, ALL2),
        None,
        ranks_of(3, {0: [(0, 10, COLL, 4), (20, 30, P2P, None)],
                     1: [(0, 10, COLL, 4)], 2: [(0, 10, COLL, 4)]},
                 [CommunicatorDef(4, [0, 1, 2])])),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_replay_does_not_cut_where_cuts_are_unsound(monkeypatch, case):
    refused, logged, cut = REFUSED[case]
    lanes, (_, entries, _) = two_ways(monkeypatch, refused)
    assert lanes is None
    assert {detail for _, _, detail in entries} == (
        set() if logged is None else {logged})
    lanes, (_, entries, _) = two_ways(monkeypatch, cut)
    assert lanes is not None and lanes > cut["P"] and entries == []


def ring_with_barriers(ranks: int, iterations: int) -> dict:
    """Per iteration every rank computes, sends to its right neighbour
    (a zero-length region), waits to receive from its left one, then
    meets a world barrier."""
    regions = [[] for _ in range(ranks)]
    messages = []
    t0 = 0
    for it in range(iterations):
        start = [t0 + 100 + (r * 37 + it * 11) % 300 for r in range(ranks)]
        done = [max(start[r], start[r - 1] + 20) for r in range(ranks)]
        end = max(done) + 5
        for r in range(ranks):
            regions[r] += [(start[r], start[r], P2P, None),
                           (start[r], done[r], P2P, None),
                           (done[r], end, COLL, None)]
            messages.append((r, (r + 1) % ranks, start[r],
                             done[(r + 1) % ranks], 1024, V))
        t0 = end
    return {"P": ranks, "regions": regions, "comms": [],
            "messages": messages, "duration": t0 + 100}


def test_ring_with_a_barrier_per_iteration_replays_in_lanes(monkeypatch):
    """Each iteration of each rank is a lane; they all start at once, so
    one wave covers every lane the first step leaves ready."""
    waves = []
    original = replay_module._wave
    monkeypatch.setattr(replay_module, "_wave", lambda lanes, *rest: (
        waves.append(len(lanes)) or original(lanes, *rest)))
    spec = ring_with_barriers(16, 20)
    lanes, (timelines, entries, _) = two_ways(monkeypatch, spec)
    assert lanes == 16 * 21 and entries == []
    assert waves[0] == 16 * 20
    finals, _ = brute_force_ideal(build(spec))
    assert [ideal[-1] for _, _, ideal in timelines] == finals


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
