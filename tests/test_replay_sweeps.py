"""replay's sweep paths against each other and against the oracle.

A batch of at least WIDE_WAVE_RANKS ready lanes advances as numpy waves;
narrower batches go lane by lane.  Lanes are ranks, or each rank's
stretches between its cuts: the live collectives of all ranks (world
cuts), and those of all ranks of a group, a component that messages and
sub-communicators join ranks into (group cuts).  The fixpoint does not
depend on the order in which lanes advance, and the cuts only drop edges
the shared clock at a cut dominates, so forcing either path on every
batch, with or without cuts, must give the same timelines, anomaly logs
and message statuses, and all must agree with the brute-force relaxation
in tests/bruteforce.py.  Where a cut would not be sound, replay must not
cut there: a group that breaks a rule loses its own cuts, and a trace
whose world cuts break one is not cut at all.  Traces that form one
group must keep the cut plan of world cuts alone.
"""

from __future__ import annotations

import random
import re
import tracemalloc

import numpy as np
import pytest

from paraslice import (
    CallClass,
    CommunicatorDef,
    MpiRegion,
    PtpMessage,
    Trace,
    TraceMeta,
    replay,
)
from paraslice.model import MessageStatus
from paraslice.replay import DEFAULT_EAGER_LIMIT, ReplayError

from paraslice.synth import load_scenario

from bruteforce import brute_force_ideal
from conftest import EVERY_WAVE_SCALAR, EVERY_WAVE_WIDE, no_cuts, \
    replay_module
from scenarios import roundtrip

P2P = CallClass.POINT_TO_POINT
COLL = CallClass.COLLECTIVE
OTHER = CallClass.OTHER_MPI
V = MessageStatus.VALID

CASES = 400
COLLECTIVE_CYCLE = "collective on a dependency cycle; synchronization skipped"


def random_spec(rng: random.Random) -> dict:
    """Records of a small random trace: rendezvous and eager messages,
    messages within one rank, reversed and degraded ones, world and
    sub-communicator collectives (some on an undefined communicator,
    some missing a member), ranks without regions, bursts of messages
    that a rank later finds already arrived, and, from messages against
    the flow of time, dependency cycles.  About a third
    of the traces put one to three barriers on every rank, on the world
    communicator or on communicator 4 (all ranks), which replay may cut
    at.  A message that names rank P, which Trace.build refuses, is kept
    apart in "strays"."""
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

    messages, strays = [], []
    for _ in range(rng.randint(0, 3 * P)):
        s, r = rng.randrange(P), rng.randrange(P)
        # with barriers, mostly both ends between the same two
        stretch = rng.randint(0, barriers) \
            if barriers and rng.random() < 0.7 else None
        send, recv = inside(s, stretch), inside(r, stretch)
        if rng.random() < 0.6 and send > recv:
            send, recv = recv, send          # mostly forward in time
        stray = rng.random() < 0.03
        status = MessageStatus.FAULTY_LOCAL if rng.random() < 0.05 \
            else MessageStatus.VALID
        (strays if stray else messages).append(
            (s, P if stray else r, send, recv,
             rng.choice((8, 512, 100_000)), status))
    if P > 1 and regions[0] and rng.random() < 0.3:
        # a burst from rank 0's first region into rank 1's regions
        send = regions[0][0][0]
        for entry, exit_, _, _ in regions[1]:
            if exit_ >= send:
                messages.append((0, 1, send, exit_, 8, MessageStatus.VALID))
    end = max([spec[1] for specs in regions for spec in specs] + [0])
    return {"P": P, "regions": regions, "comms": comms,
            "messages": messages, "strays": strays,
            "duration": end + rng.randint(0, 10)}


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


def outcome(spec: dict, eager_limit_bytes: int = DEFAULT_EAGER_LIMIT):
    """The replayed trace and everything replay reports about it: the
    timelines, the anomaly log and every message's status afterwards."""
    trace = build(spec)
    timeline, log = replay(trace, eager_limit_bytes)
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
    seen = {"cycle": 0, "collective cycle": 0, "skipped": 0, "oracle": 0,
            "cut": 0, "stalled": 0, "stray": 0}
    for case in range(CASES):
        spec = random_spec(rng)
        eager_limit = rng.choice((0, 512, 65536))
        rng.random()    # kept, so that the seeded traces stay the same
        if spec["strays"]:
            with pytest.raises(ValueError, match=rf"receiver {spec['P']} "
                               rf"outside \[0, {spec['P']}\)$"):
                build(spec | {"messages": spec["messages"] + spec["strays"]})
            seen["stray"] += 1
        got = {}
        for cuts, path in MODES:
            monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", path)
            spy.cutting = cuts
            spy.cuts.clear()
            spy.stalls.clear()
            got[cuts, path] = outcome(spec, eager_limit)
            if spy.cuts:
                assert (spy.lanes() is not None) == bool(spy.stalls), case
            if (cuts, path) == MODES[0] and spy.stalls:
                # the lane sweep ran; a stall sends replay back to ranks
                seen["stalled" if spy.stalls == [True] else "cut"] += 1
        trace, result = got[MODES[0]]
        for mode in MODES[1:]:
            assert got[mode][1] == result, (case, mode)
        timelines, entries, _ = result
        details = [detail for _, _, detail in entries]
        seen["cycle"] += any("dependency cycle" in d for d in details)
        seen["skipped"] += any("membership" in d for d in details)
        if COLLECTIVE_CYCLE in details:
            # the oracle cannot see which occurrences the cycle skipped
            seen["collective cycle"] += 1
            continue
        # the replayed trace carries the degradations replay made
        finals, _ = brute_force_ideal(trace, eager_limit)
        assert [ideal[-1] for _, _, ideal in timelines] == finals, case
        seen["oracle"] += 1
    assert waves and max(waves) > 1
    assert all(count >= 10 for count in seen.values()), seen


GROUP_CASES = 240
FLAWS = ("order", "later provider", "straddle", "negative gap")


def group_spec(rng: random.Random, flaw: str | None = None) -> dict:
    """Records of a trace whose ranks split into two or three disjoint
    groups, each repeating collectives on its own communicator, with
    eager and rendezvous messages inside each group (some forward across
    its collectives), optional world barriers, and sometimes a rank left
    out of every group.  Round j lies in [1000 j, 1000 j + 900].

    A flaw makes group 0's own cuts unsound: a member meets its two
    communicators in the other order ("order"), a rendezvous floor runs
    back across a cut ("later provider"), an occurrence of two of its
    members straddles a cut ("straddle"), or a region enters before the
    one before it exits ("negative gap"), which Trace.build refuses."""
    P = rng.randint(5 if flaw else 2, 9)
    ranks = rng.sample(range(P), P)
    left_out = int(P > 3 and rng.random() < 0.3)
    n = P - left_out
    k = rng.randint(2, min(3, n - 2 if flaw else n))
    first = rng.randint(3 if flaw else 1, n - k + 1)    # group 0's size
    bounds = [0, first] + sorted(rng.sample(range(first + 1, n), k - 2)) \
        + [n]
    groups = [sorted(ranks[a:b]) for a, b in zip(bounds, bounds[1:])]
    rounds = rng.randint(2 if flaw else 1, 4)
    barriers = set(rng.sample(range(rounds), rng.randint(1, rounds))) \
        if rng.random() < 0.5 else set()
    group_of = {r: g for g, members in enumerate(groups) for r in members}
    comms = [CommunicatorDef(2 + g, members)
             for g, members in enumerate(groups)]
    a, b = groups[0][0], groups[0][-1]
    regions = [[] for _ in range(P)]
    for j in range(rounds):
        base = 1000 * j
        for r in range(P):
            t = base + rng.randint(0, 50)
            for _ in range(rng.randint(0, 3)):
                entry = t + rng.randint(0, 40)
                t = entry + rng.randint(0, 60)
                regions[r].append((entry, t, P2P, None))
            if r in group_of:
                g = group_of[r]
                colls = [(t + rng.randint(0, 100), base + 700, COLL, 2 + g)]
                if flaw == "order" and g == 0 and j == 0:
                    colls.append((base + 700, base + 710, COLL, 10))
                    if r == a:
                        colls = [(colls[0][0], base + 690, COLL, 10),
                                 (base + 690, base + 710, COLL, 2)]
                if flaw == "straddle" and j == (r == b) and r in (a, b):
                    # a meets it before group 0's first cut, b after
                    colls.insert(0, (colls[0][0], colls[0][0] + 5, COLL,
                                     20))
                    colls[1] = (colls[0][1],) + colls[1][1:]
                regions[r] += colls
            if j in barriers:
                regions[r].append((base + 820 + rng.randint(0, 50),
                                   base + 900, COLL, None))
    if flaw == "order":
        comms.append(CommunicatorDef(10, groups[0]))
    elif flaw == "straddle":
        comms.append(CommunicatorDef(20, sorted((a, b))))
    elif flaw == "negative gap":
        # a's first region now exits after its second one enters
        head = regions[a][0]
        regions[a][0] = (head[0], regions[a][1][0] + 5) + head[2:]

    def inside(r: int, j: int, after: int = 0) -> int | None:
        """A time at or after `after` inside a region of rank r in
        round j, or None."""
        pool = [spec for spec in regions[r]
                if 1000 * j <= spec[0] and spec[1] <= 1000 * j + 900
                and spec[1] >= after]
        if not pool:
            return None
        entry, exit_ = rng.choice(pool)[:2]
        return rng.randint(max(entry, after), exit_)

    messages = []
    for _ in range(rng.randint(0, 2 * P)):
        members = rng.choice(groups)
        s, r = rng.choice(members), rng.choice(members)
        j = rng.randrange(rounds)
        send = inside(s, j)
        recv = None if send is None else inside(
            r, rng.choice((j, j, rng.randint(j, rounds - 1))), send)
        if recv is not None:
            messages.append((s, r, send, recv, rng.choice((8, 100_000)), V))
    if flaw == "later provider":
        # sent before group 0's first cut, received after it, and too
        # big to be eager: its floor runs back across the cut
        send = inside(a, 0) or regions[a][0][0]
        messages.append((a, b, send, inside(b, 1, send) or 1700, 100_000,
                         V))
    if left_out and not flaw and rng.random() < 0.5:
        # the rank left out joins a group: the group's communicator is no
        # longer all of it
        s, r = ranks[-1], groups[0][0]
        send = inside(s, 0)
        recv = None if send is None else inside(r, rounds - 1, send)
        if recv is not None:
            messages.append((s, r, send, recv, 8, V))
    return {"P": P, "regions": regions, "comms": comms,
            "messages": messages, "duration": 1000 * rounds + 50,
            "group 0": a}


def own_cuts(plan, rank: int | None = None) -> bool:
    """Whether a cut plan cuts some group (the one of `rank`, if given)
    at its own collectives, not only at world cuts."""
    if plan is None:
        return False
    world = int(plan.world.sum()) // (int(plan.classes.max()) + 1)
    cuts = np.diff(plan.base) - 1
    return bool((cuts[rank] if rank is not None else cuts.max()) > world)


def test_group_cuts_match_no_cuts_and_the_oracle(monkeypatch):
    """Sub-communicator traces replayed with and without cuts, on both
    sweep paths; group cuts are taken where sound, never where not."""
    rng = random.Random(20261019)
    spy = LanePass(monkeypatch)
    seen = {"grouped": 0, "oracle": 0} | dict.fromkeys(FLAWS, 0)
    for case in range(GROUP_CASES):
        flaw = FLAWS[case // 3 % len(FLAWS)] if case % 3 == 0 else None
        spec = group_spec(rng, flaw)
        eager_limit = rng.choice((512, 65536))
        rng.random()    # kept, so that the seeded traces stay the same
        if flaw == "negative gap":
            with pytest.raises(ValueError, match=r"< previous exit \d+$"):
                build(spec)
            seen[flaw] += 1
            continue
        got = {}
        for cuts, path in MODES:
            monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", path)
            spy.cutting = cuts
            spy.cuts.clear()
            got[cuts, path] = outcome(spec, eager_limit)
            if (cuts, path) == MODES[0]:
                plan = spy.cuts[-1] if spy.cuts else None
        trace, result = got[MODES[0]]
        for mode in MODES[1:]:
            assert got[mode][1] == result, (case, flaw, mode)
        if flaw:
            assert not own_cuts(plan, spec["group 0"]), (case, flaw)
            seen[flaw] += 1
        else:
            seen["grouped"] += own_cuts(plan)
        timelines, entries, _ = result
        if COLLECTIVE_CYCLE in [detail for _, _, detail in entries]:
            continue
        finals, _ = brute_force_ideal(trace, eager_limit)
        assert [ideal[-1] for _, _, ideal in timelines] == finals, case
        seen["oracle"] += 1
    assert seen["grouped"] >= GROUP_CASES // 4, seen
    assert all(count >= 10 for count in seen.values()), seen


def two_ways(monkeypatch, spec: dict):
    """Replay a trace with cuts and without; both must report the same.
    Returns how many lanes replay cut it into (None: no cut) and the
    outcome."""
    with monkeypatch.context() as patch:
        spy = LanePass(patch)
        result = outcome(spec)[1]
        lanes = spy.lanes()
        assert spy.stalls == ([] if lanes is None else [False])
        spy.cutting = False
        assert outcome(spec)[1] == result
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
# entry of its log carries (None: it logs nothing; a ValueError: the
# error Trace.build refuses it with, so replay never sees it), and the
# nearest trace replay does cut.
REFUSED = {
    "negative gap": (
        ranks_of(2, {0: [(0, 10, P2P, None), (5, 12, COLL, None),
                         (15, 20, P2P, None)],
                     1: [(0, 12, COLL, None)]}),
        ValueError("rank 0 region 1: entry 5 < previous exit 10"),
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
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_replay_does_not_cut_where_cuts_are_unsound(monkeypatch, case):
    refused, logged, cut = REFUSED[case]
    if isinstance(logged, ValueError):
        with pytest.raises(ValueError, match=f"^{re.escape(str(logged))}$"):
            build(refused)
    else:
        lanes, (_, entries, _) = two_ways(monkeypatch, refused)
        assert lanes is None
        assert {detail for _, _, detail in entries} == (
            set() if logged is None else {logged})
    lanes, (_, entries, _) = two_ways(monkeypatch, cut)
    assert lanes is not None and lanes > cut["P"] and entries == []


# Each case: a trace whose groups replay cuts at their own collectives,
# and the lanes it cuts them into.
GROUPED = {
    # ranks 0 and 1 are cut at their occurrence; rank 2, which has no
    # regions, keeps one empty lane
    "empty rank": (
        ranks_of(3, {0: [(0, 10, COLL, 4), (20, 30, P2P, None)],
                     1: [(0, 10, COLL, 4)]}, ALL2),
        2 + 2 + 1),
    # ranks 0 and 1 meet three cuts, ranks 2 and 3 two, with messages
    # inside segments and one forward across a group cut
    "two pairs and a barrier": (
        ranks_of(4, {0: [(0, 10, COLL, 2), (20, 30, COLL, None),
                         (40, 50, COLL, 2)],
                     1: [(0, 10, COLL, 2), (20, 30, COLL, None),
                         (40, 50, COLL, 2)],
                     2: [(0, 10, COLL, 3), (20, 30, COLL, None),
                         (40, 50, P2P, None)],
                     3: [(0, 10, COLL, 3), (20, 30, COLL, None),
                         (40, 50, P2P, None)]},
                 [CommunicatorDef(2, [0, 1]), CommunicatorDef(3, [2, 3])],
                 [(0, 1, 45, 50, 8, V), (2, 3, 5, 10, 100_000, V),
                  (3, 2, 5, 45, 8, V)]),
        4 + 4 + 3 + 3),
}


@pytest.mark.parametrize("case", sorted(GROUPED))
def test_replay_cuts_groups_at_their_own_collectives(monkeypatch, case):
    spec, want = GROUPED[case]
    lanes, (timelines, entries, _) = two_ways(monkeypatch, spec)
    assert lanes == want and entries == []
    finals, _ = brute_force_ideal(build(spec))
    assert [ideal[-1] for _, _, ideal in timelines] == finals


def world_plan(trace: Trace) -> list[int]:
    """The lane offsets of cutting every rank after each occurrence that
    all ranks take part in, and nowhere else."""
    P = trace.meta.rank_count
    colls = trace.collectives
    bounds = colls.part_offsets.tolist()
    after = [[] for _ in range(P)]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo == P:
            for r, row in enumerate(colls.part_rows[lo:hi].tolist()):
                after[r].append(row + 1)
    lanes = []
    for r in range(P):
        lanes += [int(trace.regions.offsets[r])] + sorted(after[r])
    return lanes + [trace.regions.row_count]


ONE_GROUP = {
    # the shapes of the ring16 and chain64_anomalous benchmark workloads
    "ring16": (16, [{"pattern": "ring_exchange", "iterations": 6,
                     "compute": {"kind": "uniform", "mean_ns": 50000,
                                 "jitter_ns": 10000},
                     "message_bytes": 1024}]),
    "chain64": (64, [{"pattern": "serial_chain", "iterations": 3,
                      "compute": {"kind": "uniform", "mean_ns": 5000},
                      "message_bytes": 256},
                     {"pattern": "neighbor_stencil", "iterations": 3,
                      "compute": {"kind": "uniform", "mean_ns": 20000},
                      "message_bytes": 4096}]),
}


@pytest.mark.parametrize("name", sorted(ONE_GROUP))
def test_one_group_traces_keep_the_world_cut_plan(monkeypatch, tmp_path,
                                                  name):
    """Messages join all ranks of these traces into one group, so they
    are cut at their world barriers exactly as before groups existed."""
    ranks, phases = ONE_GROUP[name]
    trace = roundtrip(load_scenario({"name": name, "rank_count": ranks,
                                     "seed": 7, "phases": phases}),
                      tmp_path)[0]
    want = world_plan(trace)
    with monkeypatch.context() as patch:
        spy = LanePass(patch)
        replay(trace)
    plan = spy.cuts[-1]
    assert plan.lanes.tolist() == want
    assert plan.world.all() and not plan.classes.any()
    assert spy.stalls == [False]


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


class QuietPass:
    """Spies on replay's waves and its closed form of quiet lanes: how
    many waves ran, and the region count of every lane finalized in
    closed form."""

    def __init__(self, monkeypatch):
        self.waves = 0
        self.quiet = []
        wave, finish = replay_module._wave, replay_module._finish_quiet

        def spy_wave(*args):
            self.waves += 1
            return wave(*args)

        def spy_finish(busy, v, offsets):
            finish(busy, v, offsets)
            quiet = busy[v.front[busy] == offsets[busy + 1]]
            self.quiet += (offsets[quiet + 1] - offsets[quiet]).tolist()

        monkeypatch.setattr(replay_module, "_wave", spy_wave)
        monkeypatch.setattr(replay_module, "_finish_quiet", spy_finish)


def test_sub_communicator_allreduce_replays_without_waves(monkeypatch,
                                                          tmp_path):
    """The coll256_fine shape at 16 ranks: every lane ends at one
    allreduce of its group or the final barrier, both cuts, so every lane
    is quiet and finalized in closed form, and no wave runs; the clocks
    equal the rank-by-rank sweep's and the oracle's."""
    scenario = load_scenario({
        "name": "split", "rank_count": 16, "seed": 7, "phases": [{
            "pattern": "allreduce", "iterations": 20,
            "compute": {"kind": "linear_imbalance", "mean_ns": 50000,
                        "imbalance_ratio": 1.5, "jitter_ns": 10000},
            "communicator_split": 4, "injected_wait_ns": 2000}]})
    trace = roundtrip(scenario, tmp_path)[0]
    with monkeypatch.context() as patch:
        spy = LanePass(patch)
        quiet = QuietPass(patch)
        timeline, log = replay(trace)
    lanes = spy.lanes()
    assert lanes is not None and lanes >= replay_module.WIDE_WAVE_RANKS
    busy = np.count_nonzero(np.diff(spy.cuts[-1].lanes))
    assert quiet.waves == 0 and len(quiet.quiet) == busy > 0
    assert log.total == 0
    with monkeypatch.context() as patch:
        patch.setattr(replay_module, "_find_cuts", no_cuts)
        ranks, _ = replay(trace)
    clocks = [(tl.times.tolist(), tl.oom.tolist(), tl.ideal.tolist())
              for tl in timeline.ranks]
    assert clocks == [(tl.times.tolist(), tl.oom.tolist(), tl.ideal.tolist())
                      for tl in ranks.ranks]
    finals, _ = brute_force_ideal(trace)
    assert [ideal[-1] for _, _, ideal in clocks] == finals


def quiet_beside_messages(ranks: int) -> dict:
    """Per iteration every rank computes and enters a world barrier;
    before it, ranks 0 and 1 exchange an eager and a rendezvous message,
    and every other rank passes through several regions that carry
    nothing, so its lanes are quiet and longer than one region."""
    regions = [[] for _ in range(ranks)]
    messages = []
    for it in range(6):
        t0 = 1000 * it
        regions[0] += [(t0 + 100, t0 + 110, P2P, None),
                       (t0 + 120, t0 + 300, P2P, None)]
        regions[1] += [(t0 + 105, t0 + 115, P2P, None),
                       (t0 + 130, t0 + 310, P2P, None)]
        messages += [(0, 1, t0 + 100, t0 + 310, 8, V),
                     (1, 0, t0 + 105, t0 + 300, 100_000, V)]
        for r in range(2, ranks):
            t = t0 + 10 + (r * 37 + it * 11) % 90
            for k in range(1 + (r + it) % 4):
                regions[r].append((t, t + 5 + k, P2P, None))
                t += 20 + k
        for r in range(ranks):
            regions[r].append((t0 + 500 + r, t0 + 600, COLL, None))
    return {"P": ranks, "regions": regions, "comms": [],
            "messages": messages, "duration": 6100}


@pytest.mark.parametrize("path", [EVERY_WAVE_WIDE, EVERY_WAVE_SCALAR])
def test_quiet_lanes_of_several_regions_beside_message_lanes(monkeypatch,
                                                             path):
    """Quiet lanes of several regions are finalized by a segmented cumsum
    beside lanes that carry messages; waves or lane by lane, the result
    equals the scalar sweep's, the rank-by-rank sweep's and the
    oracle's."""
    spec = quiet_beside_messages(8)
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", EVERY_WAVE_SCALAR)
    _, expected = outcome(spec)
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", path)
    quiet = QuietPass(monkeypatch)
    lanes, result = two_ways(monkeypatch, spec)
    assert result == expected and result[1] == []
    assert lanes == 8 * 7
    if path == EVERY_WAVE_WIDE:
        # all lanes but those of ranks 0 and 1, and the empty last ones
        assert len(quiet.quiet) == 6 * 6 and max(quiet.quiet) > 2
        assert quiet.waves
    else:
        assert quiet.quiet == []
    finals, _ = brute_force_ideal(build(spec))
    assert [ideal[-1] for _, _, ideal in result[0]] == finals


@pytest.mark.parametrize("path", [EVERY_WAVE_WIDE, EVERY_WAVE_SCALAR])
def test_cycle_sweep_on_ranks_with_quiet_ranks(monkeypatch, path):
    """A rendezvous floor back across a collective of ranks 0 and 1 closes
    a dependency cycle, so replay sweeps rank by rank and breaks it;
    ranks 2 and 3 carry nothing, so they are quiet ranks, finalized in
    closed form when waves are on."""
    spec = ranks_of(4, {0: [(0, 10, P2P, None), (20, 30, COLL, 4)],
                        1: [(0, 10, P2P, None), (20, 30, COLL, 4),
                            (40, 50, P2P, None)],
                        2: [(3, 8, P2P, None), (12, 40, OTHER, None),
                            (45, 47, COLL, 5)],
                        3: [(45, 47, COLL, 5)]},
                    [CommunicatorDef(4, [0, 1]), CommunicatorDef(5, [3])],
                    [(0, 1, 5, 45, 100_000, V)])
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", EVERY_WAVE_SCALAR)
    trace, expected = outcome(spec)
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", path)
    quiet = QuietPass(monkeypatch)
    lanes, result = two_ways(monkeypatch, spec)
    assert lanes is None and result == expected
    assert {detail for _, _, detail in result[1]} == {
        "rendezvous floor on a dependency cycle",
        "participants do not match communicator membership; "
        "synchronization skipped"}
    assert quiet.quiet == ([3, 1, 3, 1] if path == EVERY_WAVE_WIDE else [])
    finals, _ = brute_force_ideal(trace)
    assert [ideal[-1] for _, _, ideal in result[0]] == finals


def test_quiet_lanes_are_found_before_any_head_fires(monkeypatch):
    """Rank 0's lanes each open with an eager send that rank 1's lane of
    the same iteration receives.  With lane blocks of a few regions,
    rank 1's lanes lie in later blocks than the sends; once a send has
    fired, its receive counts no edge, so the quiet-lane pass must run
    over every block before any head fires, or it would take rank 1's
    lanes for quiet and drop the wait for the sender."""
    iterations = 40
    regions = [[], []]
    messages = []
    for it in range(iterations):
        t0 = 1000 * it
        regions[0] += [(t0 + 300, t0 + 310, P2P, None),
                       (t0 + 400, t0 + 410, COLL, None)]
        regions[1] += [(t0 + 20, t0 + 330, P2P, None),
                       (t0 + 400, t0 + 410, COLL, None)]
        messages.append((0, 1, t0 + 300, t0 + 330, 8, V))
    spec = {"P": 2, "regions": regions, "comms": [], "messages": messages,
            "duration": 1000 * iterations}
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", EVERY_WAVE_SCALAR)
    _, expected = outcome(spec)
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", EVERY_WAVE_WIDE)
    for block in (3, 16, replay_module._LANE_BLOCK):
        with monkeypatch.context() as patch:
            patch.setattr(replay_module, "_LANE_BLOCK", block)
            quiet = QuietPass(patch)
            lanes, result = two_ways(patch, spec)
        assert lanes == 2 * (iterations + 1) and result == expected
        assert quiet.quiet == []
    finals, _ = brute_force_ideal(build(spec))
    assert [ideal[-1] for _, _, ideal in result[0]] == finals


@pytest.mark.parametrize("late", [1 << 60, (1 << 61) + 1000])
def test_clock_sums_near_int64_limits(monkeypatch, late):
    """A wave subtracts partial gap sums from clock values in int64, and
    the closed form of quiet lanes adds them up in int64.  Below 2**61
    of gaps both run and match the scalar loop; a trace whose gaps add
    up to more could wrap a clock, and replay refuses it."""
    spec = {"P": 2, "comms": [], "messages": [], "duration": late + 100,
            "regions": [[(0, 10, COLL, None), (late, late + 10, P2P, None)],
                        [(5, 10, COLL, None)]]}
    if late >= 1 << 61:
        with pytest.raises(ReplayError, match="overflow"):
            outcome(spec)
        return
    _, expected = outcome(spec)
    vector = []
    monkeypatch.setattr(replay_module, "WIDE_WAVE_RANKS", EVERY_WAVE_WIDE)
    for name in ("_wave", "_finish_quiet"):
        original = getattr(replay_module, name)
        monkeypatch.setattr(replay_module, name, lambda *args, f=original: (
            vector.append(1) or f(*args)))
    assert outcome(spec)[1] == expected
    assert vector


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
