"""Clock reconstruction by replaying MPI ordering constraints.

Every rank carries three non-decreasing nanosecond clocks fixed at each
region entry and exit: elapsed (physical time), out-of-MPI time, and the
ideal-network clock.  Out-of-MPI gaps advance all three by the gap length;
an MPI region advances only elapsed, and its exit ideal is raised by a
compare-and-swap against the values arriving through messages and
collectives.

The replay is counted dependency propagation (Kahn's algorithm) over
lanes: runs of consecutive regions of one rank, each replayed from an
ideal clock of 0.  Each region counts the edges it waits on: receive
edges, rendezvous floors, and one for its collective occurrence.  When a
lane's frontier reaches a region, that region's entry ideal is known and
its triggers fire once each: a message edge max-accumulates the value
into its consumer and decrements the consumer's count; a collective
arrival does the same into its occurrence, and the last arrival
delivers the occurrence's maximum to every participant.  A lane runs
while the count at its frontier is zero.

Lanes are ranks, unless the trace can be cut.  Ranks fall into groups,
the connected components that message edges and every live collective
occurrence not of all ranks join them into.  A cut is a live occurrence
of all ranks of a group: a world cut when all ranks take part, which
every group shares, or a group cut of one group's own.  Each rank's
sequence is cut after each of its cuts, and each stretch between two
cuts (a segment) is a lane.  Trace.build and ingest admit no region
that enters before the previous exit on its rank, so no gap is negative
and ideal clocks never fall along a rank: the ranks of a cut leave it
with one exit ideal, the maximum of their entries, and an edge whose
provider p lies in an earlier segment than its consumer c is dominated:
the cut between them gives entry(p) <= its exit ideal <= entry(c).  So
the cut occurrences and those forward edges are dropped, every lane is
replayed from 0, and the segments are stitched with prefix sums: with D
the largest exit ideal a group's ranks reach at a cut, counted from 0,
the group's cuts after world cut k-1 sit at V_(k-1) plus the group's
running sum of D, and world cut k at V_k, V_(k-1) plus the largest such
sum over the groups.  A cut plan is sound when the ranks of each group
meet its cuts in one order, no edge's provider lies in a later segment
than its consumer, and no other live occurrence has participants in two
segments.  When the world and group cuts together break a rule, in any
group, every group falls back to the world cuts alone; when those break
one too, replay does not cut at all.  Every dropped edge then leads
into a later segment and nothing leads back, so none lies on a
dependency cycle: when the lane sweep stalls, the trace has one, and
the sweep is rerun on ranks with every edge, where dependency cycles in
corrupt traces are broken by degrading the offending edges, each
logged.  The lane sweep writes no message status and logs nothing, so
the rerun reports exactly what a sweep on ranks alone would.

Every lane's first region has its entry ideal from the start.  A lane
is quiet when none of its regions waits on an edge or fires a trigger
(say, a one-region lane of a cut collective): nothing reaches it and it
reaches nothing, so its exit ideals are its running gap sums from 0.
Every sweep finalizes its quiet lanes in that closed form, a segmented
cumsum per block of lanes, before anything fires (once a head fires,
the lanes its edges reach would look quiet too).  One vectorized pass
then fires the heads of the other lanes and collects the ready ones.
Wherever a message edge or a collective releases a region, its lane is
found by one rule, a search of the sorted lane offsets.  Then the lanes
that are ready at once advance by one of two paths, chosen each time a
batch of them forms: at least WIDE_WAVE_RANKS lanes (all of a trace's
iterations at once, or the participants a collective releases) advance
as numpy waves of at most _WAVE_LANES lanes each, which finalize every
run up to its next waiting region, fire the triggers the runs reach and
collect the next batch; a narrower batch goes lane by lane through the
scalar loop, which follows a serial chain to its end in one pass.  Both
work on the same flat state, and the fixpoint does not depend on the
order in which lanes advance, so the path changes nothing in the
result.  Cycle breaking is scalar, and reads each region's live inbound
message edges in one order: receive edges, then floors, each in message
order.

Internally everything lives in numpy arrays (the message columns,
triggers in offset/payload (CSR) form, collective participant slices and
the sweep's state), each in the narrowest integer type that holds it,
because multi-million-event traces cannot afford per-edge objects.  The
waves index the arrays; the scalar loop and cycle breaking index
memoryviews of the same buffers, so a degradation the scalar path writes
lands in the trace's message status column.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import (
    AnomalyKind,
    AnomalyLog,
    CLASS_CODES,
    CallClass,
    MessageStatus,
    STATUS_CODES,
    RegionTable,
    Trace,
    WORLD_COMM_ID,
    collective_membership,
    distinct,
    locate_rows,
)

DEFAULT_EAGER_LIMIT = 65536

_CODE_OTHER = CLASS_CODES[CallClass.OTHER_MPI]
_STATUS_VALID = STATUS_CODES[MessageStatus.VALID]
_STATUS_FAULTY = STATUS_CODES[MessageStatus.FAULTY_LOCAL]
_NONE = -(1 << 63)      # below every clock value: nothing has arrived

# Fewest ready lanes that advance as numpy waves: the measured crossover
# for ranks.  On a 2-vCPU VM a wave costs about 100 us when every run is
# one region and about 170 us when runs carry messages, the scalar loop
# 1.5-3 us per lane run.  With 64 here, 64-rank ring and stencil traces
# replayed rank by rank (without cuts) run 23-28% slower; cut into lanes
# they replay in the same time at 64 and 96, and a 64-rank allreduce on
# four sub-communicators replays about 25% faster at 64.
WIDE_WAVE_RANKS = 96

# Most lanes one wave, or one step of firing lane heads, takes at a time,
# so that its temporaries stay bounded; a wider batch is split evenly.
_WAVE_LANES = 1024

# Most lanes, and most regions unless one lane holds more, that one step
# of the sweep's first passes over all lanes takes.
_LANE_BLOCK = 1 << 16


def _narrow(values: np.ndarray, top: int) -> np.ndarray:
    """A copy of an integer array as int32 when every value lies in
    [-top, top), else as int64."""
    return values.astype(np.int32 if top < 1 << 31 else np.int64)


class ReplayError(Exception):
    """Replay met a trace whose clocks could leave int64 (see _sums_fit),
    or, which the sweep's counts make unreachable, a dependency cycle
    that no degradation breaks or a stalled rank that waits on nothing."""


@dataclass(frozen=True, slots=True)
class ClockTriple:
    elapsed: int
    oom: int
    ideal: int


class RankTimeline:
    """Clock values of one rank at its collapsed event points.

    times[0] is the start sentinel 0 and times[-1] the end sentinel at the
    trace end; elapsed always equals the event time, so only the other two
    clocks are stored.
    """

    __slots__ = ("rank", "times", "oom", "ideal")

    def __init__(self, rank: int, times: np.ndarray, oom: np.ndarray,
                 ideal: np.ndarray):
        self.rank = rank
        self.times = times
        self.oom = oom
        self.ideal = ideal


class AnnotatedTimeline:
    """Replay output: every rank's clock points plus the shared end time.

    The points are three rank-major columns, times, oom and ideal: rank
    r owns rows point_offsets[r]:point_offsets[r+1] of each, and ranks[r]
    is a RankTimeline of views of those rows.  The MPI event times that
    window planning counts are rank-major columns too: rank r owns rows
    event_offsets[r]:event_offsets[r+1] of each column in event_columns.
    Replay hands over the region table's entry and exit columns,
    uncopied.
    """

    def __init__(self, times: np.ndarray, oom: np.ndarray,
                 ideal: np.ndarray, point_offsets: np.ndarray,
                 total_duration: int, event_offsets: np.ndarray,
                 event_columns: tuple[np.ndarray, ...]):
        self.times = times
        self.oom = oom
        self.ideal = ideal
        self.point_offsets = point_offsets
        self.total_duration = total_duration
        bounds = point_offsets.tolist()
        self.ranks = [RankTimeline(r, times[a:b], oom[a:b], ideal[a:b])
                      for r, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        self.event_offsets = event_offsets
        self.event_columns = event_columns

    def final_triples(self) -> list[ClockTriple]:
        """Every rank's clocks at its last point."""
        last = self.point_offsets[1:] - 1
        return [ClockTriple(*t) for t in zip(self.times[last].tolist(),
                                             self.oom[last].tolist(),
                                             self.ideal[last].tolist())]


class WorldCollectiveIndex:
    """World-communicator collectives by rank, for causality checks.

    group_collectives numbers each rank's world collectives 0, 1, ... in
    row order, so a rank's k-th world row is its row of occurrence k,
    and counting world rows finds an occurrence without a search.
    below[g] counts the world rows before table row g, start[r] is rank
    r's first position among them (below at its first row), and exits
    holds their exit times in row order.
    """

    def __init__(self, trace: Trace):
        colls, table = trace.collectives, trace.regions
        # occurrences are ordered by communicator: the world's are one run
        lo, hi = colls.part_offsets[np.searchsorted(
            colls.comm_ids, [WORLD_COMM_ID, WORLD_COMM_ID + 1])]
        rows = colls.part_rows[lo:hi]
        below = np.zeros(table.row_count + 1,
                         dtype=np.min_scalar_type(len(rows)))
        below[1:][rows] = 1
        self.below = np.cumsum(below, out=below)
        self.start = below[table.offsets]
        self.exits = np.empty(len(rows), dtype=np.int64)
        self.exits[below[rows]] = table.exit_times[rows]

    def crosses_many(self, snd: np.ndarray, rcv: np.ndarray,
                     after: np.ndarray, sb: np.ndarray) -> np.ndarray:
        """Which messages would have to pass through a world collective
        backwards: the receive completes before a world collective begins
        on the receiver, and the send starts only after that same
        collective ended on the sender.  after holds the first row of
        each receiver entered after its receive completed (locate_rows),
        so the receiver's world rows before it number that collective's
        occurrence k, and the sender's row of occurrence k is its k-th.

        Strict on both sides: at exact timestamp ties the four events are
        simultaneous, which zero-length regions produce legitimately.
        """
        # in below's narrow unsigned type: k >= 0, as after lies in the
        # receiver's rows, and only a hit's row start[snd] + k is formed
        start, count = self.start, np.diff(self.start)
        k = self.below[after] - start[rcv]
        hit = np.flatnonzero((k < count[rcv]) & (k < count[snd]))
        out = np.zeros(len(snd), dtype=bool)
        out[hit] = self.exits[start[snd[hit]] + k[hit]] < sb[hit]
        return out


def replay(trace: Trace, eager_limit_bytes: int = DEFAULT_EAGER_LIMIT,
           ) -> tuple[AnnotatedTimeline, AnomalyLog]:
    """Reconstruct every rank's clocks.  Deterministic for a given input.

    Faulty matches are degraded first (world-collective crossings; a
    valid message never sends after its receive completes, see
    Trace.build), messages are attached to the regions containing their
    endpoints, then counted propagation finalizes region exits in
    dependency order.  Every degradation is logged.  Messages larger than
    eager_limit_bytes are rendezvous: the send also waits for the receive.
    """
    if eager_limit_bytes < 0:
        raise ValueError("eager_limit_bytes must be non-negative")
    log = AnomalyLog()
    meta = trace.meta
    P = meta.rank_count

    # regions are numbered by their row in the rank-major table: rank
    # r's region k is row offsets[r] + k
    table = trace.regions
    offsets = table.offsets
    ent, ex = table.entry_times, table.exit_times
    N = table.row_count
    ends = offsets[1:][offsets[1:] > offsets[:-1]] - 1    # last rows
    end_time = max(meta.total_duration_ns, int(ex[ends].max())) \
        if len(ends) else meta.total_duration_ns

    msgs = trace.messages
    nmsg = len(msgs)
    snd, rcv = msgs.senders, msgs.receivers
    sb, re_ = msgs.send_begins, msgs.recv_ends
    status = msgs.status_codes      # degradations write through

    # --- degrade world crossings, attach messages to regions --------------
    # The receive side is located first: the crossing check reads each
    # receiver's next row from it, and only the messages it leaves valid
    # have their send located.  A receive edge runs from the sender's
    # region holding the send to the receiver's region holding the
    # receive; a rendezvous floor runs back from the receive region to the
    # send region.
    s_row = r_row = recv_i = floor_i = np.zeros(0, dtype=np.int64)
    if nmsg:
        at = np.flatnonzero(status == _STATUS_VALID)
        found, after = locate_rows(table, rcv[at], re_[at], prefer_exit=True)
        cross = WorldCollectiveIndex(trace).crosses_many(
            snd[at], rcv[at], after, sb[at])
        del after
        for i in at[cross].tolist():
            status[i] = _STATUS_FAULTY
            log.add(AnomalyKind.REVERSED_PTP, f"message {i}",
                    "message matched across a world collective")
        at, found = at[~cross], found[~cross]
        del cross
        r_row = np.full(nmsg, -1, dtype=np.int64)
        r_row[at] = found
        del found
        s_row = np.full(nmsg, -1, dtype=np.int64)
        s_row[at] = locate_rows(table, snd[at], sb[at])[0]

        consider = status == _STATUS_VALID
        un_send = consider & (s_row < 0)
        un_recv = consider & (s_row >= 0) & (r_row < 0)
        for i in np.nonzero(un_send | un_recv)[0]:
            i = int(i)
            if un_send[i]:
                log.add(AnomalyKind.UNMATCHED_SEND, f"message {i}",
                        f"send at {sb[i]} outside any region of "
                        f"rank {snd[i]}")
            else:
                log.add(AnomalyKind.UNMATCHED_RECV, f"message {i}",
                        f"receive at {re_[i]} outside any region of "
                        f"rank {rcv[i]}")
            status[i] = _STATUS_FAULTY

        attached = np.flatnonzero(consider & (s_row >= 0) & (r_row >= 0))
        del consider, un_send, un_recv, at
        # regions of the other-MPI class never synchronize, and an edge
        # from a region to itself holds nothing back
        sg, rg = s_row[attached], r_row[attached]
        linked = sg != rg
        recv_i = attached[linked & (table.class_codes[rg] != _CODE_OTHER)]
        floor_i = attached[linked & (table.class_codes[sg] != _CODE_OTHER)
                           & (msgs.sizes[attached] > eager_limit_bytes)]
        del attached, sg, rg, linked

    # --- attach collectives --------------------------------------------------
    colls = trace.collectives
    part_rank = _narrow(table.ranks_of(colls.part_rows), P)
    op_skip = _skipped_collectives(trace, part_rank, log)

    # entry ideal of region g: the exit ideal before it plus gap[g], the
    # out-of-MPI time in between (a rank's first region: its entry time)
    gap = np.empty(N, dtype=np.int64)
    if N:
        gap[1:] = ent[1:] - ex[:-1]
        heads = offsets[:-1][offsets[1:] > offsets[:-1]]
        gap[heads] = ent[heads]
        del heads
    if not _sums_fit(gap) or end_time >= 1 << 62:
        raise ReplayError("clock values would overflow 64-bit nanoseconds")
    # what every sweep shares: the gap before each region, the message
    # columns (whose status bytes degradations write through) with each
    # message's send and receive rows, and each collective participant's
    # rank and region (occurrence o owns participants part_off[o] to
    # part_off[o+1] - 1)
    graph = SimpleNamespace(rows=N, gap=gap, senders=snd, receivers=rcv,
                            status=status, s_row=s_row, r_row=r_row,
                            part_off=colls.part_offsets, part_rank=part_rank,
                            part_gid=_narrow(colls.part_rows, N))

    # --- sweep ---------------------------------------------------------------
    cuts = _find_cuts(table, graph, op_skip, recv_i, floor_i, colls.comm_ids)
    ideal_exit = None
    if cuts is not None:
        keep = cuts.keep
        ideal_exit = _sweep(graph, cuts.lanes, recv_i[keep[:len(recv_i)]],
                            floor_i[keep[len(recv_i):]], op_skip | cuts.occs)
        del keep
    if ideal_exit is None:
        # no cut, or a dependency cycle: every edge, rank by rank
        ideal_exit = _sweep(graph, offsets, recv_i, floor_i, op_skip, log=log)
    else:
        _stitch(ideal_exit, cuts)
    del graph, cuts, s_row, r_row, recv_i, floor_i, op_skip, part_rank

    timeline = _assemble_timeline(table, ideal_exit, gap, end_time)
    return timeline, log


def _find_cuts(table: RegionTable, graph: SimpleNamespace, skip: np.ndarray,
               recv_i: np.ndarray, floor_i: np.ndarray,
               comm_ids: np.ndarray) -> SimpleNamespace | None:
    """Cut every rank after each live collective occurrence that all
    ranks take part in (a world cut), and after each one whose
    participants are exactly its group (a group cut); None when there is
    nothing to cut or no cut is sound.

    A group is a connected component of ranks, joined by the attached
    message edges and by every live occurrence that is not all-rank;
    without such occurrences no group has cuts of its own, and all ranks
    count as one.  When the world and group cuts together break a rule
    (see _lay_out), every group keeps the world cuts alone; when those
    break one too, nothing is cut."""
    P = table.rank_count
    part_off, part_rank = graph.part_off, graph.part_rank
    counts = np.diff(part_off)
    world = ~skip & (counts == P)
    sub = np.flatnonzero(~skip & ~world)
    if len(sub):
        # the first live occurrence of each communicator joins its members
        comms = comm_ids[sub]
        heads = sub[np.concatenate(([True], comms[1:] != comms[:-1]))]
        first = part_off[heads]
        ends = np.concatenate((recv_i, floor_i))
        pairs = distinct(graph.senders[ends] * P + graph.receivers[ends])
        label = _components(
            P, np.concatenate((pairs // P, np.repeat(part_rank[first],
                                                     counts[heads]))),
            np.concatenate((pairs % P,
                            part_rank[_spans(first, counts[heads])])))
        del comms, heads, first, ends, pairs
        # a group cut: an occurrence of every rank of its group
        size = np.bincount(label, minlength=P)
        cut = world.copy()
        cut[sub] = counts[sub] == size[label[part_rank[part_off[sub]]]]
        if (cut & ~world).any():
            plan = _lay_out(table, graph, skip, cut, world, label, recv_i,
                            floor_i)
            if plan is not None:
                return plan
    if not world.any():
        return None
    return _lay_out(table, graph, skip, world, world,
                    np.zeros(P, dtype=np.int64), recv_i, floor_i)


def _components(P: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label ranks 0..P-1 by the connected component that the pairs
    (a[i], b[i]) join them into: each with its component's lowest rank.
    Every round hooks each component under its lowest neighbour and
    flattens the labels, so the components at least halve per round."""
    label = np.arange(P)
    while len(a):
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            break
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
    return label


def _lay_out(table: RegionTable, graph: SimpleNamespace, skip: np.ndarray,
             cut: np.ndarray, world: np.ndarray, label: np.ndarray,
             recv_i: np.ndarray, floor_i: np.ndarray,
             ) -> SimpleNamespace | None:
    """The lanes of cutting after the occurrences in cut, with the ranks
    grouped by label, each group named by its lowest rank; None when the
    ranks of a group meet its cuts in different orders, a message edge's
    provider lies in a later segment than its consumer, or another live
    occurrence has participants in two segments.

    The plan says where each rank's region sequence is cut, and how the
    pieces fit.  Rank r's lanes are base[r] to base[r+1] - 1, in order:
    lane l owns regions lanes[l] to lanes[l+1] - 1, and the lane after
    rank r's j-th cut is base[r] + j.  The classes are the groups, or all
    ranks as one when only world cuts are taken; the ranks of one class
    meet the same cuts in the same order.  classes[r] is rank r's class,
    and world flags which of the cuts, listed class by class in each
    class's order, are world cuts.  occs marks the cut occurrences, and
    keep says which message edges (receive edges, then floors) stay
    within one segment."""
    P, N = table.rank_count, table.row_count
    n_occ = len(cut)
    counts = np.diff(graph.part_off)
    # each group's lowest rank is its reference, and its index its class
    ref = distinct(label)
    cls = np.searchsorted(ref, label)
    C = len(ref)

    # every cut row with its occurrence, in row order, which is (rank,
    # position): the occurrences scattered over the table, read back
    occ = np.full(N, -1, dtype=np.min_scalar_type(-n_occ))
    occ[graph.part_gid[np.repeat(cut, counts)]] = np.repeat(
        np.arange(n_occ, dtype=occ.dtype)[cut], counts[cut])
    rows = np.flatnonzero(occ >= 0)
    occ = occ[rows]
    bounds = np.searchsorted(rows, table.offsets)
    before = bounds[:-1]                 # cut rows of the ranks before
    m = np.diff(bounds)                  # cuts per rank
    # the reference ranks' cuts, class by class: the cut slots
    slot_occ = occ[_spans(before[ref], m[ref])]
    slot_world = world[slot_occ]
    K = int(world.sum())
    seq = slot_occ[slot_world].reshape(C, K)
    if (seq != seq[0]).any():
        return None                      # world cuts met in different orders
    # each rank meets its class's cuts in its reference rank's order
    if (occ[np.arange(len(rows)) + np.repeat(before[ref][cls] - before, m)]
            != occ).any():
        return None
    del occ

    base = np.zeros(P + 1, dtype=np.int64)
    np.cumsum(m + 1, out=base[1:])
    L = int(base[-1])
    lanes = np.empty(L + 1, dtype=np.int64)
    lanes[base[:-1]] = table.offsets[:-1]
    lanes[np.arange(len(rows)) + np.repeat(np.arange(1, P + 1), m)] = rows + 1
    lanes[L] = N
    del rows
    # the segment of every row, in the narrowest type that holds it
    top = int(m.max(initial=0)) + 1
    segment = np.repeat((np.arange(L) - np.repeat(base[:-1], m + 1)).astype(
        np.min_scalar_type(top)), np.diff(lanes))
    prov = segment[np.concatenate((graph.s_row[recv_i],
                                   graph.r_row[floor_i]))]
    cons = segment[np.concatenate((graph.r_row[recv_i],
                                   graph.s_row[floor_i]))]
    if (prov > cons).any():
        return None
    keep = prov == cons
    del prov, cons
    other = ~skip & ~cut
    if other.any():
        seg = segment[graph.part_gid[np.repeat(other, counts)]]
        n = counts[other]
        if (seg != np.repeat(seg[np.cumsum(n) - n], n)).any():
            return None
    return SimpleNamespace(lanes=lanes, base=base, classes=cls,
                           world=slot_world, occs=cut, keep=keep)


def _stitch(ideal: np.ndarray, cuts: SimpleNamespace) -> None:
    """Lift each segment's exit ideals, computed from 0, onto the exit
    ideal its ranks share at the cut before it.

    No gap is negative, so ideal clocks never fall along a rank, and the
    members of a group leave a cut with the largest exit ideal any of
    them reaches there, counted from 0 in the segment it ends: D.  A
    group's cuts between world cuts k-1 and k add up their D on top of
    V_(k-1); world cut k takes V_k, V_(k-1) plus the largest of these
    running sums, each with the group's D at cut k."""
    lanes, base, cls, world = cuts.lanes, cuts.base, cuts.classes, cuts.world
    P, L = len(cls), len(lanes) - 1
    C = int(cls.max()) + 1
    m = np.diff(base) - 1                # cuts per rank
    per = np.zeros(C, dtype=np.int64)    # cuts per class
    per[cls] = m
    slot0 = np.cumsum(per) - per         # class c's first cut slot
    # rank-major, every cut: the lane after it, and its slot
    i = np.arange(L - P)
    at = i + np.repeat(np.arange(1, P + 1), m)
    rows = lanes[at] - 1
    slot = i + np.repeat(slot0[cls] + np.arange(P) - base[:-1], m)
    del i
    d = np.zeros(len(world), dtype=np.int64)
    np.maximum.at(d, slot, ideal[rows])
    # running sums of D, restarted at each class and after each world cut
    slot_cls = np.repeat(np.arange(C), per)
    start = np.zeros(len(d), dtype=bool)
    start[slot0[per > 0]] = True
    start[1:] |= world[:-1]
    run = np.cumsum(d)
    run -= (run - d)[np.maximum.accumulate(
        np.where(start, np.arange(len(d)), 0))]
    K = int(world.sum()) // C
    shared = np.cumsum(run[world].reshape(C, K).max(axis=0))
    after = np.cumsum(world) - world - K * slot_cls     # world cuts before
    run += np.concatenate(([0], shared))[after]
    run[world] = np.tile(shared, C)
    exit_ = run[slot]
    del slot, run, d
    lift = np.zeros(L, dtype=np.int64)
    lift[at] = exit_
    del at
    for lo, hi in _lane_blocks(lanes):
        ideal[lanes[lo]:lanes[hi]] += np.repeat(
            lift[lo:hi], np.diff(lanes[lo:hi + 1]))
    ideal[rows] = exit_


def _sweep(graph: SimpleNamespace, lanes: np.ndarray, recv_i: np.ndarray,
           floor_i: np.ndarray, skip: np.ndarray,
           log: AnomalyLog | None = None) -> np.ndarray | None:
    """Counted propagation over lanes (lane l owns regions lanes[l] to
    lanes[l+1] - 1 and starts from 0), along the given receive edges and
    floors and the occurrences not in skip.  Returns the exit ideals.
    Without a log, a sweep that stalls returns None; with one, lanes are
    ranks, and each dependency cycle is broken and logged."""
    N = graph.rows
    L = len(lanes) - 1
    part_counts = np.diff(graph.part_off)

    # --- triggers ------------------------------------------------------------
    # One CSR over providers (global region ids): the triggers of region g
    # are the slice [trig_off[g], trig_off[g+1]).  A message trigger holds
    # the message index and its consumer region; a collective arrival
    # holds ~occurrence, and its own participant region as consumer
    # (never read).  Each region counts its unfired edges, plus one while
    # its collective occurrence has not delivered, so each region's count
    # is the number of triggers it consumes.
    live = np.flatnonzero(~skip)
    part_g = graph.part_gid[np.repeat(~skip, part_counts)]
    prov = np.concatenate((graph.s_row[recv_i], graph.r_row[floor_i], part_g))
    order = np.argsort(prov, kind="stable")
    prov += 1
    at = np.bincount(prov, minlength=N + 1)
    del prov
    trig_off = _narrow(np.cumsum(at, out=at), len(order) + 1)
    del at
    ids = np.concatenate((recv_i, floor_i,
                          ~np.repeat(live, part_counts[live])))[order]
    trig_id = _narrow(ids, max(len(graph.senders), len(skip)))
    del ids
    cons = np.concatenate((graph.r_row[recv_i], graph.s_row[floor_i],
                           part_g))
    counts = np.bincount(cons, minlength=N)
    trig_cons = _narrow(cons[order], N)
    del cons, order, part_g, live

    # The sweep's state, for the waves: ideal holds the exit ideals, and
    # until a region is finalized, the maximum value that has arrived for
    # it through messages and its collective; front, each lane's frontier
    # region; left and op_max, each occurrence's participants yet to
    # arrive and the maximum of those that have.
    v = SimpleNamespace(
        gap=graph.gap, status=graph.status, part_off=graph.part_off,
        part_gid=graph.part_gid, trig_off=trig_off, trig_id=trig_id,
        trig_cons=trig_cons, count=_narrow(counts, len(trig_id) + 1),
        ideal=np.full(N, _NONE, dtype=np.int64),
        front=_narrow(lanes[:-1], N + 1), queued=np.zeros(L, dtype=np.uint8),
        left=part_counts.copy(), op_max=np.full(len(skip), _NONE,
                                                dtype=np.int64),
        op_skip=skip.astype(np.uint8))
    del counts
    # The scalar paths index memoryviews of the same buffers, which read
    # and write Python ints faster than numpy's scalar indexing.
    gap, ideal_exit, front, queued, count, trig_off, trig_id, trig_cons, \
        left, op_max, op_skip = map(memoryview, (
            v.gap, v.ideal, v.front, v.queued, v.count, v.trig_off,
            v.trig_id, v.trig_cons, v.left, v.op_max, v.op_skip))
    m_sender, m_receiver, m_status, s_row, r_row, part_off, part_rank, \
        part_gid = map(memoryview, (
            graph.senders, graph.receivers, graph.status, graph.s_row,
            graph.r_row, graph.part_off, graph.part_rank, graph.part_gid))
    # lane l: regions first[l] to first[l+1]-1
    first = memoryview(lanes)
    ready: deque[int] = deque()

    def release(r: int, g: int) -> None:
        """One edge of region g of lane r has fired or been dropped."""
        n = count[g] - 1
        count[g] = n
        if not n and front[r] == g and not queued[r]:
            queued[r] = 1
            ready.append(r)

    def fire(lo: int, hi: int, e: int) -> None:
        """A region's entry ideal e is known: fire its triggers [lo, hi)."""
        for t in range(lo, hi):
            i = trig_id[t]
            if i >= 0:
                if m_status[i]:
                    continue
                c = trig_cons[t]
                if e > ideal_exit[c]:
                    ideal_exit[c] = e
                n = count[c] - 1
                count[c] = n
                if not n:
                    r = bisect_right(first, c) - 1
                    if front[r] == c and not queued[r]:
                        queued[r] = 1
                        ready.append(r)
                continue
            o = ~i
            if op_skip[o]:
                continue
            if e > op_max[o]:
                op_max[o] = e
            n = left[o] - 1
            left[o] = n
            if n:
                continue
            # the last participant arrived: every participant waits at
            # this occurrence, so each is at its frontier
            x = op_max[o]
            for j in range(part_off[o], part_off[o + 1]):
                c = part_gid[j]
                if x > ideal_exit[c]:
                    ideal_exit[c] = x
                n = count[c] - 1
                count[c] = n
                if not n:
                    r = bisect_right(first, c) - 1
                    if not queued[r]:
                        queued[r] = 1
                        ready.append(r)

    # --- cycle breaking (rare; corrupt traces only, lanes are ranks) ---------
    view: list = []
    coll_of: list = []

    def edges_into(g: int) -> tuple[list[int], list[int]]:
        """Messages whose receive edge, and whose floor, region g waits
        on, each in message order."""
        if not view:
            ti, tc = v.trig_id, v.trig_cons.astype(np.int64)
            msg = ti >= 0
            mi = ti[msg]
            key = 2 * tc[msg] + (tc[msg] != graph.r_row[mi])
            order = np.lexsort((mi, key))
            view.extend((key[order], mi[order]))
        key, mi = view
        lo, mid, hi = np.searchsorted(key, (2 * g, 2 * g + 1, 2 * g + 2))
        return mi[lo:mid].tolist(), mi[mid:hi].tolist()

    def inbound(g: int) -> Iterator[tuple[int, int, int, bool]]:
        """Region g's live inbound message edges, receive edges then
        floors, each in message order, as (message, providing rank, its
        region, whether a floor)."""
        recv, floor = edges_into(g)
        for i in recv:
            if not m_status[i]:
                yield i, m_sender[i], s_row[i], False
        for i in floor:
            if not m_status[i]:
                yield i, m_receiver[i], r_row[i], True

    def occurrence_at(g: int) -> int:
        """The collective occurrence region g takes part in, or -1."""
        if not coll_of:
            at = np.full(N, -1, dtype=np.int64)
            at[graph.part_gid] = np.repeat(
                np.arange(len(skip), dtype=np.int64), part_counts)
            coll_of.append(at)
        return int(coll_of[0][g])

    def ptr(r: int) -> int:
        return front[r] - first[r]

    def entry_ideal(r: int, g: int) -> int:
        return gap[g] + (ideal_exit[g - 1] if g != first[r] else 0)

    def first_unmet(r: int) -> int:
        """A rank whose frontier lies before a region that rank r's
        blocked frontier waits on.  The frontier holds a count, so one of
        its live edges, or its occurrence, has not fired."""
        for _, q, pg, _ in inbound(front[r]):
            if front[q] < pg:
                return q
        o = occurrence_at(front[r])
        if o >= 0 and not op_skip[o] and left[o]:
            for j in range(part_off[o], part_off[o + 1]):
                pr = part_rank[j]
                if front[pr] < part_gid[j]:
                    return pr
        raise ReplayError(f"rank {r} is blocked by nothing")

    def refill(g: int) -> None:
        """Recompute region g's arrived maximum without degraded edges.
        g lies ahead of its rank's frontier, so its own arrival has not
        fired and its occurrence has delivered nothing."""
        x = _NONE
        for _, q, pg, _ in inbound(g):
            if front[q] >= pg:
                x = max(x, entry_ideal(q, pg))
        ideal_exit[g] = x

    def degrade(i: int) -> None:
        """Drop both edges of message i: an unfired edge releases its
        consumer's count, a fired one is taken back out of its maximum."""
        m_status[i] = _STATUS_FAULTY
        s, sg = m_sender[i], s_row[i]
        r, rg = m_receiver[i], r_row[i]
        for prov_r, prov_g, cons_r, cons_g, floor in (
                (s, sg, r, rg, False), (r, rg, s, sg, True)):
            if i not in edges_into(cons_g)[floor]:
                continue
            if front[prov_r] < prov_g:
                release(cons_r, cons_g)
            else:
                refill(cons_g)

    def break_cycle(blocked: list[int]) -> None:
        """Find one dependency cycle among the blocked frontiers, cut it."""
        succ = {r: first_unmet(r) for r in blocked}
        cur = min(blocked)
        order: dict[int, int] = {}
        path: list[int] = []
        while cur not in order:
            order[cur] = len(path)
            path.append(cur)
            cur = succ[cur]
        cycle = path[order[cur]:]
        cycle_set = set(cycle)

        degraded = False
        for r in sorted(cycle_set):
            k = ptr(r)
            for i, q, pg, floor in inbound(front[r]):
                if q in cycle_set and front[q] < pg:
                    degrade(i)
                    log.add(AnomalyKind.REVERSED_PTP, f"rank {r} region {k}",
                            "rendezvous floor on a dependency cycle" if floor
                            else "message on a dependency cycle")
                    degraded = True
        if not degraded:
            # held together by collectives alone: drop their synchronization.
            # Each such occurrence is still waiting for a participant, so
            # it holds one count on every participant region.
            for r in sorted(cycle_set):
                o = occurrence_at(front[r])
                if o >= 0 and not op_skip[o]:
                    op_skip[o] = 1
                    for j in range(part_off[o], part_off[o + 1]):
                        release(part_rank[j], part_gid[j])
                    log.add(AnomalyKind.MALFORMED_RECORD,
                            f"rank {r} region {ptr(r)}",
                            "collective on a dependency cycle; "
                            "synchronization skipped")
                    degraded = True
        if not degraded:
            # should be unreachable: a cycle always has a breakable edge
            raise ReplayError("unbreakable dependency cycle")

    # --- sweep ---------------------------------------------------------------
    # A batch of at least WIDE_WAVE_RANKS ready lanes advances as numpy
    # waves of at most about _WAVE_LANES lanes each; narrower batches take
    # the scalar loop below, in queue order.  A batch never holds more
    # than L lanes, so with L below WIDE_WAVE_RANKS no wave runs.

    def advance(batch: np.ndarray) -> None:
        """Run waves while the batch is wide; queue what is left."""
        while len(batch) >= WIDE_WAVE_RANKS:
            parts = -(-len(batch) // _WAVE_LANES)
            batch = _wave(batch, v, lanes) if parts == 1 else \
                np.concatenate([_wave(part, v, lanes)
                                for part in np.array_split(batch, parts)])
        v.queued[batch] = 1
        ready.extend(batch.tolist())

    # every lane's first region has its entry ideal, gap[head], from the
    # start.  The quiet lanes are finalized first, all of them before any
    # head fires: a fired edge lowers the count of the region it reaches,
    # which would make that region's lane look quiet.  Then one pass
    # fires the other lanes' heads and marks the ready ones: those whose
    # head already waits on nothing, and those the firing releases.
    # Lanes are taken in blocks, and the ready ones marked in one flag per
    # lane, so that no temporary holds every lane; the start-up pass
    # tells the lanes the quiet-lane pass left open by their frontiers.
    blocks = _lane_blocks(lanes)
    heads, ends = lanes[:-1], lanes[1:]
    for lo, hi in blocks:
        _finish_quiet(lo + np.flatnonzero(ends[lo:hi] > heads[lo:hi]),
                      v, lanes)
    batch = np.zeros(L, dtype=bool)
    for lo, hi in blocks:
        at = lo + np.flatnonzero(v.front[lo:hi] < ends[lo:hi])
        batch[at[v.count[heads[at]] == 0]] = True
        for k in range(0, len(at), _WAVE_LANES):
            g = heads[at[k:k + _WAVE_LANES]]
            batch[_fire(g, v.gap[g], v, lanes)] = True
    del heads, ends
    advance(np.flatnonzero(batch))
    del batch
    while True:
        while ready:
            if len(ready) >= WIDE_WAVE_RANKS:
                batch = np.fromiter(ready, np.int64, len(ready))
                ready.clear()
                v.queued[batch] = 0
                advance(batch)
                continue
            for _ in range(len(ready)):
                # finalize lane r's regions from its frontier until one
                # waits
                r = ready.popleft()
                g = front[r]
                end = first[r + 1]
                e = gap[g] if g == first[r] else ideal_exit[g - 1] + gap[g]
                lo = trig_off[g + 1]
                while True:
                    x = ideal_exit[g]
                    if e > x:
                        x = e
                        ideal_exit[g] = x
                    g += 1
                    if g == end:
                        break
                    e = x + gap[g]
                    hi = trig_off[g + 1]
                    if hi != lo:
                        # front[r] may lag until the run ends: a region
                        # fire reaches still waits, so it is never the
                        # frontier this run started from
                        fire(lo, hi, e)
                        lo = hi
                    if count[g]:
                        break
                front[r] = g
                queued[r] = 0
        blocked = np.flatnonzero(v.front < lanes[1:])
        if not len(blocked):
            return v.ideal
        if log is None:
            return None
        break_cycle(blocked.tolist())


def _lane_blocks(lanes: np.ndarray) -> list[tuple[int, int]]:
    """The lanes in consecutive ranges [lo, hi) of at most _LANE_BLOCK
    lanes that hold at most _LANE_BLOCK regions together, or one lane
    that holds more."""
    L = len(lanes) - 1
    blocks = []
    lo = 0
    while lo < L:
        hi = int(np.searchsorted(lanes, lanes[lo] + _LANE_BLOCK,
                                 side="right")) - 1
        hi = min(max(hi, lo + 1), lo + _LANE_BLOCK)
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _finish_quiet(at: np.ndarray, v: SimpleNamespace,
                  offsets: np.ndarray) -> None:
    """Finalize the quiet lanes among the non-empty lanes at, in order,
    before any head fires: those none of whose regions waits on an edge
    or fires a trigger.  Nothing reaches such a lane and it reaches
    nothing, so its exit ideals are its running gap sums from 0, and its
    frontier moves to its end: what a wave would give, without the
    wave's running maximum of arrived values."""
    if not len(at):
        return
    head, end = offsets[at], offsets[at + 1]
    quiet = v.trig_off[head] == v.trig_off[end]
    # counts are never negative; reduceat reads only this block's regions
    quiet &= np.add.reduceat(v.count[head[0]:end[-1]], head - head[0]) == 0
    if not quiet.any():
        return
    at, head, end = at[quiet], head[quiet], end[quiet]
    v.front[at] = end
    v.ideal[head] = v.gap[head]
    n = end - head
    long = n > 1
    if long.any():
        head, n = head[long], n[long]
        g = _spans(head, n)
        c = np.cumsum(v.gap[g])
        c -= np.repeat(c[np.cumsum(n) - n] - v.gap[head], n)
        v.ideal[g] = c


def _sums_fit(gap: np.ndarray) -> bool:
    """Whether every value replay forms fits in int64.  Each ideal and
    out-of-MPI clock value is a sum of gaps of distinct regions, and a
    wave also subtracts partial gap sums from clock values, so a total
    |gap| below 2**61 bounds them all; with the trace's end below 2**62,
    so do elapsed clocks, end sentinels and any difference of two clock
    values.  It is summed in float64, in small blocks."""
    total = 0.0
    for i in range(0, len(gap), 1 << 14):
        total += float(np.abs(gap[i:i + (1 << 14)], dtype=np.float64).sum())
    return total < 2.0 ** 61


def _spans(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The ranges lo[i] .. lo[i] + n[i] - 1, concatenated."""
    start = np.cumsum(n) - n
    return np.arange(int(n.sum())) + np.repeat(lo - start, n)


def _run_ends(count: np.ndarray, s: np.ndarray,
              top: np.ndarray) -> np.ndarray:
    """Per lane, the first region after s[i] whose count is positive, or
    top[i] when none is; windows of doubling width probe the counts."""
    end = s + 1
    on = end < top
    on &= count[np.minimum(end, len(count) - 1)] == 0
    if not on.any():
        return end
    go = np.flatnonzero(on)               # runs that go on past end
    width = 4
    while len(go):
        lo = end[go] + 1
        probe = lo[:, None] + np.arange(width)
        hit = probe >= top[go][:, None]
        inside = ~hit
        hit[inside] = count[probe[inside]] > 0
        found = hit.any(axis=1)
        end[go] = lo + np.where(found, hit.argmax(axis=1), width - 1)
        go = go[~found]
        width *= 2
    return end


def _wave(batch: np.ndarray, v: SimpleNamespace,
          offsets: np.ndarray) -> np.ndarray:
    """Advance every ready lane at once; returns the next ready lanes.

    Each lane's frontier s has count 0 and its triggers fired.  Its run
    s..end-1 ends before the next region that still waits (or at the
    lane's end); the run's exit ideals follow X[g] = max(arrived[g],
    X[g-1] + gap[g]), the triggers of s+1..end fire as in the scalar
    fire, and the lanes left at a frontier with count 0 are ready.  No
    region in a run can receive a trigger (its count is 0), so firing
    after finalizing gives the scalar result.
    """
    s = v.front[batch].astype(np.intp)
    top = offsets[batch + 1]
    end = _run_ends(v.count, s, top)
    v.front[batch] = end
    size = end - s
    prev = v.ideal[s - 1]
    prev[s == offsets[batch]] = 0         # a lane's first region
    # with C the running gap sum of a run, X - C is a running maximum of
    # arrived - C seeded with the exit ideal before the run
    head = np.cumsum(size) - size
    pos = np.arange(int(head[-1] + size[-1])) - np.repeat(head, size)
    g = pos + np.repeat(s, size)
    gap = v.gap[g]
    c = np.cumsum(gap)
    c -= np.repeat(c[head] - gap[head], size)
    y = v.ideal[g]
    none = y == _NONE
    y -= c
    y[none] = _NONE
    y[head] = np.maximum(y[head], prev)
    step = 1
    longest = int(size.max())
    while step < longest:
        i = np.flatnonzero(pos >= step)
        y[i] = np.maximum(y[i], y[i - step])
        step *= 2
    x = c + y
    top = np.repeat(top, size)
    v.ideal[g] = x

    # fire the triggers of the region after each finalized one
    fired = g + 1 < top
    reached = g[fired] + 1
    return _fire(reached, x[fired] + v.gap[reached], v, offsets)


def _fire(reached: np.ndarray, e: np.ndarray, v: SimpleNamespace,
          offsets: np.ndarray) -> np.ndarray:
    """Fire the triggers of the regions reached, whose entry ideals are e,
    as the scalar fire does (degraded messages and skipped occurrences
    ignored, each completed occurrence delivering to all its
    participants); returns the lanes whose frontier is left with count
    0, among those it waited for."""
    lo = v.trig_off[reached]
    n = v.trig_off[reached + 1] - lo
    if not n.any():
        return reached[:0]
    if n.min(initial=1) == n.max(initial=1) == 1:
        at = lo.astype(np.intp)
    else:
        at = _spans(lo, n)
        e = np.repeat(e, n)
    tid = v.trig_id[at].astype(np.intp)
    msg = tid >= 0
    ready = tid[:0]
    if msg.any():
        # message edges not degraded since
        live = msg.copy()
        live[msg] = v.status[tid[msg]] == 0
        cons = v.trig_cons[at[live]].astype(np.intp)
        np.maximum.at(v.ideal, cons, e[live])
        np.subtract.at(v.count, cons, v.count.dtype.type(1))
        cons = distinct(cons[v.count[cons] == 0])
        ready = cons[v.front[np.searchsorted(offsets, cons, side="right") - 1]
                     == cons]
        e, tid = e[~msg], tid[~msg]
    if len(tid):
        # collective arrivals; a completed occurrence delivers its maximum
        occ = ~tid
        skip = v.op_skip[occ] != 0
        if skip.any():
            occ, e = occ[~skip], e[~skip]
        np.maximum.at(v.op_max, occ, e)
        np.subtract.at(v.left, occ, 1)
        done = distinct(occ[v.left[occ] == 0])
        lo = v.part_off[done]
        n = v.part_off[done + 1] - lo
        pg = v.part_gid[_spans(lo, n)].astype(np.intp)
        v.ideal[pg] = np.maximum(v.ideal[pg], np.repeat(v.op_max[done], n))
        waits = v.count[pg] - 1
        v.count[pg] = waits
        # every participant waits at its occurrence, as its frontier
        released = pg[waits == 0]
        ready = distinct(np.concatenate((ready, released))) if len(ready) \
            else released
    return np.searchsorted(offsets, ready, side="right") - 1


def _skipped_collectives(trace: Trace, part_rank: np.ndarray,
                         log: AnomalyLog) -> np.ndarray:
    """Which collective occurrences do not synchronize: those on an
    undefined communicator, or whose participant ranks (part_rank)
    differ from the members.  Each is logged in occurrence order."""
    colls = trace.collectives
    bad = ~collective_membership(trace, part_rank)
    for i in np.flatnonzero(bad):
        where = f"collective comm={colls.comm_ids[i]} " \
                f"occ={colls.occ_indices[i]}"
        log.add(AnomalyKind.MALFORMED_RECORD, where,
                "participants do not match communicator membership; "
                "synchronization skipped")
    return bad


def _assemble_timeline(table: RegionTable, ideal_exit: np.ndarray,
                       gap: np.ndarray, end_time: int) -> AnnotatedTimeline:
    """Every rank's clock points, built for all ranks at once in one
    rank-major column per clock and cut into per-rank views.

    Rank r's points: the start sentinel 0, an entry and an exit point per
    region, and the end sentinel when the trace ends after its last exit.
    oom and ideal advance by the out-of-MPI gap before each entry, gap[g]
    for region g (a rank's first region: its entry time), which this
    overwrites; an exit carries the finalized ideal and the unchanged oom.
    Points at equal timestamps collapse onto the last one written: a
    point is dropped when the next point of its rank has its time.
    """
    P = table.rank_count
    offsets = table.offsets
    ent, ex = table.entry_times, table.exit_times
    n = np.diff(offsets)
    busy = n > 0
    head = offsets[:-1][busy]       # first and last row of each rank
    tail = offsets[1:][busy] - 1    # that has regions

    def by_rank(values) -> np.ndarray:
        """values of the ranks with regions, 0 for the others."""
        out = np.zeros(P, dtype=np.int64)
        out[busy] = values
        return out

    last = by_rank(ex[tail])
    extra = end_time > last         # ranks that get an end sentinel
    keep_start = ~busy | (by_rank(ent[head]) != 0)
    keep_entry = ent != ex
    keep_exit = np.ones(len(ent), dtype=bool)
    keep_exit[:-1] = ex[:-1] != ent[1:]
    keep_exit[tail] = True
    # output position of every kept point: kept points before it, per
    # rank, after the rank's first output position
    entry_at = np.cumsum(keep_entry, dtype=np.int64)
    entry_at += np.cumsum(keep_exit, dtype=np.int64)
    rank_kept = by_rank(entry_at[tail])
    entry_at -= keep_entry
    entry_at -= keep_exit
    rank_kept -= by_rank(entry_at[head])
    stop = np.cumsum(keep_start + rank_kept + extra)
    entry_at += np.repeat((stop - rank_kept - extra)[busy] - entry_at[head],
                          n[busy])
    points = int(stop[-1]) if P else 0
    exit_at = _narrow((entry_at + keep_entry)[keep_exit], points)
    entry_at = _narrow(entry_at[keep_entry], points)
    sentinel = stop[extra] - 1
    after = end_time - last[extra]  # from the last exit to the end

    def column(entry_values, exit_values, end_values) -> np.ndarray:
        out = np.zeros(points, dtype=np.int64)
        out[entry_at] = entry_values[keep_entry]
        out[exit_at] = exit_values[keep_exit]
        out[sentinel] = end_values
        return out

    times = column(ent, ex, end_time)
    oom_entry = np.cumsum(gap)
    oom_entry -= np.repeat(oom_entry[head] - gap[head], n[busy])
    oom = column(oom_entry, oom_entry,
                 by_rank(oom_entry[tail])[extra] + after)
    del oom_entry
    ideal_entry = gap
    ideal_entry[1:] += ideal_exit[:-1]
    ideal_entry[head] = ent[head]
    ideal = column(ideal_entry, ideal_exit,
                   by_rank(ideal_exit[tail])[extra] + after)
    return AnnotatedTimeline(times, oom, ideal, np.concatenate(([0], stop)),
                             end_time, offsets, (ent, ex))
