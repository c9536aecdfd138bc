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

Lanes are ranks, unless the trace can be cut.  A cut is a live
collective occurrence that every rank takes part in; each rank's
sequence is cut after each cut, and each stretch between two cuts (a
segment) is a lane.  With no negative gap, ideal clocks never fall
along a rank, so every rank leaves cut k with the same exit ideal V_k,
the maximum of the participants' entries, and an edge whose provider p
lies in an earlier segment than its consumer c is dominated: cut k
between them gives entry(p) <= V_k <= entry(c).  So the cut
occurrences and those forward edges are dropped, every lane is replayed
from 0, and the segments are stitched: with D_k the largest exit ideal
any rank reaches at cut k, V = cumsum(D), segment k is lifted by
V_(k-1) and the cut regions are set to V_k.  Replay does not cut when a
gap is negative, when ranks meet the cuts in different orders, when an
edge's provider lies in a later segment than its consumer, or when
another live occurrence has participants in two segments.  Every
dropped edge then leads into a later segment and nothing leads back, so
none lies on a dependency cycle: when the lane sweep stalls, the trace
has one, and the sweep is rerun on ranks with every edge, where
dependency cycles in corrupt traces are broken by degrading the
offending edges (or abort in strict mode).  The lane sweep writes no
message status and logs nothing, so the rerun reports exactly what a
sweep on ranks alone would.

Every lane's first region has its entry ideal from the start, so all
lane heads fire their triggers in one vectorized step.  Then the lanes
that are ready at once advance by one of two paths, chosen each time a
batch of them forms: at least WIDE_WAVE_RANKS lanes (all of a trace's
iterations at once, or the participants a collective releases) advance
as numpy waves of at most _WAVE_LANES lanes each, which finalize every
run up to its next waiting region, fire the triggers the runs reach and
collect the next batch; a narrower batch goes lane by lane through the
scalar loop, which follows a serial chain to its end in one pass.  Both
work on the same flat state, and the fixpoint does not depend on the
order in which lanes advance, so the path changes nothing in the
result.  Cycle breaking is scalar.

Internally everything lives in flat arrays (message columns, triggers
in offset/payload (CSR) form, collective participant slices) because
multi-million-event traces cannot afford per-edge objects.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

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
    distinct,
    locate_rows,
    rank_order,
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


def _flat(values: np.ndarray, top: int | None = None) -> array:
    """A flat array copy of an integer numpy array: int64, or int32 when
    every value lies in [-top, top)."""
    wide = top is None or top >= 1 << 31
    out = array("q" if wide else "i")
    out.frombytes(memoryview(np.ascontiguousarray(
        values, dtype=np.int64 if wide else np.int32)).cast("B"))
    return out


class ReplayError(Exception):
    pass


class StrictAnomalyError(ReplayError):
    """Raised in strict mode instead of degrading."""


class DependencyCycleError(ReplayError):
    def __init__(self, cycle: list[tuple[int, int]]):
        self.cycle = cycle
        listing = ", ".join(f"rank {r} region {k}" for r, k in cycle)
        super().__init__(f"message dependency cycle: {listing}")


@dataclass(frozen=True, slots=True)
class ClockTriple:
    elapsed: int
    oom: int
    ideal: int

    def well_ordered(self) -> bool:
        return 0 <= self.oom <= self.ideal <= self.elapsed


@dataclass(slots=True)
class ReplayConfig:
    eager_limit_bytes: int = DEFAULT_EAGER_LIMIT
    strict_mode: bool = False

    def __post_init__(self) -> None:
        if self.eager_limit_bytes < 0:
            raise ValueError("eager_limit_bytes must be non-negative")


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

    @classmethod
    def from_points(cls, rank: int,
                    points: list[tuple[int, int, int]]) -> "RankTimeline":
        arr = np.asarray(points, dtype=np.int64).reshape(-1, 3)
        return cls(rank, arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy())

    def __len__(self) -> int:
        return len(self.times)

    def point(self, i: int) -> ClockTriple:
        return ClockTriple(int(self.times[i]), int(self.oom[i]),
                           int(self.ideal[i]))

    def final(self) -> ClockTriple:
        return self.point(len(self.times) - 1)


class AnnotatedTimeline:
    """Replay output: one RankTimeline per rank plus the shared end time.

    The MPI event times that window planning counts are rank-major
    columns: rank r owns rows event_offsets[r]:event_offsets[r+1] of each
    column in event_columns.  Replay hands over the region table's entry
    and exit columns, uncopied.
    """

    def __init__(self, ranks: list[RankTimeline], total_duration: int,
                 event_offsets: np.ndarray | None = None,
                 event_columns: tuple[np.ndarray, ...] = ()):
        self.ranks = ranks
        self.total_duration = total_duration
        self.event_offsets = np.zeros(len(ranks) + 1, dtype=np.int64) \
            if event_offsets is None else event_offsets
        self.event_columns = event_columns

    @property
    def rank_count(self) -> int:
        return len(self.ranks)

    def final_triples(self) -> list[ClockTriple]:
        return [r.final() for r in self.ranks]


class WorldCollectiveIndex:
    """World-communicator collectives by rank, for causality checks.

    One row per world participant, sorted by (rank, occurrence): its
    entry time, occurrence index, and the minimum exit time over the
    rank's rows from this one on.  Rank r owns rows bounds[r] to
    bounds[r + 1].
    """

    def __init__(self, trace: Trace):
        colls = trace.collectives
        counts = np.diff(np.frombuffer(colls.part_offsets, dtype=np.int64))
        world = np.repeat(np.frombuffer(colls.comm_ids, dtype=np.int64)
                          == WORLD_COMM_ID, counts)
        occ = np.repeat(np.frombuffer(colls.occ_indices, dtype=np.int64),
                        counts)[world]
        rank = np.frombuffer(colls.part_ranks, dtype=np.int64)[world]
        order = np.lexsort((occ, rank))
        self.ranks = rank[order]
        self.occs = occ[order]
        self.entries = np.frombuffer(colls.part_entries,
                                     dtype=np.int64)[world][order]
        exit_ = np.frombuffer(colls.part_exits, dtype=np.int64)[world][order]
        self.bounds = np.searchsorted(
            self.ranks, np.arange(trace.meta.rank_count + 1)).tolist()
        self.suffix_min_exit = exit_
        for r in np.flatnonzero(np.diff(self.bounds)).tolist():
            rows = slice(self.bounds[r], self.bounds[r + 1])
            exit_[rows] = np.minimum.accumulate(exit_[rows][::-1])[::-1]
        # (rank, occurrence) as one sorted key
        self.width = int(self.occs.max()) + 1 if len(order) else 1
        self.occ_keys = self.ranks * self.width + self.occs

    def crosses_many(self, snd: np.ndarray, rcv: np.ndarray, sb: np.ndarray,
                     re_: np.ndarray) -> np.ndarray:
        """Which messages would have to pass through a world collective
        backwards: the receive completes before a world collective begins
        on the receiver, and the send starts only after that same
        collective ended on the sender.

        Strict on both sides: at exact timestamp ties the four events are
        simultaneous, which zero-length regions produce legitimately.
        """
        out = np.zeros(len(snd), dtype=bool)
        n = len(self.ranks)
        if not n:
            return out
        P = len(self.bounds) - 1
        sel = np.flatnonzero((snd >= 0) & (snd < P) & (rcv >= 0) & (rcv < P))
        # the receiver's first world collective entered after the
        # receive completes, searched with the messages sorted by receiver
        sel = sel[rank_order(rcv[sel], P)]
        cut = np.searchsorted(rcv[sel], np.arange(P + 1)).tolist()
        t = re_[sel]
        row = np.full(len(sel), -1, dtype=np.int64)
        for r in np.flatnonzero(np.diff(cut)).tolist():
            lo, hi = self.bounds[r], self.bounds[r + 1]
            i = lo + np.searchsorted(self.entries[lo:hi],
                                     t[cut[r]:cut[r + 1]], side="right")
            row[cut[r]:cut[r + 1]] = np.where(i < hi, i, -1)
        sel, row = sel[row >= 0], row[row >= 0]
        # the sender's first world collective of that occurrence or later
        s = snd[sel]
        j = np.searchsorted(self.occ_keys, s * self.width + self.occs[row])
        found = j < n
        j = np.minimum(j, n - 1)
        out[sel] = found & (self.ranks[j] == s) \
            & (self.suffix_min_exit[j] < sb[sel])
        return out


def replay(trace: Trace, config: ReplayConfig | None = None,
           ) -> tuple[AnnotatedTimeline, AnomalyLog]:
    """Reconstruct every rank's clocks.  Deterministic for a given input.

    Faulty matches are degraded first (reversed pairs and world-collective
    crossings), messages are attached to the regions containing their
    endpoints, then counted propagation finalizes region exits in
    dependency order.  In strict mode any degradation or cycle aborts
    instead.
    """
    config = config or ReplayConfig()
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
    m_sender = msgs.senders
    m_receiver = msgs.receivers
    m_begin = msgs.send_begins
    m_end = msgs.recv_ends
    m_status = msgs.status_codes     # degradations write through
    snd_np = np.frombuffer(m_sender, dtype=np.int64)
    rcv_np = np.frombuffer(m_receiver, dtype=np.int64)
    sb_np = np.frombuffer(m_begin, dtype=np.int64)
    re_np = np.frombuffer(m_end, dtype=np.int64)
    sz_np = np.frombuffer(msgs.sizes, dtype=np.int64)
    st_np = np.frombuffer(m_status, dtype=np.uint8)

    # --- degrade faulty matches --------------------------------------------
    if nmsg:
        world_index = WorldCollectiveIndex(trace)
        valid = st_np == _STATUS_VALID
        rev = valid & (sb_np > re_np)
        cross = np.zeros(nmsg, dtype=bool)
        chk = np.nonzero(valid & ~rev)[0]
        if len(chk):
            cross[chk] = world_index.crosses_many(
                snd_np[chk], rcv_np[chk], sb_np[chk], re_np[chk])
        del world_index
        for i in np.nonzero(rev | cross)[0]:
            i = int(i)
            if rev[i]:
                detail = (f"send at {m_begin[i]} after receive completion "
                          f"{m_end[i]}")
            else:
                detail = "message matched across a world collective"
            m_status[i] = _STATUS_FAULTY
            log.add(AnomalyKind.REVERSED_PTP, f"message {i}", detail)
            if config.strict_mode:
                raise StrictAnomalyError(f"faulty message {i}: {detail}")
        del valid, rev, cross, chk

    # --- attach messages to regions ---------------------------------------
    # A receive edge runs from the sender's region holding the send to the
    # receiver's region holding the receive; a rendezvous floor runs back
    # from the receive region to the send region.
    s_row = np.full(nmsg, -1, dtype=np.int64)
    r_row = np.full(nmsg, -1, dtype=np.int64)
    recv_i = floor_i = np.zeros(0, dtype=np.int64)
    if nmsg:
        consider = st_np == _STATUS_VALID
        rank_ok = ((snd_np >= 0) & (snd_np < P)
                   & (rcv_np >= 0) & (rcv_np < P))
        at = np.flatnonzero(consider & rank_ok)
        s_row[at] = locate_rows(table, snd_np[at], sb_np[at])
        r_row[at] = locate_rows(table, rcv_np[at], re_np[at],
                                prefer_exit=True)

        bad_rank = consider & ~rank_ok
        un_send = consider & rank_ok & (s_row < 0)
        un_recv = consider & rank_ok & (s_row >= 0) & (r_row < 0)
        for i in np.nonzero(bad_rank | un_send | un_recv)[0]:
            i = int(i)
            if bad_rank[i]:
                log.add(AnomalyKind.MALFORMED_RECORD, f"message {i}",
                        "rank out of range")
                if config.strict_mode:
                    raise StrictAnomalyError(f"message {i}: rank out of range")
            elif un_send[i]:
                log.add(AnomalyKind.UNMATCHED_SEND, f"message {i}",
                        f"send at {m_begin[i]} outside any region of "
                        f"rank {m_sender[i]}")
                if config.strict_mode:
                    raise StrictAnomalyError(f"unmatched send of message {i}")
            else:
                log.add(AnomalyKind.UNMATCHED_RECV, f"message {i}",
                        f"receive at {m_end[i]} outside any region of "
                        f"rank {m_receiver[i]}")
                if config.strict_mode:
                    raise StrictAnomalyError(
                        f"unmatched receive of message {i}")
            m_status[i] = _STATUS_FAULTY

        attached = np.flatnonzero(consider & rank_ok & (s_row >= 0)
                                  & (r_row >= 0))
        del consider, rank_ok, bad_rank, un_send, un_recv, at
        # regions of the other-MPI class never synchronize, and an edge
        # from a region to itself holds nothing back
        sg, rg = s_row[attached], r_row[attached]
        linked = sg != rg
        recv_i = attached[linked & (table.class_codes[rg] != _CODE_OTHER)]
        floor_i = attached[linked & (table.class_codes[sg] != _CODE_OTHER)
                           & (sz_np[attached] > config.eager_limit_bytes)]
        del attached, sg, rg, linked

    # --- attach collectives --------------------------------------------------
    colls = trace.collectives
    op_skip = _skipped_collectives(trace, config, log)
    part_gid = _flat(offsets[np.frombuffer(colls.part_ranks, dtype=np.int64)]
                     + np.frombuffer(colls.part_region_idx, dtype=np.int64),
                     N)

    # entry ideal of region g: the exit ideal before it plus gap[g], the
    # out-of-MPI time in between (a rank's first region: its entry time)
    gap = np.empty(N, dtype=np.int64)
    if N:
        gap[1:] = ent[1:] - ex[:-1]
        heads = offsets[:-1][offsets[1:] > offsets[:-1]]
        gap[heads] = ent[heads]
        del heads
    graph = _Graph(ranks=P, rows=N, gap=_flat(gap), senders=m_sender,
                   receivers=m_receiver, status=m_status, s_row=s_row,
                   r_row=r_row, part_off=colls.part_offsets,
                   part_rank=colls.part_ranks, part_gid=part_gid)
    del gap

    # --- sweep ---------------------------------------------------------------
    cuts = _find_cuts(table, graph, op_skip, recv_i, floor_i)
    widest = P if cuts is None else len(cuts.lanes) - 1
    waves = widest >= WIDE_WAVE_RANKS and _sums_fit(graph.gap)
    ideal_exit = None
    if cuts is not None:
        keep = cuts.keep
        ideal_exit = _sweep(graph, cuts.lanes, _flat(cuts.segs),
                            recv_i[keep[:len(recv_i)]],
                            floor_i[keep[len(recv_i):]], op_skip | cuts.occs,
                            waves, config, log, break_cycles=False)
        del keep
    if ideal_exit is None:
        # no cut, or a dependency cycle: every edge, rank by rank
        ideal_exit = _sweep(graph, _flat(offsets), bytes(len(op_skip)),
                            recv_i, floor_i, op_skip, waves, config, log,
                            break_cycles=True)
    else:
        _stitch(np.frombuffer(ideal_exit, dtype=np.int64),
                np.frombuffer(cuts.lanes, dtype=np.int64), P)
    del graph, cuts, s_row, r_row, recv_i, floor_i, part_gid, op_skip

    timeline = _assemble_timeline(table, np.frombuffer(ideal_exit,
                                                       dtype=np.int64),
                                  end_time)
    return timeline, log


class _Graph:
    """What every sweep over one trace shares: the gap before each region,
    the message columns (whose status bytes degradations write through)
    with each message's send and receive rows, and each collective
    participant's rank and region (occurrence o owns participants
    part_off[o] to part_off[o+1] - 1)."""

    __slots__ = ("ranks", "rows", "gap", "senders", "receivers", "status",
                 "s_row", "r_row", "part_off", "part_rank", "part_gid")

    def __init__(self, **columns):
        for name, values in columns.items():
            setattr(self, name, values)

    @property
    def part_g(self) -> np.ndarray:
        return np.frombuffer(self.part_gid, dtype=self.part_gid.typecode)


class _Cuts:
    """Where every rank's region sequence is cut: lane offsets (rank r's
    segment k is lane r*S + k of S per rank), the cut occurrences, the
    segment of every other occurrence, and which message edges (receive
    edges, then floors) stay within one segment."""

    __slots__ = ("lanes", "occs", "segs", "keep")

    def __init__(self, lanes: array, occs: np.ndarray, segs: np.ndarray,
                 keep: np.ndarray):
        self.lanes = lanes
        self.occs = occs
        self.segs = segs
        self.keep = keep


def _find_cuts(table: RegionTable, graph: _Graph, skip: np.ndarray,
               recv_i: np.ndarray, floor_i: np.ndarray) -> _Cuts | None:
    """Cut every rank after each live collective occurrence that all
    ranks take part in, or None when there is no such occurrence or
    cutting there would not be sound: a negative gap, ranks that meet
    the cuts in different orders, a message edge whose provider lies in
    a later segment than its consumer, or another live occurrence with
    participants in two segments."""
    P = table.rank_count
    counts = np.diff(np.frombuffer(graph.part_off, dtype=np.int64))
    occs = ~skip & (counts == P)
    K = int(occs.sum())
    if not K or (np.frombuffer(graph.gap, dtype=np.int64) < 0).any():
        return None
    # participants are distinct ranks in rank order: row r of the
    # transpose is rank r's cut rows, put in rank 0's order
    rows = graph.part_g[np.repeat(occs, counts)].reshape(K, P).T
    rows = rows[:, np.argsort(rows[0])]
    if (rows[:, 1:] <= rows[:, :-1]).any():
        return None
    S = K + 1
    lanes = np.empty(P * S + 1, dtype=np.int64)
    grid = lanes[:-1].reshape(P, S)
    grid[:, 0] = table.offsets[:-1]
    grid[:, 1:] = rows + 1
    lanes[-1] = table.row_count
    del rows, grid
    # the segment of every row, in the narrowest type that holds S
    segment = np.repeat(np.tile(np.arange(S, dtype=np.min_scalar_type(S)),
                                P), np.diff(lanes))
    prov = segment[np.concatenate((graph.s_row[recv_i],
                                   graph.r_row[floor_i]))]
    cons = segment[np.concatenate((graph.r_row[recv_i],
                                   graph.s_row[floor_i]))]
    if (prov > cons).any():
        return None
    keep = prov == cons
    del prov, cons
    other = ~skip & ~occs
    segs = np.zeros(len(skip), dtype=np.int64)
    if other.any():
        seg = segment[graph.part_g[np.repeat(other, counts)]]
        n = counts[other]
        segs[other] = seg[np.cumsum(n) - n]
        if (seg != np.repeat(segs[other], n)).any():
            return None
    return _Cuts(_flat(lanes), occs, segs, keep)


def _stitch(ideal: np.ndarray, lanes: np.ndarray, P: int) -> None:
    """Lift each segment's exit ideals, computed from 0, onto the exit
    ideal all P ranks share at the cut before it."""
    S = (len(lanes) - 1) // P
    rows = lanes[:-1].reshape(P, S)[:, 1:] - 1
    shared = np.cumsum(ideal[rows].max(axis=0))
    shift = np.concatenate(([0], shared))
    sizes = np.diff(lanes)
    for lo in range(0, len(sizes), 1 << 16):
        hi = min(lo + (1 << 16), len(sizes))
        ideal[lanes[lo]:lanes[hi]] += np.repeat(
            shift[np.arange(lo, hi) % S], sizes[lo:hi])
    ideal[rows] = shared


def _sweep(graph: _Graph, lanes: array, segs, recv_i: np.ndarray,
           floor_i: np.ndarray, skip: np.ndarray, waves: bool,
           config: ReplayConfig, log: AnomalyLog,
           break_cycles: bool) -> array | None:
    """Counted propagation over lanes, S per rank (lane l owns regions
    lanes[l] to lanes[l+1] - 1 and starts from 0), along the given
    receive edges and floors and the occurrences not in skip; occurrence
    o lies in segment segs[o], so rank r takes part in lane r*S +
    segs[o].  Returns the exit ideals, or None when the sweep stalls and
    break_cycles is off; cycles are broken only when lanes are ranks."""
    N = graph.rows
    L = len(lanes) - 1
    S = L // graph.ranks if graph.ranks else 1
    gap = graph.gap
    m_sender, m_receiver = graph.senders, graph.receivers
    m_status = graph.status
    s_row, r_row = graph.s_row, graph.r_row
    part_off, part_rank = graph.part_off, graph.part_rank
    part_gid = graph.part_gid
    part_counts = np.diff(np.frombuffer(part_off, dtype=np.int64))

    # --- triggers ------------------------------------------------------------
    # One CSR over providers (global region ids): the triggers of region g
    # are the slice [trig_off[g], trig_off[g+1]).  A message trigger holds
    # the message index and its consumer region; a collective arrival
    # holds ~occurrence.  Each region counts its unfired edges, plus one
    # while its collective occurrence has not delivered.
    live = np.flatnonzero(~skip)
    part_g = graph.part_g[np.repeat(~skip, part_counts)]
    prov = np.concatenate((s_row[recv_i], r_row[floor_i], part_g))
    order = np.argsort(prov, kind="stable")
    prov += 1
    at = np.bincount(prov, minlength=N + 1)
    del prov
    trig_off = _flat(np.cumsum(at, out=at), len(order) + 1)
    del at
    ids = np.concatenate((recv_i, floor_i,
                          ~np.repeat(live, part_counts[live])))[order]
    trig_id = _flat(ids, max(len(m_sender), len(skip)))
    del ids
    cons = np.concatenate((r_row[recv_i], s_row[floor_i],
                           np.zeros(len(part_g), dtype=np.int64)))
    counts = np.bincount(cons[:len(recv_i) + len(floor_i)], minlength=N)
    counts += np.bincount(part_g, minlength=N)
    trig_cons = _flat(cons[order], N)
    del cons, order, part_g, live
    count = _flat(counts, len(trig_id) + 1)
    del counts

    # exit ideals; until a region is finalized, the maximum value that has
    # arrived for it through messages and its collective
    ideal_exit = _flat(np.full(N, _NONE, dtype=np.int64))
    left = _flat(part_counts)             # participants yet to arrive
    op_max = _flat(np.full(len(skip), _NONE, dtype=np.int64))
    op_skip = bytearray(skip.tobytes())

    # lane l: regions first[l] to first[l+1]-1; the scalar loop reads a
    # list faster, an array holds many lanes in 8 bytes each
    first = lanes.tolist() if len(lanes) <= 1 << 12 else lanes
    lanes = np.frombuffer(lanes, dtype=np.int64)
    front = _flat(lanes[:-1], N + 1)  # per lane: its frontier's region id
    ready: deque[int] = deque()
    queued = bytearray(L)

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
            v = op_max[o]
            seg = segs[o]
            for j in range(part_off[o], part_off[o + 1]):
                c = part_gid[j]
                if v > ideal_exit[c]:
                    ideal_exit[c] = v
                n = count[c] - 1
                count[c] = n
                if not n:
                    r = part_rank[j] * S + seg
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
            ti = np.frombuffer(trig_id, dtype=trig_id.typecode)
            tc = np.frombuffer(trig_cons, dtype=trig_cons.typecode
                               ).astype(np.int64)
            msg = ti >= 0
            mi = ti[msg]
            key = 2 * tc[msg] + (tc[msg] != r_row[mi])
            order = np.lexsort((mi, key))
            view.extend((key[order], mi[order]))
        key, mi = view
        lo, mid, hi = np.searchsorted(key, (2 * g, 2 * g + 1, 2 * g + 2))
        return mi[lo:mid].tolist(), mi[mid:hi].tolist()

    def occurrence_at(g: int) -> int:
        """The collective occurrence region g takes part in, or -1."""
        if not coll_of:
            at = np.full(N, -1, dtype=np.int64)
            at[graph.part_g] = np.repeat(
                np.arange(len(skip), dtype=np.int64), part_counts)
            coll_of.append(at)
        return int(coll_of[0][g])

    def ptr(r: int) -> int:
        return front[r] - first[r]

    def entry_ideal(r: int, g: int) -> int:
        return gap[g] + (ideal_exit[g - 1] if g != first[r] else 0)

    def first_unmet(r: int) -> tuple[int, int] | None:
        """A dependency rank r's frontier waits on, as (rank, region)."""
        recv, floor = edges_into(front[r])
        for i in recv:
            s = m_sender[i]
            if not m_status[i] and front[s] < s_row[i]:
                return s, int(s_row[i]) - first[s]
        for i in floor:
            q = m_receiver[i]
            if not m_status[i] and front[q] < r_row[i]:
                return q, int(r_row[i]) - first[q]
        o = occurrence_at(front[r])
        if o >= 0 and not op_skip[o] and left[o]:
            for j in range(part_off[o], part_off[o + 1]):
                pr = part_rank[j]
                if front[pr] < part_gid[j]:
                    return pr, part_gid[j] - first[pr]
        return None

    def refill(g: int) -> None:
        """Recompute region g's arrived maximum without degraded edges."""
        v = _NONE
        recv, floor = edges_into(g)
        for i in recv:
            s = m_sender[i]
            if not m_status[i] and front[s] >= s_row[i]:
                v = max(v, entry_ideal(s, int(s_row[i])))
        for i in floor:
            q = m_receiver[i]
            if not m_status[i] and front[q] >= r_row[i]:
                v = max(v, entry_ideal(q, int(r_row[i])))
        o = occurrence_at(g)
        if o >= 0 and not op_skip[o] and not left[o]:
            v = max(v, op_max[o])
        ideal_exit[g] = v

    def degrade(i: int) -> None:
        """Drop both edges of message i: an unfired edge releases its
        consumer's count, a fired one is taken back out of its maximum."""
        m_status[i] = _STATUS_FAULTY
        s, sg = m_sender[i], int(s_row[i])
        r, rg = m_receiver[i], int(r_row[i])
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
        succ: dict[int, int] = {}
        for r in blocked:
            dep_ = first_unmet(r)
            if dep_ is None:
                # a degradation elsewhere already unblocked this rank
                return
            succ[r] = dep_[0]
        cur = min(blocked)
        order: dict[int, int] = {}
        path: list[int] = []
        while cur not in order:
            order[cur] = len(path)
            path.append(cur)
            cur = succ[cur]
        cycle = path[order[cur]:]
        cycle_set = set(cycle)
        if config.strict_mode:
            raise DependencyCycleError([(r, ptr(r)) for r in cycle])

        degraded = False
        for r in sorted(cycle_set):
            k = ptr(r)
            recv, floor = edges_into(front[r])
            for i in recv:
                if not m_status[i] and m_sender[i] in cycle_set \
                        and front[m_sender[i]] < s_row[i]:
                    degrade(i)
                    log.add(AnomalyKind.REVERSED_PTP, f"rank {r} region {k}",
                            "message on a dependency cycle")
                    degraded = True
            for i in floor:
                if not m_status[i] and m_receiver[i] in cycle_set \
                        and front[m_receiver[i]] < r_row[i]:
                    degrade(i)
                    log.add(AnomalyKind.REVERSED_PTP, f"rank {r} region {k}",
                            "rendezvous floor on a dependency cycle")
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
    # A batch of at least `wide` ready lanes advances as numpy waves of at
    # most about _WAVE_LANES lanes each; narrower batches take the scalar
    # loop below, in queue order.
    wide = WIDE_WAVE_RANKS if waves else L + 1
    views = _SweepViews(front=front, queued=queued, count=count,
                        ideal=ideal_exit, gap=gap, trig_off=trig_off,
                        trig_id=trig_id, trig_cons=trig_cons,
                        status=m_status, op_skip=op_skip, op_max=op_max,
                        left=left, part_off=part_off, part_gid=part_gid)

    def advance(batch: np.ndarray) -> None:
        """Run waves while the batch is wide; queue what is left."""
        while len(batch) >= wide:
            parts = -(-len(batch) // _WAVE_LANES)
            batch = _wave(batch, views, lanes) if parts == 1 else \
                np.concatenate([_wave(part, views, lanes)
                                for part in np.array_split(batch, parts)])
        views.queued[batch] = 1
        ready.extend(batch.tolist())

    # every lane's first region has its entry ideal, gap[head], from the
    # start: fire all heads, then every lane whose head waits on nothing
    # is ready
    heads = lanes[:-1]
    busy = lanes[1:] > heads
    for lo in range(0, L, _WAVE_LANES):
        at = heads[lo:lo + _WAVE_LANES][busy[lo:lo + _WAVE_LANES]]
        _fire(at, views.gap[at], views, lanes)
    batch = []
    for lo in range(0, L, _WAVE_LANES):
        at = lo + np.flatnonzero(busy[lo:lo + _WAVE_LANES])
        batch.append(at[views.count[heads[at]] == 0])
    del heads, busy
    advance(np.concatenate(batch) if batch else np.zeros(0, np.int64))
    del batch
    while True:
        while ready:
            if len(ready) >= wide:
                batch = np.fromiter(ready, np.int64, len(ready))
                ready.clear()
                views.queued[batch] = 0
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
                    v = ideal_exit[g]
                    if e > v:
                        v = e
                        ideal_exit[g] = v
                    g += 1
                    if g == end:
                        break
                    e = v + gap[g]
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
        blocked = np.flatnonzero(views.front < lanes[1:])
        if not len(blocked):
            return ideal_exit
        if not break_cycles:
            return None
        break_cycle(blocked.tolist())


class _SweepViews:
    """Writable numpy views of the sweep's flat arrays, for the waves and
    the first firing of lane heads.  A view keeps its array alive, so
    these go together with the arrays."""

    def __init__(self, **arrays):
        for name, values in arrays.items():
            setattr(self, name, np.frombuffer(
                values, dtype=getattr(values, "typecode", "B")))


def _sums_fit(gap: array) -> bool:
    """Whether every value a wave forms fits in int64.  Each clock value
    is a sum of gaps of distinct regions, and a wave also subtracts
    partial gap sums from clock values, so a total |gap| below 2**61
    bounds them all.  It is summed in float64, in small blocks."""
    values = np.frombuffer(gap, dtype=np.int64)
    total = 0.0
    for i in range(0, len(values), 1 << 14):
        total += float(np.abs(values[i:i + (1 << 14)],
                              dtype=np.float64).sum())
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


def _wave(batch: np.ndarray, v: _SweepViews,
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
    longest = int(size.max())
    prev = v.ideal[s - 1]
    prev[s == offsets[batch]] = 0         # a lane's first region
    if longest == 1:
        g = s
        x = np.maximum(v.ideal[s], prev + v.gap[s])
    else:
        # with C the running gap sum of a run, X - C is a running maximum
        # of arrived - C seeded with the exit ideal before the run
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


def _fire(reached: np.ndarray, e: np.ndarray, v: _SweepViews,
          offsets: np.ndarray) -> np.ndarray:
    """Fire the triggers of the regions reached, whose entry ideals are e,
    as the scalar fire does (degraded messages and skipped occurrences
    ignored, each completed occurrence delivering to all its
    participants); returns the lanes whose frontier is left with count
    0, among those it waited for."""
    lo = v.trig_off[reached]
    n = v.trig_off[reached + 1] - lo
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


def _skipped_collectives(trace: Trace, config: ReplayConfig,
                         log: AnomalyLog) -> np.ndarray:
    """Which collective occurrences do not synchronize: those on an
    undefined communicator, or whose participant ranks differ from the
    members.  Each is logged in occurrence order (strict mode raises on
    the first)."""
    colls = trace.collectives
    cid = np.frombuffer(colls.comm_ids, dtype=np.int64)
    counts = np.diff(np.frombuffer(colls.part_offsets, dtype=np.int64))
    prank = np.frombuffer(colls.part_ranks, dtype=np.int64)
    nops = len(cid)

    # participants are distinct ranks in rank order, so they match the
    # membership iff they equal its sorted distinct members
    bad = np.ones(nops, dtype=bool)
    for c in distinct(cid).tolist():
        comm = trace.communicators.get(c)
        if comm is None:
            continue
        members = distinct(comm.members)
        fit = (cid == c) & (counts == len(members))
        if fit.any():
            ranks = prank[np.repeat(fit, counts)].reshape(-1, len(members))
            bad[np.flatnonzero(fit)[(ranks == members).all(axis=1)]] = False
    for i in np.flatnonzero(bad):
        where = f"collective comm={cid[i]} occ={colls.occ_indices[i]}"
        if config.strict_mode:
            raise StrictAnomalyError(f"{where}: participant mismatch")
        log.add(AnomalyKind.MALFORMED_RECORD, where,
                "participants do not match communicator membership; "
                "synchronization skipped")
    return bad


def _assemble_timeline(table: RegionTable, ideal_exit: np.ndarray,
                       end_time: int) -> AnnotatedTimeline:
    """Every rank's clock points, built for all ranks at once in one
    rank-major column per clock and cut into per-rank views.

    Rank r's points: the start sentinel 0, an entry and an exit point per
    region, and the end sentinel when the trace ends after its last exit.
    oom and ideal advance by the out-of-MPI gap before each entry; an exit
    carries the finalized ideal and the unchanged oom.  Points at equal
    timestamps collapse onto the last one written: a point is dropped when
    the next point of its rank has its time.
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
    exit_at = (entry_at + keep_entry)[keep_exit]
    entry_at = entry_at[keep_entry]
    sentinel = stop[extra] - 1
    after = end_time - last[extra]  # from the last exit to the end

    def column(entry_values, exit_values, end_values) -> np.ndarray:
        out = np.zeros(int(stop[-1]) if P else 0, dtype=np.int64)
        out[entry_at] = entry_values[keep_entry]
        out[exit_at] = exit_values[keep_exit]
        out[sentinel] = end_values
        return out

    times = column(ent, ex, end_time)
    gap = np.empty(len(ent), dtype=np.int64)
    gap[1:] = ent[1:] - ex[:-1]
    gap[head] = ent[head]
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
    bounds = [0] + stop.tolist()
    ranks = [RankTimeline(r, times[a:b], oom[a:b], ideal[a:b])
             for r, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    return AnnotatedTimeline(ranks, end_time, offsets, (ent, ex))
