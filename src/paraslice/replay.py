"""Clock reconstruction by replaying MPI ordering constraints.

Every rank carries three non-decreasing nanosecond clocks fixed at each
region entry and exit: elapsed (physical time), out-of-MPI time, and the
ideal-network clock.  Out-of-MPI gaps advance all three by the gap length;
an MPI region advances only elapsed, and its exit ideal is raised by a
compare-and-swap against the values arriving through messages and
collectives.

The replay is counted dependency propagation (Kahn's algorithm) over the
per-rank region sequences.  Each region counts the edges it waits on:
receive edges, rendezvous floors, and one for its collective occurrence.
When a rank's frontier reaches a region, that region's entry ideal is
known and its triggers fire once each: a message edge max-accumulates
the value into its consumer and decrements the consumer's count; a
collective arrival does the same into its occurrence, and the last
arrival delivers the occurrence's maximum to every participant.  A rank
runs while the count at its frontier is zero.  Dependency cycles in
corrupt traces are broken by degrading the offending edges (or abort in
strict mode).

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
    part_counts = np.diff(np.frombuffer(colls.part_offsets, dtype=np.int64))
    part_op = np.repeat(np.arange(len(op_skip), dtype=np.int64), part_counts)
    part_g = (offsets[np.frombuffer(colls.part_ranks, dtype=np.int64)]
              + np.frombuffer(colls.part_region_idx, dtype=np.int64))
    live = ~op_skip[part_op]

    # --- triggers ------------------------------------------------------------
    # One CSR over providers (global region ids): the triggers of region g
    # are the slice [trig_off[g], trig_off[g+1]).  A message trigger holds
    # the message index and its consumer region; a collective arrival
    # holds ~occurrence.  Each region counts its unfired edges, plus one
    # while its collective occurrence has not delivered.
    prov = np.concatenate((s_row[recv_i], r_row[floor_i], part_g[live]))
    order = np.argsort(prov, kind="stable")
    trig_off = _flat(np.searchsorted(prov[order], np.arange(N + 1)),
                     len(prov) + 1)
    del prov
    ids = np.concatenate((recv_i, floor_i, ~part_op[live]))[order]
    trig_id = _flat(ids, max(nmsg, len(op_skip)))
    del ids
    cons = np.concatenate((r_row[recv_i], s_row[floor_i],
                           np.zeros(int(live.sum()), dtype=np.int64)))
    counts = (np.bincount(cons[:len(recv_i) + len(floor_i)], minlength=N)
              + np.bincount(part_g[live], minlength=N))
    trig_cons = _flat(cons[order], N)
    del cons, order, recv_i, floor_i
    count = _flat(counts, len(trig_id) + 1)
    del counts, live

    # exit ideals; until a region is finalized, the maximum value that has
    # arrived for it through messages and its collective
    ideal_exit = _flat(np.full(N, _NONE, dtype=np.int64))
    left = _flat(part_counts)             # participants yet to arrive
    op_max = _flat(np.full(len(op_skip), _NONE, dtype=np.int64))
    op_skip = bytearray(op_skip.tobytes())
    part_off = colls.part_offsets
    part_rank = colls.part_ranks
    part_gid = _flat(part_g, N)
    del part_op, part_g, part_counts

    # entry ideal of region g: the exit ideal before it plus gap[g], the
    # out-of-MPI time in between (a rank's first region: its entry time)
    gap = np.empty(N, dtype=np.int64)
    if N:
        gap[1:] = ent[1:] - ex[:-1]
        heads = offsets[:-1][offsets[1:] > offsets[:-1]]
        gap[heads] = ent[heads]
        del heads
    gap = _flat(gap)

    first = offsets[:-1].tolist()
    stop = offsets[1:].tolist()
    front = list(first)          # per rank: the global id of its frontier
    ready: deque[int] = deque()
    queued = bytearray(P)

    def release(r: int, g: int) -> None:
        """One edge of region g of rank r has fired or been dropped."""
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
            for j in range(part_off[o], part_off[o + 1]):
                c = part_gid[j]
                if v > ideal_exit[c]:
                    ideal_exit[c] = v
                n = count[c] - 1
                count[c] = n
                if not n:
                    r = part_rank[j]
                    if not queued[r]:
                        queued[r] = 1
                        ready.append(r)

    # --- cycle breaking (rare; corrupt traces only) --------------------------
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
            at[np.frombuffer(part_gid, dtype=part_gid.typecode)] = np.repeat(
                np.arange(len(op_skip), dtype=np.int64),
                np.diff(np.frombuffer(part_off, dtype=np.int64)))
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
    for r in range(P):
        g = first[r]
        if g < stop[r]:
            fire(trig_off[g], trig_off[g + 1], gap[g])
            if not count[g] and not queued[r]:
                queued[r] = 1
                ready.append(r)
    while True:
        while ready:
            # finalize rank r's regions from its frontier until one waits
            r = ready.popleft()
            g = front[r]
            end = stop[r]
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
                    front[r] = g
                    fire(lo, hi, e)
                    lo = hi
                if count[g]:
                    break
            front[r] = g
            queued[r] = 0
        blocked = [r for r in range(P) if front[r] < stop[r]]
        if not blocked:
            break
        break_cycle(blocked)
    # the timeline needs only the exit ideals
    del trig_off, trig_id, trig_cons, count, gap, view, coll_of

    timeline = _assemble_timeline(table, np.frombuffer(ideal_exit,
                                                       dtype=np.int64),
                                  end_time)
    return timeline, log


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
