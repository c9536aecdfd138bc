"""Clock reconstruction by replaying MPI ordering constraints.

Every rank carries three non-decreasing nanosecond clocks fixed at each
region entry and exit: elapsed (physical time), out-of-MPI time, and the
ideal-network clock.  Out-of-MPI gaps advance all three by the gap length;
an MPI region advances only elapsed, and its exit ideal is raised by a
compare-and-swap against the values arriving through messages and
collectives.  The replay itself is a topological worklist over the
per-rank region sequences; dependency cycles in corrupt traces are broken
by degrading the offending edges (or abort in strict mode).

Internally everything lives in flat arrays — message columns, per-region
sync lists in offset/payload (CSR) form, collective participant slices —
because multi-million-event traces cannot afford per-edge objects.
"""

from __future__ import annotations

import heapq
from array import array
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
    Trace,
    WORLD_COMM_ID,
    locate_regions,
)

DEFAULT_EAGER_LIMIT = 65536

_CODE_OTHER = CLASS_CODES[CallClass.OTHER_MPI]
_STATUS_VALID = STATUS_CODES[MessageStatus.VALID]
_STATUS_FAULTY = STATUS_CODES[MessageStatus.FAULTY_LOCAL]


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
    clocks are stored.  event_times lists the uncollapsed MPI region
    entries and exits for window planning.
    """

    __slots__ = ("rank", "times", "oom", "ideal", "event_times")

    def __init__(self, rank: int, times: np.ndarray, oom: np.ndarray,
                 ideal: np.ndarray, event_times: np.ndarray):
        self.rank = rank
        self.times = times
        self.oom = oom
        self.ideal = ideal
        self.event_times = event_times

    @classmethod
    def from_points(cls, rank: int, points: list[tuple[int, int, int]],
                    event_times: list[int] | None = None) -> "RankTimeline":
        arr = np.asarray(points, dtype=np.int64).reshape(-1, 3)
        return cls(rank, arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy(),
                   np.asarray(event_times or [], dtype=np.int64))

    def __len__(self) -> int:
        return len(self.times)

    def point(self, i: int) -> ClockTriple:
        return ClockTriple(int(self.times[i]), int(self.oom[i]),
                           int(self.ideal[i]))

    def final(self) -> ClockTriple:
        return self.point(len(self.times) - 1)


class AnnotatedTimeline:
    """Replay output: one RankTimeline per rank plus the shared end time."""

    def __init__(self, ranks: list[RankTimeline], total_duration: int):
        self.ranks = ranks
        self.total_duration = total_duration

    @property
    def rank_count(self) -> int:
        return len(self.ranks)

    def final_triples(self) -> list[ClockTriple]:
        return [r.final() for r in self.ranks]


class WorldCollectiveIndex:
    """Per-rank view of world-communicator collectives for causality checks.

    For each rank that takes part in a world collective: its entry times
    and occurrence indices in occurrence order, and the suffix minima of
    its exit times, aligned with the occurrences.
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
        rank = rank[order]
        occ = occ[order]
        entry = np.frombuffer(colls.part_entries, dtype=np.int64)[world][order]
        exit_ = np.frombuffer(colls.part_exits, dtype=np.int64)[world][order]
        # each rank's rows run from one bound to the next
        bounds = np.flatnonzero(np.diff(rank, prepend=-1, append=-1)).tolist()
        self.entries: dict[int, np.ndarray] = {}
        self.occs: dict[int, np.ndarray] = {}
        self.suffix_min_exit: dict[int, np.ndarray] = {}
        for lo, hi in zip(bounds, bounds[1:]):
            r = int(rank[lo])
            self.entries[r] = entry[lo:hi]
            self.occs[r] = occ[lo:hi]
            self.suffix_min_exit[r] = \
                np.minimum.accumulate(exit_[lo:hi][::-1])[::-1]

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
        if not self.entries:
            return out
        base = np.arange(len(snd))
        for receiver in np.unique(rcv):
            rent = self.entries.get(int(receiver))
            if rent is None:
                continue
            rocc = self.occs[int(receiver)]
            rsel = base[rcv == receiver]
            i = np.searchsorted(rent, re_[rsel], side="right")
            has = i < len(rent)
            rsel = rsel[has]
            if not len(rsel):
                continue
            occ = rocc[i[has]]
            sgroup = snd[rsel]
            for sender in np.unique(sgroup):
                socc = self.occs.get(int(sender))
                if socc is None:
                    continue
                ssuf = self.suffix_min_exit[int(sender)]
                pick = sgroup == sender
                ssel = rsel[pick]
                j = np.searchsorted(socc, occ[pick], side="left")
                ok = j < len(socc)
                sel_ok = ssel[ok]
                hit = ssuf[j[ok]] < sb[sel_ok]
                out[sel_ok[hit]] = True
        return out


# bitmask flags marking regions that carry synchronization work
_HAS_RECV = 1
_HAS_FLOOR = 2
_HAS_COLL = 4


def replay(trace: Trace, config: ReplayConfig | None = None,
           ) -> tuple[AnnotatedTimeline, AnomalyLog]:
    """Reconstruct every rank's clocks.  Deterministic for a given input.

    Faulty matches are degraded first (reversed pairs and world-collective
    crossings), messages are attached to the regions containing their
    endpoints, then a worklist finalizes region exits in dependency order.
    In strict mode any degradation or cycle aborts instead.
    """
    config = config or ReplayConfig()
    log = AnomalyLog()
    meta = trace.meta
    P = meta.rank_count

    entries = [regs.entry_times for regs in trace.regions]
    exits = [regs.exit_times for regs in trace.regions]
    nreg = [len(regs) for regs in trace.regions]
    ent_np = [np.frombuffer(e, dtype=np.int64) for e in entries]
    ex_np = [np.frombuffer(x, dtype=np.int64) for x in exits]

    end_time = meta.total_duration_ns
    for r in range(P):
        if nreg[r]:
            end_time = max(end_time, exits[r][-1])

    msgs = trace.messages
    nmsg = len(msgs)
    m_sender = msgs.senders
    m_receiver = msgs.receivers
    m_begin = msgs.send_begins
    m_end = msgs.recv_ends
    m_status = msgs.status_codes     # degradations write through

    # --- degrade faulty matches --------------------------------------------
    if nmsg:
        snd_np = np.frombuffer(m_sender, dtype=np.int64)
        rcv_np = np.frombuffer(m_receiver, dtype=np.int64)
        sb_np = np.frombuffer(m_begin, dtype=np.int64)
        re_np = np.frombuffer(m_end, dtype=np.int64)
        sz_np = np.frombuffer(msgs.sizes, dtype=np.int64)
        st_np = np.frombuffer(m_status, dtype=np.uint8)

        world_index = WorldCollectiveIndex(trace)
        valid = st_np == _STATUS_VALID
        rev = valid & (sb_np > re_np)
        cross = np.zeros(nmsg, dtype=bool)
        chk = np.nonzero(valid & ~rev)[0]
        if len(chk) and world_index.entries:
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

    # --- attach messages to regions (CSR layout) ----------------------------
    # Per rank: dep bits per region, and for each region the contiguous
    # slice [off[k], off[k+1]) of attached message indices.  A receive
    # depends on the sender's region holding the send; a rendezvous floor
    # depends on the receiver's region holding the receive.
    dep = [np.zeros(nreg[r], dtype=np.uint8) for r in range(P)]
    recv_off: list = [None] * P
    recv_msg: list = [None] * P
    floor_off: list = [None] * P
    floor_msg: list = [None] * P
    sks = array("q")
    rks = array("q")
    if nmsg:
        consider = st_np == _STATUS_VALID
        rank_ok = ((snd_np >= 0) & (snd_np < P)
                   & (rcv_np >= 0) & (rcv_np < P))
        sk = np.full(nmsg, -1, dtype=np.int64)
        rk = np.full(nmsg, -1, dtype=np.int64)
        for r in range(P):
            smask = consider & rank_ok & (snd_np == r)
            if smask.any():
                sk[smask] = locate_regions(ent_np[r], ex_np[r], sb_np[smask])
            rmask = consider & rank_ok & (rcv_np == r)
            if rmask.any():
                rk[rmask] = locate_regions(ent_np[r], ex_np[r], re_np[rmask],
                                           prefer_exit=True)

        bad_rank = consider & ~rank_ok
        un_send = consider & rank_ok & (sk < 0)
        un_recv = consider & rank_ok & (sk >= 0) & (rk < 0)
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

        attached = consider & rank_ok & (sk >= 0) & (rk >= 0)
        a_recv = np.zeros(nmsg, dtype=bool)
        a_floor = np.zeros(nmsg, dtype=bool)
        over_eager = sz_np > config.eager_limit_bytes
        for r in range(P):
            kl = np.frombuffer(trace.regions[r].class_codes, dtype=np.uint8)
            mask = attached & (rcv_np == r)
            if mask.any():
                # regions of the other-MPI class never synchronize
                a_recv[mask] = kl[rk[mask]] != _CODE_OTHER
            mask = attached & over_eager & (snd_np == r)
            if mask.any():
                a_floor[mask] = kl[sk[mask]] != _CODE_OTHER

        sks.frombytes(sk.tobytes())
        rks.frombytes(rk.tobytes())

        def _build_csr(sel: np.ndarray, owner: np.ndarray, region: np.ndarray,
                       flag: int, off_out: list, msg_out: list) -> None:
            midx = np.nonzero(sel)[0]
            if not len(midx):
                return
            owners = owner[midx]
            regions_k = region[midx]
            for r in range(P):
                pick = owners == r
                if not pick.any():
                    continue
                kv = regions_k[pick]
                mi = midx[pick]
                dep[r][kv] |= flag
                order = np.argsort(kv, kind="stable")
                lst = array("q")
                lst.frombytes(mi[order].tobytes())
                msg_out[r] = lst
                off = np.zeros(nreg[r] + 1, dtype=np.int64)
                np.cumsum(np.bincount(kv, minlength=nreg[r]), out=off[1:])
                o = array("q")
                o.frombytes(off.tobytes())
                off_out[r] = o

        _build_csr(a_recv, rcv_np, rk, _HAS_RECV, recv_off, recv_msg)
        _build_csr(a_floor, snd_np, sk, _HAS_FLOOR, floor_off, floor_msg)
        del consider, rank_ok, sk, rk, bad_rank, un_send, un_recv
        del attached, a_recv, a_floor, over_eager

    # --- attach collectives --------------------------------------------------
    # Each occurrence is one flat participant slice [op_poff[o],
    # op_poff[o+1]) over (rank, region index) columns, with a lazily
    # computed shared exit value; occurrences whose participants do not
    # match their communicator are skipped.
    coll_at = [np.zeros(nreg[r], dtype=np.int64) for r in range(P)]
    op_poff, op_prank, op_pidx, op_value, op_skip = _attach_collectives(
        trace, config, log, coll_at, dep)

    dep_mask = [bytearray(d.tobytes()) for d in dep]
    del dep

    # --- worklist sweep ------------------------------------------------------
    # flat int64 storage: finalized exits are write-once scalars, and the
    # boxed-int churn of a list would dominate memory on large traces
    ideal_exit: list[array] = [array("q", bytes(8 * nreg[r]))
                               for r in range(P)]
    ptr = [0] * P

    def entry_ideal(r: int, k: int) -> int:
        if k == 0:
            return entries[r][0]
        return ideal_exit[r][k - 1] + entries[r][k] - exits[r][k - 1]

    def first_unmet(r: int, k: int) -> tuple[int, int] | None:
        mask = dep_mask[r][k]
        if mask & _HAS_RECV:
            off = recv_off[r]
            lst = recv_msg[r]
            for j in range(off[k], off[k + 1]):
                i = lst[j]
                if not m_status[i]:
                    s = m_sender[i]
                    sidx = sks[i]
                    if (s != r or sidx != k) and ptr[s] < sidx:
                        return s, sidx
        if mask & _HAS_FLOOR:
            off = floor_off[r]
            lst = floor_msg[r]
            for j in range(off[k], off[k + 1]):
                i = lst[j]
                if not m_status[i]:
                    rr = m_receiver[i]
                    ridx = rks[i]
                    if (rr != r or ridx != k) and ptr[rr] < ridx:
                        return rr, ridx
        if mask & _HAS_COLL:
            opi = coll_at[r][k]
            if not op_skip[opi] and op_value[opi] < 0:
                for j in range(op_poff[opi], op_poff[opi + 1]):
                    pr = op_prank[j]
                    if ptr[pr] < op_pidx[j]:
                        return pr, op_pidx[j]
        return None

    def finalize_value(r: int, k: int) -> int:
        v = entry_ideal(r, k)
        mask = dep_mask[r][k]
        if mask & _HAS_RECV:
            off = recv_off[r]
            lst = recv_msg[r]
            for j in range(off[k], off[k + 1]):
                i = lst[j]
                if not m_status[i]:
                    sv = entry_ideal(m_sender[i], sks[i])
                    if sv > v:
                        v = sv
        if mask & _HAS_FLOOR:
            off = floor_off[r]
            lst = floor_msg[r]
            for j in range(off[k], off[k + 1]):
                i = lst[j]
                if not m_status[i]:
                    rv = entry_ideal(m_receiver[i], rks[i])
                    if rv > v:
                        v = rv
        if mask & _HAS_COLL:
            opi = coll_at[r][k]
            if not op_skip[opi]:
                if op_value[opi] < 0:
                    best = -1
                    for j in range(op_poff[opi], op_poff[opi + 1]):
                        pv = entry_ideal(op_prank[j], op_pidx[j])
                        if pv > best:
                            best = pv
                    op_value[opi] = best
                if op_value[opi] > v:
                    v = op_value[opi]
        return v

    def break_cycle(blocked: list[int]) -> None:
        """Find one dependency cycle among the blocked frontiers, cut it."""
        succ: dict[int, int] = {}
        for r in blocked:
            dep_ = first_unmet(r, ptr[r])
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
            raise DependencyCycleError([(r, ptr[r]) for r in cycle])

        degraded = False
        for r in sorted(cycle_set):
            k = ptr[r]
            mask = dep_mask[r][k]
            if mask & _HAS_RECV:
                off = recv_off[r]
                lst = recv_msg[r]
                for j in range(off[k], off[k + 1]):
                    i = lst[j]
                    if not m_status[i] and m_sender[i] in cycle_set \
                            and ptr[m_sender[i]] < sks[i]:
                        m_status[i] = _STATUS_FAULTY
                        log.add(AnomalyKind.REVERSED_PTP,
                                f"rank {r} region {k}",
                                "message on a dependency cycle")
                        degraded = True
            if mask & _HAS_FLOOR:
                off = floor_off[r]
                lst = floor_msg[r]
                for j in range(off[k], off[k + 1]):
                    i = lst[j]
                    if not m_status[i] and m_receiver[i] in cycle_set \
                            and ptr[m_receiver[i]] < rks[i]:
                        m_status[i] = _STATUS_FAULTY
                        log.add(AnomalyKind.REVERSED_PTP,
                                f"rank {r} region {k}",
                                "rendezvous floor on a dependency cycle")
                        degraded = True
        if not degraded:
            # held together by collectives alone: drop their synchronization
            for r in sorted(cycle_set):
                k = ptr[r]
                if dep_mask[r][k] & _HAS_COLL:
                    opi = coll_at[r][k]
                    if not op_skip[opi]:
                        op_skip[opi] = 1
                        log.add(AnomalyKind.MALFORMED_RECORD,
                                f"rank {r} region {k}",
                                "collective on a dependency cycle; "
                                "synchronization skipped")
                        degraded = True
        if not degraded:
            # should be unreachable: a cycle always has a breakable edge
            raise ReplayError("unbreakable dependency cycle")

    ready: deque[int] = deque(r for r in range(P) if nreg[r])
    in_queue = [nreg[r] > 0 for r in range(P)]
    waiters: list[list[tuple[int, int]]] = [[] for _ in range(P)]

    def wake(provider: int) -> None:
        w = waiters[provider]
        while w and w[0][0] <= ptr[provider]:
            _, wr = heapq.heappop(w)
            if not in_queue[wr]:
                in_queue[wr] = True
                ready.append(wr)

    while True:
        while ready:
            r = ready.popleft()
            in_queue[r] = False
            n = nreg[r]
            dm = dep_mask[r]
            ie = ideal_exit[r]
            en = entries[r]
            ex = exits[r]
            wl = waiters[r]
            while ptr[r] < n:
                k = ptr[r]
                if dm[k]:
                    dep_ = first_unmet(r, k)
                    if dep_ is not None:
                        heapq.heappush(waiters[dep_[0]], (dep_[1], r))
                        break
                    ie[k] = finalize_value(r, k)
                elif k:
                    ie[k] = ie[k - 1] + en[k] - ex[k - 1]
                else:
                    ie[0] = en[0]
                ptr[r] = k + 1
                if wl:
                    wake(r)
        blocked = [r for r in range(P) if ptr[r] < nreg[r]]
        if not blocked:
            break
        break_cycle(blocked)
        for r in blocked:
            if not in_queue[r]:
                in_queue[r] = True
                ready.append(r)

    timeline = _assemble_timeline(trace, ent_np, ex_np, ideal_exit, end_time)
    return timeline, log


def _attach_collectives(trace: Trace, config: ReplayConfig, log: AnomalyLog,
                        coll_at: list, dep: list) -> tuple:
    """Attach each collective occurrence to the regions it was grouped
    from.  An occurrence on an undefined communicator, or whose
    participant ranks differ from the members, is logged in occurrence
    order and marked to skip (strict mode raises on the first)."""
    colls = trace.collectives
    cid = np.frombuffer(colls.comm_ids, dtype=np.int64)
    counts = np.diff(np.frombuffer(colls.part_offsets, dtype=np.int64))
    prank = np.frombuffer(colls.part_ranks, dtype=np.int64)
    pidx = np.frombuffer(colls.part_region_idx, dtype=np.int64)
    nops = len(cid)

    # participants are distinct ranks in rank order, so they match the
    # membership iff they equal its sorted distinct members
    bad = np.ones(nops, dtype=bool)
    for c in np.unique(cid):
        comm = trace.communicators.get(int(c))
        if comm is None:
            continue
        members = np.unique(np.asarray(comm.members, dtype=np.int64))
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

    # participant rows grouped by rank
    rows = np.argsort(prank, kind="stable")
    opi = np.repeat(np.arange(nops, dtype=np.int64), counts)
    bounds = np.searchsorted(prank[rows], np.arange(len(coll_at) + 1))
    for r in range(len(coll_at)):
        at = rows[bounds[r]:bounds[r + 1]]
        kv = pidx[at]
        coll_at[r][kv] = opi[at]
        dep[r][kv] |= _HAS_COLL
    op_value = array("q")
    op_value.frombytes(np.full(nops, -1, dtype=np.int64).tobytes())
    return (colls.part_offsets, colls.part_ranks, colls.part_region_idx,
            op_value, bytearray(bad.tobytes()))


def _assemble_timeline(trace: Trace, ent_np, ex_np, ideal_exit,
                       end_time: int) -> AnnotatedTimeline:
    ranks: list[RankTimeline] = []
    for r in range(trace.meta.rank_count):
        en = ent_np[r]
        ex = ex_np[r]
        ie = np.frombuffer(ideal_exit[r], dtype=np.int64)
        n = len(en)

        # clocks at region boundaries: oom and ideal advance by the
        # out-of-MPI gap before each entry; an exit carries the finalized
        # ideal and the unchanged oom
        prev_ex = np.empty(n, dtype=np.int64)
        prev_ie = np.empty(n, dtype=np.int64)
        if n:
            prev_ex[0] = 0
            prev_ex[1:] = ex[:-1]
            prev_ie[0] = 0
            prev_ie[1:] = ie[:-1]
        gap = en - prev_ex
        oom_entry = np.cumsum(gap)
        ideal_entry = prev_ie + gap

        last = int(ex[-1]) if n else 0
        tail_oom = int(oom_entry[-1]) if n else 0
        tail_ideal = int(ie[-1]) if n else 0
        size = 1 + 2 * n + (1 if end_time > last else 0)
        t = np.empty(size, dtype=np.int64)
        o = np.empty(size, dtype=np.int64)
        d = np.empty(size, dtype=np.int64)
        t[0] = o[0] = d[0] = 0
        t[1:2 * n + 1:2] = en
        t[2:2 * n + 1:2] = ex
        o[1:2 * n + 1:2] = oom_entry
        o[2:2 * n + 1:2] = oom_entry
        d[1:2 * n + 1:2] = ideal_entry
        d[2:2 * n + 1:2] = ie
        if end_time > last:
            t[-1] = end_time
            o[-1] = tail_oom + end_time - last
            d[-1] = tail_ideal + end_time - last

        # points at equal timestamps collapse onto the last one written
        keep = np.empty(size, dtype=bool)
        keep[:-1] = t[:-1] != t[1:]
        keep[-1] = True
        ev = np.empty(2 * n, dtype=np.int64)
        ev[0::2] = en
        ev[1::2] = ex
        ranks.append(RankTimeline(r, t[keep], o[keep], d[keep], ev))
    return AnnotatedTimeline(ranks, end_time)
