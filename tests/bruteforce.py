"""Independent zero-cost-network oracle used to cross-check the replay engine.

Instead of the engine's counted topological sweep, this module wires every
ordering constraint into an explicit list and relaxes exit values to a fixed
point (Bellman-Ford style).  Region lookup is done with plain linear scans.
Agreement between the two implementations on the reconstructed ideal clock
is therefore meaningful evidence of correctness, not a tautology.
"""

from __future__ import annotations

from collections import deque

from paraslice import CallClass, Trace
from paraslice.model import MessageStatus, WORLD_COMM_ID
from paraslice.replay import DEFAULT_EAGER_LIMIT


def _find_recv(regs, t):
    """First region in stream order whose exit reaches t, if it contains t."""
    for k, reg in enumerate(regs):
        if reg.exit_time >= t:
            return k if reg.entry_time <= t else None
    return None


def _find_send(regs, t):
    """Earliest region starting exactly at t, else the region containing t."""
    candidates = [k for k, reg in enumerate(regs)
                  if reg.entry_time <= t <= reg.exit_time]
    if not candidates:
        return None
    for k in candidates:
        if regs[k].entry_time == t:
            return k
    return candidates[-1]


def brute_force_ideal(trace: Trace, eager_limit: int = DEFAULT_EAGER_LIMIT):
    """Relax exit-ideal values to a fixed point; return per-rank finals.

    Returns (finals, runtime_ideal) where finals[r] is rank r's ideal clock
    at the end of the trace and runtime_ideal is their maximum.
    """
    P = trace.meta.rank_count
    D = trace.meta.total_duration_ns
    regs = trace.regions

    # exit[r][k] >= entry_ideal(src_rank, src_region) for each constraint
    constraints: list[tuple[tuple[int, int], tuple[int, int]]] = []

    for msg in trace.messages:
        if msg.status is not MessageStatus.VALID:
            continue
        if msg.recv_end < msg.send_begin:
            continue
        sk = _find_send(regs[msg.sender], msg.send_begin)
        rk = _find_recv(regs[msg.receiver], msg.recv_end)
        if sk is None or rk is None:
            continue
        if regs[msg.receiver][rk].call_class is not CallClass.OTHER_MPI:
            constraints.append(((msg.receiver, rk), (msg.sender, sk)))
        if msg.size_bytes > eager_limit \
                and regs[msg.sender][sk].call_class is not CallClass.OTHER_MPI:
            constraints.append(((msg.sender, sk), (msg.receiver, rk)))

    # claim collective regions per (rank, communicator) in stream order
    queues: dict[tuple[int, int], deque] = {}
    for r in range(P):
        for k, reg in enumerate(regs[r]):
            if reg.call_class is CallClass.COLLECTIVE:
                cid = WORLD_COMM_ID if reg.comm_hint is None else reg.comm_hint
                queues.setdefault((r, cid), deque()).append(k)
    for op in trace.collectives:
        members = []
        for rank, entry, exit_ in op.participants:
            q = queues.get((rank, op.communicator_id))
            assert q, f"oracle could not place collective for rank {rank}"
            k = q.popleft()
            assert regs[rank][k].entry_time == entry
            assert regs[rank][k].exit_time == exit_
            members.append((rank, k))
        # an occurrence whose ranks are not its communicator's membership
        # does not synchronize
        comm = trace.communicators.get(op.communicator_id)
        ranks = [rank for rank, _ in members]
        if comm is None or sorted(ranks) != sorted(set(comm.members)):
            continue
        for tgt in members:
            for src in members:
                if src != tgt:
                    constraints.append((tgt, src))

    exit_ideal = [[0] * len(regs[r]) for r in range(P)]

    def entry_ideal(r: int, k: int) -> int:
        if k == 0:
            return regs[r][0].entry_time
        gap = regs[r][k].entry_time - regs[r][k - 1].exit_time
        return exit_ideal[r][k - 1] + gap

    changed = True
    while changed:
        changed = False
        for r in range(P):
            for k in range(len(regs[r])):
                v = entry_ideal(r, k)
                if exit_ideal[r][k] < v:
                    exit_ideal[r][k] = v
                    changed = True
        for (tr, tk), (sr, sk) in constraints:
            v = entry_ideal(sr, sk)
            if exit_ideal[tr][tk] < v:
                exit_ideal[tr][tk] = v
                changed = True

    finals = []
    for r in range(P):
        if regs[r]:
            finals.append(exit_ideal[r][-1] + (D - regs[r][-1].exit_time))
        else:
            finals.append(D)
    return finals, max(finals)


def brute_force_oom(trace: Trace):
    """Per-rank final out-of-MPI time: total span not covered by regions."""
    D = trace.meta.total_duration_ns
    finals = []
    for regs in trace.regions:
        covered = sum(reg.exit_time - reg.entry_time for reg in regs)
        finals.append(D - covered)
    return finals
