"""Independent zero-cost-network oracle used to cross-check the replay engine.

Instead of the engine's counted topological sweep, this module wires every
ordering constraint into an explicit list and relaxes exit values to a fixed
point (Bellman-Ford style).  Region lookup is done with plain linear scans
over per-rank lists of (entry, exit, class, hint) tuples, built once from
the trace's columns.
Agreement between the two implementations on the reconstructed ideal clock
is therefore meaningful evidence of correctness, not a tautology.
"""

from __future__ import annotations

from collections import deque

from paraslice import CallClass, Trace
from paraslice.model import STATUS_CODES, MessageStatus, WORLD_COMM_ID
from paraslice.replay import DEFAULT_EAGER_LIMIT

from conftest import region_lists

ENTRY, EXIT, CLASS, HINT = range(4)


def _find_recv(regs, t):
    """First region in stream order whose exit reaches t, if it contains t."""
    for k, reg in enumerate(regs):
        if reg[EXIT] >= t:
            return k if reg[ENTRY] <= t else None
    return None


def _find_send(regs, t):
    """Earliest region starting exactly at t, else the region containing t."""
    candidates = [k for k, reg in enumerate(regs)
                  if reg[ENTRY] <= t <= reg[EXIT]]
    if not candidates:
        return None
    for k in candidates:
        if regs[k][ENTRY] == t:
            return k
    return candidates[-1]


def brute_force_ideal(trace: Trace, eager_limit: int = DEFAULT_EAGER_LIMIT):
    """Relax exit-ideal values to a fixed point; return per-rank finals.

    Returns (finals, runtime_ideal) where finals[r] is rank r's ideal clock
    at the end of the trace and runtime_ideal is their maximum.
    """
    P = trace.meta.rank_count
    D = trace.meta.total_duration_ns
    regs = region_lists(trace)

    # exit[r][k] >= entry_ideal(src_rank, src_region) for each constraint
    constraints: list[tuple[tuple[int, int], tuple[int, int]]] = []

    m = trace.messages
    valid = STATUS_CODES[MessageStatus.VALID]
    for sender, receiver, send_begin, recv_end, size, status in zip(
            *(getattr(m, c).tolist() for c in m.COLUMNS)):
        if status != valid:
            continue
        if recv_end < send_begin:
            continue
        sk = _find_send(regs[sender], send_begin)
        rk = _find_recv(regs[receiver], recv_end)
        if sk is None or rk is None:
            continue
        if regs[receiver][rk][CLASS] is not CallClass.OTHER_MPI:
            constraints.append(((receiver, rk), (sender, sk)))
        if size > eager_limit \
                and regs[sender][sk][CLASS] is not CallClass.OTHER_MPI:
            constraints.append(((sender, sk), (receiver, rk)))

    # claim collective regions per (rank, communicator) in stream order
    queues: dict[tuple[int, int], deque] = {}
    for r in range(P):
        for k, reg in enumerate(regs[r]):
            if reg[CLASS] is CallClass.COLLECTIVE:
                cid = WORLD_COMM_ID if reg[HINT] is None else reg[HINT]
                queues.setdefault((r, cid), deque()).append(k)
    colls, table = trace.collectives, trace.regions
    bounds = colls.part_offsets.tolist()
    for i, cid in enumerate(colls.comm_ids.tolist()):
        rows = colls.part_rows[bounds[i]:bounds[i + 1]]
        members = []
        for rank, entry, exit_ in zip(table.ranks_of(rows).tolist(),
                                      table.entry_times[rows].tolist(),
                                      table.exit_times[rows].tolist()):
            q = queues.get((rank, cid))
            assert q, f"oracle could not place collective for rank {rank}"
            k = q.popleft()
            assert regs[rank][k][ENTRY] == entry
            assert regs[rank][k][EXIT] == exit_
            members.append((rank, k))
        # an occurrence whose ranks are not its communicator's membership
        # does not synchronize
        comm = trace.communicators.get(cid)
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
            return regs[r][0][ENTRY]
        gap = regs[r][k][ENTRY] - regs[r][k - 1][EXIT]
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
            finals.append(exit_ideal[r][-1] + (D - regs[r][-1][EXIT]))
        else:
            finals.append(D)
    return finals, max(finals)


def brute_force_oom(trace: Trace):
    """Per-rank final out-of-MPI time: total span not covered by regions."""
    D = trace.meta.total_duration_ns
    finals = []
    for regs in region_lists(trace):
        covered = sum(reg[EXIT] - reg[ENTRY] for reg in regs)
        finals.append(D - covered)
    return finals
