"""Fixed reference task that measures how fast the machine is right now.

    python3 perfbench/reference.py

The benchmark runs it as a child process before and after every timed
child and reports times scaled to the reference's nominal duration
(run.py, REFERENCE_NOMINAL_S).  On a shared virtual machine the speed of
the same work drifts by tens of percent over tens of seconds; the ratio
of a timed child to the reference runs around it cancels that drift.

The task imitates the analyzer's mix (interpreter start, numpy import,
line tokenizing in Python, a few vectorized passes) but uses nothing
from paraslice, so no change to the program can change its duration.
"""

import numpy as np

LINES = 60_000


def main() -> int:
    lines = [f"2:{i % 64 + 1}:1:{i % 64 + 1}:1:{i * 7919 % 1000003}:"
             f"5000000{i % 3}:{i % 5}" for i in range(LINES)]
    rows = []
    for _ in range(2):
        for line in lines:
            _, _, rest = line.partition(":")
            rows.append(list(map(int, rest.split(":"))))
    times = np.array([r[4] for r in rows], dtype=np.int64)
    order = np.argsort(times, kind="stable")
    edges = np.searchsorted(times[order], np.arange(0, 1000003, 997))
    return 0 if int(np.cumsum(np.diff(edges))[-1]) <= len(rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
