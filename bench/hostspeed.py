"""How fast the shared host runs right now, for putting op times on one
scale.

Co-tenants of a shared host slow every op by 20-80 % in stretches from
under a second to minutes, and much of a stretch can cover a whole run.
So the benchmark times a fixed reference kernel every SAMPLE_INTERVAL_S
of the timed phase, from a SIGALRM handler, so that long ops are sampled
from inside. The kernel is plain Python with no import of `seifknot`: the
integer, dict, list, tuple and string work the program's hot loops are
made of. An op's time is scaled by REFERENCE_S over the kernel's median
time at the samples nearest the op. A change to the program moves its
own time and not the kernel's, so a regression shows in full, while a
stretch in which the host runs slow moves both and cancels out. The time
spent in the handler is left out of the op's time.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
from time import perf_counter

# The kernel's median time on the 2-vCPU Xeon the bounds were set on. A
# scaled time reads as the time the op would take on that host running
# at that speed.
REFERENCE_S = 0.0052
SAMPLE_INTERVAL_S = 0.1
# Samples taken outside an op, on each side, that also count for it.
NEIGHBOURS = 2


def _dict_ints(n: int = 3000) -> int:
    d: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = (i * 7919) % 1013
        d[k] = d.get(k, 0) + i
        acc += (i ^ k) & 0xFF
    return acc + len(sorted(d.values()))


def _union_find(n: int = 1200) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        a, b = find((i * 37) % n), find((i * 101 + 7) % n)
        if a != b:
            parent[a] = b
    return sum(find(i) == i for i in range(n))


def _bareiss(reps: int = 4, m: int = 14) -> int:
    total = 0
    for rep in range(reps):
        a = [[(i * 31 + j * 17 + rep) % 23 - 11 + (i == j) * 40 for j in range(m)] for i in range(m)]
        prev = 1
        for k in range(m - 1):
            for i in range(k + 1, m):
                for j in range(k + 1, m):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        total += a[-1][-1]
    return total


def _words(rounds: int = 15) -> int:
    out = 0
    for s in range(rounds):
        stack: list[int] = []
        for i in range(300):
            g = (i * 7 + s) % 5 - 2 or 3
            if stack and stack[-1] == -g:
                stack.pop()
            else:
                stack.append(g)
        p = tuple((i * 3 + s) % 7 for i in range(7))
        q = tuple(range(6, -1, -1))
        for _ in range(30):
            q = tuple(p[i] for i in q)
        out += len(stack) + q[0]
    return out


def _text(n: int = 250) -> int:
    rows = [[i, i * i, str(i) * 3, [i % 7] * 5] for i in range(n)]
    s = json.dumps({"rows": rows})
    return len(json.loads(s)["rows"]) + len(" ".join(f"x{i}^{i % 9}" for i in range(n * 4)))


def reference_kernel() -> int:
    return _dict_ints() + _union_find() + _bareiss() + _words() + _text()


def time_reference() -> float:
    """Seconds one run of the reference kernel takes, with the collector
    held off so that garbage the program left does not land on it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the reference kernel every SAMPLE_INTERVAL_S while running,
    and scales op times by what it found around each op."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.at: list[float] = []  # when each sample started, ascending
        self.took: list[float] = []  # the kernel's time at each sample
        self.paused = 0.0  # total seconds spent in samples
        self._previous = None  # the SIGALRM handler to put back; None when stopped
        self._sampling = False

    def sample(self, *_) -> None:
        if self._sampling:  # a timer tick that came while a sample ran
            return
        self._sampling = True
        try:
            start = perf_counter()
            took = time_reference()
            self.at.append(start)
            self.took.append(took)
            self.paused += perf_counter() - start
        finally:
            self._sampling = False

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample) or signal.SIG_DFL
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel's median time at the samples taken
        during [start, end] and the NEIGHBOURS nearest on each side."""
        lo = max(0, bisect.bisect_left(self.at, start) - NEIGHBOURS)
        hi = min(len(self.at), bisect.bisect_right(self.at, end) + NEIGHBOURS)
        return REFERENCE_S / statistics.median(self.took[lo:hi])
