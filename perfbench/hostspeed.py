"""Host-speed calibration: a fixed pure-Python kernel timed next to the workload.

The shared host's speed drifts by about a fifth between half-minute windows,
and every scenario of a run moves with it. Raw host seconds then spread more
between two runs of the same code than any useful regression bound. The
kernel below shares no code with motesim, so no change to motesim moves it;
it does the interpreter work motesim does most (heap pushes and pops, bound
method calls, attribute updates, dict counts), so host drift moves it the same
way. It allocates as it goes, as motesim does; a kernel that reuses prebuilt
entries or keeps a short queue tracked the drift worse. Operation-time metrics
are scaled to a host on which the kernel takes REFERENCE_S; the raw values are
reported beside them.
"""

from __future__ import annotations

import heapq
import statistics
import time

# Median kernel time over the runs the bounds were set from (Python 3.11.7,
# 2-core shared x86-64 host).
REFERENCE_S = 0.047
# Share of the workload's host time spent on kernel samples.
SAMPLE_SHARE = 0.1

_EVENTS = 20_000
_NODES = 50


class _Ledger:
    __slots__ = ("on", "off", "state", "last")

    def __init__(self):
        self.on = self.off = self.state = self.last = 0

    def settle(self, now: int) -> None:
        if self.state:
            self.on += now - self.last
        else:
            self.off += now - self.last
        self.last = now

    def flip(self, now: int) -> None:
        self.settle(now)
        self.state ^= 1


def kernel() -> float:
    """Host seconds for one fixed event-loop run."""
    started = time.perf_counter()
    heap = []
    ledgers = [_Ledger() for _ in range(_NODES)]
    counts: dict[int, int] = {}
    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 65536, i, ledgers[i % _NODES].flip))
    while heap:
        at, seq, fn = heapq.heappop(heap)
        fn(at)
        counts[seq % 97] = counts.get(seq % 97, 0) + 1
    return time.perf_counter() - started


class HostSpeed:
    """Kernel samples taken through a run; their median sets the scale."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, busy_s: float) -> None:
        """Time the kernel for about SAMPLE_SHARE of busy_s, at least once."""
        times = max(1, round(SAMPLE_SHARE * busy_s / REFERENCE_S))
        self.samples += [kernel() for _ in range(times)]

    @property
    def factor(self) -> float:
        """Multiply host seconds by this to get reference-host seconds."""
        return REFERENCE_S / statistics.median(self.samples)
