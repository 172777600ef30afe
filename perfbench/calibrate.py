"""Host-speed probe: rescales measured seconds to a reference host.

The benchmark runs on shared machines whose speed drifts by up to 2x
over a few seconds, as neighbours come and go.  A fixed pure-Python
discrete-event loop, with the simulator's instruction mix (heap
events, slotted objects, deques, method calls) but none of its code,
slows down with the host the way the simulator does.  The probe runs
it between the workload's operations, at most every ``every`` seconds,
and a measured duration ``t`` taken while the loop ran in ``c``
seconds is reported as ``t * REFERENCE_S / c``: the seconds the
operation would take on a host where the loop takes ``REFERENCE_S``.
A change to the simulator moves ``t`` and not ``c``, so it shows in
full; a change of host speed moves both and cancels.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import statistics
import time
from collections import deque

#: The loop's seconds on the reference host (Python 3.11, x86_64, an
#: idle core of the 2-core container the bounds were set on).
REFERENCE_S = 0.0150

_NODES = 64
_EVENTS = 20_000


class _Node:
    __slots__ = ("queue", "sent", "peer")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.sent = 0
        self.peer: _Node | None = None

    def handle(self, now: int, item: int, heap: list, sequence) -> None:
        self.queue.append(item)
        if len(self.queue) > 2:
            head = self.queue.popleft()
            self.sent += 1
            heapq.heappush(
                heap, (now + 1 + (head & 3), next(sequence), self.peer, head + 1)
            )


def calibration_loop() -> int:
    """A fixed token-passing event simulation; returns events run."""
    nodes = [_Node() for _ in range(_NODES)]
    for index, node in enumerate(nodes):
        node.peer = nodes[(index * 7 + 1) % _NODES]
    heap: list = []
    sequence = itertools.count()
    for index, node in enumerate(nodes):
        for k in range(4):
            heapq.heappush(heap, (k, next(sequence), node, index * k))
    done = 0
    while done < _EVENTS:
        now, _, node, item = heapq.heappop(heap)
        node.handle(now, item, heap, sequence)
        done += 1
        if not heap:
            for node in nodes:
                heapq.heappush(heap, (now + 1, next(sequence), node, done))
    return done


class SpeedProbe:
    """Calibration samples taken between a workload's operations."""

    def __init__(self, every: float = 0.25) -> None:
        self.every = every
        self.times: list[float] = []
        self.seconds: list[float] = []
        #: Host seconds spent probing, to take out of pass walls.
        self.spent = 0.0

    def run(self) -> None:
        begin = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - begin)
        self.spent += end - begin

    def due(self) -> None:
        """Probe if the last sample is older than ``every`` seconds."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.every:
            self.run()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the loop's seconds around [start, end]:
        the median of the samples inside, else the two neighbours."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        inside = self.seconds[low:high]
        if not inside:
            inside = self.seconds[max(low - 1, 0):low + 1]
        return REFERENCE_S / statistics.median(inside)

    def normalize(self, seconds: float, start: float, end: float) -> float:
        """*seconds*, measured over [start, end], at reference speed."""
        return seconds * self.scale(start, end)
