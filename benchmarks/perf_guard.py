#!/usr/bin/env python3
"""Performance guard: fail CI if the kernel's event loop or the
batched engine's speed-up regresses.

It gates two ratios, and each one is timed inside this one process,
so machine speed and runner load largely cancel out.
Each ratio is the median of per-round ratios.  The two sides of a
round run back to back, and they swap order every round, so a burst
of host load skews one round instead of one whole side.

1. **Kernel.**  The events/second of a two-module ping-pong on a
   bare ``Simulator`` (so on its default engine, the heap), over the
   events/second of a hand-inlined heapq loop that does the same raw
   queue work.  The ratio tracks only the overhead the event loop
   adds on top of the heap: the observer protocol's
   zero-cost-when-disabled claim lives or dies here.  It must stay
   within ``TOLERANCE`` of ``KERNEL_RATIO``.
2. **Engine.**  The heap engine's wall time over the batched
   engine's on the mesh4x4 figure point (uniform traffic, rate 0.15,
   2000 cycles), bare and with a ``StallWatchdog`` and a
   ``TimelineObserver`` attached; both observers keep the batched
   fast path.  It must stay at or above ``MIN_BATCHED_SPEEDUP``.
   Every round also checks that both engines did the same work:
   equal ``RunResult`` and equal ``events_processed``.

Usage::

    python benchmarks/perf_guard.py

Exit codes: 0 pass, 1 regression or unequal work, 2 an argument was
given (there are no options).
"""

from __future__ import annotations

import heapq
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

EVENTS = 20_000
KERNEL_ROUNDS = 15
#: Untimed rounds before the kernel's: CPython 3.11 specialises a
#: function's bytecode only after several calls, and until then the
#: heapq loop runs at about half speed, so early rounds read a
#: different ratio.
KERNEL_WARMUP_ROUNDS = 8
#: Median kernel ratio of 8 runs of this script at commit 993e19f
#: (Intel Xeon, 2 CPUs on a shared host, Python 3.11.7).
KERNEL_RATIO = 0.1003
TOLERANCE = 0.25

ENGINE_ROUNDS = 5
MIN_BATCHED_SPEEDUP = 2.0
POINT_CYCLES = 2_000
POINT_RATE = 0.15
POINT_SEED = 11


def interleaved(rounds, first, second, warmup=0):
    """Yield ``(first(), second())`` *rounds* times, calling the two
    back to back and the second one first in every odd round, after
    *warmup* rounds whose results are dropped."""
    for i in range(warmup + rounds):
        if i % 2:
            b = second()
            a = first()
        else:
            a = first()
            b = second()
        if i >= warmup:
            yield a, b


def kernel_rate() -> float:
    """Events/second of the ping-pong on a bare ``Simulator``."""
    from repro.sim.kernel import Simulator
    from repro.sim.messages import Message
    from repro.sim.module import SimModule

    class PingPong(SimModule):
        def __init__(self, simulator, name):
            super().__init__(simulator, name)
            self.add_gate("out")

        def handle_message(self, message):
            self.send(Message("ball"), "out")

    sim = Simulator()
    a = PingPong(sim, "a")
    b = PingPong(sim, "b")
    a.gate("out").connect(b.add_gate("in"), delay=1)
    b.gate("out").connect(a.add_gate("in"), delay=1)
    sim.schedule(0, a, Message("serve"))
    start = time.perf_counter()
    # The ball lands once per cycle from t=0: cycles 0..EVENTS-1
    # hold exactly EVENTS deliveries.
    sim.run(until=EVENTS - 1)
    elapsed = time.perf_counter() - start
    assert sim.events_processed == EVENTS
    return EVENTS / elapsed


def reference_rate() -> float:
    """Events/second of a bare heapq push/pop loop with comparable
    per-event tuple traffic."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    push(heap, (0, 0, 0))
    processed = 0
    start = time.perf_counter()
    while processed < EVENTS:
        t, priority, sequence = pop(heap)
        processed += 1
        push(heap, (t + 1, priority, sequence + 1))
    elapsed = time.perf_counter() - start
    return EVENTS / elapsed


def run_point(engine: str, watched: bool) -> tuple[float, dict, int]:
    """Wall seconds, ``RunResult.to_dict()`` and ``events_processed``
    of the mesh4x4 point on *engine*."""
    from repro.noc.config import NocConfig
    from repro.noc.network import Network
    from repro.obs import TimelineObserver
    from repro.resilience import StallWatchdog
    from repro.topology import MeshTopology
    from repro.traffic import TrafficSpec, UniformTraffic

    topology = MeshTopology(4, 4)
    network = Network(
        topology,
        config=NocConfig(source_queue_packets=16),
        traffic=TrafficSpec(UniformTraffic(topology), POINT_RATE),
        seed=POINT_SEED,
        engine=engine,
    )
    if watched:
        TimelineObserver(network, window=100)
        StallWatchdog(network, stall_cycles=200)
    start = time.perf_counter()
    result = network.run(cycles=POINT_CYCLES)
    elapsed = time.perf_counter() - start
    return elapsed, result.to_dict(), network.simulator.events_processed


def check_kernel() -> bool:
    ratios = [
        kernel / reference
        for kernel, reference in interleaved(
            KERNEL_ROUNDS, kernel_rate, reference_rate, KERNEL_WARMUP_ROUNDS
        )
    ]
    ratio = statistics.median(ratios)
    floor = KERNEL_RATIO * (1.0 - TOLERANCE)
    print(
        f"kernel: median ratio {ratio:.4f} of {KERNEL_ROUNDS} rounds "
        f"({min(ratios):.4f}-{max(ratios):.4f}), floor {floor:.4f} "
        f"({KERNEL_RATIO} less {TOLERANCE:.0%})"
    )
    if ratio < floor:
        print(
            "FAIL: the kernel event loop slowed down relative to the "
            "raw-heap reference; the unobserved loop must stay at one "
            "observer check per event."
        )
        return False
    return True


def check_engine(watched: bool) -> bool:
    name = "mesh4x4_watched" if watched else "mesh4x4"
    speedups = []
    for (heap_s, *heap_work), (batched_s, *batched_work) in interleaved(
        ENGINE_ROUNDS,
        lambda: run_point("heap", watched),
        lambda: run_point("batched", watched),
    ):
        if heap_work != batched_work:
            print(
                f"FAIL: {name}: heap and batched differ in their "
                "RunResult or events_processed; the pin compares "
                "equal work only."
            )
            return False
        speedups.append(heap_s / batched_s)
    speedup = statistics.median(speedups)
    print(
        f"engine: {name} batched over heap median {speedup:.2f}x of "
        f"{ENGINE_ROUNDS} rounds ({min(speedups):.2f}-"
        f"{max(speedups):.2f}), floor {MIN_BATCHED_SPEEDUP:.1f}x"
    )
    if speedup < MIN_BATCHED_SPEEDUP:
        print(
            f"FAIL: batched {name} fell below "
            f"{MIN_BATCHED_SPEEDUP:.1f}x the heap engine; check that "
            "the run stays on the fast path."
        )
        return False
    return True


def main() -> int:
    if sys.argv[1:]:
        print(__doc__)
        return 2
    passed = [check_kernel(), check_engine(False), check_engine(True)]
    if not all(passed):
        return 1
    print("OK: no regression.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
