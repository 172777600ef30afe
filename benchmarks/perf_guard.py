#!/usr/bin/env python3
"""Kernel performance guard: fail CI if the unobserved event loop
regresses.

The guarded quantity is a *ratio*, not an absolute rate: kernel
events/second of the standard two-module ping-pong on a bare
`Simulator` (its default engine, the binary heap) divided by the
events/second of a hand-inlined heapq loop doing the same amount of
raw queue work, measured back-to-back in the same process.  The
reference loop soaks up machine speed, interpreter version and CI
noise, so the ratio tracks only what this repository controls — the
overhead the `Simulator` event loop and its queue add on top of the
bare heap.  The
observer protocol's zero-cost-when-disabled claim lives or dies here:
adding per-event work to the unobserved fast path drops the ratio.

Usage::

    python benchmarks/perf_guard.py                    # check vs baseline
    python benchmarks/perf_guard.py --update-baseline  # rewrite baseline
    python benchmarks/perf_guard.py --tolerance 0.15   # custom slack

Exit codes: 0 pass, 1 regression, 2 missing baseline.
"""

from __future__ import annotations

import argparse
import heapq
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BASELINE_PATH = pathlib.Path(__file__).parent / "kernel_baseline.json"
EVENTS = 20_000
REPEATS = 5


def kernel_rate() -> float:
    """Events/second of the ping-pong workload on the real kernel
    (a bare ``Simulator``, so the default engine: heap)."""
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
    per-event tuple traffic — the denominator of the guarded ratio."""
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


def measure() -> dict:
    """Best-of-N for both rates, interleaved to share thermal state."""
    kernel_best = 0.0
    reference_best = 0.0
    for _ in range(REPEATS):
        kernel_best = max(kernel_best, kernel_rate())
        reference_best = max(reference_best, reference_rate())
    return {
        "events": EVENTS,
        "kernel_events_per_second": round(kernel_best),
        "reference_events_per_second": round(reference_best),
        "ratio": round(kernel_best / reference_best, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=f"write the measured ratio to {BASELINE_PATH.name}",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed relative drop in the ratio (default 0.10)",
    )
    args = parser.parse_args(argv)

    current = measure()
    print(
        f"kernel {current['kernel_events_per_second']:,} ev/s, "
        f"reference {current['reference_events_per_second']:,} ev/s, "
        f"ratio {current['ratio']}"
    )

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(
            f"no baseline at {BASELINE_PATH}; run with "
            "--update-baseline first"
        )
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["ratio"] * (1.0 - args.tolerance)
    print(
        f"baseline ratio {baseline['ratio']}, floor {floor:.4f} "
        f"(tolerance {args.tolerance:.0%})"
    )
    if current["ratio"] < floor:
        print(
            "FAIL: kernel event loop slowed down relative to the "
            "raw-heap reference — check the fast path (the "
            "unobserved loop must stay at one observer check per "
            "event)."
        )
        return 1
    print("OK: no kernel regression.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
