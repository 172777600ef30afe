#!/usr/bin/env python3
"""Benchmark trajectory: kernel micro-benchmarks + one figure point
per topology, written to ``BENCH_<date>.json`` at the repo root.

Complements ``perf_guard.py``: the guard checks a machine-independent
*ratio* and fails CI on regression; this script records *absolute*
numbers so the repository accumulates a performance trajectory over
time (one JSON per date, committed alongside the change that moved
the needle).

What it measures:

* ``kernel_ping_pong`` — events/second of the bare two-module
  ping-pong on a bare ``Simulator``'s default engine, heap (the
  number ``kernel_baseline.json`` anchors);
* ``queue_churn`` — raw push/pop throughput of the timing wheel
  (``CycleCalendar``, the queue of the ``wheel`` and ``batched``
  engines) at a realistic depth;
* ``figure_points`` — for one representative figure point per paper
  topology (ring16, spidergon16, mesh4x4 under uniform traffic),
  simulated cycles/second and kernel events/second **per engine**
  (``wheel``, the per-event loop over the calendar, which is the
  batched engine's slow path, and the ``batched`` cycle-synchronous
  engine), plus the batched-over-wheel speedup per point.  A
  ``mesh4x4_watched`` row repeats mesh4x4 with a ``StallWatchdog``
  and a ``TimelineObserver`` attached on both engines.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --min-speedup 1.3
    PYTHONPATH=src python benchmarks/run_bench.py \
        --min-batched-speedup 2.0
    PYTHONPATH=src python benchmarks/run_bench.py --out /tmp/b.json

Exit codes: 0 ok, 1 the ping-pong speedup vs the recorded baseline
fell below ``--min-speedup``, or the batched engine's mesh4x4
speedup over the wheel, watched or not, fell below
``--min-batched-speedup`` (both
default 0: informational only for absolute rates, but the batched
ratio is machine-independent, so CI pins it — see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_guard import BASELINE_PATH, EVENTS, kernel_rate  # noqa: E402

REPEATS = 5
FIGURE_CYCLES = 2_000
FIGURE_RATE = 0.15
FIGURE_SEED = 11


def bench_ping_pong() -> float:
    """Best-of-N events/second of the standard ping-pong workload
    (the one ``perf_guard.py`` guards)."""
    return max(kernel_rate() for _ in range(REPEATS))


def bench_queue_churn() -> float:
    """Best-of-N push+pop pairs/second at a depth of 2000 events.

    Every push precedes every pop, so each push is at or after the
    last pop, as the calendar requires."""
    from repro.sim.events import CycleCalendar, Event

    best = 0.0
    for _ in range(REPEATS):
        queue = CycleCalendar()
        start = time.perf_counter()
        for t in range(2_000):
            queue.push(
                Event(time=(t * 7919) % 1000, priority=0, sequence=0)
            )
        while queue:
            queue.pop()
        elapsed = time.perf_counter() - start
        best = max(best, 2_000 / elapsed)
    return best


FIGURE_ENGINES = ("wheel", "batched")

#: Rows ``--min-batched-speedup`` pins.
PINNED_POINTS = ("mesh4x4", "mesh4x4_watched")


def bench_figure_points() -> dict:
    """One representative figure point per paper topology, measured
    once per engine; both engines produce byte-identical results
    (the equivalence suite pins that), so the comparison is purely
    cycles/second."""
    from repro.noc.config import NocConfig
    from repro.noc.network import Network
    from repro.obs import TimelineObserver
    from repro.resilience import StallWatchdog
    from repro.topology import (
        MeshTopology,
        RingTopology,
        SpidergonTopology,
    )
    from repro.traffic import TrafficSpec, UniformTraffic

    # name -> (topology factory, attach the watchdog and timeline).
    factories = {
        "ring16": (lambda: RingTopology(16), False),
        "spidergon16": (lambda: SpidergonTopology(16), False),
        "mesh4x4": (lambda: MeshTopology(4, 4), False),
        "mesh4x4_watched": (lambda: MeshTopology(4, 4), True),
    }
    points = {}
    for name, (factory, watched) in factories.items():
        engines = {}
        for engine in FIGURE_ENGINES:
            best_cycles = 0.0
            events = 0
            for _ in range(3):
                topology = factory()
                network = Network(
                    topology,
                    config=NocConfig(source_queue_packets=16),
                    traffic=TrafficSpec(
                        UniformTraffic(topology), FIGURE_RATE
                    ),
                    seed=FIGURE_SEED,
                    engine=engine,
                )
                if watched:
                    TimelineObserver(network, window=100)
                    StallWatchdog(network, stall_cycles=200)
                start = time.perf_counter()
                network.run(cycles=FIGURE_CYCLES)
                elapsed = time.perf_counter() - start
                events = network.simulator.events_processed
                best_cycles = max(
                    best_cycles, FIGURE_CYCLES / elapsed
                )
            engines[engine] = {
                "cycles_per_second": round(best_cycles),
                "events_per_second": round(
                    best_cycles * events / FIGURE_CYCLES
                ),
            }
        points[name] = {
            "cycles": FIGURE_CYCLES,
            "injection_rate": FIGURE_RATE,
            "seed": FIGURE_SEED,
            "events": events,
            "engines": engines,
            "batched_speedup": round(
                engines["batched"]["cycles_per_second"]
                / engines["wheel"]["cycles_per_second"],
                3,
            ),
        }
    return points


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="output path (default: BENCH_<date>.json at repo root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help=(
            "fail (exit 1) if ping-pong events/sec divided by the "
            "recorded baseline is below this (default 0: report only)"
        ),
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=0.0,
        help=(
            "fail (exit 1) if the batched engine's mesh4x4 "
            "cycles/sec divided by the wheel engine's, with or "
            "without the watchdog and timeline attached, is below "
            "this (default 0: report only); the ratio is machine-"
            "independent, so CI can pin it"
        ),
    )
    args = parser.parse_args(argv)

    ping_pong = bench_ping_pong()
    churn = bench_queue_churn()
    points = bench_figure_points()

    baseline = None
    speedup = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        speedup = ping_pong / baseline["kernel_events_per_second"]

    record = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernel_ping_pong": {
            "events": EVENTS,
            "events_per_second": round(ping_pong),
            "baseline_events_per_second": (
                baseline["kernel_events_per_second"]
                if baseline
                else None
            ),
            "speedup_vs_baseline": (
                round(speedup, 3) if speedup is not None else None
            ),
        },
        "queue_churn_ops_per_second": round(churn),
        "figure_points": points,
    }

    out_path = args.out
    if out_path is None:
        out_path = REPO_ROOT / f"BENCH_{record['date']}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"kernel ping-pong: {round(ping_pong):,} ev/s", end="")
    if speedup is not None:
        print(
            f" ({speedup:.2f}x vs baseline "
            f"{baseline['kernel_events_per_second']:,})"
        )
    else:
        print(" (no baseline recorded)")
    print(f"queue churn: {round(churn):,} ops/s")
    for name, point in points.items():
        per_engine = ", ".join(
            f"{engine} {stats['cycles_per_second']:,} cy/s"
            for engine, stats in point["engines"].items()
        )
        print(
            f"{name}: {per_engine} "
            f"(batched {point['batched_speedup']:.2f}x)"
        )
    print(f"wrote {out_path}")

    if args.min_speedup > 0:
        if speedup is None:
            print("FAIL: no baseline to compare against")
            return 1
        if speedup < args.min_speedup:
            print(
                f"FAIL: speedup {speedup:.2f}x is below the required "
                f"{args.min_speedup:.2f}x"
            )
            return 1
        print(
            f"OK: speedup {speedup:.2f}x meets the required "
            f"{args.min_speedup:.2f}x"
        )
    if args.min_batched_speedup > 0:
        failed = False
        for name in PINNED_POINTS:
            ratio = points[name]["batched_speedup"]
            if ratio < args.min_batched_speedup:
                print(
                    f"FAIL: batched {name} speedup {ratio:.2f}x is "
                    f"below the required "
                    f"{args.min_batched_speedup:.2f}x"
                )
                failed = True
            else:
                print(
                    f"OK: batched {name} speedup {ratio:.2f}x meets "
                    f"the required {args.min_batched_speedup:.2f}x"
                )
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
