"""Kernel profiling: what the event loop itself is doing.

A :class:`KernelProfiler` measures the simulation substrate rather
than the model: delivered events per wall-clock second, the deepest
the future-event set got (split into the timing wheel's short-horizon
buckets and its far-future overflow heap — see
:mod:`repro.sim.events`), and how deliveries distribute across
modules.  Its :meth:`summary` is what the ``trace`` CLI reports and
what :func:`repro.experiments.runner.run_simulation` stores in
``RunResult.extra["kernel"]`` when profiling is requested.

Wall-clock derived numbers (``wall_seconds``, ``events_per_second``)
are inherently machine- and load-dependent; everything else in the
summary is deterministic for a given simulation.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.observers import Observer


class KernelProfiler(Observer):
    """Counts kernel-level activity of one simulator.

    Args:
        simulator: The simulator to profile; the profiler registers
            itself immediately.
    """

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.events = 0
        self.max_pending_events = 0
        self.max_wheel_occupancy = 0
        self.max_overflow_occupancy = 0
        self.per_module: Counter[str] = Counter()
        self._wall_start: float | None = None
        self._wall_stop: float | None = None
        self._attached = True
        simulator.add_observer(self)

    def detach(self) -> None:
        """Stop profiling (idempotent); counters stay readable."""
        if self._attached:
            self.simulator.remove_observer(self)
            self._attached = False

    def on_event_delivered(
        self, simulator: Simulator, event: Event
    ) -> None:
        now = time.perf_counter()
        if self._wall_start is None:
            self._wall_start = now
        self._wall_stop = now
        self.events += 1
        occupancy = simulator.queue_occupancy()
        if occupancy["pending"] > self.max_pending_events:
            self.max_pending_events = occupancy["pending"]
        if occupancy["wheel"] > self.max_wheel_occupancy:
            self.max_wheel_occupancy = occupancy["wheel"]
        if occupancy["overflow"] > self.max_overflow_occupancy:
            self.max_overflow_occupancy = occupancy["overflow"]
        target = event.target
        self.per_module[
            target.name if target is not None else "<handler>"
        ] += 1

    @property
    def wall_seconds(self) -> float:
        """Wall-clock span from the first to the last delivery."""
        if self._wall_start is None or self._wall_stop is None:
            return 0.0
        return self._wall_stop - self._wall_start

    @property
    def events_per_second(self) -> float:
        """Delivered events per wall-clock second (0 until 2 events)."""
        wall = self.wall_seconds
        if wall <= 0:
            return 0.0
        return self.events / wall

    def summary(self, top_modules: int = 10) -> dict:
        """JSON-ready profile: events, rate, queue depths, top
        modules.  ``max_pending_events`` is the peak pending-event count;
        the wheel/overflow pair shows which tier of the future-event
        set carried it (on the reference heap queue everything counts
        as overflow)."""
        return {
            "events": self.events,
            "events_per_second": round(self.events_per_second, 1),
            "max_pending_events": self.max_pending_events,
            "max_wheel_occupancy": self.max_wheel_occupancy,
            "max_overflow_occupancy": self.max_overflow_occupancy,
            "wall_seconds": round(self.wall_seconds, 6),
            "per_module": dict(
                self.per_module.most_common(top_modules)
            ),
        }
