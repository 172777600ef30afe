"""Stall detection: abort wedged runs with a diagnostic snapshot.

A wedged simulation — a routing deadlock, or traffic bound for a node
a fault plan disconnected — otherwise burns through ``max_cycles``
doing nothing.  :class:`StallWatchdog` is a kernel
:class:`~repro.sim.observers.Observer` that watches the network's
flit-movement counters once per simulated cycle and, when nothing has
moved for *stall_cycles* cycles while work is still outstanding, asks
the kernel to stop via :meth:`~repro.sim.kernel.Simulator.request_stop`
with a snapshot of where everything is stuck.  The network's
:meth:`~repro.noc.network.Network.run` turns that into
``RunResult.degraded = True`` plus ``extra["stall"]``.

The per-cycle cost is an integer compare; the O(network) snapshot is
built only when the watchdog actually trips.  The watchdog reads only
cycle boundaries, so the batched engine keeps its fast path with it
attached and trips at the identical cycle (docs/engines.md).
"""

from __future__ import annotations

from repro.noc.network import Network
from repro.sim.observers import Observer


class StallWatchdog(Observer):
    """Aborts *network*'s run after *stall_cycles* cycles of no flit
    movement with work outstanding.

    Args:
        network: The network to guard; the watchdog registers itself
            on its simulator immediately.
        stall_cycles: Quiet cycles tolerated before tripping.  Must
            comfortably exceed the longest legitimate quiet gap (low
            injection rates have multi-hundred-cycle interarrivals).

    Attributes:
        tripped: Whether the watchdog fired.
        snapshot: The diagnostic snapshot, once tripped.
    """

    __slots__ = (
        "network",
        "stall_cycles",
        "tripped",
        "snapshot",
        "_last_progress_cycle",
        "_last_progress",
        "_drops_at_progress",
    )

    # Cycle boundaries are all the watchdog reads, so it keeps the
    # batched engine on its fast path.
    cycle_boundaries_only = True

    def __init__(self, network: Network, stall_cycles: int) -> None:
        if stall_cycles < 1:
            raise ValueError(
                f"stall_cycles must be >= 1, got {stall_cycles}"
            )
        self.network = network
        self.stall_cycles = stall_cycles
        self.tripped = False
        self.snapshot: dict | None = None
        self._last_progress_cycle = 0
        self._last_progress = -1
        self._drops_at_progress = 0
        network.simulator.add_observer(self)

    def on_time_advanced(
        self, simulator, old_time: int, new_time: int
    ) -> None:
        if self.tripped:
            return
        # Flits consumed: injections and drops are not progress, and
        # detecting kill-churn is exactly the watchdog's job.
        progress = self.network.flits_consumed()
        if progress != self._last_progress:
            self._last_progress = progress
            self._last_progress_cycle = new_time
            self._drops_at_progress = self.network.stats.flits_dropped
            return
        if new_time - self._last_progress_cycle < self.stall_cycles:
            return
        dropping = (
            self.network.stats.flits_dropped != self._drops_at_progress
        )
        controller = getattr(self.network, "drain_controller", None)
        if controller is not None and controller.shields_watchdog(
            new_time
        ):
            # An armed drain episode with recent forced progress:
            # recovery gets its grace window before the run is
            # truncated.  Deliberately *not* a window reset — the
            # moment the shield lapses (drain stopped moving flits)
            # the already-elapsed quiet window trips immediately.
            return
        if not dropping and not self.network.work_outstanding():
            # Quiet because idle (e.g. zero injection rate), not
            # because stuck.  A network that dropped flits during the
            # window does not qualify — kill-churn (every destination
            # unreachable) often leaves the buffers momentarily empty
            # at the instant of this check, yet is exactly the
            # pathology the watchdog exists to catch.
            self._last_progress_cycle = new_time
            return
        self.tripped = True
        self.snapshot = self._build_snapshot(new_time)
        simulator.request_stop(
            f"no flit consumed for {new_time - self._last_progress_cycle}"
            f" cycles (watchdog limit {self.stall_cycles})",
            details=self.snapshot,
        )

    def _build_snapshot(self, now: int) -> dict:
        """JSON-ready picture of where the traffic is wedged."""
        net = self.network
        blocked = {
            router.node: router.occupancy_snapshot()
            for router in net.routers
            if router.total_buffered_flits()
        }
        backlogs = {
            interface.node: interface.backlog_packets
            for interface in net.interfaces
            if interface.backlog_packets
        }
        in_flight = sum(net.flits_on_wire().values())
        return {
            "cycle": now,
            "last_progress_cycle": self._last_progress_cycle,
            "stall_cycles": self.stall_cycles,
            "flits_injected": net.stats.flits_injected,
            "flits_consumed": net.flits_consumed(),
            "flits_dropped": net.stats.flits_dropped,
            "flits_in_flight": in_flight,
            "blocked_routers": blocked,
            "source_backlogs": backlogs,
            "dead_links": sorted(
                f"{a}-{b}" for a, b in net.dead_links
            ),
        }
