"""Utilization timelines: windowed per-link traffic, observed live.

A :class:`TimelineObserver` watches a :class:`~repro.noc.network
.Network`'s kernel and buckets every link traversal into fixed-size
time windows, per virtual channel.  It also samples each node's
buffer occupancy (router buffers + IP-memory backlog) as every window
closes.  The result is a :class:`~repro.stats.utilization
.UtilizationTimeline` — plain data that shows congestion forming and
draining over time, which end-of-run aggregates cannot.

The observer reads only cycle boundaries.  When a window closes it
credits the window with each link's growth in arrivals: the flits the
sending output port has counted (``flits_sent_by_vc``), less those
still on the wire (:meth:`~repro.noc.network.Network.flits_on_wire`)
and less forced drain sends, which bump the counter but skip the
wire.  Routers and interfaces need no instrumentation hooks, the
model's behaviour is bit-identical with or without a timeline
attached, and the batched engine keeps its fast path with it.

Usage::

    network = Network(topology, traffic=traffic, seed=1)
    observer = TimelineObserver(network, window=100)
    network.run(cycles=2_000)
    timeline = observer.timeline()
    print(timeline.heat_table())
"""

from __future__ import annotations

from repro.sim.kernel import Simulator
from repro.sim.observers import Observer
from repro.stats.utilization import (
    LinkWindowSeries,
    OccupancySeries,
    UtilizationTimeline,
)


class TimelineObserver(Observer):
    """Accumulates windowed link counters and occupancy samples.

    Args:
        network: The network to observe; the observer registers
            itself with ``network.simulator`` immediately.
        window: Window width in cycles; per-link counts and occupancy
            samples are bucketed by ``time // window``.
        include_local: Also track the ejection links (router -> NI)
            when True; off by default to mirror
            :class:`~repro.stats.utilization.UtilizationReport`.
    """

    cycle_boundaries_only = True

    def __init__(
        self,
        network,
        window: int = 100,
        include_local: bool = False,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.network = network
        self.window = window
        self.include_local = include_local
        # (node, port, dst, vc) -> {window index: flit count}; a key
        # appears with its link's first counted arrival.
        self._counts: dict[tuple[int, str, int, int], dict[int, int]] = {}
        # (key, sending router, arrival gate) per tracked (link, VC).
        self._links = [
            ((node, port, dst, vc), network.routers[node], gate)
            for node, port, dst, gate in network.link_arrival_gates(
                include_local=include_local
            )
            for vc in range(network.num_vcs)
        ]
        # key -> forced drain sends over the link since attaching.
        self._forced: dict[tuple[int, str, int, int], int] = {}
        # The window arrivals are credited to, and each key's
        # arrivals when it was last credited.
        self._open_window = network.simulator.now // window
        self._arrived = self._arrivals()
        # node -> [(window index, buffered flits)].
        self._occupancy: dict[int, list[tuple[int, int]]] = {
            router.node: [] for router in network.routers
        }
        # Forced drain-recovery moves (deadlock recovery) are not
        # ordinary link deliveries, so they get their own counter
        # instead of polluting the per-link windows.
        self.drain_events = 0
        self._attached = True
        network.simulator.add_observer(self)
        network.add_drain_listener(self._on_drain_move)

    def _on_drain_move(
        self, kind: str, flit, src: int, dst: int, vc: int
    ) -> None:
        self.drain_events += 1
        if kind == "send":
            port = self.network.topology.port_to(src, dst)
            key = (src, port, dst, vc)
            self._forced[key] = self._forced.get(key, 0) + 1

    def _arrivals(self) -> dict[tuple[int, str, int, int], int]:
        """Flits delivered over each tracked (link, VC) so far."""
        on_wire = self.network.flits_on_wire()
        forced = self._forced
        return {
            key: router.flits_sent_on(key[1], key[3])
            - on_wire.get((gate, key[3]), 0)
            - forced.get(key, 0)
            for key, router, gate in self._links
        }

    def _credit_open_window(self) -> None:
        """Add each link's arrivals since the last credit to the open
        window."""
        arrived = self._arrivals()
        last = self._arrived
        index = self._open_window
        for key, flits in arrived.items():
            grown = flits - last[key]
            if grown:
                windows = self._counts.setdefault(key, {})
                windows[index] = windows.get(index, 0) + grown
        self._arrived = arrived

    # -- observer hooks -----------------------------------------------

    def on_time_advanced(
        self, simulator: Simulator, old_time: int, new_time: int
    ) -> None:
        new_window = new_time // self.window
        if new_window <= self._open_window:
            return
        # Every delivery so far happened at or before old_time, in
        # the open window; none on the skipped windows.
        self._credit_open_window()
        old_window = self._open_window
        self._open_window = new_window
        # Sample once per closed window.  During an idle gap nothing
        # moves, so the same sample stands for every skipped window.
        flits_in_flight = {
            router.node: router.total_buffered_flits()
            + self.network.interfaces[router.node].backlog_packets
            * self.network.config.packet_size_flits
            for router in self.network.routers
        }
        for index in range(old_window, new_window):
            for node, flits in flits_in_flight.items():
                self._occupancy[node].append((index, flits))

    def on_close(self, simulator: Simulator) -> None:
        # The flits on the wire go with the pending events.
        self.detach()

    # -- lifecycle ----------------------------------------------------

    def detach(self) -> None:
        """Stop observing (idempotent); collected data stays readable."""
        if self._attached:
            self._credit_open_window()
            self.network.simulator.remove_observer(self)
            self.network.remove_drain_listener(self._on_drain_move)
            self._attached = False

    # -- export -------------------------------------------------------

    def timeline(self, cycles: int | None = None) -> UtilizationTimeline:
        """Freeze the counters into a :class:`UtilizationTimeline`.

        Args:
            cycles: Horizon the timeline covers; defaults to the
                network's completed run length (falling back to the
                simulator clock for partial runs).
        """
        if cycles is None:
            cycles = (
                self.network.cycles_run
                or self.network.simulator.now
            )
        if cycles < 1:
            raise ValueError(
                "timeline of an unstarted simulation (cycles < 1)"
            )
        if self._attached:
            self._credit_open_window()
        num_windows = -(-cycles // self.window)
        links = []
        for key in sorted(self._counts):
            node, port, dst, vc = key
            windows = self._counts[key]
            attrs = self.network.link_attrs_of(node, port)
            links.append(
                LinkWindowSeries(
                    node=node,
                    port=port,
                    dst=dst,
                    vc=vc,
                    counts=tuple(
                        windows.get(index, 0)
                        for index in range(num_windows)
                    ),
                    kind=attrs.kind,
                    latency=attrs.latency,
                )
            )
        occupancy = tuple(
            OccupancySeries(
                node=node,
                samples=tuple(self._occupancy[node]),
            )
            for node in sorted(self._occupancy)
        )
        return UtilizationTimeline(
            window=self.window,
            cycles=cycles,
            links=tuple(links),
            occupancy=occupancy,
        )
