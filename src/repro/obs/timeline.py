"""Utilization timelines: windowed per-link traffic, observed live.

A :class:`TimelineObserver` watches a :class:`~repro.noc.network
.Network`'s kernel and buckets every link traversal into fixed-size
time windows, per virtual channel.  It also samples each node's
buffer occupancy (router buffers + IP-memory backlog) as every window
closes.  The result is a :class:`~repro.stats.utilization
.UtilizationTimeline` — plain data that shows congestion forming and
draining over time, which end-of-run aggregates cannot.

The observer is pure kernel-side: it maps each flit delivery to its
link via the arrival gate, so routers and interfaces need no
instrumentation hooks and the model's behaviour is bit-identical with
or without a timeline attached.  The per-link counters double as
:meth:`~repro.sim.observers.Observer.arrival_taps`, so the batched
engine keeps its fast path and calls them on each arrival instead of
handing over events; the timeline comes out byte-identical.

Usage::

    network = Network(topology, traffic=traffic, seed=1)
    observer = TimelineObserver(network, window=100)
    network.run(cycles=2_000)
    timeline = observer.timeline()
    print(timeline.heat_table())
"""

from __future__ import annotations

from repro.noc.signals import FlitMessage
from repro.sim.events import Event
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
        # (node, port, dst, vc) -> {window index: flit count}.
        self._counts: dict[tuple[int, str, int, int], dict[int, int]] = {}
        # arrival gate of a link -> its counter, tap(now, wire_vc).
        self._taps: dict = {
            gate: self._make_tap(node, port_name, dst)
            for node, port_name, dst, gate in network.link_arrival_gates(
                include_local=include_local
            )
        }
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

    def _make_tap(self, node: int, port: str, dst: int):
        """The windowed flit counter of one link."""
        counts = self._counts
        window = self.window

        def tap(now: int, wire_vc: int) -> None:
            key = (node, port, dst, wire_vc)
            windows = counts.get(key)
            if windows is None:
                counts[key] = windows = {}
            index = now // window
            windows[index] = windows.get(index, 0) + 1

        return tap

    # -- observer hooks -----------------------------------------------

    def arrival_taps(self) -> dict:
        """The per-link counters, which let the batched engine keep
        its fast path: it calls them on each tracked arrival."""
        return self._taps

    def on_event_delivered(
        self, simulator: Simulator, event: Event
    ) -> None:
        message = event.message
        if not isinstance(message, FlitMessage):
            return
        tap = self._taps.get(message.arrival_gate)
        if tap is not None:
            tap(event.time, message.wire_vc)

    def on_time_advanced(
        self, simulator: Simulator, old_time: int, new_time: int
    ) -> None:
        old_window = old_time // self.window
        new_window = new_time // self.window
        if new_window <= old_window:
            return
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

    # -- lifecycle ----------------------------------------------------

    def detach(self) -> None:
        """Stop observing (idempotent); collected data stays readable."""
        if self._attached:
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
