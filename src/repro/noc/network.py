"""Network assembly: topology + routing + config -> runnable model.

:class:`Network` is the main entry point of the flit-level model::

    topology = SpidergonTopology(16)
    traffic = TrafficSpec(UniformTraffic(topology), injection_rate=0.2)
    network = Network(topology, traffic=traffic, seed=7)
    result = network.run(cycles=20_000, warmup=5_000)
    print(result.throughput, result.avg_latency)

Each data link carries the latency its topology assigns it
(:meth:`~repro.topology.base.Topology.link_attrs`, default one cycle)
multiplied by the global ``config.link_delay`` knob; credit links are
zero-delay (signal-based flow control).  The routing algorithm
defaults to the paper's scheme for the given topology
(:func:`repro.routing.routing_for`), and the engine to the batched
cycle-synchronous one (:data:`repro.sim.engines.NETWORK_DEFAULT`)
unless ``engine=`` names another.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter

from repro.noc.config import NocConfig
from repro.noc.interface import NetworkInterface
from repro.noc.router import Router
from repro.noc.scheduler import CycleScheduler
from repro.noc.signals import FlitMessage
from repro.routing import RoutingAlgorithm, routing_for
from repro.routing.base import LOCAL_PORT
from repro.sim.engines import NETWORK_DEFAULT
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStream
from repro.stats.collectors import NetworkStats
from repro.stats.summary import RunResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficSpec


class Network:
    """A fully wired NoC simulation instance (single use).

    Whoever builds a network owns it and calls :meth:`close` once its
    results are exported: the model graph is cyclic (gates and their
    modules, modules and the simulator's registry, callbacks into the
    network), and closing cuts those cycles so reference counting
    frees the whole network at once instead of the cyclic garbage
    collector much later.  :func:`repro.experiments.runner.
    run_simulation` does this for every sweep point.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm | None = None,
        config: NocConfig | None = None,
        traffic: TrafficSpec | None = None,
        seed: int = 0,
        engine=None,
    ) -> None:
        self.topology = topology
        self.routing = routing if routing is not None else routing_for(
            topology
        )
        if self.routing.topology is not topology:
            raise ValueError(
                "routing algorithm was built for a different topology"
            )
        self.config = config if config is not None else NocConfig()
        self.traffic = traffic
        self.seed = seed
        self.num_vcs = (
            self.config.num_vcs
            if self.config.num_vcs is not None
            else self.routing.required_vcs
        )
        # The equivalence tests run the same network on every engine
        # and require byte-identical results; with none named, the
        # network default (batched) applies.
        self.simulator = Simulator(
            engine=NETWORK_DEFAULT if engine is None else engine
        )
        self.scheduler = CycleScheduler(self.simulator)
        self.stats = NetworkStats()
        self.routers: list[Router] = []
        self.interfaces: list[NetworkInterface] = []
        self._source_nodes: list[int] = []
        self._build()
        # Late-bind the routing algorithm to the built network:
        # adaptive schemes read live congestion through the routers
        # (a routing instance therefore serves one live network at a
        # time, like the dateline schemes' per-packet route state).
        self.routing.bind_network(self)
        #: The attached DrainController, if any (set by its ctor).
        self.drain_controller = None
        self._drain_listeners: list = []
        self._ran = False
        self._closed = False
        self.cycles_run = 0
        # Runtime-fault state (all empty on a healthy run).
        self._dead_links: set[tuple[int, int]] = set()
        self._fault_events: list[dict] = []
        self._flits_dropped_by_link: Counter[str] = Counter()
        self._packets_killed_by_link: Counter[str] = Counter()
        self._packets_rerouted = 0
        self._rerouted_packet_seen: set[int] = set()
        for router in self.routers:
            router.drop_sink = self._record_dropped_flit
            router.kill_sink = self._kill_unroutable
            router.reroute_sink = self._record_reroute
        for interface in self.interfaces:
            interface.drop_sink = self._record_dropped_flit
        # The model is fully wired: let the engine install any fast
        # paths (the batched engine builds its link tables here).
        self.simulator.engine.prepare_network(self)

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        topology = self.topology
        config = self.config
        if config.link_delay != 1 and not topology.is_uniform:
            # The global knob predates per-link attributes; scaling a
            # heterogeneous topology with it multiplies *every*
            # latency, which is rarely what a caller reaching for a
            # "slow links" effect wants any more.
            warnings.warn(
                "config.link_delay != 1 on a topology with "
                "heterogeneous link latencies: the global knob now "
                "acts as a multiplier on the per-link values; express "
                "non-uniform timing via Topology.link_attrs instead "
                "(see docs/timing_model.md)",
                DeprecationWarning,
                stacklevel=3,
            )
        # One numbering for the packets of this network: a point's
        # result must not depend on what else the process simulated
        # (O1TURN hashes packet ids into dimension orders).
        packet_ids = itertools.count()
        for node in range(topology.num_nodes):
            self.routers.append(
                Router(
                    self.simulator,
                    node,
                    self.routing,
                    config,
                    self.scheduler,
                    self.num_vcs,
                )
            )
            self.interfaces.append(
                NetworkInterface(
                    self.simulator,
                    node,
                    config,
                    self.scheduler,
                    self.stats,
                    self.num_vcs,
                    packet_ids,
                )
            )
        # Inter-router links: data forward, credit backward.  Each
        # data link carries the latency its topology assigns it,
        # scaled by the global config.link_delay multiplier.
        for link in topology.links():
            src_router = self.routers[link.src]
            dst_router = self.routers[link.dst]
            in_name = f"from{link.src}"
            data_in, credit_out = dst_router.add_input_port(in_name)
            data_out, credit_in = src_router.add_output_port(
                link.port, config.input_buffer_flits
            )
            data_out.connect(
                data_in, delay=link.latency * config.link_delay
            )
            credit_out.connect(credit_in, delay=0)
        # Local ports: router <-> NI, both directions.
        for node in range(topology.num_nodes):
            router = self.routers[node]
            ni = self.interfaces[node]
            # Injection: NI -> router.
            data_in, credit_out = router.add_input_port(LOCAL_PORT)
            ni.data_out.connect(data_in, delay=config.link_delay)
            credit_out.connect(ni.credit_in, delay=0)
            ni.set_injection_credits(config.input_buffer_flits)
            # Ejection: router -> NI (sink consumes instantly; its
            # logical buffer is one flit deep).
            data_out, credit_in = router.add_output_port(LOCAL_PORT, 1)
            data_out.connect(ni.data_in, delay=config.link_delay)
            ni.credit_out.connect(credit_in, delay=0)
        if self.traffic is not None:
            self._attach_traffic(self.traffic)

    def _attach_traffic(self, traffic: TrafficSpec) -> None:
        if traffic.pattern.topology is not self.topology:
            raise ValueError(
                "traffic pattern was built for a different topology"
            )
        self._source_nodes = traffic.pattern.sources()
        for node in self._source_nodes:
            rng = RngStream(self.seed, f"source{node}")
            self.interfaces[node].attach_traffic(traffic, rng)

    # -- execution ---------------------------------------------------------

    @property
    def num_sources(self) -> int:
        """Number of packet-generating nodes."""
        if self.traffic is None:
            return 0
        return len(self._source_nodes)

    def install_trace(self, trace) -> "object":
        """Attach a :class:`~repro.traffic.trace.Trace` for replay.

        May be combined with stochastic traffic (the trace adds to
        it) or used alone for fully deterministic workloads.  Must be
        called before :meth:`run`.

        Returns:
            The :class:`~repro.noc.trace_driver.TraceDriver`, whose
            ``packets_injected`` / ``packets_dropped`` counters are
            readable after the run.

        Raises:
            ValueError: if the trace references unknown nodes or the
                network already ran.
        """
        from repro.noc.trace_driver import TraceDriver

        if self._ran:
            raise ValueError("cannot install a trace after run()")
        trace.validate_for(self.topology)
        return TraceDriver(
            self.simulator,
            trace,
            self.interfaces,
            self.config.packet_size_flits,
        )

    def link_arrival_gates(
        self, include_local: bool = False
    ) -> list[tuple[int, str, int, "object"]]:
        """Every data link as ``(src, port, dst, arrival_gate)``.

        The arrival gate is the input :class:`~repro.sim.module.Gate`
        a :class:`~repro.noc.signals.FlitMessage` crossing the link is
        delivered to — the key kernel observers (:mod:`repro.obs`) use
        to attribute deliveries to links without instrumenting the
        routers themselves.  Ejection links (router -> NI, port
        ``"local"``) are included only when *include_local* is True.
        """
        links = []
        for router in self.routers:
            for port_name, data_gate in router.output_data_gates():
                if port_name == LOCAL_PORT and not include_local:
                    continue
                peer = data_gate.peer
                if peer is None:
                    continue
                links.append(
                    (router.node, port_name, peer.module.node, peer)
                )
        return links

    def flits_on_wire(self) -> dict[tuple["object", int], int]:
        """Flits sent but not yet delivered, per ``(arrival_gate,
        wire_vc)`` (keys with none are absent).

        Read from the simulator's pending events, so it is empty once
        the network is closed.  A drain controller's forced sends
        never use the wire and never show here.
        """
        counts: dict = {}
        for event in self.simulator.pending_events():
            message = event.message
            if isinstance(message, FlitMessage):
                key = (message.arrival_gate, message.wire_vc)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def link_attrs_of(self, node: int, port_name: str):
        """The :class:`~repro.topology.base.LinkAttrs` of the data
        link leaving *node* via *port_name*.

        Injection/ejection links (port ``"local"``) are not topology
        links; they report ``kind="local"`` with the configured
        uniform delay, so observers can label every link they see.
        """
        from repro.topology.base import LinkAttrs

        if port_name == LOCAL_PORT:
            return LinkAttrs(latency=1, width=1.0, kind="local")
        return self.topology.link_attrs(node, port_name)

    def link_flit_counts(self) -> dict[tuple[int, str], int]:
        """Flits forwarded per (node, output port) over the whole run.

        Includes the ejection port (``"local"``); injection flits are
        counted by the source NI, not here.  Divide by
        :attr:`cycles_run` for per-link utilization — a proxy for the
        per-link energy the paper's introduction lists among the on
        chip constraints.
        """
        counts = {}
        for router in self.routers:
            for port_name in router._outputs:
                counts[(router.node, port_name)] = router.flits_sent_on(
                    port_name
                )
        return counts

    # -- runtime faults ----------------------------------------------------

    @property
    def dead_links(self) -> frozenset[tuple[int, int]]:
        """Physical connections currently failed, as (low, high) pairs."""
        return frozenset(self._dead_links)

    @staticmethod
    def _link_key(a: int, b: int) -> str:
        low, high = (a, b) if a <= b else (b, a)
        return f"{low}-{high}"

    def fail_link(self, a: int, b: int) -> dict:
        """Sever the physical connection between *a* and *b* (both
        directed channels), effective immediately.

        Packets with an established wormhole route through the dead
        link — or with flits already queued on it — cannot detour and
        are killed (purged everywhere, with drop accounting); packets
        that merely *planned* to use it re-decide and detour via the
        residual shortest-path table where one exists.  Flits already
        on the wire drain normally: a killed packet's flits are
        dropped on arrival with their credit returned, so flow-control
        bookkeeping stays exact.

        Returns:
            A JSON-ready event record (also kept in the resilience
            report).

        Raises:
            ValueError: if the nodes are not adjacent or the link is
                already failed.
        """
        from repro.resilience.fallback import (
            FallbackTable,
            normalise_link,
        )

        pair = normalise_link((a, b))
        if pair in self._dead_links:
            raise ValueError(f"link {pair} is already failed")
        port_ab = self.topology.port_to(a, b)  # raises if not adjacent
        port_ba = self.topology.port_to(b, a)
        self._dead_links.add(pair)
        self.routers[a].dead_ports.add(port_ab)
        self.routers[b].dead_ports.add(port_ba)
        self.routing.on_fault_update(self.dead_links)
        if self.routing.adaptive:
            # Adaptive routing re-decides around faults natively;
            # the BFS fallback table would be dead weight.
            self._install_fallback(None)
            residual_connected = bool(
                getattr(self.routing, "fully_connected", False)
            )
        else:
            fallback = FallbackTable(self.topology, self._dead_links)
            self._install_fallback(fallback)
            residual_connected = fallback.fully_connected
        victims: dict[int, "object"] = {}
        for packet in self.routers[a].invalidate_routes_via(port_ab):
            victims[packet.packet_id] = packet
        for packet in self.routers[b].invalidate_routes_via(port_ba):
            victims[packet.packet_id] = packet
        key = self._link_key(a, b)
        killed = dropped = 0
        for packet in victims.values():
            flits = self.kill_packet(packet, key)
            killed += 1
            dropped += flits
        record = {
            "time": self.simulator.now,
            "action": "fail",
            "link": key,
            "packets_killed": killed,
            "flits_dropped": dropped,
            "residual_connected": residual_connected,
        }
        self._fault_events.append(record)
        return record

    def repair_link(self, a: int, b: int) -> dict:
        """Restore a previously failed connection (transient faults).

        Raises:
            ValueError: if the link is not currently failed.
        """
        from repro.resilience.fallback import (
            FallbackTable,
            normalise_link,
        )

        pair = normalise_link((a, b))
        if pair not in self._dead_links:
            raise ValueError(f"link {pair} is not failed")
        self._dead_links.discard(pair)
        self.routers[a].dead_ports.discard(self.topology.port_to(a, b))
        self.routers[b].dead_ports.discard(self.topology.port_to(b, a))
        self.routing.on_fault_update(self.dead_links)
        if not self.routing.adaptive and self._dead_links:
            self._install_fallback(
                FallbackTable(self.topology, self._dead_links)
            )
        else:
            self._install_fallback(None)
        record = {
            "time": self.simulator.now,
            "action": "repair",
            "link": self._link_key(a, b),
        }
        self._fault_events.append(record)
        return record

    def _install_fallback(self, fallback) -> None:
        for router in self.routers:
            router.fallback = fallback

    def kill_packet(self, packet, link_key: str) -> int:
        """Declare *packet* undeliverable because of *link_key*.

        Purges its flits from every router (returning lane credits)
        and marks it so flits still on the wire or at the source NI
        are dropped when they surface.  Idempotent per packet.

        Returns:
            Flits dropped right now (more may drain later).
        """
        if packet.killed:
            return 0
        packet.killed = True
        packet.route_state["killed_by"] = link_key
        self.stats.record_packet_killed(self.simulator.now)
        self._packets_killed_by_link[link_key] += 1
        dropped = 0
        for router in self.routers:
            dropped += router.purge_packet(packet)
        # Purges free queue slots and queue ownership, and the source
        # abandons the packet at its next send: wake every agent
        # holding work (each already has its place among the active
        # agents), until its next advance has seen the purge.
        for agent in (*self.routers, *self.interfaces):
            if agent.has_pending_work():
                self.scheduler.keep_awake(agent)
        return dropped

    def _kill_unroutable(
        self, packet, node: int, port_name: str
    ) -> None:
        """Router callback: *node* found no residual route for
        *packet* whose primary decision used dead *port_name*."""
        peer = self.topology.out_ports(node).get(port_name)
        key = (
            self._link_key(node, peer)
            if peer is not None
            else f"{node}:{port_name}"
        )
        self.kill_packet(packet, key)

    def _record_dropped_flit(self, flit) -> None:
        self.stats.record_dropped_flit(self.simulator.now)
        link = flit.packet.route_state.get("killed_by")
        if link is not None:
            self._flits_dropped_by_link[link] += 1

    def _record_reroute(self, node: int, packet) -> None:
        if packet.packet_id not in self._rerouted_packet_seen:
            self._rerouted_packet_seen.add(packet.packet_id)
            self._packets_rerouted += 1

    # -- drain recovery ----------------------------------------------------

    def add_drain_listener(self, listener) -> None:
        """Register ``listener(kind, flit, src, dst, vc)`` for forced
        drain moves: ``kind`` is ``"pull"`` (lane to queue, src ==
        dst) or ``"send"`` (across the loop link src -> dst).  Used
        by the observability layer (flit traces, timelines) to keep
        recovery activity visible."""
        self._drain_listeners.append(listener)

    def remove_drain_listener(self, listener) -> None:
        """Unregister a listener added by :meth:`add_drain_listener`
        (observers do on ``detach``); a no-op once the network is
        closed, which drops every listener.

        Raises:
            ValueError: if *listener* is not registered.
        """
        if not self._closed:
            self._drain_listeners.remove(listener)

    def notify_drain_move(
        self, kind: str, flit, src: int, dst: int, vc: int
    ) -> None:
        """Fan a forced drain move out to the registered listeners
        (called by the :class:`~repro.resilience.drain.DrainController`
        mid-epoch)."""
        for listener in self._drain_listeners:
            listener(kind, flit, src, dst, vc)

    def flits_consumed(self) -> int:
        """Flits consumed at their destinations, warmup included: the
        monotone *progress* counter the stall watchdog and the drain
        controller watch.

        Deliberately excludes injections and fault drops — a network
        that only generates and kills traffic (every destination
        unreachable) is not making progress.
        """
        return self.stats.flits_consumed + self.stats.warmup_flits_consumed

    def work_outstanding(self) -> bool:
        """Whether any router buffers a flit or any source has a
        backlog: a quiet network with work outstanding is stuck, one
        without is idle."""
        return any(
            router.total_buffered_flits() for router in self.routers
        ) or any(
            interface.backlog_packets for interface in self.interfaces
        )

    @property
    def packets_rerouted(self) -> int:
        """Distinct packets that took at least one fallback detour."""
        return self._packets_rerouted

    def resilience_summary(self) -> dict:
        """JSON-ready report of the run's fault activity."""
        return {
            "fault_events": list(self._fault_events),
            "dead_links": sorted(
                self._link_key(a, b) for a, b in self._dead_links
            ),
            "flits_dropped": self.stats.flits_dropped,
            "packets_killed": self.stats.packets_killed,
            "packets_rerouted": self._packets_rerouted,
            "flits_dropped_by_link": dict(
                sorted(self._flits_dropped_by_link.items())
            ),
            "packets_killed_by_link": dict(
                sorted(self._packets_killed_by_link.items())
            ),
        }

    def run(self, cycles: int, warmup: int = 0) -> RunResult:
        """Simulate *cycles* cycles; measure after *warmup* cycles.

        Raises:
            ValueError: on a non-positive horizon, a warmup that
                leaves no measurement window, or a second call (build
                a fresh Network per run).
        """
        if cycles <= 0:
            raise ValueError(f"cycles must be > 0, got {cycles}")
        if not 0 <= warmup < cycles:
            raise ValueError(
                f"warmup must be in [0, cycles), got {warmup}"
            )
        if self._ran or self._closed:
            raise ValueError(
                "Network.run is single-use; construct a new Network"
            )
        self._ran = True
        self.stats.warmup_cycles = warmup
        self.simulator.run(until=cycles)
        stopped_early = self.simulator.stop_requested
        self.cycles_run = (
            self.simulator.now if stopped_early else cycles
        )
        result = RunResult.from_stats(
            self.stats,
            events_processed=self.simulator.events_processed,
            topology_name=self.topology.name,
            routing_name=self.routing.name,
            pattern_name=(
                self.traffic.pattern.name if self.traffic else "none"
            ),
            num_nodes=self.topology.num_nodes,
            num_sources=self.num_sources,
            injection_rate=(
                self.traffic.injection_rate if self.traffic else 0.0
            ),
            # A degraded run's metrics cover the truncated horizon
            # (clamped so a trip inside warmup still leaves a
            # measurement window for the throughput division).
            cycles=max(self.cycles_run, warmup + 1),
            seed=self.seed,
        )
        if self._fault_events or self.stats.flits_dropped:
            result.extra["resilience"] = self.resilience_summary()
        if self.drain_controller is not None:
            result.extra["drain"] = self.drain_controller.summary()
        if stopped_early:
            result.degraded = True
            details = self.simulator.stop_details or {}
            result.extra["stall"] = {
                "reason": self.simulator.stop_reason,
                **details,
            }
        # Single use: the engine may drop its per-run wiring now.
        self.simulator.engine.release_network(self)
        return result

    def close(self) -> None:
        """Cut every reference cycle through this network, so it is
        freed by reference counting as soon as its owner lets go
        (idempotent; :meth:`run` raises afterwards).

        Drops the engine's hold on the network, closes the simulator
        (pending events, observers, the module registry, and each
        module's gate links, compiled phases and callbacks — see
        :meth:`Simulator.close <repro.sim.kernel.Simulator.close>`),
        unbinds the routing algorithm, and forgets the drain
        controller and drain listeners.  Buffers, counters, stats and
        the topology stay readable; pending events do not.
        """
        if self._closed:
            return
        self._closed = True
        self.simulator.engine.release_network(self)
        self.simulator.close()
        self.routing.bind_network(None)
        self.drain_controller = None
        self._drain_listeners.clear()
