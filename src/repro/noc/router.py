"""The wormhole router (paper figure 4, minus the IP-side interface).

Per node the router owns:

* per incoming link, one **input lane** per virtual channel (each one
  flit deep by default — the paper's "one-flit buffer" per incoming
  link, provisioned per VC so the dateline deadlock-avoidance
  discipline is sound; see below),
* per outgoing link, ``num_vcs`` **output queues** (three flits deep
  by default — a pair per link on Ring and Spidergon, "used both for
  virtual channel management and deadlock avoidance", a single queue
  on Mesh),
* an output port toward the local network interface (ejection) and an
  input port from it (injection), treated exactly like link ports.

Behaviour per cycle (driven by the
:class:`~repro.noc.scheduler.CycleScheduler`):

* **advance phase** — for each input port, examine the head flits of
  its lanes (round-robin).  Head flits ask the routing algorithm for
  an output (port, VC) and must win the queue's wormhole ownership;
  body flits follow the switching state their head established.  An
  admitted flit moves to the output queue and a per-VC credit returns
  upstream with zero delay.  At most one flit advances per input port
  per cycle (the crossbar input bandwidth).
* **send phase** — for each output port, pick one output queue
  round-robin among those whose head flit is ready (enqueued in an
  earlier cycle, when the one-cycle pipeline is on) and whose VC has
  downstream credit, and forward the flit on the link.

Both phases move at most one flit per port per cycle, which bounds
every physical link — including the ejection link, whose one
flit/cycle ceiling is the hot-spot bottleneck the paper measures.

Each phase is written once, as a builder compiled per router at its
first phase call (:func:`_make_router_advance`, :func:`_make_router_send`);
every engine runs those functions, and only the credit emitter and
flit sinks they call differ (see :meth:`Router.use_gates`).  Each
returns whether it moved a flit, so the scheduler can let a blocked
router sleep until something wakes it.

Why per-VC input lanes: with a single shared one-flit input buffer, a
VC0 flit blocked in the buffer stalls VC1 flits arriving on the same
link, so VC1 channels inherit VC0 dependencies and the ring's channel
dependency cycle closes despite the dateline (observed as a hard
deadlock under uniform traffic).  Splitting the input stage per VC is
the textbook virtual-channel router organisation and restores the
acyclicity argument: VC1 resources never wait on VC0 resources.
"""

from __future__ import annotations

from repro.noc.buffers import FlitFifo, OutputQueue, SwitchingState
from repro.noc.config import NocConfig
from repro.noc.signals import (
    CreditMessage,
    FlitMessage,
    gate_credit_records,
    send_credit,
    send_flit,
)
from repro.routing.base import LOCAL_PORT, RoutingAlgorithm
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import Gate, SimModule


class _InputPort:
    """State of one incoming link: per-VC lanes + switching state."""

    __slots__ = (
        "name",
        "lanes",
        "switching",
        "credit_gate",
        "credit_records",
        "rr_next_lane",
        "pending",
    )

    def __init__(
        self,
        name: str,
        num_lanes: int,
        lane_capacity: int,
        credit_gate: Gate,
    ) -> None:
        self.name = name
        self.lanes = [FlitFifo(lane_capacity) for _ in range(num_lanes)]
        self.switching = SwitchingState()
        self.credit_gate = credit_gate
        # Per-VC records the router's credit emitter consumes when a
        # lane slot frees (see Router.use_gates).
        self.credit_records = gate_credit_records(credit_gate, num_lanes)
        self.rr_next_lane = 0
        # Routing decision taken for a head flit that has not yet won
        # its output queue (one per lane); routing algorithms are
        # consulted exactly once per packet per router.
        self.pending: dict[int, tuple[str, int]] = {}

    def occupancy(self) -> int:
        return sum(len(lane) for lane in self.lanes)


class _OutputPort:
    """State of one outgoing link: VC queues + per-VC credits."""

    __slots__ = (
        "name",
        "queues",
        "credits",
        "data_gate",
        "flit_link",
        "flit_sink",
        "rr_next_vc",
        "flits_sent",
        "flits_sent_by_vc",
    )

    def __init__(
        self,
        name: str,
        num_vcs: int,
        queue_capacity: int,
        downstream_capacity: int,
        data_gate: Gate,
    ) -> None:
        self.name = name
        self.queues = [
            OutputQueue(name, vc, queue_capacity) for vc in range(num_vcs)
        ]
        self.credits = [downstream_capacity] * num_vcs
        self.data_gate = data_gate
        # ``sink((link, flit))`` puts a flit on the link whose key is
        # ``flit_link`` (see Router.use_gates).
        self.flit_link = data_gate
        self.flit_sink = send_flit
        self.rr_next_vc = 0
        self.flits_sent = 0
        self.flits_sent_by_vc = [0] * num_vcs

    def occupancy(self) -> int:
        return sum(len(queue) for queue in self.queues)


class Router(SimModule):
    """One NoC switch, attached to node *node* of the topology."""

    def __init__(
        self,
        simulator: Simulator,
        node: int,
        routing: RoutingAlgorithm,
        config: NocConfig,
        scheduler,
        num_vcs: int,
    ) -> None:
        super().__init__(simulator, f"router{node}")
        self.node = node
        self.routing = routing
        self.config = config
        self.scheduler = scheduler
        self.num_vcs = num_vcs
        # Returns one upstream credit, given a port's credit record
        # (see use_gates).
        self.emit_credit = send_credit
        # Runtime-fault state, managed by the owning Network: output
        # ports currently severed by a link failure, the residual
        # routing table that detours around them, and the callbacks
        # (drop accounting, network-wide packet kill, reroute tally)
        # the network installs after construction.
        self.dead_ports: set[str] = set()
        self.fallback = None
        self.drop_sink = None
        self.kill_sink = None
        self.reroute_sink = None
        # Drain-epoch bookkeeping: forced moves executed on this
        # router by the DrainController (see repro.resilience.drain).
        self.drain_moves = 0
        self._inputs: dict[str, _InputPort] = {}
        self._outputs: dict[str, _OutputPort] = {}
        self._input_order: list[_InputPort] = []
        self._output_order: list[_OutputPort] = []
        self._input_of_gate: dict[Gate, _InputPort] = {}
        self._output_of_gate: dict[Gate, _OutputPort] = {}
        # Every lane's and queue's flit deque: the router has work
        # while any of them is non-empty.
        self._deques: list = []

    # -- wiring (done by the Network builder) --------------------------

    def add_input_port(self, name: str) -> tuple[Gate, Gate]:
        """Create an input port; returns (data-in gate, credit-out gate)."""
        data_gate = self.add_gate(f"data_in:{name}")
        credit_gate = self.add_gate(f"credit_out:{name}")
        port = _InputPort(
            name,
            self.num_vcs,
            self.config.input_buffer_flits,
            credit_gate,
        )
        self._inputs[name] = port
        self._input_order.append(port)
        self._input_of_gate[data_gate] = port
        self._deques += [lane._flits for lane in port.lanes]
        return data_gate, credit_gate

    def add_output_port(
        self, name: str, downstream_capacity: int
    ) -> tuple[Gate, Gate]:
        """Create an output port; returns (data-out gate, credit-in gate)."""
        data_gate = self.add_gate(f"data_out:{name}")
        credit_gate = self.add_gate(f"credit_in:{name}")
        port = _OutputPort(
            name,
            self.num_vcs,
            self.config.output_buffer_flits,
            downstream_capacity,
            data_gate,
        )
        self._outputs[name] = port
        self._output_order.append(port)
        self._output_of_gate[credit_gate] = port
        self._deques += [queue._flits for queue in port.queues]
        return data_gate, credit_gate

    def use_gates(self) -> None:
        """Send credits and flits as messages over the gates — the
        wiring routers are built with, which the batched fast path
        replaces and restores — and drop phase functions compiled
        against another wiring."""
        self.emit_credit = send_credit
        for port in self._input_order:
            port.credit_records = gate_credit_records(
                port.credit_gate, self.num_vcs
            )
        for port in self._output_order:
            port.flit_link = port.data_gate
            port.flit_sink = send_flit
        vars(self).pop("advance_phase", None)
        vars(self).pop("send_phase", None)

    # -- message handling ----------------------------------------------

    def handle_message(self, message: Message) -> None:
        if isinstance(message, FlitMessage):
            self.receive_flit(
                self._input_of_gate[message.arrival_gate],
                message.wire_vc,
                message.flit,
            )
            return
        if isinstance(message, CreditMessage):
            self.receive_credit(
                self._output_of_gate[message.arrival_gate], message.vc
            )
            return
        raise TypeError(f"{self.name}: unexpected message {message!r}")

    def receive_flit(self, port: _InputPort, wire_vc: int, flit) -> None:
        """A flit arrived on input *port* (wire or batched record)."""
        if flit.packet.killed:
            # The packet was declared undeliverable while this flit
            # was on the wire: drop it on arrival, returning the
            # credit so upstream bookkeeping stays exact.
            self.emit_credit(port.credit_records[wire_vc])
            if self.drop_sink is not None:
                self.drop_sink(flit)
            return
        port.lanes[wire_vc].push(flit)
        self.scheduler.activate(self)

    def receive_credit(self, port: _OutputPort, vc: int) -> None:
        """A downstream credit returned for output *port*."""
        port.credits[vc] += 1
        self.scheduler.activate(self)

    # -- cycle phases ----------------------------------------------------
    #
    # The first call compiles both phases against the current wiring
    # and binds them over these methods on the instance.

    def advance_phase(self) -> bool:
        """Move up to one flit per input port into its output queue;
        True if any moved (or a packet was killed)."""
        self._compile_phases()
        return self.advance_phase()

    def send_phase(self) -> bool:
        """Forward up to one ready flit per output port; True if any
        was sent."""
        self._compile_phases()
        return self.send_phase()

    def _compile_phases(self) -> None:
        self.advance_phase = _make_router_advance(self)
        self.send_phase = _make_router_send(self)

    def close(self) -> None:
        """Also drop the compiled phases and the owner's callbacks
        (both refer back to this router); buffers, counters and
        occupancy stay readable."""
        super().close()
        vars(self).pop("advance_phase", None)
        vars(self).pop("send_phase", None)
        self.drop_sink = self.kill_sink = self.reroute_sink = None

    # -- runtime faults --------------------------------------------------

    def _reroute(self, packet) -> tuple[str, int] | None:
        """Detour (port, vc) around a dead output, or None when the
        residual graph offers no path to ``packet.dst``.

        Detours always use VC 0: the fallback table is shortest-path
        over an arbitrary residual graph, so no dateline argument
        applies — acceptable for degraded operation, which the run
        flags via the resilience report.

        Adaptive algorithms handle faults natively: their re-decision
        (fault-aware since the network's ``on_fault_update``) replaces
        the legacy BFS table, which they never consult.
        """
        if self.routing.adaptive:
            decision = self.routing.decide(self.node, packet)
            if decision.port in self.dead_ports:
                # The algorithm itself funnels unreachable packets
                # into a dead port: no residual path exists.
                return None
            if self.reroute_sink is not None:
                self.reroute_sink(self.node, packet)
            return decision.port, min(decision.vc, self.num_vcs - 1)
        if self.fallback is None:
            return None
        out_port = self.fallback.next_port(self.node, packet.dst)
        if out_port is None or out_port in self.dead_ports:
            return None
        if self.reroute_sink is not None:
            self.reroute_sink(self.node, packet)
        return out_port, 0

    def invalidate_routes_via(self, port_name: str) -> list:
        """React to output *port_name* dying: forget parked routing
        decisions through it (their packets re-decide and detour) and
        return the packets that cannot detour — those with an
        established wormhole route through the port or with flits
        already sitting in its queues — for the network to kill.
        """
        victims: list = []
        for port in self._input_order:
            stale = [
                wire_vc
                for wire_vc, (out_port, _) in port.pending.items()
                if out_port == port_name
            ]
            for wire_vc in stale:
                del port.pending[wire_vc]
            victims.extend(port.switching.packets_via(port_name))
        for queue in self._outputs[port_name].queues:
            victims.extend({flit.packet for flit in queue.flits()})
        return victims

    def purge_packet(self, packet) -> int:
        """Remove every flit of *packet* from this router (fault
        handling), returning upstream credits for freed lane slots and
        recording each removed flit through the drop sink.

        Returns:
            The number of flits removed here.
        """
        dropped = 0
        for port in self._input_order:
            for wire_vc, lane in enumerate(port.lanes):
                removed = lane.remove_packet(packet)
                if not removed:
                    continue
                dropped += len(removed)
                port.pending.pop(wire_vc, None)
                record = port.credit_records[wire_vc]
                for flit in removed:
                    self.emit_credit(record)
                    if self.drop_sink is not None:
                        self.drop_sink(flit)
            port.switching.clear_packet(packet)
        for out_port in self._output_order:
            for queue in out_port.queues:
                removed = queue.remove_packet(packet)
                dropped += len(removed)
                for flit in removed:
                    if self.drop_sink is not None:
                        self.drop_sink(flit)
                if queue.owner is packet:
                    queue.owner = None
        return dropped

    # -- drain recovery (forced-move phase) ------------------------------
    #
    # The primitives below implement one router's share of a drain
    # epoch (see repro.resilience.drain): the DrainController plans a
    # rotation along a preconfigured ring of (output queue, input
    # lane) resources and executes it through these methods, which
    # keep every flow-control counter exact.  ``drain_moves`` is the
    # router's epoch bookkeeping: forced moves executed here.

    def drain_queue_info(
        self, port_name: str, vc: int, now: int
    ) -> tuple[bool, bool, int]:
        """Drain-plan view of output queue ``(port, vc)``.

        Returns:
            ``(has_head, can_claim, free_slots)`` — whether the queue
            holds a flit to force-send, whether a redirected head
            flit may legally be enqueued this cycle (no worm in
            progress, no enqueue this cycle), and how many slots are
            free right now (the controller adds one when it also
            pops the head).
        """
        queue = self._outputs[port_name].queues[vc]
        can_claim = (
            queue.owner is None and queue.last_enqueue_cycle != now
        )
        return (
            not queue.is_empty,
            can_claim,
            queue.capacity - len(queue),
        )

    def drain_lane_room(self, input_name: str, vc: int) -> int:
        """Free slots in input lane ``(input_name, vc)`` right now."""
        lane = self._inputs[input_name].lanes[vc]
        return lane.capacity - len(lane)

    def drain_find_pull(
        self,
        loop_out: str,
        vc: int,
        loop_in: str,
        assume_pop: bool,
        now: int,
    ) -> tuple[str, int, str, int] | None:
        """Plan one lane-to-queue move for a drain rotation.

        Scans the input lanes — loop input first, then the rest in
        port order — for a lane-head flit that can advance this
        cycle:

        * a **body** flit follows its established switching route
          (wormhole order is inviolable);
        * a **head** flit follows its parked routing decision when
          that queue has room, and is otherwise *misrouted* onto the
          loop output queue ``(loop_out, vc)`` — the DRAIN move that
          breaks dependency cycles (routing re-decides downstream).

        *assume_pop* credits the loop queue with one extra slot (the
        controller plans to force-send its head in the same epoch).
        Returns ``(input name, wire vc, out port, out vc)`` or None;
        mutates nothing.
        """
        ordered = sorted(
            self._inputs.values(),
            key=lambda p: (p.name != loop_in, p.name),
        )
        for port in ordered:
            for wire_vc, lane in enumerate(port.lanes):
                flit = lane.head()
                if flit is None or flit.packet.killed:
                    continue
                if flit.is_head:
                    targets = []
                    pending = port.pending.get(wire_vc)
                    if pending is not None:
                        targets.append(pending)
                    if flit.packet.dst != self.node:
                        targets.append((loop_out, vc))
                else:
                    if not port.switching.has_route(wire_vc):
                        continue  # pragma: no cover - defensive
                    targets = [
                        port.switching.route_of(
                            wire_vc, flit.packet
                        )
                    ]
                for out_port, out_vc in targets:
                    if out_port in self.dead_ports:
                        continue
                    queue = self._outputs[out_port].queues[out_vc]
                    if queue.last_enqueue_cycle == now:
                        continue
                    if flit.is_head:
                        if queue.owner is not None:
                            continue
                    elif queue.owner is not flit.packet:
                        continue  # pragma: no cover - defensive
                    free = queue.capacity - len(queue)
                    if (
                        assume_pop
                        and (out_port, out_vc) == (loop_out, vc)
                        and not queue.is_empty
                    ):
                        free += 1
                    if free < 1:
                        continue
                    return port.name, wire_vc, out_port, out_vc
        return None

    def drain_execute_pull(
        self,
        input_name: str,
        wire_vc: int,
        out_port: str,
        out_vc: int,
        now: int,
    ):
        """Execute a planned pull: move the lane head into the queue.

        For a head flit this commits (or overrides) its routing
        decision — switching state, queue ownership and the upstream
        credit behave exactly as for a won allocation; body flits
        just continue their worm.  Returns the flit.
        """
        port = self._inputs[input_name]
        lane = port.lanes[wire_vc]
        flit = lane.head()
        if flit.is_head:
            port.pending.pop(wire_vc, None)
            port.switching.set_route(
                wire_vc, flit.packet, out_port, out_vc
            )
        lane.pop()
        self._outputs[out_port].queues[out_vc].enqueue(flit, now)
        if flit.is_tail:
            port.switching.clear(wire_vc)
        port.rr_next_lane = (wire_vc + 1) % len(port.lanes)
        self.emit_credit(port.credit_records[wire_vc])
        self.drain_moves += 1
        self.scheduler.keep_awake(self)
        return flit

    def drain_pop_for_send(self, port_name: str, vc: int):
        """Forced send, upstream half: pop the loop queue head and
        account for it exactly like :meth:`send_phase` (credit
        consumed, hop counted) — the controller delivers the flit
        into the downstream lane with zero wire delay.

        Wakes nothing itself.  The router could not send this flit,
        so the downstream lane had no room: the controller pulls from
        that lane in the same epoch, and the pull's credit wakes this
        router (which leaves the active set if the pop emptied it).
        A lane head the freed slot unblocks is found by this router's
        own pull, planned with the pop in view, which also wakes it.
        """
        port = self._outputs[port_name]
        queue = port.queues[vc]
        flit = queue.pop()
        port.credits[vc] -= 1
        port.flits_sent += 1
        port.flits_sent_by_vc[vc] += 1
        if flit.is_head and port.name != LOCAL_PORT:
            flit.packet.hops += 1
        flit.wire_vc = vc
        self.drain_moves += 1
        return flit

    def drain_deliver(self, input_name: str, wire_vc: int, flit) -> None:
        """Forced send, downstream half: accept *flit* into the loop
        input lane (killed packets drop on arrival with their credit
        returned, as on a normal wire delivery)."""
        self.receive_flit(self._inputs[input_name], wire_vc, flit)

    def has_pending_work(self) -> bool:
        """True while any lane or queue holds a flit."""
        return any(self._deques)

    # -- introspection (tests, debugging) --------------------------------

    def input_occupancy(self, name: str, vc: int | None = None) -> int:
        port = self._inputs[name]
        if vc is None:
            return port.occupancy()
        return len(port.lanes[vc])

    def output_occupancy(self, name: str, vc: int | None = None) -> int:
        port = self._outputs[name]
        if vc is None:
            return port.occupancy()
        return len(port.queues[vc])

    def credits_for(self, name: str, vc: int = 0) -> int:
        return self._outputs[name].credits[vc]

    def flits_sent_on(self, name: str, vc: int | None = None) -> int:
        """Flits forwarded on output port *name* (one VC, or all)."""
        port = self._outputs[name]
        if vc is None:
            return port.flits_sent
        return port.flits_sent_by_vc[vc]

    def output_data_gates(self) -> list[tuple[str, Gate]]:
        """Every output port as ``(name, data gate)`` — the public
        wiring view observers use to map links without reaching into
        the router's internals."""
        return [
            (port.name, port.data_gate) for port in self._output_order
        ]

    def occupancy_snapshot(self) -> dict[str, dict[str, list[int]]]:
        """Per-port, per-VC buffer occupancy right now.

        Returns:
            ``{"inputs": {port: [flits per lane]},
            "outputs": {port: [flits per queue]}}`` — the shape the
            occupancy timeline and congestion diagnostics consume.
        """
        return {
            "inputs": {
                port.name: [len(lane) for lane in port.lanes]
                for port in self._input_order
            },
            "outputs": {
                port.name: [len(queue) for queue in port.queues]
                for port in self._output_order
            },
        }

    def total_buffered_flits(self) -> int:
        """Every flit currently inside this router."""
        return sum(p.occupancy() for p in self._input_order) + sum(
            p.occupancy() for p in self._output_order
        )

    def peak_buffer_occupancy(self) -> int:
        """Deepest any single lane or queue got so far (flits)."""
        peaks = [
            lane.peak
            for port in self._input_order
            for lane in port.lanes
        ]
        peaks.extend(
            queue.peak
            for port in self._output_order
            for queue in port.queues
        )
        return max(peaks, default=0)


# -- batched fast-path arrivals ----------------------------------------
#
# On the batched engine's fast path a flit on the wire is the plain
# record ``(entry, flit)`` its sender's sink was given, and a credit is
# its *entry* alone.  Entries are bound per link at install time:
#
# * a router input: ``(lanes, router, port)``;
# * an NI's ejection input: ``(ni, stats)``;
# * a router output VC's credit: ``(credits, vc, router)``;
# * an NI's injection credit: ``(ni,)``.
#
# :func:`deliver_records` is Router.receive_flit/receive_credit and
# NetworkInterface.receive_flit/receive_credit with the call chain
# inlined; the anomalous branches (killed packets, buffer overflow,
# misrouted flits) delegate to those methods.  Change both or neither:
# the equivalence suite pins them together byte for byte.


def arrival_entry(gate: Gate) -> tuple:
    """The arrival entry of the data link leaving *gate*."""
    peer = gate.peer
    target = peer.module
    if isinstance(target, Router):
        port = target._input_of_gate[peer]
        return (tuple(port.lanes), target, port)
    return (target, target.stats)


def credit_entries(gate: Gate, num_vcs: int) -> list[tuple]:
    """Per-VC credit entries of the credit link leaving *gate*."""
    peer = gate.peer
    target = peer.module
    if isinstance(target, Router):
        credits = target._output_of_gate[peer].credits
        return [(credits, vc, target) for vc in range(num_vcs)]
    return [(target,)] * num_vcs


def deliver_records(lane, index, stop, now, scheduler, emitted) -> int:
    """Apply the records ``lane[index:stop]`` in order, as of cycle
    *now*, and return the index where it stopped: *stop*, or the first
    item that is not a record (an event).

    An ejection's credit, and the credits a killed packet's dropped
    flit emits into *emitted*, are appended to *lane*, past *stop*.
    """
    agents = scheduler._agents
    for index in range(index, stop):
        record = lane[index]
        if record.__class__ is not tuple:
            return index
        size = len(record)
        if size == 2:
            entry, flit = record
            if len(entry) == 3:
                lanes, router, port = entry
                if flit.packet.killed:
                    router.receive_flit(port, flit.wire_vc, flit)
                    lane += emitted
                    emitted.clear()
                    continue
                fifo = lanes[flit.wire_vc]
                dq = fifo._flits
                held = len(dq)
                if held >= fifo.capacity:
                    fifo.push(flit)  # raises the flow-control error
                dq.append(flit)
                if held >= fifo.peak:
                    fifo.peak = held + 1
                agents[router] = True
                if scheduler._tick_time is None:
                    scheduler.activate(router)
                continue
            ni, stats = entry
            packet = flit.packet
            if packet.killed:
                ni.receive_flit(flit)
                lane += emitted
                emitted.clear()
                continue
            if packet.dst != ni.node:
                ni._consume(flit)  # raises the misroute error
            lane.append(ni.credit_records[flit.wire_vc])
            stats.record_consumed_flit(now)
            if flit.index == packet.size_flits - 1:
                stats.record_packet_delivered(packet, now)
        elif size == 3:
            credits, vc, router = record
            credits[vc] += 1
            agents[router] = True
            if scheduler._tick_time is None:
                scheduler.activate(router)
        else:
            ni = record[0]
            ni._credits += 1
            if ni._backlog:
                agents[ni] = True
                if scheduler._tick_time is None:
                    scheduler.activate(ni)
    return stop


def _round_robin_tables(count):
    """``(rotations, successor)`` for a round-robin pointer over
    *count* slots: ``rotations[p]`` visits every slot starting at
    ``p``, and ``successor[s]`` is the pointer after slot ``s`` wins."""
    rotations = tuple(
        tuple((start + offset) % count for offset in range(count))
        for start in range(count)
    )
    successor = tuple((slot + 1) % count for slot in range(count))
    return rotations, successor


def _make_router_advance(router):
    """Compile *router*'s advance phase: move up to one flit per input
    port into its output queue, returning one upstream credit per
    move through the router's credit emitter.

    Separable two-step allocation:

    1. every input port nominates one candidate flit (first lane in
       its round-robin order whose flit could move this cycle);
    2. body flits move directly (their queue is owned by their
       packet, so no two candidates collide); head flits *claiming* a
       free queue are arbitrated per queue with a rotating grant
       priority stored on the queue itself.

    Per-queue grant rotation matters: any router-global pointer
    resonates when its period divides the packet length (e.g. 3
    ports x 6-flit packets) and then one input captures an output
    queue forever, starving the local source — observed as zero
    delivered packets from distance-1 nodes under hot-spot load.

    Routing is consulted once per packet per router; a decision that
    cannot be realised yet is parked in ``port.pending``.  With fewer
    VCs than the routing asks for (the 1-VC ablation), packets take
    the highest queue, losing the dateline's deadlock guarantee.

    Two bodies, one per VC count: a single-VC one (the mesh family:
    one lane per port, no lane loop) and a multi-VC one (ring,
    Spidergon and the rest), each binding its per-port state once at
    compile time.  Both return whether a flit moved or a packet was
    killed.
    """
    sim = router.simulator
    emit = router.emit_credit
    input_order = router._input_order
    num_inputs = len(input_order)
    outputs = router._outputs
    node = router.node
    decide = router.routing.decide
    max_vc = router.num_vcs - 1
    dead_ports = router.dead_ports

    if router.num_vcs == 1:
        # Single-VC variant (the mesh family): one lane per input
        # port, one queue per output port, so wire VC and output VC
        # are both always 0 and the round-robin lane pointer is
        # constant — the lane loop, the modular arithmetic and the
        # per-call attribute walks all collapse.
        inputs = [
            (
                index,
                port.lanes[0]._flits,
                port.switching._state,
                port.switching,
                port.pending,
                port.credit_records[0],
            )
            for index, port in enumerate(input_order)
        ]

        def advance_single():
            now = sim._now
            claims = None
            moved = False
            for entry in inputs:
                dq = entry[1]
                if not dq:
                    continue
                (
                    index,
                    dq,
                    state,
                    switching,
                    pending_map,
                    record0,
                ) = entry
                flit = dq[0]
                if flit.index == 0 and not state:
                    pending = pending_map.get(0)
                    if pending is None:
                        decision = decide(node, flit.packet)
                        pending = (decision.port, 0)
                        if decision.port in dead_ports:
                            pending = router._reroute(flit.packet)
                            if pending is None:
                                router.kill_sink(
                                    flit.packet, node, decision.port
                                )
                                moved = True
                                continue
                        pending_map[0] = pending
                    queue = outputs[pending[0]].queues[pending[1]]
                    if (
                        len(queue._flits) >= queue.capacity
                        or queue.last_enqueue_cycle == now
                        or queue.owner is not None
                    ):
                        continue
                    if claims is None:
                        claims = {}
                    entry = claims.get(queue)
                    if entry is None:
                        claims[queue] = entry = []
                    entry.append(
                        (index, dq, state, switching, pending_map,
                         record0, flit)
                    )
                    continue
                # Body flit (an interleaved head raises in route_of).
                entry = state.get(0)
                if entry is None or entry[0] is not flit.packet:
                    switching.route_of(0, flit.packet)
                queue = outputs[entry[1]].queues[entry[2]]
                qd = queue._flits
                if (
                    len(qd) >= queue.capacity
                    or queue.last_enqueue_cycle == now
                    or queue.owner is not flit.packet
                ):
                    continue
                # The move (body flit: no ownership change on entry;
                # rr_next_lane stays 0).
                dq.popleft()
                flit.enqueued_at = now
                qd.append(flit)
                occupancy = len(qd)
                if occupancy > queue.peak:
                    queue.peak = occupancy
                queue.last_enqueue_cycle = now
                if flit.index == flit.packet.size_flits - 1:
                    queue.owner = None
                    del state[0]
                emit(record0)
                moved = True
            if claims is not None:
                for queue, requests in claims.items():
                    if len(requests) == 1:
                        winner = requests[0]
                    else:
                        grant = queue.rr_grant
                        winner = min(
                            requests,
                            key=lambda req: (
                                (req[0] - grant) % num_inputs
                            ),
                        )
                    (
                        index,
                        dq,
                        state,
                        switching,
                        pending_map,
                        record0,
                        flit,
                    ) = winner
                    queue.rr_grant = (index + 1) % num_inputs
                    del pending_map[0]
                    switching.set_route(0, flit.packet, queue.port, 0)
                    # The move (head: takes ownership).
                    dq.popleft()
                    queue.owner = flit.packet
                    flit.enqueued_at = now
                    qd = queue._flits
                    qd.append(flit)
                    occupancy = len(qd)
                    if occupancy > queue.peak:
                        queue.peak = occupancy
                    queue.last_enqueue_cycle = now
                    if flit.index == flit.packet.size_flits - 1:
                        queue.owner = None
                        state.pop(0, None)
                    emit(record0)
                return True
            return moved

        return advance_single

    # Multi-VC variant (ring, Spidergon and every other family with
    # VCs): the same per-port entries, with every lane's deque and the
    # port's credit records.  The round-robin lane order and the
    # pointer's successor come from tables indexed by ``rr_next_lane``
    # and the winning lane, so no lane needs modular arithmetic; a
    # port with every lane empty is skipped before any unpacking.
    rotations, next_lane = _round_robin_tables(router.num_vcs)
    inputs = [
        (
            index,
            port,
            tuple(lane._flits for lane in port.lanes),
            port.switching._state,
            port.switching,
            port.pending,
            port.credit_records,
        )
        for index, port in enumerate(input_order)
    ]

    def advance():
        now = sim._now
        claims = None
        moved = False
        for entry in inputs:
            if not any(entry[2]):
                continue
            (
                index,
                port,
                deques,
                state,
                switching,
                pending_map,
                records,
            ) = entry
            for wire_vc in rotations[port.rr_next_lane]:
                dq = deques[wire_vc]
                if not dq:
                    continue
                flit = dq[0]
                if flit.index == 0 and wire_vc not in state:
                    pending = pending_map.get(wire_vc)
                    if pending is None:
                        decision = decide(node, flit.packet)
                        out_vc = decision.vc
                        if out_vc > max_vc:
                            out_vc = max_vc
                        pending = (decision.port, out_vc)
                        if decision.port in dead_ports:
                            pending = router._reroute(flit.packet)
                            if pending is None:
                                router.kill_sink(
                                    flit.packet, node, decision.port
                                )
                                moved = True
                                continue
                        pending_map[wire_vc] = pending
                    queue = outputs[pending[0]].queues[pending[1]]
                    if (
                        len(queue._flits) >= queue.capacity
                        or queue.last_enqueue_cycle == now
                        or queue.owner is not None
                    ):
                        continue
                    if claims is None:
                        claims = {}
                    requests = claims.get(queue)
                    if requests is None:
                        claims[queue] = requests = []
                    requests.append(
                        (index, port, wire_vc, dq, state, switching,
                         pending_map, records, flit)
                    )
                    break
                # Body flit (an interleaved head raises in route_of).
                route = state.get(wire_vc)
                if route is None or route[0] is not flit.packet:
                    switching.route_of(wire_vc, flit.packet)
                queue = outputs[route[1]].queues[route[2]]
                qd = queue._flits
                if (
                    len(qd) >= queue.capacity
                    or queue.last_enqueue_cycle == now
                    or queue.owner is not flit.packet
                ):
                    continue
                # The move (body flit: no ownership change on entry).
                dq.popleft()
                flit.enqueued_at = now
                qd.append(flit)
                occupancy = len(qd)
                if occupancy > queue.peak:
                    queue.peak = occupancy
                queue.last_enqueue_cycle = now
                if flit.index == flit.packet.size_flits - 1:
                    queue.owner = None
                    del state[wire_vc]
                port.rr_next_lane = next_lane[wire_vc]
                emit(records[wire_vc])
                moved = True
                break
        if claims is not None:
            for queue, requests in claims.items():
                if len(requests) == 1:
                    winner = requests[0]
                else:
                    grant = queue.rr_grant
                    winner = min(
                        requests,
                        key=lambda req: (req[0] - grant) % num_inputs,
                    )
                (
                    index,
                    port,
                    wire_vc,
                    dq,
                    state,
                    switching,
                    pending_map,
                    records,
                    flit,
                ) = winner
                queue.rr_grant = (index + 1) % num_inputs
                del pending_map[wire_vc]
                switching.set_route(
                    wire_vc, flit.packet, queue.port, queue.vc
                )
                # The move (head flit: takes ownership).
                dq.popleft()
                queue.owner = flit.packet
                flit.enqueued_at = now
                qd = queue._flits
                qd.append(flit)
                occupancy = len(qd)
                if occupancy > queue.peak:
                    queue.peak = occupancy
                queue.last_enqueue_cycle = now
                if flit.index == flit.packet.size_flits - 1:
                    queue.owner = None
                    state.pop(wire_vc, None)
                port.rr_next_lane = next_lane[wire_vc]
                emit(records[wire_vc])
            return True
        return moved

    return advance


def _make_router_send(router):
    """Compile *router*'s send phase: forward up to one flit per
    output port, choosing its VC queues round-robin among those whose
    head flit is ready (enqueued in an earlier cycle, when the
    one-cycle pipeline is on) and whose VC has downstream credit.

    Two bodies, as for :func:`_make_router_advance`: single-VC and
    multi-VC, each binding its per-port state once at compile time.
    Both return whether a flit was sent.
    """
    sim = router.simulator
    pipeline = router.config.router_pipeline
    dead_ports = router.dead_ports

    if router.num_vcs == 1:
        # Single-VC variant: one queue per port, VC always 0, the
        # round-robin VC pointer constant.  Reordered so the empty
        # check (the common case) runs first — the skipped checks
        # have no side effects, so the move set is unchanged.
        singles = [
            (
                port,
                port.queues[0]._flits,
                port.credits,
                port.name == LOCAL_PORT,
                port.name,
                port.flit_link,
                port.flit_sink,
                port.flits_sent_by_vc,
            )
            for port in router._output_order
        ]

        def send_single():
            now = sim._now
            moved = False
            for entry in singles:
                qd = entry[1]
                if not qd:
                    continue
                (
                    port,
                    qd,
                    credits,
                    is_local,
                    name,
                    link,
                    sink,
                    by_vc,
                ) = entry
                if dead_ports and name in dead_ports:
                    continue
                if credits[0] <= 0:
                    continue
                flit = qd[0]
                if pipeline and flit.enqueued_at == now:
                    continue
                qd.popleft()
                credits[0] -= 1
                port.flits_sent += 1
                by_vc[0] += 1
                if flit.index == 0 and not is_local:
                    flit.packet.hops += 1
                flit.wire_vc = 0
                sink((link, flit))
                moved = True
            return moved

        return send_single

    # Multi-VC variant: per port, every queue's deque; the VC order
    # comes from a rotation table indexed by ``rr_next_vc`` (queue
    # ``vc`` sits at ``queues[vc]``), and a port with every queue
    # empty is skipped before any unpacking.  The empty check runs
    # before the credit check; neither has side effects, so the move
    # set is unchanged.
    rotations, next_vc = _round_robin_tables(router.num_vcs)
    ports = [
        (
            port,
            tuple(queue._flits for queue in port.queues),
            port.credits,
            port.name == LOCAL_PORT,
            port.name,
            port.flit_link,
            port.flit_sink,
            port.flits_sent_by_vc,
        )
        for port in router._output_order
    ]

    def send():
        now = sim._now
        moved = False
        for entry in ports:
            if not any(entry[1]):
                continue
            (
                port,
                deques,
                credits,
                is_local,
                name,
                link,
                sink,
                by_vc,
            ) = entry
            if dead_ports and name in dead_ports:
                continue
            for vc in rotations[port.rr_next_vc]:
                qd = deques[vc]
                if not qd or credits[vc] <= 0:
                    continue
                flit = qd[0]
                if pipeline and flit.enqueued_at == now:
                    continue
                qd.popleft()
                credits[vc] -= 1
                port.rr_next_vc = next_vc[vc]
                port.flits_sent += 1
                by_vc[vc] += 1
                if flit.index == 0 and not is_local:
                    flit.packet.hops += 1
                flit.wire_vc = vc
                sink((link, flit))
                moved = True
                break
        return moved

    return send
