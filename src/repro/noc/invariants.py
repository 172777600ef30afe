"""Runtime invariant checking for a NoC simulation.

:class:`InvariantChecker` audits a network on demand (typically every
few thousand cycles in long soak runs, or once at the end of a test):

* **conservation** — injected flits = consumed + buffered + in
  flight + dropped (runtime faults), nothing lost or duplicated;
* **buffer bounds** — no FIFO above its capacity (flow control never
  overruns);
* **credit consistency** — for every link, the sender's credit count
  plus occupied downstream lane slots plus in-flight traffic equals
  the lane capacity;
* **wormhole integrity** — each output queue's flits form contiguous
  in-order runs per packet.

Violations raise :class:`InvariantViolation` with a description
precise enough to debug from.  The checker is read-only.
"""

from __future__ import annotations

from repro.noc.network import Network
from repro.noc.signals import CreditMessage


class InvariantViolation(AssertionError):
    """A model-correctness invariant failed."""


class InvariantChecker:
    """Read-only auditor for a :class:`~repro.noc.network.Network`."""

    def __init__(self, network: Network) -> None:
        self.network = network

    # -- individual checks ------------------------------------------------

    def check_conservation(self) -> None:
        net = self.network
        consumed = net.flits_consumed()
        buffered = sum(
            router.total_buffered_flits() for router in net.routers
        )
        in_flight = self._in_flight_flits()
        dropped = net.stats.flits_dropped
        total = consumed + buffered + in_flight + dropped
        if net.stats.flits_injected != total:
            raise InvariantViolation(
                f"flit conservation broken: injected "
                f"{net.stats.flits_injected} != consumed {consumed} "
                f"+ buffered {buffered} + in-flight {in_flight} "
                f"+ dropped {dropped}"
            )

    def check_buffer_bounds(self) -> None:
        for router in self.network.routers:
            for port in router._input_order:
                for lane in port.lanes:
                    if len(lane) > lane.capacity:
                        raise InvariantViolation(
                            f"{router.name} input {port.name}: lane "
                            f"over capacity ({len(lane)} > "
                            f"{lane.capacity})"
                        )
            for port in router._output_order:
                for queue in port.queues:
                    if len(queue) > queue.capacity:
                        raise InvariantViolation(
                            f"{router.name} output {port.name}/vc"
                            f"{queue.vc} over capacity"
                        )

    def check_credit_consistency(self) -> None:
        """Sender credits + receiver occupancy + in-flight = capacity.

        In-flight counts both unconsumed flit messages (slot already
        reserved at the sender) and unconsumed credit messages (slot
        freed at the receiver but not yet visible at the sender).
        """
        net = self.network
        in_flight_flits, in_flight_credits = self._in_flight_by_gate()
        for router in net.routers:
            for port in router._output_order:
                peer_gate = port.data_gate.peer
                assert peer_gate is not None
                peer_module = peer_gate.module
                for vc, credits in enumerate(port.credits):
                    occupancy = self._lane_occupancy(
                        peer_module, peer_gate, vc
                    )
                    if occupancy is None:
                        continue  # NI sink: consumes instantly
                    flits = in_flight_flits.get((peer_gate, vc), 0)
                    credit_msgs = in_flight_credits.get(
                        (port.data_gate.module, port.name, vc), 0
                    )
                    capacity = net.config.input_buffer_flits
                    total = credits + occupancy + flits + credit_msgs
                    if total != capacity:
                        raise InvariantViolation(
                            f"{router.name} port {port.name} vc{vc}: "
                            f"credits {credits} + occupancy "
                            f"{occupancy} + flits-in-flight {flits} "
                            f"+ credits-in-flight {credit_msgs} != "
                            f"capacity {capacity}"
                        )

    def check_wormhole_integrity(self) -> None:
        for router in self.network.routers:
            for port in router._output_order:
                for queue in port.queues:
                    self._check_queue_order(router, queue)

    def check_all(self) -> None:
        """Run every invariant check."""
        self.check_conservation()
        self.check_buffer_bounds()
        self.check_credit_consistency()
        self.check_wormhole_integrity()

    # -- helpers ------------------------------------------------------------

    def _in_flight_flits(self) -> int:
        return sum(self.network.flits_on_wire().values())

    def _in_flight_by_gate(self):
        credits: dict = {}
        for event in self.network.simulator.pending_events():
            message = event.message
            if isinstance(message, CreditMessage):
                gate = message.arrival_gate
                assert gate is not None
                # Identify the output port that owns the credit-in
                # gate: gates are named "credit_in:<port>".
                port_name = gate.name.split(":", 1)[1]
                key = (gate.module, port_name, message.vc)
                credits[key] = credits.get(key, 0) + 1
        return self.network.flits_on_wire(), credits

    def _lane_occupancy(self, module, data_in_gate, vc):
        """Occupancy of the receiving lane, or None for NI sinks."""
        from repro.noc.router import Router

        if not isinstance(module, Router):
            return None
        port = module._input_of_gate[data_in_gate]
        return len(port.lanes[vc])

    @staticmethod
    def _check_queue_order(router, queue) -> None:
        flits = list(queue._flits)
        for earlier, later in zip(flits, flits[1:]):
            if earlier.packet is later.packet:
                if later.index != earlier.index + 1:
                    raise InvariantViolation(
                        f"{router.name} {queue.port}/vc{queue.vc}: "
                        f"flits of packet "
                        f"{earlier.packet.packet_id} out of order"
                    )
        # Flits of one packet must be contiguous.
        seen_packets = []
        for flit in flits:
            if (
                seen_packets
                and flit.packet is not seen_packets[-1]
                and flit.packet in seen_packets
            ):
                raise InvariantViolation(
                    f"{router.name} {queue.port}/vc{queue.vc}: "
                    f"interleaved packets in queue"
                )
            if not seen_packets or flit.packet is not seen_packets[-1]:
                seen_packets.append(flit.packet)
