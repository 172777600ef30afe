"""Source routing: the whole route is computed at injection.

The paper lists "(adaptive, source, arithmetic or table-driven)
routing" as the design space.  :class:`SourceRouting` adapts any
deterministic per-hop algorithm into its source-routed form: the
first ``decide`` call at the source node walks the base algorithm to
the destination and stores the (port, vc) list on the packet; every
router along the way then just consumes the next entry — modelling a
router with no routing logic at all, only a shift register in the
head flit.

Routes (and therefore VC usage and deadlock behaviour) are identical
to the base algorithm's; what changes is where the decision happens.
"""

from __future__ import annotations

from repro.noc.packet import Packet
from repro.routing.base import (
    LOCAL_PORT,
    RouteDecision,
    RoutingAlgorithm,
    RoutingError,
)

_ROUTE_KEY = "source_route"
_CURSOR_KEY = "source_route_cursor"


class SourceRouting(RoutingAlgorithm):
    """Wraps a per-hop algorithm into source-routed operation."""

    def __init__(self, base: RoutingAlgorithm) -> None:
        super().__init__(base.topology, f"source[{base.name}]")
        self.base = base
        self.required_vcs = base.required_vcs

    def _compute_route(
        self, node: int, packet: Packet
    ) -> list[tuple[str, int]]:
        """Walk the base algorithm from *node* to the destination."""
        probe = Packet(
            packet.src,
            packet.dst,
            packet.size_flits,
            packet.created_at,
            packet_id=packet.packet_id,
        )
        route = []
        current = node
        for _ in range(self.topology.num_nodes + 1):
            decision = self.base.decide(current, probe)
            if decision.is_local:
                return route
            route.append((decision.port, decision.vc))
            current = self.topology.out_ports(current)[decision.port]
        raise RoutingError(
            f"{self.name}: base algorithm loops from {node} to "
            f"{packet.dst}"
        )

    def decide(self, node: int, packet: Packet) -> RouteDecision:
        if node == packet.dst:
            return RouteDecision(LOCAL_PORT, packet.vc)
        route = packet.route_state.get(_ROUTE_KEY)
        if route is None:
            route = self._compute_route(node, packet)
            packet.route_state[_ROUTE_KEY] = route
            packet.route_state[_CURSOR_KEY] = 0
        cursor = packet.route_state[_CURSOR_KEY]
        if cursor >= len(route):
            raise RoutingError(
                f"{self.name}: route of packet {packet.packet_id} "
                f"exhausted before reaching {packet.dst}"
            )
        port, vc = route[cursor]
        packet.route_state[_CURSOR_KEY] = cursor + 1
        packet.vc = vc
        return RouteDecision(port, vc)
