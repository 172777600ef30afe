"""Adaptive routing: O1TURN, minimal-adaptive and bounded misrouting.

Three schemes covering the paper's "analysis of routing protocols"
future work, in increasing order of freedom:

* :class:`MeshO1TurnRouting` — "adaptive-lite" (Seo et al., ISCA
  2005): each packet picks XY or YX dimension order at the source on
  disjoint VC sets, preserving deadlock freedom while spreading load.
* :class:`MinimalAdaptiveRouting` — topology-generic fully adaptive
  minimal routing over BFS distance tables: at every hop the packet
  may take *any* alive output port that decreases the (residual)
  distance to its destination, scored by live output-queue occupancy,
  with free-VC selection on the chosen port.  **Not deadlock-free**:
  no turn restriction or dateline applies, so cyclic channel
  dependencies can and do close under load — pair it with a
  :class:`~repro.resilience.drain.DrainController` for recovery
  (docs/deadlock.md).
* :class:`MisrouteAdaptiveRouting` — the same, plus a bounded number
  of productive misroutes: when every minimal port is congested the
  packet may step sideways (never through a dead port, never more
  than ``max_misroutes`` times), trading hops for spatial spread.

The adaptive schemes recompute their distance tables over the
residual graph on fault transitions (:meth:`on_fault_update`), which
is how they subsume the BFS fallback-table detours of PR 3.  All
decisions are deterministic functions of the simulation state, so
runs stay byte-reproducible.
"""

from __future__ import annotations

from collections import deque

from repro.noc.packet import Packet
from repro.routing.base import (
    LOCAL_PORT,
    RouteDecision,
    RoutingAlgorithm,
    RoutingError,
)
from repro.topology.base import Topology
from repro.topology.mesh import EAST, NORTH, SOUTH, WEST, MeshTopology

_ORDER_KEY = "o1turn_order"
_MISROUTE_KEY = "misroutes"

#: Sentinel distance for unreachable nodes (residual graph cuts).
_INF = float("inf")


class MeshO1TurnRouting(RoutingAlgorithm):
    """Per-packet randomised dimension order with per-order VCs."""

    required_vcs = 2

    def __init__(self, topology: MeshTopology) -> None:
        if not topology.is_regular:
            raise RoutingError(
                f"O1TURN requires a regular mesh, got {topology.name}"
            )
        super().__init__(topology, f"o1turn/{topology.name}")
        self._mesh = topology

    @staticmethod
    def _order_for(packet: Packet) -> str:
        order = packet.route_state.get(_ORDER_KEY)
        if order is None:
            # Full splitmix64 finalizer over the packet id: cheap,
            # deterministic, and decorrelates the low bit from
            # consecutive ids (a partial scramble leaves runs of one
            # parity).
            mask = 2**64 - 1
            z = (packet.packet_id + 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            order = "xy" if z & 1 == 0 else "yx"
            packet.route_state[_ORDER_KEY] = order
        return order

    def paths(self, src: int, dst: int) -> list[tuple[list[int], float]]:
        """Half of each flow takes the XY route, half the YX route."""
        if src == dst:
            return super().paths(src, dst)
        routes = []
        for order in ("xy", "yx"):
            packet = Packet(src, dst, 1, created_at=0, packet_id=0)
            packet.route_state[_ORDER_KEY] = order
            routes.append((self._walk(packet), 0.5))
        return routes

    def decide(self, node: int, packet: Packet) -> RouteDecision:
        if node == packet.dst:
            return RouteDecision(LOCAL_PORT, packet.vc)
        order = self._order_for(packet)
        vc = 0 if order == "xy" else 1
        packet.vc = vc
        row, col = self._mesh.coordinates(node)
        dst_row, dst_col = self._mesh.coordinates(packet.dst)
        if order == "xy":
            moves = ((col, dst_col, EAST, WEST), (row, dst_row, SOUTH, NORTH))
        else:
            moves = ((row, dst_row, SOUTH, NORTH), (col, dst_col, EAST, WEST))
        for position, target, forward, backward in moves:
            if position < target:
                return RouteDecision(forward, vc)
            if position > target:
                return RouteDecision(backward, vc)
        raise RoutingError(
            f"{self.name}: no move from {node} to {packet.dst}"
        )  # pragma: no cover - unreachable, dst checked above


class MinimalAdaptiveRouting(RoutingAlgorithm):
    """Fully adaptive minimal routing with free-VC selection.

    Works on any topology: next hops are the alive neighbours that
    strictly decrease the BFS distance to the destination.  When the
    owning network has bound itself (:meth:`bind_network`), ties are
    broken by live output-port occupancy — least congested first —
    and the virtual channel with the most downstream credits is
    chosen; unbound (``path()`` walks, analysis), the first candidate
    in port-name order wins, so offline paths are still minimal and
    deterministic.

    Deadlock freedom is explicitly **not** provided
    (``deadlock_free = False``); see the module docstring.
    """

    required_vcs = 2
    deadlock_free = False
    adaptive = True

    def __init__(self, topology: Topology, name: str | None = None) -> None:
        super().__init__(
            topology, name or f"adaptive/{topology.name}"
        )
        self._ports: list[list[tuple[str, int]]] = [
            sorted(topology.out_ports(node).items())
            for node in range(topology.num_nodes)
        ]
        self._network = None
        self._dead_ports: list[frozenset[str]] = [
            frozenset() for _ in range(topology.num_nodes)
        ]
        self._healthy_dist = self._distance_table(frozenset())
        self._dist = self._healthy_dist

    # -- tables ---------------------------------------------------------

    def _distance_table(
        self, dead_links: frozenset[tuple[int, int]]
    ) -> list[list[float]]:
        """``table[node][dst]`` = residual BFS distance (``_INF`` when
        unreachable)."""
        n = self.topology.num_nodes
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for node in range(n):
            for _, peer in self._ports[node]:
                low, high = (node, peer) if node <= peer else (peer, node)
                if (low, high) not in dead_links:
                    adjacency[node].append(peer)
        table: list[list[float]] = [[_INF] * n for _ in range(n)]
        for dst in range(n):
            # BFS from the destination over reversed edges; links are
            # bidirectional here so the adjacency works both ways.
            dist_to = table[dst]
            dist_to[dst] = 0
            frontier = deque([dst])
            while frontier:
                here = frontier.popleft()
                step = dist_to[here] + 1
                for peer in adjacency[here]:
                    if dist_to[peer] is _INF or dist_to[peer] > step:
                        dist_to[peer] = step
                        frontier.append(peer)
        # Transpose into [node][dst] orientation.
        return [
            [table[dst][node] for dst in range(n)] for node in range(n)
        ]

    def bind_network(self, network) -> None:
        self._network = network

    @property
    def fully_connected(self) -> bool:
        """Whether every pair is still reachable in the residual
        graph (the fault records' ``residual_connected`` field)."""
        return all(
            d is not _INF for row in self._dist for d in row
        )

    def on_fault_update(self, dead_links) -> None:
        from repro.resilience.fallback import normalise_link

        dead = frozenset(normalise_link(pair) for pair in dead_links)
        self._dist = (
            self._healthy_dist
            if not dead
            else self._distance_table(dead)
        )
        self._dead_ports = [
            frozenset(
                port
                for port, peer in self._ports[node]
                if (min(node, peer), max(node, peer)) in dead
            )
            for node in range(self.topology.num_nodes)
        ]

    # -- decision -------------------------------------------------------

    def decide(self, node: int, packet: Packet) -> RouteDecision:
        if node == packet.dst:
            return RouteDecision(LOCAL_PORT, packet.vc)
        candidates = self._minimal_ports(node, packet.dst)
        if not candidates:
            # Destination unreachable in the residual graph: follow
            # the healthy-graph gradient so the packet funnels into a
            # dead port, where the router's kill path accounts for it.
            dist = self._healthy_dist
            base = dist[node][packet.dst]
            for port, peer in self._ports[node]:
                if dist[peer][packet.dst] == base - 1:
                    return RouteDecision(port, 0)
            raise RoutingError(
                f"{self.name}: no move from {node} to {packet.dst}"
            )  # pragma: no cover - healthy graphs are connected
        port = self._choose_port(node, packet, candidates)
        vc = self._choose_vc(node, port, packet)
        packet.vc = vc
        return RouteDecision(port, vc)

    def _minimal_ports(self, node: int, dst: int) -> list[str]:
        """Alive ports that strictly decrease the residual distance."""
        dist = self._dist
        base = dist[node][dst]
        if base is _INF:
            return []
        dead = self._dead_ports[node]
        return [
            port
            for port, peer in self._ports[node]
            if port not in dead and dist[peer][dst] == base - 1
        ]

    def _choose_port(
        self, node: int, packet: Packet, candidates: list[str]
    ) -> str:
        if len(candidates) == 1 or self._network is None:
            return candidates[0]
        router = self._network.routers[node]
        # Least buffered flits on the output port wins; port-name
        # order breaks ties, keeping the choice deterministic.
        return min(
            candidates,
            key=lambda port: (router.output_occupancy(port), port),
        )

    def _choose_vc(self, node: int, port: str, packet: Packet) -> int:
        """Free-VC selection: most downstream credits, then emptiest
        queue, then lowest index."""
        if self._network is None:
            return 0
        router = self._network.routers[node]
        return min(
            range(router.num_vcs),
            key=lambda vc: (
                -router.credits_for(port, vc),
                router.output_occupancy(port, vc),
                vc,
            ),
        )


class MisrouteAdaptiveRouting(MinimalAdaptiveRouting):
    """Minimal-adaptive plus bounded productive misrouting.

    When every minimal candidate's output port is occupied and some
    alive non-minimal port is idle, the packet steps sideways instead
    of queueing — at most *max_misroutes* times over its lifetime
    (tracked in ``packet.route_state``), so paths stay within
    ``minimal + max_misroutes`` hops and livelock is bounded.
    Unbound (no network), it degenerates to minimal-adaptive.
    """

    def __init__(
        self,
        topology: Topology,
        max_misroutes: int = 2,
        name: str | None = None,
    ) -> None:
        if max_misroutes < 0:
            raise ValueError(
                f"max_misroutes must be >= 0, got {max_misroutes}"
            )
        super().__init__(
            topology,
            name or f"adaptive-misroute/{topology.name}",
        )
        self.max_misroutes = max_misroutes

    def _choose_port(
        self, node: int, packet: Packet, candidates: list[str]
    ) -> str:
        best = super()._choose_port(node, packet, candidates)
        if self._network is None:
            return best
        router = self._network.routers[node]
        if router.output_occupancy(best) == 0:
            return best
        used = packet.route_state.get(_MISROUTE_KEY, 0)
        if used >= self.max_misroutes:
            return best
        dist = self._dist
        dst = packet.dst
        dead = self._dead_ports[node]
        detours = [
            (dist[peer][dst], port)
            for port, peer in self._ports[node]
            if port not in dead
            and port not in candidates
            and dist[peer][dst] is not _INF
            and router.output_occupancy(port) == 0
        ]
        if not detours:
            return best
        _, port = min(detours)
        packet.route_state[_MISROUTE_KEY] = used + 1
        return port
