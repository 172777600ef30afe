"""Routing abstractions.

A routing algorithm maps ``(current node, packet)`` to a
:class:`RouteDecision` — an output-port name plus the virtual channel
the packet must use on that port.  Algorithms may keep per-packet
state in ``packet.route_state`` (e.g. the ring direction, locked in at
the first decision and maintained afterwards, as the paper requires).

``LOCAL_PORT`` is the pseudo-port for ejection to the local IP.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.noc.packet import Packet
from repro.topology.base import Topology

LOCAL_PORT = "local"


class RoutingError(RuntimeError):
    """Raised when an algorithm cannot produce a legal next hop."""


@dataclass(frozen=True, slots=True)
class RouteDecision:
    """Output port and virtual channel chosen for a packet's next hop."""

    port: str
    vc: int = 0

    @property
    def is_local(self) -> bool:
        """True when the packet has reached its destination node."""
        return self.port == LOCAL_PORT


class RoutingAlgorithm(ABC):
    """Base class for deterministic per-hop routing.

    Attributes:
        topology: The topology the algorithm routes on.
    """

    #: Virtual channels the algorithm needs per link (subclasses with
    #: dateline disciplines override to 2).
    required_vcs = 1

    #: Whether the algorithm guarantees deadlock freedom by
    #: construction (dateline VC discipline, dimension order, ...).
    #: Fully adaptive schemes set this False: their safety must come
    #: from the runtime instead — pair them with a
    #: :class:`~repro.resilience.drain.DrainController` (recovery) or
    #: accept that a :class:`~repro.resilience.StallWatchdog` merely
    #: truncates a wedged run.
    deadlock_free = True

    #: Whether the algorithm chooses among several legal next hops at
    #: run time (congestion-aware).  Adaptive algorithms natively
    #: detour around failed links via :meth:`on_fault_update`, which
    #: is why the network skips the BFS fallback-table installation
    #: for them (see docs/resilience.md).
    adaptive = False

    def __init__(self, topology: Topology, name: str) -> None:
        self.topology = topology
        self.name = name

    def bind_network(self, network) -> None:
        """Give the algorithm access to live router state.

        Called once by :class:`~repro.noc.network.Network` after the
        model is wired.  The default is a no-op; adaptive algorithms
        keep the reference so :meth:`decide` can score candidate
        output ports by their current queue occupancy and credits.
        """

    def on_fault_update(self, dead_links) -> None:
        """React to the set of failed physical connections changing.

        Called by :meth:`~repro.noc.network.Network.fail_link` /
        ``repair_link`` with the complete current set of dead
        ``(low, high)`` node pairs.  The default is a no-op (static
        algorithms rely on the network's fallback table); adaptive
        algorithms recompute their distance tables over the residual
        graph so detours come out of the normal decision process.
        """

    @abstractmethod
    def decide(self, node: int, packet: Packet) -> RouteDecision:
        """Choose the next hop for *packet* standing at *node*.

        Must return ``RouteDecision(LOCAL_PORT)`` when
        ``node == packet.dst``.  Implementations may mutate
        ``packet.route_state`` and ``packet.vc``.
        """

    def path(self, src: int, dst: int, size_flits: int = 1) -> list[int]:
        """The node sequence a packet would take from *src* to *dst*.

        A convenience for tests and analysis: walks the algorithm hop
        by hop on a throwaway packet.  The packet's id is fixed, so
        the walk depends only on ``(src, dst)``.

        Raises:
            RoutingError: if the walk does not terminate within
                ``num_nodes`` hops (a routing loop).
        """
        if src == dst:
            self.topology.check_node(src)
            return [src]
        return self._walk(
            Packet(src, dst, size_flits, created_at=0, packet_id=0)
        )

    def paths(self, src: int, dst: int) -> list[tuple[list[int], float]]:
        """Every route of the flow from *src* to *dst*, with the share
        of its traffic each carries.  A deterministic algorithm has
        one route, :meth:`path`."""
        return [(self.path(src, dst), 1.0)]

    def _walk(self, packet: Packet) -> list[int]:
        """The nodes *packet* visits on its way to its destination."""
        src, dst = packet.src, packet.dst
        self.topology.check_node(src)
        self.topology.check_node(dst)
        nodes = [src]
        current = src
        for _ in range(self.topology.num_nodes + 1):
            decision = self.decide(current, packet)
            if decision.is_local:
                return nodes
            current = self.topology.out_ports(current)[decision.port]
            nodes.append(current)
        raise RoutingError(
            f"{self.name}: routing loop from {src} to {dst}: {nodes}"
        )

    def path_length(self, src: int, dst: int) -> int:
        """Number of links the algorithm's route traverses."""
        return len(self.path(src, dst)) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.topology.name})"
