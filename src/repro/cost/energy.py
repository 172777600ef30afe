"""Dynamic-energy accounting for a completed simulation run.

Standard bit-energy decomposition (Ye/Benini/De Micheli style): the
energy of moving one flit across one hop is a wire component
proportional to the link's length plus a fixed router component
(buffer write + read + crossbar traversal + a share of arbitration).
Per-link flit counts come from the routers' traffic counters, so the
report reflects exactly what the simulated workload did — including
the extra cost of the Spidergon's long across chords and the savings
from shorter average hop counts.

All constants are normalised: 1.0 = energy of one flit traversing one
unit-length wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cost.wires import link_length
from repro.routing.base import LOCAL_PORT

#: Energy per flit per unit wire length (normalisation unit).
WIRE_UNIT = 1.0
#: Fixed per-hop router energy: buffer write + read + crossbar.
ROUTER_HOP_UNIT = 1.2
#: Energy per routing decision (head flits only, approximated per
#: packet-hop as 1/packet_size of the flit traffic).
ROUTING_DECISION_UNIT = 0.3


@dataclass(frozen=True, slots=True)
class EnergyModel:
    """Tunable energy coefficients (normalised units)."""

    wire: float = WIRE_UNIT
    router_hop: float = ROUTER_HOP_UNIT
    routing_decision: float = ROUTING_DECISION_UNIT


@dataclass(slots=True)
class EnergyReport:
    """Energy totals for one run, in normalised units."""

    wire_energy: float
    router_energy: float
    routing_energy: float
    flits_delivered: int
    per_link: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.wire_energy + self.router_energy + self.routing_energy

    @property
    def energy_per_flit(self) -> float:
        """Total energy divided by delivered flits (0 if none)."""
        if self.flits_delivered == 0:
            return 0.0
        return self.total / self.flits_delivered

    @classmethod
    def from_network(
        cls, network, model: EnergyModel | None = None
    ) -> "EnergyReport":
        """Account the energy of a completed run of *network*.

        Raises:
            ValueError: if the network has not been run.
        """
        if network.cycles_run <= 0:
            raise ValueError("network has not been run yet")
        model = model if model is not None else EnergyModel()
        topology = network.topology
        links_by_key = {
            (link.src, link.port): link for link in topology.links()
        }
        wire_energy = 0.0
        router_energy = 0.0
        per_link = {}
        for (node, port), flits in network.link_flit_counts().items():
            if flits == 0:
                continue
            router_energy += model.router_hop * flits
            if port == LOCAL_PORT:
                continue  # ejection: router cost only, no long wire
            length = link_length(topology, links_by_key[(node, port)])
            energy = model.wire * length * flits
            wire_energy += energy
            per_link[(node, port)] = energy
        packet_size = network.config.packet_size_flits
        # One routing decision per head flit per router traversal.
        total_flit_hops = sum(
            flits
            for (node, port), flits in network.link_flit_counts().items()
            if port != LOCAL_PORT
        )
        routing_energy = (
            model.routing_decision * total_flit_hops / packet_size
        )
        delivered = network.flits_consumed()
        return cls(
            wire_energy=wire_energy,
            router_energy=router_energy,
            routing_energy=routing_energy,
            flits_delivered=delivered,
            per_link=per_link,
        )
