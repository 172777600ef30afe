"""Packets and flits.

A :class:`Packet` is the application-level unit generated by a source
IP; it is fragmented into :class:`Flit` data units by the network
interface ("in packet-based NoC communication each packet is split
into data units called flits").  Flits are materialised lazily, one
per injection cycle, so a saturated source queue holds packets — not
flit objects.
"""

from __future__ import annotations

import itertools
from typing import Any

_packet_ids = itertools.count()


class Packet:
    """An application packet travelling from *src* to *dst*.

    Attributes:
        packet_id: Unique id.  A network numbers the packets it makes
            itself, from 0 in creation order (see
            :class:`~repro.noc.network.Network`), so ids — and O1TURN's
            dimension order, which hashes them — do not depend on what
            else the process ran.  Without *packet_id* a packet takes
            the next id of a process-wide counter.
        src: Source node.
        dst: Destination node.
        size_flits: Packet length in flits (6 in the paper).
        created_at: Cycle the source IP generated the packet; packet
            latency is measured from here to tail-flit consumption,
            so source queueing delay is included (which is what makes
            latency blow up past saturation, as in figures 7/9/11).
        injected_at: Cycle the head flit entered the source router.
        vc: Current virtual-channel class (dateline schemes promote
            this from 0 to 1 when the packet crosses the dateline).
        hops: Inter-router links traversed by the head flit so far.
        route_state: Scratch space for routing algorithms (e.g. the
            ring direction locked in at the first hop).
        killed: Set when a runtime link failure made the packet
            undeliverable; every remaining flit of a killed packet is
            dropped (with accounting) wherever it surfaces — buffered,
            in flight, or still at the source NI.
    """

    __slots__ = (
        "packet_id",
        "src",
        "dst",
        "size_flits",
        "created_at",
        "injected_at",
        "vc",
        "hops",
        "route_state",
        "killed",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        size_flits: int,
        created_at: int,
        packet_id: int | None = None,
    ) -> None:
        if size_flits < 1:
            raise ValueError(
                f"packet size must be >= 1 flit, got {size_flits}"
            )
        if src == dst:
            raise ValueError(f"packet source equals destination ({src})")
        self.packet_id = (
            next(_packet_ids) if packet_id is None else packet_id
        )
        self.src = src
        self.dst = dst
        self.size_flits = size_flits
        self.created_at = created_at
        self.injected_at: int | None = None
        self.vc = 0
        self.hops = 0
        self.route_state: dict[str, Any] = {}
        self.killed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(id={self.packet_id}, {self.src}->{self.dst}, "
            f"size={self.size_flits})"
        )


class Flit:
    """One flow-control unit of a packet.

    Attributes:
        packet: Owning packet.
        index: Position within the packet (0 = head).
        enqueued_at: Cycle this flit entered its current output queue;
            the router's one-cycle pipeline forbids forwarding a flit
            in the cycle it was enqueued.
        wire_vc: Virtual channel the flit last travelled on.  Routers
            key their wormhole switching state by this value — not by
            ``packet.vc``, which dateline promotion may change while
            earlier flits of the packet are still in flight upstream.
    """

    __slots__ = ("packet", "index", "enqueued_at", "wire_vc")

    def __init__(self, packet: Packet, index: int) -> None:
        if not 0 <= index < packet.size_flits:
            raise ValueError(
                f"flit index {index} outside packet of "
                f"{packet.size_flits} flits"
            )
        self.packet = packet
        self.index = index
        self.enqueued_at: int | None = None
        self.wire_vc = 0

    @property
    def is_head(self) -> bool:
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        return self.index == self.packet.size_flits - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marker = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit({marker}{self.index}@pkt{self.packet.packet_id})"
