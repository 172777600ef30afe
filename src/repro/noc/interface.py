"""The Network Interface (NI) connecting an IP to its router.

"The IPs are connected to a NoC switch by a Network Interface (NI)
incorporating the connection management and the data fragmentation
functions."  Per the paper's node model:

* the **source** side generates fixed-size packets with Poisson
  interarrivals, queues them in IP memory (FIFO; optionally bounded)
  and injects one flit per cycle into the router's local input port,
  subject to credit flow control;
* the **sink** side consumes arriving flits immediately, returning a
  zero-delay credit — consumption is therefore limited to one
  flit/cycle purely by the ejection link, which is exactly the
  destination bottleneck the hot-spot scenarios expose.

Flits are materialised lazily at injection time, so a saturated IP
memory holds compact packet objects rather than flits.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator

from repro.noc.config import NocConfig
from repro.noc.packet import Flit, Packet
from repro.noc.signals import (
    CreditMessage,
    FlitMessage,
    gate_credit_records,
    send_credit,
    send_flit,
)
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule
from repro.sim.rng import RngStream
from repro.stats.collectors import NetworkStats
from repro.traffic.base import TrafficSpec


class _GenerateMessage(Message):
    """Self-message timer marking the next packet generation."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(name="generate")


class NetworkInterface(SimModule):
    """Source and sink for node *node*."""

    def __init__(
        self,
        simulator: Simulator,
        node: int,
        config: NocConfig,
        scheduler,
        stats: NetworkStats,
        num_vcs: int,
        packet_ids: Iterator[int],
    ) -> None:
        super().__init__(simulator, f"ni{node}")
        self.node = node
        self.config = config
        self.scheduler = scheduler
        self.stats = stats
        self.num_vcs = num_vcs
        # The owning network's packet numbering.
        self.packet_ids = packet_ids
        self.data_out = self.add_gate("data_out")
        self.credit_in = self.add_gate("credit_in")
        self.data_in = self.add_gate("data_in")
        self.credit_out = self.add_gate("credit_out")
        self._credits = 0
        self._backlog: deque[Packet] = deque()
        self._peak_backlog = 0
        self._next_flit_index = 0
        self._traffic: TrafficSpec | None = None
        self._rng: RngStream | None = None
        self._generate_msg = _GenerateMessage()
        self._gen_clock = 0.0
        # Installed by the Network: per-flit drop accounting for
        # runtime link failures (None on a fault-free run).
        self.drop_sink = None
        self.use_gates()

    # -- wiring ----------------------------------------------------------

    def use_gates(self) -> None:
        """Gate wiring, as :meth:`repro.noc.router.Router.use_gates`."""
        self.flit_link = self.data_out
        self.flit_sink = send_flit
        self.credit_records = gate_credit_records(
            self.credit_out, self.num_vcs
        )
        self.emit_credit = send_credit
        vars(self).pop("send_phase", None)

    def set_injection_credits(self, credits: int) -> None:
        """Initial credit count for the router's local input buffer."""
        if credits < 1:
            raise ValueError(f"credits must be >= 1, got {credits}")
        self._credits = credits

    # -- traffic ----------------------------------------------------------

    def attach_traffic(self, traffic: TrafficSpec, rng: RngStream) -> None:
        """Make this NI a packet source for *traffic*."""
        self._traffic = traffic
        self._rng = rng

    def enqueue_packet(self, packet: Packet) -> None:
        """Queue *packet* for injection directly (trace-driven use).

        Bypasses the stochastic generator: callers replaying a traffic
        trace (or tests injecting a deterministic packet) create the
        packet themselves and hand it to the source side.  The IP
        memory bound still applies.

        Raises:
            ValueError: if the packet's source is not this node, or
                the IP memory is full.
        """
        if packet.src != self.node:
            raise ValueError(
                f"packet src {packet.src} does not match node "
                f"{self.node}"
            )
        limit = self.config.source_queue_packets
        if limit is not None and len(self._backlog) >= limit:
            raise ValueError(f"{self.name}: IP memory full")
        self._backlog.append(packet)
        if len(self._backlog) > self._peak_backlog:
            self._peak_backlog = len(self._backlog)
        self.scheduler.activate(self)

    def initialize(self) -> None:
        if self._traffic is not None and self._traffic.injection_rate > 0:
            self._schedule_next_generation()

    def _schedule_next_generation(self) -> None:
        assert self._traffic is not None and self._rng is not None
        mean = self._traffic.mean_interarrival(
            self.config.packet_size_flits
        )
        gap = self._traffic.process.next_interarrival(mean, self._rng)
        self._gen_clock += gap
        fire_at = max(self.now, math.ceil(self._gen_clock))
        self.schedule_self(fire_at - self.now, self._generate_msg)

    def _generate_packet(self) -> None:
        assert self._traffic is not None and self._rng is not None
        now = self.now
        dst = self._traffic.pattern.destination_for(self.node, self._rng)
        self.stats.record_generated(now)
        limit = self.config.source_queue_packets
        if limit is not None and len(self._backlog) >= limit:
            self.stats.record_rejected(now)
        else:
            packet = Packet(
                self.node,
                dst,
                self.config.packet_size_flits,
                created_at=now,
                packet_id=next(self.packet_ids),
            )
            self._backlog.append(packet)
            if len(self._backlog) > self._peak_backlog:
                self._peak_backlog = len(self._backlog)
            self.scheduler.activate(self)
        self._schedule_next_generation()

    # -- message handling ----------------------------------------------

    def handle_message(self, message: Message) -> None:
        if isinstance(message, FlitMessage):
            self.receive_flit(message.flit)
            return
        if isinstance(message, CreditMessage):
            self.receive_credit()
            return
        if isinstance(message, _GenerateMessage):
            self._generate_packet()
            return
        raise TypeError(f"{self.name}: unexpected message {message!r}")

    def receive_flit(self, flit: Flit) -> None:
        """A flit arrived on the ejection link (wire or record)."""
        if flit.packet.killed:
            # A runtime fault killed the packet while this flit was
            # crossing the ejection link: return the credit and drop
            # instead of consuming a partial packet.
            self.emit_credit(self.credit_records[flit.wire_vc])
            if self.drop_sink is not None:
                self.drop_sink(flit)
            return
        self._consume(flit)

    def receive_credit(self) -> None:
        """The router freed one slot of its injection lane."""
        self._credits += 1
        if self._backlog:
            self.scheduler.activate(self)

    def _consume(self, flit: Flit) -> None:
        if flit.packet.dst != self.node:
            raise RuntimeError(
                f"{self.name}: misrouted flit of packet "
                f"{flit.packet.packet_id} bound for {flit.packet.dst}"
            )
        now = self.now
        self.emit_credit(self.credit_records[flit.wire_vc])
        self.stats.record_consumed_flit(now)
        if flit.is_tail:
            self.stats.record_packet_delivered(flit.packet, now)

    # -- cycle phases ------------------------------------------------------

    def advance_phase(self) -> bool:
        """The NI has no internal pipeline stage: never progress."""
        return False

    def send_phase(self) -> bool:
        """Inject at most one flit of the head-of-line packet (the
        first call compiles :func:`_make_ni_send` over this method)."""
        self.send_phase = _make_ni_send(self)
        return self.send_phase()

    def close(self) -> None:
        """Also drop the compiled send phase, the owner's drop
        callback and the generation timer's sender link (each refers
        back to this NI); counters stay readable."""
        super().close()
        vars(self).pop("send_phase", None)
        self.drop_sink = None
        self._generate_msg.sender = None

    def has_pending_work(self) -> bool:
        return bool(self._backlog)

    # -- introspection ------------------------------------------------------

    @property
    def backlog_packets(self) -> int:
        """Packets waiting in IP memory (including the one injecting)."""
        return len(self._backlog)

    @property
    def peak_backlog(self) -> int:
        """Deepest the IP memory got so far (packets) — the source
        side congestion signal the trace summary reports."""
        return self._peak_backlog


def _make_ni_send(ni: NetworkInterface):
    """Compile *ni*'s send phase: inject at most one flit of the
    head-of-line packet into the router's local input lane, subject
    to credit.  Returns whether it injected a flit or abandoned a
    killed packet."""
    backlog = ni._backlog
    stats = ni.stats
    link = ni.flit_link
    sink = ni.flit_sink
    sim = ni.simulator

    def send():
        moved = False
        while backlog and backlog[0].killed:
            # Killed mid-injection: abandon the rest of the packet.
            # Flits never injected are not counted as dropped —
            # conservation tracks injected flits only.
            backlog.popleft()
            ni._next_flit_index = 0
            moved = True
        if not backlog or ni._credits <= 0:
            return moved
        packet = backlog[0]
        index = ni._next_flit_index
        flit = Flit(packet, index)
        # All flits enter the network on wire VC 0; the source router
        # keys its switching state by the arrival VC, and packet.vc
        # may be promoted (dateline) between the head and body
        # injections.
        flit.wire_vc = 0
        now = sim._now
        if index == 0:
            packet.injected_at = now
        ni._credits -= 1
        stats.record_injected_flit(now)
        sink((link, flit))
        if index == packet.size_flits - 1:
            backlog.popleft()
            ni._next_flit_index = 0
        else:
            ni._next_flit_index = index + 1
        return True

    return send
