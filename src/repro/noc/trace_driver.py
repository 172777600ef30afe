"""Replays a :class:`~repro.traffic.trace.Trace` into the network.

The driver walks the time-ordered trace with chained self-messages —
one pending event at a time — and hands each packet to the source
node's network interface at exactly the recorded cycle.
"""

from __future__ import annotations

from repro.noc.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule
from repro.traffic.trace import Trace


class _TraceTick(Message):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(name="trace-tick")


class TraceDriver(SimModule):
    """Injects trace entries into the owning network's interfaces."""

    def __init__(
        self,
        simulator: Simulator,
        trace: Trace,
        interfaces,
        packet_size_flits: int,
        name: str = "trace-driver",
    ) -> None:
        super().__init__(simulator, name)
        self._trace = trace
        self._interfaces = interfaces
        self._packet_size = packet_size_flits
        self._cursor = 0
        self._tick = _TraceTick()
        self.packets_injected = 0
        self.packets_dropped = 0

    def initialize(self) -> None:
        self._arm_next()

    def _arm_next(self) -> None:
        if self._cursor >= len(self._trace.entries):
            return
        next_time = self._trace.entries[self._cursor].time
        self.schedule_self(next_time - self.now, self._tick)

    def handle_message(self, message: Message) -> None:
        entries = self._trace.entries
        now = self.now
        while self._cursor < len(entries) and (
            entries[self._cursor].time == now
        ):
            entry = entries[self._cursor]
            self._cursor += 1
            packet = Packet(
                entry.src,
                entry.dst,
                self._packet_size,
                created_at=now,
                packet_id=next(self._interfaces[entry.src].packet_ids),
            )
            self._interfaces[entry.src].stats.record_generated(now)
            try:
                self._interfaces[entry.src].enqueue_packet(packet)
                self.packets_injected += 1
            except ValueError:
                # Bounded IP memory: same drop semantics as the
                # stochastic sources.
                self._interfaces[entry.src].stats.record_rejected(now)
                self.packets_dropped += 1
        self._arm_next()

    def close(self) -> None:
        """Also cut the reused timer's link back to this driver."""
        super().close()
        self._tick.sender = None
