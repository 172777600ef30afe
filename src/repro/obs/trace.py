"""Flit-lifecycle tracing: streaming, bounded JSONL.

A :class:`FlitTracer` watches the kernel and emits one JSON record
per lifecycle step of every flit — ``generate`` → ``inject`` →
``hop`` (per link traversal) → ``consume`` — through a
:class:`TraceSink`.  The sink is bounded (drops, and counts, records
past its limit) and free when disabled: a disabled sink makes every
``write`` a cheap early return, and with no tracer registered the
kernel pays nothing at all.

Record schema (one JSON object per line; field order not significant):

========  ==========================================================
field     meaning
========  ==========================================================
type      ``"flit"`` for lifecycle records (the CLI adds ``"meta"``,
          ``"link"``, ``"timeline"`` and ``"summary"`` records)
ev        ``generate`` | ``inject`` | ``hop`` | ``consume`` |
          ``drain``
t         simulation cycle of the step
pkt       packet id
flit      flit index within the packet (0 = head)
src, dst  packet endpoints
node      node where the step happened (absent on ``generate``)
vc        wire virtual channel (absent on ``generate``)
from      upstream node (``hop`` and ``drain`` only)
port      upstream output-port name (``hop`` only)
kind      ``pull`` | ``send`` (``drain`` only): lane-to-queue move
          inside ``node`` (``from == node``) or a forced traversal
          of the drain-loop link ``from -> node``
========  ==========================================================

``generate`` is emitted when the head flit is injected, stamped with
the packet's creation cycle — so a packet that dies in a saturated IP
memory without ever injecting leaves no trace records.
"""

from __future__ import annotations

import io
import json
import pathlib
from typing import TextIO

from repro.noc.signals import FlitMessage
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.observers import Observer


class TraceSink:
    """A bounded JSONL record writer.

    Args:
        stream: Text stream the records are written to; ``None``
            creates a disabled sink (every write is a no-op).
        limit: Maximum records written; further writes are counted in
            :attr:`records_dropped`.  ``None`` means unbounded.

    The sink is a context manager; :meth:`close` closes the stream
    only when the sink opened it itself (:meth:`to_path`).
    """

    def __init__(
        self,
        stream: TextIO | None,
        limit: int | None = None,
    ) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1 or None, got {limit}")
        self._stream = stream
        self._owns_stream = False
        self.limit = limit
        self.records_written = 0
        self.records_dropped = 0

    @classmethod
    def to_path(
        cls, path: str | pathlib.Path, limit: int | None = None
    ) -> "TraceSink":
        """A sink writing to *path* (created/truncated, closed by
        :meth:`close`)."""
        sink = cls(open(path, "w", encoding="utf-8"), limit=limit)
        sink._owns_stream = True
        return sink

    @classmethod
    def in_memory(cls, limit: int | None = None) -> "TraceSink":
        """A sink writing to an internal buffer (see :meth:`text`)."""
        return cls(io.StringIO(), limit=limit)

    @classmethod
    def disabled(cls) -> "TraceSink":
        """A sink that drops everything for free."""
        return cls(None)

    @property
    def enabled(self) -> bool:
        """Whether writes reach the stream.

        Producers with per-record cost beyond the ``write`` call
        itself (string formatting, dict building) should check this
        first — the zero-cost-when-disabled contract.
        """
        return self._stream is not None

    def write(self, record: dict) -> bool:
        """Write *record* as one JSONL line.

        Returns:
            True if the record reached the stream; False if the sink
            is disabled or the limit dropped it.
        """
        if self._stream is None:
            return False
        if (
            self.limit is not None
            and self.records_written >= self.limit
        ):
            self.records_dropped += 1
            return False
        self._stream.write(
            json.dumps(record, separators=(",", ":")) + "\n"
        )
        self.records_written += 1
        return True

    def text(self) -> str:
        """The buffered output of an :meth:`in_memory` sink.

        Raises:
            TypeError: for sinks not backed by an in-memory buffer.
        """
        if not isinstance(self._stream, io.StringIO):
            raise TypeError("text() requires an in_memory sink")
        return self._stream.getvalue()

    def close(self) -> None:
        """Flush, and close the stream if this sink opened it."""
        if self._stream is None:
            return
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FlitTracer(Observer):
    """Emits flit-lifecycle records for every flit of a network run.

    Args:
        network: The network to trace; the tracer registers itself
            with ``network.simulator`` immediately.
        sink: Destination for the records.  A disabled sink reduces
            the tracer to one ``isinstance`` check per event.
    """

    def __init__(self, network, sink: TraceSink) -> None:
        self.network = network
        self.sink = sink
        # arrival gate -> classification of the delivery.
        self._hop_of_gate: dict = {}
        self._inject_of_gate: dict = {}
        self._consume_of_gate: dict = {}
        for node, port_name, dst, gate in network.link_arrival_gates():
            self._hop_of_gate[gate] = (node, port_name, dst)
        for ni in network.interfaces:
            injection_gate = ni.data_out.peer
            if injection_gate is not None:
                self._inject_of_gate[injection_gate] = ni.node
            self._consume_of_gate[ni.data_in] = ni.node
        self._attached = True
        network.simulator.add_observer(self)
        network.add_drain_listener(self._on_drain_move)

    def _on_drain_move(
        self, kind: str, flit, src: int, dst: int, vc: int
    ) -> None:
        """Record a forced drain-recovery move (see module schema)."""
        if not self.sink.enabled:
            return
        packet = flit.packet
        self.sink.write(
            {
                "type": "flit",
                "ev": "drain",
                "t": self.network.simulator.now,
                "pkt": packet.packet_id,
                "flit": flit.index,
                "src": packet.src,
                "dst": packet.dst,
                "vc": vc,
                "node": dst,
                "from": src,
                "kind": kind,
            }
        )

    def detach(self) -> None:
        """Stop tracing (idempotent); the sink stays open."""
        if self._attached:
            self.network.simulator.remove_observer(self)
            self.network.remove_drain_listener(self._on_drain_move)
            self._attached = False

    def on_event_delivered(
        self, simulator: Simulator, event: Event
    ) -> None:
        message = event.message
        if not isinstance(message, FlitMessage):
            return
        sink = self.sink
        if not sink.enabled:
            return
        gate = message.arrival_gate
        flit = message.flit
        packet = flit.packet
        base = {
            "type": "flit",
            "t": event.time,
            "pkt": packet.packet_id,
            "flit": flit.index,
            "src": packet.src,
            "dst": packet.dst,
            "vc": message.wire_vc,
        }
        node = self._consume_of_gate.get(gate)
        if node is not None:
            sink.write({**base, "ev": "consume", "node": node})
            return
        node = self._inject_of_gate.get(gate)
        if node is not None:
            if flit.is_head:
                sink.write(
                    {
                        "type": "flit",
                        "ev": "generate",
                        "t": packet.created_at,
                        "pkt": packet.packet_id,
                        "flit": 0,
                        "src": packet.src,
                        "dst": packet.dst,
                    }
                )
            sink.write({**base, "ev": "inject", "node": node})
            return
        hop = self._hop_of_gate.get(gate)
        if hop is not None:
            upstream, port, downstream = hop
            sink.write(
                {
                    **base,
                    "ev": "hop",
                    "node": downstream,
                    "from": upstream,
                    "port": port,
                }
            )
