"""Wire-level messages: flits and credits.

A :class:`FlitMessage` carries one flit across a link together with
the virtual-channel id it was sent on (flits of different packets may
interleave on a physical link when the output queues belong to
different VCs, and the receiver needs the id to pick the right
switching state).

A :class:`CreditMessage` is the flow-control return signal: the
receiver of a flit sends one credit back when the flit leaves its
input buffer.  Credits travel with **zero delay** — the paper's "local
signal-based flow control" — which is what lets a one-flit input
buffer sustain one flit per cycle per link.

The helpers below send them over the gates: the flit sink and credit
emitter routers and interfaces use unless the batched engine's fast
path swaps in record-filing ones.  A flit sink takes one
``(link, flit)`` record, whose *link* is the sender's ``flit_link``:
the data gate here, the link's arrival entry on the fast path (see
:func:`repro.noc.router.deliver_records`), where the record itself is
what the calendar files.  The wire VC travels as ``flit.wire_vc``,
which the sender sets first.
"""

from __future__ import annotations

from repro.noc.packet import Flit
from repro.sim.messages import Message

FLIT_KIND = 1
CREDIT_KIND = 2


class FlitMessage(Message):
    """One flit in flight on a link."""

    __slots__ = ("flit", "wire_vc")

    def __init__(self, flit: Flit, wire_vc: int) -> None:
        super().__init__(name="flit", kind=FLIT_KIND)
        self.flit = flit
        self.wire_vc = wire_vc


class CreditMessage(Message):
    """One buffer slot freed at the downstream end of a link.

    Credits are per virtual channel: the downstream input port keeps
    one lane per VC, and the upstream sender tracks a credit counter
    per VC — the separation that makes the dateline discipline
    actually deadlock-free (a shared input buffer would let VC1
    traffic block behind VC0 traffic and close the ring's channel
    dependency cycle).
    """

    __slots__ = ("vc",)

    def __init__(self, vc: int) -> None:
        super().__init__(name="credit", kind=CREDIT_KIND)
        self.vc = vc


def gate_credit_records(gate, num_vcs: int) -> list[tuple]:
    """Per-VC credit records for credit *gate*: the ``(gate, vc)``
    pairs :func:`send_credit` consumes."""
    return [(gate, vc) for vc in range(num_vcs)]


def send_credit(record: tuple) -> None:
    """The event engines' credit emitter: one :class:`CreditMessage`
    over the record's gate."""
    gate, vc = record
    gate.module.send(CreditMessage(vc), gate)


def send_flit(record: tuple) -> None:
    """The event engines' flit sink: one :class:`FlitMessage` over
    the data gate of a ``(gate, flit)`` record."""
    gate, flit = record
    gate.module.send(FlitMessage(flit, flit.wire_vc), gate)
