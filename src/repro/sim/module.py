"""Modules and gates: the structural half of the kernel.

A :class:`SimModule` is the unit of behaviour (a router, a network
interface, a traffic source).  Modules expose named :class:`Gate`
objects; an *output* gate is connected to exactly one *input* gate of
another module through a channel with a fixed integer delay.  Sending a
message through a gate schedules its delivery at
``now + channel_delay``.

This mirrors the OMNeT++ simple-module/gate model closely enough that
the paper's node architecture (figure 4) maps one-to-one onto it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.errors import GateConnectionError
from repro.sim.events import Event
from repro.sim.messages import Message

if TYPE_CHECKING:
    from repro.sim.kernel import Simulator


class Gate:
    """A named connection point on a module.

    Gates are created through :meth:`SimModule.add_gate` and wired with
    :meth:`connect`.  A gate may have at most one outgoing channel; any
    number of gates may point *to* the same input gate (fan-in), which
    the NoC model does not use but costs nothing to allow.  Closing the
    simulator sets ``module`` and ``peer`` back to ``None``.
    """

    __slots__ = ("module", "name", "peer", "delay")

    def __init__(self, module: "SimModule", name: str) -> None:
        self.module = module
        self.name = name
        self.peer: "Gate | None" = None
        self.delay = 0

    @property
    def full_name(self) -> str:
        """Dotted ``module.gate`` identifier for diagnostics."""
        return f"{self.module.name}.{self.name}"

    def connect(self, peer: "Gate", delay: int = 1) -> None:
        """Create a unidirectional channel ``self -> peer``.

        Args:
            peer: Destination gate on another module.
            delay: Channel latency in cycles; must be >= 0.

        Raises:
            GateConnectionError: if this gate is already connected or
                the delay is negative.
        """
        if self.peer is not None:
            raise GateConnectionError(
                f"gate {self.full_name} is already connected to "
                f"{self.peer.full_name}"
            )
        if delay < 0:
            raise GateConnectionError(
                f"channel delay must be >= 0, got {delay}"
            )
        self.peer = peer
        self.delay = delay

    def is_connected(self) -> bool:
        return self.peer is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = self.peer.full_name if self.peer else None
        return f"Gate({self.full_name} -> {target}, delay={self.delay})"


class SimModule:
    """Base class for all behavioural components.

    Subclasses override :meth:`handle_message` (and optionally
    :meth:`initialize` / :meth:`close`).  Within a handler they may
    call :meth:`send` and :meth:`schedule_self`.

    Modules must be registered with a :class:`Simulator` before the
    simulation starts; registration happens automatically when the
    module is constructed with a simulator argument.
    """

    def __init__(self, simulator: "Simulator", name: str) -> None:
        self.simulator = simulator
        self.name = name
        self.gates: dict[str, Gate] = {}
        simulator.register_module(self)

    # -- structure ---------------------------------------------------

    def add_gate(self, name: str) -> Gate:
        """Create and return a gate named *name*.

        Raises:
            GateConnectionError: if the name is already taken.
        """
        if name in self.gates:
            raise GateConnectionError(
                f"module {self.name} already has a gate named {name!r}"
            )
        gate = Gate(self, name)
        self.gates[name] = gate
        return gate

    def gate(self, name: str) -> Gate:
        """Return the gate named *name*.

        Raises:
            KeyError: if no such gate exists.
        """
        return self.gates[name]

    # -- lifecycle hooks ---------------------------------------------

    def initialize(self) -> None:
        """Called once by the simulator before the first event."""

    def handle_message(self, message: Message) -> None:
        """Called on every delivery addressed to this module."""
        raise NotImplementedError

    def close(self) -> None:
        """Called by :meth:`Simulator.close
        <repro.sim.kernel.Simulator.close>`: cut every gate's module
        and peer links, which close reference cycles through the
        module.  Subclasses that hold further cycles (compiled
        closures, callbacks into their owner) drop them here too and
        keep their counters readable."""
        for gate in self.gates.values():
            gate.module = None
            gate.peer = None

    # -- actions -----------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        # Reads the simulator's field directly: send() runs once per
        # event on every experiment's hot path, and the extra property
        # hop through Simulator.now is measurable there.
        return self.simulator._now

    def send(self, message: Message, gate: Gate | str) -> "Event":
        """Send *message* through *gate*; delivery after the channel delay.

        Args:
            message: Message to deliver.
            gate: A :class:`Gate` owned by this module, or its name.

        Raises:
            GateConnectionError: if the gate is unconnected or not
                owned by this module.
        """
        if isinstance(gate, str):
            gate = self.gates[gate]
        if gate.module is not self:
            raise GateConnectionError(
                f"module {self.name} cannot send through foreign gate "
                f"{gate.full_name}"
            )
        peer = gate.peer
        if peer is None:
            raise GateConnectionError(
                f"gate {gate.full_name} is not connected"
            )
        simulator = self.simulator
        now = simulator._now
        message.sender = self
        message.arrival_gate = peer
        message.sent_at = now
        if message.created_at is None:
            message.created_at = now
        # Bypasses Simulator.schedule: its past-time guard cannot fire
        # here (connect() rejects negative delays, so the delivery is
        # never before ``now``), and this call is once-per-event hot.
        return simulator._queue.push(
            Event(
                time=now + gate.delay,
                priority=0,
                sequence=0,
                target=peer.module,
                message=message,
            )
        )

    def schedule_self(
        self, delay: int, message: Message, priority: int = 0
    ) -> "Event":
        """Schedule *message* back to this module after *delay* cycles.

        Self-messages are the kernel's timers; ``message.arrival_gate``
        is ``None`` on delivery.
        """
        simulator = self.simulator
        now = simulator._now
        message.sender = self
        message.arrival_gate = None
        message.sent_at = now
        if message.created_at is None:
            message.created_at = now
        return simulator.schedule(
            now + delay, self, message, priority=priority
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
