"""Two-phase cycle scheduler for the NoC agents.

Every cycle in which at least one agent has work, the scheduler runs
two global phases in strict order:

1. **advance** (event priority 1): routers move flits from input
   buffers into output queues and return credits (zero delay) to the
   upstream node;
2. **send** (event priority 2): routers and interfaces forward one
   flit per output port onto its link (delay >= 1), consuming the
   credits made visible by phase 1.

Running all advances before any send is what makes the zero-delay
credit return well defined: a credit freed anywhere in cycle *t* is
usable by its upstream sender in the same cycle, so a one-flit input
buffer sustains full link rate — the paper's "local signal-based flow
control".

Message deliveries (priority 0) always precede both phases of their
cycle, so flits and timer events arriving at *t* are visible to the
phases of *t*.

Idle agents cost nothing: an agent is ticked only while it reports
work pending, and any message delivery re-activates it.  This is an
optimisation over scheduling per-module self-message ticks (as a
plain OMNeT++ model would) — the semantics are identical, the heap
traffic is two events per cycle instead of two per module per cycle.
"""

from __future__ import annotations

from typing import Protocol

from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule

PRIORITY_DELIVER = 0
PRIORITY_ADVANCE = 1
PRIORITY_SEND = 2


class CycleAgent(Protocol):
    """What the scheduler requires of routers and interfaces."""

    def advance_phase(self) -> None: ...

    def send_phase(self) -> None: ...

    def has_pending_work(self) -> bool: ...


class _PhaseMessage(Message):
    __slots__ = ("phase",)

    def __init__(self, phase: str) -> None:
        super().__init__(name=f"phase-{phase}")
        self.phase = phase


class CycleScheduler(SimModule):
    """Drives the advance/send phases over the set of active agents."""

    def __init__(self, simulator: Simulator, name: str = "scheduler") -> None:
        super().__init__(simulator, name)
        self._agents: dict[CycleAgent, None] = {}
        self._tick_time: int | None = None
        self._advance_done_at = -1
        # One message object per phase for the scheduler's lifetime:
        # by the time a cycle re-arms, the previous cycle's events are
        # already delivered, so the two singletons are never aliased
        # by two pending events — and handle_message can dispatch on
        # identity instead of string comparison.
        self._advance_msg = _PhaseMessage("advance")
        self._send_msg = _PhaseMessage("send")
        # Called once per cycle after every agent's send_phase; the
        # batched engine's fast path sets it to flush the cycle's
        # link traversals in one batched update.
        self.flush_hook = None

    def activate(self, agent: CycleAgent) -> None:
        """Ensure *agent* participates in the next cycle's phases.

        Safe to call at any point of a cycle: activations triggered by
        message deliveries (priority 0) or by zero-delay credits
        landing between the phases join the current cycle; anything
        later joins the next one.
        """
        self._agents[agent] = None
        if self._tick_time is not None:
            return
        if self._advance_done_at < self.now:
            tick_time = self.now
        else:
            tick_time = self.now + 1
        self._tick_time = tick_time
        self.simulator.schedule(
            tick_time,
            self,
            self._advance_msg,
            priority=PRIORITY_ADVANCE,
        )
        self.simulator.schedule(
            tick_time,
            self,
            self._send_msg,
            priority=PRIORITY_SEND,
        )

    def handle_message(self, message: Message) -> None:
        if message is self._advance_msg:
            self._advance_done_at = self.now
            for agent in self._agents:
                agent.advance_phase()
            return
        if message is not self._send_msg:
            raise TypeError(f"unexpected message {message!r}")
        # Send phase ends the cycle: run sends, drop idle agents, and
        # re-arm for the next cycle if anyone still has work.
        for agent in self._agents:
            agent.send_phase()
        hook = self.flush_hook
        if hook is not None:
            hook()
        self._tick_time = None
        idle = [
            agent
            for agent in self._agents
            if not agent.has_pending_work()
        ]
        for agent in idle:
            del self._agents[agent]
        if self._agents:
            self.activate(next(iter(self._agents)))

    def close(self) -> None:
        """Forget the active agents (each refers back here through
        ``scheduler``) and the flush hook."""
        super().close()
        self._agents.clear()
        self.flush_hook = None

    @property
    def active_agents(self) -> int:
        """Number of agents currently being ticked."""
        return len(self._agents)
