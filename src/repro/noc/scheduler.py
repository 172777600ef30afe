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

Blocked agents cost nothing either.  Each phase reports whether it
moved a flit (a killed packet dropped counts as a move); an agent
that moved nothing in a whole cycle but still has work *sleeps*: it
keeps its place among the active agents, so the phase order and the
two phase events per cycle stay exactly as they were, but its phases
are skipped.  Nothing but an outside change can unblock it — a flit
or credit arriving, a packet generated or replayed, a packet killed
(by a link failure or for want of a route), a forced drain move —
and each of those wakes it through :meth:`CycleScheduler.activate`
or :meth:`CycleScheduler.keep_awake`.  A repaired link needs no
wake: while the link was dead nothing could wait on it.
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
    """What the scheduler requires of routers and interfaces.

    Each phase returns whether it made progress.  ``False`` means it
    changed nothing (the agent may sleep); anything else, ``None``
    included, counts as progress, so an agent that never reports
    simply never sleeps.
    """

    def advance_phase(self) -> bool | None: ...

    def send_phase(self) -> bool | None: ...

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
        #: Active agents (those with work) in activation order, each
        #: mapped to whether it is awake; a sleeping agent keeps its
        #: place.
        self._agents: dict[CycleAgent, bool] = {}
        #: Agents that made progress this cycle before the send phase
        #: (or must stay awake through the next one).
        self._advanced: set[CycleAgent] = set()
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
        """Ensure *agent* participates in the next cycle's phases,
        waking it if it sleeps.

        Safe to call at any point of a cycle: activations triggered by
        message deliveries (priority 0) or by zero-delay credits
        landing between the phases join the current cycle; anything
        later joins the next one.
        """
        self._agents[agent] = True
        if self._tick_time is None:
            self._arm()

    def keep_awake(self, agent: CycleAgent) -> None:
        """Wake *agent* and keep it from sleeping at the end of this
        cycle, so that its advance runs again next cycle.

        For changes made to an agent outside its phases that its next
        advance must see: a plain wake can come after the agent's
        advance this cycle (a packet killed mid-phase frees queues),
        or the change only takes effect next cycle (a flit forced into
        an output queue blocks it and waits for the pipeline until
        then)."""
        self._advanced.add(agent)
        self.activate(agent)

    def _arm(self) -> None:
        """Schedule the phase events of the next cycle to run: this
        one if its advance phase has not run yet."""
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
        agents = self._agents
        if message is self._advance_msg:
            self._advance_done_at = self.now
            advanced = self._advanced
            for agent, awake in agents.items():
                if awake and agent.advance_phase() is not False:
                    advanced.add(agent)
            return
        if message is not self._send_msg:
            raise TypeError(f"unexpected message {message!r}")
        # Send phase ends the cycle: run sends, put agents that moved
        # nothing this cycle to sleep (or drop them when idle), and
        # re-arm for the next cycle if anyone still has work.
        advanced = self._advanced
        idle = []
        for agent, awake in agents.items():
            if not awake:
                continue
            if agent.send_phase() is False and agent not in advanced:
                if agent.has_pending_work():
                    agents[agent] = False
                    continue
                idle.append(agent)
            elif not agent.has_pending_work():
                idle.append(agent)
        advanced.clear()
        hook = self.flush_hook
        if hook is not None:
            hook()
        self._tick_time = None
        for agent in idle:
            del agents[agent]
        if agents:
            self._arm()

    def close(self) -> None:
        """Forget the active and sleeping agents (each refers back
        here through ``scheduler``) and the flush hook."""
        super().close()
        self._agents.clear()
        self._advanced.clear()
        self.flush_hook = None

    @property
    def active_agents(self) -> int:
        """Number of agents with work, sleeping ones included."""
        return len(self._agents)
