"""Unit tests for the two-phase cycle scheduler."""

from repro.noc.scheduler import CycleScheduler
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule


class StubAgent:
    """Records phase invocations; stays active for a given number of
    send phases."""

    def __init__(self, name, active_cycles=1):
        self.name = name
        self.log = []
        self.remaining = active_cycles

    def advance_phase(self):
        self.log.append("advance")

    def send_phase(self):
        self.log.append("send")
        self.remaining -= 1

    def has_pending_work(self):
        return self.remaining > 0


class TestPhases:
    def test_advance_runs_before_send(self):
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        agent = StubAgent("a")
        scheduler.activate(agent)
        sim.run(until=0)
        assert agent.log == ["advance", "send"]

    def test_idle_agent_dropped_after_send(self):
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        agent = StubAgent("a", active_cycles=1)
        scheduler.activate(agent)
        sim.run(until=5)
        assert scheduler.active_agents == 0
        assert agent.log == ["advance", "send"]

    def test_busy_agent_ticked_every_cycle(self):
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        agent = StubAgent("a", active_cycles=3)
        scheduler.activate(agent)
        sim.run(until=10)
        assert agent.log == ["advance", "send"] * 3

    def test_no_ticks_without_agents(self):
        sim = Simulator()
        CycleScheduler(sim)
        processed = sim.run(until=100)
        assert processed == 0

    def test_multiple_agents_share_phases(self):
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        agents = [StubAgent(f"a{i}", active_cycles=2) for i in range(3)]
        for agent in agents:
            scheduler.activate(agent)
        sim.run(until=5)
        for agent in agents:
            assert agent.log == ["advance", "send"] * 2

    def test_activation_is_idempotent(self):
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        agent = StubAgent("a")
        scheduler.activate(agent)
        scheduler.activate(agent)
        sim.run(until=3)
        assert agent.log == ["advance", "send"]


class TestActivationTiming:
    def test_delivery_activation_joins_same_cycle(self):
        # A message delivered at cycle t (priority 0) activates its
        # agent before the phases of t run.
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        agent = StubAgent("a")

        class Activator(SimModule):
            def handle_message(self, message):
                scheduler.activate(agent)
                agent.log.append(f"delivery@{self.now}")

        activator = Activator(sim, "activator")
        sim.schedule(7, activator, Message("wake"))
        sim.run(until=7)
        assert agent.log == ["delivery@7", "advance", "send"]

    def test_reactivation_next_cycle(self):
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        first = StubAgent("first", active_cycles=1)
        late = StubAgent("late", active_cycles=1)

        class Activator(SimModule):
            def handle_message(self, message):
                scheduler.activate(late)

        activator = Activator(sim, "activator")
        scheduler.activate(first)  # phases at cycle 0
        sim.schedule(3, activator, Message("wake"))
        sim.run(until=5)
        assert first.log == ["advance", "send"]
        assert late.log == ["advance", "send"]


class BlockedAgent:
    """Holds one flit of work but moves nothing until unblocked."""

    def __init__(self, log, name="blocked"):
        self.name = name
        self.log = log
        self.blocked = True
        self.remaining = 1

    def advance_phase(self):
        self.log.append(f"{self.name}:advance")
        return False

    def send_phase(self):
        self.log.append(f"{self.name}:send")
        if self.blocked:
            return False
        self.remaining -= 1
        return True

    def has_pending_work(self):
        return self.remaining > 0


class TestSleep:
    def test_blocked_agent_sleeps_but_phases_continue(self):
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        log = []
        agent = BlockedAgent(log)
        scheduler.activate(agent)
        processed = sim.run(until=9)
        # Ticked once, then asleep: still active, and the two phase
        # events keep coming every cycle.
        assert log == ["blocked:advance", "blocked:send"]
        assert scheduler.active_agents == 1
        assert processed == 2 * 10

    def test_activate_wakes_a_sleeper_in_its_place(self):
        sim = Simulator()
        scheduler = CycleScheduler(sim)
        log = []
        first = BlockedAgent(log, "first")
        second = StubAgent("second", active_cycles=10)
        second.log = log

        class Unblocker(SimModule):
            def handle_message(self, message):
                first.blocked = False
                scheduler.activate(first)

        scheduler.activate(first)
        scheduler.activate(second)
        sim.schedule(3, Unblocker(sim, "unblocker"), Message("wake"))
        sim.run(until=3)
        # `first` sleeps from cycle 1 and, woken at 3, runs ahead of
        # `second` again: it kept its place.
        assert log[-4:] == [
            "first:advance", "advance", "first:send", "send",
        ]
        assert log.count("first:send") == 2
        assert scheduler.active_agents == 1
