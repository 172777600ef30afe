"""Tests for the kernel observer protocol."""

import pytest

from repro.sim.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule
from repro.sim.observers import Observer


class Echo(SimModule):
    def handle_message(self, message):
        pass


class Recording(Observer):
    """Logs every hook invocation into a shared journal."""

    def __init__(self, name, journal):
        self.name = name
        self.journal = journal

    def on_event_delivered(self, simulator, event):
        self.journal.append(
            (self.name, "event", event.time, event.message.name)
        )

    def on_time_advanced(self, simulator, old_time, new_time):
        self.journal.append((self.name, "time", old_time, new_time))


def schedule_burst(sim, module, times):
    for t in times:
        sim.schedule(t, module, Message(f"m{t}"))


class TestRegistration:
    def test_add_returns_observer_and_lists_in_order(self):
        sim = Simulator()
        first, second = Observer(), Observer()
        assert sim.add_observer(first) is first
        sim.add_observer(second)
        assert sim.observers == (first, second)

    def test_duplicate_add_rejected(self):
        sim = Simulator()
        observer = Observer()
        sim.add_observer(observer)
        with pytest.raises(SimulationError):
            sim.add_observer(observer)

    def test_remove_unregistered_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().remove_observer(Observer())

    def test_remove_is_identity_based(self):
        # Two distinct but equal-looking observers: removing one must
        # not detach the other.
        sim = Simulator()
        first, second = Observer(), Observer()
        sim.add_observer(first)
        sim.add_observer(second)
        sim.remove_observer(first)
        assert sim.observers == (second,)


class TestDispatch:
    def test_observers_fire_in_registration_order(self):
        sim = Simulator()
        module = Echo(sim, "echo")
        journal = []
        sim.add_observer(Recording("a", journal))
        sim.add_observer(Recording("b", journal))
        sim.schedule(3, module, Message("ping"))
        sim.run()
        deliveries = [e for e in journal if e[1] == "event"]
        assert [e[0] for e in deliveries] == ["a", "b"]

    def test_delivery_hook_fires_after_handler(self):
        order = []

        class Noting(SimModule):
            def handle_message(self, message):
                order.append("handler")

        class After(Observer):
            def on_event_delivered(self, simulator, event):
                order.append("observer")

        sim = Simulator()
        module = Noting(sim, "noting")
        sim.add_observer(After())
        sim.schedule(1, module, Message("m"))
        sim.run()
        assert order == ["handler", "observer"]

    def test_time_advanced_on_strict_increase_only(self):
        sim = Simulator()
        module = Echo(sim, "echo")
        journal = []
        sim.add_observer(Recording("t", journal))
        # Two events at t=2 advance time once; t=5 advances again.
        schedule_burst(sim, module, [2, 2, 5])
        sim.run()
        advances = [e for e in journal if e[1] == "time"]
        assert advances == [("t", "time", 0, 2), ("t", "time", 2, 5)]

    def test_time_advanced_covers_final_jump_to_until(self):
        sim = Simulator()
        module = Echo(sim, "echo")
        journal = []
        sim.add_observer(Recording("t", journal))
        sim.schedule(1, module, Message("m"))
        sim.run(until=10)
        advances = [e for e in journal if e[1] == "time"]
        assert advances[-1] == ("t", "time", 1, 10)
        assert sim.now == 10

    def test_observer_added_mid_run_sees_later_events(self):
        sim = Simulator()
        journal = []
        late = Recording("late", journal)

        class Attacher(SimModule):
            def handle_message(self, message):
                if message.name == "attach":
                    self.simulator.add_observer(late)

        module = Attacher(sim, "attacher")
        sim.schedule(1, module, Message("attach"))
        sim.schedule(2, module, Message("after"))
        sim.run()
        names = [e[3] for e in journal if e[1] == "event"]
        # Hooks fire post-dispatch, so the attaching delivery itself
        # is already observed.
        assert names == ["attach", "after"]


class TestDetachMidRun:
    def test_observer_can_detach_itself_from_callback(self):
        sim = Simulator()
        module = Echo(sim, "echo")
        journal = []

        class OneShot(Recording):
            def on_event_delivered(self, simulator, event):
                super().on_event_delivered(simulator, event)
                simulator.remove_observer(self)

        keeper = Recording("keeper", journal)
        sim.add_observer(OneShot("oneshot", journal))
        sim.add_observer(keeper)
        schedule_burst(sim, module, [1, 2, 3])
        sim.run()
        events = [e for e in journal if e[1] == "event"]
        assert [e[0] for e in events if e[0] == "oneshot"] == ["oneshot"]
        assert len([e for e in events if e[0] == "keeper"]) == 3
        assert sim.observers == (keeper,)

    def test_module_can_detach_observer_mid_run(self):
        sim = Simulator()
        journal = []
        watcher = Recording("w", journal)
        sim.add_observer(watcher)

        class Detacher(SimModule):
            def handle_message(self, message):
                if message.name == "detach":
                    self.simulator.remove_observer(watcher)

        module = Detacher(sim, "detacher")
        sim.schedule(1, module, Message("before"))
        sim.schedule(2, module, Message("detach"))
        sim.schedule(3, module, Message("after"))
        sim.run()
        names = [e[3] for e in journal if e[1] == "event"]
        # Hooks fire post-dispatch: the handler detaches the watcher
        # before the delivery hook runs, so "detach" goes unobserved.
        assert names == ["before"]


class TestKernelOrdering:
    def test_traces_full_noc_run(self):
        # Kernel-ordering regression: in a real NoC run, deliveries
        # at each cycle precede that cycle's phase messages.
        from repro.noc.network import Network
        from repro.noc.packet import Packet
        from repro.topology import RingTopology

        net = Network(RingTopology(4))
        journal = []
        net.simulator.add_observer(Recording("trace", journal))
        net.interfaces[0].enqueue_packet(Packet(0, 2, 2, created_at=0))
        net.simulator.run(until=100)
        events = [(t, name) for _, kind, t, name in journal
                  if kind == "event"]
        assert events
        times = [t for t, _ in events]
        assert times == sorted(times)
        by_time = {}
        for time, name in events:
            by_time.setdefault(time, []).append(name)
        for names in by_time.values():
            if "phase-advance" in names and "flit" in names:
                assert names.index("flit") < names.index(
                    "phase-advance"
                )


class TestNoMonkeyPatching:
    def test_tracer_does_not_replace_run(self):
        sim = Simulator()
        original_run = sim.run
        tracer = sim.add_observer(Recording("trace", []))
        # The observer protocol leaves the simulator untouched: no
        # instance attribute shadows the class method.
        assert "run" not in vars(sim)
        assert sim.run == original_run
        sim.remove_observer(tracer)
        assert "run" not in vars(sim)

    def test_base_observer_hooks_are_noops(self):
        sim = Simulator()
        module = Echo(sim, "echo")
        sim.add_observer(Observer())
        schedule_burst(sim, module, [1, 2])
        assert sim.run() == 2
