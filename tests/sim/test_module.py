"""Unit tests for modules, gates and message plumbing."""

import pytest

from repro.sim.errors import GateConnectionError
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule


class Echo(SimModule):
    """Records deliveries; can forward through a named gate."""

    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.received = []

    def handle_message(self, message):
        self.received.append((self.now, message))


class TestGates:
    def test_add_and_lookup_gate(self):
        sim = Simulator()
        module = Echo(sim, "a")
        gate = module.add_gate("out")
        assert module.gate("out") is gate
        assert gate.full_name == "a.out"

    def test_duplicate_gate_name_rejected(self):
        sim = Simulator()
        module = Echo(sim, "a")
        module.add_gate("out")
        with pytest.raises(GateConnectionError):
            module.add_gate("out")

    def test_missing_gate_raises_keyerror(self):
        sim = Simulator()
        module = Echo(sim, "a")
        with pytest.raises(KeyError):
            module.gate("nope")

    def test_connect_twice_rejected(self):
        sim = Simulator()
        a, b, c = Echo(sim, "a"), Echo(sim, "b"), Echo(sim, "c")
        out = a.add_gate("out")
        out.connect(b.add_gate("in"))
        with pytest.raises(GateConnectionError):
            out.connect(c.add_gate("in"))

    def test_negative_delay_rejected(self):
        sim = Simulator()
        a, b = Echo(sim, "a"), Echo(sim, "b")
        with pytest.raises(GateConnectionError):
            a.add_gate("out").connect(b.add_gate("in"), delay=-1)

    def test_is_connected(self):
        sim = Simulator()
        a, b = Echo(sim, "a"), Echo(sim, "b")
        gate = a.add_gate("out")
        assert not gate.is_connected()
        gate.connect(b.add_gate("in"))
        assert gate.is_connected()


class TestSend:
    def _wire(self, delay=1):
        sim = Simulator()
        a, b = Echo(sim, "a"), Echo(sim, "b")
        a.add_gate("out").connect(b.add_gate("in"), delay=delay)
        return sim, a, b

    def test_send_delivers_after_delay(self):
        sim, a, b = self._wire(delay=3)
        sim.schedule(5, a, Message("go"), handler=lambda m: a.send(
            Message("payload"), "out"
        ))
        sim.run()
        assert [(t, m.name) for t, m in b.received] == [(8, "payload")]

    def test_send_zero_delay_same_cycle(self):
        sim, a, b = self._wire(delay=0)
        sim.schedule(5, a, Message("go"), handler=lambda m: a.send(
            Message("payload"), "out"
        ))
        sim.run()
        assert b.received[0][0] == 5

    def test_send_records_metadata(self):
        sim, a, b = self._wire()
        payload = Message("payload")
        sim.schedule(2, a, Message("go"), handler=lambda m: a.send(
            payload, "out"
        ))
        sim.run()
        assert payload.sender is a
        assert payload.arrival_gate is b.gate("in")
        assert payload.sent_at == 2
        assert not payload.is_self_message()

    def test_send_through_unconnected_gate_rejected(self):
        sim = Simulator()
        a = Echo(sim, "a")
        a.add_gate("out")
        sim.schedule(0, a, Message("go"), handler=lambda m: a.send(
            Message("x"), "out"
        ))
        with pytest.raises(GateConnectionError):
            sim.run()

    def test_send_through_foreign_gate_rejected(self):
        sim = Simulator()
        a, b, c = Echo(sim, "a"), Echo(sim, "b"), Echo(sim, "c")
        foreign = b.add_gate("out")
        foreign.connect(c.add_gate("in"))
        sim.schedule(0, a, Message("go"), handler=lambda m: a.send(
            Message("x"), foreign
        ))
        with pytest.raises(GateConnectionError):
            sim.run()


class TestSelfMessages:
    def test_schedule_self_fires_after_delay(self):
        sim = Simulator()
        module = Echo(sim, "a")
        timer = Message("timer")
        sim.schedule(1, module, Message("go"), handler=lambda m: (
            module.schedule_self(4, timer)
        ))
        sim.run()
        assert [(t, m.name) for t, m in module.received] == [(5, "timer")]

    def test_self_message_flagged(self):
        sim = Simulator()
        module = Echo(sim, "a")
        timer = Message("timer")
        sim.schedule(0, module, Message("go"), handler=lambda m: (
            module.schedule_self(1, timer)
        ))
        sim.run()
        assert timer.is_self_message()
        assert timer.arrival_gate is None

    def test_now_property_tracks_simulator(self):
        sim = Simulator()
        module = Echo(sim, "a")
        sim.schedule(9, module, Message("m"))
        sim.run()
        assert module.now == 9
