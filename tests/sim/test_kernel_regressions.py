"""Regression tests for kernel edge-case bugs.

The ``CycleCalendar`` used to let its cursor run ahead of the
kernel's clock: ``peek_time()`` moved it to the peeked time (a run
stopped by ``until`` with observers), and a run stopped by ``until``
before a far-future timer jumped it to that timer — and scheduling
between the clock and the cursor raised ``SimulationError``.
"""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule


class Recorder(SimModule):
    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.delivered = []

    def handle_message(self, message):
        self.delivered.append((self.now, message.name))


@pytest.mark.parametrize("engine", ["wheel", "heap", "batched"])
class TestCursorNeverPassesClock:
    def test_schedule_after_observed_until_stop(self, engine):
        from repro.sim.observers import Observer

        sim = Simulator(engine=engine)
        sim.add_observer(Observer())
        module = Recorder(sim, "r")
        sim.schedule(150, module, Message("late"))
        sim.run(until=100)
        assert sim.now == 100
        sim.schedule(120, module, Message("early"))
        sim.run()
        assert module.delivered == [(120, "early"), (150, "late")]

    def test_schedule_after_until_stop_before_far_timer(self, engine):
        sim = Simulator(engine=engine)
        module = Recorder(sim, "r")
        sim.schedule(1_000, module, Message("far"))
        sim.run(until=5)
        sim.schedule(10, module, Message("near"))
        sim.run()
        assert module.delivered == [(10, "near"), (1_000, "far")]
