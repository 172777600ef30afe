"""Unit tests for the simulator: scheduling, run control, lifecycle."""

import pytest

from repro.sim.errors import SchedulingError, SimulationError
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule


class Recorder(SimModule):
    """Records every delivery as (time, message name)."""

    def __init__(self, simulator, name="recorder"):
        super().__init__(simulator, name)
        self.deliveries = []
        self.initialized = False

    def initialize(self):
        self.initialized = True

    def handle_message(self, message):
        self.deliveries.append((self.now, message.name))


class TestScheduling:
    def test_delivery_at_scheduled_time(self):
        sim = Simulator()
        recorder = Recorder(sim)
        sim.schedule(5, recorder, Message("hello"))
        sim.run()
        assert recorder.deliveries == [(5, "hello")]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        recorder = Recorder(sim)
        sim.schedule(3, recorder, Message("a"))
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule(2, recorder, Message("late"))

    def test_schedule_at_current_time_allowed(self):
        sim = Simulator()
        recorder = Recorder(sim)

        class Chainer(SimModule):
            def handle_message(self, message):
                if message.name == "first":
                    self.simulator.schedule(
                        self.now, recorder, Message("same-cycle")
                    )

        chainer = Chainer(sim, "chainer")
        sim.schedule(4, chainer, Message("first"))
        sim.run()
        assert recorder.deliveries == [(4, "same-cycle")]

    def test_handler_override(self):
        sim = Simulator()
        recorder = Recorder(sim)
        seen = []
        sim.schedule(
            1, recorder, Message("custom"), handler=lambda m: seen.append(m)
        )
        sim.run()
        assert [m.name for m in seen] == ["custom"]
        assert recorder.deliveries == []


class TestRunControl:
    def test_until_processes_events_at_boundary(self):
        sim = Simulator()
        recorder = Recorder(sim)
        sim.schedule(10, recorder, Message("at-10"))
        sim.schedule(11, recorder, Message("at-11"))
        sim.run(until=10)
        assert recorder.deliveries == [(10, "at-10")]
        assert sim.now == 10

    def test_run_continues_incrementally(self):
        sim = Simulator()
        recorder = Recorder(sim)
        sim.schedule(10, recorder, Message("a"))
        sim.schedule(20, recorder, Message("b"))
        sim.run(until=15)
        assert sim.now == 15
        sim.run(until=25)
        assert [t for t, _ in recorder.deliveries] == [10, 20]

    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        Recorder(sim)
        sim.run(until=100)
        assert sim.now == 100

    def test_run_returns_processed_count(self):
        sim = Simulator()
        recorder = Recorder(sim)
        for t in (1, 2, 3):
            sim.schedule(t, recorder, Message("m"))
        assert sim.run() == 3
        assert sim.events_processed == 3

    def test_empty_queue_stops_run(self):
        sim = Simulator()
        Recorder(sim)
        assert sim.run() == 0

    def test_run_without_stop_condition_terminates_on_drain(self):
        # run() without `until` is legal: the loop ends when the
        # queue drains, even for event chains that
        # reschedule a bounded number of follow-ups.
        sim = Simulator()
        recorder = Recorder(sim)

        class Chain(SimModule):
            def handle_message(self, message):
                hops_left = int(message.name)
                if hops_left > 0:
                    self.simulator.schedule(
                        self.now + 2, self, Message(str(hops_left - 1))
                    )
                else:
                    self.simulator.schedule(
                        self.now, recorder, Message("done")
                    )

        chain = Chain(sim, "chain")
        sim.schedule(1, chain, Message("5"))
        processed = sim.run()
        assert processed == 7  # 6 chain hops + the final delivery
        assert recorder.deliveries == [(11, "done")]
        assert sim.pending_event_count == 0


class TestLifecycle:
    def test_initialize_called_once_before_first_event(self):
        sim = Simulator()
        recorder = Recorder(sim)
        sim.schedule(1, recorder, Message("m"))
        sim.run()
        sim.run()
        assert recorder.initialized

    def test_duplicate_module_names_rejected(self):
        sim = Simulator()
        Recorder(sim, "twin")
        with pytest.raises(SimulationError):
            Recorder(sim, "twin")

    def test_module_registered_after_init_is_initialized_on_next_run(self):
        sim = Simulator()
        first = Recorder(sim, "first")
        sim.schedule(1, first, Message("m"))
        sim.run()
        late = Recorder(sim, "late")
        # Deferred until the next run so the subclass constructor has
        # finished before initialize() fires.
        assert not late.initialized
        sim.run()
        assert late.initialized

    def test_pending_events_counter(self):
        sim = Simulator()
        recorder = Recorder(sim)
        sim.schedule(1, recorder, Message("m"))
        sim.schedule(2, recorder, Message("m"))
        assert sim.pending_event_count == 2
        sim.run(until=1)
        assert sim.pending_event_count == 1

    def test_pending_events_iterates_live_events_only(self):
        sim = Simulator()
        recorder = Recorder(sim)
        sim.schedule(1, recorder, Message("delivered"))
        keep = sim.schedule(2, recorder, Message("keep"))
        sim.run(until=1)
        live = list(sim.pending_events())
        assert live == [keep]
        assert sim.pending_event_count == 1
