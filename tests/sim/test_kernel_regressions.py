"""Regression tests for kernel edge-case bugs.

Each class pins one historical bug:

* a ``run(until=..., max_events=...)`` call that stopped on the event
  cap used to jump ``now`` to ``until`` anyway, teleporting the clock
  past events that were still due;
* the timing wheel's ``clear()`` used to drop events without
  cancel-marking them, so a stale handle later passed to
  ``Simulator.cancel`` drove the live-event count negative;
* the ``CycleCalendar`` let its cursor run ahead of the kernel's
  clock: ``peek_time()`` moved it to the peeked time (a run stopped
  by ``until`` with observers, or by ``max_events``), a run stopped
  by ``until`` before a far-future timer jumped it to that timer, and
  a run that drained past cancelled events left it at them — and
  scheduling between the clock and the cursor raised
  ``SimulationError``.
"""

import pytest

from repro.sim.events import CycleCalendar, Event, HeapEventQueue
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule


class Recorder(SimModule):
    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.delivered = []

    def handle_message(self, message):
        self.delivered.append((self.now, message.name))


class TestMaxEventsStopKeepsTime:
    def test_cap_stop_leaves_now_at_last_delivery(self):
        sim = Simulator()
        module = Recorder(sim, "r")
        for t in range(5):
            sim.schedule(t, module, Message(f"m{t}"))
        processed = sim.run(until=100, max_events=3)
        assert processed == 3
        # Events at t=3 and t=4 are still due; the clock must not
        # have jumped past them to until=100.
        assert sim.now == 2
        assert sim.pending_event_count == 2

    def test_resumed_run_continues_where_the_cap_stopped(self):
        sim = Simulator()
        module = Recorder(sim, "r")
        for t in range(5):
            sim.schedule(t, module, Message(f"m{t}"))
        sim.run(until=100, max_events=3)
        sim.run(until=100)
        assert [t for t, _ in module.delivered] == [0, 1, 2, 3, 4]
        assert sim.now == 100

    def test_cap_stop_with_drained_queue_still_jumps_to_until(self):
        """When the cap coincides with the last event, the run IS
        time-limited: nothing is pending, so now advances to until
        (the pre-existing contract for drained runs)."""
        sim = Simulator()
        module = Recorder(sim, "r")
        for t in range(3):
            sim.schedule(t, module, Message(f"m{t}"))
        sim.run(until=100, max_events=3)
        assert sim.now == 100

    def test_cap_stop_with_only_later_events_jumps_to_until(self):
        """Pending events beyond the horizon don't hold the clock
        back either — they were unreachable in this run."""
        sim = Simulator()
        module = Recorder(sim, "r")
        sim.schedule(0, module, Message("inside"))
        sim.schedule(500, module, Message("beyond"))
        sim.run(until=100, max_events=1)
        assert sim.now == 100
        assert sim.pending_event_count == 1

    def test_cap_stop_respected_with_observer_attached(self):
        from repro.sim.observers import Observer

        sim = Simulator()
        sim.add_observer(Observer())
        module = Recorder(sim, "r")
        for t in range(5):
            sim.schedule(t, module, Message(f"m{t}"))
        sim.run(until=100, max_events=3)
        assert sim.now == 2


@pytest.mark.parametrize("engine", ["wheel", "heap", "batched"])
class TestClearCancelMarksDroppedEvents:
    def test_stale_cancel_after_clear_is_harmless(self, engine):
        sim = Simulator(engine=engine)
        module = Recorder(sim, "r")
        stale = sim.schedule(10, module, Message("timer"))
        sim._queue.clear()
        assert sim.pending_event_count == 0
        # The module still holds its timer handle; cancelling it must
        # be an idempotent no-op, not corrupt the live-event count.
        sim.cancel(stale)
        assert sim.pending_event_count == 0
        sim.schedule(1, module, Message("fresh"))
        assert sim.pending_event_count == 1
        sim.run()
        assert [name for _, name in module.delivered] == ["fresh"]


@pytest.mark.parametrize(
    "queue_class", [CycleCalendar, HeapEventQueue]
)
class TestClearMarksEveryTier:
    def test_clear_marks_every_tier(self, queue_class):
        queue = queue_class()
        near = queue.push(Event(time=1, priority=0, sequence=0))
        far = queue.push(
            Event(
                time=CycleCalendar.WINDOW + 100,
                priority=0,
                sequence=0,
            )
        )
        queue.clear()
        assert near.cancelled and far.cancelled
        assert len(queue) == 0
        assert queue.pop_next() is None


@pytest.mark.parametrize("engine", ["wheel", "heap", "batched"])
class TestCursorNeverPassesClock:
    def test_schedule_after_cap_stop_with_later_event(self, engine):
        sim = Simulator(engine=engine)
        module = Recorder(sim, "r")
        sim.schedule(10, module, Message("first"))
        sim.schedule(50, module, Message("later"))
        sim.run(until=100, max_events=1)
        assert sim.now == 10
        sim.schedule(20, module, Message("between"))
        sim.run()
        assert module.delivered == [
            (10, "first"), (20, "between"), (50, "later")
        ]

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

    def test_schedule_after_run_drained_past_cancelled_event(self, engine):
        sim = Simulator(engine=engine)
        module = Recorder(sim, "r")
        sim.schedule(5, module, Message("live"))
        sim.cancel(sim.schedule(50, module, Message("cancelled")))
        sim.run()
        assert sim.now == 5
        sim.schedule(20, module, Message("later"))
        sim.run()
        assert module.delivered == [(5, "live"), (20, "later")]

    def test_schedule_after_until_stop_before_far_timer(self, engine):
        sim = Simulator(engine=engine)
        module = Recorder(sim, "r")
        sim.schedule(1_000, module, Message("far"))
        sim.run(until=5)
        sim.schedule(10, module, Message("near"))
        sim.run()
        assert module.delivered == [(10, "near"), (1_000, "far")]

    def test_schedule_at_until_after_cancelled_event_there(self, engine):
        sim = Simulator(engine=engine)
        module = Recorder(sim, "r")
        sim.cancel(sim.schedule(100, module, Message("cancelled")))
        sim.schedule(150, module, Message("late"))
        sim.run(until=100)
        sim.schedule(100, module, Message("at-until"))
        sim.run()
        assert module.delivered == [(100, "at-until"), (150, "late")]
