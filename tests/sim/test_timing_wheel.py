"""Equivalence of the timing-wheel queue and the reference heap.

The kernel's correctness rests on one contract: the future-event set
delivers events in exact ``(time, priority, sequence)`` order, no
matter how pushes and (possibly limited) pops interleave.  These tests drive :class:`~repro.sim.events.CycleCalendar`
(the timing wheel) and :class:`~repro.sim.events.HeapEventQueue` (the
reference heap) with identical operation schedules — hypothesis
generates the schedules — and require identical observable behaviour,
including same-cycle priority/sequence ties and far-future events
that live in the calendar's overflow tier.  Pushes are monotone, as
the kernel's scheduling guard makes them: never before the current
time (the calendar rejects a push behind its cursor, which
``tests/sim/test_batched.py`` checks).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import CycleCalendar, Event, HeapEventQueue

# Times cluster at the wheel's short horizon (NoC link delays) but
# also reach far past its window so schedules exercise the overflow
# tier and the overflow->wheel migration.
_TIME = st.one_of(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=CycleCalendar.WINDOW * 3),
)

# An operation schedule: push(time_delta, priority), pop, or
# pop_next(limit_delta).
_OP = st.one_of(
    st.tuples(st.just("push"), _TIME, st.integers(-1, 2)),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("pop_limit"), _TIME),
)


def _run_schedule(queue, ops):
    """Apply *ops* to *queue*; return the observable trace.

    Push times are relative to a clock kept as the kernel keeps its
    own: the time of the last popped event, or the limit of a limited
    pop that found nothing due (a run stopped by ``until`` jumps the
    clock there).
    """
    trace = []
    clock = 0
    for op in ops:
        kind = op[0]
        if kind == "push":
            _, delta, priority = op
            queue.push(
                Event(time=clock + delta, priority=priority, sequence=0)
            )
        elif kind == "pop":
            event = queue.pop_next()
            if event is None:
                trace.append(("empty",))
            else:
                clock = event.time
                trace.append(
                    ("pop", event.time, event.priority, event.sequence)
                )
        else:  # pop_limit
            limit = clock + op[1]
            event = queue.pop_next(limit)
            if event is None:
                clock = limit
                trace.append(("blocked", queue.peek_time()))
            else:
                clock = event.time
                trace.append(
                    ("pop", event.time, event.priority, event.sequence)
                )
        trace.append(("len", len(queue)))
    # Drain whatever is left: total order must match to the end.
    while True:
        event = queue.pop_next()
        if event is None:
            break
        trace.append(
            ("pop", event.time, event.priority, event.sequence)
        )
    trace.append(("final_len", len(queue)))
    return trace


class TestWheelMatchesHeap:
    @given(ops=st.lists(_OP, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_identical_trace_for_any_schedule(self, ops):
        wheel_trace = _run_schedule(CycleCalendar(), ops)
        heap_trace = _run_schedule(HeapEventQueue(), ops)
        assert wheel_trace == heap_trace

    @given(
        priorities=st.lists(
            st.integers(0, 3), min_size=2, max_size=20
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_same_cycle_ties_break_by_priority_then_fifo(
        self, priorities
    ):
        """All events at one timestamp: delivery is (priority, push
        order) on both queues."""
        queues = (CycleCalendar(), HeapEventQueue())
        orders = []
        for queue in queues:
            for priority in priorities:
                queue.push(Event(time=5, priority=priority, sequence=0))
            order = []
            while queue:
                event = queue.pop()
                order.append((event.priority, event.sequence))
            orders.append(order)
        assert orders[0] == orders[1] == sorted(orders[0])

    def test_far_future_event_lands_in_overflow_then_delivers(self):
        queue = CycleCalendar()
        far = CycleCalendar.WINDOW + 50
        queue.push(Event(time=far, priority=0, sequence=0))
        queue.push(Event(time=1, priority=0, sequence=0))
        assert queue.occupancy() == {
            "pending": 2, "wheel": 1, "overflow": 1
        }
        assert queue.pop().time == 1
        # The wheel is now empty; serving the overflow event migrates
        # it into the (re-based) wheel window first.
        assert queue.pop().time == far
        assert not queue
