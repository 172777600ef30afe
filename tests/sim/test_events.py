"""Unit tests for the event queues: ordering, length, emptiness.

Every test runs on both queues, :class:`HeapEventQueue` and the
:class:`CycleCalendar` timing wheel.
"""

import pytest

from repro.sim.events import CycleCalendar, Event, HeapEventQueue

QUEUES = (HeapEventQueue, CycleCalendar)


def make_event(time, priority=0):
    return Event(time=time, priority=priority, sequence=0)


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        for make_queue in QUEUES:
            queue = make_queue()
            for t in (5, 1, 3):
                queue.push(make_event(t))
            assert [queue.pop().time for _ in range(3)] == [1, 3, 5]

    def test_priority_breaks_time_ties(self):
        for make_queue in QUEUES:
            queue = make_queue()
            queue.push(make_event(2, priority=2))
            queue.push(make_event(2, priority=0))
            queue.push(make_event(2, priority=1))
            assert [queue.pop().priority for _ in range(3)] == [0, 1, 2]

    def test_fifo_within_time_and_priority(self):
        for make_queue in QUEUES:
            queue = make_queue()
            events = [make_event(4) for _ in range(5)]
            for event in events:
                queue.push(event)
            popped = [queue.pop() for _ in range(5)]
            assert popped == events

    def test_sequence_assigned_monotonically(self):
        for make_queue in QUEUES:
            queue = make_queue()
            first = queue.push(make_event(1))
            second = queue.push(make_event(1))
            assert second.sequence > first.sequence

    def test_interleaved_push_pop(self):
        for make_queue in QUEUES:
            queue = make_queue()
            queue.push(make_event(10))
            queue.push(make_event(2))
            assert queue.pop().time == 2
            queue.push(make_event(5))
            assert queue.pop().time == 5
            assert queue.pop().time == 10

    def test_peek_time_leaves_earlier_pushes_legal(self):
        """A run stopped by ``until`` peeks past the clock; the kernel
        may still schedule between the clock and the peeked time."""
        for make_queue in QUEUES:
            queue = make_queue()
            queue.push(make_event(50))
            assert queue.peek_time() == 50
            queue.push(make_event(20))
            assert [queue.pop().time for _ in range(2)] == [20, 50]


class TestEventQueueLength:
    def test_len_counts_every_tier(self):
        """``len`` is what the storage holds: the calendar's ring
        slots plus its overflow heap (t=1000 lies past the window)."""
        for make_queue in QUEUES:
            queue = make_queue()
            for t in (1, 2, 1000):
                queue.push(make_event(t))
            assert len(queue) == 3
            queue.pop()
            assert len(queue) == 2
            assert queue.pop_next(limit=100).time == 2
            assert len(queue) == 1
            assert queue.pop_next(limit=100) is None
            assert len(queue) == 1
            assert queue.pop().time == 1000
            assert len(queue) == 0


class TestEventQueueEmpty:
    def test_pop_empty_raises(self):
        for make_queue in QUEUES:
            with pytest.raises(IndexError):
                make_queue().pop()

    def test_peek_time_empty_is_none(self):
        for make_queue in QUEUES:
            assert make_queue().peek_time() is None

    def test_bool_reflects_liveness(self):
        for make_queue in QUEUES:
            queue = make_queue()
            assert not queue
            queue.push(make_event(1))
            assert queue
            queue.pop()
            assert not queue

    def test_clear_drops_everything(self):
        for make_queue in QUEUES:
            queue = make_queue()
            for t in range(5):
                queue.push(make_event(t))
            queue.clear()
            assert len(queue) == 0
            assert queue.peek_time() is None
