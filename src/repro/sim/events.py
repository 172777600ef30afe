"""Event representation and the pending-event queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence
number is a monotonically increasing counter assigned at scheduling
time, so events that share a timestamp and priority are delivered in
FIFO order.  This matches the OMNeT++ guarantee that the paper's node
models implicitly rely on (e.g. a flit arriving and a credit arriving
in the same cycle are processed in the order they were sent).

Two queue implementations share that contract:

* :class:`EventQueue` — the default, a calendar queue (timing wheel):
  an array of per-cycle buckets covering a short horizon of
  ``WHEEL_SLOTS`` cycles past the queue's cursor, with a binary-heap
  *overflow tier* for events beyond it.  NoC traffic is dominated by
  link-delay events 1–3 cycles out, so nearly every push is an O(1)
  bucket append instead of an O(log n) heap sift, and popping the next
  event is a short cursor scan (OMNeT++'s future-event set uses the
  same structure for the same reason).
* :class:`HeapEventQueue` — the original single binary heap, kept as
  the reference implementation: property tests drive both with random
  schedules and require identical delivery order, and any simulation
  can be re-run on it (``REPRO_ENGINE=heap``) to prove results
  are independent of the queue structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from repro.sim.messages import Message
    from repro.sim.module import SimModule

#: Sentinel upper bound for ``pop_next``: any event time compares
#: below it, so "no limit" costs the same single comparison.
_NO_LIMIT = float("inf")


@dataclass(order=True, slots=True)
class Event:
    """A pending message delivery.

    Attributes:
        time: Simulation cycle at which the event fires.
        priority: Tie-breaker among events at the same time; lower
            values fire first.  Kernel-internal events use 0; models
            may use other values to force intra-cycle phases.
        sequence: Scheduling order counter, assigned by the queue.
        target: Module whose handler receives the message.
        message: The message being delivered.
        handler: Optional callable override; when set, the kernel
            invokes it instead of ``target.handle_message``.
    """

    time: int
    priority: int
    sequence: int
    target: "SimModule | None" = field(compare=False, default=None)
    message: "Message | None" = field(compare=False, default=None)
    handler: Callable[["Message"], None] | None = field(
        compare=False, default=None
    )
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class EventQueue:
    """Timing-wheel (calendar queue) of :class:`Event` objects.

    Structure:

    * ``_wheel`` — ``WHEEL_SLOTS`` bucket lists indexed by
      ``time & _mask``.  The wheel covers the half-open window
      ``[_base, _base + WHEEL_SLOTS)``; within it each slot maps to
      exactly one timestamp, so a bucket holds same-time events only.
      Buckets are small binary heaps ordered by ``(priority,
      sequence)`` (the shared ``time`` makes the full ``Event`` order
      degenerate to that), and the common single-event bucket costs a
      plain list append.
    * ``_overflow`` — a binary heap for events at or past the window's
      end (far-future timers such as low-rate traffic generators), and
      for events pushed *before* ``_base`` (the kernel never does
      this, but the queue stays correct standalone).  Overflow events
      whose time enters the window as the cursor advances are migrated
      into their bucket.

    The cursor ``_base`` only moves forward, driven by pops; pushes
    never move it.  Cancelled events stay where they are and are
    discarded lazily when they reach a bucket or heap front, which
    keeps cancellation O(1).
    """

    WHEEL_SLOTS = 256  # power of two; covers link delays and short timers

    __slots__ = (
        "_wheel",
        "_mask",
        "_size",
        "_base",
        "_wheel_count",
        "_overflow",
        "_sequence",
        "_live",
    )

    def __init__(self) -> None:
        self._size = self.WHEEL_SLOTS
        self._mask = self._size - 1
        self._wheel: list[list[Event]] = [
            [] for _ in range(self._size)
        ]
        self._base = 0
        #: Events (live or lazily-cancelled) currently in wheel buckets.
        self._wheel_count = 0
        self._overflow: list[Event] = []
        self._sequence = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event*, stamping its sequence number."""
        event.sequence = self._sequence
        self._sequence += 1
        offset = event.time - self._base
        if 0 <= offset < self._size:
            bucket = self._wheel[event.time & self._mask]
            if bucket:
                # Same-cycle ordering is (priority, sequence); the
                # shared timestamp makes Event's full order reduce to
                # exactly that.
                heappush(bucket, event)
            else:
                bucket.append(event)
            self._wheel_count += 1
        else:
            heappush(self._overflow, event)
        self._live += 1
        return event

    def _front(self) -> tuple[list[Event] | None, Event | None]:
        """Locate the earliest live event without removing it.

        Returns ``(bucket, event)`` where *bucket* is the wheel bucket
        holding the event, or ``None`` when it lives in the overflow
        heap; ``(None, None)`` when the queue holds no live event.
        Cancelled events encountered at a front are discarded, and the
        cursor advances over empty buckets as a side effect.
        """
        over = self._overflow
        while over and over[0].cancelled:
            heappop(over)
        if not self._wheel_count and over:
            # Wheel empty: jump the window to the overflow front and
            # pull every overflow event that now fits into its bucket,
            # so the events of that cycle (and the cycles after it)
            # batch on the fast tier.
            head_time = over[0].time
            if head_time > self._base:
                self._base = head_time
            limit = self._base + self._size
            base = self._base
            while over and base <= over[0].time < limit:
                event = heappop(over)
                bucket = self._wheel[event.time & self._mask]
                if bucket:
                    heappush(bucket, event)
                else:
                    bucket.append(event)
                self._wheel_count += 1
        bucket = None
        if self._wheel_count:
            wheel = self._wheel
            mask = self._mask
            t = self._base
            while True:
                candidate = wheel[t & mask]
                while candidate and candidate[0].cancelled:
                    heappop(candidate)
                    self._wheel_count -= 1
                if candidate:
                    self._base = t
                    bucket = candidate
                    break
                if not self._wheel_count:
                    break
                t += 1
        if bucket is None:
            if not over:
                return None, None
            return None, over[0]
        head = bucket[0]
        # A (mis)use pushed an event before the cursor: it sits in the
        # overflow tier and must still win ties by the full order.
        if over and over[0] < head:
            return None, over[0]
        return bucket, head

    def pop_next(self, limit: int | float | None = None) -> Event | None:
        """Remove and return the earliest live event, or ``None``.

        Args:
            limit: When set, only an event with ``time <= limit`` is
                popped; a later front is left pending and ``None`` is
                returned.  This fuses the kernel's peek/compare/pop
                triple into one call on the unobserved fast path.

        The body is the inlined common case — wheel non-empty,
        overflow empty, front not cancelled: one bucket lookup once
        the cursor is parked on the current cycle (same-cycle batches
        drain at one slot probe per event).  Everything rare
        (overflow service or migration, cancelled fronts) drops to
        :meth:`_front`.
        """
        if limit is None:
            limit = _NO_LIMIT
        if self._wheel_count and not self._overflow:
            wheel = self._wheel
            mask = self._mask
            t = self._base
            while True:
                bucket = wheel[t & mask]
                if bucket:
                    head = bucket[0]
                    if head.cancelled:
                        break
                    if head.time > limit:
                        self._base = t
                        return None
                    heappop(bucket)
                    self._base = t
                    self._wheel_count -= 1
                    self._live -= 1
                    return head
                t += 1
        bucket, head = self._front()
        if head is None or head.time > limit:
            return None
        if bucket is None:
            heappop(self._overflow)
        else:
            heappop(bucket)
            self._wheel_count -= 1
        self._live -= 1
        return head

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        event = self.pop_next()
        if event is None:
            raise IndexError("pop from empty event queue")
        return event

    def peek_time(self) -> int | None:
        """Return the timestamp of the next live event, or None."""
        _, head = self._front()
        return None if head is None else head.time

    def discard_cancelled(self, event: Event) -> None:
        """Account for a cancellation (keeps ``len`` accurate)."""
        if not event.cancelled:
            raise ValueError("event is not cancelled")
        self._live -= 1

    @property
    def wheel_occupancy(self) -> int:
        """Events sitting in wheel buckets (lazily-cancelled ones
        included until they surface)."""
        return self._wheel_count

    @property
    def overflow_occupancy(self) -> int:
        """Events sitting in the far-future overflow heap (same
        caveat)."""
        return len(self._overflow)

    def occupancy(self) -> dict[str, int]:
        """JSON-ready occupancy: live events plus per-tier depths."""
        return {
            "pending": self._live,
            "wheel": self._wheel_count,
            "overflow": len(self._overflow),
        }

    def live_events(self) -> Iterator[Event]:
        """Iterate over the live (non-cancelled) events, in storage
        order — *not* delivery order.  Callers that need delivery
        order must sort by ``(time, priority, sequence)`` themselves.
        """
        for bucket in self._wheel:
            for event in bucket:
                if not event.cancelled:
                    yield event
        for event in self._overflow:
            if not event.cancelled:
                yield event

    def __iter__(self) -> Iterator[Event]:
        return self.live_events()

    def clear(self) -> None:
        """Drop every pending event, marking each one cancelled.

        The cancel-mark matters: a module may still hold a handle to
        an event that was dropped here and later pass it to
        ``Simulator.cancel``.  Marking keeps that call an idempotent
        no-op instead of corrupting the live-event count through
        ``discard_cancelled``.
        """
        for bucket in self._wheel:
            for event in bucket:
                event.cancelled = True
            bucket.clear()
        for event in self._overflow:
            event.cancelled = True
        self._overflow.clear()
        self._wheel_count = 0
        self._live = 0


class HeapEventQueue:
    """Single binary-heap queue of :class:`Event` objects — the
    reference implementation :class:`EventQueue` is verified against.

    Cancelled events stay in the heap and are discarded lazily on pop,
    which keeps cancellation O(1).
    """

    __slots__ = ("_heap", "_sequence", "_live")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event*, stamping its sequence number."""
        event.sequence = self._sequence
        self._sequence += 1
        heappush(self._heap, event)
        self._live += 1
        return event

    def pop_next(self, limit: int | float | None = None) -> Event | None:
        """Remove and return the earliest live event (``None`` when
        empty or when its time exceeds *limit*)."""
        if limit is None:
            limit = _NO_LIMIT
        heap = self._heap
        while heap:
            head = heap[0]
            if head.cancelled:
                heappop(heap)
                continue
            if head.time > limit:
                return None
            heappop(heap)
            self._live -= 1
            return head
        return None

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        event = self.pop_next()
        if event is None:
            raise IndexError("pop from empty event queue")
        return event

    def peek_time(self) -> int | None:
        """Return the timestamp of the next live event, or None."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heappop(heap)
        if not heap:
            return None
        return heap[0].time

    def discard_cancelled(self, event: Event) -> None:
        """Account for a cancellation (keeps ``len`` accurate)."""
        if not event.cancelled:
            raise ValueError("event is not cancelled")
        self._live -= 1

    @property
    def wheel_occupancy(self) -> int:
        """Always 0 — the reference queue has no wheel tier."""
        return 0

    @property
    def overflow_occupancy(self) -> int:
        """Heap depth (lazily-cancelled events included)."""
        return len(self._heap)

    def occupancy(self) -> dict[str, int]:
        """JSON-ready occupancy; everything counts as overflow."""
        return {
            "pending": self._live,
            "wheel": 0,
            "overflow": len(self._heap),
        }

    def live_events(self) -> Iterator[Event]:
        """Iterate over the live (non-cancelled) events, in heap
        order — *not* delivery order.  Callers that need delivery
        order must sort by ``(time, priority, sequence)`` themselves.
        """
        for event in self._heap:
            if not event.cancelled:
                yield event

    def __iter__(self) -> Iterator[Event]:
        return self.live_events()

    def clear(self) -> None:
        """Drop every pending event, marking each one cancelled (see
        :meth:`EventQueue.clear` for why the mark matters)."""
        for event in self._heap:
            event.cancelled = True
        self._heap.clear()
        self._live = 0
