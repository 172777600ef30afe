"""Event representation and the pending-event queues.

Events are ordered by ``(time, priority, sequence)``.  The sequence
number is a monotonically increasing counter assigned at scheduling
time, so events that share a timestamp and priority are delivered in
FIFO order.  This matches the OMNeT++ guarantee that the paper's node
models implicitly rely on (e.g. a flit arriving and a credit arriving
in the same cycle are processed in the order they were sent).

Two queue implementations share that contract:

* :class:`HeapEventQueue` — a single binary heap, the default for a
  bare simulator and the reference implementation: property tests
  drive both queues with random schedules and require identical
  delivery order, and any simulation can be re-run on it
  (``engine="heap"``) to prove results are independent of the queue
  structure.
* :class:`CycleCalendar` — a calendar queue (timing wheel): a ring of
  per-cycle slots covering a short horizon past the queue's cursor,
  with a binary-heap *overflow tier* for events beyond it.  NoC
  traffic is dominated by link-delay events 1–3 cycles out, so nearly
  every push is an O(1) list append (OMNeT++'s future-event set uses
  the same structure for the same reason).  The ``wheel`` engine
  drains it with the classic event loop; the batched engine adds a
  per-cycle drain for its fast path.

Every pushed event is delivered (nothing is ever withdrawn), so both
queues count their pending events by their storage alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterator

from repro.sim.errors import SimulationError

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


class _Queue:
    """What both queues share: :meth:`pop`."""

    __slots__ = ()

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises:
            IndexError: if the queue is empty.
        """
        event = self.pop_next()
        if event is None:
            raise IndexError("pop from empty event queue")
        return event


class HeapEventQueue(_Queue):
    """Single binary-heap queue of :class:`Event` objects — the
    reference implementation :class:`CycleCalendar` is verified
    against."""

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> Event:
        """Insert *event*, stamping its sequence number."""
        event.sequence = self._sequence
        self._sequence += 1
        heappush(self._heap, event)
        return event

    def pop_next(self, limit: int | float | None = None) -> Event | None:
        """Remove and return the earliest event (``None`` when empty
        or when its time exceeds *limit*)."""
        heap = self._heap
        if not heap or (limit is not None and heap[0].time > limit):
            return None
        return heappop(heap)

    def peek_time(self) -> int | None:
        """Return the timestamp of the next event, or None."""
        heap = self._heap
        return heap[0].time if heap else None

    def occupancy(self) -> dict[str, int]:
        """JSON-ready occupancy; everything counts as overflow."""
        return {
            "pending": len(self._heap),
            "wheel": 0,
            "overflow": len(self._heap),
        }

    def pending_events(self) -> Iterator[Event]:
        """Iterate over the pending events, in heap order — *not*
        delivery order.  Callers that need delivery order must sort
        by ``(time, priority, sequence)`` themselves.
        """
        return iter(self._heap)

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()


def _opaque_view(time: int, record: tuple) -> Event:
    """A fast-path record as a read-only :class:`Event` carrying its
    time but no target or message (the payload is not
    materialised)."""
    return Event(time=time, priority=0, sequence=0, target=None, message=None)


class CycleCalendar(_Queue):
    """Per-cycle future-event store: the timing wheel.

    Implements the same queue protocol as :class:`HeapEventQueue`
    (``push``/``pop_next``/``peek_time``/…), so the classic event loop
    drains it on the ``wheel`` engine and on the batched engine's slow
    path — plus a fast drain interface (:meth:`begin_cycle`,
    :meth:`finish_cycle`) the batched engine's fast path uses
    directly.

    Storage per slot (one slot per cycle, ring of :attr:`WINDOW`):

    * ``lane0`` — priority-0 items in FIFO order.  Because pushes are
      chronological and sequence numbers are assigned in push order,
      append order *is* ``(priority=0, sequence)`` order; draining the
      list front-to-back reproduces the kernel's heap order without a
      heap.  The lane holds :class:`Event` objects and, on the fast
      path, plain tuple *records* (see
      :func:`repro.noc.router.deliver_records`).
    * ``rest`` — a small binary heap of events with priority ≠ 0
      (normally just the scheduler's advance/send phase events).

    The ring starts at :attr:`WINDOW` slots and :meth:`grow` widens it
    when the fast path's link table holds a longer latency.  Events
    beyond the window (far-future timers of low-rate sources) live in
    an overflow heap and migrate when the window reaches them.
    A migrated slot's events are *prepended*: an event could only
    overflow while the slot was beyond the horizon, i.e. before any
    in-window push for that slot existed, so it sorts strictly first.

    The cursor ``_base`` never passes a pending item, and pushes must
    be at or after it.  Pops move it forward to the popped time, or
    to the pop's limit when nothing is due by then; the kernel's clock
    ends a run at that limit, so its scheduling guard (times ≥ now)
    keeps every push legal.
    """

    #: Initial ring size in slots: a power of two covering link
    #: delays and short timers.  The fast path files link arrivals
    #: straight into the ring, so :meth:`grow` widens it past the
    #: longest link latency.
    WINDOW = 256

    __slots__ = (
        "_lane0",
        "_rest",
        "_mask",
        "_size",
        "_base",
        "_cursor0",
        "_ring_items",
        "_overflow",
        "_sequence",
        "record_view",
    )

    def __init__(self) -> None:
        self._size = self.WINDOW
        self._mask = self._size - 1
        self._lane0: list[list] = [[] for _ in range(self._size)]
        self._rest: list[list[Event]] = [[] for _ in range(self._size)]
        self._base = 0
        #: Drain index into the base slot's lane0 (partial drains
        #: happen when a stop is requested mid-cycle).
        self._cursor0 = 0
        #: Undrained items currently in ring slots (records and
        #: events).
        self._ring_items = 0
        self._overflow: list[Event] = []
        self._sequence = 0
        #: ``view(time, record) -> Event`` rendering fast-path records
        #: for :meth:`pending_events`; the engine installs one that
        #: rebuilds flit messages.
        self.record_view = _opaque_view

    def __len__(self) -> int:
        return self._ring_items + len(self._overflow)

    def grow(self, span: int) -> None:
        """Widen the ring to the smallest power of two above *span*
        cycles, refiling every pending item into its slot of the
        wider ring (a no-op when the ring already covers *span*)."""
        old_size, old_mask = self._size, self._mask
        size = old_size
        while size <= span:
            size *= 2
        if size == old_size:
            return
        mask = size - 1
        lane0: list[list] = [[] for _ in range(size)]
        rest: list[list[Event]] = [[] for _ in range(size)]
        for offset in range(old_size):
            t = self._base + offset
            start = self._cursor0 if offset == 0 else 0
            lane0[t & mask] = self._lane0[t & old_mask][start:]
            rest[t & mask] = self._rest[t & old_mask]
        self._lane0, self._rest = lane0, rest
        self._size, self._mask = size, mask
        self._cursor0 = 0

    def materialize_records(self) -> None:
        """Replace every pending fast-path record with its
        :attr:`record_view` event, in place, then restore the opaque
        view: afterwards the calendar references none of the fast
        path's entries, and :meth:`pending_events` yields the same
        views as before."""
        view = self.record_view
        # The base slot's drained prefix (a stop mid-cycle) goes too.
        del self._lane0[self._base & self._mask][: self._cursor0]
        self._cursor0 = 0
        for offset in range(self._size):
            t = self._base + offset
            l0 = self._lane0[t & self._mask]
            for index, item in enumerate(l0):
                if item.__class__ is tuple:
                    l0[index] = view(t, item)
        self.record_view = _opaque_view

    # -- queue protocol -----------------------------------------------

    def push(self, event: Event) -> Event:
        """Insert *event*, stamping its sequence number."""
        event.sequence = self._sequence
        self._sequence += 1
        offset = event.time - self._base
        if 0 <= offset < self._size:
            if event.priority == 0:
                self._lane0[event.time & self._mask].append(event)
            else:
                heappush(self._rest[event.time & self._mask], event)
            self._ring_items += 1
        elif offset >= self._size:
            heappush(self._overflow, event)
        else:
            raise SimulationError(
                f"CycleCalendar requires monotone pushes: t="
                f"{event.time} is before the cursor ({self._base})"
            )
        return event

    def pop_next(self, limit: int | float | None = None) -> Event | None:
        """Remove and return the earliest event, or ``None`` when
        empty or when its time exceeds *limit* (the classic event
        loop's interface).

        The common case — an event next in the cursor's slot — pops
        without a scan: nothing pending is earlier than the cursor,
        and every event of the cursor's own cycle is in its slot
        (overflow events lie past it)."""
        if limit is None:
            limit = _NO_LIMIT
        t = self._base
        i0 = self._cursor0
        l0 = self._lane0[t & self._mask]
        head0 = l0[i0] if i0 < len(l0) and t <= limit else None
        if head0 is None or head0.__class__ is tuple:
            t = self.begin_cycle(limit)
            if t is None:
                return None
            i0 = self._cursor0
            l0 = self._lane0[t & self._mask]
            head0 = l0[i0] if i0 < len(l0) else None
            if head0 is not None and head0.__class__ is tuple:
                raise SimulationError(
                    "CycleCalendar holds batched fast-path records; "
                    "only the batched engine's fast loop can drain them"
                )
        rest = self._rest[t & self._mask]
        if rest and (head0 is None or rest[0] < head0):
            event = heappop(rest)
        else:
            self._cursor0 = i0 + 1
            event = head0
        self._ring_items -= 1
        return event

    def peek_time(self) -> int | None:
        """Return the timestamp of the next item, or None.

        Unlike :meth:`pop_next`, a peek leaves the cursor where it
        is: the kernel's clock stays behind the peeked time when a
        run stops on ``until``, and a push between the two must stay
        legal.
        """
        base = self._base
        mask = self._mask
        if self._cursor0 < len(self._lane0[base & mask]):
            return base
        over = self._overflow
        end = base + self._size if self._ring_items else base
        if over and over[0].time < end:
            end = over[0].time
        start = self._cursor0
        for t in range(base, end):
            if len(self._lane0[t & mask]) > start or self._rest[t & mask]:
                return t
            start = 0
        return over[0].time if over else None

    def occupancy(self) -> dict[str, int]:
        """JSON-ready occupancy: pending items plus per-tier depths."""
        return {
            "pending": len(self),
            "wheel": self._ring_items,
            "overflow": len(self._overflow),
        }

    def pending_events(self) -> Iterator[Event]:
        """Iterate over pending items, in storage order.

        Fast-path records surface as synthesized read-only
        :class:`Event` views built by :attr:`record_view`: flits on
        the wire as the ``FlitMessage`` the event engines would hold,
        credits without a message.
        """
        base = self._base
        mask = self._mask
        view = self.record_view
        for offset in range(self._size):
            t = base + offset
            l0 = self._lane0[t & mask]
            start = self._cursor0 if offset == 0 else 0
            for index in range(start, len(l0)):
                item = l0[index]
                yield view(t, item) if item.__class__ is tuple else item
            yield from self._rest[t & mask]
        yield from self._overflow

    def clear(self) -> None:
        """Drop every pending item."""
        for l0 in self._lane0:
            l0.clear()
        for rest in self._rest:
            rest.clear()
        self._overflow.clear()
        self._cursor0 = 0
        self._ring_items = 0

    # -- fast drain interface -------------------------------------------

    def begin_cycle(self, limit: int | float = _NO_LIMIT) -> int | None:
        """Advance the cursor to the earliest slot still holding
        items and return its time, or ``None`` when nothing is due at
        or before *limit*.  Far-future events entering the window are
        migrated first.
        """
        over = self._overflow
        if over:
            front = over[0].time
            if not self._ring_items and front > self._base:
                # Idle gap: jump the window to the overflow front,
                # but not past `limit`, where the caller's clock
                # stops.  The base slot can only hold drained items;
                # drop them before the ring reuses it.
                self._lane0[self._base & self._mask].clear()
                self._base = (
                    front if front <= limit else max(self._base, int(limit))
                )
                self._cursor0 = 0
            if front < self._base + self._size:
                self._migrate()
        if not self._ring_items:
            return None
        lane0 = self._lane0
        rest = self._rest
        mask = self._mask
        t = self._base
        cursor = self._cursor0
        while True:
            i = t & mask
            l0 = lane0[i]
            if len(l0) > cursor or rest[i]:
                break
            if l0:
                # Fully consumed on a previous partial drain; release
                # the references before the ring reuses the slot.
                l0.clear()
            cursor = 0
            t += 1
        if t > limit:
            # Park no further than the horizon: the caller's clock
            # stops at `limit` and later pushes must stay >= _base.
            parked = int(limit)
            if parked > self._base:
                self._base = parked
                self._cursor0 = 0
            return None
        self._base = t
        self._cursor0 = cursor
        return t

    def finish_cycle(self, t: int) -> None:
        """Mark slot *t* fully drained (its lane was emptied)."""
        self._lane0[t & self._mask].clear()
        self._cursor0 = 0
        # _base stays at t: time only moves when the next begin_cycle
        # finds work, and pushes at the current cycle remain legal.

    def _migrate(self) -> None:
        """Move overflow events now inside the window into their
        slots, preserving exact ``(priority, sequence)`` order."""
        over = self._overflow
        horizon = self._base + self._size
        mask = self._mask
        base_index = self._base & mask
        prefixes: dict[int, list[Event]] = {}
        while over and over[0].time < horizon:
            head = heappop(over)
            i = head.time & mask
            if head.priority == 0:
                prefixes.setdefault(i, []).append(head)
            else:
                heappush(self._rest[i], head)
            self._ring_items += 1
        for i, items in prefixes.items():
            if i == base_index and self._cursor0:
                # Cannot happen through the kernel API (the slot's
                # overflow drains before its first delivery); guard
                # against silent misordering all the same.
                raise SimulationError(
                    "overflow migration into a partially drained slot"
                )
            # Prepend: anything already in the slot was pushed while
            # the slot was inside the window, i.e. strictly after
            # every event that overflowed for it.
            self._lane0[i][:0] = items
