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
  (``REPRO_ENGINE=heap``) to prove results are independent of the
  queue structure.
* :class:`CycleCalendar` — a calendar queue (timing wheel): a ring of
  per-cycle slots covering a short horizon past the queue's cursor,
  with a binary-heap *overflow tier* for events beyond it.  NoC
  traffic is dominated by link-delay events 1–3 cycles out, so nearly
  every push is an O(1) list append (OMNeT++'s future-event set uses
  the same structure for the same reason).  The ``wheel`` engine
  drains it with the classic event loop; the batched engine adds a
  per-cycle drain for its fast path.
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
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class _Queue:
    """What both queues share: the live-event count ``_live`` behind
    ``len``/``bool``, lazy cancellation and :meth:`pop`.

    Cancelled events stay where they are and are discarded when they
    reach a front, which keeps cancellation O(1).
    """

    __slots__ = ()

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        event = self.pop_next()
        if event is None:
            raise IndexError("pop from empty event queue")
        return event

    def discard_cancelled(self, event: Event) -> None:
        """Account for a cancellation (keeps ``len`` accurate)."""
        if not event.cancelled:
            raise ValueError("event is not cancelled")
        self._live -= 1


class HeapEventQueue(_Queue):
    """Single binary-heap queue of :class:`Event` objects — the
    reference implementation :class:`CycleCalendar` is verified
    against."""

    __slots__ = ("_heap", "_sequence", "_live")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0
        self._live = 0

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
        heap = self._heap
        while heap and heap[0].cancelled:
            heappop(heap)
        if not heap or (limit is not None and heap[0].time > limit):
            return None
        self._live -= 1
        return heappop(heap)

    def peek_time(self) -> int | None:
        """Return the timestamp of the next live event, or None."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heappop(heap)
        return heap[0].time if heap else None

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

    def clear(self) -> None:
        """Drop every pending event, marking each one cancelled.

        The cancel-mark matters: a module may still hold a handle to
        an event that was dropped here and later pass it to
        ``Simulator.cancel``.  Marking keeps that call an idempotent
        no-op instead of corrupting the live-event count through
        ``discard_cancelled``.
        """
        for event in self._heap:
            event.cancelled = True
        self._heap.clear()
        self._live = 0


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
    be at or after it.  Pops move it forward, never past the popped
    time or the pop's limit, and :meth:`rewind` moves an empty ring's
    cursor back to the clock, so the kernel's scheduling guard (times
    ≥ now) keeps every push legal.
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
        "_live",
        "record_view",
    )

    def __init__(self) -> None:
        self._size = self.WINDOW
        self._mask = self._size - 1
        self._lane0: list[list] = [[] for _ in range(self._size)]
        self._rest: list[list[Event]] = [[] for _ in range(self._size)]
        self._base = 0
        #: Drain index into the base slot's lane0 (partial drains
        #: happen when ``run(max_events=...)`` stops mid-cycle).
        self._cursor0 = 0
        #: Undrained items currently in ring slots (records and
        #: events, lazily-cancelled ones included).
        self._ring_items = 0
        self._overflow: list[Event] = []
        self._sequence = 0
        self._live = 0
        #: ``view(time, record) -> Event`` rendering fast-path records
        #: for :meth:`live_events`; the engine installs one that
        #: rebuilds flit messages.
        self.record_view = _opaque_view

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
        path's entries, and :meth:`live_events` yields the same views
        as before."""
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
        self._live += 1
        return event

    def pop_next(self, limit: int | float | None = None) -> Event | None:
        """Remove and return the earliest live event, or ``None`` when
        empty or when its time exceeds *limit* (the classic event
        loop's interface).

        The common case — a live event next in the cursor's slot —
        pops without a scan: nothing pending is earlier than the
        cursor, and every event of the cursor's own cycle is in its
        slot (overflow events lie past it)."""
        if limit is None:
            limit = _NO_LIMIT
        t = self._base
        i0 = self._cursor0
        l0 = self._lane0[t & self._mask]
        head0 = l0[i0] if i0 < len(l0) and t <= limit else None
        if head0 is None or head0.__class__ is tuple or head0.cancelled:
            t = self._peek(limit)
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
        while rest and rest[0].cancelled:
            heappop(rest)
            self._ring_items -= 1
        if rest and (head0 is None or rest[0] < head0):
            event = heappop(rest)
        else:
            self._cursor0 = i0 + 1
            event = head0
        self._ring_items -= 1
        self._live -= 1
        return event

    def peek_time(self) -> int | None:
        """Return the timestamp of the next live item, or None.

        Unlike :meth:`pop_next`, a peek leaves the cursor where it
        is: the kernel's clock stays behind the peeked time when a
        run stops on ``until`` or ``max_events``, and a push between
        the two must stay legal.
        """
        l0 = self._lane0[self._base & self._mask]
        if self._cursor0 < len(l0):
            item = l0[self._cursor0]
            if item.__class__ is tuple or not item.cancelled:
                return self._base
        over = self._overflow
        while over and over[0].cancelled:
            heappop(over)
        end = self._base + self._size if self._ring_items else self._base
        if over and over[0].time < end:
            end = over[0].time
        start = self._cursor0
        for t in range(self._base, end):
            for item in self._lane0[t & self._mask][start:]:
                if item.__class__ is tuple or not item.cancelled:
                    return t
            start = 0
            for event in self._rest[t & self._mask]:
                if not event.cancelled:
                    return t
        return over[0].time if over else None

    def occupancy(self) -> dict[str, int]:
        """JSON-ready occupancy: live items plus per-tier depths."""
        return {
            "pending": self._live,
            "wheel": self._ring_items,
            "overflow": len(self._overflow),
        }

    def live_events(self) -> Iterator[Event]:
        """Iterate over live items, in storage order.

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
                if item.__class__ is tuple:
                    yield view(t, item)
                elif not item.cancelled:
                    yield item
            for event in self._rest[t & mask]:
                if not event.cancelled:
                    yield event
        for event in self._overflow:
            if not event.cancelled:
                yield event

    def clear(self) -> None:
        """Drop every pending item, marking events cancelled (see
        :meth:`HeapEventQueue.clear` for why the mark matters).
        Records are simply dropped."""
        for l0 in self._lane0:
            for item in l0:
                if item.__class__ is not tuple:
                    item.cancelled = True
            l0.clear()
        for rest in self._rest:
            for event in rest:
                event.cancelled = True
            rest.clear()
        for event in self._overflow:
            event.cancelled = True
        self._overflow.clear()
        self._cursor0 = 0
        self._ring_items = 0
        self._live = 0

    # -- fast drain interface -------------------------------------------

    def begin_cycle(self, limit: int | float = _NO_LIMIT) -> int | None:
        """Advance the cursor to the earliest slot still holding
        items and return its time, or ``None`` when nothing is due at
        or before *limit*.  Far-future events entering the window are
        migrated first.  The returned slot may hold only cancelled
        events; the drain handles (and the scan clears) those.
        """
        over = self._overflow
        if over:
            while over and over[0].cancelled:
                heappop(over)
            if over:
                front = over[0].time
                if not self._ring_items and front > self._base:
                    # Idle gap: jump the window to the overflow front,
                    # but not past `limit`, where the caller's clock
                    # stops.  The base slot can only hold drained
                    # items; drop them before the ring reuses it.
                    self._lane0[self._base & self._mask].clear()
                    self._base = (
                        front if front <= limit
                        else max(self._base, int(limit))
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

    def rewind(self, time: int) -> None:
        """Move the cursor back to *time* when the ring is empty.

        Stepping over slots that held only cancelled events carries
        the cursor past a clock that never reached them; with nothing
        left to deliver the clock stays behind, and the next push may
        land anywhere from it on.
        """
        if not self._ring_items and time < self._base:
            self._lane0[self._base & self._mask].clear()
            self._base = time
            self._cursor0 = 0

    def _migrate(self) -> None:
        """Move overflow events now inside the window into their
        slots, preserving exact ``(priority, sequence)`` order."""
        over = self._overflow
        horizon = self._base + self._size
        mask = self._mask
        base_index = self._base & mask
        prefixes: dict[int, list[Event]] = {}
        while over:
            head = over[0]
            if head.cancelled:
                heappop(over)
                continue
            if head.time >= horizon:
                break
            heappop(over)
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

    def _peek(self, limit: int | float) -> int | None:
        """Time of the earliest *live* item at or before *limit*
        (cancelled fronts are pruned), or ``None``."""
        entry = self._base
        while True:
            t = self.begin_cycle(limit)
            if t is None:
                self.rewind(entry)
                return None
            i = t & self._mask
            l0 = self._lane0[i]
            rest = self._rest[i]
            i0 = self._cursor0
            while i0 < len(l0):
                item = l0[i0]
                if item.__class__ is tuple or not item.cancelled:
                    self._cursor0 = i0
                    return t
                i0 += 1
                self._ring_items -= 1
            self._cursor0 = i0
            while rest and rest[0].cancelled:
                heappop(rest)
                self._ring_items -= 1
            if rest:
                return t
            # The slot held only cancelled items; complete it (the
            # next scan steps over it, so the cursor stays at t).
            self.finish_cycle(t)
