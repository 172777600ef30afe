"""The simulator: event loop, scheduling, and run control."""

from __future__ import annotations

from typing import Callable, Iterator

from repro.sim.engines import KERNEL_DEFAULT, Engine, resolve_engine
from repro.sim.errors import SchedulingError, SimulationError
from repro.sim.events import Event
from repro.sim.messages import Message
from repro.sim.module import SimModule
from repro.sim.observers import Observer


class Simulator:
    """Owns simulation time, the event queue, and the module registry.

    Typical usage::

        sim = Simulator()
        node = MyModule(sim, "node0")   # registers itself
        sim.run(until=10_000)

    The simulator may be run incrementally: successive :meth:`run`
    calls continue from the current time.  ``initialize`` hooks run
    exactly once, before the first event of the first ``run``.

    The kernel can be watched through the observer protocol
    (:mod:`repro.sim.observers`): :meth:`add_observer` registers an
    :class:`~repro.sim.observers.Observer` whose hooks fire after
    every delivery and on every time advancement, in registration
    order.  With zero observers attached the event loop is the plain
    fast path.

    The event store and drive loop are an :class:`~repro.sim.engines.
    Engine`, selected by spec string or instance: ``engine="wheel"``,
    ``"heap"`` (reference oracle) or ``"batched"`` (the
    cycle-synchronous fast engine) — see :mod:`repro.sim.engines` and
    docs/engines.md.  Every engine delivers any schedule in the
    identical ``(time, priority, sequence)`` order, which the
    equivalence tests assert end to end.  With no engine named, a
    bare simulator runs on the heap
    (:data:`~repro.sim.engines.KERNEL_DEFAULT`), the fastest queue for
    the classic event loop: the batched engine pays off only once a
    :class:`~repro.noc.network.Network` installs its fast path, which
    is why networks default to it instead.

    The kernel offers exactly the event semantics the models use:
    zero-delay gates, FIFO order within a cycle, per-module handlers,
    timers and a stop request.  A scheduled event is always
    delivered: nothing is ever withdrawn from the queue.
    """

    def __init__(self, engine: "str | Engine | None" = None) -> None:
        self._engine = resolve_engine(
            KERNEL_DEFAULT if engine is None else engine
        )
        self._queue = self._engine.make_queue()
        self._now = 0
        self._modules: list[SimModule] = []
        self._module_names: set[str] = set()
        self._pending_init: list[SimModule] = []
        self._events_processed = 0
        self._observers: list[Observer] = []
        # Immutable copy handed to notification rounds; rebuilt on
        # add/remove so the per-event path never copies the list.
        self._observer_snapshot: tuple[Observer, ...] = ()
        self._stop_requested = False
        self._stop_reason: str | None = None
        self._stop_details: dict | None = None
        self._closed = False

    # -- registry ----------------------------------------------------

    def register_module(self, module: SimModule) -> None:
        """Add *module* to the registry (called by SimModule.__init__).

        Raises:
            SimulationError: on duplicate module names, which would
                make traces and diagnostics ambiguous.
        """
        if module.name in self._module_names:
            raise SimulationError(
                f"duplicate module name: {module.name!r}"
            )
        self._module_names.add(module.name)
        self._modules.append(module)
        # Initialization is deferred to the next run() even when the
        # simulation already started: register_module is called from
        # SimModule.__init__, before the subclass constructor has
        # finished setting up the module's own state.
        self._pending_init.append(module)

    @property
    def modules(self) -> tuple[SimModule, ...]:
        return tuple(self._modules)

    # -- observers ----------------------------------------------------

    def add_observer(self, observer: Observer) -> Observer:
        """Register *observer*; its hooks fire in registration order.

        Observers may be added at any point.  Hooks fire after the
        handler, so an observer added from a module handler already
        sees the delivery that added it; one added from another
        observer's callback starts at the next delivery (the current
        notification round is a snapshot).

        Returns:
            The observer, for chaining.

        Raises:
            SimulationError: if *observer* is already registered
                (double registration would double its callbacks).
        """
        if any(existing is observer for existing in self._observers):
            raise SimulationError(
                f"observer {observer!r} is already registered"
            )
        # The engine may refuse: the batched engine cannot honour
        # observers once its fast path has started (docs/engines.md).
        self._engine.on_observer_added(self)
        self._observers.append(observer)
        self._observer_snapshot = tuple(self._observers)
        return observer

    def remove_observer(self, observer: Observer) -> None:
        """Detach *observer*; it receives no further callbacks.

        Safe to call mid-run — from a module handler or from any
        observer's own callback; the detachment takes effect at the
        next delivery.  A no-op once the simulator is closed
        (:meth:`close` detached every observer).

        Raises:
            SimulationError: if *observer* is not registered.
        """
        if self._closed:
            return
        for index, existing in enumerate(self._observers):
            if existing is observer:
                del self._observers[index]
                self._observer_snapshot = tuple(self._observers)
                return
        raise SimulationError(
            f"observer {observer!r} is not registered"
        )

    @property
    def observers(self) -> tuple[Observer, ...]:
        """Currently registered observers, in registration order."""
        return tuple(self._observers)

    # -- time and scheduling ------------------------------------------

    @property
    def engine(self) -> Engine:
        """The engine driving this simulator."""
        return self._engine

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events delivered so far."""
        return self._events_processed

    def schedule(
        self,
        time: int,
        target: SimModule,
        message: Message,
        priority: int = 0,
        handler: Callable[[Message], None] | None = None,
    ) -> Event:
        """Schedule delivery of *message* to *target* at *time*.

        Raises:
            SchedulingError: if *time* precedes the current time.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time}, current time is {self._now}"
            )
        return self._queue.push(
            Event(
                time=time,
                priority=priority,
                sequence=0,
                target=target,
                message=message,
                handler=handler,
            )
        )

    # -- run control ---------------------------------------------------

    def _ensure_initialized(self) -> None:
        while self._pending_init:
            self._pending_init.pop(0).initialize()

    def run(self, until: int | None = None) -> int:
        """Process events until a stop condition is met.

        Args:
            until: Stop once the next event's time exceeds this value;
                events *at* ``until`` are processed.  ``now`` is set to
                ``until`` on a time-limited stop.

        Returns:
            The number of events processed by this call.

        Calling ``run()`` without ``until`` is allowed: the loop keeps
        going until the event queue drains (or a handler requests a
        stop), so it terminates for any workload that stops
        scheduling new events.

        The engine owns the drive loop.  The event engines (wheel,
        heap) use :meth:`_event_loop`; the batched engine substitutes
        its cycle-synchronous fast path when every attached observer
        sets :attr:`~repro.sim.observers.Observer.cycle_boundaries_only`
        and falls back to :meth:`_event_loop` otherwise.  Every engine
        preserves the stop/:attr:`events_processed`/time-jump
        semantics documented here.

        Raises:
            SimulationError: once the simulator is closed.
        """
        if self._closed:
            raise SimulationError(
                "the simulator is closed; build a new one to run again"
            )
        return self._engine.run(self, until)

    def _event_loop(self, until: int | None = None) -> int:
        """The classic per-event loop (see :meth:`run` for the
        contract).  With no observers attached it runs a fused fast
        path: one ``pop_next`` call per event (on the
        :class:`~repro.sim.events.CycleCalendar` the cursor stays
        parked on the current cycle's slot, so a same-cycle batch
        drains without re-scanning), and the delivered-event total is
        committed to :attr:`events_processed` when the batch ends
        rather than once per event.  With observers the loop takes
        the bookkeeping path that advances time *before* popping, so
        observer callbacks see the new cycle's events still pending.
        """
        self._ensure_initialized()
        processed = 0
        events_base = self._events_processed
        # Bound to locals: the truthiness check per event is the
        # entire cost of the observer feature on the unobserved fast
        # path.  The list object itself is shared with add/remove, so
        # attaching or detaching mid-run takes effect immediately.
        observers = self._observers
        queue = self._queue
        pop_next = queue.pop_next
        # Infinity compares above every event time, so the queue's
        # limit check stays a single comparison when there is none.
        pop_limit = float("inf") if until is None else until
        try:
            while not self._stop_requested:
                if observers:
                    next_time = queue.peek_time()
                    if next_time is None:
                        break
                    if until is not None and next_time > until:
                        break
                    if next_time > self._now:
                        # Advance time *before* popping, so observers
                        # see a consistent world: the event of the new
                        # time is still pending (in-flight for
                        # conservation audits), no handler has run yet.
                        previous = self._now
                        self._now = next_time
                        for observer in self._observer_snapshot:
                            observer.on_time_advanced(
                                self, previous, next_time
                            )
                        # A callback may have requested a stop (the
                        # stall watchdog does); honour it before
                        # delivering anything of the new time.
                        if self._stop_requested:
                            break
                    # The peeked event is still pending (nothing is
                    # ever withdrawn), so this pop returns an event.
                    event = pop_next(next_time)
                    processed += 1
                    self._events_processed = events_base + processed
                    message = event.message
                    if event.handler is not None:
                        event.handler(message)
                    else:
                        event.target.handle_message(message)
                    if observers:
                        for observer in self._observer_snapshot:
                            observer.on_event_delivered(self, event)
                    continue
                # -- unobserved fast path -----------------------------
                event = pop_next(pop_limit)
                if event is None:
                    break
                time = event.time
                if time != self._now:
                    self._now = time
                processed += 1
                message = event.message
                if event.handler is not None:
                    event.handler(message)
                else:
                    event.target.handle_message(message)
                if observers:
                    # The handler attached the first observer; the
                    # contract is that it already sees this delivery.
                    self._events_processed = events_base + processed
                    for observer in self._observer_snapshot:
                        observer.on_event_delivered(self, event)
        finally:
            self._events_processed = events_base + processed
        self._end_run(until)
        return processed

    def _end_run(self, until: int | None) -> None:
        """Jump the clock to *until* after a time-limited stop (every
        engine's drive loop ends with this); a requested stop leaves
        it at the stop point."""
        if until is None or self._now >= until or self._stop_requested:
            return
        previous = self._now
        self._now = until
        for observer in self._observer_snapshot:
            observer.on_time_advanced(self, previous, until)

    def request_stop(
        self, reason: str, details: dict | None = None
    ) -> None:
        """Ask the event loop to stop before its next delivery.

        Safe to call from a module handler or an observer callback;
        the event being processed finishes normally and the loop
        exits before popping another one.  Simulation time stays at
        the stop point (a time-limited :meth:`run` does **not** jump
        to ``until``), so diagnostics read the state as it was.

        The request is sticky: every later :meth:`run` returns at
        once.  It is the machinery the stall watchdog
        (:class:`repro.resilience.StallWatchdog`) uses to abort
        deadlocked runs with a snapshot instead of spinning to the
        horizon.

        Args:
            reason: Human-readable cause, e.g. ``"stall: ..."``.
            details: Optional JSON-compatible diagnostic payload.
        """
        self._stop_requested = True
        self._stop_reason = reason
        self._stop_details = details

    @property
    def stop_requested(self) -> bool:
        """True once :meth:`request_stop` was called."""
        return self._stop_requested

    @property
    def stop_reason(self) -> str | None:
        """The reason passed to :meth:`request_stop`, if any."""
        return self._stop_reason

    @property
    def stop_details(self) -> dict | None:
        """The diagnostic payload passed to :meth:`request_stop`."""
        return self._stop_details

    def close(self) -> None:
        """Release the model graph so reference counting frees it
        (idempotent; no :meth:`run` may follow).

        Modules, gates, pending events and observers refer to each
        other in cycles (``gate.module`` and ``module.gates``, each
        module's ``simulator`` and the registry, events and their
        targets), which only the cyclic garbage collector could
        reclaim.  Closing tells each observer (:meth:`Observer.on_close
        <repro.sim.observers.Observer.on_close>`), drops the pending
        events and the observers, closes every registered module
        (:meth:`SimModule.close <repro.sim.module.SimModule.close>`,
        which cuts its gate links) and empties the registry.  The clock, the event count
        and each module's own state stay readable.
        """
        if self._closed:
            return
        self._closed = True
        for observer in tuple(self._observers):
            observer.on_close(self)
        self._queue.clear()
        for module in self._modules:
            module.close()
        self._modules.clear()
        self._pending_init.clear()
        self._observers.clear()
        self._observer_snapshot = ()

    @property
    def pending_event_count(self) -> int:
        """Number of events still in the queue."""
        return len(self._queue)

    def queue_occupancy(self) -> dict[str, int]:
        """Occupancy of the future-event set, per tier.

        Returns:
            ``{"pending": pending events, "wheel": events in the
            calendar's short-horizon slots, "overflow": events in
            the far-future heap}``.  On the heap queue everything
            reports as overflow.
        """
        return self._queue.occupancy()

    def pending_events(self) -> Iterator[Event]:
        """Iterate over the scheduled events, in no particular order.

        The public window onto the pending-event set: invariant
        checkers count in-flight flits and credits through it, and
        the stall watchdog sizes its diagnostic snapshot with it —
        without any of them reaching into the queue's internal
        storage.  Callers must treat the events as read-only.
        """
        return self._queue.pending_events()
