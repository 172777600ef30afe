"""The batched cycle-synchronous engine (``engine="batched"``).

The NoC model is cycle-synchronous: every delivery is either a wire
arrival (flit/credit), a per-cycle phase event, or a timer.  The event
kernel pays one :class:`~repro.sim.events.Event` — allocation, heap
discipline, dispatch — per flit hop.  This engine exploits the
structure instead and advances the whole network one cycle at a time:

1. **deliveries** — the cycle's arrivals drain in FIFO order from a
   per-cycle lane (append order equals the kernel's sequence order,
   because pushes happen chronologically);
2. **routing / VC allocation** — the scheduler's advance event runs
   every awake router's allocation; the zero-delay credits it emits
   are applied in place right after it, in emission order — exactly
   where the cycle's lane would have delivered them next — and still
   count as delivered events;
3. **link traversal** — the send phase's flit sink is the pending
   list's ``append``: the ``(entry, flit)`` tuple it builds is the
   arrival *record* itself, *entry* being the link's arrival entry
   bound at install time.  One flush per cycle files the whole list
   with one ``list.extend`` into the lane ``now + d`` when every link
   has latency *d* (each paper topology), or record by record by each
   link's latency otherwise — no ``Message``, no ``Event``, no heap;
4. **arrivals, credit return, ejection** — a run of records, flits
   and credits alike, is applied by one call to
   :func:`repro.noc.router.deliver_records`, the fast-path twin of
   ``Router.receive_flit``, ``NetworkInterface.receive_credit`` …
   (whose anomalous branches it delegates to).  Credits are plain
   entries too, so an ejection's credit is one more record appended
   to the lane the run is draining.

Phases 2 and 3 run the same compiled phase functions on every engine
(:func:`repro.noc.router._make_router_advance` and its siblings);
this engine only swaps the credit emitter, the credit records and the
flit sinks those functions call, from gate sends to entries.

Equivalence contract: the engine reproduces the event kernel's
delivery order and ``events_processed`` count *exactly* — byte-
identical ``RunResult``s on every registered topology family, which
``tests/integration/test_kernel_equivalence.py`` asserts against the
heap oracle and the wheel.

Fast path vs slow path
----------------------

The fast path has no per-event ``Event`` to hand
``on_event_delivered``.  The mode is decided at the **first**
``run()``, from each attached observer's
:attr:`~repro.sim.observers.Observer.cycle_boundaries_only`:

* every observer sets it (no observers at all, or only
  ``StallWatchdog`` and ``TimelineObserver``) → **fast path**: sinks
  are installed on the model and records replace messages.  Before
  each cycle holding an item the loop advances the clock and
  calls ``on_time_advanced``, exactly where the event loop does.
  Attaching an observer *after* that raises
  :class:`~repro.sim.errors.SimulationError` — loudly, instead of
  silently missing callbacks.
* any observer leaves it ``False`` (the default: ``FlitTracer``,
  ``KernelProfiler``, ``InvariantAuditor``, ``DrainController``,
  plain ``Observer`` subclasses) → **slow path**: the classic
  per-event loop (:meth:`~repro.sim.kernel.Simulator._event_loop`)
  runs over the :class:`~repro.sim.events.CycleCalendar` and every
  send goes through gates as a real ``Event``: exactly the ``wheel``
  engine, so delivery traces are byte-identical to the heap's.

Fault plans work on both paths (the injector uses timers, not
observers).

This is the engine a :class:`~repro.noc.network.Network` gets when
none is named (:data:`~repro.sim.engines.NETWORK_DEFAULT`), so its
fixed cost per network matters as much as its loop: the calendar
ring starts at 256 slots and grows only for links longer than that,
and once ``Network.run`` has its result the engine releases the fast
path's wiring (:meth:`BatchedEngine.release_network`).  See
docs/engines.md.
"""

from __future__ import annotations

from heapq import heappop

from repro.noc.router import deliver_records
from repro.sim.engines import Engine, register_engine
from repro.sim.errors import SimulationError
from repro.sim.events import _NO_LIMIT, CycleCalendar, Event, _opaque_view


@register_engine(
    "batched",
    description=(
        "cycle-synchronous batched phases; fastest, the default for "
        "networks, sweeps and campaigns; observers other than the "
        "stall watchdog and timeline force the slow path"
    ),
)
class BatchedEngine(Engine):
    """Cycle-driven engine producing byte-identical results to the
    event kernel (see the module docstring for the phase structure
    and the fast/slow mode rules)."""

    name = "batched"

    def __init__(self) -> None:
        self._network = None
        self._calendar: CycleCalendar | None = None
        self._mode: str | None = None  # None until the first run()
        #: Set by :meth:`release_network`; no run may follow.
        self._released = False
        #: This cycle's flits on the wire, as records.
        self._pending: list[tuple] = []
        #: Credit entries emitted since the last dispatch, applied or
        #: filed by :meth:`_run_fast`.
        self._emitted: list = []
        #: The latency every data link has, or 0 when they differ.
        self._delay = 0
        #: ``id`` of each arrival entry -> the data gate it stands for.
        self._gates: dict[int, object] = {}
        #: Flush statistics (introspection and tests).
        self.flush_batches = 0
        self.flushed_flits = 0

    @property
    def mode(self) -> str | None:
        """``"fast"``, ``"slow"``, or ``None`` before the first run."""
        return self._mode

    def make_queue(self) -> CycleCalendar:
        if self._calendar is not None:
            raise SimulationError(
                "a BatchedEngine instance drives one Simulator; "
                "build a fresh engine (or pass the spec string)"
            )
        self._calendar = CycleCalendar()
        return self._calendar

    def prepare_network(self, network) -> None:
        if self._network is not None and self._network is not network:
            raise SimulationError(
                "a BatchedEngine instance is bound to one network; "
                "build a fresh engine per Network"
            )
        self._network = network

    def on_observer_added(self, simulator) -> None:
        if self._mode == "fast":
            raise SimulationError(
                "the batched engine committed to its fast path on the "
                "first run(); attach observers before running, or "
                "select engine='heap' (docs/engines.md)"
            )

    def release_network(self, network) -> None:
        """Forget *network* and undo :meth:`_install_fast_path` once
        its single run is over (idempotent).  Records still in flight
        become the event views :meth:`Simulator.pending_events`
        already showed, so post-run inspection (invariant checks,
        flits on the wire) is unchanged; then every agent goes back
        to its gate wiring (``use_gates``), which drops the arrival
        and credit entries, the sinks and the compiled phase
        closures, and the calendar drops the record renderer.  Each
        of these would otherwise close a reference cycle through the
        network (see :meth:`Network.close
        <repro.noc.network.Network.close>`)."""
        if network is not self._network:
            return
        self._network = None
        if self._mode != "fast":
            return
        self._released = True
        self._calendar.materialize_records()
        self._gates.clear()
        self._pending.clear()
        self._emitted.clear()
        for agent in (*network.routers, *network.interfaces):
            agent.use_gates()
        network.scheduler.flush_hook = None
        # fast_arm shadowed the class method per instance.
        del network.scheduler._arm

    def run(self, simulator, until):
        if self._released:
            raise SimulationError(
                "the batched engine released its fast-path wiring "
                "when Network.run finished; Network.run is "
                "single-use, build a new Network"
            )
        if self._mode is None:
            # Decided once: the fast path rewires the model with
            # record sinks, and serves only observers that need no
            # per-event callbacks.
            fast = all(
                observer.cycle_boundaries_only
                for observer in simulator._observers
            )
            self._mode = "fast" if fast else "slow"
            if fast and self._network is not None:
                self._install_fast_path()
        if self._mode == "slow":
            return simulator._event_loop(until)
        return self._run_fast(simulator, until)

    # -- fast path -------------------------------------------------------

    def _run_fast(self, sim, until):
        """The cycle loop.  Mirrors ``Simulator._event_loop``'s
        contract exactly: stop checks between deliveries, the
        end-of-run jump to ``until``, and ``events_processed``
        committed when the loop ends.  Time advances to the next
        cycle holding an item; observed, the loop notifies the
        observers before delivering any of it, as the event loop's
        observed branch does."""
        sim._ensure_initialized()
        cal = self._calendar
        mask = cal._mask
        lane0_ring = cal._lane0
        rest_ring = cal._rest
        emitted = self._emitted
        if emitted:
            # Emitted between runs (a fault applied by hand): they
            # belong to the cycle the clock stopped at.
            self._file_credits()
        network = self._network
        sched = network.scheduler if network is not None else None
        advance_msg = sched._advance_msg if sched is not None else None
        # Shared with add/remove_observer, so a mid-run detach of the
        # last observer takes effect at the next cycle.
        observers = sim._observers
        processed = 0
        events_base = sim._events_processed
        limit = _NO_LIMIT if until is None else until
        try:
            while not sim._stop_requested:
                t = cal.begin_cycle(limit)
                if t is None:
                    break
                if observers and t > sim._now:
                    previous = sim._now
                    sim._now = t
                    sim._events_processed = events_base + processed
                    for observer in sim._observer_snapshot:
                        observer.on_time_advanced(sim, previous, t)
                    if sim._stop_requested:
                        break
                i = t & mask
                l0 = lane0_ring[i]
                rest = rest_ring[i]
                i0 = cal._cursor0
                sim._now = t
                before_slot = processed
                try:
                    while not sim._stop_requested:
                        if i0 < len(l0):
                            if rest and rest[0].priority < 0:
                                item = heappop(rest)
                            else:
                                item = l0[i0]
                                if item.__class__ is tuple:
                                    # Records: every one up to the
                                    # next event in one call.  Credits
                                    # they file join the lane's end.
                                    size = len(l0)
                                    j = deliver_records(
                                        l0, i0, size, t, sched, emitted
                                    )
                                    cal._ring_items += len(l0) - size
                                    processed += j - i0
                                    i0 = j
                                    continue
                                i0 += 1
                        elif rest:
                            item = heappop(rest)
                        else:
                            break
                        processed += 1
                        message = item.message
                        if item.handler is not None:
                            item.handler(message)
                        else:
                            item.target.handle_message(message)
                        if emitted:
                            processed += self._settle_credits(
                                message is advance_msg
                                and not sim._stop_requested,
                                t,
                                sched,
                            )
                finally:
                    # Ring bookkeeping committed per slot, not per
                    # item (the delta composes with the increments
                    # _flush/_settle_credits and filed credits make
                    # mid-slot).
                    cal._ring_items -= processed - before_slot
                if sim._stop_requested:
                    # A handler asked to stop mid-slot: the slot's
                    # undelivered rest stays pending from the cursor.
                    cal._cursor0 = i0
                else:
                    cal.finish_cycle(t)
        finally:
            sim._events_processed = events_base + processed
        sim._end_run(until)
        return processed

    # -- model wiring ----------------------------------------------------

    def _install_fast_path(self) -> None:
        """Rewire the model for the fast path.  Called once, at the
        first fast run:

        * each agent's credit emitter appends to the emitted-credit
          list :meth:`_settle_credits` applies or files, and its
          credit records become the upstream ends' credit entries;
        * each sender's flit sink is the pending list's ``append``
          and its ``flit_link`` the arrival entry of its link, so the
          ``(link, flit)`` tuple the send phase builds is the record
          :meth:`_flush` files into the arrival lanes;
        * the scheduler calls :meth:`_flush` after each send phase
          and schedules its phase events through a leaner ``_arm``.

        The router and NI phase functions are the ones every engine
        runs: each agent compiles them at its first phase call,
        against whichever wiring it then has.
        """
        from repro.noc.router import arrival_entry, credit_entries
        from repro.noc.signals import FlitMessage

        network = self._network
        sched = network.scheduler
        sim = network.simulator
        cal = self._calendar
        sink = self._pending.append
        emit = self._emitted.append
        num_vcs = network.num_vcs
        gates = self._gates

        def wire(sender, gate):
            entry = arrival_entry(gate)
            # Held by flit_link, so the id stays unique until release.
            gates[id(entry)] = gate
            sender.flit_link = entry
            sender.flit_sink = sink

        for router in network.routers:
            router.emit_credit = emit
            for port in router._input_order:
                if port.credit_gate.delay != 0:
                    raise SimulationError(
                        "batched fast path requires zero-delay "
                        "credit links"
                    )
                port.credit_records = credit_entries(
                    port.credit_gate, num_vcs
                )
            for port in router._output_order:
                wire(port, port.data_gate)
        for ni in network.interfaces:
            ni.emit_credit = emit
            ni.credit_records = credit_entries(ni.credit_out, num_vcs)
            wire(ni, ni.data_out)
        delays = {gate.delay for gate in gates.values()}
        if delays:
            cal.grow(max(delays))
        self._delay = delays.pop() if len(delays) == 1 else 0

        def record_view(time, record):
            # Flits on the wire as the message the event engines would
            # hold (the stall snapshot and invariant checks count them
            # through it); credits stay opaque.
            if len(record) != 2:
                return _opaque_view(time, record)
            gate = gates[id(record[0])].peer
            message = FlitMessage(record[1], record[1].wire_vc)
            message.arrival_gate = gate
            return Event(
                time=time,
                priority=0,
                sequence=0,
                target=gate.module,
                message=message,
            )

        cal.record_view = record_view
        sched.flush_hook = self._flush
        # The phase events stay real (priorities 1 and 2), so their
        # order against user-scheduled events and events_processed
        # are untouched; only their scheduling is inlined.
        advance_msg = sched._advance_msg
        send_msg = sched._send_msg
        push = cal.push

        def fast_arm():
            # CycleScheduler._arm with the two kernel.schedule calls
            # inlined (tick_time >= now always holds, so the
            # SchedulingError guard is dead here).
            now = sim._now
            if sched._advance_done_at < now:
                tick_time = now
            else:
                tick_time = now + 1
            sched._tick_time = tick_time
            push(Event(tick_time, 1, 0, sched, advance_msg))
            push(Event(tick_time, 2, 0, sched, send_msg))

        sched._arm = fast_arm

    def _settle_credits(self, in_place: bool, now, sched) -> int:
        """Deliver or file the credits the event just dispatched
        emitted; returns how many were delivered.

        After an advance phase (*in_place*) the cycle's lane is
        drained, so its credits are what the lane would deliver next,
        in emission order: they are applied right here.  Every credit
        emitted by any other event, or while a stop is pending, is
        filed as an ordinary record.
        """
        emitted = self._emitted
        applied = 0
        if in_place:
            applied = len(emitted)
            deliver_records(emitted, 0, applied, now, sched, emitted)
            del emitted[:applied]
            # The slot commits its deliveries against the ring count,
            # so applied credits enter it here as filed ones do.
            self._calendar._ring_items += applied
        if emitted:
            self._file_credits()
        return applied

    def _file_credits(self) -> None:
        """File the emitted credits into the cycle draining, as
        records: those of any event but an advance phase, or of a
        change made between runs."""
        emitted = self._emitted
        cal = self._calendar
        cal._lane0[cal._base & cal._mask] += emitted
        cal._ring_items += len(emitted)
        emitted.clear()

    def _flush(self) -> None:
        """End-of-send-phase link traversal: file every flit sent
        this cycle into its arrival lane in one batched update."""
        pending = self._pending
        count = len(pending)
        if not count:
            return
        cal = self._calendar
        lane0 = cal._lane0
        mask = cal._mask
        now = cal._base  # the cycle currently draining
        self.flush_batches += 1
        self.flushed_flits += count
        if self._delay:
            lane0[(now + self._delay) & mask] += pending
        else:
            gates = self._gates
            for record in pending:
                delay = gates[id(record[0])].delay
                lane0[(now + delay) & mask].append(record)
        cal._ring_items += count
        pending.clear()
