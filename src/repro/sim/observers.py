"""The kernel observer protocol: watch a simulation without touching it.

An :class:`Observer` receives a callback from the :class:`Simulator
<repro.sim.kernel.Simulator>` after every event delivery and on every
advancement of simulation time.  Observers are registered through a
public API (:meth:`~repro.sim.kernel.Simulator.add_observer`) and can
be detached at any moment, including from inside one of their own
callbacks — the kernel never needs to be subclassed, wrapped, or
monkey-patched to be watched.

This is the substrate of the whole observability layer
(:mod:`repro.obs`): event tracing, per-link utilization timelines and
kernel profiling are all plain observers.  When no observer is
attached the kernel takes its original fast path; the cost of the
feature is a single truthiness check per event.

Contract:

* ``on_event_delivered(simulator, event)`` fires *after* the event's
  handler has run, so module state already reflects the delivery.
  Observers fire in registration order.
* ``on_time_advanced(simulator, old_time, new_time)`` fires whenever
  ``simulator.now`` strictly increases — before the first event of
  the new time is dispatched, and once more for the final jump to the
  ``until`` horizon of a time-limited :meth:`run
  <repro.sim.kernel.Simulator.run>`.
* Observers must not schedule or deliver events; they read.
  (This is a convention, not an enforced sandbox — violating it
  forfeits the determinism guarantees the test suite pins.)
* ``cycle_boundaries_only = True`` opts an observer into the batched
  engine's fast path (:mod:`repro.sim.batched`), which has no
  per-event :class:`~repro.sim.events.Event` to hand
  ``on_event_delivered``.  The default, ``False``, keeps that engine
  on the per-event loop.  On the fast path ``on_time_advanced`` fires
  at the same instants with the same model state as on the event
  loop — once per cycle in which something is delivered, plus the
  final jump to ``until`` — and ``on_event_delivered`` never fires.
* ``on_close(simulator)`` fires once when the simulator closes,
  before its pending events are dropped: the last moment flits on
  the wire can be read.

Usage::

    class Counter(Observer):
        def __init__(self):
            self.deliveries = 0

        def on_event_delivered(self, simulator, event):
            self.deliveries += 1

    sim = Simulator()
    counter = Counter()
    sim.add_observer(counter)
    ... build modules, run ...
    sim.remove_observer(counter)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator


class Observer:
    """Base class for kernel observers; every hook defaults to a no-op.

    Subclass and override the hooks you need.  Deriving from this
    class (rather than duck-typing) keeps the kernel's dispatch free
    of ``hasattr`` checks on the hot path.
    """

    __slots__ = ()

    #: True if the observer reads only cycle boundaries (its
    #: :meth:`on_event_delivered` is the no-op), which lets the
    #: batched engine keep its fast path while it is attached.
    cycle_boundaries_only = False

    def on_event_delivered(
        self, simulator: "Simulator", event: "Event"
    ) -> None:
        """Called after *event*'s handler ran, in registration order."""

    def on_time_advanced(
        self, simulator: "Simulator", old_time: int, new_time: int
    ) -> None:
        """Called whenever simulation time strictly increases."""

    def on_close(self, simulator: "Simulator") -> None:
        """Called when *simulator* closes, before its pending events
        are dropped and its observers forgotten."""
