"""Simulation engines: how a :class:`~repro.sim.kernel.Simulator`
stores and drains its future-event set.

An :class:`Engine` bundles two choices:

* the **future-event store** (:meth:`Engine.make_queue`) — the
  reference heap or the per-cycle calendar (timing wheel);
* the **drive loop** (:meth:`Engine.run`) — the classic per-event
  loop, or the batched engine's cycle-synchronous fast path.

Engines are registered by name, mirroring the topology spec registry
(:func:`repro.experiments.specs.register_topology`)::

    sim = Simulator(engine="batched")      # spec string
    sim = Simulator(engine=BatchedEngine())  # or an instance

``python -m repro engines`` lists the registered families.

An engine is named in code: the ``engine`` argument, the
``SimulationSettings.engine`` field or the campaign spec key
``engine=``.  When none is named, one of two built-in defaults, both
defined here, applies: :data:`NETWORK_DEFAULT` (``"batched"``) for a
:class:`~repro.noc.network.Network` — and with it every sweep, figure
and campaign — and :data:`KERNEL_DEFAULT` (``"heap"``) for a bare
:class:`~repro.sim.kernel.Simulator`, which has no network for the
batched engine to install its fast path on.

Engine instances hold per-simulation state (the batched engine caches
a network's link tables), so the registry stores *factories*:
:func:`resolve_engine` builds a fresh instance per spec-string lookup
and never shares one between simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.sim.events import CycleCalendar, HeapEventQueue

if TYPE_CHECKING:
    from repro.sim.kernel import Simulator


#: Engine a :class:`~repro.noc.network.Network` runs on when none is
#: named: the cycle-synchronous fast path, byte-identical to the event
#: kernel on every topology family.
NETWORK_DEFAULT = "batched"

#: Engine a bare :class:`~repro.sim.kernel.Simulator` runs on when
#: none is named: without a network to batch, the classic event loop
#: runs fastest on the binary heap (docs/engines.md).
KERNEL_DEFAULT = "heap"


class Engine:
    """Strategy object owning the event store and the run loop.

    Subclasses override :meth:`make_queue` and, when their drive loop
    differs from the classic per-event loop, :meth:`run`.  The model
    layer may additionally use :meth:`prepare_network` (called once by
    :class:`~repro.noc.network.Network` after wiring) to install
    engine-specific fast paths, and :meth:`on_observer_added` to
    restrict observer attachment where the fast path cannot honour it.
    """

    #: Registry name; informational on ad-hoc instances.
    name = "custom"

    def make_queue(self):
        """Build this engine's future-event store (queue protocol:
        ``push/pop_next/pop/peek_time/occupancy/pending_events/clear/
        __len__``)."""
        raise NotImplementedError

    def run(self, simulator: "Simulator", until: int | None) -> int:
        """Drive *simulator* until a stop condition; return the number
        of deliveries.  The default is the kernel's classic event loop,
        whose semantics every engine must preserve exactly."""
        return simulator._event_loop(until)

    def prepare_network(self, network) -> None:
        """Hook called by :class:`~repro.noc.network.Network` once the
        model is fully wired (before any run)."""

    def on_observer_added(self, simulator: "Simulator") -> None:
        """Hook called before an observer registers; raise to refuse
        (the batched engine does, once its fast path has started)."""

    def release_network(self, network) -> None:
        """Hook called by :class:`~repro.noc.network.Network` once its
        single run has produced its result; engines drop any per-run
        wiring here (the model must stay inspectable)."""


@dataclass(frozen=True, slots=True)
class EngineFamily:
    """One registered engine, for the registry and CLI listing.

    Attributes:
        name: Registry key, e.g. ``"batched"``.
        factory: Zero-argument builder returning a fresh engine.
        description: One-line summary for ``repro engines``.
    """

    name: str
    factory: Callable[[], Engine]
    description: str


_ENGINES: dict[str, EngineFamily] = {}


def register_engine(
    name: str, *, description: str
) -> Callable[[Callable[[], Engine]], Callable[[], Engine]]:
    """Register an engine factory under *name*.

    The decorated callable takes no arguments and returns a fresh
    :class:`Engine`; decorating a class works (its constructor is the
    factory).

    Raises:
        ValueError: if *name* is already registered.
    """

    def decorator(factory: Callable[[], Engine]) -> Callable[[], Engine]:
        if name in _ENGINES:
            raise ValueError(
                f"engine name {name!r} is already registered"
            )
        _ENGINES[name] = EngineFamily(name, factory, description)
        return factory

    return decorator


def available_engines() -> list[EngineFamily]:
    """All registered engines, sorted by name."""
    _ensure_builtin()
    return sorted(_ENGINES.values(), key=lambda f: f.name)


def resolve_engine(spec: "str | Engine") -> Engine:
    """Build an engine from a spec string, or pass an instance through.

    Raises:
        ValueError: for an unknown spec name.
        TypeError: for anything that is neither a string nor an
            :class:`Engine`.
    """
    if isinstance(spec, Engine):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"engine must be a spec string or an Engine instance, "
            f"got {spec!r}"
        )
    _ensure_builtin()
    family = _ENGINES.get(spec)
    if family is None:
        known = ", ".join(sorted(_ENGINES))
        raise ValueError(
            f"unknown engine spec {spec!r} (registered: {known})"
        )
    return family.factory()


@register_engine(
    "wheel",
    description=(
        "event kernel on the per-cycle calendar (the batched "
        "engine's slow path)"
    ),
)
class WheelEngine(Engine):
    """Classic event loop over the :class:`~repro.sim.events.
    CycleCalendar` timing wheel: the batched engine's slow path as an
    engine of its own."""

    name = "wheel"

    def make_queue(self) -> CycleCalendar:
        return CycleCalendar()


@register_engine(
    "heap",
    description=(
        "event kernel on the reference binary-heap queue; the default "
        "for a bare Simulator"
    ),
)
class HeapEngine(Engine):
    """Reference engine: classic event loop over a single binary heap,
    the oracle the other engines are verified against and the default
    for a bare :class:`~repro.sim.kernel.Simulator`."""

    name = "heap"

    def make_queue(self) -> HeapEventQueue:
        return HeapEventQueue()


def _ensure_builtin() -> None:
    """Late-register engines living in other modules (the batched
    engine imports back into this module for its base class)."""
    if "batched" not in _ENGINES:
        import repro.sim.batched  # noqa: F401  (registers itself)
