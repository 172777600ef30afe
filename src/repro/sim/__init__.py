"""Discrete-event simulation kernel.

This package is the repository's substitute for the OMNeT++ framework
used in the paper.  It provides the same modelling idioms at the level
the paper's models need them:

* a global event queue with deterministic ordering
  (:class:`~repro.sim.kernel.Simulator`),
* modules with named gates connected by unidirectional channels with
  integer delays (:class:`~repro.sim.module.SimModule`,
  :class:`~repro.sim.module.Gate`),
* messages and self-messages (timers)
  (:class:`~repro.sim.messages.Message`),
* reproducible per-stream random number generation
  (:class:`~repro.sim.rng.RngStream`).

Time is a non-negative integer number of cycles, matching the
cycle-accurate flit-level models built on top of the kernel.
"""

from repro.sim.errors import (
    GateConnectionError,
    SchedulingError,
    SimulationError,
)
from repro.sim.engines import (
    Engine,
    EngineFamily,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import Gate, SimModule
from repro.sim.observers import Observer
from repro.sim.rng import RngStream

__all__ = [
    "Engine",
    "EngineFamily",
    "Event",
    "Gate",
    "GateConnectionError",
    "Message",
    "Observer",
    "RngStream",
    "SchedulingError",
    "SimModule",
    "SimulationError",
    "Simulator",
    "available_engines",
    "register_engine",
    "resolve_engine",
]
