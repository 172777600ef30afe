"""Run settings, sweep points, and one simulation run end to end."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.resilience.plan import FaultPlan
from repro.routing.base import RoutingAlgorithm
from repro.stats.summary import RunResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficPattern, TrafficSpec


@dataclass(frozen=True, slots=True)
class SimulationSettings:
    """Run-length and model parameters shared across a sweep.

    The defaults are sized so a full figure regenerates in minutes on
    a laptop while keeping the post-warmup window long enough for
    stable throughput estimates (the paper's qualitative shapes are
    insensitive to the exact horizon).

    Attributes:
        cycles: Total simulated cycles per run.
        warmup: Cycles excluded from measurement.
        config: NoC model parameters.
        seed: Root seed; each source derives its own stream.
        timeline_window: When set, every run collects a per-link
            utilization timeline with this window width (cycles) and
            exports it as ``result.extra["timeline"]``.  Part of the
            settings — rather than an execution flag — so the sweep
            cache key covers it and worker processes produce the
            identical export a serial run would.
        fault_plan: Optional schedule of runtime link failures and
            repairs, executed by a
            :class:`~repro.resilience.FaultInjector`.  Like the seed,
            the plan is part of the point's identity: it is hashed
            into the sweep cache key and replays identically under
            serial, parallel, or resumed execution.
        stall_cycles: When set, attach a
            :class:`~repro.resilience.StallWatchdog` that aborts the
            run (``degraded=True`` + ``extra["stall"]`` snapshot)
            after this many cycles without a consumed flit.
        invariant_check_interval: When non-zero, run the full
            :class:`~repro.noc.invariants.InvariantChecker` suite
            every this many cycles during the run (0 = off; audits
            are O(model state) each).
        engine: Simulation engine name (``"wheel"``, ``"heap"`` or
            ``"batched"`` — see :func:`repro.sim.available_engines`
            and docs/engines.md), or ``None`` for the network
            default, batched.  A pure performance choice: every
            engine yields byte-identical ``RunResult``s, so the sweep
            cache key leaves the engine out and a result stored under
            one engine is a hit under any other.
    """

    cycles: int = 20_000
    warmup: int = 4_000
    config: NocConfig = NocConfig(source_queue_packets=64)
    seed: int = 1
    timeline_window: int | None = None
    fault_plan: FaultPlan | None = None
    stall_cycles: int | None = None
    invariant_check_interval: int = 0
    engine: str | None = None

    def scaled(self, factor: float) -> "SimulationSettings":
        """A copy with run length scaled by *factor* (for quick tests)."""
        if factor <= 0:
            raise ValueError(f"factor must be > 0, got {factor}")
        return replace(
            self,
            cycles=max(2, int(self.cycles * factor)),
            warmup=int(self.warmup * factor),
        )


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One cell of a sweep, as plain picklable data.

    Workers rebuild the actual topology / pattern objects from the
    spec strings (see :mod:`repro.experiments.specs`), so a point can
    cross a process boundary and be hashed for the result cache.  The
    seed travels *inside* ``settings`` — it belongs to the point's
    coordinates, never to execution order, which is what makes serial
    and parallel sweeps produce identical results.

    Attributes:
        topology: Topology spec string, e.g. ``"spidergon16"``.
        pattern: Traffic spec string, e.g. ``"hotspot:0,8"``.
        rate: Injection rate (flits/cycle/source).
        settings: Full run parameters, including the point's seed.
    """

    topology: str
    pattern: str
    rate: float
    settings: SimulationSettings


def run_simulation(
    topology: Topology,
    pattern: TrafficPattern,
    injection_rate: float,
    settings: SimulationSettings,
    routing: RoutingAlgorithm | None = None,
    observers: Sequence[Callable[[Network], object]] = (),
    profile: bool = False,
) -> RunResult:
    """Build, run and summarise one simulation.

    Args:
        topology / pattern / injection_rate / settings / routing: The
            model, as before.
        observers: Factories called with the built :class:`Network`
            before the run — each typically constructs a
            :class:`repro.obs` observer (they self-register with the
            network's simulator).  Return values are ignored; hold
            your own reference to read the observer afterwards.
        profile: Attach a :class:`~repro.obs.KernelProfiler` and
            store its summary in ``result.extra["kernel"]``.  The
            summary contains wall-clock-derived numbers, so profiled
            results are *not* bit-comparable across machines — leave
            this off for determinism-sensitive sweeps.

    When ``settings.timeline_window`` is set, the exported
    :class:`~repro.stats.utilization.UtilizationTimeline` dict is
    stored in ``result.extra["timeline"]`` (deterministic, and
    identical under serial or parallel execution).
    """
    traffic = TrafficSpec(pattern, injection_rate)
    network = Network(
        topology,
        routing=routing,
        config=settings.config,
        traffic=traffic,
        seed=settings.seed,
        engine=settings.engine,
    )
    timeline_observer = None
    if settings.timeline_window is not None:
        from repro.obs import TimelineObserver

        timeline_observer = TimelineObserver(
            network, window=settings.timeline_window
        )
    profiler = None
    if profile:
        from repro.obs import KernelProfiler

        profiler = KernelProfiler(network.simulator)
    if settings.fault_plan is not None and settings.fault_plan:
        from repro.resilience.injector import FaultInjector

        FaultInjector(network, settings.fault_plan)
    if settings.stall_cycles is not None:
        from repro.resilience.watchdog import StallWatchdog

        StallWatchdog(network, settings.stall_cycles)
    if settings.invariant_check_interval:
        from repro.resilience.auditor import InvariantAuditor

        InvariantAuditor(network, settings.invariant_check_interval)
    for factory in observers:
        factory(network)
    result = network.run(
        cycles=settings.cycles, warmup=settings.warmup
    )
    if timeline_observer is not None:
        result.extra["timeline"] = (
            timeline_observer.timeline().to_dict()
        )
    if profiler is not None:
        result.extra["kernel"] = profiler.summary()
    network.close()
    return result

