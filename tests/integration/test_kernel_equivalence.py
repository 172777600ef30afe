"""Engine equivalence on real campaign points.

The engines are pure performance changes: for one representative
figure point per registered topology family, running the identical
network/seed on the reference heap queue or on the batched
cycle-synchronous engine must produce a byte-identical ``RunResult``
— every metric, down to the event count — and deliver the identical
event trace.  Fault-plan and watchdog-truncated runs are part of the
contract too: resilience behaviour may not depend on the engine.
"""

import pytest

from repro.experiments.specs import (
    available_topologies,
    parse_topology_routing,
)
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.obs import TimelineObserver
from repro.resilience.injector import FaultInjector
from repro.resilience.plan import FaultEvent, FaultPlan
from repro.resilience.watchdog import StallWatchdog
from repro.sim.events import Event, HeapEventQueue
from repro.sim.kernel import Simulator
from repro.sim.observers import Observer
from repro.topology import RingTopology
from repro.traffic import TrafficSpec, UniformTraffic

FAMILY_EXAMPLES = sorted(
    family.example for family in available_topologies()
)

OTHER_ENGINES = ["heap", "batched"]


def _run_point(
    spec,
    engine,
    cycles=600,
    warmup=100,
    rate=0.15,
    fault_plan=None,
    observer_factory=None,
    seed=11,
    num_vcs=None,
):
    topology, routing = parse_topology_routing(spec)
    network = Network(
        topology,
        routing=routing,
        config=NocConfig(source_queue_packets=8, num_vcs=num_vcs),
        traffic=TrafficSpec(UniformTraffic(topology), rate),
        seed=seed,
        engine=engine,
    )
    if fault_plan is not None:
        FaultInjector(network, fault_plan)
    observer = (
        observer_factory(network)
        if observer_factory is not None
        else None
    )
    result = network.run(cycles=cycles, warmup=warmup)
    return result, observer


class TestRunResultEquivalence:
    @pytest.mark.parametrize("engine", OTHER_ENGINES)
    @pytest.mark.parametrize("spec", FAMILY_EXAMPLES)
    def test_byte_identical_metrics(self, spec, engine):
        """Every registered family example: the wheel kernel and
        *engine* agree on every RunResult field."""
        wheel, _ = _run_point(spec, "wheel")
        other, _ = _run_point(spec, engine)
        assert wheel.to_dict() == other.to_dict()

    @pytest.mark.parametrize("engine", OTHER_ENGINES)
    def test_o1turn_equivalence(self, engine):
        """O1TURN hashes packet ids into dimension orders; a network
        numbers its own packets, so no engine (and no earlier run in
        the process) can shift them."""
        wheel, _ = _run_point("mesh4x4:o1turn", "wheel", rate=0.3)
        other, _ = _run_point("mesh4x4:o1turn", engine, rate=0.3)
        assert wheel.to_dict() == other.to_dict()

    @pytest.mark.parametrize("engine", OTHER_ENGINES)
    def test_fault_plan_equivalence(self, engine):
        """A mid-run link failure (kill + purge + detour) and repair
        produce identical results on every engine."""
        plan = FaultPlan.single(5, 6, at=120, repair_at=400)
        wheel, _ = _run_point("mesh4x4", "wheel", fault_plan=plan)
        other, _ = _run_point("mesh4x4", engine, fault_plan=plan)
        assert wheel.degraded == other.degraded
        assert wheel.to_dict() == other.to_dict()

    @pytest.mark.parametrize("engine", OTHER_ENGINES)
    def test_stall_truncated_equivalence(self, engine):
        """A watchdog-aborted run truncates at the identical cycle
        with the identical result."""
        plan = FaultPlan.single(0, 1, at=50)

        def attach(network):
            return StallWatchdog(network, stall_cycles=150)

        wheel, wd_wheel = _run_point(
            "ring16",
            "wheel",
            rate=0.05,
            fault_plan=plan,
            observer_factory=attach,
        )
        other, wd_other = _run_point(
            "ring16",
            engine,
            rate=0.05,
            fault_plan=plan,
            observer_factory=attach,
        )
        assert wd_wheel.tripped == wd_other.tripped
        assert wheel.to_dict() == other.to_dict()


def _watched_runs(spec, stall_cycles=200, **kwargs):
    """*spec* run on every engine with a timeline and a watchdog
    attached: ``({engine: RunResult}, {engine: mode})``, the timeline
    exported into ``extra["timeline"]`` as the sweep runner does."""

    def attach(network):
        TimelineObserver(network, window=50)
        StallWatchdog(network, stall_cycles=stall_cycles)
        return network

    runs, modes = {}, {}
    for engine in ("wheel", "heap", "batched"):
        result, network = _run_point(
            spec, engine, observer_factory=attach, **kwargs
        )
        timeline, _ = network.simulator.observers
        result.extra["timeline"] = timeline.timeline().to_dict()
        runs[engine] = result
        modes[engine] = getattr(network.simulator.engine, "mode", None)
    return runs, modes


#: A fault plan isolating ring8's node 0: traffic to and from it is
#: killed on the spot (kill-churn) until the watchdog trips, with
#: flits still on the wire.
ISOLATE_NODE0 = FaultPlan((FaultEvent(100, 0, 1), FaultEvent(100, 0, 7)))

TRIPPED_RUNS = {
    "ring16-1vc-wedge-20": dict(
        spec="ring16", rate=0.4, num_vcs=1, cycles=3000, stall_cycles=20
    ),
    "ring16-1vc-wedge-50": dict(
        spec="ring16", rate=0.4, num_vcs=1, cycles=3000, stall_cycles=50
    ),
    "ring8-kill-churn-30": dict(
        spec="ring8", rate=0.3, seed=3, cycles=3000,
        fault_plan=ISOLATE_NODE0, stall_cycles=30,
    ),
    "ring8-kill-churn-80": dict(
        spec="ring8", rate=0.3, seed=3, cycles=3000,
        fault_plan=ISOLATE_NODE0, stall_cycles=80,
    ),
}


class TestWatchedFastPathEquivalence:
    """The stall watchdog and utilization timeline keep the batched
    engine on its fast path, with results byte-identical to the event
    engines — the timeline and the stall snapshot included."""

    @pytest.mark.parametrize("spec", FAMILY_EXAMPLES)
    def test_every_family(self, spec):
        runs, modes = _watched_runs(spec)
        assert modes["batched"] == "fast"
        wheel = runs["wheel"].to_dict()
        assert wheel == runs["heap"].to_dict()
        assert wheel == runs["batched"].to_dict()
        links = wheel["extra"]["timeline"]["links"]
        assert any(any(link["counts"]) for link in links)

    @pytest.mark.parametrize("case", sorted(TRIPPED_RUNS))
    def test_tripped_runs(self, case):
        kwargs = dict(TRIPPED_RUNS[case])
        runs, modes = _watched_runs(kwargs.pop("spec"), **kwargs)
        assert modes["batched"] == "fast"
        wheel = runs["wheel"]
        assert wheel.degraded
        assert wheel.extra["stall"]["stall_cycles"] == kwargs["stall_cycles"]
        assert (
            wheel.to_dict()
            == runs["heap"].to_dict()
            == runs["batched"].to_dict()
        )


class _DeliveryTrace(Observer):
    def __init__(self):
        self.records = []

    def on_event_delivered(self, simulator, event: Event) -> None:
        message = event.message
        self.records.append(
            (
                event.time,
                event.priority,
                event.sequence,
                type(message).__name__,
                message.name,
                event.target.name if event.target else None,
            )
        )

    def on_time_advanced(self, simulator, old, new) -> None:
        self.records.append(("advance", old, new))


class TestDeliveryTraceEquivalence:
    def test_observer_sees_identical_event_stream(self):
        """Stronger than metric equality: the full (time, priority,
        sequence, message, target) delivery stream matches across all
        three engines.  With an observer attached the batched engine
        takes its slow path, which must be a perfect event kernel."""
        traces = []
        for engine in ("wheel", "heap", "batched"):
            topology = RingTopology(8)
            network = Network(
                topology,
                config=NocConfig(source_queue_packets=8),
                traffic=TrafficSpec(UniformTraffic(topology), 0.2),
                seed=5,
                engine=engine,
            )
            trace = _DeliveryTrace()
            network.simulator.add_observer(trace)
            network.run(cycles=400)
            traces.append(trace.records)
        assert traces[0] == traces[1] == traces[2]
        assert len(traces[0]) > 1_000  # a real workload, not a stub


class TestEnvironmentSelector:
    def test_default_is_heap(self):
        sim = Simulator()
        assert isinstance(sim._queue, HeapEventQueue)
        assert sim.engine.name == "heap"
