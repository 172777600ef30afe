"""Network lifetime: a spent network is freed by reference counting.

The model graph is cyclic (gates and their modules, modules and the
simulator's registry, pending events and their targets, callbacks
into the network, observers and their drain listeners).
:meth:`Network.close` cuts those cycles, and ``run_simulation`` calls
it once the result is exported, so a sweep point leaves nothing for
the cyclic garbage collector.  These tests pin that on every
registered engine, and pin what stays readable on a closed network.
"""

import gc
import json

import pytest

from repro.experiments.parallel import run_sweep_point
from repro.experiments.runner import (
    SimulationSettings,
    SweepPoint,
    run_simulation,
)
from repro.experiments.specs import parse_pattern, parse_topology_routing
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.obs import FlitTracer, TimelineObserver, TraceSink
from repro.resilience import FaultPlan
from repro.resilience.plan import FaultEvent
from repro.sim.engines import available_engines
from repro.sim.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule
from repro.traffic.base import TrafficSpec

ENGINES = sorted(family.name for family in available_engines())

SETTINGS = SimulationSettings(
    cycles=800,
    warmup=200,
    config=NocConfig(source_queue_packets=8),
    seed=3,
)

#: (topology spec, pattern, rate, SimulationSettings overrides).
POINTS = {
    "ring16-uniform": ("ring16", "uniform", 0.2, {}),
    "spidergon16-hotspot": ("spidergon16", "hotspot:0", 0.3, {}),
    "mesh4x4-adaptive-fault": (
        "mesh4x4:adaptive",
        "uniform",
        0.2,
        {
            "fault_plan": FaultPlan(
                (
                    FaultEvent(300, 5, 6),
                    FaultEvent(500, 5, 6, "repair"),
                )
            )
        },
    ),
    "ring16-watched": (
        "ring16",
        "uniform",
        0.3,
        {"stall_cycles": 200, "timeline_window": 100},
    ),
    "ring16-audited": (
        "ring16",
        "uniform",
        0.2,
        {"invariant_check_interval": 200},
    ),
}


def cyclic_garbage(run):
    """Objects the cyclic collector frees after *run()*, with the
    collector off while it runs.  *run* is called once beforehand, so
    one-off import-time garbage is not counted."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def sweep_point(name, engine):
    spec, pattern, rate, overrides = POINTS[name]
    settings = SimulationSettings(
        **{
            **{
                field: getattr(SETTINGS, field)
                for field in ("cycles", "warmup", "config", "seed")
            },
            **overrides,
            "engine": engine,
        }
    )
    return SweepPoint(spec, pattern, rate, settings)


def build_network(spec="ring16", pattern="uniform", rate=0.3):
    topology, routing = parse_topology_routing(spec)
    return Network(
        topology,
        routing=routing,
        config=SETTINGS.config,
        traffic=TrafficSpec(parse_pattern(pattern, topology), rate),
        seed=SETTINGS.seed,
    )


class TestSweepPointLeavesNoCycles:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_point_is_freed_by_reference_counting(self, name, engine):
        point = sweep_point(name, engine)
        assert cyclic_garbage(lambda: run_sweep_point(point)) == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_profiled_run_is_freed_by_reference_counting(self, engine):
        topology, routing = parse_topology_routing("spidergon16")
        pattern = parse_pattern("uniform", topology)
        settings = sweep_point("spidergon16-hotspot", engine).settings

        def run():
            result = run_simulation(
                topology,
                pattern,
                0.2,
                settings,
                routing=routing,
                profile=True,
            )
            assert "kernel" in result.extra

        assert cyclic_garbage(run) == 0

    def test_watched_point_still_exports_its_timeline(self):
        result = run_sweep_point(sweep_point("ring16-watched", None))
        assert result.extra["timeline"]["window"] == 100


class TestClosedNetwork:
    def test_state_stays_readable(self):
        network = build_network()
        network.run(cycles=600, warmup=100)
        before = (
            [router.occupancy_snapshot() for router in network.routers],
            network.link_flit_counts(),
            network.stats.flits_consumed,
            network.stats.packets_consumed,
        )
        assert before[2] > 0
        network.close()
        after = (
            [router.occupancy_snapshot() for router in network.routers],
            {
                (router.node, port): router.flits_sent_on(port)
                for router in network.routers
                for port in router._outputs
            },
            network.stats.flits_consumed,
            network.stats.packets_consumed,
        )
        assert after == before
        assert network.simulator.modules == ()
        assert network.simulator.observers == ()
        assert network.simulator.pending_event_count == 0

    def test_close_forgets_active_and_sleeping_agents(self):
        network = build_network(rate=0.5)  # past the knee: agents sleep
        network.simulator.run(until=300)
        scheduler = network.scheduler
        assert False in scheduler._agents.values()
        scheduler.keep_awake(network.routers[0])
        assert scheduler._advanced
        network.close()
        assert scheduler._agents == {}
        assert scheduler._advanced == set()

    def test_close_is_idempotent_and_run_raises(self):
        network = build_network()
        network.close()
        network.close()
        with pytest.raises(ValueError, match="single-use"):
            network.run(cycles=100)
        with pytest.raises(SimulationError, match="closed"):
            network.simulator.run(until=100)

    def test_bare_simulator_close_cuts_gates_and_events(self):
        simulator = Simulator()
        a = SimModule(simulator, "a")
        b = SimModule(simulator, "b")
        out, into = a.add_gate("out"), b.add_gate("in")
        out.connect(into)
        simulator.schedule(5, b, Message("tick"))
        simulator.close()
        assert (out.module, out.peer, into.module) == (None, None, None)
        assert simulator.pending_event_count == 0
        assert simulator.modules == ()

    def test_run_simulation_matches_an_unclosed_run(self):
        topology, routing = parse_topology_routing("spidergon16")
        pattern = parse_pattern("hotspot:0", topology)
        closed = run_simulation(
            topology, pattern, 0.3, SETTINGS, routing=routing
        )
        topology, routing = parse_topology_routing("spidergon16")
        network = Network(
            topology,
            routing=routing,
            config=SETTINGS.config,
            traffic=TrafficSpec(parse_pattern("hotspot:0", topology), 0.3),
            seed=SETTINGS.seed,
        )
        by_hand = network.run(
            cycles=SETTINGS.cycles, warmup=SETTINGS.warmup
        )
        assert network.simulator.modules  # not closed
        assert json.dumps(closed.to_dict(), sort_keys=True) == json.dumps(
            by_hand.to_dict(), sort_keys=True
        )


class TestDetachedObservers:
    @pytest.mark.parametrize(
        "attach",
        [
            lambda network: TimelineObserver(network, window=50),
            lambda network: FlitTracer(network, TraceSink.disabled()),
        ],
        ids=["timeline", "flit-tracer"],
    )
    def test_detach_unregisters_the_drain_listener(self, attach):
        network = build_network()
        observer = attach(network)
        assert observer._on_drain_move in network._drain_listeners
        observer.detach()
        assert observer._on_drain_move not in network._drain_listeners
        assert observer not in network.simulator.observers
        observer.detach()

    def test_detach_after_close_is_a_no_op(self):
        network = build_network()
        tracer = FlitTracer(network, TraceSink.in_memory())
        network.run(cycles=300)
        network.close()
        tracer.detach()
        assert tracer.sink.records_written > 0
