"""Sleeping agents: the scheduler only skips an agent that cannot move.

:class:`~repro.noc.scheduler.CycleScheduler` lets a router or network
interface that moved nothing in a cycle sleep until something wakes
it (see the module docstring).  That is only sound if every outside
change that could unblock an agent wakes it.  ``CheckingScheduler``
holds the scheduler to it: at the start of each phase it also ticks
every sleeping agent and fails if one reports progress or holds no
work (an idle agent must leave the active set, as it did before
agents could sleep), and it fails if an agent holding work is missing
from the active set.  Each run
below is also compared with the same run under the plain scheduler.

The runs cover every wake site: flit and credit arrivals on the event
engines and on the batched fast path, packet generation, trace
injection, link failures and repairs with and without adaptive
routing (rerouting and killed packets), the drain controller's forced
moves, and the pipeline switched off.
"""

import hashlib
import json

import pytest

from repro.experiments.drain import run_deadlock_control
from repro.experiments.specs import parse_pattern, parse_topology_routing
from repro.noc import network as network_module
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.scheduler import CycleScheduler
from repro.resilience import DrainController, FaultInjector, FaultPlan
from repro.resilience.plan import FaultEvent
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.topology.ring import RingTopology
from repro.traffic.base import TrafficSpec
from repro.traffic.trace import record_trace

ENGINES = ("heap", "batched")


class CheckingScheduler(CycleScheduler):
    """A :class:`CycleScheduler` that also ticks its sleeping agents
    and asserts they report no move."""

    #: Sleeping-agent phases ticked (each test resets it; a positive
    #: count shows its check was not vacuous).
    checked = 0

    def handle_message(self, message):
        if message is self._advance_msg:
            phase = "advance_phase"
        else:
            phase = "send_phase"
        for module in self.simulator.modules:
            if module is self or not hasattr(module, "has_pending_work"):
                continue
            awake = self._agents.get(module)
            if awake is None:
                assert not module.has_pending_work(), (
                    f"{module.name} holds work but is not active at "
                    f"cycle {self.now}"
                )
            elif not awake:
                CheckingScheduler.checked += 1
                assert module.has_pending_work(), (
                    f"{module.name} sleeps without work at cycle "
                    f"{self.now}"
                )
                assert getattr(module, phase)() is False, (
                    f"{module.name} slept through a possible move in "
                    f"its {phase} at cycle {self.now}"
                )
        super().handle_message(message)


def run_point(spec, pattern, rate, overrides=None, faults=(), seed=5):
    def run(engine):
        topology, routing = parse_topology_routing(spec)
        network = Network(
            topology,
            routing=routing,
            config=NocConfig(source_queue_packets=8, **(overrides or {})),
            traffic=TrafficSpec(parse_pattern(pattern, topology), rate),
            seed=seed,
            engine=engine,
        )
        if faults:
            FaultInjector(network, FaultPlan(faults))
        result = network.run(cycles=1000, warmup=200)
        network.close()
        return result

    return run


def run_trace(engine):
    """Trace-only spidergon16 hot-spot replay (no stochastic sources)."""
    topology, routing = parse_topology_routing("spidergon16")
    config = NocConfig(source_queue_packets=8)
    trace = record_trace(
        parse_pattern("hotspot:0", topology),
        0.3,
        config.packet_size_flits,
        cycles=1000,
        seed=5,
    )
    network = Network(
        topology, routing=routing, config=config, seed=5, engine=engine
    )
    network.install_trace(trace)
    result = network.run(cycles=1000, warmup=200)
    network.close()
    return result


def run_drain_under_load(engine):
    """Uniform load on a deadlock-prone ring12 (minimal adaptive, one
    VC, 4-flit packets, 1-flit lanes): the drain controller's partial
    rotations force moves on routers that were asleep."""
    topology = RingTopology(12)
    network = Network(
        topology,
        MinimalAdaptiveRouting(topology),
        config=NocConfig(
            packet_size_flits=4,
            num_vcs=1,
            input_buffer_flits=1,
            output_buffer_flits=3,
            source_queue_packets=8,
        ),
        traffic=TrafficSpec(parse_pattern("uniform", topology), 0.5),
        seed=2,
        engine=engine,
    )
    DrainController(network, detect_cycles=50, spin_interval=16)
    result = network.run(cycles=1000)
    network.close()
    assert result.extra["drain"]["flits_spun"] > 0
    return result


RUNS = {
    "ring16-past-knee": run_point("ring16", "uniform", 0.4),
    "spidergon16-hotspot": run_point("spidergon16", "hotspot:0", 0.3),
    "mesh4x4-adaptive-fail-repair": run_point(
        "mesh4x4:adaptive",
        "uniform",
        0.3,
        faults=(FaultEvent(300, 5, 6), FaultEvent(600, 5, 6, "repair")),
    ),
    # Dateline routing with the BFS detour table: parked decisions
    # through a dead link re-decide, packets routed through it are
    # killed (freeing queues of sleeping routers), and cutting the
    # ring twice kills packets with no residual path.
    "ring16-link-faults": run_point(
        "ring16",
        "uniform",
        0.2,
        faults=(
            FaultEvent(150, 0, 1),
            FaultEvent(300, 0, 1, "repair"),
            FaultEvent(350, 1, 2),
            FaultEvent(360, 5, 6),
            FaultEvent(600, 1, 2, "repair"),
            FaultEvent(700, 5, 6, "repair"),
        ),
        seed=1,
    ),
    # One VC, 2-flit lanes, 1-flit queues and long packets: a packet
    # killed mid-advance frees a queue of a router whose advance
    # already ran (or slept) this cycle.
    "ring16-kills-mid-advance": run_point(
        "ring16",
        "uniform",
        0.5,
        {
            "num_vcs": 1,
            "input_buffer_flits": 2,
            "output_buffer_flits": 1,
            "packet_size_flits": 6,
            "router_pipeline": False,
        },
        faults=(
            FaultEvent(183, 3, 4),
            FaultEvent(254, 3, 4, "repair"),
            FaultEvent(260, 0, 1),
            FaultEvent(343, 9, 10),
            FaultEvent(449, 9, 10, "repair"),
            FaultEvent(488, 0, 1, "repair"),
        ),
        seed=1020,
    ),
    "drain-positive-control": lambda engine: run_deadlock_control(
        True, engine=engine
    ),
    "ring12-drain-under-load": run_drain_under_load,
    "spidergon16-trace": run_trace,
    "ring16-no-pipeline": run_point(
        "ring16", "uniform", 0.3, {"router_pipeline": False}
    ),
}


def digest(result):
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_sleeping_agents_cannot_move(name, engine, monkeypatch):
    plain = RUNS[name](engine)
    monkeypatch.setattr(network_module, "CycleScheduler", CheckingScheduler)
    monkeypatch.setattr(CheckingScheduler, "checked", 0)
    checked = RUNS[name](engine)
    assert CheckingScheduler.checked > 0  # agents did sleep
    assert digest(checked) == digest(plain)

