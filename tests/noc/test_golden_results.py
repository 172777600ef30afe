"""Golden results: pin the router pipeline's move set.

Every engine runs the same compiled router phases
(``_make_router_advance`` / ``_make_router_send`` in
:mod:`repro.noc.router`), so the cross-engine equivalence suite
cannot notice a behaviour change inside them: all engines would drift
together.  These short runs hold the sha256 of the canonical JSON of
their ``RunResult``; any change to which flit moves when — lane or VC
round-robin order, arbitration, credit accounting, rerouting around a
dead link — changes a digest.

The cases cover both phase variants (single-VC on the mesh, multi-VC
everywhere else) and every branch of the multi-VC bodies: saturated
uniform and hot-spot load, a VC rotation longer than two, the
pipeline switched off, single-flit packets (head and tail at once),
mid-run link faults that detour and kill packets, and adaptive
routing (which re-decides around dead ports).

A second set of runs (:data:`RUNS`) pins the paths around the phases:
the drain controller's positive control (forced moves on the slow
path), a watched point whose watchdog and timeline samples enter the
result, and a trace-driven run.

A digest may only change together with a deliberate change of the
router model; update it then, and say why in the change log.
"""

import hashlib
import json

import pytest

from repro.experiments.drain import run_deadlock_control
from repro.experiments.parallel import run_sweep_point
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.experiments.specs import parse_pattern, parse_topology_routing
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.resilience import FaultInjector, FaultPlan
from repro.resilience.plan import FaultEvent
from repro.traffic.base import TrafficSpec
from repro.traffic.trace import record_trace

#: (topology spec, pattern, rate, NocConfig overrides, fault events)
#: per case.
CASES = {
    "ring16-uniform-saturated": (
        "ring16", "uniform", 0.4, {}, (),
    ),
    "spidergon16-hotspot": (
        "spidergon16", "hotspot:0", 0.3, {}, (),
    ),
    "ring8-three-vcs": (
        "ring8", "uniform", 0.35, {"num_vcs": 3}, (),
    ),
    "ring16-no-pipeline": (
        "ring16", "uniform", 0.3, {"router_pipeline": False}, (),
    ),
    "ring16-single-flit-packets": (
        "ring16", "uniform", 0.3, {"packet_size_flits": 1}, (),
    ),
    # Link 0-1 dies (packets detour) and heals, then 4-5 and 12-13
    # cut the ring in two (packets with no residual path are killed)
    # and heal.
    "ring16-link-faults": (
        "ring16",
        "uniform",
        0.15,
        {},
        (
            FaultEvent(300, 0, 1),
            FaultEvent(500, 0, 1, "repair"),
            FaultEvent(700, 4, 5),
            FaultEvent(700, 12, 13),
            FaultEvent(1100, 4, 5, "repair"),
            FaultEvent(1100, 12, 13, "repair"),
        ),
    ),
    "mesh4x4-adaptive-fault": (
        "mesh4x4:adaptive", "uniform", 0.3, {}, (FaultEvent(400, 5, 6),),
    ),
    "mesh4x4-uniform-saturated": (
        "mesh4x4", "uniform", 0.4, {}, (),
    ),
}

#: sha256 of ``json.dumps(result.to_dict(), sort_keys=True)``.
GOLDEN = {
    "drain-positive-control":
        "de77315b096ac8bfb159b448bbebafa599ba4d04cd0234d2fd2bff7e61cc70e4",
    "mesh4x4-adaptive-fault":
        "ff316328ff59b7cb9d345c12dd7f42647580059b37e3d9cff9be450c64fd2190",
    "mesh4x4-uniform-saturated":
        "fa408ddc888977fa3819d46c24ea9314fe140152f4d06defcd66a51074c670e4",
    "ring16-link-faults":
        "11677ff847394c460c9c01381ec335298f20c16ece63dde824f82f391e329029",
    "ring16-no-pipeline":
        "18f392544a48f3a811a0a298b1ccf851dcd4ba027801582c1ac6c29d0a8b3e4e",
    "ring16-single-flit-packets":
        "1c27d927f877c536c1c6450aca42ab376d29c4d3c8f222ff7809893bc7efbeeb",
    "ring16-uniform-saturated":
        "907f58d83a4dc7dbe4480f79a41f3c102e33e54ddd4120b574de5e681457272b",
    "ring16-watched":
        "c753f9b2a2ff2b1dfa0ff00cba709edb83274813330e5007814d15244331cbed",
    "ring8-three-vcs":
        "e0453ef8add14e9c4823150f07caeec0e741c158834b59d266e6adad6fdd7730",
    "spidergon16-hotspot":
        "3ffcd9e68952c1a7b28a561115d90db0585bfa7b9393d449a1aaba0b97daea73",
    "spidergon16-trace-driven":
        "2ad1326cdf0f374be075caf3a96fe01338996f843e97fa356668ea36355deba9",
}


def run_case(name):
    """The ``RunResult`` of case *name* (1500 cycles, 300 warmup)."""
    spec, pattern, rate, overrides, faults = CASES[name]
    topology, routing = parse_topology_routing(spec)
    network = Network(
        topology,
        routing=routing,
        config=NocConfig(source_queue_packets=8, **overrides),
        traffic=TrafficSpec(parse_pattern(pattern, topology), rate),
        seed=7,
    )
    if faults:
        FaultInjector(network, FaultPlan(faults))
    return network.run(cycles=1500, warmup=300)


def run_drain_control():
    """The drain controller's positive control (slow path)."""
    return run_deadlock_control(True)


def run_watched():
    """A watched ring16 point: stall watchdog plus a timeline whose
    windowed samples land in ``extra["timeline"]``."""
    settings = SimulationSettings(
        cycles=1500,
        warmup=300,
        config=NocConfig(source_queue_packets=8),
        seed=7,
        stall_cycles=200,
        timeline_window=100,
    )
    return run_sweep_point(
        SweepPoint("ring16", "uniform", 0.35, settings)
    )


def run_trace_driven():
    """A spidergon16 hot-spot trace replayed with no stochastic
    sources (the IP memory bound drops part of it)."""
    topology, routing = parse_topology_routing("spidergon16")
    config = NocConfig(source_queue_packets=8)
    trace = record_trace(
        parse_pattern("hotspot:0", topology),
        0.3,
        config.packet_size_flits,
        cycles=1500,
        seed=7,
    )
    network = Network(topology, routing=routing, config=config, seed=7)
    network.install_trace(trace)
    return network.run(cycles=1500, warmup=300)


#: Runs built by hand rather than from :data:`CASES`.
RUNS = {
    "drain-positive-control": run_drain_control,
    "ring16-watched": run_watched,
    "spidergon16-trace-driven": run_trace_driven,
}


def digest(result):
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_matches_golden_digest(name):
    assert digest(run_case(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden_digest(name):
    assert digest(RUNS[name]()) == GOLDEN[name]
