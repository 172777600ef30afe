"""repro — reproduction of "Simulation and Analysis of Network on Chip
Architectures: Ring, Spidergon and 2D Mesh" (Bononi & Concer, DATE 2006).

The package compares the Ring, Spidergon and 2D Mesh NoC topologies
both analytically (network diameter and average distance closed forms,
:mod:`repro.analysis`) and by flit-level wormhole simulation
(:mod:`repro.noc` on top of the discrete-event kernel in
:mod:`repro.sim`), under the paper's hot-spot and homogeneous traffic
scenarios (:mod:`repro.traffic`).

Quickstart::

    from repro import (
        Network, NocConfig, SpidergonTopology, TrafficSpec,
        UniformTraffic,
    )

    topology = SpidergonTopology(16)
    traffic = TrafficSpec(UniformTraffic(topology), injection_rate=0.2)
    result = Network(topology, traffic=traffic, seed=1).run(
        cycles=20_000, warmup=5_000
    )
    print(result.throughput, result.avg_latency)

Or drive it from spec strings, the way the sweep machinery does::

    from repro import (
        SimulationSettings, parse_pattern, parse_topology,
        run_simulation,
    )

    topology = parse_topology("spidergon16")
    pattern = parse_pattern("hotspot:0", topology)
    result = run_simulation(
        topology, pattern, 0.2, SimulationSettings(cycles=20_000)
    )

Observability — per-link utilization timelines, flit-lifecycle traces
and kernel profiles — lives in :mod:`repro.obs`, built on the kernel
observer protocol (:class:`Observer`); the key entry points are
re-exported here (:class:`TimelineObserver`, :class:`FlitTracer`,
:class:`KernelProfiler`, :class:`TraceSink`).

Resilience — runtime link-fault injection (:class:`FaultPlan`,
:class:`FaultInjector`), stall detection (:class:`StallWatchdog`),
DRAIN-style deadlock recovery for the adaptive routing algorithms
(:class:`DrainController`, :func:`drain_ring`), periodic invariant
audits (:class:`InvariantAuditor`) and the crash-tolerant campaign
executor (:class:`FailedResult`, :class:`CampaignManifest`) — lives
in :mod:`repro.resilience` and :mod:`repro.experiments.parallel`;
see ``docs/resilience.md``.

Serving — the asyncio campaign server behind ``python -m repro
serve`` (content-addressed :class:`ResultStore`, single-flight job
coalescing, chunked-JSONL progress streams) and its stdlib client
(:class:`ServeClient`, ``python -m repro submit``) — lives in
:mod:`repro.serve`; see ``docs/serving.md``.
"""

from repro.experiments.campaign import Campaign, campaign_points
from repro.experiments.parallel import CampaignManifest, FailedResult
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.experiments.specs import parse_pattern, parse_topology
from repro.noc import Network, NocConfig, Packet
from repro.obs import (
    FlitTracer,
    KernelProfiler,
    TimelineObserver,
    TraceSink,
    UtilizationTimeline,
)
from repro.resilience import (
    DrainController,
    DrainError,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InvariantAuditor,
    StallWatchdog,
    drain_ring,
)
from repro.serve.client import ServeClient
from repro.serve.store import ResultStore
from repro.routing import (
    CirculantTableRouting,
    MeshXYRouting,
    MinimalAdaptiveRouting,
    MisrouteAdaptiveRouting,
    MultiplicativeCirculantRouting,
    RingShortestRouting,
    SpidergonAcrossFirstRouting,
    TableRouting,
    routing_for,
)
from repro.sim import Observer, Simulator
from repro.stats import RunResult, detect_saturation_point
from repro.topology import (
    CirculantTopology,
    MeshTopology,
    RingTopology,
    SpidergonTopology,
    Topology,
    average_distance,
    diameter,
)
from repro.traffic import (
    HotspotTraffic,
    TrafficSpec,
    UniformTraffic,
    double_hotspot_targets,
)

__version__ = "1.0.0"

__all__ = [
    "Campaign",
    "CampaignManifest",
    "CirculantTableRouting",
    "CirculantTopology",
    "DrainController",
    "DrainError",
    "FailedResult",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FlitTracer",
    "HotspotTraffic",
    "InvariantAuditor",
    "KernelProfiler",
    "MeshTopology",
    "MeshXYRouting",
    "MinimalAdaptiveRouting",
    "MisrouteAdaptiveRouting",
    "MultiplicativeCirculantRouting",
    "Network",
    "NocConfig",
    "Observer",
    "Packet",
    "ResultStore",
    "RingShortestRouting",
    "RingTopology",
    "RunResult",
    "ServeClient",
    "SimulationSettings",
    "Simulator",
    "SpidergonAcrossFirstRouting",
    "SpidergonTopology",
    "StallWatchdog",
    "TableRouting",
    "TimelineObserver",
    "Topology",
    "TraceSink",
    "TrafficSpec",
    "UniformTraffic",
    "UtilizationTimeline",
    "average_distance",
    "campaign_points",
    "detect_saturation_point",
    "diameter",
    "double_hotspot_targets",
    "drain_ring",
    "parse_pattern",
    "parse_topology",
    "routing_for",
    "run_simulation",
    "__version__",
]
