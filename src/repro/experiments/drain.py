"""Deadlock avoidance vs recovery: the drain study.

The paper's fabrics never deadlock by construction — dateline VC
disciplines on Ring/Spidergon and dimension-order turn restriction on
the mesh (docs/deadlock.md).  That guarantee is paid for up front, in
VCs and routing freedom.  The adaptive algorithms of
:mod:`repro.routing.adaptive` drop it (``deadlock_free = False``) and
pair with the DRAIN-style
:class:`~repro.resilience.drain.DrainController` instead, which costs
nothing until a deadlock actually forms.  This module measures both
sides of that trade:

* **Positive control** (:func:`run_deadlock_control`) — a
  deterministic wormhole deadlock on an 8-ring: single VC, 4-flit
  packets, and three synchronized all-nodes bursts to
  ``(i + 3) % 8``.  Without recovery the cycle wedges with zero
  packets delivered and the stall watchdog truncates the run; with a
  :class:`DrainController` attached every packet is delivered,
  byte-identically across repeats.  The packet length matters: 4-flit
  worms wedge with each head parked one hop beyond its queued tail
  flits, which is exactly the owner-free shape the drain rotation can
  break (see :mod:`repro.resilience.drain` on the recovery bound).
  ``tests/resilience/test_drain.py`` pins it.

* **Load sweep** (:func:`drain_study`) — uniform traffic on the same
  ring comparing the paper's dateline routing against
  minimal-adaptive with and without a controller.  At sane loads the
  adaptive network never wedges, so the controller's detection timer
  stays idle and the measured results with and without it are
  identical — recovery is free until needed, which is the argument
  for recovery over avoidance.  ``python -m repro figures
  study_drain`` regenerates the committed ``results/study_drain.csv``.
"""

from __future__ import annotations

import functools
from dataclasses import replace

from repro.experiments.parallel import rate_points, sweep_series
from repro.experiments.report import FigureData
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.experiments.specs import parse_pattern, parse_topology_routing
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.resilience.drain import DrainController
from repro.resilience.watchdog import StallWatchdog
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.stats.summary import RunResult
from repro.topology.ring import RingTopology
from repro.traffic.trace import Trace, TraceEntry

#: Canonical positive-control parameters (shared with the deadlock
#: regression tests — change them only with the tests).
DEADLOCK_NODES = 8
DEADLOCK_PACKET_FLITS = 4
DEADLOCK_BURST_TIMES = (0, 2, 4)
DEADLOCK_HOPS = 3
DEADLOCK_CYCLES = 20_000
DEADLOCK_STALL_CYCLES = 3_000
DEADLOCK_DETECT_CYCLES = 100
DEADLOCK_SPIN_INTERVAL = 32


def deadlock_trace() -> Trace:
    """The canonical wedge workload: every node sends one 4-flit
    packet ``DEADLOCK_HOPS`` hops clockwise in each of three
    synchronized bursts."""
    return Trace(
        TraceEntry(time=t, src=i, dst=(i + DEADLOCK_HOPS) % DEADLOCK_NODES)
        for t in DEADLOCK_BURST_TIMES
        for i in range(DEADLOCK_NODES)
    )


def build_deadlock_network(
    with_drain: bool, engine=None
) -> Network:
    """The positive-control network: provably wedges without a
    controller, provably completes with one.

    Single VC (no dateline escape), 4-flit packets against a 3-flit
    output queue and 1-flit lanes, minimal-adaptive routing: the
    synchronized clockwise bursts close a cyclic channel dependency
    within ~100 cycles.  A stall watchdog is always attached so the
    no-drain variant terminates with a diagnostic instead of burning
    the full horizon.
    """
    topology = RingTopology(DEADLOCK_NODES)
    network = Network(
        topology,
        MinimalAdaptiveRouting(topology),
        config=NocConfig(
            packet_size_flits=DEADLOCK_PACKET_FLITS,
            num_vcs=1,
            input_buffer_flits=1,
            output_buffer_flits=3,
        ),
        engine=engine,
    )
    network.install_trace(deadlock_trace())
    StallWatchdog(network, stall_cycles=DEADLOCK_STALL_CYCLES)
    if with_drain:
        DrainController(
            network,
            detect_cycles=DEADLOCK_DETECT_CYCLES,
            spin_interval=DEADLOCK_SPIN_INTERVAL,
        )
    return network


def run_deadlock_control(
    with_drain: bool, engine=None
) -> RunResult:
    """Run the positive control once."""
    network = build_deadlock_network(with_drain, engine=engine)
    result = network.run(DEADLOCK_CYCLES)
    network.close()
    return result


#: Sweep columns: scheme name -> the ring8 spec it runs.
SWEEP_SCHEMES = {
    "dateline": "ring8",
    "adaptive": "ring8:adaptive",
    "adaptive+drain": "ring8:adaptive",
}


def drain_study(
    settings: SimulationSettings | None = None,
    rates=(0.05, 0.15, 0.3),
    workers: int = 1,
) -> FigureData:
    """Uniform load sweep on ring8: dateline routing against
    minimal-adaptive routing without and with a
    :class:`DrainController`.

    Every run carries the positive control's stall watchdog.  The
    controller is an observer, which a sweep point cannot carry, so
    the ``adaptive+drain`` runs go through :func:`run_simulation` in
    this process; the others fan out over *workers*.

    Returns:
        ``<scheme>-thr`` and ``<scheme>-lat`` columns per scheme, and
        ``flits_spun``: the flits the controller forced per drain run.
    """
    settings = replace(
        settings or SimulationSettings(),
        stall_cycles=DEADLOCK_STALL_CYCLES,
    )
    runs = sweep_series(
        {
            name: rate_points(spec, "uniform", rates, settings)
            for name, spec in SWEEP_SCHEMES.items()
            if name != "adaptive+drain"
        },
        workers=workers,
    )
    drained = []
    for rate in rates:
        topology, routing = parse_topology_routing(
            SWEEP_SCHEMES["adaptive+drain"]
        )
        drained.append(
            run_simulation(
                topology,
                parse_pattern("uniform", topology),
                rate,
                settings,
                routing=routing,
                observers=(
                    functools.partial(
                        DrainController,
                        detect_cycles=DEADLOCK_DETECT_CYCLES,
                        spin_interval=DEADLOCK_SPIN_INTERVAL,
                    ),
                ),
            )
        )
    runs["adaptive+drain"] = drained
    figure = FigureData(
        "study-drain",
        "Deadlock avoidance vs recovery on ring8, uniform traffic: "
        "throughput (-thr), latency (-lat), forced drain moves",
        "lambda",
        list(rates),
    )
    figure.add_throughput_and_latency(runs)
    figure.add_series(
        "flits_spun", [r.extra["drain"]["flits_spun"] for r in drained]
    )
    figure.notes.append(
        f"stall watchdog at {DEADLOCK_STALL_CYCLES} cycles on every run; "
        f"drain detects after {DEADLOCK_DETECT_CYCLES} quiet cycles"
    )
    return figure
