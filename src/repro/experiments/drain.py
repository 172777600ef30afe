"""Deadlock avoidance vs recovery: the drain study.

The paper's fabrics never deadlock by construction — dateline VC
disciplines on Ring/Spidergon and dimension-order turn restriction on
the mesh (docs/deadlock.md).  That guarantee is paid for up front, in
VCs and routing freedom.  The adaptive algorithms of
:mod:`repro.routing.adaptive` drop it (``deadlock_free = False``) and
pair with the DRAIN-style
:class:`~repro.resilience.drain.DrainController` instead, which costs
nothing until a deadlock actually forms.  This study measures both
sides of that trade:

* **Positive control** — a deterministic wormhole deadlock on an
  8-ring: single VC, 4-flit packets, and three synchronized
  all-nodes bursts to ``(i + 3) % 8``.  Without recovery the cycle
  wedges with zero packets delivered and the stall watchdog truncates
  the run; with a :class:`DrainController` attached every packet is
  delivered, byte-identically across repeats.  The packet length
  matters: 4-flit worms wedge with each head parked one hop beyond
  its queued tail flits, which is exactly the owner-free shape the
  drain rotation can break (see :mod:`repro.resilience.drain` on the
  recovery bound).

* **Load sweep** — uniform traffic on the same ring comparing the
  paper's dateline routing against minimal-adaptive with and without
  a controller.  At sane loads the adaptive network never wedges, so
  the controller's detection timer stays idle and the measured
  results with and without it are identical — recovery is free until
  needed, which is the argument for recovery over avoidance.

``python -m repro drain`` runs it from the command line (``--smoke``
for the abbreviated CI variant); measured outcomes are recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.routing import routing_for
from repro.resilience.drain import DrainController
from repro.resilience.watchdog import StallWatchdog
from repro.experiments.specs import parse_pattern
from repro.stats.summary import RunResult
from repro.topology.ring import RingTopology
from repro.traffic.base import TrafficSpec
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


@dataclass(slots=True)
class SweepPoint:
    """One injection rate of the avoidance-vs-recovery sweep."""

    rate: float
    #: scheme name -> (throughput, avg latency or None, degraded).
    schemes: dict
    #: Drain summary of the controller-attached adaptive run.
    drain: dict

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "schemes": {
                name: {
                    "throughput": throughput,
                    "avg_latency": latency,
                    "degraded": degraded,
                }
                for name, (throughput, latency, degraded)
                in self.schemes.items()
            },
            "drain": self.drain,
        }


@dataclass(slots=True)
class DrainStudy:
    """Everything ``python -m repro drain`` measures."""

    control_without: RunResult
    control_with: RunResult
    sweep: list
    cycles: int
    warmup: int

    @property
    def control_packets(self) -> int:
        return len(DEADLOCK_BURST_TIMES) * DEADLOCK_NODES


SWEEP_SCHEMES = ("dateline", "adaptive", "adaptive+drain")


def drain_study(
    rates=(0.05, 0.15, 0.3),
    cycles: int = 10_000,
    warmup: int = 2_000,
    seed: int = 1,
) -> DrainStudy:
    """Run the positive control and the load sweep."""
    sweep = []
    for rate in rates:
        schemes: dict = {}
        drain_summary: dict = {}
        for name in SWEEP_SCHEMES:
            topology = RingTopology(DEADLOCK_NODES)
            routing = (
                routing_for(topology)
                if name == "dateline"
                else MinimalAdaptiveRouting(topology)
            )
            network = Network(
                topology,
                routing,
                traffic=TrafficSpec(
                    parse_pattern("uniform", topology), rate
                ),
                seed=seed,
            )
            StallWatchdog(
                network, stall_cycles=DEADLOCK_STALL_CYCLES
            )
            if name == "adaptive+drain":
                controller = DrainController(
                    network,
                    detect_cycles=DEADLOCK_DETECT_CYCLES,
                    spin_interval=DEADLOCK_SPIN_INTERVAL,
                )
            result = network.run(cycles, warmup=warmup)
            schemes[name] = (
                result.throughput,
                result.avg_latency,
                result.degraded,
            )
            if name == "adaptive+drain":
                drain_summary = controller.summary()
            network.close()
        sweep.append(
            SweepPoint(rate=rate, schemes=schemes, drain=drain_summary)
        )
    return DrainStudy(
        control_without=run_deadlock_control(False),
        control_with=run_deadlock_control(True),
        sweep=sweep,
        cycles=cycles,
        warmup=warmup,
    )


def format_study(study: DrainStudy) -> str:
    """Render the study as an aligned text report."""
    total = study.control_packets
    without, with_drain = study.control_without, study.control_with
    drain = with_drain.extra.get("drain", {})
    lines = [
        "== Deadlock recovery study: avoidance vs DRAIN-style drain ==",
        "",
        "-- positive control: ring8, 1 VC, 4-flit packets, 3 "
        "synchronized bursts --",
        f"without drain: degraded={without.degraded} "
        f"delivered={without.packets_delivered}/{total} "
        f"(stall watchdog truncated the run)",
        f"with drain:    degraded={with_drain.degraded} "
        f"delivered={with_drain.packets_delivered}/{total} "
        f"avg_latency={with_drain.avg_latency:.1f} "
        f"(detections={drain.get('stall_detections')}, "
        f"epochs={drain.get('epochs')}, "
        f"flits_spun={drain.get('flits_spun')}, "
        f"recoveries={drain.get('recoveries')})",
        "",
        f"-- uniform sweep: ring8, {study.cycles} cycles, "
        f"{study.warmup} warmup --",
        f"{'rate':>6}  "
        + "  ".join(
            f"{name + ' thr':>16} {'lat':>8}" for name in SWEEP_SCHEMES
        )
        + f"  {'drain activity':>14}",
    ]
    for point in study.sweep:
        cells = []
        for name in SWEEP_SCHEMES:
            throughput, latency, degraded = point.schemes[name]
            lat = f"{latency:.2f}" if latency is not None else "-"
            flag = "!" if degraded else ""
            cells.append(f"{throughput:>16.4f}{flag} {lat:>8}")
        activity = (
            f"{point.drain.get('stall_detections', 0)} det/"
            f"{point.drain.get('flits_spun', 0)} spun"
        )
        lines.append(
            f"{point.rate:>6.3g}  " + "  ".join(cells)
            + f"  {activity:>14}"
        )
    idle = all(
        point.drain.get("flits_spun", 0) == 0 for point in study.sweep
    )
    agree = all(
        point.schemes["adaptive"] == point.schemes["adaptive+drain"]
        for point in study.sweep
    )
    if idle:
        lines.append(
            "drain controller stayed idle at every swept load"
            + (
                " and left the adaptive results untouched"
                if agree
                else ""
            )
            + " — recovery costs nothing until a deadlock forms"
        )
    return "\n".join(lines)


def main(rest: list[str]) -> int:
    """CLI entry: ``python -m repro drain [options]``."""
    import argparse
    import json
    import pathlib

    parser = argparse.ArgumentParser(
        prog="python -m repro drain",
        description="Deadlock avoidance vs DRAIN-style recovery: a "
        "deterministic wormhole-deadlock positive control (wedges "
        "without the controller, completes with it) plus a uniform "
        "load sweep of dateline vs adaptive routing.",
    )
    parser.add_argument(
        "--rates",
        default="0.05,0.15,0.3",
        help="comma-separated injection-rate sweep",
    )
    parser.add_argument(
        "--cycles", type=int, default=10_000, help="sweep run length"
    )
    parser.add_argument(
        "--warmup", type=int, default=2_000, help="sweep warmup cycles"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also dump the study as JSON here",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="abbreviated CI variant: one rate, short sweep runs "
        "(the positive control always runs in full)",
    )
    try:
        args = parser.parse_args(rest)
        rates = tuple(float(r) for r in args.rates.split(",") if r)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError:
        print("error: bad --rates value")
        return 2
    if args.smoke:
        rates = (0.1,)
        args.cycles, args.warmup = 2_000, 400
    if args.cycles < 1 or not 0 <= args.warmup < args.cycles:
        print("error: need cycles >= 1 and 0 <= warmup < cycles")
        return 2
    study = drain_study(
        rates=rates,
        cycles=args.cycles,
        warmup=args.warmup,
        seed=args.seed,
    )
    print(format_study(study))
    if args.json is not None:
        drain = study.control_with.extra.get("drain", {})
        payload = {
            "control": {
                "packets": study.control_packets,
                "without_drain": {
                    "degraded": study.control_without.degraded,
                    "delivered": (
                        study.control_without.packets_delivered
                    ),
                },
                "with_drain": {
                    "degraded": study.control_with.degraded,
                    "delivered": study.control_with.packets_delivered,
                    "drain": drain,
                },
            },
            "sweep": [point.to_dict() for point in study.sweep],
        }
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"full study -> {args.json}")
    ok = (
        study.control_without.degraded
        and study.control_without.packets_delivered == 0
        and not study.control_with.degraded
        and study.control_with.packets_delivered
        == study.control_packets
    )
    return 0 if ok else 1
