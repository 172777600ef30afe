"""Equal-node-count 2D vs 3D (TSV) stacking study.

The paper compares planar fabrics at equal node count; die stacking
asks the natural follow-on: with the same N routers, does folding the
mesh into layers pay once vertical hops carry a TSV latency penalty?
This campaign pits the 2D reference (``mesh8x8`` for the default
side 4) against ``mesh3d4x4x4`` and ``torus3d4x4x4`` across TSV
penalties (default 1, 2 and 4 cycles per vertical hop) under uniform,
hot-spot and transpose traffic.

Penalty 1 is the control: the 3D grids then use the uniform link
model byte-for-byte (the regression suite pins this), so any latency
gap against the 2D mesh is pure topology (diameter 14 -> 9 -> 6).
Raising the penalty isolates the TSV cost: every minimal XYZ route
crosses exactly ``|dz|`` vertical links, so zero-load latency grows
by ``(penalty - 1) * E[dz]`` while hop counts, and therefore
saturation behaviour, stay put.

``python -m repro mesh3d`` runs it from the command line
(``--smoke`` for the abbreviated CI variant); measured outcomes are
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.formulas import (
    mesh3d_average_distance,
    mesh3d_diameter,
    mesh3d_num_links,
    mesh3d_num_tsv_links,
    mesh_average_distance,
    mesh_diameter,
    mesh_num_links,
    torus3d_average_distance,
    torus3d_diameter,
    torus3d_num_links,
    torus3d_num_tsv_links,
)
from repro.cost.wires import total_wire_length
from repro.experiments.parallel import rate_points, sweep_series
from repro.experiments.report import FigureData
from repro.experiments.runner import SimulationSettings
from repro.experiments.specs import parse_pattern, parse_topology
from repro.topology import MeshTopology, Topology

#: Default TSV latency penalties swept by the study.
DEFAULT_TSV_LATENCIES = (1, 2, 4)

#: Default traffic scenarios (the paper's two plus transpose, which
#: exercises every dimension-order stage).
DEFAULT_PATTERNS = ("uniform", "hotspot:0", "transpose")


@dataclass(slots=True)
class TrafficMetrics:
    """One candidate's behaviour under one traffic pattern."""

    pattern: str
    #: Mean packet latency at the reference (low) injection rate.
    latency: float
    #: Accepted throughput at the saturating (high) injection rate.
    saturation_throughput: float
    #: Accepted throughput per rate, aligned with the study's rates.
    throughput_curve: list[float] = field(default_factory=list)


@dataclass(slots=True)
class StackingCandidate:
    """One topology's static metrics and per-pattern behaviour."""

    spec: str
    tsv_latency: int | None  # None for the 2D reference
    diameter: int
    average_distance: float
    num_links: int
    num_tsv_links: int
    wire_length: float
    traffic: dict[str, TrafficMetrics] = field(default_factory=dict)

    @property
    def is_reference(self) -> bool:
        return self.tsv_latency is None


@dataclass(slots=True)
class StackingStudy:
    """Outcome of one equal-node-count 2D vs 3D sweep."""

    side: int
    num_nodes: int
    patterns: tuple[str, ...]
    tsv_latencies: tuple[int, ...]
    rates: tuple[float, ...]
    reference: StackingCandidate
    candidates: list[StackingCandidate]
    #: One throughput figure per traffic pattern.
    figures: list[FigureData]


def _static_metrics(topology: Topology) -> StackingCandidate:
    from repro.topology import Mesh3DTopology, Torus3DTopology

    if isinstance(topology, Torus3DTopology):
        dims = topology.sizes
        return StackingCandidate(
            spec=topology.name,
            tsv_latency=topology.tsv_latency,
            diameter=torus3d_diameter(*dims),
            average_distance=torus3d_average_distance(*dims),
            num_links=torus3d_num_links(*dims),
            num_tsv_links=torus3d_num_tsv_links(*dims),
            wire_length=total_wire_length(topology),
        )
    if isinstance(topology, Mesh3DTopology):
        dims = topology.sizes
        return StackingCandidate(
            spec=topology.name,
            tsv_latency=topology.tsv_latency,
            diameter=mesh3d_diameter(*dims),
            average_distance=mesh3d_average_distance(*dims),
            num_links=mesh3d_num_links(*dims),
            num_tsv_links=mesh3d_num_tsv_links(*dims),
            wire_length=total_wire_length(topology),
        )
    assert isinstance(topology, MeshTopology)
    return StackingCandidate(
        spec=topology.name,
        tsv_latency=None,
        diameter=mesh_diameter(topology.rows, topology.cols),
        average_distance=mesh_average_distance(
            topology.rows, topology.cols
        ),
        num_links=mesh_num_links(topology.rows, topology.cols),
        num_tsv_links=0,
        wire_length=total_wire_length(topology),
    )


def candidate_specs(
    side: int, tsv_latencies: tuple[int, ...]
) -> list[str]:
    """The 3D specs the study evaluates, in report order."""
    specs = []
    for family in ("mesh3d", "torus3d"):
        for latency in tsv_latencies:
            suffix = f"@tsv{latency}" if latency > 1 else ""
            specs.append(f"{family}{side}x{side}x{side}{suffix}")
    return specs


def stacking_study(
    side: int = 4,
    patterns: tuple[str, ...] = DEFAULT_PATTERNS,
    tsv_latencies: tuple[int, ...] = DEFAULT_TSV_LATENCIES,
    rates: tuple[float, ...] = (0.05, 0.15, 0.3, 0.45),
    settings: SimulationSettings | None = None,
    workers: int = 1,
) -> StackingStudy:
    """Run the 2D-vs-3D equal-node-count comparison.

    Args:
        side: Cube side; the 3D candidates are ``side^3`` nodes and
            the 2D reference is the best factorization of ``side^3``
            (``mesh8x8`` for the default ``side=4``).
        patterns: Traffic spec strings, each evaluated on every
            candidate (``transpose`` resolves to 2D transpose on the
            reference and the cubic 3D rotation on the candidates).
        tsv_latencies: Vertical-hop penalties to sweep; include 1 to
            keep the uniform-link control in the report.
        rates: Sweep; ``rates[0]`` is the latency reference point and
            ``rates[-1]`` the saturation point.
        settings: Run-length parameters (defaults to the standard
            20k-cycle / 4k-warmup run).
        workers: Worker processes; results are identical for any
            value.

    Raises:
        ValueError: for ``side < 3`` (the 3D torus needs every
            dimension >= 3), an empty rate sweep, an empty
            pattern/penalty list, or a pattern that does not fit a
            topology (``transpose`` on a non-square reference), all
            before any point runs.
    """
    if side < 3:
        raise ValueError(
            f"stacking study needs side >= 3 (torus3d wraparound), "
            f"got {side}"
        )
    if not rates:
        raise ValueError("need at least one injection rate")
    if not patterns:
        raise ValueError("need at least one traffic pattern")
    if not tsv_latencies:
        raise ValueError("need at least one TSV latency")
    settings = settings or SimulationSettings()
    rates = tuple(rates)
    patterns = tuple(patterns)
    tsv_latencies = tuple(tsv_latencies)
    num_nodes = side**3

    topologies = [MeshTopology.factorized(num_nodes)] + [
        parse_topology(spec)
        for spec in candidate_specs(side, tsv_latencies)
    ]
    for topology in topologies:
        for pattern in patterns:
            try:
                parse_pattern(pattern, topology)
            except ValueError as exc:
                raise ValueError(
                    f"pattern {pattern!r} does not fit {topology.name}: "
                    f"{exc}"
                ) from None
    reference, *candidates = map(_static_metrics, topologies)
    everyone = [reference, *candidates]
    runs = sweep_series(
        {
            (index, pattern): rate_points(
                candidate.spec, pattern, rates, settings
            )
            for index, candidate in enumerate(everyone)
            for pattern in patterns
        },
        workers=workers,
    )
    for (index, pattern), results in runs.items():
        curve = [r.throughput for r in results]
        everyone[index].traffic[pattern] = TrafficMetrics(
            pattern, results[0].avg_latency, curve[-1], curve
        )

    figures = []
    for pattern in patterns:
        figure = FigureData(
            "ext-mesh3d",
            f"Accepted throughput, 2D vs 3D at N={num_nodes} "
            f"({pattern} traffic)",
            "rate",
            list(rates),
        )
        figure.add_series(
            reference.spec,
            list(reference.traffic[pattern].throughput_curve),
        )
        for candidate in candidates:
            figure.add_series(
                candidate.spec,
                list(candidate.traffic[pattern].throughput_curve),
            )
        figure.notes.append(
            "TSV penalty applies to vertical links only; penalty 1 "
            "equals the uniform-link model exactly"
        )
        figures.append(figure)

    return StackingStudy(
        side=side,
        num_nodes=num_nodes,
        patterns=patterns,
        tsv_latencies=tsv_latencies,
        rates=rates,
        reference=reference,
        candidates=candidates,
        figures=figures,
    )


def format_study(study: StackingStudy) -> str:
    """Render the study as an aligned text report."""
    lines = [
        f"== 2D vs 3D stacking study: N={study.num_nodes}, "
        f"TSV penalties {list(study.tsv_latencies)}, "
        f"rates {list(study.rates)} =="
    ]
    low = format(study.rates[0], "g")
    high = format(study.rates[-1], "g")
    for pattern in study.patterns:
        lines.append(f"-- {pattern} traffic --")
        lines.append(
            f"{'spec':<20} {'tsv':>3} {'ND':>3} {'E[D]':>6} "
            f"{'links':>5} {'wire':>7} {'lat@' + low:>9} "
            f"{'thr@' + high:>9}"
        )
        for candidate in [study.reference, *study.candidates]:
            metrics = candidate.traffic[pattern]
            tsv = (
                "-"
                if candidate.tsv_latency is None
                else candidate.tsv_latency
            )
            lines.append(
                f"{candidate.spec:<20} {tsv:>3} {candidate.diameter:>3} "
                f"{candidate.average_distance:>6.3f} "
                f"{candidate.num_links:>5} {candidate.wire_length:>7.2f} "
                f"{metrics.latency:>9.2f} "
                f"{metrics.saturation_throughput:>9.4f}"
            )
    return "\n".join(lines)


def main(rest: list[str]) -> int:
    """CLI entry: ``python -m repro mesh3d [options]``."""
    import argparse

    from repro.experiments.report import format_table

    parser = argparse.ArgumentParser(
        prog="python -m repro mesh3d",
        description="Equal-node-count comparison of the 2D mesh "
        "against 3D mesh/torus stacks across TSV latency penalties.",
    )
    parser.add_argument(
        "side",
        nargs="?",
        type=int,
        default=4,
        help="cube side; candidates are side^3 nodes (default 4)",
    )
    parser.add_argument(
        "--patterns",
        default=",".join(DEFAULT_PATTERNS),
        help="comma-separated traffic specs",
    )
    parser.add_argument(
        "--tsv",
        default=",".join(str(t) for t in DEFAULT_TSV_LATENCIES),
        help="comma-separated TSV latency penalties",
    )
    parser.add_argument(
        "--rates",
        default="0.05,0.15,0.3,0.45",
        help="comma-separated injection-rate sweep",
    )
    parser.add_argument(
        "--cycles", type=int, default=20_000, help="run length"
    )
    parser.add_argument(
        "--warmup", type=int, default=4_000, help="warmup cycles"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="abbreviated CI variant: short runs, penalties 1 and 4, "
        "one rate, uniform + transpose traffic",
    )
    try:
        args = parser.parse_args(rest)
        rates = tuple(float(r) for r in args.rates.split(",") if r)
        tsv_latencies = tuple(
            int(t) for t in args.tsv.split(",") if t
        )
        patterns = tuple(p for p in args.patterns.split(",") if p)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError:
        print("error: bad --rates or --tsv value")
        return 2
    if args.smoke:
        rates = (0.1,)
        tsv_latencies = (1, 4)
        patterns = ("uniform", "transpose")
        args.cycles, args.warmup = 1_500, 300
    try:
        study = stacking_study(
            args.side,
            patterns=patterns,
            tsv_latencies=tsv_latencies,
            rates=rates,
            settings=SimulationSettings(
                cycles=args.cycles, warmup=args.warmup, seed=args.seed
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(format_study(study))
    for figure in study.figures:
        print()
        print(format_table(figure))
    return 0
