"""Equal-node-count 2D vs 3D (TSV) stacking study.

The paper compares planar fabrics at equal node count; die stacking
asks the natural follow-on: with the same N routers, does folding the
mesh into layers pay once vertical hops carry a TSV latency penalty?
This study pits the 2D reference (``mesh8x8`` for the default side 4)
against ``mesh3d4x4x4`` and ``torus3d4x4x4`` across TSV penalties
(default 1, 2 and 4 cycles per vertical hop) under one traffic
pattern.

Penalty 1 is the control: the 3D grids then use the uniform link
model byte-for-byte (the regression suite pins this), so any latency
gap against the 2D mesh is pure topology (diameter 14 -> 9 -> 6).
Raising the penalty isolates the TSV cost: every minimal XYZ route
crosses exactly ``|dz|`` vertical links, so zero-load latency grows
by ``(penalty - 1) * E[dz]`` while hop counts stay put.

``python -m repro figures study_mesh3d_uniform`` (and ``_hotspot``,
``_transpose``) regenerates the committed CSVs under ``results/``;
:mod:`repro.experiments.claims` names what they show.
"""

from __future__ import annotations

from repro.analysis.formulas import (
    mesh3d_average_distance,
    mesh3d_diameter,
    mesh3d_num_links,
    mesh_average_distance,
    mesh_diameter,
    mesh_num_links,
    torus3d_average_distance,
    torus3d_diameter,
    torus3d_num_links,
)
from repro.cost.wires import total_wire_length
from repro.experiments.parallel import rate_points, sweep_series
from repro.experiments.report import FigureData
from repro.experiments.runner import SimulationSettings
from repro.experiments.specs import parse_pattern, parse_topology
from repro.topology import (
    MeshTopology,
    Mesh3DTopology,
    Topology,
    Torus3DTopology,
)

#: Default TSV latency penalties swept by the study.
DEFAULT_TSV_LATENCIES = (1, 2, 4)

#: Closed forms (diameter, E[D], link count) per candidate family.
_FORMULAS = {
    MeshTopology: (mesh_diameter, mesh_average_distance, mesh_num_links),
    Mesh3DTopology: (
        mesh3d_diameter, mesh3d_average_distance, mesh3d_num_links
    ),
    Torus3DTopology: (
        torus3d_diameter, torus3d_average_distance, torus3d_num_links
    ),
}


def static_note(topology: Topology) -> str:
    """One candidate's graph-only metrics as a table note."""
    if isinstance(topology, MeshTopology):
        dims, tsv = (topology.rows, topology.cols), ""
    else:
        dims, tsv = topology.sizes, f"tsv {topology.tsv_latency}, "
    diameter, average, links = (
        formula(*dims) for formula in _FORMULAS[type(topology)]
    )
    return (
        f"{topology.name}: {tsv}ND {diameter}, E[D] {average:.3f}, "
        f"links {links}, wire {total_wire_length(topology):.1f}"
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
    pattern: str = "uniform",
    tsv_latencies: tuple[int, ...] = DEFAULT_TSV_LATENCIES,
    rates: tuple[float, ...] = (0.05, 0.15, 0.3, 0.45),
    settings: SimulationSettings | None = None,
    workers: int = 1,
) -> FigureData:
    """Run the 2D-vs-3D equal-node-count comparison under *pattern*.

    Args:
        side: Cube side; the 3D candidates are ``side^3`` nodes and
            the 2D reference is the best factorization of ``side^3``
            (``mesh8x8`` for the default ``side=4``).
        pattern: Traffic spec string, evaluated on every candidate
            (``transpose`` resolves to 2D transpose on the reference
            and the cubic 3D rotation on the candidates).
        tsv_latencies: Vertical-hop penalties to sweep; include 1 to
            keep the uniform-link control in the report.
        rates: Injection-rate sweep.
        settings: Run-length parameters (defaults to the standard
            20k-cycle / 4k-warmup run).
        workers: Worker processes; results are identical for any
            value.

    Returns:
        One ``<spec>-thr`` (accepted flits/cycle) and one
        ``<spec>-lat`` (mean packet latency, cycles) column per
        topology, the 2D reference first.

    Raises:
        ValueError: for ``side < 3`` (the 3D torus needs every
            dimension >= 3), an empty rate sweep, an empty penalty
            list, or a pattern that does not fit a topology
            (``transpose`` on a non-square reference), all before
            any point runs.
    """
    if side < 3:
        raise ValueError(
            f"stacking study needs side >= 3 (torus3d wraparound), "
            f"got {side}"
        )
    if not rates:
        raise ValueError("need at least one injection rate")
    if not tsv_latencies:
        raise ValueError("need at least one TSV latency")
    settings = settings or SimulationSettings()
    num_nodes = side**3
    topologies = [MeshTopology.factorized(num_nodes)] + [
        parse_topology(spec)
        for spec in candidate_specs(side, tuple(tsv_latencies))
    ]
    for topology in topologies:
        try:
            parse_pattern(pattern, topology)
        except ValueError as exc:
            raise ValueError(
                f"pattern {pattern!r} does not fit {topology.name}: {exc}"
            ) from None
    runs = sweep_series(
        {
            topology.name: rate_points(
                topology.name, pattern, rates, settings
            )
            for topology in topologies
        },
        workers=workers,
    )
    figure = FigureData(
        "study-mesh3d",
        f"2D vs 3D at N={num_nodes}, {pattern} traffic: throughput "
        f"(-thr) and latency (-lat)",
        "lambda",
        list(rates),
    )
    figure.add_throughput_and_latency(runs)
    figure.notes.extend(map(static_note, topologies))
    figure.notes.append(
        "TSV penalty applies to vertical links only; penalty 1 "
        "equals the uniform-link model exactly"
    )
    return figure
