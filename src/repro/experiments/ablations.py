"""Ablation studies for the design choices DESIGN.md calls out.

Each function returns a :class:`~repro.experiments.report.FigureData`
like the paper-figure generators; the committed ``results/ablation_*``
CSVs and the claims checked on them
(:mod:`repro.experiments.claims`) come from
:data:`repro.experiments.figures.ARTEFACTS`.

* :func:`ablation_output_buffer_depth` — the paper reports that
  "small buffer tuning ha[s] some marginal impact on the peak
  performances"; this sweep quantifies it.
* :func:`ablation_virtual_channels` — removing the second output
  queue from the ring-based topologies removes the dateline escape
  class; under uniform load the ring then deadlocks (throughput
  collapse), demonstrating why the paper provisions a pair.
* :func:`ablation_spidergon_routing` — across-first vs table-driven
  shortest-path routing on the Spidergon (across-first is itself
  minimal, so the delta isolates the VC discipline and tie-breaking).
* :func:`ablation_packet_size` — sensitivity to the 6-flit packet
  assumption.
* :func:`ablation_mesh_policy` — factorized vs irregular "real mesh"
  construction, analytically.

Run from the command line::

    python -m repro figures ablation_buffers --quick
"""

from __future__ import annotations

import dataclasses

from repro.experiments.parallel import (
    execute_points,
    rate_points,
    sweep_series,
)
from repro.experiments.report import FigureData
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.experiments.specs import paper_topology_specs, parse_topology
from repro.topology import MeshTopology, average_distance, diameter


def _with_config(
    settings: SimulationSettings, **overrides
) -> SimulationSettings:
    config = dataclasses.replace(settings.config, **overrides)
    return dataclasses.replace(settings, config=config)


def ablation_output_buffer_depth(
    settings: SimulationSettings | None = None,
    depths=(1, 2, 3, 4, 6, 8),
    num_nodes: int = 16,
    injection_rate: float = 0.45,
    workers: int = 1,
) -> FigureData:
    """Saturation throughput vs output-queue depth (paper: 3 flits)."""
    settings = settings or SimulationSettings()
    figure = FigureData(
        "ablation-buffers",
        f"Uniform-traffic throughput vs output buffer depth "
        f"(N={num_nodes}, lambda={injection_rate})",
        "depth",
        list(depths),
    )
    series = {
        parse_topology(spec).name: [
            SweepPoint(
                spec,
                "uniform",
                injection_rate,
                _with_config(settings, output_buffer_flits=depth),
            )
            for depth in depths
        ]
        for spec in paper_topology_specs(num_nodes)
    }
    figure.add_result_series(sweep_series(series, workers=workers))
    figure.notes.append("paper default depth is 3 flits")
    return figure


def ablation_virtual_channels(
    settings: SimulationSettings | None = None,
    num_nodes: int = 16,
    rates=(0.1, 0.2, 0.4),
    workers: int = 1,
) -> FigureData:
    """One vs two output queues on Ring and Spidergon.

    With a single VC the dateline discipline cannot operate (every
    packet is forced onto queue 0) and the ring's channel dependency
    cycle is complete: sustained uniform load deadlocks, visible as a
    throughput collapse relative to the 2-VC configuration.
    """
    settings = settings or SimulationSettings()
    figure = FigureData(
        "ablation-vcs",
        f"Throughput with 1 vs 2 virtual channels (N={num_nodes}, "
        "uniform traffic)",
        "lambda",
        list(rates),
    )
    series = {
        f"{spec}-{num_vcs}vc": rate_points(
            spec, "uniform", rates, _with_config(settings, num_vcs=num_vcs)
        )
        for spec in (f"ring{num_nodes}", f"spidergon{num_nodes}")
        for num_vcs in (2, 1)
    }
    figure.add_result_series(sweep_series(series, workers=workers))
    figure.notes.append(
        "1-VC rings can deadlock under wormhole: collapsed throughput "
        "is the expected signature, not a bug"
    )
    return figure


def ablation_spidergon_routing(
    settings: SimulationSettings | None = None,
    num_nodes: int = 16,
    rates=(0.1, 0.25, 0.4, 0.6),
    workers: int = 1,
) -> FigureData:
    """Across-first vs table-driven shortest paths on the Spidergon."""
    settings = settings or SimulationSettings()
    figure = FigureData(
        "ablation-spidergon-routing",
        f"Spidergon{num_nodes} throughput: across-first vs "
        "table-driven shortest path (uniform traffic)",
        "lambda",
        list(rates),
    )
    spec = f"spidergon{num_nodes}"
    series = {
        "across-first": rate_points(spec, "uniform", rates, settings),
        "table": rate_points(f"{spec}:table", "uniform", rates, settings),
    }
    figure.add_result_series(sweep_series(series, workers=workers))
    figure.notes.append(
        "table routing runs with a single VC and no dateline: "
        "high-load collapse reflects lost deadlock protection"
    )
    return figure


def ablation_packet_size(
    settings: SimulationSettings | None = None,
    sizes=(2, 4, 6, 10, 16),
    num_nodes: int = 16,
    injection_rate: float = 0.3,
    workers: int = 1,
) -> FigureData:
    """Throughput and latency vs packet length (paper: 6 flits).

    The injection rate is held in flits/cycle, so offered load is
    constant across sizes; longer packets stress wormhole path
    holding.
    """
    settings = settings or SimulationSettings()
    figure = FigureData(
        "ablation-packet-size",
        f"Spidergon{num_nodes} uniform traffic vs packet size "
        f"(lambda={injection_rate} flits/cycle)",
        "flits/packet",
        list(sizes),
    )
    points = [
        SweepPoint(
            f"spidergon{num_nodes}",
            "uniform",
            injection_rate,
            _with_config(settings, packet_size_flits=size),
        )
        for size in sizes
    ]
    results, _ = execute_points(points, workers=workers)
    figure.add_series("throughput", [r.throughput for r in results])
    figure.add_series("latency", [r.avg_latency for r in results])
    return figure


def ablation_mesh_policy(
    min_nodes: int = 4, max_nodes: int = 64
) -> FigureData:
    """Factorized vs irregular real-mesh construction, analytically."""
    node_counts = [
        n for n in range(min_nodes, max_nodes + 1) if n % 2 == 0
    ]
    figure = FigureData(
        "ablation-mesh-policy",
        "Real-mesh construction policies: diameter and E[D]",
        "N",
        list(node_counts),
    )
    fact_nd: list[float | None] = []
    irr_nd: list[float | None] = []
    fact_ed: list[float | None] = []
    irr_ed: list[float | None] = []
    for n in node_counts:
        factorized = MeshTopology.factorized(n)
        irregular = MeshTopology.irregular(n)
        fact_nd.append(diameter(factorized))
        irr_nd.append(diameter(irregular))
        fact_ed.append(average_distance(factorized))
        irr_ed.append(average_distance(irregular))
    figure.add_series("factorized-ND", fact_nd)
    figure.add_series("irregular-ND", irr_nd)
    figure.add_series("factorized-E[D]", fact_ed)
    figure.add_series("irregular-E[D]", irr_ed)
    return figure
