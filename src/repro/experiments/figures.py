"""One generator per paper figure.

Every public ``figure*`` function regenerates the data behind the
corresponding figure of the paper and returns a
:class:`~repro.experiments.report.FigureData`.  Absolute values depend
on the simulator's timing details; the *shapes* (rankings, crossovers,
saturation knees) are the reproduction targets — see EXPERIMENTS.md
for the paper-vs-measured comparison.

The :data:`ARTEFACTS` table names every committed CSV under
``results/``: the figures, the ablations, three extensions and the
studies.  One command regenerates, writes and checks them all::

    python -m repro figures fig10                  # print one table
    python -m repro figures fig10 --quick          # ~10x faster
    python -m repro figures all --csv results      # rewrite every CSV
    python -m repro figures all --csv results --check

``--check`` compares each regenerated CSV byte for byte with the
committed one and evaluates the paper's claims on it
(:mod:`repro.experiments.claims`).
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import sys

from repro.analysis import figures as analytical
from repro.experiments.parallel import (
    execute_points,
    rate_points,
    sweep_series,
)
from repro.experiments.report import FigureData, format_table, to_csv
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.experiments.specs import paper_topology_specs, parse_topology
from repro.noc.config import NocConfig
from repro.topology import MeshTopology, average_distance
from repro.traffic import double_hotspot_targets

#: Injection-rate grid (flits/cycle/source) for hot-spot scenarios —
#: with a single consuming destination the interesting range ends
#: early (N sources saturate one 1-flit/cycle sink at rate ~1/N).
HOTSPOT_RATES = [0.01, 0.02, 0.04, 0.06, 0.1, 0.15, 0.25, 0.4]

#: Injection-rate grid for the homogeneous scenario, bracketing the
#: paper's lambda = 0.3 flits/cycle crossover.
UNIFORM_RATES = [0.05, 0.1, 0.2, 0.3, 0.45, 0.7]

#: Network sizes used in the simulation figures (the paper simulates
#: 2x4=8 and 4x6=24 meshes; 8..32 for the validation figure).
SIM_NODE_COUNTS = (8, 24)
VALIDATION_NODE_COUNTS = (8, 12, 16, 24, 32)
UNIFORM_NODE_COUNTS = (8, 16, 24, 32)


def _from_series(
    figure_id: str,
    title: str,
    series_list,
    x_label: str = "N",
) -> FigureData:
    x_values = [n for n, _ in series_list[0].points]
    figure = FigureData(figure_id, title, x_label, list(x_values))
    for series in series_list:
        by_n = dict(series.points)
        figure.add_series(
            series.label, [by_n.get(n) for n in x_values]
        )
    return figure


# -- analytical figures -------------------------------------------------


def figure2(min_nodes: int = 4, max_nodes: int = 64) -> FigureData:
    """Figure 2: network diameter ND vs number of nodes."""
    figure = _from_series(
        "fig2",
        "Network diameter ND vs N (Ring, ideal/real/irregular 2D "
        "Mesh, Spidergon)",
        analytical.figure2_diameter_series(min_nodes, max_nodes),
    )
    figure.notes.append(
        "real-mesh = best balanced factorization of N; "
        "irregular-mesh = partially filled near-square grid"
    )
    return figure


def figure3(min_nodes: int = 4, max_nodes: int = 64) -> FigureData:
    """Figure 3: average network distance E[D] vs number of nodes."""
    figure = _from_series(
        "fig3",
        "Average network distance E[D] vs N (Ring, ideal/real/"
        "irregular 2D Mesh, Spidergon)",
        analytical.figure3_average_distance_series(min_nodes, max_nodes),
    )
    figure.notes.append(
        "E[D] uses the paper's sum/N convention (self-pairs in the "
        "denominator)"
    )
    return figure


# -- simulation figures ---------------------------------------------------


def figure5(
    settings: SimulationSettings | None = None,
    node_counts=VALIDATION_NODE_COUNTS,
    injection_rate: float = 0.05,
    workers: int = 1,
) -> FigureData:
    """Figure 5: analytical vs simulation-based average distance.

    Uniform traffic at low load; the simulated value is the mean hop
    count of delivered packets.  The analytical reference here is the
    exact mean over *distinct* node pairs, because simulated packets
    never target their own source.
    """
    settings = settings or SimulationSettings()
    figure = FigureData(
        "fig5",
        "Analytical vs simulated average network distance (hops)",
        "N",
        list(node_counts),
    )
    labels = ("ring", "spidergon", "mesh")
    analytic: dict[str, list[float | None]] = {k: [] for k in labels}
    simulated: dict[str, list[float | None]] = {k: [] for k in labels}
    points = []
    for n in node_counts:
        for label, spec in zip(labels, paper_topology_specs(n)):
            analytic[label].append(
                average_distance(
                    parse_topology(spec), include_self=False
                )
            )
            points.append(
                SweepPoint(
                    spec, "uniform", float(injection_rate), settings
                )
            )
    results, _ = execute_points(points, workers=workers)
    for index, result in enumerate(results):
        simulated[labels[index % len(labels)]].append(result.avg_hops)
    for label in labels:
        figure.add_series(f"{label}-analytic", analytic[label])
        figure.add_series(f"{label}-sim", simulated[label])
    figure.notes.append(
        f"uniform traffic at {injection_rate} flits/cycle/node "
        "(low load); analytic = exact mean over distinct pairs"
    )
    return figure


def _hotspot_figure(
    figure_id: str,
    metric: str,
    settings: SimulationSettings,
    node_counts,
    rates,
    num_hotspots: int,
    scenarios: dict[str, str] | None = None,
    workers: int = 1,
) -> FigureData:
    """Shared machinery of figures 6-9.

    *metric* is ``"throughput"`` (flits/cycle) or ``"latency"``
    (mean cycles).  For two hot-spots, *scenarios* maps topology kind
    ("mesh" or "ringlike") to placement labels.
    """
    title_metric = (
        "throughput (flits/cycle)"
        if metric == "throughput"
        else "average latency (cycles)"
    )
    plural = "two hot-spot destinations" if num_hotspots == 2 else (
        "one hot-spot destination"
    )
    figure = FigureData(
        figure_id,
        f"NoC {title_metric}, {plural}",
        "lambda",
        list(rates),
    )
    series: dict[str, list[SweepPoint]] = {}
    for n in node_counts:
        for topo_spec in paper_topology_specs(n):
            topology = parse_topology(topo_spec)
            is_mesh = isinstance(topology, MeshTopology)
            if num_hotspots == 1:
                placements = {"": [0]}
            else:
                assert scenarios is not None
                kind = "mesh" if is_mesh else "ringlike"
                placements = {
                    f"-{label}": double_hotspot_targets(topology, label)
                    for label in scenarios[kind]
                }
            for suffix, targets in placements.items():
                pattern_spec = "hotspot:" + ",".join(
                    str(t) for t in targets
                )
                series[f"{topology.name}{suffix}"] = rate_points(
                    topo_spec, pattern_spec, rates, settings
                )
    figure.add_result_series(
        sweep_series(series, workers=workers),
        "throughput" if metric == "throughput" else "avg_latency",
    )
    figure.notes.append(
        "lambda = injection rate per source (flits/cycle); hot-spot "
        "targets are pure sinks"
    )
    return figure


def figure6(
    settings: SimulationSettings | None = None,
    node_counts=SIM_NODE_COUNTS,
    rates=HOTSPOT_RATES,
    workers: int = 1,
) -> FigureData:
    """Figure 6: throughput vs injection rate, one hot-spot target."""
    return _hotspot_figure(
        "fig6",
        "throughput",
        settings or SimulationSettings(),
        node_counts,
        rates,
        num_hotspots=1,
        workers=workers,
    )


def figure7(
    settings: SimulationSettings | None = None,
    node_counts=SIM_NODE_COUNTS,
    rates=HOTSPOT_RATES,
    workers: int = 1,
) -> FigureData:
    """Figure 7: latency vs injection rate, one hot-spot target."""
    return _hotspot_figure(
        "fig7",
        "latency",
        settings or SimulationSettings(),
        node_counts,
        rates,
        num_hotspots=1,
        workers=workers,
    )


_DOUBLE_SCENARIOS = {"mesh": "ABC", "ringlike": "AB"}


def figure8(
    settings: SimulationSettings | None = None,
    node_counts=SIM_NODE_COUNTS,
    rates=HOTSPOT_RATES,
    workers: int = 1,
) -> FigureData:
    """Figure 8: throughput vs injection rate, two hot-spot targets.

    Placements follow the paper: mesh A = opposite corners, B =
    corner + middle, C = two middle nodes; ring/spidergon A =
    North/South opposition, B = North/West.
    """
    return _hotspot_figure(
        "fig8",
        "throughput",
        settings or SimulationSettings(),
        node_counts,
        rates,
        num_hotspots=2,
        scenarios=_DOUBLE_SCENARIOS,
        workers=workers,
    )


def figure9(
    settings: SimulationSettings | None = None,
    node_counts=SIM_NODE_COUNTS,
    rates=HOTSPOT_RATES,
    workers: int = 1,
) -> FigureData:
    """Figure 9: latency vs injection rate, two hot-spot targets."""
    return _hotspot_figure(
        "fig9",
        "latency",
        settings or SimulationSettings(),
        node_counts,
        rates,
        num_hotspots=2,
        scenarios=_DOUBLE_SCENARIOS,
        workers=workers,
    )


def _uniform_figure(
    figure_id: str,
    metric: str,
    settings: SimulationSettings,
    node_counts,
    rates,
    workers: int = 1,
) -> FigureData:
    title_metric = (
        "throughput (flits/cycle)"
        if metric == "throughput"
        else "average latency (cycles)"
    )
    figure = FigureData(
        figure_id,
        f"NoC {title_metric}, homogeneous uniform sources/destinations",
        "lambda",
        list(rates),
    )
    series = {
        parse_topology(topo_spec).name: rate_points(
            topo_spec, "uniform", rates, settings
        )
        for n in node_counts
        for topo_spec in paper_topology_specs(n)
    }
    figure.add_result_series(
        sweep_series(series, workers=workers),
        "throughput" if metric == "throughput" else "avg_latency",
    )
    figure.notes.append(
        "all nodes are sources; destinations uniform over the other "
        "nodes"
    )
    return figure


def figure10(
    settings: SimulationSettings | None = None,
    node_counts=UNIFORM_NODE_COUNTS,
    rates=UNIFORM_RATES,
    workers: int = 1,
) -> FigureData:
    """Figure 10: throughput vs injection rate, homogeneous traffic."""
    return _uniform_figure(
        "fig10",
        "throughput",
        settings or SimulationSettings(),
        node_counts,
        rates,
        workers=workers,
    )


def figure11(
    settings: SimulationSettings | None = None,
    node_counts=UNIFORM_NODE_COUNTS,
    rates=UNIFORM_RATES,
    workers: int = 1,
) -> FigureData:
    """Figure 11: latency vs injection rate, homogeneous traffic."""
    return _uniform_figure(
        "fig11",
        "latency",
        settings or SimulationSettings(),
        node_counts,
        rates,
        workers=workers,
    )


#: The run settings of the reproduction: the committed
#: ``results/*.csv`` regenerate from these, byte for byte.
SETTINGS = SimulationSettings(
    cycles=10_000,
    warmup=2_000,
    config=NocConfig(source_queue_packets=64),
    seed=1,
)

#: Every committed artefact, by CSV stem: its generator, as
#: ``module.function`` under :mod:`repro.experiments` (resolved when
#: it runs, so importing this module imports no study), and the
#: keyword arguments it runs with.  Simulated generators also get
#: the run settings and the worker count.
ARTEFACTS = {
    "fig2": ("figures.figure2", {}),
    "fig3": ("figures.figure3", {}),
    "fig5": ("figures.figure5", {}),
    "fig6": ("figures.figure6", {}),
    "fig7": ("figures.figure7", {}),
    "fig8": ("figures.figure8", {}),
    "fig9": ("figures.figure9", {}),
    "fig10": ("figures.figure10", {}),
    "fig11": ("figures.figure11", {}),
    "ablation_buffers": ("ablations.ablation_output_buffer_depth", {}),
    "ablation_vcs": ("ablations.ablation_virtual_channels", {}),
    "ablation_routing": (
        "ablations.ablation_spidergon_routing",
        {"rates": (0.02, 0.05, 0.1, 0.25)},
    ),
    "ablation_packet_size": ("ablations.ablation_packet_size", {}),
    "ablation_mesh_policy": ("ablations.ablation_mesh_policy", {}),
    "extension_torus": (
        "extensions.extension_torus_comparison",
        {"rates": (0.1, 0.3, 0.6)},
    ),
    "extension_patterns": (
        "extensions.extension_traffic_patterns",
        {"injection_rate": 0.3},
    ),
    "extension_faults": ("extensions.extension_fault_tolerance", {}),
    "study_circulant": ("circulant.equal_cost_study", {}),
    "study_mesh3d_uniform": ("mesh3d.stacking_study", {"pattern": "uniform"}),
    "study_mesh3d_hotspot": (
        "mesh3d.stacking_study",
        {"pattern": "hotspot:0"},
    ),
    "study_mesh3d_transpose": (
        "mesh3d.stacking_study",
        {"pattern": "transpose"},
    ),
    "study_drain": ("drain.drain_study", {}),
}

_ANALYTICAL = {"fig2", "fig3", "ablation_mesh_policy"}


def generate(
    name: str, settings: SimulationSettings = SETTINGS, workers: int = 1
) -> FigureData:
    """Regenerate the artefact *name* of :data:`ARTEFACTS`."""
    path, kwargs = ARTEFACTS[name]
    module, function = path.split(".")
    generator = getattr(
        importlib.import_module(f"repro.experiments.{module}"), function
    )
    if name in _ANALYTICAL:
        return generator(**kwargs)
    return generator(settings=settings, workers=workers, **kwargs)


def _check(name: str, figure: FigureData, directory: pathlib.Path):
    """Problems of *figure* against its committed CSV and claims."""
    from repro.experiments.claims import failed_claims

    problems = []
    path = directory / f"{name}.csv"
    if not path.exists():
        problems.append(f"MISSING {path}")
    elif path.read_bytes() != to_csv(figure).encode():
        problems.append(f"MISMATCH {path}: regenerated CSV differs")
    problems.extend(
        f"FAILED {name}: claim {claim}"
        for claim in failed_claims(name, figure)
    )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: print, write and check artefacts."""
    parser = argparse.ArgumentParser(
        prog="python -m repro figures",
        description="Regenerate the paper's figures, the ablations, "
        "the extensions and the studies as tables; write or check "
        "their CSVs.",
    )
    parser.add_argument(
        "names",
        nargs="+",
        choices=list(ARTEFACTS) + ["all"],
        metavar="NAME",
        help="artefacts to regenerate, by CSV stem, or all: "
        + " ".join(ARTEFACTS),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run ~10x shorter simulations (shapes only)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write <name>.csv files into DIR",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with --csv DIR: compare each CSV with the copy in DIR "
        "instead of writing it, evaluate the artefact's claims, and "
        "exit 1 on any mismatch or failed claim",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also draw each figure as an ASCII chart",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for simulation sweeps (default 1); "
        "results are identical for any value",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.check and not args.csv:
        parser.error("--check needs --csv DIR")
    if args.check and args.quick:
        parser.error("--check compares full-length runs; drop --quick")
    names = (
        list(ARTEFACTS)
        if "all" in args.names
        else list(dict.fromkeys(args.names))
    )
    settings = SETTINGS.scaled(0.1) if args.quick else SETTINGS
    problems = []
    for name in names:
        figure = generate(name, settings, args.workers)
        sys.stdout.write(format_table(figure))
        sys.stdout.write("\n")
        if args.chart:
            from repro.experiments.ascii_chart import render_chart

            sys.stdout.write(render_chart(figure))
            sys.stdout.write("\n")
        sys.stdout.flush()
        if args.check:
            problems.extend(_check(name, figure, pathlib.Path(args.csv)))
        elif args.csv:
            directory = pathlib.Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{name}.csv").write_text(to_csv(figure))
    if not args.check:
        return 0
    for problem in problems:
        print(problem)
    print(
        f"check: {len(names)} artefact(s), {len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
