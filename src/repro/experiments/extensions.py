"""Extension experiments beyond the paper's evaluation.

The paper's future work lists "more NoC nodes, specific traffic
patterns originated by common applications, and analysis of routing
protocols and additional NoC topologies".  This module covers:

* :func:`extension_torus_comparison` — the 2D torus joining the
  Ring/Spidergon/Mesh comparison under uniform and bit-complement
  traffic;
* :func:`extension_traffic_patterns` — all implemented synthetic
  patterns on the three paper topologies;
* :func:`extension_fault_tolerance` — a torus under random dead
  links, detoured by table routing;
* :func:`replicate` — multi-seed replication with confidence
  intervals, quantifying the stochastic variability the paper
  mentions when validating figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.parallel import (
    execute_points,
    rate_points,
    sweep_series,
)
from repro.experiments.report import FigureData
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.experiments.specs import paper_topology_specs, parse_topology
from repro.stats import confidence_interval


@dataclass(frozen=True, slots=True)
class Replication:
    """Mean and 95% CI of a metric across independent seeds."""

    metric: str
    mean: float
    half_width: float
    samples: tuple[float, ...]

    @property
    def relative_error(self) -> float:
        """CI half-width as a fraction of the mean (0 when mean=0)."""
        if self.mean == 0:
            return 0.0
        return self.half_width / abs(self.mean)


def replicate(
    topology: str,
    pattern: str,
    injection_rate: float,
    settings: SimulationSettings,
    seeds=(1, 2, 3, 4, 5),
    metric: str = "throughput",
    workers: int = 1,
) -> Replication:
    """Run one configuration under several seeds and summarise.

    Args:
        topology: Topology spec string, e.g. ``"spidergon8"``
            (routing suffixes and ``faulty:`` specs work too).
        pattern: Traffic spec string, e.g. ``"uniform"``.
        injection_rate: Offered load per source, flits/cycle.
        settings: Run parameters; each run is a copy with its seed
            replaced, so fault plans, watchdogs and the rest apply to
            every replicate.
        seeds: Independent root seeds.
        metric: RunResult attribute to aggregate.
        workers: Worker processes; results are identical for any
            value.

    Raises:
        ValueError: with fewer than two seeds (no CI), or if the
            metric is missing/None in any run.
    """
    if len(seeds) < 2:
        raise ValueError("replication needs at least 2 seeds")
    points = [
        SweepPoint(
            topology, pattern, injection_rate, replace(settings, seed=seed)
        )
        for seed in seeds
    ]
    results, _ = execute_points(points, workers=workers)
    samples = []
    for seed, result in zip(seeds, results):
        value = getattr(result, metric)
        if value is None:
            raise ValueError(
                f"metric {metric!r} is None for seed {seed}"
            )
        samples.append(float(value))
    center, half_width = confidence_interval(samples)
    return Replication(metric, center, half_width, tuple(samples))


def extension_torus_comparison(
    settings: SimulationSettings | None = None,
    rows: int = 4,
    cols: int = 4,
    rates=(0.1, 0.3, 0.5, 0.7),
    workers: int = 1,
) -> FigureData:
    """Torus vs Mesh vs Spidergon vs Ring, uniform traffic."""
    settings = settings or SimulationSettings()
    n = rows * cols
    figure = FigureData(
        "ext-torus",
        f"Uniform-traffic throughput with the torus extension "
        f"(N={n})",
        "lambda",
        list(rates),
    )
    specs = [f"ring{n}"]
    if n % 2 == 0:
        specs.append(f"spidergon{n}")
    specs += [f"mesh{rows}x{cols}", f"torus{rows}x{cols}"]
    series = {
        parse_topology(spec).name: rate_points(
            spec, "uniform", rates, settings
        )
        for spec in specs
    }
    figure.add_result_series(sweep_series(series, workers=workers))
    figure.notes.append(
        "torus = mesh + wraparound; constant degree 4, vertex "
        "symmetric like the Spidergon"
    )
    return figure


def extension_traffic_patterns(
    settings: SimulationSettings | None = None,
    num_nodes: int = 16,
    injection_rate: float = 0.25,
    workers: int = 1,
) -> FigureData:
    """Throughput of each synthetic pattern on the paper topologies.

    The x-axis indexes the pattern list; see the notes for labels.
    """
    settings = settings or SimulationSettings()
    patterns = ["uniform", "tornado", "bit-complement", "nearest-neighbor"]
    figure = FigureData(
        "ext-patterns",
        f"Throughput by traffic pattern (N={num_nodes}, lambda="
        f"{injection_rate})",
        "pattern#",
        list(range(len(patterns))),
    )
    series = {
        parse_topology(spec).name: [
            SweepPoint(spec, pattern, injection_rate, settings)
            for pattern in patterns
        ]
        for spec in paper_topology_specs(num_nodes)
    }
    figure.add_result_series(sweep_series(series, workers=workers))
    figure.notes.append(
        "patterns: "
        + ", ".join(f"{i}={name}" for i, name in enumerate(patterns))
    )
    return figure


def extension_fault_tolerance(
    settings: SimulationSettings | None = None,
    rows: int = 4,
    cols: int = 4,
    fault_counts=(0, 2, 4, 8),
    injection_rate: float = 0.1,
    seed: int = 5,
    workers: int = 1,
) -> FigureData:
    """Graceful degradation of a torus under random link faults.

    Table routing detours around dead links; below saturation the
    network keeps delivering while mean hop count and latency grow
    with damage — the irregular-topology robustness story extended
    to in-field faults.
    """
    settings = settings or SimulationSettings()
    figure = FigureData(
        "ext-faults",
        f"Torus{rows}x{cols} under random link faults "
        f"(uniform traffic, lambda={injection_rate})",
        "failed links",
        list(fault_counts),
    )
    base = f"torus{rows}x{cols}"
    points = [
        SweepPoint(
            f"{base}:table"
            if count == 0
            else f"faulty:{base}:{count}@{seed}:table",
            "uniform",
            injection_rate,
            settings,
        )
        for count in fault_counts
    ]
    results, _ = execute_points(points, workers=workers)
    figure.add_series("throughput", [r.throughput for r in results])
    figure.add_series("latency", [r.avg_latency for r in results])
    figure.add_series("hops", [r.avg_hops for r in results])
    figure.notes.append(
        "faults picked at random, retried to keep the network "
        "connected; table routing detours around them"
    )
    return figure
