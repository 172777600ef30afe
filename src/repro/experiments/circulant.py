"""Equal-cost Spidergon vs circulant-ring study.

The Spidergon is the ``s = N/2`` member of the circulant family
``C(N; 1, s)``; the paper never asks whether its diametral chord is
the *best* chord.  This study answers that under the wire-length
cost model of :mod:`repro.cost.wires`: a chord of span ``s`` on the
circular floorplan costs ``(N/pi) * sin(pi*s/N)`` wire units, so total
wire length is the equalizing axis, and a circulant is an
**equal-or-cheaper** candidate when its total wire length does not
exceed the Spidergon's.

:func:`equal_cost_study` sweeps the Spidergon and every canonical
chord under one traffic pattern and returns each topology's accepted
throughput and mean latency per injection rate; its notes carry the
static graph metrics (diameter, E[D], link count, total wire length)
as closed forms.  ``python -m repro figures study_circulant``
regenerates the committed ``results/study_circulant.csv``, and
:mod:`repro.experiments.claims` names the winner at equal cost.
"""

from __future__ import annotations

from repro.analysis.formulas import (
    circulant_average_distance,
    circulant_diameter,
)
from repro.cost.wires import total_wire_length
from repro.experiments.parallel import rate_points, sweep_series
from repro.experiments.report import FigureData
from repro.experiments.runner import SimulationSettings
from repro.topology import CirculantTopology, SpidergonTopology


def candidate_skips(num_nodes: int) -> list[int]:
    """Every canonical chord span for ``C(N; 1, s)``: ``2 .. N//2``."""
    return list(range(2, num_nodes // 2 + 1))


def static_note(num_nodes: int, skip: int | None) -> str:
    """One family member's graph-only metrics as a table note.

    ``skip=None`` selects the Spidergon reference; ``skip=N//2``
    selects the same graph *as a circulant*, which yields identical
    numbers.
    """
    if skip is None:
        topology = SpidergonTopology(num_nodes)
        skip = num_nodes // 2
    else:
        topology = CirculantTopology(num_nodes, skip)
    return (
        f"{topology.name}: ND {circulant_diameter(num_nodes, skip)}, "
        f"E[D] {circulant_average_distance(num_nodes, skip):.3f}, "
        f"links {len(topology.links())}, "
        f"wire {total_wire_length(topology):.2f}"
    )


def equal_cost_study(
    num_nodes: int = 16,
    pattern: str = "uniform",
    rates: tuple[float, ...] = (0.05, 0.2, 0.4, 0.6, 0.8),
    settings: SimulationSettings | None = None,
    skips: list[int] | None = None,
    workers: int = 1,
) -> FigureData:
    """Sweep the Spidergon and its circulant chords at one size.

    Args:
        num_nodes: Even network size (the Spidergon reference needs
            it; the paper's sizes 8/16/24 all qualify).
        pattern: Traffic spec string, evaluated per topology.
        rates: Injection-rate sweep.
        settings: Run-length parameters (defaults to the standard
            20k-cycle / 4k-warmup run).
        skips: Chord spans to evaluate (default: all canonical spans
            ``2..N/2``).
        workers: Worker processes; results are identical for any
            value.

    Returns:
        One ``<spec>-thr`` (accepted flits/cycle) and one
        ``<spec>-lat`` (mean packet latency, cycles) column per
        topology, the Spidergon first.

    Raises:
        ValueError: for an odd *num_nodes* or an empty rate sweep.
    """
    if num_nodes % 2:
        raise ValueError(
            f"equal-cost study needs the Spidergon reference, which "
            f"needs an even N; got {num_nodes}"
        )
    if not rates:
        raise ValueError("need at least one injection rate")
    settings = settings or SimulationSettings()
    skips = candidate_skips(num_nodes) if skips is None else list(skips)
    members = [(f"spidergon{num_nodes}", None)] + [
        (f"circulant{num_nodes}s{skip}", skip) for skip in skips
    ]
    runs = sweep_series(
        {
            spec: rate_points(spec, pattern, rates, settings)
            for spec, _ in members
        },
        workers=workers,
    )
    figure = FigureData(
        "study-circulant",
        f"Spidergon vs circulant chords C({num_nodes}; 1, s), "
        f"{pattern} traffic: throughput (-thr) and latency (-lat)",
        "lambda",
        list(rates),
    )
    figure.add_throughput_and_latency(runs)
    figure.notes.extend(static_note(num_nodes, skip) for _, skip in members)
    figure.notes.append(
        "equal-cost rule: total wire length <= the Spidergon's"
    )
    return figure
