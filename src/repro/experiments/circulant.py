"""Equal-cost Spidergon vs circulant-ring study.

The Spidergon is the ``s = N/2`` member of the circulant family
``C(N; 1, s)``; the paper never asks whether its diametral chord is
the *best* chord.  This campaign answers that under the wire-length
cost model of :mod:`repro.cost.wires`: a chord of span ``s`` on the
circular floorplan costs ``(N/pi) * sin(pi*s/N)`` wire units, so a
shorter chord buys either cheaper wiring or — at equal total wire
budget — leaves budget for nothing extra, making total wire length
the equalizing axis.

For each candidate span the study reports the static graph metrics
(diameter, E[D], link count, total wire length) and the simulated
behaviour (mean latency at a low reference load, accepted throughput
at a saturating load) under one traffic pattern, then names the best
**equal-or-cheaper** candidate: the circulant whose total wire length
does not exceed the Spidergon's and whose saturation throughput is
highest (ties broken by lower reference-load latency).

``python -m repro circulant`` runs it from the command line; the
measured outcome for N=16 is recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.formulas import (
    circulant_average_distance,
    circulant_diameter,
)
from repro.cost.wires import total_wire_length
from repro.experiments.parallel import rate_points, sweep_series
from repro.experiments.report import FigureData
from repro.experiments.runner import SimulationSettings
from repro.topology import CirculantTopology, SpidergonTopology


@dataclass(slots=True)
class CandidateResult:
    """One topology's static metrics and simulated behaviour."""

    spec: str
    skip: int | None  # None for the Spidergon reference
    diameter: int
    average_distance: float
    num_links: int
    wire_length: float
    #: Mean packet latency at the reference (low) injection rate.
    latency: float | None = None
    #: Accepted throughput at the saturating (high) injection rate.
    saturation_throughput: float | None = None
    #: Accepted throughput per rate, aligned with the study's rates.
    throughput_curve: list[float] = field(default_factory=list)

    @property
    def is_reference(self) -> bool:
        return self.skip is None


@dataclass(slots=True)
class EqualCostStudy:
    """Outcome of one equal-cost sweep at a fixed node count."""

    num_nodes: int
    pattern: str
    rates: tuple[float, ...]
    reference: CandidateResult
    candidates: list[CandidateResult]
    winner: CandidateResult | None
    figure: FigureData

    @property
    def equal_cost_candidates(self) -> list[CandidateResult]:
        """Candidates whose wire budget fits the Spidergon's."""
        return [
            c
            for c in self.candidates
            if c.wire_length <= self.reference.wire_length + 1e-9
        ]


def candidate_skips(num_nodes: int) -> list[int]:
    """Every canonical chord span for ``C(N; 1, s)``: ``2 .. N//2``."""
    return list(range(2, num_nodes // 2 + 1))


def static_metrics(num_nodes: int, skip: int | None) -> CandidateResult:
    """Graph-only metrics for one family member (no simulation).

    ``skip=None`` selects the Spidergon reference; ``skip=N//2``
    selects the same graph *as a circulant*, which must and does
    yield identical numbers.
    """
    if skip is None:
        topology = SpidergonTopology(num_nodes)
        spec = topology.name
    else:
        topology = CirculantTopology(num_nodes, skip)
        spec = topology.name
    return CandidateResult(
        spec=spec,
        skip=skip,
        diameter=circulant_diameter(
            num_nodes, num_nodes // 2 if skip is None else skip
        ),
        average_distance=circulant_average_distance(
            num_nodes, num_nodes // 2 if skip is None else skip
        ),
        num_links=len(topology.links()),
        wire_length=total_wire_length(topology),
    )


def equal_cost_study(
    num_nodes: int = 16,
    pattern: str = "uniform",
    rates: tuple[float, ...] = (0.05, 0.2, 0.4, 0.6, 0.8),
    settings: SimulationSettings | None = None,
    skips: list[int] | None = None,
    workers: int = 1,
) -> EqualCostStudy:
    """Run the Spidergon-vs-circulant equal-cost comparison.

    Args:
        num_nodes: Even network size (the Spidergon reference needs
            it; the paper's sizes 8/16/24 all qualify).
        pattern: Traffic spec string, evaluated per topology.
        rates: Sweep; ``rates[0]`` is the latency reference point and
            ``rates[-1]`` the saturation point.
        settings: Run-length parameters (defaults to the standard
            20k-cycle / 4k-warmup run).
        skips: Chord spans to evaluate (default: all canonical spans
            ``2..N/2``).
        workers: Worker processes; results are identical for any
            value.

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
    rates = tuple(rates)

    reference = static_metrics(num_nodes, None)
    candidates = [
        static_metrics(num_nodes, skip)
        for skip in (
            skips if skips is not None else candidate_skips(num_nodes)
        )
    ]
    everyone = [reference, *candidates]
    runs = sweep_series(
        {
            index: rate_points(candidate.spec, pattern, rates, settings)
            for index, candidate in enumerate(everyone)
        },
        workers=workers,
    )
    for candidate, results in zip(everyone, runs.values()):
        candidate.throughput_curve = [r.throughput for r in results]
        candidate.latency = results[0].avg_latency
        candidate.saturation_throughput = candidate.throughput_curve[-1]

    affordable = [
        c
        for c in candidates
        if c.wire_length <= reference.wire_length + 1e-9
        and c.skip != num_nodes // 2  # the reference itself
    ]
    winner = None
    if affordable:
        winner = max(
            affordable,
            key=lambda c: (
                c.saturation_throughput,
                -(c.latency if c.latency is not None else float("inf")),
            ),
        )

    figure = FigureData(
        "ext-circulant",
        f"Accepted throughput, Spidergon vs circulant chords "
        f"(N={num_nodes}, {pattern} traffic)",
        "rate",
        list(rates),
    )
    figure.add_series(reference.spec, list(reference.throughput_curve))
    for candidate in candidates:
        figure.add_series(
            candidate.spec, list(candidate.throughput_curve)
        )
    figure.notes.append(
        "equal-cost rule: total wire length <= the Spidergon's "
        f"({reference.wire_length:.2f} units)"
    )

    return EqualCostStudy(
        num_nodes=num_nodes,
        pattern=pattern,
        rates=rates,
        reference=reference,
        candidates=candidates,
        winner=winner,
        figure=figure,
    )


def format_study(study: EqualCostStudy) -> str:
    """Render the study as an aligned text report."""
    lines = [
        f"== equal-cost circulant study: N={study.num_nodes}, "
        f"{study.pattern} traffic, rates {list(study.rates)} ==",
        f"{'spec':<16} {'s':>3} {'ND':>3} {'E[D]':>6} {'links':>5} "
        f"{'wire':>7} {'lat@' + format(study.rates[0], 'g'):>9} "
        f"{'thr@' + format(study.rates[-1], 'g'):>9} fits",
    ]
    budget = study.reference.wire_length

    def row(c: CandidateResult) -> str:
        fits = "ref" if c.is_reference else (
            "yes" if c.wire_length <= budget + 1e-9 else "no"
        )
        return (
            f"{c.spec:<16} {'-' if c.skip is None else c.skip:>3} "
            f"{c.diameter:>3} {c.average_distance:>6.3f} "
            f"{c.num_links:>5} {c.wire_length:>7.2f} "
            f"{c.latency:>9.2f} {c.saturation_throughput:>9.4f} {fits}"
        )

    lines.append(row(study.reference))
    lines.extend(row(c) for c in study.candidates)
    if study.winner is None:
        lines.append(
            "no circulant fits the Spidergon's wire budget at this N"
        )
    else:
        w, ref = study.winner, study.reference
        thr_gain = (
            (w.saturation_throughput - ref.saturation_throughput)
            / ref.saturation_throughput
            * 100
        )
        lat_gain = (w.latency - ref.latency) / ref.latency * 100
        lines.append(
            f"winner at equal cost: {w.spec} — saturation throughput "
            f"{w.saturation_throughput:.4f} vs {ref.saturation_throughput:.4f} "
            f"({thr_gain:+.1f}%), latency@{study.rates[0]:g} "
            f"{w.latency:.2f} vs {ref.latency:.2f} ({lat_gain:+.1f}%)"
        )
    return "\n".join(lines)


def main(rest: list[str]) -> int:
    """CLI entry: ``python -m repro circulant [N] [options]``."""
    import argparse

    from repro.experiments.report import format_table

    parser = argparse.ArgumentParser(
        prog="python -m repro circulant",
        description="Equal-wire-cost comparison of the Spidergon "
        "against every circulant chord C(N; 1, s).",
    )
    parser.add_argument(
        "num_nodes",
        nargs="?",
        type=int,
        default=16,
        help="network size (even; default 16)",
    )
    parser.add_argument(
        "--pattern", default="uniform", help="traffic spec"
    )
    parser.add_argument(
        "--rates",
        default="0.05,0.2,0.4,0.6,0.8",
        help="comma-separated injection-rate sweep",
    )
    parser.add_argument(
        "--cycles", type=int, default=20_000, help="run length"
    )
    parser.add_argument(
        "--warmup", type=int, default=4_000, help="warmup cycles"
    )
    parser.add_argument("--seed", type=int, default=1)
    try:
        args = parser.parse_args(rest)
        rates = tuple(float(r) for r in args.rates.split(",") if r)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError:
        print(f"error: bad --rates {args.rates!r}")
        return 2
    try:
        study = equal_cost_study(
            args.num_nodes,
            pattern=args.pattern,
            rates=rates,
            settings=SimulationSettings(
                cycles=args.cycles, warmup=args.warmup, seed=args.seed
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(format_study(study))
    print()
    print(format_table(study.figure))
    return 0
