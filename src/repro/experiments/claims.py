"""The paper's claims, as named predicates over the figure data.

Every committed artefact of :data:`repro.experiments.figures.ARTEFACTS`
carries the claims its data must show: who wins, where curves cross,
where saturation knees sit, and, for figure 10 and the
uniform-traffic studies, that no measured throughput exceeds the
analytic capacity bound (:mod:`repro.analysis.capacity`); figure 6
holds its hot-spot curves to the same model's predicted knee.
:data:`CLAIMS` maps each artefact to its claims by name; a claim is
a function of the artefact's
:class:`~repro.experiments.report.FigureData` that returns whether it
holds.  Claims read values by x value (``f.at(label, x)``), never by
list position, so they read the committed CSV
(:meth:`FigureData.from_csv`) and a regenerated figure alike.
``python -m repro figures NAME --csv results --check`` evaluates
them, and so does the tier-1 suite on the committed data.
"""

from __future__ import annotations

import functools
import math
import re

from repro.analysis.capacity import hotspot_saturation_rate, uniform_capacity
from repro.cost.wires import total_wire_length
from repro.experiments.drain import SWEEP_SCHEMES
from repro.experiments.report import FigureData
from repro.experiments.specs import parse_topology, parse_topology_routing
from repro.routing import routing_for
from repro.stats import detect_saturation_point

#: Series labels of the paper topologies at each node count, in the
#: order ring, Spidergon, factorized mesh.
PAPER_LABELS = {
    8: ("ring8", "spidergon8", "mesh2x4"),
    16: ("ring16", "spidergon16", "mesh4x4"),
    24: ("ring24", "spidergon24", "mesh4x6"),
}
RING, SPIDERGON, MESH = 0, 1, 2


def _close(value, expected, rel=0.0, abs_tol=0.0) -> bool:
    """``value`` lies within ``max(rel * |expected|, abs_tol)`` of
    ``expected``."""
    return abs(value - expected) <= max(rel * abs(expected), abs_tol)


def _rising(values) -> bool:
    """*values* increase strictly."""
    return all(a < b for a, b in zip(values, values[1:]))


def _knee(f: FigureData, label: str) -> float:
    """Saturation knee of a latency series over the x values; inf
    when it never saturates."""
    knee = detect_saturation_point(f.x_values, f.column(label))
    return math.inf if knee is None else knee


def _at_24(f: FigureData) -> list[str]:
    """The 24-node series of a double hot-spot figure."""
    return [l for l in f.series if l.split("-")[0] in PAPER_LABELS[24]]


def _bigger_ring_saturates_earlier(f: FigureData) -> bool:
    """"The latency generally increases early when the number of
    system nodes increases" (checked when both rings saturate)."""
    knee16, knee24 = _knee(f, "ring16"), _knee(f, "ring24")
    return math.inf in (knee16, knee24) or knee24 <= knee16


def _specs(f: FigureData, suffix: str = "-thr") -> list[str]:
    """The names of a figure's ``<name><suffix>`` columns, in order:
    a study's throughput columns by default, every column for
    ``suffix=""``."""
    return [l.removesuffix(suffix) for l in f.series if l.endswith(suffix)]


@functools.lru_cache(maxsize=None)
def _wire(spec: str) -> float:
    """Total wire length of the topology *spec* (closed form)."""
    return total_wire_length(parse_topology(spec))


def _capacity(spec: str) -> float:
    """Uniform-traffic channel-load bound of *spec*'s routing.  The 3D
    grids route by dimension order whatever the link latency, so a
    grid's ``@tsvN`` variants share one cached bound."""
    return _routing_capacity(re.sub(r"@tsv\d+", "", spec))


def _routing(spec: str):
    """The routing of the topology *spec*: its ``:ROUTING`` suffix, or
    the topology's default."""
    topology, routing = parse_topology_routing(spec)
    return routing or routing_for(topology)


@functools.lru_cache(maxsize=None)
def _routing_capacity(spec: str) -> float:
    return uniform_capacity(_routing(spec))


@functools.lru_cache(maxsize=None)
def _hotspot_knee(spec: str) -> float:
    """Predicted per-source saturation rate of *spec* when every other
    node sends to node 0, figure 6's one hot spot."""
    return hotspot_saturation_rate(_routing(spec), [0])


def _within_capacity(f: FigureData, spec_of=None, suffix="-thr") -> bool:
    """Every throughput column (``<spec><suffix>``) stays at or below
    the capacity bound of its spec (*spec_of* maps the column names
    that are not specs)."""
    spec_of = spec_of or {}
    return all(
        value <= _capacity(spec_of.get(name, name))
        for name in _specs(f, suffix)
        for value in f.column(name + suffix)
    )


def equal_cost_candidates(f: FigureData) -> list[str]:
    """The circulants of a circulant study whose total wire length
    fits the Spidergon's; the diametral chord, which is the Spidergon,
    does not count."""
    reference, *circulants = _specs(f)
    n = parse_topology(reference).num_nodes
    return [
        spec
        for spec in circulants
        if spec != f"circulant{n}s{n // 2}"
        and _wire(spec) <= _wire(reference) + 1e-9
    ]


#: Claims by artefact, then by name.  Rates the committed grid lacks
#: are restated at a grid rate (CHANGES.md lists each one).
CLAIMS = {
    "fig2": {
        # Spidergon's ND is at most the real mesh's up to 40 nodes.
        "spidergon-at-most-real-mesh-to-40": lambda f: all(
            f.at("spidergon", n) <= f.at("real-mesh", n)
            for n in range(6, 41, 2)
        ),
        # N = 2 * prime factorizes into a strip with the ring's ND.
        "real-mesh-hits-ring-at-twice-a-prime": lambda f: all(
            f.at("real-mesh", n) == f.at("ring", n)
            for n in (22, 26, 34, 46, 58, 62)
        ),
        "real-mesh-ideal-at-squares": lambda f: all(
            f.at("real-mesh", n) == 2 * (n**0.5 - 1) for n in (16, 36, 64)
        ),
        "ring-is-half-n": lambda f: all(
            f.at("ring", n) == n // 2 for n in range(4, 65, 2)
        ),
        "spidergon-is-quarter-n-rounded-up": lambda f: all(
            f.at("spidergon", n) == -(-n // 4) for n in range(4, 65, 2)
        ),
    },
    "fig3": {
        "spidergon-below-ring": lambda f: all(
            f.at("spidergon", n) < f.at("ring", n) for n in range(6, 65, 2)
        ),
        "ring-is-quarter-n": lambda f: all(
            _close(f.at("ring", n), n / 4, rel=1e-6)
            for n in range(4, 65, 2)
        ),
        "real-mesh-ideal-at-36": lambda f: _close(
            f.at("real-mesh", 36), f.at("ideal-mesh", 36), rel=0.05
        ),
        "real-mesh-far-from-ideal-at-22": lambda f: (
            f.at("real-mesh", 22) > 1.25 * f.at("ideal-mesh", 22)
        ),
        "spidergon-at-most-ring-from-16": lambda f: all(
            f.at("spidergon", n) <= f.at("ring", n) for n in range(16, 65, 2)
        ),
        "spidergon-at-least-half-ideal-mesh-from-16": lambda f: all(
            f.at("spidergon", n) >= 0.5 * f.at("ideal-mesh", n)
            for n in range(16, 65, 2)
        ),
    },
    "fig5": {
        "simulation-tracks-analytic": lambda f: all(
            _close(f.at(f"{t}-sim", n), f.at(f"{t}-analytic", n), rel=0.15)
            for t in ("ring", "spidergon", "mesh")
            for n in f.x_values
        ),
        "ring-farthest": lambda f: all(
            f.at("ring-sim", n) > f.at("spidergon-sim", n) for n in f.x_values
        ),
        "spidergon-close-to-mesh": lambda f: all(
            _close(f.at("spidergon-sim", n), f.at("mesh-sim", n), rel=0.45)
            for n in f.x_values
        ),
    },
    "fig6": {
        # "The throughput index presents no differences with respect to
        # the implemented topology."
        "throughput-independent-of-topology": lambda f: all(
            max(f.at(l, rate) for l in PAPER_LABELS[n])
            - min(f.at(l, rate) for l in PAPER_LABELS[n])
            < 0.12
            for n in (8, 24)
            for rate in f.x_values
        ),
        # Every curve clips at the sink's ~1 flit/cycle.
        "saturates-at-sink-rate": lambda f: all(
            _close(f.at(l, 0.4), 1.0, abs_tol=0.1)
            for l in PAPER_LABELS[8] + PAPER_LABELS[24]
        ),
        # Below saturation the sink absorbs the whole offered load.
        "linear-below-saturation": lambda f: all(
            _close(f.at(l, rate), rate * (n - 1), rel=0.2)
            for n in (8, 24)
            for rate in f.x_values
            if rate * (n - 1) < 0.7
            for l in PAPER_LABELS[n]
        ),
        # Well below the channel-load model's knee (1/(N-1): the
        # sink's ejection link) the sink takes the offered load.
        "tracks-load-below-the-predicted-knee": lambda f: all(
            _close(f.at(l, rate), rate * (n - 1), rel=0.15)
            for n in (8, 24)
            for l in PAPER_LABELS[n]
            for rate in f.x_values
            if rate <= 0.6 * _hotspot_knee(l)
        ),
        # At 0.06, 23 sources already exceed the sink and 7 do not.
        "more-sources-saturate-earlier": lambda f: (
            f.at("spidergon24", 0.06) > f.at("spidergon8", 0.06)
        ),
    },
    "fig7": {
        # Latency rises at the sink's saturation "with little
        # differences due to the NoC topology adopted".
        "knee-independent-of-topology": lambda f: all(
            len({_knee(f, l) for l in PAPER_LABELS[n]}) == 1 for n in (8, 24)
        ),
        "spidergon24-saturates": lambda f: _knee(f, "spidergon24") < math.inf,
        # "The latency increases early when the number of source nodes
        # increases."
        "more-sources-knee-earlier": lambda f: (
            _knee(f, "spidergon24") <= _knee(f, "spidergon8")
        ),
        "latency-blows-up-past-knee": lambda f: all(
            f.at(l, 0.4) > 3 * f.at(l, 0.02) for l in f.series
        ),
    },
    "fig8": {
        "saturates-at-twice-sink-rate": lambda f: all(
            _close(f.at(l, 0.4), 2.0, abs_tol=0.3) for l in _at_24(f)
        ),
        # Placement A vs B vs C matters little at saturation.
        "placement-second-order": lambda f: (
            max(f.at(l, 0.4) for l in _at_24(f))
            - min(f.at(l, 0.4) for l in _at_24(f))
            < 0.5
        ),
        "linear-below-saturation": lambda f: all(
            _close(f.at(l, 0.06), 0.06 * 22, rel=0.25) for l in _at_24(f)
        ),
    },
    "fig9": {
        "every-scenario-saturates": lambda f: all(
            _knee(f, l) < math.inf for l in _at_24(f)
        ),
        # The sinks, not the NoC, are the bottleneck.
        "knee-independent-of-topology-and-placement": lambda f: (
            len({_knee(f, l) for l in _at_24(f)}) == 1
        ),
        # With two sinks 0.06 is still below saturation (one sink
        # saturates at ~1/23 per source).
        "two-sinks-delay-the-knee": lambda f: all(
            f.at(l, 0.06) < 3 * min(f.column(l)) for l in _at_24(f)
        ),
    },
    "fig10": {
        # "Spidergon and 2D Mesh topologies outperform Ring."
        "ring-below-spidergon": lambda f: all(
            f.at(t[RING], 0.7) < f.at(t[SPIDERGON], 0.7)
            for t in (PAPER_LABELS[16], PAPER_LABELS[24])
        ),
        "ring-below-mesh": lambda f: all(
            f.at(t[RING], 0.7) < f.at(t[MESH], 0.7)
            for t in (PAPER_LABELS[16], PAPER_LABELS[24])
        ),
        # "2D Mesh shows a better throughput than Spidergon only with
        # many nodes and when the local injection rate ... is greater
        # than 0.3 flits/cycle."
        "mesh-equals-spidergon-at-low-load": lambda f: _close(
            f.at("mesh4x6", 0.05), f.at("spidergon24", 0.05), rel=0.1
        ),
        "mesh-beats-spidergon-at-high-load": lambda f: (
            f.at("mesh4x6", 0.7) > f.at("spidergon24", 0.7)
        ),
        "low-load-accepted": lambda f: all(
            _close(f.at(l, 0.05), 0.05 * n, rel=0.2)
            for n in (16, 24)
            for l in PAPER_LABELS[n]
        ),
        # No column exceeds its channel-load bound...
        "within-capacity": lambda f: _within_capacity(f, suffix=""),
        # ...and wormhole flow control reaches a fair share of it.
        "16-nodes-reach-0.3-of-capacity": lambda f: all(
            f.at(l, 0.7) > 0.3 * _capacity(l) for l in PAPER_LABELS[16]
        ),
    },
    "fig11": {
        "ring-saturates": lambda f: all(
            _knee(f, ring) < math.inf for ring in ("ring16", "ring24")
        ),
        # "Ring topology saturates first."
        "ring-saturates-first": lambda f: all(
            _knee(f, t[RING]) <= _knee(f, other)
            for t in (PAPER_LABELS[16], PAPER_LABELS[24])
            for other in t[1:]
        ),
        "bigger-ring-saturates-earlier": _bigger_ring_saturates_earlier,
        "ring-latency-blows-up": lambda f: all(
            f.at(ring, 0.7) > 5 * f.at(ring, 0.05)
            for ring in ("ring16", "ring24")
        ),
    },
    "ablation_buffers": {
        "deeper-never-hurts": lambda f: all(
            f.at(l, 8) >= 0.95 * f.at(l, 1) for l in f.series
        ),
        # "Small buffer tuning ha[s] some marginal impact": under 25%
        # from the paper's 3 flits to 8.
        "marginal-beyond-3": lambda f: all(
            f.at(l, 8) <= 1.25 * f.at(l, 3) for l in f.series
        ),
    },
    "ablation_vcs": {
        "ring-pair-flows": lambda f: f.at("ring16-2vc", 0.4) > 1.0,
        "spidergon-pair-flows": lambda f: f.at("spidergon16-2vc", 0.4) > 1.0,
        # Without the dateline pair the ring deadlocks.
        "single-vc-ring-collapses": lambda f: (
            f.at("ring16-1vc", 0.4) < 0.5 * f.at("ring16-2vc", 0.4)
        ),
    },
    "ablation_routing": {
        # Both schemes are minimal: identical at low load.
        "equal-at-low-load": lambda f: all(
            _close(f.at("across-first", rate), f.at("table", rate), rel=0.1)
            for rate in (0.02, 0.05)
        ),
        "across-first-flows": lambda f: f.at("across-first", 0.25) > 2.0,
        # Table routing has no dateline and degrades toward deadlock.
        "table-degrades": lambda f: (
            f.at("table", 0.25) < 0.7 * f.at("across-first", 0.25)
        ),
    },
    "ablation_packet_size": {
        "latency-grows": lambda f: f.at("latency", 16) > f.at("latency", 2),
        # The offered flit load is constant across sizes.
        "throughput-steady": lambda f: (
            max(f.column("throughput")) < 1.3 * min(f.column("throughput"))
        ),
    },
    "ablation_mesh_policy": {
        "irregular-never-worse": lambda f: all(
            f.at("irregular-ND", n) <= f.at("factorized-ND", n)
            for n in f.x_values
        ),
        "factorized-strip-at-22": lambda f: f.at("factorized-ND", 22) == 11,
        "irregular-grid-at-22": lambda f: f.at("irregular-ND", 22) == 8,
    },
    "extension_torus": {
        # Wrap links only help under uniform traffic.
        "at-least-mesh": lambda f: (
            f.at("torus4x4", 0.6) >= 0.95 * f.at("mesh4x4", 0.6)
        ),
        "beats-ring": lambda f: f.at("ring16", 0.6) < f.at("torus4x4", 0.6),
        "low-load-accepted": lambda f: all(
            _close(f.at(l, 0.1), 0.1 * 16, rel=0.15) for l in f.series
        ),
    },
    # x values: 0 uniform, 1 tornado, 2 bit-complement, 3 neighbor.
    "extension_patterns": {
        "neighbor-traffic-free": lambda f: all(
            _close(f.at(l, 3), 0.3 * 16, rel=0.15) for l in PAPER_LABELS[16]
        ),
        "tornado-punishes-ring": lambda f: (
            f.at("ring16", 1) < 0.7 * f.at("spidergon16", 1)
        ),
        "bit-complement-ring-worst": lambda f: (
            f.at("ring16", 2) <= f.at("spidergon16", 2) + 0.2
        ),
    },
    # torus4x4 under uniform traffic at lambda 0.1 (below the knee),
    # with 0, 2, 4 and 8 random dead links.
    "extension_faults": {
        "keeps-delivering": lambda f: all(
            _close(value, f.at("throughput", 0), rel=0.01)
            for value in f.column("throughput")
        ),
        "hops-grow-with-faults": lambda f: _rising(f.column("hops")),
        "latency-grows-with-faults": lambda f: _rising(f.column("latency")),
    },
    # N=16, uniform; the throughput at lambda 0.8 is the highest swept
    # rate's, from one seed.
    "study_circulant": {
        # So s2 is the winner at equal cost whatever it measures.
        "s2-is-the-only-cheaper-chord": lambda f: (
            equal_cost_candidates(f) == ["circulant16s2"]
        ),
        "s2-beats-the-spidergon": lambda f: (
            f.at("circulant16s2-thr", 0.8) > f.at("spidergon16-thr", 0.8)
        ),
        "s2-lower-latency-at-low-load": lambda f: (
            f.at("circulant16s2-lat", 0.05) < f.at("spidergon16-lat", 0.05)
        ),
        # The multiplicative circulant (N = s^2) is the best chord
        # overall, at about 30% more wire than the Spidergon.
        "s4-is-the-unconstrained-best": lambda f: (
            f.at("circulant16s4-thr", 0.8)
            == max(f.at(f"{s}-thr", 0.8) for s in _specs(f))
        ),
        "s4-over-the-budget": lambda f: (
            _wire("circulant16s4") > 1.25 * _wire("spidergon16")
        ),
        # circulant16s8 is the Spidergon graph.
        "diametral-chord-matches-the-spidergon": lambda f: all(
            _close(
                f.at("circulant16s8-thr", rate),
                f.at("spidergon16-thr", rate),
                rel=0.05,
            )
            for rate in f.x_values
        ),
        "within-capacity": _within_capacity,
    },
    # N=64, TSV penalties 1/2/4; "saturation" throughput is the one at
    # the highest swept rate, 0.45, from one seed.
    "study_mesh3d_uniform": {
        "free-tsvs-cut-latency": lambda f: (
            f.at("mesh3d4x4x4-lat", 0.05) < f.at("mesh8x8-lat", 0.05)
        ),
        "free-tsvs-lift-throughput": lambda f: (
            f.at("mesh3d4x4x4-thr", 0.45) > 1.5 * f.at("mesh8x8-thr", 0.45)
        ),
        "3d-mesh-uses-less-wire": lambda f: (
            _wire("mesh3d4x4x4") < _wire("mesh8x8")
        ),
        "tsv2-throughput-matches-planar": lambda f: _close(
            f.at("mesh3d4x4x4@tsv2-thr", 0.45),
            f.at("mesh8x8-thr", 0.45),
            rel=0.1,
        ),
        "tsv4-worse-than-planar": lambda f: (
            f.at("mesh3d4x4x4@tsv4-thr", 0.45) < f.at("mesh8x8-thr", 0.45)
            and f.at("mesh3d4x4x4@tsv4-lat", 0.05)
            > f.at("mesh8x8-lat", 0.05)
        ),
        "torus3d-tsv2-beats-planar": lambda f: (
            f.at("torus3d4x4x4@tsv2-thr", 0.45) > f.at("mesh8x8-thr", 0.45)
        ),
        "within-capacity": _within_capacity,
    },
    "study_mesh3d_transpose": {
        "free-tsvs-win": lambda f: (
            f.at("mesh3d4x4x4-thr", 0.45) > f.at("mesh8x8-thr", 0.45)
            and f.at("mesh3d4x4x4-lat", 0.05) < f.at("mesh8x8-lat", 0.05)
        ),
        "tsv2-below-planar": lambda f: (
            f.at("mesh3d4x4x4@tsv2-thr", 0.45) < f.at("mesh8x8-thr", 0.45)
        ),
        "tsv4-below-half-planar": lambda f: (
            f.at("mesh3d4x4x4@tsv4-thr", 0.45)
            < 0.5 * f.at("mesh8x8-thr", 0.45)
        ),
    },
    # One sink ejects at most 1 flit/cycle, and every rate swept
    # offers more than that.
    "study_mesh3d_hotspot": {
        "ejection-bound": lambda f: all(
            value <= 1.01 for s in _specs(f) for value in f.column(f"{s}-thr")
        ),
        "free-tsvs-reach-the-bound": lambda f: all(
            _close(f.at(f"{s}-thr", 0.45), 1.0, abs_tol=0.01)
            for s in ("mesh8x8", "mesh3d4x4x4", "torus3d4x4x4")
        ),
        # The non-pipelined vertical links into the hot spot become
        # the bottleneck before its ejection link does...
        "slow-tsvs-fall-below-the-bound": lambda f: all(
            f.at(f"{s}-thr", 0.45) < 0.9
            for s in (
                "mesh3d4x4x4@tsv2", "mesh3d4x4x4@tsv4", "torus3d4x4x4@tsv4"
            )
        ),
        # ...except on the torus at penalty 2: its wrap gives the hot
        # spot two vertical links in.
        "torus3d-tsv2-reaches-the-bound": lambda f: _close(
            f.at("torus3d4x4x4@tsv2-thr", 0.45), 1.0, abs_tol=0.01
        ),
    },
    # ring8, uniform, every run under the positive control's watchdog.
    "study_drain": {
        "drain-stays-idle": lambda f: not any(f.column("flits_spun")),
        "drain-leaves-adaptive-untouched": lambda f: all(
            f.column(f"adaptive+drain-{metric}")
            == f.column(f"adaptive-{metric}")
            for metric in ("thr", "lat")
        ),
        "adaptive-flows-like-dateline": lambda f: all(
            _close(f.at("adaptive-thr", rate), f.at("dateline-thr", rate),
                   rel=0.01)
            for rate in f.x_values
        ),
        "within-capacity": lambda f: _within_capacity(f, SWEEP_SCHEMES),
    },
}


def failed_claims(artefact: str, f: FigureData) -> list[str]:
    """Names of the claims of *artefact* that *f* breaks.  A claim
    that cannot read its data (a missing series, x value or
    measurement) fails too."""
    failed = []
    for name, claim in CLAIMS[artefact].items():
        try:
            holds = claim(f)
        except (KeyError, ValueError, TypeError):
            holds = False
        if not holds:
            failed.append(name)
    return failed
