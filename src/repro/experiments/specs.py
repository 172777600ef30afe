"""Spec-string parsing: plain strings -> topology / traffic objects.

Campaigns, figure sweeps and the parallel execution layer all
describe a sweep point as plain data (strings and numbers) so that it
can be hashed for the result cache and pickled to worker processes;
these parsers rebuild the model objects on the other side.

Topology specs are handled by a registry: each family registers a
``(prefix, regex, parser)`` triple via the
:func:`register_topology` decorator, :func:`parse_topology` tries the
registered patterns in registration order, and
:func:`available_topologies` lists them for the CLI
(``python -m repro topologies``).  Built-in specs: ``ring<N>``,
``spidergon<N>``, ``circulant<N>s<s>``, ``hypercube<N>``,
``mesh<R>x<C>``, ``mesh<N>`` (factorized), ``mesh-irregular<N>``,
``torus<R>x<C>``, ``mesh3d<X>x<Y>x<Z>[@tsv<L>]``,
``torus3d<X>x<Y>x<Z>[@tsv<L>]`` (3D grids whose vertical TSV links
take ``L`` cycles, default 1), and ``faulty:<base>:<count>@<seed>``.

Pattern strings: ``uniform``, ``hotspot:<n>[,<n>...]``, ``tornado``,
``bit-complement``, ``nearest-neighbor``, ``transpose`` (2D mesh or
cubic 3D grid), ``shuffle``, ``bit-reverse``.

A topology spec may carry a **routing suffix** — a final
``:<routing>`` segment naming a registered routing scheme, e.g.
``mesh4x4:adaptive`` or ``faulty:ring16:1@7:adaptive-misroute`` —
resolved by :func:`parse_topology_routing`.  Registered schemes:
``paper`` (the default :func:`~repro.routing.routing_for` choice),
``table``, ``o1turn``, ``adaptive``, ``adaptive-misroute`` (see
:func:`available_routings`).

A whole point is one line, ``TOPOLOGY[:ROUTING] PATTERN RATE
[KEY=VALUE ...]``, parsed by :func:`parse_point` (``python -m repro
run`` takes it).  Its keys are a campaign spec's run keys
(:data:`RUN_KEYS`), and :func:`run_settings` reads them for both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.noc.config import NocConfig
from repro.resilience.plan import FaultEvent, FaultPlan
from repro.sim.engines import resolve_engine
from repro.topology import (
    MeshTopology,
    RingTopology,
    SpidergonTopology,
    Topology,
    TorusTopology,
)
from repro.traffic import (
    BitComplementTraffic,
    BitReverseTraffic,
    HotspotTraffic,
    NearestNeighborTraffic,
    ShuffleTraffic,
    TornadoTraffic,
    TrafficPattern,
    Transpose3DTraffic,
    TransposeTraffic,
    UniformTraffic,
)


@dataclass(frozen=True, slots=True)
class TopologyFamily:
    """One registered topology spec family.

    Attributes:
        prefix: Registry key, e.g. ``"mesh3d"``.
        pattern: Compiled regex a spec must fullmatch.
        parser: ``Match -> Topology`` builder.
        example: A representative spec string for help output.
        description: One-line summary for ``repro topologies``.
    """

    prefix: str
    pattern: re.Pattern[str]
    parser: Callable[[re.Match[str]], Topology]
    example: str
    description: str


_TOPOLOGY_FAMILIES: dict[str, TopologyFamily] = {}


def register_topology(
    prefix: str,
    pattern: str,
    *,
    example: str,
    description: str,
) -> Callable[
    [Callable[[re.Match[str]], Topology]],
    Callable[[re.Match[str]], Topology],
]:
    """Register a topology spec family under *prefix*.

    The decorated function receives the ``re.fullmatch`` result of
    *pattern* against the spec string and returns the built topology.
    Registration order is match order, so register more specific
    patterns (``mesh3d...``) before catch-all ones (``mesh<N>``).

    Raises:
        ValueError: if *prefix* is already registered.
    """
    compiled = re.compile(pattern)

    def decorator(
        parser: Callable[[re.Match[str]], Topology],
    ) -> Callable[[re.Match[str]], Topology]:
        if prefix in _TOPOLOGY_FAMILIES:
            raise ValueError(
                f"topology prefix {prefix!r} is already registered"
            )
        _TOPOLOGY_FAMILIES[prefix] = TopologyFamily(
            prefix, compiled, parser, example, description
        )
        return parser

    return decorator


def available_topologies() -> list[TopologyFamily]:
    """All registered spec families, sorted by prefix."""
    return sorted(_TOPOLOGY_FAMILIES.values(), key=lambda f: f.prefix)


def parse_topology(spec: str) -> Topology:
    """Build a topology from its campaign string.

    Raises:
        ValueError: for an unrecognized spec, or (via
            :class:`~repro.topology.base.TopologyError`, a ValueError
            subclass) for a recognized spec with impossible
            parameters, e.g. ``spidergon7`` or ``ring2``.
    """
    for family in _TOPOLOGY_FAMILIES.values():
        if match := family.pattern.fullmatch(spec):
            return family.parser(match)
    raise ValueError(f"unknown topology spec {spec!r}")


@register_topology(
    "ring",
    r"ring(\d+)",
    example="ring16",
    description="bidirectional ring (paper baseline)",
)
def _parse_ring(match: re.Match[str]) -> Topology:
    return RingTopology(int(match.group(1)))


@register_topology(
    "spidergon",
    r"spidergon(\d+)",
    example="spidergon16",
    description="ring plus across links (paper's Spidergon)",
)
def _parse_spidergon(match: re.Match[str]) -> Topology:
    return SpidergonTopology(int(match.group(1)))


@register_topology(
    "circulant",
    r"circulant(\d+)s(\d+)",
    example="circulant16s4",
    description="circulant ring C(N; 1, s)",
)
def _parse_circulant(match: re.Match[str]) -> Topology:
    from repro.topology import CirculantTopology

    return CirculantTopology(int(match.group(1)), int(match.group(2)))


@register_topology(
    "hypercube",
    r"hypercube(\d+)",
    example="hypercube16",
    description="binary hypercube with N = 2^k nodes",
)
def _parse_hypercube(match: re.Match[str]) -> Topology:
    from repro.topology import HypercubeTopology

    return HypercubeTopology.with_nodes(int(match.group(1)))


@register_topology(
    "mesh3d",
    r"mesh3d(\d+)x(\d+)x(\d+)(?:@tsv(\d+))?",
    example="mesh3d4x4x4@tsv2",
    description="3D mesh; @tsvL sets vertical-link latency",
)
def _parse_mesh3d(match: re.Match[str]) -> Topology:
    from repro.topology import Mesh3DTopology

    return Mesh3DTopology(
        int(match.group(1)),
        int(match.group(2)),
        int(match.group(3)),
        tsv_latency=int(match.group(4) or 1),
    )


@register_topology(
    "torus3d",
    r"torus3d(\d+)x(\d+)x(\d+)(?:@tsv(\d+))?",
    example="torus3d4x4x4@tsv2",
    description="3D torus; @tsvL sets vertical-link latency",
)
def _parse_torus3d(match: re.Match[str]) -> Topology:
    from repro.topology import Torus3DTopology

    return Torus3DTopology(
        int(match.group(1)),
        int(match.group(2)),
        int(match.group(3)),
        tsv_latency=int(match.group(4) or 1),
    )


@register_topology(
    "mesh-irregular",
    r"mesh-irregular(\d+)",
    example="mesh-irregular11",
    description="largest-square mesh with leftover nodes attached",
)
def _parse_mesh_irregular(match: re.Match[str]) -> Topology:
    return MeshTopology.irregular(int(match.group(1)))


@register_topology(
    "mesh",
    r"mesh(\d+)(?:x(\d+))?",
    example="mesh4x4",
    description="2D mesh; meshN picks the best factorization",
)
def _parse_mesh(match: re.Match[str]) -> Topology:
    if match.group(2) is not None:
        return MeshTopology(int(match.group(1)), int(match.group(2)))
    return MeshTopology.factorized(int(match.group(1)))


@register_topology(
    "torus",
    r"torus(\d+)x(\d+)",
    example="torus4x4",
    description="2D torus (mesh with wraparound links)",
)
def _parse_torus(match: re.Match[str]) -> Topology:
    return TorusTopology(int(match.group(1)), int(match.group(2)))


@register_topology(
    "faulty",
    r"faulty:(.+):(\d+)@(\d+)",
    example="faulty:mesh4x4:2@7",
    description="any base spec with random build-time link faults",
)
def _parse_faulty(match: re.Match[str]) -> Topology:
    from repro.topology.faults import FaultyTopology

    return FaultyTopology.with_random_faults(
        parse_topology(match.group(1)),
        int(match.group(2)),
        seed=int(match.group(3)),
    )


def paper_topology_specs(num_nodes: int) -> list[str]:
    """Ring, Spidergon and the factorized ("real") mesh at size N,
    the paper's three candidates (``mesh<N>`` is the factorized
    mesh)."""
    return [f"ring{num_nodes}", f"spidergon{num_nodes}", f"mesh{num_nodes}"]


@dataclass(frozen=True, slots=True)
class RoutingFamily:
    """One registered routing spec scheme.

    Attributes:
        name: Suffix key, e.g. ``"adaptive"``.
        factory: ``Topology -> RoutingAlgorithm`` builder.
        description: One-line summary for the CLI.
    """

    name: str
    factory: Callable[[Topology], "object"]
    description: str


_ROUTING_FAMILIES: dict[str, RoutingFamily] = {}


def register_routing(
    name: str, *, description: str
) -> Callable[[Callable[[Topology], "object"]], Callable]:
    """Register a routing scheme usable as a ``:<name>`` spec suffix.

    Raises:
        ValueError: if *name* is already registered.
    """

    def decorator(
        factory: Callable[[Topology], "object"],
    ) -> Callable[[Topology], "object"]:
        if name in _ROUTING_FAMILIES:
            raise ValueError(
                f"routing scheme {name!r} is already registered"
            )
        _ROUTING_FAMILIES[name] = RoutingFamily(
            name, factory, description
        )
        return factory

    return decorator


def available_routings() -> list[RoutingFamily]:
    """All registered routing schemes, sorted by name."""
    return sorted(_ROUTING_FAMILIES.values(), key=lambda f: f.name)


def split_routing_suffix(spec: str) -> tuple[str, str | None]:
    """Split ``"mesh4x4:adaptive"`` into ``("mesh4x4", "adaptive")``.

    Only a *final* colon-separated segment that names a registered
    scheme is treated as a routing suffix, so specs whose own grammar
    uses colons (``faulty:mesh4x4:2@7``) stay unambiguous — their
    routed form is ``faulty:mesh4x4:2@7:adaptive``.
    """
    base, sep, suffix = spec.rpartition(":")
    if sep and suffix in _ROUTING_FAMILIES:
        return base, suffix
    return spec, None


def parse_topology_routing(spec: str):
    """Build ``(topology, routing)`` from a topology spec string.

    ``routing`` is ``None`` when the spec carries no routing suffix —
    the network then applies the paper's default scheme for the
    topology (:func:`repro.routing.routing_for`).

    Raises:
        ValueError: for an unknown spec, or a routing scheme that
            does not fit the topology (e.g. ``ring16:o1turn``).
    """
    base, suffix = split_routing_suffix(spec)
    topology = parse_topology(base)
    if suffix is None:
        return topology, None
    family = _ROUTING_FAMILIES[suffix]
    try:
        return topology, family.factory(topology)
    except (RuntimeError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"routing {suffix!r} does not fit topology {base!r}: {exc}"
        ) from exc


@register_routing(
    "paper", description="the paper's default scheme per topology"
)
def _routing_paper(topology: Topology):
    from repro.routing import routing_for

    return routing_for(topology)


@register_routing(
    "table", description="BFS shortest-path tables (ablation baseline)"
)
def _routing_table(topology: Topology):
    from repro.routing import TableRouting

    return TableRouting(topology)


@register_routing(
    "o1turn",
    description="per-packet XY/YX dimension order (regular meshes)",
)
def _routing_o1turn(topology: Topology):
    from repro.routing import MeshO1TurnRouting

    return MeshO1TurnRouting(topology)


@register_routing(
    "adaptive",
    description="minimal-adaptive, free-VC selection (not deadlock-free)",
)
def _routing_adaptive(topology: Topology):
    from repro.routing import MinimalAdaptiveRouting

    return MinimalAdaptiveRouting(topology)


@register_routing(
    "adaptive-misroute",
    description="minimal-adaptive with bounded misrouting",
)
def _routing_adaptive_misroute(topology: Topology):
    from repro.routing import MisrouteAdaptiveRouting

    return MisrouteAdaptiveRouting(topology)


def parse_pattern(spec: str, topology: Topology) -> TrafficPattern:
    """Build a traffic pattern from its campaign string.

    Raises:
        ValueError: for an unrecognized spec or one that does not fit
            *topology* (e.g. ``transpose`` on a non-mesh).
    """
    if spec == "uniform":
        return UniformTraffic(topology)
    if spec.startswith("hotspot:"):
        body = spec.split(":", 1)[1]
        try:
            targets = [int(t) for t in body.split(",")]
        except ValueError:
            raise ValueError(
                f"hotspot targets must be integers, got {body!r}"
            ) from None
        return HotspotTraffic(topology, targets)
    if spec == "tornado":
        return TornadoTraffic(topology)
    if spec == "bit-complement":
        return BitComplementTraffic(topology)
    if spec == "nearest-neighbor":
        return NearestNeighborTraffic(topology)
    if spec == "shuffle":
        return ShuffleTraffic(topology)
    if spec == "bit-reverse":
        return BitReverseTraffic(topology)
    if spec == "transpose":
        from repro.topology.mesh3d import Mesh3DTopology, Torus3DTopology

        if isinstance(topology, (Mesh3DTopology, Torus3DTopology)):
            return Transpose3DTraffic(topology)
        if not isinstance(topology, MeshTopology):
            raise ValueError("transpose needs a mesh topology")
        return TransposeTraffic(topology)
    raise ValueError(f"unknown pattern spec {spec!r}")


# -- run settings and point lines -----------------------------------------

#: The run settings a campaign spec or a point line may set.
RUN_KEYS = (
    "cycles", "warmup", "seed", "source_queue_packets", "timeline_window",
    "stall_cycles", "invariant_check_interval", "engine", "random_faults",
)


def check_pattern(
    pattern_spec: str, topo_spec: str, topology: Topology
) -> None:
    """Raise :class:`ValueError` naming both specs when *pattern_spec*
    does not fit *topology*, the topology of *topo_spec*."""
    try:
        parse_pattern(pattern_spec, topology)
    except ValueError as exc:
        raise ValueError(
            f"pattern {pattern_spec!r} is invalid for topology "
            f"{topo_spec!r}: {exc}"
        ) from exc


def check_engine(engine: str | None) -> None:
    """Raise :class:`ValueError` for an unknown engine name (``None``
    picks the network default)."""
    if engine is not None:
        resolve_engine(engine)


def run_settings(
    spec: Mapping[str, object], frame: Sequence[str] = ()
) -> SimulationSettings:
    """The :data:`RUN_KEYS` of *spec* as :class:`SimulationSettings`.

    The one reading of run keys, shared by campaign specs (whose
    *frame* keys, such as ``topologies``, describe the sweep around
    the settings) and point lines (:func:`parse_point`).  Values may
    be numbers or their strings; a key left out, or ``None``, keeps
    the :class:`SimulationSettings` default.  ``random_faults`` is
    left to :func:`random_fault_plan`, since its picks depend on the
    topology.

    Raises:
        ValueError: naming the key, for a key outside
            :data:`RUN_KEYS` and *frame*, a value that is not an
            integer, ``cycles < 1``, or a warmup outside
            ``[0, cycles)``.
    """
    valid = (*RUN_KEYS, *frame)
    for key in spec:
        if key not in valid:
            raise ValueError(
                f"unknown key {key!r}; valid keys: {', '.join(valid)}"
            )

    def integer(key: str) -> int:
        try:
            return int(spec[key])
        except (TypeError, ValueError):
            raise ValueError(f"{key}={spec[key]} is not an integer") from None

    given = {key for key, value in spec.items() if value is not None}
    fields = {
        key: integer(key)
        for key in (
            "cycles", "warmup", "seed", "timeline_window", "stall_cycles",
            "invariant_check_interval",
        )
        if key in given
    }
    if "source_queue_packets" in given:
        fields["config"] = NocConfig(
            source_queue_packets=integer("source_queue_packets")
        )
    if "engine" in given:
        fields["engine"] = str(spec["engine"])
    settings = SimulationSettings(**fields)
    if settings.cycles < 1:
        raise ValueError(f"cycles={settings.cycles} must be >= 1")
    if not 0 <= settings.warmup < settings.cycles:
        raise ValueError(
            f"warmup={settings.warmup} must be in "
            f"[0, cycles={settings.cycles})"
        )
    return settings


def random_fault_plan(
    config: Mapping[str, object], topology: Topology, seed: int
) -> FaultPlan:
    """The plan of a ``random_faults`` setting on *topology*.

    *config* is ``{"count": N, "at": T, "repair_after": D?,
    "seed": S?}``; the picks depend only on the topology name, N, T
    and the seed (*seed* unless the setting names its own), never on
    execution order.
    """
    repair_after = config.get("repair_after")
    return FaultPlan.random_faults(
        topology,
        count=int(config["count"]),
        at=int(config["at"]),
        repair_after=None if repair_after is None else int(repair_after),
        seed=int(config.get("seed", seed)),
    )


_FAIL = re.compile(r"(\d+):(\d+)@(\d+)(?::(\d+))?")
_RANDOM_FAULTS = re.compile(r"(\d+)@(\d+)(?::(\d+))?")


def parse_point(tokens: Sequence[str]) -> SweepPoint:
    """Parse a point line into a :class:`SweepPoint`.

    A point line is ``TOPOLOGY[:ROUTING] PATTERN RATE [KEY=VALUE ...]``,
    e.g. ``mesh4x4 uniform 0.1 cycles=3000 fail=5:6@1000``.  The KEYs
    are the :data:`RUN_KEYS`, read by :func:`run_settings` as in a
    campaign spec, except that ``random_faults`` is spelt
    ``COUNT@AT[:REPAIR_AFTER]`` and seeded by the point's seed.  One
    more key, ``fail=SRC:DST@T[:REPAIR_T]``, fails link SRC-DST at
    cycle T (and repairs it at REPAIR_T); it may be repeated, and
    excludes ``random_faults``.  The seed is used as given.

    Raises:
        ValueError: naming the offending token.
    """
    if len(tokens) < 3:
        raise ValueError(
            "a point needs TOPOLOGY PATTERN RATE, got "
            f"{' '.join(tokens)!r}"
        )
    topo_spec, pattern_spec, rate_text, *setting_tokens = tokens
    topology, _ = parse_topology_routing(topo_spec)
    check_pattern(pattern_spec, topo_spec, topology)
    try:
        rate = float(rate_text)
        if not rate >= 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"rate {rate_text!r} is not a number >= 0") from None
    spec: dict[str, object] = {}
    events: list[FaultEvent] = []
    for token in setting_tokens:
        key, _, value = token.partition("=")
        if key == "fail":
            match = _FAIL.fullmatch(value)
            if match is None:
                raise ValueError(
                    f"{token!r} must look like fail=SRC:DST@T[:REPAIR_T]"
                )
            src, dst, at, repair = (
                None if group is None else int(group)
                for group in match.groups()
            )
            try:
                plan = FaultPlan(
                    tuple(
                        FaultEvent(time, src, dst, action)
                        for time, action in ((at, "fail"), (repair, "repair"))
                        if time is not None
                    )
                )
                plan.validate_for(topology)
            except ValueError as exc:
                raise ValueError(f"{token!r}: {exc}") from None
            events.extend(plan.events)
            continue
        if key in spec:
            raise ValueError(f"{token!r}: {key} is set twice")
        if key == "random_faults":
            match = _RANDOM_FAULTS.fullmatch(value)
            if match is None:
                raise ValueError(
                    f"{token!r} must look like "
                    "random_faults=COUNT@AT[:REPAIR_AFTER]"
                )
            count, at, repair_after = match.groups()
            value = {"count": count, "at": at, "repair_after": repair_after}
        spec[key] = value
    settings = run_settings(spec)
    check_engine(settings.engine)
    if events and "random_faults" in spec:
        raise ValueError("fail= and random_faults= are exclusive")
    if events:
        settings = replace(settings, fault_plan=FaultPlan(tuple(events)))
    elif "random_faults" in spec:
        settings = replace(
            settings,
            fault_plan=random_fault_plan(
                spec["random_faults"], topology, settings.seed
            ),
        )
    return SweepPoint(topo_spec, pattern_spec, rate, settings)
