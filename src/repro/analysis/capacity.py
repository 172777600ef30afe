"""Channel-load analysis: predicting saturation from routing alone.

For a deterministic routing function and a spatial traffic pattern,
the expected load on every channel is a closed-form sum over
source/destination pairs.  The channel that loads fastest bounds the
sustainable injection rate: no schedule can carry more than one flit
per cycle per link, so

    lambda_sat <= 1 / max_channel_load_per_unit_rate.

This turns the paper's figure 10 rankings into predictions: the Ring
saturates first because its bisection channels concentrate load, the
Mesh last — before running a single simulation cycle.  Wormhole flow
control, finite buffers and arbitration waste some of this ideal
capacity, so measured saturation sits below (typically at 40-80% of)
the bound; the *ordering* and *scaling* are what the bound predicts.
"""

from __future__ import annotations

from collections import defaultdict

from repro.routing.base import LOCAL_PORT, RoutingAlgorithm


def channel_loads(
    routing: RoutingAlgorithm,
    flows: list[tuple[int, int, float]],
) -> dict[tuple[int, str], float]:
    """Expected flits/cycle on each channel for the given *flows*.

    Args:
        routing: Routing whose ``paths`` define which channels each
            flow crosses, and with what share of its rate (O1TURN
            splits a flow over its XY and YX routes).
        flows: ``(src, dst, rate)`` triples, rate in flits/cycle.

    Returns:
        Mapping ``(node, out_port) -> load`` covering every channel
        any flow touches (ejection channels included under
        ``LOCAL_PORT``).
    """
    topology = routing.topology
    loads: dict[tuple[int, str], float] = defaultdict(float)
    for src, dst, rate in flows:
        if rate < 0:
            raise ValueError(f"negative rate for flow {src}->{dst}")
        if src == dst:
            raise ValueError(f"self-flow at node {src}")
        for nodes, share in routing.paths(src, dst):
            for a, b in zip(nodes, nodes[1:]):
                loads[(a, topology.port_to(a, b))] += rate * share
        loads[(dst, LOCAL_PORT)] += rate
    return dict(loads)


def uniform_flows(
    routing: RoutingAlgorithm, rate: float = 1.0
) -> list[tuple[int, int, float]]:
    """The homogeneous pattern as flows: every node sends *rate*
    flits/cycle spread uniformly over all other nodes."""
    n = routing.topology.num_nodes
    per_pair = rate / (n - 1)
    return [
        (src, dst, per_pair)
        for src in range(n)
        for dst in range(n)
        if src != dst
    ]


def hotspot_flows(
    routing: RoutingAlgorithm,
    targets: list[int],
    rate: float = 1.0,
) -> list[tuple[int, int, float]]:
    """Hot-spot pattern as flows: every non-target node sends *rate*
    flits/cycle spread uniformly over the targets."""
    if not targets:
        raise ValueError("need at least one hot-spot target")
    n = routing.topology.num_nodes
    target_set = set(targets)
    per_target = rate / len(targets)
    return [
        (src, dst, per_target)
        for src in range(n)
        if src not in target_set
        for dst in targets
    ]


def max_channel_load(
    routing: RoutingAlgorithm,
    flows: list[tuple[int, int, float]],
) -> float:
    """The heaviest channel load induced by *flows* (flits/cycle)."""
    loads = channel_loads(routing, flows)
    return max(loads.values()) if loads else 0.0


def uniform_saturation_rate(routing: RoutingAlgorithm) -> float:
    """Upper bound on the per-node injection rate (flits/cycle) the
    network can sustain under homogeneous uniform traffic."""
    worst = max_channel_load(routing, uniform_flows(routing, 1.0))
    return 1.0 / worst


def uniform_capacity(routing: RoutingAlgorithm) -> float:
    """Upper bound on aggregate uniform-traffic throughput
    (flits/cycle): ``N * uniform_saturation_rate``."""
    return routing.topology.num_nodes * uniform_saturation_rate(routing)


def hotspot_saturation_rate(
    routing: RoutingAlgorithm, targets: list[int]
) -> float:
    """Upper bound on the per-source rate under hot-spot traffic.

    With minimal routing this is dominated by the targets' ejection
    channels: ``num_targets / num_sources`` flits/cycle — which is
    why figure 6's curves are topology-independent.
    """
    worst = max_channel_load(
        routing, hotspot_flows(routing, targets, 1.0)
    )
    return 1.0 / worst
