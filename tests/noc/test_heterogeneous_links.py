"""Per-link latency end-to-end: the heterogeneous link model.

Pins the tentpole API contract:

* zero-load latency generalises from ``2h + S + 2`` to
  ``sum(d_i + 1) + 2*d_local + (S - 1)*max(d) + 1`` where ``d_i`` is
  each link's delay and ``max(d)`` spans the path including the local
  links: links are **not pipelined**, so the slowest link serialises
  the whole packet at one flit per ``d`` cycles (weighted-distance
  oracle).  With all-unit delays this collapses to ``2h + S + 2``.
* TSV penalty 1 reproduces the uniform-link model **byte-for-byte**,
* penalty > 1 measurably shifts average latency,
* the global ``NocConfig.link_delay`` knob warns on mixed
  global/per-link intent.
"""

import warnings

import pytest

from repro.experiments.runner import SimulationSettings, run_simulation
from repro.experiments.specs import parse_pattern
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.topology import (
    LinkAttrs,
    Mesh3DTopology,
    RingTopology,
    Torus3DTopology,
)
from repro.topology.base import DEFAULT_LINK_ATTRS


def deliver_one(topology, src, dst, size=6, **config_kwargs):
    """Inject a single packet and return (latency, hops)."""
    config = NocConfig(packet_size_flits=size, **config_kwargs)
    net = Network(topology, config=config, seed=0)
    net.interfaces[src].enqueue_packet(
        Packet(src, dst, size, created_at=0)
    )
    net.simulator.run(until=1_000)
    assert net.stats.packets_consumed == 1
    return net.stats.latencies[0], net.stats.hop_counts[0]


class _UniformMesh3D(Mesh3DTopology):
    """Mesh3D with the link-attrs hook forced back to uniform —
    the latency-1 reference the penalty-1 grid must reproduce."""

    def link_attrs(self, src, port):
        return DEFAULT_LINK_ATTRS


def zero_load_latency(link_delays, size=6, local_delay=1):
    """Expected single-packet latency over *link_delays* (per hop).

    Head flit: ``d + 1`` per router link plus ``2 * local_delay`` for
    injection/ejection, plus one consume cycle.  Body flits: links are
    not pipelined, so the slowest channel on the path (including the
    two local links) clocks the remaining ``size - 1`` flits.
    """
    head = sum(d + 1 for d in link_delays) + 2 * local_delay
    bottleneck = max([local_delay, *link_delays])
    return head + (size - 1) * bottleneck + 1


class TestWeightedDistanceOracle:
    """Flit arrival time == per-link head latency along the route plus
    serialisation at the slowest channel — see :func:`zero_load_latency`."""

    @pytest.mark.parametrize("tsv_latency", [1, 2, 3, 5])
    def test_mesh3d_single_packet_latency(self, tsv_latency):
        topo = Mesh3DTopology(4, 4, 4, tsv_latency=tsv_latency)
        src = topo.node_at(0, 0, 0)
        dst = topo.node_at(1, 2, 3)
        latency, hops = deliver_one(topo, src, dst)
        assert hops == 6
        delays = [1] * 3 + [tsv_latency] * 3  # 3 planar + 3 vertical
        assert latency == zero_load_latency(delays)

    def test_uniform_collapses_to_paper_formula(self):
        # All-unit delays: 2h + S + 2 from the paper's timing model.
        assert zero_load_latency([1, 1, 1], size=6) == 2 * 3 + 6 + 2

    def test_purely_vertical_route(self):
        topo = Mesh3DTopology(2, 2, 4, tsv_latency=3)
        src = topo.node_at(0, 0, 0)
        dst = topo.node_at(0, 0, 3)
        latency, hops = deliver_one(topo, src, dst)
        assert hops == 3
        assert latency == zero_load_latency([3, 3, 3])

    def test_purely_planar_route_unaffected(self):
        fast = Mesh3DTopology(4, 4, 2)
        slow = Mesh3DTopology(4, 4, 2, tsv_latency=7)
        src, dst = 0, 3  # same layer: x hops only
        assert deliver_one(fast, src, dst) == deliver_one(slow, src, dst)

    @pytest.mark.parametrize("tsv_latency", [1, 4])
    def test_torus3d_wrap_route(self, tsv_latency):
        topo = Torus3DTopology(3, 3, 3, tsv_latency=tsv_latency)
        # (0,0,2) -> (0,0,0): one vertical wrap hop via "up".
        src = topo.node_at(0, 0, 2)
        dst = topo.node_at(0, 0, 0)
        latency, hops = deliver_one(topo, src, dst)
        assert hops == 1
        assert latency == zero_load_latency([tsv_latency])

    def test_global_multiplier_scales_per_link_latency(self):
        # config.link_delay multiplies the topology-assigned latency
        # (local NI links included).
        topo = Mesh3DTopology(2, 2, 2, tsv_latency=2)
        src = topo.node_at(0, 0, 0)
        dst = topo.node_at(0, 0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            latency, hops = deliver_one(topo, src, dst, link_delay=3)
        assert hops == 1
        assert latency == zero_load_latency([2 * 3], local_delay=3)


class TestUniformBaselineReproduction:
    """TSV penalty 1 == the uniform-link model, byte for byte."""

    def test_penalty_one_matches_uniform_run(self):
        settings = SimulationSettings(cycles=2_000, warmup=400, seed=7)
        results = []
        for topo in (
            Mesh3DTopology(4, 4, 4, tsv_latency=1),
            _UniformMesh3D(4, 4, 4),
        ):
            pattern = parse_pattern("uniform", topo)
            results.append(
                run_simulation(topo, pattern, 0.1, settings).to_dict()
            )
        assert results[0] == results[1]

    def test_penalty_shifts_average_latency(self):
        settings = SimulationSettings(cycles=2_000, warmup=400, seed=7)
        latencies = {}
        for penalty in (1, 2, 4):
            topo = Mesh3DTopology(4, 4, 4, tsv_latency=penalty)
            pattern = parse_pattern("uniform", topo)
            result = run_simulation(topo, pattern, 0.05, settings)
            latencies[penalty] = result.avg_latency
        assert latencies[1] < latencies[2] < latencies[4]


class TestLinkAttrsApi:
    def test_default_attrs_and_validation(self):
        from repro.topology import TopologyError

        assert DEFAULT_LINK_ATTRS == LinkAttrs(1, 1.0, "planar")
        with pytest.raises(TopologyError):
            LinkAttrs(latency=0)
        with pytest.raises(TopologyError):
            LinkAttrs(width=-1.0)

    def test_topology_link_lookup(self):
        from repro.topology import TopologyError

        topo = Mesh3DTopology(3, 3, 3, tsv_latency=2)
        link = topo.link(0, "up")
        assert (link.src, link.dst) == (0, 9)
        assert (link.kind, link.latency) == ("tsv", 2)
        with pytest.raises(TopologyError):
            topo.link(0, "west")  # no such port at the x=0 face

    def test_network_link_attrs_of(self):
        net = Network(Mesh3DTopology(3, 3, 3, tsv_latency=2))
        assert net.link_attrs_of(0, "up").kind == "tsv"
        assert net.link_attrs_of(0, "east").kind == "planar"
        assert net.link_attrs_of(0, "local").kind == "local"

    def test_uniform_topologies_report_uniform(self):
        assert RingTopology(8).is_uniform
        assert not Torus3DTopology(3, 3, 3, tsv_latency=2).is_uniform


class TestDeprecationShims:
    def test_global_knob_on_heterogeneous_topology_warns(self):
        topo = Mesh3DTopology(3, 3, 2, tsv_latency=2)
        with pytest.warns(DeprecationWarning, match="link_attrs"):
            Network(topo, config=NocConfig(link_delay=2))

    def test_global_knob_on_uniform_topology_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Network(RingTopology(6), config=NocConfig(link_delay=2))
