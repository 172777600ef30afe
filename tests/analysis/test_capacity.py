"""Tests for channel-load capacity analysis."""

import pytest

from repro.analysis.capacity import (
    channel_loads,
    hotspot_flows,
    hotspot_saturation_rate,
    max_channel_load,
    uniform_capacity,
    uniform_flows,
    uniform_saturation_rate,
)
from repro.routing import MeshO1TurnRouting, MeshXYRouting, routing_for
from repro.routing.base import LOCAL_PORT
from repro.topology import (
    MeshTopology,
    RingTopology,
    SpidergonTopology,
    TorusTopology,
)
from repro.topology.mesh import EAST, NORTH, SOUTH, WEST


class TestO1TurnLoads:
    def test_uniform_loads_are_the_mean_of_xy_and_yx(self):
        """YX on a square mesh is XY on the transposed mesh, so the
        YX loads are the XY loads with rows and columns swapped."""
        mesh = MeshTopology(4, 4)
        xy = channel_loads(
            MeshXYRouting(mesh), uniform_flows(MeshXYRouting(mesh))
        )
        swap = {EAST: SOUTH, SOUTH: EAST, WEST: NORTH, NORTH: WEST}
        yx = {
            ((node % 4) * 4 + node // 4, swap.get(port, port)): load
            for (node, port), load in xy.items()
        }
        routing = MeshO1TurnRouting(mesh)
        o1turn = channel_loads(routing, uniform_flows(routing))
        assert set(o1turn) == set(xy) | set(yx)
        for channel, load in o1turn.items():
            expected = (xy.get(channel, 0.0) + yx.get(channel, 0.0)) / 2
            assert load == pytest.approx(expected)


class TestChannelLoads:
    def test_single_flow_loads_path_channels(self):
        topology = RingTopology(8)
        routing = routing_for(topology)
        loads = channel_loads(routing, [(0, 2, 0.5)])
        assert loads[(0, "cw")] == pytest.approx(0.5)
        assert loads[(1, "cw")] == pytest.approx(0.5)
        assert loads[(2, LOCAL_PORT)] == pytest.approx(0.5)
        assert (2, "cw") not in loads

    def test_flows_superpose(self):
        topology = RingTopology(8)
        routing = routing_for(topology)
        loads = channel_loads(
            routing, [(0, 2, 0.3), (1, 3, 0.4)]
        )
        assert loads[(1, "cw")] == pytest.approx(0.7)

    def test_rejects_bad_flows(self):
        routing = routing_for(RingTopology(8))
        with pytest.raises(ValueError):
            channel_loads(routing, [(0, 0, 0.1)])
        with pytest.raises(ValueError):
            channel_loads(routing, [(0, 1, -0.1)])

    def test_total_injected_equals_total_ejected(self):
        routing = routing_for(SpidergonTopology(12))
        flows = uniform_flows(routing, 0.5)
        loads = channel_loads(routing, flows)
        ejected = sum(
            load
            for (node, port), load in loads.items()
            if port == LOCAL_PORT
        )
        assert ejected == pytest.approx(12 * 0.5)


class TestUniformBounds:
    def test_ring_bound_matches_bisection_formula(self):
        # Even ring, uniform, shortest-direction routing: the known
        # per-channel load is N^2/8 pair-loads / (N(N-1)) ... check
        # against first principles via simulation of the formula:
        # lambda_sat = 8(N-1)/N^2 approximately for even N.
        for n in (8, 16, 32):
            routing = routing_for(RingTopology(n))
            bound = uniform_saturation_rate(routing)
            assert bound == pytest.approx(8 * (n - 1) / n**2, rel=0.2)

    def test_ordering_matches_figure_10(self):
        # The bound predicts the paper's ranking: ring well below
        # spidergon and mesh.
        ring = uniform_capacity(routing_for(RingTopology(16)))
        spider = uniform_capacity(routing_for(SpidergonTopology(16)))
        mesh = uniform_capacity(routing_for(MeshTopology(4, 4)))
        assert ring < spider
        assert ring < mesh

    def test_torus_at_least_mesh(self):
        mesh = uniform_capacity(routing_for(MeshTopology(4, 4)))
        torus = uniform_capacity(routing_for(TorusTopology(4, 4)))
        assert torus >= mesh

    def test_ring_capacity_flat_in_n(self):
        # Ring aggregate capacity is ~8 flits/cycle regardless of N —
        # exactly the flat ring ceiling measured in figure 10.
        caps = [
            uniform_capacity(routing_for(RingTopology(n)))
            for n in (8, 16, 24, 32)
        ]
        # Converges to 8 from below as N grows: 8(N-1)/N per node
        # aggregate... the point is the ceiling does not scale with N.
        assert all(5.0 <= cap <= 8.0 for cap in caps)
        assert caps == sorted(caps)

    def test_bound_is_an_upper_bound_on_simulation(self):
        from repro.noc.config import NocConfig
        from repro.noc.network import Network
        from repro.traffic import TrafficSpec, UniformTraffic

        for topology in (
            RingTopology(16),
            SpidergonTopology(16),
            MeshTopology(4, 4),
        ):
            bound = uniform_capacity(routing_for(topology))
            net = Network(
                topology,
                config=NocConfig(source_queue_packets=16),
                traffic=TrafficSpec(UniformTraffic(topology), 0.9),
                seed=3,
            )
            measured = net.run(cycles=4_000, warmup=1_000).throughput
            assert measured <= bound + 1e-9


class TestHotspotBounds:
    def test_ejection_channel_dominates(self):
        # One target, S sources: lambda_sat = 1/S regardless of
        # topology — figure 6's topology-independence.
        for topology in (
            RingTopology(16),
            SpidergonTopology(16),
            MeshTopology(4, 4),
        ):
            bound = hotspot_saturation_rate(
                routing_for(topology), [0]
            )
            assert bound == pytest.approx(1 / 15)

    def test_two_targets_double_the_rate(self):
        # Two sinks, 14 sources: each sink absorbs half of every
        # source's traffic, so lambda_sat = 1 / (14/2) = 1/7 — about
        # twice the single-target rate (figure 8's doubled ceiling).
        routing = routing_for(SpidergonTopology(16))
        one = hotspot_saturation_rate(routing, [0])
        two = hotspot_saturation_rate(routing, [0, 8])
        assert one == pytest.approx(1 / 15)
        assert two == pytest.approx(1 / 7)

    def test_requires_targets(self):
        routing = routing_for(RingTopology(8))
        with pytest.raises(ValueError):
            hotspot_flows(routing, [])
