"""Tests for O1TURN randomised dimension-order routing."""

import pytest

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.routing import MeshO1TurnRouting, MeshXYRouting
from repro.routing.base import RoutingError
from repro.topology import MeshTopology, all_pairs_distances
from repro.traffic import TrafficSpec, TransposeTraffic, UniformTraffic


def packet(src, dst):
    return Packet(src, dst, 6, created_at=0)


class TestRoutes:
    @pytest.mark.parametrize("dims", [(3, 3), (4, 4), (4, 6)])
    def test_minimal(self, dims):
        mesh = MeshTopology(*dims)
        routing = MeshO1TurnRouting(mesh)
        dist = all_pairs_distances(mesh)
        for src in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                if src != dst:
                    assert routing.path_length(src, dst) == dist[src][dst]

    def test_both_orders_used(self):
        mesh = MeshTopology(4, 4)
        routing = MeshO1TurnRouting(mesh)
        orders = set()
        for _ in range(64):
            pkt = packet(mesh.node_at(0, 0), mesh.node_at(3, 3))
            routing.decide(0, pkt)
            orders.add(pkt.route_state["o1turn_order"])
        assert orders == {"xy", "yx"}

    def test_order_is_sticky_per_packet(self):
        mesh = MeshTopology(4, 4)
        routing = MeshO1TurnRouting(mesh)
        pkt = packet(mesh.node_at(0, 0), mesh.node_at(3, 3))
        routing.decide(0, pkt)
        first = pkt.route_state["o1turn_order"]
        path = routing.path(0, mesh.node_at(3, 3))
        coords = [mesh.coordinates(n) for n in path]
        if first == "xy":
            # Expect no row movement until the column settles... the
            # path helper uses a fresh packet, so just re-decide:
            pass
        again = packet(mesh.node_at(0, 0), mesh.node_at(3, 3))
        again.packet_id = pkt.packet_id  # same id -> same order
        routing.decide(0, again)
        assert again.route_state["o1turn_order"] == first

    def test_vc_matches_order(self):
        mesh = MeshTopology(4, 4)
        routing = MeshO1TurnRouting(mesh)
        for _ in range(32):
            pkt = packet(mesh.node_at(0, 0), mesh.node_at(3, 3))
            decision = routing.decide(0, pkt)
            order = pkt.route_state["o1turn_order"]
            assert decision.vc == (0 if order == "xy" else 1)

    def test_path_depends_only_on_endpoints(self):
        routing = MeshO1TurnRouting(MeshTopology(4, 4))
        assert len({tuple(routing.path(0, 15)) for _ in range(8)}) == 1

    def test_paths_split_between_xy_and_yx(self):
        mesh = MeshTopology(3, 3)
        routing = MeshO1TurnRouting(mesh)
        corner = mesh.node_at(2, 2)
        (xy, xy_share), (yx, yx_share) = routing.paths(0, corner)
        assert (xy_share, yx_share) == (0.5, 0.5)
        assert xy == MeshXYRouting(mesh).path(0, corner)
        assert xy[:3] == [0, mesh.node_at(0, 1), mesh.node_at(0, 2)]
        assert yx[:3] == [0, mesh.node_at(1, 0), mesh.node_at(2, 0)]
        assert routing.paths(4, 4) == [([4], 1.0)]

    def test_requires_two_vcs(self):
        assert MeshO1TurnRouting(MeshTopology(3, 3)).required_vcs == 2

    def test_rejects_irregular_mesh(self):
        with pytest.raises(RoutingError):
            MeshO1TurnRouting(MeshTopology.irregular(11))


class TestInNetwork:
    def _throughput(self, routing_factory, rate=0.5):
        mesh = MeshTopology(4, 4)
        net = Network(
            mesh,
            routing=routing_factory(mesh),
            config=NocConfig(source_queue_packets=16),
            traffic=TrafficSpec(TransposeTraffic(mesh), rate),
            seed=7,
        )
        return net.run(cycles=6_000, warmup=2_000).throughput

    def test_no_deadlock_under_uniform_load(self):
        mesh = MeshTopology(4, 4)
        net = Network(
            mesh,
            routing=MeshO1TurnRouting(mesh),
            config=NocConfig(source_queue_packets=16),
            traffic=TrafficSpec(UniformTraffic(mesh), 0.8),
            seed=7,
        )
        assert net.run(cycles=6_000, warmup=2_000).throughput > 2.0

    def test_point_does_not_depend_on_process_history(self):
        """Packet ids, which pick each packet's dimension order, are
        numbered per network: the same point run twice in one process
        gives the same result."""

        def point():
            mesh = MeshTopology(4, 4)
            net = Network(
                mesh,
                routing=MeshO1TurnRouting(mesh),
                config=NocConfig(source_queue_packets=8),
                traffic=TrafficSpec(UniformTraffic(mesh), 0.3),
                seed=3,
            )
            result = net.run(cycles=600, warmup=100)
            net.close()
            return result.to_dict()

        assert point() == point()

    def test_beats_xy_on_transpose(self):
        # Transpose concentrates XY routes on one diagonal family;
        # O1TURN halves that load across XY and YX.
        o1turn = self._throughput(MeshO1TurnRouting)
        xy = self._throughput(MeshXYRouting)
        assert o1turn >= xy


# -- fully adaptive (minimal / bounded-misroute) schemes ----------------

from repro.resilience.fallback import FallbackTable  # noqa: E402
from repro.routing import (  # noqa: E402
    MinimalAdaptiveRouting,
    MisrouteAdaptiveRouting,
)
from repro.topology import (  # noqa: E402
    RingTopology,
    SpidergonTopology,
    TorusTopology,
)

ADAPTIVE_TOPOLOGIES = [
    RingTopology(8),
    SpidergonTopology(8),
    MeshTopology(4, 4),
    TorusTopology(4, 4),
]


class TestMinimalAdaptive:
    @pytest.mark.parametrize(
        "topology", ADAPTIVE_TOPOLOGIES, ids=lambda t: t.name
    )
    def test_paths_match_bfs_oracle(self, topology):
        routing = MinimalAdaptiveRouting(topology)
        dist = all_pairs_distances(topology)
        for src in range(topology.num_nodes):
            for dst in range(topology.num_nodes):
                if src != dst:
                    assert (
                        routing.path_length(src, dst) == dist[src][dst]
                    )

    def test_not_deadlock_free_but_adaptive(self):
        routing = MinimalAdaptiveRouting(RingTopology(8))
        assert routing.adaptive
        assert not routing.deadlock_free

    def test_fault_update_recomputes_distances(self):
        topology = RingTopology(8)
        routing = MinimalAdaptiveRouting(topology)
        assert routing.path_length(0, 2) == 2
        routing.on_fault_update([(1, 2)])
        # 0->2 must now go the long way round.
        assert routing.path_length(0, 2) == 6
        assert routing.fully_connected
        routing.on_fault_update([])
        assert routing.path_length(0, 2) == 2

    def test_partition_clears_fully_connected(self):
        topology = RingTopology(8)
        routing = MinimalAdaptiveRouting(topology)
        routing.on_fault_update([(0, 1), (4, 5)])
        assert not routing.fully_connected

    def test_misroute_degenerates_to_minimal_offline(self):
        topology = MeshTopology(4, 4)
        minimal = MinimalAdaptiveRouting(topology)
        misroute = MisrouteAdaptiveRouting(topology, max_misroutes=2)
        for src in range(topology.num_nodes):
            for dst in range(topology.num_nodes):
                if src != dst:
                    assert misroute.path_length(
                        src, dst
                    ) == minimal.path_length(src, dst)

    def test_misroute_budget_validated(self):
        with pytest.raises(ValueError, match="max_misroutes"):
            MisrouteAdaptiveRouting(MeshTopology(4, 4), max_misroutes=-1)


def _table_distance(table, node, dst, limit):
    """Hops of the FallbackTable's detour path node -> dst."""
    hops = 0
    topology = table.topology
    while node != dst:
        port = table.next_port(node, dst)
        if port is None:
            return None
        node = topology.out_ports(node)[port]
        hops += 1
        assert hops <= limit, "fallback table loops"
    return hops


class TestAdaptiveFaultAgreement:
    """The adaptive residual tables subsume the BFS fallback detours."""

    def test_detour_lengths_match_fallback_table(self):
        topology = MeshTopology(4, 4)
        dead = [(5, 6), (9, 10)]
        routing = MinimalAdaptiveRouting(topology)
        routing.on_fault_update(dead)
        table = FallbackTable(topology, dead)
        n = topology.num_nodes
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    assert routing.path_length(
                        src, dst
                    ) == _table_distance(table, src, dst, limit=n)

    def test_adaptive_path_avoids_dead_links(self):
        topology = MeshTopology(4, 4)
        routing = MinimalAdaptiveRouting(topology)
        routing.on_fault_update([(5, 6)])
        for src in range(topology.num_nodes):
            for dst in range(topology.num_nodes):
                if src == dst:
                    continue
                path = routing.path(src, dst)
                hops = set(zip(path, path[1:]))
                assert (5, 6) not in hops and (6, 5) not in hops


class TestLegacyFallbackShim:
    """Adaptive routing detours natively, with no BFS fallback table
    (the table is installed only for non-adaptive routing)."""

    def _adaptive_network(self):
        topology = MeshTopology(4, 4)
        return Network(
            topology,
            routing=MinimalAdaptiveRouting(topology),
            config=NocConfig(source_queue_packets=16),
            traffic=TrafficSpec(UniformTraffic(topology), 0.05),
            seed=3,
        )

    def test_adaptive_network_reroutes_around_fault(self):
        net = self._adaptive_network()
        from repro.resilience import FaultInjector, FaultPlan

        FaultInjector(net, FaultPlan.single(5, 6, at=300))
        result = net.run(cycles=3_000, warmup=200)
        assert not result.degraded
        assert result.packets_delivered > 0
        resilience = result.extra["resilience"]
        record = resilience["fault_events"][0]
        assert record["residual_connected"] is True
        assert all(router.fallback is None for router in net.routers)
