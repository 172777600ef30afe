"""White-box tests of router allocation policies."""

import pytest

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.routing import RingShortestRouting
from repro.routing.base import RoutingAlgorithm
from repro.topology import RingTopology, SpidergonTopology
from repro.traffic import HotspotTraffic, TrafficSpec, UniformTraffic


class CountingRouting(RoutingAlgorithm):
    """Wraps a base algorithm and counts decide() invocations."""

    def __init__(self, base):
        super().__init__(base.topology, f"counting[{base.name}]")
        self.base = base
        self.required_vcs = base.required_vcs
        self.decisions = 0

    def decide(self, node, packet):
        self.decisions += 1
        return self.base.decide(node, packet)


class TestDecideOnce:
    def test_decide_called_once_per_packet_per_router(self):
        # Even under heavy contention (hot-spot at saturating load,
        # where head flits wait many cycles for queue ownership) the
        # router must consult the routing function exactly once per
        # packet per traversed router: parked decisions are reused.
        topology = RingTopology(8)
        routing = CountingRouting(RingShortestRouting(topology))
        net = Network(
            topology,
            routing=routing,
            config=NocConfig(source_queue_packets=8),
            traffic=TrafficSpec(HotspotTraffic(topology, [0]), 0.6),
            seed=3,
        )
        net.run(cycles=4_000)
        # Expected decisions: per delivered/in-flight packet, one per
        # router visited = hops + 1 (the ejecting router's LOCAL
        # decision happens at the destination router).  Count exactly
        # for delivered packets and bound the rest.
        delivered_decisions = sum(
            hops + 1 for hops in net.stats.hop_counts
        )
        # All packets measured (warmup=0): delivered ones account for
        # hops+1 decisions each; packets still in flight add at most
        # (diameter + 1) each.
        in_flight_packets = (
            net.stats.packets_generated
            - net.stats.packets_consumed
            - net.stats.packets_rejected
        )
        upper = delivered_decisions + in_flight_packets * (4 + 1)
        assert delivered_decisions <= routing.decisions <= upper


class TestPerQueueGrantRotation:
    def test_two_sources_alternate_ownership(self):
        # Nodes 1 and 7 both eject at node 0 on separate VC0 paths
        # converging on the local queue; with per-queue grants their
        # delivered counts match exactly over a long run.
        topology = RingTopology(8)
        net = Network(
            topology,
            config=NocConfig(source_queue_packets=8),
            traffic=TrafficSpec(HotspotTraffic(topology, [0]), 0.9),
            seed=3,
        )
        net.run(cycles=10_000, warmup=2_000)
        counts = net.stats.delivered_by_source
        assert counts[1] == pytest.approx(counts[7], rel=0.05)

    def test_queue_grant_pointer_moves(self):
        topology = SpidergonTopology(8)
        net = Network(
            topology,
            config=NocConfig(source_queue_packets=8),
            traffic=TrafficSpec(UniformTraffic(topology), 0.6),
            seed=3,
        )
        net.run(cycles=2_000)
        # After sustained contention, grant pointers on loaded queues
        # have rotated away from their initial value somewhere.
        pointers = {
            queue.rr_grant
            for router in net.routers
            for port in router._output_order
            for queue in port.queues
        }
        assert pointers != {0}


class TestOnePipeline:
    @pytest.mark.parametrize("engine", ["heap", "wheel", "batched"])
    def test_every_engine_builds_phases_through_one_builder(
        self, engine, monkeypatch
    ):
        # The router pipeline is written once: every engine compiles
        # each router's advance phase through the same builder, so a
        # model change made there reaches every engine.
        from repro.noc import router as router_module

        builder = router_module._make_router_advance
        built = []

        def counting(router):
            built.append(router.node)
            return builder(router)

        monkeypatch.setattr(router_module, "_make_router_advance", counting)
        topology = RingTopology(8)
        net = Network(
            topology,
            config=NocConfig(source_queue_packets=8),
            traffic=TrafficSpec(UniformTraffic(topology), 0.2),
            seed=5,
            engine=engine,
        )
        net.run(cycles=400)
        assert net.stats.packets_consumed > 0
        assert sorted(built) == list(range(8))
