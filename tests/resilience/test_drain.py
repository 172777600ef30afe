"""Deadlock recovery: drain-ring derivation, the DRAIN controller,
and the canonical wormhole-deadlock positive control."""

import json

import pytest

from repro.experiments.drain import (
    DEADLOCK_BURST_TIMES,
    DEADLOCK_CYCLES,
    DEADLOCK_NODES,
    build_deadlock_network,
    deadlock_trace,
    run_deadlock_control,
)
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.obs import FlitTracer, TimelineObserver, TraceSink
from repro.resilience import DrainController, DrainError, drain_ring
from repro.resilience.watchdog import StallWatchdog
from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.topology import (
    CirculantTopology,
    HypercubeTopology,
    MeshTopology,
    RingTopology,
    SpidergonTopology,
    TorusTopology,
)

TOTAL_PACKETS = len(DEADLOCK_BURST_TIMES) * DEADLOCK_NODES

ENGINES = ("wheel", "heap", "batched")


def assert_hamiltonian(topology, ring):
    assert len(ring) == topology.num_nodes
    assert sorted(ring) == list(range(topology.num_nodes))
    for k, node in enumerate(ring):
        nxt = ring[(k + 1) % len(ring)]
        assert nxt in set(topology.neighbors(node)), (
            f"{node}->{nxt} is not a link"
        )


class TestDrainRing:
    @pytest.mark.parametrize(
        "topology",
        [
            RingTopology(8),
            SpidergonTopology(8),
            MeshTopology(4, 4),
            MeshTopology(2, 3),
            TorusTopology(4, 4),
            HypercubeTopology(3),
            CirculantTopology(16, 5),
        ],
        ids=lambda t: t.name,
    )
    def test_valid_cycle(self, topology):
        assert_hamiltonian(topology, drain_ring(topology))

    def test_ring_uses_identity_order(self):
        assert drain_ring(RingTopology(8)) == tuple(range(8))

    def test_odd_by_odd_mesh_has_none(self):
        # A 3x3 mesh is bipartite with unequal part sizes: no
        # Hamiltonian cycle exists at all.
        with pytest.raises(DrainError, match="no drain ring"):
            drain_ring(MeshTopology(3, 3))

    def test_mesh_serpentine_matches_search_result(self):
        # The closed-form serpentine is preferred over the search;
        # both must of course be Hamiltonian, but the serpentine is
        # deterministic by construction.
        ring = drain_ring(MeshTopology(4, 4))
        assert ring[:4] == (0, 4, 8, 12)


class TestControllerConstruction:
    def _network(self):
        topology = RingTopology(8)
        return Network(
            topology,
            MinimalAdaptiveRouting(topology),
            config=NocConfig(num_vcs=1),
        )

    def test_parameter_validation(self):
        network = self._network()
        with pytest.raises(ValueError, match="detect_cycles"):
            DrainController(network, detect_cycles=0)
        with pytest.raises(ValueError, match="min_interval"):
            DrainController(network, min_interval=64, spin_interval=8)

    def test_second_controller_rejected(self):
        network = self._network()
        DrainController(network)
        with pytest.raises(ValueError, match="already has"):
            DrainController(network)

    def test_non_adjacent_explicit_ring_rejected(self):
        with pytest.raises(DrainError, match="not a link"):
            DrainController(self._network(), ring=(0, 2, 4, 6))

    def test_duplicate_explicit_ring_rejected(self):
        with pytest.raises(DrainError, match="distinct"):
            DrainController(self._network(), ring=(0, 1, 0, 1))

    def test_watchdog_grace_default(self):
        controller = DrainController(self._network(), max_interval=256)
        assert controller.watchdog_grace == 4 * 256


@pytest.mark.drain
class TestPositiveControl:
    """The deterministic wormhole deadlock of docs/deadlock.md."""

    def test_wedges_without_drain(self):
        result = run_deadlock_control(False)
        assert result.degraded
        assert result.packets_delivered == 0
        assert "stall" in result.extra
        assert result.extra["stall"]["flits_in_flight"] == 0

    def test_recovers_with_drain(self):
        result = run_deadlock_control(True)
        assert not result.degraded
        assert result.packets_delivered == TOTAL_PACKETS
        drain = result.extra["drain"]
        assert drain["stall_detections"] >= 1
        assert drain["recoveries"] >= 1
        assert drain["flits_spun"] > 0
        assert drain["pulls"] + drain["sends"] == drain["flits_spun"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_byte_identical_repeats(self, engine):
        def fingerprint():
            result = run_deadlock_control(True, engine=engine)
            return json.dumps(
                {
                    "degraded": result.degraded,
                    "delivered": result.packets_delivered,
                    "flits": result.flits_delivered,
                    "latency": result.avg_latency,
                    "hops": result.avg_hops,
                    "events": result.events_processed,
                    "drain": result.extra["drain"],
                },
                sort_keys=True,
            )

        assert fingerprint() == fingerprint()

    def test_engines_agree(self):
        results = [
            run_deadlock_control(True, engine=engine)
            for engine in ENGINES
        ]
        baseline = results[0]
        for other in results[1:]:
            assert other.packets_delivered == baseline.packets_delivered
            assert other.avg_latency == baseline.avg_latency
            assert other.events_processed == baseline.events_processed
            assert other.extra["drain"] == baseline.extra["drain"]

    def test_batched_engine_falls_back_loudly(self):
        # The controller registers a kernel observer that is not
        # cycle_boundaries_only, the documented trigger for the
        # batched engine's loud fallback to the classic event loop —
        # forced drain moves bypass its per-link records, so the fast
        # path would silently miss them.  Recovery must therefore work (not crash, not
        # drop) under engine="batched".
        network = build_deadlock_network(True, engine="batched")
        assert any(
            observer is network.drain_controller
            for observer in network.simulator.observers
        )
        result = network.run(DEADLOCK_CYCLES)
        assert not result.degraded
        assert result.packets_delivered == TOTAL_PACKETS


@pytest.mark.drain
class TestWatchdogInterplay:
    def _wedged_network(self, stall_cycles, packet_flits=4):
        topology = RingTopology(8)
        network = Network(
            topology,
            MinimalAdaptiveRouting(topology),
            config=NocConfig(
                packet_size_flits=packet_flits,
                num_vcs=1,
                input_buffer_flits=1,
                output_buffer_flits=3,
            ),
        )
        network.install_trace(deadlock_trace())
        StallWatchdog(network, stall_cycles=stall_cycles)
        return network

    def test_shield_defers_watchdog_during_recovery(self):
        # stall_cycles=250 would truncate the run mid-recovery (the
        # controller arms at its second detection tick, cycle ~200);
        # the drain shield defers the trip while epochs make forced
        # progress, so the run completes.
        network = self._wedged_network(stall_cycles=250)
        DrainController(
            network, detect_cycles=100, spin_interval=32
        )
        result = network.run(DEADLOCK_CYCLES)
        assert not result.degraded
        assert result.packets_delivered == TOTAL_PACKETS

    def test_same_watchdog_trips_without_drain(self):
        result = self._wedged_network(stall_cycles=250).run(
            DEADLOCK_CYCLES
        )
        assert result.degraded
        assert result.packets_delivered == 0

    def test_unrecoverable_wedge_still_truncates(self):
        # 3-flit packets wedge with every loop queue owner-locked
        # mid-worm: no order-preserving forced move exists (the
        # recovery bound documented in repro.resilience.drain), so
        # epochs spin zero flits, the shield lapses, and the
        # watchdog ends the run with its diagnostic instead of the
        # drain corrupting worms.
        network = self._wedged_network(
            stall_cycles=3_000, packet_flits=3
        )
        controller = DrainController(
            network, detect_cycles=100, spin_interval=32
        )
        result = network.run(DEADLOCK_CYCLES)
        assert result.degraded
        assert result.packets_delivered == 0
        assert controller.epochs > 0
        assert controller.summary()["flits_spun"] == 0
        assert "stall" in result.extra


@pytest.mark.drain
class TestObservability:
    def test_tracer_and_timeline_see_forced_moves(self):
        network = build_deadlock_network(True)
        sink = TraceSink.in_memory()
        tracer = FlitTracer(network, sink)
        timeline = TimelineObserver(network, window=100)
        result = network.run(DEADLOCK_CYCLES)
        tracer.detach()
        assert not result.degraded
        spun = result.extra["drain"]["flits_spun"]
        records = [
            json.loads(line) for line in sink.text().splitlines()
        ]
        drain_records = [r for r in records if r["ev"] == "drain"]
        assert len(drain_records) == spun
        assert {r["kind"] for r in drain_records} == {"pull", "send"}
        for record in drain_records:
            if record["kind"] == "pull":
                assert record["from"] == record["node"]
        assert timeline.drain_events == spun

    def test_run_summary_carries_drain_extra(self):
        result = run_deadlock_control(True)
        drain = result.extra["drain"]
        assert drain["ring_length"] == DEADLOCK_NODES
        assert drain["interval"]["initial"] == 32
