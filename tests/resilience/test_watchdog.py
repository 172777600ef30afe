"""Tests for the stall watchdog."""

import json

import pytest

from repro.noc.config import NocConfig
from repro.noc.invariants import InvariantChecker
from repro.noc.network import Network
from repro.resilience import FaultInjector, FaultPlan, StallWatchdog
from repro.resilience.plan import FaultEvent
from repro.topology import RingTopology
from repro.traffic import HotspotTraffic, UniformTraffic
from repro.traffic.base import TrafficSpec


def build(pattern_cls, rate, *, targets=None, seed=3):
    topology = RingTopology(8)
    pattern = (
        pattern_cls(topology, targets)
        if targets is not None
        else pattern_cls(topology)
    )
    return Network(
        topology,
        config=NocConfig(source_queue_packets=32),
        traffic=TrafficSpec(pattern, rate),
        seed=seed,
    )


def disconnecting_plan(at=800):
    """Cut both of node 0's ring links: 0 becomes unreachable."""
    return FaultPlan(
        (FaultEvent(at, 0, 1, "fail"), FaultEvent(at, 0, 7, "fail"))
    )


class TestStallWatchdog:
    def test_rejects_bad_threshold(self):
        net = build(UniformTraffic, 0.1)
        with pytest.raises(ValueError, match="stall_cycles"):
            StallWatchdog(net, 0)

    def test_healthy_run_never_trips(self):
        net = build(UniformTraffic, 0.1)
        watchdog = StallWatchdog(net, stall_cycles=500)
        result = net.run(cycles=3_000, warmup=300)
        assert not watchdog.tripped
        assert not result.degraded
        assert "stall" not in result.extra

    def test_idle_low_rate_run_never_trips(self):
        # Interarrival gaps far beyond the threshold, but the network
        # is merely idle, not stuck.
        net = build(UniformTraffic, 0.001)
        watchdog = StallWatchdog(net, stall_cycles=300)
        result = net.run(cycles=5_000, warmup=300)
        assert not watchdog.tripped
        assert not result.degraded

    def test_disconnected_hotspot_trips(self):
        net = build(HotspotTraffic, 0.15, targets=[0])
        FaultInjector(net, disconnecting_plan(at=800))
        watchdog = StallWatchdog(net, stall_cycles=600)
        result = net.run(cycles=10_000, warmup=300)
        assert watchdog.tripped
        assert result.degraded
        # The run stopped early instead of burning the full horizon.
        assert result.cycles < 10_000

    def test_snapshot_diagnostics(self):
        net = build(HotspotTraffic, 0.15, targets=[0])
        FaultInjector(net, disconnecting_plan(at=800))
        watchdog = StallWatchdog(net, stall_cycles=600)
        result = net.run(cycles=10_000, warmup=300)
        snapshot = result.extra["stall"]
        assert snapshot["reason"].startswith("no flit consumed")
        assert snapshot["stall_cycles"] == 600
        assert snapshot["cycle"] > snapshot["last_progress_cycle"]
        assert sorted(snapshot["dead_links"]) == ["0-1", "0-7"]
        assert snapshot["flits_dropped"] > 0
        assert watchdog.snapshot is not None
        json.dumps(result.to_dict())

    def test_invariants_hold_at_stop_point(self):
        net = build(HotspotTraffic, 0.15, targets=[0])
        FaultInjector(net, disconnecting_plan(at=800))
        StallWatchdog(net, stall_cycles=600)
        net.run(cycles=10_000, warmup=300)
        InvariantChecker(net).check_all()

    def test_trip_is_deterministic(self):
        def go():
            net = build(HotspotTraffic, 0.15, targets=[0], seed=9)
            FaultInjector(net, disconnecting_plan(at=800))
            StallWatchdog(net, stall_cycles=600)
            return net.run(cycles=10_000, warmup=300)

        assert go().to_dict() == go().to_dict()


class TestBatchedFastPathSnapshot:
    """On the batched fast path, flits on the wire are records rather
    than events; the snapshot and the invariant checker must still
    see them, exactly as on the event engines."""

    @staticmethod
    def tripped(engine, stall_cycles):
        topology = RingTopology(8)
        net = Network(
            topology,
            config=NocConfig(source_queue_packets=8),
            traffic=TrafficSpec(UniformTraffic(topology), 0.3),
            seed=3,
            engine=engine,
        )
        FaultInjector(net, disconnecting_plan(at=100))
        StallWatchdog(net, stall_cycles=stall_cycles)
        result = net.run(cycles=3_000, warmup=100)
        assert result.degraded
        return net, result.extra["stall"]

    @pytest.mark.parametrize(
        "stall_cycles, cycle, in_flight", [(30, 191, 2), (80, 241, 1)]
    )
    def test_flits_in_flight_match_heap(
        self, stall_cycles, cycle, in_flight
    ):
        net, batched = self.tripped("batched", stall_cycles)
        assert net.simulator.engine.mode == "fast"
        _, heap = self.tripped("heap", stall_cycles)
        assert (batched["cycle"], batched["flits_in_flight"]) == (
            cycle,
            in_flight,
        )
        assert batched == heap

    def test_invariants_hold_at_fast_path_stop(self):
        # Conservation and per-link credit accounting count the
        # in-flight flits through the pending-event views.
        net, snapshot = self.tripped("batched", 30)
        assert snapshot["flits_in_flight"] > 0
        InvariantChecker(net).check_all()
