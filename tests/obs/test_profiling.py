"""Tests for the kernel profiler."""

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.obs import KernelProfiler
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule
from repro.topology import RingTopology
from repro.traffic.base import TrafficSpec
from repro.traffic.patterns import UniformTraffic


class Echo(SimModule):
    def handle_message(self, message):
        pass


class TestKernelProfiler:
    def test_counts_every_delivery(self):
        sim = Simulator()
        module = Echo(sim, "echo")
        profiler = KernelProfiler(sim)
        for t in range(5):
            sim.schedule(t, module, Message(f"m{t}"))
        sim.run()
        assert profiler.events == 5
        assert profiler.events == sim.events_processed
        assert profiler.per_module == {"echo": 5}

    def test_pending_depth_tracks_backlog(self):
        sim = Simulator(engine="wheel")
        module = Echo(sim, "echo")
        profiler = KernelProfiler(sim)
        for t in range(1, 11):
            sim.schedule(t, module, Message(f"m{t}"))
        sim.run()
        # After the first delivery nine events remain queued, all
        # within the timing wheel's short horizon.
        assert profiler.max_pending_events == 9
        assert profiler.max_wheel_occupancy == 9
        assert profiler.max_overflow_occupancy == 0

    def test_overflow_occupancy_tracks_far_future_timers(self):
        from repro.sim.events import CycleCalendar

        sim = Simulator(engine="wheel")
        module = Echo(sim, "echo")
        profiler = KernelProfiler(sim)
        horizon = CycleCalendar.WINDOW
        sim.schedule(1, module, Message("near"))
        sim.schedule(horizon + 10, module, Message("far"))
        sim.run()
        assert profiler.max_overflow_occupancy == 1

    def test_empty_profile(self):
        profiler = KernelProfiler(Simulator())
        assert profiler.events == 0
        assert profiler.wall_seconds == 0.0
        assert profiler.events_per_second == 0.0

    def test_detach_freezes_counters(self):
        sim = Simulator()
        module = Echo(sim, "echo")
        profiler = KernelProfiler(sim)
        sim.schedule(1, module, Message("seen"))
        sim.run()
        profiler.detach()
        profiler.detach()  # idempotent
        sim.schedule(2, module, Message("unseen"))
        sim.run()
        assert profiler.events == 1

    def test_summary_of_network_run(self):
        topology = RingTopology(8)
        network = Network(
            topology,
            config=NocConfig(source_queue_packets=16),
            traffic=TrafficSpec(UniformTraffic(topology), 0.1),
            seed=2,
        )
        profiler = KernelProfiler(network.simulator)
        result = network.run(cycles=1_000, warmup=0)
        summary = profiler.summary(top_modules=3)
        assert summary["events"] == result.events_processed
        assert summary["max_pending_events"] > 0
        assert (
            summary["max_wheel_occupancy"]
            + summary["max_overflow_occupancy"]
            > 0
        )
        assert summary["wall_seconds"] > 0
        assert len(summary["per_module"]) == 3
        assert sum(profiler.per_module.values()) == summary["events"]
