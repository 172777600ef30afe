"""Unit tests for the experiment runner."""

import pytest

from repro.experiments.parallel import execute_points, rate_points
from repro.experiments.runner import SimulationSettings, run_simulation
from repro.noc.config import NocConfig
from repro.routing import TableRouting
from repro.topology import SpidergonTopology
from repro.traffic import UniformTraffic


SETTINGS = SimulationSettings(
    cycles=2_000,
    warmup=400,
    config=NocConfig(source_queue_packets=16),
    seed=5,
)


class TestSettings:
    def test_scaled(self):
        scaled = SETTINGS.scaled(0.5)
        assert scaled.cycles == 1_000
        assert scaled.warmup == 200
        assert scaled.config is SETTINGS.config

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SETTINGS.scaled(0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SETTINGS.cycles = 1


class TestRunSimulation:
    def test_returns_identified_result(self):
        topology = SpidergonTopology(8)
        result = run_simulation(
            topology, UniformTraffic(topology), 0.1, SETTINGS
        )
        assert result.topology_name == "spidergon8"
        assert result.pattern_name == "uniform"
        assert result.injection_rate == 0.1
        assert result.cycles == 2_000
        assert result.num_sources == 8
        assert result.throughput > 0

    def test_custom_routing_respected(self):
        topology = SpidergonTopology(8)
        result = run_simulation(
            topology,
            UniformTraffic(topology),
            0.1,
            SETTINGS,
            routing=TableRouting(topology),
        )
        assert result.routing_name.startswith("table/")

    def test_deterministic_given_settings(self):
        topology = SpidergonTopology(8)
        a = run_simulation(topology, UniformTraffic(topology), 0.1, SETTINGS)
        b = run_simulation(topology, UniformTraffic(topology), 0.1, SETTINGS)
        assert a.throughput == b.throughput
        assert a.avg_latency == b.avg_latency


class TestSweep:
    def test_one_result_per_rate(self):
        results, _ = execute_points(
            rate_points("spidergon8", "uniform", [0.05, 0.1], SETTINGS)
        )
        assert [r.injection_rate for r in results] == [0.05, 0.1]

    def test_throughput_nondecreasing_below_saturation(self):
        results, _ = execute_points(
            rate_points("spidergon8", "uniform", [0.02, 0.08, 0.2], SETTINGS)
        )
        throughputs = [r.throughput for r in results]
        assert throughputs[0] < throughputs[-1]


class TestRunnerObservability:
    def test_profile_stores_kernel_summary(self):
        topology = SpidergonTopology(8)
        result = run_simulation(
            topology,
            UniformTraffic(topology),
            0.1,
            SETTINGS,
            profile=True,
        )
        kernel = result.extra["kernel"]
        assert kernel["events"] == result.events_processed > 0
        assert kernel["max_pending_events"] > 0

    def test_no_profile_keeps_extra_clean(self):
        topology = SpidergonTopology(8)
        result = run_simulation(
            topology, UniformTraffic(topology), 0.1, SETTINGS
        )
        assert "kernel" not in result.extra
        assert "timeline" not in result.extra

    def test_observer_factories_see_the_network(self):
        from repro.obs import KernelProfiler

        captured = []

        def attach(network):
            captured.append(KernelProfiler(network.simulator))

        topology = SpidergonTopology(8)
        result = run_simulation(
            topology,
            UniformTraffic(topology),
            0.1,
            SETTINGS,
            observers=[attach],
        )
        (profiler,) = captured
        assert profiler.events == result.events_processed
