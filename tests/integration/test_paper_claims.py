"""Integration tests: the paper's qualitative claims, at reduced scale.

These runs are sized for CI (seconds each); ``python -m repro figures
all --csv results --check`` regenerates the full figures and checks
their claims.  Each test cites the claim it checks.
"""

import pytest

from repro.experiments.runner import SimulationSettings, run_simulation
from repro.noc.config import NocConfig
from repro.stats import detect_saturation_point
from repro.topology import (
    MeshTopology,
    RingTopology,
    SpidergonTopology,
    average_distance,
)
from repro.traffic import HotspotTraffic, UniformTraffic

SETTINGS = SimulationSettings(
    cycles=6_000,
    warmup=1_500,
    config=NocConfig(source_queue_packets=32),
    seed=42,
)


def topologies(n):
    return (
        RingTopology(n),
        SpidergonTopology(n),
        MeshTopology.factorized(n),
    )


class TestFigure5Validation:
    """Simulated mean hop count tracks the analytical E[D]."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_sim_matches_analytic(self, n):
        for topology in topologies(n):
            result = run_simulation(
                topology, UniformTraffic(topology), 0.05, SETTINGS
            )
            analytic = average_distance(topology, include_self=False)
            assert result.avg_hops == pytest.approx(analytic, rel=0.12)

    def test_ring_has_worst_average(self):
        # "Ring has the worst average performances".
        hops = {}
        for topology in topologies(16):
            result = run_simulation(
                topology, UniformTraffic(topology), 0.05, SETTINGS
            )
            hops[topology.name] = result.avg_hops
        assert hops["ring16"] > hops["spidergon16"]
        assert hops["ring16"] > hops["mesh4x4"]


class TestFigure6HotspotThroughput:
    """One hot-spot: the destination, not the topology, is the
    bottleneck — throughput curves coincide and saturate at the sink's
    1 flit/cycle absorption."""

    def test_topology_irrelevant_under_hotspot(self):
        saturated = {}
        for topology in topologies(16):
            result = run_simulation(
                topology, HotspotTraffic(topology, [0]), 0.4, SETTINGS
            )
            saturated[topology.name] = result.throughput
        values = list(saturated.values())
        assert max(values) - min(values) < 0.08
        for value in values:
            assert value == pytest.approx(1.0, abs=0.07)

    def test_linear_absorption_before_saturation(self):
        # "linear absorption from the (single) destination node".
        topology = SpidergonTopology(16)
        low = run_simulation(
            topology, HotspotTraffic(topology, [0]), 0.02, SETTINGS
        )
        offered = 0.02 * 15
        assert low.throughput == pytest.approx(offered, rel=0.12)

    def test_mesh_target_position_immaterial(self):
        # "Destination nodes have been taken in different points on
        # the Mesh topology" with no throughput difference.
        mesh = MeshTopology(4, 4)
        corner = run_simulation(
            mesh, HotspotTraffic(mesh, [0]), 0.4, SETTINGS
        )
        middle = run_simulation(
            mesh,
            HotspotTraffic(mesh, [mesh.center_node()]),
            0.4,
            SETTINGS,
        )
        assert corner.throughput == pytest.approx(
            middle.throughput, rel=0.08
        )


class TestFigure7HotspotLatency:
    """Latency knees when the hot-spot saturates, regardless of
    topology; more sources bring the knee earlier."""

    RATES = [0.02, 0.05, 0.08, 0.12, 0.2]

    def _knee(self, topology):
        latencies = []
        for rate in self.RATES:
            result = run_simulation(
                topology, HotspotTraffic(topology, [0]), rate, SETTINGS
            )
            latencies.append(result.avg_latency)
        return detect_saturation_point(self.RATES, latencies)

    def test_knee_is_topology_independent(self):
        knees = {t.name: self._knee(t) for t in topologies(16)}
        assert len(set(knees.values())) == 1

    def test_more_sources_knee_earlier(self):
        small = self._knee(SpidergonTopology(8))
        large = self._knee(SpidergonTopology(24))
        assert large is not None
        assert small is None or large <= small


class TestFigure8DoubleHotspot:
    """Two hot-spots double the absorption ceiling; placement is a
    second-order effect."""

    def test_two_sinks_absorb_two_flits_per_cycle(self):
        topology = SpidergonTopology(16)
        result = run_simulation(
            topology, HotspotTraffic(topology, [0, 8]), 0.5, SETTINGS
        )
        assert result.throughput == pytest.approx(2.0, abs=0.25)

    def test_placement_secondary(self):
        from repro.traffic import double_hotspot_targets

        topology = SpidergonTopology(16)
        results = []
        for scenario in ("A", "B"):
            targets = double_hotspot_targets(topology, scenario)
            results.append(
                run_simulation(
                    topology,
                    HotspotTraffic(topology, targets),
                    0.5,
                    SETTINGS,
                ).throughput
            )
        assert results[0] == pytest.approx(results[1], rel=0.2)


class TestFigure10UniformThroughput:
    """Homogeneous traffic: Spidergon and Mesh outperform Ring; Mesh
    beats Spidergon only at larger N and high load."""

    def test_ring_worst_at_high_load(self):
        peaks = {}
        for topology in topologies(16):
            result = run_simulation(
                topology, UniformTraffic(topology), 0.6, SETTINGS
            )
            peaks[topology.name] = result.throughput
        assert peaks["ring16"] < peaks["spidergon16"]
        assert peaks["ring16"] < peaks["mesh4x4"]

    def test_mesh_beats_spidergon_only_at_high_load(self):
        # At low load all topologies accept the offered traffic; the
        # mesh's advantage appears beyond the paper's ~0.3 crossover.
        topology_m = MeshTopology.factorized(24)
        topology_s = SpidergonTopology(24)
        low_m = run_simulation(
            topology_m, UniformTraffic(topology_m), 0.1, SETTINGS
        )
        low_s = run_simulation(
            topology_s, UniformTraffic(topology_s), 0.1, SETTINGS
        )
        assert low_m.throughput == pytest.approx(
            low_s.throughput, rel=0.05
        )
        high_m = run_simulation(
            topology_m, UniformTraffic(topology_m), 0.6, SETTINGS
        )
        high_s = run_simulation(
            topology_s, UniformTraffic(topology_s), 0.6, SETTINGS
        )
        assert high_m.throughput > high_s.throughput


class TestFigure11UniformLatency:
    """Ring saturates first under homogeneous traffic."""

    RATES = [0.05, 0.1, 0.2, 0.35, 0.55]

    def test_ring_knee_earliest(self):
        knees = {}
        for topology in topologies(16):
            latencies = []
            for rate in self.RATES:
                result = run_simulation(
                    topology, UniformTraffic(topology), rate, SETTINGS
                )
                latencies.append(result.avg_latency)
            knees[topology.name] = detect_saturation_point(
                self.RATES, latencies
            )
        ring_knee = knees["ring16"]
        assert ring_knee is not None
        for name, knee in knees.items():
            if name != "ring16":
                assert knee is None or knee >= ring_knee
