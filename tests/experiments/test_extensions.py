"""Tests for the extension experiments."""

from dataclasses import replace

import pytest

from repro.experiments.extensions import (
    Replication,
    extension_fault_tolerance,
    extension_torus_comparison,
    extension_traffic_patterns,
    replicate,
)
from repro.experiments.parallel import run_sweep_point
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.noc.config import NocConfig
from repro.resilience import FaultEvent, FaultPlan

TINY = SimulationSettings(
    cycles=1_500,
    warmup=300,
    config=NocConfig(source_queue_packets=8),
    seed=3,
)


class TestReplicate:
    def test_ci_across_seeds(self):
        rep = replicate(
            "spidergon8",
            "uniform",
            0.15,
            TINY,
            seeds=(1, 2, 3),
        )
        assert rep.metric == "throughput"
        assert len(rep.samples) == 3
        assert rep.mean == pytest.approx(
            sum(rep.samples) / 3
        )
        assert rep.half_width >= 0
        # Independent seeds give different draws.
        assert len(set(rep.samples)) > 1

    def test_relative_error_reasonable_at_low_load(self):
        rep = replicate(
            "spidergon8",
            "uniform",
            0.15,
            TINY,
            seeds=(1, 2, 3, 4),
        )
        assert rep.relative_error < 0.25

    def test_requires_two_seeds(self):
        with pytest.raises(ValueError):
            replicate(
                "spidergon8",
                "uniform",
                0.1,
                TINY,
                seeds=(1,),
            )

    def test_other_metric(self):
        rep = replicate(
            "spidergon8",
            "uniform",
            0.15,
            TINY,
            seeds=(1, 2),
            metric="avg_latency",
        )
        assert rep.mean > 0

    def test_every_setting_reaches_each_seed(self):
        # A fault plan is part of the settings: each replicate runs it,
        # so every sample equals a direct run of that seed.
        plan = FaultPlan((FaultEvent(300, 0, 1), FaultEvent(300, 2, 3)))
        settings = replace(TINY, fault_plan=plan)
        rep = replicate(
            "spidergon8", "uniform", 0.3, settings, seeds=(1, 2)
        )
        direct = [
            run_sweep_point(
                SweepPoint(
                    "spidergon8", "uniform", 0.3,
                    replace(settings, seed=seed),
                )
            ).throughput
            for seed in (1, 2)
        ]
        assert list(rep.samples) == direct
        fault_free = replicate(
            "spidergon8", "uniform", 0.3, TINY, seeds=(1, 2)
        )
        assert all(
            faulty < free
            for faulty, free in zip(rep.samples, fault_free.samples)
        )

    def test_zero_mean_relative_error(self):
        rep = Replication("m", 0.0, 0.0, (0.0, 0.0))
        assert rep.relative_error == 0.0


class TestExtensionFigures:
    def test_torus_comparison_series(self):
        figure = extension_torus_comparison(
            settings=TINY, rows=3, cols=3, rates=(0.2,)
        )
        assert set(figure.series) == {
            "ring9",
            "mesh3x3",
            "torus3x3",
        } or set(figure.series) == {
            "ring9",
            "spidergon9",
            "mesh3x3",
            "torus3x3",
        }

    def test_traffic_patterns_figure(self):
        figure = extension_traffic_patterns(
            settings=TINY, num_nodes=8, injection_rate=0.2
        )
        assert len(figure.x_values) == 4
        assert set(figure.series) == {"ring8", "spidergon8", "mesh2x4"}
        # Nearest-neighbor is the lightest load: highest throughput
        # on the ring.
        ring = figure.column("ring8")
        assert ring[3] == max(ring)

    def test_fault_tolerance_figure(self):
        figure = extension_fault_tolerance(
            settings=TINY, fault_counts=(0, 6), injection_rate=0.1
        )
        assert set(figure.series) == {"throughput", "latency", "hops"}
        # Both configurations deliver at low load; damage lengthens
        # the routes.
        assert all(v > 0 for v in figure.column("throughput"))
        assert figure.column("hops")[1] > figure.column("hops")[0]
