"""Tests for the parallel execution engine and result cache."""

import dataclasses
import hashlib
import json
import pickle
import random

import pytest

from repro.experiments.campaign import Campaign
from repro.experiments.parallel import (
    CampaignManifest,
    ExecutionStats,
    FailedResult,
    ResultCache,
    canonical_rate,
    derive_seed,
    execute_points,
    point_key,
    run_sweep_point,
)
from repro.experiments.report import format_execution_summary
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.noc.config import NocConfig
from repro.resilience.plan import FaultEvent, FaultPlan


def quick_settings(seed=1):
    return SimulationSettings(
        cycles=600,
        warmup=100,
        config=NocConfig(source_queue_packets=8),
        seed=seed,
    )


def small_spec(**overrides):
    spec = {
        "name": "parallel-smoke",
        "cycles": 600,
        "warmup": 100,
        "seed": 4,
        "source_queue_packets": 8,
        "topologies": ["ring8", "spidergon8"],
        "patterns": ["uniform", "hotspot:0"],
        "rates": [0.05, 0.1],
    }
    spec.update(overrides)
    return spec


def sorted_rows(csv_path):
    lines = csv_path.read_text().strip().splitlines()
    return lines[0], sorted(lines[1:])


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "ring8", "uniform", 0.1) == derive_seed(
            1, "ring8", "uniform", 0.1
        )

    def test_distinct_coordinates_distinct_seeds(self):
        seeds = {
            derive_seed(1, topo, pattern, rate)
            for topo in ("ring8", "spidergon8")
            for pattern in ("uniform", "hotspot:0")
            for rate in (0.05, 0.1)
        }
        assert len(seeds) == 8

    def test_root_seed_changes_streams(self):
        assert derive_seed(1, "ring8", "uniform", 0.1) != derive_seed(
            2, "ring8", "uniform", 0.1
        )


class TestSweepPoint:
    def test_picklable(self):
        point = SweepPoint("ring8", "uniform", 0.1, quick_settings())
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point

    def test_key_depends_on_every_coordinate(self):
        base = SweepPoint("ring8", "uniform", 0.1, quick_settings())
        variants = [
            SweepPoint("ring16", "uniform", 0.1, quick_settings()),
            SweepPoint("ring8", "tornado", 0.1, quick_settings()),
            SweepPoint("ring8", "uniform", 0.2, quick_settings()),
            SweepPoint("ring8", "uniform", 0.1, quick_settings(seed=2)),
        ]
        keys = {point_key(p) for p in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_run_sweep_point_matches_direct_run(self):
        from repro.experiments.runner import run_simulation
        from repro.experiments.specs import parse_pattern, parse_topology

        point = SweepPoint("spidergon8", "hotspot:0", 0.1,
                           quick_settings())
        via_point = run_sweep_point(point)
        topology = parse_topology(point.topology)
        direct = run_simulation(
            topology,
            parse_pattern(point.pattern, topology),
            point.rate,
            point.settings,
        )
        assert via_point == direct


class TestExecutePoints:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            execute_points([], workers=0)

    def test_results_in_input_order(self):
        points = [
            SweepPoint("ring8", "uniform", rate, quick_settings())
            for rate in (0.1, 0.05)
        ]
        results, stats = execute_points(points, workers=1)
        assert [r.injection_rate for r in results] == [0.1, 0.05]
        assert stats.executed == 2
        assert stats.total_points == 2

    def test_parallel_results_match_serial(self):
        points = [
            SweepPoint(topo, "uniform", rate, quick_settings())
            for topo in ("ring8", "spidergon8")
            for rate in (0.05, 0.1)
        ]
        serial, _ = execute_points(points, workers=1)
        parallel, stats = execute_points(points, workers=2)
        assert parallel == serial
        assert stats.workers == 2

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = [
            SweepPoint("ring8", "uniform", 0.1, quick_settings())
        ]
        first, stats1 = execute_points(points, cache=cache)
        assert (stats1.cache_hits, stats1.cache_misses) == (0, 1)
        assert stats1.executed == 1
        second, stats2 = execute_points(points, cache=cache)
        assert (stats2.cache_hits, stats2.cache_misses) == (1, 0)
        assert stats2.executed == 0
        assert second == first

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        point = SweepPoint("ring8", "uniform", 0.1, quick_settings())
        execute_points([point], cache=cache)
        entry = cache._path(point)
        entry.write_text("{not json")
        results, stats = execute_points([point], cache=cache)
        assert stats.executed == 1
        assert results[0].packets_generated > 0

    def test_on_result_callback(self):
        seen = []
        points = [
            SweepPoint("ring8", "uniform", rate, quick_settings())
            for rate in (0.05, 0.1)
        ]
        execute_points(
            points,
            workers=1,
            on_result=lambda i, p, r, cached: seen.append(
                (i, p.rate, cached)
            ),
        )
        assert seen == [(0, 0.05, False), (1, 0.1, False)]

    def test_duplicate_points_simulate_once(self):
        point = SweepPoint("ring8", "uniform", 0.1, quick_settings())
        results, stats = execute_points([point, point], workers=2)
        assert stats.executed == 1
        assert results[0] == results[1]
        assert results[0].packets_generated > 0

    def test_import_leaves_asyncio_unloaded(self):
        """Serial sweeps must not pay asyncio's import time."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        code = (
            "import sys, repro.experiments.parallel; "
            "print('asyncio' in sys.modules)"
        )
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"


class TestCampaignParallel:
    def test_serial_parallel_csv_equivalence(self, tmp_path):
        """The acceptance criterion: workers=1 and workers>1 produce
        byte-identical CSVs after sorting the data rows."""
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        Campaign(small_spec()).execute(
            serial_csv, workers=1, cache=False
        )
        Campaign(small_spec()).execute(
            parallel_csv, workers=2, cache=False
        )
        assert sorted_rows(serial_csv) == sorted_rows(parallel_csv)

    def test_cache_shared_across_campaigns(self, tmp_path):
        """Overlapping campaigns skip points the cache already holds."""
        first = Campaign(small_spec())
        first.execute(tmp_path / "a.csv", cache_dir=tmp_path / "cache")
        assert first.last_stats.executed == 8
        overlapping = Campaign(small_spec(name="other"))
        overlapping.execute(
            tmp_path / "b.csv", cache_dir=tmp_path / "cache"
        )
        assert overlapping.last_stats.executed == 0
        assert overlapping.last_stats.cache_hits == 8
        assert sorted_rows(tmp_path / "a.csv") == sorted_rows(
            tmp_path / "b.csv"
        )

    def test_no_cache_disables_cache(self, tmp_path):
        campaign = Campaign(small_spec())
        campaign.execute(tmp_path / "a.csv", cache=False)
        assert campaign.last_stats.cache_hits == 0
        assert campaign.last_stats.cache_misses == 0
        assert not (tmp_path / ".repro-cache").exists()

    def test_progress_counts_monotonic(self, tmp_path):
        events = []
        Campaign(small_spec()).execute(
            tmp_path / "out.csv",
            progress=lambda done, total, key: events.append(
                (done, total)
            ),
            workers=2,
        )
        assert [done for done, _ in events] == list(range(1, 9))
        assert all(total == 8 for _, total in events)


class TestFailFastValidation:
    def test_bad_topology_aborts_before_any_run(self, tmp_path):
        campaign = Campaign(
            small_spec(topologies=["ring8", "butterfly9"])
        )
        csv_path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="butterfly9"):
            campaign.execute(csv_path, workers=2)
        assert not csv_path.exists()  # no rows, not even a header

    def test_pattern_topology_mismatch_names_both(self, tmp_path):
        campaign = Campaign(small_spec(patterns=["transpose"]))
        with pytest.raises(ValueError, match="transpose.*ring8"):
            campaign.execute(tmp_path / "out.csv")

    def test_cli_rejects_bad_specs_cleanly(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(small_spec(topologies=["butterfly9"]))
        )
        code = main(
            ["campaign", str(spec_path), str(tmp_path / "out.csv")]
        )
        assert code == 2
        assert "butterfly9" in capsys.readouterr().out

    def test_cli_rejects_zero_workers(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(small_spec()))
        code = main(
            [
                "campaign",
                str(spec_path),
                str(tmp_path / "out.csv"),
                "--workers",
                "0",
            ]
        )
        assert code == 2


class TestExecutionSummary:
    def test_format_execution_summary(self):
        stats = ExecutionStats(
            workers=4,
            total_points=10,
            executed=3,
            cache_hits=7,
            cache_misses=3,
            wall_seconds=1.5,
        )
        text = format_execution_summary(stats)
        assert "10 points" in text
        assert "3 simulated" in text
        assert "workers 4" in text
        assert "7 hits / 3 misses" in text

    def test_summary_reports_event_rate(self):
        stats = ExecutionStats(
            workers=2,
            total_points=4,
            executed=4,
            wall_seconds=2.0,
            events_processed=50_000,
        )
        text = format_execution_summary(stats)
        assert "50000 events" in text
        assert "25,000/s" in text
        assert stats.events_per_second == 25_000.0

    def test_zero_events_omitted_from_summary(self):
        stats = ExecutionStats(workers=1, total_points=1, executed=0)
        assert "events" not in format_execution_summary(stats)


class TestTimelineExport:
    def points_with_timeline(self):
        settings = quick_settings()
        settings = SimulationSettings(
            cycles=settings.cycles,
            warmup=settings.warmup,
            config=settings.config,
            seed=settings.seed,
            timeline_window=100,
        )
        return [
            SweepPoint(topo, "hotspot:0", rate, settings)
            for topo in ("ring8", "spidergon8")
            for rate in (0.05, 0.1)
        ]

    def test_runner_exports_timeline_when_requested(self):
        results, _ = execute_points(
            self.points_with_timeline(), workers=1
        )
        for result in results:
            timeline = result.extra["timeline"]
            assert timeline["window"] == 100
            assert timeline["cycles"] == 600
            assert timeline["links"]

    def test_serial_and_parallel_timelines_identical(self):
        # The exported timeline is part of the result payload, so the
        # serial/parallel equivalence guarantee covers it too.
        points = self.points_with_timeline()
        serial, _ = execute_points(points, workers=1)
        parallel, _ = execute_points(points, workers=2)
        assert [r.extra["timeline"] for r in parallel] == [
            r.extra["timeline"] for r in serial
        ]

    def test_timeline_survives_cache_round_trip(self, tmp_path):
        points = self.points_with_timeline()[:1]
        cache = ResultCache(tmp_path / "cache")
        first, stats1 = execute_points(points, cache=cache)
        again, stats2 = execute_points(points, cache=cache)
        assert stats1.cache_misses == 1
        assert stats2.cache_hits == 1
        assert again[0].extra["timeline"] == first[0].extra["timeline"]

    def test_window_changes_cache_key(self):
        base = self.points_with_timeline()[0]
        other = SweepPoint(
            base.topology,
            base.pattern,
            base.rate,
            SimulationSettings(
                cycles=base.settings.cycles,
                warmup=base.settings.warmup,
                config=base.settings.config,
                seed=base.settings.seed,
                timeline_window=200,
            ),
        )
        assert point_key(base) != point_key(other)


def reference_point_key(point: SweepPoint) -> str:
    """The key formula every stored result is filed under, written
    with ``dataclasses.asdict``; :func:`point_key` must match it byte
    for byte or every existing store would miss."""
    settings = dataclasses.asdict(point.settings)
    del settings["engine"]
    payload = {
        "topology": point.topology,
        "pattern": point.pattern,
        "rate": canonical_rate(point.rate),
        "settings": settings,
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def random_point(rng: random.Random) -> SweepPoint:
    def maybe(value):
        return value if rng.random() < 0.5 else None

    plan = None
    if rng.random() < 0.5:
        events = []
        for link in range(rng.randrange(4)):
            fail = rng.randrange(1, 5000)
            events.append(FaultEvent(fail, link, link + 1))
            if rng.random() < 0.5:
                events.append(FaultEvent(
                    fail + rng.randrange(1, 5000), link, link + 1, "repair"
                ))
        plan = FaultPlan(tuple(events))
    config = NocConfig(
        packet_size_flits=rng.randrange(1, 9),
        input_buffer_flits=rng.randrange(1, 5),
        output_buffer_flits=rng.randrange(1, 5),
        link_delay=rng.randrange(1, 4),
        num_vcs=maybe(rng.randrange(1, 5)),
        source_queue_packets=maybe(rng.randrange(1, 65)),
        router_pipeline=rng.random() < 0.5,
    )
    settings = SimulationSettings(
        cycles=rng.randrange(100, 30_000),
        warmup=rng.randrange(0, 100),
        config=config,
        seed=rng.randrange(2**63),
        timeline_window=maybe(rng.randrange(1, 1000)),
        fault_plan=plan,
        stall_cycles=maybe(rng.randrange(1, 5000)),
        invariant_check_interval=rng.choice([0, rng.randrange(1, 900)]),
        engine=rng.choice([None, "heap", "wheel", "batched"]),
    )
    return SweepPoint(
        rng.choice(["ring8", "spidergon16", "mesh4x4:xy", "mesh3d4x4x4"]),
        rng.choice(["uniform", "hotspot:0", "hotspot:0,8", "transpose"]),
        rng.choice([0.1, 1, rng.random(), rng.uniform(0, 1e-9)]),
        settings,
    )


class TestPointKeyFormat:
    """Keys address every ``.repro-cache`` and serve store already on
    disk, so their bytes may never change."""

    def test_golden_digests(self):
        default = SweepPoint(
            "spidergon16", "uniform", 0.1, SimulationSettings()
        )
        watched = SweepPoint(
            "mesh4x4", "hotspot:0", 0.05,
            SimulationSettings(
                cycles=3000, warmup=500, seed=7, timeline_window=100,
                stall_cycles=2000, invariant_check_interval=500,
            ),
        )
        faulted = SweepPoint(
            "ring8", "uniform", 0.2,
            SimulationSettings(
                cycles=5000, warmup=1000, seed=11,
                fault_plan=FaultPlan((
                    FaultEvent(1000, 2, 3),
                    FaultEvent(3000, 2, 3, "repair"),
                )),
            ),
        )
        assert [point_key(p) for p in (default, watched, faulted)] == [
            "ddec1edf547bf2c98a3a5368388c29612c6be63e40210c6f9410c10afb962e0c",
            "89f429bf36cce92a1c4d648d6d8a39b7623265beedccba98c487e8dad9c199a4",
            "be527811b11c2bf5927498267f7a8660cc495ab129459c6ab92112e00a2babd7",
        ]

    def test_matches_the_asdict_formula(self):
        rng = random.Random(2006)
        for _ in range(500):
            point = random_point(rng)
            assert point_key(point) == reference_point_key(point), point


class TestCanonicalRate:
    """derive_seed and point_key must agree on one rate spelling.

    Historically derive_seed formatted rates with ``.6g`` while
    point_key used ``repr`` — two rates differing only past the sixth
    significant digit collided to one seed while keying two cache
    entries.  Both now go through :func:`canonical_rate`.
    """

    # Distinct floats, identical under the old "%.6g" formatting.
    COLLIDING = (0.1234567, 0.1234568)

    def test_colliding_rates_get_distinct_seeds(self):
        low, high = self.COLLIDING
        assert f"{low:.6g}" == f"{high:.6g}"  # the old collision
        assert derive_seed(1, "ring8", "uniform", low) != derive_seed(
            1, "ring8", "uniform", high
        )

    def test_colliding_rates_get_distinct_keys(self):
        low, high = self.COLLIDING
        points = [
            SweepPoint("ring8", "uniform", rate, quick_settings())
            for rate in self.COLLIDING
        ]
        assert point_key(points[0]) != point_key(points[1])

    def test_sweep_rates_keep_their_historical_spelling(self):
        # repr and .6g agree on every rate the paper sweeps use, so
        # canonicalising did not silently reseed existing campaigns.
        for rate in (0.05, 0.1, 0.2, 0.3, 0.4, 0.6):
            assert canonical_rate(rate) == f"{rate:.6g}"

    def test_int_rate_matches_equal_float(self):
        assert canonical_rate(1) == canonical_rate(1.0)
        assert derive_seed(1, "ring8", "uniform", 1) == derive_seed(
            1, "ring8", "uniform", 1.0
        )


class TestCampaignManifestResume:
    """Latest-entry-wins resume semantics of the JSONL manifest."""

    _OK = object()  # manifest_entry only checks for FailedResult

    def point(self, rate=0.1):
        return SweepPoint("ring8", "uniform", rate, quick_settings())

    def failed(self, point, attempts=2):
        return FailedResult(
            topology=point.topology,
            pattern=point.pattern,
            rate=point.rate,
            seed=point.settings.seed,
            error="timeout",
            detail="deadline of 0.5s exceeded",
            attempts=attempts,
        )

    def test_ok_then_failed_means_not_completed(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        point = self.point()
        manifest.record(point, self._OK, cached=False, key=point_key(point))
        manifest.record(
            point, self.failed(point), cached=False, key=point_key(point)
        )
        assert manifest.completed_keys() == set()
        (failure,) = manifest.failures()
        assert failure["key"] == point_key(point)
        assert failure["error"] == "timeout"
        assert failure["attempts"] == 2

    def test_failed_then_ok_means_completed(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        point = self.point()
        manifest.record(
            point, self.failed(point), cached=False, key=point_key(point)
        )
        manifest.record(point, self._OK, cached=False, key=point_key(point))
        assert manifest.completed_keys() == {point_key(point)}
        assert manifest.failures() == []

    def test_mixed_keys_resolve_independently(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        healthy = self.point(0.05)
        flaky = self.point(0.1)
        doomed = self.point(0.2)
        manifest.record(
            healthy, self._OK, cached=False, key=point_key(healthy)
        )
        manifest.record(
            flaky, self.failed(flaky), cached=False, key=point_key(flaky)
        )
        manifest.record(
            doomed, self.failed(doomed), cached=False, key=point_key(doomed)
        )
        manifest.record(
            flaky, self._OK, cached=False, key=point_key(flaky)
        )  # retried fine
        assert manifest.completed_keys() == {
            point_key(healthy),
            point_key(flaky),
        }
        (failure,) = manifest.failures()
        assert failure["key"] == point_key(doomed)

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        point = self.point()
        manifest.record(point, self._OK, cached=False, key=point_key(point))
        with manifest.path.open("a") as handle:
            handle.write('{"key": "abc", "status": "o')  # died mid-write
        assert len(manifest.entries()) == 1
        assert manifest.completed_keys() == {point_key(point)}
        # A resumed campaign appends after the torn line; the repaired
        # log still parses (the torn fragment stays skipped).
        with manifest.path.open("a") as handle:
            handle.write("\n")
        other = self.point(0.3)
        manifest.record(other, self._OK, cached=False, key=point_key(other))
        assert manifest.completed_keys() == {
            point_key(point),
            point_key(other),
        }

    def test_blank_lines_and_missing_file_are_harmless(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        assert manifest.entries() == []
        assert manifest.completed_keys() == set()
        assert manifest.failures() == []
        point = self.point()
        manifest.record(point, self._OK, cached=False, key=point_key(point))
        with manifest.path.open("a") as handle:
            handle.write("\n\n")
        manifest.record(
            point, self.failed(point), cached=False, key=point_key(point)
        )
        assert len(manifest.entries()) == 2
        assert manifest.completed_keys() == set()
