"""Tests for the asyncio job layer: dedupe tiers and single-flight.

The pool-backed tests spawn real worker processes, so they carry the
``chaos`` marker like the executor's pool tests.
"""

import asyncio
import json

import pytest

from repro.experiments.parallel import (
    FailedResult,
    execute_points,
    point_key,
)
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.noc.config import NocConfig
from repro.resilience.chaos import ENV_VAR
from repro.serve.jobs import JobManager
from repro.serve.store import ResultStore


def quick_point(rate=0.05, seed=2, topology="ring8"):
    return SweepPoint(
        topology=topology,
        pattern="uniform",
        rate=rate,
        settings=SimulationSettings(
            cycles=400,
            warmup=100,
            config=NocConfig(source_queue_packets=8),
            seed=seed,
        ),
    )


def make_jobs(tmp_path, **kwargs):
    return JobManager(ResultStore(tmp_path / "store"), **kwargs)


class TestValidation:
    def test_rejects_bad_workers(self, tmp_path):
        with pytest.raises(ValueError):
            make_jobs(tmp_path, workers=0)

    def test_rejects_bad_timeout(self, tmp_path):
        with pytest.raises(ValueError):
            make_jobs(tmp_path, timeout=0)

    def test_rejects_bad_retries(self, tmp_path):
        with pytest.raises(ValueError):
            make_jobs(tmp_path, retries=-1)


@pytest.mark.chaos
class TestDedupeTiers:
    def test_store_hit_skips_simulation(self, tmp_path):
        jobs = make_jobs(tmp_path)
        point = quick_point()
        (expected,), _ = execute_points([point])
        jobs.store.put(point_key(point), expected)
        try:
            result, source = asyncio.run(jobs.result_for(point))
        finally:
            jobs.close()
        assert source == "store"
        assert result == expected
        assert jobs.stats.store_hits == 1
        assert jobs.stats.simulated == 0

    def test_simulation_matches_batch_executor(self, tmp_path):
        """A served point is byte-identical to the same point run by
        execute_points — the dedupe key really is content-addressed."""
        jobs = make_jobs(tmp_path)
        point = quick_point()
        (expected,), _ = execute_points([point])
        try:
            result, source = asyncio.run(jobs.result_for(point))
        finally:
            jobs.close()
        assert source == "simulated"
        assert result == expected
        assert jobs.store.get(point_key(point)) == expected

    def test_concurrent_requests_coalesce_to_one_simulation(
        self, tmp_path
    ):
        jobs = make_jobs(tmp_path)
        point = quick_point()

        async def submit_many():
            return await asyncio.gather(
                *(jobs.result_for(point) for _ in range(5))
            )

        try:
            outcomes = asyncio.run(submit_many())
        finally:
            jobs.close()
        sources = sorted(source for _, source in outcomes)
        assert sources.count("simulated") == 1
        assert sources.count("coalesced") == 4
        assert jobs.stats.simulated == 1
        assert jobs.stats.coalesced == 4
        results = {
            json.dumps(result.to_dict(), sort_keys=True)
            for result, _ in outcomes
        }
        assert len(results) == 1  # everyone got the same payload

    def test_a_miss_reads_the_store_once(self, tmp_path):
        jobs = make_jobs(tmp_path)
        reads = []
        get = jobs.store.get
        jobs.store.get = lambda key: reads.append(key) or get(key)
        point = quick_point()
        try:
            _, source = asyncio.run(jobs.result_for(point))
        finally:
            jobs.close()
        assert source == "simulated"
        assert reads == [point_key(point)]

    def test_claim_after_a_miss_joins_a_flight_that_lands_first(
        self, tmp_path
    ):
        """The coalesce-or-simulate choice is made when the claim is
        made, so a flight that stores its result and retires before
        the claimed awaitable first runs is still joined, not run a
        second time."""
        jobs = make_jobs(tmp_path)
        point = quick_point()
        key = point_key(point)

        async def late_claim():
            first = asyncio.ensure_future(jobs.result_for(point))
            await asyncio.sleep(0)  # the first request is in flight
            assert jobs.lookup(key) is None
            claimed = jobs.claim(point, key)
            await first  # the flight stores its result and retires
            assert jobs.inflight_keys == set()
            return await first, await claimed

        try:
            (r1, s1), (r2, s2) = asyncio.run(late_claim())
        finally:
            jobs.close()
        assert (s1, s2) == ("simulated", "coalesced")
        assert r1 == r2
        assert jobs.stats.simulated == 1
        assert jobs.stats.points == 2

    def test_sequential_requests_hit_the_store(self, tmp_path):
        jobs = make_jobs(tmp_path)
        point = quick_point()

        async def twice():
            first = await jobs.result_for(point)
            second = await jobs.result_for(point)
            return first, second

        try:
            (r1, s1), (r2, s2) = asyncio.run(twice())
        finally:
            jobs.close()
        assert (s1, s2) == ("simulated", "store")
        assert r1 == r2
        assert jobs.stats.simulated == 1

    def test_distinct_points_each_simulate(self, tmp_path):
        jobs = make_jobs(tmp_path, workers=2)
        points = [quick_point(0.05), quick_point(0.1)]

        async def both():
            return await asyncio.gather(
                *(jobs.result_for(p) for p in points)
            )

        try:
            outcomes = asyncio.run(both())
        finally:
            jobs.close()
        assert [source for _, source in outcomes] == [
            "simulated",
            "simulated",
        ]
        assert jobs.stats.simulated == 2


@pytest.mark.chaos
class TestFailures:
    def test_model_error_becomes_failed_result_and_is_not_stored(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"match": ":0.05", "mode": "error"})
        )
        jobs = make_jobs(tmp_path)
        point = quick_point()
        try:
            result, source = asyncio.run(jobs.result_for(point))
        finally:
            jobs.close()
        assert source == "simulated"
        assert isinstance(result, FailedResult)
        assert result.error == "error"
        assert jobs.stats.failed == 1
        assert len(jobs.store) == 0  # failures never persist
        assert jobs.inflight_keys == set()

    def test_failure_resolves_coalesced_waiters(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"match": ":0.05", "mode": "error"})
        )
        jobs = make_jobs(tmp_path)
        point = quick_point()

        async def both():
            return await asyncio.gather(
                jobs.result_for(point), jobs.result_for(point)
            )

        try:
            outcomes = asyncio.run(both())
        finally:
            jobs.close()
        assert all(
            isinstance(result, FailedResult)
            for result, _ in outcomes
        )
        assert jobs.stats.simulated == 1
        assert jobs.stats.failed == 2  # owner + coalesced waiter

    def test_retry_recovers_with_once_dir(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR,
            json.dumps(
                {
                    "match": ":0.05",
                    "mode": "error",
                    "once_dir": str(tmp_path / "once"),
                }
            ),
        )
        (tmp_path / "once").mkdir()
        jobs = make_jobs(tmp_path, retries=1)
        point = quick_point()
        try:
            result, source = asyncio.run(jobs.result_for(point))
        finally:
            jobs.close()
        assert source == "simulated"
        assert result.ok
        assert jobs.stats.failed == 0

    def test_crash_rebuilds_pool_and_reports_crash(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"match": ":0.05", "mode": "crash"})
        )
        jobs = make_jobs(tmp_path)
        point = quick_point()

        async def crash_then_recover():
            failed, _ = await jobs.result_for(point)
            monkeypatch.delenv(ENV_VAR)
            healthy, source = await jobs.result_for(point)
            return failed, healthy, source

        try:
            failed, healthy, source = asyncio.run(
                crash_then_recover()
            )
        finally:
            jobs.close()
        assert isinstance(failed, FailedResult)
        assert failed.error == "crash"
        # The replacement pool serves the next request normally.
        assert healthy.ok and source == "simulated"


@pytest.mark.chaos
class TestTimeouts:
    """An expired deadline terminates the hung worker with the pool,
    so later points run on a fresh worker instead of behind it."""

    def hang(self, monkeypatch):
        monkeypatch.setenv(
            ENV_VAR,
            json.dumps({"match": ":0.05", "mode": "hang", "seconds": 60}),
        )

    def test_point_after_a_timeout_runs_at_once(
        self, tmp_path, monkeypatch
    ):
        import time

        self.hang(monkeypatch)
        jobs = make_jobs(tmp_path, workers=1, timeout=1.0)

        async def hung_then_healthy():
            hung, _ = await jobs.result_for(quick_point(0.05))
            start = time.monotonic()
            healthy, _ = await jobs.result_for(quick_point(0.1))
            return hung, healthy, time.monotonic() - start

        try:
            hung, healthy, elapsed = asyncio.run(hung_then_healthy())
        finally:
            jobs.close()
        assert isinstance(hung, FailedResult)
        assert hung.error == "timeout"
        assert healthy.ok
        assert elapsed < 0.5
        assert jobs.stats.timeouts == 1
        assert jobs.stats.pool_rebuilds == 1

    def test_retry_of_a_hung_point_runs_on_a_fresh_worker(
        self, tmp_path, monkeypatch
    ):
        import time

        self.hang(monkeypatch)
        jobs = make_jobs(tmp_path, workers=1, timeout=1.0, retries=1)
        start = time.monotonic()
        try:
            result, _ = asyncio.run(jobs.result_for(quick_point(0.05)))
        finally:
            jobs.close()
        elapsed = time.monotonic() - start
        assert isinstance(result, FailedResult)
        assert result.error == "timeout"
        assert result.attempts == 2
        assert 2.0 <= elapsed < 3.5
        assert jobs.stats.timeouts == 2
        assert jobs.stats.retried == 1
        assert jobs.stats.pool_rebuilds == 2
