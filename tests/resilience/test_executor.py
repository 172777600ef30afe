"""Tests for the crash-tolerant campaign executor.

The pool-recovery tests spawn real worker processes and misbehave via
the ``REPRO_CHAOS`` hook; they carry the ``chaos`` marker so a quick
suite run can deselect them (``-m "not chaos"``).
"""

import json

import pytest

from repro.experiments.campaign import Campaign
from repro.experiments.parallel import (
    CampaignManifest,
    FailedResult,
    execute_points,
    point_key,
)
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.noc.config import NocConfig
from repro.resilience.chaos import ENV_VAR, ChaosError, apply_chaos


def quick_point(rate=0.05, seed=2):
    return SweepPoint(
        topology="ring8",
        pattern="uniform",
        rate=rate,
        settings=SimulationSettings(
            cycles=400,
            warmup=100,
            config=NocConfig(source_queue_packets=8),
            seed=seed,
        ),
    )


def small_spec(**overrides):
    spec = {
        "name": "chaos-smoke",
        "cycles": 400,
        "warmup": 100,
        "seed": 4,
        "source_queue_packets": 8,
        "topologies": ["ring8"],
        "patterns": ["uniform"],
        "rates": [0.05, 0.1, 0.2],
    }
    spec.update(overrides)
    return spec


class TestFailedResult:
    def test_round_trip(self):
        failure = FailedResult(
            topology="ring8",
            pattern="uniform",
            rate=0.1,
            seed=7,
            error="timeout",
            detail="exceeded 2s deadline",
            attempts=3,
        )
        assert FailedResult.from_dict(failure.to_dict()) == failure

    def test_ok_discriminator(self):
        failure = FailedResult(
            topology="ring8",
            pattern="uniform",
            rate=0.1,
            seed=7,
            error="crash",
        )
        assert failure.ok is False


class TestCampaignManifest:
    def test_record_and_replay(self, tmp_path):
        manifest = CampaignManifest(tmp_path / "m.jsonl")
        point = quick_point()
        failure = FailedResult(
            topology=point.topology,
            pattern=point.pattern,
            rate=point.rate,
            seed=point.settings.seed,
            error="crash",
            attempts=2,
        )
        manifest.record(point, failure, cached=False, key=point_key(point))
        assert manifest.completed_keys() == set()
        assert len(manifest.failures()) == 1

        (result,), _ = execute_points([point])
        manifest.record(point, result, cached=False, key=point_key(point))
        assert manifest.completed_keys() == {point_key(point)}
        # The later ok entry supersedes the earlier failure.
        assert manifest.failures() == []

    def test_tolerates_torn_trailing_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        manifest = CampaignManifest(path)
        point = quick_point()
        (result,), _ = execute_points([point])
        manifest.record(point, result, cached=False, key=point_key(point))
        with path.open("a") as handle:
            handle.write('{"key": "torn')  # crashed mid-write
        assert CampaignManifest(path).completed_keys() == {
            point_key(point)
        }


class TestChaosHook:
    def test_noop_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        apply_chaos("ring8:uniform:0.1")

    def test_error_mode_raises_on_match(self, monkeypatch):
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"match": ":0.1", "mode": "error"})
        )
        apply_chaos("ring8:uniform:0.05")  # no match: silent
        with pytest.raises(ChaosError):
            apply_chaos("ring8:uniform:0.1")

    def test_match_selects_whole_fields(self, monkeypatch):
        for match, selected, spared in (
            (":0.1", "ring8:uniform:0.1", "ring8:uniform:0.15"),
            (":0.1", "ring8:uniform:0.1", "ring8:uniform:0.125"),
            ("ring8", "ring8:uniform:0.1", "ring80:uniform:0.1"),
            ("hotspot:0", "ring8:hotspot:0:0.1", "ring8:hotspot:0,4:0.1"),
            ("", "ring8:uniform:0.1", None),
        ):
            monkeypatch.setenv(
                ENV_VAR, json.dumps({"match": match, "mode": "error"})
            )
            with pytest.raises(ChaosError):
                apply_chaos(selected)
            if spared is not None:
                apply_chaos(spared)

    def test_rejects_bad_json(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "{not json")
        with pytest.raises(ValueError, match="invalid"):
            apply_chaos("x")

    def test_rejects_unknown_mode(self, monkeypatch):
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"match": "", "mode": "meltdown"})
        )
        with pytest.raises(ValueError, match="mode"):
            apply_chaos("x")

    def test_once_dir_strikes_once(self, monkeypatch, tmp_path):
        monkeypatch.setenv(
            ENV_VAR,
            json.dumps(
                {
                    "match": "",
                    "mode": "error",
                    "once_dir": str(tmp_path),
                }
            ),
        )
        with pytest.raises(ChaosError):
            apply_chaos("ring8:uniform:0.1")
        apply_chaos("ring8:uniform:0.1")  # second attempt behaves


class TestHardenedSerial:
    def test_error_exhausts_retries_into_failed_result(
        self, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"match": ":0.1", "mode": "error"})
        )
        points = [quick_point(0.05), quick_point(0.1)]
        results, stats = execute_points(points, retries=2)
        assert results[0].ok
        assert isinstance(results[1], FailedResult)
        assert results[1].error == "error"
        assert results[1].attempts == 3
        assert "ChaosError" in results[1].detail
        assert stats.failed == 1 and stats.retried == 2

    def test_retry_recovers_with_once_dir(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            ENV_VAR,
            json.dumps(
                {
                    "match": ":0.1",
                    "mode": "error",
                    "once_dir": str(tmp_path),
                }
            ),
        )
        results, stats = execute_points(
            [quick_point(0.1)], retries=1
        )
        assert results[0].ok
        assert stats.retried == 1 and stats.failed == 0

    def test_legacy_path_untouched_without_hardening(self):
        results, stats = execute_points([quick_point(0.05)])
        assert results[0].ok
        assert stats.failed == 0

    def test_manifest_ok_without_csv_row_gets_its_row(self, tmp_path):
        # A campaign killed between a point's manifest line and its
        # CSV row: the manifest says ok, the CSV lacks the row.  The
        # next run decides by the CSV and writes the row, from cache.
        csv_path = tmp_path / "out.csv"
        campaign = Campaign(small_spec())
        campaign.execute(csv_path, retries=1)
        header, *rows = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join([header, *rows[:-1]]) + "\n")
        lost = campaign.last_manifest.completed_keys()
        assert len(lost) == len(rows)
        rerun = Campaign(small_spec())
        results = rerun.execute(csv_path, retries=1)
        assert len(results) == 1 and results[0].ok
        assert rerun.last_stats.cache_hits == 1
        assert csv_path.read_text().splitlines() == [header, *rows]
        # The manifest keeps both runs' history.
        assert len(rerun.last_manifest.entries()) == len(rows) + 1


@pytest.mark.chaos
class TestHardenedPool:
    def test_crash_once_recovers(self, monkeypatch, tmp_path):
        monkeypatch.setenv(
            ENV_VAR,
            json.dumps(
                {
                    "match": ":0.1",
                    "mode": "crash",
                    "once_dir": str(tmp_path / "once"),
                }
            ),
        )
        (tmp_path / "once").mkdir()
        campaign = Campaign(small_spec())
        results = campaign.execute(
            tmp_path / "out.csv",
            workers=2,
            cache=False,
            timeout=60,
            retries=1,
        )
        assert len(results) == 3
        assert all(result.ok for result in results)
        stats = campaign.last_stats
        assert stats.crashes >= 1
        assert stats.pool_rebuilds >= 1
        # Every point is in the CSV: header + 3 rows.
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_crash_is_charged_to_its_own_point(self, monkeypatch):
        # The 0.1 point kills its worker on every attempt.  Points
        # running beside it rerun alone, so only 0.1 uses up retries.
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"match": ":0.1", "mode": "crash"})
        )
        rates = (0.05, 0.1, 0.15, 0.2, 0.3)
        results, stats = execute_points(
            [quick_point(rate=rate) for rate in rates],
            workers=2,
            retries=2,
        )
        failures = [(r.rate, r.error, r.attempts) for r in results
                    if not r.ok]
        assert failures == [(0.1, "crash", 3)]
        assert stats.failed == 1
        assert stats.retried == 2  # 0.1's retries, and no one else's
        # Three attempts alone, plus the first if others ran beside it.
        assert stats.crashes in (3, 4)

    def test_hang_times_out_into_failed_result(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            ENV_VAR,
            json.dumps(
                {"match": ":0.1", "mode": "hang", "seconds": 60}
            ),
        )
        campaign = Campaign(small_spec())
        results = campaign.execute(
            tmp_path / "out.csv",
            workers=2,
            cache=False,
            timeout=1.5,
            retries=0,
        )
        failures = [r for r in results if not r.ok]
        assert len(failures) == 1
        assert failures[0].error == "timeout"
        assert failures[0].rate == 0.1
        assert campaign.last_stats.timeouts == 1
        # The hung point got no CSV row; the healthy two did.
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_resume_completes_after_failure(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            ENV_VAR,
            json.dumps(
                {"match": ":0.1", "mode": "hang", "seconds": 60}
            ),
        )
        campaign = Campaign(small_spec())
        campaign.execute(
            tmp_path / "out.csv",
            workers=2,
            cache=False,
            timeout=1.5,
        )
        monkeypatch.delenv(ENV_VAR)
        rerun = Campaign(small_spec())
        results = rerun.execute(
            tmp_path / "out.csv",
            workers=2,
            cache=False,
            timeout=60,
        )
        # Only the failed point re-runs, and the campaign reaches 100%.
        assert len(results) == 1 and results[0].ok
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 4
        manifest = rerun.last_manifest
        assert manifest is not None
        statuses = {
            (entry["rate"], entry["status"])
            for entry in manifest.entries()
        }
        assert (0.1, "failed") in statuses
        assert (0.1, "ok") in statuses

    def test_hardened_rows_match_legacy_rows(self, tmp_path):
        legacy = Campaign(small_spec())
        legacy.execute(tmp_path / "legacy.csv", cache=False)
        hardened = Campaign(small_spec())
        hardened.execute(
            tmp_path / "hardened.csv",
            workers=2,
            cache=False,
            timeout=60,
            retries=1,
        )
        read = lambda p: sorted(p.read_text().splitlines())  # noqa: E731
        assert read(tmp_path / "legacy.csv") == read(
            tmp_path / "hardened.csv"
        )


@pytest.mark.chaos
class TestBackoffIsolation:
    """Backoff is a per-entry not-before window, not a global sleep.

    The old ``charge()`` slept ``backoff * attempts`` inline in the
    dispatcher thread, so one retrying point froze result handling —
    and timeout accounting — for every other in-flight point.  Now
    the retry just carries a not-before timestamp and the dispatcher
    keeps draining completions.
    """

    def test_retrying_point_does_not_stall_others(
        self, monkeypatch, tmp_path
    ):
        import time

        monkeypatch.setenv(
            ENV_VAR, json.dumps({"match": ":0.05", "mode": "error"})
        )
        flaky = quick_point(rate=0.05)
        healthy = quick_point(rate=0.1)
        start = time.monotonic()
        finished_at = {}

        def stamp(index, point, result, cached):
            finished_at[point.rate] = time.monotonic() - start

        results, stats = execute_points(
            [flaky, healthy],
            workers=2,
            timeout=60,
            retries=1,
            backoff=2.5,
            on_result=stamp,
        )
        elapsed = time.monotonic() - start
        # The flaky point exhausted its retry after the backoff window.
        assert isinstance(results[0], FailedResult)
        assert results[0].error == "error"
        assert results[0].attempts == 2
        assert elapsed >= 2.5  # the backoff really was honoured
        # The healthy point settled while the flaky one was backing
        # off.  Pre-fix, the inline sleep pushed this past 2.5s.
        assert results[1].ok
        assert finished_at[0.1] < 2.0
        assert stats.failed == 1
