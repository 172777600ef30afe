"""Tests for the content-addressed result store."""

import json

import pytest

from repro.experiments.parallel import (
    ResultCache,
    execute_points,
    point_key,
)
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.noc.config import NocConfig
from repro.serve.store import ResultStore


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


def run_point(point):
    (result,), _ = execute_points([point])
    return result


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        point = quick_point()
        result = run_point(point)
        key = point_key(point)
        assert store.get(key) is None
        assert key not in store
        store.put(key, result)
        assert store.get(key) == result
        assert key in store
        assert store.keys() == {key}
        assert len(store) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        point = quick_point()
        store.put(point_key(point), run_point(point))
        store.path_for(point_key(point)).write_text("{not json")
        assert store.get(point_key(point)) is None

    def test_get_dict_serves_raw_payload(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        point = quick_point()
        result = run_point(point)
        store.put(point_key(point), result)
        payload = store.get_dict(point_key(point))
        assert payload == result.to_dict()
        assert store.get_dict("no-such-key") is None

    def test_missing_directory_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.keys() == set()
        assert len(store) == 0
        assert store.get("anything") is None

    def test_only_point_keys_name_entries(self, tmp_path):
        """A key that is not 64 lowercase hex digits never becomes a
        path: reads miss, even where the path it would name exists,
        and a write is refused."""
        store = ResultStore(tmp_path / "store")
        result = run_point(quick_point())
        (tmp_path / "secret.json").write_text(json.dumps(result.to_dict()))
        store.put("a" * 64, result)
        for key in (
            "../secret", "A" * 64, "a" * 63, "a" * 65, "g" * 64,
            "a" * 63 + "/", "", "no-such-key",
        ):
            assert store.get(key) is None, key
            assert store.get_dict(key) is None, key
            assert key not in store, key
            with pytest.raises(ValueError, match="not a point key"):
                store.put(key, result)
        assert store.keys() == {"a" * 64}

    def test_overwrite_replaces_entry(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        point = quick_point()
        result = run_point(point)
        store.put(point_key(point), result)
        store.put(point_key(point), result)
        assert len(store) == 1
        assert store.get(point_key(point)) == result


class TestResultCacheCompatibility:
    """The sweep cache and the serve store share one on-disk layout."""

    def test_cache_writes_are_store_readable(self, tmp_path):
        cache = ResultCache(tmp_path / "shared")
        point = quick_point()
        result = run_point(point)
        cache.put(point, result)
        store = ResultStore(tmp_path / "shared")
        assert store.get(point_key(point)) == result

    def test_store_writes_are_cache_readable(self, tmp_path):
        store = ResultStore(tmp_path / "shared")
        point = quick_point()
        result = run_point(point)
        store.put(point_key(point), result)
        cache = ResultCache(tmp_path / "shared")
        assert cache.get(point) == result

    def test_cache_exposes_its_store(self, tmp_path):
        cache = ResultCache(tmp_path / "shared")
        assert isinstance(cache.store, ResultStore)
        assert cache.directory == tmp_path / "shared"
