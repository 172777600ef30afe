"""Content-addressed result store: one JSON file per point key.

The store is the dedupe substrate of the campaign server (and of the
older sweep :class:`~repro.experiments.parallel.ResultCache`, which
is now a thin point-hashing adapter over it).  Keys are the sha256
hex digests produced by
:func:`~repro.experiments.parallel.point_key` — a stable hash over a
point's canonical JSON form, covering topology, pattern, rate and the
settings dataclass (seed, fault plan, ... included) — but not the
engine, which never changes a result, so a point simulated under one
engine is served to a request naming any other.
Content addressing is what makes the serving layer's economics work:
a million submissions of the same (topology, pattern, rate, settings)
cell resolve to the same key, so at most one simulation ever runs and
every later request is a disk read.

Layout: ``<directory>/<key>.json`` holding a
:meth:`~repro.stats.summary.RunResult.to_dict` payload.  Writes go
through a per-process temp file and an atomic rename, so concurrent
writers (worker processes, multiple servers sharing a directory) and
crashed processes never leave a torn entry visible; a corrupt or
unreadable file reads as a miss and is simply overwritten by the next
simulation of that key.  The layout is byte-compatible with the
``.repro-cache`` directories earlier campaign runs wrote, so a server
can be pointed at an existing cache and serve it immediately.  (Keys
written before the engine left the key no longer match: such a store
misses once per point and is refilled under the new keys.)

Only finished :class:`~repro.stats.summary.RunResult` objects are
stored.  Failures are deliberately *not*: a
:class:`~repro.experiments.parallel.FailedResult` describes one
attempt's misfortune (a timeout, a dead worker), not a property of
the point, so persisting it would turn a transient fault into a
permanently cached wrong answer.
"""

from __future__ import annotations

import json
import os
import pathlib
import re

from repro.stats.summary import RunResult

__all__ = ["ResultStore"]

#: What :func:`~repro.experiments.parallel.point_key` returns.
_KEY = re.compile(r"[0-9a-f]{64}")


class ResultStore:
    """Directory of finished results, addressed by content key."""

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)

    def path_for(self, key: str) -> pathlib.Path:
        """Where *key*'s entry lives (whether or not it exists yet).

        Raises:
            ValueError: *key* is not a point key (64 lowercase hex
                digits), so a key can never name a path outside the
                store, such as ``../secret``.
        """
        if not _KEY.fullmatch(key):
            raise ValueError(f"not a point key: {key!r}")
        return self.directory / f"{key}.json"

    def get(self, key: str) -> RunResult | None:
        """The stored result for *key*, or None on a miss.

        A torn or unreadable entry, or a key that is not a point key,
        counts as a miss: the point simply re-runs and overwrites it.
        """
        data = self.get_dict(key)
        if data is None:
            return None
        return RunResult.from_dict(data)

    def get_dict(self, key: str) -> dict | None:
        """The raw JSON payload for *key*, or None on a miss.

        The server's ``GET /result/<key>`` endpoint serves this
        directly, skipping a decode/re-encode round trip.  A key that
        is not a point key is a miss.
        """
        try:
            data = json.loads(self.path_for(key).read_text())
        except (OSError, ValueError):  # also a bad key or torn JSON
            return None
        return data if isinstance(data, dict) else None

    def put(self, key: str, result: RunResult) -> None:
        """Store *result*; atomic rename so readers never see a torn
        file and concurrent writers of the same key converge on one
        valid entry (last rename wins; both wrote the same content)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(result.to_dict()))
        tmp.replace(path)

    def __contains__(self, key: str) -> bool:
        try:
            return self.path_for(key).exists()
        except ValueError:
            return False

    def keys(self) -> set[str]:
        """Every key with a stored entry (readability not checked)."""
        if not self.directory.is_dir():
            return set()
        return {
            path.stem
            for path in self.directory.glob("*.json")
        }

    def __len__(self) -> int:
        return len(self.keys())
