"""Parallel sweep execution: process-pool fan-out and result caching.

Every sweep point of a campaign or figure is independent of every
other, so the cross product can fan out across worker processes.  Two
rules keep the output bit-identical to a serial run:

* **Seeds belong to coordinates.**  A point's RNG seed is part of its
  :class:`~repro.experiments.runner.SweepPoint` (derived from the
  root seed and the point's own (topology, pattern, rate) by
  :func:`derive_seed`), never from the order points happen to run in.
* **Workers rebuild from plain data.**  A point carries spec strings
  and a settings dataclass; :func:`run_sweep_point` re-parses them in
  the worker, so no live simulator state crosses a process boundary.

The optional :class:`ResultCache` stores finished
:class:`~repro.stats.summary.RunResult` objects as JSON keyed by a
stable hash of (topology, pattern, rate, seed, settings); re-runs and
overlapping campaigns skip points that are already computed.

**Crash tolerance.**  In hardened mode (any of ``timeout`` /
``retries`` / ``manifest``), :func:`execute_points` retries failed
points and then records them as :class:`FailedResult` placeholders
instead of sinking the sweep, and appends every outcome to a JSONL
:class:`CampaignManifest`, the campaign's outcome history.  Pool
runs go through :mod:`repro.experiments.executor`, the core the
campaign server uses too.  Serial sweeps never import
:mod:`asyncio`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time
import traceback
from typing import Callable, Hashable, Mapping, Sequence, Union

from repro.experiments.runner import SweepPoint, run_simulation
from repro.experiments.specs import parse_pattern, parse_topology_routing
from repro.resilience.chaos import apply_chaos
from repro.serve.store import ResultStore
from repro.stats.summary import RunResult

#: What a hardened sweep yields per point.
PointResult = Union[RunResult, "FailedResult"]

#: Signature of the incremental-result callback:
#: ``on_result(index, point, result, cached)``.
ResultCallback = Callable[[int, SweepPoint, "PointResult", bool], None]


def canonical_rate(rate: float) -> str:
    """The one canonical string form of an injection rate.

    ``repr(float(rate))`` is the shortest string that round-trips to
    the exact float, so distinct rates always canonicalize to
    distinct strings, and :func:`derive_seed` and :func:`point_key`
    agree on them.
    """
    return repr(float(rate))


def derive_seed(
    root_seed: int, topology: str, pattern: str, rate: float
) -> int:
    """Seed for one sweep point, a pure function of its coordinates.

    Hashing (root seed, topology, pattern, rate) gives every point an
    independent stream while keeping the whole sweep reproducible from
    the single root seed — and, crucially, makes the seed independent
    of the order in which points execute.
    """
    text = (
        f"{root_seed}|{topology}|{pattern}|{canonical_rate(rate)}"
    )
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: Field names per dataclass type, in definition order, as
#: :func:`dataclasses.fields` lists them; filled on first use.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

_SCALARS = frozenset({int, float, str, bool, type(None)})


def _plain(value):
    """*value* as :func:`dataclasses.asdict` would render it for JSON:
    dataclasses become dicts of their fields, tuples and lists become
    lists.  Builds only the new containers; nothing is deep-copied."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if isinstance(value, (tuple, list)):
            return [_plain(item) for item in value]
        if not dataclasses.is_dataclass(value):
            return value
        names = _FIELD_NAMES[cls] = tuple(
            field.name for field in dataclasses.fields(value)
        )
    return {name: _plain(getattr(value, name)) for name in names}


def point_key(point: SweepPoint) -> str:
    """Stable cache key: sha256 over the point's canonical JSON form.

    Includes every parameter that decides the result (the settings
    dataclass, and with it the seed), so two points collide only if
    they would run the exact same simulation.  The engine is left
    out: every engine gives a byte-identical result, so a point
    stored under one engine is a hit under any other.  This is also
    the address of the point's entry in the content-addressed
    :class:`~repro.serve.store.ResultStore`: 64 lowercase hex digits.

    The JSON is ``dataclasses.asdict`` of the settings, minus the
    engine, dumped with sorted keys; it is built field by field
    rather than through ``asdict``'s deep copies, and the digests are
    the same.  Compute a point's key once and pass it on.
    """
    settings = _plain(point.settings)
    del settings["engine"]
    payload = {
        "topology": point.topology,
        "pattern": point.pattern,
        "rate": canonical_rate(point.rate),
        "settings": settings,
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Point-keyed view over a content-addressed result store.

    The directory is a :class:`~repro.serve.store.ResultStore`, so a
    ``.repro-cache`` written by a campaign and a server's store are
    interchangeable, and results dedupe across them.
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.store = ResultStore(directory)

    @property
    def directory(self) -> pathlib.Path:
        return self.store.directory

    def _path(self, point: SweepPoint) -> pathlib.Path:
        return self.store.path_for(point_key(point))

    def get(self, point: SweepPoint) -> RunResult | None:
        """The cached result for *point*, or None on a miss.

        A torn or unreadable entry counts as a miss: the point simply
        re-runs and overwrites it.
        """
        return self.store.get(point_key(point))

    def put(self, point: SweepPoint, result: RunResult) -> None:
        """Store *result*; atomic rename so readers never see a torn file."""
        self.store.put(point_key(point), result)


@dataclasses.dataclass(slots=True)
class FailedResult:
    """Placeholder for a point that failed after every retry.

    Carries the point's coordinates so reports and manifests can name
    the casualty; deliberately *not* a :class:`RunResult` — consumers
    that compute statistics must filter these out (``isinstance`` or
    :attr:`ok`), and the CSV persistence layer never writes a row for
    one, so the campaign's next run re-runs the point.

    Attributes:
        topology / pattern / rate / seed: The point's coordinates.
        error: Failure class — ``"timeout"``, ``"crash"`` (worker
            process died) or ``"error"`` (exception in the model).
        detail: Human-readable specifics (exception text, deadline).
        attempts: Total attempts made, including the first.

    Both result types answer :attr:`ok`, so consumers can filter a
    mixed list without importing either class.
    """

    topology: str
    pattern: str
    rate: float
    seed: int
    error: str
    detail: str = ""
    attempts: int = 1

    #: Discriminator usable on RunResult and FailedResult alike.
    ok = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FailedResult":
        return cls(**data)


def manifest_entry(
    point: SweepPoint, result: "PointResult", cached: bool, key: str
) -> dict:
    """One :class:`CampaignManifest` line as a dict.

    Shared vocabulary between the on-disk manifest and the campaign
    server's streamed progress: the server emits exactly these
    entries (plus a ``source`` annotation) as chunked JSONL, so a
    captured stream is itself a loadable manifest.  *key* is the
    point's :func:`point_key`.
    """
    entry = {
        "key": key,
        "topology": point.topology,
        "pattern": point.pattern,
        "rate": point.rate,
        "seed": point.settings.seed,
        "cached": cached,
    }
    if isinstance(result, FailedResult):
        entry["status"] = "failed"
        entry["error"] = result.error
        entry["detail"] = result.detail
        entry["attempts"] = result.attempts
    else:
        entry["status"] = "ok"
    return entry


class CampaignManifest:
    """Append-only JSONL log of per-point outcomes.

    One :func:`manifest_entry` line per settled point: the outcome
    history of a hardened campaign, kept across its runs.  ``ok``
    lines record successes; ``failed`` lines document casualties,
    which the next run re-attempts since they have no CSV row (the
    CSV, not the manifest, decides what is outstanding).  Appends
    are line-atomic on POSIX, a torn final line (a process that died
    mid-write) is skipped on load, and where entries share a key the
    **latest entry wins**.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)

    def record(
        self, point: SweepPoint, result: "PointResult", cached: bool, key: str
    ) -> None:
        """Append the outcome of *point*, whose :func:`point_key` is
        *key*."""
        entry = manifest_entry(point, result, cached, key)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(entry) + "\n")

    def entries(self) -> list[dict]:
        """Every parseable entry, oldest first."""
        if not self.path.exists():
            return []
        entries = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn trailing line from a dead process
        return entries

    def _latest(self) -> dict[str, dict]:
        return {entry.get("key", ""): entry for entry in self.entries()}

    def completed_keys(self) -> set[str]:
        """Keys whose *latest* entry is ``ok``."""
        return {
            key
            for key, entry in self._latest().items()
            if entry.get("status") == "ok"
        }

    def failures(self) -> list[dict]:
        """Entries whose latest status is ``failed``."""
        return [
            entry
            for entry in self._latest().values()
            if entry.get("status") == "failed"
        ]


@dataclasses.dataclass(slots=True)
class ExecutionStats:
    """What one :func:`execute_points` call did, for reporting.

    Attributes:
        workers: Worker processes requested (1 = in-process serial).
        total_points: Points handed in.
        executed: Points actually simulated (cache misses).
        cache_hits / cache_misses: Cache outcomes; both stay 0 when no
            cache was configured.
        wall_seconds: Wall-clock time of the whole call.
        events_processed: Kernel events of the points actually
            simulated, for the summary's events/sec.
        failed: Points that ended as :class:`FailedResult`.
        timeouts: Attempts that ran past their deadline (every
            attempt counts, so this can exceed ``failed`` when
            retries eventually succeed).
        crashes: Worker processes that died.  A crash beside other
            running points charges none of them; each reruns alone
            until one crashes again.
        retried: Re-submissions after a failed attempt.
        pool_rebuilds: Times the process pool was torn down and
            rebuilt (crash or unkillable hung worker).
    """

    workers: int
    total_points: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    events_processed: int = 0
    failed: int = 0
    timeouts: int = 0
    crashes: int = 0
    retried: int = 0
    pool_rebuilds: int = 0

    @property
    def events_per_second(self) -> float:
        """Aggregate simulated events per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds


def run_sweep_point(point: SweepPoint) -> RunResult:
    """Rebuild the model objects from *point* and run the simulation.

    Module-level (not a closure) so :class:`ProcessPoolExecutor`
    workers can import it by qualified name.
    """
    topology, routing = parse_topology_routing(point.topology)
    pattern = parse_pattern(point.pattern, topology)
    return run_simulation(
        topology, pattern, point.rate, point.settings, routing=routing
    )


def point_descriptor(point: SweepPoint) -> str:
    """Human-readable point identity, also the chaos match target."""
    return f"{point.topology}:{point.pattern}:{point.rate:.6g}"


def guarded_run(point: SweepPoint) -> tuple[str, object]:
    """Worker entry of hardened mode, batch and serve alike: returns
    ``("ok", RunResult)`` or ``("error", traceback_text)``, so no
    exception has to survive the pickle boundary.  Also the
    :func:`repro.resilience.apply_chaos` hook site.
    """
    try:
        apply_chaos(point_descriptor(point))
        return "ok", run_sweep_point(point)
    except Exception:
        return "error", traceback.format_exc(limit=8)


def unguarded_run(point: SweepPoint) -> tuple[str, RunResult]:
    """Worker entry of fail-fast mode: :func:`guarded_run`'s return
    shape, but a model exception propagates as itself."""
    return "ok", run_sweep_point(point)


def check_options(
    workers: int, timeout: float | None, retries: int
) -> None:
    """Reject executor settings no run could honour."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")


def execute_points(
    points: Sequence[SweepPoint],
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    on_result: ResultCallback | None = None,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.0,
    manifest: CampaignManifest | None = None,
) -> tuple[list["PointResult"], ExecutionStats]:
    """Run every point, fanning out across *workers* processes.

    ``workers=1`` runs serially in-process, as does a lone
    outstanding point; otherwise the points go to a process pool,
    where points sharing a :func:`point_key` run once.  Results come
    back in input order, identical either way, since each point
    carries its own seed.

    Args:
        points: The sweep cells to run.
        workers: Process count; must be >= 1.
        cache: Optional result cache consulted before running and
            filled after; hits are never re-simulated.
        on_result: Optional callback invoked as each point finishes
            (in completion order under parallel execution) — the hook
            campaigns use for incremental CSV persistence.
        timeout: Per-point wall-clock deadline in seconds of run
            time.  Enforced by terminating the process pool, so
            setting it forces pool execution even with ``workers=1``.
        retries: Extra attempts per point after a failure.
        backoff: Seconds waited before re-submitting a failed point,
            multiplied by the attempt number.
        manifest: Optional JSONL outcome ledger, appended as each
            point settles.

    Any of *timeout* / *retries* / *manifest* selects **hardened
    mode**: failures become :class:`FailedResult` entries.  Without
    them the first failure raises, a model exception as itself.

    Returns:
        ``(results, stats)`` with ``results[i]`` belonging to
        ``points[i]``.
    """
    check_options(workers, timeout, retries)
    hardened = (
        timeout is not None or retries > 0 or manifest is not None
    )
    start = time.perf_counter()
    stats = ExecutionStats(workers=workers, total_points=len(points))
    results: list[PointResult | None] = [None] * len(points)

    def finish(index, key, point, result, cached: bool) -> None:
        results[index] = result
        if isinstance(result, FailedResult):
            stats.failed += 1
        elif not cached:
            stats.executed += 1
            stats.events_processed += result.events_processed
            if cache is not None:
                cache.store.put(key, result)
        if manifest is not None:
            manifest.record(point, result, cached, key)
        if on_result is not None:
            on_result(index, point, result, cached)

    # A point's key is computed once, when a cache needs it here or
    # the executor does; a serial sweep without a cache never needs it.
    pending: list[tuple[int, str | None, SweepPoint]] = []
    for index, point in enumerate(points):
        key = None
        if cache is not None:
            key = point_key(point)
            hit = cache.store.get(key)
            if hit is not None:
                stats.cache_hits += 1
                finish(index, key, point, hit, True)
                continue
            stats.cache_misses += 1
        pending.append((index, key, point))

    in_process = timeout is None and (
        workers == 1 or (len(pending) <= 1 and not hardened)
    )
    if in_process and not hardened:
        for index, key, point in pending:
            finish(index, key, point, run_sweep_point(point), False)
    elif pending:
        from repro.experiments.executor import run_points

        run_points(
            pending,
            finish,
            workers=workers,
            stats=stats,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            fail_fast=not hardened,
            in_process=in_process,
        )

    stats.wall_seconds = time.perf_counter() - start
    return results, stats  # type: ignore[return-value]


def rate_points(
    topology: str, pattern: str, rates, settings
) -> list[SweepPoint]:
    """One point per injection rate, same topology, pattern and
    settings."""
    return [
        SweepPoint(topology, pattern, float(rate), settings)
        for rate in rates
    ]


def sweep_series(
    series: Mapping[Hashable, Sequence[SweepPoint]], *, workers: int = 1
) -> dict[Hashable, list[RunResult]]:
    """Run every labelled series of points in one :func:`execute_points`
    fan-out and regroup the results by label, each list in the order
    of its points.  Each point carries its own settings, so a series
    may sweep rates, configurations, topologies or seeds alike."""
    flat = [point for points in series.values() for point in points]
    results, _ = execute_points(flat, workers=workers)
    grouped, start = {}, 0
    for label, points in series.items():
        grouped[label] = results[start:start + len(points)]
        start += len(points)
    return grouped
