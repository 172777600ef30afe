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

**Crash tolerance.**  Passing any of ``timeout`` / ``retries`` /
``manifest`` to :func:`execute_points` switches it into hardened
mode: each point gets a wall-clock deadline, failures (worker
crashes, hung workers, model exceptions) are retried with backoff up
to ``retries`` times and then recorded as :class:`FailedResult`
placeholders instead of sinking the whole sweep, a crashed process
pool is rebuilt and the surviving points resubmitted, and every
outcome is appended to a JSONL :class:`CampaignManifest` that resumed
campaigns read back.  Without those arguments the original
fast path runs unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, Union

from repro.experiments.runner import SweepPoint, run_simulation
from repro.experiments.specs import (
    parse_pattern,
    parse_topology,
    parse_topology_routing,
)
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
    distinct strings.  Both :func:`derive_seed` and :func:`point_key`
    use it — they historically disagreed (``f"{rate:.6g}"`` vs
    ``repr``), which made two rates differing only past six
    significant digits share an RNG seed while still getting distinct
    cache keys.  For the fractional rates sweeps actually use
    (``0.05``, ``0.1``, ... — six or fewer significant digits, not
    integer-valued) the two spellings coincide, so unifying on
    ``repr`` left every existing seed (and every existing cache key)
    unchanged.
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


def point_key(point: SweepPoint) -> str:
    """Stable cache key: sha256 over the point's canonical JSON form.

    Includes every parameter that decides the result (the settings
    dataclass, and with it the seed), so two points collide only if
    they would run the exact same simulation.  The engine is left
    out: every engine gives a byte-identical result, so a point
    stored under one engine is a hit under any other.  This is also
    the address of the point's entry in the content-addressed
    :class:`~repro.serve.store.ResultStore`.
    """
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


class ResultCache:
    """Point-keyed view over a content-addressed result store.

    Historically this class owned the one-JSON-file-per-key directory
    itself; that mechanism now lives in
    :class:`~repro.serve.store.ResultStore` (the campaign server's
    dedupe substrate) and this adapter only computes
    :func:`point_key` hashes.  The on-disk layout is unchanged, so a
    ``.repro-cache`` directory written by either side is readable by
    both — point a server's store at a campaign's cache (or vice
    versa) and the results dedupe across them.
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
    one, so a resumed campaign re-runs the point.

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
    point: SweepPoint, result: "PointResult", cached: bool
) -> dict:
    """One :class:`CampaignManifest` line as a dict.

    Shared vocabulary between the on-disk manifest and the campaign
    server's streamed progress: the server emits exactly these
    entries (plus a ``source`` annotation) as chunked JSONL, so a
    captured stream is itself a loadable manifest.
    """
    entry = {
        "key": point_key(point),
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

    One line per finished attempt-group::

        {"key": ..., "topology": ..., "pattern": ..., "rate": ...,
         "status": "ok" | "failed", "cached": bool,
         "error": ..., "detail": ..., "attempts": ...}

    The manifest is the resume ledger of a hardened campaign: ``ok``
    lines mark points that need not re-run, ``failed`` lines document
    casualties (and are re-attempted on resume, since no CSV row
    exists for them).  Appends are line-atomic on POSIX, and a torn
    final line — possible if the process died mid-write — is skipped
    on load.  Where several entries share a key (a failure later
    retried, a resumed run re-recording a point), the **latest entry
    wins** in both :meth:`completed_keys` and :meth:`failures`.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)

    def record(
        self, point: SweepPoint, result: "PointResult", cached: bool
    ) -> None:
        """Append the outcome of *point*."""
        entry = manifest_entry(point, result, cached)
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

    def completed_keys(self) -> set[str]:
        """Keys whose *latest* entry is ``ok`` (resume support)."""
        latest: dict[str, str] = {}
        for entry in self.entries():
            latest[entry.get("key", "")] = entry.get("status", "")
        return {key for key, status in latest.items() if status == "ok"}

    def failures(self) -> list[dict]:
        """Entries whose latest status is ``failed``."""
        latest: dict[str, dict] = {}
        for entry in self.entries():
            latest[entry.get("key", "")] = entry
        return [
            entry
            for entry in latest.values()
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
        events_processed: Kernel events delivered by the points that
            were actually simulated (cache hits excluded) — with
            ``wall_seconds`` this gives the campaign-level events/sec
            the execution summary reports.
        failed: Points that ended as :class:`FailedResult`.
        timeouts / crashes: Failure attempts by class (every attempt
            counts, so these can exceed ``failed`` when retries
            eventually succeed).
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
    """Worker entry of hardened mode: never lets an exception cross
    the pickle boundary (some exception types don't survive it).

    Returns ``("ok", RunResult)`` or ``("error", traceback_text)``.
    Also the chaos hook site — :func:`repro.resilience.apply_chaos`
    is a no-op unless the ``REPRO_CHAOS`` variable is set.  The
    campaign server's persistent pool submits this same entry point,
    so server-side and batch workers share one failure contract.
    """
    try:
        apply_chaos(point_descriptor(point))
        return "ok", run_sweep_point(point)
    except Exception:
        return "error", traceback.format_exc(limit=8)


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

    ``workers=1`` runs serially in-process (no pool, no pickling);
    higher counts use a :class:`ProcessPoolExecutor`.  Results are
    returned in input order regardless of completion order, and are
    identical either way because each point carries its own seed.

    Args:
        points: The sweep cells to run.
        workers: Process count; must be >= 1.
        cache: Optional result cache consulted before running and
            filled after; hits are never re-simulated.
        on_result: Optional callback invoked as each point finishes
            (in completion order under parallel execution) — the hook
            campaigns use for incremental CSV persistence.
        timeout: Per-point wall-clock deadline in seconds.  Enforced
            through the process pool, so setting it forces pool
            execution even with ``workers=1``.
        retries: Extra attempts per point after a failure.
        backoff: Seconds slept before re-submitting a failed point,
            multiplied by the attempt number.
        manifest: Optional JSONL outcome ledger, appended as each
            point settles.

    Passing any of *timeout* / *retries* / *manifest* selects
    **hardened mode**: failures become :class:`FailedResult` entries
    in the result list instead of exceptions, and a broken process
    pool is rebuilt with the surviving points resubmitted.  Without
    them the original fail-fast path runs unchanged.

    Returns:
        ``(results, stats)`` with ``results[i]`` belonging to
        ``points[i]``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    hardened = (
        timeout is not None or retries > 0 or manifest is not None
    )
    start = time.perf_counter()
    stats = ExecutionStats(workers=workers, total_points=len(points))
    results: list[PointResult | None] = [None] * len(points)

    def finish(
        index: int,
        point: SweepPoint,
        result: "PointResult",
        cached: bool,
    ) -> None:
        results[index] = result
        if isinstance(result, FailedResult):
            stats.failed += 1
        elif not cached:
            stats.executed += 1
            stats.events_processed += result.events_processed
            if cache is not None:
                cache.put(point, result)
        if manifest is not None:
            manifest.record(point, result, cached)
        if on_result is not None:
            on_result(index, point, result, cached)

    pending: list[tuple[int, SweepPoint]] = []
    for index, point in enumerate(points):
        hit = cache.get(point) if cache is not None else None
        if hit is not None:
            stats.cache_hits += 1
            finish(index, point, hit, True)
        else:
            if cache is not None:
                stats.cache_misses += 1
            pending.append((index, point))

    if not hardened:
        if workers == 1 or len(pending) <= 1:
            for index, point in pending:
                finish(index, point, run_sweep_point(point), False)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(run_sweep_point, point): (index, point)
                    for index, point in pending
                }
                for future in as_completed(futures):
                    index, point = futures[future]
                    finish(index, point, future.result(), False)
    elif workers == 1 and timeout is None:
        _execute_hardened_serial(
            pending, retries, backoff, finish, stats
        )
    else:
        _execute_hardened_pool(
            pending, workers, timeout, retries, backoff, finish, stats
        )

    stats.wall_seconds = time.perf_counter() - start
    return results, stats  # type: ignore[return-value]


def _failed_result(
    point: SweepPoint, kind: str, detail: str, attempts: int
) -> FailedResult:
    return FailedResult(
        topology=point.topology,
        pattern=point.pattern,
        rate=point.rate,
        seed=point.settings.seed,
        error=kind,
        detail=detail,
        attempts=attempts,
    )


def _execute_hardened_serial(
    pending: list[tuple[int, SweepPoint]],
    retries: int,
    backoff: float,
    finish: Callable,
    stats: ExecutionStats,
) -> None:
    """In-process hardened path: retries without a pool.

    Timeouts and crash chaos need process isolation and therefore the
    pool path; this one only contains model exceptions.
    """
    for index, point in pending:
        attempts = 0
        while True:
            attempts += 1
            status, payload = guarded_run(point)
            if status == "ok":
                finish(index, point, payload, False)
                break
            if attempts <= retries:
                stats.retried += 1
                if backoff > 0:
                    time.sleep(backoff * attempts)
                continue
            finish(
                index,
                point,
                _failed_result(point, "error", str(payload), attempts),
                False,
            )
            break


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on wedged workers."""
    processes = getattr(pool, "_processes", None) or {}
    pool.shutdown(wait=False, cancel_futures=True)
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # already dead, or platform quirk
            pass


def _execute_hardened_pool(
    pending: list[tuple[int, SweepPoint]],
    workers: int,
    timeout: float | None,
    retries: int,
    backoff: float,
    finish: Callable,
    stats: ExecutionStats,
) -> None:
    """Pool execution that survives crashes, hangs, and exceptions.

    Structure: a submission queue feeds at most *workers* in-flight
    futures, each stamped with its wall-clock deadline.  The loop
    waits for the first completion or the earliest deadline, then
    settles completed futures, reaps expired ones, and — when the
    pool broke or a hung worker would not cancel — rebuilds the pool
    and resubmits whatever was still in flight (those points keep
    their attempt count: they were collateral, not culprits... except
    that a crashed pool cannot say *which* worker died, so every
    future that completed broken is charged one attempt).
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    queue = deque(pending)
    attempts: dict[int, int] = {index: 0 for index, _ in pending}
    inflight: dict = {}  # future -> (index, point, deadline)
    # Backoff is a per-entry not-before timestamp honored at
    # submission time — never an inline sleep, which would stall
    # deadline checks and settlement for every other in-flight point.
    not_before: dict[int, float] = {}

    def charge(index: int, point: SweepPoint, kind: str, detail: str):
        """One failed attempt: requeue or settle as FailedResult."""
        attempts[index] += 1
        if kind == "timeout":
            stats.timeouts += 1
        elif kind == "crash":
            stats.crashes += 1
        if attempts[index] <= retries:
            stats.retried += 1
            if backoff > 0:
                not_before[index] = (
                    time.monotonic() + backoff * attempts[index]
                )
            queue.append((index, point))
        else:
            finish(
                index,
                point,
                _failed_result(point, kind, detail, attempts[index]),
                False,
            )

    def rebuild() -> None:
        nonlocal pool
        _terminate_pool(pool)
        pool = ProcessPoolExecutor(max_workers=workers)
        stats.pool_rebuilds += 1

    def settle(future, index: int, point: SweepPoint) -> bool:
        """Resolve a completed future; returns True if it revealed a
        broken pool."""
        try:
            status, payload = future.result()
        except BrokenProcessPool:
            charge(
                index, point, "crash", "worker process died (pool broken)"
            )
            return True
        except Exception as exc:  # pool plumbing failure
            charge(index, point, "error", repr(exc))
            return False
        if status == "ok":
            finish(index, point, payload, False)
        else:
            charge(index, point, "error", str(payload))
        return False

    def drain_broken_pool() -> None:
        """The pool died: settle finished futures normally, charge the
        rest as crashes (the culprit is among them, and a broken pool
        cannot say which worker it was), then rebuild."""
        for future, (index, point, _) in list(inflight.items()):
            if future.done():
                settle(future, index, point)
            else:
                charge(
                    index,
                    point,
                    "crash",
                    "worker process died (pool broken)",
                )
        inflight.clear()
        rebuild()

    try:
        while queue or inflight:
            submit_broke = False
            now = time.monotonic()
            backing_off: list[tuple[int, SweepPoint]] = []
            while queue and len(inflight) < workers:
                index, point = queue.popleft()
                attempts.setdefault(index, 0)
                if not_before.get(index, 0.0) > now:
                    backing_off.append((index, point))
                    continue
                not_before.pop(index, None)
                try:
                    future = pool.submit(guarded_run, point)
                except BrokenProcessPool:
                    # Pool died between the last wait() and now; the
                    # unsubmitted point never ran, so no charge.
                    queue.appendleft((index, point))
                    drain_broken_pool()
                    submit_broke = True
                    break
                deadline = (
                    time.monotonic() + timeout
                    if timeout is not None
                    else None
                )
                inflight[future] = (index, point, deadline)
            # Entries still backing off return to the queue's front in
            # their original order, keeping retry fairness.
            queue.extendleft(reversed(backing_off))
            if submit_broke:
                continue
            wake_times = [
                deadline
                for (_, _, deadline) in inflight.values()
                if deadline is not None
            ]
            if backing_off and len(inflight) < workers:
                # Free capacity is waiting on a backoff window: wake
                # when the earliest held entry becomes submittable.
                wake_times.extend(
                    not_before[index] for index, _ in backing_off
                )
            if not inflight:
                # Everything queued is backing off; sleep just long
                # enough for the earliest not-before to pass.
                if wake_times:
                    time.sleep(max(0.0, min(wake_times) - now))
                continue
            wait_for = (
                max(0.05, min(wake_times) - time.monotonic())
                if wake_times
                else None
            )
            done, _ = wait(
                set(inflight),
                timeout=wait_for,
                return_when=FIRST_COMPLETED,
            )
            broke = False
            for future in done:
                index, point, _ = inflight.pop(future)
                broke |= settle(future, index, point)
            if broke:
                drain_broken_pool()
                continue
            if timeout is None:
                continue
            now = time.monotonic()
            expired = [
                future
                for future, (_, _, deadline) in inflight.items()
                if deadline is not None and deadline <= now
            ]
            wedged = False
            for future in expired:
                index, point, deadline = inflight.pop(future)
                overdue = now - (deadline - timeout)
                if not future.cancel():
                    # Already running: the worker is wedged and a
                    # pool cannot interrupt it — replace the pool.
                    wedged = True
                charge(
                    index,
                    point,
                    "timeout",
                    f"exceeded {timeout:.6g}s deadline "
                    f"({overdue:.1f}s elapsed)",
                )
            if wedged:
                # Surviving workers die with the pool; their points
                # never misbehaved, so resubmit without charging.
                for future, (index, point, _) in inflight.items():
                    queue.append((index, point))
                inflight.clear()
                rebuild()
    finally:
        _terminate_pool(pool)
