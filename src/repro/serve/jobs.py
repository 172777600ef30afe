"""Asyncio job layer: persistent worker pool + single-flight dedupe.

The :class:`JobManager` is the piece that makes N identical
submissions cost one simulation.  Every request for a
:class:`~repro.experiments.runner.SweepPoint` resolves through three
tiers, cheapest first:

1. **Store** — the :class:`~repro.serve.store.ResultStore` holds
   the key: one synchronous disk read (:meth:`JobManager.lookup`),
   no task, no simulation.
2. **Coalesce** — a request for the same key is in flight: await its
   future instead of simulating again (single-flight).
3. **Simulate** — the point runs in the persistent pool of a
   :class:`~repro.experiments.executor.PointExecutor`, the core the
   batch executor drives too.  The result is stored *before* the
   in-flight future resolves, so a request arriving in the handoff
   window hits the future or the store, never a second simulation.

Failures (worker crash, per-point timeout, model exception) become
:class:`~repro.experiments.parallel.FailedResult` values.  They
resolve coalesced waiters but are **not** stored, so the next
submission retries the point.  A timed-out point's worker is
terminated, so the next point never queues behind it.

Everything runs on one event loop, so no locks are needed.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Awaitable

from repro.experiments.executor import PointExecutor
from repro.experiments.parallel import PointResult, point_key
from repro.experiments.runner import SweepPoint
from repro.serve.store import ResultStore
from repro.stats.summary import RunResult

__all__ = ["JobManager", "ServeStats"]


@dataclasses.dataclass(slots=True)
class ServeStats:
    """Cumulative serving counters, exposed at ``GET /stats``.

    Attributes:
        submissions: Campaign submissions accepted.
        points: Point requests resolved (across all submissions).
        store_hits: Requests answered straight from the store.
        coalesced: Requests that joined an in-flight simulation.
        simulated: Simulations actually run (the cost that matters).
        failed: Requests that resolved to a
            :class:`~repro.experiments.parallel.FailedResult`
            (coalesced waiters on a failed key count too).
        timeouts / crashes / retried / pool_rebuilds: The executor
            core's counts, named as in
            :class:`~repro.experiments.parallel.ExecutionStats`.
    """

    submissions: int = 0
    points: int = 0
    store_hits: int = 0
    coalesced: int = 0
    simulated: int = 0
    failed: int = 0
    timeouts: int = 0
    crashes: int = 0
    retried: int = 0
    pool_rebuilds: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class JobManager:
    """Store-checked, single-flight, pool-backed point resolution.

    Args:
        store: The content-addressed result store.
        workers: Worker processes in the persistent pool.
        timeout: Optional per-point deadline in seconds of run time.
            An expired point's worker is terminated; once its retries
            are spent the point resolves to a ``timeout`` failure.
        retries: Extra attempts after a crashed, hung or failed
            simulation before the point settles as failed.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        workers: int = 2,
        timeout: float | None = None,
        retries: int = 0,
    ) -> None:
        self.stats = ServeStats()
        self._executor = PointExecutor(
            workers,
            timeout=timeout,
            retries=retries,
            store=store,
            stats=self.stats,
        )
        self.store = store
        self.workers = workers

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._executor.close()

    def close_in_workers(self, listening_fds) -> None:
        """Have every worker forked from now on close *listening_fds*,
        the server's listening sockets."""
        self._executor.listening_fds = tuple(listening_fds)

    @property
    def inflight_keys(self) -> set[str]:
        """Keys currently being simulated (diagnostics)."""
        return self._executor.inflight_keys

    def lookup(self, key: str) -> RunResult | None:
        """Open one point request at the store tier: *key*'s stored
        result (a store hit), or None, after which :meth:`claim` must
        follow with no await between."""
        self.stats.points += 1
        hit = self._executor.lookup(key)
        if hit is not None:
            self.stats.store_hits += 1
        return hit

    def claim(
        self, point: SweepPoint, key: str
    ) -> Awaitable[tuple[PointResult, str]]:
        """The coalesce and simulate tiers for a request whose
        :meth:`lookup` just missed; see
        :meth:`~repro.experiments.executor.PointExecutor.claim`."""
        return self._settle(self._executor.claim(key, point))

    async def _settle(
        self, claimed: Awaitable[tuple[PointResult, str]]
    ) -> tuple[PointResult, str]:
        result, source = await claimed
        if source == "coalesced":
            self.stats.coalesced += 1
        else:
            self.stats.simulated += 1
        if not result.ok:
            self.stats.failed += 1
        return result, source

    async def result_for(
        self, point: SweepPoint
    ) -> tuple[PointResult, str]:
        """Resolve *point*, returning ``(result, source)``:
        :meth:`lookup`, then :meth:`claim` on a miss.

        ``source`` is ``"store"``, ``"coalesced"`` or ``"simulated"``
        — the dedupe tier that satisfied the request.
        """
        key = point_key(point)
        hit = self.lookup(key)
        if hit is not None:
            return hit, "store"
        return await self.claim(point, key)
