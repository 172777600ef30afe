"""The one executor core under batch sweeps and the campaign server.

:func:`~repro.experiments.parallel.execute_points` drives a
:class:`PointExecutor` through ``asyncio.run``, and
:class:`~repro.serve.jobs.JobManager` awaits one directly:

* At most ``workers + 1`` points sit in the process pool; the spare
  keeps a worker busy between a completion and the next submission.
* The pool dispatches in FIFO order, so the ``workers`` oldest points
  in flight are the running ones.  A point's deadline is armed when
  it joins them, so it measures run time, not queue time.
* An expired deadline or a dead worker terminates the pool.  The
  timed-out points are charged one attempt; the others in flight are
  resubmitted uncharged.
* A dead worker cannot be named, so a crash charges the point only
  when it ran alone.  With several running, each is a suspect and
  reruns alone in the pool, uncharged, until the crash recurs on one.
* A charged point retries after ``backoff * attempts`` seconds,
  awaited in its own coroutine, so no retry stalls other points.
* Requests for one ``point_key`` share one run.  An optional store is
  read first, once, synchronously, so a hit needs no task; it is
  written before the result resolves; failures are never stored.

:mod:`repro.experiments.parallel` imports this module, and with it
:mod:`asyncio`, only when a sweep needs it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import os
import signal
import threading
import time
from collections.abc import Awaitable
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.parallel import (
    FailedResult,
    PointResult,
    check_options,
    guarded_run,
    point_key,
    unguarded_run,
)
from repro.experiments.runner import SweepPoint
from repro.serve.store import ResultStore
from repro.stats.summary import RunResult

_CRASH = "worker process died (pool broken)"

#: Outcome of a point that was running beside a crash: uncharged, but
#: it must rerun alone to clear or convict it.
_SUSPECT = ("suspect", _CRASH)


@dataclasses.dataclass(slots=True)
class _Attempt:
    """One submission of a point to the pool."""

    future: Future
    #: ``(status, payload)``, a fail-fast model exception, or None,
    #: which sends the point back uncharged.
    outcome: asyncio.Future
    timer: asyncio.TimerHandle | None = None  # fires at the deadline


def _finished(attempt: _Attempt) -> bool:
    """The attempt's worker returned, whatever the point's outcome."""
    future = attempt.future
    return future.done() and future.exception() is None


def _exit_when_orphaned(parent: int) -> None:
    """End this worker once *parent* is no longer its parent."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _init_worker(listening_fds: tuple[int, ...], parent: int) -> None:
    """Reset what a forked worker inherits from the server.  Its
    SIGTERM/SIGINT handlers and their wakeup fd would keep
    ``terminate()`` from stopping it and wake the server as if the
    server itself had been signalled.  Its copies of the listening
    sockets would hold the port if the server were killed with
    SIGKILL.  A watcher thread ends the worker once *parent*, the
    process that forked it, is gone (a SIGKILL runs no cleanup), or
    at once if it died before this ran."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    for fd in listening_fds:
        os.close(fd)
    threading.Thread(
        target=_exit_when_orphaned, args=(parent,), daemon=True
    ).start()


class PointExecutor:
    """Store-checked, single-flight, deadline-enforcing point runner.

    Args:
        workers: Worker processes in the pool.
        timeout: Optional per-point deadline in seconds of run time.
        retries: Extra attempts after a failed one.
        backoff: Seconds slept before a retry, times its attempt
            number.
        store: Optional result store, read first and written on
            success.
        stats: Counts ``timeouts``, ``crashes``, ``retried`` and
            ``pool_rebuilds``, as ``ExecutionStats`` and
            ``ServeStats`` both name them.
        fail_fast: The first failure raises, a model exception as
            itself, instead of becoming a ``FailedResult``.
        in_process: Run attempts in this process, blocking the loop;
            there is then no pool to time out or crash.

    ``listening_fds`` holds the descriptors of the server's listening
    sockets, which each worker forked after it is set closes first.
    """

    def __init__(
        self,
        workers: int,
        *,
        stats,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.0,
        store: ResultStore | None = None,
        fail_fast: bool = False,
        in_process: bool = False,
    ) -> None:
        check_options(workers, timeout, retries)
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.store = store
        self.stats = stats
        self.fail_fast = fail_fast
        self.in_process = in_process
        self._entry = unguarded_run if fail_fast else guarded_run
        self._pool: ProcessPoolExecutor | None = None
        self._inflight: list[_Attempt] = []  # unsettled, oldest first
        self._slots = asyncio.Semaphore(workers + 1)
        self._solo = asyncio.Lock()  # one suspect drains the pool at once
        self._flights: dict[str, asyncio.Future] = {}
        self.listening_fds: tuple[int, ...] = ()

    @property
    def inflight_keys(self) -> set[str]:
        """Keys currently being simulated."""
        return set(self._flights)

    def close(self) -> None:
        """Kill the pool (idempotent), abandoning points in flight."""
        self._inflight.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            processes = list((pool._processes or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.terminate()

    def lookup(self, key: str) -> RunResult | None:
        """The store tier: *key*'s stored result, or None on a miss or
        without a store.  One synchronous read, so a caller settles a
        hit inline, with no task."""
        return None if self.store is None else self.store.get(key)

    def claim(
        self, key: str, point: SweepPoint
    ) -> Awaitable[tuple[PointResult, str]]:
        """The tiers behind the store, for *point* whose
        :meth:`lookup` of *key* just missed: join *key*'s flight
        (``"coalesced"``) or start one (``"simulated"``).

        The choice is made here, before the returned awaitable of
        ``(result, source)`` runs.  Called with no await after the
        lookup, it leaves no gap in which a flight could store its
        result and retire unseen by both.  Await the awaitable, or
        wrap it in a task, at once.
        """
        flight = self._flights.get(key)
        if flight is not None:
            return self._join(flight)
        self._flights[key] = asyncio.get_running_loop().create_future()
        return self._fly(key, point)

    async def run(
        self, key: str, point: SweepPoint
    ) -> tuple[PointResult, str]:
        """Resolve *point*, whose ``point_key`` is *key*, to
        ``(result, source)``: the tier that answered, ``"store"``,
        ``"coalesced"`` or ``"simulated"``.  :meth:`lookup`, then
        :meth:`claim` on a miss, so the store is read once."""
        hit = self.lookup(key)
        if hit is not None:
            return hit, "store"
        return await self.claim(key, point)

    @staticmethod
    async def _join(flight: asyncio.Future) -> tuple[PointResult, str]:
        # shield(): one waiter's cancellation (a dropped client
        # connection) must not cancel the shared run.
        return await asyncio.shield(flight), "coalesced"

    async def _fly(
        self, key: str, point: SweepPoint
    ) -> tuple[PointResult, str]:
        flight = self._flights[key]
        try:
            result = await self._simulate(point)
            if self.store is not None and result.ok:
                # Store first, then resolve: a request landing in the
                # handoff window finds the key in exactly one tier.
                self.store.put(key, result)
            flight.set_result(result)
            return result, "simulated"
        except BaseException as exc:
            flight.set_exception(exc)
            flight.exception()  # nobody may be waiting; don't log it
            raise
        finally:
            del self._flights[key]

    async def _simulate(self, point: SweepPoint) -> PointResult:
        """Run *point* until it succeeds or its attempts run out."""
        attempts = 0
        solo = False
        while True:
            outcome = await self._attempt(point, solo)
            if outcome is None:
                continue  # collateral of a pool rebuild: uncharged
            if outcome is _SUSPECT:
                solo = True  # from now on the pool runs it alone
                continue
            if isinstance(outcome, BaseException):
                raise outcome  # fail-fast: the model's own exception
            status, payload = outcome
            if status == "ok":
                return payload
            if self.fail_fast:
                raise BrokenProcessPool(payload)
            attempts += 1
            if attempts > self.retries:
                return FailedResult(
                    point.topology, point.pattern, point.rate,
                    point.settings.seed, status, str(payload), attempts,
                )
            self.stats.retried += 1
            await asyncio.sleep(self.backoff * attempts)

    async def _attempt(self, point: SweepPoint, solo: bool = False):
        if self.in_process:
            return guarded_run(point)
        if not solo:
            async with self._slots:
                return await self._submit(point)
        # Holding every slot leaves no other point in the pool.
        async with self._solo:
            held = 0
            try:
                for _ in range(self.workers + 1):
                    await self._slots.acquire()
                    held += 1
                return await self._submit(point)
            finally:
                for _ in range(held):
                    self._slots.release()

    async def _submit(self, point: SweepPoint):
        """Run one attempt of *point* in the pool; the caller holds a
        slot."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.listening_fds, os.getpid()),
            )
        try:
            future = self._pool.submit(self._entry, point)
        except BrokenProcessPool:
            # The pool died since the last settlement; no charge.
            self._crash()
            return None
        attempt = _Attempt(
            future, asyncio.get_running_loop().create_future()
        )
        self._inflight.append(attempt)
        asyncio.wrap_future(future).add_done_callback(
            functools.partial(self._settle, attempt)
        )
        self._arm()
        return await attempt.outcome

    def _resolve(self, attempt: _Attempt, value) -> None:
        self._inflight.remove(attempt)
        if attempt.timer is not None:
            attempt.timer.cancel()
        if not attempt.outcome.done():  # else its coroutine was cancelled
            attempt.outcome.set_result(value)

    def _arm(self) -> None:
        """Start the clock on every running attempt."""
        if self.timeout is None:
            return
        loop = asyncio.get_running_loop()
        for attempt in self._inflight[: self.workers]:
            if attempt.timer is None:
                attempt.timer = loop.call_later(
                    self.timeout, self._expire, attempt
                )

    def _settle(self, attempt: _Attempt, wrapped: asyncio.Future) -> None:
        """Pool-future callback, run on the loop."""
        if wrapped.cancelled():
            return
        error = wrapped.exception()  # also marks it retrieved
        if attempt not in self._inflight:
            return  # a pool rebuild already decided it
        if isinstance(error, BrokenProcessPool):
            self._crash()
            return
        self._resolve(attempt, wrapped.result() if error is None else error)
        self._arm()

    def _expire(self, fired: _Attempt) -> None:
        expired = [
            attempt
            for attempt in self._inflight[: self.workers]
            if attempt.timer.when() <= fired.timer.when()
            and not attempt.future.done()
        ]
        if expired:
            self.stats.timeouts += len(expired)
            detail = f"exceeded {self.timeout:.6g}s deadline"
            self._break(("timeout", detail), expired)

    def _crash(self) -> None:
        """A worker died.  The pool runs the ``workers`` oldest
        unfinished attempts, so the dead one ran one of those: charge
        it if it is the only one, else make each a suspect."""
        self.stats.crashes += 1
        running = [
            attempt
            for attempt in self._inflight
            if not _finished(attempt)
        ][: self.workers]
        verdict = _SUSPECT if len(running) > 1 else ("crash", _CRASH)
        self._break(verdict, running)

    def _break(self, verdict, charged) -> None:
        """Terminate the pool.  Attempts that finished keep their
        result, *charged* ones settle as *verdict*, and the rest go
        back uncharged."""
        for attempt in list(self._inflight):
            if _finished(attempt):
                self._resolve(attempt, attempt.future.result())
            elif attempt in charged:
                self._resolve(attempt, verdict)
            else:
                self._resolve(attempt, None)
        self.close()
        self.stats.pool_rebuilds += 1


def run_points(pending, finish, **options) -> None:
    """Run each ``(index, key, point)`` of *pending* (a None key is
    computed here) on one :class:`PointExecutor` built from
    *options*, calling ``finish(index, key, point, result,
    coalesced)`` as it settles."""

    async def one(executor, index, key, point) -> None:
        key = key or point_key(point)
        result, source = await executor.run(key, point)
        finish(index, key, point, result, source != "simulated")

    async def main() -> None:
        executor = PointExecutor(**options)
        try:
            await asyncio.gather(
                *(one(executor, *item) for item in pending)
            )
        finally:
            executor.close()

    asyncio.run(main())
