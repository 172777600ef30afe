"""Per-layer tracing from outside the simulator.

The traced pass wraps the public functions at each layer boundary of
``repro`` (spec parsing, routing, network build and run, traffic
generation, stats summary, observers, executor, store, job layer and
HTTP client) and records spans in memory.  Nothing under ``src/`` is
edited: :meth:`Tracer.install` swaps module and class attributes and
:meth:`Tracer.uninstall` puts the originals back.

Each wrapped call pushes a frame on a per-thread stack, so a span's
*self* time is its duration minus the spans nested inside it.  Hot
spans (``routing.decide`` runs once per head flit per hop) are kept as
per-name counters; spans of at most one call per simulated point are
also kept as individual records.

Forked worker processes inherit the wrappers.  After every point a
worker ships its counters back over a pipe, tagged with the phase that
was current when the pool forked, so executor dispatch can be split
from simulation time.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing
import os
import threading
import time
from collections import defaultdict

_MISSING = object()


class _ThreadState:
    __slots__ = ("stack", "totals")

    def __init__(self) -> None:
        # stack[i] accumulates the time of spans nested in frame i;
        # stack[0] is the root, which is never popped.
        self.stack = [0.0]
        # name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}


def merge_totals(into: dict, totals: dict) -> None:
    for name, (calls, total, own) in totals.items():
        entry = into.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.phase = ""
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: (name, start, seconds, depth, thread id) of low-rate spans.
        self.spans: list[tuple] = []
        #: name -> [(start, end)] of coroutine spans (they interleave,
        #: so they cannot nest on a stack).
        self.intervals: dict[str, list] = defaultdict(list)
        #: Engine facts per simulated run, and store hits, summed.
        self.sim = defaultdict(int)
        #: phase -> merged counters shipped back by worker processes.
        self.child_totals: dict[str, dict] = defaultdict(dict)
        #: Engine facts of the runs in worker processes, summed.
        self.child_sim = defaultdict(int)
        #: (phase, seconds) of every execute_points call.
        self.executor_calls: list[tuple[str, float]] = []
        self._patches: list[tuple] = []
        self._worker_pid: int | None = None
        self._queue = None
        self._drainer: threading.Thread | None = None

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def timed(self, name: str, fn, record: bool = False):
        """*fn* wrapped in a span called *name*."""
        perf = time.perf_counter
        state_of = self._state
        spans = self.spans

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                nested = stack.pop()
                stack[-1] += elapsed
                entry = state.totals.get(name)
                if entry is None:
                    entry = state.totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - nested
                if record:
                    spans.append(
                        (name, start, elapsed, len(stack) - 1,
                         threading.get_ident())
                    )

        return functools.update_wrapper(wrapper, fn)

    def timed_coroutine(self, name: str, fn):
        """Async *fn* wrapped so each await-spanning call is an interval."""
        perf = time.perf_counter
        intervals = self.intervals[name]

        async def wrapper(*args, **kwargs):
            start = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                intervals.append((start, perf()))

        return functools.update_wrapper(wrapper, fn)

    def totals(self) -> dict:
        """Counters of every thread of this process, merged."""
        merged: dict = {}
        with self._states_lock:
            for state in self._states:
                merge_totals(merged, state.totals)
        return merged

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; classmethods
        are unwrapped and rewrapped so the class stays usable."""
        if isinstance(owner, type):
            own = owner.__dict__.get(attr, _MISSING)
            raw = inspect.getattr_static(owner, attr)
        else:
            own = raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        from repro.experiments import campaign, parallel
        from repro.noc import network as network_module
        from repro.obs.timeline import TimelineObserver
        from repro.resilience.watchdog import StallWatchdog
        from repro.serve import jobs
        from repro.serve.client import ServeClient
        from repro.serve.store import ResultStore
        from repro.stats.summary import RunResult
        from repro.traffic import injection

        self._queue = multiprocessing.SimpleQueue()
        self._drainer = threading.Thread(
            target=self._drain, name="perfbench-drain", daemon=True
        )
        self._drainer.start()
        timed = self.timed

        self.patch(parallel, "run_sweep_point", self._point_wrapper)
        self.patch(
            parallel, "parse_topology_routing",
            lambda fn: timed("specs.parse", fn, record=True),
        )

        def parse_pattern(fn):
            def wrapped(spec, topology):
                pattern = fn(spec, topology)
                pattern.destination_for = timed(
                    "traffic.dest", pattern.destination_for
                )
                return pattern
            return timed("specs.parse", functools.update_wrapper(
                wrapped, fn), record=True)

        self.patch(parallel, "parse_pattern", parse_pattern)

        def routing_for(fn):
            def wrapped(topology):
                routing = fn(topology)
                # Instance attribute: the batched fast path binds
                # routing.decide when it installs, after this point.
                routing.decide = timed("routing.decide", routing.decide)
                return routing
            return timed("routing.build", functools.update_wrapper(
                wrapped, fn), record=True)

        self.patch(network_module, "routing_for", routing_for)
        self.patch(
            network_module.Network, "__init__",
            lambda fn: timed("network.build", fn, record=True),
        )
        self.patch(network_module.Network, "run", self._run_wrapper)
        self.patch(
            RunResult, "from_stats",
            lambda fn: timed("stats.summary", fn, record=True),
        )
        for cls in vars(injection).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, injection.InjectionProcess)
                and "next_interarrival" in cls.__dict__
                and not inspect.isabstract(cls)
            ):
                self.patch(
                    cls, "next_interarrival",
                    lambda fn: timed("traffic.interarrival", fn),
                )
        for cls in (TimelineObserver, StallWatchdog):
            for hook in ("on_event_delivered", "on_time_advanced"):
                self.patch(
                    cls, hook, lambda fn: timed("obs.callback", fn)
                )
        for module in (parallel, jobs):
            self.patch(
                module, "point_key",
                lambda fn: timed("parallel.point_key", fn),
            )
        self.patch(ResultStore, "get", self._store_get_wrapper)
        self.patch(
            ResultStore, "put", lambda fn: timed("store.put", fn)
        )
        self.patch(parallel, "execute_points", self._executor_wrapper)
        self.patch(
            campaign, "campaign_points",
            lambda fn: timed("specs.expand", fn, record=True),
        )
        self.patch(
            jobs.JobManager, "result_for",
            lambda fn: self.timed_coroutine("jobs.resolve", fn),
        )
        self.patch(
            ServeClient, "submit_campaign",
            lambda fn: timed("serve.roundtrip", fn, record=True),
        )

    # -- wrappers with side effects -------------------------------------

    def _store_get_wrapper(self, fn):
        timed_get = self.timed("store.get", fn)
        sim = self.sim

        def get(store, key):
            result = timed_get(store, key)
            if result is not None:
                sim["store_hits"] += 1
            return result

        return functools.update_wrapper(get, fn)

    def _run_wrapper(self, fn):
        timed_run = self.timed("network.run", fn, record=True)
        tracer = self

        def run(network, *args, **kwargs):
            result = timed_run(network, *args, **kwargs)
            sim = tracer.sim
            engine = network.simulator.engine
            sim["runs"] += 1
            sim["fast_runs"] += getattr(engine, "mode", None) == "fast"
            sim["events"] += network.simulator.events_processed
            sim["flits"] += result.flits_delivered
            sim["flush_flits"] += getattr(engine, "flushed_flits", 0)
            sim["flush_batches"] += getattr(engine, "flush_batches", 0)
            sim["vector_batches"] += getattr(engine, "vector_batches", 0)
            return result

        return functools.update_wrapper(run, fn)

    def _executor_wrapper(self, fn):
        timed_execute = self.timed(
            "parallel.execute_points", fn, record=True
        )
        tracer = self

        def execute_points(*args, **kwargs):
            # A pool forked inside tags its workers' reports with the
            # call, so dispatch can be worked out per call.
            tracer.phase = f"execute_points#{len(tracer.executor_calls)}"
            begin = time.perf_counter()
            try:
                return timed_execute(*args, **kwargs)
            finally:
                tracer.executor_calls.append(
                    (tracer.phase, time.perf_counter() - begin)
                )
                tracer.phase = ""

        return functools.update_wrapper(execute_points, fn)

    def _point_wrapper(self, fn):
        timed_point = self.timed("point", fn, record=True)
        tracer = self

        def run_sweep_point(point):
            if os.getpid() == tracer.pid:
                return timed_point(point)
            tracer._become_worker()
            try:
                return timed_point(point)
            finally:
                tracer._report_to_parent()

        return functools.update_wrapper(run_sweep_point, fn)

    # -- worker processes --------------------------------------------------

    def _become_worker(self) -> None:
        """Forget the parent's spans the fork copied into this worker."""
        if self._worker_pid == os.getpid():
            return
        self._worker_pid = os.getpid()
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self.spans.clear()
        self.sim.clear()

    def _report_to_parent(self) -> None:
        totals = self.totals()
        with self._states_lock:
            for state in self._states:
                state.totals.clear()
        self._queue.put((self.phase, totals, dict(self.sim)))
        self.sim.clear()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            phase, totals, sim = item
            merge_totals(self.child_totals[phase], totals)
            for key, value in sim.items():
                self.child_sim[key] += value

    def close(self) -> None:
        """Stop collecting worker reports; call once no worker is in
        the middle of a point, so none is left mid-write."""
        if self._drainer is not None:
            self._queue.put(None)
            self._drainer.join()
            self._queue.close()
            self._drainer = None
