"""The CycleCalendar and the batched engine's fast/slow mode machinery.

Cross-engine result equivalence lives in
``tests/integration/test_kernel_equivalence.py``; this file covers
the pieces in isolation: the calendar as a drop-in queue, overflow
migration, the one-shot fast/slow decision, and that a run needs no
numpy.
"""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.obs import FlitTracer, KernelProfiler, TimelineObserver, TraceSink
from repro.resilience import DrainController, InvariantAuditor, StallWatchdog
from repro.sim.batched import BatchedEngine
from repro.sim.errors import SimulationError
from repro.sim.events import CycleCalendar, Event, HeapEventQueue
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule
from repro.sim.observers import Observer
from repro.topology import RingTopology
from repro.traffic import TrafficSpec, UniformTraffic


def _event(time, priority=0):
    return Event(time=time, priority=priority, sequence=0)


class TestCycleCalendarProtocol:
    def test_matches_heap_on_random_monotone_schedule(self):
        """Pushed with kernel-legal (monotone, in-window) times, the
        calendar pops the exact (time, priority, sequence) order the
        reference heap does."""
        rng = random.Random(7)
        calendar = CycleCalendar()
        heap = HeapEventQueue()
        now = 0
        for _ in range(500):
            delay = rng.randrange(0, 64)
            priority = rng.choice([0, 0, 0, 1, 2])
            calendar.push(_event(now + delay, priority))
            heap.push(_event(now + delay, priority))
            if rng.random() < 0.3:
                a = calendar.pop_next()
                b = heap.pop_next()
                assert (a.time, a.priority, a.sequence) == (
                    b.time,
                    b.priority,
                    b.sequence,
                )
                now = a.time
        while len(heap):
            a = calendar.pop_next()
            b = heap.pop_next()
            assert (a.time, a.priority, a.sequence) == (
                b.time,
                b.priority,
                b.sequence,
            )
        assert calendar.pop_next() is None

    def test_overflow_migration_preserves_order(self):
        """Events far beyond the window land in the overflow heap and
        migrate back in FIFO order within (time, priority)."""
        calendar = CycleCalendar()
        far = CycleCalendar.WINDOW + 50
        pushed = [calendar.push(_event(far)) for _ in range(20)]
        pushed.append(calendar.push(_event(far, priority=2)))
        pushed.insert(0, calendar.push(_event(3)))
        assert calendar.occupancy()["overflow"] == 21
        popped = []
        while True:
            event = calendar.pop_next()
            if event is None:
                break
            popped.append(event)
        assert popped == sorted(
            pushed, key=lambda e: (e.time, e.priority, e.sequence)
        )

    def test_non_monotone_push_rejected(self):
        calendar = CycleCalendar()
        calendar.push(_event(100))
        assert calendar.pop_next().time == 100
        with pytest.raises(SimulationError, match="monotone"):
            calendar.push(_event(50))

    def test_idle_gap_jump_does_not_redeliver_drained_items(self):
        """Popping the last ring item leaves it in its slot until the
        cursor moves on; a jump to the overflow front must not leave
        it there for a later lap of the ring to deliver again."""
        calendar = CycleCalendar()
        far = CycleCalendar.WINDOW + 44
        for time in (0, far):
            calendar.push(_event(time))
        assert [calendar.pop().time for _ in range(2)] == [0, far]
        calendar.push(_event(500))
        calendar.push(_event(520))
        assert [calendar.pop().time for _ in range(2)] == [500, 520]
        assert calendar.pop_next() is None

    def test_pop_limit_parks_without_losing_events(self):
        calendar = CycleCalendar()
        calendar.push(_event(200))
        assert calendar.pop_next(limit=100) is None
        assert len(calendar) == 1
        assert calendar.peek_time() == 200
        assert calendar.pop_next(limit=200).time == 200

    def test_clear_empties_every_tier(self):
        calendar = CycleCalendar()
        calendar.push(_event(1))
        calendar.push(_event(1, priority=2))
        calendar.push(_event(CycleCalendar.WINDOW + 9))
        calendar.clear()
        assert len(calendar) == 0
        assert calendar.occupancy() == {
            "pending": 0,
            "wheel": 0,
            "overflow": 0,
        }
        assert calendar.pop_next() is None

    def test_occupancy_reports_tiers(self):
        calendar = CycleCalendar()
        calendar.push(_event(1))
        calendar.push(_event(CycleCalendar.WINDOW + 1))
        assert calendar.occupancy() == {
            "pending": 2,
            "wheel": 1,
            "overflow": 1,
        }


class TestCycleCalendarGrow:
    def test_ring_starts_at_wheel_size(self):
        calendar = CycleCalendar()
        assert calendar._size == CycleCalendar.WINDOW == 256

    @pytest.mark.parametrize(
        "span,size", [(0, 256), (255, 256), (256, 512), (300, 512),
                      (1024, 2048)]
    )
    def test_grows_to_power_of_two_above_span(self, span, size):
        calendar = CycleCalendar()
        calendar.grow(span)
        assert calendar._size == size
        assert calendar._mask == size - 1

    def test_grow_mid_drain_preserves_order(self):
        """Grown after a partial drain, with items in the ring, in
        the overflow heap and in a half-drained slot, the calendar
        still pops the reference heap's order."""
        rng = random.Random(11)
        calendar = CycleCalendar()
        heap = HeapEventQueue()
        for _ in range(400):
            time = rng.choice([5, 5, 5, rng.randrange(0, 900)])
            priority = rng.choice([0, 0, 1])
            calendar.push(_event(time, priority))
            heap.push(_event(time, priority))
        for _ in range(3):  # stop inside the time-5 slot
            a, b = calendar.pop_next(), heap.pop_next()
            assert (a.time, a.sequence) == (b.time, b.sequence)
        calendar.grow(600)
        assert calendar._size == 1024
        while len(heap):
            a, b = calendar.pop_next(), heap.pop_next()
            assert (a.time, a.priority, a.sequence) == (
                b.time,
                b.priority,
                b.sequence,
            )
        assert calendar.pop_next() is None


class Recorder(SimModule):
    def __init__(self, simulator, name="r"):
        super().__init__(simulator, name)
        self.delivered = []

    def handle_message(self, message):
        self.delivered.append((self.now, message.name))


class TestSlowPathKernel:
    """Without a network the batched engine is a plain event kernel
    over the calendar; the generic Simulator contract must hold."""

    def test_stop_from_handler_leaves_rest_of_cycle_pending(self):
        sim = Simulator(engine="batched")
        module = Recorder(sim)
        for i in range(4):
            sim.schedule(2, module, Message(f"m{i}"))
        sim.schedule(
            2, module, Message("stop"), priority=-1,
            handler=lambda m: sim.request_stop("test stop"),
        )
        sim.schedule(2, module, Message("m4"))
        assert sim.run(until=50) == 1
        assert sim.now == 2
        assert module.delivered == []
        assert sim.run(until=50) == 0  # the stop is sticky
        assert sorted(e.message.name for e in sim.pending_events()) == [
            "m0", "m1", "m2", "m3", "m4",
        ]

    def test_mode_is_slow_without_network(self):
        sim = Simulator(engine="batched")
        module = Recorder(sim)
        sim.add_observer(__import__("repro.sim.observers", fromlist=["Observer"]).Observer())
        sim.schedule(1, module, Message("m"))
        sim.run()
        assert sim.engine.mode == "slow"


def _network(engine, size=8, rate=0.2, seed=3):
    topology = RingTopology(size)
    return Network(
        topology,
        config=NocConfig(source_queue_packets=8),
        traffic=TrafficSpec(UniformTraffic(topology), rate),
        seed=seed,
        engine=engine,
    )


class TestModeSelection:
    def test_fast_mode_without_observers(self):
        network = _network("batched")
        network.run(cycles=100)
        assert network.simulator.engine.mode == "fast"

    def test_observer_before_run_forces_slow_mode(self):
        from repro.sim.observers import Observer

        network = _network("batched")
        network.simulator.add_observer(Observer())
        network.run(cycles=100)
        assert network.simulator.engine.mode == "slow"

    def test_observer_after_fast_start_raises(self):
        from repro.sim.observers import Observer

        network = _network("batched")
        network.run(cycles=50)
        with pytest.raises(SimulationError, match="fast path"):
            network.simulator.add_observer(Observer())

    def test_engine_instance_is_single_use(self):
        engine = BatchedEngine()
        _network(engine)
        with pytest.raises(SimulationError, match="fresh engine"):
            _network(engine)

    @pytest.mark.parametrize(
        "attach",
        [
            pytest.param(lambda n: StallWatchdog(n, 200), id="watchdog"),
            pytest.param(lambda n: TimelineObserver(n), id="timeline"),
            pytest.param(
                lambda n: (TimelineObserver(n), StallWatchdog(n, 200)),
                id="both",
            ),
        ],
    )
    def test_watchdog_and_timeline_keep_fast_mode(self, attach):
        network = _network("batched")
        attach(network)
        network.run(cycles=100)
        assert network.simulator.engine.mode == "fast"

    @pytest.mark.parametrize(
        "attach",
        [
            pytest.param(
                lambda n: FlitTracer(n, TraceSink(None)), id="tracer"
            ),
            pytest.param(
                lambda n: KernelProfiler(n.simulator), id="profiler"
            ),
            pytest.param(
                lambda n: InvariantAuditor(n, 50), id="auditor"
            ),
            pytest.param(lambda n: DrainController(n), id="drain"),
            pytest.param(
                lambda n: (
                    StallWatchdog(n, 200),
                    n.simulator.add_observer(Observer()),
                ),
                id="watchdog+bare",
            ),
        ],
    )
    def test_other_observers_force_slow_mode(self, attach):
        network = _network("batched")
        attach(network)
        network.run(cycles=100)
        assert network.simulator.engine.mode == "slow"

    @pytest.mark.parametrize(
        "late",
        [
            pytest.param(
                lambda n: n.simulator.add_observer(Observer()), id="bare"
            ),
            pytest.param(lambda n: StallWatchdog(n, 100), id="watchdog"),
            pytest.param(lambda n: TimelineObserver(n), id="timeline"),
        ],
    )
    def test_observer_after_watched_fast_start_raises(self, late):
        network = _network("batched")
        StallWatchdog(network, 200)
        network.simulator.run(until=50)
        assert network.simulator.engine.mode == "fast"
        with pytest.raises(SimulationError, match="fast path"):
            late(network)

    def test_timeline_detach_mid_run_matches_wheel(self):
        """Detached from another observer's callback mid-run, the
        timeline stops counting at the same delivery as on the
        wheel."""

        class Detacher(Observer):
            cycle_boundaries_only = True

            def __init__(self, timeline):
                self.timeline = timeline

            def on_time_advanced(self, simulator, old, new):
                if new >= 250:
                    self.timeline.detach()

        def run(engine):
            network = _network(engine)
            timeline = TimelineObserver(network, window=50)
            network.simulator.add_observer(Detacher(timeline))
            result = network.run(cycles=600)
            return result, timeline.timeline(), network.simulator.engine

        wheel, wheel_timeline, _ = run("wheel")
        batched, batched_timeline, engine = run("batched")
        assert engine.mode == "fast"
        assert wheel.to_dict() == batched.to_dict()
        assert wheel_timeline.to_dict() == batched_timeline.to_dict()
        counts = [link.counts for link in batched_timeline.links]
        assert any(c[4] for c in counts)  # [200, 250) was counted
        assert not any(any(c[5:]) for c in counts)

    @pytest.mark.parametrize("arm_at", [0, 149], ids=["before", "after"])
    def test_stop_mid_slot_matches_heap(self, arm_at):
        """A handler that requests a stop in a busy cycle leaves the
        rest of the cycle pending on the fast path exactly as on the
        heap: same result, clock, pending events and flits on the
        wire.  Scheduled at cycle 0 the stop comes before cycle 150's
        flit arrivals; scheduled after cycle 149's send phase it comes
        after them, before the credits their ejections return."""

        def stopped(engine):
            network = _saturated(engine)
            sim = network.simulator

            def arm(message):
                sim.schedule(
                    150, None, Message("stop"),
                    handler=lambda m: sim.request_stop("test stop"),
                )

            sim.schedule(arm_at, None, Message("arm"), priority=3,
                         handler=arm)
            result = network.run(cycles=300)
            assert sim.now == 150
            pending = sorted((e.time, e.priority)
                             for e in sim.pending_events())
            return result.to_dict(), pending, _flits_on_wire(network)

        result, pending, on_wire = stopped("batched")
        assert result["degraded"] and (150, 0) in pending
        assert bool(on_wire) == (arm_at == 0)
        assert (result, pending, on_wire) == stopped("heap")

    def test_credits_of_a_fault_between_runs_match_heap(self):
        """The credits a link failure applied between two runs emits
        (its killed packets' purged lane slots) are delivered at the
        cycle the clock stopped at, one event each, as on the event
        engines."""

        def delivered(engine):
            network = _saturated(engine)
            sim = network.simulator
            sim.run(until=300)
            assert network.fail_link(4, 5)["flits_dropped"]
            at_stop = sim.run(until=300)  # only the credits are due
            assert sim.now == 300
            return at_stop, sim.run(until=320)

        credits, later = delivered("batched")
        assert credits > 0
        assert (credits, later) == delivered("heap")


class _SlowLinkRing(RingTopology):
    """A ring whose every link takes 300 cycles: longer than the
    calendar's initial ring."""

    def link_attrs(self, src, port):
        from repro.topology import LinkAttrs

        return LinkAttrs(latency=300)


class TestLongLinks:
    def test_default_engine_grows_ring_and_matches_heap(self):
        topology = _SlowLinkRing(6)

        def run(engine):
            network = Network(
                topology,
                config=NocConfig(source_queue_packets=8),
                traffic=TrafficSpec(UniformTraffic(topology), 0.05),
                seed=5,
                engine=engine,
            )
            return network, network.run(cycles=4000, warmup=500)

        network, batched = run(None)
        engine = network.simulator.engine
        assert isinstance(engine, BatchedEngine)
        assert engine.mode == "fast"
        assert network.simulator._queue._size == 512
        _, heap = run("heap")
        assert batched.packets_delivered > 0
        assert batched.to_dict() == heap.to_dict()


def _saturated(engine):
    topology = RingTopology(16)
    return Network(
        topology,
        config=NocConfig(source_queue_packets=8),
        traffic=TrafficSpec(UniformTraffic(topology), 0.5),
        seed=7,
        engine=engine,
    )


def _flits_on_wire(network):
    from repro.noc.signals import FlitMessage

    return sorted(
        (
            event.time,
            event.message.arrival_gate.module.name,
            event.message.arrival_gate.name,
            event.message.wire_vc,
            event.message.flit.packet.src,
            event.message.flit.packet.dst,
            event.message.flit.packet.created_at,
            event.message.flit.index,
        )
        for event in network.simulator.pending_events()
        if isinstance(event.message, FlitMessage)
    )


def _model_objects(network):
    """Every object reachable from the network's routers, interfaces
    and scheduler, following closure cells but not module globals,
    classes or the simulator (which owns the engine)."""
    import gc
    import types

    skip = (type, types.ModuleType, Simulator)
    seen: set[int] = set()
    found = []
    stack = [*network.routers, *network.interfaces, network.scheduler]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(
                cell.cell_contents for cell in obj.__closure__ or ()
            )
        else:
            stack.extend(gc.get_referents(obj))
    return found


def _fast_path_entries(network):
    """Every arrival and credit entry the fast path bound, once each."""
    entries = {}
    for router in network.routers:
        for port in router._input_order:
            for entry in port.credit_records:
                entries[id(entry)] = entry
        for port in router._output_order:
            entries[id(port.flit_link)] = port.flit_link
    for ni in network.interfaces:
        entries[id(ni.flit_link)] = ni.flit_link
        for entry in ni.credit_records:
            entries[id(entry)] = entry
    return list(entries.values())


class TestReleaseAfterRun:
    """Network.run drops the fast-path wiring once it has its result;
    post-run inspection sees what the event engines show."""

    def test_inspection_matches_heap(self):
        from repro.noc.invariants import InvariantChecker

        heap = _saturated("heap")
        heap.run(cycles=400)
        batched = _saturated("batched")
        batched.run(cycles=400)
        assert batched.simulator.engine.mode == "fast"
        on_wire = _flits_on_wire(batched)
        assert on_wire  # the run ended with flits still on links
        assert on_wire == _flits_on_wire(heap)
        InvariantChecker(heap).check_all()
        InvariantChecker(batched).check_all()

    def test_wiring_is_dropped(self):
        import types

        from repro.noc.signals import send_credit, send_flit

        network = _saturated("batched")
        network.simulator.run(until=100)  # installs the fast path
        engine = network.simulator.engine
        calendar = network.simulator._queue
        # Every arrival and credit entry, held alive so their ids stay
        # unique during the scan.
        entries = _fast_path_entries(network)
        assert entries
        entry_ids = {id(entry) for entry in entries}
        network.run(cycles=200)
        assert engine._gates == {} and engine._pending == []
        batched_methods = (BatchedEngine._flush, BatchedEngine._file_credits)
        batched_lists = (id(engine._pending), id(engine._emitted))
        for obj in _model_objects(network):
            assert id(obj) not in entry_ids, obj
            assert not (
                isinstance(obj, types.MethodType)
                and obj.__func__ in batched_methods
            ), obj
            # The pending list's append (the sink) and the emitted
            # list's (the credit emitter).
            assert not (
                isinstance(obj, types.BuiltinMethodType)
                and id(obj.__self__) in batched_lists
            ), obj
        for agent in (*network.routers, *network.interfaces):
            assert agent.emit_credit is send_credit
            assert "send_phase" not in vars(agent)
        for router in network.routers:
            for port in router._output_order:
                assert port.flit_sink is send_flit
                assert port.flit_link is port.data_gate
        for ni in network.interfaces:
            assert ni.flit_sink is send_flit
            assert ni.flit_link is ni.data_out
        assert engine._emitted == []
        scheduler = network.scheduler
        assert scheduler.flush_hook is None
        assert "_arm" not in vars(scheduler)
        assert not any(
            item.__class__ is tuple
            for lane in calendar._lane0
            for item in lane
        )

    def test_closures_freed_without_a_collection(self):
        import gc
        import weakref

        network = _saturated("batched")
        network.simulator.run(until=100)  # installs the fast path
        compiled = vars(network.routers[0])
        phases = [
            weakref.ref(compiled[name])
            for name in ("advance_phase", "send_phase")
        ]
        entries = _fast_path_entries(network)
        gc.disable()
        try:
            network.run(cycles=300)
            assert [ref() for ref in phases] == [None, None]
            # Entries are tuples (no weak references): the list, the
            # loop variable and getrefcount's argument are the only
            # references left, so no uncollected cycle holds one.
            assert {sys.getrefcount(entry) for entry in entries} == {3}
        finally:
            gc.enable()

    def test_no_run_after_release(self):
        network = _saturated("batched")
        network.run(cycles=100)
        with pytest.raises(SimulationError, match="single-use"):
            network.simulator.run(until=200)

    def test_slow_mode_keeps_nothing_to_release(self):
        network = _saturated("batched")
        network.simulator.add_observer(Observer())
        network.run(cycles=100)
        assert network.simulator.engine.mode == "slow"
        network.simulator.run(until=150)  # the event loop carries on


class TestStandardLibraryOnly:
    def test_batched_network_runs_without_numpy(self):
        """The simulator needs nothing outside the standard library: a
        batched ring8 run imports no numpy."""
        script = (
            "import sys\n"
            "from repro.noc.network import Network\n"
            "from repro.topology import RingTopology\n"
            "from repro.traffic import TrafficSpec, UniformTraffic\n"
            "topology = RingTopology(8)\n"
            "network = Network(topology, seed=3, engine='batched',\n"
            "    traffic=TrafficSpec(UniformTraffic(topology), 0.2))\n"
            "result = network.run(cycles=200)\n"
            "assert result.packets_delivered > 0, result\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert completed.returncode == 0, completed.stderr
