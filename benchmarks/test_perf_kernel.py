"""Micro-benchmarks of the simulation substrate itself.

Unlike the figure benchmarks (one long round), these use
pytest-benchmark's statistics over repeated rounds: they exist to
catch performance regressions in the event kernel and the router's
per-cycle phases, which dominate every experiment's wall-clock.
"""

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.sim.kernel import Simulator
from repro.sim.messages import Message
from repro.sim.module import SimModule
from repro.topology import SpidergonTopology
from repro.traffic import TrafficSpec, UniformTraffic


class PingPong(SimModule):
    """Two of these bounce one message back and forth forever."""

    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.add_gate("out")

    def handle_message(self, message):
        self.send(Message("ball"), "out")


def test_kernel_event_throughput(benchmark):
    """Events/second of the bare kernel (two-module ping-pong)."""

    def run_pingpong():
        sim = Simulator()
        a = PingPong(sim, "a")
        b = PingPong(sim, "b")
        a.gate("out").connect(b.add_gate("in"), delay=1)
        b.gate("out").connect(a.add_gate("in"), delay=1)
        sim.schedule(0, a, Message("serve"))
        sim.run(max_events=20_000)
        return sim.events_processed

    events = benchmark(run_pingpong)
    assert events == 20_000


def _run_pingpong(observer=None):
    sim = Simulator()
    a = PingPong(sim, "a")
    b = PingPong(sim, "b")
    a.gate("out").connect(b.add_gate("in"), delay=1)
    b.gate("out").connect(a.add_gate("in"), delay=1)
    if observer is not None:
        sim.add_observer(observer)
    sim.schedule(0, a, Message("serve"))
    sim.run(max_events=20_000)
    return sim.events_processed


def test_kernel_event_throughput_noop_observer(benchmark):
    """Ping-pong with one no-op observer attached: the full price of
    observing (two snapshot tuples + two calls per event).  Compare
    against ``test_kernel_event_throughput`` — the gap is what
    detaching buys back.  The *unobserved* loop's cost is guarded
    separately and absolutely by ``perf_guard.py``: with zero
    observers the only addition to the historical loop is one
    list-truthiness check per event."""
    from repro.sim.observers import Observer

    events = benchmark(_run_pingpong, Observer())
    assert events == 20_000


def test_kernel_event_throughput_detached_observer(benchmark):
    """Ping-pong after attach + detach: must sit with the bare-kernel
    benchmark, not the observed one — detaching restores the fast
    path exactly (empty list, falsy, no snapshots)."""
    from repro.sim.observers import Observer

    def run_detached():
        sim = Simulator()
        a = PingPong(sim, "a")
        b = PingPong(sim, "b")
        a.gate("out").connect(b.add_gate("in"), delay=1)
        b.gate("out").connect(a.add_gate("in"), delay=1)
        observer = Observer()
        sim.add_observer(observer)
        sim.remove_observer(observer)
        sim.schedule(0, a, Message("serve"))
        sim.run(max_events=20_000)
        return sim.events_processed

    events = benchmark(run_detached)
    assert events == 20_000


def test_event_queue_push_pop(benchmark):
    """Raw heap operation cost at realistic queue depths."""
    from repro.sim.events import Event, EventQueue

    def churn():
        queue = EventQueue()
        for t in range(2_000):
            queue.push(
                Event(time=(t * 7919) % 1000, priority=0, sequence=0)
            )
        while queue:
            queue.pop()

    benchmark(churn)


def test_saturated_network_cycles_per_second(benchmark):
    """End-to-end model speed: cycles/second of a loaded 16-node
    Spidergon (the workhorse configuration of every figure)."""

    def run_network():
        topology = SpidergonTopology(16)
        net = Network(
            topology,
            config=NocConfig(source_queue_packets=16),
            traffic=TrafficSpec(UniformTraffic(topology), 0.4),
            seed=1,
        )
        net.run(cycles=2_000)
        return net.stats.flits_consumed

    flits = benchmark(run_network)
    assert flits > 0
