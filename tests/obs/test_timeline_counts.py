"""The timeline's link counts equal a per-delivery count.

:class:`~repro.obs.TimelineObserver` reads only cycle boundaries: it
derives each window's arrivals from the sending ports' flit counters,
the flits still on the wire and the forced drain sends.  The oracle
here is the direct way — a plain observer on the heap engine that
counts every flit delivery over a tracked link, per (link, VC,
window) — and the timeline must agree with it on every engine.
"""

import pytest

from repro.experiments.drain import build_deadlock_network
from repro.experiments.specs import parse_pattern, parse_topology_routing
from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.signals import FlitMessage
from repro.obs import TimelineObserver
from repro.resilience.injector import FaultInjector
from repro.resilience.plan import FaultPlan
from repro.sim.observers import Observer
from repro.traffic import TrafficSpec

ENGINES = ["heap", "wheel", "batched"]
EVENT_ENGINES = ["heap", "wheel"]
WINDOW = 50


class DeliveryCounter(Observer):
    """Counts each flit delivery over a tracked link, per (link,
    arrival VC, window), as the event engines deliver it."""

    def __init__(self, network, window=WINDOW, include_local=False):
        self.window = window
        self.links = {
            gate: (node, port, dst)
            for node, port, dst, gate in network.link_arrival_gates(
                include_local=include_local
            )
        }
        self.counts = {}
        network.simulator.add_observer(self)

    def on_event_delivered(self, simulator, event):
        message = event.message
        if not isinstance(message, FlitMessage):
            return
        link = self.links.get(message.arrival_gate)
        if link is None:
            return
        windows = self.counts.setdefault((*link, message.wire_vc), {})
        index = event.time // self.window
        windows[index] = windows.get(index, 0) + 1

    def table(self, cycles):
        num_windows = -(-cycles // self.window)
        return {
            key: tuple(windows.get(i, 0) for i in range(num_windows))
            for key, windows in self.counts.items()
        }


def _table(timeline):
    return {
        (link.node, link.port, link.dst, link.vc): link.counts
        for link in timeline.links
    }


def _network(engine, spec="ring16", pattern="uniform", rate=0.4,
             fault_plan=None, seed=7):
    topology, routing = parse_topology_routing(spec)
    network = Network(
        topology,
        routing=routing,
        config=NocConfig(source_queue_packets=8),
        traffic=TrafficSpec(parse_pattern(pattern, topology), rate),
        seed=seed,
        engine=engine,
    )
    if fault_plan is not None:
        FaultInjector(network, fault_plan)
    return network


def _oracle_and_timeline(engine, cycles=600, include_local=False,
                         **kwargs):
    """``(oracle table, timeline table, result)`` of one full run."""
    oracle_net = _network("heap", **kwargs)
    oracle = DeliveryCounter(oracle_net, include_local=include_local)
    oracle_net.run(cycles=cycles, warmup=100)
    network = _network(engine, **kwargs)
    observer = TimelineObserver(
        network, window=WINDOW, include_local=include_local
    )
    result = network.run(cycles=cycles, warmup=100)
    return oracle.table(cycles), _table(observer.timeline()), result


def _busy(table):
    return sum(map(sum, table.values()))


class TestFullRuns:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_ring16_uniform_past_the_knee(self, engine):
        oracle, timeline, result = _oracle_and_timeline(engine)
        # Saturated: well under the offered 0.4 flits/node/cycle.
        assert result.throughput < 0.9 * 0.4 * 16
        assert timeline == oracle
        assert _busy(oracle) > 1_000

    @pytest.mark.parametrize("engine", ENGINES)
    def test_spidergon16_hotspot(self, engine):
        oracle, timeline, _ = _oracle_and_timeline(
            engine, spec="spidergon16", pattern="hotspot:0", rate=0.3
        )
        assert timeline == oracle
        assert _busy(oracle) > 500

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mesh_adaptive_fail_and_repair(self, engine):
        """Killed flits still on the wire arrive (and are dropped)
        after the failure; they count as deliveries."""
        plan = FaultPlan.single(5, 6, at=120, repair_at=400)
        oracle, timeline, result = _oracle_and_timeline(
            engine, spec="mesh4x4:adaptive", rate=0.3, fault_plan=plan
        )
        assert result.extra["resilience"]["flits_dropped"] > 0
        assert timeline == oracle

    @pytest.mark.parametrize("engine", ENGINES)
    def test_include_local(self, engine):
        oracle, timeline, _ = _oracle_and_timeline(
            engine, include_local=True
        )
        assert timeline == oracle
        assert any(key[1] == "local" for key in timeline)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_forced_drain_sends_do_not_count(self, engine):
        """The deadlock positive control recovers through forced
        sends, which bump the sending port's counter but never use
        the wire."""
        cycles = 2_000

        def attach(network):
            return (
                DeliveryCounter(network),
                TimelineObserver(network, window=WINDOW),
            )

        oracle_net = build_deadlock_network(True, engine="heap")
        oracle, _ = attach(oracle_net)
        oracle_net.run(cycles)
        network = build_deadlock_network(True, engine=engine)
        _, observer = attach(network)
        network.run(cycles)
        assert network.drain_controller.sends > 0
        assert observer.drain_events > 0
        assert _table(observer.timeline()) == oracle.table(cycles)


class TestPartialRuns:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_detach_mid_run(self, engine):
        oracle_net = _network("heap")
        oracle = DeliveryCounter(oracle_net)
        network = _network(engine)
        observer = TimelineObserver(network, window=WINDOW)
        oracle_net.simulator.run(until=275)
        network.simulator.run(until=275)
        oracle_net.simulator.remove_observer(oracle)
        observer.detach()
        oracle_net.simulator.run(until=600)
        network.simulator.run(until=600)
        table = _table(observer.timeline())
        assert table == oracle.table(600)
        assert any(counts[5] for counts in table.values())
        assert not any(any(counts[6:]) for counts in table.values())

    @pytest.mark.parametrize("engine", EVENT_ENGINES)
    def test_attach_after_partial_run(self, engine):
        oracle_net = _network("heap")
        network = _network(engine)
        oracle_net.simulator.run(until=230)
        network.simulator.run(until=230)
        oracle = DeliveryCounter(oracle_net)
        observer = TimelineObserver(network, window=WINDOW)
        oracle_net.simulator.run(until=600)
        network.simulator.run(until=600)
        table = _table(observer.timeline())
        assert table == oracle.table(600)
        assert not any(any(counts[:4]) for counts in table.values())
        assert any(counts[4] for counts in table.values())


class TestAfterClose:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_read_after_close_equals_read_before(self, engine):
        network = _network(engine)
        observer = TimelineObserver(network, window=WINDOW)
        network.run(cycles=600, warmup=100)
        before = observer.timeline()
        network.close()
        assert observer.timeline() == before

    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_read_after_close(self, engine):
        """Closing drops the flits on the wire; the open window was
        credited before they went."""
        oracle_net = _network("heap")
        oracle = DeliveryCounter(oracle_net)
        oracle_net.run(cycles=590, warmup=100)
        network = _network(engine)
        observer = TimelineObserver(network, window=WINDOW)
        network.run(cycles=590, warmup=100)
        network.close()
        assert _table(observer.timeline()) == oracle.table(590)
