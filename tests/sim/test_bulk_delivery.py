"""The batched fast path delivers a cycle's records in runs; the run
must equal the heap oracle's event-by-event one.

The fast path applies every record up to the next event in one
:func:`repro.noc.router.deliver_records` call, where the heap engine
delivers one event per flit or credit.  Each case here runs one
network on both engines and requires a byte-identical ``RunResult``
(``events_processed`` included): ring16 past its knee, links of two
latencies (the flush files record by record), a fault that kills
packets whose flits are still on the wire, and user events of
negative priority due in cycles that hold records.  Each case also
runs in ``run(until=)`` steps of 1 and 7 cycles, which must equal the
unbounded run.
"""

import json

import pytest

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.resilience import FaultInjector, FaultPlan
from repro.sim.messages import Message
from repro.topology import Mesh3DTopology, RingTopology
from repro.traffic import TrafficSpec, UniformTraffic

CYCLES = 600


def _ring16_past_knee(engine="batched"):
    topology = RingTopology(16)
    return Network(
        topology,
        config=NocConfig(source_queue_packets=8),
        traffic=TrafficSpec(UniformTraffic(topology), 0.5),
        seed=7,
        engine=engine,
    )


def _two_latencies(engine="batched"):
    topology = Mesh3DTopology(3, 3, 2, tsv_latency=3)
    return Network(
        topology,
        config=NocConfig(source_queue_packets=8),
        traffic=TrafficSpec(UniformTraffic(topology), 0.4),
        seed=5,
        engine=engine,
    )


def _killed_on_the_wire(engine="batched"):
    network = _ring16_past_knee(engine)
    plan = FaultPlan.random_faults(
        network.topology, 2, at=200, repair_after=150, seed=3
    )
    FaultInjector(network, plan)
    return network


class _Probe(Message):
    __slots__ = ()


def _negative_priority_probes(engine="batched"):
    """Every third cycle, a priority -1 user event reads how many
    flits sit in the routers' buffers and how many were consumed: a
    record delivered before it, or after it, changes the reading."""
    network = _ring16_past_knee(engine)
    sim = network.simulator
    readings = network.probe_readings = []

    def probe(message):
        readings.append(
            (
                sim.now,
                sum(r.total_buffered_flits() for r in network.routers),
                network.stats.flits_consumed,
            )
        )
        if sim.now + 3 < CYCLES:
            sim.schedule(
                sim.now + 3,
                network.scheduler,
                _Probe(),
                priority=-1,
                handler=probe,
            )

    sim.schedule(10, network.scheduler, _Probe(), priority=-1, handler=probe)
    return network


CASES = {
    "ring16-past-knee": _ring16_past_knee,
    "mesh3d-two-latencies": _two_latencies,
    "ring16-killed-on-the-wire": _killed_on_the_wire,
    "ring16-negative-priority": _negative_priority_probes,
}


def _run(build, engine="batched", chunk=None):
    """Run *build*'s network on *engine* for :data:`CYCLES`, first in
    incremental ``run(until=)`` calls *chunk* cycles apart when *chunk*
    is given; returns the canonical result and the probe readings."""
    network = build(engine)
    if chunk is not None:
        for until in range(0, CYCLES, chunk):
            network.simulator.run(until=until)
    result = network.run(cycles=CYCLES)
    if engine == "batched":
        assert network.simulator.engine.mode == "fast"
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return canonical, getattr(network, "probe_readings", None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_path_matches_heap(name):
    assert _run(CASES[name]) == _run(CASES[name], "heap")


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_run_matches_unbounded(name, chunk):
    """A fast-path run stopped and resumed every *chunk* cycles equals
    the unbounded one."""
    assert _run(CASES[name], chunk=chunk) == _run(CASES[name])


def test_cases_reach_their_branches():
    """Each case exercises what it is named for."""
    _, readings = _run(_negative_priority_probes)
    assert len(readings) > 100 and any(r[1] for r in readings)
    # On the fast path only a killed packet's flit arriving reaches
    # the model's receive_flit.
    network = _killed_on_the_wire()
    killed_arrivals = []
    for agent in (*network.routers, *network.interfaces):
        def counted(*args, receive=agent.receive_flit):
            killed_arrivals.append(args[-1])
            receive(*args)

        agent.receive_flit = counted
    network.run(cycles=CYCLES)
    assert killed_arrivals
    assert all(flit.packet.killed for flit in killed_arrivals)
    network = _two_latencies()
    network.run(cycles=CYCLES)
    assert network.simulator.engine._delay == 0  # filed per record
