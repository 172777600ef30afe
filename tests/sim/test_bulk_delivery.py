"""The batched fast path delivers a cycle's records in runs, or one at
a time under an event cap; both must give the same run.

An unbounded ``run()`` applies every record up to the next event in
one :func:`repro.noc.router.deliver_records` call.  A run driven in
``max_events`` chunks applies them one record per call, so the cap
can stop between any two.  Each case here runs one network both ways
and requires a byte-identical ``RunResult`` (``events_processed``
included): ring16 past its knee, links of two latencies (the flush
files record by record), a fault that kills packets whose flits are
still on the wire, and user events of negative priority due in
cycles that hold records.
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


def _ring16_past_knee():
    topology = RingTopology(16)
    return Network(
        topology,
        config=NocConfig(source_queue_packets=8),
        traffic=TrafficSpec(UniformTraffic(topology), 0.5),
        seed=7,
        engine="batched",
    )


def _two_latencies():
    topology = Mesh3DTopology(3, 3, 2, tsv_latency=3)
    return Network(
        topology,
        config=NocConfig(source_queue_packets=8),
        traffic=TrafficSpec(UniformTraffic(topology), 0.4),
        seed=5,
        engine="batched",
    )


def _killed_on_the_wire():
    network = _ring16_past_knee()
    plan = FaultPlan.random_faults(
        network.topology, 2, at=200, repair_after=150, seed=3
    )
    FaultInjector(network, plan)
    return network


class _Probe(Message):
    __slots__ = ()


def _negative_priority_probes():
    """Every third cycle, a priority -1 user event reads how many
    flits sit in the routers' buffers and how many were consumed: a
    record delivered before it, or after it, changes the reading."""
    network = _ring16_past_knee()
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


def _run(build, chunk):
    """Run *build*'s network for :data:`CYCLES`, first in *chunk*-event
    ``run()`` calls when *chunk* is given; returns the canonical
    result and the probe readings."""
    network = build()
    sim = network.simulator
    if chunk is not None:
        while sim.run(until=CYCLES, max_events=chunk) == chunk:
            pass
    result = network.run(cycles=CYCLES)
    assert sim.engine.mode == "fast"
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    return canonical, getattr(network, "probe_readings", None), result


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_run_matches_unbounded(name, chunk):
    whole, readings, result = _run(CASES[name], None)
    chunked, chunk_readings, chunk_result = _run(CASES[name], chunk)
    assert chunked == whole
    assert chunk_result.events_processed == result.events_processed
    assert chunk_readings == readings


def test_cases_reach_their_branches():
    """Each case exercises what it is named for."""
    _, readings, _ = _run(_negative_priority_probes, None)
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
