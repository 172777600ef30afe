"""Tests for flit-lifecycle tracing (TraceSink + FlitTracer + CLI)."""

import json

import pytest

from repro.noc.config import NocConfig
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.obs import FlitTracer, TraceSink
from repro.topology import RingTopology
from repro.traffic.base import TrafficSpec
from repro.traffic.patterns import UniformTraffic


class TestTraceSink:
    def test_writes_jsonl(self):
        sink = TraceSink.in_memory()
        assert sink.write({"type": "a", "n": 1})
        assert sink.write({"type": "b"})
        lines = sink.text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"type": "a", "n": 1},
            {"type": "b"},
        ]
        assert sink.records_written == 2

    def test_limit_drops_and_counts(self):
        sink = TraceSink.in_memory(limit=2)
        results = [sink.write({"n": n}) for n in range(5)]
        assert results == [True, True, False, False, False]
        assert sink.records_written == 2
        assert sink.records_dropped == 3
        assert len(sink.text().splitlines()) == 2

    def test_disabled_sink_is_a_noop(self):
        sink = TraceSink.disabled()
        assert not sink.enabled
        assert not sink.write({"n": 1})
        assert sink.records_written == 0
        assert sink.records_dropped == 0

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            TraceSink.in_memory(limit=0)

    def test_to_path_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceSink.to_path(path) as sink:
            sink.write({"n": 1})
        assert json.loads(path.read_text()) == {"n": 1}

    def test_text_requires_in_memory(self, tmp_path):
        with TraceSink.to_path(tmp_path / "t.jsonl") as sink:
            with pytest.raises(TypeError):
                sink.text()


def traced_run(packets, until=300):
    """Run a traffic-less ring with *packets* injected by hand."""
    network = Network(RingTopology(8))
    sink = TraceSink.in_memory()
    tracer = FlitTracer(network, sink)
    for src, dst in packets:
        network.interfaces[src].enqueue_packet(
            Packet(src, dst, 2, created_at=0)
        )
    network.simulator.run(until=until)
    tracer.detach()
    return network, [
        json.loads(line) for line in sink.text().splitlines()
    ]


class TestFlitTracer:
    def test_lifecycle_ordering(self):
        _, records = traced_run([(0, 3)])
        by_flit = {}
        for record in records:
            by_flit.setdefault(record["flit"], []).append(record)
        assert by_flit  # something was traced
        for flit_records in by_flit.values():
            events = [r["ev"] for r in flit_records]
            assert events[0] in ("generate", "inject")
            assert events[-1] == "consume"
            hops = [r for r in flit_records if r["ev"] == "hop"]
            # 0 -> 3 on a ring of 8: three link traversals.
            assert len(hops) == 3
            times = [r["t"] for r in flit_records]
            assert times == sorted(times)

    def test_generate_emitted_once_per_packet(self):
        _, records = traced_run([(0, 3), (4, 6)])
        generates = [r for r in records if r["ev"] == "generate"]
        assert len(generates) == 2
        assert all(r["flit"] == 0 for r in generates)
        assert all(r["t"] == 0 for r in generates)  # created_at

    def test_hop_path_is_contiguous(self):
        _, records = traced_run([(0, 3)])
        head_hops = [
            r
            for r in records
            if r["ev"] == "hop" and r["flit"] == 0
        ]
        path = [head_hops[0]["from"]] + [r["node"] for r in head_hops]
        assert path == [0, 1, 2, 3]
        assert all("port" in r for r in head_hops)

    def test_schema_fields(self):
        _, records = traced_run([(0, 2)])
        for record in records:
            assert record["type"] == "flit"
            assert set(record) >= {"ev", "t", "pkt", "flit", "src", "dst"}
            if record["ev"] != "generate":
                assert "node" in record and "vc" in record
            if record["ev"] == "hop":
                assert "from" in record and "port" in record

    def test_detach_stops_recording(self):
        network = Network(RingTopology(8))
        sink = TraceSink.in_memory()
        tracer = FlitTracer(network, sink)
        tracer.detach()
        tracer.detach()  # idempotent
        network.interfaces[0].enqueue_packet(Packet(0, 3, 2, created_at=0))
        network.simulator.run(until=100)
        assert sink.records_written == 0

    def test_disabled_sink_records_nothing(self):
        topology = RingTopology(8)
        network = Network(
            topology,
            config=NocConfig(source_queue_packets=16),
            traffic=TrafficSpec(UniformTraffic(topology), 0.1),
            seed=1,
        )
        sink = TraceSink.disabled()
        FlitTracer(network, sink)
        network.run(cycles=500, warmup=0)
        assert sink.records_written == 0
        assert sink.records_dropped == 0


class TestTraceCli:
    def run_cli(self, tmp_path, *extra):
        from repro.__main__ import main

        out = tmp_path / "trace.jsonl"
        code = main(
            [
                "run",
                "ring16",
                "hotspot:0",
                "0.1",
                "cycles=2000",
                "warmup=0",
                "timeline_window=100",
                "--trace",
                str(out),
                *extra,
            ]
        )
        assert code == 0
        return [
            json.loads(line)
            for line in out.read_text().splitlines()
        ]

    def test_emits_valid_jsonl_with_all_record_types(self, tmp_path):
        records = self.run_cli(tmp_path)
        types = {r["type"] for r in records}
        assert types == {"meta", "flit", "link", "timeline", "summary"}
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "summary"

    def test_hotspot_incoming_links_lead_the_ranking(self, tmp_path):
        # Acceptance criterion: the per-link utilization identifies
        # the hot-spot's incoming links as the most loaded.
        records = self.run_cli(tmp_path)
        links = [r for r in records if r["type"] == "link"]
        assert links == sorted(
            links, key=lambda r: r["flits"], reverse=True
        )
        assert {link["dst"] for link in links[:2]} == {0}

    def test_summary_reports_kernel_profile(self, tmp_path):
        records = self.run_cli(tmp_path, "--limit", "0")
        assert not any(r["type"] == "flit" for r in records)
        summary = records[-1]
        assert summary["kernel"]["events"] > 0
        assert summary["result"]["events_processed"] == (
            summary["kernel"]["events"]
        )

    def test_limit_bounds_flit_records(self, tmp_path):
        records = self.run_cli(tmp_path, "--limit", "50")
        flits = [r for r in records if r["type"] == "flit"]
        assert len(flits) == 50 - 1  # one slot goes to the meta record
        assert records[-1]["flit_records_dropped"] > 0

    def test_rejects_bad_arguments(self, capsys):
        from repro.__main__ import main

        assert main(["run", "ring16", "uniform", "0.1", "cycles=0"]) == 2
        assert main(["run", "nosuch16", "uniform", "0.1"]) == 2
        assert main(["run", "ring16", "uniform", "0.1",
                     "--trace", "x.jsonl", "--limit", "-1"]) == 2
        capsys.readouterr()
