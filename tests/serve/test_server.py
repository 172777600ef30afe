"""End-to-end tests for the campaign server over real HTTP.

Each harness spins a :class:`BackgroundServer` (own thread, own event
loop, real worker processes) on an ephemeral port and talks to it
with the stdlib :class:`ServeClient` — the exact production path of
``python -m repro serve`` / ``python -m repro submit``.  The dedupe
acceptance test at the bottom is the PR's contract: identical
campaign JSON submitted concurrently and sequentially costs exactly
one simulation per unique point.
"""

import json
import socket
import threading

import pytest

from repro.experiments.campaign import campaign_points
from repro.experiments.parallel import (
    CampaignManifest,
    point_key,
)
from repro.resilience.chaos import ENV_VAR
from repro.serve.client import ServeClient, ServerError
from repro.serve.jobs import JobManager
from repro.serve.server import BackgroundServer, CampaignServer
from repro.serve.store import ResultStore


def small_spec(**overrides):
    spec = {
        "name": "serve-smoke",
        "cycles": 400,
        "warmup": 100,
        "seed": 4,
        "source_queue_packets": 8,
        "topologies": ["ring8"],
        "patterns": ["uniform"],
        "rates": [0.05, 0.1],
    }
    spec.update(overrides)
    return spec


def raw_request(port: int, request: bytes) -> bytes:
    """Send *request* verbatim and return the whole response."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return response


def status_and_body(response: bytes) -> tuple[int, bytes]:
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


def dechunk(body: bytes) -> list[bytes]:
    """The data of each chunk of a chunked body, in order."""
    chunks = []
    while True:
        size, _, body = body.partition(b"\r\n")
        size = int(size, 16)
        if size == 0:
            return chunks
        chunks.append(body[:size])
        body = body[size + 2:]


@pytest.fixture
def served(tmp_path):
    """A running server + client; yields (client, jobs)."""
    jobs = JobManager(ResultStore(tmp_path / "store"), workers=2)
    server = CampaignServer(jobs, port=0)
    with BackgroundServer(server) as background:
        client = ServeClient(port=background.port)
        client.wait_until_ready(10.0)
        yield client, jobs


@pytest.mark.chaos
class TestEndpoints:
    def test_health_and_stats(self, served):
        client, jobs = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        stats = client.stats()
        assert stats["submissions"] == 0
        assert stats["stored_results"] == 0

    def test_unknown_route_is_404(self, served):
        client, _ = served
        with pytest.raises(ServerError) as excinfo:
            client._get_json("/nope")
        assert excinfo.value.status == 404

    def test_invalid_spec_rejected_before_simulation(self, served):
        client, jobs = served
        with pytest.raises(ServerError) as excinfo:
            list(client.submit(small_spec(topologies=["butterfly9"])))
        assert excinfo.value.status == 400
        assert "butterfly9" in excinfo.value.detail
        assert jobs.stats.simulated == 0

    def test_misspelt_key_rejected_before_simulation(self, served):
        client, jobs = served
        with pytest.raises(ServerError) as excinfo:
            list(client.submit(small_spec(stall_cycle=3000)))
        assert excinfo.value.status == 400
        assert "unknown key 'stall_cycle'" in excinfo.value.detail
        assert jobs.stats.simulated == 0

    def test_invalid_json_body_rejected(self, served):
        client, _ = served
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            connection.request("POST", "/campaign", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_result_endpoint_serves_stored_point(self, served):
        client, _ = served
        entries, _ = client.submit_campaign(small_spec())
        payload = client.result(entries[0]["key"])
        assert payload is not None
        assert payload["packets_generated"] > 0
        assert client.result("0" * 64) is None

    def test_result_key_cannot_leave_the_store(self, served, tmp_path):
        """``GET /result/<key>`` takes only a point key: a path that
        climbs out of the store is a 404, not the file it names."""
        client, jobs = served
        jobs.store.directory.mkdir()
        assert jobs.store.directory == tmp_path / "store"
        (tmp_path / "secret.json").write_text('{"secret": 1}')
        response = raw_request(
            client.port, b"GET /result/../secret HTTP/1.1\r\n\r\n"
        )
        status, body = status_and_body(response)
        assert status == 404, response
        assert b"secret\": 1" not in body

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_is_400(self, served, length):
        client, jobs = served
        response = raw_request(
            client.port,
            b"POST /campaign HTTP/1.1\r\nContent-Length: " + length
            + b"\r\n\r\n{}",
        )
        status, body = status_and_body(response)
        assert status == 400, response
        assert json.loads(body) == {"error": "invalid Content-Length"}
        assert jobs.stats.submissions == 0


@pytest.mark.chaos
class TestCampaignStream:
    def test_entries_are_manifest_jsonl(self, served, tmp_path):
        """The streamed per-point lines load as a campaign manifest."""
        client, _ = served
        spec = small_spec()
        entries, summary = client.submit_campaign(spec)
        stream_path = tmp_path / "stream.jsonl"
        with stream_path.open("w") as handle:
            for entry in entries:
                handle.write(json.dumps(entry) + "\n")
        manifest = CampaignManifest(stream_path)
        expected_keys = {
            point_key(point) for point in campaign_points(spec)
        }
        assert manifest.completed_keys() == expected_keys
        assert manifest.failures() == []
        for entry in entries:
            assert entry["status"] == "ok"
            assert entry["source"] == "simulated"
            assert entry["cached"] is False
        assert summary == {
            "type": "summary",
            "points": 2,
            "ok": 2,
            "failed": 0,
            "store_hits": 0,
            "coalesced": 0,
            "simulated": 2,
        }

    def test_settled_entries_share_a_chunk(self, served):
        """A resubmission's entries are all store hits, settled before
        the first write, so they and the summary arrive as one chunk
        of several lines: clients read lines, not chunks."""
        client, _ = served
        spec = small_spec()
        client.submit_campaign(spec)
        body = json.dumps(spec).encode()
        response = raw_request(
            client.port,
            b"POST /campaign HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        status, chunked = status_and_body(response)
        assert status == 200
        (chunk,) = dechunk(chunked)
        lines = [json.loads(line) for line in chunk.splitlines()]
        assert [line.get("source") for line in lines] == [
            "store", "store", None
        ]
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["store_hits"] == 2

    def test_served_results_match_batch_execution(
        self, served, tmp_path
    ):
        """Server-side simulation is the same simulation: the stored
        payload equals a local execute_points run of the point."""
        from repro.experiments.parallel import execute_points

        client, jobs = served
        spec = small_spec(rates=[0.05])
        client.submit_campaign(spec)
        (point,) = campaign_points(spec)
        (local,), _ = execute_points([point])
        assert jobs.store.get(point_key(point)) == local


@pytest.mark.chaos
class TestDedupe:
    """Acceptance criterion: N identical submissions, one simulation
    per unique point."""

    def test_sequential_resubmission_is_all_store_hits(self, served):
        client, jobs = served
        spec = small_spec()
        _, first = client.submit_campaign(spec)
        _, second = client.submit_campaign(spec)
        assert first["simulated"] == 2
        assert second == {
            "type": "summary",
            "points": 2,
            "ok": 2,
            "failed": 0,
            "store_hits": 2,
            "coalesced": 0,
            "simulated": 0,
        }
        assert jobs.stats.simulated == 2  # not 4

    def test_concurrent_and_sequential_submissions_cost_one_run_each(
        self, served
    ):
        client, jobs = served
        spec = small_spec()
        unique_points = len(campaign_points(spec))
        outcomes: list[tuple[list, dict]] = []
        failures: list[BaseException] = []

        def submit():
            try:
                outcomes.append(client.submit_campaign(spec))
            except BaseException as exc:  # surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=submit) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not failures
        assert len(outcomes) == 3
        # ... then one more, sequentially, after everything settled.
        entries, summary = client.submit_campaign(spec)

        # Exactly one simulation per unique point, ever.
        assert jobs.stats.simulated == unique_points
        # The late submission is served entirely from the store.
        assert summary["store_hits"] == unique_points
        assert summary["simulated"] == 0
        # Every submission saw every point succeed, and the dedupe
        # tiers account for every resolution.
        for got_entries, got_summary in outcomes + [
            (entries, summary)
        ]:
            assert got_summary["points"] == unique_points
            assert got_summary["ok"] == unique_points
            assert (
                got_summary["store_hits"]
                + got_summary["coalesced"]
                + got_summary["simulated"]
            ) == unique_points
            # All submissions streamed parseable manifest entries
            # naming the same content-addressed keys.
            assert {e["key"] for e in got_entries} == {
                point_key(p) for p in campaign_points(spec)
            }
        # Across the concurrent trio: 2 simulations happened once
        # each; everything else coalesced or hit the store.
        total_simulated = sum(
            s["simulated"] for _, s in outcomes
        )
        assert total_simulated == unique_points


@pytest.mark.chaos
def test_stats_count_a_timeout(tmp_path, monkeypatch):
    """A hung point times out, its worker is replaced, and /stats
    reports the executor's counts next to the dedupe tiers."""
    monkeypatch.setenv(
        ENV_VAR,
        json.dumps({"match": ":0.05", "mode": "hang", "seconds": 60}),
    )
    jobs = JobManager(
        ResultStore(tmp_path / "store"), workers=1, timeout=1.0
    )
    with BackgroundServer(CampaignServer(jobs, port=0)) as background:
        client = ServeClient(port=background.port)
        client.wait_until_ready(10.0)
        _, summary = client.submit_campaign(small_spec())
        stats = client.stats()
    assert (summary["ok"], summary["failed"]) == (1, 1)
    assert stats["timeouts"] == 1
    assert stats["pool_rebuilds"] == 1
    assert stats["crashes"] == 0
    assert stats["retried"] == 0
