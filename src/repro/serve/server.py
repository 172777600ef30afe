"""Asyncio campaign server: HTTP endpoints over the job layer.

``python -m repro serve`` binds a :class:`CampaignServer`.  The
protocol is deliberately plain HTTP/1.1 on stdlib ``asyncio`` streams
(no framework, no new dependencies):

``GET /healthz``
    ``{"status": "ok", "workers": N}`` — readiness probe.
``GET /stats``
    Cumulative :class:`~repro.serve.jobs.ServeStats` counters plus
    the number of stored results.
``GET /result/<key>``
    The stored :class:`~repro.stats.summary.RunResult` JSON for one
    point key, or 404.  Only a point-key digest names an entry, so
    no key reaches a path outside the store.
``POST /campaign``
    Body: a campaign spec JSON — the exact format
    :class:`~repro.experiments.campaign.Campaign` accepts.  The
    response streams **chunked JSONL**: one line per point, in
    completion order, each line a
    :func:`~repro.experiments.parallel.manifest_entry` dict with an
    extra ``"source"`` field (``store`` / ``coalesced`` /
    ``simulated``), followed by a final ``{"type": "summary", ...}``
    line.  Because the per-point lines *are* manifest entries, a
    captured stream is a loadable
    :class:`~repro.experiments.parallel.CampaignManifest`.  Each
    chunk carries every line settled since the last, so clients read
    lines, not chunks.  Store hits settle inline while the spec is
    expanded; only a miss waits in a task.

Dedupe semantics live in :class:`~repro.serve.jobs.JobManager`; the
server only expands specs into sweep points (via
:func:`~repro.experiments.campaign.campaign_points` — the same
expansion batch campaigns use, so point keys agree) and streams the
outcomes as they settle.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http import HTTPStatus

from repro.experiments import parallel
from repro.experiments.campaign import campaign_points
from repro.serve.jobs import JobManager

__all__ = ["BackgroundServer", "CampaignServer"]

_MAX_REQUEST_BYTES = 4 * 1024 * 1024
_SERVER_NAME = "repro-serve"


def _response_head(
    status: HTTPStatus, content_type: str, *extra: str
) -> bytes:
    lines = [
        f"HTTP/1.1 {status.value} {status.phrase}",
        f"Server: {_SERVER_NAME}",
        f"Content-Type: {content_type}",
        "Connection: close",
        *extra,
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def _json_response(status: HTTPStatus, payload: dict) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return (
        _response_head(
            status,
            "application/json",
            f"Content-Length: {len(body)}",
        )
        + body
    )


def _chunk(data: bytes) -> bytes:
    return f"{len(data):X}\r\n".encode() + data + b"\r\n"


class CampaignServer:
    """The HTTP surface over a :class:`~repro.serve.jobs.JobManager`.

    Args:
        jobs: The job layer (owns the pool, the store, the stats).
        host: Bind address.
        port: Bind port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self,
        jobs: JobManager,
        host: str = "127.0.0.1",
        port: int = 8642,
    ) -> None:
        self.jobs = jobs
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.jobs.close_in_workers(
            sock.fileno() for sock in self._server.sockets
        )

    async def close(self) -> None:
        """Stop accepting connections and terminate the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.jobs.close()

    # -- request plumbing ----------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            await self._handle_request(reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        except Exception as exc:  # noqa: BLE001 — a bug must not kill the server
            try:
                writer.write(
                    _json_response(
                        HTTPStatus.INTERNAL_SERVER_ERROR,
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
                )
            except (ConnectionError, RuntimeError):
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _handle_request(self, reader, writer) -> None:
        request_line = (await reader.readline()).decode(
            "latin-1"
        ).rstrip("\r\n")
        if not request_line:
            return
        parts = request_line.split()
        if len(parts) != 3:
            writer.write(
                _json_response(
                    HTTPStatus.BAD_REQUEST,
                    {"error": f"malformed request line {request_line!r}"},
                )
            )
            return
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            writer.write(
                _json_response(
                    HTTPStatus.BAD_REQUEST,
                    {"error": "invalid Content-Length"},
                )
            )
            return
        length = int(declared)
        if length > _MAX_REQUEST_BYTES:
            writer.write(
                _json_response(
                    HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                    {"error": f"body over {_MAX_REQUEST_BYTES} bytes"},
                )
            )
            return
        if length:
            body = await reader.readexactly(length)
        await self._route(method, target, body, writer)

    async def _route(
        self, method: str, target: str, body: bytes, writer
    ) -> None:
        if method == "GET" and target == "/healthz":
            writer.write(
                _json_response(
                    HTTPStatus.OK,
                    {
                        "status": "ok",
                        "workers": self.jobs.workers,
                    },
                )
            )
            return
        if method == "GET" and target == "/stats":
            payload = self.jobs.stats.to_dict()
            payload["stored_results"] = len(self.jobs.store)
            payload["inflight"] = len(self.jobs.inflight_keys)
            writer.write(_json_response(HTTPStatus.OK, payload))
            return
        if method == "GET" and target.startswith("/result/"):
            key = target[len("/result/"):]
            data = self.jobs.store.get_dict(key)
            if data is None:
                writer.write(
                    _json_response(
                        HTTPStatus.NOT_FOUND,
                        {"error": f"no stored result for key {key!r}"},
                    )
                )
            else:
                writer.write(_json_response(HTTPStatus.OK, data))
            return
        if method == "POST" and target == "/campaign":
            await self._handle_campaign(body, writer)
            return
        writer.write(
            _json_response(
                HTTPStatus.NOT_FOUND,
                {"error": f"no route for {method} {target}"},
            )
        )

    # -- the campaign endpoint -----------------------------------------

    async def _handle_campaign(self, body: bytes, writer) -> None:
        try:
            spec = json.loads(body.decode())
            if not isinstance(spec, dict):
                raise ValueError("campaign spec must be a JSON object")
            points = campaign_points(spec)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            writer.write(
                _json_response(
                    HTTPStatus.BAD_REQUEST,
                    {"error": f"body is not valid JSON: {exc}"},
                )
            )
            return
        except (ValueError, KeyError, TypeError) as exc:
            writer.write(
                _json_response(
                    HTTPStatus.BAD_REQUEST,
                    {"error": f"invalid campaign spec: {exc}"},
                )
            )
            return
        self.jobs.stats.submissions += 1
        writer.write(
            _response_head(
                HTTPStatus.OK,
                "application/x-ndjson",
                "Transfer-Encoding: chunked",
            )
        )

        def entry(point, key, result, source) -> dict:
            line = parallel.manifest_entry(
                point, result, source != "simulated", key
            )
            line["source"] = source
            return line

        async def resolve(point, key, claimed) -> dict:
            return entry(point, key, *await claimed)

        # A store hit settles here and now; only a miss gets a task.
        # Tasks are intentionally not cancelled if the client
        # disconnects mid-stream: the simulations are already paid
        # for, other submissions may be coalesced onto them, and
        # finishing them warms the store.
        settled: list[dict] = []
        pending: set[asyncio.Task] = set()
        for point in points:
            key = parallel.point_key(point)
            hit = self.jobs.lookup(key)
            if hit is None:
                claimed = self.jobs.claim(point, key)
                pending.add(
                    asyncio.create_task(resolve(point, key, claimed))
                )
            else:
                settled.append(entry(point, key, hit, "store"))
        counts = {"store": 0, "coalesced": 0, "simulated": 0}
        ok = failed = 0
        client_gone = False
        while True:
            # Every entry settled since the last write goes out as one
            # chunk, with one drain; the last chunk also carries the
            # summary, and the body ends with it.
            lines = []
            for line in settled:
                counts[line["source"]] += 1
                if line["status"] == "ok":
                    ok += 1
                else:
                    failed += 1
                lines.append(json.dumps(line) + "\n")
            end = b""
            if not pending:
                summary = {
                    "type": "summary",
                    "points": len(points),
                    "ok": ok,
                    "failed": failed,
                    "store_hits": counts["store"],
                    "coalesced": counts["coalesced"],
                    "simulated": counts["simulated"],
                }
                lines.append(json.dumps(summary) + "\n")
                end = b"0\r\n\r\n"
            if lines and not client_gone:
                try:
                    writer.write(_chunk("".join(lines).encode()) + end)
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    client_gone = True
            if not pending:
                return
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            settled = [task.result() for task in done]


class BackgroundServer:
    """A :class:`CampaignServer` on its own thread and event loop.

    The harness tests and embedders use: start, talk to
    ``http://127.0.0.1:<port>`` from any thread, stop.  The foreground
    path (``python -m repro serve``) does not go through here.
    """

    def __init__(self, server: CampaignServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("campaign server failed to start")
        if self._startup_error is not None:
            raise RuntimeError(
                "campaign server failed to start"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self._stop.wait()
            await self.server.close()

        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
