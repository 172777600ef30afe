"""``python -m repro serve`` shuts down cleanly on SIGTERM, and frees
its port even when killed.

The server runs as a real subprocess.  After it has simulated a point
(so its worker pool exists), SIGTERM must make it exit with status 0,
leave none of its worker processes running, and free its port for a
new server.  SIGKILL runs no cleanup: the orphaned workers must not
hold the port, and must exit on their own within a few seconds.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.serve.client import ServeClient

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="reads process parents from /proc",
    ),
]


def _start_server(port, store):
    """A ``repro serve`` subprocess and the port it printed."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--workers", "2", "--store", str(store),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    line = process.stdout.readline()
    if "serving on" not in line:
        process.kill()
        _, err = process.communicate(timeout=30)
        raise AssertionError(f"server did not start: {line!r} {err}")
    return process, int(line.split("serving on http://")[1].split()[0]
                        .rsplit(":", 1)[1])


def _live_children(pid):
    """Pids of the running (not zombie) processes whose parent is
    *pid*."""
    children = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            children.append(int(entry.name))
    return children


def _alive(pid):
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_for_exit(pids, seconds):
    """Whether every process of *pids* has exited within *seconds*."""
    deadline = time.monotonic() + seconds
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not any(map(_alive, pids))


def _simulate_a_point(server, port):
    """Submit one point; return the server's worker pids."""
    client = ServeClient(port=port)
    client.wait_until_ready(15.0)
    _, summary = client.submit_campaign(
        {
            "name": "signals",
            "cycles": 300,
            "warmup": 50,
            "seed": 2,
            "topologies": ["ring8"],
            "patterns": ["uniform"],
            "rates": [0.05],
        }
    )
    assert summary["ok"] == 1
    workers = _live_children(server.pid)
    assert workers  # the pool is up
    return workers


def _rebind(port, store):
    """A new server binds *port*, then stops on SIGTERM."""
    again, again_port = _start_server(port, store)
    try:
        assert again_port == port
        again.send_signal(signal.SIGTERM)
        assert again.wait(timeout=30) == 0
    finally:
        again.kill()
        again.communicate(timeout=30)


def test_sigterm_stops_workers_and_frees_the_port(tmp_path):
    server, port = _start_server(0, tmp_path / "store")
    workers = []
    try:
        workers = _simulate_a_point(server, port)
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
        assert _wait_for_exit(workers, 10)
        _rebind(port, tmp_path / "store")
    finally:
        # Orphaned workers hold the server's pipes: kill them first.
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        server.kill()
        server.communicate(timeout=30)


def test_sigkill_leaves_the_port_free(tmp_path):
    server, port = _start_server(0, tmp_path / "store")
    workers = []
    try:
        workers = _simulate_a_point(server, port)
        server.kill()
        server.wait(timeout=30)
        # The orphaned workers do not hold the listening socket...
        _rebind(port, tmp_path / "store")
        # ...and notice they are orphaned and exit.
        assert _wait_for_exit(workers, 5)
    finally:
        # Only a failed run leaves workers behind to clean up.
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        server.kill()
        server.communicate(timeout=30)
