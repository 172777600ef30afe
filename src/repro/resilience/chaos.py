"""Worker-side chaos hooks for exercising the crash-tolerant executor.

Real worker failures (OOM kills, wedged child processes, flaky model
bugs) are hard to produce on demand, so the executor's recovery paths
are driven by *injected* failures instead: when the ``REPRO_CHAOS``
environment variable is set, every sweep worker calls
:func:`apply_chaos` just before simulating a point and — if the point
matches — crashes, hangs, or raises on purpose.  The variable holds a
JSON object:

``match``
    Whole ``:``-separated fields of the point descriptor
    (``"<topology>:<pattern>:<rate>"``) selecting which points
    misbehave: ``":0.1"`` selects rate 0.1 but not 0.15, ``"ring8"``
    selects ring8 but not ring80.  Empty string matches all.
``mode``
    ``"crash"`` (``os._exit(42)``, which a process pool surfaces as
    :class:`~concurrent.futures.process.BrokenProcessPool`),
    ``"hang"`` (sleep, to trip per-point timeouts) or ``"error"``
    (raise ``RuntimeError``).
``seconds``
    Sleep length for ``"hang"`` (default 3600 — rely on the timeout).
``once_dir``
    Optional directory; when set, each matching point misbehaves only
    on its first attempt (a marker file records the strike), so
    retried points succeed — the happy recovery path.

The hook is a no-op when the variable is unset; production campaigns
never pay for it.  Used by the executor tests and the CI chaos smoke
step.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

ENV_VAR = "REPRO_CHAOS"


class ChaosError(RuntimeError):
    """The deliberate failure raised by ``mode: "error"``."""


def apply_chaos(descriptor: str) -> None:
    """Misbehave according to ``REPRO_CHAOS`` if *descriptor* matches.

    Args:
        descriptor: Human-readable point identity, e.g.
            ``"ring8:uniform:0.1"``.

    Raises:
        ChaosError: in ``"error"`` mode.
        ValueError: when the variable holds invalid JSON or an
            unknown mode — chaos configuration bugs should be loud.
    """
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid {ENV_VAR} JSON: {exc}") from exc
    fields = config.get("match", "").strip(":")
    if fields and f":{fields}:" not in f":{descriptor}:":
        return
    mode = config.get("mode", "crash")
    if mode not in ("crash", "hang", "error"):
        raise ValueError(f"unknown {ENV_VAR} mode {mode!r}")
    once_dir = config.get("once_dir")
    if once_dir:
        digest = hashlib.sha256(
            f"{descriptor}:{mode}".encode()
        ).hexdigest()[:24]
        marker = os.path.join(once_dir, f"chaos-{digest}")
        try:
            # O_EXCL makes "first attempt only" atomic across
            # concurrent workers hitting the same point key.
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return  # already struck once; behave this time
    if mode == "crash":
        os._exit(42)
    if mode == "hang":
        time.sleep(float(config.get("seconds", 3600)))
        return
    raise ChaosError(f"injected failure for {descriptor}")
