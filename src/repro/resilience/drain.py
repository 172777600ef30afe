"""Deadlock *recovery*: periodic forced drain along a preset ring.

The repo's deadlock story so far is pure *avoidance* — dateline VC
disciplines, dimension-order turn restrictions (see docs/deadlock.md).
The adaptive algorithms in :mod:`repro.routing.adaptive` drop that
guarantee (``deadlock_free = False``): under load they can close a
cyclic channel dependency and wedge.  This module supplies the
matching recovery mechanism, modelled after DRAIN (Parasar et al.,
HPCA 2020): when the network stops consuming flits, periodically
*spin* buffered flits one hop along a preconfigured closed loop of
routers, breaking every dependency cycle the loop intersects without
dropping a single flit.

Two pieces:

* :func:`drain_ring` — derive the loop: a Hamiltonian cycle over the
  topology's directed links, from closed-form candidates (identity
  ring, Gray code, grid serpentine) validated against the real
  adjacency, falling back to a budgeted Warnsdorff backtracking
  search.  Raises :class:`DrainError` when no cycle exists (e.g. an
  odd-by-odd mesh) — pass an explicit ``ring=`` instead.

* :class:`DrainController` — the runtime.  A cheap periodic kernel
  timer (the :class:`~repro.resilience.injector.FaultInjector` idiom:
  priority-0 events with a handler, applied before the cycle's
  advance/send phases) compares the network's consumed-flit counter
  across a ``detect_cycles`` window; a quiet window with work
  outstanding arms drain mode, which executes *epochs*: one forced
  rotation of the loop per epoch, at an interval that adapts
  DRANO-style — halved while epochs fail to restart consumption,
  doubled (and eventually disarmed) once post-drain progress is
  observed.

An epoch moves flits through the routers' forced-move primitives
(:meth:`~repro.noc.router.Router.drain_pop_for_send` and friends),
which keep wormhole switching and credit bookkeeping exact:

* *send* — the head flit of the loop output queue at ring node ``k``
  crosses the loop link into ``from{k}`` lane of node ``k+1`` with
  zero wire delay (skipped while the real wire still carries flits
  for that lane, which would reorder a worm);
* *pull* — one input-lane head flit advances into an output queue:
  body flits follow their established wormhole switching, head flits
  follow their parked routing decision when it has room and are
  otherwise *misrouted* onto the loop queue (switching state and all,
  so their body flits follow normally) — the DRAIN move that breaks
  the dependency cycle; routing re-decides downstream.

Eligibility is planned as a fixpoint over the whole loop before
anything moves: a send frees a queue slot that may enable the pull
behind it, a pull frees a lane slot that may enable the send into
it — exactly how a full rotation shifts every flit of a wedged cycle
simultaneously.

Forced moves never violate per-packet flit order: a queue mid-worm
(owner set) never admits a foreign head, exactly as in normal
allocation.  This bounds what drain can recover — the same bound
DRAIN itself has, where a packet is assumed to fit its VC buffer.
Wedges whose loop queues are owner-free (each worm's buffered flits
sit contiguously behind or ahead of its parked head) rotate and
recover; a wedge in which *every* loop queue is mid-worm — worms
straddling queue, upstream lane and source simultaneously — offers
no order-preserving move at all, so epochs spin zero flits, the
watchdog shield lapses, and the run is truncated with the usual
diagnostic instead of silently corrupting worms.  The deadlock tests
pin one configuration of each kind.

The controller registers itself as a kernel
:class:`~repro.sim.observers.Observer` (with no-op hooks): forced
moves bypass the batched engine's per-link records, so attaching one
must — and, through the observer registration, automatically does —
make that engine fall back loudly to the classic event loop.

Determinism: detection thresholds, the ring, the plan fixpoint and
the timer cadence are all pure functions of simulation state, so a
drain-recovered run is byte-identical across repeats and event-driven
engines — the property the recovery tests pin.
"""

from __future__ import annotations

from repro.noc.network import Network
from repro.sim.messages import Message
from repro.sim.observers import Observer

__all__ = ["DrainController", "DrainError", "drain_ring"]


class DrainError(RuntimeError):
    """No usable drain ring for a topology, or an invalid override."""


# -- ring derivation ----------------------------------------------------


def _is_cycle(order: list[int], neighbors: list[set]) -> bool:
    """Whether *order* is a closed walk of adjacent, distinct nodes."""
    if len(set(order)) != len(order):
        return False
    return all(
        order[(i + 1) % len(order)] in neighbors[order[i]]
        for i in range(len(order))
    )


def _gray_candidate(n: int) -> list[int] | None:
    """Reflected Gray code order (a Hamiltonian cycle on hypercubes)."""
    if n < 2 or n & (n - 1):
        return None
    return [i ^ (i >> 1) for i in range(n)]


def _grid_candidates(topology) -> list[list[int]]:
    """Serpentine cycles for row-major grids (meshes and tori).

    The classic construction — down column 0, back up serpentining
    through columns 1..C-1 — closes iff the serpentine spans an even
    number of rows; both orientations are emitted and the caller
    validates against the real adjacency (so removed links or
    non-grid numbering simply disqualify the candidate).
    """
    rows = getattr(topology, "rows", None)
    cols = getattr(topology, "cols", None)
    if not rows or not cols or rows * cols != topology.num_nodes:
        return []

    def build(R: int, C: int, at) -> list[int] | None:
        if R < 2 or C < 2 or R % 2:
            return None
        order = [at(r, 0) for r in range(R)]
        for r in range(R - 1, -1, -1):
            cells = range(1, C)
            if (R - 1 - r) % 2:
                cells = reversed(cells)
            order.extend(at(r, c) for c in cells)
        return order

    candidates = []
    for order in (
        build(rows, cols, lambda r, c: r * cols + c),
        build(cols, rows, lambda c, r: r * cols + c),
    ):
        if order is not None:
            candidates.append(order)
    return candidates


def _search_cycle(
    neighbors: list[set], budget: int
) -> list[int] | None:
    """Budgeted Warnsdorff backtracking for a Hamiltonian cycle."""
    n = len(neighbors)
    used = [False] * n
    used[0] = True
    path = [0]
    choice_stack: list[list[int]] = []

    def choices(node: int) -> list[int]:
        free = [peer for peer in neighbors[node] if not used[peer]]
        # Warnsdorff: most-constrained neighbour first; node id
        # breaks ties so the search is deterministic.
        free.sort(
            key=lambda peer: (
                sum(not used[q] for q in neighbors[peer]),
                peer,
            )
        )
        return free

    choice_stack.append(choices(0))
    steps = 0
    while choice_stack:
        steps += 1
        if steps > budget:
            return None
        options = choice_stack[-1]
        if not options:
            choice_stack.pop()
            used[path.pop()] = False
            continue
        nxt = options.pop(0)
        if len(path) == n - 1:
            if 0 in neighbors[nxt]:
                return path + [nxt]
            continue
        used[nxt] = True
        path.append(nxt)
        choice_stack.append(choices(nxt))
    return None


def drain_ring(topology, budget: int = 500_000) -> tuple[int, ...]:
    """A drain loop for *topology*: a Hamiltonian cycle, as a node
    order whose consecutive entries (wrapping) are all linked.

    Closed-form candidates — the identity order (rings, spidergons,
    circulants), the reflected Gray code (hypercubes) and grid
    serpentines (meshes/tori) — are validated against the topology's
    actual adjacency first, so a faulty or re-numbered variant just
    falls through to the generic budgeted backtracking search.

    Raises:
        DrainError: when no Hamiltonian cycle is found (some
            topologies have none, e.g. odd-by-odd meshes); construct
            the :class:`DrainController` with an explicit ``ring=``
            covering the critical routers instead.
    """
    n = topology.num_nodes
    if n < 2:
        raise DrainError(f"{topology.name}: need >= 2 nodes to drain")
    neighbors = [set(topology.neighbors(i)) for i in range(n)]
    candidates: list[list[int]] = [list(range(n))]
    gray = _gray_candidate(n)
    if gray is not None:
        candidates.append(gray)
    candidates.extend(_grid_candidates(topology))
    for order in candidates:
        if _is_cycle(order, neighbors):
            return tuple(order)
    found = _search_cycle(neighbors, budget)
    if found is not None:
        return tuple(found)
    raise DrainError(
        f"no drain ring (Hamiltonian cycle) found for {topology.name};"
        " pass an explicit ring= to DrainController"
    )


# -- the controller -----------------------------------------------------


class _DrainTick(Message):
    """Self-timer for detection checks and drain epochs."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(name="drain-tick")


class DrainController(Observer):
    """Attach DRAIN-style deadlock recovery to *network*.

    Must be constructed after the network and before ``run()``; at
    most one controller per network.  The run's
    ``RunResult.extra["drain"]`` carries :meth:`summary`.

    Args:
        network: The network to guard.
        detect_cycles: Quiet window (no flit consumed, work
            outstanding) that arms drain mode.  Keep it well below
            the :class:`~repro.resilience.watchdog.StallWatchdog`
            threshold so recovery engages before truncation.
        spin_interval: Initial cycles between drain epochs once
            armed.
        min_interval / max_interval: Bounds for the DRANO-style
            adaptation: the interval halves while epochs fail to
            restart consumption and doubles once progress resumes.
        drain_all_vcs: Rotate every virtual channel (default) or
            only VC 0.
        watchdog_grace: How long a productive epoch shields the
            stall watchdog (default ``4 * max_interval``).
        ring: Explicit drain loop (overrides :func:`drain_ring`) —
            distinct, consecutively-linked node ids; need not cover
            every node, but only cycles it intersects can be broken.

    Attributes:
        stall_detections: Quiet windows that armed drain mode.
        epochs: Forced rotations executed.
        pulls / sends: Forced moves by kind (lane-to-queue /
            queue-to-lane), summed over epochs.
        recoveries: Armed episodes that ended with consumption
            observed after a drain epoch.
    """

    def __init__(
        self,
        network: Network,
        *,
        detect_cycles: int = 200,
        spin_interval: int = 64,
        min_interval: int = 8,
        max_interval: int = 512,
        drain_all_vcs: bool = True,
        watchdog_grace: int | None = None,
        ring: "tuple[int, ...] | list[int] | None" = None,
    ) -> None:
        if detect_cycles < 1:
            raise ValueError(
                f"detect_cycles must be >= 1, got {detect_cycles}"
            )
        if not 1 <= min_interval <= spin_interval <= max_interval:
            raise ValueError(
                "need 1 <= min_interval <= spin_interval <= "
                f"max_interval, got {min_interval}/{spin_interval}/"
                f"{max_interval}"
            )
        if network.drain_controller is not None:
            raise ValueError(
                "network already has a DrainController attached"
            )
        self.network = network
        self.detect_cycles = detect_cycles
        self.spin_interval = spin_interval
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.watchdog_grace = (
            watchdog_grace
            if watchdog_grace is not None
            else 4 * max_interval
        )
        self.ring = (
            tuple(ring) if ring is not None else drain_ring(
                network.topology
            )
        )
        self._vcs = tuple(
            range(network.num_vcs) if drain_all_vcs else (0,)
        )
        self._build_loop()
        self.interval = spin_interval
        self.stall_detections = 0
        self.epochs = 0
        self.pulls = 0
        self.sends = 0
        self.recoveries = 0
        self.last_epoch_cycle: int | None = None
        self._armed = False
        self._spun_this_episode = False
        self._progress_mark = -1
        self._shield_from: int | None = None
        network.drain_controller = self
        # Registering without cycle_boundaries_only (the Observer
        # default) is what forces the batched engine to fall back
        # loudly to the classic event loop: forced moves bypass its
        # per-link record tables.  The hooks stay no-ops — all work happens in
        # self-rescheduling kernel timers.
        network.simulator.add_observer(self)
        self._schedule(network.simulator.now + detect_cycles)

    def _build_loop(self) -> None:
        """Resolve the ring into per-edge ports, lanes and gates."""
        topology = self.network.topology
        ring = self.ring
        if len(ring) < 2 or len(set(ring)) != len(ring):
            raise DrainError(
                f"drain ring must be distinct nodes, got {ring}"
            )
        self._out_ports: list[str] = []
        self._in_names: list[str] = []
        for k, node in enumerate(ring):
            nxt = ring[(k + 1) % len(ring)]
            try:
                self._out_ports.append(topology.port_to(node, nxt))
            except (KeyError, ValueError) as exc:
                raise DrainError(
                    f"drain ring edge {node}->{nxt} is not a link of "
                    f"{topology.name}: {exc}"
                ) from exc
            # _in_names[k] names the lane loop edge k feeds: input
            # "from{ring[k]}" at ring[k+1] (so the loop input lane
            # *at* ring[k] is _in_names[k - 1]).
            self._in_names.append(f"from{node}")
        # Arrival gate of each loop link, for the in-flight check
        # (a forced zero-delay send must not overtake flits still on
        # the real wire into the same lane).
        gate_of = {
            (src, port): gate
            for src, port, _, gate in (
                self.network.link_arrival_gates()
            )
        }
        self._edge_gates = [
            gate_of[(ring[k], self._out_ports[k])]
            for k in range(len(ring))
        ]

    # -- timers ---------------------------------------------------------

    def _schedule(self, time: int) -> None:
        simulator = self.network.simulator
        simulator.schedule(
            max(time, simulator.now),
            None,
            _DrainTick(),
            priority=0,
            handler=self._on_tick,
        )

    def _on_tick(self, message: Message) -> None:
        now = self.network.simulator.now
        progress = self.network.flits_consumed()
        if not self._armed:
            stalled = (
                progress == self._progress_mark
                and self.network.work_outstanding()
            )
            self._progress_mark = progress
            if not stalled:
                self._schedule(now + self.detect_cycles)
                return
            # One full detection window with work parked and nothing
            # consumed: arm drain mode and spin immediately.
            self._armed = True
            self._spun_this_episode = False
            self._shield_from = now
            self.stall_detections += 1
        elif progress != self._progress_mark:
            # Consumption restarted after a drain epoch: recovery.
            # DRANO-style relaxation — spins were sufficient, so the
            # next episode may start with a longer interval.
            self.interval = min(self.interval * 2, self.max_interval)
            self.recoveries += 1
            self._armed = False
            self._shield_from = None
            self._progress_mark = progress
            self._schedule(now + self.detect_cycles)
            return
        elif self._spun_this_episode:
            # Still wedged after a full epoch interval: tighten.
            self.interval = max(
                self.interval // 2, self.min_interval
            )
        if not self.network.work_outstanding():
            self._armed = False
            self._shield_from = None
            self._schedule(now + self.detect_cycles)
            return
        moved = self._spin(now)
        self.epochs += 1
        self._spun_this_episode = True
        self.last_epoch_cycle = now
        if moved:
            self._shield_from = now
        self._progress_mark = self.network.flits_consumed()
        self._schedule(now + self.interval)

    def shields_watchdog(self, now: int) -> bool:
        """Whether an active, productive drain episode should defer
        the stall watchdog (consulted, not commanded, by it)."""
        return (
            self._armed
            and self._shield_from is not None
            and now - self._shield_from <= self.watchdog_grace
        )

    # -- the forced rotation --------------------------------------------

    def _inflight_on_loop(self) -> dict[tuple[int, int], int]:
        """Flits still on the wire of loop edge *k*, per (k, vc)."""
        by_gate = {gate: k for k, gate in enumerate(self._edge_gates)}
        return {
            (by_gate[gate], vc): flits
            for (gate, vc), flits in self.network.flits_on_wire().items()
            if gate in by_gate
        }

    def _spin(self, now: int) -> int:
        """Execute one drain epoch; returns forced moves performed.

        Per VC, a rotation is planned as a fixpoint over the loop —
        ``send[k]`` forwards the loop queue head of ring node *k*
        into the loop lane of *k+1*; ``pull[k]`` advances one
        input-lane head at *k* into its planned queue — and then
        executed pops-first so every planned slot exists by the time
        it is filled.
        """
        net = self.network
        ring = self.ring
        M = len(ring)
        routers = [net.routers[node] for node in ring]
        inflight = self._inflight_on_loop()
        moved = 0
        for vc in self._vcs:
            send: list[bool] = []
            pull: list[tuple[str, int, str, int] | None] = []
            for k, router in enumerate(routers):
                out_port = self._out_ports[k]
                if out_port in router.dead_ports:
                    # Never resurrect a failed loop link.
                    send.append(False)
                else:
                    has_head, _, _ = router.drain_queue_info(
                        out_port, vc, now
                    )
                    send.append(has_head)
                pull.append(
                    router.drain_find_pull(
                        out_port,
                        vc,
                        self._in_names[k - 1],
                        send[k],
                        now,
                    )
                )

            def pops_loop_lane(k: int) -> bool:
                plan = pull[k]
                return plan is not None and plan[:2] == (
                    self._in_names[k - 1],
                    vc,
                )

            changed = True
            while changed:
                changed = False
                for k in range(M):
                    if not send[k]:
                        continue
                    nk = (k + 1) % M
                    room = routers[nk].drain_lane_room(
                        self._in_names[k], vc
                    ) + (1 if pops_loop_lane(nk) else 0)
                    if room < 1 or inflight.get((k, vc), 0):
                        # Withdrawing the send also withdraws the
                        # queue slot this node's pull may have been
                        # promised — re-plan it without the pop.
                        send[k] = False
                        pull[k] = routers[k].drain_find_pull(
                            self._out_ports[k],
                            vc,
                            self._in_names[k - 1],
                            False,
                            now,
                        )
                        changed = True
            popped: list[tuple[int, "object"]] = []
            for k in range(M):
                if send[k]:
                    popped.append(
                        (
                            k,
                            routers[k].drain_pop_for_send(
                                self._out_ports[k], vc
                            ),
                        )
                    )
            for k in range(M):
                plan = pull[k]
                if plan is not None:
                    input_name, wire_vc, out_port, out_vc = plan
                    flit = routers[k].drain_execute_pull(
                        input_name, wire_vc, out_port, out_vc, now
                    )
                    self.pulls += 1
                    moved += 1
                    net.notify_drain_move(
                        "pull", flit, ring[k], ring[k], vc
                    )
            for k, flit in popped:
                nk = (k + 1) % M
                routers[nk].drain_deliver(
                    self._in_names[k], vc, flit
                )
                self.sends += 1
                moved += 1
                net.notify_drain_move(
                    "send", flit, ring[k], ring[nk], vc
                )
        return moved

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready recovery report for ``extra["drain"]``."""
        return {
            "ring_length": len(self.ring),
            "detect_cycles": self.detect_cycles,
            "stall_detections": self.stall_detections,
            "epochs": self.epochs,
            "flits_spun": self.pulls + self.sends,
            "pulls": self.pulls,
            "sends": self.sends,
            "recoveries": self.recoveries,
            "last_epoch_cycle": self.last_epoch_cycle,
            "interval": {
                "initial": self.spin_interval,
                "final": self.interval,
                "min": self.min_interval,
                "max": self.max_interval,
            },
        }
