"""Periodic buffer-occupancy sampling during a run.

The paper's buffer-tuning experiments ("modifying the overall buffer
capacity of nodes and buffer symmetry depending on the expected link
usage") need visibility into how full the queues actually run.  An
:class:`OccupancySampler` snapshots every router's buffered-flit
count on a fixed period and summarises the series.

Create the sampler after building the network and before running::

    net = Network(topology, traffic=traffic)
    sampler = OccupancySampler(net, period=100)
    net.run(cycles=20_000, warmup=4_000)
    print(sampler.summary())
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.messages import Message
from repro.sim.module import SimModule


class _SampleTick(Message):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(name="occupancy-sample")


@dataclass(frozen=True, slots=True)
class OccupancySummary:
    """Aggregates over all samples taken after warmup."""

    samples: int
    mean_total_flits: float
    peak_total_flits: int
    peak_router: str
    mean_per_router: float


class OccupancySampler(SimModule):
    """Samples total buffered flits per router every *period* cycles."""

    def __init__(self, network, period: int = 100) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        super().__init__(network.simulator, "occupancy-sampler")
        self.network = network
        self.period = period
        self._tick = _SampleTick()
        #: (time, total flits) per sample.
        self.series: list[tuple[int, int]] = []
        #: (time, per-router occupancy list) kept for peak attribution.
        self._per_router_peak = (0, -1, "")

    def initialize(self) -> None:
        self.schedule_self(self.period, self._tick)

    def handle_message(self, message: Message) -> None:
        total = 0
        for router in self.network.routers:
            occupancy = router.total_buffered_flits()
            total += occupancy
            if occupancy > self._per_router_peak[1]:
                self._per_router_peak = (
                    self.now,
                    occupancy,
                    router.name,
                )
        self.series.append((self.now, total))
        self.schedule_self(self.period, self._tick)

    def close(self) -> None:
        """Also cut the reused timer's link back to this sampler."""
        super().close()
        self._tick.sender = None

    def summary(self, warmup: int = 0) -> OccupancySummary:
        """Summarise samples taken at or after cycle *warmup*.

        Raises:
            ValueError: if no samples fall in the window.
        """
        window = [(t, v) for t, v in self.series if t >= warmup]
        if not window:
            raise ValueError(
                f"no occupancy samples at or after cycle {warmup}"
            )
        totals = [v for _, v in window]
        num_routers = len(self.network.routers)
        return OccupancySummary(
            samples=len(window),
            mean_total_flits=sum(totals) / len(totals),
            peak_total_flits=max(totals),
            peak_router=self._per_router_peak[2],
            mean_per_router=sum(totals) / len(totals) / num_routers,
        )
