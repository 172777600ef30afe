"""The benchmark's workloads: their inputs, one timed pass over them,
and the correctness checks made outside the timed region.

Every input derives from the root seed given on the command line; the
simulator only ever sees the generated sweep points and campaign
specs.  A pass is the unit of timing: the runner repeats passes until
the run's time is up and reports medians over them, so the amount of
work per reported number never depends on how fast the host was.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import shutil
import tempfile
import time
from dataclasses import replace

from calibrate import SpeedProbe
from repro.analysis.capacity import (
    hotspot_saturation_rate,
    uniform_saturation_rate,
)
from repro.experiments import campaign as campaign_module
from repro.experiments import figures, parallel
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.experiments.specs import parse_topology, parse_topology_routing
from repro.routing import routing_for
from repro.topology import average_distance

#: Worker processes for the campaign pools: the reference machine's
#: core count, so the numbers measure the program, not the scheduler.
WORKERS = 2

ENGINES = ("wheel", "heap", "batched")

perf = time.perf_counter


@dataclasses.dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclasses.dataclass
class PassRecord:
    """What one timed pass did.

    Attributes:
        ops: Seconds of each operation of the pass, in order, at
            reference host speed (see ``calibrate.py``).
        raw_wall_s: Seconds of the whole pass as measured on this host.
        sim_ops: Indices of the operations that simulated the points
            counted in *node_cycles* and *flits*.
        latency_ops: Indices of the operations a user waits on one by
            one: a simulated point, or a serve submission round trip.
        node_cycles / flits: Simulated work (cycles x nodes, and flits
            delivered after warmup) of those points.
        digest: :func:`digest` of the simulated points.
        results: ``(point, result)`` of every simulated point; kept
            for the first pass only where results are large, so memory
            does not grow with the number of passes.
        phases: Named extras of the pass.
        served: ``(spec, entries, summary)`` per serve submission.
    """

    ops: list
    raw_wall_s: float
    sim_ops: range
    latency_ops: range
    node_cycles: int
    flits: int
    digest: str
    results: list
    phases: dict = dataclasses.field(default_factory=dict)
    served: list = dataclasses.field(default_factory=list)


def canonical(result) -> str:
    """A result's simulated outputs as one stable string (a RunResult
    holds no wall-clock field)."""
    return json.dumps(result.to_dict(), sort_keys=True)


def digest(results) -> str:
    """sha256 over the canonical outputs of ``(point, result)`` pairs;
    the engine is left out, so every engine must give the same one."""
    sha = hashlib.sha256()
    for point, result in results:
        sha.update(
            f"{point.topology}|{point.pattern}|{point.rate!r}|".encode()
        )
        sha.update(canonical(result).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def sub_seed(*parts) -> int:
    """A 32-bit seed that is a pure function of *parts*."""
    text = "|".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def with_engine(point: SweepPoint, engine: str) -> SweepPoint:
    return replace(point, settings=replace(point.settings, engine=engine))


def label(point: SweepPoint) -> str:
    return f"{point.topology}:{point.pattern}@{point.rate:g}"


class Workload:
    """Shared checks; subclasses define the points and the pass."""

    name = ""
    #: Indices of the points re-run on the heap oracle.
    sample: tuple = ()

    def __init__(
        self, seed: int, workdir: pathlib.Path, probe: SpeedProbe
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self._bounds: dict = {}
        self._spans: list[tuple[float, float]] = []
        self._probe_spent = 0.0
        self._start = 0.0

    def begin_pass(self) -> None:
        self.probe.run()
        self._spans = []
        self._probe_spent = self.probe.spent
        self._start = perf()

    def timed(self, fn, *args):
        """Call *fn* as one operation of the pass, probing host speed
        first if a probe is due."""
        self.probe.due()
        begin = perf()
        result = fn(*args)
        self._spans.append((begin, perf()))
        return result

    def end_pass(self) -> tuple[float, list[float]]:
        """(raw wall, per-operation seconds) of the pass."""
        stop = perf()
        raw_wall = stop - self._start - (self.probe.spent - self._probe_spent)
        self.probe.run()
        return raw_wall, [
            self.probe.normalize(end - begin, begin, end)
            for begin, end in self._spans
        ]

    def setup(self) -> None:
        """Everything before the first timed operation."""

    def close(self) -> None:
        """Stop what :meth:`setup` started."""

    def matrix_points(self, record: PassRecord) -> list:
        """Points the traced run times on every engine."""
        return [record.results[i][0] for i in self.sample]

    def info(self, record: PassRecord) -> dict:
        """Extra figures printed beside the metrics."""
        return {}

    def simulated_points(self, record: PassRecord) -> int:
        return len(record.sim_ops)

    # -- checks ------------------------------------------------------------

    def capacity_bound(self, point: SweepPoint) -> float:
        """The analytic per-source rate bound of the point's pattern."""
        key = (point.topology, point.pattern)
        if key not in self._bounds:
            topology, routing = parse_topology_routing(point.topology)
            routing = routing or routing_for(topology)
            if point.pattern == "uniform":
                bound = uniform_saturation_rate(routing)
            elif point.pattern.startswith("hotspot:"):
                targets = [
                    int(t) for t in point.pattern.split(":")[1].split(",")
                ]
                bound = hotspot_saturation_rate(routing, targets)
            else:
                raise ValueError(f"no bound for pattern {point.pattern!r}")
            self._bounds[key] = bound
        return self._bounds[key]

    def result_checks(self, results) -> list[Check]:
        checks = []
        for point, result in results:
            # Consumption is counted at both end cycles of the window
            # [warmup, cycles], one instant more than the divisor.
            measured = result.cycles - result.warmup_cycles
            bound = (
                self.capacity_bound(point) * result.num_sources
                * (measured + 1) / measured
            )
            checks.append(Check(
                f"capacity {label(point)}",
                result.throughput <= bound,
                f"throughput {result.throughput!r} > bound {bound!r}",
            ))
            checks.append(Check(
                f"conservation {label(point)}",
                result.packets_delivered <= result.packets_generated,
                f"{result.packets_delivered} delivered > "
                f"{result.packets_generated} generated",
            ))
            checks.append(Check(
                f"healthy {label(point)}",
                not result.degraded,
                f"degraded: {result.extra.get('stall')}",
            ))
        return checks

    def oracle_checks(self, results) -> list[Check]:
        """Re-run the sampled points on the heap engine."""
        checks = []
        timed, oracle = [], []
        for index in self.sample:
            point, result = results[index]
            heap = parallel.run_sweep_point(with_engine(point, "heap"))
            checks.append(Check(
                f"heap oracle {label(point)}",
                canonical(heap) == canonical(result),
                "differs from the heap engine",
            ))
            timed.append((point, result))
            oracle.append((point, heap))
        checks.append(Check(
            "sample digest equals heap digest",
            digest(timed) == digest(oracle),
            f"{digest(timed)} != {digest(oracle)}",
        ))
        return checks

    def repeat_checks(self, records) -> list[Check]:
        """Passes over the same inputs give the same outputs."""
        return [
            Check(
                f"pass {index} digest",
                record.digest == records[0].digest,
                "results changed between passes",
            )
            for index, record in enumerate(records[1:], start=1)
        ]

    def checks(self, records) -> list[Check]:
        first = records[0].results
        return (
            self.result_checks(first)
            + self.oracle_checks(first)
            + self.repeat_checks(records)
        )


class PointWorkload(Workload):
    """Points run serially in-process through ``run_sweep_point``."""

    def __init__(self, seed, workdir, probe) -> None:
        super().__init__(seed, workdir, probe)
        self.points: list[SweepPoint] = []

    def cells(self) -> list[tuple[str, str, float]]:
        raise NotImplementedError

    def base_settings(self) -> SimulationSettings:
        raise NotImplementedError

    def setup(self) -> None:
        base = self.base_settings()
        self.points = [
            SweepPoint(
                topology, pattern, rate,
                replace(
                    base,
                    seed=parallel.derive_seed(
                        self.seed, topology, pattern, rate
                    ),
                ),
            )
            for topology, pattern, rate in self.cells()
        ]

    def run_pass(self, index: int) -> PassRecord:
        results = []
        self.begin_pass()
        for point in self.points:
            # Looked up per call, so the traced pass sees its wrapper.
            results.append(
                (point, self.timed(parallel.run_sweep_point, point))
            )
        raw_wall, ops = self.end_pass()
        return PassRecord(
            ops=ops,
            raw_wall_s=raw_wall,
            sim_ops=range(len(ops)),
            latency_ops=range(len(ops)),
            node_cycles=sum(r.cycles * r.num_nodes for _, r in results),
            flits=sum(r.flits_delivered for _, r in results),
            digest=digest(results),
            results=results if index == 0 else [],
        )


def paper_topologies(num_nodes: int) -> list[str]:
    """Ring, Spidergon and factorized mesh, as the figures use them."""
    return [f"ring{num_nodes}", f"spidergon{num_nodes}", f"mesh{num_nodes}"]


class PaperFigures(PointWorkload):
    """Every simulation point behind figures 5, 6/7 and 10/11."""

    name = "paper_figures"
    #: Reduced from the 20000/4000 default so one pass of all 135
    #: points takes seconds.
    cycles = 150
    warmup = 30
    #: figure5()'s default injection rate.
    fig5_rate = 0.05
    #: Every 15th point: both hot-spot and uniform, all three
    #: topology families, idle to saturated.
    sample = tuple(range(0, 135, 15))

    def cells(self):
        cells = [
            (topology, "uniform", self.fig5_rate)
            for n in figures.VALIDATION_NODE_COUNTS
            for topology in paper_topologies(n)
        ]
        cells += [
            (topology, "hotspot:0", float(rate))
            for n in figures.SIM_NODE_COUNTS
            for topology in paper_topologies(n)
            for rate in figures.HOTSPOT_RATES
        ]
        cells += [
            (topology, "uniform", float(rate))
            for n in figures.UNIFORM_NODE_COUNTS
            for topology in paper_topologies(n)
            for rate in figures.UNIFORM_RATES
        ]
        return cells

    def base_settings(self):
        # Whatever engine SimulationSettings() defaults to.
        return replace(
            SimulationSettings(), cycles=self.cycles, warmup=self.warmup
        )

    def info(self, record):
        """Simulated: worst relative error of the figure-5 hop counts
        against the analytic mean distinct-pair distance."""
        errors = []
        for point, result in record.results:
            if (
                point.rate != self.fig5_rate
                or point.pattern != "uniform"
                or result.avg_hops is None
            ):
                continue
            analytic = average_distance(
                parse_topology(point.topology), include_self=False
            )
            errors.append(abs(result.avg_hops - analytic) / analytic)
        return {"hops_err_max": (max(errors), "ratio")}


class Saturated64(PointWorkload):
    """Three 64-node networks at 0.15 and past the saturation knee."""

    name = "saturated64"
    cycles = 600
    warmup = 120
    topologies = ("mesh8x8", "ring64", "spidergon64")
    #: 1.5x each topology's analytic uniform saturation rate
    #: (uniform_saturation_rate: 0.492, 0.119, 0.246), so every
    #: network is past its knee whatever the buffering.
    knee_rates = {"mesh8x8": 0.74, "ring64": 0.18, "spidergon64": 0.37}
    #: mesh8x8 past the knee (single-VC routers) and spidergon64 at
    #: 0.15 (dateline VCs).
    sample = (1, 4)
    settings_overrides: dict = {}

    def cells(self):
        return [
            (topology, "uniform", rate)
            for topology in self.topologies
            for rate in (0.15, self.knee_rates[topology])
        ]

    def base_settings(self):
        return replace(
            SimulationSettings(),
            cycles=self.cycles,
            warmup=self.warmup,
            engine="batched",
            **self.settings_overrides,
        )

    def matrix_points(self, record):
        return [point for point, _ in record.results]


class Watched64(Saturated64):
    """The saturated64 points with a stall watchdog and a timeline."""

    name = "watched64"
    settings_overrides = {"stall_cycles": 200, "timeline_window": 100}

    def matrix_points(self, record):
        return Workload.matrix_points(self, record)


class CampaignServe(Workload):
    """A campaign cold, warm, then served to one closed-loop client.

    Each pass runs a fresh campaign (its own seed, so the cold pass
    really is cold) against one store shared with an in-process
    campaign server.  The client then submits the ``serve_plan``:
    ``S`` re-submits the pass's campaign (store reads), ``N`` submits
    one topology's cells under a new seed (simulations and store
    writes).  Five reads and three writes keep the median on the read
    side and the 90th percentile on the write side.
    """

    name = "campaign_serve"
    cycles = 300
    warmup = 60
    topologies = (
        "ring8", "spidergon8", "mesh8", "ring12", "spidergon12", "mesh12",
    )
    patterns = ("uniform", "hotspot:0")
    rates = (0.05, 0.1, 0.2, 0.3)
    serve_plan = "SNSSNSNS"
    sample = (0, 13, 26, 39)

    def __init__(self, seed, workdir, probe) -> None:
        super().__init__(seed, workdir, probe)
        self.root: pathlib.Path | None = None
        self.cache = None
        self.server = None
        self.client = None

    def spec(self, seed: int, topologies=None) -> dict:
        return {
            "name": "perfbench",
            "cycles": self.cycles,
            "warmup": self.warmup,
            "seed": seed,
            "topologies": list(topologies or self.topologies),
            "patterns": list(self.patterns),
            "rates": list(self.rates),
        }

    def submissions(self, index: int, seed: int) -> list[dict]:
        specs = []
        for j, kind in enumerate(self.serve_plan):
            if kind == "S":
                specs.append(self.spec(seed))
            else:
                # The same topology at the same place in every pass,
                # so each operation's median compares like with like.
                topology = self.topologies[j % len(self.topologies)]
                specs.append(self.spec(
                    sub_seed(self.seed, "serve", index, j), [topology]
                ))
        return specs

    def setup(self) -> None:
        from repro.serve import BackgroundServer, CampaignServer, JobManager
        from repro.serve.client import ServeClient

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.root = pathlib.Path(
            tempfile.mkdtemp(prefix="campaign-", dir=self.workdir)
        )
        self.cache = parallel.ResultCache(self.root / "store")
        jobs = JobManager(self.cache.store, workers=WORKERS)
        self.server = BackgroundServer(CampaignServer(jobs, port=0))
        self.server.start()
        self.client = ServeClient(port=self.server.port, timeout=120.0)
        self.client.wait_until_ready()
        # The persistent pool spawns on the first simulation; pay that
        # here, with enough points to start every worker.
        warmup = dict(
            self.spec(sub_seed(self.seed, "warmup"), ["ring4"]),
            cycles=50, warmup=10,
        )
        self.client.submit_campaign(warmup)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def serve_stats(self) -> dict:
        return self.client.stats()

    def run_pass(self, index: int) -> PassRecord:
        seed = sub_seed(self.seed, "campaign", index)
        submissions = self.submissions(index, seed)

        def cold_pass():
            points = campaign_module.campaign_points(self.spec(seed))
            return points, parallel.execute_points(
                points, workers=WORKERS, cache=self.cache
            )

        self.begin_pass()
        points, (cold, cold_stats) = self.timed(cold_pass)
        warm, warm_stats = self.timed(
            lambda: parallel.execute_points(
                points, workers=WORKERS, cache=self.cache
            )
        )
        served = [
            (spec, *self.timed(self.client.submit_campaign, spec))
            for spec in submissions
        ]
        raw_wall, ops = self.end_pass()
        return PassRecord(
            ops=ops,
            raw_wall_s=raw_wall,
            sim_ops=range(1),
            latency_ops=range(2, len(ops)),
            node_cycles=sum(r.cycles * r.num_nodes for r in cold),
            flits=sum(r.flits_delivered for r in cold),
            digest=digest(zip(points, cold)),
            results=list(zip(points, cold)),
            phases={
                "cold_misses": cold_stats.cache_misses,
                "warm_hits": warm_stats.cache_hits,
                "warm": list(zip(points, warm)),
            },
            served=served,
        )

    def simulated_points(self, record):
        return len(record.results) + sum(
            summary["simulated"] for _, _, summary in record.served
        )

    def info(self, record):
        return {
            "cold_campaign_s": (record.ops[0], "s"),
            "warm_campaign_s": (record.ops[1], "s"),
        }

    def repeat_checks(self, records):
        # Each pass runs its own seed; repeats are compared across runs.
        return []

    def checks(self, records) -> list[Check]:
        checks = super().checks(records)
        for index, record in enumerate(records):
            cold = {
                parallel.point_key(point): canonical(result)
                for point, result in record.results
            }
            points = len(record.results)
            checks.append(Check(
                f"pass {index} cold pass simulated every point",
                record.phases["cold_misses"] == points,
                f"{record.phases['cold_misses']} misses of {points}",
            ))
            checks.append(Check(
                f"pass {index} warm pass all hits",
                record.phases["warm_hits"] == points,
                f"{record.phases['warm_hits']} hits of {points}",
            ))
            checks.append(Check(
                f"pass {index} warm results equal cold",
                [canonical(r) for _, r in record.phases["warm"]]
                == [canonical(r) for _, r in record.results],
                "a warm-pass result differs from the cold batch",
            ))
            checks.extend(self.served_checks(index, record, cold))
        return checks

    def served_checks(self, index, record, cold) -> list[Check]:
        """Every served line names an ``ok`` point resolved from the
        expected tier, and the result the server holds for its key
        equals the cold batch result (reads) or the heap oracle
        (writes, first pass only)."""
        checks = []
        fetched: dict = {}  # the reads re-serve the same keys
        for j, (spec, entries, summary) in enumerate(record.served):
            stored = self.serve_plan[j] == "S"
            expected = "store" if stored else "simulated"
            points = campaign_module.campaign_points(spec)
            by_key = {parallel.point_key(p): p for p in points}
            checks.append(Check(
                f"pass {index} submission {j} summary",
                summary["failed"] == 0
                and summary["ok"] == len(points)
                and len(entries) == len(points),
                json.dumps(summary),
            ))
            for entry in entries:
                key = entry["key"]
                name = f"pass {index} submission {j} {key[:12]}"
                checks.append(Check(
                    f"{name} status",
                    entry["status"] == "ok" and entry["source"] == expected,
                    json.dumps(entry),
                ))
                if not stored and index > 0:
                    continue
                if key not in fetched:
                    fetched[key] = self.client.result(key)
                served = fetched[key]
                if stored:
                    reference = cold.get(key)
                else:
                    reference = canonical(parallel.run_sweep_point(
                        with_engine(by_key[key], "heap")
                    ))
                checks.append(Check(
                    f"{name} result",
                    served is not None
                    and json.dumps(served, sort_keys=True) == reference,
                    "served result differs from its reference",
                ))
        return checks


WORKLOADS = {
    cls.name: cls
    for cls in (PaperFigures, Saturated64, Watched64, CampaignServe)
}
