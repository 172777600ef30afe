"""Campaign runner: declarative sweeps with incremental persistence.

A *campaign* is the cross product of topologies, traffic patterns and
injection rates, described as plain data (JSON-compatible dict), with
results appended to a CSV file as they complete.  Re-running a
partially finished campaign skips every run already present in the
CSV — long sweeps survive interruption.  Execution can fan out over
worker processes (``workers=N``) and consult a result cache; both are
bit-transparent because every sweep point derives its seed from its
own coordinates (see :mod:`repro.experiments.parallel`), so serial,
parallel and resumed runs all produce identical rows.

Spec format::

    {
      "name": "my-sweep",
      "cycles": 20000,
      "warmup": 4000,
      "seed": 1,
      "source_queue_packets": 64,
      "topologies": ["ring16", "spidergon16", "mesh4x4",
                     "mesh-irregular13", "torus4x4"],
      "patterns": ["uniform", "hotspot:0", "hotspot:0,8",
                   "tornado", "bit-complement", "nearest-neighbor"],
      "rates": [0.05, 0.1, 0.2, 0.4],
      "timeline_window": 500
    }

The optional ``timeline_window`` key makes every run export a
per-link utilization timeline (see
:class:`~repro.stats.utilization.UtilizationTimeline`) into
``result.extra["timeline"]`` — cached results and worker processes
included; the export is deterministic, so it never perturbs resume
or serial/parallel equivalence.

Resilience keys (all optional)::

    "stall_cycles": 3000,              # stall watchdog threshold
    "invariant_check_interval": 5000,  # periodic invariant audits
    "fault_plan": {"events": [         # explicit fault schedule
        {"time": 5000, "src": 0, "dst": 1, "action": "fail"},
        {"time": 9000, "src": 0, "dst": 1, "action": "repair"}]},
    "random_faults": {"count": 2, "at": 5000,
                      "repair_after": 4000, "seed": 9}

``fault_plan`` applies the same schedule to every cell (the links
must exist in every topology of the sweep); ``random_faults``
resolves to a per-topology plan instead (picks are deterministic in
the topology name, count, time and seed).  The two are mutually
exclusive.  Like the seed, plans live inside the settings, so cache
keys and serial/parallel/resumed equivalence cover them.

Any other key is an error naming it
(:func:`~repro.experiments.specs.run_settings` reads the run keys
for campaigns and ``repro run`` point lines alike), so a misspelt
setting cannot silently fall back to its default.

Topology and pattern strings follow the :mod:`repro.experiments.specs`
grammar.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

from repro.experiments.parallel import (
    CampaignManifest,
    ExecutionStats,
    FailedResult,
    PointResult,
    ResultCache,
    derive_seed,
    execute_points,
)
from repro.experiments.runner import SweepPoint
from repro.experiments.specs import (
    check_engine,
    check_pattern,
    parse_pattern,
    parse_topology,
    parse_topology_routing,
    random_fault_plan,
    run_settings,
)
from repro.resilience.plan import FaultPlan
from repro.stats.summary import RunResult

__all__ = [
    "CSV_COLUMNS",
    "Campaign",
    "campaign_points",
    "parse_pattern",
    "parse_topology",
]


def campaign_points(spec: dict) -> list[SweepPoint]:
    """Validate *spec* and expand it into seeded sweep points.

    The one spec-to-points path shared by batch campaigns and the
    campaign server (:mod:`repro.serve`): both accept the identical
    JSON spec format documented above, fail fast on a bad spec
    (raising :class:`ValueError` before any simulation runs), and
    derive every point's seed from its own coordinates — which is
    what makes a submitted point's
    :func:`~repro.experiments.parallel.point_key` identical no matter
    which client, server, or batch run computes it.
    """
    campaign = Campaign(spec)
    campaign.validate()
    return campaign.sweep_points()

#: The keys of a campaign spec besides the run keys
#: (:data:`~repro.experiments.specs.RUN_KEYS`).
_FRAME_KEYS = ("name", "topologies", "patterns", "rates", "fault_plan")

CSV_COLUMNS = [
    "topology",
    "pattern",
    "rate",
    "seed",
    "throughput",
    "avg_latency",
    "p95_latency",
    "avg_hops",
    "packets_delivered",
    "packets_generated",
    "packets_rejected",
]


class Campaign:
    """A declarative sweep with resumable CSV persistence."""

    def __init__(self, spec: dict) -> None:
        for key in ("name", "topologies", "patterns", "rates"):
            if key not in spec:
                raise ValueError(f"campaign spec missing {key!r}")
        self.spec = spec
        self.name = spec["name"]
        self.settings = run_settings(spec, _FRAME_KEYS)
        fault_plan = spec.get("fault_plan")
        if fault_plan is not None:
            self.settings = replace(
                self.settings, fault_plan=FaultPlan.from_dict(fault_plan)
            )
        # Per-topology random fault plans are resolved lazily in
        # sweep_points (the picks depend on each topology's links).
        self._random_faults: dict | None = spec.get("random_faults")
        if self._random_faults is not None and fault_plan is not None:
            raise ValueError(
                "campaign spec sets both fault_plan and random_faults"
            )
        #: Filled by :meth:`execute` for reporting.
        self.last_stats: ExecutionStats | None = None
        #: Manifest of the last hardened :meth:`execute`, if any.
        self.last_manifest: CampaignManifest | None = None

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        return cls(json.loads(text))

    def validate(self) -> None:
        """Parse every topology, pattern and engine spec, failing
        fast.

        Raises:
            ValueError: naming the offending spec — so a typo aborts
                the campaign before any simulation runs (and before
                any CSV row is written), not mid-sweep.
        """
        check_engine(self.settings.engine)
        for topo_spec in self.spec["topologies"]:
            topology, _ = parse_topology_routing(topo_spec)
            for pattern_spec in self.spec["patterns"]:
                check_pattern(pattern_spec, topo_spec, topology)

    def runs(self) -> list[tuple[str, str, float]]:
        """Every (topology, pattern, rate) cell of the sweep."""
        return [
            (topo, pattern, float(rate))
            for topo in self.spec["topologies"]
            for pattern in self.spec["patterns"]
            for rate in self.spec["rates"]
        ]

    def _fault_plan_for(self, topo_spec: str) -> FaultPlan | None:
        """The (possibly per-topology) fault plan of cell *topo_spec*.

        A ``random_faults`` spec resolves here, deterministically per
        topology: the picks depend only on (topology name, count, at,
        seed), never on execution order — so serial, parallel and
        resumed campaigns inject the same faults.
        """
        if self._random_faults is None:
            return self.settings.fault_plan
        return random_fault_plan(
            self._random_faults,
            parse_topology_routing(topo_spec)[0],
            self.settings.seed,
        )

    def sweep_points(self) -> list[SweepPoint]:
        """Every cell as a :class:`SweepPoint` with its derived seed."""
        points = []
        for topo, pattern, rate in self.runs():
            points.append(
                SweepPoint(
                    topology=topo,
                    pattern=pattern,
                    rate=rate,
                    settings=replace(
                        self.settings,
                        seed=derive_seed(
                            self.settings.seed, topo, pattern, rate
                        ),
                        fault_plan=self._fault_plan_for(topo),
                    ),
                )
            )
        return points

    @staticmethod
    def _key(topology: str, pattern: str, rate: float) -> str:
        return f"{topology}|{pattern}|{rate:.6g}"

    def completed_keys(self, csv_path: pathlib.Path) -> set[str]:
        """Keys already present in *csv_path* (resume support)."""
        if not csv_path.exists():
            return set()
        done = set()
        for line in csv_path.read_text().splitlines()[1:]:
            cells = line.split(",")
            if len(cells) >= 3:
                done.add(
                    self._key(cells[0], cells[1], float(cells[2]))
                )
        return done

    def manifest_path(
        self, csv_path: str | pathlib.Path
    ) -> pathlib.Path:
        """Default manifest location: a sibling of the CSV."""
        path = pathlib.Path(csv_path)
        return path.with_name(path.stem + ".manifest.jsonl")

    def execute(
        self,
        csv_path: str | pathlib.Path,
        progress=None,
        *,
        workers: int = 1,
        cache: bool = True,
        cache_dir: str | pathlib.Path | None = None,
        timeout: float | None = None,
        retries: int = 0,
    ) -> list[PointResult]:
        """Run every outstanding cell, appending rows to *csv_path*.

        Args:
            csv_path: Output CSV (created with a header if absent).
            progress: Optional callable invoked as
                ``progress(done, total, key)`` after each run.
            workers: Worker processes; 1 runs serially in-process.
                Any value yields identical rows (order aside) because
                each cell's seed comes from its coordinates.
            cache: Consult/fill the result cache so overlapping
                campaigns and re-runs skip completed simulations.
            cache_dir: Cache location; defaults to ``.repro-cache``
                next to the CSV.
            timeout: Per-point wall-clock deadline (seconds); selects
                hardened execution (see
                :func:`~repro.experiments.parallel.execute_points`).
            retries: Extra attempts per failed point before it is
                recorded as a :class:`FailedResult`.

        A hardened run appends every outcome to the manifest next to
        the CSV, after earlier runs' entries.  What is outstanding is
        decided by the CSV alone: a point runs again until it has a
        row, whatever the manifest says.

        Returns:
            The results produced by *this* call, in sweep order —
            :class:`RunResult` for successes (cache hits included),
            :class:`FailedResult` for points that exhausted their
            retries.  Failed points get **no CSV row**, so the next
            run re-attempts exactly those.
        """
        self.validate()
        path = pathlib.Path(csv_path)
        if not path.exists():
            path.write_text(",".join(CSV_COLUMNS) + "\n")
        manifest = None
        if timeout is not None or retries > 0:
            manifest = CampaignManifest(self.manifest_path(path))
        done = self.completed_keys(path)
        total = len(self.runs())
        outstanding = [
            point
            for point in self.sweep_points()
            if self._key(point.topology, point.pattern, point.rate)
            not in done
        ]
        result_cache = None
        if cache:
            directory = (
                pathlib.Path(cache_dir)
                if cache_dir is not None
                else path.parent / ".repro-cache"
            )
            result_cache = ResultCache(directory)
        finished = total - len(outstanding)

        def persist(index, point, result, cached):
            nonlocal finished
            finished += 1
            key = self._key(point.topology, point.pattern, point.rate)
            if isinstance(result, FailedResult):
                # No CSV row: the point stays outstanding for the
                # next run; the manifest documents the casualty.
                if progress is not None:
                    progress(
                        finished, total, f"{key} FAILED({result.error})"
                    )
                return
            with path.open("a") as handle:
                handle.write(",".join(_row(point, result)) + "\n")
            if progress is not None:
                progress(finished, total, key)

        results, stats = execute_points(
            outstanding,
            workers=workers,
            cache=result_cache,
            on_result=persist,
            timeout=timeout,
            retries=retries,
            manifest=manifest,
        )
        self.last_stats = stats
        self.last_manifest = manifest
        return results


def _row(point: SweepPoint, result: RunResult) -> list[str]:
    return [
        point.topology,
        point.pattern,
        f"{point.rate:.6g}",
        str(point.settings.seed),
        f"{result.throughput:.6g}",
        _cell(result.avg_latency),
        _cell(result.p95_latency),
        _cell(result.avg_hops),
        str(result.packets_delivered),
        str(result.packets_generated),
        str(result.packets_rejected),
    ]


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"
