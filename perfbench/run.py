#!/usr/bin/env python3
"""Benchmark of the NoC simulator's host time, end to end and per layer.

Run one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``)::

    python3 perfbench/run.py --workload paper_figures --seed 1 \\
        --seconds 15 --trace 0

or every workload in turn, one process each, as a table::

    python3 perfbench/run.py --workload all

The run times whole passes over the workload's inputs until
``--seconds`` have gone by, then checks the outputs outside the timed
region.  ``--trace 1`` adds one pass with every layer boundary wrapped
(``perfbench/tracer.py``) and a per-engine re-run of sampled points,
and reports the per-layer metrics instead of the end-to-end ones.  The
last line of standard output is one JSON object; the exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import replace  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (stores, span dumps).
OUT = ROOT / ".perfbench_out"

#: The root seed when none is given (README.md names the held-out one).
DEFAULT_SEED = 1

#: Set-ups measured per run, each in a fresh process; the median is
#: reported.
SETUP_REPEATS = 7

#: The rows of BENCH_2026-08-08.json, re-measured in the traced run.
LEGACY_ROWS = ("ring16", "spidergon16", "mesh4x4")
LEGACY_CYCLES = 2000
LEGACY_RATE = 0.15
LEGACY_SEED = 11


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_simulator() -> None:
    """Import ``repro`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {exc}")
    origin = pathlib.Path(repro.__file__).resolve().parent.parent
    if origin != src.resolve():
        raise SystemExit(f"perfbench: repro imported from {origin}, not {src}")


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of *values*."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def reap_children() -> None:
    """Wait for every worker process this run started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()


def measure_setup(args, probe) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    probe.run()
    begin = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    end = time.perf_counter()
    probe.run()
    setup_s = json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]
    return probe.normalize(setup_s, begin, end)


def op_medians(records) -> list[float]:
    """Each operation's median seconds over the passes: a slow spell
    of the host hits a few samples of an operation, not its median."""
    return [statistics.median(op) for op in zip(*(r.ops for r in records))]


def end_to_end(records, setup_samples, peak_rss_mb) -> dict:
    first = records[0]
    ops = op_medians(records)
    sim_s = sum(ops[i] for i in first.sim_ops)
    latencies = [ops[i] for i in first.latency_ops]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(ops),
        "node_cycles_per_s": statistics.median(
            r.node_cycles for r in records
        ) / sim_s,
        "flits_per_s": statistics.median(r.flits for r in records) / sim_s,
        "latency_s_p50": quantile(latencies, 0.5),
        "latency_s_p90": quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def engine_matrix(points, probe) -> dict:
    """Node-cycles per second of *points* on every engine."""
    from repro.experiments import parallel
    from workloads import ENGINES, with_engine

    metrics = {}
    for engine in ENGINES:
        node_cycles, seconds = 0, 0.0
        for point in points:
            probe.run()
            begin = time.perf_counter()
            result = parallel.run_sweep_point(with_engine(point, engine))
            end = time.perf_counter()
            probe.run()
            seconds += probe.normalize(end - begin, begin, end)
            node_cycles += result.cycles * result.num_nodes
        metrics[f"sim.engine.{engine}.node_cycles_per_s"] = (
            node_cycles / seconds
        )
    return metrics


def legacy_rows(probe) -> dict:
    """The BENCH_2026-08-08 figure points, built the way that bench
    built them, on every engine."""
    from repro.noc.config import NocConfig
    from repro.noc.network import Network
    from repro.experiments.specs import parse_topology
    from repro.traffic import TrafficSpec, UniformTraffic
    from workloads import ENGINES

    metrics = {}
    for row in LEGACY_ROWS:
        for engine in ENGINES:
            topology = parse_topology(row)
            network = Network(
                topology,
                config=NocConfig(source_queue_packets=16),
                traffic=TrafficSpec(UniformTraffic(topology), LEGACY_RATE),
                seed=LEGACY_SEED,
                engine=engine,
            )
            probe.run()
            begin = time.perf_counter()
            network.run(cycles=LEGACY_CYCLES)
            end = time.perf_counter()
            probe.run()
            metrics[f"legacy.{row}.{engine}.cycles_per_s"] = (
                LEGACY_CYCLES / probe.normalize(end - begin, begin, end)
            )
    return metrics


def traced_run(workload, records):
    """One pass with every layer wrapped; returns (record, metrics,
    checks, dump)."""
    from tracer import Tracer, merge_totals
    from workloads import WORKERS, Check

    jobs_before = (
        workload.serve_stats() if hasattr(workload, "serve_stats") else None
    )
    tracer = Tracer()
    tracer.install()
    try:
        record = workload.run_pass(len(records))
    finally:
        tracer.uninstall()
    # Pool workers report before their point's result returns, so
    # every report is in the pipe by now.
    tracer.close()
    jobs_after = workload.serve_stats() if jobs_before else None

    parent = tracer.totals()
    merged: dict = {}
    merge_totals(merged, parent)
    for totals in tracer.child_totals.values():
        merge_totals(merged, totals)

    def calls(name, totals=merged):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name, totals=merged):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name, totals=merged):
        return totals.get(name, (0, 0.0, 0.0))[2]

    sim = dict(tracer.sim)
    for key, value in tracer.child_sim.items():
        sim[key] = sim.get(key, 0) + value
    runs = sim.get("runs", 0)
    flits = sim.get("flits", 0)
    flush_batches = sim.get("flush_batches", 0)
    # execute_points wall minus the workers' point time, per call that
    # used a pool; the workers simulate side by side, so their time
    # overlaps the wall WORKERS-fold.
    dispatch_s = sum(
        seconds - total("point", tracer.child_totals[phase]) / WORKERS
        for phase, seconds in tracer.executor_calls
        if phase in tracer.child_totals
    )

    roundtrips = [s for s in tracer.spans if s[0] == "serve.roundtrip"]
    resolves = tracer.intervals.get("jobs.resolve", [])
    resolve_s = http_s = 0.0
    for _, start, seconds, _, _ in roundtrips:
        end = start + seconds
        covered = union_length(
            (max(a, start), min(b, end))
            for a, b in resolves
            if a < end and b > start
        )
        resolve_s += covered
        http_s += seconds - covered

    main = threading.get_ident()
    top_level = sum(
        s[2] for s in tracer.spans if s[3] == 0 and s[4] == main
    )
    untraced_wall = sum(op_medians(records))
    jobs = {
        key: (jobs_after[key] - jobs_before[key]) if jobs_before else 0
        for key in ("store_hits", "coalesced", "simulated")
    }
    store_gets = calls("store.get")
    metrics = {
        "specs.parse_s": own("specs.parse"),
        "routing.build_s": own("routing.build"),
        "network.build_s": own("network.build"),
        "network.run_s": total("network.run"),
        "routing.decide_calls": calls("routing.decide"),
        "routing.decide_s": own("routing.decide"),
        "traffic.dest_calls": calls("traffic.dest"),
        "traffic.dest_s": own("traffic.dest"),
        "traffic.interarrival_s": own("traffic.interarrival"),
        "router.self_s": own("network.run"),
        "sim.events": sim.get("events", 0),
        "sim.events_per_flit": sim.get("events", 0) / flits if flits else 0.0,
        "sim.fast_path_frac": sim.get("fast_runs", 0) / runs if runs else 0.0,
        "sim.flush_flits": sim.get("flush_flits", 0),
        "sim.vector_batch_frac": (
            sim.get("vector_batches", 0) / flush_batches
            if flush_batches else 0.0
        ),
        "stats.summary_s": own("stats.summary"),
        "obs.callback_calls": calls("obs.callback"),
        "obs.callback_s": own("obs.callback"),
        "parallel.point_key_s": own("parallel.point_key", parent),
        "parallel.dispatch_s": dispatch_s,
        "store.get_calls": store_gets,
        "store.get_s": own("store.get"),
        "store.put_calls": calls("store.put"),
        "store.put_s": own("store.put"),
        "store.hit_frac": (
            sim.get("store_hits", 0) / store_gets if store_gets else 0.0
        ),
        "jobs.store_hits": jobs["store_hits"],
        "jobs.coalesced": jobs["coalesced"],
        "jobs.simulated": jobs["simulated"],
        "jobs.resolve_s": resolve_s,
        "serve.http_s": http_s,
        "trace.overhead": sum(record.ops) / untraced_wall,
        "trace.coverage": top_level / record.raw_wall_s,
    }
    checks = [Check(
        "trace accounts for the pass wall time",
        0.9 <= metrics["trace.coverage"] <= 1.0 + 1e-9,
        f"top-level spans cover {metrics['trace.coverage']:.3f} of the wall",
    )]
    dump = {
        "raw_wall_s": record.raw_wall_s,
        "totals": {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(parent.items())
        },
        "worker_totals": {
            phase: {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(totals.items())
            }
            for phase, totals in tracer.child_totals.items()
        },
        "spans": [list(s[:4]) for s in tracer.spans],
        "intervals": {k: v for k, v in tracer.intervals.items()},
    }
    return record, metrics, checks, dump


def run_workload(args, spec) -> int:
    from calibrate import REFERENCE_S, SpeedProbe
    from workloads import WORKLOADS

    probe = SpeedProbe()
    workload = WORKLOADS[args.workload](args.seed, OUT, probe)
    if args.setup_only:
        try:
            workload.setup()
            elapsed = time.perf_counter() - _STARTED
        finally:
            workload.close()
            reap_children()
        print(json.dumps({"setup_s": elapsed}))
        return 0

    setup_samples = [
        measure_setup(args, probe) for _ in range(SETUP_REPEATS)
    ]
    workload.setup()
    traced = None
    try:
        records = []
        begin = time.perf_counter()
        while not records or time.perf_counter() - begin < args.seconds:
            records.append(workload.run_pass(len(records)))
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        if args.trace:
            traced = traced_run(workload, records)
        if args.force_fail:
            point, result = records[0].results[workload.sample[0]]
            records[0].results[workload.sample[0]] = (
                point, replace(result, throughput=result.throughput * 2)
            )
        checks = workload.checks(records)
        if traced:
            checks += traced[2]
            checks += workload.repeat_checks([records[0], traced[0]])
    finally:
        workload.close()
        reap_children()

    if args.trace:
        metrics = dict(traced[1])
        metrics.update(
            engine_matrix(workload.matrix_points(records[0]), probe)
        )
        metrics.update(legacy_rows(probe))
        OUT.mkdir(exist_ok=True)
        dump_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        dump_path.write_text(json.dumps(traced[3]) + "\n")
        print(f"spans written to {dump_path.relative_to(ROOT)}")
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(records, setup_samples, peak_rss_mb)
        declared = spec["end_to_end"]

    failed_checks = [c for c in checks if not c.ok]
    for check in failed_checks:
        print(f"FAILED {check.name}: {check.detail}", file=sys.stderr)
    simulated = sum(workload.simulated_points(r) for r in records)
    submissions = sum(len(r.served) for r in records)
    attempted = simulated + submissions + len(checks)
    failed = len(failed_checks)

    print(f"{args.workload}: seed {args.seed}, {len(records)} passes, "
          f"{simulated} points, {submissions} submissions, "
          f"{len(checks)} checks, failed_frac {failed / attempted:.6g}")
    print(f"{args.workload}: digest {records[0].digest}")
    raw_wall = statistics.median(r.raw_wall_s for r in records)
    slowdown = statistics.median(probe.seconds) / REFERENCE_S
    print(f"{args.workload}: raw wall_s {raw_wall:.6g} s on this host, "
          f"which ran the probe loop {slowdown:.3g}x slower than the "
          f"reference")
    for name, (value, unit) in workload.info(records[0]).items():
        print(f"{args.workload}: {name} {value:.6g} {unit}")
    units = {entry["name"]: entry["unit"] for entry in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} {value:.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


def run_all(args, spec) -> int:
    """Every workload, one fresh process each, as one table."""
    status = 0
    rows = []
    for entry in spec["workloads"]:
        command = [
            sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", entry["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True
        )
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            status = 1
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{entry['name']}: no result (exit {completed.returncode})")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        for name, metric in result["metrics"].items():
            rows.append((entry["name"], name, metric["value"], metric["unit"]))
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:<16} {name:<40} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print the seconds that took, exit",
    )
    parser.add_argument(
        "--force-fail", action="store_true",
        help="corrupt one timed result before the checks (gate self-test)",
    )
    args = parser.parse_args(argv)
    import_simulator()
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
