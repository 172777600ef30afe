"""Top-level command-line interface.

::

    python -m repro info                 # library and paper summary
    python -m repro figures fig10 ...    # == repro.experiments.figures
    python -m repro figures study_circulant   # a study, by CSV stem
    python -m repro figures all --csv results --check   # reproduction
    python -m repro campaign SPEC CSV    # declarative sweep
    python -m repro topologies           # registered topology specs
    python -m repro engines              # registered simulation engines
    python -m repro routings             # registered routing suffixes
    python -m repro trace ring16 hotspot:0 0.1   # JSONL observability
    python -m repro chaos mesh4x4 uniform 0.1 --fail 5:6@2000
    python -m repro serve --port 8642    # campaign-as-a-service
    python -m repro submit SPEC.json     # stream a campaign to it
"""

from __future__ import annotations

import sys


def _info() -> int:
    from repro import __version__
    from repro.experiments.figures import ARTEFACTS

    print(f"repro {__version__}")
    print(
        "Reproduction of Bononi & Concer, 'Simulation and Analysis "
        "of Network on Chip\nArchitectures: Ring, Spidergon and 2D "
        "Mesh', DATE 2006."
    )
    print()
    print("artefacts:", " ".join(ARTEFACTS))
    print()
    print(
        "usage: python -m repro "
        "{info|figures NAME...|campaign SPEC.json OUT.csv"
        "|topologies|engines|routings|trace TOPOLOGY PATTERN RATE"
        "|chaos TOPOLOGY PATTERN RATE"
        "|serve|submit SPEC.json} [args...]\n"
        "       (figures takes artefact names or all, and --quick, "
        "--chart, --csv DIR, and --check\n"
        "        with --csv DIR to compare the CSVs and check the "
        "claims; figures and campaign\n"
        "        accept --workers N; campaign also --no-cache, "
        "--cache-dir DIR,\n"
        "        --timeout S, --retries N, --resume; trace accepts "
        "--cycles, --warmup, --seed,\n"
        "        --window, --out, --limit, --no-flits; chaos accepts "
        "--fail SRC:DST@T[:REPAIR_T],\n"
        "        --random-faults N@T, --stall N, --audit N, --json "
        "FILE; serve accepts --host,\n"
        "        --port, --workers, --store DIR, --timeout, "
        "--retries; submit accepts --host,\n"
        "        --port, --wait S, --out FILE, --quiet)"
    )
    return 0


def _serve(rest: list[str]) -> int:
    import argparse
    import asyncio
    import signal

    from repro.serve.jobs import JobManager
    from repro.serve.server import CampaignServer
    from repro.serve.store import ResultStore

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve campaign simulations over HTTP: clients "
        "POST campaign spec JSON to /campaign and get streamed "
        "per-point progress; results dedupe through a "
        "content-addressed store plus in-flight coalescing, so "
        "repeated submissions cost one simulation.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (0 picks a free one; the chosen port is "
        "printed on startup)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="persistent worker processes (default 2)",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=".repro-store",
        help="content-addressed result store directory (default "
        ".repro-store; compatible with campaign .repro-cache "
        "directories)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-point deadline in seconds of run time; a point past "
        "it has its worker terminated and is retried or failed",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts per crashed / failed point (default 0)",
    )
    try:
        args = parser.parse_args(rest)
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        if args.timeout is not None and args.timeout <= 0:
            parser.error(f"--timeout must be > 0, got {args.timeout}")
        if args.retries < 0:
            parser.error(f"--retries must be >= 0, got {args.retries}")
    except SystemExit as exc:
        return int(exc.code or 0)

    jobs = JobManager(
        ResultStore(args.store),
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
    )
    server = CampaignServer(jobs, host=args.host, port=args.port)

    async def run() -> None:
        # SIGTERM or SIGINT closes the server, which terminates the
        # pool: no worker outlives it holding the port.
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            asyncio.get_running_loop().add_signal_handler(signum, stop.set)
        await server.start()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(workers={args.workers}, store={args.store})",
            flush=True,
        )
        try:
            await stop.wait()
        finally:
            await server.close()

    asyncio.run(run())
    return 0


def _submit(rest: list[str]) -> int:
    import argparse
    import json as _json
    import pathlib
    import sys as _sys

    from repro.serve.client import ServeClient, ServerError

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit a campaign spec to a running campaign "
        "server and stream per-point progress.",
    )
    parser.add_argument("spec", help="campaign spec (JSON file)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--wait",
        type=float,
        default=0.0,
        metavar="S",
        help="poll /healthz for up to S seconds before submitting "
        "(for scripts that just started the server)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also append every streamed JSONL line here (the "
        "per-point lines form a loadable campaign manifest)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the final summary line",
    )
    try:
        args = parser.parse_args(rest)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        spec = _json.loads(pathlib.Path(args.spec).read_text())
    except (OSError, _json.JSONDecodeError) as exc:
        print(f"error: cannot read spec: {exc}", file=_sys.stderr)
        return 2
    client = ServeClient(args.host, args.port)
    try:
        if args.wait > 0:
            client.wait_until_ready(args.wait)
    except TimeoutError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2

    out_handle = None
    if args.out is not None:
        out_handle = pathlib.Path(args.out).open("a")
    summary = None
    done = 0
    try:
        for entry in client.submit(spec):
            if out_handle is not None:
                out_handle.write(_json.dumps(entry) + "\n")
                out_handle.flush()
            if entry.get("type") == "summary":
                summary = entry
                continue
            done += 1
            if not args.quiet:
                label = (
                    f"{entry['topology']}|{entry['pattern']}"
                    f"|{entry['rate']:.6g}"
                )
                status = entry["status"]
                if status != "ok":
                    status = f"{status}({entry.get('error', '?')})"
                print(
                    f"[{done}] {label} {entry['source']} {status}"
                )
    except (ConnectionError, OSError, ServerError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    finally:
        if out_handle is not None:
            out_handle.close()
    if summary is None:
        print("error: stream ended without a summary", file=_sys.stderr)
        return 2
    print(
        f"{summary['points']} points: {summary['store_hits']} store "
        f"hits, {summary['coalesced']} coalesced, "
        f"{summary['simulated']} simulated, {summary['failed']} failed"
    )
    return 1 if summary["failed"] else 0


def _topologies() -> int:
    from repro.experiments.specs import available_topologies

    families = available_topologies()
    width = max(len(f.prefix) for f in families)
    example_width = max(len(f.example) for f in families)
    for family in families:
        print(
            f"{family.prefix:<{width}}  "
            f"{family.example:<{example_width}}  {family.description}"
        )
    return 0


def _engines() -> int:
    from repro.sim import available_engines

    families = available_engines()
    width = max(len(f.name) for f in families)
    for family in families:
        print(f"{family.name:<{width}}  {family.description}")
    return 0


def _routings() -> int:
    from repro.experiments.specs import available_routings

    families = available_routings()
    width = max(len(f.name) for f in families)
    for family in families:
        print(f"{family.name:<{width}}  {family.description}")
    print()
    print(
        "append as a topology-spec suffix, e.g. mesh4x4:adaptive "
        "or faulty:ring16:1@7:adaptive-misroute"
    )
    return 0


def _campaign(rest: list[str]) -> int:
    import argparse
    import pathlib

    from repro.experiments.campaign import Campaign
    from repro.experiments.report import format_execution_summary

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run a sweep campaign described by a JSON spec.",
    )
    parser.add_argument("spec", help="campaign spec (JSON file)")
    parser.add_argument("csv", help="output CSV (appended, resumable)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1); any value produces "
        "identical rows because seeds derive from sweep coordinates",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not consult or fill the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache location (default: .repro-cache next to "
        "the CSV)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-point wall-clock deadline in seconds; selects the "
        "crash-tolerant executor",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts per crashed / timed-out / failed point "
        "(default 0)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="keep the outcome manifest from the previous run and "
        "skip every point it already marks ok",
    )
    try:
        args = parser.parse_args(rest)
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        if args.timeout is not None and args.timeout <= 0:
            parser.error(f"--timeout must be > 0, got {args.timeout}")
        if args.retries < 0:
            parser.error(f"--retries must be >= 0, got {args.retries}")
    except SystemExit as exc:
        return int(exc.code or 0)
    campaign = Campaign.from_json(pathlib.Path(args.spec).read_text())
    try:
        campaign.validate()
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    results = campaign.execute(
        args.csv,
        progress=lambda done, total, key: print(
            f"[{done}/{total}] {key}"
        ),
        workers=args.workers,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        retries=args.retries,
        resume=args.resume,
    )
    failures = [r for r in results if not r.ok]
    print(f"{len(results)} runs executed; results in {args.csv}")
    if campaign.last_stats is not None:
        print(format_execution_summary(campaign.last_stats))
    if failures:
        for failure in failures:
            print(
                f"FAILED {failure.topology}|{failure.pattern}"
                f"|{failure.rate:.6g}: {failure.error} "
                f"after {failure.attempts} attempt(s)"
            )
        print(
            f"{len(failures)} point(s) failed; re-run with --resume "
            "to retry exactly those"
        )
        return 1
    return 0


def _chaos(rest: list[str]) -> int:
    import argparse
    import json as _json
    import pathlib
    import re
    import sys as _sys

    from repro.experiments.runner import (
        SimulationSettings,
        run_simulation,
    )
    from repro.experiments.specs import (
        parse_pattern,
        parse_topology_routing,
    )
    from repro.noc.config import NocConfig
    from repro.resilience import FaultEvent, FaultPlan

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run one simulation under runtime link faults "
        "with the stall watchdog and periodic invariant audits "
        "attached, then print the resilience report.",
    )
    parser.add_argument("topology", help="topology spec, e.g. mesh4x4")
    parser.add_argument(
        "pattern", help="traffic spec, e.g. uniform or hotspot:0"
    )
    parser.add_argument(
        "rate", type=float, help="injection rate (flits/cycle/source)"
    )
    parser.add_argument(
        "--cycles", type=int, default=20_000, help="run length"
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=4_000,
        help="cycles excluded from the summary metrics",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--fail",
        action="append",
        default=[],
        metavar="SRC:DST@T[:REPAIR_T]",
        help="fail link SRC-DST at cycle T, optionally repairing it "
        "at REPAIR_T; repeatable",
    )
    parser.add_argument(
        "--random-faults",
        metavar="N@T",
        help="fail N random links at cycle T instead of --fail "
        "(deterministic in topology, N, T and --fault-seed)",
    )
    parser.add_argument(
        "--repair-after",
        type=int,
        default=None,
        metavar="D",
        help="with --random-faults: repair each link D cycles after "
        "it failed",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="S",
        help="seed for --random-faults picks (default: --seed)",
    )
    parser.add_argument(
        "--stall",
        type=int,
        default=2_000,
        metavar="N",
        help="stall-watchdog threshold in cycles without a consumed "
        "flit (default 2000; 0 disables)",
    )
    parser.add_argument(
        "--audit",
        type=int,
        default=0,
        metavar="N",
        help="run the full invariant suite every N cycles (0 = off)",
    )
    parser.add_argument(
        "--source-queue",
        type=int,
        default=64,
        metavar="PKTS",
        help="IP memory bound in packets",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also dump the full result dict as JSON here",
    )
    try:
        args = parser.parse_args(rest)
        if args.cycles < 1:
            parser.error(f"--cycles must be >= 1, got {args.cycles}")
        if not 0 <= args.warmup < args.cycles:
            parser.error(
                f"--warmup must be in [0, cycles), got {args.warmup}"
            )
        if args.fail and args.random_faults:
            parser.error("--fail and --random-faults are exclusive")
        if not args.fail and not args.random_faults:
            parser.error("need at least one --fail or --random-faults")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        topology, routing = parse_topology_routing(args.topology)
        pattern = parse_pattern(args.pattern, topology)
        if args.random_faults:
            match = re.fullmatch(r"(\d+)@(\d+)", args.random_faults)
            if match is None:
                raise ValueError(
                    f"--random-faults must look like N@T, got "
                    f"{args.random_faults!r}"
                )
            plan = FaultPlan.random_faults(
                topology,
                count=int(match.group(1)),
                at=int(match.group(2)),
                repair_after=args.repair_after,
                seed=(
                    args.fault_seed
                    if args.fault_seed is not None
                    else args.seed
                ),
            )
        else:
            events = []
            for spec in args.fail:
                match = re.fullmatch(
                    r"(\d+):(\d+)@(\d+)(?::(\d+))?", spec
                )
                if match is None:
                    raise ValueError(
                        f"--fail must look like SRC:DST@T[:REPAIR_T], "
                        f"got {spec!r}"
                    )
                src, dst, at = (int(match.group(i)) for i in (1, 2, 3))
                events.append(FaultEvent(at, src, dst, "fail"))
                if match.group(4) is not None:
                    events.append(
                        FaultEvent(
                            int(match.group(4)), src, dst, "repair"
                        )
                    )
            plan = FaultPlan(tuple(events))
        plan.validate_for(topology)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2

    settings = SimulationSettings(
        cycles=args.cycles,
        warmup=args.warmup,
        config=NocConfig(source_queue_packets=args.source_queue),
        seed=args.seed,
        fault_plan=plan,
        stall_cycles=args.stall or None,
        invariant_check_interval=args.audit,
    )
    result = run_simulation(
        topology, pattern, args.rate, settings, routing=routing
    )

    for event in plan.events:
        print(
            f"plan: {event.action} {event.src}-{event.dst} "
            f"at cycle {event.time}"
        )
    resilience = result.extra.get("resilience", {})
    for record in resilience.get("fault_events", []):
        residual = (
            "connected"
            if record.get("residual_connected", True)
            else "PARTITIONED"
        )
        print(
            f"cycle {record['time']}: {record['action']} "
            f"{record['link']} — killed "
            f"{record.get('packets_killed', 0)} packet(s), dropped "
            f"{record.get('flits_dropped', 0)} flit(s), "
            f"residual graph {residual}"
        )
    print(
        f"degraded={result.degraded} "
        f"flits_dropped={result.flits_dropped} "
        f"packets_killed={result.packets_killed} "
        f"rerouted={resilience.get('packets_rerouted', 0)} "
        f"delivered={result.packets_delivered} "
        f"throughput={result.throughput:.6g}"
    )
    if result.degraded and "stall" in result.extra:
        stall = result.extra["stall"]
        print(f"stall: {stall.get('reason', '?')}")
        snapshot = {
            k: v
            for k, v in stall.items()
            if k not in ("reason", "blocked_routers")
        }
        print(f"stall snapshot: {_json.dumps(snapshot, sort_keys=True)}")
    if args.json is not None:
        pathlib.Path(args.json).write_text(
            _json.dumps(result.to_dict(), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"full result -> {args.json}")
    return 1 if result.degraded else 0


def _trace(rest: list[str]) -> int:
    import argparse
    import contextlib
    import sys as _sys

    from repro.experiments.specs import (
        parse_pattern,
        parse_topology_routing,
    )
    from repro.noc.config import NocConfig
    from repro.noc.network import Network
    from repro.obs import (
        FlitTracer,
        KernelProfiler,
        TimelineObserver,
        TraceSink,
    )
    from repro.traffic.base import TrafficSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one simulation with the observability layer "
        "attached and stream it as JSONL: flit lifecycle records, "
        "per-link utilization, the windowed timeline, and a kernel "
        "profile.",
    )
    parser.add_argument("topology", help="topology spec, e.g. ring16")
    parser.add_argument(
        "pattern", help="traffic spec, e.g. uniform or hotspot:0"
    )
    parser.add_argument(
        "rate", type=float, help="injection rate (flits/cycle/source)"
    )
    parser.add_argument(
        "--cycles", type=int, default=2_000, help="run length"
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=0,
        help="cycles excluded from the summary metrics",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--window",
        type=int,
        default=100,
        metavar="W",
        help="utilization-timeline window width in cycles",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="write the JSONL here instead of stdout",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="cap flit-lifecycle records (dropped ones are counted "
        "in the summary)",
    )
    parser.add_argument(
        "--no-flits",
        action="store_true",
        help="skip per-flit lifecycle records (timeline and summary "
        "only)",
    )
    parser.add_argument(
        "--source-queue",
        type=int,
        default=64,
        metavar="PKTS",
        help="IP memory bound in packets",
    )
    try:
        args = parser.parse_args(rest)
        if args.cycles < 1:
            parser.error(f"--cycles must be >= 1, got {args.cycles}")
        if not 0 <= args.warmup < args.cycles:
            parser.error(
                f"--warmup must be in [0, cycles), got {args.warmup}"
            )
        if args.window < 1:
            parser.error(f"--window must be >= 1, got {args.window}")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        topology, routing = parse_topology_routing(args.topology)
        pattern = parse_pattern(args.pattern, topology)
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2

    network = Network(
        topology,
        routing,
        config=NocConfig(source_queue_packets=args.source_queue),
        traffic=TrafficSpec(pattern, args.rate),
        seed=args.seed,
    )
    with contextlib.ExitStack() as stack:
        if args.out is not None:
            sink = stack.enter_context(
                TraceSink.to_path(args.out, limit=args.limit)
            )
        else:
            sink = TraceSink(_sys.stdout, limit=args.limit)
        sink.write(
            {
                "type": "meta",
                "topology": args.topology,
                "pattern": args.pattern,
                "rate": args.rate,
                "cycles": args.cycles,
                "warmup": args.warmup,
                "seed": args.seed,
                "window": args.window,
                "num_nodes": topology.num_nodes,
            }
        )
        tracer = None
        if not args.no_flits:
            tracer = FlitTracer(network, sink)
        timeline_observer = TimelineObserver(
            network, window=args.window
        )
        profiler = KernelProfiler(network.simulator)
        result = network.run(cycles=args.cycles, warmup=args.warmup)
        if tracer is not None:
            tracer.detach()
        # --limit bounds the flit-lifecycle stream; the trailing
        # link/timeline/summary records always go out.
        flit_records_dropped = sink.records_dropped
        sink.limit = None
        timeline = timeline_observer.timeline()
        for node, port, dst, utilization in timeline.busiest_links(
            count=len(timeline.links)
        ):
            attrs = network.link_attrs_of(node, port)
            sink.write(
                {
                    "type": "link",
                    "node": node,
                    "port": port,
                    "dst": dst,
                    "kind": attrs.kind,
                    "latency": attrs.latency,
                    "flits": timeline.link_totals()[(node, port)],
                    "utilization": round(utilization, 6),
                }
            )
        sink.write({"type": "timeline", **timeline.to_dict()})
        sink.write(
            {
                "type": "summary",
                "kernel": profiler.summary(),
                "result": {
                    "throughput": result.throughput,
                    "avg_latency": result.avg_latency,
                    "packets_delivered": result.packets_delivered,
                    "packets_generated": result.packets_generated,
                    "events_processed": result.events_processed,
                },
                "peak_buffer_occupancy": {
                    str(router.node): router.peak_buffer_occupancy()
                    for router in network.routers
                },
                "peak_ip_backlog": {
                    str(ni.node): ni.peak_backlog
                    for ni in network.interfaces
                },
                "flit_records_dropped": flit_records_dropped,
            }
        )
    if args.out is not None:
        busiest = timeline.busiest_links(3)
        print(
            f"{sink.records_written} records -> {args.out}; "
            "busiest links: "
            + ", ".join(
                f"{node}->{dst} ({port}) {utilization:.3f}"
                for node, port, dst, utilization in busiest
            ),
            file=_sys.stderr,
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("info", "-h", "--help"):
        return _info()
    command, rest = argv[0], argv[1:]
    if command == "figures":
        from repro.experiments.figures import main as figures_main

        return figures_main(rest)
    if command == "campaign":
        return _campaign(rest)
    if command == "topologies":
        return _topologies()
    if command == "engines":
        return _engines()
    if command == "routings":
        return _routings()
    if command == "trace":
        return _trace(rest)
    if command == "chaos":
        return _chaos(rest)
    if command == "serve":
        return _serve(rest)
    if command == "submit":
        return _submit(rest)
    print(f"unknown command {command!r}; try: python -m repro info")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
