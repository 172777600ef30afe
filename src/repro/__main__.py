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
    python -m repro run mesh4x4 uniform 0.1 fail=5:6@2000   # one point
    python -m repro run ring16 hotspot:0 0.1 --trace out.jsonl
    python -m repro serve --port 8642    # campaign-as-a-service
    python -m repro submit SPEC.json     # stream a campaign to it
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
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
        "usage: python -m repro {info|figures|campaign|topologies|engines"
        "|routings|run|serve|submit} [args...]\n"
        "       figures, campaign, run, serve and submit list their "
        "options with --help"
    )
    return 0


def _parse_executor_args(parser, rest, workers: int, workers_help: str):
    """Add the executor options to *parser* and parse *rest*; options
    no run could honour are usage errors."""
    from repro.experiments.parallel import check_options

    parser.add_argument(
        "--workers", type=int, default=workers, metavar="N", help=workers_help
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        help="per-point deadline in seconds; a point past it has its "
        "worker terminated and is retried or failed",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts per crashed, timed-out or failed point "
        "(default 0)",
    )
    args = parser.parse_args(rest)
    try:
        check_options(args.workers, args.timeout, args.retries)
    except ValueError as exc:
        parser.error(f"--{exc}")
    return args


def _serve(rest: list[str]) -> int:
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
        "--store",
        metavar="DIR",
        default=".repro-store",
        help="content-addressed result store directory (default "
        ".repro-store; compatible with campaign .repro-cache "
        "directories)",
    )
    try:
        args = _parse_executor_args(
            parser, rest, 2, "persistent worker processes (default 2)"
        )
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
        spec = json.loads(pathlib.Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(args.host, args.port)
    try:
        if args.wait > 0:
            client.wait_until_ready(args.wait)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_handle = None
    if args.out is not None:
        out_handle = pathlib.Path(args.out).open("a")
    summary = None
    done = 0
    try:
        for entry in client.submit(spec):
            if out_handle is not None:
                out_handle.write(json.dumps(entry) + "\n")
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
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out_handle is not None:
            out_handle.close()
    if summary is None:
        print("error: stream ended without a summary", file=sys.stderr)
        return 2
    print(
        f"{summary['points']} points: {summary['store_hits']} store "
        f"hits, {summary['coalesced']} coalesced, "
        f"{summary['simulated']} simulated, {summary['failed']} failed"
    )
    return 1 if summary["failed"] else 0


def _print_columns(rows) -> None:
    """Print rows of strings with every column but the last padded."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    widths[-1] = 0
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _topologies(rest: list[str]) -> int:
    from repro.experiments.specs import available_topologies

    _print_columns(
        [(f.prefix, f.example, f.description) for f in available_topologies()]
    )
    return 0


def _engines(rest: list[str]) -> int:
    from repro.sim import available_engines

    _print_columns([(f.name, f.description) for f in available_engines()])
    return 0


def _routings(rest: list[str]) -> int:
    from repro.experiments.specs import available_routings

    _print_columns([(f.name, f.description) for f in available_routings()])
    print()
    print(
        "append as a topology-spec suffix, e.g. mesh4x4:adaptive "
        "or faulty:ring16:1@7:adaptive-misroute"
    )
    return 0


def _figures(rest: list[str]) -> int:
    from repro.experiments.figures import main as figures_main

    return figures_main(rest)


def _campaign(rest: list[str]) -> int:
    from repro.experiments.campaign import Campaign
    from repro.experiments.report import format_execution_summary

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run a sweep campaign described by a JSON spec.",
    )
    parser.add_argument("spec", help="campaign spec (JSON file)")
    parser.add_argument("csv", help="output CSV (appended, resumable)")
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
    try:
        args = _parse_executor_args(
            parser,
            rest,
            1,
            "worker processes (default 1); any value produces identical "
            "rows because seeds derive from sweep coordinates",
        )
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        campaign = Campaign.from_json(pathlib.Path(args.spec).read_text())
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
            f"{len(failures)} point(s) failed; re-run the same command "
            "to retry exactly those"
        )
        return 1
    return 0


def _run(rest: list[str]) -> int:
    from repro.experiments.runner import run_simulation
    from repro.experiments.specs import (
        RUN_KEYS,
        parse_pattern,
        parse_point,
        parse_topology_routing,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run one simulation point and print its report: "
        "the fault plan and log, the summary line and, after a stall, "
        "the watchdog's snapshot.  Exits 1 when the run is degraded.",
        epilog="KEYs: " + ", ".join(RUN_KEYS) + " (random_faults="
        "COUNT@AT[:REPAIR_AFTER]), and fail=SRC:DST@T[:REPAIR_T], "
        "repeatable.",
    )
    parser.add_argument(
        "point",
        nargs="+",
        metavar="POINT",
        help="TOPOLOGY[:ROUTING] PATTERN RATE [KEY=VALUE ...]",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write the run here as JSONL: flit lifecycle records, "
        "per-link utilization and the timeline (when the point sets "
        "timeline_window), and a summary with the kernel profile",
    )
    parser.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="with --trace: cap the flit records at N, 0 for none "
        "(dropped ones are counted in the summary)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also dump the full result dict as JSON here",
    )
    try:
        args = parser.parse_args(rest)
        if args.limit is not None and (args.trace is None or args.limit < 0):
            parser.error("--limit needs --trace and must be >= 0")
        point = parse_point(args.point)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    topology, routing = parse_topology_routing(point.topology)
    pattern = parse_pattern(point.pattern, topology)
    settings = point.settings
    with contextlib.ExitStack() as stack:
        observers = []
        if args.trace is not None:
            from repro.obs import FlitTracer, TraceSink

            networks = []
            observers.append(networks.append)

            sink = stack.enter_context(
                TraceSink.to_path(args.trace, limit=args.limit or None)
            )
            sink.write(
                {
                    "type": "meta",
                    "topology": point.topology,
                    "pattern": point.pattern,
                    "rate": point.rate,
                    "cycles": settings.cycles,
                    "warmup": settings.warmup,
                    "seed": settings.seed,
                    "window": settings.timeline_window,
                    "num_nodes": topology.num_nodes,
                }
            )
            if args.limit != 0:
                observers.append(lambda network: FlitTracer(network, sink))
        result = run_simulation(
            topology,
            pattern,
            point.rate,
            settings,
            routing=routing,
            observers=observers,
            profile=args.trace is not None,
        )
        if args.trace is not None:
            _write_trace_tail(sink, result, networks[0])

    plan = settings.fault_plan.events if settings.fault_plan else ()
    for event in plan:
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
        # The per-lane map is too long for one line; its total closes
        # the flit count (injected = consumed + buffered + in flight
        # + dropped).
        snapshot["flits_buffered"] = sum(
            sum(flits)
            for router in stall.get("blocked_routers", {}).values()
            for ports in router.values()
            for flits in ports.values()
        )
        print(f"stall snapshot: {json.dumps(snapshot, sort_keys=True)}")
    if args.trace is not None:
        print(f"trace: {sink.records_written} records -> {args.trace}")
    if args.json is not None:
        pathlib.Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"full result -> {args.json}")
    return 1 if result.degraded else 0


def _write_trace_tail(sink, result, network) -> None:
    """The records of a traced run after its flit records: one per
    link, busiest first, and the timeline (when the run kept one),
    then the summary."""
    from repro.stats.utilization import UtilizationTimeline

    # --limit bounds the flit records only.
    flit_records_dropped = sink.records_dropped
    sink.limit = None
    exported = result.extra.get("timeline")
    if exported is not None:
        timeline = UtilizationTimeline.from_dict(exported)
        totals = timeline.link_totals()
        attrs = {
            (link["node"], link["port"]): (link["kind"], link["latency"])
            for link in exported["links"]
        }
        for node, port, dst, utilization in timeline.busiest_links(
            count=len(totals)
        ):
            kind, latency = attrs[(node, port)]
            sink.write(
                {
                    "type": "link",
                    "node": node,
                    "port": port,
                    "dst": dst,
                    "kind": kind,
                    "latency": latency,
                    "flits": totals[(node, port)],
                    "utilization": round(utilization, 6),
                }
            )
        sink.write({"type": "timeline", **exported})
    sink.write(
        {
            "type": "summary",
            "kernel": result.extra["kernel"],
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
                str(ni.node): ni.peak_backlog for ni in network.interfaces
            },
            "flit_records_dropped": flit_records_dropped,
        }
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("info", "-h", "--help"):
        return _info()
    command, rest = argv[0], argv[1:]
    commands = {
        "figures": _figures,
        "campaign": _campaign,
        "topologies": _topologies,
        "engines": _engines,
        "routings": _routings,
        "run": _run,
        "serve": _serve,
        "submit": _submit,
    }
    if command not in commands:
        print(f"unknown command {command!r}; try: python -m repro info")
        return 2
    return commands[command](rest)


if __name__ == "__main__":
    raise SystemExit(main())
