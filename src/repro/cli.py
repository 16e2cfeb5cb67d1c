"""Command-line interface for the Chimera composite-event reproduction.

Installed as the ``chimera-events`` console script (or run with
``python -m repro.cli``).  Sub-commands:

``evaluate``
    Evaluate a composite event expression over a saved event log
    (``repro.events.persistence`` JSON lines) at a given instant, optionally
    for one object.
``explain``
    Like ``evaluate`` but prints the full explanation tree (which occurrences
    support or block the activation).
``variations``
    Print the static-optimization variation set ``V(E)`` of an expression.
``simplify``
    Print the exact simplification of an expression.
``replay``
    Print a saved event log as the paper's Fig. 3 style table.
``stock-demo``
    Run the stock-management workload for a few simulated days and print the
    rule and Trigger Support statistics.
``workload``
    Drive a synthetic rule/stream workload through the full block→trigger
    pipeline (subscription-index planning, priority heaps); ``--bulk-ingest``
    routes blocks through the Event Base's batched ``extend`` fast path,
    ``--full-scan`` disables the subscription index for comparison,
    ``--shards N`` partitions the planning across a shard coordinator,
    ``--shard-mode serial|threads|processes`` selects how the per-shard
    checks execute (``processes`` = the multi-core worker pool;
    ``--parallel-shards`` is the legacy spelling of ``threads``),
    ``--plan-cache-size`` overrides the LRU bound of the route/plan caches,
    ``--batch-blocks N`` coalesces N stream blocks per trigger-check
    dispatch trip (the micro-batched worker dispatch of PR 5), and
    ``--compiled-checks`` evaluates the exact checks through the compiled
    per-rule closures of PR 6 instead of the interpreted evaluator.
``bench``
    Run a benchmark sweep from the installed package (``x7``, the rule-count
    scaling / bulk-ingestion bench; ``x8``, the shard-scaling /
    pipelined-ingestion bench; ``x9``, the process-mode scaling bench;
    ``x10``, the dispatch-amortization bench; ``x11``, the compiled
    exact-check bench; or ``x12``, the observability-overhead bench;
    ``--smoke`` for a tiny grid).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.reporting import render_kv, render_table
from repro.core.evaluation import evaluate
from repro.core.explain import explain
from repro.core.optimization import format_variations, variation_set
from repro.core.parser import parse_expression
from repro.core.simplify import simplification_report
from repro.errors import ChimeraError
from repro.events.event_base import EventBase
from repro.events.persistence import load_event_base
from repro.workloads.stock import StockScenario

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``chimera-events`` command."""
    parser = argparse.ArgumentParser(
        prog="chimera-events",
        description="Composite events in Chimera: evaluate, explain and analyze event expressions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_expression(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "expression",
            help="composite event expression, e.g. 'create(stock) < modify(stock.quantity)'",
        )

    def add_log(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--log",
            required=True,
            help="event log in JSON-lines format (see repro.events.persistence)",
        )
        subparser.add_argument(
            "--at",
            type=int,
            default=None,
            help="evaluation instant (default: the log's latest time stamp)",
        )

    evaluate_parser = commands.add_parser(
        "evaluate", help="evaluate an expression over an event log"
    )
    add_expression(evaluate_parser)
    add_log(evaluate_parser)
    evaluate_parser.add_argument(
        "--oid", default=None, help="evaluate the instance-oriented ots for this object"
    )

    explain_parser = commands.add_parser(
        "explain", help="explain an activation over an event log"
    )
    add_expression(explain_parser)
    add_log(explain_parser)

    variations_parser = commands.add_parser(
        "variations", help="print the V(E) variation set"
    )
    add_expression(variations_parser)

    simplify_parser = commands.add_parser(
        "simplify", help="print the exact simplification"
    )
    add_expression(simplify_parser)

    replay_parser = commands.add_parser("replay", help="print an event log as a table")
    replay_parser.add_argument("--log", required=True)

    demo_parser = commands.add_parser(
        "stock-demo", help="run the stock-management workload"
    )
    demo_parser.add_argument("--days", type=int, default=3)
    demo_parser.add_argument("--operations", type=int, default=40)
    demo_parser.add_argument("--items", type=int, default=15)
    demo_parser.add_argument("--seed", type=int, default=0)
    demo_parser.add_argument(
        "--no-optimization",
        action="store_true",
        help="disable the V(E) static optimization in the Trigger Support",
    )

    workload_parser = commands.add_parser(
        "workload",
        help="run a synthetic rule/stream workload through the block pipeline",
    )
    workload_parser.add_argument("--rules", type=int, default=200)
    workload_parser.add_argument("--blocks", type=int, default=100)
    workload_parser.add_argument("--events-per-block", type=int, default=6)
    workload_parser.add_argument("--seed", type=int, default=7)
    workload_parser.add_argument(
        "--bulk-ingest",
        action="store_true",
        help="ingest each block through the Event Base's batched extend fast path",
    )
    workload_parser.add_argument(
        "--full-scan",
        action="store_true",
        help="disable the subscription index (visit every untriggered rule per block)",
    )
    workload_parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition trigger planning across N shards (0 = single table)",
    )
    workload_parser.add_argument(
        "--shard-mode",
        choices=["serial", "threads", "processes"],
        default=None,
        help=(
            "how per-shard checks execute (requires --shards): serial inline, "
            "a thread pool, or long-lived shard worker processes"
        ),
    )
    workload_parser.add_argument(
        "--parallel-shards",
        action="store_true",
        help="legacy alias for --shard-mode threads (requires --shards)",
    )
    workload_parser.add_argument(
        "--plan-cache-size",
        type=int,
        default=None,
        help="LRU bound of the coordinator route cache and shard plan caches",
    )
    workload_parser.add_argument(
        "--batch-blocks",
        type=int,
        default=1,
        help=(
            "coalesce this many stream blocks per trigger-check dispatch trip "
            "(amortizes the process-mode worker round trip; 1 = per-block)"
        ),
    )
    workload_parser.add_argument(
        "--compiled-checks",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "evaluate exact checks through the compiled per-rule closures "
            "(default: the $CHIMERA_COMPILED_CHECKS ambient setting)"
        ),
    )
    workload_parser.add_argument(
        "--transport",
        choices=["pipe", "tcp"],
        default=None,
        help=(
            "worker transport of the processes shard mode: forked local "
            "workers on pipes, or socket workers (default: the "
            "$CHIMERA_TRANSPORT ambient setting, then pipe)"
        ),
    )
    workload_parser.add_argument(
        "--adaptive-batch",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "size dispatch trips with the closed-loop controller instead of "
            "the static --batch-blocks bound "
            "(default: the $CHIMERA_ADAPTIVE_BATCH ambient setting, off)"
        ),
    )
    workload_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry's text report after the run",
    )
    workload_parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help=(
            "append the final metrics snapshot to this JSON-lines file "
            "(ambient alternative: $CHIMERA_METRICS on any engine)"
        ),
    )

    bench_parser = commands.add_parser("bench", help="run a benchmark sweep")
    bench_parser.add_argument(
        "which",
        choices=["x7", "x8", "x9", "x10", "x11", "x12", "x13", "x14"],
        help="benchmark to run",
    )
    bench_parser.add_argument(
        "--smoke", action="store_true", help="tiny grid (seconds)"
    )
    bench_parser.add_argument("--out", default=None, help="write the JSON results here")

    worker_parser = commands.add_parser(
        "worker",
        help="run one TCP shard worker against a remote coordinator",
        description=(
            "Connect to a coordinator endpoint (chimera workload --transport "
            "tcp with $CHIMERA_TCP_SPAWN=0) and serve shard checks until the "
            "coordinator stops it.  The worker id and token must match what "
            "the coordinator printed at startup."
        ),
    )
    worker_parser.add_argument("--host", required=True, help="coordinator host")
    worker_parser.add_argument(
        "--port", type=int, required=True, help="coordinator port"
    )
    worker_parser.add_argument(
        "--worker-id", type=int, required=True, help="shard worker id (0-based)"
    )
    worker_parser.add_argument(
        "--token", required=True, help="pool token printed by the coordinator"
    )
    worker_parser.add_argument(
        "--retry-seconds",
        type=float,
        default=10.0,
        help="keep retrying the connection this long (default: 10)",
    )
    return parser


def _load_log(path: str) -> EventBase:
    return load_event_base(path)


def _default_instant(event_base: EventBase, at: int | None) -> int:
    if at is not None:
        return at
    latest = event_base.full_window().latest_timestamp()
    return latest if latest is not None else 1


def _command_evaluate(args: argparse.Namespace) -> int:
    event_base = _load_log(args.log)
    expression = parse_expression(args.expression)
    instant = _default_instant(event_base, args.at)
    value = evaluate(expression, event_base.full_window(), instant, oid=args.oid)
    print(f"expression : {expression}")
    print(f"instant    : t{instant}")
    if args.oid is not None:
        print(f"object     : {args.oid}")
    print(f"ts value   : {value.value}")
    print(f"status     : {value}")
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    event_base = _load_log(args.log)
    expression = parse_expression(args.expression)
    instant = _default_instant(event_base, args.at)
    print(explain(expression, event_base.full_window(), instant).render())
    return 0


def _command_variations(args: argparse.Namespace) -> int:
    expression = parse_expression(args.expression)
    print(f"E    = {expression}")
    print(f"V(E) = {format_variations(variation_set(expression))}")
    return 0


def _command_simplify(args: argparse.Namespace) -> int:
    report = simplification_report(parse_expression(args.expression))
    print(f"original   : {report['original']}  ({report['original_size']} nodes)")
    print(f"simplified : {report['simplified']}  ({report['simplified_size']} nodes)")
    return 0


def _command_replay(args: argparse.Namespace) -> int:
    event_base = _load_log(args.log)
    rows = [
        [
            f"e{occurrence.eid}",
            str(occurrence.event_type),
            str(occurrence.oid),
            f"t{occurrence.timestamp}",
        ]
        for occurrence in event_base.occurrences
    ]
    print(
        render_table(["EID", "event type", "OID", "time stamp"], rows, title=args.log)
    )
    return 0


def _command_stock_demo(args: argparse.Namespace) -> int:
    scenario = StockScenario(
        items=args.items,
        shelf_products=max(1, args.items // 3),
        seed=args.seed,
        use_static_optimization=not args.no_optimization,
    )
    scenario.run_days(args.days, args.operations)
    db = scenario.database
    rows = [
        [name, counters["triggered"], counters["considered"], counters["executed"]]
        for name, counters in db.rule_statistics().items()
    ]
    print(
        render_table(
            ["rule", "triggered", "considered", "executed"],
            rows,
            title=f"stock demo: {args.days} days x {args.operations} operations",
        )
    )
    print(render_kv(db.trigger_statistics(), title="Trigger Support"))
    return 0


def _command_workload(args: argparse.Namespace) -> int:
    if (args.parallel_shards or args.shard_mode) and not args.shards:
        print("error: --shard-mode/--parallel-shards require --shards", file=sys.stderr)
        return 2
    if args.plan_cache_size is not None:
        if not args.shards:
            print("error: --plan-cache-size requires --shards", file=sys.stderr)
            return 2
        if args.plan_cache_size < 1:
            print(
                f"error: --plan-cache-size must be positive (got {args.plan_cache_size})",
                file=sys.stderr,
            )
            return 2
    if args.batch_blocks < 1:
        print(
            f"error: --batch-blocks must be positive (got {args.batch_blocks})",
            file=sys.stderr,
        )
        return 2
    if args.full_scan and args.shards:
        # The shard coordinator has nothing to fan out without the
        # subscription index; refuse rather than silently run the scan.
        print("error: --full-scan and --shards are mutually exclusive", file=sys.stderr)
        return 2
    from repro.obs import JsonLinesExporter, MetricsRegistry, render_metrics_report
    from repro.workloads.generator import EventStreamGenerator
    from repro.workloads.rule_scaling import (
        ScalingWorkload,
        build_scaling_rules,
        build_scaling_universe,
    )

    shard_mode = args.shard_mode
    if shard_mode is None and args.parallel_shards:
        shard_mode = "threads"
    # The registry is always on for the CLI workload: the report/export flags
    # only decide whether its snapshot is *surfaced* (the x12 bench pins the
    # instrumentation overhead under 3%).
    metrics = MetricsRegistry()
    universe = build_scaling_universe(args.rules)
    workload = ScalingWorkload(
        build_scaling_rules(args.rules, universe, seed=args.seed),
        use_subscription_index=not args.full_scan,
        bulk_ingest=args.bulk_ingest,
        shards=args.shards,
        shard_mode=shard_mode,
        plan_cache_size=args.plan_cache_size,
        batch_blocks=args.batch_blocks,
        use_compiled_checks=args.compiled_checks,
        metrics=metrics,
        transport=args.transport,
        adaptive_batch=args.adaptive_batch,
    )
    stream = EventStreamGenerator(
        event_types=universe, seed=args.seed + 1, events_per_block=args.events_per_block
    ).blocks(args.blocks)
    try:
        outcome = workload.run(stream)
        if args.shards > 0:
            planning = f"sharded x{args.shards} ({shard_mode or 'serial'})"
        else:
            planning = "full scan" if args.full_scan else "subscription index"
        print(
            render_kv(
                {
                    "rules": args.rules,
                    "blocks": outcome.blocks,
                    "events": outcome.events,
                    "ingest mode": (
                        "bulk extend" if args.bulk_ingest else "per-append loop"
                    ),
                    "planning": planning,
                    "batch blocks": args.batch_blocks,
                    "exact checks": (
                        "compiled"
                        if workload.support.use_compiled_checks
                        else "interpreted"
                    ),
                    "ingest ms": round(outcome.ingest_seconds * 1e3, 2),
                    "check ms": round(outcome.check_seconds * 1e3, 2),
                    "select ms": round(outcome.select_seconds * 1e3, 2),
                    "considerations": len(outcome.considerations),
                },
                title="workload",
            )
        )
        print(render_kv(outcome.stats, title="Trigger Support"))
        if args.shards > 0:
            table = workload.rule_table
            cluster = dict(workload.support.cluster_stats.as_dict())
            cluster["plan_cache_hits"] = table.plan_cache_hits
            cluster["plan_cache_misses"] = table.plan_cache_misses
            cluster["plan_cache_evictions"] = table.plan_cache_evictions
            # Shard balance: crc32 bucket placement can skew for real rule
            # pools — the adaptive-rebalancing follow-up needs this signal.
            population = table.shard_population()
            mean_population = sum(population) / max(1, len(population))
            cluster["shard_population"] = "/".join(str(count) for count in population)
            cluster["shard_skew"] = round(
                max(population) / max(1.0, mean_population), 2
            )
            # Dispatch amortization: with --batch-blocks N the trips stay
            # roughly flat while blocks grow, so blocks_per_trip -> N.
            cluster["blocks_per_trip"] = round(
                cluster["blocks_dispatched"] / max(1, cluster["dispatch_trips"]), 2
            )
            pool = getattr(workload.support, "process_pool", None)
            if pool is not None:
                for key, value in pool.transport_stats().items():
                    cluster[f"pool_{key}"] = value
            print(render_kv(cluster, title="Shard Coordinator"))
        if args.metrics:
            print()
            print(render_metrics_report(metrics.snapshot()))
        if args.metrics_json:
            exporter = JsonLinesExporter(args.metrics_json)
            exporter.export(metrics)
            exporter.close()
            print(f"\nwrote metrics snapshot to {args.metrics_json}")
    finally:
        workload.close()
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    import json

    if args.which == "x14":
        from repro.workloads.socket_transport import render_x14, run_x14_sweeps

        results = run_x14_sweeps(smoke=args.smoke)
        print(render_x14(results))
    elif args.which == "x13":
        from repro.workloads.transport_adaptivity import render_x13, run_x13_sweeps

        results = run_x13_sweeps(smoke=args.smoke)
        print(render_x13(results))
    elif args.which == "x12":
        from repro.workloads.observability import render_x12, run_x12_sweeps

        results = run_x12_sweeps(smoke=args.smoke)
        print(render_x12(results))
    elif args.which == "x11":
        from repro.workloads.compiled_check import render_x11, run_x11_sweeps

        results = run_x11_sweeps(smoke=args.smoke)
        print(render_x11(results))
    elif args.which == "x10":
        from repro.workloads.dispatch_amortization import render_x10, run_x10_sweeps

        results = run_x10_sweeps(smoke=args.smoke)
        print(render_x10(results))
    elif args.which == "x9":
        from repro.workloads.process_scaling import render_x9, run_x9_sweeps

        results = run_x9_sweeps(smoke=args.smoke)
        print(render_x9(results))
    elif args.which == "x8":
        from repro.workloads.shard_scaling import render_x8, run_x8_sweeps

        results = run_x8_sweeps(smoke=args.smoke)
        print(render_x8(results))
    else:
        from repro.workloads.rule_scaling import render_x7, run_x7_sweeps

        results = run_x7_sweeps(smoke=args.smoke)
        print(render_x7(results))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from repro.cluster.net import run_worker

    run_worker(
        args.host,
        args.port,
        args.worker_id,
        args.token,
        retry_seconds=args.retry_seconds,
    )
    return 0


_COMMANDS = {
    "evaluate": _command_evaluate,
    "explain": _command_explain,
    "variations": _command_variations,
    "simplify": _command_simplify,
    "replay": _command_replay,
    "stock-demo": _command_stock_demo,
    "workload": _command_workload,
    "bench": _command_bench,
    "worker": _command_worker,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ChimeraError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
