"""Delta encoding + adaptivity workloads: the X13 benchmark.

X10 amortized the process shard mode's *round trips* (micro-batched
dispatch); what remains per block on the transport side is **delta
encoding**.  Every delta is a row frame: payload-free occurrences cross the
process boundary as fixed-width rows encoded once per EB position
(:class:`~repro.cluster.transport._RowLog`), and rows that do not fit the
fixed width ride along as out-of-band snapshot tuples.  The
:class:`~repro.cluster.streaming.DispatchController` closes the loop on the
*trip size*: it sizes each stream drain from the live
``ingest.queue_depth`` / ``trip.dispatch`` signals instead of the static
``batch_blocks`` knob.

The X13 benchmark (``benchmarks/bench_x13_transport_adaptivity.py`` and
``chimera-events bench x13``) measures both halves:

* **delta encoding** — the X10 check-heavy grid run single-table, serial,
  and on process workers; the figures are the per-block delta-encode cost
  and the inline / fallback row counts, with a payload-bearing arm driving
  every row through the fallback path;
* **adaptivity** — a bursty stream (idle gaps, then a deep backlog, then
  idle again) through ``StreamIngestor`` arms static-1 / static-8 /
  adaptive: the controller must keep per-block trips while idle (latency
  within 10% of static-1), widen under backlog (throughput within 10% of
  static-8) and shrink back to 1 when the burst drains.

Every grid point asserts identical triggering decisions, priority-order
selections and Trigger Support stats across execution modes (and, for the
bursty stream, pins every arm against an unsharded replay of its realized
trip partition) — the differential harnesses in ``tests/cluster/`` pin the
same properties per-rule and per-counter.
"""

from __future__ import annotations

import gc
import os
import time

from repro.analysis.reporting import render_table
from repro.events.clock import TransactionClock
from repro.events.event import EventOccurrence
from repro.events.event_base import EventBase
from repro.oodb.objects import ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import Schema
from repro.rules.executor import RuleEngine
from repro.rules.rule import Rule
from repro.workloads.rule_scaling import (
    ScalingWorkload,
    WorkloadOutcome,
    build_scaling_universe,
)
from repro.workloads.shard_scaling import build_shard_rules, build_shaped_blocks

__all__ = [
    "measure_transport_encoding",
    "measure_bursty_adaptivity",
    "run_x13_sweeps",
    "render_x13",
]

#: Stream-ingestor arms of the bursty comparison.
X13_ARMS = ("static_1", "static_8", "adaptive")


def _with_payloads(
    blocks: list[list[EventOccurrence]],
) -> list[list[EventOccurrence]]:
    """The same stream with a small payload on every occurrence.

    Payload-bearing rows cannot use the fixed-width row encoding, so this
    arm drives the per-row out-of-band fallback end to end.
    """
    return [
        [
            EventOccurrence(
                eid=occurrence.eid,
                event_type=occurrence.event_type,
                oid=occurrence.oid,
                timestamp=occurrence.timestamp,
                payload={"seq": occurrence.eid},
            )
            for occurrence in block
        ]
        for block in blocks
    ]


def measure_transport_encoding(
    rule_count: int,
    workers: int = 4,
    blocks: int = 48,
    warmup_blocks: int = 4,
    events_per_block: int = 12,
    types_per_shape: tuple[int, int] = (4, 8),
    shapes: int = 16,
    seed: int = 7,
    batch: int = 4,
    payloads: bool = False,
    reps: int = 3,
    check_equivalence: bool = True,
) -> dict:
    """One grid point: the same stream single-table, serial and on workers.

    The identical rule pool and stream run through the single-table planner,
    the serial coordinator, and the process coordinator over the default
    transport; the measured phase excludes the warm-up (which ships every
    rule definition once).  The headline number is the process run's
    per-block *delta* encode cost (``delta_encode_ms``).

    The encode cost of one ``blocks``-block pass totals well under a
    millisecond, so a single scheduler preemption on a shared host can
    multiply it.  The measured stream therefore continues for ``reps``
    passes of ``blocks`` fresh blocks each and the per-block figures take
    the **minimum per-pass cost** (the X12 min-of-reps discipline);
    counters, bytes and the equivalence checks cover the whole measured
    stream.
    """
    universe = build_scaling_universe(rule_count)
    rules = build_shard_rules(rule_count, universe, seed=seed + 53)
    stream = build_shaped_blocks(
        universe,
        warmup_blocks + blocks * reps,
        events_per_block=events_per_block,
        shapes=shapes,
        types_per_shape=types_per_shape,
        seed=seed,
    )
    if payloads:
        stream = _with_payloads(stream)
    measured = stream[warmup_blocks:]

    def run(shards: int, shard_mode: str | None):
        workload = ScalingWorkload(
            rules, shards=shards, shard_mode=shard_mode, batch_blocks=batch
        )
        for start in range(0, warmup_blocks, batch):
            workload.feed_trip(stream[start : min(start + batch, warmup_blocks)])
        workload.outcome = WorkloadOutcome()  # drop warm-up timings
        pool = getattr(workload.support, "process_pool", None)
        baseline = pool.transport_stats() if pool is not None else {}
        # Collect the previous arm's garbage now: a deferred gen-2 pass over
        # a freed 10k-rule engine landing inside the measured phase would
        # dwarf the µs-scale encode costs this grid measures.
        gc.collect()
        pass_costs: list[dict[str, float]] = []
        outcome = workload.outcome
        for rep in range(reps):
            chunk = measured[rep * blocks : (rep + 1) * blocks]
            before = pool.transport_stats() if pool is not None else {}
            outcome = workload.run(chunk)
            if pool is not None:
                after = pool.transport_stats()
                pass_costs.append(
                    {
                        "delta_encode_ms": after["delta_encode_ms"]
                        - before["delta_encode_ms"],
                        "encode_ms": after["encode_ms"] - before["encode_ms"],
                    }
                )
        if pool is not None:
            steady = pool.transport_stats()
            outcome.transport = {
                key: round(value - baseline.get(key, 0), 3)
                if isinstance(value, (int, float)) and key != "workers"
                else value
                for key, value in steady.items()
            }
            outcome.transport["min_pass_delta_encode_ms"] = round(
                min(cost["delta_encode_ms"] for cost in pass_costs), 3
            )
            outcome.transport["min_pass_encode_ms"] = round(
                min(cost["encode_ms"] for cost in pass_costs), 3
            )
        workload.close()
        return outcome

    single_outcome = run(0, None)
    serial_outcome = run(workers, "serial")
    process_outcome = run(workers, "processes")
    if check_equivalence:
        compared = {"serial": serial_outcome, "processes": process_outcome}
        for label, outcome in compared.items():
            assert outcome.triggerings == single_outcome.triggerings, (
                f"{label} made different triggering decisions"
            )
            assert outcome.considerations == single_outcome.considerations, (
                f"{label} selected rules in a different order"
            )
            assert outcome.stats == single_outcome.stats, (
                f"{label} diverged from the single-table stats"
            )

    measured_blocks = single_outcome.blocks
    stats = process_outcome.transport
    return {
        "rules": rule_count,
        "workers": workers,
        "blocks": measured_blocks,
        "blocks_per_pass": blocks,
        "reps": reps,
        "events_per_block": events_per_block,
        "batch_blocks": batch,
        "payloads": payloads,
        "delta_encode_us_per_block": round(
            1e3 * stats["min_pass_delta_encode_ms"] / max(1, blocks), 2
        ),
        "encode_us_per_block": round(
            1e3 * stats["min_pass_encode_ms"] / max(1, blocks), 1
        ),
        "bytes_shipped_per_block": round(
            stats["bytes_shipped"] / max(1, measured_blocks), 1
        ),
        "deltas": int(stats["deltas"]),
        "rows_inline": int(stats["rows_inline"]),
        "rows_fallback": int(stats["rows_fallback"]),
        "check_us_per_block_single": round(single_outcome.check_us_per_block, 1),
        "check_us_per_block_serial": round(serial_outcome.check_us_per_block, 1),
        "check_us_per_block_processes": round(process_outcome.check_us_per_block, 1),
        "triggerings": sum(single_outcome.triggerings.values()),
    }


def _build_stream_engine(
    rules: list[Rule], shards: int, shard_mode: str | None, transport: str | None
) -> RuleEngine:
    """A minimal engine (no object-store traffic) for stream-ingestion arms."""
    schema = Schema()
    store = ObjectStore()
    event_base = EventBase()
    clock = TransactionClock()
    operations = OperationExecutor(
        schema, store, event_base, clock, emit_select_events=False
    )
    engine = RuleEngine(
        schema=schema,
        store=store,
        event_base=event_base,
        clock=clock,
        operations=operations,
        shards=shards,
        shard_mode=shard_mode,
        transport=transport,
    )
    for rule in rules:
        engine.rule_table.add(rule).reset(0)
    return engine


def _replay_partition(
    rules: list[Rule],
    blocks: list[list[EventOccurrence]],
    partition: list[int],
) -> dict:
    """Run ``blocks`` through an unsharded engine in the given trip sizes."""
    assert sum(partition) == len(blocks), (
        f"partition covers {sum(partition)} of {len(blocks)} blocks"
    )
    engine = _build_stream_engine(rules, 0, None, None)
    try:
        index = 0
        for size in partition:
            chunk = blocks[index : index + size]
            if size == 1:
                engine.run_stream_block(chunk[0])
            else:
                engine.run_stream_blocks(chunk)
            index += size
        return {
            "triggerings": {
                state.rule.name: state.times_triggered
                for state in engine.rule_table.states()
            },
            "considerations": [
                record.rule_name for record in engine.considerations
            ],
            "stats": engine.trigger_support.stats.as_dict(),
        }
    finally:
        engine.close()


def measure_bursty_adaptivity(
    rule_count: int = 2_000,
    shards: int = 4,
    idle_blocks: int = 16,
    backlog_blocks: int = 48,
    cooldown_blocks: int = 8,
    events_per_block: int = 24,
    max_batch_blocks: int = 8,
    max_pending: int = 64,
    transport: str = "pipe",
    shard_mode: str = "processes",
    seed: int = 19,
    check_equivalence: bool = True,
) -> dict:
    """The bursty-arrival comparison: static-1 / static-8 / adaptive arms.

    Each arm drives the identical three-phase stream through its own
    process-mode engine and :class:`StreamIngestor`:

    1. **idle** — submit + flush one block at a time (no backlog ever
       forms): the per-block latency an interactive stream sees;
    2. **backlog** — the whole burst is submitted at once and drained in
       one flush: the throughput regime batching exists for;
    3. **cooldown** — idle again; the adaptive arm's controller must have
       shrunk its bound back to 1 by the end.

    The adaptive arm must match static-1 latency while idle and static-8
    throughput under backlog.  Trip sizing moves considerations to trip
    boundaries (inherent to micro-batching), so each arm's equivalence
    check replays the arm's *realized* trip partition
    (:attr:`StreamIngestor.trip_sizes`) on an unsharded reference engine
    and asserts identical triggering counters, consideration sequences and
    Trigger Support stats — pinning the whole pipelined + sharded +
    transport stack against plain single-process evaluation.
    """
    from repro.cluster.streaming import StreamIngestor

    universe = build_scaling_universe(rule_count)
    rules = build_shard_rules(rule_count, universe, seed=seed + 3)
    total = idle_blocks + backlog_blocks + cooldown_blocks
    warmup = 2
    stream = build_shaped_blocks(
        universe, warmup + total, events_per_block=events_per_block, seed=seed
    )
    phases = {
        "warmup": stream[:warmup],
        "idle": stream[warmup : warmup + idle_blocks],
        "backlog": stream[warmup + idle_blocks : warmup + idle_blocks + backlog_blocks],
        "cooldown": stream[warmup + idle_blocks + backlog_blocks :],
    }

    arm_configs = {
        "static_1": {"max_batch_blocks": 1, "adaptive_batch": False},
        "static_8": {"max_batch_blocks": max_batch_blocks, "adaptive_batch": False},
        "adaptive": {"max_batch_blocks": max_batch_blocks, "adaptive_batch": True},
    }
    arms: dict[str, dict] = {}
    outcomes: dict[str, dict] = {}
    for arm, config in arm_configs.items():
        engine = _build_stream_engine(rules, shards, shard_mode, transport)
        try:
            with StreamIngestor(engine, max_pending=max_pending, **config) as ingestor:
                for block in phases["warmup"]:
                    ingestor.submit(block)
                ingestor.flush()
                # Clear garbage carried over from earlier arms / grid points
                # before timing: a deferred gen-2 collection inside a phase
                # would be charged to whichever arm happens to be running.
                gc.collect()
                trips_before = ingestor.stats.coalesced_trips
                started = time.perf_counter()
                for block in phases["idle"]:
                    ingestor.submit(block)
                    ingestor.flush()
                idle_seconds = time.perf_counter() - started
                idle_trips = ingestor.stats.coalesced_trips - trips_before
                gc.collect()
                trips_before = ingestor.stats.coalesced_trips
                started = time.perf_counter()
                for block in phases["backlog"]:
                    ingestor.submit(block)
                ingestor.flush()
                backlog_seconds = time.perf_counter() - started
                backlog_trips = ingestor.stats.coalesced_trips - trips_before
                for block in phases["cooldown"]:
                    ingestor.submit(block)
                    ingestor.flush()
                controller = ingestor.controller
                final_bound = (
                    controller.batch_blocks if controller is not None else None
                )
            counters = engine.metrics_snapshot()["counters"]
            partition = list(ingestor.trip_sizes)
            arms[arm] = {
                "idle_ms_per_block": round(1e3 * idle_seconds / idle_blocks, 3),
                "idle_trips": idle_trips,
                "backlog_seconds": round(backlog_seconds, 4),
                "backlog_blocks_per_sec": round(
                    backlog_blocks / max(1e-9, backlog_seconds), 1
                ),
                "backlog_trips": backlog_trips,
                "max_blocks_per_trip": ingestor.stats.max_blocks_per_trip,
                "widened": int(counters.get("controller.widened", 0)),
                "shrunk": int(counters.get("controller.shrunk", 0)),
                "final_bound": final_bound,
            }
            outcomes[arm] = {
                "partition": partition,
                "triggerings": {
                    state.rule.name: state.times_triggered
                    for state in engine.rule_table.states()
                },
                "considerations": [
                    record.rule_name for record in engine.considerations
                ],
                "stats": engine.trigger_support.stats.as_dict(),
            }
        finally:
            engine.close()

    if check_equivalence:
        # Each arm's realized trip partition, replayed on an unsharded
        # reference engine: the pipelined + sharded + transport stack must be
        # byte-identical to plain single-process evaluation of that partition.
        for arm in arm_configs:
            reference = _replay_partition(rules, stream, outcomes[arm]["partition"])
            assert (
                outcomes[arm]["triggerings"] == reference["triggerings"]
            ), f"{arm} arm made different triggering decisions than its replay"
            assert (
                outcomes[arm]["considerations"] == reference["considerations"]
            ), f"{arm} arm considered rules in a different order than its replay"
            assert outcomes[arm]["stats"] == reference["stats"], (
                f"{arm} arm diverged from its replay's Trigger Support stats"
            )

    adaptive = arms["adaptive"]
    return {
        "rules": rule_count,
        "shards": shards,
        "shard_mode": shard_mode,
        "transport": transport,
        "idle_blocks": idle_blocks,
        "backlog_blocks": backlog_blocks,
        "cooldown_blocks": cooldown_blocks,
        "events_per_block": events_per_block,
        "max_batch_blocks": max_batch_blocks,
        "arms": arms,
        "idle_latency_ratio": round(
            adaptive["idle_ms_per_block"]
            / max(1e-9, arms["static_1"]["idle_ms_per_block"]),
            3,
        ),
        "backlog_throughput_ratio": round(
            adaptive["backlog_blocks_per_sec"]
            / max(1e-9, arms["static_8"]["backlog_blocks_per_sec"]),
            3,
        ),
        "equivalence_checked": check_equivalence,
    }


def run_x13_sweeps(smoke: bool = False) -> dict:
    """The X13 grid: delta encoding plus the bursty-adaptivity arms."""
    if smoke:
        transport_grid = [
            measure_transport_encoding(
                800,
                workers=2,
                blocks=24,
                warmup_blocks=2,
                events_per_block=8,
                shapes=8,
                payloads=payloads,
            )
            for payloads in (False, True)
        ]
        adaptivity = measure_bursty_adaptivity(
            rule_count=300,
            shards=2,
            idle_blocks=6,
            backlog_blocks=24,
            cooldown_blocks=6,
            events_per_block=12,
        )
    else:
        transport_grid = [
            measure_transport_encoding(10_000, payloads=payloads)
            for payloads in (False, True)
        ]
        adaptivity = measure_bursty_adaptivity()
    host_cpus = os.cpu_count() or 1
    payload_free = transport_grid[0]
    return {
        "benchmark": "x13_transport_adaptivity",
        "description": (
            "Row-frame delta encoding + adaptive dispatch sizing.  The "
            "encoding grid reruns the X10 check-heavy stream through the "
            "process coordinator: per-block delta-encode cost and inline / "
            "fallback row counts (a payload-bearing arm drives every row "
            "through the out-of-band fallback).  The adaptivity arms run a "
            "bursty stream through static-1 / static-8 / adaptive "
            "ingestors: the controller must hold per-block trips while "
            "idle, widen under backlog, and shrink back when the burst "
            "drains.  Every grid point asserts identical triggering "
            "decisions, selections and stats across modes and arms."
        ),
        "host_cpus": host_cpus,
        "headline": {
            "delta_encode_us_per_block": payload_free["delta_encode_us_per_block"],
            "idle_latency_ratio": adaptivity["idle_latency_ratio"],
            "backlog_throughput_ratio": adaptivity["backlog_throughput_ratio"],
            "adaptive_widened": adaptivity["arms"]["adaptive"]["widened"],
            "adaptive_final_bound": adaptivity["arms"]["adaptive"]["final_bound"],
        },
        "transport": transport_grid,
        "adaptivity": adaptivity,
        "equivalence": {
            "checked": True,
            "note": (
                "each encoding grid point asserts identical triggering "
                "decisions, priority-order selections and Trigger Support "
                "stats across the single table, the serial coordinator and "
                "the process workers; each adaptivity arm asserts "
                "identical triggering counters, consideration sequences and "
                "stats against an unsharded replay of its realized trip "
                "partition"
            ),
        },
    }


def render_x13(results: dict) -> str:
    """Human-readable tables for an X13 result dict."""
    grid = results["transport"]
    sections = [
        render_table(
            [
                "rows",
                "delta enc µs/blk",
                "encode µs/blk",
                "bytes/blk",
                "deltas",
                "rows inline",
                "rows fallback",
                "process chk µs",
            ],
            [
                [
                    "payload-bearing" if point["payloads"] else "payload-free",
                    point["delta_encode_us_per_block"],
                    point["encode_us_per_block"],
                    point["bytes_shipped_per_block"],
                    point["deltas"],
                    point["rows_inline"],
                    point["rows_fallback"],
                    point["check_us_per_block_processes"],
                ]
                for point in grid
            ],
            title=(
                f"X13 — row-frame delta encoding, {grid[0]['rules']} rules, "
                f"{grid[0]['workers']} workers "
                f"(host has {results.get('host_cpus', '?')} CPU(s))"
            ),
        )
    ]
    adaptivity = results["adaptivity"]
    rows = [
        [
            arm,
            stats["idle_ms_per_block"],
            stats["idle_trips"],
            stats["backlog_blocks_per_sec"],
            stats["backlog_trips"],
            stats["max_blocks_per_trip"],
            stats["widened"],
            stats["shrunk"],
            stats["final_bound"] if stats["final_bound"] is not None else "-",
        ]
        for arm, stats in adaptivity["arms"].items()
    ]
    sections.append(
        render_table(
            [
                "arm",
                "idle ms/blk",
                "idle trips",
                "backlog blk/s",
                "backlog trips",
                "max blk/trip",
                "widened",
                "shrunk",
                "final bound",
            ],
            rows,
            title=(
                f"X13 — bursty adaptivity, {adaptivity['rules']} rules, "
                f"{adaptivity['shards']} {adaptivity['shard_mode']} shards, "
                f"{adaptivity['transport']} transport "
                f"(idle ratio {adaptivity['idle_latency_ratio']}, "
                f"backlog ratio {adaptivity['backlog_throughput_ratio']})"
            ),
        )
    )
    return "\n\n".join(sections)
