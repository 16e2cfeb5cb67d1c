"""Socket-transport workloads: the X14 benchmark.

Shard workers are reached through the
:class:`~repro.cluster.transport.ShardTransport` seam: forked local workers
on pipes, or socket workers (:mod:`repro.cluster.net`) that may live outside
the coordinator's process tree.  Both carry the same row-frame deltas.  The
X14 benchmark (``benchmarks/bench_x14_socket_transport.py`` and
``chimera-events bench x14``) measures what the socket path costs and pins
what it must never change:

* **transport grid** — the X13 check-heavy stream through the process
  coordinator once per transport (pipe / tcp over localhost workers): the
  end-to-end check time per block of tcp against pipe (the ratio a Nagle
  stall on the coordinator's sockets would blow up), plus the *structural*
  trip-protocol facts — every rule definition shipped exactly once per
  ``definition_order`` version (``defs_shipped == rules``), exactly one
  coordinator message per consulted worker per trip
  (``worker_round_trips == parallel_batches``), and every delta a row
  frame;
* **reconnect** — a tcp worker bounced between trips: the pool must absorb
  exactly one reconnect, re-ship the bounced worker's definitions, and end
  the run with triggering counters and consideration sequences
  byte-identical to an uninterrupted run (worker memos are
  decision-invariant by design, so a fresh mirror changes no outcome).

Every grid point asserts identical triggering decisions, priority-order
selections and Trigger Support stats across the single table, the serial
coordinator and both process transports — the differential harness in
``tests/cluster/test_mode_equivalence.py`` pins the same properties
per-rule and per-counter.
"""

from __future__ import annotations

import gc
import os

from repro.analysis.reporting import render_table
from repro.cluster.transport import TRANSPORTS
from repro.workloads.rule_scaling import (
    ScalingWorkload,
    WorkloadOutcome,
    build_scaling_universe,
)
from repro.workloads.shard_scaling import build_shard_rules, build_shaped_blocks

__all__ = [
    "measure_socket_transport",
    "measure_reconnect_resync",
    "run_x14_sweeps",
    "render_x14",
]

def measure_socket_transport(
    rule_count: int,
    workers: int = 4,
    blocks: int = 48,
    warmup_blocks: int = 4,
    events_per_block: int = 12,
    types_per_shape: tuple[int, int] = (4, 8),
    shapes: int = 16,
    seed: int = 11,
    batch: int = 4,
    reps: int = 3,
    check_equivalence: bool = True,
) -> dict:
    """One grid point: the same stream through both transports.

    The identical rule pool and stream run through the single-table
    planner, the serial coordinator, and the process coordinator once per
    transport.  Timing follows the X13 discipline (warm-up excluded,
    min-of-reps per-pass check and delta-encode cost); the structural
    counters — ``defs_shipped``, ``worker_round_trips`` vs the
    coordinator's ``parallel_batches``, the delta and row counts and
    ``reconnects`` — cover the whole run including warm-up, because the
    trip-protocol facts they pin are exact at any length.
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
    measured = stream[warmup_blocks:]

    def run(shards: int, shard_mode: str | None, transport: str | None):
        workload = ScalingWorkload(
            rules,
            shards=shards,
            shard_mode=shard_mode,
            batch_blocks=batch,
            transport=transport,
            adaptive_batch=False,
        )
        for start in range(0, warmup_blocks, batch):
            workload.feed_trip(stream[start : min(start + batch, warmup_blocks)])
        workload.outcome = WorkloadOutcome()  # drop warm-up timings
        pool = getattr(workload.support, "process_pool", None)
        gc.collect()
        pass_costs: list[dict[str, float]] = []
        outcome = workload.outcome
        for rep in range(reps):
            chunk = measured[rep * blocks : (rep + 1) * blocks]
            before = pool.transport_stats() if pool is not None else {}
            check_before = outcome.check_seconds
            outcome = workload.run(chunk)
            if pool is not None:
                after = pool.transport_stats()
                pass_costs.append(
                    {
                        "delta_encode_ms": after["delta_encode_ms"]
                        - before["delta_encode_ms"],
                        "encode_ms": after["encode_ms"] - before["encode_ms"],
                        "check_ms": 1e3 * (outcome.check_seconds - check_before),
                    }
                )
        if pool is not None:
            # Totals, warm-up included: the structural facts are exact over
            # any prefix of the run.
            outcome.transport = dict(pool.transport_stats())
            outcome.transport["parallel_batches"] = (
                workload.support.cluster_stats.parallel_batches
            )
            outcome.transport["min_pass_delta_encode_ms"] = round(
                min(cost["delta_encode_ms"] for cost in pass_costs), 3
            )
            outcome.transport["min_pass_encode_ms"] = round(
                min(cost["encode_ms"] for cost in pass_costs), 3
            )
            outcome.transport["min_pass_check_ms"] = round(
                min(cost["check_ms"] for cost in pass_costs), 3
            )
        return workload, outcome

    single_workload, single_outcome = run(0, None, None)
    serial_workload, serial_outcome = run(workers, "serial", None)
    process_runs = {
        transport: run(workers, "processes", transport)
        for transport in TRANSPORTS
    }
    if check_equivalence:
        compared = {"serial": serial_outcome} | {
            f"processes/{transport}": outcome
            for transport, (_, outcome) in process_runs.items()
        }
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

    rows = {}
    for transport, (_, outcome) in process_runs.items():
        stats = getattr(outcome, "transport", {})
        rows[transport] = {
            "delta_encode_us_per_block": round(
                1e3 * stats.get("min_pass_delta_encode_ms", 0.0) / max(1, blocks), 2
            ),
            "encode_us_per_block": round(
                1e3 * stats.get("min_pass_encode_ms", 0.0) / max(1, blocks), 1
            ),
            "bytes_shipped": int(stats.get("bytes_shipped", 0)),
            "dispatches": int(stats.get("dispatches", 0)),
            "worker_round_trips": int(stats.get("worker_round_trips", 0)),
            "parallel_batches": int(stats.get("parallel_batches", 0)),
            "defs_shipped": int(stats.get("defs_shipped", 0)),
            "reconnects": int(stats.get("reconnects", 0)),
            "deltas": int(stats.get("deltas", 0)),
            "rows_inline": int(stats.get("rows_inline", 0)),
            "rows_fallback": int(stats.get("rows_fallback", 0)),
            "check_us_per_block": round(
                1e3 * stats.get("min_pass_check_ms", 0.0) / max(1, blocks), 1
            ),
        }
    for workload in (
        single_workload,
        serial_workload,
        *(workload for workload, _ in process_runs.values()),
    ):
        workload.close()
    return {
        "rules": rule_count,
        "workers": workers,
        "blocks": single_outcome.blocks,
        "blocks_per_pass": blocks,
        "reps": reps,
        "events_per_block": events_per_block,
        "batch_blocks": batch,
        "transports": rows,
        "check_us_per_block_single": round(single_outcome.check_us_per_block, 1),
        "tcp_vs_pipe_check_ratio": round(
            rows["tcp"]["check_us_per_block"]
            / max(1e-9, rows["pipe"]["check_us_per_block"]),
            2,
        ),
        "triggerings": sum(single_outcome.triggerings.values()),
    }


def measure_reconnect_resync(
    rule_count: int = 300,
    workers: int = 2,
    blocks: int = 24,
    events_per_block: int = 8,
    shapes: int = 8,
    seed: int = 3,
    batch: int = 3,
) -> dict:
    """Bounce one tcp worker mid-run; the outcomes must not move.

    Two identical tcp runs over the same stream; halfway through, the
    second run kills and respawns the worker holding the most shipped
    definitions.  The reconnected worker re-syncs its definitions and a
    fresh mirror from position 0, so the only admissible differences are
    the re-shipped definition count and the reconnect counter — triggering
    counters and consideration sequences must be byte-identical (Trigger
    Support stats are *not* compared: a fresh memo re-samples instants,
    which is the one memo-dependent observable).
    """
    universe = build_scaling_universe(rule_count)
    rules = build_shard_rules(rule_count, universe, seed=seed + 7)
    stream = build_shaped_blocks(
        universe, blocks, events_per_block=events_per_block, shapes=shapes, seed=seed
    )
    half = len(stream) // 2

    def run(bounce: bool):
        workload = ScalingWorkload(
            rules,
            shards=workers,
            shard_mode="processes",
            batch_blocks=batch,
            transport="tcp",
            adaptive_batch=False,
        )
        try:
            workload.run(stream[:half])
            pool = workload.support.process_pool
            if bounce:
                loaded = max(pool._workers, key=lambda handle: len(handle.shipped_defs))
                pool._transport.respawn_worker(loaded.worker_id)
            outcome = workload.run(stream[half:])
            return {
                "triggerings": outcome.triggerings,
                "considerations": list(outcome.considerations),
                "reconnects": pool.reconnects,
                "defs_shipped": pool.defs_shipped,
            }
        finally:
            workload.close()

    uninterrupted = run(bounce=False)
    bounced = run(bounce=True)
    equivalent = (
        bounced["triggerings"] == uninterrupted["triggerings"]
        and bounced["considerations"] == uninterrupted["considerations"]
    )
    return {
        "rules": rule_count,
        "workers": workers,
        "blocks": blocks,
        "batch_blocks": batch,
        "reconnects": bounced["reconnects"],
        "reconnects_uninterrupted": uninterrupted["reconnects"],
        "defs_shipped": bounced["defs_shipped"],
        "defs_shipped_uninterrupted": uninterrupted["defs_shipped"],
        "resync_defs": bounced["defs_shipped"] - uninterrupted["defs_shipped"],
        "equivalent": equivalent,
    }


def run_x14_sweeps(smoke: bool = False) -> dict:
    """The X14 grid: pipe-vs-tcp comparison plus the reconnect pin."""
    if smoke:
        grid = measure_socket_transport(
            600,
            workers=2,
            blocks=18,
            warmup_blocks=2,
            events_per_block=8,
            shapes=8,
            reps=2,
        )
        reconnect = measure_reconnect_resync(
            rule_count=200, workers=2, blocks=18, events_per_block=6
        )
    else:
        grid = measure_socket_transport(6_000)
        reconnect = measure_reconnect_resync()
    return {
        "benchmark": "x14_socket_transport",
        "description": (
            "Socket shard transport behind the ShardTransport seam.  The "
            "grid reruns the X13 check-heavy stream through the process "
            "coordinator once per transport (pipe / tcp over localhost "
            "workers, both shipping row frames): end-to-end check time per "
            "block of tcp against pipe (min of passes), plus the structural "
            "trip facts — definitions shipped once per version, one "
            "coordinator message per consulted worker per trip, every delta "
            "a row frame.  The reconnect section bounces a "
            "tcp worker mid-run: one absorbed reconnect, definitions "
            "re-shipped, outcomes byte-identical to the uninterrupted run."
        ),
        "host_cpus": os.cpu_count() or 1,
        "headline": {
            "tcp_vs_pipe_check_ratio": grid["tcp_vs_pipe_check_ratio"],
            "defs_shipped_once": all(
                row["defs_shipped"] == grid["rules"]
                for row in grid["transports"].values()
            ),
            "reconnect_resync_defs": reconnect["resync_defs"],
        },
        "transport": grid,
        "reconnect": reconnect,
        "equivalence": {
            "checked": True,
            "note": (
                "the grid asserts identical triggering decisions, "
                "priority-order selections and Trigger Support stats across "
                "the single table, the serial coordinator and both "
                "process transports; the reconnect section asserts identical "
                "triggering counters and consideration sequences against an "
                "uninterrupted tcp run"
            ),
        },
    }


def render_x14(results: dict) -> str:
    """Human-readable tables for an X14 result dict."""
    grid = results["transport"]
    rows = [
        [
            transport,
            stats["delta_encode_us_per_block"],
            stats["encode_us_per_block"],
            stats["bytes_shipped"],
            stats["defs_shipped"],
            stats["worker_round_trips"],
            stats["parallel_batches"],
            stats["deltas"],
            stats["rows_inline"],
            stats["rows_fallback"],
            stats["check_us_per_block"],
        ]
        for transport, stats in grid["transports"].items()
    ]
    sections = [
        render_table(
            [
                "transport",
                "delta enc µs/blk",
                "encode µs/blk",
                "bytes shipped",
                "defs",
                "round trips",
                "batches",
                "deltas",
                "rows inline",
                "rows fallback",
                "process chk µs",
            ],
            rows,
            title=(
                f"X14 — socket transport, {grid['rules']} rules, "
                f"{grid['workers']} workers "
                f"(tcp vs pipe check {grid['tcp_vs_pipe_check_ratio']}x, "
                f"host has {results.get('host_cpus', '?')} CPU(s))"
            ),
        )
    ]
    reconnect = results["reconnect"]
    sections.append(
        render_table(
            ["fact", "value"],
            [
                ["reconnects absorbed", reconnect["reconnects"]],
                ["defs re-shipped on re-sync", reconnect["resync_defs"]],
                ["outcomes identical", reconnect["equivalent"]],
            ],
            title=(
                f"X14 — tcp reconnect, {reconnect['rules']} rules, "
                f"{reconnect['workers']} workers, worker bounced mid-run"
            ),
        )
    )
    return "\n\n".join(sections)
