"""Cross-mode differential harness: serial == threads == processes.

The PR-4 process shard workers move the evaluate phase of the trigger check
out of process (mirror Event Bases, worker-resident memos, decisions shipped
back); the correctness bar is the one PR 3 set and this harness pins:
**byte-identical traces, per-rule counters, Trigger Support stats — the
incremental ``instants_sampled`` counter included — and firing order** across
every execution mode, for any stream and any mid-run rule churn.

The scenarios are the seeded PR-3 generators
(``tests/rules/test_planner_equivalence.build_scenario``: overlapping
class/attribute patterns, pure negations, priority ties, empty blocks,
removals / re-adds with fresh definitions / disable-enable flips) replayed
through the *shared* ``run_scenario`` harness of
``tests/cluster/test_shard_equivalence.py`` — extended, not forked — plus
engine-level transaction scenarios that exercise the Event-Base rebind
(worker mirrors must reset) and the commit-time exhaustive recheck (which
the process mode routes through its workers so the memos stay exact).
"""

from __future__ import annotations

import random

from repro.cluster.transport import TRANSPORTS
from repro.oodb.database import ChimeraDatabase

from tests.cluster.test_shard_equivalence import run_scenario
from tests.rules.test_planner_equivalence import build_scenario

MODES = ("serial", "threads", "processes")


def test_modes_identical_under_randomized_churn():
    """Seeded add/remove/disable churn + mixed-type blocks, all three modes."""
    for seed in (0, 2, 9, 13):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario)
        for shards in (2, 4):
            results = {
                mode: run_scenario(scenario, shards=shards, shard_mode=mode)
                for mode in MODES
            }
            for mode, result in results.items():
                assert result["trace"] == reference["trace"], (
                    f"seed {seed}, {shards} shards, {mode}: trace diverged"
                )
                assert result["counters"] == reference["counters"], (
                    f"seed {seed}, {shards} shards, {mode}: counters diverged"
                )
                assert result["stats"] == reference["stats"], (
                    f"seed {seed}, {shards} shards, {mode}: stats diverged"
                )


def test_process_mode_across_shard_counts():
    """Worker count follows the shard count; equivalence holds for 1–8."""
    scenario = build_scenario(7)
    reference = run_scenario(scenario)
    for shards in (1, 3, 5, 8):
        assert (
            run_scenario(scenario, shards=shards, shard_mode="processes") == reference
        )


def test_modes_identical_with_periodic_exhaustive_recheck():
    """recheck_all (the commit path) must keep worker memos in lockstep."""
    for seed in (4, 11):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario, recheck_every=5)
        for mode in MODES:
            result = run_scenario(scenario, shards=4, shard_mode=mode, recheck_every=5)
            assert result == reference, f"seed {seed}, {mode}: recheck path diverged"


def test_larger_pool_process_mode():
    """A bigger rule pool (multi-shard rules, heavier dealing) stays identical."""
    scenario = build_scenario(202, rule_count=40, block_count=30)
    reference = run_scenario(scenario)
    assert run_scenario(scenario, shards=4, shard_mode="processes") == reference


# ---------------------------------------------------------------------------
# Micro-batched dispatch (PR 5): batch sizes 1-8, every mode byte-identical
# ---------------------------------------------------------------------------


def test_batch_size_one_is_byte_identical_to_per_block():
    """``check_after_blocks`` with one-block trips == the PR-3/PR-4 path."""
    for seed in (0, 7):
        scenario = build_scenario(seed)
        per_block = run_scenario(scenario)
        assert run_scenario(scenario, batch_blocks=1) == per_block
        for mode in MODES:
            assert (
                run_scenario(scenario, shards=4, shard_mode=mode, batch_blocks=1)
                == per_block
            ), f"seed {seed}, {mode}: batch_blocks=1 diverged from per-block"


def test_batched_dispatch_identical_across_modes_for_batch_sizes_1_to_8():
    """For every batch size 1-8: serial == threads == processes == unsharded.

    The unsharded batched run is the reference — traces, per-rule counters
    and Trigger Support stats (``instants_sampled`` included) must be
    byte-identical in every coordinator execution mode at the same batch
    size.
    """
    for seed in (2, 9):
        scenario = build_scenario(seed)
        for batch_blocks in range(1, 9):
            reference = run_scenario(scenario, batch_blocks=batch_blocks)
            for mode in MODES:
                result = run_scenario(
                    scenario, shards=4, shard_mode=mode, batch_blocks=batch_blocks
                )
                for key in ("trace", "counters", "stats"):
                    assert result[key] == reference[key], (
                        f"seed {seed}, batch {batch_blocks}, {mode}: {key} diverged"
                    )


def test_batched_dispatch_across_shard_counts():
    """Batched trips stay identical as the worker count follows the shards."""
    scenario = build_scenario(13)
    for batch_blocks in (3, 8):
        reference = run_scenario(scenario, batch_blocks=batch_blocks)
        for shards in (1, 2, 5, 8):
            result = run_scenario(
                scenario,
                shards=shards,
                shard_mode="processes",
                batch_blocks=batch_blocks,
            )
            assert result == reference, (
                f"batch {batch_blocks}, {shards} shards: batched dispatch diverged"
            )


def test_batched_dispatch_with_periodic_exhaustive_recheck():
    """Commit-style rechecks between trips keep the worker memos in lockstep."""
    scenario = build_scenario(11)
    for batch_blocks in (2, 4):
        reference = run_scenario(
            scenario, recheck_every=batch_blocks * 2, batch_blocks=batch_blocks
        )
        for mode in MODES:
            result = run_scenario(
                scenario,
                shards=4,
                shard_mode=mode,
                recheck_every=batch_blocks * 2,
                batch_blocks=batch_blocks,
            )
            assert result == reference, (
                f"batch {batch_blocks}, {mode}: recheck between trips diverged"
            )


# ---------------------------------------------------------------------------
# Bursty arrivals (PR 9): variable trips x transports x modes byte-identical
# ---------------------------------------------------------------------------



def _bursty_trip_sizes(seed: int, max_batch: int = 8) -> tuple[int, ...]:
    """A Poisson-ish arrival pattern as a trip partition.

    Idle gaps realize as per-block trips; bursts realize as multi-block
    trips up to ``max_batch`` — exactly the partitions the adaptive
    dispatch controller produces, made deterministic so every execution
    mode and transport can replay the identical structure.
    """
    rng = random.Random(seed)
    sizes = []
    for _ in range(32):
        if rng.random() < 0.5:
            sizes.append(1)  # idle gap: the consumer keeps up
        else:
            sizes.append(min(max_batch, 1 + int(rng.expovariate(0.4))))
    return tuple(sizes)


def test_bursty_trips_identical_across_modes_and_transports():
    """Variable-size trips (bursts + idle gaps, churn at trip boundaries):
    serial / threads / processes x pipe / tcp must all match the unsharded
    reference replaying the same partition, byte for byte."""
    for seed in (3, 17):
        scenario = build_scenario(seed)
        sizes = _bursty_trip_sizes(seed * 7 + 1)
        reference = run_scenario(scenario, trip_sizes=sizes)
        assert len({size for size in sizes}) > 1  # genuinely bursty
        for mode in MODES:
            for transport in TRANSPORTS:
                result = run_scenario(
                    scenario,
                    shards=4,
                    shard_mode=mode,
                    transport=transport,
                    trip_sizes=sizes,
                )
                for key in ("trace", "counters", "stats", "metrics"):
                    assert result[key] == reference[key], (
                        f"seed {seed}, {mode} x {transport}: {key} diverged "
                        f"on the bursty partition"
                    )


def test_bursty_trips_with_recheck_and_compiled_checks():
    """The bursty partition composes with commit-style rechecks and the
    compiled exact-check kernel without losing equivalence."""
    scenario = build_scenario(11)
    sizes = _bursty_trip_sizes(29)
    for use_compiled_checks in (False, True):
        reference = run_scenario(
            scenario,
            trip_sizes=sizes,
            recheck_every=6,
            use_compiled_checks=use_compiled_checks,
        )
        for transport in TRANSPORTS:
            result = run_scenario(
                scenario,
                shards=3,
                shard_mode="processes",
                transport=transport,
                trip_sizes=sizes,
                recheck_every=6,
                use_compiled_checks=use_compiled_checks,
            )
            assert result == reference, (
                f"compiled={use_compiled_checks}, {transport}: bursty "
                f"partition with rechecks diverged"
            )


def test_tcp_transport_across_modes_shard_counts_and_batch_sizes():
    """The socket transport is pinned exactly like its in-process peers.

    ``--transport tcp`` over localhost workers must produce byte-identical
    traces / per-rule counters / stats to the unsharded reference (and hence
    to ``pipe``, which earlier tests pin against the same reference) across coordinator modes, shard counts 1-8 and batch sizes
    1-8.
    """
    scenario = build_scenario(9)
    for batch_blocks in range(1, 9):
        reference = run_scenario(scenario, batch_blocks=batch_blocks)
        result = run_scenario(
            scenario,
            shards=4,
            shard_mode="processes",
            transport="tcp",
            batch_blocks=batch_blocks,
        )
        assert result == reference, f"tcp: batch {batch_blocks} diverged"
    reference = run_scenario(scenario, batch_blocks=3)
    for shards in (1, 2, 5, 8):
        for mode in MODES:
            result = run_scenario(
                scenario,
                shards=shards,
                shard_mode=mode,
                transport="tcp",
                batch_blocks=3,
            )
            assert result == reference, f"tcp: {mode} x {shards} shards diverged"


def test_adaptive_ingestor_matches_unsharded_replay_of_realized_trips():
    """The real closed-loop pipeline, pinned end to end: bursty submits
    through an adaptive ``StreamIngestor`` over process shards + pipe
    transport, then the *realized* trip partition replayed on an unsharded
    engine — triggerings, consideration order and stats must be identical."""
    from repro.workloads.shard_scaling import build_shard_rules, build_shaped_blocks
    from repro.workloads.rule_scaling import build_scaling_universe
    from repro.workloads.transport_adaptivity import (
        _build_stream_engine,
        _replay_partition,
    )
    from repro.cluster.streaming import StreamIngestor

    universe = build_scaling_universe(160)
    rules = build_shard_rules(160, universe, seed=23)
    blocks = build_shaped_blocks(universe, 36, events_per_block=6, seed=5)
    engine = _build_stream_engine(rules, 2, "processes", "pipe")
    try:
        with StreamIngestor(
            engine, max_pending=64, max_batch_blocks=8, adaptive_batch=True
        ) as ingestor:
            for index, block in enumerate(blocks):
                ingestor.submit(block)
                # Idle gaps between bursts of ~6: flushing drains the queue,
                # so the controller sees depth 0 and shrinks back.
                if index % 6 == 5:
                    ingestor.flush()
            ingestor.flush()
            partition = list(ingestor.trip_sizes)
        assert sum(partition) == len(blocks)
        pipelined = {
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
    replay = _replay_partition(rules, blocks, partition)
    assert pipelined == replay, (
        f"adaptive pipeline diverged from its replay (partition {partition})"
    )


# ---------------------------------------------------------------------------
# Metrics snapshots (PR 8): registry counters pinned equal across modes
# ---------------------------------------------------------------------------


def test_snapshot_counters_identical_across_modes_batches_and_compiled():
    """The PR-8 snapshot counters are as mode-invariant as the stats they fold.

    ``run_scenario`` returns the registry's deterministic ``trigger.*``
    snapshot counters; for every batch size 1-8, compiled checks on and off,
    each coordinator mode must match the unsharded reference byte for byte —
    the observability layer inherits the equivalence guarantee instead of
    weakening it.
    """
    for use_compiled_checks in (False, True):
        scenario = build_scenario(2)
        for batch_blocks in range(1, 9):
            reference = run_scenario(
                scenario,
                batch_blocks=batch_blocks,
                use_compiled_checks=use_compiled_checks,
            )
            assert reference["metrics"], "snapshot must carry trigger.* counters"
            for mode in MODES:
                result = run_scenario(
                    scenario,
                    shards=4,
                    shard_mode=mode,
                    batch_blocks=batch_blocks,
                    use_compiled_checks=use_compiled_checks,
                )
                assert result["metrics"] == reference["metrics"], (
                    f"compiled={use_compiled_checks}, batch {batch_blocks}, "
                    f"{mode}: snapshot counters diverged"
                )


def test_per_shard_candidate_counters_identical_across_modes():
    """Per-shard candidate counters depend on planning, not execution mode.

    ``shard.candidates.N`` counts plan-time candidates per shard; the plan is
    computed coordinator-side in every mode, so at a fixed shard count the
    counters must agree across serial / threads / processes (the unsharded
    reference has no shards, hence no such counters — compare among modes).
    """
    scenario = build_scenario(9)
    prefixes = ("trigger.", "shard.")
    results = {
        mode: run_scenario(
            scenario, shards=4, shard_mode=mode, metric_prefixes=prefixes
        )
        for mode in MODES
    }
    reference = results["serial"]["metrics"]
    candidates = {
        name: value
        for name, value in reference.items()
        if name.startswith("shard.candidates.")
    }
    assert len(candidates) == 4 and sum(candidates.values()) > 0
    for mode, result in results.items():
        assert result["metrics"] == reference, (
            f"{mode}: shard candidate counters diverged"
        )


def test_zero_candidate_trip_merges_empty_stats_in_process_mode():
    """A trip with no candidate rules must merge a pristine stats record.

    ``_evaluate_in_processes`` returns ``[], EvaluationStats()`` without
    contacting (or even spawning) the pool when no rule is assigned; the
    coordinator still merges that empty record into its trip stats.  Pin both
    halves: the merge leaves every counter untouched, and a later candidate
    block accumulates on top of it normally.
    """
    from repro.core.evaluation import EvaluationStats
    from repro.core.parser import parse_expression
    from repro.events.event import EventType, Operation
    from repro.events.event_base import EventBase
    from repro.rules.actions import NO_ACTION
    from repro.rules.conditions import TRUE_CONDITION
    from repro.rules.event_handler import EventHandler
    from repro.rules.rule import Rule
    from repro.cluster.coordinator import ShardCoordinator
    from repro.cluster.sharding import ShardedRuleTable

    table = ShardedRuleTable(2)
    state = table.add(
        Rule(
            name="w",
            events=parse_expression("create(alpha)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )
    )
    state.reset(0)
    event_base = EventBase()
    handler = EventHandler(event_base)
    support = ShardCoordinator(table, event_base, shard_mode="processes")
    try:

        def feed(class_name: str, stamp: int) -> list:
            event_base.record(
                EventType(Operation.CREATE, class_name),
                oid=f"{class_name}#1",
                timestamp=stamp,
            )
            batch = handler.flush_block()
            return support.check_after_block(
                batch, stamp, 0, type_signature=batch.type_signature
            )

        # While the rule stays triggered it is not a candidate, so the beta
        # block plans nothing at all.
        assert [s.rule.name for s in feed("alpha", 1)] == ["w"]
        baseline = EvaluationStats()
        baseline.merge(support.stats.evaluation)
        assert baseline.evaluations > 0
        assert support.process_pool is not None

        assert feed("beta", 2) == []  # zero-candidate trip
        assert support.stats.evaluation == baseline

        state.mark_considered(2, executed=False)
        assert [s.rule.name for s in feed("alpha", 3)] == ["w"]
        assert support.stats.evaluation.evaluations > baseline.evaluations
    finally:
        support.close()


def test_worker_definitions_pruned_on_rule_removal():
    """A long-lived pool under add/remove churn stays bounded by live rules."""
    from repro.core.parser import parse_expression
    from repro.events.event import EventType, Operation
    from repro.events.event_base import EventBase
    from repro.rules.actions import NO_ACTION
    from repro.rules.conditions import TRUE_CONDITION
    from repro.rules.event_handler import EventHandler
    from repro.rules.rule import Rule
    from repro.cluster.coordinator import ShardCoordinator
    from repro.cluster.sharding import ShardedRuleTable

    def watcher(index: int) -> Rule:
        return Rule(
            name=f"w{index}",
            events=parse_expression("create(alpha)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )

    table = ShardedRuleTable(2)
    event_base = EventBase()
    handler = EventHandler(event_base)
    support = ShardCoordinator(table, event_base, shard_mode="processes")
    try:
        stamp = 0

        def feed_block() -> None:
            nonlocal stamp
            stamp += 1
            event_base.record(
                EventType(Operation.CREATE, "alpha"), oid="alpha#1", timestamp=stamp
            )
            batch = handler.flush_block()
            support.check_after_block(
                batch, stamp, 0, type_signature=batch.type_signature
            )
            for state in table.states():
                if state.triggered:
                    state.mark_considered(stamp, executed=False)

        # Churn: every generation registers 10 fresh rules, checks a block
        # (shipping their definitions), then removes them again.
        for generation in range(12):
            for index in range(10):
                table.add(watcher(generation * 10 + index)).reset(0)
            feed_block()
            for index in range(10):
                table.remove(f"w{generation * 10 + index}")
        feed_block()  # delivers the queued drops

        pool = support.process_pool
        assert pool is not None
        shipped = sum(len(handle.shipped_defs) for handle in pool._workers)
        pending = sum(len(handle.pending_drops) for handle in pool._workers)
        # 120 rules came and went; the shipping bookkeeping must track only
        # the live population (zero here), not the cumulative churn, and the
        # undelivered drop queue is bounded by the last generation (drops are
        # piggybacked on each worker's next contact — with no live rules the
        # final block contacts nobody).
        assert shipped == 0, shipped
        assert pending <= 10, pending
    finally:
        support.close()


# ---------------------------------------------------------------------------
# Engine-level scenarios: transactions, EB rebinds, deferred rules
# ---------------------------------------------------------------------------


RULES = """
define immediate refill for stock
events modify(quantity)
condition stock(S), occurred(modify(stock.quantity), S), S.quantity < 10
action modify(stock.quantity, S, 25)
priority 2
end

define deferred audit for stock
events create
condition stock(S), occurred(create(stock), S)
action modify(stock.maxquantity, S, 99)
priority 1
end
"""


def _run_database_scenario(shard_mode: str | None, shards: int) -> dict:
    """Two transactions of seeded operations against the full database."""
    db = ChimeraDatabase(shards=shards, shard_mode=shard_mode)
    try:
        db.define_class("stock", {"quantity": int, "maxquantity": int})
        db.define_rules(RULES)
        rng = random.Random(99)
        for _ in range(2):
            with db.transaction() as tx:
                items = [
                    tx.create(
                        "stock", {"quantity": rng.randint(1, 30), "maxquantity": 50}
                    )
                    for _ in range(4)
                ]
                for _ in range(6):
                    item = rng.choice(items)
                    tx.modify(item.oid, "quantity", rng.randint(1, 60))
                tx.delete(rng.choice(items).oid)
        return {
            "considerations": [
                (record.rule_name, record.instant, record.phase, record.executed)
                for record in db.considerations
            ],
            "rules": db.rule_statistics(),
            "stats": db.trigger_statistics(),
        }
    finally:
        db.close()


def test_database_transactions_identical_across_modes():
    """Full-engine runs (rebinds + deferred commit rechecks) line up per mode."""
    reference = _run_database_scenario(None, shards=0)
    for mode in MODES:
        result = _run_database_scenario(mode, shards=4)
        assert result == reference, f"database scenario diverged in {mode} mode"
