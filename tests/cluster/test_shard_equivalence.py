"""Sharded-vs-unsharded equivalence of the trigger pipeline.

The shard/coordinator subsystem must be *semantically invisible*, exactly
like the PR-2 subscription index before it: for any stream, any shard count
and any mid-run table churn, the :class:`ShardCoordinator` must produce the
same triggered sets, the same per-rule counters and the same priority-order
firing sequence as the single-table :class:`TriggerSupport` — in serial
deterministic mode *and* on the worker pool.

The scenarios come from ``tests/rules/test_planner_equivalence.py`` (random
rules over overlapping class/attribute patterns, pure negations, priority
ties, empty blocks, removals / re-adds / disable-enable flips mid-run); here
they are replayed across shard counts 1–8.  ``run_scenario`` is shared with
``tests/cluster/test_mode_equivalence.py``, which replays the same churn
across the serial / threads / processes execution modes.
"""

from __future__ import annotations

from repro.cluster.coordinator import ShardCoordinator
from repro.cluster.sharding import ShardedRuleTable
from repro.events.event_base import EventBase
from repro.rules.event_handler import EventHandler
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport

from tests.rules.test_planner_equivalence import Scenario, build_scenario


def run_scenario(
    scenario: Scenario,
    shards: int = 0,
    parallel: bool = False,
    shard_mode: str | None = None,
    recheck_every: int = 0,
    batch_blocks: int = 1,
    trip_sizes: tuple[int, ...] | None = None,
    use_compiled_checks: bool | None = None,
    transport: str | None = None,
    metric_prefixes: tuple[str, ...] = ("trigger.",),
) -> dict:
    """Execute a scenario; ``shards=0`` is the single-table reference.

    ``shard_mode`` selects the coordinator's execution mode explicitly
    (``parallel=True`` remains the PR-3 spelling of ``"threads"``);
    ``recheck_every=N`` runs a commit-style ``recheck_all`` after every Nth
    block, exercising the exhaustive path the process mode must also route
    through its workers.  ``batch_blocks=N`` coalesces the stream into
    N-block micro-batches checked through ``check_after_blocks`` — one
    dispatch trip per chunk, with churn applied at trip boundaries and
    considerations drained once per trip; ``batch_blocks=1`` goes through
    the same call and is byte-identical to the per-block path.
    ``trip_sizes`` overrides the fixed batch with an explicit trip
    partition (cycled if it runs out) — the bursty-arrival replay: the
    variable-size trips an adaptive consumer realizes under Poisson bursts
    and idle gaps, still with churn at trip boundaries.
    ``use_compiled_checks`` selects the compiled exact-check closures
    (``None`` defers to the ambient ``$CHIMERA_COMPILED_CHECKS`` default).
    ``transport`` selects the process mode's worker transport (``pipe`` or
    ``tcp``; ``None`` defers to ``$CHIMERA_TRANSPORT``).
    ``metric_prefixes`` filters which snapshot counters of the PR-8 metrics
    registry land in the returned ``"metrics"`` key — the default pins the
    deterministic ``trigger.*`` counters; mode-dependent families
    (``cluster.*``, ``worker.*``, ``pool.*``) are deliberately excluded so
    whole-result equality across execution modes keeps holding.
    """
    event_base = EventBase()
    if shards > 0:
        table: RuleTable = ShardedRuleTable(shards)
    else:
        table = RuleTable()
    removed: set[str] = set()
    disabled: set[str] = set()
    for rule in scenario.rules:
        table.add(rule).reset(0)
    handler = EventHandler(event_base)
    if shards > 0:
        support: TriggerSupport = ShardCoordinator(
            table,
            event_base,
            parallel=parallel,
            shard_mode=shard_mode,
            use_compiled_checks=use_compiled_checks,
            transport=transport,
        )
    else:
        support = TriggerSupport(
            table, event_base, use_compiled_checks=use_compiled_checks
        )

    spans: list[tuple[int, int]] = []
    position = 0
    while position < len(scenario.blocks):
        if trip_sizes:
            size = max(1, trip_sizes[len(spans) % len(trip_sizes)])
        else:
            size = batch_blocks
        spans.append((position, min(position + size, len(scenario.blocks))))
        position += size
    trace: list[tuple] = []
    for start, stop in spans:
        chunk = scenario.blocks[start:stop]
        # Churn for every position of the chunk applies at the trip boundary
        # (no table mutation mid-trip — the trip's plans are resolved up
        # front against one consistent table state).
        for position in range(start, start + len(chunk)):
            for name in scenario.removals.get(position, ()):
                if name not in removed:
                    table.remove(name)
                    removed.add(name)
            for rule in scenario.readds.get(position, ()):
                if rule.name in removed:
                    table.add(rule).reset(0)
                    removed.discard(rule.name)
            for name in scenario.flips.get(position, ()):
                if name in removed:
                    continue
                if name in disabled:
                    table.enable(name)
                    disabled.discard(name)
                else:
                    table.disable(name)
                    disabled.add(name)
        segments = []
        for block in chunk:
            batch = handler.store_external(block)
            now = block[-1].timestamp if block else (event_base.latest_timestamp() or 1)
            segments.append((batch, now))
        newly = support.check_after_blocks(segments, 0)
        now = segments[-1][1]
        considered: list[str] = []
        while (selected := table.select_for_consideration()) is not None:
            considered.append(selected.rule.name)
            selected.mark_considered(now, executed=False)
        rechecked: list[str] = []
        if recheck_every and (start + len(chunk)) % recheck_every == 0:
            rechecked = [state.rule.name for state in support.recheck_all(now, 0)]
            while (selected := table.select_for_consideration()) is not None:
                rechecked.append(selected.rule.name)
                selected.mark_considered(now, executed=False)
        trace.append(
            (
                start,
                [state.rule.name for state in newly],
                considered,
                rechecked,
            )
        )

    counters = {
        state.rule.name: (state.times_triggered, state.times_considered)
        for state in table.states()
    }
    stats = support.stats.as_dict()
    metrics = {
        name: value
        for name, value in support.metrics.snapshot()["counters"].items()
        if name.startswith(metric_prefixes)
    }
    if shards > 0:
        support.close()
    return {"trace": trace, "counters": counters, "stats": stats, "metrics": metrics}


def test_sharded_equals_single_table_across_shard_counts():
    for seed in range(12):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario)
        for shards in range(1, 9):
            sharded = run_scenario(scenario, shards=shards)
            assert sharded == reference, f"seed {seed}: {shards} shards != single table"


def test_parallel_mode_equals_single_table():
    for seed in (3, 7, 11, 42):
        scenario = build_scenario(seed)
        reference = run_scenario(scenario)
        for shards in (2, 4, 8):
            parallel = run_scenario(scenario, shards=shards, parallel=True)
            assert parallel == reference, (
                f"seed {seed}: parallel {shards}-shard run != single table"
            )


def test_sharded_equals_single_table_with_larger_rule_pools():
    for seed in (101, 202):
        scenario = build_scenario(seed, rule_count=40, block_count=30)
        reference = run_scenario(scenario)
        for shards in (1, 5, 8):
            sharded = run_scenario(scenario, shards=shards)
            assert sharded == reference, f"seed {seed}: {shards} shards"


def test_newly_triggered_order_is_definition_order():
    """The merged newly-triggered list preserves the single-table ordering."""
    scenario = build_scenario(5)
    reference = run_scenario(scenario)
    sharded = run_scenario(scenario, shards=8)
    # The trace comparison above already covers this, but pin the ordering
    # property explicitly: newly-triggered names arrive definition-ordered.
    for (_, newly, _, _), (_, sharded_newly, _, _) in zip(
        reference["trace"], sharded["trace"]
    ):
        assert newly == sharded_newly
