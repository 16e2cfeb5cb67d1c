"""The Block Executor and the rule-processing loop.

Paper §2/§5: Chimera executes *non-interruptible execution blocks* — user
transaction lines and rule actions.  After each block:

1. the Event Handler stores the block's event occurrences;
2. the Trigger Support determines newly triggered rules;
3. if any triggered rule with the right coupling mode exists, the
   highest-priority one is selected, *considered* (its condition is evaluated
   over the window allowed by its consumption mode) and, when the condition
   produces bindings, its action is executed as a new block — which loops back
   to step 1.

A rule is detriggered as soon as it is considered; only new event occurrences
can trigger it again.  Immediate rules are processed during the transaction,
deferred rules when the transaction commits.  A per-transaction execution
budget guards against non-terminating rule sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import NonTerminationError
from repro.events.clock import Timestamp, TransactionClock
from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase
from repro.obs.export import JsonLinesExporter
from repro.obs.registry import MetricsRegistry
from repro.oodb.objects import ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import Schema
from repro.rules.conditions import ConditionContext
from repro.rules.event_handler import BlockIngest, EventHandler
from repro.rules.rule import ECCoupling, RuleState
from repro.rules.rule_table import RuleTable
from repro.rules.trigger_support import TriggerSupport

__all__ = ["ConsiderationRecord", "RuleEngine"]


@dataclass(frozen=True)
class ConsiderationRecord:
    """One rule consideration: who, when, how many bindings, executed or not."""

    rule_name: str
    instant: Timestamp
    bindings: int
    executed: bool
    phase: str


@dataclass
class RuleEngine:
    """Wires the Event Handler, Trigger Support and rule-processing loop together."""

    schema: Schema
    store: ObjectStore
    event_base: EventBase
    clock: TransactionClock
    operations: OperationExecutor
    rule_table: RuleTable = field(default_factory=RuleTable)
    use_static_optimization: bool = True
    max_rule_executions: int = 10_000
    #: Shard the trigger planning across this many shards (0 = single-table).
    #: Ignored when ``rule_table`` is already a :class:`ShardedRuleTable` —
    #: its own shard count wins.
    shards: int = 0
    #: With sharding: how the per-shard checks execute — "serial" (inline,
    #: deterministic), "threads" (worker threads over the shared EB) or
    #: "processes" (long-lived shard worker processes with mirror EBs).
    #: ``None`` defers to ``parallel_shards`` and then the ambient
    #: ``$CHIMERA_SHARD_MODE`` default.
    shard_mode: str | None = None
    #: Legacy PR-3 switch: ``True`` means ``shard_mode="threads"``.
    parallel_shards: bool = False
    #: LRU cap for the coordinator's route cache and the per-shard plan
    #: caches (None = the generous default in repro.cluster.sharding).
    plan_cache_size: int | None = None
    #: Lower each rule's event expression into specialized closures for the
    #: exact triggering check (``None`` defers to the ambient
    #: ``$CHIMERA_COMPILED_CHECKS`` default, off when unset).
    use_compiled_checks: bool | None = None
    #: The engine's metrics registry — threaded through the Trigger Support /
    #: Shard Coordinator (and from there the process pool), so one
    #: :meth:`metrics_snapshot` covers the whole logical engine.  ``None``
    #: creates an enabled private registry; pass
    #: ``MetricsRegistry(enabled=False)`` to run uninstrumented.
    metrics: MetricsRegistry | None = None
    #: Worker transport of the processes shard mode — "pipe" (forked local
    #: workers) or "tcp" (socket workers); both ship row-frame deltas.
    #: ``None`` defers to the ambient ``$CHIMERA_TRANSPORT`` default.
    transport: str | None = None

    def __post_init__(self) -> None:
        from repro.cluster.coordinator import ShardCoordinator
        from repro.cluster.sharding import ShardedRuleTable, default_shard_mode

        if self.shards > 0 and not isinstance(self.rule_table, ShardedRuleTable):
            if len(self.rule_table):
                raise ValueError(
                    "cannot shard an already-populated plain RuleTable; "
                    "construct the engine with a ShardedRuleTable instead"
                )
            self.rule_table = ShardedRuleTable(
                self.shards, plan_cache_size=self.plan_cache_size
            )
        # Subclass-aware routing/filtering: the table (and every filter it
        # builds) sees the engine's schema.
        self.rule_table.bind_schema(self.schema)
        self.event_handler = EventHandler(self.event_base)
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        if isinstance(self.rule_table, ShardedRuleTable):
            shard_mode = self.shard_mode
            if shard_mode is None:
                shard_mode = (
                    "threads" if self.parallel_shards else default_shard_mode()
                )
            self.trigger_support: TriggerSupport = ShardCoordinator(
                self.rule_table,
                self.event_base,
                use_static_optimization=self.use_static_optimization,
                shard_mode=shard_mode,
                use_compiled_checks=self.use_compiled_checks,
                metrics=self.metrics,
                transport=self.transport,
            )
        else:
            self.trigger_support = TriggerSupport(
                self.rule_table,
                self.event_base,
                use_static_optimization=self.use_static_optimization,
                use_compiled_checks=self.use_compiled_checks,
                metrics=self.metrics,
            )
        self.transaction_start: Timestamp = self.clock.now()
        self.considerations: list[ConsiderationRecord] = []
        self._executions_this_transaction = 0
        self._commit_hist = self.metrics.histogram("oodb.commit")
        self._commit_counter = self.metrics.counter("oodb.commits")
        #: Ambient JSON-lines export ($CHIMERA_METRICS): snapshots are
        #: appended at block/commit boundaries, rate-limited by the exporter,
        #: with a final forced snapshot on close().
        self._metrics_exporter = JsonLinesExporter.from_env()

    # -- transaction boundaries ------------------------------------------------
    def begin_transaction(self) -> None:
        """Reset per-transaction state (rule flags, counters, block boundary)."""
        self.transaction_start = self.clock.now()
        self.rule_table.reset_all(self.transaction_start)
        self.event_handler.reset(self.event_base)
        self._executions_this_transaction = 0

    def rebind_event_base(self, event_base: EventBase) -> None:
        """Point the engine at a fresh Event Base (new transaction log)."""
        self.event_base = event_base
        self.operations.event_base = event_base
        self.trigger_support.event_base = event_base
        # Incremental trigger memos describe the old log; drop them (the
        # shard coordinator also resets its process workers' mirrors here).
        self.trigger_support.forget_incremental_state()
        self.event_handler.reset(event_base)

    def close(self) -> None:
        """Release worker pools held by the Trigger Support (idempotent).

        Process shard workers are additionally reaped by a finalizer when the
        engine is garbage collected; explicit close is for deterministic
        teardown (benchmarks, long-lived services).
        """
        closer = getattr(self.trigger_support, "close", None)
        if closer is not None:
            closer()
        if self._metrics_exporter is not None:
            self._metrics_exporter.export(self.metrics)
            self._metrics_exporter.close()
            self._metrics_exporter = None

    # -- observability -----------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """One snapshot covering the whole logical engine (workers included)."""
        return self.metrics.snapshot()

    def _export_metrics(self) -> None:
        if self._metrics_exporter is not None:
            self._metrics_exporter.maybe_export(self.metrics)

    # -- block execution ----------------------------------------------------------
    def run_user_block(self, block: Callable[[], Any]) -> Any:
        """Run one user transaction line, then process immediate rules."""
        outcome = block()
        self._after_block(ECCoupling.IMMEDIATE, phase="transaction")
        return outcome

    def run_stream_block(
        self,
        occurrences: Sequence[EventOccurrence],
        bulk: bool = True,
        type_signature: frozenset[EventType] | None = None,
    ) -> None:
        """Ingest externally produced occurrences as one execution block.

        The batch enters the Event Base through the bulk ``extend`` fast path
        (``bulk=False`` keeps the per-append loop for comparison), is flushed
        as a single block and processed exactly like a user block — the
        streaming seam the ROADMAP's batch-ingestion item calls for.  A
        pipelining producer (:class:`repro.cluster.streaming.StreamIngestor`)
        may pass the batch's ``type_signature`` so it is never derived on the
        checking thread; it is ignored when other occurrences are pending.
        """
        batch = self._ingest_stream_batch(occurrences, bulk, type_signature)
        self._check_block(batch)
        self._processing_loop(ECCoupling.IMMEDIATE, phase="stream")
        self._export_metrics()

    def run_stream_blocks(
        self,
        batches: Sequence[Sequence[EventOccurrence]],
        bulk: bool = True,
        type_signatures: Sequence[frozenset[EventType] | None] | None = None,
    ) -> None:
        """Ingest a micro-batch of blocks, checking them as one dispatch trip.

        Every batch is flushed as its **own** execution block (own type
        signature, own Occurred-Events entry, own trigger check at its own
        clock instant), exactly like consecutive :meth:`run_stream_block`
        calls — but the trigger checks for the whole micro-batch are handed
        to the Trigger Support in one ``check_after_blocks`` trip, so the
        shard coordinator's process mode contacts each consulted worker once
        per trip instead of once per block (the dispatch amortization
        PERFORMANCE.md "Batched worker dispatch" measures).  Two visible
        differences from block-at-a-time processing, both inherent to
        micro-batching: the whole batch is ingested before the first check
        runs (each check still bounds the complete log by its block's
        ``now``), and triggered rules are considered once the batch's checks
        finish rather than between blocks.  A one-element micro-batch is
        byte-identical to :meth:`run_stream_block`.
        """
        if type_signatures is not None and len(type_signatures) != len(batches):
            raise ValueError(
                f"type_signatures must align with batches "
                f"(got {len(type_signatures)} for {len(batches)})"
            )
        segments: list[tuple[BlockIngest, Timestamp]] = []
        for index, occurrences in enumerate(batches):
            signature = type_signatures[index] if type_signatures is not None else None
            batch = self._ingest_stream_batch(occurrences, bulk, signature)
            segments.append((batch, self.clock.now()))
        if segments:
            self.trigger_support.check_after_blocks(segments, self.transaction_start)
        self._processing_loop(ECCoupling.IMMEDIATE, phase="stream")
        self._export_metrics()

    def _ingest_stream_batch(
        self,
        occurrences: Sequence[EventOccurrence],
        bulk: bool,
        type_signature: frozenset[EventType] | None,
    ) -> BlockIngest:
        """Store one stream batch as a flushed block and catch the clock up."""
        batch = self.event_handler.store_external(
            occurrences, bulk=bulk, type_signature=type_signature
        )
        if batch:
            # Pre-stamped streams outrun the transaction clock; the check's
            # window is (start, clock.now()], so catch the clock up or the
            # batch would be invisible to its own trigger check.
            last = batch.occurrences[-1].timestamp
            if last > self.clock.now():
                self.clock.advance_to(last)
        return batch

    def process_commit(self) -> None:
        """Process deferred (and any remaining triggered) rules at commit time."""
        with self._commit_hist.time():
            # Make sure anything recorded since the last flush is accounted for.
            self._after_block(ECCoupling.IMMEDIATE, phase="commit")
            now = self.clock.now()
            self.trigger_support.recheck_all(now, self.transaction_start)
            self._processing_loop(coupling=None, phase="commit")
        self._commit_counter.inc()
        self._export_metrics()

    # -- internals -------------------------------------------------------------------
    def _after_block(self, coupling: ECCoupling | None, phase: str) -> None:
        self._flush_and_check()
        self._processing_loop(coupling, phase)

    def _flush_and_check(self) -> None:
        """Flush the finished block and hand it — signature included — to the planner."""
        self._check_block(self.event_handler.flush_block())

    def _check_block(self, batch: BlockIngest) -> None:
        """Run the trigger check for one already-flushed block."""
        now = self.clock.now()
        self.trigger_support.check_after_block(
            batch,
            now,
            self.transaction_start,
            type_signature=batch.type_signature,
        )

    def _processing_loop(self, coupling: ECCoupling | None, phase: str) -> None:
        """Consider and execute triggered rules until quiescence."""
        while True:
            state = self.rule_table.select_for_consideration(coupling)
            if state is None:
                return
            self._consider(state, phase)
            # The consideration (and possible action) is itself a block: flush
            # its occurrences and look for newly triggered rules before picking
            # the next one.
            self._flush_and_check()

    def _consider(self, state: RuleState, phase: str) -> None:
        """Consider one rule: evaluate its condition and maybe run its action."""
        rule = state.rule
        now = self.clock.now()
        window = self.event_base.view(
            after=state.observation_window_start(self.transaction_start),
            until=now,
        )
        context = ConditionContext(
            schema=self.schema, store=self.store, window=window, now=max(now, 1)
        )
        bindings = rule.condition.evaluate(context)
        # The consideration time stamp is taken *before* the action runs:
        # events occurred up to now lose the capability of triggering the rule,
        # but the action's own occurrences are more recent than the
        # consideration and may legitimately re-trigger it (the execution
        # budget guards against non-terminating rule sets).
        consideration_time = now
        executed = False
        if bindings:
            self._executions_this_transaction += 1
            if self._executions_this_transaction > self.max_rule_executions:
                raise NonTerminationError(self.max_rule_executions)
            rule.action.execute(bindings, self.operations)
            executed = True
        state.mark_considered(consideration_time, executed)
        self.considerations.append(
            ConsiderationRecord(
                rule_name=rule.name,
                instant=consideration_time,
                bindings=len(bindings),
                executed=executed,
                phase=phase,
            )
        )
