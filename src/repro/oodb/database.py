"""The Chimera database facade.

:class:`ChimeraDatabase` wires every component together: the schema, the
object store, the logical clock, the Event Base, the operation executor and the
active-rule engine (Event Handler, Trigger Support, Block Executor).  It is the
entry point used by the examples, the workloads and most tests::

    db = ChimeraDatabase()
    db.define_class("stock", {"quantity": int, "maxquantity": int})
    db.define_rule(CHECK_STOCK_QTY_RULE_TEXT)
    with db.transaction() as tx:
        item = tx.create("stock", {"quantity": 140, "maxquantity": 100})

Transactions follow the paper's processing model: every user operation (or
explicit :meth:`Transaction.line` block) is a non-interruptible block; after
each block, immediate rules are processed to quiescence; at commit, deferred
rules are processed; the Event Base is transaction-scoped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.errors import TransactionError
from repro.events.clock import TransactionClock
from repro.events.event_base import EventBase
from repro.oodb.objects import OID, ChimeraObject, ObjectStore
from repro.oodb.operations import OperationExecutor
from repro.oodb.schema import ClassDefinition, Schema
from repro.oodb.transactions import Transaction
from repro.rules.executor import ConsiderationRecord, RuleEngine
from repro.rules.language import parse_rule
from repro.rules.rule import Rule, RuleState
from repro.rules.rule_table import RuleTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = ["ChimeraDatabase"]


class ChimeraDatabase:
    """An in-memory active object-oriented database in the style of Chimera."""

    def __init__(
        self,
        emit_select_events: bool = True,
        use_static_optimization: bool = True,
        max_rule_executions: int = 10_000,
        shards: int | None = None,
        shard_mode: str | None = None,
        parallel_shards: bool = False,
        plan_cache_size: int | None = None,
        batch_blocks: int | None = None,
        use_compiled_checks: bool | None = None,
        metrics: "MetricsRegistry | None" = None,
        transport: str | None = None,
        adaptive_batch: bool | None = None,
    ) -> None:
        from repro.cluster.sharding import ShardedRuleTable, default_shard_count
        from repro.cluster.streaming import default_batch_blocks

        self.schema = Schema()
        self.store = ObjectStore()
        self.clock = TransactionClock()
        self.event_base = EventBase()
        self.operations = OperationExecutor(
            self.schema,
            self.store,
            self.event_base,
            self.clock,
            emit_select_events=emit_select_events,
        )
        # shards=None defers to the ambient default ($CHIMERA_SHARDS — the
        # test suite's --shards option runs everything sharded this way);
        # shards=0 forces the single-table planner.  shard_mode=None likewise
        # defers to parallel_shards and then $CHIMERA_SHARD_MODE (the test
        # suite's --shard-mode option), resolved by the engine.
        if shards is None:
            shards = default_shard_count()
        self.rule_table = (
            ShardedRuleTable(shards, plan_cache_size=plan_cache_size)
            if shards > 0
            else RuleTable()
        )
        self.engine = RuleEngine(
            schema=self.schema,
            store=self.store,
            event_base=self.event_base,
            clock=self.clock,
            operations=self.operations,
            rule_table=self.rule_table,
            use_static_optimization=use_static_optimization,
            max_rule_executions=max_rule_executions,
            shard_mode=shard_mode,
            parallel_shards=parallel_shards,
            plan_cache_size=plan_cache_size,
            # use_compiled_checks=None defers to the ambient default
            # ($CHIMERA_COMPILED_CHECKS — the test suite's --compiled-checks
            # option runs everything compiled this way); the Trigger Support
            # resolves it.
            use_compiled_checks=use_compiled_checks,
            # metrics=None lets the engine create its own enabled registry;
            # pass MetricsRegistry(enabled=False) to run uninstrumented.
            metrics=metrics,
            # transport=None defers to the ambient default
            # ($CHIMERA_TRANSPORT): how the processes shard mode reaches its
            # workers — "pipe" (forked local) or "tcp" (sockets).
            transport=transport,
        )
        # batch_blocks=None defers to the ambient default
        # ($CHIMERA_BATCH_BLOCKS); it bounds how many stream blocks a
        # stream_ingestor() coalesces per dispatch trip.
        if batch_blocks is None:
            batch_blocks = default_batch_blocks()
        if batch_blocks < 1:
            raise ValueError(f"batch_blocks must be positive (got {batch_blocks})")
        self.batch_blocks = batch_blocks
        # adaptive_batch=None defers to the ambient default
        # ($CHIMERA_ADAPTIVE_BATCH): whether a stream_ingestor() sizes its
        # trips with the closed-loop dispatch controller.
        self.adaptive_batch = adaptive_batch
        self._active_transaction: Transaction | None = None
        self._store_snapshot: dict[str, Any] | None = None

    def close(self) -> None:
        """Release engine worker pools (idempotent; also runs via finalizers)."""
        self.engine.close()

    def stream_ingestor(
        self,
        max_pending: int = 64,
        bulk: bool = True,
        batch_blocks: int | None = None,
        adaptive_batch: bool | None = None,
    ):
        """A pipelined (and optionally coalescing) ingestor over this engine.

        Returns a :class:`~repro.cluster.streaming.StreamIngestor` bound to
        the database's rule engine: producers submit pre-stamped occurrence
        batches, the consumer thread runs them through the stream-block
        pipeline, draining up to ``batch_blocks`` queued blocks per dispatch
        trip (default: the database's ``batch_blocks`` knob).  With
        ``adaptive_batch`` the per-trip bound is sized by the closed-loop
        :class:`~repro.cluster.streaming.DispatchController` instead of
        staying static (default: the database's knob, then
        ``$CHIMERA_ADAPTIVE_BATCH``).  The engine must not be driven through
        transactions while the ingestor is open.
        """
        from repro.cluster.streaming import StreamIngestor

        if batch_blocks is None:
            batch_blocks = self.batch_blocks
        if adaptive_batch is None:
            adaptive_batch = self.adaptive_batch
        return StreamIngestor(
            self.engine,
            max_pending=max_pending,
            bulk=bulk,
            max_batch_blocks=batch_blocks,
            adaptive_batch=adaptive_batch,
        )

    # ------------------------------------------------------------------
    # Schema and rule definition
    # ------------------------------------------------------------------
    def define_class(
        self,
        name: str,
        attributes: Mapping[str, Any] | Iterable[str] | None = None,
        superclass: str | None = None,
    ) -> ClassDefinition:
        """Declare a class in the schema."""
        return self.schema.define(name, attributes, superclass)

    def define_rule(self, rule: Rule | str) -> Rule:
        """Register an active rule, given either a :class:`Rule` or its textual form."""
        parsed = parse_rule(rule) if isinstance(rule, str) else rule
        state = self.rule_table.add(parsed)
        state.reset(self.clock.now())
        self.engine.trigger_support.prepare_rule(state)
        return parsed

    def define_rules(self, text: str) -> list[Rule]:
        """Register several textual rule definitions at once."""
        from repro.rules.language import parse_rules

        return [self.define_rule(rule) for rule in parse_rules(text)]

    def drop_rule(self, name: str) -> Rule:
        """Remove a rule definition."""
        return self.rule_table.remove(name)

    def enable_rule(self, name: str) -> None:
        """Re-enable a disabled rule."""
        self.rule_table.enable(name)

    def disable_rule(self, name: str) -> None:
        """Disable a rule without dropping its definition."""
        self.rule_table.disable(name)

    def rule_state(self, name: str) -> RuleState:
        """The run-time state record of a rule (triggered flag, counters, ...)."""
        return self.rule_table.get(name)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def transaction(self) -> Transaction:
        """Start a transaction (at most one can be active at a time)."""
        if self._active_transaction is not None:
            raise TransactionError("a transaction is already active")
        # A fresh Event Base per transaction: the EB is the log of the events
        # occurred since the beginning of the transaction (paper §4.1).
        self.event_base = EventBase()
        self.engine.rebind_event_base(self.event_base)
        self.engine.begin_transaction()
        self._store_snapshot = self.store.snapshot()
        transaction = Transaction(self)
        self._active_transaction = transaction
        return transaction

    def _require_transaction(self, transaction: Transaction) -> None:
        if self._active_transaction is not transaction:
            raise TransactionError("this transaction is not the active one")

    def _run_line(self, transaction: Transaction, block: Callable[[], Any]) -> Any:
        """Run one user block and then the immediate-rule processing loop."""
        self._require_transaction(transaction)
        return self.engine.run_user_block(block)

    def _commit_transaction(self, transaction: Transaction) -> None:
        self._require_transaction(transaction)
        self.engine.process_commit()
        self._active_transaction = None
        self._store_snapshot = None

    def _rollback_transaction(self, transaction: Transaction) -> None:
        self._require_transaction(transaction)
        if self._store_snapshot is not None:
            self.store.restore(self._store_snapshot)
        self._active_transaction = None
        self._store_snapshot = None

    def raise_event(
        self,
        transaction: Transaction,
        name: str,
        subject: Any = "external",
        payload: Mapping[str, Any] | None = None,
    ) -> Any:
        """Raise an external event (extension) as its own execution block.

        External events use the ``raise(<name>)`` event type; rules whose event
        expressions mention them are processed exactly like rules on internal
        events.  The call must happen inside the given active transaction.
        """
        from repro.events.timers import ExternalEventSource

        self._require_transaction(transaction)
        source = ExternalEventSource(self.event_base, self.clock)
        return self.engine.run_user_block(
            lambda: source.raise_event(name, subject=subject, payload=payload)
        )

    def run_transaction(self, *lines: Callable[[Any], Any]) -> Transaction:
        """Run a whole transaction from callables (one block per callable)."""
        transaction = self.transaction()
        try:
            for line in lines:
                transaction.line(line)
        except Exception:
            transaction.rollback()
            raise
        transaction.commit()
        return transaction

    # ------------------------------------------------------------------
    # Direct queries (outside transactions; no events generated)
    # ------------------------------------------------------------------
    def get(self, oid: OID) -> ChimeraObject:
        """Fetch an object by OID without generating events."""
        return self.store.get(oid)

    def select(
        self,
        class_name: str,
        predicate: Callable[[ChimeraObject], bool] | None = None,
    ) -> list[ChimeraObject]:
        """Query a class extent without generating events."""
        subclasses = self.schema.descendants(class_name)
        return self.store.select(class_name, predicate, subclasses)

    def count(self, class_name: str | None = None) -> int:
        """Number of live objects, optionally restricted to one class."""
        return self.store.count(class_name)

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    @property
    def considerations(self) -> list[ConsiderationRecord]:
        """Every rule consideration performed so far (all transactions)."""
        return self.engine.considerations

    def trigger_statistics(self) -> dict[str, int]:
        """Counters of the Trigger Support (ts computations, filter skips, ...)."""
        return self.engine.trigger_support.stats.as_dict()

    def metrics_snapshot(self) -> dict[str, Any]:
        """One metrics snapshot covering the whole logical engine.

        Counters fold in every registered stats source (``trigger.*``,
        ``cluster.*``, ``ingest.*``, ``pool.*``) plus the live counters —
        including ``worker.*`` deltas merged back from process shard workers
        — alongside the pipeline gauges and span histograms.
        """
        return self.engine.metrics_snapshot()

    def rule_statistics(self) -> dict[str, dict[str, int]]:
        """Per-rule counters: triggered / considered / executed / ts computations."""
        return {
            state.rule.name: {
                "triggered": state.times_triggered,
                "considered": state.times_considered,
                "executed": state.times_executed,
                "ts_computations": state.ts_computations,
            }
            for state in self.rule_table.states()
        }
