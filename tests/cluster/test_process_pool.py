"""Failure semantics of the process shard pool.

The happy path is pinned by the cross-mode differential harness
(``test_mode_equivalence.py``); these tests pin what happens when things go
wrong out of process:

* a worker-side evaluation error surfaces in the coordinator as the
  *original* exception type (behavioral parity with the serial mode's error
  path), with the worker traceback chained as a ``ShardWorkerError`` cause,
  and the pool survives — every other worker's reply is drained so no stale
  reply can pair with a later request;
* a dead worker poisons the pool: the failing call raises
  ``ShardWorkerError`` and every subsequent call fails loudly instead of
  silently desyncing;
* a corrupt row frame (its byte length disagrees with its row count)
  surfaces as a worker-side ``SnapshotError`` that poisons the pool instead
  of rebuilding a wrong mirror, over either transport.
"""

from __future__ import annotations

import pytest

from repro.cluster.coordinator import ShardCoordinator
from repro.cluster.sharding import ShardedRuleTable
from repro.cluster.transport import TRANSPORTS, _RowLog
from repro.core.parser import parse_expression
from repro.errors import ShardWorkerError, SnapshotError
from repro.events.event import EventType, Operation
from repro.events.event_base import EventBase
from repro.rules.actions import NO_ACTION
from repro.rules.conditions import TRUE_CONDITION
from repro.rules.event_handler import EventHandler
from repro.rules.rule import Rule


CREATE_ALPHA = EventType(Operation.CREATE, "alpha")


def build_support(rule_count: int = 4, transport: str | None = None):
    table = ShardedRuleTable(2)
    event_base = EventBase()
    for index in range(rule_count):
        table.add(
            Rule(
                name=f"w{index}",
                events=parse_expression("create(alpha)"),
                condition=TRUE_CONDITION,
                action=NO_ACTION,
            )
        ).reset(0)
    handler = EventHandler(event_base)
    support = ShardCoordinator(
        table, event_base, shard_mode="processes", transport=transport
    )
    return table, event_base, handler, support


def feed_block(event_base, handler, support, stamp: int):
    event_base.record(CREATE_ALPHA, oid="alpha#1", timestamp=stamp)
    batch = handler.flush_block()
    newly = support.check_after_block(
        batch, stamp, 0, type_signature=batch.type_signature
    )
    for state in newly:
        state.mark_considered(stamp, executed=False)
    return newly


def test_worker_error_preserves_exception_type_and_pool_survives():
    table, event_base, handler, support = build_support()
    try:
        assert feed_block(event_base, handler, support, 1)  # pool spawned, defs shipped
        pool = support.process_pool
        assert pool is not None

        # Sabotage one rule's shipping bookkeeping: the coordinator believes
        # the definition was shipped, so the worker hits a KeyError when the
        # work item arrives.
        state = table.get("w0")
        broken = Rule(
            name="fresh",
            events=parse_expression("create(alpha)"),
            condition=TRUE_CONDITION,
            action=NO_ACTION,
        )
        fresh = table.add(broken)
        fresh.reset(1)
        home = support._worker_of(fresh, pool.num_workers)
        pool._workers[home].shipped_defs["fresh"] = fresh.definition_order

        event_base.record(CREATE_ALPHA, oid="alpha#2", timestamp=2)
        batch = handler.flush_block()
        with pytest.raises(KeyError) as excinfo:
            support.check_after_block(batch, 2, 0, type_signature=batch.type_signature)
        # The worker traceback rides along as the chained cause.
        assert isinstance(excinfo.value.__cause__, ShardWorkerError)
        assert "fresh" in str(excinfo.value.__cause__)

        # A clean error reply does not poison the pool: fix the bookkeeping
        # and the next block works (the reply streams stayed aligned).
        del pool._workers[home].shipped_defs["fresh"]
        for st in table.states():
            if st.triggered:
                st.mark_considered(2, executed=False)
        assert feed_block(event_base, handler, support, 3)
        assert state.times_triggered >= 2
    finally:
        support.close()


def test_dead_worker_poisons_the_pool():
    table, event_base, handler, support = build_support()
    try:
        assert feed_block(event_base, handler, support, 1)
        pool = support.process_pool
        assert pool is not None
        for handle in pool._workers:
            handle.process.kill()
            handle.process.join(timeout=2.0)

        event_base.record(CREATE_ALPHA, oid="alpha#2", timestamp=2)
        batch = handler.flush_block()
        with pytest.raises(ShardWorkerError):
            support.check_after_block(batch, 2, 0, type_signature=batch.type_signature)

        # Poisoned: subsequent calls fail loudly instead of desyncing.
        event_base.record(CREATE_ALPHA, oid="alpha#3", timestamp=3)
        batch = handler.flush_block()
        with pytest.raises(ShardWorkerError, match="broken|gone|died"):
            support.check_after_block(batch, 3, 0, type_signature=batch.type_signature)
    finally:
        support.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_truncated_row_frame_poisons_the_pool_loudly(monkeypatch, transport):
    """A row frame whose bytes disagree with its row count is refused."""
    table, event_base, handler, support = build_support(transport=transport)
    try:
        assert feed_block(event_base, handler, support, 1)
        assert support.process_pool is not None
        original = _RowLog.delta

        def truncated(self, start, shipped_types):
            start, count, rows, fallbacks, new_types = original(
                self, start, shipped_types
            )
            return start, count, rows[:-1], fallbacks, new_types

        monkeypatch.setattr(_RowLog, "delta", truncated)
        event_base.record(CREATE_ALPHA, oid="alpha#2", timestamp=2)
        batch = handler.flush_block()
        with pytest.raises(SnapshotError, match="row frame is corrupt") as excinfo:
            support.check_after_block(batch, 2, 0, type_signature=batch.type_signature)
        # The worker traceback rides along, exactly like other worker errors.
        assert isinstance(excinfo.value.__cause__, ShardWorkerError)

        # The failing worker never applied its delta, so its mirror diverged
        # from the coordinator's bookkeeping: the pool must be poisoned.
        event_base.record(CREATE_ALPHA, oid="alpha#3", timestamp=3)
        batch = handler.flush_block()
        with pytest.raises(ShardWorkerError, match="broken"):
            support.check_after_block(batch, 3, 0, type_signature=batch.type_signature)
    finally:
        support.close()


def test_rule_free_database_never_spawns_workers():
    table = ShardedRuleTable(4)
    event_base = EventBase()
    handler = EventHandler(event_base)
    support = ShardCoordinator(table, event_base, shard_mode="processes")
    try:
        for stamp in (1, 2, 3):
            event_base.record(CREATE_ALPHA, oid="alpha#1", timestamp=stamp)
            batch = handler.flush_block()
            support.check_after_block(
                batch, stamp, 0, type_signature=batch.type_signature
            )
        assert support.recheck_all(3, 0) == []
        assert support.process_pool is None  # never forked a single process
    finally:
        support.close()
