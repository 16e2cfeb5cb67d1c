"""Process shard workers: trigger checks that actually use multiple cores.

PR 3 moved shard checks onto a thread pool, but under the GIL that bought
latency decoupling, not throughput (BENCH_PR3.json: ingestion 0.98x).  This
module is the out-of-process step the coordinator's evaluate/apply split was
designed for: N **long-lived worker processes**, each owning its shard's
sub-table — the triggering event expressions and the per-rule incremental
:class:`~repro.core.triggering.TriggerMemo`s of the rules dealt to it — plus a
**mirror Event Base** grown incrementally from per-trip row-frame deltas.

Per *trip* — one block, or a whole micro-batch of consecutive blocks (PR 5)
— the coordinator ships each consulted worker one message::

    (row frame of the EB slice the worker has not seen,
     new/changed rule definitions, dropped rule names,
     N ordered work segments (block index, work items, now))

where each work segment carries one block's ``(rule name, window start,
pending-only)`` items and its ``now`` (the block's type *signature* stays
coordinator-side — it keys the route cache that decides the work items in
the first place).
The delta is shipped once per trip and covers every block of the micro-batch:
the batched check semantics evaluate each block over the *complete* trip log
bounded by that block's ``now`` (exactly what the coordinator's serial mode
sees through its zero-copy views — with one combined delta, cross-block
time-stamp ties resolve identically in and out of process, and the trip pays
one delta encode instead of N).  The worker walks the segments in order —
skipping, in later segments, exactly the rules the per-block path would no
longer have planned once the earlier decisions applied: rules it already
found triggered in this trip, and pending-only riders that already saw a
non-empty window (they would have left the pending-full-check set) — and
replies with **per-block** decision lists: compact
:class:`~repro.core.triggering.TriggeringDecision` rows per segment plus its
local :class:`~repro.core.evaluation.EvaluationStats`.  All writes (counters,
the triggered flag, heap pushes) stay in the coordinator process, which
applies the decisions **serially, block by block in definition order** — so
serial, thread and process modes are behaviorally identical by construction
for every batch size (``tests/cluster/test_mode_equivalence.py`` pins it,
stats included).

Three design points make the equivalence exact rather than approximate:

* **memo residency** — a rule is always dealt to the same worker (its lowest
  owning shard, or its name's home shard), so its ``TriggerMemo`` sees
  exactly the sequence of checks the serial mode's memo sees and
  ``instants_sampled`` comes out identical;
* **full mirror** — every worker receives *every* EB slice (negated or
  precedence sub-expressions read occurrences of types other shards own), so
  a worker-side window is byte-equivalent to the coordinator's zero-copy
  view;
* **synchronous failure** — deltas are encoded in the coordinator process
  (:class:`~repro.cluster.transport._RowLog`), and a row too wide for the
  fixed-width form is pickle-checked there, so an unpicklable user payload
  raises a clear :class:`~repro.errors.SnapshotError` naming the offending
  occurrence at the call site instead of crashing a worker.

Workers are daemonic and additionally reaped by a ``weakref.finalize``
shutdown, so an abandoned pool cannot leak processes past its coordinator.

Every delta crosses as a **row frame**: fixed-width
:class:`~repro.events.event_base.SnapshotRowCodec` rows, encoded once per EB
position into an append-only log and sliced per worker offset, with rows
that do not fit the fixed width (payloads, wide OIDs) riding along as
out-of-band snapshot tuples.  A frame whose length or placeholders do not
add up raises :class:`SnapshotError` in the worker and poisons the pool,
exactly like a mirror divergence.  Two transports carry the frames, behind
the :class:`~repro.cluster.transport.ShardTransport` seam:

* ``pipe`` (the default) — forked local workers on ``multiprocessing``
  pipes;
* ``tcp`` — :mod:`repro.cluster.net`: length-prefixed socket frames, so
  workers can run outside the coordinator's process tree (or on other
  hosts).  A worker that reconnects between trips re-syncs its definitions
  and a fresh mirror from position 0 before rejoining
  (:meth:`ShardTransport.poll_refreshed`); one that vanishes mid-trip
  poisons the pool exactly like a dead pipe.
"""

from __future__ import annotations

import pickle
import time
import traceback
import weakref
from typing import Sequence

from repro.cluster.transport import (
    DEFAULT_TRANSPORT_ENV_VAR,
    TRANSPORTS,
    WorkerConfig,
    _FrameReader,
    _RowLog,
    create_transport,
    default_transport,
)
from repro.core.compile import compile_check
from repro.core.evaluation import EvaluationMode, EvaluationStats
from repro.core.triggering import TriggerMemo, TriggeringDecision, is_triggered
from repro.errors import ShardWorkerError, SnapshotError
from repro.events.clock import Timestamp
from repro.events.event import EventType
from repro.events.event_base import EventBase
from repro.obs.registry import MetricsRegistry
from repro.rules.rule import RuleState

__all__ = [
    "ProcessShardPool",
    "TRANSPORTS",
    "DEFAULT_TRANSPORT_ENV_VAR",
    "default_transport",
]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

# ---------------------------------------------------------------------------
# Worker side (runs in the child process; must stay module-level so the pool
# also works under the "spawn" start method — and so the TCP entrypoint in
# repro.cluster.net can run the identical loop over a socket channel)
# ---------------------------------------------------------------------------


def _worker_main(
    connection,
    mode_value: str,
    compiled_checks: bool = False,
    metrics_enabled: bool = False,
) -> None:
    """One shard worker: mirror EB + per-rule expressions/memos, message loop."""
    mode = EvaluationMode(mode_value)
    mirror = EventBase()
    # The worker accumulates its own registry and ships compact deltas
    # piggybacked on every reply (drain-and-reset keeps the payload small);
    # the coordinator merges them, so one snapshot covers the whole logical
    # engine.  Only the *enabled flag* crosses the process boundary — with
    # metrics off these are shared null instruments and the drain returns
    # None, adding one tuple element to the reply and nothing else.
    registry = MetricsRegistry(enabled=metrics_enabled)
    trips_counter = registry.counter("worker.trips")
    rules_counter = registry.counter("worker.rules_evaluated")
    check_hist = registry.histogram("worker.check")
    #: rule name -> [definition order, event expression, TriggerMemo,
    #: CompiledCheck | None].  The definition order doubles as the definition
    #: *version*: a re-added rule gets a fresh one, which makes the
    #: coordinator re-ship it and this worker replace the entry (memo and
    #: compiled closure included) — so a shard-resident rule is compiled
    #: exactly once per shipped definition version.
    rules: dict[str, list] = {}
    type_cache: dict[tuple, EventType] = {}
    frame_reader = _FrameReader()
    while True:
        try:
            request = pickle.loads(connection.recv_bytes())
        except (EOFError, OSError):
            return  # coordinator went away: exit quietly
        kind = request[0]
        if kind == "stop":
            return
        #: Whether the message's state (delta/drops/defs) was fully applied
        #: before the failure — if not, this worker's mirror diverged from
        #: the coordinator's bookkeeping and the pool must not be reused.
        state_applied = kind == "reset"
        try:
            if kind == "reset":
                # New EB log (transaction boundary): the mirror and every
                # memo describe the old one.  Definitions survive; compiled
                # closures drop their pre-resolved index handles (they point
                # into the abandoned mirror) and re-bind on the next check.
                mirror = EventBase()
                type_cache.clear()
                frame_reader.reset()
                for entry in rules.values():
                    entry[2].clear()
                    if entry[3] is not None:
                        entry[3].invalidate()
                connection.send_bytes(pickle.dumps(("ok", (), None), _PROTOCOL))
                continue
            _, delta, defs, drops, segments = request
            if delta is not None:
                mirror.extend(frame_reader.read(delta, type_cache))
            # Drops before defs: a removed-then-re-added name must end up
            # with the fresh definition, not the stale entry.
            for name in drops:
                rules.pop(name, None)
            for name, order, expression in defs:
                rules[name] = [
                    order,
                    expression,
                    TriggerMemo(),
                    compile_check(expression, mode) if compiled_checks else None,
                ]
            state_applied = True
            stats = EvaluationStats()
            replies: list[tuple[int, tuple]] = []
            trips_counter.inc()
            if compiled_checks:
                # Rule-major regroup: each rule's trip entries go through one
                # compiled check_trip call (the trip-local skip flags are
                # keyed by rule name alone, so per-rule batching is exactly
                # the segment-major walk below), then the per-segment replies
                # are rebuilt in the original item order.
                entries_by_rule: dict[str, list[tuple]] = {}
                positions_by_rule: dict[str, list[int]] = {}
                for segment_index, items, now in segments:
                    for name, window_start, pending_only in items:
                        entries_by_rule.setdefault(name, []).append(
                            (window_start, now, pending_only)
                        )
                        positions_by_rule.setdefault(name, []).append(segment_index)
                decided: dict[tuple[int, str], tuple] = {}
                with check_hist.time():
                    for name, entries in entries_by_rule.items():
                        entry = rules[name]
                        decisions_for_rule = entry[3].check_trip(
                            mirror, entries, memo=entry[2], stats=stats
                        )
                        rules_counter.inc(len(entries))
                        for segment_index, decision in zip(
                            positions_by_rule[name], decisions_for_rule
                        ):
                            if decision is not None:
                                decided[(segment_index, name)] = (
                                    decision.triggered,
                                    decision.instant,
                                    decision.ts_value,
                                    decision.window_size,
                                    decision.instants_sampled,
                                )
                for segment_index, items, _now in segments:
                    decisions = [
                        (name, decided[(segment_index, name)])
                        for name, _ws, _po in items
                        if (segment_index, name) in decided
                    ]
                    replies.append((segment_index, tuple(decisions)))
                connection.send_bytes(
                    pickle.dumps(
                        ("ok", tuple(replies), stats, registry.drain_delta()),
                        _PROTOCOL,
                    )
                )
                continue
            #: Trip-local skips, exactly the rules whose later-segment plans
            #: would be gone had the earlier decisions applied per-block:
            #: rules found triggered earlier in this trip, and pending-only
            #: riders that already saw a non-empty window (they would have
            #: left the pending-full-check set).
            tripped: set[str] = set()
            saw_nonempty: set[str] = set()
            with check_hist.time():
                for segment_index, items, now in segments:
                    decisions = []
                    for name, window_start, pending_only in items:
                        if name in tripped or (pending_only and name in saw_nonempty):
                            continue
                        entry = rules[name]
                        decision = is_triggered(
                            entry[1],
                            mirror,
                            window_start,
                            now,
                            mode,
                            stats,
                            memo=entry[2],
                        )
                        rules_counter.inc()
                        if decision.triggered:
                            tripped.add(name)
                        if decision.window_size > 0:
                            saw_nonempty.add(name)
                        decisions.append(
                            (
                                name,
                                (
                                    decision.triggered,
                                    decision.instant,
                                    decision.ts_value,
                                    decision.window_size,
                                    decision.instants_sampled,
                                ),
                            )
                        )
                    replies.append((segment_index, tuple(decisions)))
            connection.send_bytes(
                pickle.dumps(
                    ("ok", tuple(replies), stats, registry.drain_delta()), _PROTOCOL
                )
            )
        except Exception as exc:
            # Ship the exception object itself when it pickles, so the
            # coordinator can re-raise the same type the serial mode would
            # have surfaced; fall back to the traceback text otherwise.
            formatted = traceback.format_exc()
            try:
                payload = pickle.dumps(
                    ("error", exc, formatted, state_applied), _PROTOCOL
                )
            except Exception:
                payload = pickle.dumps(
                    ("error", None, formatted, state_applied), _PROTOCOL
                )
            try:
                connection.send_bytes(payload)
            except Exception:
                return


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Coordinator-side bookkeeping for one worker process."""

    __slots__ = (
        "worker_id",
        "process",
        "connection",
        "shipped_events",
        "shipped_types",
        "shipped_defs",
        "pending_drops",
    )

    def __init__(self, worker_id: int, process, connection) -> None:
        self.worker_id = worker_id
        self.process = process
        self.connection = connection
        #: How much of the current EB log this worker's mirror holds.
        self.shipped_events = 0
        #: How much of the row codec's type table this worker holds (new
        #: types piggyback on each delta).
        self.shipped_types = 0
        #: rule name -> definition order of the definition last shipped.
        self.shipped_defs: dict[str, int] = {}
        #: Removed rule names not yet delivered to the worker (piggybacked
        #: on the next message, so churn costs no extra round trip).
        self.pending_drops: list[str] = []

    def forget_shipments(self) -> None:
        """Reset to never-contacted (the reconnect re-sync path)."""
        self.shipped_events = 0
        self.shipped_types = 0
        self.shipped_defs.clear()
        self.pending_drops.clear()


#: One staged send of ``evaluate_trip``: the consulted handle, its encoded
#: request, the definitions riding along and the type watermark to advance to.
_PreparedSend = tuple[_WorkerHandle, bytes, list[tuple[str, int]], int | None]


class ProcessShardPool:
    """N long-lived processes evaluating shard batches against mirror EBs.

    The pool is protocol + residency bookkeeping only: *which* rules are
    candidates for a block is decided by the coordinator's plan, every state
    mutation happens back in the coordinator, and worker launch / byte
    channels / delta encoding live behind the
    :class:`~repro.cluster.transport.ShardTransport` seam.  See the module
    docstring for the protocol.
    """

    def __init__(
        self,
        num_workers: int,
        mode: EvaluationMode = EvaluationMode.LOGICAL,
        start_method: str | None = None,
        use_compiled_checks: bool = False,
        metrics: MetricsRegistry | None = None,
        transport: str | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(
                f"a process shard pool needs at least 1 worker (got {num_workers})"
            )
        if transport is None:
            transport = default_transport()
        self.num_workers = num_workers
        self.mode = mode
        self.use_compiled_checks = use_compiled_checks
        self.transport = transport
        #: Coordinator-side registry the workers' reply deltas merge into
        #: (None = discard them).  Workers receive only the enabled *flag* —
        #: registries do not cross the process boundary.
        self.metrics = metrics
        metrics_enabled = metrics is not None and metrics.enabled
        self._transport = create_transport(transport, start_method=start_method)
        self.start_method = self._transport.start_method
        try:
            self._transport.launch(
                num_workers,
                WorkerConfig(mode.value, use_compiled_checks, metrics_enabled),
            )
        except BaseException:
            self._transport.shutdown()
            raise
        self._workers: list[_WorkerHandle] = [
            _WorkerHandle(
                worker_id,
                self._transport.process(worker_id),
                self._transport.channel(worker_id),
            )
            for worker_id in range(num_workers)
        ]
        self._closed = False
        #: Set when a worker died mid-protocol or diverged from the
        #: coordinator's bookkeeping — the pool then refuses further work.
        self._broken = False
        # -- transport observability (fed into the workload reports) --
        #: Trips: one per evaluate/evaluate_trip call, however many blocks
        #: the trip coalesced.
        self.dispatches = 0
        self.worker_round_trips = 0
        #: Blocks that shipped work items in some trip — ``dispatches <
        #: blocks_dispatched`` is micro-batching visibly amortizing.
        self.blocks_dispatched = 0
        self.bytes_shipped = 0
        self.bytes_received = 0
        #: Rule definitions shipped to workers, cumulatively.  With a stable
        #: table this equals "each live rule once per owning worker" however
        #: many trips run — the defs-shipped-once-per-version fact the X14
        #: bench guard pins per transport.
        self.defs_shipped = 0
        #: Worker channels replaced by a reconnect (tcp transport), each
        #: followed by a defs + mirror re-sync on the next contact.
        self.reconnects = 0
        #: Coordinator-side serialization cost (delta + message pickling):
        #: the "snapshot cost" side of the crossover PERFORMANCE.md discusses.
        self.encode_seconds = 0.0
        #: The delta-only share of ``encode_seconds``: row encoding plus
        #: per-worker frame slicing.
        self.delta_encode_seconds = 0.0
        #: Per-worker row frames shipped.
        self.deltas = 0
        #: The encoded EB log every worker's delta is sliced from.
        self._row_log = _RowLog()
        self._finalizer = weakref.finalize(self, self._transport.shutdown)

    # -- the per-trip round trip ------------------------------------------------
    def evaluate(
        self,
        event_base: EventBase,
        assignments: dict[int, list[tuple[RuleState, Timestamp]]],
        now: Timestamp,
    ) -> tuple[list[tuple[RuleState, TriggeringDecision]], EvaluationStats]:
        """Evaluate one block's work items on the workers.

        The single-block spelling of :meth:`evaluate_trip`: ``assignments``
        maps worker id -> ``(state, window start)`` pairs.  Returns the
        evaluated ``(state, decision)`` pairs (in worker order — the
        coordinator sorts by definition order before applying) plus the
        merged evaluation stats.
        """
        per_segment, merged = self.evaluate_trip(
            event_base,
            {
                worker_id: {
                    0: [(state, window_start, False) for state, window_start in items]
                }
                for worker_id, items in assignments.items()
            },
            [now],
        )
        return per_segment[0], merged

    def evaluate_trip(
        self,
        event_base: EventBase,
        assignments: dict[int, dict[int, list[tuple[RuleState, Timestamp, bool]]]],
        nows: Sequence[Timestamp],
    ) -> tuple[list[list[tuple[RuleState, TriggeringDecision]]], EvaluationStats]:
        """Evaluate a micro-batch of blocks on the workers, one trip per worker.

        ``assignments`` maps worker id -> block index -> ``(state, window
        start, pending-only)`` triples; ``nows`` holds each block's check
        instant (indexed by block index).  A rule must always be assigned to
        the same worker (the coordinator's fixed-home dealing) so its memo
        stays resident, and a rule's items must appear in block order — the
        worker walks segments in order, skipping rules already triggered
        earlier in the trip and pending-only riders that already saw a
        non-empty window (the per-block pending-set semantics).

        Every consulted worker receives exactly **one** message for the whole
        trip (one combined EB delta + its work segments), which is the
        dispatch amortization this pool exists for: round trips scale with
        trips, not blocks.  Returns the evaluated ``(state, decision)`` pairs
        grouped by block index (each group in worker order — the coordinator
        sorts by definition order before applying) plus the merged stats.
        """
        self._require_usable()
        self._absorb_reconnects()
        row_log = self._row_log
        total = len(event_base.occurrences)
        by_name: dict[str, RuleState] = {}
        prepared: list[_PreparedSend] = []
        covered_blocks: set[int] = set()
        started = time.perf_counter()
        if any(
            self._workers[worker_id].shipped_events < total for worker_id in assignments
        ):
            # Encode the unseen tail of the log once — every lagging worker's
            # delta is then a slice of the same encoded log.
            encode_started = time.perf_counter()
            row_log.encode_through(event_base, total)
            self.delta_encode_seconds += time.perf_counter() - encode_started
        for worker_id in sorted(assignments):
            handle = self._workers[worker_id]
            segment_items = assignments[worker_id]
            defs: list[tuple[str, int, object]] = []
            new_defs: list[tuple[str, int]] = []
            shipping_now: set[str] = set()
            segments: list[tuple[int, tuple, Timestamp]] = []
            for segment_index in sorted(segment_items):
                items: list[tuple[str, Timestamp, bool]] = []
                for state, window_start, pending_only in segment_items[segment_index]:
                    name = state.rule.name
                    order = state.definition_order
                    if (
                        handle.shipped_defs.get(name) != order
                        and name not in shipping_now
                    ):
                        defs.append((name, order, state.rule.events))
                        new_defs.append((name, order))
                        shipping_now.add(name)
                    items.append((name, window_start, pending_only))
                    by_name[name] = state
                if items:
                    segments.append((segment_index, tuple(items), nows[segment_index]))
                    covered_blocks.add(segment_index)
            delta: tuple | None = None
            advance_types: int | None = None
            if handle.shipped_events < total:
                encode_started = time.perf_counter()
                delta = row_log.delta(handle.shipped_events, handle.shipped_types)
                advance_types = len(row_log.codec.type_snapshots)
                self.delta_encode_seconds += time.perf_counter() - encode_started
                self.deltas += 1
            message = (
                "check",
                delta,
                tuple(defs),
                tuple(handle.pending_drops),
                tuple(segments),
            )
            prepared.append((handle, self._encode(message), new_defs, advance_types))
        self.encode_seconds += time.perf_counter() - started
        # Nothing is sent until every message encoded cleanly: an encoding
        # failure therefore leaves every worker exactly where it was.
        for handle, payload, new_defs, advance_types in prepared:
            self._send(handle, payload)
            handle.shipped_events = total
            handle.pending_drops.clear()
            if advance_types is not None:
                handle.shipped_types = advance_types
            for name, order in new_defs:
                handle.shipped_defs[name] = order
            self.defs_shipped += len(new_defs)
        self.dispatches += 1
        self.worker_round_trips += len(prepared)
        self.blocks_dispatched += len(covered_blocks)
        per_segment: list[list[tuple[RuleState, TriggeringDecision]]] = [
            [] for _ in nows
        ]
        merged = EvaluationStats()
        # Drain every worker's reply even when one fails: an unread reply
        # left in a pipe would pair with the *next* request and desync the
        # pool permanently.  The first failure is re-raised afterwards.
        first_error: BaseException | None = None
        for handle, _, _, _ in prepared:
            try:
                reply_segments, worker_stats, metrics_delta = self._receive(handle)
            except BaseException as exc:  # transport death poisons in _receive
                if first_error is None:
                    first_error = exc
                continue
            if first_error is not None:
                continue
            if worker_stats is not None:
                merged.merge(worker_stats)
            if metrics_delta and self.metrics is not None:
                # Deltas are commutative (sums and maxima), so the reply
                # order cannot change the merged snapshot.
                self.metrics.merge_delta(metrics_delta)
            for segment_index, decisions in reply_segments:
                rows = per_segment[segment_index]
                for name, row in decisions:
                    rows.append((by_name[name], TriggeringDecision(*row)))
        if first_error is not None:
            raise first_error
        return per_segment, merged

    def prune(self, is_live) -> int:
        """Forget definitions of rules that left the table.

        ``is_live`` is a ``name -> bool`` predicate (typically the rule
        table's ``__contains__``).  Stale names are removed from the shipping
        bookkeeping immediately and queued as drops piggybacked on each
        worker's next message — so a long-lived pool under add/remove churn
        stays bounded by the *live* rule population, costing no extra round
        trip.  Returns how many (worker, rule) entries were pruned.
        """
        pruned = 0
        for handle in self._workers:
            stale = [name for name in handle.shipped_defs if not is_live(name)]
            for name in stale:
                del handle.shipped_defs[name]
            handle.pending_drops.extend(stale)
            pruned += len(stale)
        return pruned

    def reset(self) -> None:
        """Forget every mirror EB and memo (the coordinator's EB was rebound)."""
        if self._closed or not self._workers:
            return
        self._require_usable()
        self._absorb_reconnects()
        payload = pickle.dumps(("reset",), _PROTOCOL)
        for handle in self._workers:
            self._send(handle, payload)
        for handle in self._workers:
            self._receive(handle)
            handle.shipped_events = 0
            handle.shipped_types = 0
        self._row_log.reset()

    # -- transport ------------------------------------------------------------
    def _require_usable(self) -> None:
        if self._closed:
            raise ShardWorkerError("the process shard pool is closed")
        if self._broken:
            raise ShardWorkerError(
                "the process shard pool is broken (a worker died or diverged "
                "from the coordinator's bookkeeping); close it and let the "
                "coordinator spawn a fresh one"
            )

    def _absorb_reconnects(self) -> None:
        """Fold channel replacements into the shipping bookkeeping.

        A worker that reconnected since the last trip (tcp transport) starts
        from an empty mirror and an empty rule table: resetting its handle
        makes the next message re-ship every definition it needs plus a full
        mirror snapshot from position 0 — the epoch-gated re-sync that lets
        it rejoin without a coordinator restart.
        """
        for worker_id in self._transport.poll_refreshed():
            handle = self._workers[worker_id]
            handle.process = self._transport.process(worker_id)
            handle.connection = self._transport.channel(worker_id)
            handle.forget_shipments()
            self.reconnects += 1

    def _encode(self, message: tuple) -> bytes:
        try:
            return pickle.dumps(message, _PROTOCOL)
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(f"shard work item is not picklable: {exc}") from exc

    def _send(self, handle: _WorkerHandle, payload: bytes) -> None:
        try:
            handle.connection.send_bytes(payload)
        except (BrokenPipeError, OSError) as exc:
            # A half-dispatched block cannot be rolled back: poison the pool
            # so later calls fail loudly instead of desyncing.
            self._broken = True
            raise ShardWorkerError(
                f"shard worker {handle.worker_id} is gone (send failed: {exc})"
            ) from exc
        self.bytes_shipped += len(payload)

    def _receive(self, handle: _WorkerHandle):
        try:
            raw = handle.connection.recv_bytes()
        except (EOFError, OSError) as exc:
            # The reply stream is unrecoverable: poison the pool.
            self._broken = True
            raise ShardWorkerError(
                f"shard worker {handle.worker_id} died before replying: {exc}"
            ) from exc
        except SnapshotError:
            # A corrupt frame means the byte stream desynced — the channel
            # can never be trusted again, exactly like a dead peer.
            self._broken = True
            raise
        self.bytes_received += len(raw)
        reply = pickle.loads(raw)
        if reply[0] == "error":
            _, original, formatted, state_applied = reply
            if not state_applied:
                # The worker failed before applying the message's delta/defs:
                # its mirror no longer matches the coordinator's bookkeeping.
                self._broken = True
            cause = ShardWorkerError(
                f"shard worker {handle.worker_id} failed:\n{formatted}"
            )
            if isinstance(original, BaseException):
                # Behavioral parity with the serial mode's error path: the
                # caller sees the same exception type it would have caught
                # there, with the worker traceback chained as the cause.
                raise original from cause
            raise cause
        # Reset replies predate the metrics element and stay 3-tuples.
        return reply[1], reply[2], (reply[3] if len(reply) > 3 else None)

    # -- lifecycle ------------------------------------------------------------
    def transport_stats(self) -> dict[str, int | float]:
        """Wire-level counters (merged into the workload reports)."""
        return {
            "workers": self.num_workers,
            "dispatches": self.dispatches,
            "worker_round_trips": self.worker_round_trips,
            "blocks_dispatched": self.blocks_dispatched,
            "bytes_shipped": self.bytes_shipped,
            "bytes_received": self.bytes_received,
            "defs_shipped": self.defs_shipped,
            "reconnects": self.reconnects,
            "encode_ms": round(1e3 * self.encode_seconds, 2),
            "delta_encode_ms": round(1e3 * self.delta_encode_seconds, 2),
            "deltas": self.deltas,
            "rows_inline": self._row_log.rows_inline,
            "rows_fallback": self._row_log.rows_fallback,
        }

    def close(self) -> None:
        """Stop and reap the workers, then release the transport (idempotent)."""
        if not self._closed:
            self._closed = True
            self._finalizer()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
