"""The Shard Coordinator: fan a block's type signature out to the owning shards.

After the Event Handler flushes a block, the coordinator takes the block's
type signature (computed once by :class:`~repro.rules.event_handler.BlockIngest`),
expands it through the table's schema binding, and routes each type to the
single shard owning its ``(operation, class)`` bucket.  Per consulted shard
the candidate set comes from the shard's memoized sub-signature plan
(:meth:`~repro.cluster.sharding.ShardedRuleTable.shard_plan`); a rule
registered on several shards is checked exactly once (the lowest consulted
owning shard wins, deterministically), and pending-full-check rules — which
every block must visit regardless of signature — ride on their name's home
shard.

The exact checks run in one of three execution modes (``shard_mode``):

* **serial deterministic** (default) — shard batches are evaluated inline in
  shard order, over shared zero-copy
  :class:`~repro.events.event_base.BoundedView` windows carved out of the one
  Event Base.  The check path is index-bisection-bound (pure-Python
  ``bisect`` over the shared indexes), so this is also the fastest
  single-core mode on a GIL-bound interpreter;
* **threads** — shard batches are dispatched to a thread pool over the same
  shared views.  Each worker touches only per-rule state (the
  :class:`~repro.core.triggering.TriggerMemo`) plus a worker-local
  :class:`~repro.core.evaluation.EvaluationStats`; shared-store reads are
  safe (the EB is frozen during a check) and its pattern-match memo tolerates
  benign duplicate computation.  Under the GIL this buys latency, not
  throughput;
* **processes** — the evaluate phase moves out of process entirely
  (:class:`~repro.cluster.process_pool.ProcessShardPool`): long-lived workers
  own their shard's expressions and memos plus a mirror Event Base grown
  from per-block window snapshots, and reply with decisions.  This is the
  first mode where trigger checking can use multiple cores.  Every rule is
  dealt to a *fixed* home worker (lowest owning shard) so its memo stays
  resident and ``instants_sampled`` matches the serial mode exactly.

Whatever the mode, the decisions are **applied serially in definition
order**, so the triggered set, the priority heaps, every counter and the
returned newly-triggered list are byte-for-byte identical to the
single-table ``check_after_block`` — the equivalence the ``tests/cluster``
property tests pin for shard counts 1–8 under rule churn, in all three
modes (``tests/cluster/test_mode_equivalence.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.core.evaluation import EvaluationMode, EvaluationStats
from repro.core.triggering import TriggeringDecision
from repro.cluster.process_pool import ProcessShardPool
from repro.cluster.sharding import SHARD_MODES, ShardedRuleTable
from repro.events.clock import Timestamp
from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import MergeableStats
from repro.rules.rule import RuleState
from repro.rules.trigger_support import TriggerSupport

__all__ = ["ShardedPlan", "ShardCoordinatorStats", "ShardCoordinator"]


@dataclass
class ShardedPlan:
    """One block's fan-out: which shards check which rules."""

    #: ``(shard id, candidates)`` pairs in shard order; candidates are
    #: deduplicated across shards and definition-ordered within each shard.
    per_shard: list[tuple[int, list[RuleState]]]
    #: Candidates reached through shard subscription plans.
    routed: int
    #: Pending-full-check candidates dealt to their home shards.
    pending: int
    #: Untriggered rules no shard needs to look at for this block.
    bypassed: int
    #: Names of the pending-full-check riders (not signature-routed) — the
    #: batched dispatch skips these in later trip blocks once they saw a
    #: non-empty window, mirroring the per-block pending-set semantics.
    pending_only: frozenset[str] = frozenset()

    @property
    def candidates(self) -> int:
        return self.routed + self.pending


@dataclass
class ShardCoordinatorStats(MergeableStats):
    """Fan-out observability, on top of the inherited TriggerSupport stats.

    ``as_dict()``/``merge()`` follow the shared stats protocol;
    ``max_shards_per_block`` is a high-water mark and merges via ``max``.
    """

    blocks_fanned_out: int = 0
    shards_consulted: int = 0
    max_shards_per_block: int = 0
    #: Worker batches dispatched off the calling thread (threads or processes).
    parallel_batches: int = 0
    #: Check rounds that had at least one candidate to evaluate — with
    #: micro-batching one trip covers a whole block batch, so
    #: ``blocks_dispatched / dispatch_trips`` is the realized amortization.
    dispatch_trips: int = 0
    #: Blocks that contributed candidates to some trip.
    blocks_dispatched: int = 0
    #: Route-cache entries evicted by the LRU bound (adversarial signatures).
    route_cache_evictions: int = 0


class ShardCoordinator(TriggerSupport):
    """A Trigger Support that plans and checks through a sharded rule table.

    Drop-in for :class:`TriggerSupport` (``recheck_all``, the stats object and
    the full-scan fallbacks are inherited); only the routed
    ``check_after_block`` path is replaced by the shard fan-out.
    """

    def __init__(
        self,
        rule_table: ShardedRuleTable,
        event_base: EventBase,
        use_static_optimization: bool = True,
        mode: EvaluationMode = EvaluationMode.LOGICAL,
        use_subscription_index: bool = True,
        shard_mode: str | None = None,
        parallel: bool = False,
        max_workers: int | None = None,
        use_compiled_checks: bool | None = None,
        metrics: MetricsRegistry | None = None,
        transport: str | None = None,
    ) -> None:
        if not isinstance(rule_table, ShardedRuleTable):
            raise TypeError("ShardCoordinator requires a ShardedRuleTable")
        super().__init__(
            rule_table,
            event_base,
            use_static_optimization=use_static_optimization,
            mode=mode,
            use_subscription_index=use_subscription_index,
            use_compiled_checks=use_compiled_checks,
            metrics=metrics,
        )
        # ``parallel=True`` is the PR-3 spelling of what is now
        # ``shard_mode="threads"``; an explicit shard_mode wins.
        if shard_mode is None:
            shard_mode = "threads" if parallel else "serial"
        if shard_mode not in SHARD_MODES:
            raise ValueError(
                f"unknown shard_mode {shard_mode!r}; expected one of {', '.join(SHARD_MODES)}"
            )
        self.shard_mode = shard_mode
        self.parallel = shard_mode == "threads"
        self.max_workers = max_workers
        #: Worker transport of the process pool (``None`` defers to
        #: ``$CHIMERA_TRANSPORT``, then ``pipe``); irrelevant to the other
        #: modes, which share the coordinator's address space.
        self.transport = transport
        self._pool: ThreadPoolExecutor | None = None
        self._process_pool: ProcessShardPool | None = None
        #: Plan epoch at the last worker-definition prune (processes mode).
        self._pruned_epoch: tuple[int, int] | None = None
        #: Full-signature -> per-shard sub-signatures, so a recurring block
        #: shape costs two dictionary hits before the shard plans take over
        #: (BlockIngest already interns the signature as a frozenset, whose
        #: hash is computed once).  Validated against the table's plan epoch
        #: like the shard caches, and LRU-bounded by the same cap so
        #: adversarial never-repeating signatures cannot grow it.
        self._route_cache: OrderedDict[
            frozenset[EventType], list[tuple[int, frozenset[EventType]]]
        ] = OrderedDict()
        self._route_epoch: tuple[int, int] | None = None
        self.cluster_stats = ShardCoordinatorStats()
        self.metrics.register_source("cluster", self.cluster_stats)
        #: Dispatch = dealing a planned trip to home workers; plan/check/apply
        #: histograms are inherited from the base Trigger Support.
        self._dispatch_hist = self.metrics.histogram("trip.dispatch")
        #: Per-shard candidate counts — the skew signal.  Planning is
        #: mode-independent, so these counters are byte-equal across serial,
        #: threads and processes at the same shard count.
        self._shard_candidate_counters = [
            self.metrics.counter(f"shard.candidates.{shard_id}")
            for shard_id in range(rule_table.num_shards)
        ]

    # -- planning -------------------------------------------------------------
    def plan_sharded(self, type_signature: Sequence[EventType]) -> ShardedPlan:
        """The fan-out plan for one block signature.

        Semantically identical to :meth:`TriggerPlanner.plan` — same candidate
        set, same routed/bypassed accounting — but resolved through the
        per-shard sub-signature caches instead of per-block bucket unions.
        """
        table = self.rule_table
        epoch = table.plan_epoch()
        if self._route_epoch != epoch:
            self._route_cache.clear()
            self._route_epoch = epoch
        key = (
            type_signature
            if isinstance(type_signature, frozenset)
            else frozenset(type_signature)
        )
        routing = self._route_cache.get(key)
        if routing is None:
            routed_types = table.route_signature(table.expand_signature(key))
            routing = [
                (shard_id, frozenset(types))
                for shard_id, types in sorted(routed_types.items())
            ]
            self._route_cache[key] = routing
            if len(self._route_cache) > table.plan_cache_size:
                self._route_cache.popitem(last=False)
                self.cluster_stats.route_cache_evictions += 1
        else:
            self._route_cache.move_to_end(key)
        chosen: set[str] = set()
        batches: dict[int, list[RuleState]] = {}
        routed = 0
        for shard_id, sub_signature in routing:
            local: list[RuleState] = []
            for state in table.shard_plan(shard_id, sub_signature):
                name = state.rule.name
                if state.enabled and not state.triggered and name not in chosen:
                    chosen.add(name)
                    local.append(state)
            if local:
                routed += len(local)
                batches[shard_id] = local
        pending = 0
        pending_only: set[str] = set()
        for name, state in table.pending_full_check_states().items():
            if state.enabled and not state.triggered and name not in chosen:
                chosen.add(name)
                pending += 1
                pending_only.add(name)
                batches.setdefault(table.home_shard_of(name), []).append(state)
        per_shard = sorted(batches.items())
        bypassed = table.untriggered_count() - routed - pending
        return ShardedPlan(
            per_shard=per_shard,
            routed=routed,
            pending=pending,
            bypassed=bypassed,
            pending_only=frozenset(pending_only),
        )

    # -- the sharded check ------------------------------------------------------
    def check_after_block(
        self,
        new_occurrences: Sequence[EventOccurrence],
        now: Timestamp,
        transaction_start: Timestamp,
        type_signature: frozenset[EventType] | None = None,
    ) -> list[RuleState]:
        if not (self.use_static_optimization and self.use_subscription_index):
            # Without the index (or the filter) there is nothing to fan out;
            # the inherited exhaustive paths keep the comparison modes alive.
            return super().check_after_block(
                new_occurrences, now, transaction_start, type_signature
            )
        self.stats.blocks += 1
        newly_triggered: list[RuleState] = []
        if not new_occurrences:
            return newly_triggered
        with self._plan_hist.time():
            plan = self._plan_segment(new_occurrences, type_signature)
        cluster = self.cluster_stats
        if plan.candidates:
            cluster.dispatch_trips += 1
            cluster.blocks_dispatched += 1

        with self._check_hist.time():
            if self.shard_mode == "processes":
                # Out-of-process evaluate phase: even a single-shard plan goes
                # to the workers, because the rules' incremental memos live
                # there.
                evaluated, merged_stats = self._evaluate_in_processes(
                    plan, now, transaction_start
                )
                self.stats.evaluation.merge(merged_stats)
            else:
                if self.shard_mode == "threads" and len(plan.per_shard) > 1:
                    cluster.parallel_batches += len(plan.per_shard)
                    futures = [
                        self._ensure_pool().submit(
                            self._evaluate_shard, states, now, transaction_start
                        )
                        for _, states in plan.per_shard
                    ]
                    shard_results = [future.result() for future in futures]
                else:
                    shard_results = [
                        self._evaluate_shard(states, now, transaction_start)
                        for _, states in plan.per_shard
                    ]
                # Evaluation stats merge in shard order — exactly the order
                # the serial mode accumulates them.
                evaluated = []
                for decisions, local_stats in shard_results:
                    self.stats.evaluation.merge(local_stats)
                    evaluated.extend(decisions)

        # Deterministic merge: decisions applied in definition order —
        # exactly the order the single-table check applies them, so heaps,
        # counters and the returned list line up.
        evaluated.sort(key=lambda pair: pair[0].definition_order)
        with self._apply_hist.time():
            for state, decision in evaluated:
                self.stats.rules_checked += 1
                if self._apply_decision(state, decision, now):
                    newly_triggered.append(state)
        return newly_triggered

    def _evaluate_shard(
        self,
        states: list[RuleState],
        now: Timestamp,
        transaction_start: Timestamp,
    ) -> tuple[list[tuple[RuleState, TriggeringDecision]], EvaluationStats]:
        """Evaluate one shard's candidates (worker-safe: per-rule state only)."""
        local_stats = EvaluationStats()
        decisions: list[tuple[RuleState, TriggeringDecision]] = []
        for state in states:
            self.prepare_rule(state)
            decisions.append(
                (state, self._evaluate_rule(state, now, transaction_start, local_stats))
            )
        return decisions, local_stats

    def _plan_segment(self, occurrences, type_signature=None) -> ShardedPlan:
        """Plan one non-empty block through the shard fan-out (stats included).

        The coordinator's override of the base helper: same signature
        derivation and plan-time counters, but resolved through
        :meth:`plan_sharded` and additionally accounted in the fan-out
        observability stats.
        """
        if type_signature is None:
            type_signature = getattr(occurrences, "type_signature", None)
        if type_signature is None:
            type_signature = frozenset(
                occurrence.event_type for occurrence in occurrences
            )
        plan = self.plan_sharded(type_signature)
        self.stats.rules_routed += plan.routed
        self.stats.rules_bypassed_by_index += plan.bypassed
        self.stats.ts_skipped_by_filter += plan.bypassed
        cluster = self.cluster_stats
        cluster.blocks_fanned_out += 1
        cluster.shards_consulted += len(plan.per_shard)
        cluster.max_shards_per_block = max(
            cluster.max_shards_per_block, len(plan.per_shard)
        )
        counters = self._shard_candidate_counters
        for shard_id, states in plan.per_shard:
            counters[shard_id].inc(len(states))
        return plan

    # -- the micro-batched check -------------------------------------------------
    def check_after_blocks(
        self,
        blocks: Sequence[tuple[Sequence[EventOccurrence], Timestamp]],
        transaction_start: Timestamp,
    ) -> list[RuleState]:
        """Check a trip of consecutive, already-ingested blocks in one dispatch.

        The batched counterpart of :meth:`check_after_block`, with the exact
        semantics of :meth:`TriggerSupport.check_after_blocks` (plans for the
        whole trip resolved up front against the trip-start state; per-block
        evaluation that skips earlier-triggered rules and pending-only
        riders that already saw a non-empty window in the trip; decisions
        applied block by block in definition order).  What the coordinator adds is
        the dispatch amortization: in ``processes`` mode every consulted
        worker is contacted **once per trip** — one combined EB delta plus N
        ordered work segments — instead of once per block, so worker round
        trips scale with trips rather than blocks.  In ``threads`` mode the
        trip is dealt per home worker (each rule's segments stay on one
        thread, in order); the serial mode evaluates the same dealing inline.
        """
        if not (self.use_static_optimization and self.use_subscription_index):
            return super().check_after_blocks(blocks, transaction_start)
        if len(blocks) == 1:
            occurrences, now = blocks[0]
            return self.check_after_block(
                occurrences,
                now,
                transaction_start,
                getattr(occurrences, "type_signature", None),
            )
        cluster = self.cluster_stats
        segments: list[tuple[Timestamp, ShardedPlan]] = []
        with self._plan_hist.time():
            for occurrences, now in blocks:
                self.stats.blocks += 1
                if not occurrences:
                    continue
                segments.append((now, self._plan_segment(occurrences)))
        planned_blocks = sum(1 for _, plan in segments if plan.candidates)
        if planned_blocks:
            cluster.dispatch_trips += 1
            cluster.blocks_dispatched += planned_blocks
        with self._check_hist.time():
            if self.shard_mode == "processes":
                per_segment = self._evaluate_trip_in_processes(
                    segments, transaction_start
                )
            else:
                per_segment = self._evaluate_trip_inline(segments, transaction_start)
        newly_triggered: list[RuleState] = []
        with self._apply_hist.time():
            for (now, _), rows in zip(segments, per_segment):
                rows.sort(key=lambda pair: pair[0].definition_order)
                for state, decision in rows:
                    self.stats.rules_checked += 1
                    if self._apply_decision(state, decision, now):
                        newly_triggered.append(state)
        return newly_triggered

    def _trip_assignments(
        self,
        segments: list[tuple[Timestamp, ShardedPlan]],
        transaction_start: Timestamp,
        num_workers: int,
    ) -> dict[int, dict[int, list[tuple[RuleState, Timestamp, bool]]]]:
        """Deal one trip's work items: worker -> block index -> items.

        The same fixed-home dealing as the per-block dispatch (a rule's memo
        must stay resident on one worker), extended over the trip: each
        rule's items appear in block order within its home worker's map,
        which is what lets the worker apply the trip-local skips (rules it
        already found triggered; pending-only riders that already saw a
        non-empty window) with purely local knowledge.  Each item carries
        its block's pending-only flag.
        """
        assignments: dict[int, dict[int, list[tuple[RuleState, Timestamp, bool]]]] = {}
        for index, (_, plan) in enumerate(segments):
            for _, states in plan.per_shard:
                for state in states:
                    self.prepare_rule(state)
                    worker = self._worker_of(state, num_workers)
                    assignments.setdefault(worker, {}).setdefault(index, []).append(
                        (
                            state,
                            state.triggering_window_start(transaction_start),
                            state.rule.name in plan.pending_only,
                        )
                    )
        return assignments

    def _evaluate_trip_inline(
        self,
        segments: list[tuple[Timestamp, ShardedPlan]],
        transaction_start: Timestamp,
    ) -> list[list[tuple[RuleState, TriggeringDecision]]]:
        """Serial/threads evaluation of a trip, grouped by home worker.

        Each home batch holds its rules' items across all segments in block
        order, so a single (thread or inline) pass can apply the
        skip-after-triggered rule with purely local knowledge — the in-process
        equivalent of what each process worker does with its trip message.
        """
        nows = [now for now, _ in segments]
        with self._dispatch_hist.time():
            assignments = self._trip_assignments(
                segments, transaction_start, self.rule_table.num_shards
            )
        per_segment: list[list[tuple[RuleState, TriggeringDecision]]] = [
            [] for _ in segments
        ]
        if not assignments:
            return per_segment
        home_batches = [assignments[home] for home in sorted(assignments)]
        if self.shard_mode == "threads" and len(home_batches) > 1:
            self.cluster_stats.parallel_batches += len(home_batches)
            futures = [
                self._ensure_pool().submit(self._evaluate_home_batch, batch, nows)
                for batch in home_batches
            ]
            results = [future.result() for future in futures]
        else:
            results = [self._evaluate_home_batch(batch, nows) for batch in home_batches]
        for rows, local_stats in results:
            self.stats.evaluation.merge(local_stats)
            for index, state, decision in rows:
                per_segment[index].append((state, decision))
        return per_segment

    def _evaluate_home_batch(
        self,
        segment_items: dict[int, list[tuple[RuleState, Timestamp, bool]]],
        nows: list[Timestamp],
    ) -> tuple[list[tuple[int, RuleState, TriggeringDecision]], EvaluationStats]:
        """Evaluate one home worker's share of a trip (worker-safe).

        With compiled checks the batch regroups rule-major and runs each
        rule's ordered trip entries through one
        :meth:`~repro.core.compile.CompiledCheck.check_trip` pass — safe
        because the skip sets below key on the rule name alone, and a rule's
        compiled evaluator (mutable bulk-stats cells included) is touched by
        exactly one home batch per trip.  The final per-segment ordering is
        definition order either way (the caller sorts before applying).
        """
        local_stats = EvaluationStats()
        rows: list[tuple[int, RuleState, TriggeringDecision]] = []
        if self.use_compiled_checks:
            per_rule: dict[
                str, tuple[RuleState, Timestamp, list[tuple[int, Timestamp, bool]]]
            ] = {}
            for index in sorted(segment_items):
                now = nows[index]
                for state, window_start, pending_only in segment_items[index]:
                    name = state.rule.name
                    entry = per_rule.get(name)
                    if entry is None:
                        entry = per_rule[name] = (state, window_start, [])
                    entry[2].append((index, now, pending_only))
            for state, window_start, items in per_rule.values():
                decisions = self._check_rule_trip(
                    state, window_start, items, local_stats
                )
                for (index, _now, _pending), decision in zip(items, decisions):
                    if decision is not None:
                        rows.append((index, state, decision))
            return rows, local_stats
        triggered_in_trip: set[str] = set()
        saw_nonempty_window: set[str] = set()
        for index in sorted(segment_items):
            now = nows[index]
            for state, window_start, pending_only in segment_items[index]:
                name = state.rule.name
                if name in triggered_in_trip or (
                    pending_only and name in saw_nonempty_window
                ):
                    continue
                decision = self._evaluate_item(state, window_start, now, local_stats)
                if decision.triggered:
                    triggered_in_trip.add(name)
                if decision.window_size > 0:
                    saw_nonempty_window.add(name)
                rows.append((index, state, decision))
        return rows, local_stats

    def _evaluate_trip_in_processes(
        self,
        segments: list[tuple[Timestamp, ShardedPlan]],
        transaction_start: Timestamp,
    ) -> list[list[tuple[RuleState, TriggeringDecision]]]:
        """Ship a whole trip to the process workers — one message per worker."""
        num_workers = self._process_worker_count()
        if self._process_pool is not None:
            self._prune_worker_defs(self._process_pool)
        with self._dispatch_hist.time():
            assignments = self._trip_assignments(
                segments, transaction_start, num_workers
            )
        if not assignments:
            return [[] for _ in segments]
        pool = self._ensure_process_pool()
        self._prune_worker_defs(pool)
        self.cluster_stats.parallel_batches += len(assignments)
        per_segment, merged_stats = pool.evaluate_trip(
            self.event_base, assignments, [now for now, _ in segments]
        )
        self.stats.evaluation.merge(merged_stats)
        return per_segment

    # -- the out-of-process evaluate phase --------------------------------------
    def _worker_of(self, state: RuleState, num_workers: int) -> int:
        """The fixed home worker of a rule — residency keeps its memo exact.

        The plan's "lowest consulted owning shard wins" dealing varies with
        the block signature; dealing the *evaluation* by the rule's lowest
        owning shard instead pins each rule to one worker for its lifetime,
        so the worker-resident memo sees exactly the check sequence the
        serial mode's memo sees.
        """
        table = self.rule_table
        owners = table.shards_of_rule(state.rule.name)
        shard = owners[0] if owners else table.home_shard_of(state.rule.name)
        return shard % num_workers

    def _process_worker_count(self) -> int:
        """Worker count of the process pool (computable without spawning it)."""
        workers = self.rule_table.num_shards
        if self.max_workers:
            workers = min(workers, self.max_workers)
        return workers

    def _evaluate_in_processes(
        self,
        plan: ShardedPlan,
        now: Timestamp,
        transaction_start: Timestamp,
    ) -> tuple[list[tuple[RuleState, TriggeringDecision]], EvaluationStats]:
        num_workers = self._process_worker_count()
        if self._process_pool is not None:
            # Eager, epoch-gated: keeps the shipping bookkeeping bounded by
            # the live rule population even across candidate-free blocks
            # (pruning touches no worker — drops piggyback on the next send).
            self._prune_worker_defs(self._process_pool)
        assignments: dict[int, list[tuple[RuleState, Timestamp]]] = {}
        with self._dispatch_hist.time():
            for _, states in plan.per_shard:
                for state in states:
                    self.prepare_rule(state)
                    assignments.setdefault(
                        self._worker_of(state, num_workers), []
                    ).append((state, state.triggering_window_start(transaction_start)))
        if not assignments:
            # Nothing to evaluate: do not spawn (or even contact) the pool —
            # a rule-free database pays nothing for the processes mode.
            return [], EvaluationStats()
        pool = self._ensure_process_pool()
        self._prune_worker_defs(pool)
        self.cluster_stats.parallel_batches += len(assignments)
        return pool.evaluate(self.event_base, assignments, now)

    def _prune_worker_defs(self, pool: ProcessShardPool) -> None:
        """Queue worker-side eviction of removed rules (epoch-gated).

        The plan epoch moves on every add/remove, so the shipped-definition
        scan only runs under table churn — steady state pays one tuple
        comparison per block, and a long-lived pool stays bounded by the
        live rule population.
        """
        epoch = self.rule_table.plan_epoch()
        if self._pruned_epoch != epoch:
            pool.prune(self.rule_table.__contains__)
            self._pruned_epoch = epoch

    def recheck_all(
        self, now: Timestamp, transaction_start: Timestamp
    ) -> list[RuleState]:
        """Commit-time recheck; in process mode it runs on the workers too.

        The worker-resident memos must observe *every* check of their rule —
        a coordinator-side recheck would both miss their frontier and leave
        them stale — so the process mode routes the exhaustive recheck
        through the same fixed-home dealing as the per-block checks.  The
        other modes keep the inherited serial recheck (their memos live on
        the coordinator's rule states).
        """
        if self.shard_mode != "processes" or not (
            self.use_static_optimization and self.use_subscription_index
        ):
            return super().recheck_all(now, transaction_start)
        num_workers = self._process_worker_count()
        assignments: dict[int, list[tuple[RuleState, Timestamp]]] = {}
        for state in self.rule_table.untriggered_states():
            assignments.setdefault(self._worker_of(state, num_workers), []).append(
                (state, state.triggering_window_start(transaction_start))
            )
        if not assignments:
            return []
        pool = self._ensure_process_pool()
        self._prune_worker_defs(pool)
        evaluated, merged_stats = pool.evaluate(self.event_base, assignments, now)
        self.stats.evaluation.merge(merged_stats)
        evaluated.sort(key=lambda pair: pair[0].definition_order)
        newly_triggered: list[RuleState] = []
        for state, decision in evaluated:
            if self._apply_decision(state, decision, now):
                newly_triggered.append(state)
        return newly_triggered

    def forget_incremental_state(self) -> None:
        """Drop coordinator-side memos *and* the workers' mirrors/memos."""
        super().forget_incremental_state()
        if self._process_pool is not None:
            self._process_pool.reset()

    # -- worker pools ------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            workers = self.max_workers or min(8, self.rule_table.num_shards)
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="shard-check"
            )
        return self._pool

    def _ensure_process_pool(self) -> ProcessShardPool:
        if self._process_pool is None:
            self._process_pool = ProcessShardPool(
                self._process_worker_count(),
                mode=self.mode,
                use_compiled_checks=self.use_compiled_checks,
                metrics=self.metrics,
                transport=self.transport,
            )
            # Transport health (messages, bytes, worker restarts) folds into
            # the same snapshot as everything else.
            self.metrics.register_source("pool", self._process_pool.transport_stats)
        return self._process_pool

    @property
    def process_pool(self) -> ProcessShardPool | None:
        """The process pool, if the processes mode has spawned one."""
        return self._process_pool

    def close(self) -> None:
        """Shut the worker pools down (idempotent; serial mode needs none)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._process_pool is not None:
            self._process_pool.close()
            self._process_pool = None

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
