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

Planning is the only thing the coordinator changes about the check path.
Every block is a trip of one through the base Trigger Support's
:meth:`~repro.rules.trigger_support.TriggerSupport.check_after_blocks`, and
the exact checks run in one of two execution modes (``shard_mode``):

* **serial** (default) — the flattened :class:`ShardedPlan` is evaluated
  inline by the base Trigger Support's trip kernel, over the one Event Base;
* **processes** — the evaluate phase moves out of process
  (:class:`~repro.cluster.process_pool.ProcessShardPool`): long-lived
  workers own their shard's expressions, compiled checks and memos plus a
  mirror Event Base grown from per-trip row-frame deltas, run the same trip
  kernel and reply with decisions.  Every rule is dealt to a *fixed* home
  worker (lowest owning shard) so its memo stays resident and
  ``instants_sampled`` matches the serial mode exactly.  The coordinator
  itself compiles nothing in this mode: its rule states carry only the
  ``V(E)`` filter the planner needs.

Whatever the mode, the decisions are **applied serially in definition
order**, so the triggered set, the priority heaps, every counter and the
returned newly-triggered list are byte-for-byte identical to the
single-table Trigger Support — the equivalence the ``tests/cluster``
property tests pin for shard counts 1–8 under rule churn, in both modes and
at every trip size (``tests/cluster/test_mode_equivalence.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Sequence

from repro.core.evaluation import EvaluationMode
from repro.core.triggering import TriggeringDecision
from repro.cluster.process_pool import ProcessShardPool
from repro.cluster.sharding import SHARD_MODES, ShardedRuleTable
from repro.events.clock import Timestamp
from repro.events.event import EventType
from repro.events.event_base import EventBase
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import MergeableStats
from repro.rules.rule import RuleState
from repro.rules.trigger_support import TriggerSupport

__all__ = ["ShardedPlan", "ShardCoordinatorStats", "ShardCoordinator"]

_definition_order = attrgetter("definition_order")


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
    #: Names of the pending-full-check riders (not signature-routed) — a
    #: trip's later blocks skip these once they saw a non-empty window.
    pending_only: frozenset[str] = frozenset()

    @cached_property
    def candidates(self) -> list[RuleState]:
        """Every shard's candidates in definition order, as in :class:`TriggerPlan`.

        The order the trip applies their decisions in.  Derived on first
        use, so planning alone (the route and plan caches) never pays the
        merge.
        """
        candidates = [state for _, states in self.per_shard for state in states]
        candidates.sort(key=_definition_order)
        return candidates


@dataclass
class ShardCoordinatorStats(MergeableStats):
    """Fan-out observability, on top of the inherited TriggerSupport stats.

    ``as_dict()``/``merge()`` follow the shared stats protocol;
    ``max_shards_per_block`` is a high-water mark and merges via ``max``.
    """

    blocks_fanned_out: int = 0
    shards_consulted: int = 0
    max_shards_per_block: int = 0
    #: Worker batches shipped to the process pool (one per consulted worker
    #: per trip).
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
    """A Trigger Support that plans through a sharded rule table.

    Drop-in for :class:`TriggerSupport`: the trip path, the full-scan
    fallback and (in serial mode) the evaluation are inherited; the
    coordinator replaces the planning with the shard fan-out and, in
    processes mode, the evaluation with a round trip to the worker pool.
    """

    def __init__(
        self,
        rule_table: ShardedRuleTable,
        event_base: EventBase,
        use_static_optimization: bool = True,
        mode: EvaluationMode = EvaluationMode.LOGICAL,
        use_subscription_index: bool = True,
        shard_mode: str | None = None,
        max_workers: int | None = None,
        use_compiled_checks: bool = True,
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
        if shard_mode is None:
            shard_mode = "serial"
        if shard_mode not in SHARD_MODES:
            raise ValueError(
                f"unknown shard_mode {shard_mode!r}; expected one of {', '.join(SHARD_MODES)}"
            )
        self.shard_mode = shard_mode
        self.max_workers = max_workers
        #: Worker transport of the process pool (``None`` defers to
        #: ``$CHIMERA_TRANSPORT``, then ``pipe``); irrelevant to the serial
        #: mode, which shares the coordinator's address space.
        self.transport = transport
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
        #: mode-independent, so these counters are byte-equal across serial
        #: and processes at the same shard count.
        self._shard_candidate_counters = [
            self.metrics.counter(f"shard.candidates.{shard_id}")
            for shard_id in range(rule_table.num_shards)
        ]

    def _offloads_checks(self) -> bool:
        """Whether the exact checks run on the process workers."""
        return self.shard_mode == "processes" and self._routes_by_index()

    def _compiles_locally(self) -> bool:
        # The workers compile their own rules from the shipped definitions;
        # closures built here would only cost set-up time and memory.
        return self.use_compiled_checks and not self._offloads_checks()

    # -- planning -------------------------------------------------------------
    def plan_sharded(self, type_signature: Sequence[EventType]) -> ShardedPlan:
        """The fan-out plan for one block signature.

        Semantically identical to :meth:`TriggerPlanner.plan` — same candidate
        set in the same definition order, same routed/bypassed accounting —
        but resolved through the per-shard sub-signature caches instead of
        per-block bucket unions.
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

    # -- the trip's evaluate phase ---------------------------------------------
    def _evaluate_trip(
        self,
        planned: "list[tuple[Timestamp, ShardedPlan]]",
        transaction_start: Timestamp,
    ) -> dict[tuple[int, str], TriggeringDecision]:
        """Account the dispatch, then evaluate inline or on the process workers.

        In ``processes`` mode every consulted worker is contacted **once per
        trip** — one combined EB delta plus the trip's ordered work segments
        — so worker round trips scale with trips rather than blocks.  Even a
        single-shard plan goes to the workers, because the rules'
        incremental memos live there.
        """
        if not self._routes_by_index():
            # The full scan plans nothing to fan out: the inherited
            # evaluation keeps the comparison modes alive.
            return super()._evaluate_trip(planned, transaction_start)
        planned_blocks = sum(1 for _, plan in planned if plan.candidates)
        if planned_blocks:
            self.cluster_stats.dispatch_trips += 1
            self.cluster_stats.blocks_dispatched += planned_blocks
        if self.shard_mode != "processes":
            return super()._evaluate_trip(planned, transaction_start)
        num_workers = self._process_worker_count()
        if self._process_pool is not None:
            # Eager, epoch-gated: keeps the shipping bookkeeping bounded by
            # the live rule population even across candidate-free trips
            # (pruning touches no worker — drops piggyback on the next send).
            self._prune_worker_defs(self._process_pool)
        with self._dispatch_hist.time():
            assignments = self._trip_assignments(
                planned, transaction_start, num_workers
            )
        if not assignments:
            # Nothing to evaluate: do not spawn (or even contact) the pool —
            # a rule-free database pays nothing for the processes mode.
            return {}
        pool = self._ensure_process_pool()
        self._prune_worker_defs(pool)
        self.cluster_stats.parallel_batches += len(assignments)
        per_segment, merged_stats = pool.evaluate_trip(
            self.event_base, assignments, [now for now, _ in planned]
        )
        self.stats.evaluation.merge(merged_stats)
        return {
            (index, state.rule.name): decision
            for index, rows in enumerate(per_segment)
            for state, decision in rows
        }

    def _trip_assignments(
        self,
        planned: "list[tuple[Timestamp, ShardedPlan]]",
        transaction_start: Timestamp,
        num_workers: int,
    ) -> dict[int, dict[int, list[tuple[RuleState, Timestamp, bool]]]]:
        """Deal one trip's work items: worker -> block index -> items.

        Fixed-home dealing (a rule's memo must stay resident on one worker):
        each rule's items appear in block order within its home worker's
        map, which is what lets the worker apply the trip-local skips (rules
        it already found triggered; pending-only riders that already saw a
        non-empty window) with purely local knowledge.  Each item carries
        its block's pending-only flag.
        """
        assignments: dict[int, dict[int, list[tuple[RuleState, Timestamp, bool]]]] = {}
        for index, (_, plan) in enumerate(planned):
            for state in plan.candidates:
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
        through the same fixed-home dealing as the trip checks.  The serial
        mode keeps the inherited recheck (its memos live on the
        coordinator's rule states).
        """
        if not self._offloads_checks():
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

    # -- the worker pool -----------------------------------------------------------
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
        """Shut the worker pool down (idempotent; serial mode needs none)."""
        if self._process_pool is not None:
            self._process_pool.close()
            self._process_pool = None

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
