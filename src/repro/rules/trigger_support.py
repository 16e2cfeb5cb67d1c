"""The Trigger Support component.

Paper §5: after the Event Handler stores a block's occurrences, the Trigger
Support determines the newly triggered rules.  For every rule that is not
currently triggered it computes the ``ts`` value of the rule's event expression
over the window of occurrences newer than the rule's last consideration; when
the value is positive the rule becomes triggered (the flag is cleared again
only when the rule is considered).

The static optimization of §5.1 plugs in here: each rule carries a
:class:`~repro.core.optimization.RecomputationFilter` built from ``V(E)``, and
the ``ts`` recomputation is skipped whenever the block's occurrences cannot
possibly flip the rule's ``ts`` positive.  The filter is applied *wholesale*
through the Rule Table's inverted subscription index: the
:class:`TriggerPlanner` takes the block's type signature (the set of event
types it contains) and asks the table which untriggered rules are subscribed
to any of them, plus the rules whose filter is not applicable yet (window
never evaluated non-empty — they must be visited on every block).  Planning
cost therefore scales with the rules *actually subscribed* to the block's
types, not with the whole table; ``use_subscription_index=False`` keeps the
full scan (every untriggered rule through its own filter) for benchmarks and
the routed-vs-scan equivalence tests.

There is one check path, and a block is a trip of one.  A *trip* is a run of
consecutive, already-ingested blocks: every block is planned up front, each
planned rule is evaluated once over its ordered trip entries by the one
exact-check kernel (:func:`check_rule_trip`: the rule's compiled closures
when it carries them, the interpreted evaluator otherwise), and the decisions
are applied afterwards, block by block in definition order.  The shard
coordinator reuses this path unchanged in its serial mode and ships the same
trip to its process workers, which run the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.compile import CompiledCheck, compile_check
from repro.core.evaluation import EvaluationMode, EvaluationStats
from repro.core.optimization import RecomputationFilter
from repro.core.triggering import TriggeringDecision, is_triggered
from repro.events.clock import Timestamp
from repro.events.event import EventOccurrence, EventType
from repro.events.event_base import EventBase
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import MergeableStats
from repro.rules.rule import RuleState
from repro.rules.rule_table import RuleTable

__all__ = [
    "TriggerSupportStats",
    "TriggerPlan",
    "TriggerPlanner",
    "TriggerSupport",
    "check_rule_trip",
]


@dataclass
class TriggerSupportStats(MergeableStats):
    """Aggregate counters used by the X1 benchmark (optimized vs. naive).

    ``as_dict()``/``merge()`` come from the shared stats protocol; the nested
    ``evaluation`` record is flattened into the view, so the dict exposes the
    evaluator counters (``primitive_lookups``, ``node_visits``, …) directly.
    """

    blocks: int = 0
    rules_checked: int = 0
    ts_computations: int = 0
    ts_skipped_by_filter: int = 0
    #: Exact checks that observed an empty window, block checks and
    #: commit-time rechecks alike (unlike the seed, this also counts empty
    #: windows seen by recheck_all).
    ts_skipped_empty_window: int = 0
    rules_triggered: int = 0
    #: Candidate instants actually sampled across all exact checks.  With the
    #: incremental memo this stays proportional to the number of new
    #: occurrences rather than to the window size (see PERFORMANCE.md).
    instants_sampled: int = 0
    #: Untriggered rules reached through the subscription index (visited
    #: because the block's type signature matched their ``V(E)``, or because
    #: their filter was not applicable yet).
    rules_routed: int = 0
    #: Untriggered rules the index proved irrelevant to a block — the rules a
    #: full scan would have iterated (and filter-skipped) one at a time.
    rules_bypassed_by_index: int = 0
    evaluation: EvaluationStats = field(default_factory=EvaluationStats)


@dataclass
class TriggerPlan:
    """Which rules a block's type signature obliges the Trigger Support to visit."""

    #: Untriggered, enabled rules to check, in definition order (the same
    #: order the exhaustive scan visits them, so observable side effects —
    #: the newly-triggered list, counters — line up exactly).
    candidates: list[RuleState]
    #: How many candidates the subscription index routed (signature matched
    #: their ``V(E)``; the rest are full-check rules whose filter is not
    #: applicable yet).
    routed: int
    #: Untriggered rules the index proved irrelevant — a full scan would have
    #: visited each and skipped it via its individual filter.
    bypassed: int
    #: Names of candidates planned *only* because their filter is not
    #: applicable yet (the pending-full-check riders, not signature-routed).
    #: A trip's later blocks skip such a rule once it saw a non-empty window
    #: in an earlier block of the trip — exactly when applying the earlier
    #: decisions first would have dropped it from the pending set.
    pending_only: frozenset[str] = frozenset()


class TriggerPlanner:
    """Routes a block's type signature to the subscribed rules.

    Thin façade over the Rule Table's inverted subscription index: given the
    set of event types a block produced, it returns the untriggered rules
    whose ``V(E)`` may match any of them — plus every rule whose filter is not
    applicable yet (those are blocked only by ``R != {}`` and can be
    triggered by an occurrence of *any* type, so the index must not hide
    them).  The routing decision is exactly ``RecomputationFilter.matches``
    evaluated via the index, so a planned visit set is semantically identical
    to the full scan with per-rule filters (pinned by the property tests).
    """

    def __init__(self, rule_table: RuleTable) -> None:
        self.rule_table = rule_table

    def plan(self, type_signature: Iterable[EventType]) -> TriggerPlan:
        """The visit plan for one block with the given type signature."""
        table = self.rule_table
        subscribed = table.subscribers_for_signature(type_signature)
        chosen: dict[str, RuleState] = {
            name: state
            for name, state in subscribed.items()
            if state.enabled and not state.triggered
        }
        routed = len(chosen)
        pending_only: set[str] = set()
        for name, state in table.pending_full_check_states().items():
            if state.enabled and not state.triggered and name not in chosen:
                chosen[name] = state
                pending_only.add(name)
        candidates = sorted(chosen.values(), key=lambda state: state.definition_order)
        bypassed = table.untriggered_count() - len(candidates)
        return TriggerPlan(
            candidates=candidates,
            routed=routed,
            bypassed=bypassed,
            pending_only=frozenset(pending_only),
        )


def check_rule_trip(
    expression,
    compiled: CompiledCheck | None,
    event_base: EventBase,
    entries: Sequence[tuple[Timestamp | None, Timestamp, bool]],
    mode: EvaluationMode,
    memo,
    stats: EvaluationStats,
) -> list[TriggeringDecision | None]:
    """The exact check of one rule over its ordered trip entries.

    ``entries`` holds one ``(window start, now, pending-only)`` triple per
    block of the trip whose plan holds the rule, in block order, over the
    fully ingested Event Base.  An entry after an in-trip triggering, or a
    pending-only entry after an in-trip non-empty window, yields ``None``:
    that block's plan would no longer hold the rule had the earlier blocks'
    decisions applied first.  ``compiled`` (the rule's
    :class:`~repro.core.compile.CompiledCheck`, or None) evaluates the whole
    trip in one pass; otherwise the interpreted evaluator replays it entry by
    entry — the reference the compiled kernel is pinned byte-identical to.
    The Trigger Support and the process shard workers both call this.
    """
    if compiled is not None:
        return compiled.check_trip(event_base, entries, memo, stats)
    decisions: list[TriggeringDecision | None] = []
    triggered = False
    saw_nonempty = False
    for window_start, now, pending_only in entries:
        if triggered or (pending_only and saw_nonempty):
            decisions.append(None)
            continue
        decision = is_triggered(
            expression, event_base, window_start, now, mode, stats, memo=memo
        )
        triggered = decision.triggered
        saw_nonempty = saw_nonempty or decision.window_size > 0
        decisions.append(decision)
    return decisions


class TriggerSupport:
    """Determines newly triggered rules after every execution block."""

    def __init__(
        self,
        rule_table: RuleTable,
        event_base: EventBase,
        use_static_optimization: bool = True,
        mode: EvaluationMode = EvaluationMode.LOGICAL,
        use_subscription_index: bool = True,
        use_compiled_checks: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.rule_table = rule_table
        self.event_base = event_base
        self.use_static_optimization = use_static_optimization
        self.use_subscription_index = use_subscription_index
        self.mode = mode
        # Compiled closures by default; False pins the interpreted evaluator,
        # the reference the compiled kernel is pinned byte-identical to
        # (tests/core/test_compiled_equivalence.py).
        self.use_compiled_checks = use_compiled_checks
        self.planner = TriggerPlanner(rule_table)
        self.stats = TriggerSupportStats()
        # Metrics are opt-in per engine: callers that do not pass a registry
        # get an enabled private one (snapshots still work standalone), while
        # the engine threads a single registry through every component so one
        # snapshot covers the whole pipeline.  The stats record is folded into
        # snapshots as a *source* — the report and the export can never
        # disagree with the benchmark counters.  Histogram handles are cached
        # here because the hot loops probe them per trip, not per rule.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register_source("trigger", self.stats)
        self._plan_hist = self.metrics.histogram("trip.plan")
        self._check_hist = self.metrics.histogram("trip.check")
        self._apply_hist = self.metrics.histogram("trip.apply")

    # -- set-up -----------------------------------------------------------
    def prepare_rule(self, state: RuleState) -> None:
        """Build the rule's recomputation filter and compiled check (idempotent)."""
        if state.recomputation_filter is None:
            state.recomputation_filter = RecomputationFilter(state.rule.events)
        if self._compiles_locally():
            compiled = state.compiled_check
            if compiled is None or compiled.mode is not self.mode:
                state.compiled_check = compile_check(state.rule.events, self.mode)

    def _compiles_locally(self) -> bool:
        """Whether this process evaluates through the rules' compiled checks."""
        return self.use_compiled_checks

    def _routes_by_index(self) -> bool:
        """Whether blocks are planned through the subscription index."""
        return self.use_static_optimization and self.use_subscription_index

    # -- the check ----------------------------------------------------------
    def check_after_block(
        self,
        new_occurrences: Sequence[EventOccurrence],
        now: Timestamp,
        transaction_start: Timestamp,
        type_signature: frozenset[EventType] | None = None,
    ) -> list[RuleState]:
        """Check one finished block: a trip of one (see :meth:`check_after_blocks`)."""
        return self.check_after_blocks(
            [(new_occurrences, now)], transaction_start, [type_signature]
        )

    def check_after_blocks(
        self,
        blocks: Sequence[tuple[Sequence[EventOccurrence], Timestamp]],
        transaction_start: Timestamp,
        type_signatures: Sequence[frozenset[EventType] | None] | None = None,
    ) -> list[RuleState]:
        """Check a *trip* of consecutive, already-ingested execution blocks.

        ``blocks`` is an ordered sequence of ``(occurrences, now)`` pairs, one
        per execution block, all of which are already stored in the Event
        Base.  ``type_signatures`` optionally carries each block's set of
        event types when the caller already knows it (``BlockIngest``
        computes it at ingestion time); it is derived otherwise.  Each block
        keeps its own check — its own signature, plan and ``now`` — with these
        semantics, identical in every execution mode:

        * plans are computed per block, up front, against the trip-start
          triggered/enabled state (no decisions applied in between);
        * each planned rule is evaluated once over its ordered trip entries
          (:func:`check_rule_trip`), each block against its ``(window start,
          now]`` view of the complete Event Base; later blocks skip the rules
          their plans would no longer hold had the earlier decisions applied
          per block — rules triggered earlier in the trip, and
          pending-full-check riders that saw a non-empty window earlier in
          the trip;
        * all decisions are applied after the trip evaluates, block by block
          in definition order, so counters, heaps and the newly-triggered
          order line up in every mode and at every trip size.

        Empty blocks count but plan nothing: a rule whose window was already
        evaluated needs a new occurrence to trigger.  Without the
        subscription index the full scan's per-rule filter reads the window
        flags the previous block's decisions set, so nothing can be planned
        up front and the blocks run as consecutive trips of one.
        """
        routes_by_index = self._routes_by_index()
        if not routes_by_index and len(blocks) > 1:
            newly_triggered: list[RuleState] = []
            for block in blocks:
                newly_triggered.extend(
                    self.check_after_blocks([block], transaction_start)
                )
            return newly_triggered
        planned: list[tuple[Timestamp, TriggerPlan]] = []
        with self._plan_hist.time():
            for index, (occurrences, now) in enumerate(blocks):
                self.stats.blocks += 1
                if not occurrences:
                    continue
                if routes_by_index:
                    signature = type_signatures[index] if type_signatures else None
                    plan = self._plan_segment(occurrences, signature)
                else:
                    plan = self._scan_plan(occurrences)
                planned.append((now, plan))
        with self._check_hist.time():
            decided = self._evaluate_trip(planned, transaction_start)
        newly_triggered = []
        with self._apply_hist.time():
            for index, (now, plan) in enumerate(planned):
                for state in plan.candidates:
                    decision = decided.get((index, state.rule.name))
                    if decision is None:
                        continue
                    self.stats.rules_checked += 1
                    if self._apply_decision(state, decision, now):
                        newly_triggered.append(state)
        return newly_triggered

    def _plan_segment(self, occurrences, type_signature=None):
        """Plan one non-empty block and account the plan-time stats.

        The one place the signature is derived (when the caller does not
        already carry it) and the routed/bypassed counters move, overridden
        by the shard coordinator with its fan-out planning.  A bypass is the
        ``V(E)`` filter applied wholesale: the index proved no occurrence of
        the block can flip those rules' ``ts`` positive, which is exactly
        what the per-rule filter would have concluded.
        """
        if type_signature is None:
            type_signature = getattr(occurrences, "type_signature", None)
        if type_signature is None:
            type_signature = frozenset(
                occurrence.event_type for occurrence in occurrences
            )
        plan = self.planner.plan(type_signature)
        self.stats.rules_routed += plan.routed
        self.stats.rules_bypassed_by_index += plan.bypassed
        self.stats.ts_skipped_by_filter += plan.bypassed
        return plan

    def _scan_plan(self, occurrences: Sequence[EventOccurrence]) -> TriggerPlan:
        """Plan one non-empty block by the full scan, rule by rule.

        Every untriggered rule is visited; with static optimization its own
        ``V(E)`` filter drops it when no occurrence of the block can flip its
        ``ts`` positive.  The filter is sound only once the rule's window has
        been evaluated non-empty: before that, the rule may be blocked solely
        by the ``R != {}`` condition (e.g. a pure negation), and then any new
        occurrence — of any type — can trigger it.
        """
        candidates: list[RuleState] = []
        for state in self.rule_table.untriggered_states():
            self.prepare_rule(state)
            if (
                self.use_static_optimization
                and state.had_nonempty_window
                and not state.recomputation_filter.needs_recomputation(occurrences)
            ):
                # The rule's trigger memo is deliberately NOT advanced: the
                # skipped block's instants stay unsampled and a later check
                # covers them, so correctness never rests on the filter.
                self.stats.rules_checked += 1
                self.stats.ts_skipped_by_filter += 1
                continue
            candidates.append(state)
        return TriggerPlan(candidates=candidates, routed=0, bypassed=0)

    def _evaluate_trip(
        self,
        planned: "list[tuple[Timestamp, TriggerPlan]]",
        transaction_start: Timestamp,
    ) -> dict[tuple[int, str], TriggeringDecision]:
        """Evaluate a planned trip rule-major: ``(block index, rule name) -> decision``.

        The in-trip skips key on the rule name alone, so regrouping the trip
        by rule preserves them exactly: each rule's ordered entries go
        through one :func:`check_rule_trip` call.  Skipped entries get no
        decision.  Overridden by the shard coordinator, which ships the trip
        to its process workers.
        """
        per_rule: dict[str, tuple[RuleState, Timestamp, list[int], list[tuple]]] = {}
        for index, (now, plan) in enumerate(planned):
            pending_only = plan.pending_only
            for state in plan.candidates:
                name = state.rule.name
                entry = per_rule.get(name)
                if entry is None:
                    window_start = state.triggering_window_start(transaction_start)
                    entry = per_rule[name] = (state, window_start, [], [])
                entry[2].append(index)
                entry[3].append((entry[1], now, name in pending_only))
        decided: dict[tuple[int, str], TriggeringDecision] = {}
        for name, (state, _, indexes, entries) in per_rule.items():
            decisions = self._check_rule_trip(state, entries)
            for index, decision in zip(indexes, decisions):
                if decision is not None:
                    decided[index, name] = decision
        return decided

    def _check_rule_trip(
        self, state: RuleState, entries: "list[tuple]"
    ) -> list[TriggeringDecision | None]:
        """Run :func:`check_rule_trip` on one rule state (prepared first)."""
        self.prepare_rule(state)
        compiled = state.compiled_check if self.use_compiled_checks else None
        return check_rule_trip(
            state.rule.events,
            compiled,
            self.event_base,
            entries,
            self.mode,
            state.trigger_memo,
            self.stats.evaluation,
        )

    def recheck_all(
        self, now: Timestamp, transaction_start: Timestamp
    ) -> list[RuleState]:
        """Force a full re-evaluation of every untriggered rule (no filter).

        Used at commit time to make sure deferred processing starts from an
        up-to-date picture even if the last blocks were empty.
        """
        newly_triggered: list[RuleState] = []
        for state in self.rule_table.untriggered_states():
            entry = (state.triggering_window_start(transaction_start), now, False)
            decision = self._check_rule_trip(state, [entry])[0]
            if self._apply_decision(state, decision, now):
                newly_triggered.append(state)
        return newly_triggered

    def _apply_decision(self, state: RuleState, decision, now: Timestamp) -> bool:
        """The exact check's write side: counters, window flag, triggering."""
        state.ts_computations += 1
        self.stats.ts_computations += 1
        self.stats.instants_sampled += decision.instants_sampled
        if decision.window_size == 0:
            self.stats.ts_skipped_empty_window += 1
        else:
            state.had_nonempty_window = True
        if decision.triggered:
            state.mark_triggered(now)
            self.stats.rules_triggered += 1
            return True
        return False

    def forget_incremental_state(self) -> None:
        """Drop every rule's trigger memo (e.g. after rebinding the Event Base).

        The memo records how much of a specific EB log a check has seen; a new
        log invalidates that bookkeeping even if the rule state survives — and
        so do the compiled checks' pre-resolved index handles.
        """
        for state in self.rule_table.states():
            state.trigger_memo.clear()
            state.invalidate_compiled()
