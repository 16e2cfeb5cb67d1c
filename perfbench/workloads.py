"""The benchmark's workloads: inputs from a seed, engines, the oracle, one op.

Every workload is a closed loop with one caller and one op in flight, which
is Chimera's own execution model: a block's reactive processing finishes
before the next block runs.  Ops are grouped in *epochs*, each one the
transaction length of an existing harness of this repository:

* ``stream-*``: an epoch is one transaction of 4 + 40 blocks, the defaults
  of ``measure_process_scaling`` (x9), whose stream these workloads replay.
  As in x9, the first 4 blocks are *lead* ops: they absorb each rule's
  first, exhaustive check of the transaction and are checked against the
  oracle but never timed.
* ``txn-stock``: an epoch is a freshly built stock database followed by 3
  transactions, the ``DAYS`` of the x4 bench and the ``stock-demo`` default.

The seed draws ``epochs`` distinct epoch inputs; epoch ``n`` of a run
replays input ``n % epochs`` from its start state (a fresh Event Base, or a
fresh stock database).  So:

* state that grows with the op count (the Event Base, the object store, the
  consideration records) is bounded by the epoch length, never by how long
  the run measures;
* the oracle runs every distinct epoch once per run, and every measured op
  is compared with the oracle's op at the same epoch and index.

The engine sees only the generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import functools
import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.events.event_base import EventBase
from repro.oodb.database import ChimeraDatabase
from repro.workloads import stock
from repro.workloads.rule_scaling import build_scaling_universe
from repro.workloads.shard_scaling import build_shard_rules, build_shaped_blocks

#: The oracle's knobs: the unsharded, interpreted single-table engine.
ORACLE_KNOBS = {"shards": 0, "use_compiled_checks": False}


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``TOY`` is the self-test's."""

    stream_rules: int = 6000
    stream_population: int = 2000
    #: x9's ``warmup_blocks`` and ``blocks``: the lead and timed blocks.
    stream_lead_blocks: int = 4
    stream_epoch_blocks: int = 40
    stock_items: int = 200
    stock_shelf_products: int = 100
    stock_operations: int = 50
    #: x4's ``DAYS``: transactions per freshly built stock database.
    stock_epoch_txns: int = 3
    stock_warmup_txns: int = 2
    #: Distinct epoch inputs per seed (440 blocks, 30 transactions).
    epochs: int = 10


FULL = Scale()
TOY = Scale(
    stream_rules=300,
    stream_population=40,
    stream_lead_blocks=2,
    stream_epoch_blocks=8,
    stock_items=20,
    stock_shelf_products=10,
    stock_operations=20,
    stock_epoch_txns=2,
    stock_warmup_txns=1,
    epochs=2,
)


def consideration_rows(records) -> list[tuple]:
    """Consideration records as comparable tuples."""
    return [
        (r.rule_name, r.instant, r.bindings, r.executed, r.phase) for r in records
    ]


def store_digest(db: ChimeraDatabase) -> str:
    """A digest of every object in the store, deleted ones included."""
    rows = sorted(
        (
            str(obj.oid),
            obj.class_name,
            repr(sorted((name, repr(value)) for name, value in obj.attributes.items())),
            obj.created_at,
            obj.modified_at,
            obj.deleted,
        )
        for obj in db.store.all_objects(include_deleted=True)
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class Session:
    """One engine configuration driven through epochs of ops.

    ``epoch`` is the index of the current epoch's input, which the oracle's
    records are keyed by.  The first ``lead_ops`` ops of every epoch run and
    are checked but are not timed.  ``on_database``, when set, is called
    with every database the session rebuilds at an epoch start, so a traced
    run can instrument it before any op touches it.
    """

    epoch_ops: int
    lead_ops: int = 0
    warmup_ops: int
    epoch: int = -1
    on_database: Callable[[ChimeraDatabase], None] | None = None

    def start_epoch(self) -> None:
        """Reset to the next epoch's start state (not an op; never timed)."""
        raise NotImplementedError

    def run_op(self, index: int) -> None:
        """Op ``index`` of the current epoch (the timed part)."""
        raise NotImplementedError

    def op_rows(self) -> list[tuple]:
        """The consideration rows the last op produced."""
        raise NotImplementedError

    def digest(self) -> str | None:
        """The store digest after the last op, where the workload has one."""
        return None

    @property
    def database(self) -> ChimeraDatabase | None:
        """The database the next op runs on."""
        raise NotImplementedError

    def close(self) -> None:
        if self.database is not None:
            self.database.close()


# ---------------------------------------------------------------------------
# stream-single / stream-sharded
# ---------------------------------------------------------------------------


class StreamSession(Session):
    """Blocks through ``RuleEngine.run_stream_block``; an op is one block."""

    def __init__(self, workload: "StreamWorkload", knobs: dict) -> None:
        self.workload = workload
        self.db = ChimeraDatabase(**knobs)
        for rule in workload.rules:
            self.db.define_rule(rule)
        scale = workload.scale
        self.epoch_ops = scale.stream_lead_blocks + scale.stream_epoch_blocks
        self.lead_ops = scale.stream_lead_blocks
        # Set-up ships the definitions and runs the first exhaustive checks.
        self.warmup_ops = scale.stream_lead_blocks
        self._started = 0
        self._eid_base = 0
        self._blocks: list = []
        self._offset = 0
        self._mark = 0

    def start_epoch(self) -> None:
        engine = self.db.engine
        self.epoch = self._started % len(self.workload.epochs)
        self._started += 1
        # A transaction boundary: a fresh Event Base, rule states reset to
        # the clock and the consideration records of the last epoch dropped.
        # Time never runs backwards, so the epoch's blocks are re-stamped
        # after the clock; records are compared relative to it.
        engine.rebind_event_base(EventBase())
        engine.begin_transaction()
        engine.considerations.clear()
        self._offset = self.db.clock.now()
        eid_base = self._eid_base
        self._blocks = [
            [
                replace(
                    occurrence,
                    eid=occurrence.eid + eid_base,
                    timestamp=occurrence.timestamp + self._offset,
                )
                for occurrence in block
            ]
            for block in self.workload.epochs[self.epoch]
        ]
        self._eid_base += sum(len(block) for block in self._blocks)

    def run_op(self, index: int) -> None:
        self._mark = len(self.db.engine.considerations)
        self.db.engine.run_stream_block(self._blocks[index])

    def op_rows(self) -> list[tuple]:
        offset = self._offset
        return [
            (name, instant - offset, bindings, executed, phase)
            for name, instant, bindings, executed, phase in consideration_rows(
                self.db.engine.considerations[self._mark :]
            )
        ]

    @property
    def database(self) -> ChimeraDatabase:
        return self.db


#: Seeds the stream application: its rules and its pool of block shapes.
APPLICATION_SEED = 7


class StreamWorkload:
    """The x9/x14 check-heavy stream over ``build_shard_rules`` rules.

    The application is fixed: the rules and a population of blocks drawn
    from its 24 recurring shapes.  The seed draws the traffic, which is the
    blocks of every epoch, taken from that population with replacement.
    When the seed drew the rules and the shape pool too, the instants ``ts``
    sampled per block spread between seeds by 7% (mean) and 18% (p99
    block).  With only the traffic seeded, they spread by 1% and 4%.
    """

    #: Every rule's condition is TRUE_CONDITION and its action NO_ACTION.
    trivial_conditions = True

    def __init__(self, seed: int, scale: Scale, knobs: dict) -> None:
        self.scale = scale
        self.knobs = knobs
        self.expects_cluster = knobs.get("shards", 0) > 0
        universe = build_scaling_universe(scale.stream_rules)
        self.rules = build_shard_rules(
            scale.stream_rules, universe, seed=APPLICATION_SEED + 53
        )
        population = build_shaped_blocks(
            universe,
            scale.stream_population,
            events_per_block=24,
            shapes=24,
            types_per_shape=(8, 14),
            seed=APPLICATION_SEED,
        )
        rng = random.Random(seed)
        length = scale.stream_lead_blocks + scale.stream_epoch_blocks
        self.epochs = []
        for _ in range(scale.epochs):
            blocks = []
            eid = 1
            for stamp in range(1, length + 1):
                block = population[rng.randrange(len(population))]
                blocks.append(
                    [
                        replace(occurrence, eid=eid + offset, timestamp=stamp)
                        for offset, occurrence in enumerate(block)
                    ]
                )
                eid += len(block)
            self.epochs.append(blocks)

    def open(self, oracle: bool = False) -> Session:
        return StreamSession(self, ORACLE_KNOBS if oracle else self.knobs)


# ---------------------------------------------------------------------------
# txn-stock
# ---------------------------------------------------------------------------


@contextmanager
def _stock_engine_knobs(knobs: dict) -> Iterator[None]:
    """Build ``StockScenario`` databases with ``knobs``.

    The scenario constructs its own database; an empty ``knobs`` leaves the
    engine's defaults alone, the oracle's knobs pin the reference engine.
    """
    if not knobs:
        yield
        return
    original = stock.ChimeraDatabase
    stock.ChimeraDatabase = functools.partial(original, **knobs)
    try:
        yield
    finally:
        stock.ChimeraDatabase = original


class StockSession(Session):
    """The paper's stock scenario; an op is one ``run_day`` transaction."""

    def __init__(self, workload: "StockWorkload", knobs: dict) -> None:
        self.workload = workload
        self.knobs = knobs
        self.epoch_ops = workload.scale.stock_epoch_txns
        self.warmup_ops = workload.scale.stock_warmup_txns
        self.scenario = None
        self._started = 0
        self._mark = 0

    def start_epoch(self) -> None:
        if self.scenario is not None:
            self.scenario.database.close()
        self.epoch = self._started % len(self.workload.epoch_seeds)
        self._started += 1
        scale = self.workload.scale
        with _stock_engine_knobs(self.knobs):
            self.scenario = stock.StockScenario(
                items=scale.stock_items,
                shelf_products=scale.stock_shelf_products,
                seed=self.workload.epoch_seeds[self.epoch],
            )
        if self.on_database is not None:
            self.on_database(self.scenario.database)

    def run_op(self, index: int) -> None:
        self._mark = len(self.scenario.database.considerations)
        self.scenario.run_day(self.workload.scale.stock_operations)

    def op_rows(self) -> list[tuple]:
        return consideration_rows(self.scenario.database.considerations[self._mark :])

    def digest(self) -> str | None:
        return store_digest(self.scenario.database)

    @property
    def database(self) -> ChimeraDatabase | None:
        return None if self.scenario is None else self.scenario.database


class StockWorkload:
    """``StockScenario`` with the three paper rules, 50-operation transactions.

    The seed draws one scenario seed per distinct epoch: the scenario's own
    generator draws each transaction's operations.
    """

    trivial_conditions = False
    expects_cluster = False

    def __init__(self, seed: int, scale: Scale) -> None:
        self.scale = scale
        rng = random.Random(seed)
        self.epoch_seeds = [rng.randrange(2**31) for _ in range(scale.epochs)]

    def open(self, oracle: bool = False) -> Session:
        return StockSession(self, ORACLE_KNOBS if oracle else {})


# ---------------------------------------------------------------------------
# The registry and the oracle
# ---------------------------------------------------------------------------

#: name -> factory(seed, scale).  The knobs each workload names are the only
#: ones passed; every other engine setting stays at its default.
WORKLOADS: dict[str, Callable] = {
    "stream-single": lambda seed, scale: StreamWorkload(seed, scale, {"shards": 0}),
    "stream-sharded": lambda seed, scale: StreamWorkload(
        seed, scale, {"shards": 2, "shard_mode": "processes"}
    ),
    "txn-stock": StockWorkload,
}


@dataclass
class OracleEpochs:
    """The oracle's consideration rows and store digests, by epoch and op."""

    rows: list[list[list[tuple]]]
    digests: list[list[str | None]]


def record_oracle(workload) -> OracleEpochs:
    """Run every distinct epoch on the oracle engine; record each op's output."""
    session = workload.open(oracle=True)
    oracle = OracleEpochs([], [])
    try:
        for _ in range(workload.scale.epochs):
            session.start_epoch()
            rows: list[list[tuple]] = []
            digests: list[str | None] = []
            for index in range(session.epoch_ops):
                session.run_op(index)
                rows.append(session.op_rows())
                digests.append(session.digest())
            oracle.rows.append(rows)
            oracle.digests.append(digests)
        return oracle
    finally:
        session.close()
