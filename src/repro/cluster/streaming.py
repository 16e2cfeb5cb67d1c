"""Pipelined stream ingestion: producers never block on rule evaluation.

``RuleEngine.run_stream_block`` is synchronous: the caller that produced a
batch of occurrences waits for the whole trigger-check / consideration loop
before it can produce the next one.  :class:`StreamIngestor` decouples the
two with a bounded hand-off queue and a consumer thread:

* the producer side (:meth:`submit`) validates nothing and computes only the
  batch's **type signature** — cheap, and doing it producer-side overlaps
  signature computation with the consumer's rule evaluation, so the signature
  is never derived on the hot checking thread (it is handed through
  ``run_stream_block`` to :meth:`EventHandler.flush_block`);
* the consumer thread drains the queue into ``run_stream_block`` one block at
  a time, preserving submission order — the Event Base stays an append-
  ordered log and each batch remains one execution block;
* the queue bound is the back-pressure contract: a producer only ever waits
  for *queue space* (the consumer lagging ``max_pending`` whole blocks), not
  for any individual rule evaluation.

Since PR 5 the consumer additionally **coalesces**: when it wakes up with a
backlog it drains up to ``max_batch_blocks`` queued blocks and hands them to
``RuleEngine.run_stream_blocks`` as one micro-batch — each submitted block
stays its own execution block (own flush, own type signature, own trigger
check at its own ``now``), but the trigger checks for the whole batch run as
**one dispatch trip**, which is what amortizes the per-block worker round
trip of the process shard mode (see PERFORMANCE.md "Batched worker
dispatch").  ``max_batch_blocks=1`` (the default) is byte-identical to the
PR-3 behavior; the ambient default can be raised with
``$CHIMERA_BATCH_BLOCKS``.

The drain is the whole trip-sizing policy, and it adapts by itself: each
wake-up takes what is already queued without blocking, so an idle stream
(the consumer keeping up) gets trips of one block at block-at-a-time
latency, while a backlog is caught up in trips of up to ``max_batch_blocks``.
A closed-loop controller that widened and shrank the bound on top of this
was measured against the plain drain and removed: it never beat the static
bound (PERFORMANCE.md, "Adaptive dispatch: removed").

Correctness leans on the lag tolerance the incremental trigger memo already
has: ``TriggerMemo.seen_events`` records how much of the log a check had
seen, so checks that run behind the producer's appends sample exactly the
instants they missed (see ``repro/core/triggering.py``).  A failed block
poisons the ingestor — the error is re-raised to the producer on the next
:meth:`submit`, :meth:`flush` or :meth:`close`, exactly once, and later
queued blocks are dropped (and counted) rather than applied on top of a
broken state; a failure inside a coalesced micro-batch counts the whole
batch as dropped.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.events.event import EventOccurrence
from repro.obs.registry import COUNT_BUCKETS, MetricsRegistry
from repro.obs.stats import MergeableStats

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a package cycle)
    from repro.rules.executor import RuleEngine

__all__ = [
    "DEFAULT_BATCH_ENV_VAR",
    "default_batch_blocks",
    "StreamIngestStats",
    "StreamIngestor",
]

#: Environment variable consulted when ``max_batch_blocks`` is not given
#: explicitly (mirrors ``$CHIMERA_SHARDS`` / ``$CHIMERA_SHARD_MODE``).
DEFAULT_BATCH_ENV_VAR = "CHIMERA_BATCH_BLOCKS"

_SENTINEL = None


def default_batch_blocks() -> int:
    """The ambient micro-batch bound: ``$CHIMERA_BATCH_BLOCKS`` or 1."""
    raw = os.environ.get(DEFAULT_BATCH_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass
class StreamIngestStats(MergeableStats):
    """Producer/consumer accounting for one ingestor lifetime.

    ``as_dict()``/``merge()`` follow the shared stats protocol; the two
    ``max_*`` fields are high-water marks and merge via ``max``.
    """

    submitted_blocks: int = 0
    submitted_events: int = 0
    processed_blocks: int = 0
    processed_events: int = 0
    dropped_blocks: int = 0
    #: Deepest backlog observed at submit time (bounded by ``max_pending``).
    max_queue_depth: int = 0
    #: Consumer wake-ups that reached the engine (one per micro-batch); with
    #: coalescing, ``processed_blocks / coalesced_trips`` is the realized
    #: blocks-per-trip amortization.
    coalesced_trips: int = 0
    #: Largest micro-batch one wake-up drained (bounded by
    #: ``max_batch_blocks``).
    max_blocks_per_trip: int = 0


class StreamIngestor:
    """Bounded-queue pipeline feeding ``RuleEngine.run_stream_block``.

    Use as a context manager (or call :meth:`start` / :meth:`close`)::

        with StreamIngestor(engine, max_pending=32) as ingestor:
            for block in source:
                ingestor.submit(block)   # blocks only on queue space
        # exit waits for the queue to drain and re-raises consumer errors

    The engine must not be driven concurrently from elsewhere while the
    ingestor is open: the consumer thread is the single writer of the
    engine's block pipeline (the same single-writer discipline the paper's
    Block Executor has).
    """

    def __init__(
        self,
        engine: "RuleEngine",
        max_pending: int = 64,
        bulk: bool = True,
        max_batch_blocks: int | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive (got {max_pending})")
        if max_batch_blocks is None:
            max_batch_blocks = default_batch_blocks()
        if max_batch_blocks < 1:
            raise ValueError(
                f"max_batch_blocks must be positive (got {max_batch_blocks})"
            )
        self.engine = engine
        self.bulk = bulk
        #: Upper bound on how many queued blocks one consumer wake-up drains
        #: into a single ``run_stream_blocks`` micro-batch.  1 = the PR-3
        #: block-at-a-time behavior, byte for byte.
        self.max_batch_blocks = max_batch_blocks
        self.stats = StreamIngestStats()
        # Ride on the engine's registry when it has one (one snapshot for the
        # whole pipeline); otherwise a disabled stand-in so the probes below
        # are unconditional no-ops.
        self.metrics: MetricsRegistry = (
            getattr(engine, "metrics", None) or MetricsRegistry(enabled=False)
        )
        self.metrics.register_source("ingest", self.stats)
        self._queue_gauge = self.metrics.gauge("ingest.queue_depth")
        self._coalesce_hist = self.metrics.histogram(
            "ingest.coalesce_blocks", bounds=COUNT_BUCKETS
        )
        #: Realized micro-batch sizes, in trip order.  Trip sizing moves
        #: considerations to trip boundaries, so equivalence harnesses replay
        #: exactly this partition on an unsharded reference engine.
        self.trip_sizes: list[int] = []
        self._queue: queue.Queue = queue.Queue(maxsize=max_pending)
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        #: Latched on the first consumer error: the engine state may be
        #: broken mid-block, so the ingestor refuses further work for good
        #: (the error itself is delivered to the producer exactly once).
        self._failed = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "StreamIngestor":
        """Spawn the consumer thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._consume, name="stream-ingest", daemon=True
            )
            self._thread.start()
        return self

    def __enter__(self) -> "StreamIngestor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # Propagate the producer's own exception over drain errors.
        self.close(wait=exc_type is None)

    def close(self, wait: bool = True) -> None:
        """Stop the consumer; with ``wait`` drain the queue first.

        Re-raises the first consumer error (also when ``wait=False``).
        """
        if not self._closed:
            self._closed = True
            if self._thread is not None:
                if not wait:
                    # Drop whatever has not started processing yet.
                    while True:
                        try:
                            self._queue.get_nowait()
                        except queue.Empty:
                            break
                        self.stats.dropped_blocks += 1
                        self._queue.task_done()
                self._queue.put(_SENTINEL)
                self._thread.join()
                self._thread = None
        self._raise_pending_error()

    # -- producer side -----------------------------------------------------------
    def submit(self, occurrences: Sequence[EventOccurrence]) -> None:
        """Queue one batch as a future execution block.

        Blocks only when the consumer is ``max_pending`` blocks behind.  The
        batch's type signature is computed here, on the producer's thread.
        """
        self._raise_pending_error()
        if self._closed or self._failed:
            raise RuntimeError(
                "StreamIngestor has failed"
                if self._failed
                else "StreamIngestor is closed"
            )
        if self._thread is None:
            self.start()
        batch = tuple(occurrences)
        signature = frozenset(occurrence.event_type for occurrence in batch)
        depth = self._queue.qsize()
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, depth)
        self._queue_gauge.set(depth)
        self._queue.put((batch, signature))
        self.stats.submitted_blocks += 1
        self.stats.submitted_events += len(batch)

    def flush(self) -> None:
        """Wait until every submitted block has been processed (or failed)."""
        self._queue.join()
        self._raise_pending_error()

    # -- consumer side -----------------------------------------------------------
    def _consume(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._queue.task_done()
                return
            # Coalesce: drain whatever backlog is already queued (up to the
            # micro-batch bound) without blocking — an idle stream keeps
            # block-at-a-time latency, a lagging consumer catches up in
            # batched dispatch trips.  The drain is the whole trip-sizing
            # policy: the trip is as wide as the backlog, capped by the knob.
            items = [item]
            saw_sentinel = False
            while len(items) < self.max_batch_blocks:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SENTINEL:
                    saw_sentinel = True
                    break
                items.append(extra)
            try:
                self._process_trip(items)
            finally:
                for _ in items:
                    self._queue.task_done()
                if saw_sentinel:
                    self._queue.task_done()
            if saw_sentinel:
                return

    def _process_trip(self, items: list[tuple[tuple, frozenset]]) -> None:
        """Run one drained micro-batch; block boundaries are preserved."""
        if self._failed:
            self.stats.dropped_blocks += len(items)
            return
        blocks = [batch for batch, _ in items]
        signatures = [signature for _, signature in items]
        try:
            if len(items) == 1:
                # The PR-3 path, byte for byte (max_batch_blocks=1 always
                # lands here; larger bounds land here whenever the queue was
                # drained, i.e. the consumer is keeping up).
                self.engine.run_stream_block(
                    blocks[0], bulk=self.bulk, type_signature=signatures[0]
                )
            else:
                self.engine.run_stream_blocks(
                    blocks, bulk=self.bulk, type_signatures=signatures
                )
        except BaseException as error:  # noqa: BLE001 - handed to producer
            self._error = error
            self._failed = True
            self.stats.dropped_blocks += len(items)
        else:
            self.stats.processed_blocks += len(items)
            self.stats.processed_events += sum(len(batch) for batch in blocks)
            self.trip_sizes.append(len(items))
            self.stats.coalesced_trips += 1
            self.stats.max_blocks_per_trip = max(
                self.stats.max_blocks_per_trip, len(items)
            )
            self._coalesce_hist.observe(len(items))

    def _raise_pending_error(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise RuntimeError("stream ingestion failed in the consumer") from error
