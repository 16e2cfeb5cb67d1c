"""Scale-out subsystem: sharded trigger planning and pipelined ingestion.

The paper's Event Handler / Trigger Support split (§5) is the seam this
package scales along:

* :mod:`repro.cluster.sharding` — :class:`ShardedRuleTable`, the Rule Table
  with its inverted subscription index partitioned across N shards by
  ``(operation, class)`` bucket hash, with per-shard sub-signature plan
  caches;
* :mod:`repro.cluster.coordinator` — :class:`ShardCoordinator`, the Trigger
  Support that fans each block's type signature out to the owning shards,
  runs the checks in one of two execution modes (inline serial over the one
  Event Base, or the process worker pool) and applies the decisions back
  deterministically;
* :mod:`repro.cluster.process_pool` — :class:`ProcessShardPool`, the
  long-lived worker processes that own their shard's expressions and
  incremental memos plus a mirror Event Base grown from per-block window
  snapshots — the first execution mode where trigger checking uses multiple
  cores;
* :mod:`repro.cluster.streaming` — :class:`StreamIngestor`, the bounded-queue
  pipeline that decouples producers from rule evaluation.  Each consumer
  wake-up drains the queued backlog without blocking, so trips size
  themselves: one block while the stream is idle, up to the one knob
  ``max_batch_blocks`` / ``$CHIMERA_BATCH_BLOCKS`` under a backlog.

See PERFORMANCE.md ("Sharded trigger planning", "Multi-process shard
workers" and "Batched worker dispatch") for the architecture notes and
BENCH_PR3.json / BENCH_PR4.json / BENCH_PR5.json
(``benchmarks/bench_x8_shard_scaling.py`` /
``benchmarks/bench_x9_process_scaling.py`` /
``benchmarks/bench_x10_dispatch_amortization.py``) for numbers.
"""

from repro.cluster.coordinator import (
    ShardCoordinator, ShardCoordinatorStats, ShardedPlan
)
from repro.cluster.process_pool import ProcessShardPool
from repro.cluster.sharding import (
    DEFAULT_PLAN_CACHE_SIZE,
    DEFAULT_SHARD_ENV_VAR,
    DEFAULT_SHARD_MODE_ENV_VAR,
    SHARD_MODES,
    ShardedRuleTable,
    default_shard_count,
    default_shard_mode,
    home_shard,
    shard_of_bucket,
)
from repro.cluster.streaming import (
    DEFAULT_BATCH_ENV_VAR,
    StreamIngestStats,
    StreamIngestor,
    default_batch_blocks,
)

__all__ = [
    "DEFAULT_BATCH_ENV_VAR",
    "DEFAULT_PLAN_CACHE_SIZE",
    "DEFAULT_SHARD_ENV_VAR",
    "DEFAULT_SHARD_MODE_ENV_VAR",
    "SHARD_MODES",
    "ProcessShardPool",
    "ShardCoordinator",
    "ShardCoordinatorStats",
    "ShardedPlan",
    "ShardedRuleTable",
    "StreamIngestStats",
    "StreamIngestor",
    "default_batch_blocks",
    "default_shard_count",
    "default_shard_mode",
    "home_shard",
    "shard_of_bucket",
]
