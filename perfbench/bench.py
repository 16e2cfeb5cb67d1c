"""One benchmark run: oracle, set-up, the measured phase and the traced phase.

A run of workload ``w`` with seed ``s``:

1. records the oracle's epochs (:func:`perfbench.workloads.record_oracle`)
   in a forked child, so the oracle's heap never counts as the program's;
2. sets the measured engine up several times (build the database, define
   the rules, spawn workers, run the warm-up ops): every set-up but the
   last in a forked child, the last in this process, which keeps it;
3. runs the untraced phase for ``seconds`` and derives the end-to-end
   metrics from it;
4. with ``trace``, runs a second phase of the same length with the span
   recorder installed and derives the per-layer metrics from that one.

Every op of every phase, warm-up and lead ops included, is compared with
the oracle's op at the same epoch and index; ``txn-stock`` also compares
the store digest after the last op of each epoch.  An op fails when it
raises or differs.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import tracing
from perfbench.workloads import FULL, WORKLOADS, Scale, record_oracle

#: Set-ups per run, ``setup_s`` being their median: at least the minimum,
#: more while their sum is under the budget, at most the maximum.
SETUP_MIN, SETUP_BUDGET_S, SETUP_MAX = 3, 2.0, 15

#: The metric names and units are the ones ``BENCHMARK.json`` declares.
SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: End-to-end metric -> unit, as ``--trace 0`` reports them.
END_TO_END_UNITS = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
#: Per-layer metric -> unit, as ``--trace 1`` reports them.  Times and counts
#: are means per traced op.  The two latency percentiles come from the
#: untraced phase.  They spread too much between runs on a shared host to
#: carry a regression bound (see perfbench/README.md), so they are reported
#: there, and printed on every run's summary with their sample count.
PER_LAYER_UNITS = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
#: Computed by every untraced phase, printed by every run, not bounded.
UNBOUNDED_END_TO_END = ("latency_p50_us", "latency_p99_us")

#: Span name -> per-layer time metric (self time per op).
SPAN_METRIC = {
    "core.check": "core.check_us",
    "rules.plan": "rules.plan_us",
    "rules.check": "rules.check_self_us",
    "rules.select": "rules.select_us",
    "rules.condition": "rules.condition_us",
    "rules.action": "rules.action_us",
    "events.ingest": "events.ingest_us",
    "cluster.evaluate": "cluster.evaluate_us",
    "oodb.operation": "oodb.operation_us",
    "oodb.snapshot": "oodb.snapshot_us",
    "oodb.commit": "oodb.commit_us",
    "runtime.gc": "runtime.gc_us",
    tracing.ROOT: "residual_us",
}

#: Trigger Support counters read around every traced op.
TRIGGER_COUNTERS = (
    "ts_computations",
    "ts_skipped_by_filter",
    "ts_skipped_empty_window",
    "instants_sampled",
    "rules_triggered",
    "rules_routed",
    "rules_bypassed_by_index",
)

#: Process-pool counters summed per epoch -> per-layer metric (and scale).
POOL_COUNTERS = {
    "worker_round_trips": ("cluster.round_trips", 1.0),
    "bytes_shipped": ("cluster.bytes_shipped", 1.0),
    "bytes_received": ("cluster.bytes_received", 1.0),
    "reconnects": ("cluster.reconnects", 1.0),
    "encode_ms": ("cluster.encode_us", 1e3),
    "delta_encode_ms": ("cluster.delta_encode_us", 1e3),
}


# ---------------------------------------------------------------------------
# Process accounting (the coordinator and every child it started)
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int | str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:  # the process ended between listing and reading
        return None
    return text[text.rindex(")") + 2 :].split()


def child_pids() -> list[int]:
    """Processes whose parent is this one (shard workers and helpers)."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(entry)
            if fields is not None and fields[1] == me:
                children.append(int(entry))
    return children


def children_cpu_s() -> dict[int, float]:
    usage = {}
    for pid in child_pids():
        fields = _stat(pid)
        if fields is not None:
            usage[pid] = (int(fields[11]) + int(fields[12])) / _TICK
    return usage


def tree_pss_bytes() -> int:
    """Proportional set size of this process and its children.

    PSS splits every shared page between the processes that map it, so the
    pages a forked worker still shares with the coordinator count once.
    """
    total = 0
    for pid in [os.getpid(), *child_pids()]:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:  # the process ended between listing and reading
            pass
    return total


def in_child(function, *args):
    """``function(*args)`` in a forked child process; returns its result.

    Whatever the call builds lives and dies in the child, so it neither
    stays in this process's heap nor counts in its memory figures.  The
    result travels back pickled.  Forking is safe only while this process
    runs one thread, which holds before the kept set-up starts any worker.
    """
    if threading.active_count() != 1:
        raise RuntimeError("cannot fork a child: threads are running")
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, function(*args))
            except Exception:
                payload = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as handle:
                pickle.dump(payload, handle)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as handle:
        data = handle.read()
    _, status = os.waitpid(pid, 0)
    if status or not data:
        raise RuntimeError(f"{function.__name__} ended its child with {status}")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"{function.__name__} raised in a child:\n{value}")
    return value


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# The oracle check
# ---------------------------------------------------------------------------


@dataclass
class Checker:
    """Counts attempted and failed ops against the oracle's epoch."""

    oracle: object
    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def op(self, session, index: int, error: BaseException | None) -> list[tuple]:
        self.attempted += 1
        where = f"epoch {session.epoch} op {index}"
        if error is not None:
            self.fail(f"{where} raised {error!r}")
            return []
        rows = session.op_rows()
        if rows != self.oracle.rows[session.epoch][index]:
            self.fail(f"{where}: considerations differ from the oracle's")
        return rows

    def epoch_end(self, session, last_index: int) -> None:
        expected = self.oracle.digests[session.epoch][last_index]
        if expected is not None and session.digest() != expected:
            self.fail(
                f"epoch {session.epoch}: store digest after op {last_index} "
                "differs from the oracle's"
            )

    def run_checked(self, session, index: int) -> tuple[list[tuple], Exception | None]:
        """An untimed op: run it and check it; returns its rows and error."""
        error = None
        try:
            session.run_op(index)
        except Exception as exc:  # counted like any failed op
            error = exc
        return self.op(session, index, error), error


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """What one measured (or traced) phase observed."""

    walls_ns: list[int] = field(default_factory=list)
    coordinator_cpu_ns: int = 0
    workers_cpu_s: float = 0.0
    peak_pss_bytes: int = 0
    pool: dict[str, float] = field(default_factory=dict)
    worker_check_s: float = 0.0
    #: Traced phase only: per op, counter deltas and sizes, and the op wall
    #: as a clock read outside the recorder saw it.
    counters: list[dict[str, int]] = field(default_factory=list)
    brackets_ns: list[int] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.walls_ns)


def _process_pool(db):
    return getattr(db.engine.trigger_support, "process_pool", None)


def _cluster_snapshot(db) -> tuple[dict, float]:
    """Pool counters and the summed worker check time of one engine."""
    pool = _process_pool(db)
    if pool is None:
        return {}, 0.0
    stats = pool.transport_stats()
    histogram = db.metrics_snapshot()["histograms"].get("worker.check", {})
    return {key: stats[key] for key in POOL_COUNTERS}, histogram.get("sum", 0.0)


def _op_counters(db) -> dict[str, int]:
    stats = db.engine.trigger_support.stats
    counters = {name: getattr(stats, name) for name in TRIGGER_COUNTERS}
    counters["considerations"] = len(db.engine.considerations)
    return counters


def run_phase(
    session,
    checker: Checker,
    seconds: float,
    max_ops: int | None = None,
    recorder: tracing.SpanRecorder | None = None,
) -> Phase:
    """Closed loop over epochs until ``seconds`` (or ``max_ops``) are reached.

    Only the timed ops of an epoch are accounted: their wall and coordinator
    CPU per op, and the workers' CPU, the pool counters and the worker check
    time from the end of the epoch's lead ops to the end of the epoch.
    """
    phase = Phase()
    started = time.perf_counter()
    clock = time.perf_counter_ns
    cpu_clock = time.process_time_ns
    done = False
    while not done:
        try:
            session.start_epoch()
        except Exception as exc:  # a broken engine ends the phase, loudly
            checker.attempted += 1
            checker.fail(f"epoch start raised {exc!r}")
            break
        db = session.database
        error = None
        for index in range(session.lead_ops):
            _, error = checker.run_checked(session, index)
            if error is not None:
                break
        if error is not None:
            done = time.perf_counter() - started >= seconds
            continue
        workers_before = children_cpu_s()
        pool_before, check_before = _cluster_snapshot(db)
        last = -1
        for index in range(session.lead_ops, session.epoch_ops):
            if recorder is not None:
                before = _op_counters(db)
                event_base = db.engine.event_base
                events_before = len(event_base)
            error = None
            cpu0 = cpu_clock()
            if recorder is not None:
                bracket = clock()
                recorder.begin_op(phase.ops)
            else:
                t0 = clock()
            try:
                session.run_op(index)
            except Exception as exc:  # counted as a failed op, then a new epoch
                error = exc
            if recorder is not None:
                wall = recorder.end_op()
                phase.brackets_ns.append(clock() - bracket)
            else:
                wall = clock() - t0
            phase.coordinator_cpu_ns += cpu_clock() - cpu0
            phase.walls_ns.append(wall)
            rows = checker.op(session, index, error)
            if recorder is not None:
                after = _op_counters(db)
                delta = {name: after[name] - before[name] for name in after}
                current = db.engine.event_base
                delta["stored"] = len(current) - (
                    events_before if current is event_base else 0
                )
                delta["executed"] = sum(1 for row in rows if row[3])
                delta["objects"] = db.count()
                delta["index"] = index
                phase.counters.append(delta)
            last = index
            done = time.perf_counter() - started >= seconds or (
                max_ops is not None and phase.ops >= max_ops
            )
            if done or error is not None:
                break
        # The Event Base and the store are largest at the epoch's end.
        phase.peak_pss_bytes = max(phase.peak_pss_bytes, tree_pss_bytes())
        workers_after = children_cpu_s()
        phase.workers_cpu_s += sum(
            value - workers_before.get(pid, 0.0) for pid, value in workers_after.items()
        )
        pool_after, check_after = _cluster_snapshot(db)
        for key, value in pool_after.items():
            phase.pool[key] = phase.pool.get(key, 0.0) + value - pool_before.get(key, 0)
        phase.worker_check_s += check_after - check_before
        if last >= 0 and error is None:
            checker.epoch_end(session, last)
    return phase


def set_up(workload, checker: Checker, time_spawn: bool):
    """Build, define, spawn and warm up; returns (session, seconds, spawn seconds)."""
    from repro.cluster.process_pool import ProcessShardPool

    spawn = [0.0]
    original_init = ProcessShardPool.__init__
    if time_spawn:

        def timed_init(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original_init(self, *args, **kwargs)
            finally:
                spawn[0] += time.perf_counter() - t0

        ProcessShardPool.__init__ = timed_init
    try:
        started = time.perf_counter()
        session = workload.open()
        session.start_epoch()
        for index in range(session.warmup_ops):
            checker.run_checked(session, index)
        elapsed = time.perf_counter() - started
    finally:
        ProcessShardPool.__init__ = original_init
    return session, elapsed, spawn[0]


def _discarded_set_up(workload, checker: Checker, time_spawn: bool) -> tuple:
    """One set-up whose session is closed again (run in a child).

    The collection first writes to every tracked object's header, so the
    child copies the pages it shares with its parent before the timer
    starts, not during the set-up.
    """
    gc.collect()
    session, elapsed, spawn = set_up(workload, checker, time_spawn)
    session.close()
    return elapsed, spawn, checker.attempted, checker.failed, checker.first_failure


def set_up_repeatedly(workload, checker: Checker, time_spawn: bool):
    """Set-ups in forked children, then one kept in this process.

    Every set-up starts from the same state of this process, so the samples
    are alike; returns (session, set-up seconds, spawn seconds).
    """
    setups, spawns = [], []
    while len(setups) < SETUP_MIN - 1 or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX - 1
    ):
        gc.collect()
        elapsed, spawn, attempted, failed, first_failure = in_child(
            _discarded_set_up, workload, Checker(checker.oracle), time_spawn
        )
        setups.append(elapsed)
        spawns.append(spawn)
        checker.attempted += attempted
        checker.failed += failed
        if checker.first_failure is None:
            checker.first_failure = first_failure
    gc.collect()
    session, elapsed, spawn = set_up(workload, checker, time_spawn)
    setups.append(elapsed)
    spawns.append(spawn)
    return session, setups, spawns


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(phase: Phase, setups: list[float]) -> dict[str, float]:
    walls = sorted(phase.walls_ns)
    busy_s = sum(walls) / 1e9
    return {
        "throughput_ops_per_s": phase.ops / busy_s,
        "latency_p50_us": percentile(walls, 0.50) / 1e3,
        "latency_p99_us": percentile(walls, 0.99) / 1e3,
        "cpu_us_per_op": (phase.coordinator_cpu_ns / 1e3 + phase.workers_cpu_s * 1e6)
        / phase.ops,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": phase.peak_pss_bytes / 2**20,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    traced: Phase,
    recorder: tracing.SpanRecorder,
    untraced: dict[str, float],
    defs_shipped: int,
    spawn_s: float,
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of the traced phase, plus the reconciliation record."""
    ops = traced.ops
    by_op = tracing.self_times(recorder)
    walls = tracing.op_walls(recorder)
    totals = {name: 0 for name in SPAN_METRIC}
    worst_gap = 0
    for op, selfs in by_op.items():
        for name, value in selfs.items():
            totals[name] += value
        worst_gap = max(worst_gap, abs(sum(selfs.values()) - walls[op]))
    # The root span against the clock read outside the recorder around it.
    unbracketed = sum(1 for op in range(ops) if walls[op] > traced.brackets_ns[op])
    unspanned = max(traced.brackets_ns[op] - walls[op] for op in range(ops))
    count = {name: sum(c[name] for c in traced.counters) for name in traced.counters[0]}
    metrics: dict[str, float] = {
        metric: totals[name] / 1e3 / ops for name, metric in SPAN_METRIC.items()
    }
    metrics.update(
        {
            "core.ts_computations": count["ts_computations"] / ops,
            "core.ts_skipped": (
                count["ts_skipped_by_filter"] + count["ts_skipped_empty_window"]
            )
            / ops,
            "core.instants_sampled": count["instants_sampled"] / ops,
            "core.trigger_yield": _ratio(
                count["rules_triggered"], count["ts_computations"]
            ),
            "rules.routed": count["rules_routed"] / ops,
            "rules.bypassed": count["rules_bypassed_by_index"] / ops,
            "rules.considered": count["considerations"] / ops,
            "rules.condition_yield": _ratio(count["executed"], count["considerations"]),
            "events.stored": count["stored"] / ops,
            "oodb.objects": count["objects"] / ops,
            "cluster.worker_check_us": traced.worker_check_s * 1e6 / ops,
            "cluster.defs_shipped": defs_shipped,
            "cluster.spawn_s": spawn_s,
            "op_wall_us": sum(traced.walls_ns) / 1e3 / ops,
        }
    )
    for key, (metric, scale) in POOL_COUNTERS.items():
        metrics[metric] = traced.pool.get(key, 0.0) * scale / ops
    metrics["cluster.wire_wait_us"] = (
        metrics["cluster.evaluate_us"] - metrics["cluster.encode_us"]
        if metrics["cluster.evaluate_us"]
        else 0.0
    )
    traced_throughput = ops / (sum(traced.walls_ns) / 1e9)
    metrics["trace_overhead_pct"] = 100.0 * (
        untraced["throughput_ops_per_s"] / traced_throughput - 1.0
    )
    metrics["latency_p50_us"] = untraced["latency_p50_us"]
    metrics["latency_p99_us"] = untraced["latency_p99_us"]
    # The tail: ops at or above the traced phase's p99, by layer self time.
    cut = percentile(sorted(traced.walls_ns), 0.99)
    tail = [op for op in range(ops) if traced.walls_ns[op] >= cut]
    tail_wall = sum(walls[op] for op in tail)
    layer_time = {layer: 0 for layer in tracing.LAYERS}
    residual = 0
    for op in tail:
        for name, value in by_op[op].items():
            if name == tracing.ROOT:
                residual += value
            else:
                layer_time[tracing.LAYER_OF[name]] += value
    metrics["tail.op_us"] = tail_wall / 1e3 / len(tail)
    for layer, value in layer_time.items():
        metrics[f"tail.{layer}_us"] = value / 1e3 / len(tail)
    metrics["tail.residual_us"] = residual / 1e3 / len(tail)
    metrics["tail.ts_computations"] = sum(
        traced.counters[op]["ts_computations"] for op in tail
    ) / len(tail)
    metrics["tail.instants_sampled"] = sum(
        traced.counters[op]["instants_sampled"] for op in tail
    ) / len(tail)
    first_timed = min(counters["index"] for counters in traced.counters)
    metrics["tail.epoch_first_share"] = sum(
        1 for op in tail if traced.counters[op]["index"] == first_timed
    ) / len(tail)
    reconciliation = {
        "ops": ops,
        "tail_ops": len(tail),
        "max_gap_ns": worst_gap,
        "unbracketed_ops": unbracketed,
        "max_unspanned_ns": unspanned,
        "foreign_calls": recorder.foreign_calls,
        "spans": len(recorder),
    }
    return metrics, reconciliation


def structural_checks(workload, metrics: dict, reconciliation: dict) -> list[str]:
    """The bypass predictions and the reconciliation; returns what failed."""
    failures = []
    cluster = {
        name: value for name, value in metrics.items() if name.startswith("cluster.")
    }
    if workload.expects_cluster:
        if not metrics["cluster.round_trips"] > 0:
            failures.append("cluster.round_trips is 0 on a sharded workload")
    else:
        nonzero = sorted(name for name, value in cluster.items() if value != 0)
        if nonzero:
            failures.append(f"cluster metrics not exactly 0: {', '.join(nonzero)}")
    if metrics["rules.considered"] <= 0:
        failures.append("no rule was considered, so rules.condition_yield is undefined")
    elif workload.trivial_conditions:
        if metrics["rules.condition_yield"] != 1.0:
            failures.append("TRUE_CONDITION rules yielded less than every time")
    elif not 0.0 <= metrics["rules.condition_yield"] <= 1.0:
        failures.append("rules.condition_yield outside [0, 1]")
    if reconciliation["max_gap_ns"] != 0:
        failures.append(
            "layer self times plus residual differ from op wall by "
            f"{reconciliation['max_gap_ns']} ns"
        )
    if reconciliation["unbracketed_ops"]:
        failures.append(
            f"{reconciliation['unbracketed_ops']} op spans outlast the clock "
            "read around them"
        )
    if reconciliation["foreign_calls"]:
        failures.append("layer calls ran off the caller's thread")
    return failures


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Scale = FULL,
    max_ops: int | None = None,
    trace_path: Path | None = None,
) -> dict:
    """One benchmark run; returns the full result record."""
    workload = WORKLOADS[name](seed, scale)
    started = time.perf_counter()
    checker = Checker(in_child(record_oracle, workload))
    oracle_s = time.perf_counter() - started

    session, setups, spawns = set_up_repeatedly(workload, checker, time_spawn=trace)
    pool = _process_pool(session.database)
    defs_shipped = pool.transport_stats()["defs_shipped"] if pool is not None else 0

    try:
        gc.collect()
        measured = run_phase(session, checker, seconds, max_ops)
        if not measured.ops:
            raise RuntimeError(f"no op completed: {checker.first_failure}")
        e2e = end_to_end(measured, setups)
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "oracle_s": oracle_s,
            "setup_samples_s": setups,
            "latency_samples": measured.ops,
            "latency_p99_beyond": measured.ops
            - math.ceil(0.99 * measured.ops),
            "end_to_end": e2e,
        }
        if trace:
            recorder = tracing.SpanRecorder()
            instrumentation = tracing.Instrumentation(recorder)
            session.on_database = instrumentation.install
            instrumentation.install_kernel()
            try:
                instrumentation.install(session.database)
                gc.collect()
                traced = run_phase(session, checker, seconds, max_ops, recorder)
                if not traced.ops:
                    raise RuntimeError(f"no op completed: {checker.first_failure}")
            finally:
                session.on_database = None
                instrumentation.remove()
            layers, reconciliation = per_layer(
                traced,
                recorder,
                e2e,
                defs_shipped,
                statistics.median(spawns),
            )
            record["per_layer"] = layers
            record["reconciliation"] = reconciliation
            record["structural_failures"] = structural_checks(
                workload, layers, reconciliation
            )
            if trace_path is not None:
                tracing.write_chrome_trace(
                    recorder, trace_path, {"workload": name, "seed": seed}
                )
    finally:
        session.close()
    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["error_rate"] = checker.failed / checker.attempted
    record["first_failure"] = checker.first_failure
    return record
