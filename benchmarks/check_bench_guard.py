"""Bench regression gate: re-read smoke-run JSON and assert the headlines.

CI runs every benchmark in ``--smoke`` mode with ``--out BENCH_*_smoke.json``
and then invokes this script over the written files::

    python benchmarks/check_bench_guard.py BENCH_X7_smoke.json BENCH_X8_smoke.json ...

Each file's ``benchmark`` key selects a checker; the thresholds live in
``benchmarks/guard_baselines.json``.  Two classes of invariant are enforced:

* **structural** — exact, noise-free properties a regression would break
  outright: every grid point still asserted behavioral equivalence, batched
  dispatch trips equal ``ceil(blocks / batch)`` (trips scale with trips, not
  blocks), per-block worker round trips fall monotonically with the batch
  size;
* **timing** — headline speedups (routed planning beats the full scan,
  sharded/coordinator planning holds its margin, dispatch overhead stays
  bounded and amortizes), each relaxed by ``timing_tolerance`` because
  shared CI runners are noisy.

The script exits non-zero on the first file whose invariants fail, printing
one line per check so the CI log reads as a report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BASELINES_FILE = Path(__file__).resolve().parent / "guard_baselines.json"


class GuardFailure(Exception):
    """One failed invariant (message carries the evidence)."""


def _check(condition: bool, message: str, failures: list[str]) -> None:
    status = "ok  " if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        failures.append(message)


def _relax(threshold: float, tolerance: float) -> float:
    """A minimum threshold relaxed by the timing tolerance."""
    return threshold * (1.0 - tolerance)


def _check_equivalence(results: dict, failures: list[str]) -> None:
    equivalence = results.get("equivalence", {})
    _check(
        equivalence.get("checked") is True,
        "behavioral equivalence was asserted per grid point",
        failures,
    )


def check_x7(
    results: dict, limits: dict, tolerance: float, failures: list[str]
) -> None:
    minimum = _relax(limits["min_planning_speedup"], tolerance)
    for row in results["rule_scaling"]:
        _check(
            row["planning_speedup"] >= minimum,
            f"{row['rules']} rules: routed planning beats the full scan "
            f"({row['planning_speedup']}x >= {minimum:.2f}x)",
            failures,
        )
    bulk_minimum = _relax(limits["min_bulk_ingest_speedup"], tolerance)
    for row in results["ingestion"]:
        _check(
            row["speedup"] >= bulk_minimum,
            f"batch {row['batch_size']}: bulk extend holds its margin "
            f"({row['speedup']}x >= {bulk_minimum:.2f}x)",
            failures,
        )
    _check_equivalence(results, failures)


def check_x8(
    results: dict, limits: dict, tolerance: float, failures: list[str]
) -> None:
    minimum = _relax(limits["min_planning_speedup"], tolerance)
    for row in results["shard_scaling"]:
        _check(
            row["planning_speedup"] >= minimum,
            f"{row['rules']} rules: sharded planning holds its margin "
            f"({row['planning_speedup']}x >= {minimum:.2f}x)",
            failures,
        )
    _check_equivalence(results, failures)


def check_x9(
    results: dict, limits: dict, tolerance: float, failures: list[str]
) -> None:
    minimum = _relax(limits["min_planning_speedup"], tolerance)
    overhead_cap = limits["max_dispatch_overhead_us_per_block"] * (1.0 + tolerance)
    for row in results["process_scaling"]:
        _check(
            row["planning_speedup"] >= minimum,
            f"{row['rules']} rules: coordinator planning holds its margin "
            f"({row['planning_speedup']}x >= {minimum:.2f}x)",
            failures,
        )
        overhead = row["process_transport"]["dispatch_overhead_us_per_block"]
        _check(
            overhead <= overhead_cap,
            f"{row['rules']} rules: dispatch overhead bounded "
            f"({overhead} µs/block <= {overhead_cap:.0f})",
            failures,
        )
    _check_equivalence(results, failures)


def check_x10(
    results: dict, limits: dict, tolerance: float, failures: list[str]
) -> None:
    for grid_point in results["dispatch_amortization"]:
        rows = sorted(grid_point["rows"], key=lambda row: row["batch_blocks"])
        for row in rows:
            _check(
                row["trips"] == row["expected_trips"],
                f"batch {row['batch_blocks']}: trips scale with trips, "
                f"not blocks ({row['trips']} trips == "
                f"ceil({row['blocks']}/{row['batch_blocks']}))",
                failures,
            )
            if row["batch_blocks"] > 1:
                _check(
                    row["trips"] < row["blocks"],
                    f"batch {row['batch_blocks']}: fewer trips than blocks "
                    f"({row['trips']} < {row['blocks']})",
                    failures,
                )
        per_block = [row["round_trips_per_block"] for row in rows]
        _check(
            all(later < earlier for earlier, later in zip(per_block, per_block[1:])),
            f"per-block round trips fall monotonically with the batch size "
            f"({' > '.join(str(value) for value in per_block)})",
            failures,
        )
        base = rows[0]
        best = rows[-1]
        if base["batch_blocks"] == 1 and base["dispatch_overhead_us_per_block"] > 0:
            ratio_cap = limits["max_overhead_ratio_vs_batch_1"]
            ratio = (
                best["dispatch_overhead_us_per_block"]
                / base["dispatch_overhead_us_per_block"]
            )
            _check(
                ratio <= ratio_cap * (1.0 + tolerance),
                f"batch {best['batch_blocks']} dispatch overhead amortizes "
                f"({ratio:.2f}x of batch 1 <= {ratio_cap * (1.0 + tolerance):.2f}x)",
                failures,
            )
    _check_equivalence(results, failures)


def check_x11(
    results: dict, limits: dict, tolerance: float, failures: list[str]
) -> None:
    minimum = _relax(limits["min_check_speedup"], tolerance)
    for row in results["kernel"]:
        _check(
            row["check_speedup"] >= minimum,
            f"{row['rules']} rules: compiled kernel holds its margin "
            f"({row['check_speedup']}x >= {minimum:.2f}x)",
            failures,
        )
    process = results["process"]
    _check(
        process["check_speedup"] >= minimum,
        f"X9 grid point ({process['rules']} rules, {process['workers']} "
        f"workers): compiled kernel holds its margin "
        f"({process['check_speedup']}x >= {minimum:.2f}x)",
        failures,
    )
    sweep = results["sweep"]
    _check(
        sweep.get("identical") is True and sweep.get("runs", 0) > 0,
        f"compiled x mode x batch sweep byte-identical ({sweep.get('runs')} runs)",
        failures,
    )
    _check(
        len(sweep.get("batch_sizes", [])) >= 4 and len(sweep.get("modes", [])) == 3,
        "sweep covered every coordinator mode at multiple batch sizes",
        failures,
    )
    _check_equivalence(results, failures)


def check_x12(
    results: dict, limits: dict, tolerance: float, failures: list[str]
) -> None:
    strict_cap = limits["max_overhead_pct"] * (1.0 + tolerance)
    # An overhead measurement is only as precise as its arms are long:
    # min-of-reps converges to well under 1% once an arm runs for seconds
    # (the full X12 grid) but stays at several percent of scheduler jitter —
    # either sign — on sub-second smoke arms and on processes rows, whose
    # cost is dominated by worker round-trip latency.  Those rows get a
    # documented looser cap and lean on the structural snapshot checks
    # below as the primary acceptance.
    loose_limit = limits.get("max_loose_overhead_pct", limits["max_overhead_pct"])
    loose_cap = loose_limit * (1.0 + tolerance)
    precise_floor_ms = limits.get("precise_off_ms", 0)
    for row in results["x7_grid"] + results["x10_grid"]:
        precise = row["shard_mode"] != "processes" and row["off_ms"] >= precise_floor_ms
        cap = strict_cap if precise else loose_cap
        _check(
            row["overhead_pct"] <= cap,
            f"{row['rules']} rules, {row['shard_mode']} x batch "
            f"{row['batch_blocks']}: instrumentation overhead bounded "
            f"({row['overhead_pct']}% <= {cap:.2f}%)",
            failures,
        )
        _check(
            row["span_count"] > 0,
            f"{row['rules']} rules, {row['shard_mode']} x batch "
            f"{row['batch_blocks']}: enabled arm recorded spans "
            f"({row['span_count']} > 0)",
            failures,
        )
    snapshot = results["snapshot"]
    _check(
        snapshot.get("counters_match_stats") is True,
        "snapshot counters byte-equal to the live stats sources",
        failures,
    )
    _check(
        snapshot.get("worker_deltas_merged") is True,
        "process-worker metric deltas merged into the coordinator snapshot",
        failures,
    )
    _check_equivalence(results, failures)


def check_x13(
    results: dict, limits: dict, tolerance: float, failures: list[str]
) -> None:
    for grid_point in results["transport"]:
        flavor = "payload-bearing" if grid_point["payloads"] else "payload-free"
        _check(
            grid_point["deltas"] > 0,
            f"{flavor}: workers received row-frame deltas "
            f"({grid_point['deltas']} deltas)",
            failures,
        )
        if grid_point["payloads"]:
            _check(
                grid_point["rows_fallback"] > 0 and grid_point["rows_inline"] == 0,
                f"{flavor}: every row crossed via the per-row fallback "
                f"({grid_point['rows_fallback']} fallback rows)",
                failures,
            )
        else:
            _check(
                grid_point["rows_inline"] > 0 and grid_point["rows_fallback"] == 0,
                f"{flavor}: every row encoded inline "
                f"({grid_point['rows_inline']} inline rows)",
                failures,
            )
    adaptivity = results["adaptivity"]
    adaptive = adaptivity["arms"]["adaptive"]
    _check(
        adaptive["widened"] >= 1 and adaptive["shrunk"] >= 1,
        f"controller widened under backlog and shrank when it drained "
        f"({adaptive['widened']} widen / {adaptive['shrunk']} shrink steps)",
        failures,
    )
    _check(
        adaptive["final_bound"] == 1,
        f"controller settled back to per-block trips "
        f"(final bound {adaptive['final_bound']})",
        failures,
    )
    _check(
        adaptive["idle_trips"] == adaptivity["idle_blocks"],
        f"idle phase never coalesced ({adaptive['idle_trips']} trips over "
        f"{adaptivity['idle_blocks']} blocks)",
        failures,
    )
    _check(
        adaptive["backlog_trips"] < adaptivity["backlog_blocks"],
        f"backlog drained in batched trips ({adaptive['backlog_trips']} trips "
        f"< {adaptivity['backlog_blocks']} blocks)",
        failures,
    )
    latency_cap = limits["max_idle_latency_ratio"] * (1.0 + tolerance)
    _check(
        adaptivity["idle_latency_ratio"] <= latency_cap,
        f"adaptive idle latency tracks static-1 "
        f"({adaptivity['idle_latency_ratio']} <= {latency_cap:.2f})",
        failures,
    )
    throughput_floor = _relax(limits["min_backlog_throughput_ratio"], tolerance)
    _check(
        adaptivity["backlog_throughput_ratio"] >= throughput_floor,
        f"adaptive backlog throughput tracks static-8 "
        f"({adaptivity['backlog_throughput_ratio']} >= {throughput_floor:.2f})",
        failures,
    )
    _check_equivalence(results, failures)


def check_x14(
    results: dict, limits: dict, tolerance: float, failures: list[str]
) -> None:
    grid = results["transport"]
    for transport, row in grid["transports"].items():
        _check(
            row["defs_shipped"] == grid["rules"],
            f"{transport}: every definition shipped exactly once per version "
            f"({row['defs_shipped']} defs == {grid['rules']} rules)",
            failures,
        )
        _check(
            row["worker_round_trips"] == row["parallel_batches"],
            f"{transport}: one coordinator message per consulted worker per "
            f"trip ({row['worker_round_trips']} round trips == "
            f"{row['parallel_batches']} worker-batches)",
            failures,
        )
        _check(
            row["reconnects"] == 0,
            f"{transport}: undisturbed run absorbed no reconnects",
            failures,
        )
    for transport, row in grid["transports"].items():
        _check(
            row["deltas"] > 0 and row["rows_inline"] > 0 and row["rows_fallback"] == 0,
            f"{transport}: payload-free rows rode row frames inline "
            f"({row['deltas']} deltas, {row['rows_inline']} rows)",
            failures,
        )
    ratio_cap = limits["max_tcp_vs_pipe_check_ratio"] * (1.0 + tolerance)
    _check(
        grid["tcp_vs_pipe_check_ratio"] <= ratio_cap,
        f"tcp check time per block stays near pipe's "
        f"({grid['tcp_vs_pipe_check_ratio']}x <= {ratio_cap:.2f}x)",
        failures,
    )
    reconnect = results["reconnect"]
    _check(
        reconnect["reconnects"] == 1 and reconnect["reconnects_uninterrupted"] == 0,
        f"exactly the injected reconnect was absorbed "
        f"({reconnect['reconnects']} vs {reconnect['reconnects_uninterrupted']})",
        failures,
    )
    _check(
        reconnect["resync_defs"] > 0,
        f"the bounced worker's definitions re-shipped "
        f"({reconnect['resync_defs']} defs)",
        failures,
    )
    _check(
        reconnect["equivalent"] is True,
        "bounced run byte-identical to the uninterrupted run "
        "(triggerings + consideration order)",
        failures,
    )
    _check_equivalence(results, failures)


CHECKERS = {
    "x7_rule_scaling": check_x7,
    "x8_shard_scaling": check_x8,
    "x9_process_scaling": check_x9,
    "x10_dispatch_amortization": check_x10,
    "x11_compiled_check": check_x11,
    "x12_observability_overhead": check_x12,
    "x13_transport_adaptivity": check_x13,
    "x14_socket_transport": check_x14,
}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_bench_guard.py BENCH_RESULTS.json [...]", file=sys.stderr)
        return 2
    baselines = json.loads(BASELINES_FILE.read_text())
    tolerance = baselines.get("timing_tolerance", 0.0)
    failures: list[str] = []
    for path in argv:
        results = json.loads(Path(path).read_text())
        name = results.get("benchmark")
        checker = CHECKERS.get(name)
        print(f"{path} ({name}):")
        if checker is None:
            _check(False, f"unknown benchmark kind {name!r}", failures)
            continue
        checker(results, baselines.get(name, {}), tolerance, failures)
    if failures:
        print(f"\nbench guard: {len(failures)} invariant(s) failed", file=sys.stderr)
        for message in failures:
            print(f"  - {message}", file=sys.stderr)
        return 1
    print("\nbench guard: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
